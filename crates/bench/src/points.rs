//! The point table: every distinct simulation behind a set of figures,
//! run once.
//!
//! The paper's figures overlap. Figure 10 plots Figure 9's whole grid
//! again, and `base`, `vb16` and `ncp5` reappear under other names
//! (`2w-vb0`, `2w-vb16`, `ncp5-adaptive`). A point's report depends on
//! the spec's content and the trace, never on the spec's display name,
//! so a [`PointKey`] — the spec without its name — identifies one
//! simulation.
//!
//! [`PointTable::new`] takes the union of the figures' specs, in figure
//! order, deduplicated by that key; the first figure to request a point
//! keeps its label. [`PointTable::run`] runs the distinct specs
//! workload-major (one trace generated, swept and dropped at a time), and
//! [`PointTable::project`] cuts each figure's grid back out of the
//! results, renaming every report to the requesting spec. A figure run
//! alone ([`Figure::run`]) is the table of that one figure.

use std::collections::hash_map::{Entry, HashMap};

use dsm_core::SystemSpec;
use dsm_trace::WorkloadKind;
use dsm_types::DsmError;

use crate::figures::Figure;
use crate::harness::{FigureTable, Grid, TraceSet};
use crate::sweep::{run_sweep, SweepOutcome, SweepPoint};

/// A simulation's identity within one trace: the system spec without its
/// display name. Two specs with equal keys produce equal reports.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PointKey(SystemSpec);

impl PointKey {
    /// The key of `spec`.
    #[must_use]
    pub fn of(spec: &SystemSpec) -> Self {
        PointKey(SystemSpec {
            name: String::new(),
            ..spec.clone()
        })
    }
}

/// Every workload's outcomes, one per distinct spec in table order.
pub type TableResults = Vec<(WorkloadKind, Vec<SweepOutcome>)>;

/// The distinct points of a set of figures. See the module docs.
#[derive(Debug, Default)]
pub struct PointTable {
    /// The distinct specs in first-request order, each named by the
    /// figure that requested it first.
    specs: Vec<SystemSpec>,
    /// For each distinct spec, the index of the figure that requested it
    /// first.
    owners: Vec<usize>,
    index: HashMap<PointKey, usize>,
    /// Specs requested over all figures, duplicates included.
    plotted: usize,
}

impl PointTable {
    /// Builds the table from each figure's specs, in figure order.
    #[must_use]
    pub fn new(figures: impl IntoIterator<Item = Vec<SystemSpec>>) -> Self {
        let mut table = PointTable::default();
        for (figure, specs) in figures.into_iter().enumerate() {
            for spec in specs {
                table.plotted += 1;
                if let Entry::Vacant(slot) = table.index.entry(PointKey::of(&spec)) {
                    slot.insert(table.specs.len());
                    table.specs.push(spec);
                    table.owners.push(figure);
                }
            }
        }
        table
    }

    /// The distinct specs, in first-request order, under their first
    /// requester's name.
    #[must_use]
    pub fn specs(&self) -> &[SystemSpec] {
        &self.specs
    }

    /// Points plotted per workload, over all figures.
    #[must_use]
    pub fn plotted(&self) -> usize {
        self.plotted
    }

    /// Points simulated per workload: the distinct specs.
    #[must_use]
    pub fn simulated(&self) -> usize {
        self.specs.len()
    }

    /// The index of the figure that requested the `i`-th distinct spec
    /// first (and so owns its label).
    #[must_use]
    pub fn owner(&self, i: usize) -> usize {
        self.owners[i]
    }

    /// Runs every distinct spec on every workload, workload-major: each
    /// workload's trace is generated once, swept over all distinct specs
    /// in one [`run_sweep`] on [`TraceSet::jobs`] workers, and dropped
    /// before the next, so peak memory stays at a single trace. Row order
    /// is the serial run's by the engine's submission-order guarantee. A
    /// failed point never aborts the others: they keep running, and keep
    /// journaling if a journal is attached.
    pub fn run(&self, ts: &mut TraceSet, kinds: &[WorkloadKind]) -> TableResults {
        let jobs = ts.jobs();
        kinds
            .iter()
            .map(|&kind| {
                let points: Vec<SweepPoint> = self
                    .specs
                    .iter()
                    .map(|s| SweepPoint::new(s.clone(), kind))
                    .collect();
                let outcomes = run_sweep(ts, &points, jobs);
                ts.evict(kind);
                (kind, outcomes)
            })
            .collect()
    }

    /// Projects one figure's grid out of `results`: its specs, in its
    /// order, with each report's `system` renamed to the requesting spec.
    ///
    /// # Errors
    ///
    /// An internal [`DsmError`] if a spec is not in the table, or one
    /// listing every failed point the figure needs.
    ///
    /// # Panics
    ///
    /// If `results` did not come from this table's [`PointTable::run`].
    pub fn project(&self, results: &TableResults, specs: &[SystemSpec]) -> Result<Grid, DsmError> {
        let columns = specs
            .iter()
            .map(|spec| {
                self.index.get(&PointKey::of(spec)).copied().ok_or_else(|| {
                    DsmError::internal(format!("{} is not in the point table", spec.name))
                })
            })
            .collect::<Result<Vec<usize>, DsmError>>()?;
        let rows = results
            .iter()
            .map(|(kind, row)| {
                let cells = columns
                    .iter()
                    .zip(specs)
                    .map(|(&i, spec)| {
                        let mut cell = row[i].clone();
                        if let Ok(report) = &mut cell.result {
                            report.system.clone_from(&spec.name);
                        }
                        cell
                    })
                    .collect();
                (*kind, cells)
            })
            .collect();
        collect_grid(rows)
    }
}

impl Figure {
    /// Runs this figure alone over `kinds`: a one-figure [`PointTable`],
    /// projected through the figure's `table`, as `reproduce --figures`
    /// prints it.
    ///
    /// # Errors
    ///
    /// The whole grid is always attempted. If any point failed, a
    /// [`DsmError`] listing every failure with its repro line.
    pub fn run(&self, ts: &mut TraceSet, kinds: &[WorkloadKind]) -> Result<FigureTable, DsmError> {
        let specs = (self.specs)();
        let table = PointTable::new([specs.clone()]);
        let results = table.run(ts, kinds);
        Ok((self.table)(&table.project(&results, &specs)?))
    }
}

/// Splits sweep outcomes into a report grid.
///
/// # Errors
///
/// If any point failed, a [`DsmError`] whose message lists every
/// failure with its one-line `simulate` repro invocation.
fn collect_grid(rows: TableResults) -> Result<Grid, DsmError> {
    let mut grid = Vec::with_capacity(rows.len());
    let mut failures = Vec::new();
    for (kind, outcomes) in rows {
        let mut reports = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            match outcome.result {
                Ok(r) => reports.push(r),
                Err(f) => failures.push(f),
            }
        }
        grid.push((kind, reports));
    }
    if failures.is_empty() {
        return Ok(grid);
    }
    let mut msg = format!("{} sweep point(s) failed:", failures.len());
    for f in &failures {
        msg.push_str("\n  ");
        msg.push_str(&f.to_string());
    }
    Err(DsmError::internal(msg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::FIGURES;
    use dsm_core::config::text;
    use dsm_core::{CounterSource, MigRepSpec, NcSpec, PcSize, ThresholdPolicy};

    fn all_figures() -> PointTable {
        PointTable::new(FIGURES.iter().map(|f| (f.specs)()))
    }

    #[test]
    fn all_figures_plot_61_points_and_simulate_34() {
        let table = all_figures();
        assert_eq!(FIGURES.len(), 11);
        assert_eq!(table.plotted(), 61);
        assert_eq!(table.simulated(), 34);
        // The three aliases run once, under the first requester's name.
        let label = |spec: SystemSpec| {
            let key = PointKey::of(&spec);
            let simulated = table.specs().iter().filter(|s| PointKey::of(s) == key);
            simulated.map(|s| s.name.as_str()).collect::<Vec<_>>()
        };
        assert_eq!(label(SystemSpec::base()), ["2w-vb0"]);
        assert_eq!(label(SystemSpec::vb()), ["2w-vb16"]);
        assert_eq!(
            label(SystemSpec::ncp(PcSize::DataFraction(5))),
            ["ncp5-adaptive"]
        );
        // Every other distinct spec keeps its own name, so labels stay
        // unique.
        let mut names: Vec<&str> = table.specs().iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 34);
    }

    #[test]
    fn specs_differing_in_threshold_policy_or_ways_stay_distinct() {
        let ncp5 = SystemSpec::ncp(PcSize::DataFraction(5));
        let fixed = ncp5.clone().with_threshold(ThresholdPolicy::Fixed(32));
        assert_ne!(PointKey::of(&ncp5), PointKey::of(&fixed));
        let four_way = SystemSpec::base().with_cache(16 * 1024, 4);
        assert_ne!(PointKey::of(&SystemSpec::base()), PointKey::of(&four_way));
        let table = PointTable::new([vec![ncp5.clone(), fixed], vec![four_way, ncp5]]);
        assert_eq!((table.plotted(), table.simulated()), (4, 3));
        assert_eq!(table.owner(2), 1);
        // Renaming alone never makes a new point.
        let mut renamed = SystemSpec::vb();
        renamed.name = "other".into();
        assert_eq!(PointKey::of(&renamed), PointKey::of(&SystemSpec::vb()));
    }

    #[test]
    fn key_json_names_every_field_but_the_name() {
        // The sweep journal keys a point by its spec's text, which holds
        // every field but the display name.
        let spec = SystemSpec::vxp(PcSize::DataFraction(5), 32).with_limited_directory(4);
        let rendered = text::render(&spec);
        assert_eq!(rendered, "vxp:pointers=4");
        let mut renamed = spec.clone();
        renamed.name = "other".into();
        assert_eq!(text::render(&renamed), rendered);
        let parsed = text::parse(&rendered).expect("key parses");
        assert_eq!(PointKey::of(&parsed), PointKey::of(&spec));
    }

    /// Every constructor, alone and with each builder that applies to it.
    fn built_specs() -> Vec<SystemSpec> {
        let mut origin_knobs = SystemSpec::origin();
        origin_knobs.migrep = Some(MigRepSpec {
            threshold: 64,
            migration: false,
            replication: true,
        });
        let mut origin_vb_knobs = SystemSpec::origin_vb();
        origin_vb_knobs.migrep = Some(MigRepSpec {
            threshold: 8,
            migration: true,
            replication: false,
        });
        let constructors = [
            SystemSpec::base(),
            SystemSpec::nc(),
            SystemSpec::vb(),
            SystemSpec::vb_sized(1024),
            SystemSpec::vp(),
            SystemSpec::ncd(),
            SystemSpec::ncs(),
            SystemSpec::infinite_dram(),
            SystemSpec::ncp(PcSize::DataFraction(16)),
            SystemSpec::ncp(PcSize::Bytes(512 * 1024)),
            SystemSpec::vbp(PcSize::DataFraction(7)),
            SystemSpec::vbp(PcSize::Bytes(512 * 1024)),
            SystemSpec::vpp(PcSize::DataFraction(5)),
            SystemSpec::vpp(PcSize::Bytes(8192)),
            SystemSpec::vxp(PcSize::DataFraction(5), 64),
            SystemSpec::vxp(PcSize::Bytes(8192), 4),
            SystemSpec::origin(),
            SystemSpec::origin_vb(),
            origin_knobs,
            origin_vb_knobs,
        ];
        let mut out = Vec::new();
        for spec in constructors {
            let victim = matches!(spec.nc, NcSpec::SramVictim { .. });
            let counters = spec.pc.map(|pc| pc.counters);
            let mut builds = vec![
                spec.clone(),
                spec.clone().with_cache(2048, 1),
                spec.clone().with_dirty_shared(),
            ];
            if counters != Some(CounterSource::Directory) {
                builds.push(spec.clone().with_limited_directory(2));
            }
            if victim {
                builds.push(spec.clone().without_mesir_capture());
            }
            if counters == Some(CounterSource::VictimSets) {
                builds.push(spec.clone().with_invalidation_decrement());
            }
            if counters.is_some() {
                builds.push(spec.clone().with_threshold(ThresholdPolicy::Fixed(32)));
            }
            out.extend(builds);
        }
        out
    }

    #[test]
    fn spec_texts_round_trip() {
        let figures = all_figures();
        assert_eq!(figures.specs().len(), 34);
        let specs = figures.specs().iter().cloned().chain(built_specs());
        let mut texts = std::collections::HashMap::new();
        for spec in specs {
            spec.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            let rendered = text::render(&spec);
            let parsed = text::parse(&rendered).unwrap_or_else(|e| panic!("{rendered}: {e}"));
            assert_eq!(PointKey::of(&parsed), PointKey::of(&spec), "{rendered}");
            assert_eq!(text::render(&parsed), rendered);
            // A bare family keeps its constructor's name; overrides name
            // the spec by its text.
            if rendered.contains(':') {
                assert_eq!(parsed.name, rendered);
            }
            // Distinct points never share a text (the journal's key).
            let key = PointKey::of(&spec);
            assert_eq!(
                texts.entry(rendered.clone()).or_insert(key.clone()),
                &key,
                "{rendered}"
            );
        }
    }
}
