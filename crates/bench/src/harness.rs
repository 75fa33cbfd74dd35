//! Shared experiment machinery: strict CLI parsing, trace caching, fair
//! comparison, and table rendering.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use dsm_core::obs::span::SpanTracer;
use dsm_core::obs::Json;
use dsm_core::runner::{run_trace, run_trace_probed};
use dsm_core::{PhaseCounters, PhaseProfiler, Probe, Report, SystemSpec};
use dsm_trace::{open_shared_mapped, write_shared, Scale, SharedTrace, WorkloadKind};
use dsm_types::{DsmError, Geometry, Topology};

use crate::journal::SweepJournal;
use crate::sweep::Jobs;

/// The flags `reproduce` and `profile` accept — one usage text shared by
/// both, printed under each binary's usage line.
pub const COMMON_FLAGS_USAGE: &str = "\
common flags:
  --scale <f>  trace-length scale factor in (0, 1] (env DSM_SCALE; default 1.0)
  --jobs <n>   sweep worker threads (env DSM_JOBS; default: available
               parallelism; 1 = the serial legacy path). Simulated points
               are the unit of parallelism: each replays on one thread
  --shard-workers 1  accepted for compatibility and ignored; intra-trace
               sharding was removed, so any other value is an error
  --mmap       replay traces through the zero-copy mmap loader:
               generated traces are spilled to a temp file and mapped
               read-only instead of staying heap-resident (env DSM_MMAP;
               results are byte-identical either way)
  --fault-seed <n>  arm the deterministic fault-injection plane with the
               plan derived from seed n (env DSM_FAULT_PLAN accepts a
               seed or an explicit site spec: journal-io:<n>,
               atomic-write-io:<n> or mmap-truncate; supervised recovery
               keeps results byte-identical or fails with a structured
               error — chaos testing only)";

/// The common CLI arguments of every experiment binary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunArgs {
    /// Trace-length scale factor.
    pub scale: Scale,
    /// Sweep-engine worker count.
    pub jobs: Jobs,
    /// Load traces through the zero-copy mmap path.
    pub mmap: bool,
    /// Fault-injection seed (`--fault-seed`): `Some` arms the plan
    /// derived from the seed via [`dsm_core::fault`]. `None` leaves the
    /// plane disarmed unless `DSM_FAULT_PLAN` is set.
    pub fault_seed: Option<u64>,
}

/// Parses `argv` (without the program name), accepting `--scale <f>`,
/// `--jobs <n>`, `--mmap` and `--fault-seed <n>`, plus `--shard-workers 1`
/// as a no-op kept so existing command lines still run. Any other
/// argument is first offered to `extra`, which
/// returns how many argv items it consumed (`Ok(0)` = unrecognized).
/// Unknown or malformed flags are an `Err` — nothing is silently
/// swallowed. Missing values fall back to `DSM_SCALE` / `DSM_JOBS`, then
/// to scale 1.0 / all available hardware threads.
///
/// # Errors
///
/// Returns the message to print above the usage text.
pub fn parse_argv(
    argv: &[String],
    mut extra: impl FnMut(&[String], usize) -> Result<usize, String>,
) -> Result<RunArgs, String> {
    let mut scale: Option<f64> = None;
    let mut jobs: Option<usize> = None;
    let mut mmap = false;
    let mut fault_seed: Option<u64> = None;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--scale" => {
                let v = argv
                    .get(i + 1)
                    .ok_or_else(|| "--scale requires a value".to_owned())?;
                scale = Some(v.parse().map_err(|_| format!("bad scale '{v}'"))?);
                i += 2;
            }
            "--jobs" => {
                let v = argv
                    .get(i + 1)
                    .ok_or_else(|| "--jobs requires a value".to_owned())?;
                jobs = Some(v.parse().map_err(|_| format!("bad job count '{v}'"))?);
                i += 2;
            }
            "--shard-workers" => {
                let v = argv
                    .get(i + 1)
                    .ok_or_else(|| "--shard-workers requires a value".to_owned())?;
                if v != "1" {
                    return Err(format!(
                        "--shard-workers {v}: intra-trace sharding was removed; every \
                         point replays on one thread (only --shard-workers 1 is \
                         accepted). Use --jobs <n> to run points in parallel"
                    ));
                }
                i += 2;
            }
            "--mmap" => {
                mmap = true;
                i += 1;
            }
            "--fault-seed" => {
                let v = argv
                    .get(i + 1)
                    .ok_or_else(|| "--fault-seed requires a value".to_owned())?;
                fault_seed = Some(v.parse().map_err(|_| format!("bad fault seed '{v}'"))?);
                i += 2;
            }
            other => match extra(argv, i)? {
                0 => return Err(format!("unknown flag '{other}'")),
                n => i += n,
            },
        }
    }
    if scale.is_none() {
        if let Ok(v) = std::env::var("DSM_SCALE") {
            scale = Some(v.parse().map_err(|_| format!("bad DSM_SCALE '{v}'"))?);
        }
    }
    if jobs.is_none() {
        if let Ok(v) = std::env::var("DSM_JOBS") {
            jobs = Some(v.parse().map_err(|_| format!("bad DSM_JOBS '{v}'"))?);
        }
    }
    if !mmap {
        if let Ok(v) = std::env::var("DSM_MMAP") {
            mmap = !v.is_empty() && v != "0";
        }
    }
    Ok(RunArgs {
        scale: Scale::new(scale.unwrap_or(1.0)).map_err(|e| e.to_string())?,
        jobs: match jobs {
            Some(n) => Jobs::new(n)?,
            None => Jobs::available(),
        },
        mmap,
        fault_seed,
    })
}

/// Arms the process-wide fault plan from `args.fault_seed` (or, when no
/// seed was given, from `DSM_FAULT_PLAN`). [`parse_run_args`] calls this
/// once, right after flag parsing; with neither source set it is a no-op
/// and the injection sites stay zero-cost.
///
/// # Errors
///
/// A malformed `DSM_FAULT_PLAN` spec is a usage error (exit code 2).
fn install_fault_plan(args: &RunArgs) -> Result<(), DsmError> {
    if let Some(seed) = args.fault_seed {
        let plan = dsm_core::fault::FaultPlan::derive(seed);
        dsm_core::fault::install(Some(plan));
        eprintln!("fault plan armed: seed {seed} -> {}", plan.spec());
        return Ok(());
    }
    if let Some(plan) = dsm_core::fault::install_from_env()? {
        eprintln!("fault plan armed: {}", plan.spec());
    }
    Ok(())
}

/// Prints `error: <msg>`, the binary's usage line, and the shared flag
/// reference, then exits with status 2.
pub fn usage_exit(usage_line: &str, msg: &str) -> ! {
    eprintln!("error: {msg}\nusage: {usage_line}\n{COMMON_FLAGS_USAGE}");
    std::process::exit(2);
}

/// Prints a figure-run error and maps it to the process exit code
/// (see `DsmError::exit_code`: 2 usage, 3 bad input, 4 internal).
#[must_use]
pub fn report_failure(e: &DsmError) -> std::process::ExitCode {
    eprintln!("error: {e}");
    std::process::ExitCode::from(e.exit_code())
}

/// The one command-line parser of the experiment binaries: parses the
/// process arguments with [`parse_argv`] (the common flags, then the
/// binary's own through `extra`) and arms the fault plan from
/// `--fault-seed` or `DSM_FAULT_PLAN`. Any error, a malformed plan
/// included, prints `usage_line` with the shared flag reference and exits
/// with status 2.
#[must_use]
pub fn parse_run_args(
    usage_line: &str,
    extra: impl FnMut(&[String], usize) -> Result<usize, String>,
) -> RunArgs {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_argv(&argv, extra).unwrap_or_else(|msg| usage_exit(usage_line, &msg));
    if let Err(e) = install_fault_plan(&args) {
        usage_exit(usage_line, e.message());
    }
    args
}

/// A cache of generated traces, one per workload, shared by every system
/// configuration of a figure (the paper's same-trace methodology).
///
/// The set also carries the sweep-engine worker count ([`Jobs`]): every
/// [`crate::PointTable`] run on this set executes its points on that
/// many workers, all reading the same immutable trace. Generation happens
/// in [`TraceSet::prepare`] (or lazily in [`TraceSet::run`]) — never
/// inside the parallel region.
pub struct TraceSet {
    topo: Topology,
    geo: Geometry,
    scale: Scale,
    jobs: Jobs,
    /// Spill generated traces to a temp file and reopen them through the
    /// zero-copy mmap loader (`--mmap`), so sweeps replay from mapped
    /// pages exactly like externally supplied trace files.
    mmap: bool,
    /// Crash-safety journal consulted and appended by the sweep engine
    /// (see [`SweepJournal`]); `None` = no journaling.
    journal: Option<Arc<SweepJournal>>,
    /// One columnar trace per workload: the decomposition columns are
    /// computed here, once, and shared read-only by every configuration
    /// (and every sweep worker) that replays the workload.
    traces: HashMap<WorkloadKind, (u64, SharedTrace)>,
    /// Live per-point progress lines on stderr (`--progress`).
    progress: bool,
    /// Per-point phase-counter collection (`--phase-stats`): sweep points
    /// run under a [`PhaseProfiler`] and their rollups accumulate here.
    phase_stats: bool,
    /// Span tracer shared with the sweep engine (`--chrome-trace`).
    tracer: Option<Arc<SpanTracer>>,
    /// Completed `(point label, counters)` rollups, appended by sweep
    /// workers under the mutex and drained by [`TraceSet::take_phase_rollups`].
    phase_rollups: Mutex<Vec<(String, PhaseCounters)>>,
    /// Wall seconds each [`TraceSet::prepare`] spent generating a trace.
    load_times: Vec<(WorkloadKind, f64)>,
}

impl TraceSet {
    /// Creates an empty set generating paper-parameter traces at `scale`,
    /// sweeping on all available hardware threads.
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        TraceSet::with_jobs(scale, Jobs::available())
    }

    /// Builds a set from parsed CLI arguments: scale, sweep jobs and
    /// the trace storage mode — the one-liner every experiment binary
    /// uses so the common flags are honored everywhere.
    #[must_use]
    pub fn from_args(args: &RunArgs) -> Self {
        let mut ts = TraceSet::with_jobs(args.scale, args.jobs);
        ts.set_mmap(args.mmap);
        ts
    }

    /// [`TraceSet::new`] with an explicit sweep worker count.
    #[must_use]
    pub fn with_jobs(scale: Scale, jobs: Jobs) -> Self {
        TraceSet {
            topo: Topology::paper_default(),
            geo: Geometry::paper_default(),
            scale,
            jobs,
            mmap: false,
            journal: None,
            traces: HashMap::new(),
            progress: false,
            phase_stats: false,
            tracer: None,
            phase_rollups: Mutex::new(Vec::new()),
            load_times: Vec::new(),
        }
    }

    /// The machine topology in use.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The sweep worker count grids built from this set run on.
    #[must_use]
    pub fn jobs(&self) -> Jobs {
        self.jobs
    }

    /// Enables (or disables) the zero-copy trace path: traces generated
    /// by [`TraceSet::prepare`] are written to a temp file and reopened
    /// through the kernel mapping, so replays decode from mapped pages.
    /// Results are byte-identical either way.
    pub fn set_mmap(&mut self, on: bool) {
        self.mmap = on;
    }

    /// Whether prepared traces replay from a kernel mapping.
    #[must_use]
    pub fn mmap(&self) -> bool {
        self.mmap
    }

    /// The trace-length scale factor (part of every trace's identity).
    #[must_use]
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// Attaches (or detaches) a crash-safety journal: every sweep run
    /// from this set records completed points to it, and points a
    /// resumed journal already holds are skipped with their recorded
    /// reports returned instead.
    pub fn set_journal(&mut self, journal: Option<Arc<SweepJournal>>) {
        self.journal = journal;
    }

    /// The attached journal, if any.
    #[must_use]
    pub fn journal(&self) -> Option<&SweepJournal> {
        self.journal.as_deref()
    }

    /// Enables (or disables) live per-point progress lines on stderr.
    pub fn set_progress(&mut self, on: bool) {
        self.progress = on;
    }

    /// Whether sweeps from this set stream progress lines to stderr.
    #[must_use]
    pub fn progress(&self) -> bool {
        self.progress
    }

    /// Enables per-point phase-counter collection: sweep points run under
    /// a [`PhaseProfiler`] and their rollups accumulate on this set until
    /// drained with [`TraceSet::take_phase_rollups`]. Reports are
    /// unchanged (probes observe, never steer).
    pub fn enable_phase_stats(&mut self, on: bool) {
        self.phase_stats = on;
    }

    /// Whether sweep points run under phase profiling.
    #[must_use]
    pub fn phase_stats(&self) -> bool {
        self.phase_stats
    }

    /// Attaches (or detaches) a span tracer: trace generation and every
    /// sweep point record timed spans on it, one lane per sweep worker.
    pub fn set_tracer(&mut self, tracer: Option<Arc<SpanTracer>>) {
        self.tracer = tracer;
    }

    /// The attached span tracer, if any.
    #[must_use]
    pub fn tracer(&self) -> Option<&SpanTracer> {
        self.tracer.as_deref()
    }

    /// Records one completed point's phase-counter rollup (called by
    /// sweep workers; `&self` — the accumulator is behind a mutex).
    pub fn record_phase_rollup(&self, label: &str, counters: PhaseCounters) {
        self.phase_rollups
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push((label.to_owned(), counters));
    }

    /// Drains the accumulated `(point label, counters)` rollups, in the
    /// order points completed (not submission order — sort by label for
    /// deterministic output).
    pub fn take_phase_rollups(&mut self) -> Vec<(String, PhaseCounters)> {
        std::mem::take(
            &mut *self
                .phase_rollups
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    /// Generates (once) the trace for `kind` and returns it; afterwards
    /// the trace is immutable and [`TraceSet::run_prepared`] can run on
    /// `&self` from any number of threads. Under [`TraceSet::set_mmap`]
    /// the returned trace replays from a kernel mapping.
    pub fn prepare(&mut self, kind: WorkloadKind) -> &SharedTrace {
        if !self.traces.contains_key(&kind) {
            let t0 = std::time::Instant::now();
            let mut span = self.tracer.as_deref().map(|t| {
                let lane = t.lane("main");
                t.span(lane, format!("trace load: {kind}"))
            });
            let w = kind.paper_instance();
            let refs = w.generate(&self.topo, self.scale);
            if let Some(s) = &mut span {
                s.arg("refs", refs.len() as u64);
            }
            let mut trace = SharedTrace::from_refs(self.topo, self.geo, &refs);
            if self.mmap {
                trace = spill_and_map(kind, &trace);
            }
            self.traces.insert(kind, (w.shared_bytes(), trace));
            self.load_times.push((kind, t0.elapsed().as_secs_f64()));
        }
        &self.traces[&kind].1
    }

    /// Every trace generation so far: the workload and its wall seconds,
    /// in order (a workload appears again if it was evicted and
    /// regenerated).
    #[must_use]
    pub fn load_times(&self) -> &[(WorkloadKind, f64)] {
        &self.load_times
    }

    /// Runs `spec` on `kind`'s cached trace.
    ///
    /// # Panics
    ///
    /// Panics if the system spec is invalid for this workload.
    pub fn run(&mut self, spec: &SystemSpec, kind: WorkloadKind) -> Report {
        self.prepare(kind);
        self.run_prepared(spec, kind)
    }

    /// Runs `spec` on `kind`'s already-generated trace, without mutating
    /// the set — the shared read-only path the sweep workers use.
    ///
    /// # Panics
    ///
    /// Panics if `kind` was not [`TraceSet::prepare`]d, or if the system
    /// spec is invalid for this workload.
    pub fn run_prepared(&self, spec: &SystemSpec, kind: WorkloadKind) -> Report {
        let (data_bytes, trace) = self
            .traces
            .get(&kind)
            .unwrap_or_else(|| panic!("trace for {kind} not prepared"));
        run_trace(
            spec,
            &kind.display_name().to_lowercase(),
            *data_bytes,
            trace,
        )
        .unwrap_or_else(|e| panic!("{}/{kind}: {e}", spec.name))
    }

    /// [`TraceSet::run_prepared`] under a [`PhaseProfiler`]: returns the
    /// report next to the point's phase counters. The report is identical
    /// to the unprofiled run — the profiler only observes.
    ///
    /// # Panics
    ///
    /// Panics if `kind` was not [`TraceSet::prepare`]d, or if the system
    /// spec is invalid for this workload.
    #[must_use]
    pub fn run_prepared_profiled(
        &self,
        spec: &SystemSpec,
        kind: WorkloadKind,
    ) -> (Report, PhaseCounters) {
        let (data_bytes, trace) = self
            .traces
            .get(&kind)
            .unwrap_or_else(|| panic!("trace for {kind} not prepared"));
        let (report, profiler) = run_trace_probed(
            spec,
            &kind.display_name().to_lowercase(),
            *data_bytes,
            trace,
            PhaseProfiler::for_spec(spec),
            None,
        )
        .unwrap_or_else(|e| panic!("{}/{kind}: {e}", spec.name));
        (report, profiler.into_counters())
    }

    /// Runs `spec` on `kind`'s cached trace with an attached probe,
    /// returning the probe (with its collected events/epochs) next to the
    /// report. `epoch_window` enables epoch sampling.
    ///
    /// # Panics
    ///
    /// Panics if the system spec is invalid for this workload.
    pub fn run_probed<P: Probe>(
        &mut self,
        spec: &SystemSpec,
        kind: WorkloadKind,
        probe: P,
        epoch_window: Option<u64>,
    ) -> (Report, P) {
        self.prepare(kind);
        let (data_bytes, trace) = &self.traces[&kind];
        run_trace_probed(
            spec,
            &kind.display_name().to_lowercase(),
            *data_bytes,
            trace,
            probe,
            epoch_window,
        )
        .unwrap_or_else(|e| panic!("{}/{kind}: {e}", spec.name))
    }

    /// Drops `kind`'s cached trace (frees memory between figures).
    pub fn evict(&mut self, kind: WorkloadKind) {
        self.traces.remove(&kind);
    }
}

/// Round-trips a generated trace through a temp `.dsmt` file and reopens
/// it with the zero-copy loader, so `--mmap` sweeps replay from kernel
/// mappings exactly like externally supplied trace files. The temp file
/// is unlinked immediately — success or failure — because the mapping
/// keeps the pages alive without the directory entry.
///
/// # Panics
///
/// Panics if the spill or re-open fails: an `--mmap` run that silently
/// fell back to heap storage would misreport what was measured.
fn spill_and_map(kind: WorkloadKind, trace: &SharedTrace) -> SharedTrace {
    use std::io::Write as _;
    let path = std::env::temp_dir().join(format!("dsm-bench-{}-{kind}.dsmt", std::process::id()));
    let spilled = (|| -> Result<SharedTrace, String> {
        let file =
            std::fs::File::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        let mut w = std::io::BufWriter::new(file);
        write_shared(&mut w, trace).map_err(|e| e.to_string())?;
        w.flush().map_err(|e| e.to_string())?;
        open_shared_mapped(&path).map_err(|e| e.to_string())
    })();
    let _ = std::fs::remove_file(&path);
    spilled.unwrap_or_else(|e| panic!("--mmap trace spill for {kind}: {e}"))
}

/// A printable figure: a caption, column headers, and one row per
/// benchmark.
#[derive(Debug, Clone)]
pub struct FigureTable {
    /// Figure caption.
    pub caption: String,
    /// Column headers (first column is the benchmark).
    pub columns: Vec<String>,
    /// Rows: benchmark name + one value per column.
    pub rows: Vec<(String, Vec<f64>)>,
    /// Printf precision for values.
    pub precision: usize,
}

impl FigureTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new(caption: impl Into<String>, columns: Vec<String>) -> Self {
        FigureTable {
            caption: caption.into(),
            columns,
            rows: Vec::new(),
            precision: 3,
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the value count does not match the column count.
    pub fn push_row(&mut self, name: impl Into<String>, values: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row width must match columns"
        );
        self.rows.push((name.into(), values));
    }

    /// Renders the table as aligned text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {}\n", self.caption));
        let name_w = self
            .rows
            .iter()
            .map(|(n, _)| n.len())
            .chain(["benchmark".len()])
            .max()
            .unwrap_or(9);
        let col_w = self
            .columns
            .iter()
            .map(String::len)
            .max()
            .unwrap_or(8)
            .max(self.precision + 4);
        out.push_str(&format!("{:name_w$}", "benchmark"));
        for c in &self.columns {
            out.push_str(&format!("  {c:>col_w$}"));
        }
        out.push('\n');
        for (name, values) in &self.rows {
            out.push_str(&format!("{name:name_w$}"));
            for v in values {
                out.push_str(&format!("  {v:>col_w$.prec$}", prec = self.precision));
            }
            out.push('\n');
        }
        out
    }

    /// Serializes the table as a JSON object (for `results/*.json`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let rows: Vec<Json> = self
            .rows
            .iter()
            .map(|(name, values)| {
                Json::obj().set("benchmark", name.as_str()).set(
                    "values",
                    values.iter().map(|&v| Json::F64(v)).collect::<Vec<_>>(),
                )
            })
            .collect();
        Json::obj()
            .set("caption", self.caption.as_str())
            .set(
                "columns",
                self.columns
                    .iter()
                    .map(|c| Json::Str(c.clone()))
                    .collect::<Vec<_>>(),
            )
            .set("rows", rows)
    }

    /// Renders as a Markdown table (for EXPERIMENTS.md).
    #[must_use]
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("| benchmark | {} |\n", self.columns.join(" | ")));
        out.push_str(&format!("|---|{}\n", "---|".repeat(self.columns.len())));
        for (name, values) in &self.rows {
            let vals: Vec<String> = values
                .iter()
                .map(|v| format!("{v:.prec$}", prec = self.precision))
                .collect();
            out.push_str(&format!("| {name} | {} |\n", vals.join(" | ")));
        }
        out
    }
}

/// One workload's reports, one per spec in the figure's column order.
pub type GridRow = (WorkloadKind, Vec<Report>);

/// A figure's input: one row per workload.
pub type Grid = Vec<GridRow>;

/// The specs' names, in order (a figure's column labels).
#[must_use]
pub fn names(specs: &[SystemSpec]) -> Vec<String> {
    specs.iter().map(|s| s.name.clone()).collect()
}

/// Builds a table of total cluster miss ratios (%) — the Figures 3-5/8
/// format. Each column is one spec; relocation overhead (x225/30) is
/// folded in when `include_relocation` is set (Figures 6-8 bar tops).
pub fn miss_ratio_table(
    caption: &str,
    grid: &[GridRow],
    columns: Vec<String>,
    include_relocation: bool,
) -> FigureTable {
    let mut t = FigureTable::new(caption, columns);
    for (kind, reports) in grid {
        let values = reports
            .iter()
            .map(|r| {
                let mut v = (r.read_miss_ratio + r.write_miss_ratio) * 100.0;
                if include_relocation {
                    v += r.relocation_overhead * 100.0;
                }
                v
            })
            .collect();
        t.push_row(kind.display_name(), values);
    }
    t
}

/// Builds a table of values normalized to the *first* spec's value per
/// workload (the Figures 9-11 format, normalized to the infinite DRAM
/// NC), using `metric` to extract the value from each report.
pub fn normalized_table(
    caption: &str,
    grid: &[GridRow],
    columns: Vec<String>,
    metric: impl Fn(&Report) -> f64,
) -> FigureTable {
    let mut t = FigureTable::new(caption, columns);
    for (kind, reports) in grid {
        let baseline = metric(&reports[0]).max(1e-12);
        let values = reports[1..].iter().map(|r| metric(r) / baseline).collect();
        t.push_row(kind.display_name(), values);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_table_renders() {
        let mut t = FigureTable::new("Test", vec!["a".into(), "b".into()]);
        t.push_row("FFT", vec![1.0, 2.5]);
        let text = t.render();
        assert!(text.contains("# Test"));
        assert!(text.contains("FFT"));
        assert!(text.contains("2.500"));
        let md = t.render_markdown();
        assert!(md.starts_with("| benchmark | a | b |"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = FigureTable::new("Test", vec!["a".into()]);
        t.push_row("x", vec![1.0, 2.0]);
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parse_argv_accepts_common_flags() {
        let a = parse_argv(&argv(&["--scale", "0.25", "--jobs", "3"]), |_, _| Ok(0)).unwrap();
        assert_eq!(a.scale.factor(), 0.25);
        assert_eq!(a.jobs.get(), 3);
    }

    #[test]
    fn parse_argv_rejects_unknown_and_malformed_flags() {
        let unknown = parse_argv(&argv(&["--scael", "0.1"]), |_, _| Ok(0)).unwrap_err();
        assert!(unknown.contains("--scael"), "{unknown}");
        // Regression: a stray flag *after* --scale <f> used to be
        // silently swallowed by the old scanner.
        let trailing = parse_argv(&argv(&["--scale", "0.1", "--bogus"]), |_, _| Ok(0)).unwrap_err();
        assert!(trailing.contains("--bogus"), "{trailing}");
        assert!(parse_argv(&argv(&["--scale"]), |_, _| Ok(0)).is_err());
        assert!(parse_argv(&argv(&["--scale", "two"]), |_, _| Ok(0)).is_err());
        assert!(parse_argv(&argv(&["--jobs", "0"]), |_, _| Ok(0)).is_err());
        assert!(parse_argv(&argv(&["--scale", "7"]), |_, _| Ok(0)).is_err());
    }

    /// Asserts that `--jobs <jobs> --shard-workers <v>` is a usage error
    /// that says sharding was removed and points to `--jobs`.
    fn assert_shard_value_rejected(jobs: &str, v: &str) {
        let e =
            parse_argv(&argv(&["--jobs", jobs, "--shard-workers", v]), |_, _| Ok(0)).unwrap_err();
        assert!(e.contains("sharding was removed"), "--jobs {jobs} {v}: {e}");
        assert!(e.contains("--jobs"), "--jobs {jobs} {v}: {e}");
    }

    #[test]
    fn parse_argv_accepts_shard_workers() {
        // `--shard-workers 1` is a no-op kept for existing command lines,
        // under any --jobs: the parse equals the one without the flag.
        for jobs in ["1", "2"] {
            let with = parse_argv(&argv(&["--jobs", jobs, "--shard-workers", "1"]), |_, _| {
                Ok(0)
            })
            .unwrap();
            let without = parse_argv(&argv(&["--jobs", jobs]), |_, _| Ok(0)).unwrap();
            assert_eq!(with, without, "--jobs {jobs}");
        }
        assert!(parse_argv(&argv(&["--shard-workers"]), |_, _| Ok(0)).is_err());
        assert_shard_value_rejected("1", "0");
        assert_shard_value_rejected("1", "many");
    }

    #[test]
    fn parse_argv_rejects_replay_threads_beyond_the_jobs_budget() {
        // Every point replays on one thread, so any second replay thread
        // is rejected: also under --jobs 1, the old "all threads to
        // replay" idiom, and at the old equal-split boundary.
        for (jobs, v) in [("1", "2"), ("1", "4"), ("2", "4"), ("4", "4")] {
            assert_shard_value_rejected(jobs, v);
        }
    }

    #[test]
    fn parse_argv_resolves_auto_shard_workers() {
        // `auto` no longer reads the host's parallelism: it resolves to
        // the same usage error under every --jobs.
        for jobs in ["1", "2"] {
            assert_shard_value_rejected(jobs, "auto");
        }
    }

    #[test]
    fn parse_argv_accepts_mmap() {
        let a = parse_argv(&argv(&["--mmap", "--scale", "0.1"]), |_, _| Ok(0)).unwrap();
        assert!(a.mmap);
        let default = parse_argv(&argv(&[]), |_, _| Ok(0)).unwrap();
        assert!(!default.mmap);
    }

    #[test]
    fn mmap_trace_set_runs_match_owned_runs() {
        let mut owned = TraceSet::with_jobs(Scale::new(0.5).unwrap(), Jobs::serial());
        assert!(!owned.prepare(WorkloadKind::Lu).is_mapped());
        let baseline = owned.run(&SystemSpec::vb(), WorkloadKind::Lu);
        let mut mapped = TraceSet::with_jobs(Scale::new(0.5).unwrap(), Jobs::serial());
        mapped.set_mmap(true);
        assert!(mapped.mmap());
        // The prepared trace replays from the kernel mapping, not the heap.
        assert!(mapped.prepare(WorkloadKind::Lu).is_mapped());
        let spilled = mapped.run(&SystemSpec::vb(), WorkloadKind::Lu);
        assert_eq!(baseline, spilled);
    }

    #[test]
    fn parse_argv_lets_callers_claim_extra_flags() {
        let mut markdown = false;
        let a = parse_argv(&argv(&["--markdown", "--jobs", "2"]), |args, i| {
            if args[i] == "--markdown" {
                markdown = true;
                Ok(1)
            } else {
                Ok(0)
            }
        })
        .unwrap();
        assert!(markdown);
        assert_eq!(a.jobs.get(), 2);
    }

    #[test]
    fn trace_set_shares_traces() {
        let mut ts = TraceSet::new(Scale::new(0.5).unwrap());
        // Use the smallest workload for speed.
        let r1 = ts.run(&SystemSpec::base(), WorkloadKind::Lu);
        let r2 = ts.run(&SystemSpec::vb(), WorkloadKind::Lu);
        assert_eq!(r1.refs, r2.refs);
        ts.evict(WorkloadKind::Lu);
    }
}
