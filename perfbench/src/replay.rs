//! The in-process workloads: `replay-static`, `replay-migrep` and
//! `cold-start`. Each layer is timed from outside, around calls into
//! the simulator's public API.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufWriter;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use dsm_core::obs::Json;
use dsm_core::runner::{report_of, run_trace_probed};
use dsm_core::{PhaseCounters, PhaseProfiler, Report, System, SystemSpec, PHASES};
use dsm_trace::codec::{open_shared_mapped, write_shared};
use dsm_trace::rng::TraceRng;
use dsm_trace::{Scale, SharedTrace, WorkloadKind};
use dsm_types::{Geometry, Topology};

use crate::catalog::{
    layer_metric, migrep_configs, replay_metric, static_configs, trace_name, LAYERS, MIGREP_TRACES,
    STATIC_TRACES,
};
use crate::manifest::{peak_rss_mb, report_digest, trace_hash};
use crate::measure::{Checker, Measured};
use crate::stats::{median, token};

/// The seed whose inputs have committed reference digests.
pub const DEFAULT_SEED: u64 = 0;
/// Trace preparations per run at the most, spread evenly over the run;
/// `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Rounds of the traced replay, for the phase counts and the overhead.
const TRACED_ROUNDS: usize = 3;
/// Replay rounds, and cold-start passes, per run at the least: every
/// best-of is over at least this many samples, and `setup_s` has a
/// median.
const MIN_ROUNDS: usize = 5;

/// What a workload run hands back besides its metrics.
pub struct RunOut {
    pub measured: Measured,
    pub checker: Checker,
    /// Content hash of every trace replayed, by trace name.
    pub traces: Vec<(String, String)>,
    /// Per-point host time and work counts of a traced run.
    pub points: Vec<Json>,
}

/// One point's row in a traced run's `result.json`: its best replay
/// time and its events by phase.
fn point_row(label: &str, best: &Sample, counters: &PhaseCounters) -> Json {
    let events = counters.total_events().max(1);
    let mut phases = Json::obj();
    for phase in PHASES {
        phases = phases.set(phase.label(), counters.count(phase));
    }
    Json::obj()
        .set("point", label)
        .set("refs", best.refs)
        .set("best_ns_per_ref", best.ns_per_ref())
        .set("events_per_kref", events as f64 * 1000.0 / best.refs as f64)
        .set("ns_per_event", best.run_s * 1e9 / events as f64)
        .set("events", phases)
}

/// Derives one scale per trace from the seed: `default` for
/// [`DEFAULT_SEED`], otherwise uniform in `[lo, hi]`.
#[must_use]
pub fn seed_scales(seed: u64, n: usize, default: f64, lo: f64, hi: f64) -> Vec<Scale> {
    let mut rng = TraceRng::for_workload("perfbench-scale", seed);
    (0..n)
        .map(|_| {
            let f = if seed == DEFAULT_SEED {
                default
            } else {
                lo + (hi - lo) * rng.below(1001) as f64 / 1000.0
            };
            Scale::new(f).expect("scale range lies in (0, 1]")
        })
        .collect()
}

fn shuffle<T>(items: &mut [T], rng: &mut TraceRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// The replay order of `groups` traces × `per_group` configurations,
/// points numbered trace-major: as listed for [`DEFAULT_SEED`],
/// otherwise the traces and the configurations within each trace in a
/// seeded shuffle. Points of one trace stay adjacent, as in a sweep, so
/// the order changes which trace is cache-warm for whom, not how often.
#[must_use]
pub fn seed_order(seed: u64, groups: usize, per_group: usize) -> Vec<usize> {
    let mut traces: Vec<usize> = (0..groups).collect();
    let mut rng = TraceRng::for_workload("perfbench-order", seed);
    if seed != DEFAULT_SEED {
        shuffle(&mut traces, &mut rng);
    }
    traces
        .into_iter()
        .flat_map(|g| {
            let mut configs: Vec<usize> = (0..per_group).map(|c| g * per_group + c).collect();
            if seed != DEFAULT_SEED {
                shuffle(&mut configs, &mut rng);
            }
            configs
        })
        .collect()
}

/// One generated trace with its workload identity.
pub struct Prepared {
    pub kind: WorkloadKind,
    pub data_bytes: u64,
    pub trace: SharedTrace,
}

impl Prepared {
    fn name(&self) -> String {
        trace_name(self.kind)
    }
}

/// Host time of one preparation of a set of traces.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrepTimes {
    pub generate_s: f64,
    pub columnar_s: f64,
    pub refs: u64,
    pub resident_bytes: u64,
}

impl PrepTimes {
    fn total_s(&self) -> f64 {
        self.generate_s + self.columnar_s
    }
}

/// Generates each trace (`Workload::generate`) and builds its columns
/// (`SharedTrace::from_refs`), timing both stages.
#[must_use]
pub fn prepare(kinds: &[WorkloadKind], scales: &[Scale]) -> (Vec<Prepared>, PrepTimes) {
    let topo = Topology::paper_default();
    let geo = Geometry::paper_default();
    let mut times = PrepTimes::default();
    let traces = kinds
        .iter()
        .zip(scales)
        .map(|(&kind, &scale)| {
            let w = kind.paper_instance();
            let t0 = Instant::now();
            let refs = w.generate(&topo, scale);
            let t1 = Instant::now();
            let trace = SharedTrace::from_refs(topo, geo, &refs);
            let t2 = Instant::now();
            times.generate_s += (t1 - t0).as_secs_f64();
            times.columnar_s += (t2 - t1).as_secs_f64();
            times.refs += trace.len() as u64;
            times.resident_bytes += trace.column_bytes() as u64;
            Prepared {
                kind,
                data_bytes: w.shared_bytes(),
                trace,
            }
        })
        .collect();
    (traces, times)
}

/// Times one more preparation of the traces, one trace at a time so that
/// at most one extra trace is alive next to the replayed ones.
fn prepare_again(kinds: &[WorkloadKind], scales: &[Scale]) -> PrepTimes {
    let mut total = PrepTimes::default();
    for (kind, scale) in kinds.iter().zip(scales) {
        let (_, t) = prepare(std::slice::from_ref(kind), std::slice::from_ref(scale));
        total.generate_s += t.generate_s;
        total.columnar_s += t.columnar_s;
        total.refs += t.refs;
        total.resident_bytes += t.resident_bytes;
    }
    total
}

/// Records the trace-layer metrics that [`prepare`] exercises.
pub fn record_prep(m: &mut Measured, reps: &[PrepTimes]) {
    let per_ref = |f: fn(&PrepTimes) -> f64| -> Vec<f64> {
        reps.iter().map(|r| f(r) / r.refs as f64).collect()
    };
    m.set_median(
        "trace.generate_ns_per_ref",
        &per_ref(|r| r.generate_s * 1e9),
    );
    m.set_median(
        "trace.columnar_ns_per_ref",
        &per_ref(|r| r.columnar_s * 1e9),
    );
    m.set_median(
        "trace.resident_bytes_per_ref",
        &per_ref(|r| r.resident_bytes as f64),
    );
}

/// The median host time of preparing the whole set, in seconds.
#[must_use]
pub fn setup_s(reps: &[PrepTimes]) -> Vec<f64> {
    reps.iter().map(PrepTimes::total_s).collect()
}

/// One replayed point: a configuration on a trace.
struct Point {
    spec: SystemSpec,
    trace: usize,
    label: String,
}

/// One timed replay of a point: `System::new`, `System::run_shared`, and
/// the whole call including `runner::report_of`.
#[derive(Debug, Clone, Copy, Default)]
struct Sample {
    point: usize,
    system_new_s: f64,
    run_s: f64,
    total_s: f64,
    refs: u64,
}

impl Sample {
    fn ns_per_ref(&self) -> f64 {
        self.run_s * 1e9 / self.refs as f64
    }
}

/// Each point's fastest time over the rounds, field by field. The host
/// runs at half speed in episodes of up to several seconds; the best of
/// several interleaved rounds is the time at its normal speed.
fn best_of(samples: &[Sample]) -> BTreeMap<usize, Sample> {
    let mut best: BTreeMap<usize, Sample> = BTreeMap::new();
    for s in samples {
        best.entry(s.point)
            .and_modify(|b| {
                b.system_new_s = b.system_new_s.min(s.system_new_s);
                b.run_s = b.run_s.min(s.run_s);
                b.total_s = b.total_s.min(s.total_s);
            })
            .or_insert(*s);
    }
    best
}

/// Replays `spec` on `t` on the default unobserved system.
fn replay_plain(spec: &SystemSpec, t: &Prepared) -> Result<(Report, Sample), String> {
    let trace = &t.trace;
    let t0 = Instant::now();
    let mut system = System::new(
        spec.clone(),
        *trace.topology(),
        *trace.geometry(),
        t.data_bytes,
    )
    .map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    system.run_shared(trace);
    let t2 = Instant::now();
    let report = report_of(&system, &t.name(), t.data_bytes, trace.len() as u64);
    drop(system);
    let sample = Sample {
        point: 0,
        system_new_s: (t1 - t0).as_secs_f64(),
        run_s: (t2 - t1).as_secs_f64(),
        total_s: t0.elapsed().as_secs_f64(),
        refs: report.refs,
    };
    Ok((report, sample))
}

/// Replays `spec` on `t` under the phase profiler (`run_trace_probed`
/// with `PhaseProfiler::for_spec`); returns the whole call's seconds too.
fn replay_probed(spec: &SystemSpec, t: &Prepared) -> Result<(Report, PhaseCounters, f64), String> {
    let t0 = Instant::now();
    let (report, profiler) = run_trace_probed(
        spec,
        &t.name(),
        t.data_bytes,
        &t.trace,
        PhaseProfiler::for_spec(spec),
        None,
    )
    .map_err(|e| e.to_string())?;
    Ok((report, profiler.into_counters(), t0.elapsed().as_secs_f64()))
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err("panicked".to_owned()))
}

/// Checks a probed replay: its digest, and that the six primary phases
/// partition the references.
fn check_probed(checker: &mut Checker, label: &str, report: &Report, counters: &PhaseCounters) {
    checker.point(label, Ok(&report_digest(report)));
    if counters.primary_events() != report.refs {
        checker.fail(format!(
            "{label}: primary phases sum to {} of {} refs",
            counters.primary_events(),
            report.refs
        ));
    }
}

#[derive(Default)]
struct Rounds {
    count: usize,
    samples: Vec<Sample>,
    /// The first traced round's report and counters, by point.
    traced: BTreeMap<usize, (Report, PhaseCounters)>,
}

/// Replays every point once per round, in `order`, until `seconds` have
/// passed and at least `min_rounds` rounds ran, calling `after_round`
/// after each. Traced rounds record the whole call's time as a sample's
/// `total_s`.
fn run_rounds(
    points: &[Point],
    traces: &[Prepared],
    order: &[usize],
    (seconds, min_rounds): (f64, usize),
    traced: bool,
    checker: &mut Checker,
    after_round: &mut dyn FnMut(),
) -> Rounds {
    let mut out = Rounds::default();
    let start = Instant::now();
    while out.count < min_rounds || start.elapsed().as_secs_f64() < seconds {
        for &i in order {
            let p = &points[i];
            let t = &traces[p.trace];
            let sample = if traced {
                guarded(|| replay_probed(&p.spec, t)).map(|(report, counters, total_s)| {
                    check_probed(checker, &p.label, &report, &counters);
                    let sample = Sample {
                        point: i,
                        system_new_s: 0.0,
                        run_s: report.wall_s,
                        total_s,
                        refs: report.refs,
                    };
                    out.traced.entry(i).or_insert((report, counters));
                    sample
                })
            } else {
                guarded(|| replay_plain(&p.spec, t)).map(|(report, sample)| {
                    checker.point(&p.label, Ok(&report_digest(&report)));
                    Sample { point: i, ..sample }
                })
            };
            match sample {
                Ok(s) => out.samples.push(s),
                Err(e) => checker.point(&p.label, Err(e)),
            }
        }
        out.count += 1;
        after_round();
    }
    out
}

/// Records the end-to-end replay metrics from each point's best sample:
/// one round at the host's normal speed, the replay rate, and the
/// spread of ns/ref across points.
fn record_replay(m: &mut Measured, best: &BTreeMap<usize, Sample>, rounds: usize) {
    let refs: u64 = best.values().map(|s| s.refs).sum();
    let run_s: f64 = best.values().map(|s| s.run_s).sum();
    m.set("wall_s", best.values().map(|s| s.total_s).sum(), rounds);
    if run_s > 0.0 {
        m.set("replay_refs_per_s", refs as f64 / run_s, rounds);
    }
    let ns: Vec<f64> = best.values().map(Sample::ns_per_ref).collect();
    m.set_quantile("point_ns_per_ref_p50", &ns, 0.5);
    m.set_quantile("point_ns_per_ref_p90", &ns, 0.9);
    let new_us: Vec<f64> = best.values().map(|s| s.system_new_s * 1e6).collect();
    m.set_median("core.system_new_us", &new_us);
}

/// Records the work counts of traced replays: events and estimated
/// cycles per phase, and the useful-work ratios of the NC and the page
/// cache.
fn record_counts<'a>(
    m: &mut Measured,
    traced: impl Iterator<Item = &'a (Report, PhaseCounters)> + Clone,
) {
    let refs: u64 = traced.clone().map(|(r, _)| r.refs).sum();
    let n = traced.clone().count();
    if refs == 0 {
        return;
    }
    for phase in PHASES {
        let events: u64 = traced.clone().map(|(_, c)| c.count(phase)).sum();
        let cycles: u64 = traced.clone().map(|(_, c)| c.cycles(phase)).sum();
        m.set(
            format!("phase.{}.events_per_kref", phase.label()),
            events as f64 * 1000.0 / refs as f64,
            n,
        );
        m.set(
            format!("phase.{}.cyc_per_ref", phase.label()),
            cycles as f64 / refs as f64,
            n,
        );
    }
    let sum = |f: fn(&Report) -> u64| -> u64 { traced.clone().map(|(r, _)| f(r)).sum() };
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    m.set(
        "nc.hits_per_capture",
        ratio(
            sum(|r| r.metrics.nc_read_hits + r.metrics.nc_write_hits),
            sum(|r| r.metrics.nc_captures),
        ),
        n,
    );
    m.set(
        "page_cache.hits_per_relocation",
        ratio(
            sum(|r| r.metrics.pc_read_hits + r.metrics.pc_write_hits),
            sum(|r| r.metrics.relocations),
        ),
        n,
    );
}

/// `replay-static` and `replay-migrep`: traces generated once, then
/// every configuration replays every trace serially in interleaved
/// rounds.
pub fn replay(
    migrep: bool,
    seed: u64,
    seconds: f64,
    traced: bool,
    references: BTreeMap<String, String>,
) -> RunOut {
    let (configs, kinds) = if migrep {
        (migrep_configs(), &MIGREP_TRACES[..])
    } else {
        (static_configs(), &STATIC_TRACES[..])
    };
    let scales = seed_scales(seed, kinds.len(), 0.05, 0.04, 0.06);
    let (traces, first) = prepare(kinds, &scales);
    let mut reps = vec![first];
    let points: Vec<Point> = traces
        .iter()
        .enumerate()
        .flat_map(|(ti, t)| {
            configs.iter().map(move |spec| Point {
                spec: spec.clone(),
                trace: ti,
                label: format!("{}/{}", spec.name, t.name()),
            })
        })
        .collect();
    let order = seed_order(seed, traces.len(), configs.len());
    let mut checker = Checker::with_references(references);

    // Without committed references the traced replay is the reference.
    let probed = (traced || seed != DEFAULT_SEED).then(|| {
        let rounds = if traced { TRACED_ROUNDS } else { 1 };
        run_rounds(
            &points,
            &traces,
            &order,
            (0.0, rounds),
            true,
            &mut checker,
            &mut || {},
        )
    });
    // The set-up samples are spread over the whole run, at most one
    // after each round, so that their median does not hang on one moment
    // of the host.
    let start = Instant::now();
    let plain = run_rounds(
        &points,
        &traces,
        &order,
        (seconds, MIN_ROUNDS),
        false,
        &mut checker,
        &mut || {
            let due = seconds * reps.len() as f64 / SETUP_REPS as f64;
            if reps.len() < SETUP_REPS && start.elapsed().as_secs_f64() >= due {
                reps.push(prepare_again(kinds, &scales));
            }
        },
    );
    let mut m = Measured::default();
    m.set_median("setup_s", &setup_s(&reps));
    let best = best_of(&plain.samples);
    record_replay(&mut m, &best, plain.count);
    m.set("peak_rss_mb", peak_rss_mb("self").unwrap_or(0.0), 1);
    let mut rows = Vec::new();
    if let Some(probed) = probed.filter(|_| traced) {
        record_prep(&mut m, &reps);
        for (i, s) in &best {
            let p = &points[*i];
            m.set(
                replay_metric(&p.spec.name, traces[p.trace].kind),
                s.ns_per_ref(),
                plain.count,
            );
        }
        for spec in &configs {
            let (mut run_s, mut events) = (0.0, 0u64);
            for (i, s) in &best {
                if let (true, Some((_, counters))) =
                    (points[*i].spec.name == spec.name, probed.traced.get(i))
                {
                    run_s += s.run_s;
                    events += counters.total_events();
                }
            }
            if events > 0 {
                m.set(
                    format!("replay.{}.ns_per_event", token(&spec.name)),
                    run_s * 1e9 / events as f64,
                    plain.count,
                );
            }
        }
        if !migrep {
            record_layers(&mut m, &points, &traces, &best, plain.count);
        }
        record_counts(&mut m, probed.traced.values());
        let total = |b: &BTreeMap<usize, Sample>| b.values().map(|s| s.total_s).sum::<f64>();
        m.set(
            "trace_overhead_frac",
            total(&best_of(&probed.samples)) / total(&best) - 1.0,
            probed.count,
        );
        rows = best
            .iter()
            .filter_map(|(i, s)| {
                let (_, counters) = probed.traced.get(i)?;
                Some(point_row(&points[*i].label, s, counters))
            })
            .collect();
    }
    RunOut {
        measured: m,
        checker,
        traces: hashes(&traces),
        points: rows,
    }
}

/// The simulated-machine layers: per trace, the difference in best
/// ns/ref between a configuration and its baseline ([`LAYERS`]).
fn record_layers(
    m: &mut Measured,
    points: &[Point],
    traces: &[Prepared],
    best: &BTreeMap<usize, Sample>,
    rounds: usize,
) {
    let ns_of = |config: &str, ti: usize| {
        points
            .iter()
            .position(|p| p.spec.name == config && p.trace == ti)
            .and_then(|i| best.get(&i).map(Sample::ns_per_ref))
    };
    for (ti, t) in traces.iter().enumerate() {
        for (layer, config, baseline) in LAYERS {
            let base = baseline.map_or(Some(0.0), |b| ns_of(b, ti));
            if let (Some(v), Some(b)) = (ns_of(config, ti), base) {
                m.set(layer_metric(layer, t.kind), v - b, rounds);
            }
        }
    }
}

pub fn hashes(traces: &[Prepared]) -> Vec<(String, String)> {
    traces
        .iter()
        .map(|t| (t.name(), trace_hash(&t.trace)))
        .collect()
}

/// Host time of one kernel's trip down the cold-start path.
#[derive(Debug, Clone, Copy, Default)]
struct ColdSample {
    generate_s: f64,
    columnar_s: f64,
    encode_s: f64,
    open_s: f64,
    replay: Sample,
    resident_bytes: u64,
    file_bytes: u64,
}

impl ColdSample {
    fn setup_s(&self) -> f64 {
        self.generate_s + self.columnar_s + self.encode_s + self.open_s
    }
}

/// The user's first-result path for one kernel: generate, build the
/// columns, write the trace file, map it, replay `base`, report. The
/// replay sample's `total_s` covers the whole path.
fn cold_one(
    kind: WorkloadKind,
    scale: Scale,
    file: &Path,
    traced: bool,
) -> Result<(ColdSample, Report, Option<PhaseCounters>), String> {
    let topo = Topology::paper_default();
    let geo = Geometry::paper_default();
    let w = kind.paper_instance();
    let mut s = ColdSample::default();
    let t0 = Instant::now();
    let refs = w.generate(&topo, scale);
    let t1 = Instant::now();
    let owned = SharedTrace::from_refs(topo, geo, &refs);
    drop(refs);
    let t2 = Instant::now();
    let out = File::create(file).map_err(|e| format!("{}: {e}", file.display()))?;
    write_shared(BufWriter::new(out), &owned).map_err(|e| e.to_string())?;
    let t3 = Instant::now();
    s.resident_bytes = owned.column_bytes() as u64;
    drop(owned);
    let trace = open_shared_mapped(file).map_err(|e| e.to_string())?;
    let t4 = Instant::now();
    s.generate_s = (t1 - t0).as_secs_f64();
    s.columnar_s = (t2 - t1).as_secs_f64();
    s.encode_s = (t3 - t2).as_secs_f64();
    s.open_s = (t4 - t3).as_secs_f64();
    s.file_bytes = std::fs::metadata(file).map_err(|e| e.to_string())?.len();
    let t = Prepared {
        kind,
        data_bytes: w.shared_bytes(),
        trace,
    };
    let base = SystemSpec::base();
    let (report, counters) = if traced {
        let (report, counters, run_s) = replay_probed(&base, &t)?;
        s.replay.run_s = run_s;
        (report, Some(counters))
    } else {
        let (report, sample) = replay_plain(&base, &t)?;
        s.replay = sample;
        (report, None)
    };
    drop(t);
    std::fs::remove_file(file).map_err(|e| format!("{}: {e}", file.display()))?;
    s.replay.refs = report.refs;
    s.replay.total_s = t0.elapsed().as_secs_f64();
    Ok((s, report, counters))
}

/// `cold-start`: every kernel at full scale through [`cold_one`], in
/// passes, until `seconds` have passed and at least [`MIN_ROUNDS`] ran.
pub fn cold_start(
    seed: u64,
    seconds: f64,
    traced: bool,
    tmp: &Path,
    references: BTreeMap<String, String>,
) -> RunOut {
    let kinds = WorkloadKind::all();
    let scales = seed_scales(seed, kinds.len(), 1.0, 0.9, 1.0);
    let file = tmp.join("cold-start.dsmt");
    let label = |kind| format!("base/{}", trace_name(kind));
    let mut checker = Checker::with_references(references);

    // Without committed references the traced pass is the reference.
    let mut traced_counts: BTreeMap<usize, (Report, PhaseCounters)> = BTreeMap::new();
    let mut traced_s = 0.0;
    if traced || seed != DEFAULT_SEED {
        for (k, (&kind, &scale)) in kinds.iter().zip(&scales).enumerate() {
            match guarded(|| cold_one(kind, scale, &file, true)) {
                Ok((sample, report, Some(counters))) => {
                    check_probed(&mut checker, &label(kind), &report, &counters);
                    traced_s += sample.replay.total_s;
                    traced_counts.insert(k, (report, counters));
                }
                Ok(_) => unreachable!("a traced replay returns counters"),
                Err(e) => checker.point(&label(kind), Err(e)),
            }
        }
    }
    let mut passes: Vec<Vec<ColdSample>> = Vec::new();
    let start = Instant::now();
    while passes.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let mut pass = Vec::with_capacity(kinds.len());
        for (k, (&kind, &scale)) in kinds.iter().zip(&scales).enumerate() {
            match guarded(|| cold_one(kind, scale, &file, false)) {
                Ok((mut sample, report, _)) => {
                    checker.point(&label(kind), Ok(&report_digest(&report)));
                    sample.replay.point = k;
                    pass.push(sample);
                }
                Err(e) => checker.point(&label(kind), Err(e)),
            }
        }
        passes.push(pass);
    }

    let mut m = Measured::default();
    let setups: Vec<f64> = passes
        .iter()
        .map(|p| p.iter().map(ColdSample::setup_s).sum())
        .collect();
    m.set_median("setup_s", &setups);
    let samples: Vec<Sample> = passes.iter().flatten().map(|s| s.replay).collect();
    let best = best_of(&samples);
    record_replay(&mut m, &best, passes.len());
    m.set("peak_rss_mb", peak_rss_mb("self").unwrap_or(0.0), 1);
    let mut rows = Vec::new();
    if traced {
        let refs: u64 = best.values().map(|s| s.refs).sum();
        let mut stage = |name: &str, f: fn(&ColdSample) -> f64| {
            let total: f64 = (0..kinds.len())
                .filter_map(|k| {
                    let v = passes
                        .iter()
                        .flatten()
                        .filter(|s| s.replay.point == k)
                        .map(f);
                    v.reduce(f64::min)
                })
                .sum();
            m.set(name, total / refs as f64, passes.len());
        };
        stage("trace.generate_ns_per_ref", |s| s.generate_s * 1e9);
        stage("trace.columnar_ns_per_ref", |s| s.columnar_s * 1e9);
        stage("trace.encode_ns_per_ref", |s| s.encode_s * 1e9);
        stage("trace.open_mapped_ns_per_ref", |s| s.open_s * 1e9);
        stage("trace.resident_bytes_per_ref", |s| s.resident_bytes as f64);
        stage("trace.file_bytes_per_ref", |s| s.file_bytes as f64);
        let events: u64 = traced_counts.values().map(|(_, c)| c.total_events()).sum();
        let run_s: f64 = best.values().map(|s| s.run_s).sum();
        if events > 0 {
            m.set(
                "replay.base.ns_per_event",
                run_s * 1e9 / events as f64,
                passes.len(),
            );
        }
        record_counts(&mut m, traced_counts.values());
        let pass_s: Vec<f64> = passes
            .iter()
            .map(|p| p.iter().map(|s| s.replay.total_s).sum())
            .collect();
        if let Some(plain_s) = median(&pass_s) {
            m.set("trace_overhead_frac", traced_s / plain_s - 1.0, 1);
        }
        rows = traced_counts
            .iter()
            .filter_map(|(k, (report, counters))| {
                Some(point_row(
                    &format!("base/{}", report.workload),
                    best.get(k)?,
                    counters,
                ))
            })
            .collect();
    }
    // The trace files are gone; hash the same inputs regenerated.
    let (traces, _) = prepare(&kinds, &scales);
    RunOut {
        measured: m,
        checker,
        traces: hashes(&traces),
        points: rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev_trace(kind: WorkloadKind) -> Prepared {
        let w = kind.dev_instance();
        let topo = Topology::paper_default();
        let refs = w.generate(&topo, Scale::full());
        Prepared {
            kind,
            data_bytes: w.shared_bytes(),
            trace: SharedTrace::from_refs(topo, Geometry::paper_default(), &refs),
        }
    }

    /// The traced run's six primary phases add up to the references
    /// replayed, and it reports exactly what the untraced run reports.
    #[test]
    fn traced_rounds_partition_refs_and_match_plain_rounds() {
        let traces = vec![dev_trace(WorkloadKind::Radix), dev_trace(WorkloadKind::Lu)];
        let points: Vec<Point> = [SystemSpec::vb(), SystemSpec::origin_vb()]
            .into_iter()
            .flat_map(|spec| {
                (0..traces.len()).map(move |ti| Point {
                    label: format!("{}/{ti}", spec.name),
                    spec: spec.clone(),
                    trace: ti,
                })
            })
            .collect();
        let order = seed_order(7, 2, 2);
        let mut checker = Checker::default();
        let traced = run_rounds(
            &points,
            &traces,
            &order,
            (0.0, 1),
            true,
            &mut checker,
            &mut || {},
        );
        let plain = run_rounds(
            &points,
            &traces,
            &order,
            (0.0, 2),
            false,
            &mut checker,
            &mut || {},
        );
        assert_eq!(checker.failed, 0, "{:?}", checker.problems);
        assert_eq!(checker.attempted, 3 * points.len() as u64);
        assert_eq!(plain.samples.len(), 2 * points.len());
        for (report, counters) in traced.traced.values() {
            let primary: u64 = PHASES
                .iter()
                .filter(|p| p.is_primary())
                .map(|&p| counters.count(p))
                .sum();
            assert_eq!(primary, report.refs);
            assert_eq!(report.refs, report.metrics.shared_refs);
        }
        let mut m = Measured::default();
        record_counts(&mut m, traced.traced.values());
        let primary_per_kref: f64 = PHASES
            .iter()
            .filter(|p| p.is_primary())
            .map(|p| {
                m.get(&format!("phase.{}.events_per_kref", p.label()))
                    .unwrap()
                    .0
            })
            .sum();
        assert!(
            (primary_per_kref - 1000.0).abs() < 1e-6,
            "{primary_per_kref}"
        );
    }

    #[test]
    fn layers_difference_best_times() {
        let traces = vec![dev_trace(WorkloadKind::Fft)];
        let points: Vec<Point> = static_configs()
            .into_iter()
            .map(|spec| Point {
                label: spec.name.clone(),
                spec,
                trace: 0,
            })
            .collect();
        // Point i replays at 10 (i + 1) ns/ref.
        let best: BTreeMap<usize, Sample> = (0..points.len())
            .map(|i| {
                let run_s = 10.0 * (i + 1) as f64;
                (
                    i,
                    Sample {
                        point: i,
                        run_s,
                        refs: 1_000_000_000,
                        ..Sample::default()
                    },
                )
            })
            .collect();
        let mut m = Measured::default();
        record_layers(&mut m, &points, &traces, &best, 5);
        let layer = |l: &str| m.get(&layer_metric(l, WorkloadKind::Fft)).unwrap();
        // base 10, vb16 20, nc 30, NCD 40, vbp5 50, vpp5 60, vxp5 70, dir4B 80.
        assert_eq!(layer("cache_bus"), (10.0, 5));
        assert_eq!(layer("nc_victim").0, 10.0);
        assert_eq!(layer("nc_inclusion").0, 20.0);
        assert_eq!(layer("nc_dram").0, 30.0);
        assert_eq!(layer("page_cache").0, 30.0);
        assert_eq!(layer("page_index").0, 10.0);
        assert_eq!(layer("relocation_counters").0, 10.0);
        assert_eq!(layer("directory_limited").0, 70.0);
    }

    /// The committed reference digests still describe what the simulator
    /// computes (one point, to keep the test short).
    #[test]
    fn committed_digest_reproduces() {
        let refs = crate::measure::parse_references(include_str!("../refs/replay-static.digests"));
        let (traces, _) = prepare(
            &[WorkloadKind::Fft],
            &seed_scales(DEFAULT_SEED, 1, 0.05, 0.05, 0.05),
        );
        let (report, _) = replay_plain(&SystemSpec::base(), &traces[0]).unwrap();
        assert_eq!(refs.get("base/fft"), Some(&report_digest(&report)));
    }

    #[test]
    fn seeds_fix_inputs() {
        assert_eq!(seed_order(DEFAULT_SEED, 2, 3), vec![0, 1, 2, 3, 4, 5]);
        let shuffled = seed_order(3, 3, 8);
        assert_eq!(shuffled, seed_order(3, 3, 8));
        assert_ne!(shuffled, seed_order(DEFAULT_SEED, 3, 8));
        // Each trace's configurations stay adjacent.
        for chunk in shuffled.chunks(8) {
            assert!(chunk.iter().all(|&p| p / 8 == chunk[0] / 8));
        }
        let mut sorted = shuffled.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..24).collect::<Vec<_>>());
        let factors = |seed| -> Vec<f64> {
            seed_scales(seed, 4, 0.05, 0.04, 0.06)
                .iter()
                .map(Scale::factor)
                .collect()
        };
        assert_eq!(factors(DEFAULT_SEED), vec![0.05; 4]);
        assert_eq!(factors(9), factors(9));
        assert!(factors(9).iter().all(|f| (0.04..=0.06).contains(f)));
    }
}
