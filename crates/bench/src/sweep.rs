//! Dependency-free parallel execution engine for design-space sweeps.
//!
//! Every figure of the paper is a sweep: a grid of (system configuration,
//! workload) points where all points of one workload are read-only over
//! the *same* generated trace (the paper's same-trace methodology). That
//! makes the points embarrassingly parallel: [`run_sweep`] hoists trace
//! generation out of the parallel region (generate-once, then immutable),
//! shares the [`TraceSet`] across a scoped [`std::thread`] worker pool by
//! reference, and hands each worker points from an atomic work queue.
//!
//! Determinism guarantees:
//!
//! * results come back **in submission order**, regardless of which
//!   worker finished first, so tables and JSON exports are byte-identical
//!   to the serial run;
//! * each point is a pure function of `(spec, trace)` — workers share
//!   only the immutable trace, never simulator state;
//! * `jobs = 1` is the exact legacy path: the calling thread runs the
//!   queue serially and no worker threads are spawned.
//!
//! A panicking point (e.g. a spec invalid for its workload) is captured
//! with [`std::panic::catch_unwind`] and reported as a failed
//! [`SweepOutcome`] row; the remaining points still run. The default
//! panic hook still prints the panic message to stderr — stdout (tables,
//! JSON) stays clean.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use dsm_core::config::text;
use dsm_core::obs::span::Lane;
use dsm_core::obs::Json;
use dsm_core::{Report, SystemSpec};
use dsm_trace::{Scale, WorkloadKind};

use crate::harness::TraceSet;

/// A validated worker count for the sweep engine (at least 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Jobs(usize);

impl Jobs {
    /// A worker count; `n` must be positive.
    ///
    /// # Errors
    ///
    /// Returns an error message for `n == 0`.
    pub fn new(n: usize) -> Result<Self, String> {
        if n == 0 {
            return Err("--jobs must be at least 1".to_owned());
        }
        Ok(Jobs(n))
    }

    /// The serial engine: no worker threads, the legacy execution path.
    #[must_use]
    pub fn serial() -> Self {
        Jobs(1)
    }

    /// One worker per available hardware thread (the default when neither
    /// `--jobs` nor `DSM_JOBS` is given).
    #[must_use]
    pub fn available() -> Self {
        Jobs(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// The worker count.
    #[must_use]
    pub fn get(self) -> usize {
        self.0
    }
}

impl Default for Jobs {
    fn default() -> Self {
        Jobs::available()
    }
}

/// One unit of sweep work: run `spec` on `workload`'s shared trace.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Row label carried through to the outcome (e.g. `"vb16/Radix"`).
    pub label: String,
    /// The system configuration to simulate.
    pub spec: SystemSpec,
    /// The workload whose cached trace drives the run.
    pub workload: WorkloadKind,
}

impl SweepPoint {
    /// A point labelled `"<spec name>/<workload>"`.
    #[must_use]
    pub fn new(spec: SystemSpec, workload: WorkloadKind) -> Self {
        SweepPoint {
            label: format!("{}/{}", spec.name, workload.display_name()),
            spec,
            workload,
        }
    }
}

/// A structured record of one failed sweep point: the full configuration
/// and trace identity, the captured panic message, and a one-line
/// `simulate` invocation that reproduces the point in isolation.
#[derive(Debug, Clone, PartialEq)]
pub struct PointFailure {
    /// The submitted point's label.
    pub label: String,
    /// The system configuration's name.
    pub system: String,
    /// The workload whose trace the point ran on.
    pub workload: String,
    /// The trace-length scale factor (the trace identity: traces are a
    /// deterministic function of workload and scale).
    pub scale: f64,
    /// The captured panic message.
    pub message: String,
    /// A one-line `simulate` invocation reproducing the point.
    pub repro: String,
}

impl PointFailure {
    /// Builds the failure record for `point` from a captured panic.
    #[must_use]
    pub fn from_panic(point: &SweepPoint, scale: Scale, message: String) -> Self {
        PointFailure {
            label: point.label.clone(),
            system: point.spec.name.clone(),
            workload: point.workload.display_name().to_owned(),
            scale: scale.factor(),
            message,
            repro: repro_command(&point.spec, point.workload, scale),
        }
    }

    /// Serializes the failure for the sweep journal.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("system", self.system.as_str())
            .set("workload", self.workload.as_str())
            .set("scale", self.scale)
            .set("message", self.message.as_str())
            .set("repro", self.repro.as_str())
    }
}

impl std::fmt::Display for PointFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({} on {} at scale {}): {}\n  reproduce with: {}",
            self.label, self.system, self.workload, self.scale, self.message, self.repro
        )
    }
}

/// The one-line `simulate` invocation that reproduces a sweep point: the
/// spec's text, which `simulate --system` parses back to the same spec.
#[must_use]
pub fn repro_command(spec: &SystemSpec, workload: WorkloadKind, scale: Scale) -> String {
    format!(
        "simulate --system {} --workload {} --scale {}",
        text::render(spec),
        workload.display_name().to_lowercase(),
        scale.factor(),
    )
}

/// The result of one sweep point, in submission order.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The submitted point's label.
    pub label: String,
    /// The report, or the structured record of a failed point.
    pub result: Result<Report, PointFailure>,
    /// Wall-clock seconds this point took inside its worker (simulation
    /// only; trace generation is hoisted and not attributed to points;
    /// 0.0 for points restored from a resumed journal).
    pub wall_s: f64,
}

impl SweepOutcome {
    /// The report of a succeeded point.
    ///
    /// # Panics
    ///
    /// Panics with the failure record (including the repro line) if the
    /// point failed.
    #[must_use]
    pub fn into_report(self) -> Report {
        match self.result {
            Ok(r) => r,
            Err(e) => panic!("sweep point {e}"),
        }
    }
}

/// Live sweep telemetry: a shared completion counter that prints one
/// per-point line to stderr — throughput in Mrefs/s and an ETA from the
/// average pace so far. Off (`enabled == false`) it does nothing; the
/// counter bump is two relaxed atomics per *point*, nowhere near the
/// per-reference hot path.
struct Progress {
    enabled: bool,
    total: usize,
    done: AtomicUsize,
    t0: Instant,
}

impl Progress {
    fn new(enabled: bool, total: usize) -> Self {
        Progress {
            enabled,
            total,
            done: AtomicUsize::new(0),
            t0: Instant::now(),
        }
    }

    /// Counts a completed point and, when enabled, prints its line.
    /// `detail` is `Some((refs, wall_s))` for a freshly simulated point,
    /// `None` for journal-restored or failed points.
    fn tick(&self, label: &str, detail: Option<(u64, f64)>) {
        let k = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if !self.enabled {
            return;
        }
        let elapsed = self.t0.elapsed().as_secs_f64();
        let eta = elapsed / k as f64 * (self.total.saturating_sub(k)) as f64;
        match detail {
            Some((refs, wall_s)) => {
                let mrefs_per_s = refs as f64 / wall_s.max(1e-9) / 1e6;
                eprintln!(
                    "sweep: [{k}/{}] {label}: {refs} refs in {wall_s:.2}s \
                     ({mrefs_per_s:.1} Mrefs/s), ETA {eta:.0}s",
                    self.total
                );
            }
            None => eprintln!("sweep: [{k}/{}] {label}, ETA {eta:.0}s", self.total),
        }
    }
}

/// Renders a captured panic payload as a message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "point panicked (non-string payload)".to_owned()
    }
}

/// Runs one prepared point under panic capture, timing it.
///
/// When the trace set carries a resumed journal, points the journal
/// already recorded as successful are *not* re-run: their recorded
/// reports come back immediately (in submission order like everything
/// else, renamed to this point's spec), which is what makes a
/// killed-and-resumed sweep merge to byte-identical output. The journal
/// matches by simulation content, workload and scale, never by label.
/// Fresh results are appended to the journal, durably, before the
/// outcome is returned.
///
/// Fault injection for the crash-safety tests: if `DSM_FAULT_POINT`
/// names this point's label the point panics (exercising the captured-
/// failure path), and if `DSM_FAULT_ABORT` names it the whole process
/// aborts (exercising kill-and-resume).
fn run_point(
    ts: &TraceSet,
    point: &SweepPoint,
    progress: &Progress,
    lane: Option<Lane>,
) -> SweepOutcome {
    if let Some(mut report) = ts.journal().and_then(|j| j.lookup(point, ts.scale())) {
        report.system.clone_from(&point.spec.name);
        progress.tick(&format!("{} restored from journal", point.label), None);
        return SweepOutcome {
            label: point.label.clone(),
            result: Ok(report),
            wall_s: 0.0,
        };
    }
    if std::env::var("DSM_FAULT_ABORT").as_deref() == Ok(point.label.as_str()) {
        eprintln!("sweep: DSM_FAULT_ABORT tripped at {}", point.label);
        std::process::abort();
    }
    let mut span = ts
        .tracer()
        .zip(lane)
        .map(|(t, lane)| t.span(lane, point.label.clone()));
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        if std::env::var("DSM_FAULT_POINT").as_deref() == Ok(point.label.as_str()) {
            panic!("injected fault (DSM_FAULT_POINT) at {}", point.label);
        }
        if ts.phase_stats() {
            let (report, counters) = ts.run_prepared_profiled(&point.spec, point.workload);
            (report, Some(counters))
        } else {
            (ts.run_prepared(&point.spec, point.workload), None)
        }
    }))
    .map_err(|payload| PointFailure::from_panic(point, ts.scale(), panic_message(payload)));
    let wall_s = t0.elapsed().as_secs_f64();
    let result = result.map(|(report, counters)| {
        if let Some(counters) = counters {
            ts.record_phase_rollup(&point.label, counters);
        }
        report
    });
    match &result {
        Ok(report) => {
            if let Some(s) = &mut span {
                s.arg("refs", report.refs);
            }
            progress.tick(&point.label, Some((report.refs, wall_s)));
        }
        Err(_) => progress.tick(&format!("{} FAILED", point.label), None),
    }
    drop(span);
    if let Some(journal) = ts.journal() {
        match &result {
            Ok(report) => journal.record_ok(point, ts.scale(), report, wall_s),
            Err(failure) => journal.record_failed(point, ts.scale(), failure, wall_s),
        }
    }
    SweepOutcome {
        label: point.label.clone(),
        result,
        wall_s,
    }
}

/// Executes `points` on `jobs` workers sharing `ts`'s traces, returning
/// outcomes in submission order.
///
/// Traces for every workload appearing in `points` are generated first,
/// serially, before any worker starts (`ts` is then only read). With
/// `jobs == 1` the calling thread runs the points in order and no threads
/// are spawned — the exact legacy path.
pub fn run_sweep(ts: &mut TraceSet, points: &[SweepPoint], jobs: Jobs) -> Vec<SweepOutcome> {
    // Hoist trace generation out of the parallel region: generate once,
    // then the set is immutable and shared by reference.
    for p in points {
        ts.prepare(p.workload);
    }
    let ts: &TraceSet = ts;
    let progress = Progress::new(ts.progress(), points.len());

    if jobs.get() == 1 || points.len() <= 1 {
        // The serial path runs on the calling thread: its spans share the
        // "main" lane with trace loading.
        let lane = ts.tracer().map(|t| t.lane("main"));
        return points
            .iter()
            .map(|p| run_point(ts, p, &progress, lane))
            .collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<SweepOutcome>>> = points.iter().map(|_| Mutex::new(None)).collect();
    let workers = jobs.get().min(points.len());
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (next, slots, progress) = (&next, &slots, &progress);
            scope.spawn(move || {
                // Register the lane (and a worker-lifetime span) before
                // claiming any point, so the trace shows one lane per
                // worker even if this worker never wins a claim.
                let lane = ts.tracer().map(|t| t.lane(&format!("worker-{}", w + 1)));
                let mut worker_span = ts
                    .tracer()
                    .zip(lane)
                    .map(|(t, lane)| t.span(lane, "sweep worker"));
                let mut claimed = 0u64;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(point) = points.get(i) else { break };
                    claimed += 1;
                    let outcome = run_point(ts, point, progress, lane);
                    // A sibling worker's panic can only poison a *different*
                    // slot's mutex; recover the data rather than cascade.
                    *slots[i]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(outcome);
                }
                if let Some(s) = &mut worker_span {
                    s.arg("points", claimed);
                }
            });
        }
    });
    slots
        .into_iter()
        .zip(points)
        .map(|(slot, point)| {
            let outcome = slot
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            // Every queue index is claimed by exactly one worker; an
            // empty slot would mean the engine itself broke, which is
            // reported as a failed row rather than a panic.
            outcome.unwrap_or_else(|| SweepOutcome {
                label: point.label.clone(),
                result: Err(PointFailure::from_panic(
                    point,
                    ts.scale(),
                    "sweep engine lost this point's outcome".to_owned(),
                )),
                wall_s: 0.0,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::PointKey;
    use dsm_core::PcSize;
    use dsm_trace::Scale;

    fn small_ts() -> TraceSet {
        TraceSet::new(Scale::new(0.05).unwrap())
    }

    #[test]
    fn jobs_rejects_zero() {
        assert!(Jobs::new(0).is_err());
        assert_eq!(Jobs::new(3).unwrap().get(), 3);
        assert_eq!(Jobs::serial().get(), 1);
        assert!(Jobs::available().get() >= 1);
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let mut ts = small_ts();
        let points: Vec<SweepPoint> = [
            SystemSpec::vb(),
            SystemSpec::base(),
            SystemSpec::nc(),
            SystemSpec::vp(),
            SystemSpec::ncd(),
            SystemSpec::ncs(),
        ]
        .into_iter()
        .map(|s| SweepPoint::new(s, WorkloadKind::Lu))
        .collect();
        let labels: Vec<String> = points.iter().map(|p| p.label.clone()).collect();
        let outcomes = run_sweep(&mut ts, &points, Jobs::new(4).unwrap());
        let got: Vec<String> = outcomes.iter().map(|o| o.label.clone()).collect();
        assert_eq!(got, labels);
        for o in &outcomes {
            assert!(o.result.is_ok(), "{}: {:?}", o.label, o.result);
            assert!(o.wall_s >= 0.0);
        }
    }

    #[test]
    fn panicking_point_becomes_failed_row_without_aborting() {
        let mut ts = small_ts();
        // A page cache of 1/10^6 of LU's ~2 MB data set cannot hold one
        // page: System::new fails, the point panics inside the worker.
        let mut bad = SystemSpec::ncp(PcSize::DataFraction(1_000_000));
        bad.name = "ncp-too-small".into();
        let points = vec![
            SweepPoint::new(SystemSpec::base(), WorkloadKind::Lu),
            SweepPoint::new(bad, WorkloadKind::Lu),
            SweepPoint::new(SystemSpec::vb(), WorkloadKind::Lu),
        ];
        let outcomes = run_sweep(&mut ts, &points, Jobs::new(4).unwrap());
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes[0].result.is_ok());
        assert!(outcomes[2].result.is_ok(), "sweep aborted after a panic");
        let err = outcomes[1].result.as_ref().unwrap_err();
        assert!(
            err.message.contains("ncp-too-small"),
            "captured message should identify the point: {err}"
        );
        assert_eq!(err.system, "ncp-too-small");
        assert_eq!(err.workload, "LU");
        assert_eq!(
            err.repro, "simulate --system ncp:pc=1/1000000 --workload lu --scale 0.05",
            "repro line should rebuild the invocation"
        );
    }

    /// The `--system` and `--workload` values of a repro line.
    fn repro_args(cmd: &str) -> (&str, &str) {
        let arg = |flag: &str| {
            let mut words = cmd.split(' ').skip_while(|w| *w != flag);
            words.nth(1).unwrap_or_else(|| panic!("no {flag} in {cmd}"))
        };
        (arg("--system"), arg("--workload"))
    }

    #[test]
    fn repro_commands_cover_the_design_space() {
        let scale = Scale::new(0.5).unwrap();
        let cases = [
            (SystemSpec::base(), "base"),
            (SystemSpec::nc(), "nc"),
            (SystemSpec::vb(), "vb"),
            (SystemSpec::vp(), "vp"),
            (SystemSpec::ncd(), "ncd"),
            (SystemSpec::ncs(), "ncs"),
            (SystemSpec::infinite_dram(), "inf-dram"),
            (SystemSpec::ncp(PcSize::DataFraction(5)), "ncp"),
            (SystemSpec::vbp(PcSize::DataFraction(5)), "vbp"),
            (SystemSpec::vpp(PcSize::DataFraction(5)), "vpp"),
            (
                SystemSpec::vxp(PcSize::Bytes(8192), 64),
                "vxp:pc=8192:threshold=adaptive64",
            ),
            (SystemSpec::origin(), "origin"),
            (SystemSpec::origin_vb(), "origin-vb"),
            (SystemSpec::vb().with_limited_directory(2), "vb:pointers=2"),
            (
                SystemSpec::vb().without_mesir_capture(),
                "vb:capture-clean=off",
            ),
        ];
        for (spec, system) in cases {
            let cmd = repro_command(&spec, WorkloadKind::Fft, scale);
            assert_eq!(
                cmd,
                format!("simulate --system {system} --workload fft --scale 0.5"),
                "{}",
                spec.name
            );
            // The line replays exactly the point it names.
            let parsed = text::parse(repro_args(&cmd).0).unwrap();
            assert_eq!(PointKey::of(&parsed), PointKey::of(&spec), "{cmd}");
        }
    }

    #[test]
    fn repro_line_of_a_fixed_threshold_point_keeps_its_policy() {
        let fixed = crate::figures::fig6::specs_tight()
            .into_iter()
            .find(|s| s.name == "ncp16-fixed32")
            .expect("Figure 6's tight fixed-threshold point");
        let cmd = repro_command(&fixed, WorkloadKind::Radix, Scale::new(1.0).unwrap());
        let parsed = text::parse(repro_args(&cmd).0).unwrap();
        assert_eq!(
            parsed.pc.unwrap().threshold,
            dsm_core::ThresholdPolicy::Fixed(32),
            "{cmd}"
        );
    }

    #[test]
    fn repro_workload_parses_back_to_its_kind() {
        for kind in WorkloadKind::all() {
            let cmd = repro_command(&SystemSpec::base(), kind, Scale::new(0.05).unwrap());
            assert_eq!(
                WorkloadKind::from_name(repro_args(&cmd).1),
                Ok(kind),
                "{cmd}"
            );
        }
    }

    #[test]
    fn injected_fault_point_becomes_failed_row() {
        let mut ts = small_ts();
        // A label unique to this test, so the env var cannot trip a
        // concurrently running sibling test's sweep.
        let mut target = SystemSpec::vb();
        target.name = "fault-target".into();
        let points = vec![
            SweepPoint::new(SystemSpec::base(), WorkloadKind::Lu),
            SweepPoint::new(target, WorkloadKind::Lu),
        ];
        std::env::set_var("DSM_FAULT_POINT", "fault-target/LU");
        let outcomes = run_sweep(&mut ts, &points, Jobs::serial());
        std::env::remove_var("DSM_FAULT_POINT");
        assert!(outcomes[0].result.is_ok());
        let err = outcomes[1].result.as_ref().unwrap_err();
        assert!(err.message.contains("injected fault"), "{err}");
    }

    #[test]
    fn serial_and_parallel_reports_are_identical() {
        let points: Vec<SweepPoint> = [SystemSpec::base(), SystemSpec::vb(), SystemSpec::nc()]
            .into_iter()
            .map(|s| SweepPoint::new(s, WorkloadKind::Lu))
            .collect();
        let serial = run_sweep(&mut small_ts(), &points, Jobs::serial());
        let parallel = run_sweep(&mut small_ts(), &points, Jobs::new(3).unwrap());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.label, b.label);
            // Report equality ignores wall time by design.
            assert_eq!(a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
        }
    }
}
