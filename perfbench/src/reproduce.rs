//! The `reproduce` workload: the real binary, as users invoke it, checked
//! byte for byte against the committed goldens.

use std::collections::BTreeMap;
use std::io::{BufRead as _, BufReader, Read as _};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use dsm_core::obs::Json;
use dsm_core::PHASES;
use dsm_trace::{Scale, WorkloadKind};

use crate::manifest::peak_rss_mb;
use crate::measure::{Checker, Measured};
use crate::replay::{prepare, record_prep, setup_s, RunOut};
use crate::DSM_KNOBS;

const SCALE: f64 = 0.05;
/// The sweep is restricted to one kernel, the subset CI keeps goldens
/// for, so that one invocation takes about a second and a run holds
/// enough of them to take the best of.
const KERNEL: WorkloadKind = WorkloadKind::Fft;
const JOBS: u64 = 2;
const GOLDEN_STDOUT: &str = "ci/golden/reproduce_stdout.scale0.05.fft.txt";
const GOLDEN_DATASET: &str = "ci/golden/reproduce_full.scale0.05.fft.json";
/// Invocations per run at the least: every best-of is over at least
/// this many samples.
const MIN_INVOCATIONS: usize = 5;
/// An invocation that has not finished by then is killed and counted as
/// failed, so the benchmark still exits in time.
const TIMEOUT: Duration = Duration::from_secs(60);

/// One `--progress` line: a completed sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct Progress {
    pub label: String,
    pub refs: u64,
    pub mrefs_per_s: f64,
}

/// Parses `sweep: [k/N] <label>: <refs> refs in <w>s (<x> Mrefs/s), ETA ..`;
/// `Err(label)` for a failed point, `None` for any other line.
#[must_use]
pub fn parse_progress(line: &str) -> Option<Result<Progress, String>> {
    let rest = line.strip_prefix("sweep: [")?;
    let (_, rest) = rest.split_once("] ")?;
    if let Some(label) = rest
        .split(',')
        .next()
        .and_then(|s| s.strip_suffix(" FAILED"))
    {
        return Some(Err(label.to_owned()));
    }
    let (head, tail) = rest.split_once(" refs in ")?;
    let (label, refs) = head.rsplit_once(": ")?;
    let mrefs = tail.split_once('(')?.1.split_once(" Mrefs/s")?.0;
    Some(Ok(Progress {
        label: label.to_owned(),
        refs: refs.parse().ok()?,
        mrefs_per_s: mrefs.parse().ok()?,
    }))
}

/// What one invocation of the binary left behind.
struct Invocation {
    wall_s: f64,
    success: bool,
    stdout: Vec<u8>,
    points: Vec<Progress>,
    failed_points: Vec<String>,
    peak_rss_mb: f64,
}

/// Runs `reproduce --scale 0.05 --workloads fft --jobs 2 --shard-workers
/// 1 --progress --out <out> <extra>` with every `DSM_*` knob cleared,
/// sampling the child's peak RSS while it runs.
fn invoke(exe: &Path, out: &Path, extra: &[&str]) -> Result<Invocation, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--scale", &SCALE.to_string(), "--workloads"])
        .arg(KERNEL.display_name().to_lowercase())
        .args([
            "--jobs",
            &JOBS.to_string(),
            "--shard-workers",
            "1",
            "--progress",
            "--out",
        ])
        .arg(out)
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    for knob in DSM_KNOBS {
        cmd.env_remove(knob);
    }
    let start = Instant::now();
    let mut child = cmd.spawn().map_err(|e| format!("{}: {e}", exe.display()))?;
    let pid = child.id().to_string();
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let stderr = child.stderr.take().expect("stderr is piped");
    let out_reader = std::thread::spawn(move || {
        let mut buf = Vec::new();
        stdout.read_to_end(&mut buf).map(|_| buf)
    });
    let err_reader = std::thread::spawn(move || {
        let (mut points, mut failed) = (Vec::new(), Vec::new());
        for line in BufReader::new(stderr).lines() {
            let Ok(line) = line else { break };
            match parse_progress(&line) {
                Some(Ok(p)) => points.push(p),
                Some(Err(label)) => failed.push(label),
                None if line.starts_with("sweep:") || line.contains("error") => {
                    eprintln!("reproduce: {line}");
                }
                None => {}
            }
        }
        (points, failed)
    });
    let mut peak = 0.0f64;
    let status = loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            break Some(status);
        }
        peak = peak.max(peak_rss_mb(&pid).unwrap_or(0.0));
        if start.elapsed() > TIMEOUT {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let wall_s = start.elapsed().as_secs_f64();
    let stdout = out_reader
        .join()
        .map_err(|_| "stdout reader panicked".to_owned())?
        .map_err(|e| e.to_string())?;
    let (points, failed_points) = err_reader
        .join()
        .map_err(|_| "stderr reader panicked".to_owned())?;
    Ok(Invocation {
        wall_s,
        success: status.is_some_and(|s| s.success()),
        stdout,
        points,
        failed_points,
        peak_rss_mb: peak,
    })
}

/// How many plotted values differ between two datasets; `None` when
/// their figure/row shapes differ.
#[must_use]
pub fn dataset_mismatches(actual: &Json, golden: &Json) -> Option<u64> {
    let figures = |j: &Json| {
        j.get("figures")
            .and_then(Json::as_array)
            .map(<[Json]>::to_vec)
    };
    let rows = |f: &Json| f.get("rows").and_then(Json::as_array).map(<[Json]>::to_vec);
    let (a, g) = (figures(actual)?, figures(golden)?);
    if a.len() != g.len() {
        return None;
    }
    let mut diff = 0;
    for (fa, fg) in a.iter().zip(&g) {
        let (ra, rg) = (rows(fa)?, rows(fg)?);
        if ra.len() != rg.len() {
            return None;
        }
        for (x, y) in ra.iter().zip(&rg) {
            let vals = |r: &Json| {
                r.get("values")
                    .and_then(Json::as_array)
                    .map(<[Json]>::to_vec)
            };
            let (vx, vy) = (vals(x)?, vals(y)?);
            if vx.len() != vy.len() {
                return None;
            }
            diff += vx.iter().zip(&vy).filter(|(p, q)| p != q).count() as u64;
        }
    }
    Some(diff)
}

/// Checks one invocation against the goldens; every point counts as
/// attempted, and a point fails if it failed in the sweep or its plotted
/// value differs from the golden.
fn check(inv: &Invocation, out: &Path, checker: &mut Checker) {
    let attempted = (inv.points.len() + inv.failed_points.len()).max(1) as u64;
    checker.attempted += attempted;
    for label in &inv.failed_points {
        checker.fail(format!("{label}: failed in the sweep"));
    }
    if !inv.success {
        let left = attempted - inv.failed_points.len() as u64;
        checker.failed += left;
        checker
            .problems
            .push("reproduce exited unsuccessfully".to_owned());
        return;
    }
    match std::fs::read(GOLDEN_STDOUT) {
        Ok(golden) if golden == inv.stdout => {}
        Ok(_) => checker.fail("stdout differs from the golden".to_owned()),
        Err(e) => checker.fail(format!("{GOLDEN_STDOUT}: {e}")),
    }
    let actual = std::fs::read_to_string(out.join("reproduce_full.json")).unwrap_or_default();
    let golden = std::fs::read_to_string(GOLDEN_DATASET).unwrap_or_default();
    if actual != golden {
        let parsed = Json::parse(actual.trim_end())
            .ok()
            .zip(Json::parse(golden.trim_end()).ok());
        let diff = parsed
            .and_then(|(a, g)| dataset_mismatches(&a, &g))
            .unwrap_or(attempted)
            .max(1);
        checker.failed += diff;
        checker.problems.push(format!(
            "reproduce_full.json: {diff} value(s) differ from the golden"
        ));
    }
}

/// End-to-end metrics of the untraced invocations: the fastest
/// invocation and each point's fastest replay, as the replay workloads
/// take them, and the median peak RSS.
fn record_invocations(m: &mut Measured, runs: &[Invocation]) {
    let n = runs.len();
    let best = |values: Vec<f64>, f: fn(f64, f64) -> f64| values.into_iter().reduce(f);
    if let Some(wall) = best(runs.iter().map(|r| r.wall_s).collect(), f64::min) {
        m.set("wall_s", wall, n);
    }
    let rates = runs
        .iter()
        .map(|r| r.points.iter().map(|p| p.refs).sum::<u64>() as f64 / r.wall_s)
        .collect();
    if let Some(rate) = best(rates, f64::max) {
        m.set("replay_refs_per_s", rate, n);
    }
    let mut fastest: BTreeMap<&str, f64> = BTreeMap::new();
    for p in runs.iter().flat_map(|r| &r.points) {
        let ns = 1000.0 / p.mrefs_per_s;
        if ns.is_finite() {
            let b = fastest.entry(&p.label).or_insert(ns);
            *b = b.min(ns);
        }
    }
    let ns: Vec<f64> = fastest.into_values().collect();
    m.set_quantile("point_ns_per_ref_p50", &ns, 0.5);
    m.set_quantile("point_ns_per_ref_p90", &ns, 0.9);
    let peaks: Vec<f64> = runs.iter().map(|r| r.peak_rss_mb).collect();
    m.set_median("peak_rss_mb", &peaks);
}

/// One span of the chrome trace.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_us: u64,
    pub dur_us: u64,
    pub refs: Option<u64>,
}

/// Reads the complete (`"ph":"X"`) spans of a chrome trace.
#[must_use]
pub fn parse_spans(trace: &Json) -> Vec<Span> {
    trace
        .get("traceEvents")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .filter_map(|e| {
            Some(Span {
                name: e.get("name")?.as_str()?.to_owned(),
                start_us: e.get("ts")?.as_u64()?,
                dur_us: e.get("dur")?.as_u64()?,
                refs: e
                    .get("args")
                    .and_then(|a| a.get("refs"))
                    .and_then(Json::as_u64),
            })
        })
        .collect()
}

/// Span categories `reproduce --chrome-trace` records.
fn is_figure(s: &Span) -> bool {
    s.name.starts_with("figure: ")
}
fn is_load(s: &Span) -> bool {
    s.name.starts_with("trace load: ")
}
fn is_point(s: &Span) -> bool {
    !is_figure(s) && !is_load(s) && s.name != "sweep worker"
}

/// Self time of the figure spans: each one's duration minus the part of
/// it covered by any other span, on any lane (its trace loads, its
/// points, its sweep workers).
#[must_use]
pub fn figures_self_us(spans: &[Span]) -> u64 {
    let mut total = 0;
    for f in spans.iter().filter(|s| is_figure(s)) {
        let (lo, hi) = (f.start_us, f.start_us + f.dur_us);
        let mut inside: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| !is_figure(s))
            .map(|s| (s.start_us.max(lo), (s.start_us + s.dur_us).min(hi)))
            .filter(|(a, b)| a < b)
            .collect();
        inside.sort_unstable();
        let (mut covered, mut reach) = (0, lo);
        for (a, b) in inside {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        total += f.dur_us - covered;
    }
    total
}

/// Per-layer metrics of the traced invocation: trace loads and sweep
/// shape from its chrome trace, phase counts from `timings.json`.
fn record_traced(
    m: &mut Measured,
    spans: &[Span],
    timings: &Json,
    wall_s: f64,
    checker: &mut Checker,
) {
    let loads: Vec<&Span> = spans.iter().filter(|s| is_load(s)).collect();
    let points: Vec<&Span> = spans.iter().filter(|s| is_point(s)).collect();
    let distinct = |names: &mut Vec<&str>| {
        names.sort_unstable();
        names.dedup();
        names.len()
    };
    let n_loads = loads.len();
    m.set(
        "trace.prepare_s",
        loads.iter().map(|s| s.dur_us).sum::<u64>() as f64 * 1e-6,
        n_loads,
    );
    m.set("trace.loads", n_loads as f64, n_loads);
    let distinct_loads = distinct(&mut loads.iter().map(|s| s.name.as_str()).collect());
    if distinct_loads > 0 {
        m.set(
            "trace.loads_per_distinct",
            n_loads as f64 / distinct_loads as f64,
            n_loads,
        );
    }
    let n_points = points.len();
    m.set("sweep.points", n_points as f64, n_points);
    if n_points > 0 {
        let distinct_points = distinct(&mut points.iter().map(|s| s.name.as_str()).collect());
        m.set(
            "sweep.distinct_point_frac",
            distinct_points as f64 / n_points as f64,
            n_points,
        );
        let busy = points.iter().map(|s| s.dur_us).sum::<u64>() as f64 * 1e-6;
        m.set("sweep.busy_frac", busy / (wall_s * JOBS as f64), n_points);
    }
    let n_figures = spans.iter().filter(|s| is_figure(s)).count();
    m.set(
        "figures.self_s",
        figures_self_us(spans) as f64 * 1e-6,
        n_figures,
    );

    // Phase counts: every point's rollup, across every figure.
    let mut events = [0u64; PHASES.len()];
    let mut cycles = [0u64; PHASES.len()];
    let mut rollups = 0;
    for fig in timings
        .get("figures")
        .and_then(Json::as_array)
        .unwrap_or(&[])
    {
        for point in fig.get("phases").and_then(Json::as_array).unwrap_or(&[]) {
            rollups += 1;
            let phases = point
                .get("counters")
                .and_then(|c| c.get("phases"))
                .and_then(Json::as_array)
                .unwrap_or(&[]);
            for ph in phases {
                let label = ph.get("phase").and_then(Json::as_str).unwrap_or("");
                if let Some(i) = PHASES.iter().position(|p| p.label() == label) {
                    events[i] += ph.get("events").and_then(Json::as_u64).unwrap_or(0);
                    cycles[i] += ph.get("est_cycles").and_then(Json::as_u64).unwrap_or(0);
                }
            }
        }
    }
    let primary: u64 = PHASES
        .iter()
        .zip(&events)
        .filter(|(p, _)| p.is_primary())
        .map(|(_, e)| e)
        .sum();
    let refs: u64 = points.iter().filter_map(|s| s.refs).sum();
    if primary != refs || rollups != n_points {
        checker.fail(format!(
            "traced run: {rollups} phase rollups for {n_points} points; primary phases sum to {primary} of {refs} refs"
        ));
    }
    if refs > 0 {
        for (i, p) in PHASES.iter().enumerate() {
            m.set(
                format!("phase.{}.events_per_kref", p.label()),
                events[i] as f64 * 1000.0 / refs as f64,
                rollups,
            );
            m.set(
                format!("phase.{}.cyc_per_ref", p.label()),
                cycles[i] as f64 / refs as f64,
                rollups,
            );
        }
    }
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(text.trim_end()).map_err(|e| format!("{}: {e}", path.display()))
}

/// The `reproduce` workload: the binary invoked again and again until
/// `seconds` have passed. The sweep has no inputs to vary, so every seed
/// runs the paper's sweep and checks it against the goldens. Between
/// invocations the benchmark prepares the sweep's trace itself, for
/// `setup_s` and the manifest's trace hash.
pub fn reproduce(exe: &Path, seconds: f64, traced: bool, tmp: &Path) -> RunOut {
    let kinds = [KERNEL];
    let scales = [Scale::new(SCALE).expect("0.05 is a valid scale")];
    let mut reps = Vec::new();
    let mut hashes = Vec::new();
    let mut checker = Checker::default();
    let out: PathBuf = tmp.join("reproduce-out");
    let mut runs = Vec::new();
    let start = Instant::now();
    while runs.len() < MIN_INVOCATIONS || start.elapsed().as_secs_f64() < seconds {
        let (traces, times) = prepare(&kinds, &scales);
        reps.push(times);
        if hashes.is_empty() {
            hashes = crate::replay::hashes(&traces);
        }
        drop(traces);
        match invoke(exe, &out, &[]) {
            Ok(inv) => {
                check(&inv, &out, &mut checker);
                runs.push(inv);
            }
            Err(e) => {
                checker.attempted += 1;
                checker.fail(e);
                break;
            }
        }
        let _ = std::fs::remove_dir_all(&out);
    }
    let mut m = Measured::default();
    m.set_median("setup_s", &setup_s(&reps));
    record_invocations(&mut m, &runs);
    if traced {
        record_prep(&mut m, &reps);
        let chrome = tmp.join("chrome-trace.json");
        let extra = [
            "--chrome-trace",
            chrome.to_str().unwrap_or_default(),
            "--phase-stats",
        ];
        match invoke(exe, &out, &extra) {
            Ok(inv) => {
                check(&inv, &out, &mut checker);
                match read_json(&chrome)
                    .and_then(|c| Ok((c, read_json(&out.join("timings.json"))?)))
                {
                    Ok((chrome, timings)) => {
                        record_traced(
                            &mut m,
                            &parse_spans(&chrome),
                            &timings,
                            inv.wall_s,
                            &mut checker,
                        );
                    }
                    Err(e) => checker.fail(e),
                }
                if let Some((fastest, _)) = m.get("wall_s") {
                    m.set("trace_overhead_frac", inv.wall_s / fastest - 1.0, 1);
                }
            }
            Err(e) => checker.fail(e),
        }
        let _ = std::fs::remove_dir_all(&out);
        let _ = std::fs::remove_file(&chrome);
    }
    RunOut {
        measured: m,
        checker,
        traces: hashes,
        points: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_lines_parse() {
        let ok = parse_progress(
            "sweep: [12/80] vxp5(t32)/Raytrace: 2179040 refs in 0.21s (10.4 Mrefs/s), ETA 3s",
        );
        assert_eq!(
            ok,
            Some(Ok(Progress {
                label: "vxp5(t32)/Raytrace".into(),
                refs: 2_179_040,
                mrefs_per_s: 10.4
            }))
        );
        assert_eq!(
            parse_progress("sweep: [3/9] base/LU FAILED, ETA 1s"),
            Some(Err("base/LU".into()))
        );
        assert_eq!(parse_progress("reproduce: running fig3 ..."), None);
    }

    fn span(name: &str, start_us: u64, dur_us: u64) -> Span {
        Span {
            name: name.into(),
            start_us,
            dur_us,
            refs: None,
        }
    }

    #[test]
    fn figure_self_time_subtracts_the_union_of_children() {
        let spans = [
            span("figure: fig3", 0, 100),
            span("trace load: FFT", 0, 10),
            span("sweep worker", 20, 50),
            span("base/FFT", 25, 20),
            span("vb16/FFT", 60, 30),
            span("figure: fig4", 200, 10),
        ];
        // fig3 covered by [0,10) ∪ [20,90) = 80 of 100; fig4 uncovered.
        assert_eq!(figures_self_us(&spans), 20 + 10);
    }

    #[test]
    fn dataset_mismatches_count_values() {
        let doc = |v: f64| {
            Json::obj().set(
                "figures",
                Json::Arr(vec![Json::obj().set(
                    "rows",
                    Json::Arr(vec![
                        Json::obj().set("values", Json::Arr(vec![Json::F64(1.0), Json::F64(v)]))
                    ]),
                )]),
            )
        };
        assert_eq!(dataset_mismatches(&doc(2.0), &doc(2.0)), Some(0));
        assert_eq!(dataset_mismatches(&doc(2.0), &doc(3.0)), Some(1));
        assert_eq!(dataset_mismatches(&Json::obj(), &doc(3.0)), None);
    }
}
