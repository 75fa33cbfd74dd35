//! Measures simulator throughput (trace references per second) on
//! representative system configurations and records the numbers in
//! `BENCH_perf.json`, so the per-reference cost of the hot path is a
//! tracked quantity rather than an anecdote.
//!
//! Usage:
//!
//! ```text
//! throughput [--scale <f>] [--out <path>] [--best-of <n>] \
//!            [--baseline <workload>/<name>=<refs_per_s>]... [--baseline-commit <sha>]
//! ```
//!
//! Two canned workload traces — FFT (regular, high locality) and Radix
//! (irregular, permutation-heavy) — each replay through three
//! configurations under the tinybench harness (median of 12 samples):
//! the CC-NUMA base machine (full-map directory, no NC), the SRAM victim
//! network cache, and the integrated NC + page-cache system. Each
//! benchmark prints a tinybench line; with `--out` the measured refs/sec
//! land in a JSON file whose schema (`dsm-bench-throughput/v3`) is
//! documented in the README ("Throughput benchmark").
//!
//! `--baseline` attaches reference numbers measured at an earlier commit
//! (`--baseline-commit`), keyed `<workload>/<config>` (e.g. `fft/base`),
//! so the file records the before/after pair. The v3 schema makes the
//! baselines total: giving any `--baseline` requires one for *every*
//! workload/config pair, so no config can silently drop out of the
//! regression guard (v2 allowed partial coverage, and radix shipped
//! without baselines for two PRs). The CI `bench-smoke` job compares a
//! fresh run against the committed file and fails on a >30% regression.
//! Machine info (arch, OS, hardware threads) is recorded so
//! cross-machine numbers are never compared blindly.
//!
//! `--best-of <n>` repeats each configuration's benchmark `n` times and
//! records the fastest repetition. Throughput noise on shared machines
//! is one-sided (interference only ever slows a run down), so the
//! per-config maximum is the stable estimator the regression gates
//! compare; the default is a single repetition.

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

use dsm_bench::harness::usage_exit;
use dsm_bench::tinybench::{consume, Tiny};
use dsm_bench::{parse_run_args, TraceSet};
use dsm_core::obs::{write_json_atomic, Json};
use dsm_core::{PcSize, SystemSpec};
use dsm_trace::WorkloadKind;

const USAGE: &str = "throughput [--scale <f>] [--out <path>] [--best-of <n>] [--baseline <workload>/<name>=<refs_per_s>]... [--baseline-commit <sha>]";

/// The benchmarked workloads: one regular, one irregular kernel, so the
/// replay cost is tracked under both friendly and hostile access
/// patterns.
const WORKLOADS: [(WorkloadKind, &str); 2] =
    [(WorkloadKind::Fft, "fft"), (WorkloadKind::Radix, "radix")];

fn main() -> ExitCode {
    let mut out: Option<PathBuf> = None;
    let mut baseline: HashMap<String, f64> = HashMap::new();
    let mut baseline_commit: Option<String> = None;
    let mut best_of = 1usize;
    let run = parse_run_args(USAGE, |args, i| match args[i].as_str() {
        "--out" => {
            let v = args
                .get(i + 1)
                .ok_or_else(|| "--out requires a value".to_owned())?;
            out = Some(PathBuf::from(v));
            Ok(2)
        }
        "--baseline" => {
            let v = args
                .get(i + 1)
                .ok_or_else(|| "--baseline requires <workload>/<name>=<refs_per_s>".to_owned())?;
            let (name, value) = v.split_once('=').ok_or_else(|| {
                format!("bad baseline '{v}' (want <workload>/<name>=<refs_per_s>)")
            })?;
            let value: f64 = value
                .parse()
                .map_err(|_| format!("bad baseline value '{v}'"))?;
            baseline.insert(name.to_owned(), value);
            Ok(2)
        }
        "--baseline-commit" => {
            let v = args
                .get(i + 1)
                .ok_or_else(|| "--baseline-commit requires a value".to_owned())?;
            baseline_commit = Some(v.clone());
            Ok(2)
        }
        "--best-of" => {
            let v = args
                .get(i + 1)
                .ok_or_else(|| "--best-of requires a value".to_owned())?;
            best_of = v
                .parse()
                .map_err(|_| format!("bad repetition count '{v}'"))?;
            if best_of == 0 {
                return Err("--best-of must be positive".to_owned());
            }
            Ok(2)
        }
        _ => Ok(0),
    });

    let scale = run.scale;
    // The paper's three interesting design points: no NC, SRAM victim
    // NC, and the integrated NC + PC hierarchy.
    let specs = [
        SystemSpec::base(),
        SystemSpec::vb(),
        SystemSpec::vpp(PcSize::DataFraction(5)),
    ];

    // v3: baselines are all-or-nothing. A partial set means some config
    // silently escapes the CI regression guard, so reject it up front.
    if !baseline.is_empty() {
        let missing: Vec<String> = WORKLOADS
            .iter()
            .flat_map(|(_, wname)| specs.iter().map(move |s| format!("{wname}/{}", s.name)))
            .filter(|label| !baseline.contains_key(label))
            .collect();
        if !missing.is_empty() {
            usage_exit(
                USAGE,
                &format!(
                    "--baseline must cover every workload/config pair; missing: {}",
                    missing.join(", ")
                ),
            );
        }
    }

    let mut ts = TraceSet::from_args(&run);
    for (kind, _) in WORKLOADS {
        ts.prepare(kind);
    }

    let mut tiny = Tiny::unfiltered();
    tiny.group("sim_throughput");

    // One untimed run per workload up front: validates the configs and
    // yields the reference count for the throughput denominator.
    let mut workload_refs: Vec<u64> = Vec::new();
    for (kind, wname) in WORKLOADS {
        let refs = ts.run_prepared(&specs[0], kind).refs;
        eprintln!(
            "throughput: {wname} trace, scale {}, {refs} refs per replay",
            scale.factor()
        );
        workload_refs.push(refs);
    }

    // Interference is one-sided (it only ever slows a run down), so the
    // fastest repetition per config is the estimator the regression
    // gates compare. Repetitions run round-robin over the whole suite —
    // not back-to-back per config — so a slow window on a shared
    // machine degrades one round of every config instead of every
    // sample of one, which keeps the *ratios* between configs stable.
    let mut best: HashMap<String, f64> = HashMap::new();
    for _round in 0..best_of {
        for ((kind, wname), &refs) in WORKLOADS.iter().zip(&workload_refs) {
            for spec in &specs {
                let label = format!("{wname}/{}", spec.name);
                let eps = tiny.bench_value(&label, refs, || {
                    consume(ts.run_prepared(spec, *kind));
                });
                if let Some(eps) = eps {
                    let slot = best.entry(label).or_insert(eps);
                    *slot = slot.max(eps);
                }
            }
        }
    }

    let mut workload_reports: Vec<Json> = Vec::new();
    for ((_, wname), &refs) in WORKLOADS.iter().zip(&workload_refs) {
        let mut configs: Vec<Json> = Vec::new();
        for spec in &specs {
            let label = format!("{wname}/{}", spec.name);
            let Some(&eps) = best.get(&label) else {
                continue;
            };
            let mut j = Json::obj()
                .set("name", spec.name.as_str())
                .set("refs_per_s", eps);
            if let Some(base) = baseline.get(&label) {
                j = j
                    .set("baseline_refs_per_s", *base)
                    .set("speedup", eps / *base);
            }
            configs.push(j);
        }
        workload_reports.push(
            Json::obj()
                .set("workload", *wname)
                .set("refs", refs)
                .set("configs", configs),
        );
    }

    let Some(out) = out else {
        return ExitCode::SUCCESS;
    };
    let machine = Json::obj()
        .set("arch", std::env::consts::ARCH)
        .set("os", std::env::consts::OS)
        .set(
            "parallelism",
            std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        );
    let json = Json::obj()
        .set("schema", "dsm-bench-throughput/v3")
        .set("scale", scale.factor())
        .set("machine", machine)
        .set(
            "baseline_commit",
            match &baseline_commit {
                Some(sha) => Json::Str(sha.clone()),
                None => Json::Null,
            },
        )
        .set("workloads", workload_reports);
    if let Err(e) = write_json_atomic(&out, &json) {
        eprintln!("error: {e}");
        return ExitCode::from(e.exit_code());
    }
    eprintln!("throughput: wrote {}", out.display());
    ExitCode::SUCCESS
}
