//! Deep-profiles one workload: replays it on selected system
//! configurations under full phase instrumentation and prints, per
//! configuration, the per-phase cost table (events, estimated cycles per
//! Eq. 1's latency terms, and each phase's share of total cost), the
//! end-of-run occupancy snapshot, and a reconciliation footer proving the
//! counters sum exactly to the final report's aggregates.
//!
//! Usage:
//!
//! ```text
//! profile [--workload <name>] [--systems <csv>] [--batch <refs>]
//!         [--out <file>] [--chrome-trace <file>] [--scale <f>] [--jobs <n>]
//! ```
//!
//! Defaults replay Radix on `base`, `vb16` and `vpp5` — the throughput
//! anomaly triple (see EXPERIMENTS.md): radix is the one workload whose
//! victim-path configurations simulate *slower* than the baseline, and
//! this binary's phase table is how that was diagnosed. `--systems`
//! takes comma-separated specs as `simulate --system` does, e.g.
//! `base,vb,ncp:pc=1/16:threshold=fixed32`.
//!
//! The replay stops every `--batch` references (default 65536) — the
//! batched loop every run uses, through `System::run_shared_windowed` —
//! and closes one `replay batch` span per stop, so the span trace
//! written by `--chrome-trace` shows per-batch progress under each
//! configuration's replay span; `--out <file>` writes the full profile
//! as `dsm-profile/v1` JSON. `--jobs` is accepted (it is a common flag)
//! but ignored: profiling replays serially so per-batch spans and
//! counters stay attributable.

use std::convert::Infallible;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use dsm_bench::harness::{parse_argv, report_failure, usage_exit, RunArgs};
use dsm_core::config::text;
use dsm_core::obs::span::SpanTracer;
use dsm_core::obs::{write_json_atomic, Json};
use dsm_core::runner::report_of;
use dsm_core::{PhaseProfiler, System, SystemSpec};
use dsm_trace::{SharedTrace, WorkloadKind};
use dsm_types::{DsmError, Geometry, Topology};

const USAGE: &str = "profile [--workload <name>] [--systems <csv>] [--batch <refs>] [--out <file>] [--chrome-trace <file>] [--scale <f>] [--jobs <n>]";

struct Flags {
    run: RunArgs,
    workload: WorkloadKind,
    specs: Vec<SystemSpec>,
    batch: usize,
    out: Option<PathBuf>,
    chrome_trace: Option<PathBuf>,
}

fn parse_flags() -> Flags {
    let mut workload = WorkloadKind::Radix;
    let mut systems = "base,vb,vpp".to_owned();
    let mut batch = 65536usize;
    let mut out = None;
    let mut chrome_trace = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let run = parse_argv(&argv, |args, i| match args[i].as_str() {
        "--workload" => {
            let v = args
                .get(i + 1)
                .ok_or_else(|| "--workload requires a value".to_owned())?;
            workload = WorkloadKind::from_name(v)?;
            Ok(2)
        }
        "--systems" => {
            let v = args
                .get(i + 1)
                .ok_or_else(|| "--systems requires a value".to_owned())?;
            systems.clone_from(v);
            Ok(2)
        }
        "--batch" => {
            let v = args
                .get(i + 1)
                .ok_or_else(|| "--batch requires a value".to_owned())?;
            batch = v.parse().map_err(|_| format!("bad batch size '{v}'"))?;
            if batch == 0 {
                return Err("--batch must be positive".to_owned());
            }
            Ok(2)
        }
        "--out" => {
            let v = args
                .get(i + 1)
                .ok_or_else(|| "--out requires a value".to_owned())?;
            out = Some(PathBuf::from(v));
            Ok(2)
        }
        "--chrome-trace" => {
            let v = args
                .get(i + 1)
                .ok_or_else(|| "--chrome-trace requires a value".to_owned())?;
            chrome_trace = Some(PathBuf::from(v));
            Ok(2)
        }
        _ => Ok(0),
    })
    .unwrap_or_else(|msg| usage_exit(USAGE, &msg));
    let specs = systems
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| text::parse(s.trim()))
        .collect::<Result<Vec<_>, _>>()
        .unwrap_or_else(|e| usage_exit(USAGE, &e.to_string()));
    Flags {
        run,
        workload,
        specs,
        batch,
        out,
        chrome_trace,
    }
}

fn run(flags: &Flags) -> Result<(), DsmError> {
    let topo = Topology::paper_default();
    let geo = Geometry::paper_default();
    let kind = flags.workload;
    let wl = kind.display_name().to_lowercase();
    let tracer = SpanTracer::new();
    let lane = tracer.lane("main");

    eprintln!(
        "profile: generating {wl} trace at scale {} ...",
        flags.run.scale.factor()
    );
    let w = kind.paper_instance();
    let data_bytes = w.shared_bytes();
    let trace = {
        let mut span = tracer.span(lane, format!("trace load: {kind}"));
        let refs = w.generate(&topo, flags.run.scale);
        span.arg("refs", refs.len() as u64);
        SharedTrace::from_refs(topo, geo, &refs)
    };

    let mut runs: Vec<Json> = Vec::new();
    for spec in &flags.specs {
        let mut replay_span = tracer.span(lane, format!("replay: {}/{kind}", spec.name));
        let profiler = PhaseProfiler::for_spec(spec);
        let mut system = System::with_probe(spec.clone(), topo, geo, data_bytes, profiler)
            .map_err(|e| DsmError::bad_input(format!("{}/{wl}: {e}", spec.name)))?;
        let t0 = Instant::now();
        let mut done = 0usize;
        let mut bspan = (!trace.is_empty()).then(|| tracer.span(lane, "replay batch"));
        let Ok(()) = system.run_shared_windowed(&trace, flags.batch, |_, now| {
            if let Some(mut span) = bspan.take() {
                span.arg("refs", (now - done) as u64);
            }
            done = now;
            if now < trace.len() {
                bspan = Some(tracer.span(lane, "replay batch"));
            }
            Ok::<(), Infallible>(())
        });
        system.finish();
        let wall_s = t0.elapsed().as_secs_f64();
        let mut report = report_of(&system, &wl, data_bytes, trace.len() as u64);
        report.wall_s = wall_s;
        let occupancy = system.occupancy();
        let (profiler, _) = system.into_probe();
        let counters = profiler.into_counters();
        replay_span.arg("refs", report.refs);
        drop(replay_span);

        // The tentpole's exactness guarantee: the six primary phases
        // partition every shared reference; a mismatch is a profiler bug,
        // not a rounding error.
        let primary = counters.primary_events();
        let services = report.metrics.primary_services();
        let shared = report.metrics.shared_refs;
        println!(
            "## {}/{} — {} refs, {:.2}s ({:.1} Mrefs/s)\n",
            spec.name,
            kind.display_name(),
            report.refs,
            wall_s,
            report.refs as f64 / wall_s.max(1e-9) / 1e6
        );
        println!("{}", counters.render_table(report.refs));
        println!(
            "reconciliation: primary phase events {primary} == primary services {services} \
             == shared refs {shared}: {}",
            if primary == services && services == shared {
                "OK"
            } else {
                "MISMATCH"
            }
        );
        println!(
            "occupancy: {} directory-tracked blocks, {} bus transactions across {} clusters\n",
            occupancy.directory_tracked_blocks,
            occupancy
                .clusters
                .iter()
                .map(|c| c.bus_transactions)
                .sum::<u64>(),
            occupancy.clusters.len()
        );
        if primary != services || services != shared {
            return Err(DsmError::invariant(format!(
                "{}/{wl}: phase counters do not reconcile: primary phase events {primary}, \
                 primary services {services}, shared refs {shared}",
                spec.name
            )));
        }
        runs.push(
            Json::obj()
                .set("system", spec.name.as_str())
                .set("refs", report.refs)
                .set("wall_s", wall_s)
                .set("report", report.to_json())
                .set("phases", counters.to_json())
                .set("occupancy", occupancy.to_json()),
        );
    }

    if let Some(path) = &flags.out {
        let json = Json::obj()
            .set("schema", "dsm-profile/v1")
            .set("workload", wl.as_str())
            .set("scale", flags.run.scale.factor())
            .set("batch", flags.batch as u64)
            .set("runs", runs);
        write_json_atomic(path, &json)?;
        eprintln!("profile: wrote {}", path.display());
    }
    if let Some(path) = &flags.chrome_trace {
        tracer.write(path)?;
        eprintln!("profile: wrote {}", path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let flags = parse_flags();
    match run(&flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => report_failure(&e),
    }
}
