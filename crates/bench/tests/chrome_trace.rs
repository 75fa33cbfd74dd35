//! Golden tests for the sweep engine's span-trace export: the chrome
//! trace written by a `--jobs 2 --chrome-trace` run must round-trip
//! through the workspace's own JSON parser, carry exactly one lane per
//! worker (plus the main lane that loads traces), keep every lane's
//! spans properly nested (no partial overlap — Chrome infers the span
//! hierarchy from containment), and the per-point phase rollups recorded
//! alongside must match the submitted point labels and partition every
//! point's shared references.

use std::collections::BTreeMap;
use std::sync::Arc;

use dsm_bench::{run_sweep, Jobs, SweepPoint, TraceSet};
use dsm_core::obs::span::SpanTracer;
use dsm_core::obs::Json;
use dsm_core::SystemSpec;
use dsm_trace::{Scale, WorkloadKind};

fn traced_ts(jobs: Jobs, tracer: &Arc<SpanTracer>) -> TraceSet {
    let mut ts = TraceSet::with_jobs(Scale::new(0.05).expect("valid scale"), jobs);
    ts.set_tracer(Some(Arc::clone(tracer)));
    ts.enable_phase_stats(true);
    ts
}

fn points() -> Vec<SweepPoint> {
    [
        SystemSpec::base(),
        SystemSpec::vb(),
        SystemSpec::nc(),
        SystemSpec::vp(),
    ]
    .into_iter()
    .map(|s| SweepPoint::new(s, WorkloadKind::Lu))
    .collect()
}

/// One complete (`"ph":"X"`) event pulled out of the parsed trace.
#[derive(Debug, Clone)]
struct XEvent {
    name: String,
    tid: u64,
    ts: u64,
    dur: u64,
}

/// Parses the rendered chrome JSON back through [`Json::parse`] and
/// splits it into the lane-name map (tid -> thread_name metadata) and
/// the complete events, preserving file order.
fn parse_trace(rendered: &str) -> (BTreeMap<u64, String>, Vec<XEvent>) {
    let parsed = Json::parse(rendered).expect("chrome trace must be valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    let mut lanes = BTreeMap::new();
    let mut xs = Vec::new();
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("ph field");
        let tid = e.get("tid").and_then(Json::as_u64).expect("tid field");
        assert_eq!(e.get("pid").and_then(Json::as_u64), Some(1), "single pid");
        match ph {
            "M" => {
                assert_eq!(e.get("name").and_then(Json::as_str), Some("thread_name"));
                let name = e
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .expect("thread_name args.name");
                assert!(
                    lanes.insert(tid, name.to_owned()).is_none(),
                    "duplicate thread_name record for tid {tid}"
                );
            }
            "X" => xs.push(XEvent {
                name: e
                    .get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_owned(),
                tid,
                ts: e.get("ts").and_then(Json::as_u64).expect("ts"),
                dur: e.get("dur").and_then(Json::as_u64).expect("dur"),
            }),
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    (lanes, xs)
}

/// Asserts stack discipline within one lane: walking the events in file
/// order (starts ascending, parents before children), every event must
/// either be contained in the currently open span or start at/after its
/// end — a partial overlap means two spans on one thread ran
/// "concurrently", which the RAII guards make impossible.
fn assert_nested(lane: &str, events: &[&XEvent]) {
    let mut stack: Vec<u64> = Vec::new(); // open spans' end timestamps
    let mut last_start = 0u64;
    for e in events {
        assert!(
            e.ts >= last_start,
            "lane {lane}: events must be sorted by start time"
        );
        last_start = e.ts;
        while stack.last().is_some_and(|&end| e.ts >= end) {
            stack.pop();
        }
        if let Some(&parent_end) = stack.last() {
            assert!(
                e.ts + e.dur <= parent_end,
                "lane {lane}: span {:?} [{}, {}] partially overlaps its \
                 enclosing span ending at {parent_end}",
                e.name,
                e.ts,
                e.ts + e.dur,
            );
        }
        stack.push(e.ts + e.dur);
    }
}

#[test]
fn parallel_sweep_trace_has_one_lane_per_worker_and_nests() {
    let tracer = Arc::new(SpanTracer::new());
    let jobs = Jobs::new(2).expect("2 workers");
    let mut ts = traced_ts(jobs, &tracer);
    let pts = points();
    let outcomes = run_sweep(&mut ts, &pts, jobs).expect("traces prepare");
    assert!(outcomes.iter().all(|o| o.result.is_ok()));

    let rendered = tracer.to_chrome_json().render();
    let (lanes, xs) = parse_trace(&rendered);

    // Exactly one lane per worker plus the main (trace-loading) lane.
    let mut names: Vec<&str> = lanes.values().map(String::as_str).collect();
    names.sort_unstable();
    assert_eq!(names, ["main", "worker-1", "worker-2"]);

    // Every lane's spans form a proper hierarchy.
    for (&tid, lane) in &lanes {
        let in_lane: Vec<&XEvent> = xs.iter().filter(|e| e.tid == tid).collect();
        assert_nested(lane, &in_lane);
    }

    // The main lane loaded the one workload's trace; each worker lane has
    // a worker-lifetime span enclosing its claimed point spans, and every
    // submitted point label appears exactly once across the worker lanes.
    let by_name = |n: &str| xs.iter().filter(|e| e.name == n).count();
    assert_eq!(by_name("trace load: LU"), 1);
    assert_eq!(by_name("sweep worker"), 2);
    for p in &pts {
        assert_eq!(by_name(&p.label), 1, "point {} must have one span", p.label);
    }

    // Phase rollups: labels match the submitted points, and each rollup's
    // primary phases partition that point's shared references.
    let rollups = ts.take_phase_rollups();
    let mut rollup_labels: Vec<&str> = rollups.iter().map(|(l, _)| l.as_str()).collect();
    rollup_labels.sort_unstable();
    let mut point_labels: Vec<&str> = pts.iter().map(|p| p.label.as_str()).collect();
    point_labels.sort_unstable();
    assert_eq!(rollup_labels, point_labels);
    for (label, counters) in &rollups {
        let outcome = outcomes
            .iter()
            .find(|o| &o.label == label)
            .expect("rollup label matches an outcome");
        let report = outcome.result.as_ref().expect("point succeeded");
        assert_eq!(
            counters.primary_events(),
            report.metrics.shared_refs,
            "{label}: primary phases must partition the shared references"
        );
    }
}

#[test]
fn serial_sweep_trace_stays_on_the_main_lane() {
    let tracer = Arc::new(SpanTracer::new());
    let mut ts = traced_ts(Jobs::serial(), &tracer);
    let pts = points();
    let outcomes = run_sweep(&mut ts, &pts, Jobs::serial()).expect("traces prepare");
    assert!(outcomes.iter().all(|o| o.result.is_ok()));

    let rendered = tracer.to_chrome_json().render();
    let (lanes, xs) = parse_trace(&rendered);
    let names: Vec<&str> = lanes.values().map(String::as_str).collect();
    assert_eq!(names, ["main"], "serial runs must not spawn worker lanes");
    let all: Vec<&XEvent> = xs.iter().collect();
    assert_nested("main", &all);
    for p in &pts {
        assert_eq!(
            xs.iter().filter(|e| e.name == p.label).count(),
            1,
            "point {} must have one span",
            p.label
        );
    }
}
