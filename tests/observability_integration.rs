//! Integration tests for the observability layer: the probe must not
//! perturb the simulation, epoch samples must partition the run exactly,
//! event streams must agree with the aggregate counters, and the figures
//! of merit must match hand-computed values (Equation 1, the x225/30
//! relocation overhead, Figure 10's traffic definition).

use std::collections::HashMap;

use dsm_core::metrics::ClusterCounts;
use dsm_core::obs::{JsonlSink, StatsSink};
use dsm_core::runner::{run_trace, run_trace_probed};
use dsm_core::{Latencies, LatencyModel, Metrics, NcTechnology, PcSize, System, SystemSpec, Tee};
use dsm_trace::{workloads::Lu, Scale, SharedTrace, Workload};
use dsm_types::{Addr, Geometry, MemRef, ProcId, Topology};

fn lu_trace() -> (Topology, Geometry, u64, SharedTrace) {
    let topo = Topology::paper_default();
    let geo = Geometry::paper_default();
    let w = Lu::with_matrix(128); // small instance: ~fast, still remote-heavy
    let refs = w.generate(&topo, Scale::full());
    let trace = SharedTrace::from_refs(topo, geo, &refs);
    (topo, geo, w.shared_bytes(), trace)
}

fn vxp_spec() -> SystemSpec {
    SystemSpec::vxp(PcSize::DataFraction(5), 32)
}

#[test]
fn epoch_samples_partition_the_run_exactly() {
    let (topo, geo, data_bytes, trace) = lu_trace();
    let mut system =
        System::with_probe(vxp_spec(), topo, geo, data_bytes, StatsSink::new()).unwrap();
    system.set_epoch_window(10_000);
    system.run_shared(&trace);
    system.finish();

    let sink = system.probe();
    let epochs = sink.epochs();
    assert!(epochs.len() >= 2, "trace too short for the epoch window");

    // Epoch boundaries are contiguous and cover every reference.
    let mut expected_start = 0;
    for (i, s) in epochs.iter().enumerate() {
        assert_eq!(s.index, i as u64);
        assert_eq!(s.start_ref, expected_start);
        assert!(s.end_ref > s.start_ref);
        expected_start = s.end_ref;
    }
    assert_eq!(expected_start, system.metrics().shared_refs);

    // The sum of the per-epoch deltas is the whole run.
    assert_eq!(&sink.epoch_total(), system.metrics());

    // And the per-cluster series sums to the per-cluster aggregates.
    let totals = sink.epoch_cluster_totals();
    assert_eq!(totals.len(), usize::from(topo.clusters()));
    for (i, total) in totals.iter().enumerate() {
        assert_eq!(*total, sink.counts().cluster_counts(i));
    }
    let refs: u64 = totals.iter().map(|c| c.refs).sum();
    assert_eq!(refs, system.metrics().shared_refs);
}

#[test]
fn idle_clusters_get_zero_epoch_rows() {
    // A 4x2 machine where only processor 0 issues during the first
    // window, then every processor issues once.
    let topo = Topology::new(4, 2).unwrap();
    let geo = Geometry::paper_default();
    let mut refs: Vec<MemRef> = (0..100)
        .map(|i| MemRef::read(ProcId(0), Addr(i * 64)))
        .collect();
    refs.extend((0..8).map(|p| MemRef::write(ProcId(p), Addr(0x10_0000))));
    let trace = SharedTrace::from_refs(topo, geo, &refs);
    let mut system = System::with_probe(SystemSpec::vb(), topo, geo, 0, StatsSink::new()).unwrap();
    system.set_epoch_window(100);
    system.run_shared(&trace);
    system.finish();

    let epochs = system.probe().epochs();
    assert_eq!(epochs.len(), 2);
    let first = &epochs[0].per_cluster;
    assert_eq!(first.len(), 4, "one row per cluster, idle ones included");
    assert_eq!(first[0].refs, 100);
    assert!(first[1..].iter().all(|c| *c == ClusterCounts::default()));
    assert!(epochs[1].per_cluster.iter().all(|c| c.refs == 2));
}

#[test]
fn simulate_rejects_stats_flags_without_stats() {
    for flag in [["--epoch", "1000"], ["--top", "5"]] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_simulate"))
            .args([
                "--system",
                "vb",
                "--workload",
                "lu",
                "--dev",
                "--scale",
                "0.02",
            ])
            .args(flag)
            .output()
            .expect("spawn simulate");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag:?}: {stderr}");
        assert!(stderr.contains("usage: simulate"), "{flag:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag:?} must not start work");
    }
}

#[test]
fn simulate_rejects_flags_its_input_mode_does_not_read() {
    for args in [
        "--workload lu --dev --scale 0.02 --data-mb 1",
        "--trace missing.dsmt --scale 0.5 --dev",
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_simulate"))
            .args(["--system", "vb"])
            .args(args.split(' '))
            .output()
            .expect("spawn simulate");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: simulate"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must not start work");
    }
}

#[test]
fn probe_does_not_perturb_any_system() {
    let (_topo, _geo, data_bytes, trace) = lu_trace();
    for spec in [SystemSpec::base(), SystemSpec::vb(), vxp_spec()] {
        let plain = run_trace(&spec, "lu", data_bytes, &trace).unwrap();
        let (probed, _) = run_trace_probed(
            &spec,
            "lu",
            data_bytes,
            &trace,
            StatsSink::new(),
            Some(25_000),
        )
        .unwrap();
        assert_eq!(plain, probed, "probe changed {}'s result", spec.name);
    }
}

#[test]
fn event_stream_agrees_with_aggregate_metrics() {
    let (topo, _geo, data_bytes, trace) = lu_trace();
    let (report, sink) = run_trace_probed(
        &vxp_spec(),
        "lu",
        data_bytes,
        &trace,
        StatsSink::new(),
        None,
    )
    .unwrap();
    let m = &report.metrics;
    let by_kind: HashMap<_, _> = sink.counts().kind_counts().into_iter().collect();
    let count = |kind| by_kind.get(kind).copied().unwrap_or(0);
    assert_eq!(count("cache_hit"), m.read_hits + m.write_hits);
    assert_eq!(count("peer_transfer"), m.peer_transfers);
    assert_eq!(count("nc_hit"), m.nc_read_hits + m.nc_write_hits);
    assert_eq!(count("pc_hit"), m.pc_read_hits + m.pc_write_hits);
    assert_eq!(
        count("remote_read"),
        m.remote_read_necessary + m.remote_read_capacity
    );
    assert_eq!(
        count("remote_write"),
        m.remote_write_necessary + m.remote_write_capacity
    );
    assert_eq!(count("ownership_request"), m.remote_ownership_requests);
    assert_eq!(count("relocation"), m.relocations);
    assert_eq!(count("nc_capture"), m.nc_captures);
    assert_eq!(count("local_upgrade"), m.local_upgrades);
    assert_eq!(count("migration"), m.migrations);
    assert_eq!(count("replication"), m.replications);

    // Per-cluster event attribution covers every cluster that issued refs.
    let per_cluster = sink.counts().cluster_totals();
    assert!(per_cluster.iter().any(|&n| n > 0));
    assert!(per_cluster.len() <= usize::from(topo.clusters()));
}

#[test]
fn jsonl_sink_streams_the_whole_run() {
    let (_topo, _geo, data_bytes, trace) = lu_trace();
    let probe = Tee(StatsSink::new(), JsonlSink::new(Vec::new()));
    let (_, Tee(stats, jsonl)) =
        run_trace_probed(&vxp_spec(), "lu", data_bytes, &trace, probe, Some(50_000)).unwrap();
    let lines_written = jsonl.lines();
    let buf = jsonl.finish().unwrap();
    let text = String::from_utf8(buf).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len() as u64, lines_written);
    assert_eq!(
        lines.len() as u64,
        stats.counts().total() + stats.epochs().len() as u64
    );
    // Every line is a single JSON object.
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "bad line {line}"
        );
    }
    // Epoch records are tagged and interleaved after their events.
    assert!(text.contains(r#""ev":"epoch""#));
}

/// Hand-computed counter set used by the golden figure-of-merit tests.
fn golden_metrics() -> Metrics {
    let mut m = Metrics::new();
    m.shared_refs = 1000;
    m.nc_read_hits = 7;
    m.pc_read_hits = 5;
    m.remote_read_necessary = 11;
    m.remote_read_capacity = 4; // 15 remote read misses in total
    m.remote_write_necessary = 3;
    m.remote_ownership_requests = 2; // 5 remote write transactions in total
    m.remote_writebacks = 6;
    m.relocations = 2;
    m
}

#[test]
#[allow(clippy::identity_op)] // keep the 1-cycle SRAM term visible
fn golden_equation_1_remote_read_stall() {
    let m = golden_metrics();
    // SRAM NC (Table 1): NC hit 1, PC hit 10, remote miss 30, reloc 225.
    let sram = LatencyModel::new(Latencies::paper_default(), NcTechnology::Sram);
    assert_eq!(
        m.remote_read_stall(&sram),
        7 * 1 + 5 * 10 + 15 * 30 + 2 * 225 // = 957
    );
    // DRAM NC: hits cost 10+3, and the tag check penalizes misses too.
    let dram = LatencyModel::new(Latencies::paper_default(), NcTechnology::Dram);
    assert_eq!(
        m.remote_read_stall(&dram),
        7 * 13 + 5 * 10 + 15 * 33 + 2 * 225 // = 1086
    );
}

#[test]
fn golden_os_page_ops_enter_equation_1() {
    let mut m = golden_metrics();
    m.migrations = 1;
    m.replications = 2; // os_page_ops = 2 + 1 + 2 = 5
    let sram = LatencyModel::new(Latencies::paper_default(), NcTechnology::Sram);
    assert_eq!(m.remote_read_stall(&sram), 7 + 50 + 450 + 5 * 225);
}

#[test]
fn golden_relocation_overhead_is_225_over_30() {
    let m = golden_metrics();
    let model = LatencyModel::new(Latencies::paper_default(), NcTechnology::Sram);
    // 2 relocations / 1000 refs, scaled by 225/30 = 7.5.
    let expected = (2.0 / 1000.0) * 7.5;
    assert!((m.relocation_overhead_ratio(&model) - expected).abs() < 1e-15);
    assert!((m.relocation_overhead_ratio(&model) - 0.015).abs() < 1e-15);
}

#[test]
fn golden_remote_traffic_counts_block_transfers() {
    let m = golden_metrics();
    // Figure 10: read misses + write transactions + write-backs.
    assert_eq!(m.remote_traffic(), 15 + 5 + 6);
    assert_eq!(m.read_miss_ratio(), 15.0 / 1000.0);
    assert_eq!(m.write_miss_ratio(), 5.0 / 1000.0);
}

#[test]
fn report_figures_of_merit_match_metrics_methods() {
    let (_topo, _geo, data_bytes, trace) = lu_trace();
    let spec = vxp_spec();
    let report = run_trace(&spec, "lu", data_bytes, &trace).unwrap();
    let model = LatencyModel::new(Latencies::paper_default(), spec.technology());
    let m = &report.metrics;
    assert_eq!(report.remote_read_stall, m.remote_read_stall(&model));
    assert_eq!(report.remote_traffic, m.remote_traffic());
    assert!((report.relocation_overhead - m.relocation_overhead_ratio(&model)).abs() < 1e-15);
    assert!((report.read_miss_ratio - m.read_miss_ratio()).abs() < 1e-15);
}
