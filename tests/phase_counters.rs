//! Phase-counter identity tests: replaying randomized traces under the
//! [`PhaseProfiler`] must reconcile *exactly* with the final [`Metrics`]
//! aggregates — the six primary phases partition the shared references,
//! each phase's event count equals the sum of its metric counters, the
//! estimated cycles are the metric counts times the Table 1/2 latencies,
//! and the per-cluster occupancy rows sum to the machine-wide counts.
//!
//! Like `invariant_fuzz.rs`, the streams come from the workspace's own
//! deterministic [`TraceRng`] so any failure reproduces from the printed
//! configuration name and seed, and the matrix spans the design space:
//! `base`, limited-pointer directory, `vb`, `vpp`, `vxp`, and `origin`
//! (the one family that exercises migration/replication relocations).

use dsm_core::{
    Event, Latencies, LatencyModel, Metrics, PcSize, Phase, PhaseCounters, PhaseProfiler, Probe,
    System, SystemSpec, Tee, PHASES,
};
use dsm_trace::rng::TraceRng;
use dsm_trace::SharedTrace;
use dsm_types::{Addr, Geometry, MemRef, ProcId, Topology};

fn topo() -> Topology {
    Topology::new(4, 2).expect("constants are valid")
}

/// A conflict-heavy random trace (same shape as `invariant_fuzz.rs`):
/// half the references in a 2-page hot region to force evictions and
/// victim traffic, the rest over 16 pages to engage page-level machinery.
fn random_trace(seed: u64, refs: usize) -> SharedTrace {
    let topo = topo();
    let geo = Geometry::paper_default();
    let page = geo.page_bytes();
    let mut rng = TraceRng::for_workload("phase-counters", seed);
    let mut out = Vec::with_capacity(refs);
    for _ in 0..refs {
        let proc = ProcId(rng.below(u64::from(topo.total_procs())) as u16);
        let addr = if rng.chance(0.5) {
            Addr(rng.below(2 * page) & !3)
        } else {
            Addr(rng.below(16 * page) & !3)
        };
        let r = if rng.chance(0.35) {
            MemRef::write(proc, addr)
        } else {
            MemRef::read(proc, addr)
        };
        out.push(r);
    }
    SharedTrace::from_refs(topo, geo, &out)
}

fn config_matrix() -> Vec<SystemSpec> {
    vec![
        SystemSpec::base().with_cache(2048, 2),
        SystemSpec::base()
            .with_cache(2048, 2)
            .with_limited_directory(2),
        SystemSpec::vb().with_cache(2048, 2),
        SystemSpec::vpp(PcSize::Bytes(8192)).with_cache(2048, 2),
        SystemSpec::vxp(PcSize::Bytes(8192), 4).with_cache(2048, 2),
        SystemSpec::origin().with_cache(2048, 2),
    ]
}

/// A by-kind event tally for the cross-checks where the metrics counter
/// is *not* 1:1 with events (invalidations count destroyed copies,
/// forced evictions count evicted blocks).
#[derive(Debug, Default, Clone)]
struct KindTally {
    ownership_requests: u64,
    invalidation_events: u64,
    invalidated_copies: u64,
    forced_eviction_events: u64,
    nc_captures: u64,
    absorbed_downgrades: u64,
    remote_writebacks: u64,
    relocation_like: u64,
    zero_cost_page_ops: u64,
}

impl Probe for KindTally {
    fn event(&mut self, _at: u64, event: &Event) {
        match event {
            Event::OwnershipRequest { .. } => self.ownership_requests += 1,
            Event::Invalidation { copies, .. } => {
                self.invalidation_events += 1;
                self.invalidated_copies += u64::from(*copies);
            }
            Event::ForcedEviction { .. } => self.forced_eviction_events += 1,
            Event::NcCapture { .. } => self.nc_captures += 1,
            Event::AbsorbedDowngrade { .. } => self.absorbed_downgrades += 1,
            Event::RemoteWriteback { .. } => self.remote_writebacks += 1,
            Event::Relocation { .. } | Event::Migration { .. } | Event::Replication { .. } => {
                self.relocation_like += 1;
            }
            Event::PageEviction { .. }
            | Event::ThresholdAdapted { .. }
            | Event::ReplicaCollapse { .. } => self.zero_cost_page_ops += 1,
            _ => {}
        }
    }
}

/// Runs `spec` over `trace` under `Tee(PhaseProfiler, KindTally)`,
/// returning the counters, tally and final metrics.
fn profiled_run(spec: &SystemSpec, trace: &SharedTrace) -> (PhaseCounters, KindTally, Metrics) {
    let data_bytes = 16 * Geometry::paper_default().page_bytes();
    let name = spec.name.clone();
    let probe = Tee(PhaseProfiler::for_spec(spec), KindTally::default());
    let mut sys = System::with_probe(
        spec.clone(),
        topo(),
        Geometry::paper_default(),
        data_bytes,
        probe,
    )
    .unwrap_or_else(|e| panic!("{name}: {e}"));
    sys.run_shared(trace);
    sys.finish();
    let (Tee(profiler, tally), metrics) = sys.into_probe();
    (profiler.into_counters(), tally, metrics)
}

#[test]
fn primary_phases_partition_shared_refs() {
    for seed in [1u64, 2, 3] {
        let trace = random_trace(seed, 4000);
        for spec in config_matrix() {
            let name = spec.name.clone();
            let (c, _, m) = profiled_run(&spec, &trace);
            let ctx = format!("config {name}, seed {seed}");
            assert_eq!(m.primary_services(), m.shared_refs, "{ctx}");
            assert_eq!(c.primary_events(), m.shared_refs, "{ctx}");
            assert_eq!(
                c.count(Phase::CacheHit),
                m.read_hits + m.write_hits + m.local_upgrades,
                "{ctx}"
            );
            assert_eq!(c.count(Phase::BusTransfer), m.peer_transfers, "{ctx}");
            assert_eq!(
                c.count(Phase::NcLookup),
                m.nc_read_hits + m.nc_write_hits,
                "{ctx}"
            );
            assert_eq!(
                c.count(Phase::PageCachePath),
                m.pc_read_hits + m.pc_write_hits,
                "{ctx}"
            );
            assert_eq!(c.count(Phase::LocalFill), m.local_misses, "{ctx}");
            assert_eq!(
                c.count(Phase::RemoteFill),
                m.remote_read_necessary
                    + m.remote_read_capacity
                    + m.remote_write_necessary
                    + m.remote_write_capacity,
                "{ctx}"
            );
        }
    }
}

#[test]
fn secondary_phases_reconcile_with_event_tallies() {
    let trace = random_trace(4, 4000);
    for spec in config_matrix() {
        let name = spec.name.clone();
        let (c, t, m) = profiled_run(&spec, &trace);
        let ctx = format!("config {name}");
        // Directory-only transactions: ownership requests are 1:1 with
        // the metrics counter; invalidation events bundle their victim
        // copies. The event's `copies` field carries only processor-cache
        // copies, while `metrics.invalidations` additionally counts NC
        // and PC copy invalidations (+1 each), so the event tally is a
        // lower bound that coincides exactly on NC/PC-less configs.
        assert_eq!(t.ownership_requests, m.remote_ownership_requests, "{ctx}");
        assert!(t.invalidated_copies <= m.invalidations, "{ctx}");
        if matches!(spec.nc, dsm_core::NcSpec::None) && spec.pc.is_none() {
            assert_eq!(t.invalidated_copies, m.invalidations, "{ctx}");
        }
        assert_eq!(
            c.count(Phase::DirectoryProbe),
            t.ownership_requests + t.invalidation_events,
            "{ctx}"
        );
        // Victim traffic: captures, downgrades and write-backs are 1:1;
        // forced-eviction events count evictions (the metrics counter
        // counts evicted blocks, which can exceed it).
        assert_eq!(t.nc_captures, m.nc_captures, "{ctx}");
        assert_eq!(t.absorbed_downgrades, m.absorbed_downgrades, "{ctx}");
        assert_eq!(t.remote_writebacks, m.remote_writebacks, "{ctx}");
        assert_eq!(
            c.count(Phase::VictimPath),
            t.nc_captures + t.absorbed_downgrades + t.remote_writebacks + t.forced_eviction_events,
            "{ctx}"
        );
        assert!(t.forced_eviction_events <= m.forced_evictions, "{ctx}");
        // OS page operations: relocation-cost events are 1:1 with the
        // os_page_ops composition.
        assert_eq!(t.relocation_like, m.os_page_ops(), "{ctx}");
        assert_eq!(
            c.count(Phase::Relocation),
            t.relocation_like + t.zero_cost_page_ops,
            "{ctx}"
        );
    }
}

#[test]
fn estimated_cycles_are_counts_times_table_latencies() {
    let trace = random_trace(5, 4000);
    for spec in config_matrix() {
        let name = spec.name.clone();
        let (c, t, m) = profiled_run(&spec, &trace);
        let model = LatencyModel::new(Latencies::paper_default(), spec.technology());
        let l = *model.latencies();
        let ctx = format!("config {name}");
        assert_eq!(c.cycles(Phase::CacheHit), 0, "{ctx}");
        assert_eq!(
            c.cycles(Phase::BusTransfer),
            m.peer_transfers * l.cache_to_cache,
            "{ctx}"
        );
        if c.count(Phase::NcLookup) > 0 {
            // nc_hit() panics without an NC, but then the count is 0.
            assert_eq!(
                c.cycles(Phase::NcLookup),
                (m.nc_read_hits + m.nc_write_hits) * model.nc_hit(),
                "{ctx}"
            );
        }
        assert_eq!(
            c.cycles(Phase::PageCachePath),
            (m.pc_read_hits + m.pc_write_hits) * model.pc_hit(),
            "{ctx}"
        );
        assert_eq!(
            c.cycles(Phase::LocalFill),
            m.local_misses * l.dram_access,
            "{ctx}"
        );
        assert_eq!(
            c.cycles(Phase::RemoteFill),
            c.count(Phase::RemoteFill) * model.remote_miss(),
            "{ctx}"
        );
        // The profiler charges cache-to-cache per copy named in the
        // event, which excludes NC/PC copy invalidations (those show up
        // in `metrics.invalidations` but not in the event's `copies`).
        assert_eq!(
            c.cycles(Phase::DirectoryProbe),
            t.ownership_requests * l.remote_access + t.invalidated_copies * l.cache_to_cache,
            "{ctx}"
        );
        assert_eq!(
            c.cycles(Phase::VictimPath),
            m.remote_writebacks * l.remote_access
                + (t.nc_captures + t.absorbed_downgrades) * l.cache_to_cache
                + t.forced_eviction_events * l.tag_check,
            "{ctx}"
        );
        // The Eq. 1 relocation term, exactly: os_page_ops x 225.
        assert_eq!(
            c.cycles(Phase::Relocation),
            m.os_page_ops() * model.relocation(),
            "{ctx}"
        );
    }
}

#[test]
fn per_cluster_rows_sum_to_machine_wide_counts() {
    let trace = random_trace(6, 4000);
    for spec in config_matrix() {
        let name = spec.name.clone();
        let (c, _, m) = profiled_run(&spec, &trace);
        let ctx = format!("config {name}");
        assert!(
            c.per_cluster().len() <= usize::from(topo().clusters()),
            "{ctx}: more occupancy rows than clusters"
        );
        for (p_idx, &p) in PHASES.iter().enumerate() {
            let by_cluster: u64 = c.per_cluster().iter().map(|row| row[p_idx]).sum();
            assert_eq!(by_cluster, c.count(p), "{ctx}: phase {}", p.label());
        }
        let all_clusters: u64 = (0..c.per_cluster().len())
            .map(|i| c.cluster_events(i))
            .sum();
        assert_eq!(all_clusters, c.total_events(), "{ctx}");
        // Every shared reference shows up in some cluster's primary row.
        let primary_by_cluster: u64 = c
            .per_cluster()
            .iter()
            .flat_map(|row| {
                PHASES
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.is_primary())
                    .map(|(i, _)| row[i])
            })
            .sum();
        assert_eq!(primary_by_cluster, m.shared_refs, "{ctx}");
    }
}

#[test]
fn profiler_does_not_perturb_the_simulation() {
    let trace = random_trace(7, 4000);
    let data_bytes = 16 * Geometry::paper_default().page_bytes();
    for spec in config_matrix() {
        let name = spec.name.clone();
        let mut plain = System::new(spec.clone(), topo(), Geometry::paper_default(), data_bytes)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        plain.run_shared(&trace);
        let (_, _, profiled_metrics) = profiled_run(&spec, &trace);
        assert_eq!(
            plain.metrics(),
            &profiled_metrics,
            "config {name}: the phase profiler perturbed the simulation"
        );
    }
}

#[test]
fn merged_halves_equal_the_whole_run_counters() {
    // Two profilers over one continuous system (swap at the midpoint)
    // merge to exactly the whole-run counters — the property the sweep
    // rollups rely on. Histograms differ
    // only in the gap buckets at the seam, so compare counts and cycles.
    let trace = random_trace(8, 4000);
    let spec = SystemSpec::vb().with_cache(2048, 2);
    let (whole, _, _) = profiled_run(&spec, &trace);
    let mut merged = PhaseCounters::new();
    // NcTechnology is Sram for vb; build the same model the spec implies.
    let model = || LatencyModel::new(Latencies::paper_default(), spec.technology());
    let data_bytes = 16 * Geometry::paper_default().page_bytes();
    let mut sys = System::with_probe(
        spec.clone(),
        topo(),
        Geometry::paper_default(),
        data_bytes,
        PhaseProfiler::new(model()),
    )
    .expect("valid spec");
    let half = trace.len() / 2;
    for i in 0..half {
        sys.process(trace.get(i));
    }
    let first = std::mem::replace(sys.probe_mut(), PhaseProfiler::new(model())).into_counters();
    for i in half..trace.len() {
        sys.process(trace.get(i));
    }
    sys.finish();
    let (second, _) = sys.into_probe();
    merged.merge(&first);
    merged.merge(&second.into_counters());
    for &p in &PHASES {
        assert_eq!(merged.count(p), whole.count(p), "phase {}", p.label());
        assert_eq!(merged.cycles(p), whole.cycles(p), "phase {}", p.label());
    }
    assert_eq!(merged.per_cluster(), whole.per_cluster());
}
