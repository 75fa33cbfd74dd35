//! Randomized coherence fuzzing: replay pseudo-random reference streams
//! under every protocol configuration with the invariant checker at its
//! tightest cadence (`K = 1`, an audit after every reference), plus
//! directed tests proving the checker catches deliberately injected
//! directory corruption and that a checked run is observationally
//! identical to an unchecked one.
//!
//! Like `properties.rs`, the streams are driven by the workspace's own
//! deterministic [`TraceRng`], so every failure is reproducible from the
//! printed configuration name and seed.

use dsm_core::{PcSize, System, SystemSpec};
use dsm_trace::rng::TraceRng;
use dsm_trace::SharedTrace;
use dsm_types::{Addr, ClusterId, ErrorKind, Geometry, MemRef, ProcId, Topology};

/// Small machine: enough clusters for real inter-cluster traffic,
/// small enough that a per-reference audit stays fast.
fn topo() -> Topology {
    Topology::new(4, 2).expect("constants are valid")
}

/// A conflict-heavy random trace: half the references land in a 2-page
/// hot region (forcing evictions, victim captures, and ownership
/// migration), the rest spread over 16 pages so page-level machinery
/// (page caches, relocation, migration) also engages.
fn random_trace(seed: u64, refs: usize) -> SharedTrace {
    let topo = topo();
    let geo = Geometry::paper_default();
    let page = geo.page_bytes();
    let mut rng = TraceRng::for_workload("invariant-fuzz", seed);
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

/// The full protocol matrix of the paper's design space, with caches
/// shrunk so the random streams overflow them constantly.
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

#[test]
fn fuzz_matrix_holds_invariants_at_k1() {
    let data_bytes = 16 * Geometry::paper_default().page_bytes();
    for seed in [1u64, 2, 3] {
        let trace = random_trace(seed, 4000);
        for spec in config_matrix() {
            let name = spec.name.clone();
            let mut sys = System::new(spec, topo(), Geometry::paper_default(), data_bytes)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            sys.set_check_level(1);
            sys.run_shared_checked(&trace)
                .unwrap_or_else(|e| panic!("config {name}, seed {seed}: {e}"));
        }
    }
}

#[test]
fn checked_run_is_observationally_identical() {
    let data_bytes = 16 * Geometry::paper_default().page_bytes();
    let trace = random_trace(7, 4000);
    for spec in config_matrix() {
        let name = spec.name.clone();
        let mut plain = System::new(spec.clone(), topo(), Geometry::paper_default(), data_bytes)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut checked = System::new(spec, topo(), Geometry::paper_default(), data_bytes)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        plain.run_shared(&trace);
        checked.set_check_level(1);
        checked
            .run_shared_checked(&trace)
            .unwrap_or_else(|e| panic!("config {name}: {e}"));
        assert_eq!(
            plain.metrics(),
            checked.metrics(),
            "config {name}: the checker perturbed the simulation"
        );
    }
}

#[test]
fn injected_directory_corruption_is_caught() {
    let geo = Geometry::paper_default();
    let mut sys = System::new(SystemSpec::base(), topo(), geo, 0).expect("valid spec");
    // Processor 2 lives in cluster 1 (2 procs per cluster): its read
    // registers cluster 1 in the block's directory sharer set.
    let addr = Addr(0x40);
    sys.process(MemRef::read(ProcId(2), addr));
    sys.check_invariants().expect("clean state must pass");

    let block = geo.decompose(addr).block;
    sys.corrupt_directory_drop_presence(block, ClusterId(1));
    let err = sys
        .check_invariants()
        .expect_err("a cached copy without a presence bit must be caught");
    assert_eq!(err.kind(), ErrorKind::InvariantViolation);
    let text = err.to_string();
    assert!(
        text.contains("sharer set") && text.contains("C1"),
        "violation should name the invariant and cluster: {text}"
    );
}

#[test]
fn checked_run_attaches_reference_context() {
    let geo = Geometry::paper_default();
    let mut sys = System::new(SystemSpec::base(), topo(), geo, 0).expect("valid spec");
    sys.process(MemRef::read(ProcId(2), Addr(0x40)));
    sys.corrupt_directory_drop_presence(geo.decompose(Addr(0x40)).block, ClusterId(1));

    // Replaying an unrelated reference leaves the corruption in place;
    // the post-reference audit must fail and say which reference the
    // machine was on when the corruption surfaced.
    sys.set_check_level(1);
    let trace = SharedTrace::from_refs(topo(), geo, &[MemRef::read(ProcId(0), Addr(0x9000))]);
    let err = sys
        .run_shared_checked(&trace)
        .expect_err("corrupted state must fail the in-trace audit");
    assert_eq!(err.kind(), ErrorKind::InvariantViolation);
    let text = err.to_string();
    assert!(
        text.contains("after ref 0") && text.contains("read") && text.contains("0x9000"),
        "violation should carry the reference context: {text}"
    );
}

#[test]
fn checked_run_rejects_mismatched_trace() {
    let geo = Geometry::paper_default();
    let trace = random_trace(1, 10);
    let other = Topology::new(2, 2).expect("valid");
    let mut sys = System::new(SystemSpec::base(), other, geo, 0).expect("valid spec");
    let err = sys
        .run_shared_checked(&trace)
        .expect_err("topology mismatch must be rejected");
    assert_eq!(err.kind(), ErrorKind::BadInput);
}
