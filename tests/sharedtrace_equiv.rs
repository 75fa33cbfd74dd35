//! Equivalence gates for the two home sources of the one replay body.
//!
//! Every reference runs the same per-reference body; its home comes
//! either from the trace's precomputed first-touch column (a batched
//! `System::run_shared` on a machine with static homes) or from the live
//! placement map (`System::process`, which decodes one `MemRef` and
//! looks its page up, as every replay under OS migration/replication
//! does). The two must be observationally identical: same aggregate
//! metrics, same events of every kind in every cluster, on every
//! directory and cache configuration. These tests replay randomized and generated traces
//! through both sources and also pin the columnar codec as a lossless
//! round trip, so a future change to the decomposition columns or the
//! batch decoder fails loudly rather than silently shifting figures.

use dsm_core::obs::StatsSink;
use dsm_core::{System, SystemSpec};
use dsm_trace::{read_shared, write_shared, Scale, SharedTrace, WorkloadKind, BATCH};
use dsm_types::{Addr, DecodedRef, Geometry, MemOp, MemRef, ProcId, Topology};

/// Deterministic xorshift64* generator — no external crates, fixed seeds.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// A random trace with enough block/page reuse to exercise every
/// coherence transition: small address space, mixed read/write.
fn random_refs(seed: u64, len: usize, topo: &Topology) -> Vec<MemRef> {
    let mut rng = Rng(seed);
    let procs = u64::from(topo.total_procs());
    (0..len)
        .map(|_| {
            let r = rng.next();
            let proc = ProcId((r % procs) as u16);
            let op = if (r >> 16) % 10 < 3 {
                MemOp::Write
            } else {
                MemOp::Read
            };
            // ~64 pages of 4 KiB, biased toward low addresses for reuse.
            let addr = Addr((r >> 24) % (1 << 18));
            MemRef::new(proc, op, addr)
        })
        .collect()
}

/// Replays `refs` one `System::process` call at a time: homes from the
/// live placement map.
fn metrics_per_ref(spec: &SystemSpec, refs: &[MemRef], data_bytes: u64) -> System<StatsSink> {
    let topo = Topology::paper_default();
    let geo = Geometry::paper_default();
    let mut sys =
        System::with_probe(spec.clone(), topo, geo, data_bytes, StatsSink::new()).unwrap();
    for &r in refs {
        sys.process(r);
    }
    sys
}

/// Replays the same trace through the batched loop: on a fresh machine
/// without OS page policies, homes from the trace's first-touch column.
fn metrics_shared(spec: &SystemSpec, trace: &SharedTrace, data_bytes: u64) -> System<StatsSink> {
    let mut sys = System::with_probe(
        spec.clone(),
        *trace.topology(),
        *trace.geometry(),
        data_bytes,
        StatsSink::new(),
    )
    .unwrap();
    sys.run_shared(trace);
    sys
}

fn assert_paths_agree(spec: &SystemSpec, refs: &[MemRef], data_bytes: u64) {
    let topo = Topology::paper_default();
    let geo = Geometry::paper_default();
    let trace = SharedTrace::from_refs(topo, geo, refs);
    let a = metrics_per_ref(spec, refs, data_bytes);
    let b = metrics_shared(spec, &trace, data_bytes);
    assert_eq!(
        a.metrics(),
        b.metrics(),
        "aggregate metrics diverge on {}",
        spec.name
    );
    assert_eq!(
        a.probe().counts(),
        b.probe().counts(),
        "events by cluster and kind diverge on {}",
        spec.name
    );
}

#[test]
fn shared_trace_round_trips_random_refs() {
    let topo = Topology::paper_default();
    let geo = Geometry::paper_default();
    for seed in [3, 0xFEED_BEEF, 0xABCD_EF01_2345_6789] {
        let refs = random_refs(seed, 5000, &topo);
        let trace = SharedTrace::from_refs(topo, geo, &refs);
        assert_eq!(trace.len(), refs.len());
        for (i, &r) in refs.iter().enumerate() {
            assert_eq!(trace.get(i), r, "get({i}) mismatch, seed {seed}");
        }
    }
}

#[test]
fn codec_v2_round_trips_shared_traces() {
    let topo = Topology::paper_default();
    let geo = Geometry::paper_default();
    let refs = random_refs(11, 4000, &topo);
    let trace = SharedTrace::from_refs(topo, geo, &refs);

    let mut buf = Vec::new();
    write_shared(&mut buf, &trace).unwrap();

    // Columnar read-back reproduces topology, geometry and every column.
    let back = read_shared(buf.as_slice()).unwrap();
    assert_eq!(back.topology(), &topo);
    assert_eq!(back.geometry(), &geo);
    assert_eq!(back.len(), trace.len());
    let (mut a, mut b) = (
        [DecodedRef::default(); BATCH],
        [DecodedRef::default(); BATCH],
    );
    let mut start = 0;
    loop {
        let n = trace.decode_batch(start, &mut a);
        assert_eq!(back.decode_batch(start, &mut b), n);
        if n == 0 {
            break;
        }
        assert_eq!(a[..n], b[..n], "columns diverge after codec at {start}");
        start += n;
    }
    let decoded: Vec<MemRef> = (0..back.len()).map(|i| back.get(i)).collect();
    assert_eq!(decoded, refs);
}

#[test]
fn batched_replay_matches_per_ref_on_full_map() {
    let topo = Topology::paper_default();
    for seed in [1, 42, 0xD15C_0B0B] {
        let refs = random_refs(seed, 20_000, &topo);
        assert_paths_agree(&SystemSpec::base(), &refs, 1 << 20);
    }
}

#[test]
fn batched_replay_matches_per_ref_on_victim_nc() {
    let topo = Topology::paper_default();
    for seed in [2, 0xBAD_CAFE] {
        let refs = random_refs(seed, 20_000, &topo);
        assert_paths_agree(&SystemSpec::vb(), &refs, 1 << 20);
        assert_paths_agree(&SystemSpec::vp(), &refs, 1 << 20);
    }
}

#[test]
fn batched_replay_matches_per_ref_on_limited_directory() {
    let topo = Topology::paper_default();
    let refs = random_refs(7, 20_000, &topo);
    assert_paths_agree(
        &SystemSpec::base().with_limited_directory(4),
        &refs,
        1 << 20,
    );
    assert_paths_agree(&SystemSpec::vb().with_limited_directory(2), &refs, 1 << 20);
}

#[test]
fn page_cache_systems_agree_across_paths() {
    use dsm_core::PcSize;
    let topo = Topology::paper_default();
    let refs = random_refs(13, 20_000, &topo);
    assert_paths_agree(&SystemSpec::vpp(PcSize::DataFraction(5)), &refs, 1 << 20);
    assert_paths_agree(
        &SystemSpec::vxp(PcSize::DataFraction(5), 32),
        &refs,
        1 << 20,
    );
}

#[test]
fn migratory_systems_fall_back_and_agree() {
    // `origin` carries a migration/replication policy, so `run_shared`
    // must ignore the precomputed column and read homes from the live
    // placement map, as `process` does; both still have to agree exactly.
    let topo = Topology::paper_default();
    let refs = random_refs(17, 20_000, &topo);
    assert_paths_agree(&SystemSpec::origin(), &refs, 1 << 20);
}

#[test]
fn workload_traces_agree_across_paths() {
    // Real generated traces (not uniform-random) stress first-touch
    // decomposition with realistic sharing patterns.
    for kind in [WorkloadKind::Fft, WorkloadKind::Barnes] {
        let w = kind.dev_instance();
        let topo = Topology::paper_default();
        let refs = w.generate(&topo, Scale::new(0.25).unwrap());
        assert_paths_agree(&SystemSpec::vb(), &refs, w.shared_bytes());
    }
}

/// The Fx hash of a trace's `write_shared` bytes.
fn file_hash(bytes: &[u8]) -> u64 {
    use std::hash::Hasher;
    let mut h = dsm_types::FxHasher::default();
    h.write(bytes);
    h.finish()
}

fn encode(w: &dyn dsm_trace::Workload, scale: Scale) -> Vec<u8> {
    let topo = Topology::paper_default();
    let refs = w.generate(&topo, scale);
    let trace = SharedTrace::from_refs(topo, Geometry::paper_default(), &refs);
    let mut bytes = Vec::new();
    write_shared(&mut bytes, &trace).unwrap();
    bytes
}

#[test]
fn trace_files_stay_byte_identical() {
    // Generation, the interleave, the derived columns and the encoder
    // all feed these bytes; the pins are the files this trace layer has
    // always written (length, Fx hash), so a faster stage that changes
    // one reference, or its order, fails here.
    let dev = [
        (WorkloadKind::Barnes, 1_657_618, 0xb494_0750_6b54_da87),
        (WorkloadKind::Cholesky, 2_530_717, 0xa63d_924f_913f_8eb5),
        (WorkloadKind::Fft, 298_114, 0x2fcf_7159_dd27_9842),
        (WorkloadKind::Fmm, 1_112_002, 0x2a17_a879_5a01_7046),
        (WorkloadKind::Lu, 1_975_219, 0x870d_3af4_c2a4_1980),
        (WorkloadKind::Ocean, 2_145_724, 0x1489_62b7_16e3_390c),
        (WorkloadKind::Radix, 2_778_658, 0x9695_c51d_61b5_2481),
        (WorkloadKind::Raytrace, 33_011_422, 0x550b_44a2_3716_a848),
    ];
    for (kind, len, hash) in dev {
        let bytes = encode(kind.dev_instance().as_ref(), Scale::full());
        assert_eq!(
            (bytes.len(), file_hash(&bytes)),
            (len, hash),
            "dev {kind} at scale 1.0"
        );
    }
    let fft = encode(
        WorkloadKind::Fft.paper_instance().as_ref(),
        Scale::new(0.05).unwrap(),
    );
    assert_eq!(
        (fft.len(), file_hash(&fft)),
        (8_460_322, 0xcf8c_2532_a336_2555),
        "paper FFT at scale 0.05"
    );
}
