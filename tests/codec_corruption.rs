//! Property tests for the `DSMT` trace codec under corruption: **no**
//! truncation or bit-flip of a valid trace file may panic the decoder,
//! and no *truncation* may silently decode to a trace of the wrong
//! length — the decoder must either return the original reference count
//! or an error. Every mutation goes through both entry points, the
//! reader ([`read_shared`]) and the mapping ([`shared_from_mapping`]),
//! which must agree.
//!
//! Bit-flips are weaker by nature (a flipped address bit still decodes
//! to a well-formed trace), so for them the contract is: never panic,
//! and any successful decode must be consistent with the length the
//! (possibly corrupted) header declares.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use dsm_trace::rng::TraceRng;
use dsm_trace::{read_shared, shared_from_mapping, write_shared, Mapping, SharedTrace};
use dsm_types::{Addr, Geometry, MemOp, MemRef, ProcId, Topology};

fn sample_refs(topo: &Topology) -> Vec<MemRef> {
    let mut rng = TraceRng::for_workload("codec-corruption", 7);
    (0..257)
        .map(|_| {
            let proc = ProcId(rng.below(u64::from(topo.total_procs())) as u16);
            let op = if rng.chance(0.3) {
                MemOp::Write
            } else {
                MemOp::Read
            };
            MemRef::new(proc, op, Addr(rng.below(1 << 20) & !3))
        })
        .collect()
}

fn encoded() -> (Vec<u8>, usize) {
    let topo = Topology::new(4, 2).expect("topology");
    let refs = sample_refs(&topo);
    let trace = SharedTrace::from_refs(topo, Geometry::paper_default(), &refs);
    let mut bytes = Vec::new();
    write_shared(&mut bytes, &trace).expect("encode");
    (bytes, refs.len())
}

/// Decodes `bytes` through both entry points inside `catch_unwind`,
/// panicking the test if either decoder panics or if they disagree.
/// Returns the decoded length (`None` = the decoders returned an error).
fn decode(bytes: &[u8], what: &str) -> Option<usize> {
    let read = catch_unwind(AssertUnwindSafe(|| {
        read_shared(bytes).ok().map(|t| t.len())
    }))
    .unwrap_or_else(|_| panic!("read_shared panicked on {what}"));
    let mapped = catch_unwind(AssertUnwindSafe(|| {
        shared_from_mapping(Arc::new(Mapping::from_vec(bytes.to_vec())))
            .ok()
            .map(|t| t.len())
    }))
    .unwrap_or_else(|_| panic!("shared_from_mapping panicked on {what}"));
    assert_eq!(read, mapped, "the two entry points disagree on {what}");
    read
}

#[test]
fn every_truncation_errors_or_roundtrips_exactly() {
    let (bytes, n_refs) = encoded();
    for cut in 0..bytes.len() {
        let what = format!("a trace truncated to {cut}/{} bytes", bytes.len());
        // A strict prefix of a valid file can never carry the whole
        // trace: accepting it with any length is silent corruption.
        assert_eq!(decode(&bytes[..cut], &what), None, "accepted {what}");
    }
    // Sanity: the untruncated bytes decode to the full trace.
    assert_eq!(decode(&bytes, "the intact file"), Some(n_refs));
}

#[test]
fn appended_garbage_is_rejected() {
    let (mut bytes, _) = encoded();
    bytes.extend_from_slice(b"trailing debris");
    assert_eq!(decode(&bytes, "trailing bytes"), None);
}

#[test]
fn random_bit_flips_never_panic_the_decoder() {
    let mut rng = TraceRng::for_workload("codec-bitflip", 11);
    let (bytes, _) = encoded();
    for _ in 0..400 {
        let mut corrupted = bytes.clone();
        // Flip 1-4 random bits anywhere in the file (header, count,
        // op bitmap, address words).
        let flips = 1 + rng.below(4) as usize;
        for _ in 0..flips {
            let at = rng.below(corrupted.len() as u64) as usize;
            corrupted[at] ^= 1 << rng.below(8);
        }
        // If a decode still succeeds, its length must match what the
        // (possibly corrupted) header declared — i.e. the decoder
        // checked its framing and found the payload consistent, not
        // merely read until the data ran out.
        if let Some(len) = decode(&corrupted, "a bit-flipped file") {
            assert!(
                len <= corrupted.len(),
                "decoded {len} refs from a {}-byte file",
                corrupted.len()
            );
        }
    }
}
