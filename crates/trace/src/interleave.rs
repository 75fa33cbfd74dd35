//! Interleaving per-processor reference streams into one global trace.
//!
//! A kernel buffers each processor's references of one phase (the code
//! between two barriers) in its own stream, then appends the phase to the
//! trace round-robin: one reference from each live stream in processor
//! order, repeatedly — the lock-step progress a trace-driven simulator
//! assumes between synchronization points.
//!
//! This is the first of the trace layer's per-reference stages (generate,
//! build the replay columns, encode, map), so it is kept cheap: the
//! stream buffers live across phases, the trace grows geometrically, and
//! the merge copies whole passes with one cursor for every live stream.

use dsm_types::{Addr, MemOp, MemRef, ProcId, Topology};

/// Collects one *phase* of a parallel program: every processor's references
/// between two barriers. [`PhaseBuilder::interleave_into`] merges them
/// round-robin and appends to the global trace, modelling the barrier (no
/// reference of phase *k+1* precedes any of phase *k*).
///
/// # Example
///
/// ```
/// use dsm_trace::PhaseBuilder;
/// use dsm_types::{Addr, MemOp, ProcId, Topology};
///
/// let topo = Topology::new(2, 1)?;
/// let mut trace = Vec::new();
/// let mut phase = PhaseBuilder::new(&topo);
/// phase.read(ProcId(0), Addr(0));
/// phase.read(ProcId(1), Addr(64));
/// phase.write(ProcId(0), Addr(0));
/// phase.interleave_into(&mut trace);
/// assert_eq!(trace.len(), 3);
/// assert_eq!(trace[0].proc, ProcId(0));
/// assert_eq!(trace[1].proc, ProcId(1));
/// # Ok::<(), dsm_types::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct PhaseBuilder {
    streams: Vec<Vec<MemRef>>,
}

impl PhaseBuilder {
    /// Creates an empty phase for the machine's processors.
    #[must_use]
    pub fn new(topo: &Topology) -> Self {
        PhaseBuilder {
            streams: vec![Vec::new(); usize::from(topo.total_procs())],
        }
    }

    /// Appends a reference by `proc`.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range for the topology.
    pub fn push(&mut self, proc: ProcId, op: MemOp, addr: Addr) {
        self.streams[proc.index()].push(MemRef::new(proc, op, addr));
    }

    /// Appends a read by `proc`.
    pub fn read(&mut self, proc: ProcId, addr: Addr) {
        self.push(proc, MemOp::Read, addr);
    }

    /// Appends a write by `proc`.
    pub fn write(&mut self, proc: ProcId, addr: Addr) {
        self.push(proc, MemOp::Write, addr);
    }

    /// Emits element-granularity reads of `count` elements of `elem_bytes`
    /// starting at `base` (a sequential sweep, the common regular pattern).
    pub fn read_run(&mut self, proc: ProcId, base: Addr, count: u64, elem_bytes: u64) {
        for i in 0..count {
            self.read(proc, base.offset(i * elem_bytes));
        }
    }

    /// Emits element-granularity writes, as [`PhaseBuilder::read_run`].
    pub fn write_run(&mut self, proc: ProcId, base: Addr, count: u64, elem_bytes: u64) {
        for i in 0..count {
            self.write(proc, base.offset(i * elem_bytes));
        }
    }

    /// Number of references buffered in this phase.
    #[must_use]
    pub fn len(&self) -> usize {
        self.streams.iter().map(Vec::len).sum()
    }

    /// Whether the phase is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.streams.iter().all(Vec::is_empty)
    }

    /// Interleaves the phase round-robin — one reference from each
    /// non-exhausted stream in processor order, repeatedly — and appends
    /// it to `trace`, emptying the builder for the next phase (the stream
    /// buffers keep their capacity).
    pub fn interleave_into(&mut self, trace: &mut Vec<MemRef>) {
        // Geometric growth: a kernel appends tens of phases, and growing
        // to the exact size would reallocate the whole trace at each.
        trace.reserve(self.len());
        let mut live: Vec<&[MemRef]> = self
            .streams
            .iter()
            .filter(|s| !s.is_empty())
            .map(Vec::as_slice)
            .collect();
        // Every live stream advances one reference per pass, so all the
        // passes up to the shortest live stream's end share one cursor;
        // then the streams it exhausted drop out, in processor order.
        let mut cursor = 0;
        while let Some(end) = live.iter().map(|s| s.len()).min() {
            for k in cursor..end {
                trace.extend(live.iter().map(|s| s[k]));
            }
            cursor = end;
            live.retain(|s| s.len() > cursor);
        }
        for s in &mut self.streams {
            s.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(p: u16, a: u64) -> MemRef {
        MemRef::read(ProcId(p), Addr(a))
    }

    /// Pushes `streams[i]` (addresses) as processor `i`'s references of
    /// one phase on a machine with one processor per stream, and
    /// interleaves the phase onto `out`.
    fn interleave(streams: &[Vec<u64>], out: &mut Vec<MemRef>) {
        let procs = u16::try_from(streams.len()).unwrap();
        let mut phase = PhaseBuilder::new(&Topology::new(procs, 1).unwrap());
        for (p, stream) in (0..procs).zip(streams) {
            for &a in stream {
                phase.read(ProcId(p), Addr(a));
            }
        }
        phase.interleave_into(out);
        assert!(phase.is_empty());
    }

    fn addrs_of(streams: &[Vec<u64>]) -> Vec<u64> {
        let mut out = Vec::new();
        interleave(streams, &mut out);
        out.iter().map(|m| m.addr.0).collect()
    }

    #[test]
    fn round_robin_alternates() {
        assert_eq!(addrs_of(&[vec![0, 1], vec![10, 11]]), vec![0, 10, 1, 11]);
    }

    #[test]
    fn round_robin_handles_uneven_streams() {
        assert_eq!(addrs_of(&[vec![0], vec![10, 11, 12]]), vec![0, 10, 11, 12]);
    }

    #[test]
    fn round_robin_skewed_streams_preserve_order() {
        // Many short streams around one long one: exhausted streams must
        // drop out without disturbing the processor-order interleave.
        let streams = vec![vec![0], (100..200).collect(), vec![], vec![300, 301]];
        let addrs = addrs_of(&streams);
        assert_eq!(addrs.len(), 103);
        assert_eq!(&addrs[..5], &[0, 100, 300, 101, 301]);
        assert_eq!(addrs[5..], (102..200).collect::<Vec<u64>>());
    }

    #[test]
    fn round_robin_into_appends() {
        let mut out = vec![r(9, 999)];
        interleave(&[vec![0], vec![10]], &mut out);
        let addrs: Vec<u64> = out.iter().map(|m| m.addr.0).collect();
        assert_eq!(addrs, vec![999, 0, 10]);
        assert_eq!(out[2].proc, ProcId(1));
    }

    #[test]
    fn round_robin_empty() {
        assert!(addrs_of(&[vec![]]).is_empty());
        assert!(addrs_of(&[vec![], vec![]]).is_empty());
        let mut out = vec![r(0, 7)];
        interleave(&[vec![], vec![], vec![]], &mut out);
        assert_eq!(out, vec![r(0, 7)]);
    }

    #[test]
    fn reused_builder_matches_a_naive_interleave() {
        // Phases of random stream lengths through one builder (buffers
        // kept across phases) against a per-reference round robin.
        let topo = Topology::new(8, 2).unwrap();
        let mut phase = PhaseBuilder::new(&topo);
        let mut trace = Vec::new();
        let mut want = Vec::new();
        let mut x = 0x2545_F491_4F6C_DD1D_u64;
        for _ in 0..20 {
            let streams: Vec<Vec<MemRef>> = (0..16u16)
                .map(|p| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (0..x % 40).map(|i| r(p, x ^ i)).collect()
                })
                .collect();
            for s in &streams {
                for m in s {
                    phase.push(m.proc, m.op, m.addr);
                }
            }
            phase.interleave_into(&mut trace);
            let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
            for k in 0..longest {
                want.extend(streams.iter().filter_map(|s| s.get(k)));
            }
        }
        assert_eq!(trace, want);
    }

    #[test]
    fn phase_builder_barriers() {
        let topo = Topology::new(2, 1).unwrap();
        let mut trace = Vec::new();
        let mut phase = PhaseBuilder::new(&topo);
        phase.read(ProcId(1), Addr(100));
        phase.interleave_into(&mut trace);
        // Second phase: all refs come after the first phase's.
        phase.read(ProcId(0), Addr(200));
        phase.interleave_into(&mut trace);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].addr, Addr(100));
        assert_eq!(trace[1].addr, Addr(200));
        assert!(phase.is_empty());
    }

    #[test]
    fn runs_emit_element_granularity() {
        let topo = Topology::new(1, 1).unwrap();
        let mut phase = PhaseBuilder::new(&topo);
        phase.read_run(ProcId(0), Addr(0), 4, 8);
        phase.write_run(ProcId(0), Addr(64), 2, 16);
        assert_eq!(phase.len(), 6);
        let mut trace = Vec::new();
        phase.interleave_into(&mut trace);
        assert_eq!(trace[3].addr, Addr(24));
        assert!(trace[4].op.is_write());
        assert_eq!(trace[5].addr, Addr(80));
    }
}
