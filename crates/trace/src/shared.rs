//! The columnar (struct-of-arrays) replay buffer: one trace, shared by
//! every system configuration of a sweep, and the only form the
//! simulator replays.
//!
//! The paper's methodology replays the *same* trace against every
//! configuration (§4), which makes the trace read-mostly and shared —
//! exactly the shape where a columnar layout with precomputed columns
//! pays off. [`SharedTrace`] splits the padded array-of-structs
//! `Vec<MemRef>` (16 bytes per reference after alignment) into parallel
//! columns and, at construction, precomputes what the simulator would
//! otherwise derive per reference per replay:
//!
//! * `issuing_cluster` / the packed local processor —
//!   [`Topology::split_of`];
//! * `home_cluster` — the page's home under pure first-touch placement
//!   (the issuing cluster of the trace's first reference to the page),
//!   plus a *first-touch* flag on that reference. This removes the
//!   per-reference page-table lookup from replay while homes are
//!   static; a replay under OS page migration/replication (or on a
//!   machine whose pages are already placed) takes homes from the
//!   simulator's live placement map instead.
//!
//! Block and page numbers are *not* materialized: they are single shifts
//! off the address column (`addr >> shift`), which the decode loop
//! performs on a register-resident window — cheaper than streaming two
//! extra 8-byte columns through the cache.
//!
//! Replay consumes the columns in batches of [`BATCH`] decoded
//! references ([`SharedTrace::decode_batch`]). Each batch decodes
//! *column-at-a-time* over contiguous slices with no per-lane branches
//! (the wide-processor fallback is hoisted out of the lane loop), so
//! the loop is autovectorizer-friendly; 11 bytes per reference stream
//! through the hot loop (addr 8 + packed proc/op 1 + two cluster bytes).
//!
//! The address column itself lives behind `AddrColumn`: either an
//! owned `Vec<u64>` (traces built in memory) or a borrowed window of a
//! trace file's bytes ([`crate::mmap::Mapping`]), as every trace the
//! codec parses has. For a memory-mapped file loading is zero-copy —
//! the file's address column *is* the replay column, multi-gigabyte
//! traces start instantly, and every sweep worker shares the same
//! physical pages read-only.
//!
//! Construction is one pass over the references, shared by the
//! in-memory builder ([`SharedTrace::try_from_refs`]) and the trace-file
//! parser ([`crate::codec::shared_from_mapping`]): processors map to
//! clusters through a table built once, first-touch homes come from a
//! flat page-indexed table (a [`DenseMap`] only for page numbers past
//! its cap), and the pre-sized columns are written in place. The codec's
//! writer encodes the file straight from these columns.
//!
//! [`SharedTrace::get`] turns one reference back into a [`MemRef`] for
//! the one path that needs the array-of-structs form: the invariant
//! checker's report of the reference it stopped after.

use std::sync::Arc;

use dsm_types::{
    Addr, BlockAddr, ClusterId, ConfigError, DecodedRef, DenseMap, Geometry, LocalProcId, MemOp,
    MemRef, PageAddr, ProcId, Topology,
};

use crate::mmap::Mapping;

/// Number of references decoded per [`SharedTrace::decode_batch`] call —
/// a small power of two so the decode loop unrolls and the batch buffer
/// lives on the stack.
pub const BATCH: usize = 16;

/// Bit 6 of the packed `proc_op` column: the reference is a write.
pub(crate) const OP_BIT: u8 = 1 << 6;
/// Bit 7 of the packed `proc_op` column: first reference to its page.
const FIRST_TOUCH_BIT: u8 = 1 << 7;
/// Bits 0..6 of the packed `proc_op` column: the global processor id
/// (machines up to 64 processors; wider machines use the side column).
pub(crate) const PROC_MASK: u8 = OP_BIT - 1;

/// Reads the little-endian `u64` at `off` — the unaligned load the
/// mapped address column needs (a trace file's addr column starts at byte
/// `34 + 2n + ceil(n/8)`, which is not 8-aligned).
#[inline(always)]
fn u64_le_at(bytes: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[off..off + 8]);
    u64::from_le_bytes(b)
}

/// The storage behind [`SharedTrace`]'s address column: owned for traces
/// built in memory, a borrowed window of the file's bytes for traces the
/// codec parsed ([`crate::codec::shared_from_mapping`]).
#[derive(Debug, Clone)]
pub(crate) enum AddrColumn {
    /// Trace built in memory from references.
    Owned(Vec<u64>),
    /// Zero-copy window into a trace file's bytes (mapped or read):
    /// `count` addresses starting at byte `offset` (little-endian,
    /// unaligned).
    Mapped {
        map: Arc<Mapping>,
        offset: usize,
        count: usize,
    },
}

impl AddrColumn {
    #[inline]
    fn len(&self) -> usize {
        match self {
            AddrColumn::Owned(v) => v.len(),
            AddrColumn::Mapped { count, .. } => *count,
        }
    }

    /// The address at `i`. Panics if out of range.
    #[inline(always)]
    fn at(&self, i: usize) -> u64 {
        match self {
            AddrColumn::Owned(v) => v[i],
            AddrColumn::Mapped { map, offset, count } => {
                assert!(i < *count, "address index {i} out of range");
                u64_le_at(map.bytes(), offset + i * 8)
            }
        }
    }

    /// Copies addresses `[start, start + out.len())` into `out` — the
    /// per-batch window load, one contiguous `memcpy`-shaped loop in
    /// either storage mode.
    #[inline(always)]
    fn fill(&self, start: usize, out: &mut [u64]) {
        match self {
            AddrColumn::Owned(v) => out.copy_from_slice(&v[start..start + out.len()]),
            AddrColumn::Mapped { map, offset, count } => {
                assert!(start + out.len() <= *count, "address window out of range");
                let base = offset + start * 8;
                let bytes = &map.bytes()[base..base + out.len() * 8];
                for (slot, ch) in out.iter_mut().zip(bytes.chunks_exact(8)) {
                    let mut b = [0u8; 8];
                    b.copy_from_slice(ch);
                    *slot = u64::from_le_bytes(b);
                }
            }
        }
    }

    /// Heap bytes this column holds — 0 when mapped (the bytes are
    /// file-backed pages shared with every other reader of the file).
    fn heap_bytes(&self) -> usize {
        match self {
            AddrColumn::Owned(v) => v.len() * 8,
            AddrColumn::Mapped { .. } => 0,
        }
    }
}

/// The derived (non-address) columns, shared between the in-memory
/// builder and the mapped-file parser in [`crate::codec`].
pub(crate) struct DerivedColumns {
    pub(crate) proc_op: Vec<u8>,
    pub(crate) wide_proc: Vec<u16>,
    pub(crate) home_cluster: Vec<u8>,
    pub(crate) issuing_cluster: Vec<u8>,
}

/// Why [`derive_columns`] rejected a reference stream. Callers format
/// their own messages (the codec reports record indices, the in-memory
/// builder reports the offending reference).
pub(crate) enum DeriveError {
    /// The topology has more than 256 clusters (columns are one byte).
    TooManyClusters(u16),
    /// Reference `index` names processor `proc` outside the topology.
    BadProc { index: usize, proc: u16 },
}

/// Page numbers below this cap find their first-touch home in a flat
/// table (two bytes per page, 2 MiB at most): the kernels number their
/// pages densely from 0. Pages at or above it — arbitrary 64-bit
/// addresses from trace files — fall back to a [`DenseMap`].
const FLAT_PAGES: u64 = 1 << 20;

/// Each page's first-touch home, assigned in trace order.
#[derive(Default)]
struct FirstTouch {
    /// Home cluster + 1 per page below [`FLAT_PAGES`]; 0 = unassigned.
    flat: Vec<u16>,
    /// Homes of the pages at or above [`FLAT_PAGES`].
    sparse: DenseMap<u8>,
}

impl FirstTouch {
    /// The home of `page`, which becomes `cluster` if this is the page's
    /// first reference — reported by the flag.
    #[inline(always)]
    fn home(&mut self, page: u64, cluster: u8) -> (u8, bool) {
        if page < FLAT_PAGES {
            #[allow(clippy::cast_possible_truncation)] // page < 2^20
            let p = page as usize;
            if p >= self.flat.len() {
                self.flat.resize(p + 1, 0);
            }
            match self.flat[p] {
                0 => {
                    self.flat[p] = u16::from(cluster) + 1;
                    (cluster, true)
                }
                #[allow(clippy::cast_possible_truncation)] // stored from a u8
                h => ((h - 1) as u8, false),
            }
        } else if let Some(&h) = self.sparse.get(page) {
            (h, false)
        } else {
            self.sparse.insert(page, cluster);
            (cluster, true)
        }
    }
}

/// One pass over the references — `refs` yields `(proc, write, addr)` —
/// producing the packed and precomputed columns: processor split,
/// issuing cluster, and the page's first-touch home in trace order
/// (exactly the assignments a first-touch placement map makes during
/// replay). The columns are allocated once and written in place.
pub(crate) fn derive_columns(
    topo: &Topology,
    geo: &Geometry,
    refs: impl ExactSizeIterator<Item = (u16, bool, u64)>,
) -> Result<DerivedColumns, DeriveError> {
    if topo.clusters() > 256 {
        return Err(DeriveError::TooManyClusters(topo.clusters()));
    }
    // Every processor's issuing cluster, split once per call.
    #[allow(clippy::cast_possible_truncation)] // clusters <= 256 checked above
    let cluster_of: Vec<u8> = (0..topo.total_procs())
        .map(|p| topo.split_of(ProcId(p)).0 .0 as u8)
        .collect();
    let wide = cluster_of.len() > 64;
    let page_shift = geo.page_bytes().trailing_zeros();
    let count = refs.len();
    let mut proc_op = vec![0u8; count];
    let mut wide_proc = vec![0u16; if wide { count } else { 0 }];
    let mut home_cluster = vec![0u8; count];
    let mut issuing_cluster = vec![0u8; count];
    let mut first_touch = FirstTouch::default();
    let columns = proc_op
        .iter_mut()
        .zip(&mut home_cluster)
        .zip(&mut issuing_cluster);
    for (i, ((proc, write, addr), ((packed, home), issuing))) in refs.zip(columns).enumerate() {
        let Some(&cl) = cluster_of.get(usize::from(proc)) else {
            return Err(DeriveError::BadProc { index: i, proc });
        };
        let mut byte = if wide {
            wide_proc[i] = proc;
            0
        } else {
            #[allow(clippy::cast_possible_truncation)] // total <= 64 in this arm
            {
                proc as u8
            }
        };
        if write {
            byte |= OP_BIT;
        }
        let (h, first) = first_touch.home(addr >> page_shift, cl);
        if first {
            byte |= FIRST_TOUCH_BIT;
        }
        *packed = byte;
        *home = h;
        *issuing = cl;
    }
    Ok(DerivedColumns {
        proc_op,
        wide_proc,
        home_cluster,
        issuing_cluster,
    })
}

/// A reference trace in columnar (struct-of-arrays) form with
/// precomputed processor/home columns, bound to the [`Topology`] and
/// [`Geometry`] it was decomposed under.
///
/// # Example
///
/// ```
/// use dsm_trace::SharedTrace;
/// use dsm_types::{Addr, Geometry, MemRef, ProcId, Topology};
///
/// let topo = Topology::paper_default();
/// let geo = Geometry::paper_default();
/// let refs = vec![
///     MemRef::read(ProcId(4), Addr(0x1000)),
///     MemRef::write(ProcId(0), Addr(0x1040)),
/// ];
/// let shared = SharedTrace::from_refs(topo, geo, &refs);
/// assert_eq!(shared.len(), 2);
/// // Lossless round-trip back to the AoS form.
/// let back: Vec<MemRef> = (0..shared.len()).map(|i| shared.get(i)).collect();
/// assert_eq!(back, refs);
/// // Page 1 was first touched by P4 (cluster 1): both refs share home 1.
/// let mut batch = [dsm_types::DecodedRef::default(); dsm_trace::BATCH];
/// let n = shared.decode_batch(0, &mut batch);
/// assert_eq!(n, 2);
/// assert!(batch[0].first_touch && !batch[1].first_touch);
/// assert_eq!(batch[0].home, batch[1].home);
/// ```
#[derive(Debug, Clone)]
pub struct SharedTrace {
    topo: Topology,
    geo: Geometry,
    /// Byte address column: owned, or a zero-copy window of a trace
    /// file's bytes. Block and page numbers are shifts off this column.
    addr: AddrColumn,
    /// Packed per-reference byte: bits 0..6 processor id (machines up to
    /// 64 processors), bit 6 write, bit 7 first touch of the page.
    proc_op: Vec<u8>,
    /// Full-width processor ids, populated only when the machine has more
    /// than 64 processors (the packed field cannot hold the id).
    wide_proc: Vec<u16>,
    /// Precomputed first-touch home cluster of each reference's page.
    home_cluster: Vec<u8>,
    /// Precomputed issuing cluster of each reference.
    issuing_cluster: Vec<u8>,
}

impl SharedTrace {
    /// Builds the columnar form of `refs`, splitting every processor
    /// under `topo` once and precomputing each page's first-touch home
    /// under `geo`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the topology has more than 256 clusters
    /// (the cluster columns are one byte wide; the coherence layer's
    /// presence words cap real machines at 64 anyway), or if any
    /// reference names a processor outside `topo`.
    pub fn try_from_refs(
        topo: Topology,
        geo: Geometry,
        refs: &[MemRef],
    ) -> Result<Self, ConfigError> {
        let derived = derive_columns(
            &topo,
            &geo,
            refs.iter().map(|r| (r.proc.0, r.op.is_write(), r.addr.0)),
        )
        .map_err(|e| match e {
            DeriveError::TooManyClusters(c) => ConfigError::new(format!(
                "SharedTrace cluster columns are one byte: {c} clusters exceed 256"
            )),
            DeriveError::BadProc { proc, .. } => ConfigError::new(format!(
                "reference names processor P{proc} outside topology {topo}"
            )),
        })?;
        let addr = refs.iter().map(|r| r.addr.0).collect();
        Ok(Self::from_parts(
            topo,
            geo,
            AddrColumn::Owned(addr),
            derived,
        ))
    }

    /// Assembles a trace from an address column and its derived columns —
    /// the shared tail of the in-memory builder and the mapped parser.
    pub(crate) fn from_parts(
        topo: Topology,
        geo: Geometry,
        addr: AddrColumn,
        derived: DerivedColumns,
    ) -> Self {
        debug_assert_eq!(addr.len(), derived.proc_op.len());
        debug_assert_eq!(addr.len(), derived.home_cluster.len());
        debug_assert_eq!(addr.len(), derived.issuing_cluster.len());
        SharedTrace {
            topo,
            geo,
            addr,
            proc_op: derived.proc_op,
            wide_proc: derived.wide_proc,
            home_cluster: derived.home_cluster,
            issuing_cluster: derived.issuing_cluster,
        }
    }

    /// [`SharedTrace::try_from_refs`], panicking on invalid input — the
    /// form trace-generation pipelines use (their references are by
    /// construction inside the topology).
    ///
    /// # Panics
    ///
    /// Panics where [`SharedTrace::try_from_refs`] errors.
    #[must_use]
    pub fn from_refs(topo: Topology, geo: Geometry, refs: &[MemRef]) -> Self {
        SharedTrace::try_from_refs(topo, geo, refs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The topology the processor columns were split under.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The geometry the decomposition was derived under.
    #[must_use]
    pub fn geometry(&self) -> &Geometry {
        &self.geo
    }

    /// Number of references.
    #[must_use]
    pub fn len(&self) -> usize {
        self.addr.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.addr.len() == 0
    }

    /// Whether the address column borrows from a kernel file mapping —
    /// `true` only for traces opened zero-copy via
    /// [`crate::codec::open_shared_mapped`] on a platform with the raw
    /// `mmap` path.
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        match &self.addr {
            AddrColumn::Owned(_) => false,
            AddrColumn::Mapped { map, .. } => map.is_kernel_mapped(),
        }
    }

    /// Re-checks (via `fstat`) that the file backing a kernel-mapped
    /// address column is still at least as long as the mapped region, so
    /// a concurrent truncation surfaces as a clean error instead of a
    /// `SIGBUS` when replay first touches the vanished pages. Owned
    /// traces trivially pass.
    ///
    /// # Errors
    ///
    /// Returns the underlying `fstat` failure, or an error describing the
    /// shrunken file.
    pub fn revalidate_mapping(&self) -> std::io::Result<()> {
        match &self.addr {
            AddrColumn::Owned(_) => Ok(()),
            AddrColumn::Mapped { map, .. } => map.revalidate(),
        }
    }

    /// The stored columns the codec's writer encodes: the packed
    /// processor/op bytes, the full-width processor ids (empty on
    /// machines of up to 64 processors) and the address column.
    pub(crate) fn columns(&self) -> (&[u8], &[u16], &AddrColumn) {
        (&self.proc_op, &self.wide_proc, &self.addr)
    }

    /// The reference at `i` in its original array-of-structs form.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn get(&self, i: usize) -> MemRef {
        let packed = self.proc_op[i];
        let proc = if self.wide_proc.is_empty() {
            u16::from(packed & PROC_MASK)
        } else {
            self.wide_proc[i]
        };
        let op = if packed & OP_BIT != 0 {
            MemOp::Write
        } else {
            MemOp::Read
        };
        MemRef::new(ProcId(proc), op, Addr(self.addr.at(i)))
    }

    /// Decodes up to `out.len()` references starting at `start` into
    /// `out`, returning how many were decoded (0 at end of trace). The
    /// replay hot loop calls this with a stack buffer of [`BATCH`]
    /// entries; processor splitting and first-touch home resolution
    /// happened at construction, and block/page numbers are shifts off
    /// a register-resident address window.
    #[inline]
    pub fn decode_batch(&self, start: usize, out: &mut [DecodedRef]) -> usize {
        let n = out.len().min(self.len().saturating_sub(start));
        if n == 0 {
            return 0;
        }
        let mut done = 0;
        while done < n {
            let m = (n - done).min(BATCH);
            self.decode_chunk(start + done, &mut out[done..done + m]);
            done += m;
        }
        n
    }

    /// Decodes exactly `out.len()` (≤ [`BATCH`]) references starting at
    /// `start`, column-at-a-time. The address window is staged into a
    /// stack array first, so every column access in the lane loop is a
    /// contiguous in-bounds slice read and the loop body carries no
    /// branches — the wide-processor fallback is hoisted out of it, and
    /// the tail is handled by the window length, not lane sentinels.
    #[inline]
    fn decode_chunk(&self, start: usize, out: &mut [DecodedRef]) {
        let m = out.len();
        debug_assert!(m <= BATCH);
        let end = start + m;
        // Geometry guarantees power-of-two sizes: shifts, not divides.
        let block_shift = self.geo.block_bytes().trailing_zeros();
        let page_shift = self.geo.page_bytes().trailing_zeros();
        let mut addrs = [0u64; BATCH];
        self.addr.fill(start, &mut addrs[..m]);
        let proc_op = &self.proc_op[start..end];
        let home = &self.home_cluster[start..end];
        let issuing = &self.issuing_cluster[start..end];
        let ppc = self.topo.procs_per_cluster();
        if self.wide_proc.is_empty() {
            for k in 0..m {
                let packed = proc_op[k];
                let cl = u16::from(issuing[k]);
                out[k] = DecodedRef {
                    cluster: ClusterId(cl),
                    lproc: LocalProcId(u16::from(packed & PROC_MASK) - cl * ppc),
                    write: packed & OP_BIT != 0,
                    first_touch: packed & FIRST_TOUCH_BIT != 0,
                    block: BlockAddr(addrs[k] >> block_shift),
                    page: PageAddr(addrs[k] >> page_shift),
                    home: ClusterId(u16::from(home[k])),
                };
            }
        } else {
            let wide = &self.wide_proc[start..end];
            for k in 0..m {
                let packed = proc_op[k];
                let cl = u16::from(issuing[k]);
                out[k] = DecodedRef {
                    cluster: ClusterId(cl),
                    lproc: LocalProcId(wide[k] - cl * ppc),
                    write: packed & OP_BIT != 0,
                    first_touch: packed & FIRST_TOUCH_BIT != 0,
                    block: BlockAddr(addrs[k] >> block_shift),
                    page: PageAddr(addrs[k] >> page_shift),
                    home: ClusterId(u16::from(home[k])),
                };
            }
        }
    }

    /// Visits `(issuing cluster, local processor, block)` for up to
    /// `len` references starting at `start`, without materializing
    /// [`DecodedRef`]s. The replay loop uses this to issue machine-line
    /// prefetches for batch N+1 while batch N is in flight: the lane
    /// values stay in registers, so the *processing* batch's decode can
    /// remain fused with the process loop (a second decoded buffer
    /// would force every lane of both batches through the stack).
    #[inline]
    pub fn peek_batch(
        &self,
        start: usize,
        len: usize,
        mut f: impl FnMut(ClusterId, LocalProcId, BlockAddr),
    ) {
        let n = len.min(self.len().saturating_sub(start));
        if n == 0 {
            return;
        }
        let end = start + n;
        let block_shift = self.geo.block_bytes().trailing_zeros();
        let ppc = self.topo.procs_per_cluster();
        let proc_op = &self.proc_op[start..end];
        let issuing = &self.issuing_cluster[start..end];
        if self.wide_proc.is_empty() {
            for k in 0..n {
                let cl = u16::from(issuing[k]);
                let lp = u16::from(proc_op[k] & PROC_MASK) - cl * ppc;
                f(
                    ClusterId(cl),
                    LocalProcId(lp),
                    BlockAddr(self.addr.at(start + k) >> block_shift),
                );
            }
        } else {
            let wide = &self.wide_proc[start..end];
            for k in 0..n {
                let cl = u16::from(issuing[k]);
                f(
                    ClusterId(cl),
                    LocalProcId(wide[k] - cl * ppc),
                    BlockAddr(self.addr.at(start + k) >> block_shift),
                );
            }
        }
    }

    /// Heap bytes held by the columns — the footprint quantity
    /// EXPERIMENTS.md tracks against the 16 padded bytes per reference of
    /// the array-of-structs form. An address column borrowed from a
    /// trace file's bytes contributes nothing: they are the file's, and
    /// when mapped, pages shared with every other reader of the file.
    #[must_use]
    pub fn column_bytes(&self) -> usize {
        self.addr.heap_bytes() + self.proc_op.len() * (1 + 1 + 1) + self.wide_proc.len() * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refs_sample() -> Vec<MemRef> {
        // Mixed procs/pages; P9 (cluster 2) first-touches page 2.
        vec![
            MemRef::read(ProcId(9), Addr(2 * 4096 + 64)),
            MemRef::write(ProcId(0), Addr(0)),
            MemRef::read(ProcId(31), Addr(2 * 4096)),
            MemRef::write(ProcId(9), Addr(4096)),
            MemRef::read(ProcId(0), Addr(65)),
        ]
    }

    fn shared() -> SharedTrace {
        SharedTrace::from_refs(
            Topology::paper_default(),
            Geometry::paper_default(),
            &refs_sample(),
        )
    }

    fn refs_of(s: &SharedTrace) -> Vec<MemRef> {
        (0..s.len()).map(|i| s.get(i)).collect()
    }

    /// The same trace with its address column re-homed behind a mapped
    /// buffer — every decode path must observe identical references.
    fn remap_addr_column(s: &SharedTrace) -> SharedTrace {
        let mut bytes = Vec::new();
        for r in refs_of(s) {
            bytes.extend_from_slice(&r.addr.0.to_le_bytes());
        }
        let mut out = s.clone();
        out.addr = AddrColumn::Mapped {
            map: Arc::new(Mapping::from_vec(bytes)),
            offset: 0,
            count: s.len(),
        };
        out
    }

    #[test]
    fn roundtrips_to_memrefs() {
        let s = shared();
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
        assert_eq!(refs_of(&s), refs_sample());
    }

    #[test]
    fn decomposition_matches_geometry() {
        let s = shared();
        let geo = Geometry::paper_default();
        let mut out = [DecodedRef::default(); BATCH];
        let n = s.decode_batch(0, &mut out);
        assert_eq!(n, 5);
        for (d, r) in out[..n].iter().zip(refs_sample()) {
            let parts = geo.decompose(r.addr);
            assert_eq!(d.block, parts.block);
            assert_eq!(d.page, parts.page);
            let (cl, lp) = Topology::paper_default().split_of(r.proc);
            assert_eq!((d.cluster, d.lproc), (cl, lp));
            assert_eq!(d.write, r.op.is_write());
        }
    }

    #[test]
    fn first_touch_homes_follow_trace_order() {
        let s = shared();
        let mut out = [DecodedRef::default(); BATCH];
        s.decode_batch(0, &mut out);
        // Page 2 first touched by P9 => cluster 2; both page-2 refs share it.
        assert_eq!(out[0].home, ClusterId(2));
        assert!(out[0].first_touch);
        assert_eq!(out[2].home, ClusterId(2));
        assert!(!out[2].first_touch);
        // Page 0 first touched by P0 => cluster 0.
        assert_eq!(out[1].home, ClusterId(0));
        assert!(out[1].first_touch);
        assert!(!out[4].first_touch);
        // Page 1 first touched by P9 => cluster 2: homed at its issuer.
        assert_eq!(out[3].home, ClusterId(2));
        assert_eq!(out[3].home, out[3].cluster);
        assert!(out[3].first_touch);
    }

    #[test]
    fn batched_decode_covers_whole_trace() {
        let topo = Topology::paper_default();
        let geo = Geometry::paper_default();
        let refs: Vec<MemRef> = (0..100u64)
            .map(|i| MemRef::read(ProcId((i % 32) as u16), Addr(i * 128)))
            .collect();
        let s = SharedTrace::from_refs(topo, geo, &refs);
        let mut out = [DecodedRef::default(); BATCH];
        let mut seen = 0usize;
        let mut start = 0usize;
        loop {
            let n = s.decode_batch(start, &mut out);
            if n == 0 {
                break;
            }
            assert!(n <= BATCH);
            seen += n;
            start += n;
        }
        assert_eq!(seen, refs.len());
        assert_eq!(s.decode_batch(refs.len(), &mut out), 0);
    }

    #[test]
    fn oversized_output_windows_decode_whole_ranges() {
        // decode_batch accepts windows larger than BATCH (chunked
        // internally); lanes must match the one-batch-at-a-time decode.
        let refs: Vec<MemRef> = (0..50u64)
            .map(|i| MemRef::read(ProcId((i % 32) as u16), Addr(i * 192)))
            .collect();
        let s = SharedTrace::from_refs(Topology::paper_default(), Geometry::paper_default(), &refs);
        let mut wide = vec![DecodedRef::default(); 50];
        assert_eq!(s.decode_batch(0, &mut wide), 50);
        let mut narrow = [DecodedRef::default(); BATCH];
        let mut start = 0;
        while start < 50 {
            let n = s.decode_batch(start, &mut narrow);
            assert_eq!(&wide[start..start + n], &narrow[..n]);
            start += n;
        }
    }

    #[test]
    fn wide_machines_use_the_side_column() {
        // 32 clusters x 4 procs = 128 > 64: packed bits cannot hold ids.
        let topo = Topology::new(32, 4).unwrap();
        let geo = Geometry::paper_default();
        let refs = vec![
            MemRef::read(ProcId(127), Addr(64)),
            MemRef::write(ProcId(5), Addr(4096)),
        ];
        let s = SharedTrace::from_refs(topo, geo, &refs);
        assert_eq!(refs_of(&s), refs);
        let mut out = [DecodedRef::default(); 2];
        s.decode_batch(0, &mut out);
        assert_eq!(out[0].cluster, ClusterId(31));
        assert_eq!(out[0].lproc, LocalProcId(3));
        assert_eq!(out[1].cluster, ClusterId(1));
        assert_eq!(out[1].lproc, LocalProcId(1));
    }

    #[test]
    fn mapped_and_owned_storage_decode_identically() {
        let refs: Vec<MemRef> = (0..200u64)
            .map(|i| {
                let p = ProcId((i % 32) as u16);
                if i % 3 == 0 {
                    MemRef::write(p, Addr(i * 4096 / 3 + i))
                } else {
                    MemRef::read(p, Addr(i * 64))
                }
            })
            .collect();
        let owned =
            SharedTrace::from_refs(Topology::paper_default(), Geometry::paper_default(), &refs);
        let mapped = remap_addr_column(&owned);
        assert!(matches!(owned.addr, AddrColumn::Owned(_)));
        assert!(matches!(mapped.addr, AddrColumn::Mapped { .. }));
        assert_eq!(refs_of(&mapped), refs);
        let (mut a, mut b) = (
            [DecodedRef::default(); BATCH],
            [DecodedRef::default(); BATCH],
        );
        let mut start = 0;
        loop {
            let n = owned.decode_batch(start, &mut a);
            assert_eq!(mapped.decode_batch(start, &mut b), n);
            if n == 0 {
                break;
            }
            assert_eq!(a[..n], b[..n]);
            start += n;
        }
    }

    #[test]
    fn rejects_out_of_topology_processor() {
        let err = SharedTrace::try_from_refs(
            Topology::paper_default(),
            Geometry::paper_default(),
            &[MemRef::read(ProcId(32), Addr(0))],
        )
        .unwrap_err();
        assert!(err.to_string().contains("outside topology"), "{err}");
    }

    #[test]
    fn rejects_too_many_clusters() {
        let topo = Topology::new(300, 1).unwrap();
        let err = SharedTrace::try_from_refs(topo, Geometry::paper_default(), &[]).unwrap_err();
        assert!(err.to_string().contains("256"), "{err}");
    }

    #[test]
    fn column_bytes_track_the_footprint() {
        // 11 bytes per reference owned (addr 8 + packed 1 + two cluster
        // bytes); block/page are shifts, not columns.
        let s = shared();
        assert_eq!(s.column_bytes(), 5 * 11);
        let wide = SharedTrace::from_refs(
            Topology::new(32, 4).unwrap(),
            Geometry::paper_default(),
            &[MemRef::read(ProcId(0), Addr(0))],
        );
        assert_eq!(wide.column_bytes(), 11 + 2);
        // A mapped address column costs no heap: 3 bytes/ref remain.
        let mapped = remap_addr_column(&s);
        assert_eq!(mapped.column_bytes(), 5 * 3);
    }

    #[test]
    fn empty_trace_is_fine() {
        let s = SharedTrace::from_refs(Topology::paper_default(), Geometry::paper_default(), &[]);
        assert!(s.is_empty());
        let mut out = [DecodedRef::default(); BATCH];
        assert_eq!(s.decode_batch(0, &mut out), 0);
        assert!(refs_of(&s).is_empty());
    }
}
