//! A limited-pointer directory (Dir-i-B) — the non-full-map organization
//! the paper invokes when arguing that `vxp` scales where R-NUMA's
//! counters do not.
//!
//! Each entry tracks at most `i` sharer pointers; on overflow the entry
//! degrades to a *broadcast* state where sharer identity is lost:
//! invalidations go to every cluster, and — crucially for R-NUMA — the
//! "was this cluster already a sharer?" question can no longer be
//! answered, so capacity misses cannot be distinguished from necessary
//! ones. The paper: R-NUMA "only works with full-map, centralized
//! directories ... Another appeal of our relocation mechanism is that it
//! does not require a full-map directory implementation. As such, even
//! systems based on limited pointer or linked lists protocols (like
//! NUMA-Q) could make efficient use of the page caches."
//!
//! # Entry representation
//!
//! Entries are stored the way Dir-i-B hardware stores them: `i` 6-bit
//! pointer fields plus a broadcast bit, packed in one `u64` — not a
//! full presence-bit vector. The layout (LSB first):
//!
//! ```text
//! bits  0..48   eight 6-bit pointer slots, filled in insertion order
//! bits 48..52   pointer count (0..=8)
//! bit  52       broadcast (pointer overflow; slot contents meaningless)
//! bit  53       owner valid
//! bits 54..60   dirty-owner cluster id
//! ```
//!
//! The per-block storage cost this models is `6i + 12` bits (`i` 6-bit
//! pointers, 4-bit count, broadcast bit, 6-bit owner + valid bit) —
//! O(i log N) against the full map's O(N); see
//! [`LimitedPointerDirectory::bits_per_block`].

use dsm_types::{BlockAddr, ClusterId, ClusterSet, DenseMap};

use crate::full_map::{ReadGrant, WriteGrant};

/// Width of one pointer slot: 6 bits addresses up to 64 clusters, the
/// presence-word limit of the coherence layer.
const SLOT_BITS: u64 = 6;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;
/// Pointer slots available in the packed word (bits 0..48): the most
/// sharer pointers a Dir-i-B entry can hold.
pub const MAX_POINTERS: usize = 8;
const COUNT_SHIFT: u64 = 48;
const COUNT_MASK: u64 = 0xf;
const BROADCAST_BIT: u64 = 1 << 52;
const OWNER_VALID_BIT: u64 = 1 << 53;
const OWNER_SHIFT: u64 = 54;

/// One Dir-i-B entry, packed as the hardware would pack it (see the
/// module docs for the bit layout). `0` is the absent/empty entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Entry(u64);

impl Entry {
    fn count(self) -> usize {
        ((self.0 >> COUNT_SHIFT) & COUNT_MASK) as usize
    }

    fn set_count(&mut self, count: usize) {
        debug_assert!(count <= MAX_POINTERS);
        self.0 = (self.0 & !(COUNT_MASK << COUNT_SHIFT)) | ((count as u64) << COUNT_SHIFT);
    }

    fn broadcast(self) -> bool {
        self.0 & BROADCAST_BIT != 0
    }

    fn set_broadcast(&mut self, on: bool) {
        if on {
            self.0 |= BROADCAST_BIT;
        } else {
            self.0 &= !BROADCAST_BIT;
        }
    }

    fn owner(self) -> Option<ClusterId> {
        if self.0 & OWNER_VALID_BIT != 0 {
            Some(ClusterId(((self.0 >> OWNER_SHIFT) & SLOT_MASK) as u16))
        } else {
            None
        }
    }

    fn set_owner(&mut self, owner: Option<ClusterId>) {
        self.0 &= !(OWNER_VALID_BIT | (SLOT_MASK << OWNER_SHIFT));
        if let Some(o) = owner {
            self.0 |= OWNER_VALID_BIT | (u64::from(o.0) << OWNER_SHIFT);
        }
    }

    fn slot(self, k: usize) -> ClusterId {
        ClusterId(((self.0 >> (k as u64 * SLOT_BITS)) & SLOT_MASK) as u16)
    }

    /// Linear scan of the live pointer slots (at most eight 6-bit
    /// compares — cheaper than it reads).
    fn contains(self, cluster: ClusterId) -> bool {
        (0..self.count()).any(|k| self.slot(k) == cluster)
    }

    /// Appends `cluster` in the next free slot (caller checked capacity
    /// and absence).
    fn push(&mut self, cluster: ClusterId) {
        let k = self.count();
        debug_assert!(k < MAX_POINTERS && !self.contains(cluster));
        self.0 |= u64::from(cluster.0) << (k as u64 * SLOT_BITS);
        self.set_count(k + 1);
    }

    /// Drops every pointer (slot bits and count).
    fn clear_pointers(&mut self) {
        self.0 &= !((1u64 << COUNT_SHIFT) - 1);
        self.set_count(0);
    }

    /// Removes `cluster`'s pointer if present, compacting later slots
    /// down (insertion order of the survivors is preserved).
    fn remove(&mut self, cluster: ClusterId) {
        let n = self.count();
        let Some(at) = (0..n).find(|&k| self.slot(k) == cluster) else {
            return;
        };
        for k in at..n - 1 {
            let next = self.slot(k + 1);
            let shift = k as u64 * SLOT_BITS;
            self.0 = (self.0 & !(SLOT_MASK << shift)) | (u64::from(next.0) << shift);
        }
        let last = (n - 1) as u64 * SLOT_BITS;
        self.0 &= !(SLOT_MASK << last);
        self.set_count(n - 1);
    }

    /// The sharer set the pointers encode (identity-precise form only;
    /// callers handle broadcast).
    fn pointer_set(self) -> ClusterSet {
        let mut set = ClusterSet::new();
        for k in 0..self.count() {
            set.insert(self.slot(k));
        }
        set
    }
}

/// A Dir-i-B limited-pointer directory with the same request interface as
/// [`crate::FullMapDirectory`], so the system simulator can swap them.
///
/// Behavioural differences that matter to the paper's argument:
///
/// * after pointer overflow, [`ReadGrant::prior_presence`] is reported as
///   `false` even for clusters that did hold the block — R-NUMA's
///   capacity-miss classification silently degrades;
/// * writes to overflowed entries return an invalidation list containing
///   *every* other cluster (broadcast), inflating invalidation traffic.
#[derive(Debug, Clone)]
pub struct LimitedPointerDirectory {
    clusters: u16,
    pointers: usize,
    entries: DenseMap<Entry>,
    keep_presence_on_writeback: bool,
}

impl LimitedPointerDirectory {
    /// Creates a Dir-i-B directory with `pointers` sharer slots per entry.
    ///
    /// # Panics
    ///
    /// Panics if `clusters` is not in `1..=64`, or `pointers` is zero or
    /// exceeds the packed entry's eight slots.
    #[must_use]
    pub fn new(clusters: u16, pointers: usize) -> Self {
        assert!(
            (1..=64).contains(&clusters),
            "cluster count {clusters} must be in 1..=64"
        );
        assert!(pointers > 0, "need at least one sharer pointer");
        assert!(
            pointers <= MAX_POINTERS,
            "packed Dir-i-B entries hold at most {MAX_POINTERS} pointers (asked for {pointers})"
        );
        LimitedPointerDirectory {
            clusters,
            pointers,
            entries: DenseMap::new(),
            keep_presence_on_writeback: true,
        }
    }

    /// Number of sharer pointers per entry.
    #[must_use]
    pub fn pointers(&self) -> usize {
        self.pointers
    }

    /// Number of clusters served.
    #[must_use]
    pub fn clusters(&self) -> u16 {
        self.clusters
    }

    /// Directory storage cost per block in bits: `i` 6-bit pointers, the
    /// 4-bit count, the broadcast bit, and the 6-bit owner + valid bit —
    /// the O(i log N) scaling Dir-i-B buys over a full map.
    #[must_use]
    pub fn bits_per_block(&self) -> u32 {
        u32::try_from(self.pointers).expect("pointers <= 8") * 6 + 4 + 1 + 7
    }

    /// Number of blocks with live directory state (pointers, a broadcast
    /// mark, or a dirty owner) — the Dir-i-B counterpart of
    /// [`crate::FullMapDirectory::tracked_blocks`]. O(blocks);
    /// diagnostics only, never on the hot path.
    #[must_use]
    pub fn tracked_blocks(&self) -> usize {
        self.entries
            .values()
            .filter(|e| e.count() > 0 || e.broadcast() || e.owner().is_some())
            .count()
    }

    fn check(&self, cluster: ClusterId) {
        assert!(
            cluster.0 < self.clusters,
            "cluster {cluster} out of range (have {})",
            self.clusters
        );
    }

    /// Hints `block`'s entry's home slot into L1 (compare
    /// [`crate::FullMapDirectory::prefetch`]).
    #[inline]
    pub fn prefetch(&self, block: BlockAddr) {
        self.entries.prefetch(block.0);
    }

    /// Processes a read request (compare
    /// [`crate::FullMapDirectory::read`]).
    pub fn read(&mut self, block: BlockAddr, requester: ClusterId) -> ReadGrant {
        self.check(requester);
        let pointers = self.pointers;
        let entry = self.entries.entry_or_default(block.0);
        // After overflow the entry cannot say who shared: presence
        // information is lost (the R-NUMA degradation).
        let prior_presence = !entry.broadcast() && entry.contains(requester);
        let mut downgraded_owner = None;
        if let Some(owner) = entry.owner() {
            if owner != requester {
                downgraded_owner = Some(owner);
            }
            entry.set_owner(None);
        }
        if !entry.broadcast() && !entry.contains(requester) {
            if entry.count() < pointers {
                entry.push(requester);
            } else {
                entry.set_broadcast(true);
                entry.clear_pointers();
            }
        }
        let exclusive = !entry.broadcast() && entry.count() == 1 && entry.slot(0) == requester;
        ReadGrant {
            prior_presence,
            downgraded_owner,
            exclusive,
        }
    }

    /// Processes a write(-ownership) request (compare
    /// [`crate::FullMapDirectory::write`]).
    pub fn write(&mut self, block: BlockAddr, requester: ClusterId) -> WriteGrant {
        self.check(requester);
        let clusters = self.clusters;
        let entry = self.entries.entry_or_default(block.0);
        let prior_presence = !entry.broadcast() && entry.contains(requester);
        let previous_owner = entry.owner().filter(|&o| o != requester);
        let invalidate = if entry.broadcast() {
            // Identity lost: broadcast to everyone else (false
            // invalidations included).
            ClusterSet::all(clusters).without(requester)
        } else {
            entry.pointer_set().without(requester)
        };
        entry.set_broadcast(false);
        entry.clear_pointers();
        entry.push(requester);
        entry.set_owner(Some(requester));
        WriteGrant {
            prior_presence,
            invalidate,
            previous_owner,
        }
    }

    /// Records a dirty write-back (compare
    /// [`crate::FullMapDirectory::writeback`]).
    pub fn writeback(&mut self, block: BlockAddr, cluster: ClusterId) {
        self.check(cluster);
        let keep = self.keep_presence_on_writeback;
        if let Some(entry) = self.entries.get_mut(block.0) {
            if entry.owner() == Some(cluster) {
                entry.set_owner(None);
                if !keep {
                    entry.remove(cluster);
                }
            }
        }
    }

    /// Whether `cluster` holds dirty ownership.
    #[must_use]
    pub fn is_owner(&self, block: BlockAddr, cluster: ClusterId) -> bool {
        self.entries
            .get(block.0)
            .is_some_and(|e| e.owner() == Some(cluster))
    }

    /// The dirty owner, if any.
    #[must_use]
    pub fn owner_of(&self, block: BlockAddr) -> Option<ClusterId> {
        self.entries.get(block.0).and_then(|e| e.owner())
    }

    /// The set of clusters the directory would invalidate for `block`
    /// (every cluster under broadcast), without allocating.
    #[must_use]
    pub fn sharer_set(&self, block: BlockAddr) -> ClusterSet {
        match self.entries.get(block.0) {
            None => ClusterSet::new(),
            Some(e) if e.broadcast() => ClusterSet::all(self.clusters),
            Some(e) => e.pointer_set(),
        }
    }

    /// Whether any cluster besides `cluster` would receive an
    /// invalidation for `block`. Under broadcast this is conservative —
    /// identity is lost, so everyone else counts.
    #[must_use]
    pub fn has_sharer_other_than(&self, block: BlockAddr, cluster: ClusterId) -> bool {
        self.sharer_set(block).contains_other_than(cluster)
    }

    /// Clusters the directory would invalidate for `block` (all of them
    /// under broadcast).
    #[must_use]
    pub fn sharers(&self, block: BlockAddr) -> Vec<ClusterId> {
        self.sharer_set(block).iter().collect()
    }

    /// Records an exclusive-clean grant (compare
    /// [`crate::FullMapDirectory::grant_exclusive`]).
    ///
    /// # Panics
    ///
    /// Panics if other sharers are tracked.
    pub fn grant_exclusive(&mut self, block: BlockAddr, cluster: ClusterId) {
        self.check(cluster);
        let entry = self.entries.entry_or_default(block.0);
        assert!(
            !entry.broadcast() && entry.pointer_set().without(cluster).is_empty(),
            "exclusive grant of {block} to {cluster} with other sharers tracked"
        );
        entry.clear_pointers();
        entry.push(cluster);
        entry.set_owner(Some(cluster));
    }

    /// Whether the entry has overflowed to broadcast mode.
    #[must_use]
    pub fn is_broadcast(&self, block: BlockAddr) -> bool {
        self.entries.get(block.0).is_some_and(|e| e.broadcast())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: BlockAddr = BlockAddr(42);

    fn dir() -> LimitedPointerDirectory {
        LimitedPointerDirectory::new(8, 2)
    }

    #[test]
    fn tracks_exactly_like_full_map_below_overflow() {
        let mut d = dir();
        let g = d.read(B, ClusterId(0));
        assert!(g.exclusive && !g.prior_presence);
        let g = d.read(B, ClusterId(1));
        assert!(!g.exclusive);
        // Re-read: presence still known (no overflow yet).
        let g = d.read(B, ClusterId(0));
        assert!(g.prior_presence);
        assert_eq!(d.sharers(B), vec![ClusterId(0), ClusterId(1)]);
    }

    #[test]
    fn overflow_degrades_to_broadcast() {
        let mut d = dir();
        d.read(B, ClusterId(0));
        d.read(B, ClusterId(1));
        d.read(B, ClusterId(2)); // third sharer: overflow
        assert!(d.is_broadcast(B));
        assert_eq!(d.sharers(B).len(), 8);
        // Presence information is gone: cluster 0's re-read looks cold.
        let g = d.read(B, ClusterId(0));
        assert!(
            !g.prior_presence,
            "broadcast entries cannot classify capacity misses"
        );
    }

    #[test]
    fn broadcast_write_invalidates_everyone() {
        let mut d = dir();
        d.read(B, ClusterId(0));
        d.read(B, ClusterId(1));
        d.read(B, ClusterId(2));
        let g = d.write(B, ClusterId(3));
        assert_eq!(g.invalidate.len(), 7, "{:?}", g.invalidate);
        assert!(!g.invalidate.contains(ClusterId(3)));
        // Write resets the entry to a precise single pointer.
        assert!(!d.is_broadcast(B));
        assert_eq!(d.sharers(B), vec![ClusterId(3)]);
        assert!(d.is_owner(B, ClusterId(3)));
    }

    #[test]
    fn precise_write_invalidates_only_pointers() {
        let mut d = dir();
        d.read(B, ClusterId(0));
        d.read(B, ClusterId(1));
        let g = d.write(B, ClusterId(5));
        let inv: Vec<ClusterId> = g.invalidate.iter().collect();
        assert_eq!(inv, vec![ClusterId(0), ClusterId(1)]);
    }

    #[test]
    fn dirty_owner_downgrade() {
        let mut d = dir();
        d.write(B, ClusterId(0));
        let g = d.read(B, ClusterId(1));
        assert_eq!(g.downgraded_owner, Some(ClusterId(0)));
        assert!(!d.is_owner(B, ClusterId(0)));
    }

    #[test]
    fn writeback_clears_owner_keeps_pointer() {
        let mut d = dir();
        d.write(B, ClusterId(0));
        d.writeback(B, ClusterId(0));
        assert!(d.owner_of(B).is_none());
        let g = d.read(B, ClusterId(0));
        assert!(g.prior_presence, "pointer survives the write-back");
    }

    #[test]
    fn grant_exclusive_sets_owner() {
        let mut d = dir();
        d.read(B, ClusterId(2));
        d.grant_exclusive(B, ClusterId(2));
        assert!(d.is_owner(B, ClusterId(2)));
    }

    #[test]
    #[should_panic(expected = "other sharers tracked")]
    fn grant_exclusive_rejects_shared_entries() {
        let mut d = dir();
        d.read(B, ClusterId(0));
        d.read(B, ClusterId(1));
        d.grant_exclusive(B, ClusterId(0));
    }

    #[test]
    #[should_panic(expected = "at least one sharer pointer")]
    fn zero_pointers_panics() {
        let _ = LimitedPointerDirectory::new(8, 0);
    }

    #[test]
    #[should_panic(expected = "at most 8 pointers")]
    fn nine_pointers_overflow_the_packed_word() {
        let _ = LimitedPointerDirectory::new(64, 9);
    }

    #[test]
    fn memory_cost_is_pointer_bound() {
        // The point of Dir-i-B: entry size is O(i log N), not O(N).
        let d = LimitedPointerDirectory::new(64, 4);
        assert_eq!(d.pointers(), 4);
        assert_eq!(d.bits_per_block(), 4 * 6 + 12);
        // Dir-2-B on the paper's 8-cluster machine: 24 bits.
        assert_eq!(dir().bits_per_block(), 24);
    }

    #[test]
    fn packed_entry_slots_roundtrip() {
        let mut e = Entry::default();
        for c in [5u16, 63, 0, 17] {
            e.push(ClusterId(c));
        }
        assert_eq!(e.count(), 4);
        assert_eq!(
            (0..4).map(|k| e.slot(k).0).collect::<Vec<_>>(),
            vec![5, 63, 0, 17],
            "slots preserve insertion order"
        );
        assert!(e.contains(ClusterId(63)) && !e.contains(ClusterId(6)));
        e.remove(ClusterId(63));
        assert_eq!(
            (0..3).map(|k| e.slot(k).0).collect::<Vec<_>>(),
            vec![5, 0, 17],
            "removal compacts later slots down"
        );
        e.set_owner(Some(ClusterId(40)));
        e.set_broadcast(true);
        assert_eq!(e.owner(), Some(ClusterId(40)));
        assert!(e.broadcast());
        e.set_owner(None);
        assert_eq!(e.owner(), None);
        assert!(e.broadcast(), "owner bits do not disturb broadcast");
    }

    /// The old identity-precise representation: a full `ClusterSet` plus
    /// flags. Kept as a shadow model to prove the packed pointer-field
    /// entry is observationally equivalent.
    #[derive(Debug, Clone, Copy, Default)]
    struct ShadowEntry {
        sharers: ClusterSet,
        broadcast: bool,
        owner: Option<ClusterId>,
    }

    #[derive(Debug)]
    struct ShadowDir {
        clusters: u16,
        pointers: usize,
        entries: dsm_types::FxHashMap<u64, ShadowEntry>,
    }

    impl ShadowDir {
        fn new(clusters: u16, pointers: usize) -> Self {
            ShadowDir {
                clusters,
                pointers,
                entries: dsm_types::FxHashMap::default(),
            }
        }

        fn read(&mut self, block: BlockAddr, requester: ClusterId) -> ReadGrant {
            let pointers = self.pointers;
            let entry = self.entries.entry(block.0).or_default();
            let prior_presence = !entry.broadcast && entry.sharers.contains(requester);
            let mut downgraded_owner = None;
            if let Some(owner) = entry.owner {
                if owner != requester {
                    downgraded_owner = Some(owner);
                }
                entry.owner = None;
            }
            if !entry.broadcast && !entry.sharers.contains(requester) {
                if entry.sharers.len() < pointers {
                    entry.sharers.insert(requester);
                } else {
                    entry.broadcast = true;
                    entry.sharers = ClusterSet::new();
                }
            }
            let exclusive = !entry.broadcast && entry.sharers.mask() == 1u64 << requester.0;
            ReadGrant {
                prior_presence,
                downgraded_owner,
                exclusive,
            }
        }

        fn write(&mut self, block: BlockAddr, requester: ClusterId) -> WriteGrant {
            let clusters = self.clusters;
            let entry = self.entries.entry(block.0).or_default();
            let prior_presence = !entry.broadcast && entry.sharers.contains(requester);
            let previous_owner = entry.owner.filter(|&o| o != requester);
            let invalidate = if entry.broadcast {
                ClusterSet::all(clusters).without(requester)
            } else {
                entry.sharers.without(requester)
            };
            entry.broadcast = false;
            entry.sharers = ClusterSet::from_mask(1u64 << requester.0);
            entry.owner = Some(requester);
            WriteGrant {
                prior_presence,
                invalidate,
                previous_owner,
            }
        }

        fn writeback(&mut self, block: BlockAddr, cluster: ClusterId) {
            if let Some(entry) = self.entries.get_mut(&block.0) {
                if entry.owner == Some(cluster) {
                    entry.owner = None;
                }
            }
        }

        fn sharer_set(&self, block: BlockAddr) -> ClusterSet {
            match self.entries.get(&block.0) {
                None => ClusterSet::new(),
                Some(e) if e.broadcast => ClusterSet::all(self.clusters),
                Some(e) => e.sharers,
            }
        }
    }

    #[test]
    fn packed_entries_shadow_the_cluster_set_representation() {
        // Randomized op sequence against both representations; every
        // grant and every observable query must agree exactly.
        for &(clusters, pointers) in &[(8u16, 2usize), (8, 4), (64, 4), (3, 1), (64, 8)] {
            let mut packed = LimitedPointerDirectory::new(clusters, pointers);
            let mut shadow = ShadowDir::new(clusters, pointers);
            let mut state = 0x9e37_79b9_7f4a_7c15u64;
            let mut rng = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 33
            };
            for step in 0..4000 {
                let block = BlockAddr(rng() % 13);
                let cl = ClusterId((rng() % u64::from(clusters)) as u16);
                match rng() % 4 {
                    0 | 1 => {
                        let a = packed.read(block, cl);
                        let b = shadow.read(block, cl);
                        assert_eq!(
                            (a.prior_presence, a.downgraded_owner, a.exclusive),
                            (b.prior_presence, b.downgraded_owner, b.exclusive),
                            "read grant diverged at step {step}"
                        );
                    }
                    2 => {
                        let a = packed.write(block, cl);
                        let b = shadow.write(block, cl);
                        assert_eq!(
                            (a.prior_presence, a.invalidate, a.previous_owner),
                            (b.prior_presence, b.invalidate, b.previous_owner),
                            "write grant diverged at step {step}"
                        );
                    }
                    _ => {
                        packed.writeback(block, cl);
                        shadow.writeback(block, cl);
                    }
                }
                assert_eq!(
                    packed.sharer_set(block),
                    shadow.sharer_set(block),
                    "sharer set diverged at step {step}"
                );
                assert_eq!(
                    packed.owner_of(block),
                    shadow.entries.get(&block.0).and_then(|e| e.owner),
                    "owner diverged at step {step}"
                );
                assert_eq!(
                    packed.has_sharer_other_than(block, cl),
                    shadow.sharer_set(block).contains_other_than(cl),
                    "has_sharer_other_than diverged at step {step}"
                );
            }
        }
    }
}
