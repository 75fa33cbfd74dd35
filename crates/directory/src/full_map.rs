//! The full-map, non-notifying inter-cluster directory.

use dsm_types::{BlockAddr, ClusterId, ClusterSet};

/// The directory's answer to an inter-cluster read request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadGrant {
    /// The requester's presence bit was already set — the cluster had this
    /// block before and silently dropped it, so the miss is a
    /// **capacity/conflict miss** (R-NUMA's relocation signal). When clear,
    /// the miss is *necessary* (cold or post-invalidation coherence).
    pub prior_presence: bool,
    /// Another cluster held the block dirty and was downgraded to a clean
    /// sharer to service this read (a three-hop transaction in a real
    /// machine; the paper's model charges the same constant remote latency).
    pub downgraded_owner: Option<ClusterId>,
    /// No other cluster holds a copy: the requester may cache the block
    /// with cluster-level mastership (`E` for local data, `R` for remote).
    pub exclusive: bool,
}

/// The directory's answer to an inter-cluster write(-ownership) request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteGrant {
    /// Same capacity-miss signal as [`ReadGrant::prior_presence`].
    pub prior_presence: bool,
    /// Clusters whose copies must be invalidated (excludes the requester),
    /// as the presence mask itself — expanded lazily, in ascending cluster
    /// order, by [`ClusterSet::iter`]. No per-write allocation.
    pub invalidate: ClusterSet,
    /// The previous dirty owner, if the block was dirty elsewhere (its data
    /// is forwarded to the requester; also listed in `invalidate`).
    pub previous_owner: Option<ClusterId>,
}

/// Sentinel for "no dirty owner" in [`Entry::owner`]. Valid owners are
/// cluster ids `0..64`, so `u8::MAX` can never collide.
const NO_OWNER: u8 = u8::MAX;

/// Hardware-shaped directory entry: a presence word plus the dirty owner
/// packed into one sentinel-encoded byte (9 bytes of state instead of the
/// 12 an `Option<ClusterId>` padded alongside a `u64` used to take).
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// One bit per cluster. In a non-notifying protocol bits persist across
    /// clean replacements.
    presence: u64,
    /// The cluster holding the block dirty ([`NO_OWNER`] if none).
    owner: u8,
}

impl Default for Entry {
    fn default() -> Self {
        Entry {
            presence: 0,
            owner: NO_OWNER,
        }
    }
}

impl Entry {
    #[inline]
    fn owner(self) -> Option<ClusterId> {
        if self.owner == NO_OWNER {
            None
        } else {
            Some(ClusterId(u16::from(self.owner)))
        }
    }

    #[inline]
    fn set_owner(&mut self, owner: Option<ClusterId>) {
        self.owner = match owner {
            // Cluster ids are bounded by the 64-bit presence word, so the
            // cast cannot truncate.
            #[allow(clippy::cast_possible_truncation)]
            Some(c) => c.0 as u8,
            None => NO_OWNER,
        };
    }
}

/// A full-map directory with per-cluster presence bits and a dirty-owner
/// field, keyed by block address.
///
/// The directory is home-based conceptually, but since every home memory
/// behaves identically in the model, one map serves the whole machine; the
/// caller decides which requests are *remote* by comparing the requester's
/// cluster with the block's home (see [`crate::HomeMap`]).
///
/// Two deliberate R-NUMA behaviours:
///
/// * presence bits are **not** cleared on clean replacement (non-notifying);
/// * presence bits are **kept** when a dirty block is written back
///   ([`FullMapDirectory::writeback`]), so the next miss by the same cluster
///   still registers as a capacity miss. This is the paper's "bits remain
///   turned on after a dirty block is written back" modification, and can be
///   disabled with [`FullMapDirectory::set_keep_presence_on_writeback`].
#[derive(Debug, Clone)]
pub struct FullMapDirectory {
    clusters: u16,
    /// Directory state indexed directly by block number. Workload address
    /// spaces are dense (bounded by the shared segment), so a flat array
    /// is both smaller than a hash table at full occupancy and turns the
    /// two-to-three directory probes on every miss into single indexed
    /// loads — the directory is the hottest map in the simulator.
    entries: Vec<Entry>,
    keep_presence_on_writeback: bool,
}

impl FullMapDirectory {
    /// Creates a directory for `clusters` clusters.
    ///
    /// # Panics
    ///
    /// Panics if `clusters` is zero or exceeds 64 (the presence bit-field
    /// width).
    #[must_use]
    pub fn new(clusters: u16) -> Self {
        assert!(
            (1..=64).contains(&clusters),
            "cluster count {clusters} must be in 1..=64"
        );
        FullMapDirectory {
            clusters,
            entries: Vec::new(),
            keep_presence_on_writeback: true,
        }
    }

    /// The entry for `block`, growing the table as needed (amortized by
    /// power-of-two doubling; block numbers are dense, so the table tops
    /// out near the shared footprint in blocks).
    #[inline]
    fn entry_mut(&mut self, block: BlockAddr) -> &mut Entry {
        let i = usize::try_from(block.0).expect("block index fits usize");
        if i >= self.entries.len() {
            let target = (i + 1).next_power_of_two().max(1024);
            self.entries.resize(target, Entry::default());
        }
        &mut self.entries[i]
    }

    /// Read-only entry lookup (no growth); absent blocks read as default.
    #[inline]
    fn entry(&self, block: BlockAddr) -> Option<Entry> {
        self.entries.get(usize::try_from(block.0).ok()?).copied()
    }

    /// Controls whether presence bits survive a dirty write-back (default
    /// `true`, the R-NUMA modification).
    pub fn set_keep_presence_on_writeback(&mut self, keep: bool) {
        self.keep_presence_on_writeback = keep;
    }

    /// Number of clusters this directory serves.
    #[must_use]
    pub fn clusters(&self) -> u16 {
        self.clusters
    }

    /// Directory storage cost per block in bits: one presence bit per
    /// cluster plus the 6-bit owner + valid bit — the O(N) scaling the
    /// limited-pointer organization avoids.
    #[must_use]
    pub fn bits_per_block(&self) -> u32 {
        u32::from(self.clusters) + 7
    }

    /// Hints `block`'s entry line into L1 — the directory is the hottest
    /// map in the simulator, and the flat array makes the target address
    /// a single index computation. Blocks beyond the table are ignored
    /// (the entry would be grown on the real access).
    #[inline]
    pub fn prefetch(&self, block: BlockAddr) {
        if let Ok(i) = usize::try_from(block.0) {
            dsm_types::prefetch_slice(&self.entries, i);
        }
    }

    fn bit(&self, cluster: ClusterId) -> u64 {
        assert!(
            cluster.0 < self.clusters,
            "cluster {cluster} out of range (have {})",
            self.clusters
        );
        1u64 << cluster.0
    }

    /// Processes a read request from `requester` for `block`.
    pub fn read(&mut self, block: BlockAddr, requester: ClusterId) -> ReadGrant {
        let bit = self.bit(requester);
        let entry = self.entry_mut(block);
        let prior_presence = entry.presence & bit != 0;
        let mut downgraded_owner = None;
        if let Some(owner) = entry.owner() {
            if owner != requester {
                // Owner supplies data and is downgraded to a clean sharer;
                // its presence bit stays set.
                downgraded_owner = Some(owner);
            }
            entry.set_owner(None);
        }
        entry.presence |= bit;
        let exclusive = entry.presence == bit;
        ReadGrant {
            prior_presence,
            downgraded_owner,
            exclusive,
        }
    }

    /// Processes a write(-ownership) request from `requester` for `block`.
    ///
    /// All other clusters with copies are invalidated; the requester becomes
    /// the dirty owner and the only cluster with a presence bit.
    pub fn write(&mut self, block: BlockAddr, requester: ClusterId) -> WriteGrant {
        let bit = self.bit(requester);
        let entry = self.entry_mut(block);
        let prior_presence = entry.presence & bit != 0;
        let previous_owner = entry.owner().filter(|&o| o != requester);
        let invalidate = ClusterSet::from_mask(entry.presence & !bit);
        entry.presence = bit;
        entry.set_owner(Some(requester));
        WriteGrant {
            prior_presence,
            invalidate,
            previous_owner,
        }
    }

    /// Records that `cluster` wrote the dirty block back to its home
    /// memory (a dirty replacement that left the cluster entirely).
    ///
    /// Ownership is cleared; the presence bit is kept or dropped according
    /// to [`FullMapDirectory::set_keep_presence_on_writeback`]. A write-back
    /// from a non-owner (stale, e.g. racing with an intervening request) is
    /// ignored, as in real directories.
    pub fn writeback(&mut self, block: BlockAddr, cluster: ClusterId) {
        let bit = self.bit(cluster);
        let keep = self.keep_presence_on_writeback;
        if let Some(entry) = self
            .entries
            .get_mut(usize::try_from(block.0).unwrap_or(usize::MAX))
        {
            if entry.owner() == Some(cluster) {
                entry.set_owner(None);
                if !keep {
                    entry.presence &= !bit;
                }
            }
        }
    }

    /// Whether `cluster` currently holds dirty ownership of `block` (it may
    /// write without a directory transaction).
    #[must_use]
    pub fn is_owner(&self, block: BlockAddr, cluster: ClusterId) -> bool {
        self.entry(block)
            .is_some_and(|e| e.owner() == Some(cluster))
    }

    /// The cluster holding `block` dirty, if any.
    #[must_use]
    pub fn owner_of(&self, block: BlockAddr) -> Option<ClusterId> {
        self.entry(block).and_then(Entry::owner)
    }

    /// Records an exclusive-clean (`E`) grant: `cluster` received the only
    /// copy machine-wide and may silently transition it to `Modified`, so
    /// the directory must treat it as the owner. Standard MESI-directory
    /// behaviour for local data; remote clean fills take MESIR's `R`
    /// instead, which does not allow silent writes.
    ///
    /// # Panics
    ///
    /// Panics if other clusters also hold presence bits (an `E` grant
    /// would be incoherent).
    pub fn grant_exclusive(&mut self, block: BlockAddr, cluster: ClusterId) {
        let bit = self.bit(cluster);
        let entry = self.entry_mut(block);
        assert!(
            entry.presence & !bit == 0,
            "exclusive grant of {block} to {cluster} with other sharers present"
        );
        entry.presence = bit;
        entry.set_owner(Some(cluster));
    }

    /// Whether `cluster`'s presence bit is set (possibly stale).
    #[must_use]
    pub fn has_presence(&self, block: BlockAddr, cluster: ClusterId) -> bool {
        let bit = self.bit(cluster);
        self.entry(block).is_some_and(|e| e.presence & bit != 0)
    }

    /// Clusters whose presence bit is set for `block`, as the presence
    /// mask itself (no allocation).
    #[must_use]
    pub fn sharer_set(&self, block: BlockAddr) -> ClusterSet {
        self.entry(block)
            .map_or_else(ClusterSet::new, |e| ClusterSet::from_mask(e.presence))
    }

    /// Whether any cluster other than `cluster` has a presence bit for
    /// `block` — the per-write sharing question, answered with two mask
    /// operations instead of materializing a sharer list.
    #[must_use]
    pub fn has_sharer_other_than(&self, block: BlockAddr, cluster: ClusterId) -> bool {
        self.sharer_set(block).contains_other_than(cluster)
    }

    /// Clusters whose presence bit is set for `block`.
    #[must_use]
    pub fn sharers(&self, block: BlockAddr) -> Vec<ClusterId> {
        self.sharer_set(block).iter().collect()
    }

    /// Explicitly clears `cluster`'s presence bit (a *notifying* protocol's
    /// replacement hint; unused by the paper's base system but provided for
    /// experimentation).
    pub fn drop_presence(&mut self, block: BlockAddr, cluster: ClusterId) {
        let bit = self.bit(cluster);
        if let Some(entry) = self
            .entries
            .get_mut(usize::try_from(block.0).unwrap_or(usize::MAX))
        {
            entry.presence &= !bit;
        }
    }

    /// Number of blocks with live directory state (a presence bit or a
    /// dirty owner). O(blocks); diagnostics only, never on the hot path.
    #[must_use]
    pub fn tracked_blocks(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.presence != 0 || e.owner != NO_OWNER)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C0: ClusterId = ClusterId(0);
    const C1: ClusterId = ClusterId(1);
    const C2: ClusterId = ClusterId(2);
    const B: BlockAddr = BlockAddr(42);

    #[test]
    fn first_read_is_cold_and_exclusive() {
        let mut d = FullMapDirectory::new(4);
        let g = d.read(B, C0);
        assert!(!g.prior_presence);
        assert!(g.exclusive);
        assert!(g.downgraded_owner.is_none());
    }

    #[test]
    fn second_cluster_read_is_shared() {
        let mut d = FullMapDirectory::new(4);
        d.read(B, C0);
        let g = d.read(B, C1);
        assert!(!g.prior_presence);
        assert!(!g.exclusive);
    }

    #[test]
    fn reread_after_silent_drop_flags_capacity_miss() {
        let mut d = FullMapDirectory::new(4);
        d.read(B, C0);
        // C0 silently replaces the clean block (non-notifying), then misses.
        let g = d.read(B, C0);
        assert!(g.prior_presence);
        assert!(g.exclusive, "still the only cluster with a presence bit");
    }

    #[test]
    fn write_invalidates_other_sharers() {
        let mut d = FullMapDirectory::new(4);
        d.read(B, C0);
        d.read(B, C1);
        let g = d.write(B, C2);
        assert_eq!(g.invalidate, [C0, C1].into_iter().collect::<ClusterSet>());
        assert_eq!(g.invalidate.iter().collect::<Vec<_>>(), vec![C0, C1]);
        assert!(g.previous_owner.is_none());
        assert!(d.is_owner(B, C2));
        assert_eq!(d.sharers(B), vec![C2]);
    }

    #[test]
    fn read_downgrades_dirty_owner() {
        let mut d = FullMapDirectory::new(4);
        d.write(B, C0);
        let g = d.read(B, C1);
        assert_eq!(g.downgraded_owner, Some(C0));
        assert!(!d.is_owner(B, C0));
        // Both clusters now have presence bits.
        assert_eq!(d.sharers(B), vec![C0, C1]);
    }

    #[test]
    fn owner_reread_does_not_self_downgrade() {
        let mut d = FullMapDirectory::new(4);
        d.write(B, C0);
        let g = d.read(B, C0);
        assert!(g.downgraded_owner.is_none());
        assert!(g.prior_presence);
        // Ownership is dropped on a read request (the block is clean now).
        assert!(!d.is_owner(B, C0));
    }

    #[test]
    fn write_after_write_transfers_ownership() {
        let mut d = FullMapDirectory::new(4);
        d.write(B, C0);
        let g = d.write(B, C1);
        assert_eq!(g.previous_owner, Some(C0));
        assert_eq!(g.invalidate, ClusterSet::from_mask(1));
        assert!(d.is_owner(B, C1));
    }

    #[test]
    fn invalidation_clears_presence_so_next_miss_is_necessary() {
        let mut d = FullMapDirectory::new(4);
        d.read(B, C0);
        d.write(B, C1); // invalidates C0
        let g = d.read(B, C0);
        assert!(
            !g.prior_presence,
            "post-invalidation miss must be a necessary (coherence) miss"
        );
    }

    #[test]
    fn writeback_keeps_presence_by_default() {
        let mut d = FullMapDirectory::new(4);
        d.write(B, C0);
        d.writeback(B, C0);
        assert!(!d.is_owner(B, C0));
        assert!(d.has_presence(B, C0));
        let g = d.read(B, C0);
        assert!(g.prior_presence, "R-NUMA counts this as a capacity miss");
    }

    #[test]
    fn writeback_can_drop_presence_when_configured() {
        let mut d = FullMapDirectory::new(4);
        d.set_keep_presence_on_writeback(false);
        d.write(B, C0);
        d.writeback(B, C0);
        assert!(!d.has_presence(B, C0));
    }

    #[test]
    fn stale_writeback_from_non_owner_is_ignored() {
        let mut d = FullMapDirectory::new(4);
        d.write(B, C0);
        d.write(B, C1); // ownership moved
        d.writeback(B, C0); // stale
        assert!(d.is_owner(B, C1));
    }

    #[test]
    fn drop_presence_clears_bit() {
        let mut d = FullMapDirectory::new(4);
        d.read(B, C0);
        d.drop_presence(B, C0);
        assert!(!d.has_presence(B, C0));
        let g = d.read(B, C0);
        assert!(!g.prior_presence);
    }

    #[test]
    fn tracked_blocks_counts_entries() {
        let mut d = FullMapDirectory::new(4);
        assert_eq!(d.tracked_blocks(), 0);
        d.read(BlockAddr(1), C0);
        d.read(BlockAddr(2), C0);
        assert_eq!(d.tracked_blocks(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_cluster_panics() {
        let mut d = FullMapDirectory::new(2);
        d.read(B, ClusterId(2));
    }

    #[test]
    #[should_panic(expected = "must be in 1..=64")]
    fn too_many_clusters_panics() {
        let _ = FullMapDirectory::new(65);
    }

    #[test]
    fn sharer_set_and_other_than_match_sharers() {
        let mut d = FullMapDirectory::new(8);
        d.read(B, C0);
        d.read(B, C2);
        assert_eq!(d.sharer_set(B).iter().collect::<Vec<_>>(), d.sharers(B));
        assert!(d.has_sharer_other_than(B, C0));
        assert!(d.has_sharer_other_than(B, C1));
        let lone = BlockAddr(7);
        d.read(lone, C1);
        assert!(!d.has_sharer_other_than(lone, C1));
        assert!(!d.has_sharer_other_than(BlockAddr(99), C0));
    }

    /// The sentinel-packed `owner: u8` must round-trip every legal owner
    /// value exactly as the old `Option<ClusterId>` field did.
    #[test]
    fn packed_owner_roundtrips_all_cluster_ids() {
        let mut e = Entry::default();
        assert_eq!(e.owner(), None);
        for c in 0..64u16 {
            e.set_owner(Some(ClusterId(c)));
            assert_eq!(e.owner(), Some(ClusterId(c)));
        }
        e.set_owner(None);
        assert_eq!(e.owner(), None);
        // The packing buys real space: presence word + sentinel byte.
        assert!(std::mem::size_of::<Entry>() <= 16);
        assert_eq!(std::mem::size_of::<Option<ClusterId>>(), 4);
    }

    /// Directory-level equivalence of the packed-owner representation:
    /// drive the same request sequence and check owner visibility at every
    /// step against a shadow `Option<ClusterId>`.
    #[test]
    fn packed_owner_tracks_shadow_option_through_protocol() {
        let mut d = FullMapDirectory::new(4);
        let mut shadow: Option<ClusterId> = None;
        let steps: [(u8, ClusterId); 8] = [
            (b'w', C0),
            (b'r', C1),
            (b'w', C2),
            (b'w', C1),
            (b'b', C1),
            (b'r', C0),
            (b'w', C0),
            (b'b', C0),
        ];
        for (op, c) in steps {
            match op {
                b'w' => {
                    d.write(B, c);
                    shadow = Some(c);
                }
                b'r' => {
                    d.read(B, c);
                    shadow = None;
                }
                _ => {
                    if shadow == Some(c) {
                        shadow = None;
                    }
                    d.writeback(B, c);
                }
            }
            assert_eq!(d.owner_of(B), shadow, "after {} {c}", op as char);
        }
    }
}
