//! A directory of either organization, behind one dispatch type.

use dsm_types::{BlockAddr, ClusterId, ClusterSet};

use crate::full_map::{FullMapDirectory, ReadGrant, WriteGrant};
use crate::limited::LimitedPointerDirectory;

/// Either a full-map or a limited-pointer directory, with the request
/// interface the system simulator uses. Lets the `vxp`-scales-where-R-NUMA-
/// cannot claim be tested by swapping the directory under an otherwise
/// identical machine.
#[derive(Debug, Clone)]
pub enum DirectoryUnit {
    /// Full-map presence bits (required by R-NUMA's counters).
    FullMap(FullMapDirectory),
    /// Dir-i-B limited pointers (NUMA-Q-class scalability).
    LimitedPointer(LimitedPointerDirectory),
}

impl DirectoryUnit {
    /// A full-map directory for `clusters` clusters.
    #[must_use]
    pub fn full_map(clusters: u16) -> Self {
        DirectoryUnit::FullMap(FullMapDirectory::new(clusters))
    }

    /// A Dir-i-B directory with `pointers` sharer slots.
    #[must_use]
    pub fn limited(clusters: u16, pointers: usize) -> Self {
        DirectoryUnit::LimitedPointer(LimitedPointerDirectory::new(clusters, pointers))
    }

    /// Whether presence information is exact (full map) — the property
    /// R-NUMA's capacity-miss counters depend on.
    #[must_use]
    pub fn is_full_map(&self) -> bool {
        matches!(self, DirectoryUnit::FullMap(_))
    }

    /// Directory storage cost per block in bits under this organization
    /// (full map: O(clusters); Dir-i-B: O(pointers)).
    #[must_use]
    pub fn bits_per_block(&self) -> u32 {
        match self {
            DirectoryUnit::FullMap(d) => d.bits_per_block(),
            DirectoryUnit::LimitedPointer(d) => d.bits_per_block(),
        }
    }

    /// Hints `block`'s entry into L1 ahead of the request replay will
    /// make for it — the batch-ahead prefetch hook.
    #[inline]
    pub fn prefetch(&self, block: BlockAddr) {
        match self {
            DirectoryUnit::FullMap(d) => d.prefetch(block),
            DirectoryUnit::LimitedPointer(d) => d.prefetch(block),
        }
    }

    /// Processes a read request.
    pub fn read(&mut self, block: BlockAddr, requester: ClusterId) -> ReadGrant {
        match self {
            DirectoryUnit::FullMap(d) => d.read(block, requester),
            DirectoryUnit::LimitedPointer(d) => d.read(block, requester),
        }
    }

    /// Processes a write(-ownership) request.
    pub fn write(&mut self, block: BlockAddr, requester: ClusterId) -> WriteGrant {
        match self {
            DirectoryUnit::FullMap(d) => d.write(block, requester),
            DirectoryUnit::LimitedPointer(d) => d.write(block, requester),
        }
    }

    /// Records a dirty write-back.
    pub fn writeback(&mut self, block: BlockAddr, cluster: ClusterId) {
        match self {
            DirectoryUnit::FullMap(d) => d.writeback(block, cluster),
            DirectoryUnit::LimitedPointer(d) => d.writeback(block, cluster),
        }
    }

    /// Whether `cluster` holds dirty ownership.
    #[must_use]
    pub fn is_owner(&self, block: BlockAddr, cluster: ClusterId) -> bool {
        match self {
            DirectoryUnit::FullMap(d) => d.is_owner(block, cluster),
            DirectoryUnit::LimitedPointer(d) => d.is_owner(block, cluster),
        }
    }

    /// The dirty owner, if any.
    #[must_use]
    pub fn owner_of(&self, block: BlockAddr) -> Option<ClusterId> {
        match self {
            DirectoryUnit::FullMap(d) => d.owner_of(block),
            DirectoryUnit::LimitedPointer(d) => d.owner_of(block),
        }
    }

    /// Clusters the directory would invalidate for `block`.
    #[must_use]
    pub fn sharers(&self, block: BlockAddr) -> Vec<ClusterId> {
        match self {
            DirectoryUnit::FullMap(d) => d.sharers(block),
            DirectoryUnit::LimitedPointer(d) => d.sharers(block),
        }
    }

    /// The sharer set for `block` as a presence mask (no allocation).
    #[must_use]
    pub fn sharer_set(&self, block: BlockAddr) -> ClusterSet {
        match self {
            DirectoryUnit::FullMap(d) => d.sharer_set(block),
            DirectoryUnit::LimitedPointer(d) => d.sharer_set(block),
        }
    }

    /// Whether any cluster other than `cluster` shares `block` — the
    /// per-write question on the migration/replication path, answered
    /// without materializing a sharer list.
    #[must_use]
    pub fn has_sharer_other_than(&self, block: BlockAddr, cluster: ClusterId) -> bool {
        match self {
            DirectoryUnit::FullMap(d) => d.has_sharer_other_than(block, cluster),
            DirectoryUnit::LimitedPointer(d) => d.has_sharer_other_than(block, cluster),
        }
    }

    /// Records an exclusive-clean grant.
    pub fn grant_exclusive(&mut self, block: BlockAddr, cluster: ClusterId) {
        match self {
            DirectoryUnit::FullMap(d) => d.grant_exclusive(block, cluster),
            DirectoryUnit::LimitedPointer(d) => d.grant_exclusive(block, cluster),
        }
    }

    /// Number of blocks with live directory state, under either
    /// organization — the occupancy hook the profiling layer snapshots.
    /// O(blocks); diagnostics only, never on the hot path.
    #[must_use]
    pub fn tracked_blocks(&self) -> usize {
        match self {
            DirectoryUnit::FullMap(d) => d.tracked_blocks(),
            DirectoryUnit::LimitedPointer(d) => d.tracked_blocks(),
        }
    }

    /// Silently clears `cluster`'s presence bit — a deliberate corruption
    /// primitive for exercising the coherence invariant checker (the
    /// protocol itself never forgets a sharer). Full-map only.
    ///
    /// # Panics
    ///
    /// Panics on a limited-pointer directory, whose packed entries have no
    /// per-cluster bit to drop.
    pub fn drop_presence(&mut self, block: BlockAddr, cluster: ClusterId) {
        match self {
            DirectoryUnit::FullMap(d) => d.drop_presence(block, cluster),
            DirectoryUnit::LimitedPointer(_) => {
                panic!("presence corruption is only defined for full-map directories")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_parity_below_overflow() {
        // For <= `pointers` sharers, both organizations answer identically.
        let mut fm = DirectoryUnit::full_map(4);
        let mut lp = DirectoryUnit::limited(4, 4);
        let b = BlockAddr(9);
        for c in [0u16, 1, 0, 2] {
            let a = fm.read(b, ClusterId(c));
            let x = lp.read(b, ClusterId(c));
            assert_eq!(a, x, "read by C{c}");
        }
        let a = fm.write(b, ClusterId(3));
        let x = lp.write(b, ClusterId(3));
        assert_eq!(a, x);
        assert_eq!(fm.sharers(b), lp.sharers(b));
        assert_eq!(fm.owner_of(b), lp.owner_of(b));
        assert!(fm.has_sharer_other_than(b, ClusterId(0)));
        assert!(!fm.has_sharer_other_than(b, ClusterId(3)));
    }

    #[test]
    fn kind_query() {
        assert!(DirectoryUnit::full_map(8).is_full_map());
        assert!(!DirectoryUnit::limited(8, 2).is_full_map());
    }
}
