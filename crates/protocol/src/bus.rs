//! The cluster bus: processor caches plus snooping operations.

use dsm_cache::{CacheShape, CacheState, Eviction, ProcCache};
use dsm_types::{BlockAddr, LocalProcId};

use crate::mesir;
use crate::transaction::{InvalidationResult, PeerReadSupply, PeerWriteSupply};

/// The processor caches of one cluster and the snooping-bus operations over
/// them.
///
/// `BusCluster` is pure *mechanism*: it answers snoops, moves blocks between
/// caches, applies MESIR transitions and reports victimizations. All policy
/// — whether a miss goes to the network cache, the page cache or the remote
/// home; what happens to victims — is decided by the system simulator in
/// `dsm-core`, which sequences these operations.
#[derive(Debug, Clone)]
pub struct BusCluster {
    caches: Vec<ProcCache>,
    dirty_shared: bool,
    /// Peer supplies, upgrades, fills, external invalidations and
    /// downgrades, and MESIR replacement hand-offs carried so far.
    transactions: u64,
}

impl BusCluster {
    /// Creates a cluster of `procs` processors, each with a cache of the
    /// given shape.
    ///
    /// # Panics
    ///
    /// Panics if `procs` is zero.
    #[must_use]
    pub fn new(procs: usize, shape: CacheShape) -> Self {
        assert!(procs > 0, "a cluster needs at least one processor");
        BusCluster {
            caches: (0..procs).map(|_| ProcCache::new(shape)).collect(),
            dirty_shared: false,
            transactions: 0,
        }
    }

    /// Enables the MOESI-R variant: peer reads downgrade `M` suppliers to
    /// the dirty-shared `O` state instead of cleaning them with a
    /// write-back (the paper’s evaluated-and-rejected option).
    pub fn set_dirty_shared(&mut self, enabled: bool) {
        self.dirty_shared = enabled;
    }

    /// Whether the MOESI-R dirty-shared variant is enabled.
    #[must_use]
    pub fn dirty_shared(&self) -> bool {
        self.dirty_shared
    }

    /// Number of processors on this bus.
    #[must_use]
    pub fn procs(&self) -> usize {
        self.caches.len()
    }

    /// Immutable access to one processor's cache.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    #[must_use]
    pub fn cache(&self, proc: LocalProcId) -> &ProcCache {
        &self.caches[usize::from(proc.0)]
    }

    fn cache_mut(&mut self, proc: LocalProcId) -> &mut ProcCache {
        &mut self.caches[usize::from(proc.0)]
    }

    /// Hints `proc`'s tag row for `block` into L1 — the first probe
    /// every reference makes. Unknown processors are ignored.
    #[inline]
    pub fn prefetch(&self, proc: LocalProcId, block: BlockAddr) {
        if let Some(c) = self.caches.get(usize::from(proc.0)) {
            c.prefetch(block);
        }
    }

    /// The state `proc` holds `block` in (`Invalid` if absent); no LRU
    /// effect.
    #[must_use]
    #[inline]
    pub fn state_of(&self, proc: LocalProcId, block: BlockAddr) -> CacheState {
        self.cache(proc).state_of(block)
    }

    /// Records a read hit in `proc`'s own cache (refreshes LRU).
    ///
    /// # Panics
    ///
    /// Panics (debug) if the block is not resident.
    pub fn read_hit(&mut self, proc: LocalProcId, block: BlockAddr) {
        let s = self.cache_mut(proc).touch(block);
        debug_assert!(s.is_valid(), "read_hit on absent block {block}");
    }

    /// Single-scan read-hit attempt: if `proc` holds `block` in a valid
    /// state, refreshes its LRU position and returns `true`; on a miss
    /// returns `false` with no state change. Equivalent to `state_of`
    /// followed by `read_hit`, with one tag-array scan instead of two.
    #[inline]
    pub fn try_read_hit(&mut self, proc: LocalProcId, block: BlockAddr) -> bool {
        self.cache_mut(proc).touch(block).is_valid()
    }

    /// Single-scan write probe: returns the state `proc` held `block` in
    /// before the probe (`Invalid` on a miss), refreshing LRU on a hit. If
    /// that state allows a silent write (`M`/`E`) the `E -> M` transition
    /// is applied; for `S`/`R`/`O` the caller follows up with an upgrade,
    /// for `Invalid` with the miss path. Equivalent to `state_of` +
    /// `write_hit_exclusive` on the silent-write path, with one tag-array
    /// scan instead of three.
    #[inline]
    pub fn write_probe(&mut self, proc: LocalProcId, block: BlockAddr) -> CacheState {
        self.cache_mut(proc).write_probe(block)
    }

    /// Records a write hit in `M`/`E` (silent `E -> M` transition, LRU
    /// refresh).
    ///
    /// # Panics
    ///
    /// Panics if the block is not resident in a state allowing a silent
    /// write.
    pub fn write_hit_exclusive(&mut self, proc: LocalProcId, block: BlockAddr) {
        let cache = self.cache_mut(proc);
        let s = cache.touch(block);
        assert!(
            s.allows_silent_write(),
            "write_hit_exclusive on block {block} in state {s}"
        );
        if s == CacheState::Exclusive {
            cache.set_state(block, CacheState::Modified);
        }
    }

    /// Finds a peer cache that can supply `block` to `requester` over the
    /// bus. Masters (`M`/`E`/`R`) win over plain sharers, matching bus
    /// priority rules. Returns the supplier and its current state.
    #[must_use]
    pub fn find_supplier(
        &self,
        requester: LocalProcId,
        block: BlockAddr,
    ) -> Option<(LocalProcId, CacheState)> {
        let mut sharer = None;
        for (i, cache) in self.caches.iter().enumerate() {
            let proc = LocalProcId(i as u16);
            if proc == requester {
                continue;
            }
            let s = cache.state_of(block);
            if s.is_master() {
                return Some((proc, s));
            }
            if s.is_valid() && sharer.is_none() {
                sharer = Some((proc, s));
            }
        }
        sharer
    }

    /// Services a read miss cache-to-cache: `supplier` puts the data on the
    /// bus (downgrading per MESIR), `requester` fills in `Shared`.
    ///
    /// # Panics
    ///
    /// Panics if the supplier does not hold the block.
    pub fn peer_read_supply(
        &mut self,
        requester: LocalProcId,
        supplier: LocalProcId,
        block: BlockAddr,
    ) -> PeerReadSupply {
        self.transactions += 1;
        let current = self.cache(supplier).state_of(block);
        assert!(
            current.is_valid(),
            "supplier {supplier} lacks block {block}"
        );
        let (next, dirty_downgrade) = if self.dirty_shared {
            mesir::supplier_next_state_dirty_shared(current)
        } else {
            mesir::supplier_next_state(current)
        };
        if next != current {
            self.cache_mut(supplier).set_state(block, next);
        }
        let eviction = self
            .cache_mut(requester)
            .fill(block, mesir::peer_read_fill_state());
        PeerReadSupply {
            supplier,
            dirty_downgrade,
            eviction,
        }
    }

    /// Services a write miss whose data can come from inside the cluster:
    /// every peer copy is invalidated (one may supply dirty data) and the
    /// requester fills in `Modified`.
    ///
    /// The caller must separately ensure the *cluster* owns the block
    /// machine-wide (directory transaction) when the peer copies are clean.
    pub fn peer_write_supply(
        &mut self,
        requester: LocalProcId,
        block: BlockAddr,
    ) -> PeerWriteSupply {
        self.transactions += 1;
        let mut took_dirty_data = false;
        let mut peers_invalidated = 0;
        for (i, cache) in self.caches.iter_mut().enumerate() {
            if i == usize::from(requester.0) {
                continue;
            }
            let s = cache.invalidate(block);
            if s.is_valid() {
                peers_invalidated += 1;
                if s.is_dirty() {
                    took_dirty_data = true;
                }
            }
        }
        let eviction = self
            .cache_mut(requester)
            .fill(block, mesir::write_fill_state());
        PeerWriteSupply {
            took_dirty_data,
            peers_invalidated,
            eviction,
        }
    }

    /// Performs a write **upgrade**: `proc` holds the block in a
    /// non-writable valid state (`S`/`R`); peers' copies are invalidated and
    /// `proc` moves to `Modified`. Returns the number of peer copies
    /// invalidated.
    ///
    /// # Panics
    ///
    /// Panics if `proc` does not hold the block in a valid state.
    pub fn upgrade(&mut self, proc: LocalProcId, block: BlockAddr) -> usize {
        self.transactions += 1;
        let s = self.cache(proc).state_of(block);
        assert!(s.is_valid(), "upgrade on absent block {block}");
        let mut invalidated = 0;
        for (i, cache) in self.caches.iter_mut().enumerate() {
            if i == usize::from(proc.0) {
                continue;
            }
            if cache.invalidate(block).is_valid() {
                invalidated += 1;
            }
        }
        let cache = self.cache_mut(proc);
        cache.touch(block);
        cache.set_state(block, CacheState::Modified);
        invalidated
    }

    /// Fills `block` into `proc`'s cache in `state` (data arrived from the
    /// network cache, page cache or remote home). Returns the victimized
    /// block, if the fill evicted one.
    pub fn fill(
        &mut self,
        proc: LocalProcId,
        block: BlockAddr,
        state: CacheState,
    ) -> Option<Eviction> {
        self.transactions += 1;
        self.cache_mut(proc).fill(block, state)
    }

    /// Invalidates every processor-cache copy of `block` (an external,
    /// directory-initiated invalidation).
    pub fn invalidate_all(&mut self, block: BlockAddr) -> InvalidationResult {
        self.transactions += 1;
        let mut result = InvalidationResult::default();
        for cache in &mut self.caches {
            let s = cache.invalidate(block);
            if s.is_valid() {
                result.copies_invalidated += 1;
                if s.is_dirty() {
                    result.had_dirty = true;
                }
            }
        }
        result
    }

    /// Downgrades a dirty (`M`) copy of `block` to `Shared` (a remote
    /// cluster's read reached the directory and the directory asked this
    /// cluster, the owner, to supply and clean the block). Returns `true`
    /// if a dirty copy was found. Tolerates absence: an `E` copy may have
    /// been silently replaced, in which case the home memory is already
    /// current. Clean (`E`) copies are downgraded to `Shared` as well.
    pub fn downgrade_to_shared(&mut self, block: BlockAddr) -> bool {
        self.transactions += 1;
        for cache in &mut self.caches {
            // Single scan per cache: the downgrade probe finds and
            // rewrites the master frame in one tag-array pass (PR-6
            // profiling flagged this path's double scan on radix).
            match cache.downgrade_master(block) {
                Some(CacheState::Modified | CacheState::Owned) => return true,
                Some(_) => return false, // Exclusive: memory already current
                None => {}
            }
        }
        false
    }

    /// MESIR replacement hand-off: after an `R` victimization, if a peer
    /// still holds the block `Shared`, one of them assumes mastership
    /// (`S -> R`) and the victim cache is *not* used. Returns `true` if a
    /// peer took mastership.
    pub fn promote_sharer(&mut self, block: BlockAddr) -> bool {
        for cache in &mut self.caches {
            // Single scan per cache (replacement path; see above).
            if cache.promote_if_shared(block) {
                self.transactions += 1;
                return true;
            }
        }
        false
    }

    /// Whether any processor cache in the cluster holds `block`.
    #[must_use]
    pub fn any_valid(&self, block: BlockAddr) -> bool {
        self.caches.iter().any(|c| c.contains(block))
    }

    /// Number of processor caches holding `block`.
    #[must_use]
    pub fn copies(&self, block: BlockAddr) -> usize {
        self.caches.iter().filter(|c| c.contains(block)).count()
    }

    /// Bus transactions carried so far. In-cache read and write hits never
    /// arbitrate for the bus and are not counted.
    #[must_use]
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// Empties every cache (between-phase reset in experiments).
    pub fn clear(&mut self) {
        self.caches.iter_mut().for_each(ProcCache::clear);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_types::ConfigError;

    const P0: LocalProcId = LocalProcId(0);
    const P1: LocalProcId = LocalProcId(1);
    const P2: LocalProcId = LocalProcId(2);
    const B: BlockAddr = BlockAddr(8);

    fn cluster() -> Result<BusCluster, ConfigError> {
        Ok(BusCluster::new(4, CacheShape::new(1024, 64, 2)?))
    }

    #[test]
    fn new_cluster_is_empty() {
        let c = cluster().unwrap();
        assert_eq!(c.procs(), 4);
        assert!(!c.any_valid(B));
        assert_eq!(c.copies(B), 0);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_procs_panics() {
        let _ = BusCluster::new(0, CacheShape::new(1024, 64, 2).unwrap());
    }

    #[test]
    fn find_supplier_prefers_master() {
        let mut c = cluster().unwrap();
        c.fill(P1, B, CacheState::Shared);
        c.fill(P2, B, CacheState::RemoteMaster);
        let (supplier, state) = c.find_supplier(P0, B).unwrap();
        assert_eq!(supplier, P2);
        assert_eq!(state, CacheState::RemoteMaster);
    }

    #[test]
    fn find_supplier_ignores_requester() {
        let mut c = cluster().unwrap();
        c.fill(P0, B, CacheState::Modified);
        assert!(c.find_supplier(P0, B).is_none());
    }

    #[test]
    fn peer_read_supply_from_r_keeps_mastership() {
        let mut c = cluster().unwrap();
        c.fill(P1, B, CacheState::RemoteMaster);
        let r = c.peer_read_supply(P0, P1, B);
        assert!(!r.dirty_downgrade);
        assert_eq!(c.state_of(P1, B), CacheState::RemoteMaster);
        assert_eq!(c.state_of(P0, B), CacheState::Shared);
    }

    #[test]
    fn peer_read_supply_from_m_downgrades_dirty() {
        let mut c = cluster().unwrap();
        c.fill(P1, B, CacheState::Modified);
        let r = c.peer_read_supply(P0, P1, B);
        assert!(r.dirty_downgrade);
        assert_eq!(c.state_of(P1, B), CacheState::Shared);
        assert_eq!(c.state_of(P0, B), CacheState::Shared);
    }

    #[test]
    fn peer_read_supply_reports_eviction() {
        let mut c = cluster().unwrap();
        // Requester's set for block 8 (set 0 of 8 sets): blocks 0 and 16
        // also map to set 0? 1024B/64B/2-way -> 8 sets; blocks 8 % 8 = 0.
        c.fill(P0, BlockAddr(0), CacheState::Modified);
        c.fill(P0, BlockAddr(16), CacheState::Shared);
        c.fill(P1, B, CacheState::Exclusive);
        let r = c.peer_read_supply(P0, P1, B);
        let ev = r.eviction.unwrap();
        assert_eq!(ev.block, BlockAddr(0));
        assert!(ev.state.is_dirty());
    }

    #[test]
    fn peer_write_supply_invalidates_everyone() {
        let mut c = cluster().unwrap();
        c.fill(P1, B, CacheState::Shared);
        c.fill(P2, B, CacheState::RemoteMaster);
        let r = c.peer_write_supply(P0, B);
        assert_eq!(r.peers_invalidated, 2);
        assert!(!r.took_dirty_data);
        assert_eq!(c.state_of(P0, B), CacheState::Modified);
        assert_eq!(c.copies(B), 1);
    }

    #[test]
    fn peer_write_supply_takes_dirty_data() {
        let mut c = cluster().unwrap();
        c.fill(P1, B, CacheState::Modified);
        let r = c.peer_write_supply(P0, B);
        assert!(r.took_dirty_data);
        assert_eq!(r.peers_invalidated, 1);
    }

    #[test]
    fn upgrade_invalidates_peers_and_sets_m() {
        let mut c = cluster().unwrap();
        c.fill(P0, B, CacheState::Shared);
        c.fill(P1, B, CacheState::Shared);
        c.fill(P2, B, CacheState::RemoteMaster);
        let n = c.upgrade(P0, B);
        assert_eq!(n, 2);
        assert_eq!(c.state_of(P0, B), CacheState::Modified);
        assert_eq!(c.copies(B), 1);
    }

    #[test]
    #[should_panic(expected = "upgrade on absent block")]
    fn upgrade_absent_panics() {
        let mut c = cluster().unwrap();
        c.upgrade(P0, B);
    }

    #[test]
    fn write_hit_exclusive_transitions_e_to_m() {
        let mut c = cluster().unwrap();
        c.fill(P0, B, CacheState::Exclusive);
        c.write_hit_exclusive(P0, B);
        assert_eq!(c.state_of(P0, B), CacheState::Modified);
        // Idempotent for M.
        c.write_hit_exclusive(P0, B);
        assert_eq!(c.state_of(P0, B), CacheState::Modified);
    }

    #[test]
    #[should_panic(expected = "write_hit_exclusive")]
    fn write_hit_exclusive_rejects_shared() {
        let mut c = cluster().unwrap();
        c.fill(P0, B, CacheState::Shared);
        c.write_hit_exclusive(P0, B);
    }

    #[test]
    fn invalidate_all_reports_dirty() {
        let mut c = cluster().unwrap();
        c.fill(P0, B, CacheState::Modified);
        c.fill(P1, B, CacheState::Shared); // (not a protocol-legal mix, but mechanism-level)
        let r = c.invalidate_all(B);
        assert_eq!(r.copies_invalidated, 2);
        assert!(r.had_dirty);
        assert!(!c.any_valid(B));
    }

    #[test]
    fn promote_sharer_hands_off_mastership() {
        let mut c = cluster().unwrap();
        c.fill(P1, B, CacheState::Shared);
        assert!(c.promote_sharer(B));
        assert_eq!(c.state_of(P1, B), CacheState::RemoteMaster);
        // No more plain sharers -> false.
        assert!(!c.promote_sharer(BlockAddr(99)));
    }

    #[test]
    fn clear_empties_all_caches() {
        let mut c = cluster().unwrap();
        c.fill(P0, B, CacheState::Modified);
        c.clear();
        assert!(!c.any_valid(B));
    }

    #[test]
    fn stats_count_bus_transactions() {
        let mut c = cluster().unwrap();
        c.fill(P0, B, CacheState::Shared); // fill
        c.read_hit(P0, B); // hit: not a transaction
        c.upgrade(P0, B); // upgrade
        c.write_hit_exclusive(P0, B); // hit: not a transaction
        c.peer_read_supply(P1, P0, B); // supply
        c.invalidate_all(B); // external invalidation

        // Transactions exclude the two in-cache hits.
        assert_eq!(c.transactions(), 4);

        c.fill(P1, B, CacheState::Shared); // fill
        c.downgrade_to_shared(B); // external downgrade
        assert!(c.promote_sharer(B)); // hand-off
        assert!(!c.promote_sharer(BlockAddr(99))); // no sharer: not a transaction
        assert_eq!(c.transactions(), 7);
    }
}
