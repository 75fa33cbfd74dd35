//! Allocate-on-fill network caches with relaxed or full inclusion
//! (the paper's `nc` and `NCD` configurations).

use dsm_cache::{CacheShape, SetAssoc};
use dsm_types::BlockAddr;

use super::{NcEviction, NcHit, VictimOutcome};
use crate::model::NcTechnology;

/// The state of an inclusion-NC entry.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum Entry {
    /// Valid clean copy (caches may hold additional clean copies).
    #[default]
    Clean,
    /// Valid dirty copy; the processor caches no longer hold the block
    /// dirty (its write-back landed here). Eviction requires a write-back.
    Dirty,
    /// A processor cache holds the block `Modified`; this entry is the
    /// inclusion placeholder. Evicting it forces the cache copy out
    /// (inclusion for dirty blocks) and produces a write-back.
    Shadow,
}

/// A network cache that allocates a frame on **every remote fill** and
/// maintains inclusion with the processor caches:
///
/// * `full_inclusion = false` — the paper's `nc`: inclusion is relaxed for
///   clean blocks (evicting a clean entry leaves cache copies alone, after
///   Fletcher et al.), but kept for dirty ones;
/// * `full_inclusion = true` — the `NCD` DRAM cache (NUMA-Q style): any
///   eviction forces the caches' copies out.
///
/// Unlike the victim organization, hits leave the entry in place (the NC
/// replicates what the caches hold), and clean victims from the caches are
/// *not* captured — clean replacements die silently as under plain MESI.
#[derive(Debug, Clone)]
pub struct InclusionNc {
    frames: SetAssoc<Entry>,
    full_inclusion: bool,
    technology: NcTechnology,
}

impl InclusionNc {
    /// Creates an inclusion NC.
    ///
    /// # Panics
    ///
    /// Panics if `technology` is [`NcTechnology::None`].
    #[must_use]
    pub fn new(shape: CacheShape, full_inclusion: bool, technology: NcTechnology) -> Self {
        assert!(
            technology != NcTechnology::None,
            "an inclusion NC needs a memory technology"
        );
        InclusionNc {
            frames: SetAssoc::new(shape),
            full_inclusion,
            technology,
        }
    }

    /// The paper's `nc`: SRAM, inclusion relaxed for clean blocks.
    #[must_use]
    pub fn sram_relaxed(shape: CacheShape) -> Self {
        InclusionNc::new(shape, false, NcTechnology::Sram)
    }

    /// The paper's `NCD`: DRAM, full inclusion.
    #[must_use]
    pub fn dram_full(shape: CacheShape) -> Self {
        InclusionNc::new(shape, true, NcTechnology::Dram)
    }

    /// The memory technology.
    #[must_use]
    pub fn technology(&self) -> NcTechnology {
        self.technology
    }

    fn set_of(&self, block: BlockAddr) -> usize {
        self.frames.shape().set_of_block(block)
    }

    fn eviction_of(&self, tag: u64, entry: Entry) -> Option<NcEviction> {
        let block = BlockAddr(tag);
        match entry {
            Entry::Clean => {
                if self.full_inclusion {
                    Some(NcEviction {
                        block,
                        dirty: false,
                        force_cache_eviction: true,
                    })
                } else {
                    // Relaxed inclusion: clean NC victims leave the caches
                    // alone and need no write-back.
                    None
                }
            }
            Entry::Dirty => Some(NcEviction {
                block,
                dirty: true,
                force_cache_eviction: self.full_inclusion,
            }),
            Entry::Shadow => Some(NcEviction {
                block,
                dirty: true,
                force_cache_eviction: true,
            }),
        }
    }

    fn insert(&mut self, block: BlockAddr, entry: Entry) -> Option<NcEviction> {
        let set = self.set_of(block);
        self.frames
            .insert(set, block.0, entry)
            .and_then(|(tag, old)| self.eviction_of(tag, old))
    }

    /// Hints `block`'s tag row into L1 ahead of the lookup replay will
    /// make for it.
    #[inline]
    pub fn prefetch(&self, block: BlockAddr) {
        self.frames.prefetch_set(self.set_of(block));
    }

    /// Allocates on a completed remote fill (`write` fills shadow the
    /// cache's `M` copy). Displaces at most one block.
    pub fn on_remote_fill(&mut self, block: BlockAddr, write: bool) -> Option<NcEviction> {
        let entry = if write { Entry::Shadow } else { Entry::Clean };
        self.insert(block, entry)
    }

    /// Read-miss lookup: hits on valid data, keeps the entry. A dirty hit
    /// hands the block to the cache `Modified`, so the entry becomes its
    /// shadow, as on a write hit.
    pub fn read_lookup(&mut self, block: BlockAddr) -> Option<NcHit> {
        let set = self.set_of(block);
        let entry = self.frames.get_mut(set, block.0)?;
        match *entry {
            Entry::Clean => Some(NcHit { dirty: false }),
            Entry::Dirty => {
                *entry = Entry::Shadow;
                Some(NcHit { dirty: true })
            }
            // A shadow entry has no data (the M copy lives in a cache);
            // the bus would have been answered by that cache already.
            Entry::Shadow => None,
        }
    }

    /// Write-miss lookup: hits supply data and the entry becomes a shadow
    /// of the cache's new `M` copy.
    pub fn write_lookup(&mut self, block: BlockAddr) -> Option<NcHit> {
        let set = self.set_of(block);
        match self.frames.get(set, block.0).copied() {
            Some(e @ (Entry::Clean | Entry::Dirty)) => {
                *self.frames.peek_mut(set, block.0).expect("present") = Entry::Shadow;
                Some(NcHit {
                    dirty: e == Entry::Dirty,
                })
            }
            Some(Entry::Shadow) | None => None,
        }
    }

    /// A victimized block from the caches: dirty write-backs land in the
    /// entry (shadow -> dirty); clean victims are ignored (no replacement
    /// transactions in this organization).
    pub fn on_victim(&mut self, block: BlockAddr, dirty: bool) -> VictimOutcome {
        if !dirty {
            return VictimOutcome::default();
        }
        let set = self.set_of(block);
        if let Some(e) = self.frames.peek_mut(set, block.0) {
            *e = Entry::Dirty;
            VictimOutcome {
                accepted: true,
                eviction: None,
                set: None,
            }
        } else {
            // Inclusion guarantees a dirty cache block has an entry; be
            // permissive and allocate if it is somehow gone.
            VictimOutcome {
                accepted: true,
                eviction: self.insert(block, Entry::Dirty),
                set: None,
            }
        }
    }

    /// A local processor took `M` ownership: the entry becomes a shadow
    /// (allocating one if needed — inclusion for dirty blocks).
    pub fn on_local_write(&mut self, block: BlockAddr) -> Option<NcEviction> {
        let set = self.set_of(block);
        if let Some(e) = self.frames.peek_mut(set, block.0) {
            *e = Entry::Shadow;
            None
        } else {
            self.insert(block, Entry::Shadow)
        }
    }

    /// A dirty downgrade write-back is on the bus; absorb it into the
    /// entry. Returns `true` (inclusion NCs always have or make room).
    pub fn absorb_downgrade(&mut self, block: BlockAddr) -> bool {
        let set = self.set_of(block);
        if let Some(e) = self.frames.peek_mut(set, block.0) {
            *e = Entry::Dirty;
        } else {
            // Entry lost (relaxed-clean eviction earlier): reallocate.
            let _ = self.insert(block, Entry::Dirty);
        }
        true
    }

    /// Removes the entry for a page re-mapping, reporting whether it held
    /// dirty *data* (shadow entries report `false`: the dirty data lives in
    /// a processor cache and is written back by the cache-level purge).
    pub fn purge(&mut self, block: BlockAddr) -> Option<NcHit> {
        let set = self.set_of(block);
        self.frames.remove(set, block.0).map(|e| NcHit {
            dirty: e == Entry::Dirty,
        })
    }

    /// An external downgrade (another cluster read a block this cluster
    /// owned): dirty/shadow entries become clean copies.
    pub fn on_external_downgrade(&mut self, block: BlockAddr) {
        let set = self.set_of(block);
        if let Some(e) = self.frames.peek_mut(set, block.0) {
            *e = Entry::Clean;
        }
    }

    /// External invalidation.
    pub fn invalidate(&mut self, block: BlockAddr) -> bool {
        let set = self.set_of(block);
        self.frames.remove(set, block.0).is_some()
    }

    /// Whether `block` has an entry (any state).
    #[must_use]
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.frames.peek(self.set_of(block), block.0).is_some()
    }

    /// Read-only probe of whether `block`'s entry holds dirty *data* (no
    /// LRU effect; shadow entries report `false` — their dirty data lives
    /// in a processor cache). `None` when not resident.
    #[must_use]
    pub fn peek_dirty(&self, block: BlockAddr) -> Option<bool> {
        self.frames
            .peek(self.set_of(block), block.0)
            .map(|e| *e == Entry::Dirty)
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the NC is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn relaxed() -> InclusionNc {
        // 4 sets x 4 ways.
        InclusionNc::sram_relaxed(CacheShape::new(1024, 64, 4).unwrap())
    }

    fn tiny_full() -> InclusionNc {
        InclusionNc::new(
            CacheShape::from_sets_ways(1, 1, 64).unwrap(),
            true,
            NcTechnology::Dram,
        )
    }

    #[test]
    fn fills_allocate_and_hit() {
        let mut nc = relaxed();
        let b = BlockAddr(7);
        assert!(nc.on_remote_fill(b, false).is_none());
        assert_eq!(nc.read_lookup(b), Some(NcHit { dirty: false }));
        // Entry stays after a read hit.
        assert!(nc.contains(b));
    }

    #[test]
    fn relaxed_clean_eviction_is_silent() {
        let mut nc = InclusionNc::sram_relaxed(CacheShape::from_sets_ways(1, 1, 64).unwrap());
        nc.on_remote_fill(BlockAddr(1), false);
        let ev = nc.on_remote_fill(BlockAddr(2), false);
        assert!(ev.is_none(), "clean eviction must not reach the caches");
    }

    #[test]
    fn full_inclusion_clean_eviction_forces_caches() {
        let mut nc = tiny_full();
        nc.on_remote_fill(BlockAddr(1), false);
        let ev = nc.on_remote_fill(BlockAddr(2), false).expect("displaced");
        assert!(ev.force_cache_eviction);
        assert!(!ev.dirty);
    }

    #[test]
    fn shadow_eviction_forces_and_writes_back() {
        let mut nc = InclusionNc::sram_relaxed(CacheShape::from_sets_ways(1, 1, 64).unwrap());
        nc.on_remote_fill(BlockAddr(1), true); // write fill -> shadow
        let ev = nc.on_remote_fill(BlockAddr(2), false).expect("displaced");
        assert!(ev.dirty);
        assert!(ev.force_cache_eviction);
    }

    #[test]
    fn writeback_converts_shadow_to_dirty() {
        let mut nc = relaxed();
        let b = BlockAddr(3);
        nc.on_remote_fill(b, true);
        let out = nc.on_victim(b, true);
        assert!(out.accepted);
        assert_eq!(nc.read_lookup(b), Some(NcHit { dirty: true }));
    }

    #[test]
    fn clean_victims_are_ignored() {
        let mut nc = relaxed();
        let out = nc.on_victim(BlockAddr(9), false);
        assert!(!out.accepted);
        assert!(!nc.contains(BlockAddr(9)));
    }

    #[test]
    fn dirty_read_hit_shadows_the_entry() {
        // The cache installs a dirty read hit `Modified`: the entry must
        // become its shadow, so relaxed inclusion still evicts (and
        // writes back) the cache's copy rather than a stale `Dirty` one.
        let mut nc = InclusionNc::sram_relaxed(CacheShape::from_sets_ways(1, 1, 64).unwrap());
        let b = BlockAddr(7);
        nc.on_remote_fill(b, true);
        nc.on_victim(b, true);
        assert_eq!(nc.read_lookup(b), Some(NcHit { dirty: true }));
        assert!(nc.read_lookup(b).is_none(), "shadowed after the dirty hit");
        let ev = nc.on_remote_fill(BlockAddr(8), false).expect("displaced");
        assert!(ev.dirty);
        assert!(ev.force_cache_eviction);
    }

    #[test]
    fn shadow_does_not_answer_lookups() {
        let mut nc = relaxed();
        let b = BlockAddr(4);
        nc.on_remote_fill(b, true);
        assert!(nc.read_lookup(b).is_none());
        assert!(nc.write_lookup(b).is_none());
    }

    #[test]
    fn write_lookup_shadows_the_entry() {
        let mut nc = relaxed();
        let b = BlockAddr(4);
        nc.on_remote_fill(b, false);
        assert_eq!(nc.write_lookup(b), Some(NcHit { dirty: false }));
        // Now shadowed: no further hits until the write-back returns.
        assert!(nc.read_lookup(b).is_none());
        nc.on_victim(b, true);
        assert_eq!(nc.read_lookup(b), Some(NcHit { dirty: true }));
    }

    #[test]
    fn local_write_shadows_or_allocates() {
        let mut nc = relaxed();
        let b = BlockAddr(5);
        nc.on_remote_fill(b, false);
        assert!(nc.on_local_write(b).is_none());
        assert!(nc.read_lookup(b).is_none()); // shadowed
                                              // Absent entry: allocated as shadow.
        let b2 = BlockAddr(6);
        nc.on_local_write(b2);
        assert!(nc.contains(b2));
    }

    #[test]
    fn absorb_downgrade_revives_lost_entries() {
        let mut nc = relaxed();
        let b = BlockAddr(8);
        assert!(nc.absorb_downgrade(b));
        assert_eq!(nc.read_lookup(b), Some(NcHit { dirty: true }));
    }

    #[test]
    fn dirty_eviction_writes_back_without_forcing_when_relaxed() {
        let mut nc = InclusionNc::sram_relaxed(CacheShape::from_sets_ways(1, 1, 64).unwrap());
        nc.on_remote_fill(BlockAddr(1), false);
        nc.on_victim(BlockAddr(1), true); // entry -> dirty
        let ev = nc.on_remote_fill(BlockAddr(2), false).expect("displaced");
        assert!(ev.dirty);
        assert!(!ev.force_cache_eviction);
    }

    #[test]
    fn invalidate_drops_entry() {
        let mut nc = relaxed();
        nc.on_remote_fill(BlockAddr(1), false);
        assert!(nc.invalidate(BlockAddr(1)));
        assert!(!nc.invalidate(BlockAddr(1)));
        assert!(nc.is_empty());
    }

    #[test]
    #[should_panic(expected = "memory technology")]
    fn rejects_none_technology() {
        let _ = InclusionNc::new(
            CacheShape::new(1024, 64, 4).unwrap(),
            false,
            NcTechnology::None,
        );
    }
}
