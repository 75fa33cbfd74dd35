//! Unbounded network caches: the `NCS` ideal and the infinite-DRAM
//! normalization baseline.

use dsm_types::{BlockAddr, DenseMap};

use super::NcHit;
use crate::model::NcTechnology;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    Clean,
    Dirty,
    Shadow,
}

/// An infinite network cache: allocates on every remote fill and victim,
/// never evicts. After the first fetch of a block, only coherence
/// invalidations can remove it, so the directory sees exactly the
/// *necessary* misses — the paper's saturation point for any RDC design.
///
/// With [`NcTechnology::Sram`] this is `NCS` (Figure 9's ideal); with
/// [`NcTechnology::Dram`] it is the baseline all of Figures 9-11 normalize
/// against.
#[derive(Debug, Clone)]
pub struct InfiniteNc {
    entries: DenseMap<Entry>,
    technology: NcTechnology,
}

impl InfiniteNc {
    /// Creates an infinite NC of the given technology.
    ///
    /// # Panics
    ///
    /// Panics if `technology` is [`NcTechnology::None`].
    #[must_use]
    pub fn new(technology: NcTechnology) -> Self {
        assert!(
            technology != NcTechnology::None,
            "an infinite NC needs a memory technology"
        );
        InfiniteNc {
            entries: DenseMap::new(),
            technology,
        }
    }

    /// The memory technology.
    #[must_use]
    pub fn technology(&self) -> NcTechnology {
        self.technology
    }

    /// Hints `block`'s entry's home slot into L1 ahead of the lookup
    /// replay will make for it.
    #[inline]
    pub fn prefetch(&self, block: BlockAddr) {
        self.entries.prefetch(block.0);
    }

    /// Allocates on a completed remote fill.
    pub fn on_remote_fill(&mut self, block: BlockAddr, write: bool) {
        let entry = if write { Entry::Shadow } else { Entry::Clean };
        self.entries.insert(block.0, entry);
    }

    /// Read-miss lookup; the entry stays. A dirty hit hands the block to
    /// the cache `Modified`, so the entry becomes its shadow, as on a
    /// write hit.
    pub fn read_lookup(&mut self, block: BlockAddr) -> Option<NcHit> {
        let entry = self.entries.get_mut(block.0)?;
        match *entry {
            Entry::Clean => Some(NcHit { dirty: false }),
            Entry::Dirty => {
                *entry = Entry::Shadow;
                Some(NcHit { dirty: true })
            }
            Entry::Shadow => None,
        }
    }

    /// Write-miss lookup; a hit shadows the entry behind the cache's `M`.
    pub fn write_lookup(&mut self, block: BlockAddr) -> Option<NcHit> {
        match self.entries.get(block.0).copied() {
            Some(e @ (Entry::Clean | Entry::Dirty)) => {
                self.entries.insert(block.0, Entry::Shadow);
                Some(NcHit {
                    dirty: e == Entry::Dirty,
                })
            }
            Some(Entry::Shadow) | None => None,
        }
    }

    /// Captures a victim (dirty write-backs refresh the entry; clean `R`
    /// replacements land as clean copies). Never evicts anything.
    pub fn on_victim(&mut self, block: BlockAddr, dirty: bool) -> super::VictimOutcome {
        let entry = if dirty { Entry::Dirty } else { Entry::Clean };
        self.entries.insert(block.0, entry);
        super::VictimOutcome {
            accepted: true,
            eviction: None,
            set: None,
        }
    }

    /// A local processor took `M`: shadow the entry.
    pub fn on_local_write(&mut self, block: BlockAddr) {
        self.entries.insert(block.0, Entry::Shadow);
    }

    /// Absorbs a dirty downgrade write-back.
    pub fn absorb_downgrade(&mut self, block: BlockAddr) {
        self.entries.insert(block.0, Entry::Dirty);
    }

    /// Removes the entry for a page re-mapping, reporting whether it held
    /// dirty data.
    pub fn purge(&mut self, block: BlockAddr) -> Option<NcHit> {
        self.entries.remove(block.0).map(|e| NcHit {
            dirty: e == Entry::Dirty,
        })
    }

    /// An external downgrade: dirty/shadow entries become clean.
    pub fn on_external_downgrade(&mut self, block: BlockAddr) {
        if let Some(e) = self.entries.get_mut(block.0) {
            *e = Entry::Clean;
        }
    }

    /// External invalidation.
    pub fn invalidate(&mut self, block: BlockAddr) -> bool {
        self.entries.remove(block.0).is_some()
    }

    /// Whether `block` has an entry.
    #[must_use]
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.entries.contains_key(block.0)
    }

    /// Read-only probe of whether `block`'s entry holds dirty data
    /// (shadow entries report `false`); `None` when not resident.
    #[must_use]
    pub fn peek_dirty(&self, block: BlockAddr) -> Option<bool> {
        self.entries.get(block.0).map(|e| *e == Entry::Dirty)
    }

    /// Number of blocks held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_evicts() {
        let mut nc = InfiniteNc::new(NcTechnology::Sram);
        for i in 0..10_000 {
            nc.on_remote_fill(BlockAddr(i), false);
        }
        assert_eq!(nc.len(), 10_000);
        assert!(nc.read_lookup(BlockAddr(0)).is_some());
    }

    #[test]
    fn victims_and_fills_coexist() {
        let mut nc = InfiniteNc::new(NcTechnology::Dram);
        nc.on_victim(BlockAddr(1), true);
        assert_eq!(nc.read_lookup(BlockAddr(1)), Some(NcHit { dirty: true }));
        nc.on_victim(BlockAddr(2), false);
        assert_eq!(nc.read_lookup(BlockAddr(2)), Some(NcHit { dirty: false }));
    }

    #[test]
    fn shadow_cycle() {
        let mut nc = InfiniteNc::new(NcTechnology::Sram);
        nc.on_remote_fill(BlockAddr(1), false);
        assert!(nc.write_lookup(BlockAddr(1)).is_some());
        assert!(nc.read_lookup(BlockAddr(1)).is_none()); // shadowed
        nc.on_victim(BlockAddr(1), true); // write-back returns
        assert_eq!(nc.read_lookup(BlockAddr(1)), Some(NcHit { dirty: true }));
    }

    #[test]
    fn dirty_read_hit_shadows_the_entry() {
        let mut nc = InfiniteNc::new(NcTechnology::Dram);
        nc.on_victim(BlockAddr(1), true);
        assert_eq!(nc.read_lookup(BlockAddr(1)), Some(NcHit { dirty: true }));
        // The cache now holds the block `Modified`: no dirty NC data.
        assert_eq!(nc.peek_dirty(BlockAddr(1)), Some(false));
        assert!(nc.read_lookup(BlockAddr(1)).is_none());
        nc.on_victim(BlockAddr(1), true); // its write-back returns
        assert_eq!(nc.peek_dirty(BlockAddr(1)), Some(true));
    }

    #[test]
    fn invalidation_is_the_only_removal() {
        let mut nc = InfiniteNc::new(NcTechnology::Sram);
        nc.on_remote_fill(BlockAddr(1), false);
        assert!(nc.invalidate(BlockAddr(1)));
        assert!(nc.is_empty());
        assert!(nc.read_lookup(BlockAddr(1)).is_none());
    }

    #[test]
    #[should_panic(expected = "memory technology")]
    fn rejects_none_technology() {
        let _ = InfiniteNc::new(NcTechnology::None);
    }
}
