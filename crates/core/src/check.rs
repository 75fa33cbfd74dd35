//! The coherence invariant checker: a read-only audit of the whole
//! machine state. [`System::run_shared_checked`] runs it every `K`
//! references on the batched replay loop that produces every figure:
//! the loop stops exactly on each multiple of `K` by cutting a batch
//! short ([`System::run_shared_windowed`]), so at `K = 1` a violation
//! names the exact reference that exposed it. With checks off the loop
//! pays one branch per batch.
//!
//! Every probe used here is side-effect free (no LRU updates, no state
//! transitions), so interleaving checks with replay cannot perturb the
//! simulation — a checked run produces the same metrics as an unchecked
//! one.
//!
//! # The invariants
//!
//! Per cluster, aggregated over that cluster's processor caches:
//!
//! 1. **Exclusivity** — at most one `M`/`E` copy of a block, and an
//!    `M`/`E` copy is the *only* valid copy in the cluster.
//! 2. **Master uniqueness** — at most one shared-master (`R`/`O`) copy
//!    per cluster: MESIR designates exactly one cluster master to answer
//!    bus snoops and emit the replacement transaction.
//! 3. **Victim-NC exclusion** — a victim NC holds only blocks the
//!    processor caches victimized, so an `M`/`E` copy and a victim-NC
//!    entry for the same block cannot coexist. (Scoped to victim NCs:
//!    inclusion and infinite NCs deliberately keep a *shadow* entry
//!    behind a local `M` copy, and S/R copies legitimately coexist with
//!    victim-NC pollution left by other pages.)
//! 4. **Dirty-copy consistency** — a dirty (`M`/`O`) copy implies the
//!    directory names this cluster as owner, and neither the local NC
//!    nor the local page cache also claims dirty data for the block
//!    (the machine would have two versions of truth).
//! 5. **Presence coverage** — the directory's sharer set covers every
//!    cluster holding a cached copy, *except* blocks of pages resident
//!    in the cluster's own page cache: R-NUMA relocation fills page-
//!    cache frames without directory transactions, and page-cache hits
//!    fill processor caches the same way. Those copies are reclaimed by
//!    the page-eviction flash-invalidate rather than directory
//!    invalidations, so the directory legitimately never sees them.
//! 6. **Page-cache dirtiness** — a `Dirty` page-cache block implies the
//!    directory names this cluster as owner (the PC absorbed the
//!    cluster's last dirty copy without writing back to the home).
//!
//! Deliberately **not** asserted: the converse of invariant 4 (a
//! directory owner need not hold a copy — `E`-state copies die silently
//! on replacement, leaving a stale owner the protocol recovers from on
//! the next request), and machine-wide dirty uniqueness (it follows
//! from invariant 4, because `owner_of` is single-valued).

use dsm_cache::CacheState;
use dsm_types::{BlockAddr, ClusterId, DsmError, FxHashMap, LocalProcId};

use crate::nc::NcUnit;
use crate::page_cache::PcBlockState;
use crate::probe::Probe;
use crate::system::System;

/// Per-cluster aggregate of one block's processor-cache copies.
#[derive(Debug, Default, Clone, Copy)]
struct Copies {
    /// Valid copies in any state.
    valid: u32,
    /// `M` or `E` copies.
    exclusive: u32,
    /// Shared-master (`R` or `O`) copies.
    master_shared: u32,
    /// Dirty (`M` or `O`) copies.
    dirty: u32,
}

/// Builds an invariant-violation error naming the block and cluster.
fn violation(block: BlockAddr, cl: ClusterId, detail: &str) -> DsmError {
    DsmError::invariant(format!("{block} in {cl}: {detail}"))
}

impl<P: Probe> System<P> {
    /// Audits the coherence invariants over the entire machine state
    /// (documented in [the module docs](crate::check)). Read-only: no
    /// LRU state or metric is touched.
    ///
    /// # Errors
    ///
    /// Returns a [`DsmError`] of kind
    /// [`ErrorKind::InvariantViolation`](dsm_types::ErrorKind) naming
    /// the first violated invariant, the block, and the cluster.
    pub fn check_invariants(&self) -> Result<(), DsmError> {
        let mut copies: FxHashMap<u64, Copies> = FxHashMap::default();
        for (c, cluster) in self.clusters.iter().enumerate() {
            let cl = ClusterId(c as u16);

            // Aggregate this cluster's processor-cache copies per block.
            copies.clear();
            for p in 0..cluster.bus.procs() {
                let proc = LocalProcId(p as u16);
                for (block, state) in cluster.bus.cache(proc).iter() {
                    if !state.is_valid() {
                        continue; // defensive: iter should skip these
                    }
                    let e = copies.entry(block.0).or_default();
                    e.valid += 1;
                    if matches!(state, CacheState::Modified | CacheState::Exclusive) {
                        e.exclusive += 1;
                    }
                    if matches!(state, CacheState::RemoteMaster | CacheState::Owned) {
                        e.master_shared += 1;
                    }
                    if state.is_dirty() {
                        e.dirty += 1;
                    }
                }
            }

            let victim_nc = matches!(cluster.nc, NcUnit::Victim(_));
            for (&raw, agg) in &copies {
                let block = BlockAddr(raw);

                // 1. Exclusivity.
                if agg.exclusive > 1 {
                    return Err(violation(
                        block,
                        cl,
                        &format!("{} M/E copies in one cluster", agg.exclusive),
                    ));
                }
                if agg.exclusive == 1 && agg.valid > 1 {
                    return Err(violation(
                        block,
                        cl,
                        &format!(
                            "an M/E copy coexists with {} other valid copies",
                            agg.valid - 1
                        ),
                    ));
                }

                // 2. Master uniqueness.
                if agg.master_shared > 1 {
                    return Err(violation(
                        block,
                        cl,
                        &format!("{} R/O cluster-master copies", agg.master_shared),
                    ));
                }

                // 3. Victim-NC exclusion.
                if victim_nc && agg.exclusive == 1 && cluster.nc.contains(block) {
                    return Err(violation(
                        block,
                        cl,
                        "an M/E copy coexists with a victim-NC entry",
                    ));
                }

                // 4. Dirty-copy consistency.
                if agg.dirty >= 1 {
                    let owner = self.dir.owner_of(block);
                    if owner != Some(cl) {
                        return Err(violation(
                            block,
                            cl,
                            &format!(
                                "a dirty copy is cached but the directory owner is {}",
                                match owner {
                                    Some(o) => o.to_string(),
                                    None => "unset".to_string(),
                                }
                            ),
                        ));
                    }
                    if cluster.nc.peek_dirty(block) == Some(true) {
                        return Err(violation(
                            block,
                            cl,
                            "a dirty cache copy coexists with a dirty NC entry",
                        ));
                    }
                    if let Some(pc) = &cluster.pc {
                        if pc.block_state(block) == Some(PcBlockState::Dirty) {
                            return Err(violation(
                                block,
                                cl,
                                "a dirty cache copy coexists with a dirty PC block",
                            ));
                        }
                    }
                }

                // 5. Presence coverage. Blocks of locally PC-resident
                // pages are exempt (filled without directory
                // transactions; see the module docs).
                let pc_resident = cluster
                    .pc
                    .as_ref()
                    .is_some_and(|pc| pc.has_page(self.geo.page_of_block(block)));
                if !pc_resident && !self.dir.sharer_set(block).contains(cl) {
                    return Err(violation(
                        block,
                        cl,
                        "a cached copy is missing from the directory sharer set",
                    ));
                }
            }

            // 6. Page-cache dirtiness.
            if let Some(pc) = &cluster.pc {
                for page in pc.pages() {
                    for (block, state) in pc.page_blocks(page) {
                        if state == PcBlockState::Dirty && self.dir.owner_of(block) != Some(cl) {
                            return Err(violation(
                                block,
                                cl,
                                "a dirty PC block is not owned by this cluster",
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}
