//! Zero-overhead-when-disabled observability: the [`Probe`] trait, the
//! structured [`Event`] taxonomy, the [`EventCounts`] table every counting
//! observer keeps, and epoch-sampled [`EpochSample`] time series.
//!
//! # Design
//!
//! [`System`](crate::System) is generic over a [`Probe`]. The default,
//! [`NoProbe`], has `ENABLED = false`; every emission site is guarded by
//! `if P::ENABLED`, a constant the compiler folds away, so the
//! un-instrumented simulator is byte-for-byte the uninstrumented hot loop
//! — no dynamic dispatch, no branch, no formatting. Enabling observation
//! is a type choice (`System::with_probe`), not a runtime flag.
//!
//! # Event taxonomy
//!
//! Events mirror the paper's accounting, one variant per countable
//! occurrence (see [`Event`]): processor-cache hits and upgrades, in-bus
//! peer transfers, network-cache hits/captures/victimizations, page-cache
//! hits, directory transactions (remote reads/writes/ownership requests),
//! invalidations, write-backs and absorbed downgrades, page relocations
//! and evictions, adaptive-threshold adjustments, and the Origin-style
//! migration/replication actions. Each event carries the cluster it
//! happened in and the block/page it concerns, so sinks can build
//! per-cluster and per-page views without re-simulating.
//!
//! [`EVENT_KINDS`] declares each kind's tag and [`Phase`] once, and
//! [`EventCounts`] is the one per-kind, per-cluster tally of them; the
//! simulator itself counts only [`Metrics`].
//!
//! # Epochs
//!
//! Independent of per-event tracing, a system with a configured epoch
//! window (`set_epoch_window`) snapshots its counters every N shared
//! references and hands the probe the *delta* ([`EpochSample`]): the
//! [`Metrics`] gained this epoch, per-cluster counts projected from the
//! epoch's own [`EventCounts`], and the live relocation thresholds.
//! Summing all epoch deltas reproduces the final aggregate exactly — an
//! invariant the integration tests assert.

use dsm_types::{BlockAddr, ClusterId, PageAddr};

use crate::metrics::{ClusterCounts, Metrics};
use crate::phase::Phase;

/// One structured observation from the simulator core.
///
/// Variants are `Copy` and carry only ids/addresses, so emitting one is a
/// handful of register moves even for recording sinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Event {
    /// A reference hit in the issuing processor's own cache.
    CacheHit {
        /// Cluster issuing the reference.
        cluster: ClusterId,
        /// `true` for a write hit.
        write: bool,
    },
    /// A write upgrade satisfied without a directory transaction.
    LocalUpgrade {
        /// Cluster issuing the write.
        cluster: ClusterId,
        /// Block upgraded.
        block: BlockAddr,
    },
    /// A miss supplied cache-to-cache by a peer on the cluster bus.
    PeerTransfer {
        /// Cluster whose bus carried the transfer.
        cluster: ClusterId,
        /// Block transferred.
        block: BlockAddr,
        /// `true` for a write miss.
        write: bool,
    },
    /// A remote-data miss served by the cluster's network cache.
    NcHit {
        /// Cluster whose NC hit.
        cluster: ClusterId,
        /// Block served.
        block: BlockAddr,
        /// `true` for a write miss.
        write: bool,
        /// The NC copy was dirty (cluster owns the block).
        dirty: bool,
    },
    /// A remote-data miss served by the cluster's page cache.
    PcHit {
        /// Cluster whose page cache hit.
        cluster: ClusterId,
        /// Resident page.
        page: PageAddr,
        /// Block served.
        block: BlockAddr,
        /// `true` for a write miss.
        write: bool,
    },
    /// A miss to local data served by home memory (not a remote event).
    LocalMiss {
        /// Home (and issuing) cluster.
        cluster: ClusterId,
        /// Block served.
        block: BlockAddr,
    },
    /// A read miss serviced by a remote home via the directory.
    RemoteRead {
        /// Cluster that missed.
        cluster: ClusterId,
        /// Block read.
        block: BlockAddr,
        /// Presence bit was already set (capacity/conflict miss).
        capacity: bool,
    },
    /// A write miss/upgrade requiring a remote directory transaction.
    RemoteWrite {
        /// Cluster that missed.
        cluster: ClusterId,
        /// Block written.
        block: BlockAddr,
        /// Presence bit was already set (capacity/conflict miss).
        capacity: bool,
    },
    /// An ownership-only directory transaction (data supplied in-cluster).
    OwnershipRequest {
        /// Cluster acquiring exclusivity.
        cluster: ClusterId,
        /// Block involved.
        block: BlockAddr,
    },
    /// Directory-ordered invalidations applied at one cluster.
    Invalidation {
        /// Cluster receiving the invalidation.
        cluster: ClusterId,
        /// Block invalidated.
        block: BlockAddr,
        /// Processor-cache copies destroyed (NC/PC copies not included).
        copies: u32,
    },
    /// A dirty block crossed the network back to its remote home.
    RemoteWriteback {
        /// Cluster writing back.
        cluster: ClusterId,
        /// Block written back.
        block: BlockAddr,
    },
    /// A dirty downgrade absorbed by the NC or page cache instead of
    /// updating the remote home.
    AbsorbedDowngrade {
        /// Cluster absorbing.
        cluster: ClusterId,
        /// Block downgraded.
        block: BlockAddr,
    },
    /// A victim block accepted by the network cache (MESIR `R` capture
    /// when clean).
    NcCapture {
        /// Cluster whose NC captured.
        cluster: ClusterId,
        /// Block captured.
        block: BlockAddr,
        /// The victim was dirty.
        dirty: bool,
        /// Victim-NC set index, when the NC is set-indexed.
        set: Option<usize>,
    },
    /// A block forcibly evicted from processor caches (NC inclusion or
    /// page re-mapping).
    ForcedEviction {
        /// Cluster evicting.
        cluster: ClusterId,
        /// Block evicted.
        block: BlockAddr,
    },
    /// A page relocated into a cluster's page cache.
    Relocation {
        /// Cluster gaining the page.
        cluster: ClusterId,
        /// Page relocated.
        page: PageAddr,
    },
    /// A page lost its page-cache frame to a new relocation.
    PageEviction {
        /// Cluster losing the page.
        cluster: ClusterId,
        /// Page evicted.
        page: PageAddr,
        /// Dirty blocks written back as part of the eviction.
        dirty_blocks: u32,
        /// The frame's hit count at eviction (thrashing signal).
        hits: u32,
    },
    /// The adaptive policy detected thrashing and raised a threshold.
    ThresholdAdapted {
        /// Cluster whose threshold changed.
        cluster: ClusterId,
        /// The new (raised) relocation threshold.
        threshold: u32,
    },
    /// An Origin-style page migration to a new home.
    Migration {
        /// The page's new home cluster.
        cluster: ClusterId,
        /// Page migrated.
        page: PageAddr,
    },
    /// A read-only page replicated into a cluster's local memory.
    Replication {
        /// Cluster gaining the replica.
        cluster: ClusterId,
        /// Page replicated.
        page: PageAddr,
    },
    /// A write collapsed a page's replica set.
    ReplicaCollapse {
        /// Cluster whose write collapsed the replicas.
        cluster: ClusterId,
        /// Page collapsed.
        page: PageAddr,
    },
}

impl Event {
    /// Number of event kinds: the columns of an [`EventCounts`] row.
    pub const KINDS: usize = 20;

    /// The variant's column in [`EVENT_KINDS`] and [`EventCounts`].
    #[must_use]
    pub fn index(&self) -> usize {
        match self {
            Event::CacheHit { .. } => 0,
            Event::LocalUpgrade { .. } => 1,
            Event::PeerTransfer { .. } => 2,
            Event::NcHit { .. } => 3,
            Event::PcHit { .. } => 4,
            Event::LocalMiss { .. } => 5,
            Event::RemoteRead { .. } => 6,
            Event::RemoteWrite { .. } => 7,
            Event::OwnershipRequest { .. } => 8,
            Event::Invalidation { .. } => 9,
            Event::RemoteWriteback { .. } => 10,
            Event::AbsorbedDowngrade { .. } => 11,
            Event::NcCapture { .. } => 12,
            Event::ForcedEviction { .. } => 13,
            Event::Relocation { .. } => 14,
            Event::PageEviction { .. } => 15,
            Event::ThresholdAdapted { .. } => 16,
            Event::Migration { .. } => 17,
            Event::Replication { .. } => 18,
            Event::ReplicaCollapse { .. } => 19,
        }
    }

    /// A stable snake_case tag for the variant (JSONL `"ev"` field,
    /// histogram keys).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        EVENT_KINDS[self.index()].0
    }

    /// The cluster the event happened in (every variant has one).
    #[must_use]
    pub fn cluster(&self) -> ClusterId {
        match *self {
            Event::CacheHit { cluster, .. }
            | Event::LocalUpgrade { cluster, .. }
            | Event::PeerTransfer { cluster, .. }
            | Event::NcHit { cluster, .. }
            | Event::PcHit { cluster, .. }
            | Event::LocalMiss { cluster, .. }
            | Event::RemoteRead { cluster, .. }
            | Event::RemoteWrite { cluster, .. }
            | Event::OwnershipRequest { cluster, .. }
            | Event::Invalidation { cluster, .. }
            | Event::RemoteWriteback { cluster, .. }
            | Event::AbsorbedDowngrade { cluster, .. }
            | Event::NcCapture { cluster, .. }
            | Event::ForcedEviction { cluster, .. }
            | Event::Relocation { cluster, .. }
            | Event::PageEviction { cluster, .. }
            | Event::ThresholdAdapted { cluster, .. }
            | Event::Migration { cluster, .. }
            | Event::Replication { cluster, .. }
            | Event::ReplicaCollapse { cluster, .. } => cluster,
        }
    }
}

/// Each event kind's tag and [`Phase`], in [`Event::index`] order.
pub const EVENT_KINDS: [(&str, Phase); Event::KINDS] = [
    ("cache_hit", Phase::CacheHit),
    ("local_upgrade", Phase::CacheHit),
    ("peer_transfer", Phase::BusTransfer),
    ("nc_hit", Phase::NcLookup),
    ("pc_hit", Phase::PageCachePath),
    ("local_miss", Phase::LocalFill),
    ("remote_read", Phase::RemoteFill),
    ("remote_write", Phase::RemoteFill),
    ("ownership_request", Phase::DirectoryProbe),
    ("invalidation", Phase::DirectoryProbe),
    ("remote_writeback", Phase::VictimPath),
    ("absorbed_downgrade", Phase::VictimPath),
    ("nc_capture", Phase::VictimPath),
    ("forced_eviction", Phase::VictimPath),
    ("relocation", Phase::Relocation),
    ("page_eviction", Phase::Relocation),
    ("threshold_adapted", Phase::Relocation),
    ("migration", Phase::Relocation),
    ("replication", Phase::Relocation),
    ("replica_collapse", Phase::Relocation),
];

/// Emitted events tallied with one row per cluster and one column per
/// [`Event::index`]. The stats sink, the phase counters and the epoch
/// sampler each keep one; their by-kind, per-cluster, by-phase and
/// [`ClusterCounts`] views are projections of it. Rows grow to the
/// highest cluster seen.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventCounts {
    rows: Vec<[u64; Event::KINDS]>,
}

impl EventCounts {
    /// Counts one event in its cluster's row.
    #[inline]
    pub(crate) fn record(&mut self, event: &Event) {
        let c = usize::from(event.cluster().0);
        if c >= self.rows.len() {
            self.rows.resize(c + 1, [0; Event::KINDS]);
        }
        self.rows[c][event.index()] += 1;
    }

    /// Adds every row of `other` into `self`.
    pub(crate) fn merge(&mut self, other: &EventCounts) {
        if self.rows.len() < other.rows.len() {
            self.rows.resize(other.rows.len(), [0; Event::KINDS]);
        }
        for (into, from) in self.rows.iter_mut().zip(&other.rows) {
            into.iter_mut().zip(from).for_each(|(a, b)| *a += b);
        }
    }

    /// One row per cluster, up to the highest cluster seen.
    #[must_use]
    pub(crate) fn rows(&self) -> &[[u64; Event::KINDS]] {
        &self.rows
    }

    /// Every cluster's events summed, by kind.
    #[must_use]
    pub(crate) fn kind_totals(&self) -> [u64; Event::KINDS] {
        self.rows.iter().fold([0; Event::KINDS], |mut totals, row| {
            totals.iter_mut().zip(row).for_each(|(t, n)| *t += n);
            totals
        })
    }

    /// All events counted.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.rows.iter().flatten().sum()
    }

    /// The kinds seen, with their counts, descending (ties by tag).
    #[must_use]
    pub fn kind_counts(&self) -> Vec<(&'static str, u64)> {
        let mut v: Vec<_> = EVENT_KINDS
            .iter()
            .zip(self.kind_totals())
            .filter(|&(_, n)| n > 0)
            .map(|(&(tag, _), n)| (tag, n))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v
    }

    /// Events per cluster (index = cluster id).
    #[must_use]
    pub fn cluster_totals(&self) -> Vec<u64> {
        self.rows.iter().map(|row| row.iter().sum()).collect()
    }

    /// Cluster `cluster`'s [`ClusterCounts`]; zero past the highest
    /// cluster seen. Every shared reference emits exactly one
    /// primary-phase event in its issuing cluster, so `refs` counts
    /// those; remote writes are write misses plus ownership requests.
    #[must_use]
    pub fn cluster_counts(&self, cluster: usize) -> ClusterCounts {
        let row = self.rows.get(cluster).copied().unwrap_or([0; Event::KINDS]);
        let n = |kind: &str| {
            let k = EVENT_KINDS.iter().position(|(tag, _)| *tag == kind);
            k.map_or(0, |k| row[k])
        };
        ClusterCounts {
            refs: EVENT_KINDS
                .iter()
                .zip(&row)
                .filter(|((_, phase), _)| phase.is_primary())
                .map(|(_, n)| n)
                .sum(),
            remote_reads: n("remote_read"),
            remote_writes: n("remote_write") + n("ownership_request"),
            nc_hits: n("nc_hit"),
            pc_hits: n("pc_hit"),
            relocations: n("relocation"),
        }
    }
}

/// One epoch of the sampled time series: the counters gained over a
/// window of shared references.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochSample {
    /// Epoch number, 0-based.
    pub index: u64,
    /// First shared reference of the epoch (0-based, inclusive).
    pub start_ref: u64,
    /// One past the last shared reference of the epoch.
    pub end_ref: u64,
    /// Counters gained during this epoch (`Metrics::merge` of all epochs
    /// reproduces the run aggregate).
    pub delta: Metrics,
    /// Per-cluster counters gained during this epoch, one per cluster of
    /// the topology (a cluster that emitted nothing gets a zero row).
    pub per_cluster: Vec<ClusterCounts>,
    /// Each cluster's relocation threshold at epoch end (Fig-6 dynamics).
    pub thresholds: Vec<u32>,
}

impl EpochSample {
    /// References in this epoch.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.end_ref - self.start_ref
    }

    /// Whether the epoch is empty (only possible for a trailing flush).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.end_ref == self.start_ref
    }
}

/// The observer interface the simulator core is generic over.
///
/// Implementations receive every [`Event`] and every [`EpochSample`]; the
/// associated `ENABLED` constant lets the compiler erase all emission
/// sites when observation is off (see [`NoProbe`]).
pub trait Probe {
    /// Whether emission sites are compiled in. Implementations that
    /// observe must leave this `true` (the default).
    const ENABLED: bool = true;

    /// Called at every structured event. `at` is the number of shared
    /// references processed so far (1-based: the current reference).
    fn event(&mut self, at: u64, event: &Event) {
        let _ = (at, event);
    }

    /// Called at every closed epoch (and once more by
    /// [`System::finish`](crate::System::finish) for the partial tail).
    fn epoch(&mut self, sample: &EpochSample) {
        let _ = sample;
    }
}

/// The default probe: observation off, emission sites compiled away.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoProbe;

impl Probe for NoProbe {
    const ENABLED: bool = false;
}

/// Fans every observation out to two probes (e.g. a [`StatsSink`]
/// alongside a JSONL event log).
///
/// [`StatsSink`]: crate::obs::StatsSink
#[derive(Debug, Clone, Default)]
pub struct Tee<A, B>(
    /// First receiver.
    pub A,
    /// Second receiver.
    pub B,
);

impl<A: Probe, B: Probe> Probe for Tee<A, B> {
    const ENABLED: bool = true;

    fn event(&mut self, at: u64, event: &Event) {
        self.0.event(at, event);
        self.1.event(at, event);
    }

    fn epoch(&mut self, sample: &EpochSample) {
        self.0.epoch(sample);
        self.1.epoch(sample);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noprobe_is_disabled() {
        // Read through a generic fn so the assertion isn't on a literal
        // constant: this is exactly how `System::emit` sees the flag.
        fn enabled<P: Probe>(_: &P) -> bool {
            P::ENABLED
        }
        assert!(!enabled(&NoProbe));
        assert!(enabled(&crate::obs::StatsSink::new()));
    }

    #[test]
    fn kinds_are_unique() {
        let mut kinds: Vec<&str> = EVENT_KINDS.iter().map(|(kind, _)| *kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), Event::KINDS);
    }

    #[test]
    fn tee_forwards_to_both() {
        #[derive(Default)]
        struct Count(u64, u64);
        impl Probe for Count {
            fn event(&mut self, _at: u64, _e: &Event) {
                self.0 += 1;
            }
            fn epoch(&mut self, _s: &EpochSample) {
                self.1 += 1;
            }
        }
        let mut tee = Tee(Count::default(), Count::default());
        tee.event(
            1,
            &Event::CacheHit {
                cluster: ClusterId(0),
                write: false,
            },
        );
        tee.epoch(&EpochSample {
            index: 0,
            start_ref: 0,
            end_ref: 1,
            delta: Metrics::new(),
            per_cluster: vec![],
            thresholds: vec![],
        });
        assert_eq!((tee.0 .0, tee.0 .1), (1, 1));
        assert_eq!((tee.1 .0, tee.1 .1), (1, 1));
    }
}
