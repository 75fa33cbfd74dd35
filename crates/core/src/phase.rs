//! Phase-level hot-path profiling: attribute per-reference work to
//! protocol phases and estimate each phase's latency contribution.
//!
//! # Design
//!
//! The final [`Metrics`] aggregate says *how many* misses a run produced;
//! it cannot say *where the cycles went* — whether a configuration lost
//! its throughput to the victim-buffer path, to directory-only
//! transactions, or to page relocations. This module adds that
//! attribution as a [`Probe`] implementation, [`PhaseProfiler`], so it
//! rides the same compile-time on/off switch as every other observer:
//! under the default [`NoProbe`](crate::NoProbe) the emission sites fold
//! away and the simulator's hot loop is byte-for-byte un-instrumented.
//!
//! # Phases
//!
//! Every [`Event`] maps to exactly one [`Phase`] in [`EVENT_KINDS`]
//! (a new event variant is a compile error, not a silently unattributed
//! count), and phase counts roll up from an [`EventCounts`] table. The
//! first six phases are *primary*: each shared reference emits exactly
//! one primary event — its service classification — so the primary phase
//! counts partition [`Metrics::shared_refs`] exactly
//! ([`Metrics::primary_services`]). The remaining phases count secondary
//! work (directory-only transactions, victim traffic, OS page operations)
//! that accompanies the primary services.
//!
//! # Cost attribution
//!
//! Each event is charged an estimated cost in bus cycles from the
//! system's [`LatencyModel`] (Tables 1-2), chosen so the per-phase sums
//! reconcile with the paper's Equation 1 terms: NC lookups cost
//! `nc_hit`, page-cache hits `pc_hit`, remote fills `remote_miss`, and
//! OS page operations the full 225-cycle relocation — so
//! `cycles(Relocation) == os_page_ops x 225` exactly. Costs are
//! estimates of *contribution*, not a contention model: the paper's own
//! model is contention-free, and so is this attribution.
//!
//! # Histograms
//!
//! Per phase, two allocation-free log-bucketed histograms
//! ([`LogHistogram`], fixed inline arrays): the per-event estimated cost
//! and the inter-arrival gap in shared references (burstiness — a
//! victim path that fires every few references is a different problem
//! from one that fires in rare storms of thousands).

use crate::config::SystemSpec;
#[cfg(doc)]
use crate::metrics::Metrics;
use crate::model::{Latencies, LatencyModel};
use crate::obs::json::Json;
use crate::probe::{Event, EventCounts, Probe, EVENT_KINDS};

/// A protocol phase: where a unit of coherence work happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Hits in the issuing processor's own cache (incl. silent upgrades).
    CacheHit = 0,
    /// Misses supplied cache-to-cache by a peer on the cluster bus.
    BusTransfer = 1,
    /// Remote-data misses served by the network cache.
    NcLookup = 2,
    /// Remote-data misses served by the page cache.
    PageCachePath = 3,
    /// Misses to local data filled from home memory.
    LocalFill = 4,
    /// Misses filled by a remote home over the network.
    RemoteFill = 5,
    /// Directory-only transactions: ownership requests and invalidations.
    DirectoryProbe = 6,
    /// Victim-buffer traffic: NC captures, forced evictions, write-backs
    /// and absorbed downgrades.
    VictimPath = 7,
    /// OS page operations: relocations, page evictions, migrations,
    /// replications, threshold adaptation and replica collapses.
    Relocation = 8,
}

/// All phases, in table/JSON order.
pub const PHASES: [Phase; Phase::COUNT] = [
    Phase::CacheHit,
    Phase::BusTransfer,
    Phase::NcLookup,
    Phase::PageCachePath,
    Phase::LocalFill,
    Phase::RemoteFill,
    Phase::DirectoryProbe,
    Phase::VictimPath,
    Phase::Relocation,
];

impl Phase {
    /// Number of phases (array dimensions below).
    pub const COUNT: usize = 9;

    /// The phase an event belongs to, from [`EVENT_KINDS`].
    #[must_use]
    pub fn of(event: &Event) -> Phase {
        EVENT_KINDS[event.index()].1
    }

    /// A row of per-kind counts ([`EventCounts::rows`]) summed by phase.
    #[must_use]
    pub(crate) fn roll_up(row: &[u64; Event::KINDS]) -> [u64; Phase::COUNT] {
        let mut phases = [0; Phase::COUNT];
        for ((_, phase), n) in EVENT_KINDS.iter().zip(row) {
            phases[phase.index()] += n;
        }
        phases
    }

    /// Stable snake_case tag (JSON `"phase"` field, table rows).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Phase::CacheHit => "cache_hit",
            Phase::BusTransfer => "bus_transfer",
            Phase::NcLookup => "nc_lookup",
            Phase::PageCachePath => "page_cache",
            Phase::LocalFill => "local_fill",
            Phase::RemoteFill => "remote_fill",
            Phase::DirectoryProbe => "directory_probe",
            Phase::VictimPath => "victim_path",
            Phase::Relocation => "relocation",
        }
    }

    /// Array index of this phase (declaration order).
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether this phase is a primary service classification: every
    /// shared reference lands in exactly one primary phase, so the
    /// primary counts partition [`Metrics::shared_refs`].
    #[must_use]
    pub fn is_primary(self) -> bool {
        matches!(
            self,
            Phase::CacheHit
                | Phase::BusTransfer
                | Phase::NcLookup
                | Phase::PageCachePath
                | Phase::LocalFill
                | Phase::RemoteFill
        )
    }
}

/// A log2-bucketed histogram over `u64` samples, fixed-size and
/// allocation-free (the profiler keeps one inline per phase).
///
/// Bucket 0 counts zero samples; bucket `i > 0` counts samples in
/// `[2^(i-1), 2^i)`, so 65 buckets cover the full `u64` range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; LogHistogram::BUCKETS],
}

impl LogHistogram {
    /// Number of buckets (zero bucket + one per bit of `u64`).
    pub const BUCKETS: usize = 65;

    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LogHistogram {
            buckets: [0; LogHistogram::BUCKETS],
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
    }

    /// The bucket index a value falls in.
    #[must_use]
    pub fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// The inclusive lower bound of bucket `i`.
    #[must_use]
    pub fn bucket_floor(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// The count in bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= Self::BUCKETS`.
    #[must_use]
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Whether no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|&b| b == 0)
    }

    /// Adds every bucket of `other` into `self`.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (into, from) in self.buckets.iter_mut().zip(&other.buckets) {
            *into += from;
        }
    }

    /// Sparse JSON form: an array of `[bucket_floor, count]` pairs for
    /// the non-empty buckets (log histograms are mostly empty).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.buckets
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(i, &n)| Json::Arr(vec![Json::U64(Self::bucket_floor(i)), Json::U64(n)]))
                .collect(),
        )
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

/// Per-phase counters accumulated over a replay: events by cluster and
/// kind (rolled up into phase counts and per-cluster rows), estimated
/// cycle contribution, and cost/gap histograms. Mergeable across points
/// like [`Metrics`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PhaseCounters {
    events: EventCounts,
    cycles: [u64; Phase::COUNT],
    cost: [LogHistogram; Phase::COUNT],
    gap: [LogHistogram; Phase::COUNT],
}

impl PhaseCounters {
    /// Zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        PhaseCounters::default()
    }

    /// Events attributed to `phase`.
    #[must_use]
    pub fn count(&self, phase: Phase) -> u64 {
        Phase::roll_up(&self.events.kind_totals())[phase.index()]
    }

    /// Estimated bus cycles attributed to `phase`.
    #[must_use]
    pub fn cycles(&self, phase: Phase) -> u64 {
        self.cycles[phase.index()]
    }

    /// Total events across all phases.
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.events.total()
    }

    /// Total estimated cycles across all phases.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Events in the primary phases — equals [`Metrics::shared_refs`]
    /// for a full replay (each reference has exactly one primary
    /// service; the identity tests assert this).
    #[must_use]
    pub fn primary_events(&self) -> u64 {
        PHASES
            .iter()
            .filter(|p| p.is_primary())
            .map(|p| self.count(*p))
            .sum()
    }

    /// The per-event estimated-cost histogram of `phase`.
    #[must_use]
    pub fn cost_histogram(&self, phase: Phase) -> &LogHistogram {
        &self.cost[phase.index()]
    }

    /// The inter-arrival gap histogram of `phase` (shared references
    /// between consecutive events of the phase).
    #[must_use]
    pub fn gap_histogram(&self, phase: Phase) -> &LogHistogram {
        &self.gap[phase.index()]
    }

    /// Per-cluster event counts: `per_cluster()[c][p]` is the events of
    /// phase index `p` in cluster `c`. Summed over clusters this equals
    /// the machine-wide [`PhaseCounters::count`] of each phase — the
    /// occupancy identity the tests assert.
    #[must_use]
    pub fn per_cluster(&self) -> Vec<[u64; Phase::COUNT]> {
        self.events.rows().iter().map(Phase::roll_up).collect()
    }

    /// All events attributed to cluster `c` (any phase); 0 when the
    /// cluster never produced an event.
    #[must_use]
    pub fn cluster_events(&self, c: usize) -> u64 {
        self.events.rows().get(c).map_or(0, |row| row.iter().sum())
    }

    /// Adds every counter, histogram and per-cluster row of `other` into
    /// `self` (the per-point merge; commutative like [`Metrics::merge`]).
    pub fn merge(&mut self, other: &PhaseCounters) {
        self.events.merge(&other.events);
        for p in 0..Phase::COUNT {
            self.cycles[p] += other.cycles[p];
            self.cost[p].merge(&other.cost[p]);
            self.gap[p].merge(&other.gap[p]);
        }
    }

    fn record(&mut self, at: u64, event: &Event, phase: Phase, cost: u64, last_at: u64) {
        self.events.record(event);
        let p = phase.index();
        self.cycles[p] += cost;
        self.cost[p].record(cost);
        self.gap[p].record(at.saturating_sub(last_at));
    }

    /// JSON form (the `timings.json` rollups and `profile --out`
    /// schema): per-phase objects with counts, estimated cycles and
    /// sparse histograms, plus the per-cluster count matrix.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let phases = PHASES
            .iter()
            .map(|&p| {
                Json::obj()
                    .set("phase", p.label())
                    .set("events", self.count(p))
                    .set("est_cycles", self.cycles(p))
                    .set("cost_hist", self.cost_histogram(p).to_json())
                    .set("gap_hist", self.gap_histogram(p).to_json())
            })
            .collect();
        let per_cluster = self
            .per_cluster()
            .iter()
            .map(|row| Json::Arr(row.iter().map(|&n| Json::U64(n)).collect()))
            .collect();
        Json::obj()
            .set("phases", Json::Arr(phases))
            .set("per_cluster", Json::Arr(per_cluster))
            .set("total_events", self.total_events())
            .set("est_total_cycles", self.total_cycles())
    }

    /// Renders the phase-cost table the `profile` binary prints:
    /// per-phase events, event rate, estimated cycles and cycle share,
    /// with a totals row. `refs` is the replay length in shared
    /// references (the rate denominator).
    #[must_use]
    pub fn render_table(&self, refs: u64) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<16} {:>14} {:>10} {:>16} {:>9} {:>7}",
            "phase", "events", "/kref", "est cycles", "cyc/ref", "share%"
        );
        let total_cycles = self.total_cycles();
        let per_kref = |n: u64| {
            if refs == 0 {
                0.0
            } else {
                n as f64 * 1000.0 / refs as f64
            }
        };
        let share = |c: u64| {
            if total_cycles == 0 {
                0.0
            } else {
                c as f64 * 100.0 / total_cycles as f64
            }
        };
        for &p in &PHASES {
            let _ = writeln!(
                out,
                "{:<16} {:>14} {:>10.2} {:>16} {:>9.3} {:>7.1}",
                p.label(),
                self.count(p),
                per_kref(self.count(p)),
                self.cycles(p),
                if refs == 0 {
                    0.0
                } else {
                    self.cycles(p) as f64 / refs as f64
                },
                share(self.cycles(p)),
            );
        }
        let _ = writeln!(
            out,
            "{:<16} {:>14} {:>10.2} {:>16} {:>9.3} {:>7.1}",
            "total",
            self.total_events(),
            per_kref(self.total_events()),
            total_cycles,
            if refs == 0 {
                0.0
            } else {
                total_cycles as f64 / refs as f64
            },
            if total_cycles == 0 { 0.0 } else { 100.0 },
        );
        out
    }
}

/// The phase-attributing probe: classifies every event into a [`Phase`]
/// and charges it an estimated cost from the system's latency model.
///
/// Use through [`System::with_probe`](crate::System::with_probe) or
/// [`run_trace_probed`](crate::runner::run_trace_probed); compose with
/// other sinks via [`Tee`](crate::Tee). When profiling is off (the
/// default [`NoProbe`](crate::NoProbe) system), none of this code is
/// reachable — zero cost by construction, not by measurement.
#[derive(Debug, Clone)]
pub struct PhaseProfiler {
    counters: PhaseCounters,
    model: LatencyModel,
    last_at: [u64; Phase::COUNT],
}

impl PhaseProfiler {
    /// A profiler charging costs from `model`.
    #[must_use]
    pub fn new(model: LatencyModel) -> Self {
        PhaseProfiler {
            counters: PhaseCounters::new(),
            model,
            last_at: [0; Phase::COUNT],
        }
    }

    /// A profiler with the cost model the given spec implies (paper
    /// Table 2 latencies, NC technology from the spec) — matches the
    /// model a [`System`](crate::System) built from `spec` uses.
    #[must_use]
    pub fn for_spec(spec: &SystemSpec) -> Self {
        PhaseProfiler::new(LatencyModel::new(
            Latencies::paper_default(),
            spec.technology(),
        ))
    }

    /// The accumulated counters.
    #[must_use]
    pub fn counters(&self) -> &PhaseCounters {
        &self.counters
    }

    /// Consumes the profiler, returning the counters.
    #[must_use]
    pub fn into_counters(self) -> PhaseCounters {
        self.counters
    }

    /// The estimated cost of one event in bus cycles.
    ///
    /// Primary fills use the Table 1 composition ([`LatencyModel`]), so
    /// phase cycle sums reconcile with Equation 1 terms; secondary
    /// events are charged the Table 2 latency of the bus/network
    /// operation they stand for. Invalidations cost one bus transfer per
    /// destroyed copy; bookkeeping-only events (threshold adaptation,
    /// replica collapse, the page-eviction frame scrub whose write-backs
    /// are charged separately) cost zero.
    #[must_use]
    pub fn cost_of(&self, event: &Event) -> u64 {
        let l = self.model.latencies();
        match event {
            Event::CacheHit { .. } | Event::LocalUpgrade { .. } => 0,
            Event::PeerTransfer { .. } => l.cache_to_cache,
            Event::NcHit { .. } => self.model.nc_hit(),
            Event::PcHit { .. } => self.model.pc_hit(),
            Event::LocalMiss { .. } => l.dram_access,
            Event::RemoteRead { .. } | Event::RemoteWrite { .. } => self.model.remote_miss(),
            Event::OwnershipRequest { .. } => l.remote_access,
            Event::Invalidation { copies, .. } => l.cache_to_cache * u64::from(*copies),
            Event::RemoteWriteback { .. } => l.remote_access,
            Event::AbsorbedDowngrade { .. } => l.cache_to_cache,
            Event::NcCapture { .. } => l.cache_to_cache,
            Event::ForcedEviction { .. } => l.tag_check,
            Event::Relocation { .. } | Event::Migration { .. } | Event::Replication { .. } => {
                self.model.relocation()
            }
            Event::PageEviction { .. }
            | Event::ThresholdAdapted { .. }
            | Event::ReplicaCollapse { .. } => 0,
        }
    }
}

impl Probe for PhaseProfiler {
    fn event(&mut self, at: u64, event: &Event) {
        let phase = Phase::of(event);
        let cost = self.cost_of(event);
        let last = std::mem::replace(&mut self.last_at[phase.index()], at);
        self.counters.record(at, event, phase, cost, last);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ClusterCounts;
    use crate::model::NcTechnology;
    use dsm_types::{BlockAddr, ClusterId, PageAddr};

    fn sram_profiler() -> PhaseProfiler {
        PhaseProfiler::new(LatencyModel::new(
            Latencies::paper_default(),
            NcTechnology::Sram,
        ))
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 1);
        assert_eq!(LogHistogram::bucket_of(2), 2);
        assert_eq!(LogHistogram::bucket_of(3), 2);
        assert_eq!(LogHistogram::bucket_of(4), 3);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 64);
        assert_eq!(LogHistogram::bucket_floor(0), 0);
        assert_eq!(LogHistogram::bucket_floor(1), 1);
        assert_eq!(LogHistogram::bucket_floor(5), 16);
        // Floors invert bucket_of at bucket boundaries.
        for i in 1..LogHistogram::BUCKETS {
            assert_eq!(LogHistogram::bucket_of(LogHistogram::bucket_floor(i)), i);
        }
    }

    #[test]
    fn histogram_record_merge_and_json() {
        let mut h = LogHistogram::new();
        assert!(h.is_empty());
        for v in [0, 1, 1, 3, 30, 225] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.bucket(0), 1); // the zero
        assert_eq!(h.bucket(1), 2); // the ones
        assert_eq!(h.bucket(2), 1); // 3
        assert_eq!(h.bucket(5), 1); // 30 in [16,32)
        assert_eq!(h.bucket(8), 1); // 225 in [128,256)
        let mut merged = h;
        merged.merge(&h);
        assert_eq!(merged.count(), 12);
        // Sparse JSON: one [floor, count] pair per non-empty bucket.
        let json = h.to_json();
        let pairs = json.as_array().unwrap();
        assert_eq!(pairs.len(), 5);
        assert_eq!(pairs[0].as_array().unwrap()[0].as_u64(), Some(0));
        assert_eq!(pairs[0].as_array().unwrap()[1].as_u64(), Some(1));
    }

    /// One event of every kind, in [`EVENT_KINDS`] order, all in
    /// cluster `c`.
    fn one_of_each_kind(c: ClusterId) -> [Event; Event::KINDS] {
        let b = BlockAddr(7);
        let pg = PageAddr(3);
        [
            Event::CacheHit {
                cluster: c,
                write: false,
            },
            Event::LocalUpgrade {
                cluster: c,
                block: b,
            },
            Event::PeerTransfer {
                cluster: c,
                block: b,
                write: true,
            },
            Event::NcHit {
                cluster: c,
                block: b,
                write: false,
                dirty: false,
            },
            Event::PcHit {
                cluster: c,
                page: pg,
                block: b,
                write: false,
            },
            Event::LocalMiss {
                cluster: c,
                block: b,
            },
            Event::RemoteRead {
                cluster: c,
                block: b,
                capacity: false,
            },
            Event::RemoteWrite {
                cluster: c,
                block: b,
                capacity: true,
            },
            Event::OwnershipRequest {
                cluster: c,
                block: b,
            },
            Event::Invalidation {
                cluster: c,
                block: b,
                copies: 3,
            },
            Event::RemoteWriteback {
                cluster: c,
                block: b,
            },
            Event::AbsorbedDowngrade {
                cluster: c,
                block: b,
            },
            Event::NcCapture {
                cluster: c,
                block: b,
                dirty: true,
                set: None,
            },
            Event::ForcedEviction {
                cluster: c,
                block: b,
            },
            Event::Relocation {
                cluster: c,
                page: pg,
            },
            Event::PageEviction {
                cluster: c,
                page: pg,
                dirty_blocks: 2,
                hits: 5,
            },
            Event::ThresholdAdapted {
                cluster: c,
                threshold: 64,
            },
            Event::Migration {
                cluster: c,
                page: pg,
            },
            Event::Replication {
                cluster: c,
                page: pg,
            },
            Event::ReplicaCollapse {
                cluster: c,
                page: pg,
            },
        ]
    }

    #[test]
    fn every_event_kind_has_a_phase_and_cost() {
        let events = one_of_each_kind(ClusterId(1));
        // Each kind has its own column, in table order.
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.index(), i);
            assert_eq!(e.kind(), EVENT_KINDS[i].0);
        }
        let mut profiler = sram_profiler();
        for (i, e) in events.iter().enumerate() {
            profiler.event(i as u64 + 1, e);
        }
        let counters = profiler.counters();
        assert_eq!(counters.total_events(), events.len() as u64);
        // The partition is total: every event landed in some phase.
        let by_phase: u64 = PHASES.iter().map(|&p| counters.count(p)).sum();
        assert_eq!(by_phase, events.len() as u64);
        // Spot-check the SRAM Table 1/2 costs.
        assert_eq!(counters.cycles(Phase::NcLookup), 1);
        assert_eq!(counters.cycles(Phase::PageCachePath), 10);
        assert_eq!(counters.cycles(Phase::RemoteFill), 60);
        assert_eq!(counters.cycles(Phase::DirectoryProbe), 30 + 3);
        assert_eq!(counters.cycles(Phase::VictimPath), 30 + 1 + 1 + 3);
        assert_eq!(counters.cycles(Phase::Relocation), 3 * 225);
        // All 20 events happened in cluster 1.
        assert_eq!(counters.cluster_events(0), 0);
        assert_eq!(counters.cluster_events(1), events.len() as u64);
    }

    #[test]
    fn event_counts_roll_up_to_phase_of() {
        let events = one_of_each_kind(ClusterId(2));
        let mut counts = EventCounts::default();
        let mut expected = [0; Phase::COUNT];
        for e in &events {
            counts.record(e);
            expected[Phase::of(e).index()] += 1;
        }
        // Rows grow to the highest cluster seen.
        assert_eq!(counts.rows().len(), 3);
        assert_eq!(counts.rows()[2], [1; Event::KINDS]);
        assert_eq!(Phase::roll_up(&counts.kind_totals()), expected);
        assert_eq!(counts.cluster_totals(), [0, 0, Event::KINDS as u64]);
        assert!(counts.kind_counts().iter().all(|&(_, n)| n == 1));
        assert_eq!(counts.kind_counts().len(), Event::KINDS);
    }

    #[test]
    fn event_counts_project_cluster_counts() {
        let mut counts = EventCounts::default();
        for e in &one_of_each_kind(ClusterId(1)) {
            counts.record(e);
        }
        counts.record(&Event::RemoteRead {
            cluster: ClusterId(1),
            block: BlockAddr(9),
            capacity: true,
        });
        assert_eq!(
            counts.cluster_counts(1),
            ClusterCounts {
                // One per primary kind: the cache hit, upgrade, peer
                // transfer, NC hit, PC hit, local miss and both remote
                // fills.
                refs: 9,
                remote_reads: 2,
                // The remote write and the ownership request.
                remote_writes: 2,
                nc_hits: 1,
                pc_hits: 1,
                relocations: 1,
            }
        );
        assert_eq!(counts.cluster_counts(0), ClusterCounts::default());
        assert_eq!(counts.cluster_counts(5), ClusterCounts::default());
    }

    #[test]
    fn primary_phases_are_the_service_classifications() {
        let primaries: Vec<Phase> = PHASES.iter().copied().filter(|p| p.is_primary()).collect();
        assert_eq!(
            primaries,
            [
                Phase::CacheHit,
                Phase::BusTransfer,
                Phase::NcLookup,
                Phase::PageCachePath,
                Phase::LocalFill,
                Phase::RemoteFill
            ]
        );
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = PHASES.iter().map(|p| p.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Phase::COUNT);
    }

    #[test]
    fn merge_sums_counts_cycles_and_clusters() {
        let mut a = sram_profiler();
        let mut b = sram_profiler();
        a.event(
            1,
            &Event::NcHit {
                cluster: ClusterId(0),
                block: BlockAddr(1),
                write: false,
                dirty: false,
            },
        );
        b.event(
            1,
            &Event::NcHit {
                cluster: ClusterId(2),
                block: BlockAddr(2),
                write: true,
                dirty: true,
            },
        );
        b.event(
            2,
            &Event::Relocation {
                cluster: ClusterId(2),
                page: PageAddr(0),
            },
        );
        let mut merged = a.counters().clone();
        merged.merge(b.counters());
        assert_eq!(merged.count(Phase::NcLookup), 2);
        assert_eq!(merged.cycles(Phase::NcLookup), 2);
        assert_eq!(merged.count(Phase::Relocation), 1);
        assert_eq!(merged.per_cluster().len(), 3);
        assert_eq!(merged.cluster_events(0), 1);
        assert_eq!(merged.cluster_events(2), 2);
        assert_eq!(merged.total_events(), 3);
        // Merge is commutative.
        let mut other_way = b.counters().clone();
        other_way.merge(a.counters());
        assert_eq!(other_way, merged);
    }

    #[test]
    fn gap_histogram_tracks_inter_arrival() {
        let mut p = sram_profiler();
        let hit = |at: u64, p: &mut PhaseProfiler| {
            p.event(
                at,
                &Event::CacheHit {
                    cluster: ClusterId(0),
                    write: false,
                },
            );
        };
        hit(1, &mut p);
        hit(2, &mut p);
        hit(10, &mut p);
        let gaps = p.counters().gap_histogram(Phase::CacheHit);
        assert_eq!(gaps.count(), 3);
        assert_eq!(gaps.bucket(1), 2); // gaps of 1 (first event: 1 - 0)
        assert_eq!(gaps.bucket(4), 1); // gap of 8
    }

    #[test]
    fn table_and_json_have_all_phases() {
        let mut p = sram_profiler();
        p.event(
            1,
            &Event::PcHit {
                cluster: ClusterId(0),
                page: PageAddr(0),
                block: BlockAddr(0),
                write: false,
            },
        );
        let table = p.counters().render_table(1);
        for phase in &PHASES {
            assert!(table.contains(phase.label()), "missing {}", phase.label());
        }
        assert!(table.contains("total"));
        let json = p.counters().to_json();
        assert_eq!(
            json.get("phases")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(Phase::COUNT)
        );
        assert_eq!(json.get("total_events").and_then(Json::as_u64), Some(1));
        assert_eq!(
            json.get("est_total_cycles").and_then(Json::as_u64),
            Some(10)
        );
        // Round-trips through the hand-rolled parser byte-identically.
        let text = json.render();
        assert_eq!(Json::parse(&text).unwrap().render(), text);
    }
}
