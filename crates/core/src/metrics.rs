//! Event counters and the derived figures-of-merit.

use crate::model::LatencyModel;

/// Everything the simulator counts, machine-wide.
///
/// The paper's metrics derive from these:
///
/// * **cluster miss ratio** (Figures 3-8): references to remote data that
///   leave the cluster, as a percentage of all shared references, split
///   into reads and writes, with page-relocation overhead expressed in
///   equivalent misses;
/// * **remote read stall** (Figure 9, Equation 1);
/// * **remote data traffic** (Figure 10): read misses + write misses +
///   write-backs crossing the network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Metrics {
    /// All shared references processed.
    pub shared_refs: u64,
    /// Shared reads.
    pub reads: u64,
    /// Shared writes.
    pub writes: u64,

    /// Read hits in the issuing processor's own cache.
    pub read_hits: u64,
    /// Write hits (`M`, or silent `E -> M`).
    pub write_hits: u64,
    /// Write upgrades satisfied without a directory transaction.
    pub local_upgrades: u64,
    /// Misses supplied cache-to-cache by a peer in the same cluster.
    pub peer_transfers: u64,

    /// Read misses to remote data that hit in the network cache.
    pub nc_read_hits: u64,
    /// Write misses to remote data whose data came from the network cache.
    pub nc_write_hits: u64,
    /// Read misses to remote data that hit in the page cache.
    pub pc_read_hits: u64,
    /// Write misses to remote data whose data came from the page cache.
    pub pc_write_hits: u64,

    /// Read misses to remote data serviced by the home node, classified as
    /// *necessary* (cold/coherence: the requester's presence bit was clear).
    pub remote_read_necessary: u64,
    /// ... and as capacity/conflict (presence bit already set).
    pub remote_read_capacity: u64,
    /// Write misses/upgrades to remote data requiring a directory
    /// transaction, necessary.
    pub remote_write_necessary: u64,
    /// ... and capacity/conflict.
    pub remote_write_capacity: u64,
    /// Ownership-only directory transactions for remote data: the write's
    /// *data* was supplied inside the cluster (peer cache, NC or PC held a
    /// clean copy) but exclusivity had to be acquired from the home. These
    /// cross the network (they count as cluster write misses and traffic)
    /// but are not the reference's primary service classification.
    pub remote_ownership_requests: u64,

    /// Misses to *local* data that left the processor caches (served by
    /// local memory; not part of the paper's remote metrics).
    pub local_misses: u64,

    /// Dirty blocks written back across the network to a remote home.
    pub remote_writebacks: u64,
    /// Pages relocated into page caches.
    pub relocations: u64,
    /// Blocks invalidated in caches/NCs/PCs by remote writes.
    pub invalidations: u64,
    /// Blocks forcibly evicted from processor caches by NC inclusion or by
    /// page-cache page evictions (re-mapping evictions).
    pub forced_evictions: u64,
    /// Victim blocks accepted by the network cache.
    pub nc_captures: u64,
    /// Dirty downgrades (M -> S on a peer read) of remote blocks absorbed
    /// by the network cache instead of updating the remote home.
    pub absorbed_downgrades: u64,
    /// Pages migrated to a new home (Origin-style OS policy).
    pub migrations: u64,
    /// Read-only pages replicated into a cluster's local memory.
    pub replications: u64,
    /// Replica sets collapsed by a write to a replicated page.
    pub replica_collapses: u64,
}

/// Applies a callback macro to the complete `Metrics` field list.
///
/// Everything that must stay in sync with the struct — [`Metrics::merge`],
/// [`Metrics::delta`], [`Metrics::fields`] — is generated from this one
/// list. The generated code destructures `Metrics` exhaustively (no `..`),
/// so adding a field to the struct without adding it here is a compile
/// error, not a silently-dropped counter.
macro_rules! for_each_metric_field {
    ($with:ident) => {
        $with!(
            shared_refs,
            reads,
            writes,
            read_hits,
            write_hits,
            local_upgrades,
            peer_transfers,
            nc_read_hits,
            nc_write_hits,
            pc_read_hits,
            pc_write_hits,
            remote_read_necessary,
            remote_read_capacity,
            remote_write_necessary,
            remote_write_capacity,
            remote_ownership_requests,
            local_misses,
            remote_writebacks,
            relocations,
            invalidations,
            forced_evictions,
            nc_captures,
            absorbed_downgrades,
            migrations,
            replications,
            replica_collapses
        )
    };
}

impl Metrics {
    /// Creates zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds every counter of `other` into `self`.
    ///
    /// This is the inverse of splitting a run into parts (per-epoch
    /// deltas): merging the parts in any order reproduces the whole-run
    /// aggregate exactly, since all fields are plain sums.
    pub fn merge(&mut self, other: &Metrics) {
        macro_rules! add_fields {
            ($($f:ident),*) => {{
                let Metrics { $($f),* } = other;
                $(self.$f += *$f;)*
            }};
        }
        for_each_metric_field!(add_fields);
    }

    /// The counters accumulated since `earlier` (a snapshot of the same
    /// run): `self - earlier`, field-wise.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `earlier` is not an earlier snapshot of
    /// the same monotonically-growing counters.
    #[must_use]
    pub fn delta(&self, earlier: &Metrics) -> Metrics {
        macro_rules! sub_fields {
            ($($f:ident),*) => {
                Metrics { $($f: self.$f - earlier.$f),* }
            };
        }
        for_each_metric_field!(sub_fields)
    }

    /// Every counter as a `(name, value)` pair, in declaration order —
    /// the single source for JSON export and tabular dumps.
    #[must_use]
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        macro_rules! list_fields {
            ($($f:ident),*) => {
                vec![$((stringify!($f), self.$f)),*]
            };
        }
        for_each_metric_field!(list_fields)
    }

    /// Sets the counter named `name` (the [`Metrics::fields`] spelling) to
    /// `value`, returning `false` for unknown names — the inverse of
    /// `fields()`, used to rehydrate metrics from journaled JSON.
    pub fn set_field(&mut self, name: &str, value: u64) -> bool {
        macro_rules! assign_field {
            ($($f:ident),*) => {
                match name {
                    $(stringify!($f) => { self.$f = value; true })*
                    _ => false,
                }
            };
        }
        for_each_metric_field!(assign_field)
    }

    /// Read misses to remote data serviced by the home node (all classes).
    #[must_use]
    pub fn remote_read_misses(&self) -> u64 {
        self.remote_read_necessary + self.remote_read_capacity
    }

    /// Write transactions to remote data requiring the directory,
    /// including ownership-only requests.
    #[must_use]
    pub fn remote_write_misses(&self) -> u64 {
        self.remote_write_necessary + self.remote_write_capacity + self.remote_ownership_requests
    }

    /// Cluster read miss ratio: remote read misses leaving the cluster per
    /// shared reference (the read portion of Figures 3-8).
    #[must_use]
    pub fn read_miss_ratio(&self) -> f64 {
        ratio(self.remote_read_misses(), self.shared_refs)
    }

    /// Cluster write miss ratio (the write portion of Figures 3-8).
    #[must_use]
    pub fn write_miss_ratio(&self) -> f64 {
        ratio(self.remote_write_misses(), self.shared_refs)
    }

    /// Combined cluster miss ratio.
    #[must_use]
    pub fn cluster_miss_ratio(&self) -> f64 {
        self.read_miss_ratio() + self.write_miss_ratio()
    }

    /// Page-relocation overhead expressed as an equivalent miss ratio: the
    /// relocation ratio scaled by the paper's 225/30 cost factor (the bar
    /// tops in Figures 7-8).
    #[must_use]
    pub fn relocation_overhead_ratio(&self, model: &LatencyModel) -> f64 {
        ratio(self.relocations, self.shared_refs) * model.latencies().relocation_cost_factor()
    }

    /// OS page operations charged at the page-relocation cost: page-cache
    /// relocations plus Origin-style migrations and replications (all
    /// involve handlers and TLB shootdown).
    #[must_use]
    pub fn os_page_ops(&self) -> u64 {
        self.relocations + self.migrations + self.replications
    }

    /// Equation 1: total remote read stall in bus cycles.
    #[must_use]
    pub fn remote_read_stall(&self, model: &LatencyModel) -> u64 {
        model.remote_read_stall(
            self.nc_read_hits,
            self.pc_read_hits,
            self.remote_read_misses(),
            self.os_page_ops(),
        )
    }

    /// Remote data traffic in block transfers: read misses + write misses
    /// + write-backs crossing the network (Figure 10).
    #[must_use]
    pub fn remote_traffic(&self) -> u64 {
        self.remote_read_misses() + self.remote_write_misses() + self.remote_writebacks
    }

    /// The sum of all *primary* service classifications: every shared
    /// reference is served in exactly one way — a cache hit (or silent
    /// upgrade), a peer transfer, an NC hit, a PC hit, a local-memory
    /// fill, or a remote fill — so this always equals
    /// [`Metrics::shared_refs`]. Secondary counters (ownership requests,
    /// invalidations, write-backs, relocations, ...) describe work that
    /// *accompanies* a service and are deliberately excluded. The
    /// phase-counter identity tests pin this partition.
    #[must_use]
    pub fn primary_services(&self) -> u64 {
        self.read_hits
            + self.write_hits
            + self.local_upgrades
            + self.peer_transfers
            + self.nc_read_hits
            + self.nc_write_hits
            + self.pc_read_hits
            + self.pc_write_hits
            + self.local_misses
            + self.remote_read_necessary
            + self.remote_read_capacity
            + self.remote_write_necessary
            + self.remote_write_capacity
    }
}

/// Per-cluster event counts, for locality/imbalance analysis (e.g. how
/// well first-touch placement spread the remote-miss load).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterCounts {
    /// References issued by this cluster's processors.
    pub refs: u64,
    /// Remote read misses this cluster sent to other homes.
    pub remote_reads: u64,
    /// Remote write transactions this cluster sent (incl. ownership-only).
    pub remote_writes: u64,
    /// Remote-data misses served by this cluster's NC.
    pub nc_hits: u64,
    /// Remote-data misses served by this cluster's page cache.
    pub pc_hits: u64,
    /// Pages relocated into this cluster's page cache.
    pub relocations: u64,
}

impl ClusterCounts {
    /// Remote transactions per reference issued — the per-cluster
    /// communication intensity.
    #[must_use]
    pub fn remote_intensity(&self) -> f64 {
        ratio(self.remote_reads + self.remote_writes, self.refs)
    }

    /// Adds every counter of `other` into `self`.
    pub fn merge(&mut self, other: &ClusterCounts) {
        let ClusterCounts {
            refs,
            remote_reads,
            remote_writes,
            nc_hits,
            pc_hits,
            relocations,
        } = other;
        self.refs += refs;
        self.remote_reads += remote_reads;
        self.remote_writes += remote_writes;
        self.nc_hits += nc_hits;
        self.pc_hits += pc_hits;
        self.relocations += relocations;
    }

    /// Every counter as a `(name, value)` pair, in declaration order.
    #[must_use]
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("refs", self.refs),
            ("remote_reads", self.remote_reads),
            ("remote_writes", self.remote_writes),
            ("nc_hits", self.nc_hits),
            ("pc_hits", self.pc_hits),
            ("relocations", self.relocations),
        ]
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Latencies, NcTechnology};

    #[test]
    fn zeroed_by_default() {
        let m = Metrics::new();
        assert_eq!(m.shared_refs, 0);
        assert_eq!(m.cluster_miss_ratio(), 0.0);
        assert_eq!(m.remote_traffic(), 0);
    }

    #[test]
    fn miss_ratios() {
        let m = Metrics {
            shared_refs: 1000,
            remote_read_necessary: 10,
            remote_read_capacity: 20,
            remote_write_necessary: 5,
            remote_write_capacity: 5,
            ..Metrics::default()
        };
        assert!((m.read_miss_ratio() - 0.03).abs() < 1e-12);
        assert!((m.write_miss_ratio() - 0.01).abs() < 1e-12);
        assert!((m.cluster_miss_ratio() - 0.04).abs() < 1e-12);
    }

    #[test]
    fn relocation_overhead_uses_cost_factor() {
        let m = Metrics {
            shared_refs: 1000,
            relocations: 4,
            ..Metrics::default()
        };
        let model = LatencyModel::new(Latencies::paper_default(), NcTechnology::Sram);
        // 4/1000 * 7.5 = 0.03
        assert!((m.relocation_overhead_ratio(&model) - 0.03).abs() < 1e-12);
    }

    /// A metrics value with every field distinct and non-zero, so a merge
    /// or delta that drops/duplicates any field is caught.
    fn dense(offset: u64) -> Metrics {
        let mut m = Metrics::new();
        for (i, (_, _)) in Metrics::new().fields().iter().enumerate() {
            let v = offset + i as u64 + 1;
            set_field(&mut m, i, v);
        }
        m
    }

    fn set_field(m: &mut Metrics, index: usize, value: u64) {
        // Round-trip through the field list: write by constructing a merge
        // of a one-hot metrics value.
        let names: Vec<&str> = m.fields().iter().map(|(n, _)| *n).collect();
        let mut one = Metrics::new();
        match names[index] {
            "shared_refs" => one.shared_refs = value,
            "reads" => one.reads = value,
            "writes" => one.writes = value,
            "read_hits" => one.read_hits = value,
            "write_hits" => one.write_hits = value,
            "local_upgrades" => one.local_upgrades = value,
            "peer_transfers" => one.peer_transfers = value,
            "nc_read_hits" => one.nc_read_hits = value,
            "nc_write_hits" => one.nc_write_hits = value,
            "pc_read_hits" => one.pc_read_hits = value,
            "pc_write_hits" => one.pc_write_hits = value,
            "remote_read_necessary" => one.remote_read_necessary = value,
            "remote_read_capacity" => one.remote_read_capacity = value,
            "remote_write_necessary" => one.remote_write_necessary = value,
            "remote_write_capacity" => one.remote_write_capacity = value,
            "remote_ownership_requests" => one.remote_ownership_requests = value,
            "local_misses" => one.local_misses = value,
            "remote_writebacks" => one.remote_writebacks = value,
            "relocations" => one.relocations = value,
            "invalidations" => one.invalidations = value,
            "forced_evictions" => one.forced_evictions = value,
            "nc_captures" => one.nc_captures = value,
            "absorbed_downgrades" => one.absorbed_downgrades = value,
            "migrations" => one.migrations = value,
            "replications" => one.replications = value,
            "replica_collapses" => one.replica_collapses = value,
            other => panic!("unknown metrics field {other}"),
        }
        m.merge(&one);
    }

    #[test]
    fn merge_sums_every_field() {
        let a = dense(0);
        let b = dense(100);
        let mut merged = a;
        merged.merge(&b);
        for (i, (name, v)) in merged.fields().iter().enumerate() {
            let expect = (i as u64 + 1) + (100 + i as u64 + 1);
            assert_eq!(*v, expect, "field {name} mis-merged");
        }
    }

    #[test]
    fn merge_with_default_is_identity() {
        let a = dense(7);
        let mut merged = a;
        merged.merge(&Metrics::default());
        assert_eq!(merged, a);
        let mut from_zero = Metrics::default();
        from_zero.merge(&a);
        assert_eq!(from_zero, a);
    }

    #[test]
    fn delta_inverts_merge() {
        let earlier = dense(3);
        let gained = dense(40);
        let mut later = earlier;
        later.merge(&gained);
        assert_eq!(later.delta(&earlier), gained);
    }

    #[test]
    fn set_field_inverts_fields() {
        let original = dense(11);
        let mut rebuilt = Metrics::new();
        for (name, v) in original.fields() {
            assert!(rebuilt.set_field(name, v), "unknown field {name}");
        }
        assert_eq!(rebuilt, original);
        assert!(!rebuilt.set_field("no_such_counter", 1));
    }

    #[test]
    fn fields_cover_the_struct_distinctly() {
        let m = dense(0);
        let fields = m.fields();
        // All names unique, all values the distinct ones `dense` wrote.
        let mut names: Vec<&str> = fields.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), fields.len());
        for (i, (name, v)) in fields.iter().enumerate() {
            assert_eq!(*v, i as u64 + 1, "field {name} not covered");
        }
    }

    #[test]
    fn cluster_counts_merge_and_delta() {
        let a = ClusterCounts {
            refs: 10,
            remote_reads: 2,
            remote_writes: 3,
            nc_hits: 4,
            pc_hits: 5,
            relocations: 6,
        };
        let b = ClusterCounts {
            refs: 100,
            remote_reads: 20,
            remote_writes: 30,
            nc_hits: 40,
            pc_hits: 50,
            relocations: 60,
        };
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.refs, 110);
        assert_eq!(merged.relocations, 66);
        assert_eq!(merged.fields().len(), 6);
        // Merge is commutative.
        let mut other_way = b;
        other_way.merge(&a);
        assert_eq!(other_way, merged);
    }

    #[test]
    fn stall_and_traffic_composition() {
        let m = Metrics {
            nc_read_hits: 10,
            pc_read_hits: 2,
            remote_read_necessary: 3,
            remote_read_capacity: 1,
            remote_write_necessary: 2,
            remote_write_capacity: 0,
            remote_writebacks: 5,
            relocations: 1,
            ..Metrics::default()
        };
        let model = LatencyModel::new(Latencies::paper_default(), NcTechnology::Sram);
        assert_eq!(m.remote_read_stall(&model), 10 + 20 + 120 + 225);
        assert_eq!(m.remote_traffic(), 4 + 2 + 5);
    }
}
