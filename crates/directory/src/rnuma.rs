//! R-NUMA's directory-controlled page relocation counters.

use dsm_types::{ClusterId, FxHashMap, PageAddr};

/// Per-page, per-cluster **capacity-miss counters**, as proposed by R-NUMA
/// (Falsafi & Wood) and used by the paper's `ncp`/`vbp`/`vpp` systems.
///
/// The directory increments the counter for `(page, cluster)` whenever a
/// remote miss from `cluster` to a block of `page` is classified as a
/// capacity miss (the requester's presence bit was already set). When the
/// count crosses the cluster's relocation threshold, the page becomes a
/// candidate for relocation into that cluster's page cache, and the counter
/// is reset.
///
/// The paper criticizes this scheme's memory cost: with full-map storage a
/// 256-cluster machine needs 256 one-byte counters per 4-KB page — a 6.67 %
/// overhead ([`RnumaCounters::memory_overhead_ratio`]) — and it only works
/// with centralized full-map directories. The alternative (victim-cache
/// set counters) lives in `dsm-core::relocation`.
///
/// # Example
///
/// ```
/// use dsm_directory::RnumaCounters;
/// use dsm_types::{ClusterId, PageAddr};
///
/// let mut c = RnumaCounters::new();
/// assert_eq!(c.increment(PageAddr(1), ClusterId(0)), 1);
/// assert_eq!(c.increment(PageAddr(1), ClusterId(0)), 2);
/// assert_eq!(c.count(PageAddr(1), ClusterId(1)), 0); // independent per cluster
/// c.reset(PageAddr(1), ClusterId(0));
/// assert_eq!(c.count(PageAddr(1), ClusterId(0)), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RnumaCounters {
    counts: FxHashMap<(u64, u16), u32>,
}

impl RnumaCounters {
    /// Creates an empty counter table.
    #[must_use]
    pub fn new() -> Self {
        RnumaCounters::default()
    }

    /// Increments the capacity-miss count for `(page, cluster)` and returns
    /// the new value.
    pub fn increment(&mut self, page: PageAddr, cluster: ClusterId) -> u32 {
        let c = self.counts.entry((page.0, cluster.0)).or_insert(0);
        *c = c.saturating_add(1);
        *c
    }

    /// Decrements the count (the paper's optional invalidation-driven
    /// correction), saturating at zero. Returns the new value.
    pub fn decrement(&mut self, page: PageAddr, cluster: ClusterId) -> u32 {
        match self.counts.get_mut(&(page.0, cluster.0)) {
            Some(c) => {
                *c = c.saturating_sub(1);
                *c
            }
            None => 0,
        }
    }

    /// The current count for `(page, cluster)`.
    #[must_use]
    pub fn count(&self, page: PageAddr, cluster: ClusterId) -> u32 {
        self.counts.get(&(page.0, cluster.0)).copied().unwrap_or(0)
    }

    /// Resets the counter after a relocation (or eviction from the page
    /// cache).
    pub fn reset(&mut self, page: PageAddr, cluster: ClusterId) {
        self.counts.remove(&(page.0, cluster.0));
    }

    /// Number of live (nonzero) counters — the paper's point that "very
    /// little of this memory is actually used".
    #[must_use]
    pub fn live_counters(&self) -> usize {
        self.counts.values().filter(|&&c| c > 0).count()
    }

    /// The memory overhead of a *full-map* hardware realization of this
    /// scheme: one counter byte per cluster per page, expressed as a
    /// fraction of the memory left for data. For 256 clusters and 4-KB
    /// pages this is the paper's 6.67 % (256 / 3840).
    ///
    /// # Panics
    ///
    /// Panics if `clusters >= page_bytes` (the counters would consume the
    /// whole page).
    #[must_use]
    pub fn memory_overhead_ratio(clusters: u32, page_bytes: u32) -> f64 {
        assert!(clusters < page_bytes, "counters exceed the page");
        f64::from(clusters) / f64::from(page_bytes - clusters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: PageAddr = PageAddr(7);
    const C: ClusterId = ClusterId(3);

    #[test]
    fn starts_at_zero() {
        let c = RnumaCounters::new();
        assert_eq!(c.count(P, C), 0);
        assert_eq!(c.live_counters(), 0);
    }

    #[test]
    fn increments_independently_per_pair() {
        let mut c = RnumaCounters::new();
        c.increment(P, C);
        c.increment(P, C);
        c.increment(P, ClusterId(0));
        c.increment(PageAddr(8), C);
        assert_eq!(c.count(P, C), 2);
        assert_eq!(c.count(P, ClusterId(0)), 1);
        assert_eq!(c.count(PageAddr(8), C), 1);
        assert_eq!(c.live_counters(), 3);
    }

    #[test]
    fn reset_clears_pair_only() {
        let mut c = RnumaCounters::new();
        c.increment(P, C);
        c.increment(P, ClusterId(0));
        c.reset(P, C);
        assert_eq!(c.count(P, C), 0);
        assert_eq!(c.count(P, ClusterId(0)), 1);
    }

    #[test]
    fn decrement_saturates_at_zero() {
        let mut c = RnumaCounters::new();
        assert_eq!(c.decrement(P, C), 0);
        c.increment(P, C);
        assert_eq!(c.decrement(P, C), 0);
        assert_eq!(c.decrement(P, C), 0);
    }

    #[test]
    fn paper_overhead_figure() {
        let ratio = RnumaCounters::memory_overhead_ratio(256, 4096);
        assert!((ratio - 0.0667).abs() < 0.001, "got {ratio}");
    }
}
