//! Figure 8: victim-cache indexing (block vs page) revisited in the
//! presence of a 1/5 page cache — the page cache absorbs the conflict
//! misses page indexing creates, making `vpp` feasible.

use dsm_core::{PcSize, SystemSpec};

use crate::harness::{miss_ratio_table, FigureTable, GridRow};

/// The two indexings of Figure 8 under a 1/5 page cache: `vbp5`, `vpp5`.
#[must_use]
pub fn specs() -> Vec<SystemSpec> {
    vec![
        SystemSpec::vbp(PcSize::DataFraction(5)),
        SystemSpec::vpp(PcSize::DataFraction(5)),
    ]
}

/// Figure 8 from a grid of [`specs`] reports; values fold in relocation
/// overhead.
#[must_use]
pub fn table(grid: &[GridRow]) -> FigureTable {
    miss_ratio_table(
        "Figure 8: cluster miss ratio + relocation overhead (%), vbp5 vs vpp5",
        grid,
        vec!["vbp5".into(), "vpp5".into()],
        true,
    )
}

#[cfg(test)]
mod tests {
    use crate::figures::run_alone;
    use dsm_trace::WorkloadKind;

    #[test]
    fn indexing_gap_is_small_with_page_cache() {
        let t = run_alone("fig8", &[WorkloadKind::Ocean]);
        let v = &t.rows[0].1;
        // "Overall, there is little difference between the two indexing
        // methods" once the page cache is present.
        let gap = (v[1] - v[0]).abs();
        let scale = v[0].max(0.1);
        assert!(gap / scale < 0.5, "vbp5 {} vs vpp5 {}", v[0], v[1]);
    }
}
