//! Figure 6: adaptive versus fixed (32) relocation-threshold policies for
//! `ncp5` (page cache = 1/5 of the data set). The adaptive policy should
//! suppress page-cache thrashing (Barnes and Radix in the paper).

use dsm_core::{PcSize, SystemSpec, ThresholdPolicy};

use crate::harness::{miss_ratio_table, FigureTable, GridRow};

/// The page cache of Figure 6: 1/5 of the data set.
const DENOM: u32 = 5;
/// The supplementary tight page cache: 1/16 of the data set, where our
/// synthetic traces actually thrash — the paper notes "with smaller page
/// caches, thrashing occurs in other applications as well".
const TIGHT_DENOM: u32 = 16;

/// Figure 6's two threshold policies on `ncp5`: fixed(32), then adaptive.
#[must_use]
pub fn specs() -> Vec<SystemSpec> {
    specs_at(DENOM)
}

/// Figure 6 from a grid of [`specs`] reports. Values include the
/// relocation overhead in equivalent misses (the paper's bar tops).
#[must_use]
pub fn table(grid: &[GridRow]) -> FigureTable {
    table_at(grid, DENOM)
}

/// [`specs`] with the tight (1/16) page cache.
#[must_use]
pub fn specs_tight() -> Vec<SystemSpec> {
    specs_at(TIGHT_DENOM)
}

/// [`table`] with the tight (1/16) page cache.
#[must_use]
pub fn table_tight(grid: &[GridRow]) -> FigureTable {
    table_at(grid, TIGHT_DENOM)
}

fn specs_at(denom: u32) -> Vec<SystemSpec> {
    let mut fixed =
        SystemSpec::ncp(PcSize::DataFraction(denom)).with_threshold(ThresholdPolicy::Fixed(32));
    fixed.name = format!("ncp{denom}-fixed32");
    let mut adaptive = SystemSpec::ncp(PcSize::DataFraction(denom));
    adaptive.name = format!("ncp{denom}-adaptive");
    vec![fixed, adaptive]
}

fn table_at(grid: &[GridRow], denom: u32) -> FigureTable {
    miss_ratio_table(
        &format!(
            "Figure 6: cluster miss ratio + relocation overhead (%), fixed(32) vs adaptive threshold, ncp{denom}"
        ),
        grid,
        vec!["fixed32".into(), "adaptive".into()],
        true,
    )
}

#[cfg(test)]
mod tests {
    use crate::figures::run_alone;
    use dsm_trace::WorkloadKind;

    #[test]
    fn adaptive_does_not_lose_badly() {
        let t = run_alone("fig6", &[WorkloadKind::Radix]);
        let v = &t.rows[0].1;
        // Adaptive must be no worse than fixed beyond noise: its whole
        // point is to cut relocation overhead under thrashing.
        assert!(v[1] <= v[0] * 1.05 + 0.05, "adaptive {v:?}");
    }
}
