//! Figure 5: cluster miss ratios for the two victim-cache indexing
//! schemes — block-address (`vb`) versus page-address (`vp`) bits.

use dsm_core::SystemSpec;
use dsm_trace::WorkloadKind;
use dsm_types::DsmError;

use crate::harness::{miss_ratio_table, run_grid, FigureTable, GridRow, TraceSet};

/// The two victim-NC indexings of Figure 5: block, then page.
#[must_use]
pub fn specs() -> Vec<SystemSpec> {
    vec![SystemSpec::vb(), SystemSpec::vp()]
}

/// Figure 5 from a grid of [`specs`] reports.
#[must_use]
pub fn table(grid: &[GridRow]) -> FigureTable {
    miss_ratio_table(
        "Figure 5: cluster miss ratio (%), block-indexed (vb) vs page-indexed (vp) victim NC",
        grid,
        vec!["vb".into(), "vp".into()],
        false,
    )
}

/// Runs Figure 5 over `kinds`.
pub fn run(ts: &mut TraceSet, kinds: &[WorkloadKind]) -> Result<FigureTable, DsmError> {
    Ok(table(&run_grid(ts, &specs(), kinds)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_trace::Scale;

    #[test]
    fn page_indexing_never_catastrophic() {
        // The paper: vp can degrade high-spatial-locality apps but "can
        // never lead to results worse than when no NC is present".
        let mut ts = TraceSet::new(Scale::new(0.1).unwrap());
        let base = {
            let grid = crate::harness::run_grid(
                &mut ts,
                &[dsm_core::SystemSpec::base()],
                &[WorkloadKind::Ocean],
            )
            .expect("base grid");
            (grid[0].1[0].read_miss_ratio + grid[0].1[0].write_miss_ratio) * 100.0
        };
        let t = run(&mut ts, &[WorkloadKind::Ocean]).expect("figure run");
        let vp = t.rows[0].1[1];
        assert!(vp <= base + 1e-9, "vp ({vp}) worse than no NC ({base})");
    }
}
