//! Figure 5: cluster miss ratios for the two victim-cache indexing
//! schemes — block-address (`vb`) versus page-address (`vp`) bits.

use dsm_core::SystemSpec;

use crate::harness::{miss_ratio_table, FigureTable, GridRow};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::run_alone;
    use crate::harness::TraceSet;
    use crate::points::PointTable;
    use dsm_trace::{Scale, WorkloadKind};

    #[test]
    fn page_indexing_never_catastrophic() {
        // The paper: vp can degrade high-spatial-locality apps but "can
        // never lead to results worse than when no NC is present".
        let mut ts = TraceSet::new(Scale::new(0.1).unwrap());
        let base = {
            let specs = [SystemSpec::base()];
            let table = PointTable::new([specs.to_vec()]);
            let results = table.run(&mut ts, &[WorkloadKind::Ocean]);
            let grid = table.project(&results, &specs).expect("base grid");
            (grid[0].1[0].read_miss_ratio + grid[0].1[0].write_miss_ratio) * 100.0
        };
        let t = run_alone("fig5", &[WorkloadKind::Ocean]);
        let vp = t.rows[0].1[1];
        assert!(vp <= base + 1e-9, "vp ({vp}) worse than no NC ({base})");
    }
}
