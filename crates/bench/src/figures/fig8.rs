//! Figure 8: victim-cache indexing (block vs page) revisited in the
//! presence of a 1/5 page cache — the page cache absorbs the conflict
//! misses page indexing creates, making `vpp` feasible.

use dsm_core::{PcSize, SystemSpec};
use dsm_trace::WorkloadKind;
use dsm_types::DsmError;

use crate::harness::{miss_ratio_table, run_grid, FigureTable, GridRow, TraceSet};

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

/// Runs Figure 8 over `kinds`.
pub fn run(ts: &mut TraceSet, kinds: &[WorkloadKind]) -> Result<FigureTable, DsmError> {
    Ok(table(&run_grid(ts, &specs(), kinds)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_trace::Scale;

    #[test]
    fn indexing_gap_is_small_with_page_cache() {
        let mut ts = TraceSet::new(Scale::new(0.1).unwrap());
        let t = run(&mut ts, &[WorkloadKind::Ocean]).expect("figure run");
        let v = &t.rows[0].1;
        // "Overall, there is little difference between the two indexing
        // methods" once the page cache is present.
        let gap = (v[1] - v[0]).abs();
        let scale = v[0].max(0.1);
        assert!(gap / scale < 0.5, "vbp5 {} vs vpp5 {}", v[0], v[1]);
    }
}
