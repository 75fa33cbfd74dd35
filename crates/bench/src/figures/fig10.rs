//! Figure 10: remote data traffic (read misses + write misses +
//! write-backs crossing the network), normalized to an infinite NC, for
//! the same systems as Figure 9.

use dsm_core::{Report, SystemSpec};

use crate::figures::fig9::{self, StallMetric};
use crate::harness::{normalized_table, FigureTable, GridRow};

/// Figure 9's systems: Figure 10 plots another metric of the same grid.
#[must_use]
pub fn specs() -> Vec<SystemSpec> {
    fig9::specs()
}

/// Figure 10 from a grid of [`specs`] reports.
#[must_use]
pub fn table(grid: &[GridRow]) -> FigureTable {
    normalized_table(
        "Figure 10: remote data traffic, normalized to an infinite NC",
        grid,
        fig9::columns(),
        Report::traffic_metric,
    )
}

#[cfg(test)]
mod tests {
    use crate::figures::run_alone;
    use dsm_trace::WorkloadKind;

    #[test]
    fn victim_cache_cuts_radix_traffic() {
        let t = run_alone("fig10", &[WorkloadKind::Radix]);
        let v = &t.rows[0].1;
        // Columns: base NCS NCD ncp vbp vpp ncp5 vbp5 vpp5.
        // "the victim cache is effective in reducing the traffic,
        // especially in Radix": vbp <= ncp.
        assert!(v[4] <= v[3] + 0.05, "vbp {} vs ncp {}", v[4], v[3]);
        // And every NC system cuts traffic below base.
        assert!(v[2] <= v[0], "NCD {} vs base {}", v[2], v[0]);
    }
}
