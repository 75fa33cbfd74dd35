//! Figure 10: remote data traffic (read misses + write misses +
//! write-backs crossing the network), normalized to an infinite NC, for
//! the same systems as Figure 9.

use dsm_core::{Report, SystemSpec};
use dsm_trace::WorkloadKind;
use dsm_types::DsmError;

use crate::figures::fig9::{self, StallMetric};
use crate::harness::{normalized_table, run_grid, FigureTable, GridRow, TraceSet};

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

/// Runs Figure 10 over `kinds`.
pub fn run(ts: &mut TraceSet, kinds: &[WorkloadKind]) -> Result<FigureTable, DsmError> {
    Ok(table(&run_grid(ts, &specs(), kinds)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_trace::Scale;

    #[test]
    fn victim_cache_cuts_radix_traffic() {
        let mut ts = TraceSet::new(Scale::new(0.1).unwrap());
        let t = run(&mut ts, &[WorkloadKind::Radix]).expect("figure run");
        let v = &t.rows[0].1;
        // Columns: base NCS NCD ncp vbp vpp ncp5 vbp5 vpp5.
        // "the victim cache is effective in reducing the traffic,
        // especially in Radix": vbp <= ncp.
        assert!(v[4] <= v[3] + 0.05, "vbp {} vs ncp {}", v[4], v[3]);
        // And every NC system cuts traffic below base.
        assert!(v[2] <= v[0], "NCD {} vs base {}", v[2], v[0]);
    }
}
