//! Supplementary experiment: the SGI Origin alternative.
//!
//! The paper's Related Work notes that the Origin abandons network caches
//! for aggressive page migration/replication, and its Conclusions
//! hypothesize that "a small, very fast NC could shield the page
//! migration and replication policies from the noise of conflict misses,
//! thus improving system's performance". This experiment tests exactly
//! that: `origin` (migration + replication, no RDC) against `origin+vb`
//! (the same policies behind a 16-KB victim NC), with `base`, `vb` and
//! `NCD` for context, normalized to the infinite DRAM NC as in Figure 9.

use dsm_core::{Report, SystemSpec};

use crate::figures::fig9::StallMetric;
use crate::harness::{names, normalized_table, FigureTable, GridRow};

/// The systems of the Origin experiment, baseline first.
#[must_use]
pub fn specs() -> Vec<SystemSpec> {
    vec![
        SystemSpec::infinite_dram(),
        SystemSpec::base(),
        SystemSpec::vb(),
        SystemSpec::ncd(),
        SystemSpec::origin(),
        SystemSpec::origin_vb(),
    ]
}

/// The Origin comparison from a grid of [`specs`] reports.
#[must_use]
pub fn table(grid: &[GridRow]) -> FigureTable {
    normalized_table(
        "Supplementary: Origin-style migration/replication vs network caches, normalized remote read stall",
        grid,
        names(&specs()[1..]),
        Report::stall_metric,
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
    fn origin_policies_engage_on_read_mostly_workloads() {
        // Raytrace's scene is read-only shared: the replication path (not
        // migration) must fire. Whether it *pays* depends on per-page
        // reuse — with our uniform-random walk it does not, which is
        // itself the expected Origin behaviour on reuse-free data.
        let mut ts = TraceSet::new(Scale::new(0.1).unwrap());
        let specs = [SystemSpec::origin()];
        let table = PointTable::new([specs.to_vec()]);
        let results = table.run(&mut ts, &[WorkloadKind::Raytrace]);
        let grid = table.project(&results, &specs).expect("origin grid");
        let m = &grid[0].1[0].metrics;
        assert!(m.replications > 0, "{m:?}");
        assert!(
            m.migrations < m.replications / 100,
            "read-mostly data must replicate, not migrate: {m:?}"
        );
    }

    #[test]
    fn victim_nc_composes_with_origin() {
        let t = run_alone("origin", &[WorkloadKind::Barnes]);
        let v = &t.rows[0].1;
        // The paper's hypothesis: origin+vb <= origin (the NC absorbs
        // conflict misses the OS policies would otherwise chase).
        assert!(
            v[4] <= v[3] * 1.02 + 0.01,
            "origin+vb ({}) vs origin ({})",
            v[4],
            v[3]
        );
    }
}
