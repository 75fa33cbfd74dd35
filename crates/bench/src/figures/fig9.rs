//! Figure 9: remote read stalls, normalized to a system with an infinite
//! (but slow, DRAM) NC. Compares `base`, the ideal `NCS`, the 512-KB DRAM
//! `NCD`, and the page-cache systems at equal DRAM (512 KB) and at 1/5 of
//! the data set.

use dsm_core::{PcSize, Report, SystemSpec};

use crate::harness::{names, normalized_table, FigureTable, GridRow};

/// The systems of Figure 9, baseline (infinite DRAM NC) first.
#[must_use]
pub fn specs() -> Vec<SystemSpec> {
    vec![
        SystemSpec::infinite_dram(),
        SystemSpec::base(),
        SystemSpec::ncs(),
        SystemSpec::ncd(),
        SystemSpec::ncp(PcSize::Bytes(512 * 1024)),
        SystemSpec::vbp(PcSize::Bytes(512 * 1024)),
        SystemSpec::vpp(PcSize::Bytes(512 * 1024)),
        SystemSpec::ncp(PcSize::DataFraction(5)),
        SystemSpec::vbp(PcSize::DataFraction(5)),
        SystemSpec::vpp(PcSize::DataFraction(5)),
    ]
}

/// Column labels (excluding the normalization baseline).
#[must_use]
pub fn columns() -> Vec<String> {
    names(&specs()[1..])
}

/// Figure 9 from a grid of [`specs`] reports.
#[must_use]
pub fn table(grid: &[GridRow]) -> FigureTable {
    normalized_table(
        "Figure 9: remote read stalls, normalized to an infinite DRAM NC",
        grid,
        columns(),
        Report::stall_metric,
    )
}

/// Extraction helper shared with Figures 10-11.
pub trait StallMetric {
    /// The remote read stall in cycles.
    fn stall_metric(&self) -> f64;
    /// The remote data traffic in block transfers.
    fn traffic_metric(&self) -> f64;
}

impl StallMetric for Report {
    fn stall_metric(&self) -> f64 {
        self.remote_read_stall as f64
    }
    fn traffic_metric(&self) -> f64 {
        self.remote_traffic as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::run_alone;
    use dsm_trace::WorkloadKind;

    #[test]
    fn ten_systems_baseline_first() {
        let s = specs();
        assert_eq!(s.len(), 10);
        assert_eq!(s[0].name, "NCD-inf");
        assert_eq!(columns().len(), 9);
    }

    #[test]
    fn ideal_sram_nc_is_best_or_near() {
        let t = run_alone("fig9", &[WorkloadKind::Lu]);
        let v = &t.rows[0].1;
        // NCS (index 1) should beat base (index 0) and be <= 1 vs the
        // infinite DRAM baseline (it saturates capacity at SRAM speed).
        assert!(v[1] <= v[0] + 1e-9, "NCS {} vs base {}", v[1], v[0]);
        assert!(v[1] <= 1.0 + 1e-9, "NCS normalized {}", v[1]);
    }
}
