//! Figure 7: cluster miss ratios (plus relocation overhead) for systems
//! with page caches of 0, 1/9, 1/7 and 1/5 of the data-set size, with no
//! NC, with the inclusion NC (`ncp`, i.e. R-NUMA), and with the victim NC
//! (`vbp`).

use dsm_core::{PcSize, SystemSpec};
use dsm_trace::WorkloadKind;
use dsm_types::DsmError;

use crate::harness::{miss_ratio_table, names, run_grid, FigureTable, GridRow, TraceSet};

/// `base` with `ncp`'s page cache of `1/d` of the data set.
fn pc_only(d: u32) -> SystemSpec {
    let mut spec = SystemSpec::base();
    spec.pc = SystemSpec::ncp(PcSize::DataFraction(d)).pc;
    spec.name = format!("pc{d}");
    spec
}

/// The twelve configurations of Figure 7: {no NC, nc, vb} x PC
/// {none, 1/9, 1/7, 1/5}.
#[must_use]
pub fn specs() -> Vec<SystemSpec> {
    let mut out = Vec::new();
    // No NC.
    out.push(SystemSpec::base());
    for d in [9u32, 7, 5] {
        out.push(pc_only(d));
    }
    // Inclusion NC (R-NUMA).
    out.push(SystemSpec::nc());
    for d in [9u32, 7, 5] {
        out.push(SystemSpec::ncp(PcSize::DataFraction(d)));
    }
    // Victim NC.
    out.push(SystemSpec::vb());
    for d in [9u32, 7, 5] {
        out.push(SystemSpec::vbp(PcSize::DataFraction(d)));
    }
    out
}

/// Figure 7 from a grid of [`specs`] reports; values fold in relocation
/// overhead.
#[must_use]
pub fn table(grid: &[GridRow]) -> FigureTable {
    miss_ratio_table(
        "Figure 7: cluster miss ratio + relocation overhead (%), page-cache size sweep",
        grid,
        names(&specs()),
        true,
    )
}

/// Runs Figure 7 over `kinds`.
pub fn run(ts: &mut TraceSet, kinds: &[WorkloadKind]) -> Result<FigureTable, DsmError> {
    Ok(table(&run_grid(ts, &specs(), kinds)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_trace::Scale;

    #[test]
    fn twelve_configs() {
        let s = specs();
        assert_eq!(s.len(), 12);
        assert_eq!(s[0].name, "base");
        assert_eq!(s[7].name, "ncp5");
        assert_eq!(s[11].name, "vbp5");
    }

    #[test]
    fn nc_improves_over_no_nc_with_page_cache() {
        let mut ts = TraceSet::new(Scale::new(0.1).unwrap());
        let t = run(&mut ts, &[WorkloadKind::Fmm]).expect("figure run");
        let v = &t.rows[0].1;
        // The paper: "The 16KB NC clearly improves performance in both
        // ncp and vbp over the system without NC" (columns 3 = pc5,
        // 7 = ncp5, 11 = vbp5).
        assert!(v[7] <= v[3] + 0.1, "ncp5 {} vs pc5 {}", v[7], v[3]);
        assert!(v[11] <= v[3] + 0.1, "vbp5 {} vs pc5 {}", v[11], v[3]);
    }
}
