//! Figure 3: effects of the network victim cache on the cluster remote
//! miss ratio, sweeping processor-cache associativity (1/2/4-way) against
//! victim-NC size (none, 1 KB, 16 KB).

use dsm_core::SystemSpec;

use crate::harness::{miss_ratio_table, names, FigureTable, GridRow};

/// The nine configurations of Figure 3, in the paper's bar order.
#[must_use]
pub fn specs() -> Vec<SystemSpec> {
    let mut out = Vec::new();
    for ways in [1usize, 2, 4] {
        for nc_bytes in [0u64, 1024, 16 * 1024] {
            let spec = if nc_bytes == 0 {
                SystemSpec::base()
            } else {
                SystemSpec::vb_sized(nc_bytes)
            };
            let mut spec = spec.with_cache(16 * 1024, ways);
            spec.name = format!("{}w-vb{}", ways, nc_bytes / 1024);
            out.push(spec);
        }
    }
    out
}

/// Figure 3 from a grid of [`specs`] reports.
#[must_use]
pub fn table(grid: &[GridRow]) -> FigureTable {
    miss_ratio_table(
        "Figure 3: cluster miss ratio (%) vs cache associativity x victim-NC size",
        grid,
        names(&specs()),
        false,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::run_alone;
    use dsm_trace::WorkloadKind;

    #[test]
    fn nine_configs_with_paper_names() {
        let s = specs();
        assert_eq!(s.len(), 9);
        assert_eq!(s[0].name, "1w-vb0");
        assert_eq!(s[8].name, "4w-vb16");
        assert_eq!(s[3].cache.ways, 2);
    }

    #[test]
    fn victim_nc_only_improves_miss_ratio() {
        let t = run_alone("fig3", &[WorkloadKind::Lu]);
        assert_eq!(t.rows.len(), 1);
        let v = &t.rows[0].1;
        // Within each associativity, a bigger victim NC never hurts.
        for w in 0..3 {
            assert!(v[w * 3 + 1] <= v[w * 3] + 1e-9, "1K NC hurt at {w}w: {v:?}");
            assert!(
                v[w * 3 + 2] <= v[w * 3 + 1] + 1e-9,
                "16K NC hurt at {w}w: {v:?}"
            );
        }
        // Higher associativity with no NC never hurts LU.
        assert!(v[3] <= v[0] + 1e-9);
        assert!(v[6] <= v[3] + 1e-9);
    }
}
