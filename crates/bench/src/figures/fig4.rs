//! Figure 4: cluster miss ratios for the two ways of integrating a 16-KB
//! NC — inclusion for dirty blocks (`nc`) versus a victim cache (`vb`).

use dsm_core::SystemSpec;

use crate::harness::{miss_ratio_table, FigureTable, GridRow};

/// The two 16-KB NCs of Figure 4: inclusion, then victim.
#[must_use]
pub fn specs() -> Vec<SystemSpec> {
    vec![SystemSpec::nc(), SystemSpec::vb()]
}

/// Figure 4 from a grid of [`specs`] reports.
#[must_use]
pub fn table(grid: &[GridRow]) -> FigureTable {
    miss_ratio_table(
        "Figure 4: cluster miss ratio (%), inclusion NC (nc) vs victim NC (vb), 16 KB",
        grid,
        vec!["nc".into(), "vb".into()],
        false,
    )
}

#[cfg(test)]
mod tests {
    use crate::figures::run_alone;
    use dsm_trace::WorkloadKind;

    #[test]
    fn victim_beats_or_matches_inclusion() {
        let t = run_alone("fig4", &[WorkloadKind::Radix, WorkloadKind::Lu]);
        for (name, v) in &t.rows {
            assert!(
                v[1] <= v[0] + 0.05,
                "{name}: vb ({}) worse than nc ({})",
                v[1],
                v[0]
            );
        }
        // Radix (write-capacity dominated) shows a clear victim-cache win.
        let radix = &t.rows[0].1;
        assert!(
            radix[1] < radix[0],
            "Radix: expected vb < nc, got {radix:?}"
        );
    }
}
