//! One module per paper figure/table.
//!
//! Every figure module exposes `specs()`, the systems it plots in column
//! order, and `table(grid)`, a pure projection of a grid of their reports
//! into a [`crate::FigureTable`] with the same rows/series the paper
//! plots. The [`FIGURES`] registry pairs them under a `reproduce
//! --figures` key: `reproduce` projects every selected figure from one
//! [`crate::points::PointTable`], and [`Figure::run`] runs one figure
//! alone the same way (for the tests). Figure numbers follow
//! the paper:
//!
//! * [`tables`] — Tables 1 (latency components), 2 (event latencies),
//!   3 (benchmark characteristics), printed by every `reproduce` run
//!   (alone with `--figures ''`);
//! * [`fig3`] — miss ratio vs cache associativity x victim-NC size;
//! * [`fig4`] — inclusion NC vs victim NC;
//! * [`fig5`] — block- vs page-indexed victim NC;
//! * [`fig6`] — adaptive vs fixed relocation threshold;
//! * [`fig7`] — page-cache size sweep for noNC/ncp/vbp;
//! * [`fig8`] — vbp vs vpp under a page cache;
//! * [`fig9`] — remote read stalls, normalized;
//! * [`fig10`] — remote data traffic, normalized;
//! * [`fig11`] — directory counters (ncp) vs victim-set counters (vxp);
//! * [`origin`] — supplementary: SGI-Origin-style migration/replication
//!   vs network caches (the paper's concluding hypothesis).

pub mod fig10;
pub mod fig11;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod origin;
pub mod tables;

use dsm_core::SystemSpec;
use dsm_trace::WorkloadKind;

use crate::harness::{FigureTable, GridRow};

/// One figure of the reproduction: the systems it plots and its
/// projection.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// The `reproduce --figures` key.
    pub key: &'static str,
    /// The name in the dataset and the logs.
    pub name: &'static str,
    /// The systems it plots, in column order.
    pub specs: fn() -> Vec<SystemSpec>,
    /// Its table, from a grid of `specs()` reports.
    pub table: fn(&[GridRow]) -> FigureTable,
}

impl Figure {
    /// The figure whose `reproduce --figures` key is `key`.
    #[must_use]
    pub fn by_key(key: &str) -> Option<&'static Figure> {
        FIGURES.iter().find(|f| f.key == key)
    }
}

/// Every figure `reproduce` runs, in order.
pub const FIGURES: [Figure; 11] = [
    Figure {
        key: "fig3",
        name: "fig3",
        specs: fig3::specs,
        table: fig3::table,
    },
    Figure {
        key: "fig4",
        name: "fig4",
        specs: fig4::specs,
        table: fig4::table,
    },
    Figure {
        key: "fig5",
        name: "fig5",
        specs: fig5::specs,
        table: fig5::table,
    },
    Figure {
        key: "fig6",
        name: "fig6",
        specs: fig6::specs,
        table: fig6::table,
    },
    Figure {
        key: "fig6-tight",
        name: "fig6-tight (supplementary)",
        specs: fig6::specs_tight,
        table: fig6::table_tight,
    },
    Figure {
        key: "fig7",
        name: "fig7",
        specs: fig7::specs,
        table: fig7::table,
    },
    Figure {
        key: "fig8",
        name: "fig8",
        specs: fig8::specs,
        table: fig8::table,
    },
    Figure {
        key: "fig9",
        name: "fig9",
        specs: fig9::specs,
        table: fig9::table,
    },
    Figure {
        key: "fig10",
        name: "fig10",
        specs: fig10::specs,
        table: fig10::table,
    },
    Figure {
        key: "fig11",
        name: "fig11",
        specs: fig11::specs,
        table: fig11::table,
    },
    Figure {
        key: "origin",
        name: "origin (supplementary)",
        specs: origin::specs,
        table: origin::table,
    },
];

/// The paper's eight benchmarks, in its order.
#[must_use]
pub fn all_workloads() -> Vec<WorkloadKind> {
    WorkloadKind::all().to_vec()
}

/// The figure keyed `key`, run alone over `kinds` at scale 0.1: the
/// figure modules' tests.
#[cfg(test)]
fn run_alone(key: &str, kinds: &[WorkloadKind]) -> FigureTable {
    let figure = Figure::by_key(key).unwrap_or_else(|| panic!("no figure '{key}'"));
    let mut ts = crate::TraceSet::new(dsm_trace::Scale::new(0.1).unwrap());
    figure.run(&mut ts, kinds).expect("figure run")
}
