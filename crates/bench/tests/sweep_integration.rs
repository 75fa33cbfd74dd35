//! End-to-end determinism of the parallel sweep engine: a figure built on
//! N workers must be *identical* — row order, labels, and every f64 bit —
//! to the serial legacy run, because each sweep point is a pure function
//! of (spec, shared trace) and the engine returns results in submission
//! order. Likewise a figure projected from the all-figures point table
//! must be identical to the figure run on its own.

use dsm_bench::figures::{all_workloads, Figure, FIGURES};
use dsm_bench::harness::names;
use dsm_bench::{Jobs, PointTable, TraceSet};
use dsm_trace::{Scale, WorkloadKind};

fn scale() -> Scale {
    Scale::new(0.05).unwrap()
}

fn figure(key: &str) -> &'static Figure {
    Figure::by_key(key).unwrap_or_else(|| panic!("no figure '{key}'"))
}

#[test]
fn fig3_parallel_equals_serial() {
    let kinds = [WorkloadKind::Lu, WorkloadKind::Fft, WorkloadKind::Radix];
    let mut serial_ts = TraceSet::with_jobs(scale(), Jobs::serial());
    let serial = figure("fig3")
        .run(&mut serial_ts, &kinds)
        .expect("serial fig3");
    let mut parallel_ts = TraceSet::with_jobs(scale(), Jobs::new(4).unwrap());
    let parallel = figure("fig3")
        .run(&mut parallel_ts, &kinds)
        .expect("parallel fig3");

    assert_eq!(serial.caption, parallel.caption);
    assert_eq!(serial.columns, parallel.columns);
    assert_eq!(serial.rows.len(), parallel.rows.len());
    for ((n1, v1), (n2, v2)) in serial.rows.iter().zip(&parallel.rows) {
        assert_eq!(n1, n2, "row order must match the serial run");
        // Bit-exact, not approximately equal: the rendered tables and
        // the JSON export must be byte-identical.
        let b1: Vec<u64> = v1.iter().map(|v| v.to_bits()).collect();
        let b2: Vec<u64> = v2.iter().map(|v| v.to_bits()).collect();
        assert_eq!(b1, b2, "{n1}: parallel metrics diverged from serial");
    }
    assert_eq!(serial.render(), parallel.render());
    assert_eq!(serial.to_json().render(), parallel.to_json().render());
}

#[test]
fn normalized_figure_parallel_equals_serial() {
    // Figure 9 normalizes every column to the first spec's report, so it
    // also exercises cross-point data flow after the parallel region.
    let kinds = [WorkloadKind::Lu];
    let serial = figure("fig9")
        .run(&mut TraceSet::with_jobs(scale(), Jobs::serial()), &kinds)
        .expect("serial fig9");
    let parallel = figure("fig9")
        .run(
            &mut TraceSet::with_jobs(scale(), Jobs::new(4).unwrap()),
            &kinds,
        )
        .expect("parallel fig9");
    assert_eq!(serial.render(), parallel.render());
}

#[test]
fn all_workloads_matches_paper_count() {
    // The sweep tests above subsample workloads for speed; make sure the
    // full enumeration `reproduce` sweeps over is still the paper's 8.
    assert_eq!(all_workloads().len(), 8);
}

#[test]
fn figures_projected_from_the_point_table_match_their_own_runs() {
    let keys = [
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig6-tight",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "origin",
    ];
    let kinds = [WorkloadKind::Lu];
    let table = PointTable::new(FIGURES.iter().map(|f| (f.specs)()));
    let results = table.run(&mut TraceSet::new(scale()), &kinds);
    assert_eq!(FIGURES.len(), keys.len());
    for (fig, key) in FIGURES.iter().zip(keys) {
        assert_eq!(fig.key, key, "figure order");
        let specs = (fig.specs)();
        let grid = table.project(&results, &specs).expect("projection");
        // Aliases are renamed back to the spec the figure asked for.
        let systems: Vec<String> = grid[0].1.iter().map(|r| r.system.clone()).collect();
        assert_eq!(systems, names(&specs), "{key}: report names");
        let projected = (fig.table)(&grid);
        // One figure alone: its own one-figure point table.
        let direct = fig
            .run(&mut TraceSet::new(scale()), &kinds)
            .expect("figure run");
        assert_eq!(projected.render(), direct.render(), "{key}: rendered table");
        assert_eq!(
            projected.to_json().render(),
            direct.to_json().render(),
            "{key}: exported table"
        );
    }
}
