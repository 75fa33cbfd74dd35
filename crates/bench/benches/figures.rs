//! End-to-end figure regeneration as benchmarks.
//!
//! Each benchmark runs one paper figure on one representative workload at
//! a reduced trace scale, timing the complete experiment (trace replay on
//! every system configuration of the figure). Before timing, each figure
//! also prints its (reduced-scale) table once, so `cargo bench` output
//! doubles as a quick reproduction check. For publication-shaped numbers
//! use `--bin reproduce` (`--figures <keys>` for a subset) at full scale.

use std::hint::black_box;

use dsm_bench::figures::Figure;
use dsm_bench::tinybench::Tiny;
use dsm_bench::TraceSet;
use dsm_trace::{Scale, WorkloadKind};

const BENCH_SCALE: f64 = 0.1;

/// Benchmarks the figure with `reproduce --figures` key `key` on `kind`
/// alone ([`Figure::run`]).
fn bench_figure(t: &mut Tiny, name: &str, kind: WorkloadKind, key: &str) {
    let figure = Figure::by_key(key).unwrap_or_else(|| panic!("no figure '{key}'"));
    // Print the single-workload table once for eyeballing.
    let mut ts = TraceSet::new(Scale::new(BENCH_SCALE).unwrap());
    let table = figure.run(&mut ts, &[kind]).expect("figure run");
    println!(
        "[{name} @ scale {BENCH_SCALE}, {kind} only]\n{}",
        table.render()
    );

    t.bench(name, || {
        let mut ts = TraceSet::new(Scale::new(BENCH_SCALE).unwrap());
        black_box(figure.run(&mut ts, &[kind]).expect("figure run"));
    });
}

fn main() {
    let mut t = Tiny::from_args();
    t.group("figures");
    bench_figure(&mut t, "fig3_lu", WorkloadKind::Lu, "fig3");
    bench_figure(&mut t, "fig4_radix", WorkloadKind::Radix, "fig4");
    bench_figure(&mut t, "fig5_fmm", WorkloadKind::Fmm, "fig5");
    bench_figure(&mut t, "fig6_radix", WorkloadKind::Radix, "fig6");
    bench_figure(&mut t, "fig7_fmm", WorkloadKind::Fmm, "fig7");
    bench_figure(&mut t, "fig8_ocean", WorkloadKind::Ocean, "fig8");
    bench_figure(&mut t, "fig9_lu", WorkloadKind::Lu, "fig9");
    bench_figure(&mut t, "fig10_radix", WorkloadKind::Radix, "fig10");
    bench_figure(&mut t, "fig11_barnes", WorkloadKind::Barnes, "fig11");
}
