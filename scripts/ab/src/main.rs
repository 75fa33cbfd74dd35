//! Times the parent commit's simulator against the change's in one
//! process; run it through `scripts/ab.sh <rev>`, which unpacks the
//! parent under `target/ab/base`.
//!
//! Both sides generate the benchmark's traces at scale 0.05, which must
//! encode to the same bytes, and replay its 35 points through
//! `runner::run_trace`. Each point runs one discarded warm-up pair and
//! [`PAIRS`] timed pairs, the side that goes first alternating, and
//! prints the median and IQR of its change/parent ratios of the reports'
//! `wall_s`, the pairs the change won, and whether the two reports are
//! otherwise identical, then each kernel's median and pairs won. Exit
//! codes: 0 no slowdown, 1 slower ([`slower`]), 2 the traces differ or a
//! replay fails.

use std::path::Path;
use std::process::ExitCode;

/// Timed pairs per point, after one discarded warm-up pair.
const PAIRS: usize = 10;
/// A kernel's points are slower when the median of their medians is
/// above `.0` and the change won at most a `.1` share of their pairs: a
/// cost that only some kernels feel.
const KERNEL: (f64, f64) = (1.03, 0.3);
/// The same for one point: a cost on one path, such as the mapped decode.
const POINT: (f64, f64) = (1.25, 0.1);

/// One point's result: `<spec>/<trace>`, the workload of its trace (a
/// mapped copy counts as its workload's), the median change/parent ratio
/// over the timed pairs, and the pairs the change won.
struct Point {
    label: String,
    kernel: String,
    median: f64,
    won: usize,
}

macro_rules! side {
    ($side:ident, $core:ident, $trace:ident, $types:ident) => {
        mod $side {
            use std::path::Path;

            use $core::runner::run_trace;
            use $core::{PcSize, SystemSpec};
            use $trace::codec::{open_shared_mapped, write_shared};
            use $trace::{Scale, SharedTrace, WorkloadKind::*};
            use $types::{Geometry, Topology};

            /// The traces `(name, data-set bytes, trace)`, and the points
            /// `(spec, trace)`.
            pub struct Side(Vec<(String, u64, SharedTrace)>, Vec<(SystemSpec, usize)>);

            impl Side {
                /// Generates the traces: `replay-static`'s fft, radix and
                /// raytrace, then lu and ocean for `replay-migrep`.
                pub fn new() -> Side {
                    let (topo, geo) = (Topology::paper_default(), Geometry::paper_default());
                    let scale = Scale::new(0.05).expect("a valid scale");
                    let traces = [Fft, Radix, Raytrace, Lu, Ocean].map(|k| {
                        let w = k.paper_instance();
                        let trace = SharedTrace::from_refs(topo, geo, &w.generate(&topo, scale));
                        (k.display_name().to_lowercase(), w.shared_bytes(), trace)
                    });
                    let pc = PcSize::DataFraction(5);
                    let fixed = [
                        SystemSpec::base(),
                        SystemSpec::vb(),
                        SystemSpec::nc(),
                        SystemSpec::ncd(),
                        SystemSpec::vbp(pc),
                        SystemSpec::vpp(pc),
                        SystemSpec::vxp(pc, 32),
                        SystemSpec::base().with_limited_directory(4),
                    ];
                    let mut points = Vec::new();
                    for t in 0..3 {
                        points.extend(fixed.iter().map(|s| (s.clone(), t)));
                    }
                    for s in [SystemSpec::origin(), SystemSpec::origin_vb()] {
                        points.extend([3, 4, 1, 2].map(|t| (s.clone(), t)));
                    }
                    // Traces 5..8 are the mapped copies `map` appends.
                    points.extend((5..8).map(|t| (SystemSpec::base(), t)));
                    Side(traces.into(), points)
                }

                /// Each trace's name and `write_shared` bytes.
                pub fn encoded(&self) -> Vec<(String, Vec<u8>)> {
                    let mut out = Vec::new();
                    for (name, _, trace) in &self.0 {
                        let mut bytes = Vec::new();
                        write_shared(&mut bytes, trace).expect("a Vec takes every write");
                        out.push((name.clone(), bytes));
                    }
                    out
                }

                /// Appends the trace mapped from `path`, a copy of trace `t`.
                pub fn map(&mut self, t: usize, path: &Path) -> Result<(), String> {
                    let trace = open_shared_mapped(path).map_err(|e| e.to_string())?;
                    self.0.push((self.0[t].0.clone(), self.0[t].1, trace));
                    Ok(())
                }

                /// Each point as `<spec>/<trace>`, and its trace's name; only
                /// the change's are used.
                #[allow(dead_code)]
                pub fn labels(&self) -> Vec<(String, String)> {
                    let via = |t| if t >= 5 { " (mapped)" } else { "" };
                    let label = |(s, t): &(SystemSpec, usize)| {
                        let name = &self.0[*t].0;
                        (format!("{}/{name}{}", s.name, via(*t)), name.clone())
                    };
                    self.1.iter().map(label).collect()
                }

                /// Replays point `i`: the report's `wall_s`, and its JSON
                /// with `wall_s` zeroed.
                pub fn replay(&self, i: usize) -> Result<(f64, String), String> {
                    let (spec, t) = &self.1[i];
                    let (name, data_bytes, trace) = &self.0[*t];
                    let run = run_trace(spec, name, *data_bytes, trace);
                    let mut report = run.map_err(|e| e.to_string())?;
                    let secs = std::mem::take(&mut report.wall_s);
                    Ok((secs, report.to_json().render()))
                }
            }
        }
    };
}

side!(parent, parent_core, parent_trace, parent_types);
side!(change, dsm_core, dsm_trace, dsm_types);

/// The `q`-quantile of `values`, interpolating between the two nearest
/// order statistics.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The points of each kernel, by the kernel's name.
fn by_kernel(points: &[Point]) -> Vec<(&str, Vec<&Point>)> {
    let mut kernels: Vec<&str> = points.iter().map(|p| p.kernel.as_str()).collect();
    kernels.sort_unstable();
    kernels.dedup();
    let group = |k| (k, points.iter().filter(|p| p.kernel == k).collect());
    kernels.into_iter().map(group).collect()
}

/// A group's median of per-point medians, and the pairs the change won.
fn summary(group: &[&Point]) -> (f64, usize) {
    let medians: Vec<f64> = group.iter().map(|p| p.median).collect();
    (quantile(&medians, 0.5), group.iter().map(|p| p.won).sum())
}

/// Why the change is slower, or `None`: over all points, the median of
/// the medians is above 1.03 and at least 9 in 10 points are above 1.0;
/// or one kernel's points, or one point, are past [`KERNEL`] or
/// [`POINT`]. Those bounds sit past what 15 A/A runs read (EXPERIMENTS.md
/// "One way to compare two commits").
fn slower(points: &[Point]) -> Option<String> {
    let (median, _) = summary(&points.iter().collect::<Vec<_>>());
    let above = points.iter().filter(|p| p.median > 1.0).count();
    if median > 1.03 && 10 * above >= 9 * points.len() {
        return Some(format!("all points: median {median:.3}, {above} above 1.0"));
    }
    let kernels = by_kernel(points).into_iter().map(|(k, g)| (KERNEL, k, g));
    let singles = points.iter().map(|p| (POINT, p.label.as_str(), vec![p]));
    for ((bound, share), name, group) in kernels.chain(singles) {
        let (median, won) = summary(&group);
        let pairs = PAIRS * group.len();
        if median > bound && won as f64 <= share * pairs as f64 {
            return Some(format!(
                "{name}: median {median:.3}, won {won} of {pairs} pairs"
            ));
        }
    }
    None
}

fn run() -> Result<Option<String>, String> {
    let (mut parent, mut change) = (parent::Side::new(), change::Side::new());
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/ab");
    let encoded = parent.encoded().into_iter().zip(change.encoded());
    for (t, ((_, a), (name, bytes))) in encoded.enumerate() {
        if a != bytes {
            return Err(format!("the {name} traces differ; nothing timed"));
        }
        if t < 3 {
            let path = dir.join(format!("{name}.dsmt"));
            std::fs::write(&path, &bytes).map_err(|e| format!("{}: {e}", path.display()))?;
            let mapped = parent.map(t, &path).and_then(|()| change.map(t, &path));
            std::fs::remove_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            mapped?;
        }
    }
    println!("change/parent                 median    IQR   won  reports");
    let (mut points, mut differ) = (Vec::new(), 0);
    for (i, (label, kernel)) in change.labels().into_iter().enumerate() {
        let (mut ratios, mut same) = (Vec::new(), true);
        for pair in 0..=PAIRS {
            let (a, b) = if pair % 2 == 0 {
                let a = parent.replay(i)?;
                (a, change.replay(i)?)
            } else {
                let b = change.replay(i)?;
                (parent.replay(i)?, b)
            };
            same &= a.1 == b.1;
            if pair > 0 {
                ratios.push(b.0 / a.0);
            }
        }
        let iqr = quantile(&ratios, 0.75) - quantile(&ratios, 0.25);
        let won = ratios.iter().filter(|&&r| r < 1.0).count();
        let median = quantile(&ratios, 0.5);
        differ += usize::from(!same);
        let same = if same { "same" } else { "DIFFER" };
        println!("{label:<28} {median:>7.3} {iqr:>6.3} {won:>2}/{PAIRS}  {same}");
        points.push(Point {
            label,
            kernel,
            median,
            won,
        });
    }
    let all: Vec<&Point> = points.iter().collect();
    for (name, group) in by_kernel(&points).into_iter().chain([("all points", all)]) {
        let ((median, won), pairs) = (summary(&group), PAIRS * group.len());
        println!("{name:<28} {median:>7.3}        {won:>2}/{pairs}");
    }
    let above = points.iter().filter(|p| p.median > 1.0).count();
    println!("points above 1.0: {above}; reports differ on {differ}");
    Ok(slower(&points))
}

fn main() -> ExitCode {
    match run() {
        Ok(None) => {
            println!("ab: no slowdown");
            ExitCode::SUCCESS
        }
        Ok(Some(why)) => {
            println!("ab: the change is slower ({why})");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("ab: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A measured run: each point's median and the pairs the change won,
    /// in point order.
    type Run = ([f64; 35], [usize; 35]);
    /// An A/A run (the parent against itself): the widest measured.
    const AA_NOISY: Run = (
        [
            1.036, 0.985, 1.008, 1.011, 1.025, 0.971, 0.997, 1.018, 1.109, 0.994, 1.027, 0.965,
            1.019, 1.037, 0.994, 1.078, 0.971, 0.980, 1.085, 1.141, 1.071, 1.044, 1.003, 1.107,
            1.007, 0.994, 1.060, 1.023, 0.995, 1.078, 1.104, 0.948, 1.025, 1.032, 1.048,
        ],
        [
            1, 7, 4, 3, 3, 6, 5, 5, 3, 7, 4, 6, 3, 4, 5, 3, 7, 7, 2, 1, 4, 3, 4, 3, 4, 6, 4, 5, 5,
            4, 3, 7, 1, 1, 3,
        ],
    );
    /// A 12-iteration `black_box` spin at the top of the change's
    /// `System::process_decoded`: fft, lu and ocean read 1.02-1.07.
    const SPIN_12: Run = (
        [
            1.041, 1.044, 1.041, 1.039, 1.019, 1.027, 1.034, 1.014, 1.036, 1.024, 1.019, 1.025,
            1.004, 1.026, 1.011, 0.997, 0.990, 1.019, 1.003, 1.013, 0.995, 0.984, 0.990, 1.063,
            1.059, 1.073, 1.031, 0.999, 1.060, 1.046, 1.019, 1.011, 1.040, 0.999, 0.986,
        ],
        [
            2, 0, 1, 2, 3, 0, 1, 4, 2, 1, 1, 0, 4, 2, 3, 5, 9, 3, 5, 4, 6, 7, 6, 3, 0, 3, 3, 5, 0,
            1, 1, 4, 0, 5, 8,
        ],
    );

    fn points((medians, won): Run) -> Vec<Point> {
        let statics = ["fft", "radix", "raytrace"].map(|k| [k; 8]).concat();
        let migrep = ["lu", "ocean", "radix", "raytrace"].repeat(2);
        let kernels = [statics, migrep, vec!["fft", "radix", "raytrace"]].concat();
        let point = |(i, k): (usize, &str)| Point {
            label: format!("{k} #{i}"),
            kernel: k.to_string(),
            median: medians[i],
            won: won[i],
        };
        kernels.into_iter().enumerate().map(point).collect()
    }

    /// `run` with the points `at` reading `median`, none of whose pairs
    /// the change won.
    fn with(mut run: Run, at: std::ops::Range<usize>, median: f64) -> Vec<Point> {
        at.for_each(|i| (run.0[i], run.1[i]) = (median, 0));
        points(run)
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
    }

    #[test]
    fn verdict_separates_noise_from_a_slowdown() {
        assert_eq!(slower(&points(AA_NOISY)), None);
        let spin = slower(&points(SPIN_12)).expect("the 12-iteration spin is slower");
        assert!(spin.starts_with("fft:"), "{spin}");
        let faster = (SPIN_12.0.map(|m| 1.0 / m), SPIN_12.1.map(|won| PAIRS - won));
        assert_eq!(slower(&points(faster)), None, "a faster change passes");
    }

    #[test]
    fn a_slowdown_on_a_few_points_or_all_is_slower() {
        // Only the mapped decode path, or only the migrating configs.
        let mapped = slower(&with(AA_NOISY, 32..35, 1.5)).expect("mapped points");
        assert!(mapped.starts_with("fft #32:"), "{mapped}");
        assert!(slower(&with(AA_NOISY, 24..32, 1.5)).is_some());
        // Past the widest A/A point, but the change won half the pairs.
        let mut noisy = points(AA_NOISY);
        (noisy[19].median, noisy[19].won) = (1.3, 5);
        assert_eq!(slower(&noisy), None);
        // Every point just above 1.0, or 4 % slower, with half the pairs won.
        let even = |median| ([median; 35], [PAIRS / 2; 35]);
        assert_eq!(slower(&points(even(1.01))), None);
        let all = slower(&points(even(1.04))).expect("every point 4 % slower");
        assert!(all.starts_with("all points:"), "{all}");
        // The A/A run's points shifted up by 0.01: the median is past
        // 1.03 but 6 of 35 points stay below 1.0.
        let shifted = (AA_NOISY.0.map(|m| m + 0.01), AA_NOISY.1);
        assert_eq!(slower(&points(shifted)), None);
    }
}
