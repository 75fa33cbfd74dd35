//! A minimal, dependency-free benchmark harness.
//!
//! The workspace builds in fully offline environments, so the benches
//! cannot rely on Criterion. This module provides the small slice of it
//! they need: named benchmarks, warm-up, adaptive iteration counts,
//! median-of-samples timing, optional element throughput, and a
//! substring filter from the command line (`cargo bench -- <filter>`).
//!
//! Results print as one line per benchmark:
//!
//! ```text
//! set_assoc/insert_evict            42 ns/iter (median of 12 samples)
//! sim_throughput/base           31.2 ms/iter   6.41 Melem/s
//! ```

use std::time::{Duration, Instant};

/// Target wall-clock time per benchmark (all samples together).
const TARGET: Duration = Duration::from_millis(600);
/// Samples per benchmark (the median is reported).
const SAMPLES: usize = 12;

/// The harness: owns the CLI filter and prints results as it goes.
pub struct Tiny {
    filter: Vec<String>,
    group: String,
}

impl Default for Tiny {
    fn default() -> Self {
        Tiny::from_args()
    }
}

impl Tiny {
    /// Builds a harness honoring `cargo bench -- <substring>...` filters
    /// (any non-flag argument is a filter; `--bench`/`--exact` style flags
    /// that cargo forwards are ignored).
    #[must_use]
    pub fn from_args() -> Self {
        let filter = std::env::args()
            .skip(1)
            .filter(|a| !a.starts_with('-'))
            .collect();
        Tiny {
            filter,
            group: String::new(),
        }
    }

    /// Sets a group prefix for subsequent benchmark names.
    pub fn group(&mut self, name: &str) {
        self.group = name.to_owned();
    }

    fn full_name(&self, name: &str) -> String {
        if self.group.is_empty() {
            name.to_owned()
        } else {
            format!("{}/{name}", self.group)
        }
    }

    fn selected(&self, name: &str) -> bool {
        self.filter.is_empty() || self.filter.iter().any(|f| name.contains(f.as_str()))
    }

    /// Benchmarks `f`, printing its median time per iteration.
    pub fn bench(&mut self, name: &str, f: impl FnMut()) {
        self.bench_elements(name, 0, f);
    }

    /// Benchmarks `f` which processes `elements` items per call, printing
    /// time per iteration and, when `elements` is non-zero, element
    /// throughput.
    pub fn bench_elements(&mut self, name: &str, elements: u64, mut f: impl FnMut()) {
        let full = self.full_name(name);
        if !self.selected(&full) {
            return;
        }
        // Warm-up and iteration-count calibration: run once, then scale so
        // one sample takes roughly TARGET / SAMPLES.
        let t0 = Instant::now();
        f();
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let per_sample = TARGET / SAMPLES as u32;
        let iters = (per_sample.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;

        let mut samples: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    f();
                }
                t.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        let median = samples[samples.len() / 2];
        let line = format!("{full:<40} {:>12}/iter", fmt_ns(median));
        if elements > 0 {
            let eps = elements as f64 / (median * 1e-9);
            println!("{line}   {}", fmt_throughput(eps));
        } else {
            println!("{line}");
        }
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

fn fmt_throughput(eps: f64) -> String {
    if eps >= 1e6 {
        format!("{:.2} Melem/s", eps / 1e6)
    } else if eps >= 1e3 {
        format!("{:.2} Kelem/s", eps / 1e3)
    } else {
        format!("{eps:.0} elem/s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_scale() {
        assert_eq!(fmt_ns(12.0), "12 ns");
        assert_eq!(fmt_ns(1_500.0), "1.50 µs");
        assert_eq!(fmt_ns(2_500_000.0), "2.50 ms");
        assert!(fmt_throughput(5e6).contains("Melem/s"));
    }

    #[test]
    fn filter_selects_substrings() {
        let t = Tiny {
            filter: vec!["set_assoc".into()],
            group: String::new(),
        };
        assert!(t.selected("set_assoc/insert"));
        assert!(!t.selected("bus/peer"));
        let all = Tiny {
            filter: vec![],
            group: String::new(),
        };
        assert!(all.selected("anything"));
    }
}
