//! The record a workload run produces: metric values with their sample
//! counts, and the correctness tally.

use std::collections::BTreeMap;

use crate::stats::{median, quantile};

/// Metric values by name, each with the number of samples behind it.
#[derive(Debug, Default)]
pub struct Measured {
    values: BTreeMap<String, (f64, usize)>,
}

impl Measured {
    pub fn set(&mut self, name: impl Into<String>, value: f64, samples: usize) {
        self.values.insert(name.into(), (value, samples));
    }

    /// Sets `name` to the median of `values` (nothing when empty).
    pub fn set_median(&mut self, name: &str, values: &[f64]) {
        if let Some(v) = median(values) {
            self.set(name, v, values.len());
        }
    }

    /// Sets `name` to the `q`-quantile of `values` (nothing when empty).
    pub fn set_quantile(&mut self, name: &str, values: &[f64], q: f64) {
        if let Some(v) = quantile(values, q) {
            self.set(name, v, values.len());
        }
    }

    #[must_use]
    pub fn get(&self, name: &str) -> Option<(f64, usize)> {
        self.values.get(name).copied()
    }
}

/// Counts attempted and failed points and keeps the reference digest of
/// every point label: a point fails when it errors, panics, or yields a
/// digest other than its reference. A label without a reference adopts
/// the first digest seen for it.
#[derive(Debug, Default)]
pub struct Checker {
    expected: BTreeMap<String, String>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Checker {
    #[must_use]
    pub fn with_references(expected: BTreeMap<String, String>) -> Self {
        Checker {
            expected,
            ..Checker::default()
        }
    }

    /// Records one attempted point: `Ok(digest)` or the error it raised.
    pub fn point(&mut self, label: &str, outcome: Result<&str, String>) {
        self.attempted += 1;
        let problem = match outcome {
            Err(e) => Some(format!("{label}: {e}")),
            Ok(digest) => match self.expected.get(label) {
                None => {
                    self.expected.insert(label.to_owned(), digest.to_owned());
                    None
                }
                Some(want) if want == digest => None,
                Some(want) => Some(format!("{label}: digest {digest}, reference {want}")),
            },
        };
        if let Some(p) = problem {
            self.fail(p);
        }
    }

    /// Records a failure that is not tied to one digest comparison.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    /// The references, for `--write-refs`.
    #[must_use]
    pub fn references(&self) -> &BTreeMap<String, String> {
        &self.expected
    }
}

/// Parses a committed digest file: `label digest` per line, `#` comments.
#[must_use]
pub fn parse_references(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (label, digest) = l.rsplit_once(' ')?;
            Some((label.trim().to_owned(), digest.to_owned()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checker_counts_mismatches_and_errors() {
        let refs = parse_references("# header\nbase/fft 00aa\n\nvb16/fft 00bb\n");
        assert_eq!(refs.len(), 2);
        let mut c = Checker::with_references(refs);
        c.point("base/fft", Ok("00aa"));
        c.point("vb16/fft", Ok("ffff"));
        c.point("nc/fft", Ok("0123"));
        c.point("nc/fft", Ok("0123"));
        c.point("NCD/fft", Err("panicked".into()));
        assert_eq!((c.attempted, c.failed), (5, 2));
        assert_eq!(c.problems.len(), 2);
    }

    #[test]
    fn measured_keeps_sample_counts() {
        let mut m = Measured::default();
        m.set_median("wall_s", &[3.0, 1.0, 2.0]);
        m.set_quantile("p90", &[1.0; 100], 0.9);
        m.set_median("empty", &[]);
        assert_eq!(m.get("wall_s"), Some((2.0, 3)));
        assert_eq!(m.get("p90"), Some((1.0, 100)));
        assert_eq!(m.get("empty"), None);
    }
}
