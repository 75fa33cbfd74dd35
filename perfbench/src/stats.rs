//! Order statistics and the metric-name rules.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between the two nearest order statistics (the usual "type 7"
/// definition). Returns `None` for an empty slice.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values` (`None` when empty).
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Whether `name` is a legal metric or workload name: a letter or digit
/// first, then at most 64 characters of `[A-Za-z0-9_.-]`.
#[cfg(test)]
#[must_use]
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A system-configuration or trace name made safe for a metric name:
/// every run of other characters becomes one `-` (`vxp5(t32)` →
/// `vxp5-t32`, `origin+vb` → `origin-vb`).
#[must_use]
pub fn token(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else if !out.ends_with('-') {
            out.push('-');
        }
    }
    out.trim_matches('-').to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), Some(3.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(5.0));
        assert_eq!(quantile(&v, 0.25), Some(2.0));
        assert!((quantile(&v, 0.9).unwrap() - 4.6).abs() < 1e-12);
        assert_eq!(median(&[1.0, 2.0]), Some(1.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn names_follow_the_charset() {
        assert!(valid_name("replay.vxp5-t32.raytrace.ns_per_ref"));
        assert!(valid_name("2x"));
        assert!(!valid_name("_lead"));
        assert!(!valid_name("replay.origin+vb.lu"));
        assert!(!valid_name(""));
        assert!(!valid_name(&"a".repeat(65)));
        assert_eq!(token("vxp5(t32)"), "vxp5-t32");
        assert_eq!(token("origin+vb"), "origin-vb");
        assert_eq!(token("base-dir4B"), "base-dir4B");
        assert_eq!(token("NCD"), "NCD");
    }
}
