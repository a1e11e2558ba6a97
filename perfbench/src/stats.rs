//! Order statistics over timing samples.

/// Sorts a copy of `xs` (total order, NaN last).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile of already-sorted samples, linearly interpolated
/// between the two nearest ranks. `NaN` for an empty sample.
pub fn quantile_sorted(s: &[f64], q: f64) -> f64 {
    match s.len() {
        0 => f64::NAN,
        1 => s[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
        }
    }
}

/// The median of `xs` (`NaN` when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile_sorted(&sorted(xs), 0.5)
}

/// The highest percentile of `xs` that still has at least ten samples
/// beyond it, as `(percentile, value, samples beyond)`. With fewer than
/// twenty samples nothing above the median is supported and the median
/// is returned.
pub fn supported_tail(xs: &[f64]) -> (f64, f64, usize) {
    const LADDER: [f64; 7] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];
    let s = sorted(xs);
    let n = s.len();
    for p in LADDER {
        let beyond = ((n as f64) * (1.0 - p / 100.0)).floor() as usize;
        if beyond >= 10 || p == 50.0 {
            return (p, quantile_sorted(&s, p / 100.0), beyond);
        }
    }
    unreachable!("the ladder ends at the median")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 1.0), 4.0);
        assert_eq!(quantile_sorted(&s, 0.5), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (0..2000).map(f64::from).collect();
        let (p, _, beyond) = supported_tail(&xs);
        assert_eq!(p, 99.0);
        assert_eq!(beyond, 20);
        let (p, _, _) = supported_tail(&xs[..150]);
        assert_eq!(p, 90.0);
        let (p, v, _) = supported_tail(&xs[..5]);
        assert_eq!((p, v), (50.0, 2.0));
    }
}
