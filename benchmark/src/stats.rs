//! Order statistics over round samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between closest
/// ranks: `quantile(v, 0.5)` is the median, `quantile(v, 0.9)` over 100
/// samples leaves ten samples beyond it. Empty input gives 0.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    quantile_sorted(&v, q)
}

fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of the samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Interquartile range over the median: the run's own noise indicator
/// (`bench.round_iqr_ratio`). 0 when the median is 0.
pub fn iqr_ratio(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let med = quantile_sorted(&v, 0.5);
    if med == 0.0 {
        return 0.0;
    }
    (quantile_sorted(&v, 0.75) - quantile_sorted(&v, 0.25)) / med
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p90_of_a_hundred_leaves_ten_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = quantile(&v, 0.9);
        assert_eq!(v.iter().filter(|&&x| x > p90).count(), 10);
        assert_eq!(median(&v), 50.5);
    }

    #[test]
    fn iqr_ratio_is_spread_over_median() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert!((iqr_ratio(&v) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(iqr_ratio(&[0.0, 0.0]), 0.0);
    }
}
