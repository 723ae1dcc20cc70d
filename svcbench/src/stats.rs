//! Order statistics over latency samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `sorted` by the nearest-rank rule:
/// the smallest sample with at least `q·n` samples at or below it. It
/// always returns an observed value, never an interpolation.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy and takes the median.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// p50/p90/p99 of a latency sample, in the sample's unit.
#[derive(Debug, Clone, Copy)]
pub struct Percentiles {
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
}

pub fn percentiles(values: &[f64]) -> Percentiles {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Percentiles {
        p50: quantile(&v, 0.50),
        p90: quantile(&v, 0.90),
        p99: quantile(&v, 0.99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_small_samples() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 0.91), 10.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
    }

    #[test]
    fn percentiles_ignore_input_order() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        v.reverse();
        let p = percentiles(&v);
        assert_eq!((p.p50, p.p90, p.p99), (500.0, 900.0, 990.0));
        assert_eq!(median(&[2.0, 9.0, 1.0]), 2.0);
    }
}
