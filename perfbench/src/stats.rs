//! Order statistics over measured samples.

use std::time::Duration;

/// Median of `values` (mean of the two middle values for even counts).
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The fast quartile of time samples: their 25th percentile. A run
/// reports it over many short samples so that contended stretches of a
/// shared host (when memory access runs 2–3× slower for seconds at a
/// time) move it only once they cover three quarters of the run.
pub fn fast_time(times: &[f64]) -> f64 {
    percentile(times, 25.0)
}

/// The fast quartile of rate samples: their 75th percentile.
pub fn fast_rate(rates: &[f64]) -> f64 {
    percentile(rates, 75.0)
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0];

/// The reported tail of a latency sample: the highest percentile on the
/// ladder with at least ten samples beyond it, its value, and the sample
/// count. Falls back to the maximum when even p90 has fewer than ten
/// samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    for p in TAIL_LADDER {
        let beyond = n as f64 * (1.0 - p / 100.0);
        if beyond >= 10.0 {
            return Tail {
                percentile: p,
                value: percentile(values, p),
                samples: n,
            };
        }
    }
    Tail {
        percentile: 100.0,
        value: percentile(values, 100.0),
        samples: n,
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `num / den`, or `0.0` when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        let small: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(tail(&small).percentile, 90.0);
        assert_eq!(tail(&[1.0, 2.0]).percentile, 100.0);
    }
}
