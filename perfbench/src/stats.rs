//! Order statistics over timing samples.

/// Percentile summary of one sample set. Percentiles are nearest-rank, so
/// every reported value is a sample that was actually measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub mean: f64,
}

/// Nearest-rank percentile of an ascending slice; 0 for an empty one.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Summarises `samples` (sorted in place).
pub fn summarize(samples: &mut [f64]) -> Summary {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    Summary {
        n,
        p50: percentile(samples, 0.50),
        p90: percentile(samples, 0.90),
        mean: if n == 0 {
            0.0
        } else {
            samples.iter().sum::<f64>() / n as f64
        },
    }
}

/// Median of a small set (set-up repetitions).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    summarize(&mut v).p50
}

/// `num / den`, or 0 when nothing was counted.
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
    fn nearest_rank() {
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&mut v);
        assert_eq!((s.n, s.p50, s.p90, s.mean), (10, 5.0, 9.0, 5.5));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
