//! Order statistics over per-solve samples.

/// Median, quartiles and sample count of one metric within a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: usize,
}

/// Linear-interpolated quantile `p` in `[0, 1]` of `xs` (any order).
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn summarize(xs: &[f64]) -> Summary {
    Summary {
        median: quantile(xs, 0.5),
        q1: quantile(xs, 0.25),
        q3: quantile(xs, 0.75),
        samples: xs.len(),
    }
}

/// The tail of a latency sample: the highest percentile (in whole percent)
/// that still has at least ten samples above it, its value, and the sample
/// count. With fewer than eleven samples no percentile qualifies; the
/// slowest sample is reported as percentile 100 so the metric exists on
/// every workload, and the recorded percentile says which case applies.
pub fn tail(xs: &[f64]) -> (u32, f64) {
    let n = xs.len();
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    if n < 11 {
        return (100, sorted[n - 1]);
    }
    // Percentile p keeps `n - ceil(p n / 100)` samples strictly above its
    // nearest-rank position; take the largest p leaving at least ten.
    let mut best = 0;
    for p in 1..100u32 {
        let rank = (p as usize * n).div_ceil(100).max(1);
        if n - rank >= 10 {
            best = p;
        }
    }
    let rank = (best as usize * n).div_ceil(100).max(1);
    (best, sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_linear_interpolation() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        let s = summarize(&xs);
        assert_eq!((s.q1, s.median, s.q3, s.samples), (2.0, 3.0, 4.0, 5));
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, v) = tail(&xs);
        assert_eq!((p, v), (90, 90.0));
        let few: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&few), (100, 5.0));
    }
}
