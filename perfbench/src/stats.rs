//! Order statistics used by every metric: medians, quartiles (matching
//! Python's `statistics.quantiles(xs, n=4)`), the tail rule and
//! per-pair ratio medians.

/// Percentiles the tail rule may report, highest first, in per-mille
/// so that ranks are computed in exact integer arithmetic.
const TAIL_LADDER_PERMILLE: [usize; 4] = [999, 990, 900, 500];

/// Samples that must lie strictly beyond a reported tail percentile.
const TAIL_MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile by Python's default `exclusive`
/// method (`statistics.quantiles(xs, n=4)`), which is how run-to-run
/// spread is judged. A single sample is its own quartiles.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let v = sorted(xs);
    let ld = v.len();
    if ld == 1 {
        return [v[0]; 3];
    }
    let m = ld + 1;
    std::array::from_fn(|k| {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// A tail percentile and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub pct: f64,
    /// The sample value at that percentile (nearest rank).
    pub value: f64,
}

/// The highest percentile of p99.9, p99, p90 and p50 with at least
/// [`TAIL_MIN_BEYOND`] samples strictly beyond its nearest-rank value,
/// or `None` when even the median has fewer than that beyond it.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let v = sorted(xs);
    let n = v.len();
    TAIL_LADDER_PERMILLE.iter().find_map(|&pm| {
        // Nearest rank: the smallest 1-based rank covering pm/1000 of n.
        let rank = (pm * n).div_ceil(1000).max(1);
        (n >= rank + TAIL_MIN_BEYOND).then(|| Tail {
            pct: pm as f64 / 10.0,
            value: v[rank - 1],
        })
    })
}

/// Median of the per-pair ratios `num[i] / den[i]` — pairs are measured
/// back to back, so slow drifts of the host cancel inside each ratio.
///
/// # Panics
///
/// Panics if the samples differ in length or are empty.
pub fn paired_ratio_median(num: &[f64], den: &[f64]) -> f64 {
    assert_eq!(num.len(), den.len(), "ratio pairs must align");
    let ratios: Vec<f64> = num.iter().zip(den).map(|(a, b)| a / b).collect();
    median(&ratios)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[9.0]), [9.0; 3]);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 19 samples: the median has only 9 beyond it — no tail.
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        // 20 samples: p50 (rank 10) has exactly 10 beyond it.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(
            tail(&xs),
            Some(Tail {
                pct: 50.0,
                value: 10.0
            })
        );
        // 100 samples: p90 (rank 90) has 10 beyond; p99 only 1.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(
            tail(&xs),
            Some(Tail {
                pct: 90.0,
                value: 90.0
            })
        );
        // 1000 samples: p99 (rank 990) has 10 beyond; p99.9 only 1.
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(
            tail(&xs),
            Some(Tail {
                pct: 99.0,
                value: 990.0
            })
        );
        // 10_000 samples: p99.9 (rank 9990) has 10 beyond.
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.pct), Some(99.9));
    }

    #[test]
    fn paired_ratios_take_the_median_of_ratios_not_of_sides() {
        // Ratios 4, 1.5 and 5: their median is 4, while the ratio of
        // the medians is 4 / 2.
        let den = [1.0, 2.0, 10.0];
        let num = [4.0, 3.0, 50.0];
        assert_eq!(paired_ratio_median(&num, &den), 4.0);
        assert_eq!(median(&num) / median(&den), 2.0);
    }
}
