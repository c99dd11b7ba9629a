//! Summary statistics the report is built from: medians, the tail-percentile
//! rule, geometric means and a log-log slope.

/// Percentiles a tail may be reported at, lowest first, in hundredths of a
/// percent so that the ten-sample rule is exact integer arithmetic.
const TAIL_LADDER: [u64; 5] = [9000, 9500, 9900, 9990, 9999];

/// Median of `samples` (mean of the two middle values for an even count);
/// 0 for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100) of an ascending `sorted` slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // The epsilon keeps 0.9 × 100 = 90.00000000000001 at rank 90.
    let rank = (p * sorted.len() as f64 / 100.0 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten of
/// `n` samples beyond it, or `None` when even p90 does not (n < 100).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rfind(|p| n as u64 * (10_000 - p) / 10_000 >= 10)
        .map(|p| p as f64 / 100.0)
}

/// Geometric mean of the positive entries of `values`; 0 when there are none.
pub fn geomean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values
        .iter()
        .filter(|v| **v > 0.0 && v.is_finite())
        .map(|v| v.ln())
        .collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// Arithmetic mean; 0 for an empty set.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Least-squares slope of `ln y` against `ln x`: the exponent `k` of the
/// power law `y ∝ x^k` the points follow.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    if pts.len() < 2 {
        return 0.0;
    }
    let n = pts.len() as f64;
    let (mx, my) = (
        pts.iter().map(|p| p.0).sum::<f64>() / n,
        pts.iter().map(|p| p.1).sum::<f64>() / n,
    );
    let sxx: f64 = pts.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

/// Geometric mean over cells of each cell's median — the way every latency
/// in the report is aggregated, so no median is ever taken over a mix of
/// programs.
pub fn geomean_of_medians(per_cell: &[Vec<f64>]) -> f64 {
    let medians: Vec<f64> = per_cell
        .iter()
        .filter(|c| !c.is_empty())
        .map(|c| median(c))
        .collect();
    geomean(&medians)
}

/// SplitMix64: the harness's only source of randomness, seeded from
/// `--seed`. Used for the cell order; the program under test never sees it.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Visits the cells `0..n` round-robin: every round visits each cell once,
/// in a fresh order drawn from the seed. Reshuffling every round keeps what
/// depends on neighbours (which requests coalesce, what is warm in cache)
/// from being fixed for a whole run by the draw of one permutation.
pub struct RoundRobin {
    rng: SplitMix,
    order: Vec<usize>,
    at: usize,
}

impl RoundRobin {
    pub fn new(n: usize, seed: u64) -> RoundRobin {
        RoundRobin {
            rng: SplitMix(seed),
            order: (0..n).collect(),
            at: n,
        }
    }

    /// Shuffle (Fisher–Yates) and return the order of a whole new round.
    pub fn round(&mut self) -> &[usize] {
        for i in (1..self.order.len()).rev() {
            let j = (self.rng.next_u64() % (i as u64 + 1)) as usize;
            self.order.swap(i, j);
        }
        self.at = self.order.len();
        &self.order
    }

    /// The next cell, starting a new round when the last is used up.
    pub fn next_cell(&mut self) -> usize {
        if self.at == self.order.len() {
            self.round();
            self.at = 0;
        }
        self.at += 1;
        self.order[self.at - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn geomean_ignores_non_positive() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 0.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn geomean_of_medians_never_mixes_cells() {
        // A fast cell with many samples must not drown a slow cell.
        let fast = vec![1.0; 1000];
        let slow = vec![100.0; 3];
        assert!((geomean_of_medians(&[fast, slow, Vec::new()]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn slope_recovers_a_cubic() {
        let pts: Vec<(f64, f64)> = [16.0f64, 32.0, 48.0]
            .iter()
            .map(|&n| (n, 0.5 * n.powi(3)))
            .collect();
        assert!((loglog_slope(&pts) - 3.0).abs() < 1e-9);
        assert_eq!(loglog_slope(&[(1.0, 1.0)]), 0.0);
    }

    #[test]
    fn round_robin_visits_every_cell_once_per_round_repeatably() {
        let draw = |seed| {
            let mut rr = RoundRobin::new(10, seed);
            (0..30).map(|_| rr.next_cell()).collect::<Vec<_>>()
        };
        let a = draw(42);
        assert_eq!(a, draw(42));
        assert_ne!(a, draw(43));
        for round in a.chunks(10) {
            let mut sorted = round.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        }
        assert_ne!(a[..10], a[10..20], "rounds are reshuffled");
        let mut rr = RoundRobin::new(4, 1);
        assert_eq!(rr.round().len(), 4);
    }
}
