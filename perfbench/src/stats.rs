//! Small statistics helpers: the Zipf key chooser, the tail-percentile
//! rule, and medians.

use rand::rngs::StdRng;
use rand::Rng;

/// Exact Zipf chooser over ranks `0..n`: rank `i` is drawn with
/// probability proportional to `1 / (i + 1)^theta`. It inverts the
/// cumulative distribution by binary search, so frequencies are exact for
/// every rank, not only the first two as in the YCSB approximation.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        assert!(n > 0, "zipf over an empty range");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Draw `k` distinct ranks.
    pub fn sample_distinct(&self, rng: &mut StdRng, k: usize) -> Vec<usize> {
        assert!(k <= self.cdf.len());
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let r = self.sample(rng);
            if !out.contains(&r) {
                out.push(r);
            }
        }
        out
    }
}

/// A percentile read from a sample: the value, the percentile it really
/// is, and the sample count it came from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub pct: f64,
    pub n: usize,
}

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_SAMPLES: usize = 10;

/// The nearest-rank percentile `q` of `sorted`, lowered when needed to the
/// highest percentile that still has at least [`TAIL_SAMPLES`] samples
/// beyond it. `None` when the sample is too small for any such percentile.
pub fn percentile(sorted: &[f64], q: f64) -> Option<Pct> {
    let n = sorted.len();
    if n <= TAIL_SAMPLES {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let idx = (rank - 1).min(n - 1 - TAIL_SAMPLES);
    Some(Pct { value: sorted[idx], pct: (idx + 1) as f64 / n as f64, n })
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zipf_rank_frequencies_follow_the_power_law() {
        let theta = 0.99;
        let z = Zipf::new(1000, theta);
        let mut rng = StdRng::seed_from_u64(7);
        let draws = 2_000_000;
        let mut counts = vec![0u64; 1000];
        for _ in 0..draws {
            counts[z.sample(&mut rng)] += 1;
        }
        let h: f64 = (1..=1000).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        for (rank, &count) in counts.iter().enumerate().take(20) {
            let want = 1.0 / ((rank + 1) as f64).powf(theta) / h;
            let got = count as f64 / draws as f64;
            assert!((got / want - 1.0).abs() < 0.05, "rank {rank}: {got} vs {want}");
        }
        // The power law itself: f(1) / f(i) = i^theta.
        let ratio = counts[0] as f64 / counts[9] as f64;
        assert!((ratio / 10f64.powf(theta) - 1.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn zipf_distinct_draws_are_distinct() {
        let z = Zipf::new(8, 0.99);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let mut d = z.sample_distinct(&mut rng, 4);
            d.sort();
            d.dedup();
            assert_eq!(d.len(), 4);
        }
    }

    #[test]
    fn percentile_keeps_ten_samples_beyond_it() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = percentile(&sorted, 0.99).unwrap();
        assert_eq!(p, Pct { value: 990.0, pct: 0.99, n: 1000 });
        assert_eq!(percentile(&sorted, 0.5).unwrap().value, 500.0);

        // 500 samples cannot support p99: the rule falls back to p98.
        let sorted: Vec<f64> = (1..=500).map(f64::from).collect();
        let p = percentile(&sorted, 0.99).unwrap();
        assert_eq!(p, Pct { value: 490.0, pct: 0.98, n: 500 });
        assert_eq!(sorted.iter().filter(|&&v| v > p.value).count(), TAIL_SAMPLES);

        let tiny: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&tiny, 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
