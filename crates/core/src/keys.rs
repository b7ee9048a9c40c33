//! Key-frequency distributions for partitioned-stateful operators.

/// The frequency distribution of partitioning keys of a partitioned-stateful
/// operator (§3.2).
///
/// Entry `k` holds the probability `p_k` that an incoming item carries key
/// `k`. The distribution is normalized at construction. The bottleneck
/// elimination algorithm uses it to decide how many replicas a
/// partitioned-stateful operator can effectively use: with a skewed
/// distribution the most loaded replica bounds the achievable speedup.
///
/// # Example
///
/// ```
/// use spinstreams_core::KeyDistribution;
/// let d = KeyDistribution::new(vec![3.0, 1.0]).unwrap();
/// assert_eq!(d.frequency(0), 0.75);
/// assert_eq!(d.num_keys(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KeyDistribution {
    freqs: Vec<f64>,
    /// Running sums of `freqs`, accumulated left to right in `f64` — the
    /// exact sequence an inverse-CDF scan would compute, so a binary search
    /// over it picks the same key the scan would.
    cdf: Vec<f64>,
}

impl KeyDistribution {
    /// Creates a distribution from non-negative weights, normalizing them to
    /// sum to one.
    ///
    /// Returns `None` if `weights` is empty, contains a negative or
    /// non-finite value, or sums to zero.
    pub fn new(weights: Vec<f64>) -> Option<Self> {
        if weights.is_empty() {
            return None;
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return None;
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return None;
        }
        // Already-normalized input passes through bit-exactly (so
        // serialization round-trips are lossless); anything else is scaled.
        if (total - 1.0).abs() < 1e-12 {
            return Some(Self::from_freqs(weights));
        }
        Some(Self::from_freqs(
            weights.into_iter().map(|w| w / total).collect(),
        ))
    }

    fn from_freqs(freqs: Vec<f64>) -> Self {
        let cdf = freqs
            .iter()
            .scan(0.0, |acc, p| {
                *acc += p;
                Some(*acc)
            })
            .collect();
        KeyDistribution { freqs, cdf }
    }

    /// A uniform distribution over `num_keys` keys.
    ///
    /// # Panics
    ///
    /// Panics if `num_keys` is zero.
    pub fn uniform(num_keys: usize) -> Self {
        assert!(num_keys > 0, "a key distribution needs at least one key");
        Self::from_freqs(vec![1.0 / num_keys as f64; num_keys])
    }

    /// A Zipf-like power-law distribution over `num_keys` keys with scaling
    /// exponent `alpha > 0`: `p_k ∝ (k+1)^-alpha`.
    ///
    /// The paper's testbed generates key frequencies "by a random ZipF law";
    /// larger `alpha` means more skew.
    ///
    /// # Panics
    ///
    /// Panics if `num_keys` is zero or `alpha` is not finite and positive.
    pub fn zipf(num_keys: usize, alpha: f64) -> Self {
        assert!(num_keys > 0, "a key distribution needs at least one key");
        assert!(
            alpha.is_finite() && alpha > 0.0,
            "zipf exponent must be positive, got {alpha}"
        );
        let weights: Vec<f64> = (1..=num_keys).map(|k| (k as f64).powf(-alpha)).collect();
        KeyDistribution::new(weights).expect("zipf weights are positive")
    }

    /// Number of distinct keys.
    pub fn num_keys(&self) -> usize {
        self.freqs.len()
    }

    /// Probability of key `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn frequency(&self, k: usize) -> f64 {
        self.freqs[k]
    }

    /// All key probabilities, in key order.
    pub fn frequencies(&self) -> &[f64] {
        &self.freqs
    }

    /// The largest single-key probability.
    ///
    /// This lower-bounds the fraction of traffic the most loaded replica
    /// must absorb, regardless of how keys are assigned to replicas.
    pub fn max_frequency(&self) -> f64 {
        self.freqs.iter().cloned().fold(0.0, f64::max)
    }

    /// Samples a key index given a uniform draw `u ∈ [0, 1)` (inverse CDF).
    ///
    /// Returns the first key whose cumulative probability exceeds `u`,
    /// found by binary search in O(log K). A `u` at or above the last
    /// running sum (which rounding can leave just below `1.0`) maps to the
    /// last key, and so does `NaN`, which is below no running sum.
    /// Deterministic given `u`, which keeps workload generation
    /// reproducible.
    pub fn sample(&self, u: f64) -> usize {
        let last = self.cdf.len() - 1;
        if u.is_nan() {
            return last;
        }
        self.cdf.partition_point(|&c| c <= u).min(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_weights() {
        let d = KeyDistribution::new(vec![1.0, 1.0, 2.0]).unwrap();
        assert!((d.frequency(2) - 0.5).abs() < 1e-12);
        assert!((d.frequencies().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_weights() {
        assert!(KeyDistribution::new(vec![]).is_none());
        assert!(KeyDistribution::new(vec![0.0, 0.0]).is_none());
        assert!(KeyDistribution::new(vec![1.0, -0.5]).is_none());
        assert!(KeyDistribution::new(vec![f64::NAN]).is_none());
        assert!(KeyDistribution::new(vec![f64::INFINITY]).is_none());
    }

    #[test]
    fn uniform_is_flat() {
        let d = KeyDistribution::uniform(4);
        for k in 0..4 {
            assert!((d.frequency(k) - 0.25).abs() < 1e-12);
        }
        assert_eq!(d.max_frequency(), 0.25);
    }

    #[test]
    fn zipf_is_skewed_and_monotone() {
        let d = KeyDistribution::zipf(10, 1.5);
        for k in 1..10 {
            assert!(d.frequency(k - 1) > d.frequency(k));
        }
        assert!(d.max_frequency() > 0.1);
        assert!((d.frequencies().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn higher_alpha_means_more_skew() {
        let mild = KeyDistribution::zipf(50, 1.01);
        let harsh = KeyDistribution::zipf(50, 3.0);
        assert!(harsh.max_frequency() > mild.max_frequency());
    }

    #[test]
    fn sample_inverse_cdf() {
        let d = KeyDistribution::new(vec![0.5, 0.25, 0.25]).unwrap();
        assert_eq!(d.sample(0.0), 0);
        assert_eq!(d.sample(0.49), 0);
        assert_eq!(d.sample(0.5), 1);
        assert_eq!(d.sample(0.74), 1);
        assert_eq!(d.sample(0.75), 2);
        assert_eq!(d.sample(0.999), 2);
    }

    #[test]
    fn sample_clamps_to_last_key() {
        let d = KeyDistribution::uniform(3);
        assert_eq!(d.sample(1.0), 2);
    }

    /// The inverse-CDF linear scan `sample` replaced: the reference every
    /// binary-search draw must reproduce bit for bit.
    fn sample_by_scan(d: &KeyDistribution, u: f64) -> usize {
        let mut acc = 0.0;
        for (k, p) in d.frequencies().iter().enumerate() {
            acc += p;
            if u < acc {
                return k;
            }
        }
        d.num_keys() - 1
    }

    #[test]
    fn sample_matches_linear_scan_bit_for_bit() {
        let dists = [
            KeyDistribution::zipf(1024, 0.9),
            KeyDistribution::zipf(4096, 0.8),
            KeyDistribution::uniform(3),
            KeyDistribution::new(vec![0.0, 2.0, 0.0, 0.0, 1.0, 0.0, 3.0, 0.0]).unwrap(),
        ];
        // SplitMix64 draws: no dependency, fixed seed.
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next_u = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        };
        for d in &dists {
            let mut probes = vec![0.0, -0.0, 1.0, 1.5, f64::INFINITY, f64::NEG_INFINITY];
            let mut acc = 0.0;
            for p in d.frequencies() {
                acc += p;
                probes.extend([acc, acc.next_down(), acc.next_up()]);
            }
            for u in probes {
                assert_eq!(d.sample(u), sample_by_scan(d, u), "u = {u:e}");
            }
            for _ in 0..1_000_000 {
                let u = next_u();
                assert_eq!(d.sample(u), sample_by_scan(d, u), "u = {u:e}");
            }
        }
    }

    #[test]
    fn sample_of_nan_is_the_last_key() {
        // The scan never satisfies `NaN < acc`; a bare binary search would
        // answer key 0 instead.
        for d in [
            KeyDistribution::zipf(1024, 0.9),
            KeyDistribution::uniform(3),
        ] {
            assert_eq!(d.sample(f64::NAN), d.num_keys() - 1);
            assert_eq!(d.sample(f64::NAN), sample_by_scan(&d, f64::NAN));
        }
    }

    #[test]
    fn sample_skips_zero_weight_keys() {
        let d = KeyDistribution::new(vec![0.0, 1.0, 0.0, 1.0, 0.0]).unwrap();
        assert_eq!(d.sample(0.0), 1);
        assert_eq!(d.sample(0.5), 3);
        assert_eq!(d.sample(0.999), 3);
        // Past the mass, the clamp lands on the (zero-weight) last key,
        // exactly as the scan's fallback does.
        assert_eq!(d.sample(1.0), 4);
    }
}
