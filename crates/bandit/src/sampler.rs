//! The adaptive (Thompson) and random sampling schedulers of §IV-B.

use anole_tensor::StdRng;

use crate::BetaPosterior;

/// Minimum number of draws from a training set of `set_size` elements needed
/// to have covered each element with confidence `theta` (paper §IV-B):
///
/// `|Sᵢ| > log(1 − θ^(1/|Γᵢ|)) / log(1 − 1/|Γᵢ|)`.
///
/// Returns 0 for empty sets; a singleton set needs one draw.
///
/// # Panics
///
/// Panics if `theta` is not in `(0, 1)`.
///
/// # Examples
///
/// ```
/// let t = anole_bandit::well_sampled_threshold(1000, 0.9);
/// // Coupon collector: roughly n·ln(n/(1-θ^(1/n))) ≈ n·(ln n + extra).
/// assert!(t > 1000.0 * (1000.0f64).ln() * 0.9);
/// ```
pub fn well_sampled_threshold(set_size: usize, theta: f64) -> f64 {
    assert!(theta > 0.0 && theta < 1.0, "theta must be in (0, 1)");
    match set_size {
        0 => 0.0,
        1 => 1.0,
        n => {
            let n = n as f64;
            let num = (1.0 - theta.powf(1.0 / n)).ln();
            let den = (1.0 - 1.0 / n).ln();
            num / den
        }
    }
}

/// Balance of a count vector: ratio of the smallest to the largest count,
/// in `[0, 1]`, 1 meaning perfectly balanced (used to compare Fig. 3a/3b).
///
/// Returns 1.0 for empty input and 0.0 if any count is zero while another
/// is not.
pub fn balance_coefficient(counts: &[usize]) -> f64 {
    let (mut min, mut max) = (usize::MAX, 0usize);
    for &c in counts {
        min = min.min(c);
        max = max.max(c);
    }
    if counts.is_empty() || max == 0 {
        1.0
    } else {
        min as f64 / max as f64
    }
}

/// Common interface of the two sampling schedulers so experiments can swap
/// them (Fig. 3 compares random vs adaptive).
pub trait SamplingStrategy {
    /// Picks the training-set arm to sample next, or `None` when every arm
    /// is well sampled.
    fn select(&mut self, rng: &mut StdRng) -> Option<usize>;

    /// Records that one sample was drawn from `arm`'s training set.
    ///
    /// # Panics
    ///
    /// Panics if `arm` is out of range.
    fn record_sampled(&mut self, arm: usize);

    /// Number of samples drawn from each arm so far.
    fn counts(&self) -> &[usize];

    /// Total samples drawn so far.
    fn total_samples(&self) -> usize {
        self.counts().iter().sum()
    }
}

/// The paper's adaptive scene-sampling scheduler.
///
/// One Beta posterior per training set `Γᵢ`. Each round draws a Thompson
/// sample for every not-yet-well-sampled arm, selects the arm with the
/// highest draw, and after the caller actually samples that `Γᵢ`, updates
/// every posterior (selected arm α+1, all others β+1).
#[derive(Debug, Clone)]
pub struct ThompsonSampler {
    posteriors: Vec<BetaPosterior>,
    set_sizes: Vec<usize>,
    counts: Vec<usize>,
    theta: f64,
    exhausted: Vec<bool>,
}

impl ThompsonSampler {
    /// Creates a scheduler over arms with the given training-set sizes and
    /// well-sampledness confidence `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `theta` is not in `(0, 1)`.
    pub fn new(set_sizes: &[usize], theta: f64) -> Self {
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0, 1)");
        Self {
            posteriors: vec![BetaPosterior::uniform(); set_sizes.len()],
            set_sizes: set_sizes.to_vec(),
            counts: vec![0; set_sizes.len()],
            theta,
            exhausted: vec![false; set_sizes.len()],
        }
    }

    /// Removes arm `i` from further selection regardless of the
    /// well-sampledness criterion.
    ///
    /// The paper's procedure runs until every `Γᵢ` is well sampled; under a
    /// finite budget κ the selected/passed-over Beta update is
    /// rich-get-richer, so a caller enforcing a per-arm draw cap marks
    /// capped arms exhausted to keep the remaining budget flowing to the
    /// other arms.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set_exhausted(&mut self, i: usize) {
        self.exhausted[i] = true;
    }

    /// Whether arm `i` has met the coupon-collector criterion.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn is_well_sampled(&self, i: usize) -> bool {
        self.counts[i] as f64 > well_sampled_threshold(self.set_sizes[i], self.theta)
    }

    /// Borrows the per-arm posteriors.
    #[cfg(test)]
    fn posteriors(&self) -> &[BetaPosterior] {
        &self.posteriors
    }
}

impl SamplingStrategy for ThompsonSampler {
    fn select(&mut self, rng: &mut StdRng) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for i in 0..self.posteriors.len() {
            if self.is_well_sampled(i) || self.exhausted[i] {
                continue;
            }
            let draw = self.posteriors[i].sample(rng);
            match best {
                Some((_, b)) if draw <= b => {}
                _ => best = Some((i, draw)),
            }
        }
        best.map(|(i, _)| i)
    }

    fn record_sampled(&mut self, arm: usize) {
        assert!(arm < self.counts.len(), "arm index out of range");
        self.counts[arm] += 1;
        for (i, p) in self.posteriors.iter_mut().enumerate() {
            if i == arm {
                p.observe_selected();
            } else {
                p.observe_passed_over();
            }
        }
    }

    fn counts(&self) -> &[usize] {
        &self.counts
    }
}

/// The random-sampling baseline of Fig. 3a.
///
/// Drawing a uniform sample from the pooled dataset `D` lands in `Γᵢ` with
/// probability proportional to `|Γᵢ|`, so arm selection is size-weighted —
/// exactly the bias the adaptive scheduler removes.
#[derive(Debug, Clone)]
pub struct RandomSampler {
    set_sizes: Vec<usize>,
    counts: Vec<usize>,
    total_size: usize,
}

impl RandomSampler {
    /// Creates the baseline over arms with the given training-set sizes.
    pub fn new(set_sizes: &[usize]) -> Self {
        Self {
            set_sizes: set_sizes.to_vec(),
            counts: vec![0; set_sizes.len()],
            total_size: set_sizes.iter().sum(),
        }
    }
}

impl SamplingStrategy for RandomSampler {
    fn select(&mut self, rng: &mut StdRng) -> Option<usize> {
        if self.total_size == 0 {
            return None;
        }
        let mut target = rng.usize(0..self.total_size);
        for (i, &s) in self.set_sizes.iter().enumerate() {
            if target < s {
                return Some(i);
            }
            target -= s;
        }
        None
    }

    fn record_sampled(&mut self, arm: usize) {
        assert!(arm < self.counts.len(), "arm index out of range");
        self.counts[arm] += 1;
    }

    fn counts(&self) -> &[usize] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anole_tensor::{rng_from_seed, Seed};

    #[test]
    fn threshold_grows_with_set_size_and_theta() {
        let t1 = well_sampled_threshold(100, 0.9);
        let t2 = well_sampled_threshold(1000, 0.9);
        let t3 = well_sampled_threshold(1000, 0.99);
        assert!(t2 > t1);
        assert!(t3 > t2);
        assert_eq!(well_sampled_threshold(0, 0.9), 0.0);
        assert_eq!(well_sampled_threshold(1, 0.9), 1.0);
    }

    #[test]
    #[should_panic(expected = "theta must be in (0, 1)")]
    fn threshold_rejects_bad_theta() {
        let _ = well_sampled_threshold(10, 1.0);
    }

    #[test]
    fn balance_coefficient_behaviour() {
        assert_eq!(balance_coefficient(&[]), 1.0);
        assert_eq!(balance_coefficient(&[0, 0]), 1.0);
        assert_eq!(balance_coefficient(&[5, 0]), 0.0);
        assert_eq!(balance_coefficient(&[10, 10]), 1.0);
        assert!((balance_coefficient(&[5, 10]) - 0.5).abs() < 1e-12);
    }

    /// Fig. 3's comparison. Random sampling of the pooled dataset lands in
    /// each model's implicit distribution Ψᵢ proportionally to its
    /// prevalence, which is power-law skewed (Fig. 4b). Adaptive sampling
    /// draws from the comparably sized training clusters Γᵢ until each is
    /// well sampled, so its counts follow the (mildly varying) thresholds.
    #[test]
    fn thompson_is_more_balanced_than_random() {
        // Power-law prevalence of the 16 models in the pooled dataset.
        let prevalence: Vec<usize> = (0..16).map(|i| 10_000 / ((i + 1) * (i + 1))).collect();
        let budget = 4000;
        let mut rng = rng_from_seed(Seed(10));
        let mut random = RandomSampler::new(&prevalence);
        for _ in 0..budget {
            let arm = random.select(&mut rng).unwrap();
            random.record_sampled(arm);
        }

        // Comparable per-model training clusters produced by Algorithm 1.
        let cluster_sizes: Vec<usize> = (0..16).map(|i| 60 + 10 * (i % 5)).collect();
        let mut rng = rng_from_seed(Seed(11));
        let mut thompson = ThompsonSampler::new(&cluster_sizes, 0.5);
        while let Some(arm) = thompson.select(&mut rng) {
            thompson.record_sampled(arm);
        }

        let b_rand = balance_coefficient(random.counts());
        let b_thom = balance_coefficient(thompson.counts());
        assert!(
            b_thom > 5.0 * b_rand,
            "thompson {b_thom:.3} vs random {b_rand:.3}"
        );
        assert!(thompson.counts().iter().all(|&c| c > 0));
    }

    #[test]
    fn thompson_stops_when_all_well_sampled() {
        let sizes = vec![3, 4];
        let mut sampler = ThompsonSampler::new(&sizes, 0.5);
        let mut rng = rng_from_seed(Seed(4));
        let mut steps = 0;
        while let Some(arm) = sampler.select(&mut rng) {
            sampler.record_sampled(arm);
            steps += 1;
            assert!(steps < 10_000, "did not terminate");
        }
        for i in 0..sizes.len() {
            assert!(sampler.is_well_sampled(i));
        }
    }

    #[test]
    fn thompson_prefers_undersampled_arms() {
        let sizes = vec![1000, 1000];
        let mut sampler = ThompsonSampler::new(&sizes, 0.9);
        // Pretend arm 0 has been sampled heavily: its posterior saw many
        // selections, arm 1 many pass-overs — now bias the check the other
        // way: arm 1's posterior mean is low, so Thompson draws for arm 0
        // stay high. The *well-sampled filter* is what restores balance.
        for _ in 0..200 {
            sampler.record_sampled(0);
        }
        assert!(sampler.posteriors()[0].mean() > sampler.posteriors()[1].mean());
        // Force arm 0 well-sampled; selection must now always pick arm 1.
        let mut s2 = ThompsonSampler::new(&[2, 1_000_000], 0.5);
        s2.record_sampled(0);
        s2.record_sampled(0);
        s2.record_sampled(0);
        assert!(s2.is_well_sampled(0));
        let mut rng = rng_from_seed(Seed(5));
        for _ in 0..10 {
            assert_eq!(s2.select(&mut rng), Some(1));
        }
    }

    #[test]
    fn random_sampler_tracks_prevalence() {
        let sizes = vec![100, 900];
        let mut sampler = RandomSampler::new(&sizes);
        let mut rng = rng_from_seed(Seed(6));
        for _ in 0..5000 {
            let arm = sampler.select(&mut rng).unwrap();
            sampler.record_sampled(arm);
        }
        let frac = sampler.counts()[1] as f64 / sampler.total_samples() as f64;
        assert!((frac - 0.9).abs() < 0.05, "frac {frac}");
    }

    #[test]
    fn empty_random_sampler_selects_none() {
        let mut s = RandomSampler::new(&[]);
        let mut rng = rng_from_seed(Seed(7));
        assert_eq!(s.select(&mut rng), None);
    }

    #[test]
    #[should_panic(expected = "arm index out of range")]
    fn record_out_of_range_panics() {
        let mut s = RandomSampler::new(&[5]);
        s.record_sampled(1);
    }
}
