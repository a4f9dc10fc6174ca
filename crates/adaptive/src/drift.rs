//! The drift detector: decides, epoch by epoch, whether current behavior
//! has moved far enough from the behavior the running code was last
//! optimized under to be worth a re-optimization.

use pgmp_profiler::{drift, DriftMetric, ProfileInformation};

/// The distance the detector measures: total variation, scale-free, so one
/// threshold works across programs of very different sizes.
const METRIC: DriftMetric = DriftMetric::TotalVariation;

/// Epochs that drained fewer total hits than this cannot arm the detector:
/// an idle system decaying toward an empty profile is not behavior change
/// worth recompiling for.
const MIN_EPOCH_HITS: u64 = 1;

/// What one epoch's observation concluded.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DriftReading {
    /// The measured distance from the baseline.
    pub value: f64,
    /// Whether the detector fired.
    pub fired: bool,
    /// Consecutive over-threshold epochs after this observation.
    pub streak: u32,
    /// Epochs of post-re-optimization cooldown remaining.
    pub cooldown: u32,
}

/// Compares live weights against the weights the running code was last
/// optimized under (the baseline), with flap damping.
///
/// An epoch is *over* when its weights are more than `threshold` away from
/// the baseline (total-variation distance) and it drained at least one
/// hit. The detector fires once `hysteresis` consecutive epochs are over,
/// and it skips detection for `cooldown` epochs after each
/// [`rebase`](DriftDetector::rebase).
///
/// A workload hovering *at* the threshold would otherwise fire on every
/// noise spike, and each firing is a full re-optimization plus a program
/// swap. Hysteresis demands sustained drift; the cooldown bounds the
/// re-optimization rate even when drift genuinely persists.
///
/// # Example
///
/// ```
/// use pgmp_adaptive::DriftDetector;
/// use pgmp_profiler::{Dataset, ProfileInformation};
/// use pgmp_syntax::SourceObject;
///
/// let p = SourceObject::new("d.scm", 0, 1);
/// let q = SourceObject::new("d.scm", 2, 3);
/// let hot_p = ProfileInformation::from_dataset(&[(p, 90), (q, 10)].into_iter().collect::<Dataset>());
/// let hot_q = ProfileInformation::from_dataset(&[(p, 10), (q, 90)].into_iter().collect::<Dataset>());
///
/// // Threshold 0.2, two consecutive drifting epochs, no cooldown.
/// let mut detector = DriftDetector::new(0.2, 2, 0);
/// detector.rebase(hot_p.clone());
/// assert!(!detector.observe(&hot_p, 100).fired);
/// assert!(!detector.observe(&hot_q, 100).fired, "first spike: armed, not fired");
/// assert!(detector.observe(&hot_q, 100).fired, "sustained drift fires");
/// ```
#[derive(Clone, Debug)]
pub struct DriftDetector {
    threshold: f64,
    hysteresis: u32,
    cooldown: u64,
    baseline: ProfileInformation,
    streak: u32,
    cooldown_left: u64,
}

impl DriftDetector {
    /// A detector with an empty baseline (any nonempty profile reads as
    /// full drift). `hysteresis` consecutive over-threshold epochs fire it
    /// (values ≤ 1 fire on the first); `cooldown` epochs are skipped after
    /// each rebase (0 disables the cooldown).
    pub fn new(threshold: f64, hysteresis: u32, cooldown: u64) -> DriftDetector {
        DriftDetector {
            threshold,
            hysteresis: hysteresis.max(1),
            cooldown,
            baseline: ProfileInformation::empty(),
            streak: 0,
            cooldown_left: 0,
        }
    }

    /// The drift value above which an epoch counts as over.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The weights the code was last optimized under.
    pub fn baseline(&self) -> &ProfileInformation {
        &self.baseline
    }

    /// The raw distance of `current` from the baseline, without damping
    /// and without touching the detector's state.
    pub fn measure(&self, current: &ProfileInformation) -> f64 {
        drift(current, &self.baseline, METRIC)
    }

    /// Observes one epoch: `current` is the live weights and `hits` the
    /// counter hits the epoch drained. Within a cooldown the epoch only
    /// counts the cooldown down; otherwise an over-threshold epoch extends
    /// the streak and any other epoch resets it.
    pub fn observe(&mut self, current: &ProfileInformation, hits: u64) -> DriftReading {
        let value = self.measure(current);
        let fired = if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            false
        } else {
            if value > self.threshold && hits >= MIN_EPOCH_HITS {
                self.streak += 1;
            } else {
                self.streak = 0;
            }
            self.streak >= self.hysteresis
        };
        DriftReading {
            value,
            fired,
            streak: self.streak,
            cooldown: u32::try_from(self.cooldown_left).unwrap_or(u32::MAX),
        }
    }

    /// Replaces the baseline — called right after re-optimizing, with the
    /// weights the new code was compiled under — and starts the cooldown.
    pub fn rebase(&mut self, new_baseline: ProfileInformation) {
        self.baseline = new_baseline;
        self.streak = 0;
        self.cooldown_left = self.cooldown;
    }

    /// Replaces the baseline with one restored from a previous process and
    /// clears the streak and the cooldown: they damp within-process
    /// oscillation and mean nothing across a restart.
    pub fn restore(&mut self, baseline: ProfileInformation) {
        self.baseline = baseline;
        self.streak = 0;
        self.cooldown_left = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgmp_profiler::Dataset;
    use pgmp_syntax::SourceObject;

    /// Hits of a busy epoch: enough to pass the min-hits gate.
    const HITS: u64 = 100;

    fn p(n: u32) -> SourceObject {
        SourceObject::new("drift.scm", n, n + 1)
    }

    fn info(entries: &[(u32, u64)]) -> ProfileInformation {
        ProfileInformation::from_dataset(
            &entries
                .iter()
                .map(|(i, c)| (p(*i), *c))
                .collect::<Dataset>(),
        )
    }

    #[test]
    fn borderline_workload_no_longer_flaps() {
        // A workload oscillating around the threshold: one noisy epoch
        // over, then back under, repeatedly. The raw detector fires on
        // every spike; with hysteresis of 2 it never does.
        let baseline = info(&[(0, 90), (1, 10)]);
        let spike = info(&[(0, 55), (1, 45)]); // TV ≈ 0.35, over 0.3
        let calm = info(&[(0, 85), (1, 15)]); // TV ≈ 0.05, under 0.3

        let mut raw = DriftDetector::new(0.3, 1, 0);
        let mut damped = DriftDetector::new(0.3, 2, 0);
        raw.rebase(baseline.clone());
        damped.rebase(baseline.clone());

        let mut raw_firings = 0;
        let mut damped_firings = 0;
        for _ in 0..5 {
            if raw.observe(&spike, HITS).fired {
                raw_firings += 1;
            }
            raw.observe(&calm, HITS);
            if damped.observe(&spike, HITS).fired {
                damped_firings += 1;
            }
            damped.observe(&calm, HITS);
        }
        assert_eq!(raw_firings, 5, "raw detector flaps on every spike");
        assert_eq!(damped_firings, 0, "hysteresis rides out isolated spikes");
    }

    #[test]
    fn sustained_drift_still_fires_through_hysteresis() {
        let mut det = DriftDetector::new(0.3, 3, 0);
        det.rebase(info(&[(0, 90), (1, 10)]));
        let shifted = info(&[(0, 10), (1, 90)]);
        assert!(!det.observe(&shifted, HITS).fired);
        assert!(!det.observe(&shifted, HITS).fired);
        let reading = det.observe(&shifted, HITS);
        assert!(reading.fired, "third consecutive epoch fires");
        assert!(reading.value > 0.3);
    }

    #[test]
    fn cooldown_suppresses_immediate_refire() {
        let mut det = DriftDetector::new(0.3, 1, 2);
        let baseline = info(&[(0, 90), (1, 10)]);
        det.rebase(baseline.clone());
        // rebase arms the cooldown (it models a fresh deploy): ride it out
        // with steady traffic first.
        assert!(!det.observe(&baseline, HITS).fired);
        assert!(!det.observe(&baseline, HITS).fired);
        let shifted = info(&[(0, 10), (1, 90)]);
        assert!(det.observe(&shifted, HITS).fired);
        // Re-optimized: rebase onto the new behavior, cooldown starts.
        det.rebase(shifted.clone());
        // Behavior shifts again immediately — but we just swapped code.
        let back = info(&[(0, 90), (1, 10)]);
        assert!(!det.observe(&back, HITS).fired, "within cooldown");
        assert!(!det.observe(&back, HITS).fired, "within cooldown");
        assert!(
            det.observe(&back, HITS).fired,
            "cooldown expired, drift persists"
        );
    }

    #[test]
    fn hysteresis_of_one_matches_raw_detector() {
        let baseline = info(&[(0, 90), (1, 10)]);
        let wild = info(&[(0, 10), (1, 90)]);
        let mut det = DriftDetector::new(0.3, 1, 0);
        det.rebase(baseline);
        let raw = det.measure(&wild);
        let reading = det.observe(&wild, HITS);
        assert_eq!(raw > 0.3, reading.fired);
        assert_eq!(raw, reading.value);
    }

    #[test]
    fn detector_fires_only_past_threshold() {
        let mut det = DriftDetector::new(0.3, 1, 0);
        det.rebase(info(&[(0, 90), (1, 10)]));
        let mild = info(&[(0, 80), (1, 20)]);
        let wild = info(&[(0, 10), (1, 90)]);
        assert!(!det.observe(&mild, HITS).fired);
        let reading = det.observe(&wild, HITS);
        assert!(reading.fired);
        assert!(reading.value > 0.3);
        // Rebasing onto the new behavior silences the detector.
        det.rebase(wild.clone());
        assert!(!det.observe(&wild, HITS).fired);
    }

    #[test]
    fn zero_hit_epochs_never_arm_the_streak() {
        // An idle epoch reads the decayed profile, which may sit far from
        // the baseline; without hits it must neither fire nor arm.
        let mut det = DriftDetector::new(0.3, 2, 0);
        det.rebase(info(&[(0, 90), (1, 10)]));
        let shifted = info(&[(0, 10), (1, 90)]);
        for _ in 0..3 {
            let reading = det.observe(&shifted, 0);
            assert!(reading.value > 0.3);
            assert!(!reading.fired);
            assert_eq!(reading.streak, 0, "an idle epoch armed the streak");
        }
        assert_eq!(det.observe(&shifted, HITS).streak, 1);
        // An idle epoch between two busy ones breaks the streak.
        assert_eq!(det.observe(&shifted, 0).streak, 0);
        assert!(!det.observe(&shifted, HITS).fired);
        assert!(det.observe(&shifted, HITS).fired);
    }
}
