//! Rolling, exponentially-decayed profile state.

use pgmp_profiler::{Dataset, ProfileInformation};
use pgmp_syntax::{sort_by_location, SourceObject};
use std::collections::HashMap;

/// Counts below this fraction of a single hit are dropped during decay, so
/// points whose behavior has aged out disappear instead of lingering as
/// denormals.
const RETENTION_FLOOR: f64 = 1e-6;

/// A profile that *forgets*: per-epoch datasets are folded in with
/// exponential decay, so the weights track recent behavior and old traffic
/// patterns age out.
///
/// After absorbing epochs `d_1, …, d_k` with decay factor `λ`, a point's
/// effective count is `Σ λ^(k-i) · d_i(p)` — the classic exponentially
/// weighted moving sum. `λ = 1` never forgets (every epoch counts
/// equally, the paper's offline accumulation); `λ = 0` keeps only the
/// latest epoch.
///
/// Decay smooths the profile *between* re-optimizations. When the drift
/// detector fires, [`AdaptiveEngine`](crate::AdaptiveEngine) restarts the
/// profile from the epoch that fired it ([`RollingProfile::restarted`]):
/// the counts from before the shift describe behavior the new code is no
/// longer optimized for, and a profile that kept them would go on
/// converging away from the new baseline and fire a second time.
///
/// # Example
///
/// ```
/// use pgmp_adaptive::RollingProfile;
/// use pgmp_profiler::Dataset;
/// use pgmp_syntax::SourceObject;
///
/// let p = SourceObject::new("r.scm", 0, 1);
/// let q = SourceObject::new("r.scm", 2, 3);
/// let mut rolling = RollingProfile::new(0.5);
/// rolling.absorb(&[(p, 100)].into_iter().collect::<Dataset>());
/// rolling.absorb(&[(q, 100)].into_iter().collect::<Dataset>());
/// // p has decayed to 50, q is fresh at 100: q is now the hot point.
/// let w = rolling.weights();
/// assert_eq!(w.weight(q), 1.0);
/// assert_eq!(w.weight(p), 0.5);
/// ```
#[derive(Clone, Debug)]
pub struct RollingProfile {
    counts: HashMap<SourceObject, f64>,
    decay: f64,
    epochs: u64,
}

impl RollingProfile {
    /// An empty rolling profile with the given per-epoch decay factor.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= decay <= 1.0`.
    pub fn new(decay: f64) -> RollingProfile {
        assert!(
            (0.0..=1.0).contains(&decay),
            "decay must be in [0, 1], got {decay}"
        );
        RollingProfile {
            counts: HashMap::new(),
            decay,
            epochs: 0,
        }
    }

    /// The configured decay factor.
    pub fn decay(&self) -> f64 {
        self.decay
    }

    /// Epochs absorbed so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Number of points currently retained.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True iff no point is retained.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Total retained (decayed) count mass.
    pub fn total(&self) -> f64 {
        self.counts.values().sum()
    }

    /// Folds one epoch's dataset in: existing counts decay by the factor,
    /// then the fresh counts are added at full weight. Points that decay
    /// below the retention floor are dropped.
    pub fn absorb(&mut self, epoch: &Dataset) {
        self.epochs += 1;
        if self.decay == 0.0 {
            self.counts.clear();
        } else if self.decay < 1.0 {
            self.counts.retain(|_, c| {
                *c *= self.decay;
                *c >= RETENTION_FLOOR
            });
        }
        for (p, c) in epoch.iter() {
            if c > 0 {
                *self.counts.entry(p).or_insert(0.0) += c as f64;
            }
        }
    }

    /// This profile restarted from one epoch's dataset alone: the same
    /// decay factor and epoch counter, with every earlier count dropped.
    /// The counter is kept as is, because the restart follows the
    /// [`absorb`](RollingProfile::absorb) that already counted `epoch`.
    pub fn restarted(&self, epoch: &Dataset) -> RollingProfile {
        RollingProfile::from_parts(
            self.decay,
            self.epochs,
            epoch.iter().map(|(p, c)| (p, c as f64)),
        )
    }

    /// The retained (decayed) counts as `(point, count)` pairs, sorted by
    /// file name, then span, for deterministic output. Together with
    /// [`RollingProfile::from_parts`] this is what epoch-snapshot
    /// persistence stores, so an adaptive session can resume aggregation
    /// across a process restart without losing its decay history.
    pub fn entries(&self) -> Vec<(SourceObject, f64)> {
        let mut out: Vec<(SourceObject, f64)> = self.counts.iter().map(|(p, c)| (*p, *c)).collect();
        sort_by_location(&mut out);
        out
    }

    /// Reconstructs a rolling profile from persisted state:
    /// [`RollingProfile::entries`] output plus the decay factor and epoch
    /// count. Non-positive counts are dropped (they could not have been
    /// retained).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= decay <= 1.0`, like [`RollingProfile::new`].
    pub fn from_parts(
        decay: f64,
        epochs: u64,
        entries: impl IntoIterator<Item = (SourceObject, f64)>,
    ) -> RollingProfile {
        let mut r = RollingProfile::new(decay);
        r.epochs = epochs;
        r.counts = entries
            .into_iter()
            .filter(|(_, c)| *c >= RETENTION_FLOOR)
            .collect();
        r
    }

    /// Current profile weights (normalized by the hottest retained point),
    /// ready for [`pgmp::Engine::set_profile`].
    pub fn weights(&self) -> ProfileInformation {
        let max = self.counts.values().copied().fold(0.0f64, f64::max);
        if max <= 0.0 {
            return ProfileInformation::empty();
        }
        ProfileInformation::from_weights(self.counts.iter().map(|(p, c)| (*p, *c / max)), 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u32) -> SourceObject {
        SourceObject::new("roll.scm", n, n + 1)
    }

    fn d(entries: &[(u32, u64)]) -> Dataset {
        entries.iter().map(|(i, c)| (p(*i), *c)).collect()
    }

    #[test]
    fn single_epoch_matches_plain_weights() {
        let mut r = RollingProfile::new(0.5);
        r.absorb(&d(&[(0, 5), (1, 10)]));
        let w = r.weights();
        assert_eq!(w.weight(p(0)), 0.5);
        assert_eq!(w.weight(p(1)), 1.0);
        assert_eq!(r.epochs(), 1);
    }

    #[test]
    fn old_behavior_ages_out() {
        let mut r = RollingProfile::new(0.5);
        r.absorb(&d(&[(0, 1000)]));
        for _ in 0..4 {
            r.absorb(&d(&[(1, 1000)]));
        }
        let w = r.weights();
        // p0 decayed 4 times: 1000 * 0.5^4 = 62.5 vs p1 ~ 1000+500+...
        assert!(
            w.weight(p(0)) < 0.05,
            "stale point still hot: {}",
            w.weight(p(0))
        );
        assert_eq!(w.weight(p(1)), 1.0);
    }

    #[test]
    fn decay_one_accumulates_forever() {
        let mut r = RollingProfile::new(1.0);
        r.absorb(&d(&[(0, 10)]));
        r.absorb(&d(&[(0, 10)]));
        let w = r.weights();
        assert_eq!(w.weight(p(0)), 1.0);
        assert!((r.total() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn decay_zero_keeps_only_latest_epoch() {
        let mut r = RollingProfile::new(0.0);
        r.absorb(&d(&[(0, 10)]));
        r.absorb(&d(&[(1, 10)]));
        assert_eq!(r.len(), 1);
        assert_eq!(r.weights().weight(p(0)), 0.0);
        assert_eq!(r.weights().weight(p(1)), 1.0);
    }

    #[test]
    fn tiny_residues_are_dropped() {
        let mut r = RollingProfile::new(0.5);
        r.absorb(&d(&[(0, 1)]));
        for _ in 0..40 {
            r.absorb(&Dataset::new());
        }
        assert!(r.is_empty(), "residue survived: total {}", r.total());
        assert!(r.weights().is_empty());
    }

    #[test]
    #[should_panic(expected = "decay must be in [0, 1]")]
    fn rejects_bad_decay() {
        RollingProfile::new(1.5);
    }

    #[test]
    fn restart_keeps_only_the_firing_epoch() {
        let mut r = RollingProfile::new(0.5);
        r.absorb(&d(&[(0, 1000), (1, 10)]));
        let shifted = d(&[(1, 100), (2, 50)]);
        r.absorb(&shifted);
        let restarted = r.restarted(&shifted);
        // The epoch counter and the decay factor carry over; the
        // pre-shift counts do not.
        assert_eq!((restarted.epochs(), restarted.decay()), (2, 0.5));
        assert_eq!(restarted.entries(), [(p(1), 100.0), (p(2), 50.0)]);
        assert_eq!(restarted.weights().weight(p(0)), 0.0);
        // Steady traffic after the restart leaves the weights unchanged.
        let mut next = restarted.clone();
        next.absorb(&shifted);
        assert_eq!(next.epochs(), 3);
        assert_eq!(next.weights(), restarted.weights());
    }

    #[test]
    fn entries_are_ordered_by_file_name() {
        // Interned first, so its symbol id sorts first.
        let z = SourceObject::new("zz-roll.scm", 0, 1);
        let a = SourceObject::new("aa-roll.scm", 0, 1);
        let mut r = RollingProfile::new(0.5);
        r.absorb(&[(z, 1), (a, 2)].into_iter().collect::<Dataset>());
        assert_eq!(r.entries(), [(a, 2.0), (z, 1.0)]);
    }

    #[test]
    fn parts_round_trip_decay_history() {
        let mut r = RollingProfile::new(0.5);
        r.absorb(&d(&[(0, 100), (1, 40)]));
        r.absorb(&d(&[(1, 100)]));
        let back = RollingProfile::from_parts(r.decay(), r.epochs(), r.entries());
        assert_eq!(back.epochs(), r.epochs());
        assert_eq!(back.entries(), r.entries());
        // The restored profile keeps decaying from where it left off.
        let mut a = r.clone();
        let mut b = back;
        a.absorb(&d(&[(0, 7)]));
        b.absorb(&d(&[(0, 7)]));
        assert_eq!(a.entries(), b.entries());
    }
}
