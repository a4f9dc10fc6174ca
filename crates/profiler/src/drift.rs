//! Profile drift: how far one set of profile weights has moved from
//! another — for example, current behavior from the behavior the running
//! code was last optimized under, or one fleet merge from the previous one.

use crate::info::ProfileInformation;
use pgmp_syntax::SourceObject;
use std::collections::HashSet;

/// Distance measure between two weight vectors.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DriftMetric {
    /// Plain L1 distance over the union of profile points:
    /// `Σ |w_a(p) − w_b(p)|`. Unbounded above (grows with the number of
    /// points that moved), which makes it useful for absolute "how much
    /// churn" telemetry.
    L1,
    /// Total-variation distance: each weight vector is normalized to a
    /// probability distribution over its points, and the result is
    /// `½ Σ |P_a(p) − P_b(p)| ∈ [0, 1]`. Scale-free, so one threshold
    /// works across programs of very different sizes; `1.0` means the two
    /// profiles share no mass (e.g. one side is empty and the other is
    /// not).
    #[default]
    TotalVariation,
}

fn union_points(a: &ProfileInformation, b: &ProfileInformation) -> HashSet<SourceObject> {
    a.iter()
        .map(|(p, _)| p)
        .chain(b.iter().map(|(p, _)| p))
        .collect()
}

/// Distance from `a` to `b` under `metric`. Symmetric; 0.0 when both are
/// empty.
///
/// # Example
///
/// ```
/// use pgmp_profiler::{drift, Dataset, DriftMetric, ProfileInformation};
/// use pgmp_syntax::SourceObject;
///
/// let p = SourceObject::new("d.scm", 0, 1);
/// let q = SourceObject::new("d.scm", 2, 3);
/// let hot_p = ProfileInformation::from_dataset(&[(p, 90), (q, 10)].into_iter().collect::<Dataset>());
/// let hot_q = ProfileInformation::from_dataset(&[(p, 10), (q, 90)].into_iter().collect::<Dataset>());
/// assert_eq!(drift(&hot_p, &hot_p, DriftMetric::TotalVariation), 0.0);
/// assert!(drift(&hot_p, &hot_q, DriftMetric::TotalVariation) > 0.2);
/// ```
pub fn drift(a: &ProfileInformation, b: &ProfileInformation, metric: DriftMetric) -> f64 {
    match metric {
        DriftMetric::L1 => union_points(a, b)
            .into_iter()
            .map(|p| (a.weight(p) - b.weight(p)).abs())
            .sum(),
        DriftMetric::TotalVariation => {
            let mass = |w: &ProfileInformation| w.iter().map(|(_, x)| x).sum::<f64>();
            let (ma, mb) = (mass(a), mass(b));
            match (ma > 0.0, mb > 0.0) {
                (false, false) => 0.0,
                (true, false) | (false, true) => 1.0,
                (true, true) => {
                    0.5 * union_points(a, b)
                        .into_iter()
                        .map(|p| (a.weight(p) / ma - b.weight(p) / mb).abs())
                        .sum::<f64>()
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dataset;

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
    fn identical_profiles_have_zero_drift() {
        let w = info(&[(0, 5), (1, 10)]);
        assert_eq!(drift(&w, &w, DriftMetric::L1), 0.0);
        assert_eq!(drift(&w, &w, DriftMetric::TotalVariation), 0.0);
    }

    #[test]
    fn both_empty_is_zero_one_empty_is_full() {
        let empty = ProfileInformation::empty();
        let w = info(&[(0, 5)]);
        assert_eq!(drift(&empty, &empty, DriftMetric::TotalVariation), 0.0);
        assert_eq!(drift(&w, &empty, DriftMetric::TotalVariation), 1.0);
        assert_eq!(drift(&empty, &w, DriftMetric::TotalVariation), 1.0);
    }

    #[test]
    fn metrics_are_symmetric() {
        let a = info(&[(0, 10), (1, 3)]);
        let b = info(&[(1, 10), (2, 4)]);
        for m in [DriftMetric::L1, DriftMetric::TotalVariation] {
            assert!((drift(&a, &b, m) - drift(&b, &a, m)).abs() < 1e-12);
        }
    }

    #[test]
    fn tv_is_bounded_and_scale_free() {
        let a = info(&[(0, 100), (1, 1)]);
        let b = info(&[(0, 1_000_000), (1, 10_000)]);
        let d = drift(&a, &b, DriftMetric::TotalVariation);
        assert!((0.0..=1.0).contains(&d));
        // Same shape at different scales: tiny distance.
        assert!(d < 1e-9, "scale alone should not register as drift: {d}");
    }

    #[test]
    fn disjoint_profiles_are_maximally_distant_under_tv() {
        let a = info(&[(0, 10)]);
        let b = info(&[(1, 10)]);
        let d = drift(&a, &b, DriftMetric::TotalVariation);
        assert!((d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn l1_counts_absolute_weight_movement() {
        let a = info(&[(0, 10), (1, 5)]); // weights 1.0, 0.5
        let b = info(&[(0, 10), (1, 10)]); // weights 1.0, 1.0
        assert!((drift(&a, &b, DriftMetric::L1) - 0.5).abs() < 1e-12);
    }
}
