//! Profile weights and dataset merging (§3.2 of the paper).

use crate::counters::Dataset;
use pgmp_syntax::SourceObject;
use std::collections::HashMap;

/// Profile weights: the abstraction meta-programs actually query.
///
/// A profile weight is "a number in the range \[0,1\] … the ratio of the
/// counter for that profile point to the counter of the most executed
/// profile point in the same data set" (§3.2). `ProfileInformation` holds
/// the weights derived from `dataset_count` datasets; merging two
/// `ProfileInformation`s averages weights, weighted by how many datasets
/// each side summarizes, so merging is associative over runs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileInformation {
    weights: HashMap<SourceObject, f64>,
    dataset_count: usize,
}

impl ProfileInformation {
    /// Profile information with no datasets: every query returns 0.
    pub fn empty() -> ProfileInformation {
        ProfileInformation::default()
    }

    /// Computes weights from a single dataset.
    ///
    /// Every recorded point's weight is `count / max_count`. A dataset
    /// with no count (`max_count` 0) holds no weight, so it contributes
    /// no dataset: the result is [`ProfileInformation::empty`], which
    /// reports no profile data and leaves merges unchanged.
    pub fn from_dataset(d: &Dataset) -> ProfileInformation {
        let max = d.max_count();
        if max == 0 {
            return ProfileInformation::empty();
        }
        ProfileInformation {
            weights: d.iter().map(|(p, c)| (p, c as f64 / max as f64)).collect(),
            dataset_count: 1,
        }
    }

    /// Computes merged weights from several datasets (unweighted average of
    /// the per-dataset weights, per Figure 3).
    pub fn from_datasets(datasets: &[Dataset]) -> ProfileInformation {
        datasets
            .iter()
            .map(ProfileInformation::from_dataset)
            .fold(ProfileInformation::empty(), |acc, w| acc.merge(&w))
    }

    /// Constructs profile information directly from weights, as when loading
    /// a stored profile file.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any weight is outside `[0,1]`.
    pub fn from_weights(
        weights: impl IntoIterator<Item = (SourceObject, f64)>,
        dataset_count: usize,
    ) -> ProfileInformation {
        let weights: HashMap<SourceObject, f64> = weights.into_iter().collect();
        debug_assert!(weights.values().all(|w| (0.0..=1.0).contains(w)));
        ProfileInformation {
            weights,
            dataset_count,
        }
    }

    /// The weight of profile point `p`, or `0.0` when `p` was never
    /// profiled — an unknown expression is treated as never executed, which
    /// is what lets meta-programs run unchanged before any profile exists.
    pub fn weight(&self, p: SourceObject) -> f64 {
        self.weights.get(&p).copied().unwrap_or(0.0)
    }

    /// The weight of `p`, or `None` when `p` has no recorded weight.
    pub fn lookup(&self, p: SourceObject) -> Option<f64> {
        self.weights.get(&p).copied()
    }

    /// True iff no dataset has been incorporated.
    pub fn is_empty(&self) -> bool {
        self.dataset_count == 0
    }

    /// How many datasets these weights summarize.
    pub fn dataset_count(&self) -> usize {
        self.dataset_count
    }

    /// Number of profile points with recorded weights.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Iterates over `(point, weight)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (SourceObject, f64)> + '_ {
        self.weights.iter().map(|(p, w)| (*p, *w))
    }

    /// Merges two summaries by averaging weights, weighted by each side's
    /// dataset count. Points missing on one side contribute weight 0 for
    /// that side's datasets (they were never executed there).
    ///
    /// This reproduces Figure 3: merging `{imp: 0.5, spam: 1.0}` with
    /// `{imp: 1.0, spam: 0.1}` gives `{imp: 0.75, spam: 0.55}`.
    pub fn merge(&self, other: &ProfileInformation) -> ProfileInformation {
        if self.dataset_count == 0 {
            return other.clone();
        }
        if other.dataset_count == 0 {
            return self.clone();
        }
        let n1 = self.dataset_count as f64;
        let n2 = other.dataset_count as f64;
        let total = n1 + n2;
        let mut weights = HashMap::new();
        for (p, w) in self.weights.iter() {
            let w2 = other.weights.get(p).copied().unwrap_or(0.0);
            weights.insert(*p, (w * n1 + w2 * n2) / total);
        }
        for (p, w2) in other.weights.iter() {
            weights.entry(*p).or_insert_with(|| (w2 * n2) / total);
        }
        ProfileInformation {
            weights,
            dataset_count: self.dataset_count + other.dataset_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u32) -> SourceObject {
        SourceObject::new("t.scm", n, n + 1)
    }

    #[test]
    fn weights_are_normalized_by_max() {
        let d: Dataset = [(p(0), 5), (p(1), 10), (p(2), 0)].into_iter().collect();
        let w = ProfileInformation::from_dataset(&d);
        assert_eq!(w.weight(p(0)), 0.5);
        assert_eq!(w.weight(p(1)), 1.0);
        assert_eq!(w.weight(p(2)), 0.0);
    }

    #[test]
    fn unknown_points_weigh_zero() {
        let w = ProfileInformation::empty();
        assert_eq!(w.weight(p(9)), 0.0);
        assert_eq!(w.lookup(p(9)), None);
        assert!(w.is_empty());
    }

    #[test]
    fn figure3_merge() {
        // Data set 1: important 5, spam 10. Data set 2: important 100, spam 10.
        let d1: Dataset = [(p(0), 5), (p(1), 10)].into_iter().collect();
        let d2: Dataset = [(p(0), 100), (p(1), 10)].into_iter().collect();
        let merged = ProfileInformation::from_datasets(&[d1, d2]);
        assert_eq!(merged.weight(p(0)), (0.5 + 1.0) / 2.0);
        assert_eq!(merged.weight(p(1)), (1.0 + 0.1) / 2.0);
        assert_eq!(merged.dataset_count(), 2);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let d: Dataset = [(p(0), 2), (p(1), 4)].into_iter().collect();
        let w = ProfileInformation::from_dataset(&d);
        assert_eq!(w.merge(&ProfileInformation::empty()), w);
        assert_eq!(ProfileInformation::empty().merge(&w), w);
    }

    #[test]
    fn merge_is_weighted_by_dataset_count() {
        // Three datasets on one side, one on the other.
        let mk = |c0: u64, c1: u64| -> Dataset { [(p(0), c0), (p(1), c1)].into_iter().collect() };
        let left = ProfileInformation::from_datasets(&[mk(1, 1), mk(1, 1), mk(1, 1)]);
        let right = ProfileInformation::from_dataset(&mk(0, 1));
        let merged = left.merge(&right);
        // p0: (1*3 + 0*1)/4; p1: (1*3 + 1*1)/4.
        assert_eq!(merged.weight(p(0)), 0.75);
        assert_eq!(merged.weight(p(1)), 1.0);
    }

    #[test]
    fn merge_handles_disjoint_points() {
        let d1: Dataset = [(p(0), 4)].into_iter().collect();
        let d2: Dataset = [(p(1), 8)].into_iter().collect();
        let merged =
            ProfileInformation::from_dataset(&d1).merge(&ProfileInformation::from_dataset(&d2));
        assert_eq!(merged.weight(p(0)), 0.5);
        assert_eq!(merged.weight(p(1)), 0.5);
    }

    #[test]
    fn all_zero_dataset_gives_zero_weights() {
        let d: Dataset = [(p(0), 0)].into_iter().collect();
        let w = ProfileInformation::from_dataset(&d);
        assert_eq!(w.weight(p(0)), 0.0);
        assert_eq!(w.dataset_count(), 0, "a countless dataset is no dataset");
        assert!(w.is_empty());
    }

    #[test]
    fn countless_datasets_contribute_no_dataset() {
        for d in [Dataset::new(), [(p(0), 0), (p(1), 0)].into_iter().collect()] {
            let w = ProfileInformation::from_dataset(&d);
            assert_eq!(w, ProfileInformation::empty());
            assert_eq!(w.len(), 0);
        }
    }

    #[test]
    fn from_datasets_skips_countless_datasets() {
        let hot: Dataset = [(p(0), 4), (p(1), 8)].into_iter().collect();
        let cold: Dataset = [(p(0), 0)].into_iter().collect();
        let merged = ProfileInformation::from_datasets(&[cold.clone(), hot.clone(), cold]);
        assert_eq!(merged, ProfileInformation::from_dataset(&hot));
        assert_eq!(merged.dataset_count(), 1);
        assert_eq!(merged.weight(p(0)), 0.5, "not averaged with zeros");
        assert!(ProfileInformation::from_datasets(&[Dataset::new()]).is_empty());
    }

    #[test]
    fn merging_a_countless_dataset_changes_nothing() {
        let hot: Dataset = [(p(0), 3), (p(1), 6)].into_iter().collect();
        let w = ProfileInformation::from_dataset(&hot);
        let cold = ProfileInformation::from_dataset(&[(p(2), 0)].into_iter().collect());
        assert_eq!(w.merge(&cold), w);
        assert_eq!(cold.merge(&w), w);
        assert!(cold.merge(&cold).is_empty());
    }

    #[test]
    fn merge_keeps_weights_in_unit_interval() {
        let d1: Dataset = [(p(0), 1), (p(1), 1000)].into_iter().collect();
        let d2: Dataset = [(p(0), 1000), (p(1), 1)].into_iter().collect();
        let merged =
            ProfileInformation::from_dataset(&d1).merge(&ProfileInformation::from_dataset(&d2));
        for (_, w) in merged.iter() {
            assert!((0.0..=1.0).contains(&w));
        }
    }
}
