//! Attribution accuracy: confusion matrix over (truth, predicted) labels.
//!
//! The telescope's attribution layer classifies each probe's source
//! cluster into an actor archetype; the simulation knows the true
//! emitter. This
//! module turns the paired labels into the standard accuracy metrics the
//! run report and bench artifacts publish.

use std::collections::{BTreeMap, BTreeSet};

/// A label-by-label confusion matrix with integer weights.
///
/// Rows are ground-truth labels, columns predicted labels; everything is
/// ordered (`BTreeMap`) so rendering and serialisation are deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConfusionMatrix {
    counts: BTreeMap<(String, String), u64>,
}

impl ConfusionMatrix {
    /// Empty matrix.
    pub fn new() -> ConfusionMatrix {
        ConfusionMatrix::default()
    }

    /// Adds `weight` observations of `(truth, predicted)`.
    pub fn add<S: Into<String>>(&mut self, truth: S, predicted: S, weight: u64) {
        *self
            .counts
            .entry((truth.into(), predicted.into()))
            .or_insert(0) += weight;
    }

    /// All labels appearing on either axis, sorted.
    pub fn labels(&self) -> Vec<&str> {
        let mut set = BTreeSet::new();
        for (t, p) in self.counts.keys() {
            set.insert(t.as_str());
            set.insert(p.as_str());
        }
        set.into_iter().collect()
    }

    /// Observations with truth `t` and prediction `p`.
    pub fn count(&self, t: &str, p: &str) -> u64 {
        self.counts
            .get(&(t.to_string(), p.to_string()))
            .copied()
            .unwrap_or(0)
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Overall accuracy: diagonal mass / total. `None` on an empty matrix.
    pub fn accuracy(&self) -> Option<f64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let diag: u64 = self
            .counts
            .iter()
            .filter(|((t, p), _)| t == p)
            .map(|(_, n)| n)
            .sum();
        Some(diag as f64 / total as f64)
    }

    /// Iterates `(truth, predicted, count)` in sorted order.
    pub fn cells(&self) -> impl Iterator<Item = (&str, &str, u64)> + '_ {
        self.counts
            .iter()
            .map(|((t, p), n)| (t.as_str(), p.as_str(), *n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a matrix from `(truth, predicted)` pairs.
    fn from_pairs<'a>(pairs: impl IntoIterator<Item = (&'a str, &'a str)>) -> ConfusionMatrix {
        let mut m = ConfusionMatrix::new();
        for (t, p) in pairs {
            m.add(t, p, 1);
        }
        m
    }

    /// Precision of `label`: of everything predicted `label`, how much
    /// truly was. `None` when the label was never predicted.
    fn precision(m: &ConfusionMatrix, label: &str) -> Option<f64> {
        let predicted: u64 = m.cells().filter(|(_, p, _)| *p == label).map(|c| c.2).sum();
        (predicted > 0).then(|| m.count(label, label) as f64 / predicted as f64)
    }

    /// Recall of `label`: of everything truly `label`, how much was
    /// predicted so. `None` when the label never occurred in truth.
    fn recall(m: &ConfusionMatrix, label: &str) -> Option<f64> {
        let actual: u64 = m.cells().filter(|(t, _, _)| *t == label).map(|c| c.2).sum();
        (actual > 0).then(|| m.count(label, label) as f64 / actual as f64)
    }

    #[test]
    fn perfect_attribution_scores_one() {
        let m = from_pairs([("a", "a"), ("b", "b"), ("a", "a")]);
        assert_eq!(m.accuracy(), Some(1.0));
        assert_eq!(precision(&m, "a"), Some(1.0));
        assert_eq!(recall(&m, "b"), Some(1.0));
        assert_eq!(m.total(), 3);
    }

    #[test]
    fn mixed_attribution_metrics() {
        // truth a×3 (two right, one called b), truth b×1 (called a)
        let m = from_pairs([("a", "a"), ("a", "a"), ("a", "b"), ("b", "a")]);
        assert_eq!(m.accuracy(), Some(0.5));
        assert_eq!(recall(&m, "a"), Some(2.0 / 3.0));
        assert_eq!(precision(&m, "a"), Some(2.0 / 3.0));
        assert_eq!(recall(&m, "b"), Some(0.0));
        assert_eq!(precision(&m, "b"), Some(0.0));
        assert_eq!(m.labels(), vec!["a", "b"]);
    }

    #[test]
    fn absent_labels_are_none_not_zero() {
        let m = from_pairs([("a", "a")]);
        assert_eq!(precision(&m, "zzz"), None);
        assert_eq!(recall(&m, "zzz"), None);
        assert_eq!(ConfusionMatrix::new().accuracy(), None);
    }

    #[test]
    fn weighted_adds_accumulate() {
        let mut m = ConfusionMatrix::new();
        m.add("x", "x", 10);
        m.add("x", "y", 5);
        m.add("x", "x", 2);
        assert_eq!(m.count("x", "x"), 12);
        assert_eq!(recall(&m, "x"), Some(12.0 / 17.0));
        let cells: Vec<_> = m.cells().collect();
        assert_eq!(cells, vec![("x", "x", 12), ("x", "y", 5)]);
    }
}
