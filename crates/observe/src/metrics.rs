//! The lightweight metrics registry: counters, gauges, and log2-bucket
//! histograms behind one process-global mutex.
//!
//! Unlike the trace bus, the registry is always live — updating a metric
//! does not require an active recording. Call sites pay one mutex lock
//! plus a `BTreeMap` lookup per update, so metrics belong at *boundary*
//! frequencies (per run, per epoch, per compile), never inside the
//! interpreter's per-expression loop; the per-expression path is gated by
//! the trace bus's relaxed-atomic check instead (and bench E15 holds that
//! path to ≤ 1% overhead when disabled).

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// A log2-bucketed histogram: bucket `i` counts values in
/// `[2^(i-1), 2^i)`, with bucket 0 reserved for zero.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    pub(crate) fn record(&mut self, value: u64) {
        let idx = if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of recorded values, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Non-empty buckets as `(lower_bound, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (if i == 0 { 0 } else { 1u64 << (i - 1) }, *c))
            .collect()
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// The process-global metrics registry. Obtain it via [`metrics`].
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

/// An immutable copy of the registry state, taken under one lock hold so
/// the three maps are mutually consistent.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    fn lock(&self) -> MutexGuard<'_, RegistryInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Adds `n` to the counter `name` (created at 0), saturating.
    pub fn counter_add(&self, name: &str, n: u64) {
        let mut g = self.lock();
        let c = g.counters.entry(name.to_string()).or_insert(0);
        *c = c.saturating_add(n);
    }

    /// Reads a counter, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the gauge `name` to `value`.
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.lock().gauges.insert(name.to_string(), value);
    }

    /// Reads a gauge, `None` when absent.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.lock().gauges.get(name).copied()
    }

    /// Records `value` into the log2 histogram `name`.
    pub fn record(&self, name: &str, value: u64) {
        self.lock()
            .histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Takes a consistent snapshot of everything.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let g = self.lock();
        MetricsSnapshot {
            counters: g.counters.clone(),
            gauges: g.gauges.clone(),
            histograms: g.histograms.clone(),
        }
    }

    /// Clears all metrics (used by tests and by `pgmp-run` between
    /// configurations so snapshots describe one run only).
    pub fn reset(&self) {
        let mut g = self.lock();
        g.counters.clear();
        g.gauges.clear();
        g.histograms.clear();
    }
}

impl MetricsSnapshot {
    /// Renders the snapshot as a single JSON object, versioned in step
    /// with the trace schema:
    /// `{"v":2,"counters":{...},"gauges":{...},"histograms":{"n":{"count":..,"sum":..,"mean":..,"buckets":[[lo,count],...]}}}`.
    pub fn to_json(&self) -> String {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                .collect(),
        );
        let gauges = Json::Obj(
            self.gauges
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                .collect(),
        );
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        Json::Obj(vec![
                            ("count".into(), Json::Num(h.count() as f64)),
                            ("sum".into(), Json::Num(h.sum() as f64)),
                            ("mean".into(), Json::Num(h.mean())),
                            (
                                "buckets".into(),
                                Json::Arr(
                                    h.nonzero_buckets()
                                        .into_iter()
                                        .map(|(lo, c)| {
                                            Json::Arr(vec![
                                                Json::Num(lo as f64),
                                                Json::Num(c as f64),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ]),
                    )
                })
                .collect(),
        );
        Json::Obj(vec![
            ("v".into(), Json::Num(crate::event::SCHEMA_VERSION as f64)),
            ("counters".into(), counters),
            ("gauges".into(), gauges),
            ("histograms".into(), histograms),
        ])
        .to_string()
    }
}

/// The process-global registry.
pub fn metrics() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        inner: Mutex::new(RegistryInner::default()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1010);
        // 0 → bucket 0; 1 → [1,2); 2,3 → [2,4); 4 → [4,8); 1000 → [512,1024)
        assert_eq!(
            h.nonzero_buckets(),
            vec![(0, 1), (1, 1), (2, 2), (4, 1), (512, 1)]
        );
    }

    #[test]
    fn snapshot_json_parses() {
        let snap = MetricsSnapshot {
            counters: [("a.b".to_string(), 3u64)].into_iter().collect(),
            gauges: [("g".to_string(), 0.5f64)].into_iter().collect(),
            histograms: {
                let mut h = Histogram::default();
                h.record(7);
                [("h".to_string(), h)].into_iter().collect()
            },
        };
        let text = snap.to_json();
        let v = crate::json::parse(&text).expect("snapshot must be valid JSON");
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("a.b"))
                .and_then(Json::as_u64),
            Some(3)
        );
    }
}
