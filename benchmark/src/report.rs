//! Sample counts, the samples a run collects, and the metric list.

use crate::json::Json;
use crate::stats::lower_decile;
use crate::workloads::{Workload, EPOCHS_PER_PHASE};
use std::collections::BTreeMap;
use std::fmt::Display;

/// How many times each step runs. Fixed per workload (never derived from
/// elapsed time), so two runs do the same work and peak memory, which
/// grows with every engine created, stays comparable.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Plan {
    /// Bursts of `engine_with` set-ups (`setup_s`).
    pub setup: usize,
    /// Offline cycle: profile collections, cold compiles, warm
    /// recompiles and timed VM passes.
    pub profile: usize,
    pub compile: usize,
    pub recompile: usize,
    pub run: usize,
    /// Adaptive cycle: generation-0 builds and epochs.
    pub builds: usize,
    pub epochs: usize,
}

/// `--seconds` at which [`Plan::base`] runs about that long on a shared
/// 2-vCPU host.
pub const NOMINAL_SECONDS: f64 = 15.0;

impl Plan {
    /// Counts of the untraced run at [`NOMINAL_SECONDS`]. An offline
    /// workload runs the adaptive cycle only when traced, and the adaptive
    /// workload the offline cycle, so those counts are small. Steps that
    /// create engines are capped: every engine a run creates keeps 0.3
    /// (oo-calls) to 1.6 MiB (many-forms) after it is dropped.
    pub fn base(w: Workload) -> Plan {
        match w {
            Workload::OoCalls => Plan {
                setup: 40,
                profile: 150,
                compile: 150,
                recompile: 60,
                run: 480,
                builds: 4,
                epochs: 10,
            },
            Workload::LoopDispatch => Plan {
                setup: 40,
                profile: 340,
                compile: 220,
                recompile: 150,
                run: 680,
                builds: 4,
                epochs: 10,
            },
            Workload::ManyForms => Plan {
                setup: 40,
                profile: 40,
                compile: 40,
                recompile: 300,
                run: 1500,
                builds: 2,
                epochs: 10,
            },
            Workload::AdaptiveShift => Plan {
                setup: 40,
                profile: 20,
                compile: 20,
                recompile: 20,
                run: 50,
                builds: 15,
                epochs: 80,
            },
        }
    }

    /// Every count times `factor`, keeping at least one of each, an even
    /// number of recompiles (trained and shifted alternate) and whole
    /// input phases of at least two phases.
    pub fn scaled(self, factor: f64) -> Plan {
        let n = |count: usize, min: usize| ((count as f64 * factor).round() as usize).max(min);
        let phases = n(self.epochs / EPOCHS_PER_PHASE, 2);
        Plan {
            setup: n(self.setup, 1),
            profile: n(self.profile, 1),
            compile: n(self.compile, 1),
            recompile: n(self.recompile / 2, 1) * 2,
            run: n(self.run, 1),
            builds: n(self.builds, 1),
            epochs: phases * EPOCHS_PER_PHASE,
        }
    }
}

/// The samples of a step with `total` samples that fall in `round` of
/// `rounds`: steps are interleaved round by round, so every metric's
/// samples span the whole run instead of one stretch of it (a slow spell
/// of a shared host then moves every metric a little, not one a lot).
/// Round 0 always holds sample 0.
pub fn share(total: usize, round: usize, rounds: usize) -> std::ops::Range<usize> {
    (round * total).div_ceil(rounds)..((round + 1) * total).div_ceil(rounds)
}

/// What one cycle measured: operations attempted and failed, and samples
/// by metric name. Exact counts are single samples.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    samples: BTreeMap<&'static str, Vec<f64>>,
    complaints: usize,
}

impl Report {
    /// Counts one operation; returns `ok`.
    pub fn check(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Counts an operation that must succeed, reporting the first few
    /// failures on stderr.
    pub fn check_ok<T, E: Display>(&mut self, what: &str, result: &Result<T, E>) -> bool {
        if let Err(e) = result {
            self.complain(format_args!("{what}: {e}"));
        }
        self.check(result.is_ok())
    }

    /// Counts an operation that must return `expected`, printed.
    pub fn check_value<E: Display>(
        &mut self,
        what: &str,
        got: Result<String, E>,
        expected: &str,
    ) -> bool {
        match got {
            Ok(v) if v == expected => self.check(true),
            Ok(v) => {
                self.complain(format_args!("{what}: got {v}, expected {expected}"));
                self.check(false)
            }
            Err(e) => {
                self.complain(format_args!("{what}: {e}"));
                self.check(false)
            }
        }
    }

    fn complain(&mut self, message: std::fmt::Arguments) {
        self.complaints += 1;
        if self.complaints <= 5 {
            eprintln!("pgmp-benchmark: failed: {message}");
        }
    }

    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Replaces the samples of `name` with one exact value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.samples.insert(name, vec![value]);
    }

    /// The reported value of `name` ([`lower_decile`] of its samples; an
    /// exact count is its only sample) and the samples behind it.
    pub fn value(&self, name: &str) -> Option<(f64, Vec<f64>)> {
        let samples = self.samples.get(name).filter(|s| !s.is_empty())?;
        Some((lower_decile(samples), samples.clone()))
    }
}

/// One metric of `BENCHMARK.json`.
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the median a change may worsen it by (end-to-end only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark reads: the metric names,
/// units, directions and bounds, and the run length.
pub struct Spec {
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// The spec compiled into this binary.
    pub fn builtin() -> Spec {
        Spec::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is well-formed")
    }

    fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            let list = doc
                .get(key)
                .and_then(Json::as_array)
                .ok_or(format!("no `{key}` list"))?;
            list.iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .ok_or(format!("{key}: no `{f}`"))
                    };
                    Ok(MetricSpec {
                        name: field("name")?.to_owned(),
                        unit: field("unit")?.to_owned(),
                        lower_is_better: field("better")? == "lower",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("no `run_seconds`")?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The metric called `name`, end-to-end or per-layer.
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_cover_every_sample_once_from_round_zero() {
        for (total, rounds) in [(7, 3), (3, 7), (40, 600), (600, 600), (1, 1)] {
            let all: Vec<usize> = (0..rounds).flat_map(|r| share(total, r, rounds)).collect();
            assert_eq!(all, (0..total).collect::<Vec<_>>());
            assert!(share(total, 0, rounds).contains(&0));
        }
    }

    #[test]
    fn scaling_keeps_whole_phases_and_pairs() {
        let quick = Plan::base(Workload::AdaptiveShift).scaled(0.05);
        assert_eq!(quick.epochs % EPOCHS_PER_PHASE, 0);
        assert!(quick.epochs >= 2 * EPOCHS_PER_PHASE);
        assert_eq!(quick.recompile % 2, 0);
        assert_eq!(
            Plan::base(Workload::OoCalls).scaled(1.0),
            Plan::base(Workload::OoCalls)
        );
    }
}
