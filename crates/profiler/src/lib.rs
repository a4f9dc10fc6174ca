//! Counter-based source-level profiler.
//!
//! This crate implements the profiling side of the paper's design (§3):
//!
//! - [`Counters`] — the live counter registry, incremented by the evaluator
//!   while a program runs instrumented. A [`SlotMap`] interns each profile
//!   point ([`pgmp_syntax::SourceObject`]) to a stable `u32` slot at
//!   instrumentation time, and the counts live in a [`SlotStore`], so a
//!   bump is a plain vector index instead of a hash ([`CounterImpl::Dense`],
//!   exact, or [`CounterImpl::Sampling`], estimated from position samples);
//! - [`ShardedCounters`] — the `Send + Sync` registry many threads count
//!   into at once, on an [`AtomicSlotArray`]: the adaptive engine's epoch
//!   sink and the process-global registry of the proc-macro runtime
//!   `pgmp-rt`;
//! - [`Dataset`] — a snapshot of counters from one profiled run;
//! - [`ProfileInformation`] — **profile weights** in `[0,1]`, computed from
//!   one or more datasets and merged by weighted averaging exactly as
//!   Figure 3 prescribes;
//! - [`drift()`] — the L1 or total-variation distance between two sets of
//!   weights ([`DriftMetric`]): what the adaptive engine's drift detector
//!   and the fleet daemon's broadcasts measure;
//! - persistence (`store-profile` / `load-profile`) in a self-describing
//!   s-expression format read back with `pgmp-reader`;
//! - [`ProfileMode`] — how the evaluator instruments: not at all, every
//!   source expression (Chez-style, §4.1), or function calls only
//!   (Racket `errortrace`-style, §4.2).
//!
//! # Example — Figure 3 of the paper
//!
//! ```
//! use pgmp_profiler::{Dataset, ProfileInformation};
//! use pgmp_syntax::SourceObject;
//!
//! let important = SourceObject::new("classify.scm", 10, 30);
//! let spam = SourceObject::new("classify.scm", 40, 60);
//!
//! // First data set: important runs 5 times, spam 10 times.
//! let mut d1 = Dataset::new();
//! d1.record(important, 5);
//! d1.record(spam, 10);
//! let w1 = ProfileInformation::from_dataset(&d1);
//! assert_eq!(w1.weight(important), 0.5);  // 5/10
//! assert_eq!(w1.weight(spam), 1.0);       // 10/10
//!
//! // Second data set: important runs 100 times, spam 10 times.
//! let mut d2 = Dataset::new();
//! d2.record(important, 100);
//! d2.record(spam, 10);
//! let merged = w1.merge(&ProfileInformation::from_dataset(&d2));
//! assert_eq!(merged.weight(important), (0.5 + 100.0 / 100.0) / 2.0);
//! assert_eq!(merged.weight(spam), (1.0 + 10.0 / 100.0) / 2.0);
//! ```

mod concurrent;
mod counters;
mod drift;
mod info;
pub mod rebase;
pub mod sampling;
mod slots;
mod store;

pub use concurrent::{AtomicSlotArray, ShardedCounters};
pub use counters::{CounterImpl, Counters, Dataset, SlotStore};
pub use drift::{drift, DriftMetric};
pub use info::ProfileInformation;
pub use rebase::{
    rebase, MatchTier, RebaseConfig, RebaseError, RebaseOutcome, RebaseReport, RebaseResult,
};
pub use sampling::{Sampler, SamplingShared, DEFAULT_SAMPLE_HZ};
pub use slots::{SlotCompat, SlotMap, SlotTableMismatch};
pub use store::{point_datum, write_atomic, ProfileStoreError, Provenance, StoredProfile};

/// How the evaluator instruments a program for profiling.
///
/// The two active modes reproduce the two profilers the paper builds on:
/// Chez Scheme "effectively profiles every source expression" while Racket's
/// `errortrace` "profiles only function calls" (§4.1–4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ProfileMode {
    /// No instrumentation: profile points introduce no overhead (§3.1).
    #[default]
    Off,
    /// Count every evaluation of every expression that has a source object.
    EveryExpression,
    /// Count only procedure applications (the `errortrace` constraint).
    CallsOnly,
}

impl ProfileMode {
    /// True iff any counting happens in this mode.
    pub fn is_on(self) -> bool {
        self != ProfileMode::Off
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mode_is_off() {
        assert_eq!(ProfileMode::default(), ProfileMode::Off);
        assert!(!ProfileMode::Off.is_on());
        assert!(ProfileMode::EveryExpression.is_on());
        assert!(ProfileMode::CallsOnly.is_on());
    }
}
