//! Online profile-guided meta-programming.
//!
//! The paper's workflow (§4.3) is offline: instrument a build, run the
//! benchmark suite, store the counts, recompile. This crate closes that
//! loop *while the system runs*:
//!
//! - Concurrent collection into one [`pgmp_profiler::ShardedCounters`]:
//!   a `Send + Sync` counter registry keyed by interned profile points
//!   ([`pgmp_syntax::SourceObject`]), with lock-free relaxed atomic bumps
//!   on dense slots. Many worker threads feed it concurrently; epoch
//!   drains come out as the existing [`pgmp_profiler::Dataset`], so the
//!   paper's weight normalization and dataset-merge machinery applies
//!   unchanged.
//! - [`RollingProfile`] — epoch aggregation with exponential decay, so
//!   weights track *recent* behavior and stale traffic patterns age out;
//!   each re-optimization restarts it from the epoch that fired it.
//! - [`DriftDetector`] — the total-variation distance
//!   ([`pgmp_profiler::drift`]) between the live weights and the weights
//!   the running code was last optimized under, damped by
//!   consecutive-epoch hysteresis, a post-fire cooldown and a min-hits
//!   gate.
//! - [`AdaptiveEngine`] — each synchronous epoch
//!   ([`AdaptiveEngine::tick`]) drains the counters and asks the detector;
//!   on drift it re-optimizes under the new weights through the per-form
//!   incremental cache ([`pgmp::IncrementalEngine`]: only top-level forms
//!   whose consulted profile weights changed re-expand) and atomically
//!   swaps the [`CompiledProgram`] readers see.
//!
//! The crate deliberately reuses the single-threaded pipeline for the
//! heavy lifting — expansion, profile points, weights, bytecode — and adds
//! only the concurrency substrate around it, mirroring how the paper
//! layers PGMP on an unmodified Chez Scheme.

mod drift;
mod engine;
mod rolling;
mod snapshot;

pub use drift::{DriftDetector, DriftReading};
pub use engine::{AdaptiveConfig, AdaptiveEngine, AdaptiveHandle, CompiledProgram, EpochReport};
pub use rolling::RollingProfile;
pub use snapshot::EpochSnapshot;
