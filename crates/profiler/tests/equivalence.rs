//! Property-based equivalence oracle: the dense slot-indexed counter
//! backend and the sampling backend's *exact surface* both behave like a
//! plain `HashMap<SourceObject, u64>` model kept inside the test. Any
//! interleaving of increments, bulk adds, slot-cached bumps, and clears
//! produces the model's counts and the model's [`Dataset`] snapshot.
//!
//! Only [`Counters::record_hit`] diverges between backends (dense counts,
//! sampling publishes a beacon) — everything else, including `add_slot`,
//! `clear`, deltas, and `SlotMap` re-keying, is exact everywhere, which is
//! what lets sampled estimates flow through §3.2 merging, the v2 store,
//! and fleet deltas unchanged.

use pgmp_profiler::{Counters, Dataset};
use pgmp_syntax::SourceObject;
use proptest::prelude::*;
use std::collections::HashMap;

fn point(n: u32) -> SourceObject {
    SourceObject::new("oracle.scm", n, n + 1)
}

/// The two registries under test. The sampling one is manually driven (no
/// sampler thread), so its exact ops are fully deterministic.
fn all() -> [Counters; 2] {
    [Counters::new(), Counters::sampling_manual()]
}

/// The reference model: one saturating count per point.
type Model = HashMap<SourceObject, u64>;

/// One step of the randomized workload.
#[derive(Clone, Debug)]
enum Op {
    Increment(u32),
    Add(u32, u64),
    /// Bump through the dense slot API (resolve + add_slot) — the path
    /// must be indistinguishable from a keyed add.
    SlotAdd(u32, u64),
    Clear,
}

fn op() -> impl Strategy<Value = Op> {
    // The vendored prop_oneof! is uniform; repeating the increment arm
    // weights the workload toward the hot path.
    prop_oneof![
        (0u32..12).prop_map(Op::Increment),
        (0u32..12).prop_map(Op::Increment),
        ((0u32..12), (1u64..1000)).prop_map(|(p, n)| Op::Add(p, n)),
        ((0u32..12), (1u64..1000)).prop_map(|(p, n)| Op::SlotAdd(p, n)),
        Just(Op::Clear),
    ]
}

fn apply(c: &Counters, op: &Op) {
    match *op {
        Op::Increment(p) => c.increment(point(p)),
        Op::Add(p, n) => c.add(point(p), n),
        Op::SlotAdd(p, n) => {
            let slot = c.resolve(point(p));
            c.add_slot(slot, n);
        }
        Op::Clear => c.clear(),
    }
}

fn apply_model(m: &mut Model, op: &Op) {
    let mut bump = |p: u32, n: u64| {
        let c = m.entry(point(p)).or_insert(0);
        *c = c.saturating_add(n);
    };
    match *op {
        Op::Increment(p) => bump(p, 1),
        Op::Add(p, n) | Op::SlotAdd(p, n) => bump(p, n),
        Op::Clear => m.clear(),
    }
}

fn model_dataset(m: &Model) -> Dataset {
    m.iter().filter(|(_, c)| **c > 0).map(|(p, c)| (*p, *c)).collect()
}

proptest! {
    /// Both backends agree with the model on every observable — per-point
    /// counts, population size, and the full snapshot — after any op
    /// sequence.
    #[test]
    fn backends_match_the_model(
        ops in proptest::collection::vec(op(), 0..80),
    ) {
        let mut model = Model::new();
        for op in &ops {
            apply_model(&mut model, op);
        }
        for c in all() {
            for op in &ops {
                apply(&c, op);
            }
            for p in 0..12 {
                prop_assert_eq!(
                    c.count(point(p)),
                    model.get(&point(p)).copied().unwrap_or(0),
                    "point {} on {:?}", p, c.impl_kind()
                );
            }
            let expected = model_dataset(&model);
            prop_assert_eq!(c.len(), expected.len());
            prop_assert_eq!(c.is_empty(), expected.is_empty());
            prop_assert_eq!(c.snapshot(), expected);
        }
    }

    /// Slot ids are stable across clears for the registry's whole
    /// lifetime, on both backends: whatever ops ran in between,
    /// re-resolving a point always yields its original slot.
    #[test]
    fn slots_stay_stable_under_any_workload(
        ops in proptest::collection::vec(op(), 0..60),
    ) {
        for c in all() {
            let pinned: Vec<u32> = (0..4).map(|p| c.resolve(point(p))).collect();
            for op in &ops {
                apply(&c, op);
            }
            for (p, slot) in pinned.iter().enumerate() {
                prop_assert_eq!(c.resolve(point(p as u32)), *slot);
            }
        }
    }

    /// `take_delta` partitions hits identically on both backends, across
    /// clears (which rebase the reported baseline) and re-keying.
    #[test]
    fn take_delta_agrees_across_backends(
        ops in proptest::collection::vec(op(), 0..60),
        cut in 0usize..60,
    ) {
        let [dense, sampling] = all();
        let cut = cut.min(ops.len());
        for op in &ops[..cut] {
            apply(&dense, op);
            apply(&sampling, op);
        }
        prop_assert_eq!(dense.take_delta(), sampling.take_delta());
        for op in &ops[cut..] {
            apply(&dense, op);
            apply(&sampling, op);
        }
        prop_assert_eq!(dense.take_delta(), sampling.take_delta());
    }
}
