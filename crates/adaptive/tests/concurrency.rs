//! Concurrency guarantees of [`ShardedCounters`]: merging per-shard
//! snapshots is order-independent, and concurrent increments are never
//! lost.

use pgmp_profiler::{Dataset, ShardedCounters};
use pgmp_syntax::SourceObject;
use proptest::prelude::*;
use std::collections::HashMap;

fn point(n: u32) -> SourceObject {
    SourceObject::new("conc.scm", n, n + 1)
}

proptest! {
    /// Splitting a stream of (point, count) events across any number of
    /// worker "shards", absorbing each shard in any order, equals the
    /// single-threaded total — merge is commutative and associative.
    #[test]
    fn shard_merge_is_order_independent(
        events in proptest::collection::vec((0u32..16, 1u64..1000), 0..64),
        shards in 1usize..8,
        rotate in 0usize..8,
    ) {
        // Single-threaded reference: fold every event into one map.
        let mut reference: HashMap<u32, u64> = HashMap::new();
        for (p, c) in &events {
            *reference.entry(*p).or_insert(0) += c;
        }

        // Partition events round-robin into per-shard datasets (a dataset
        // holds one count per point, so pre-sum within each shard).
        let mut parts: Vec<HashMap<u32, u64>> = vec![HashMap::new(); shards];
        for (i, (p, c)) in events.iter().enumerate() {
            *parts[i % shards].entry(*p).or_insert(0) += c;
        }
        let mut datasets: Vec<Dataset> = parts
            .into_iter()
            .map(|part| part.into_iter().map(|(p, c)| (point(p), c)).collect())
            .collect();
        // Absorb the per-shard datasets in a permuted order.
        datasets.rotate_left(rotate % shards);

        let counters = ShardedCounters::new();
        for d in &datasets {
            counters.absorb(d);
        }

        let merged = counters.snapshot();
        for (p, expected) in &reference {
            prop_assert_eq!(merged.count(point(*p)), *expected, "point {}", p);
        }
        let merged_points = merged.iter().filter(|(_, c)| *c > 0).count();
        prop_assert_eq!(merged_points, reference.len());
    }

    /// snapshot() and drain() agree with each other: drain returns exactly
    /// what snapshot saw, then the registry is empty.
    #[test]
    fn drain_equals_snapshot_then_empty(
        events in proptest::collection::vec((0u32..8, 1u64..100), 0..32),
    ) {
        let counters = ShardedCounters::new();
        for (p, c) in &events {
            counters.add(point(*p), *c);
        }
        let before = counters.snapshot();
        let drained = counters.drain();
        for (p, c) in before.iter() {
            prop_assert_eq!(drained.count(p), c);
        }
        prop_assert!(counters.is_empty());
        prop_assert!(counters.snapshot().iter().next().is_none());
    }
}

/// Hammer one registry from many threads; every increment must land
/// exactly once (no lost updates under contention).
#[test]
fn concurrent_increments_are_never_lost() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 20_000;
    const POINTS: u32 = 13; // odd, so threads collide on shards

    let counters = ShardedCounters::new();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let c = counters.clone();
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    c.increment(point(((t as u64 + i) % POINTS as u64) as u32));
                }
            });
        }
    });

    let total: u64 = counters.snapshot().iter().map(|(_, c)| c).sum();
    assert_eq!(total, THREADS as u64 * PER_THREAD, "lost updates");
}

/// Drains running concurrently with increments neither lose nor duplicate
/// counts: the sum of everything drained plus the residue equals the
/// number of increments issued.
#[test]
fn concurrent_drain_partitions_every_hit() {
    const THREADS: usize = 4;
    const PER_THREAD: u64 = 10_000;

    let counters = ShardedCounters::new();
    let mut drained_total = 0u64;
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let c = counters.clone();
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        c.increment(point((i % 7) as u32 + t as u32 * 10));
                    }
                })
            })
            .collect();
        // Aggregator: drain repeatedly while workers are still hammering.
        while !workers.iter().all(|w| w.is_finished()) {
            drained_total += counters.drain().iter().map(|(_, c)| c).sum::<u64>();
        }
    });
    let residue: u64 = counters.drain().iter().map(|(_, c)| c).sum();
    assert_eq!(
        drained_total + residue,
        THREADS as u64 * PER_THREAD,
        "epoch drains lost or duplicated hits"
    );
}

/// Concurrent equivalence oracle: after a concurrent workload, the dense
/// slot-indexed registry holds, point by point, what a sequential
/// `HashMap<SourceObject, u64>` replay of the same adds holds.
#[test]
fn dense_registry_agrees_with_sequential_model() {
    const THREADS: u64 = 6;
    const PER_THREAD: u64 = 5_000;
    const POINTS: u64 = 11;

    let add = |t: u64, i: u64| (point(((t * 3 + i) % POINTS) as u32), 1 + (t + i) % 4);
    let dense = ShardedCounters::new();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let dense = dense.clone();
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    let (p, n) = add(t, i);
                    dense.add(p, n);
                }
            });
        }
    });
    let mut model: HashMap<SourceObject, u64> = HashMap::new();
    for t in 0..THREADS {
        for i in 0..PER_THREAD {
            let (p, n) = add(t, i);
            *model.entry(p).or_insert(0) += n;
        }
    }
    for raw in 0..POINTS {
        let p = point(raw as u32);
        assert_eq!(dense.count(p), model[&p], "point {raw}");
    }
    let dense_total: u64 = dense.snapshot().iter().map(|(_, c)| c).sum();
    assert_eq!(dense_total, model.values().sum::<u64>());
}

/// Per-thread buffering loses nothing: each worker sums its hits into a
/// dataset of its own and absorbs it once, as `AdaptiveHandle::absorb`
/// does with a run's dataset; the registry then holds exactly the hits
/// issued.
#[test]
fn per_thread_datasets_preserve_every_hit() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 10_000;
    const POINTS: u64 = 9;

    let counters = ShardedCounters::new();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let c = counters.clone();
            s.spawn(move || {
                let mut local: HashMap<SourceObject, u64> = HashMap::new();
                for i in 0..PER_THREAD {
                    *local.entry(point(((t + i) % POINTS) as u32)).or_insert(0) += 1;
                }
                c.absorb(&local.into_iter().collect());
            });
        }
    });
    let total: u64 = counters.snapshot().iter().map(|(_, c)| c).sum();
    assert_eq!(total, THREADS * PER_THREAD, "per-thread absorbs lost hits");
    for raw in 0..POINTS {
        let expected: u64 = (0..THREADS)
            .map(|t| (0..PER_THREAD).filter(|i| (t + i) % POINTS == raw).count() as u64)
            .sum();
        assert_eq!(counters.count(point(raw as u32)), expected, "point {raw}");
    }
}
