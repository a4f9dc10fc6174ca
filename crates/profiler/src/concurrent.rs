//! Concurrent counters: [`AtomicSlotArray`], the dense atomic storage, and
//! [`ShardedCounters`], the `Send + Sync` registry built on it.
//!
//! An [`AtomicSlotArray`] maps a dense `u32` slot to an `AtomicU64`
//! counter. The hot path — [`AtomicSlotArray::add`] on an existing slot —
//! is a relaxed saturating fetch-add with **no lock and no hashing**.
//!
//! Storage grows lock-free: slots live in power-of-two segments (1024,
//! 2048, 4096, …) that are allocated on first touch through a
//! `OnceLock`, so a slot's address never moves once allocated — writers
//! racing on a fresh segment coordinate only on the one-time
//! initialization. [`AtomicSlotArray::take`] swaps a counter to zero,
//! giving epoch aggregation its "every hit lands in exactly one drain"
//! guarantee per slot.

use crate::counters::Dataset;
use crate::slots::SlotMap;
use pgmp_syntax::SourceObject;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// log2 of the first segment's length.
const FIRST_SEGMENT_BITS: u32 = 10;
/// Segment k holds 2^(10+k) slots (1024, 2048, 4096, …); 23 segments
/// cover every possible `u32` slot.
const NUM_SEGMENTS: usize = 23;

/// Locates `slot`: (segment index, offset within it, segment length).
#[inline]
fn locate(slot: u32) -> (usize, usize, usize) {
    let idx = slot as u64 + (1 << FIRST_SEGMENT_BITS);
    let log = 63 - idx.leading_zeros();
    let seg_len = 1u64 << log;
    (
        (log - FIRST_SEGMENT_BITS) as usize,
        (idx - seg_len) as usize,
        seg_len as usize,
    )
}

/// Adds `n` to `counter` with relaxed ordering, saturating at `u64::MAX`.
///
/// Plain `fetch_add` would wrap; a compare-exchange loop saturates
/// instead, and uncontended it costs the same one RMW.
fn saturating_fetch_add(counter: &AtomicU64, n: u64) {
    let mut cur = counter.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_add(n);
        match counter.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// A growable `slot -> AtomicU64` array with lock-free bumps. See the
/// module docs.
#[derive(Debug, Default)]
pub struct AtomicSlotArray {
    segments: [OnceLock<Box<[AtomicU64]>>; NUM_SEGMENTS],
}

impl AtomicSlotArray {
    /// Creates an array with no segments allocated.
    pub fn new() -> AtomicSlotArray {
        AtomicSlotArray::default()
    }

    #[inline]
    fn counter(&self, slot: u32) -> &AtomicU64 {
        let (seg, off, len) = locate(slot);
        let segment =
            self.segments[seg].get_or_init(|| (0..len).map(|_| AtomicU64::new(0)).collect());
        &segment[off]
    }

    /// Adds `n` to `slot`'s counter with relaxed ordering, saturating at
    /// `u64::MAX`.
    #[inline]
    pub fn add(&self, slot: u32, n: u64) {
        saturating_fetch_add(self.counter(slot), n);
    }

    /// Current count of `slot` (0 if never touched).
    pub fn get(&self, slot: u32) -> u64 {
        let (seg, off, _) = locate(slot);
        match self.segments[seg].get() {
            Some(segment) => segment[off].load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Atomically moves `slot`'s count out, leaving zero. Each concurrent
    /// hit lands either in this take or a later one, never both — the
    /// per-slot drain guarantee epoch aggregation builds on.
    pub fn take(&self, slot: u32) -> u64 {
        let (seg, off, _) = locate(slot);
        match self.segments[seg].get() {
            Some(segment) => segment[off].swap(0, Ordering::Relaxed),
            None => 0,
        }
    }

    /// Zeroes every allocated counter (segments stay allocated, so slot
    /// addresses — and anything caching them — remain valid).
    pub fn clear(&self) {
        for seg in &self.segments {
            if let Some(segment) = seg.get() {
                for c in segment.iter() {
                    c.store(0, Ordering::Relaxed);
                }
            }
        }
    }
}

struct Inner {
    /// Point → slot interning. Read-locked on re-resolution, write-locked
    /// only the first time a point is seen.
    slots: RwLock<SlotMap>,
    /// Dense slot → count storage; bumps are lock-free relaxed atomics.
    counts: AtomicSlotArray,
}

/// A `Send + Sync` live counter registry for concurrent profile collection.
///
/// Where [`crate::Counters`] is the single-threaded registry one engine
/// bumps during an instrumented run, `ShardedCounters` is the shared sink
/// many threads feed at once: worker threads either bump points directly
/// ([`ShardedCounters::increment`]) or run their own instrumented engine
/// and [`absorb`](ShardedCounters::absorb) its dataset, while an
/// aggregator periodically [`drain`](ShardedCounters::drain)s the whole
/// registry into an epoch [`Dataset`]. The proc-macro runtime `pgmp-rt`
/// keeps its process-global registry in one too.
///
/// Points are interned once into a [`SlotMap`] (read lock on
/// re-resolution, write lock only for a never-seen point) and counts live
/// in an [`AtomicSlotArray`], so a hit on a known slot
/// ([`ShardedCounters::add_slot`]) is a single relaxed fetch-add — no
/// lock, no hashing.
///
/// Handles are cheaply cloneable and share state, mirroring the
/// [`crate::Counters`] API.
///
/// # Example
///
/// ```
/// use pgmp_profiler::ShardedCounters;
/// use pgmp_syntax::SourceObject;
///
/// let counters = ShardedCounters::new();
/// let p = SourceObject::new("svc.scm", 0, 5);
/// std::thread::scope(|s| {
///     for _ in 0..4 {
///         let c = counters.clone();
///         s.spawn(move || {
///             for _ in 0..1000 {
///                 c.increment(p);
///             }
///         });
///     }
/// });
/// assert_eq!(counters.snapshot().count(p), 4000);
/// ```
#[derive(Clone)]
pub struct ShardedCounters {
    inner: Arc<Inner>,
}

impl Default for ShardedCounters {
    fn default() -> ShardedCounters {
        ShardedCounters::new()
    }
}

impl ShardedCounters {
    /// An empty registry.
    pub fn new() -> ShardedCounters {
        ShardedCounters {
            inner: Arc::new(Inner {
                slots: RwLock::new(SlotMap::new()),
                counts: AtomicSlotArray::new(),
            }),
        }
    }

    fn slots(&self) -> std::sync::RwLockReadGuard<'_, SlotMap> {
        self.inner
            .slots
            .read()
            .expect("sharded counters slot map poisoned")
    }

    /// The dense slot for profile point `p`, interning it on first
    /// resolution. Slots are stable for the registry's lifetime (never
    /// recycled, not even by [`ShardedCounters::clear`]), so they can be
    /// cached by workers and embedded in generated code.
    pub fn resolve(&self, p: SourceObject) -> u32 {
        if let Some(slot) = self.slots().get(p) {
            return slot;
        }
        self.inner
            .slots
            .write()
            .expect("sharded counters slot map poisoned")
            .resolve(p)
    }

    /// The slot previously assigned to `p`, if any (never interns).
    pub fn slot(&self, p: SourceObject) -> Option<u32> {
        self.slots().get(p)
    }

    /// Number of slots interned so far (distinct points ever seen).
    pub fn resolved_slots(&self) -> usize {
        self.slots().len()
    }

    /// Adds `n` to the counter of an already-resolved `slot` (saturating).
    /// This is the lock-free hot path: one relaxed atomic RMW.
    #[inline]
    pub fn add_slot(&self, slot: u32, n: u64) {
        self.inner.counts.add(slot, n);
    }

    /// Current count of an already-resolved `slot`.
    pub fn count_slot(&self, slot: u32) -> u64 {
        self.inner.counts.get(slot)
    }

    /// Adds one to the counter for profile point `p` (saturating).
    pub fn increment(&self, p: SourceObject) {
        self.add(p, 1);
    }

    /// Adds `n` to the counter for profile point `p` (saturating).
    pub fn add(&self, p: SourceObject, n: u64) {
        let slot = self.resolve(p);
        self.inner.counts.add(slot, n);
    }

    /// Current count for `p` (0 if never incremented).
    pub fn count(&self, p: SourceObject) -> u64 {
        self.slot(p).map_or(0, |slot| self.inner.counts.get(slot))
    }

    /// Number of profile points with a nonzero count.
    pub fn len(&self) -> usize {
        let slots = self.slots().len() as u32;
        (0..slots).filter(|&s| self.inner.counts.get(s) > 0).count()
    }

    /// True iff nothing has been counted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Zeroes all counters. Slot assignments survive, so slots cached by
    /// workers stay valid.
    pub fn clear(&self) {
        self.inner.counts.clear();
    }

    /// Adds every count of `dataset` — how a worker thread merges the
    /// counters of its own instrumented run into the shared registry.
    pub fn absorb(&self, dataset: &Dataset) {
        for (p, c) in dataset.iter() {
            if c > 0 {
                self.add(p, c);
            }
        }
    }

    /// Copies the nonzero counts out through `read` into a [`Dataset`].
    fn collect(&self, read: impl Fn(&AtomicSlotArray, u32) -> u64) -> Dataset {
        let slots = self.slots();
        slots
            .points()
            .iter()
            .enumerate()
            .map(|(s, p)| (*p, read(&self.inner.counts, s as u32)))
            .filter(|(_, c)| *c > 0)
            .collect()
    }

    /// Copies the current counts into a [`Dataset`], reusing the existing
    /// weight/merge pipeline unchanged. Zero counts are skipped, so this
    /// snapshots like [`crate::Counters::snapshot`].
    pub fn snapshot(&self) -> Dataset {
        self.collect(AtomicSlotArray::get)
    }

    /// Moves all counts out into a [`Dataset`], leaving the registry
    /// empty. Concurrent increments land either in this dataset or the
    /// next one, never in both and never nowhere — the epoch-aggregation
    /// guarantee, per slot ([`AtomicSlotArray::take`]).
    pub fn drain(&self) -> Dataset {
        self.collect(AtomicSlotArray::take)
    }
}

impl std::fmt::Debug for ShardedCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCounters")
            .field("points", &self.len())
            .field("slots", &self.resolved_slots())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProfileInformation;

    fn p(n: u32) -> SourceObject {
        SourceObject::new("sc.scm", n, n + 1)
    }

    #[test]
    fn locate_covers_segment_boundaries() {
        assert_eq!(locate(0), (0, 0, 1024));
        assert_eq!(locate(1023), (0, 1023, 1024));
        assert_eq!(locate(1024), (1, 0, 2048));
        assert_eq!(locate(3071), (1, 2047, 2048));
        assert_eq!(locate(3072), (2, 0, 4096));
        assert_eq!(locate(u32::MAX), (22, 1023, 1 << 32));
    }

    #[test]
    fn add_get_take() {
        let a = AtomicSlotArray::new();
        a.add(0, 2);
        a.add(5000, 7);
        assert_eq!(a.get(0), 2);
        assert_eq!(a.get(5000), 7);
        assert_eq!(a.get(3), 0);
        assert_eq!(a.take(5000), 7);
        assert_eq!(a.get(5000), 0);
        assert_eq!(a.take(5000), 0);
    }

    #[test]
    fn saturates_at_max() {
        let a = AtomicSlotArray::new();
        a.add(1, u64::MAX - 1);
        a.add(1, 5);
        assert_eq!(a.get(1), u64::MAX);
    }

    #[test]
    fn clear_keeps_segments_usable() {
        let a = AtomicSlotArray::new();
        a.add(9, 3);
        a.clear();
        assert_eq!(a.get(9), 0);
        a.add(9, 1);
        assert_eq!(a.get(9), 1);
    }

    #[test]
    fn concurrent_adds_are_not_lost() {
        let a = Arc::new(AtomicSlotArray::new());
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let a = a.clone();
                s.spawn(move || {
                    for i in 0..per_thread {
                        a.add(((t + i) % 16) as u32, 1);
                    }
                });
            }
        });
        let total: u64 = (0..16).map(|s| a.get(s)).sum();
        assert_eq!(total, threads * per_thread);
    }

    #[test]
    fn mirrors_counters_api() {
        let c = ShardedCounters::new();
        c.increment(p(0));
        c.increment(p(0));
        c.add(p(1), 3);
        assert_eq!(c.count(p(0)), 2);
        assert_eq!(c.count(p(1)), 3);
        assert_eq!(c.count(p(9)), 0);
        assert_eq!(c.len(), 2);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn clones_share_state() {
        let c = ShardedCounters::new();
        let c2 = c.clone();
        c2.increment(p(7));
        assert_eq!(c.count(p(7)), 1);
    }

    #[test]
    fn slots_are_stable_across_clear_and_drain() {
        let c = ShardedCounters::new();
        let s0 = c.resolve(p(0));
        let s1 = c.resolve(p(1));
        assert_ne!(s0, s1);
        c.add_slot(s0, 2);
        c.clear();
        assert_eq!(c.resolve(p(0)), s0, "clear must not recycle slots");
        c.add_slot(s0, 5);
        let _ = c.drain();
        assert_eq!(c.resolve(p(1)), s1, "drain must not recycle slots");
        assert_eq!(c.resolved_slots(), 2);
        c.add_slot(s1, 1);
        assert_eq!(c.count(p(1)), 1);
    }

    #[test]
    fn slot_and_keyed_apis_agree() {
        let c = ShardedCounters::new();
        let s = c.resolve(p(3));
        c.add_slot(s, 4);
        c.increment(p(3));
        assert_eq!(c.count(p(3)), 5);
        assert_eq!(c.count_slot(s), 5);
        assert_eq!(c.slot(p(3)), Some(s));
        assert_eq!(c.slot(p(4)), None);
    }

    #[test]
    fn snapshot_feeds_existing_weight_pipeline() {
        let c = ShardedCounters::new();
        c.add(p(0), 5);
        c.add(p(1), 10);
        let w = ProfileInformation::from_dataset(&c.snapshot());
        assert_eq!(w.weight(p(0)), 0.5);
        assert_eq!(w.weight(p(1)), 1.0);
    }

    #[test]
    fn drain_is_destructive_and_complete() {
        let c = ShardedCounters::new();
        c.add(p(0), 4);
        let d = c.drain();
        assert_eq!(d.count(p(0)), 4);
        assert!(c.is_empty());
        assert!(c.drain().is_empty());
    }

    #[test]
    fn absorb_merges_a_dataset() {
        let c = ShardedCounters::new();
        let d: Dataset = [(p(0), 2), (p(1), 0), (p(2), 7)].into_iter().collect();
        c.absorb(&d);
        c.absorb(&d);
        assert_eq!(c.count(p(0)), 4);
        assert_eq!(c.count(p(2)), 14);
        // Zero-count entries are not materialized.
        assert_eq!(c.count(p(1)), 0);
        assert_eq!(c.len(), 2);
    }
}
