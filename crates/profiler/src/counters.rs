//! Live profile counters and per-run datasets.
//!
//! A [`Counters`] registry interns each profile point once — at
//! instrumentation time — to a stable `u32` slot in a [`SlotMap`], and
//! keeps the counts in a [`SlotStore`]. The store is the one dense/sampling
//! counter substrate of the single-threaded side; the VM's block counters
//! (`pgmp_bytecode::BlockCounters`) key the same store by chunk instead of
//! by point. A store counts in one of two ways:
//!
//! - **Dense** (the default): a bump is an unsynchronized
//!   `Vec<Cell<u64>>` index. This is the cost model the paper assumes ("a
//!   profile point compiles down to a plain counter increment").
//! - **Sampling**: the always-on backend. A profiled event publishes a
//!   current-position beacon (one relaxed atomic store, see
//!   [`crate::sampling`]); a decoupled sampler thread ticking at a
//!   configurable rate reads the beacon and accumulates *estimated*
//!   tallies into the same slot space, so weights are statistical
//!   estimates rather than exact counts. Direct adds ([`SlotStore::add`],
//!   hence [`Counters::add`] and [`Counters::add_slot`]) still land
//!   exactly, which is what dataset absorption, merging, and the
//!   equivalence oracle rely on; only the hot-path [`SlotStore::hit`]
//!   trades exactness for ~zero mutator overhead.
//!
//! Both snapshot into the same [`Dataset`], so weight normalization,
//! dataset merging, and `store-profile`/`load-profile` are unchanged.

use crate::sampling::{Sampler, SamplingShared, DEFAULT_SAMPLE_HZ};
use crate::slots::SlotMap;
use pgmp_syntax::SourceObject;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Which way a [`SlotStore`] counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CounterImpl {
    /// Dense slot-indexed counters (resolve once, then vector bumps).
    #[default]
    Dense,
    /// Statistical sampling: hot-path events publish a position beacon
    /// (one relaxed store) and a sampler estimates counts from it.
    Sampling,
}

impl std::str::FromStr for CounterImpl {
    type Err = String;

    fn from_str(s: &str) -> Result<CounterImpl, String> {
        match s {
            "dense" => Ok(CounterImpl::Dense),
            "sampling" => Ok(CounterImpl::Sampling),
            other => Err(format!(
                "unknown counter impl `{other}` (dense|sampling)"
            )),
        }
    }
}

#[derive(Debug)]
enum Store {
    /// Exact counts, one cell per slot.
    Dense(RefCell<Vec<Cell<u64>>>),
    Sampling {
        /// Beacon + estimated tallies, shared with the sampler.
        shared: Arc<SamplingShared>,
        /// Owns the wall-clock sampler thread; `None` when tests and
        /// benches drive [`SlotStore::sample_now`] deterministically.
        /// Dropping the store stops and joins the thread.
        sampler: Option<Sampler>,
        /// Nominal tick rate (0 when manually driven) — recorded as
        /// `sampled@hz` provenance when the profile is stored.
        hz: u32,
    },
}

/// Slot-indexed count storage, dense or sampled — what a single-threaded
/// registry keeps its counts in. The registry owns the keying (points to
/// slots, chunks to ranges); the store only sees dense `u32` indexes.
///
/// A dense store must cover an index ([`SlotStore::grow`])
/// before it is bumped or read; a sampling store covers every index.
#[derive(Debug)]
pub struct SlotStore {
    store: Store,
}

impl Default for SlotStore {
    fn default() -> SlotStore {
        SlotStore::new(CounterImpl::Dense)
    }
}

impl SlotStore {
    /// An empty store of the given kind. A sampling store gets a
    /// wall-clock sampler at [`DEFAULT_SAMPLE_HZ`]; use
    /// [`SlotStore::sampling`] to pick the rate.
    pub fn new(kind: CounterImpl) -> SlotStore {
        match kind {
            CounterImpl::Dense => SlotStore {
                store: Store::Dense(RefCell::new(Vec::new())),
            },
            CounterImpl::Sampling => SlotStore::sampling(DEFAULT_SAMPLE_HZ),
        }
    }

    /// A sampling store whose sampler thread ticks at `hz`.
    pub fn sampling(hz: u32) -> SlotStore {
        SlotStore::sampling_with(hz, true)
    }

    /// A sampling store with *no* sampler thread: tests and benchmarks
    /// call [`SlotStore::sample_now`] to take each sample
    /// deterministically.
    pub fn sampling_manual() -> SlotStore {
        SlotStore::sampling_with(0, false)
    }

    fn sampling_with(hz: u32, spawn: bool) -> SlotStore {
        let shared = Arc::new(SamplingShared::new());
        let sampler = spawn.then(|| Sampler::spawn(shared.clone(), hz));
        SlotStore {
            store: Store::Sampling {
                shared,
                sampler,
                hz,
            },
        }
    }

    /// How this store counts.
    pub fn impl_kind(&self) -> CounterImpl {
        match &self.store {
            Store::Dense(_) => CounterImpl::Dense,
            Store::Sampling { .. } => CounterImpl::Sampling,
        }
    }

    /// The nominal sampler rate: `Some(hz)` for sampling stores (0 when
    /// manually driven), `None` for dense ones. This is what a stored
    /// profile records as `sampled@hz` provenance.
    pub fn sample_hz(&self) -> Option<u32> {
        match &self.store {
            Store::Sampling { hz, .. } => Some(*hz),
            Store::Dense(_) => None,
        }
    }

    /// True when a wall-clock sampler thread is attached (always false
    /// for dense and manually driven stores).
    pub fn has_sampler_thread(&self) -> bool {
        matches!(
            &self.store,
            Store::Sampling {
                sampler: Some(_),
                ..
            }
        )
    }

    /// The beacon/tally state shared with the sampler (`None` for dense
    /// stores). Exposed for boundary-time metric publication and for
    /// tests that inspect tick/hit/miss accounting.
    pub fn sampling_shared(&self) -> Option<Arc<SamplingShared>> {
        match &self.store {
            Store::Sampling { shared, .. } => Some(shared.clone()),
            Store::Dense(_) => None,
        }
    }

    /// Takes one sample deterministically (no-op on dense stores). Pairs
    /// with [`SlotStore::sampling_manual`] in tests and benchmarks.
    pub fn sample_now(&self) {
        if let Store::Sampling { shared, .. } = &self.store {
            shared.sample_now();
        }
    }

    /// Clears the published position beacon (no-op on dense stores).
    /// Called on run exit and around blocking waits so the sampler never
    /// attributes idle time to the last-executed profile point.
    #[inline]
    pub fn park(&self) {
        if let Store::Sampling { shared, .. } = &self.store {
            shared.park();
        }
    }

    /// Makes a dense store cover indexes `0..len`, new ones at zero
    /// (no-op on sampling stores and when already covered).
    pub fn grow(&self, len: usize) {
        if let Store::Dense(counts) = &self.store {
            let mut counts = counts.borrow_mut();
            if counts.len() < len {
                counts.resize(len, Cell::new(0));
            }
        }
    }

    /// Records one hot-path event at `idx`: a saturating bump on a dense
    /// store, one relaxed beacon store on a sampling store (the sampler
    /// supplies the estimated count).
    ///
    /// # Panics
    ///
    /// Panics (dense) if `idx` is not covered.
    #[inline]
    pub fn hit(&self, idx: u32) {
        match &self.store {
            Store::Dense(counts) => {
                let counts = counts.borrow();
                let c = &counts[idx as usize];
                c.set(c.get().saturating_add(1));
            }
            Store::Sampling { shared, .. } => shared.publish(idx),
        }
    }

    /// Adds `n` at `idx`, exactly on both kinds, saturating at
    /// `u64::MAX`: a long-running adaptive loop can genuinely exhaust a
    /// `u64` on a hot point, and a wrapped counter would silently invert
    /// every weight derived from it.
    ///
    /// # Panics
    ///
    /// Panics (dense) if `idx` is not covered.
    #[inline]
    pub fn add(&self, idx: u32, n: u64) {
        match &self.store {
            Store::Dense(counts) => {
                let counts = counts.borrow();
                let c = &counts[idx as usize];
                c.set(c.get().saturating_add(n));
            }
            Store::Sampling { shared, .. } => shared.tallies().add(idx, n),
        }
    }

    /// Count at `idx` (estimated, on a sampling store).
    ///
    /// # Panics
    ///
    /// Panics (dense) if `idx` is not covered.
    pub fn get(&self, idx: u32) -> u64 {
        match &self.store {
            Store::Dense(counts) => counts.borrow()[idx as usize].get(),
            Store::Sampling { shared, .. } => shared.tallies().get(idx),
        }
    }

    /// Moves the count at `idx` out, leaving zero.
    ///
    /// # Panics
    ///
    /// Panics (dense) if `idx` is not covered.
    pub fn take(&self, idx: u32) -> u64 {
        match &self.store {
            Store::Dense(counts) => counts.borrow()[idx as usize].replace(0),
            Store::Sampling { shared, .. } => shared.tallies().take(idx),
        }
    }

    /// Zeroes every count and makes a dense store cover exactly `0..len`,
    /// releasing the rest (a sampling store is only zeroed). Indexes from
    /// `len` on must be covered again before use.
    pub fn reset(&self, len: usize) {
        match &self.store {
            Store::Dense(counts) => {
                let mut counts = counts.borrow_mut();
                counts.clear();
                counts.resize(len, Cell::new(0));
                counts.shrink_to_fit();
            }
            Store::Sampling { shared, .. } => shared.tallies().clear(),
        }
    }

    /// Zeroes every count. Coverage is kept, so indexes cached by callers
    /// stay valid.
    pub fn clear(&self) {
        match &self.store {
            Store::Dense(counts) => {
                for c in counts.borrow().iter() {
                    c.set(0);
                }
            }
            Store::Sampling { shared, .. } => shared.tallies().clear(),
        }
    }
}

/// Process-global id generator for slot maps. Ids start at 1 so that 0
/// means "unresolved cache entry" — a slot cached on an AST node under map
/// id `m` is valid only against the `Counters` whose [`Counters::map_id`]
/// is exactly `m`.
static NEXT_MAP_ID: AtomicU32 = AtomicU32::new(1);

#[derive(Debug)]
struct Inner {
    map_id: u32,
    slots: RefCell<SlotMap>,
    store: SlotStore,
    /// Per-slot count as of the last [`Counters::take_delta`], the
    /// baseline the next delta is computed against.
    reported: RefCell<Vec<u64>>,
}

/// The live counter registry for one profiled execution.
///
/// A `Counters` handle is cheaply cloneable and shared: the engine hands one
/// to the evaluator, which bumps counters as annotated expressions execute,
/// and later snapshots it into a [`Dataset`]. It interns points to slots;
/// the counts live in its [`SlotStore`] ([`Counters::store`]).
///
/// # Example
///
/// ```
/// use pgmp_profiler::Counters;
/// use pgmp_syntax::SourceObject;
/// let c = Counters::new();
/// let p = SourceObject::new("x.scm", 0, 5);
/// c.increment(p);
/// c.increment(p);
/// assert_eq!(c.count(p), 2);
/// ```
#[derive(Clone, Debug)]
pub struct Counters {
    inner: Rc<Inner>,
}

impl Default for Counters {
    fn default() -> Counters {
        Counters::new()
    }
}

impl Counters {
    /// Creates an empty dense registry.
    pub fn new() -> Counters {
        Counters::with_store(SlotStore::default())
    }

    /// Creates an empty registry counting into `store`.
    pub fn with_store(store: SlotStore) -> Counters {
        Counters::with_slot_table(SlotMap::new(), store)
    }

    /// Creates a registry whose slot map is preloaded from `table` (as
    /// reloaded from a v2 profile file, see [`crate::StoredProfile`]):
    /// every point in `table` already has its slot, with all counts zero,
    /// so instrumentation that re-resolves the same points does no
    /// interning work and gets identical slot ids.
    ///
    /// The registry still gets a fresh [`Counters::map_id`] — slot caches
    /// packed against the *saving* process's map id are revalidated, not
    /// trusted.
    pub fn with_slot_table(table: SlotMap, store: SlotStore) -> Counters {
        store.grow(table.len());
        Counters {
            inner: Rc::new(Inner {
                map_id: NEXT_MAP_ID.fetch_add(1, Ordering::Relaxed),
                slots: RefCell::new(table),
                store,
                reported: RefCell::new(Vec::new()),
            }),
        }
    }

    /// The store holding this registry's counts: its kind, sampling state
    /// and beacon.
    pub fn store(&self) -> &SlotStore {
        &self.inner.store
    }

    /// A snapshot of the slot table. This is what a v2 profile file
    /// persists so the next process can skip re-interning.
    pub fn slot_table(&self) -> SlotMap {
        self.inner.slots.borrow().clone()
    }

    /// Identity of this registry's slot map (never 0). A slot id is only
    /// meaningful together with the map id it was resolved under; callers
    /// caching slots must revalidate against this before using
    /// [`Counters::add_slot`].
    pub fn map_id(&self) -> u32 {
        self.inner.map_id
    }

    /// Resolves profile point `p` to its dense slot, interning it on first
    /// resolution. Stable: the same point always maps to the same slot for
    /// the lifetime of the registry (clearing counts does not disturb
    /// slots).
    pub fn resolve(&self, p: SourceObject) -> u32 {
        let slot = self.inner.slots.borrow_mut().resolve(p);
        self.inner.store.grow(slot as usize + 1);
        slot
    }

    /// Adds `n` to the counter in `slot`, saturating at `u64::MAX`. The
    /// dense fast path: no hashing, no entry allocation.
    ///
    /// # Panics
    ///
    /// Panics (dense) if `slot` was never resolved.
    #[inline]
    pub fn add_slot(&self, slot: u32, n: u64) {
        self.inner.store.add(slot, n);
    }

    /// Records one hot-path hit in `slot` — the per-event operation the
    /// instrumented interpreter emits ([`SlotStore::hit`]): it *counts*
    /// on a dense store and only *publishes* the position beacon on a
    /// sampling one.
    ///
    /// # Panics
    ///
    /// Panics (dense) if `slot` was never resolved.
    #[inline]
    pub fn record_hit(&self, slot: u32) {
        self.inner.store.hit(slot);
    }

    /// Current count in `slot` (the slot-indexed dual of
    /// [`Counters::count`]).
    ///
    /// # Panics
    ///
    /// Panics (dense) if `slot` was never resolved.
    pub fn count_slot(&self, slot: u32) -> u64 {
        self.inner.store.get(slot)
    }

    /// Number of slots resolved so far. Unlike [`Counters::len`], this
    /// counts *instrumented* points, not *executed* ones, and is unaffected
    /// by [`Counters::clear`] — tests use it to assert that cached code
    /// replays without re-resolution.
    pub fn resolved_slots(&self) -> usize {
        self.inner.slots.borrow().len()
    }

    /// Adds one to the counter for profile point `p`, saturating at
    /// `u64::MAX`.
    pub fn increment(&self, p: SourceObject) {
        self.add(p, 1);
    }

    /// Adds `n` to the counter for profile point `p`, saturating at
    /// `u64::MAX`.
    pub fn add(&self, p: SourceObject, n: u64) {
        let slot = self.resolve(p);
        self.add_slot(slot, n);
    }

    /// Current count for `p` (0 if never incremented).
    pub fn count(&self, p: SourceObject) -> u64 {
        let slot = self.inner.slots.borrow().get(p);
        slot.map_or(0, |slot| self.count_slot(slot))
    }

    /// Number of profile points with a nonzero count.
    pub fn len(&self) -> usize {
        let n = self.resolved_slots() as u32;
        (0..n).filter(|&s| self.count_slot(s) > 0).count()
    }

    /// True iff nothing has been counted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Zeroes all counters. The slot assignment is preserved, so slot ids
    /// cached on AST nodes or embedded in bytecode stay valid across
    /// profile resets.
    pub fn clear(&self) {
        self.inner.store.clear();
    }

    /// Extracts the counts accrued since the previous `take_delta` as
    /// dense `(slot, additional_hits)` pairs, and advances the baseline —
    /// each hit appears in exactly one delta. Slots whose count did not
    /// grow are omitted. This is the publisher-side extraction the fleet
    /// daemon's wire format consumes: no strings, no hashing, one pass
    /// over the dense slots.
    ///
    /// A [`Counters::clear`] between deltas rebases the baseline silently
    /// (counts that went *down* report nothing rather than underflowing).
    pub fn take_delta(&self) -> Vec<(u32, u64)> {
        let mut reported = self.inner.reported.borrow_mut();
        reported.resize(self.resolved_slots(), 0);
        let mut delta = Vec::new();
        for (i, base) in reported.iter_mut().enumerate() {
            let current = self.count_slot(i as u32);
            if current > *base {
                delta.push((i as u32, current - *base));
            }
            *base = current;
        }
        delta
    }

    /// Snapshots the current counts into an immutable [`Dataset`]. Points
    /// with a zero count are omitted, so dense and sampling registries fed
    /// the same exact adds snapshot to *identical* datasets.
    pub fn snapshot(&self) -> Dataset {
        let slots = self.inner.slots.borrow();
        slots
            .points()
            .iter()
            .enumerate()
            .map(|(i, p)| (*p, self.count_slot(i as u32)))
            .filter(|(_, c)| *c > 0)
            .collect()
    }
}

/// Profile counts from one run on one input — one "data set" in the paper's
/// terminology (§3.2). Absolute counts are only comparable *within* a
/// dataset; convert to weights before comparing across datasets.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Dataset {
    pub(crate) counts: HashMap<SourceObject, u64>,
}

impl Dataset {
    /// Creates an empty dataset.
    pub fn new() -> Dataset {
        Dataset::default()
    }

    /// Records an absolute count for `p`, replacing any previous value.
    pub fn record(&mut self, p: SourceObject, count: u64) {
        self.counts.insert(p, count);
    }

    /// Count for `p` (0 if absent).
    pub fn count(&self, p: SourceObject) -> u64 {
        self.counts.get(&p).copied().unwrap_or(0)
    }

    /// The largest count in the dataset, i.e. the count of "the most
    /// executed profile point in the same data set" (§3.2).
    pub fn max_count(&self) -> u64 {
        self.counts.values().copied().max().unwrap_or(0)
    }

    /// Number of recorded profile points.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True iff no counts were recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterates over `(point, count)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (SourceObject, u64)> + '_ {
        self.counts.iter().map(|(p, c)| (*p, *c))
    }
}

impl FromIterator<(SourceObject, u64)> for Dataset {
    fn from_iter<I: IntoIterator<Item = (SourceObject, u64)>>(iter: I) -> Dataset {
        Dataset {
            counts: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u32) -> SourceObject {
        SourceObject::new("t.scm", n, n + 1)
    }

    /// One registry per backend. The sampling one is manually driven (no
    /// thread): with no `record_hit`/`sample_now` in sight its keyed and
    /// slot APIs must behave exactly like the dense backend.
    fn all_impls() -> [Counters; 2] {
        [Counters::new(), Counters::with_store(SlotStore::sampling_manual())]
    }

    #[test]
    fn increment_accumulates() {
        for c in all_impls() {
            c.increment(p(0));
            c.increment(p(0));
            c.increment(p(1));
            assert_eq!(c.count(p(0)), 2);
            assert_eq!(c.count(p(1)), 1);
            assert_eq!(c.count(p(2)), 0);
            assert_eq!(c.len(), 2);
        }
    }

    #[test]
    fn clones_share_state() {
        for c in all_impls() {
            let c2 = c.clone();
            c2.increment(p(0));
            assert_eq!(c.count(p(0)), 1);
        }
    }

    #[test]
    fn add_bulk() {
        for c in all_impls() {
            c.add(p(3), 10);
            c.add(p(3), 5);
            assert_eq!(c.count(p(3)), 15);
        }
    }

    #[test]
    fn counts_saturate_instead_of_wrapping() {
        for c in all_impls() {
            c.add(p(4), u64::MAX - 1);
            c.increment(p(4));
            c.increment(p(4));
            assert_eq!(c.count(p(4)), u64::MAX);
            c.add(p(4), 100);
            assert_eq!(c.count(p(4)), u64::MAX);
        }
    }

    #[test]
    fn snapshot_is_independent() {
        for c in all_impls() {
            c.increment(p(0));
            let snap = c.snapshot();
            c.increment(p(0));
            assert_eq!(snap.count(p(0)), 1);
            assert_eq!(c.count(p(0)), 2);
        }
    }

    #[test]
    fn clear_resets() {
        for c in all_impls() {
            c.increment(p(0));
            c.clear();
            assert!(c.is_empty());
        }
    }

    #[test]
    fn dense_slots_survive_clear() {
        for c in all_impls() {
            let s0 = c.resolve(p(0));
            let s1 = c.resolve(p(1));
            c.add_slot(s0, 3);
            c.clear();
            assert_eq!(c.count_slot(s0), 0);
            assert_eq!(c.resolve(p(0)), s0, "slot ids are stable across clear");
            assert_eq!(c.resolve(p(1)), s1);
            assert_eq!(c.resolved_slots(), 2);
            c.add_slot(s1, 7);
            assert_eq!(c.count(p(1)), 7);
        }
    }

    #[test]
    fn slot_and_keyed_apis_agree() {
        for c in all_impls() {
            let s = c.resolve(p(9));
            c.add_slot(s, 4);
            c.increment(p(9));
            assert_eq!(c.count(p(9)), 5);
            assert_eq!(c.count_slot(s), 5);
        }
    }

    #[test]
    fn reset_zeroes_and_covers_the_new_length() {
        let s = SlotStore::default();
        s.grow(8);
        s.add(2, 5);
        s.add(7, 1);
        s.reset(4);
        assert_eq!((0..4).map(|i| s.get(i)).sum::<u64>(), 0);
        s.add(3, 2);
        assert_eq!(s.get(3), 2);
        s.grow(8);
        assert_eq!(s.get(7), 0, "a released index comes back at zero");
    }

    #[test]
    fn map_ids_distinguish_registries() {
        let a = Counters::new();
        let b = Counters::new();
        assert_ne!(a.map_id(), b.map_id());
        assert_ne!(a.map_id(), 0);
        assert_ne!(Counters::with_store(SlotStore::sampling_manual()).map_id(), 0);
        assert_eq!(a.map_id(), a.clone().map_id(), "clones share the map");
    }

    #[test]
    fn all_backends_snapshot_identically() {
        let [dense, sampling] = all_impls();
        for (point, n) in [(p(0), 2), (p(7), 1), (p(0), 3), (p(2), 5)] {
            dense.add(point, n);
            sampling.add(point, n);
        }
        assert_eq!(dense.snapshot(), sampling.snapshot());
    }

    #[test]
    fn preloaded_slot_table_skips_interning() {
        let c = Counters::new();
        let s0 = c.resolve(p(0));
        let s1 = c.resolve(p(1));
        let warm = Counters::with_slot_table(c.slot_table(), SlotStore::default());
        assert_eq!(warm.resolved_slots(), 2, "slots preloaded");
        assert!(warm.is_empty(), "counts start at zero");
        assert_eq!(warm.resolve(p(0)), s0, "same slot ids as the saver");
        assert_eq!(warm.resolve(p(1)), s1);
        warm.add_slot(s1, 3);
        assert_eq!(warm.count(p(1)), 3);
        assert_ne!(warm.map_id(), c.map_id(), "fresh map id");
    }

    #[test]
    fn take_delta_partitions_hits_exactly() {
        for c in all_impls() {
            let s0 = c.resolve(p(0));
            let s1 = c.resolve(p(1));
            c.add_slot(s0, 5);
            assert_eq!(c.take_delta(), vec![(s0, 5)]);
            assert_eq!(c.take_delta(), vec![], "no new hits, no delta");
            c.add_slot(s0, 2);
            c.add_slot(s1, 1);
            let mut d = c.take_delta();
            d.sort_unstable();
            assert_eq!(d, vec![(s0, 2), (s1, 1)]);
            // Sum of all deltas equals the live totals: each hit in exactly one.
            assert_eq!(c.count_slot(s0), 7);
            assert_eq!(c.count_slot(s1), 1);
        }
    }

    #[test]
    fn take_delta_rebases_after_clear() {
        for c in all_impls() {
            let s = c.resolve(p(0));
            c.add_slot(s, 10);
            assert_eq!(c.take_delta(), vec![(s, 10)]);
            c.clear();
            assert_eq!(c.take_delta(), vec![], "shrunk counts report nothing");
            c.add_slot(s, 3);
            assert_eq!(c.take_delta(), vec![(s, 3)], "baseline rebased to zero");
        }
    }

    #[test]
    fn record_hit_publishes_instead_of_counting() {
        let c = Counters::with_store(SlotStore::sampling_manual());
        let s0 = c.resolve(p(0));
        let s1 = c.resolve(p(1));
        c.record_hit(s0);
        assert_eq!(c.count_slot(s0), 0, "a hit alone tallies nothing");
        c.store().sample_now();
        c.store().sample_now();
        assert_eq!(c.count_slot(s0), 2, "each sample tallies the beacon");
        c.record_hit(s1);
        c.store().sample_now();
        assert_eq!(c.count_slot(s0), 2);
        assert_eq!(c.count_slot(s1), 1);
        let shared = c.store().sampling_shared().unwrap();
        assert_eq!(shared.stats(), (3, 3, 0));
    }

    #[test]
    fn park_stops_attribution() {
        let c = Counters::with_store(SlotStore::sampling_manual());
        let s = c.resolve(p(0));
        c.record_hit(s);
        c.store().park();
        c.store().sample_now();
        assert_eq!(c.count_slot(s), 0, "parked beacon attributes nothing");
        assert_eq!(c.store().sampling_shared().unwrap().stats(), (1, 0, 1));
    }

    #[test]
    fn dense_record_hit_counts_exactly() {
        let c = Counters::new();
        let s = c.resolve(p(0));
        c.record_hit(s);
        c.record_hit(s);
        assert_eq!(c.count_slot(s), 2);
    }

    #[test]
    fn sampling_preloaded_slot_table_skips_interning() {
        let c = Counters::new();
        let s0 = c.resolve(p(0));
        let warm = Counters::with_slot_table(c.slot_table(), SlotStore::sampling(101));
        assert_eq!(warm.resolved_slots(), 1, "slots preloaded");
        assert_eq!(warm.resolve(p(0)), s0, "same slot ids as the saver");
        assert_eq!(warm.store().impl_kind(), CounterImpl::Sampling);
        assert_eq!(warm.store().sample_hz(), Some(101));
        assert!(warm.store().has_sampler_thread());
        assert_eq!(Counters::new().store().sample_hz(), None);
    }

    #[test]
    fn dataset_max_count() {
        let d: Dataset = [(p(0), 5), (p(1), 10)].into_iter().collect();
        assert_eq!(d.max_count(), 10);
        assert_eq!(Dataset::new().max_count(), 0);
    }
}
