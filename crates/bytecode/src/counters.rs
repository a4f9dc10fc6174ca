//! Block-level profile counters.
//!
//! Like the source-level [`pgmp_profiler::Counters`], the registry is
//! slot-indexed: each registered chunk owns a contiguous range of dense
//! indexes, which the VM resolves once per activation, so block entry
//! touches one index and hashes nothing. Two backends store the counts
//! behind that one layout. The **dense** backend counts exactly in a
//! `Vec<Cell<u64>>`. The **sampling** backend only publishes a
//! current-position beacon on block entry (one relaxed store); a decoupled
//! [`pgmp_profiler::Sampler`] thread turns periodic beacon reads into
//! estimated counts (see `pgmp_profiler::sampling`).

use pgmp_profiler::{CounterImpl, Sampler, SamplingShared, DEFAULT_SAMPLE_HZ};
use pgmp_syntax::FnvHashMap;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

#[derive(Debug)]
enum Store {
    /// Exact counts, one cell per dense index.
    Dense(RefCell<Vec<Cell<u64>>>),
    Sampling {
        /// Beacon + estimated tallies, shared with the sampler.
        shared: Arc<SamplingShared>,
        /// Owns the sampler thread; `None` in manual (test) mode. Dropping
        /// the last clone of the registry stops and joins the thread.
        sampler: Option<Sampler>,
        /// Configured tick rate (0 in manual mode).
        hz: u32,
    },
}

#[derive(Debug)]
struct Inner {
    /// chunk id → (base, block count): the chunk's range of dense indexes.
    /// Read on every VM activation while profiling, so FNV-keyed.
    bases: RefCell<FnvHashMap<u32, (u32, u32)>>,
    /// Next free dense index.
    next: Cell<u32>,
    store: Store,
}

/// Execution counts per `(chunk, block)` — the block-level analogue of the
/// source-level [`pgmp_profiler::Counters`].
///
/// # Example
///
/// ```
/// use pgmp_bytecode::BlockCounters;
/// let c = BlockCounters::new();
/// c.increment(0, 2);
/// c.increment(0, 2);
/// assert_eq!(c.count(0, 2), 2);
/// ```
#[derive(Clone, Debug)]
pub struct BlockCounters {
    inner: Rc<Inner>,
}

impl Default for BlockCounters {
    fn default() -> BlockCounters {
        BlockCounters::new()
    }
}

impl BlockCounters {
    /// Creates an empty dense registry.
    pub fn new() -> BlockCounters {
        BlockCounters::with_store(Store::Dense(RefCell::new(Vec::new())))
    }

    /// Creates an empty registry with an explicit representation. A
    /// sampling registry spawns its sampler thread at
    /// [`DEFAULT_SAMPLE_HZ`]; use [`BlockCounters::with_sampling`] to pick
    /// the rate.
    pub fn with_impl(kind: CounterImpl) -> BlockCounters {
        match kind {
            CounterImpl::Dense => BlockCounters::new(),
            CounterImpl::Sampling => BlockCounters::with_sampling(DEFAULT_SAMPLE_HZ),
        }
    }

    /// Creates an empty sampling registry with a sampler thread ticking at
    /// `hz`.
    pub fn with_sampling(hz: u32) -> BlockCounters {
        BlockCounters::sampling_with(hz, true)
    }

    /// Creates a sampling registry with *no* sampler thread; tests and
    /// benchmarks drive it deterministically via
    /// [`BlockCounters::sample_now`].
    pub fn sampling_manual() -> BlockCounters {
        BlockCounters::sampling_with(0, false)
    }

    fn sampling_with(hz: u32, spawn: bool) -> BlockCounters {
        let shared = Arc::new(SamplingShared::new());
        let sampler = spawn.then(|| Sampler::spawn(shared.clone(), hz));
        BlockCounters::with_store(Store::Sampling {
            shared,
            sampler,
            hz,
        })
    }

    fn with_store(store: Store) -> BlockCounters {
        BlockCounters {
            inner: Rc::new(Inner {
                bases: RefCell::new(FnvHashMap::default()),
                next: Cell::new(0),
                store,
            }),
        }
    }

    /// The representation behind this registry.
    pub fn impl_kind(&self) -> CounterImpl {
        match &self.inner.store {
            Store::Dense(_) => CounterImpl::Dense,
            Store::Sampling { .. } => CounterImpl::Sampling,
        }
    }

    /// The configured sampler rate, when this is a sampling registry
    /// (0 in manual mode; `None` on exact registries).
    pub fn sample_hz(&self) -> Option<u32> {
        match &self.inner.store {
            Store::Sampling { hz, .. } => Some(*hz),
            Store::Dense(_) => None,
        }
    }

    /// True when a wall-clock sampler thread is attached to this registry
    /// (always false for exact registries and manually driven sampling
    /// registries).
    pub fn has_sampler_thread(&self) -> bool {
        matches!(
            &self.inner.store,
            Store::Sampling {
                sampler: Some(_),
                ..
            }
        )
    }

    /// The shared sampling state, when this is a sampling registry.
    pub fn sampling_shared(&self) -> Option<Arc<SamplingShared>> {
        match &self.inner.store {
            Store::Sampling { shared, .. } => Some(shared.clone()),
            Store::Dense(_) => None,
        }
    }

    /// Takes one sample immediately (test/benchmark hook); no-op on exact
    /// registries.
    pub fn sample_now(&self) {
        if let Store::Sampling { shared, .. } = &self.inner.store {
            shared.sample_now();
        }
    }

    /// Parks the sampling beacon so samples taken while no profiled code
    /// runs (VM run exited, blocking native) attribute nothing; no-op on
    /// exact registries.
    #[inline]
    pub fn park(&self) {
        if let Store::Sampling { shared, .. } = &self.inner.store {
            shared.park();
        }
    }

    /// Count at dense index `idx` (estimated, on a sampling registry).
    fn get(&self, idx: u32) -> u64 {
        match &self.inner.store {
            Store::Dense(counts) => counts.borrow()[idx as usize].get(),
            Store::Sampling { shared, .. } => shared.tallies().get(idx),
        }
    }

    /// Adds `n` at dense index `idx`, exactly on both backends.
    fn add(&self, idx: u32, n: u64) {
        match &self.inner.store {
            Store::Dense(counts) => {
                let counts = counts.borrow();
                let c = &counts[idx as usize];
                c.set(c.get().saturating_add(n));
            }
            Store::Sampling { shared, .. } => shared.tallies().add(idx, n),
        }
    }

    /// Moves the count at dense index `idx` out, leaving zero.
    fn take(&self, idx: u32) -> u64 {
        match &self.inner.store {
            Store::Dense(counts) => counts.borrow()[idx as usize].replace(0),
            Store::Sampling { shared, .. } => shared.tallies().take(idx),
        }
    }

    /// Registers chunk `chunk` with `blocks` basic blocks and returns the
    /// base index of its counter range; idempotent (re-registration with
    /// no more blocks returns the existing base). Registering more blocks
    /// than before moves the chunk to a fresh, larger range, carrying its
    /// counts along. The VM registers once per activation, after which
    /// each block entry is [`BlockCounters::increment_at`] — one index op,
    /// no hashing.
    pub fn register_chunk(&self, chunk: u32, blocks: u32) -> u32 {
        let old = self.inner.bases.borrow().get(&chunk).copied();
        if let Some((base, n)) = old {
            if blocks <= n {
                return base;
            }
        }
        let base = self.inner.next.get();
        self.inner.next.set(base + blocks);
        if let Store::Dense(counts) = &self.inner.store {
            counts
                .borrow_mut()
                .resize((base + blocks) as usize, Cell::new(0));
        }
        if let Some((old_base, n)) = old {
            for b in 0..n {
                let c = self.take(old_base + b);
                if c > 0 {
                    self.add(base + b, c);
                }
            }
        }
        self.inner.bases.borrow_mut().insert(chunk, (base, blocks));
        base
    }

    /// Records entry into the block at `base + block`: a saturating counter
    /// bump on a dense registry, one relaxed beacon store on a sampling
    /// registry. Only valid with a `base` returned by
    /// [`BlockCounters::register_chunk`] on this registry and `block`
    /// within the registered block count.
    ///
    /// # Panics
    ///
    /// Panics (dense only) on an out-of-range index.
    #[inline]
    pub fn increment_at(&self, base: u32, block: u32) {
        match &self.inner.store {
            Store::Dense(counts) => {
                let counts = counts.borrow();
                let c = &counts[(base + block) as usize];
                c.set(c.get().saturating_add(1));
            }
            Store::Sampling { shared, .. } => shared.publish(0, base + block),
        }
    }

    /// Records entry into block `block` of chunk `chunk` (keyed path for
    /// tests and tooling). A chunk nobody registered gets its range here.
    pub fn increment(&self, chunk: u32, block: u32) {
        let base = self.register_chunk(chunk, block + 1);
        self.increment_at(base, block);
    }

    /// Execution count of a block (0 if never executed).
    pub fn count(&self, chunk: u32, block: u32) -> u64 {
        let base = self.inner.bases.borrow().get(&chunk).copied();
        match base {
            Some((base, n)) if block < n => self.get(base + block),
            _ => 0,
        }
    }

    /// Number of blocks with a nonzero count (estimated count, on a
    /// sampling registry).
    pub fn len(&self) -> usize {
        (0..self.inner.next.get()).filter(|&i| self.get(i) > 0).count()
    }

    /// True if no blocks were counted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Zeroes every counter. Chunk registrations (and therefore
    /// activation-cached bases) stay valid.
    pub fn clear(&self) {
        match &self.inner.store {
            Store::Dense(counts) => {
                for c in counts.borrow().iter() {
                    c.set(0);
                }
            }
            Store::Sampling { shared, .. } => shared.tallies().clear(),
        }
    }

    /// Re-keys every counter of chunk `old` under chunk id `new`,
    /// registration included. Chunk ids are process-local, so block counts
    /// collected against a chunk from a *saved* session must be carried
    /// over to the id the warm-started process minted for the same chunk —
    /// `pgmp::WarmStart::chunk_map` supplies exactly these `(old, new)`
    /// pairs.
    ///
    /// If `new` already has counts of its own, the remapped counts are
    /// added to them. No-op when `old == new` or `old` was never seen.
    pub fn remap_chunk(&self, old: u32, new: u32) {
        if old == new {
            return;
        }
        let Some((base, n)) = self.inner.bases.borrow_mut().remove(&old) else {
            return;
        };
        if !self.inner.bases.borrow().contains_key(&new) {
            self.inner.bases.borrow_mut().insert(new, (base, n));
            return;
        }
        for b in 0..n {
            let c = self.take(base + b);
            if c > 0 {
                let dst = self.register_chunk(new, b + 1);
                self.add(dst + b, c);
            }
        }
    }

    /// Snapshot of all nonzero counts.
    pub fn snapshot(&self) -> HashMap<(u32, u32), u64> {
        let mut out = HashMap::new();
        for (chunk, (base, n)) in self.inner.bases.borrow().iter() {
            for b in 0..*n {
                let c = self.get(base + b);
                if c > 0 {
                    out.insert((*chunk, b), c);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let a = BlockCounters::new();
        let b = a.clone();
        b.increment(1, 2);
        assert_eq!(a.count(1, 2), 1);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn clear_resets() {
        let a = BlockCounters::new();
        a.increment(0, 0);
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.count(0, 0), 0);
    }

    #[test]
    fn registered_chunks_count_densely() {
        let c = BlockCounters::new();
        let base = c.register_chunk(7, 3);
        assert_eq!(c.register_chunk(7, 3), base, "registration is idempotent");
        c.increment_at(base, 0);
        c.increment_at(base, 2);
        c.increment_at(base, 2);
        assert_eq!(c.count(7, 0), 1);
        assert_eq!(c.count(7, 1), 0);
        assert_eq!(c.count(7, 2), 2);
        // Keyed increments to a registered chunk land in the same slots.
        c.increment(7, 0);
        assert_eq!(c.count(7, 0), 2);
    }

    #[test]
    fn registration_survives_clear() {
        let c = BlockCounters::new();
        let base = c.register_chunk(3, 2);
        c.increment_at(base, 1);
        c.clear();
        assert_eq!(c.count(3, 1), 0);
        assert_eq!(c.register_chunk(3, 2), base);
    }

    #[test]
    fn growing_a_registration_keeps_its_counts() {
        let c = BlockCounters::new();
        c.increment(0, 1); // lazily registers blocks 0..=1
        let base = c.register_chunk(0, 4);
        c.increment_at(base, 3);
        assert_eq!(c.count(0, 1), 1, "moved with the range");
        assert_eq!(c.count(0, 3), 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn remap_carries_counts_to_the_new_id() {
        let c = BlockCounters::new();
        c.register_chunk(4, 2);
        c.increment(4, 0);
        c.increment(4, 1);
        c.increment(4, 1);
        c.increment(4, 9); // beyond the registration: the range grows
        c.remap_chunk(4, 40);
        assert_eq!(c.count(4, 0), 0, "old id is empty");
        assert_eq!(c.count(40, 0), 1);
        assert_eq!(c.count(40, 1), 2);
        assert_eq!(c.count(40, 9), 1);
    }

    #[test]
    fn remap_merges_into_existing_counts() {
        let c = BlockCounters::new();
        c.register_chunk(1, 3);
        c.register_chunk(2, 2);
        c.increment(1, 0);
        c.increment(1, 2);
        c.increment(2, 0);
        c.increment(2, 1);
        c.remap_chunk(1, 2);
        assert_eq!(c.count(2, 0), 2, "counts are summed");
        assert_eq!(c.count(2, 1), 1);
        assert_eq!(c.count(2, 2), 1, "the target range grows to fit");
        assert_eq!(c.count(1, 0), 0);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn remap_of_unknown_or_identical_ids_is_a_noop() {
        let c = BlockCounters::new();
        c.increment(5, 0);
        c.remap_chunk(9, 10);
        c.remap_chunk(5, 5);
        assert_eq!(c.count(5, 0), 1);
    }

    #[test]
    fn snapshot_matches_a_keyed_model() {
        let c = BlockCounters::new();
        c.register_chunk(1, 4);
        let mut model: HashMap<(u32, u32), u64> = HashMap::new();
        for (chunk, block) in [(1, 0), (1, 3), (2, 5), (1, 0), (2, 1)] {
            c.increment(chunk, block);
            *model.entry((chunk, block)).or_insert(0) += 1;
        }
        assert_eq!(c.snapshot(), model);
    }

    #[test]
    fn sampling_registry_estimates_from_beacon_samples() {
        let c = BlockCounters::sampling_manual();
        assert_eq!(c.impl_kind(), CounterImpl::Sampling);
        assert_eq!(c.sample_hz(), Some(0));
        assert!(!c.has_sampler_thread(), "manual mode has no sampler thread");
        let base = c.register_chunk(2, 4);
        c.increment_at(base, 1);
        assert_eq!(c.count(2, 1), 0, "publishing alone tallies nothing");
        c.sample_now();
        c.sample_now();
        assert_eq!(c.count(2, 1), 2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.snapshot(), HashMap::from([((2, 1), 2)]));
        c.park();
        c.sample_now();
        assert_eq!(c.count(2, 1), 2, "parked beacon attributes nothing");
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.register_chunk(2, 4), base, "registration survives clear");
    }

    #[test]
    fn sampling_keyed_increment_lazily_registers() {
        let c = BlockCounters::sampling_manual();
        c.increment(9, 3);
        c.sample_now();
        assert_eq!(c.count(9, 3), 1);
        // Keyed entries to the now-registered chunk land in the same slots.
        c.increment(9, 3);
        c.sample_now();
        assert_eq!(c.count(9, 3), 2);
    }

    #[test]
    fn sampling_remap_moves_and_merges_estimates() {
        let c = BlockCounters::sampling_manual();
        let base = c.register_chunk(4, 2);
        c.increment_at(base, 1);
        c.sample_now();
        c.remap_chunk(4, 40);
        assert_eq!(c.count(4, 1), 0, "old id is empty");
        assert_eq!(c.count(40, 1), 1);
        // Remapping onto a chunk with counts of its own sums them.
        let other = c.register_chunk(5, 2);
        c.increment_at(other, 1);
        c.sample_now();
        c.remap_chunk(5, 40);
        assert_eq!(c.count(40, 1), 2);
    }

    #[test]
    fn sampling_with_thread_reports_rate() {
        let c = BlockCounters::with_sampling(499);
        assert_eq!(c.sample_hz(), Some(499));
        assert!(c.has_sampler_thread());
        assert!(c.sampling_shared().is_some());
    }
}
