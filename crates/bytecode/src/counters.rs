//! Block-level profile counters.
//!
//! Like the source-level [`pgmp_profiler::Counters`], the registry is
//! slot-indexed and keeps its counts in a [`pgmp_profiler::SlotStore`],
//! dense or sampling. Only the keying differs: each registered chunk owns
//! a contiguous range of store indexes, which the VM resolves once per
//! activation, so block entry touches one index and hashes nothing.

use pgmp_profiler::SlotStore;
use pgmp_syntax::FnvHashMap;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

#[derive(Debug)]
struct Inner {
    /// chunk id → (base, block count): the chunk's range of dense indexes.
    /// Read on every VM activation while profiling, so FNV-keyed.
    bases: RefCell<FnvHashMap<u32, (u32, u32)>>,
    /// Next free dense index.
    next: Cell<u32>,
    store: SlotStore,
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
        BlockCounters::with_store(SlotStore::default())
    }

    /// Creates an empty registry counting into `store`.
    pub fn with_store(store: SlotStore) -> BlockCounters {
        BlockCounters {
            inner: Rc::new(Inner {
                bases: RefCell::new(FnvHashMap::default()),
                next: Cell::new(0),
                store,
            }),
        }
    }

    /// The store holding this registry's counts: its kind, sampling state
    /// and beacon.
    pub fn store(&self) -> &SlotStore {
        &self.inner.store
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
        let store = &self.inner.store;
        store.grow((base + blocks) as usize);
        if let Some((old_base, n)) = old {
            for b in 0..n {
                let c = store.take(old_base + b);
                if c > 0 {
                    store.add(base + b, c);
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
        self.inner.store.hit(base + block);
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
            Some((base, n)) if block < n => self.inner.store.get(base + block),
            _ => 0,
        }
    }

    /// Number of blocks with a nonzero count (estimated count, on a
    /// sampling registry).
    pub fn len(&self) -> usize {
        (0..self.inner.next.get())
            .filter(|&i| self.inner.store.get(i) > 0)
            .count()
    }

    /// True if no blocks were counted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Zeroes every counter. Chunk registrations (and therefore
    /// activation-cached bases) stay valid.
    pub fn clear(&self) {
        self.inner.store.clear();
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
            let c = self.inner.store.take(base + b);
            if c > 0 {
                let dst = self.register_chunk(new, b + 1);
                self.inner.store.add(dst + b, c);
            }
        }
    }

    /// Snapshot of all nonzero counts.
    pub fn snapshot(&self) -> HashMap<(u32, u32), u64> {
        let mut out = HashMap::new();
        for (chunk, (base, n)) in self.inner.bases.borrow().iter() {
            for b in 0..*n {
                let c = self.inner.store.get(base + b);
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
    use pgmp_profiler::CounterImpl;

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
        let c = BlockCounters::with_store(SlotStore::sampling_manual());
        assert_eq!(c.store().impl_kind(), CounterImpl::Sampling);
        assert_eq!(c.store().sample_hz(), Some(0));
        assert!(!c.store().has_sampler_thread(), "manual mode has no sampler thread");
        let base = c.register_chunk(2, 4);
        c.increment_at(base, 1);
        assert_eq!(c.count(2, 1), 0, "publishing alone tallies nothing");
        c.store().sample_now();
        c.store().sample_now();
        assert_eq!(c.count(2, 1), 2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.snapshot(), HashMap::from([((2, 1), 2)]));
        c.store().park();
        c.store().sample_now();
        assert_eq!(c.count(2, 1), 2, "parked beacon attributes nothing");
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.register_chunk(2, 4), base, "registration survives clear");
    }

    #[test]
    fn sampling_keyed_increment_lazily_registers() {
        let c = BlockCounters::with_store(SlotStore::sampling_manual());
        c.increment(9, 3);
        c.store().sample_now();
        assert_eq!(c.count(9, 3), 1);
        // Keyed entries to the now-registered chunk land in the same slots.
        c.increment(9, 3);
        c.store().sample_now();
        assert_eq!(c.count(9, 3), 2);
    }

    #[test]
    fn sampling_remap_moves_and_merges_estimates() {
        let c = BlockCounters::with_store(SlotStore::sampling_manual());
        let base = c.register_chunk(4, 2);
        c.increment_at(base, 1);
        c.store().sample_now();
        c.remap_chunk(4, 40);
        assert_eq!(c.count(4, 1), 0, "old id is empty");
        assert_eq!(c.count(40, 1), 1);
        // Remapping onto a chunk with counts of its own sums them.
        let other = c.register_chunk(5, 2);
        c.increment_at(other, 1);
        c.store().sample_now();
        c.remap_chunk(5, 40);
        assert_eq!(c.count(40, 1), 2);
    }

    #[test]
    fn sampling_with_thread_reports_rate() {
        let c = BlockCounters::with_store(SlotStore::sampling(499));
        assert_eq!(c.store().sample_hz(), Some(499));
        assert!(c.store().has_sampler_thread());
        assert!(c.store().sampling_shared().is_some());
    }
}
