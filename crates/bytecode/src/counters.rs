//! Block-level profile counters.
//!
//! Like the source-level [`pgmp_profiler::Counters`], the registry is
//! slot-indexed and keeps its counts in a [`pgmp_profiler::SlotStore`],
//! dense or sampling. Only the keying differs: each registered chunk owns
//! a contiguous range of store indexes, which the VM resolves once per
//! activation, so block entry touches one index and hashes nothing.

use crate::chunk::Chunk;
use pgmp_profiler::{ProfileMode, SlotStore};
use pgmp_syntax::{FnvHashMap, SourceObject};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
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
        self.register(chunk, blocks).0
    }

    /// [`BlockCounters::register_chunk`], also telling whether `chunk` was
    /// not registered before.
    #[inline]
    pub(crate) fn register(&self, chunk: u32, blocks: u32) -> (u32, bool) {
        let old = self.inner.bases.borrow().get(&chunk).copied();
        match old {
            Some((base, n)) if blocks <= n => (base, false),
            _ => self.register_range(chunk, blocks, old),
        }
    }

    /// Gives chunk `chunk` a fresh range of `blocks` counters, moving the
    /// counts of its `old` registration, if any.
    fn register_range(&self, chunk: u32, blocks: u32, old: Option<(u32, u32)>) -> (u32, bool) {
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
        (base, old.is_none())
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

    /// Number of registered chunks.
    pub fn chunk_count(&self) -> usize {
        self.inner.bases.borrow().len()
    }

    /// Drops the registrations of every chunk not in `live`, and packs the
    /// ranges of the rest, with their counts, from index 0, so the store
    /// shrinks to what live code can count. This moves ranges, so it is
    /// for between runs: bases that an activation resolved earlier are no
    /// longer valid.
    pub fn retain_chunks(&self, live: impl IntoIterator<Item = u32>) {
        let live: HashSet<u32> = live.into_iter().collect();
        let mut bases = self.inner.bases.borrow_mut();
        bases.retain(|chunk, _| live.contains(chunk));
        let mut ranges: Vec<(u32, u32, u32)> =
            bases.iter().map(|(&c, &(base, n))| (c, base, n)).collect();
        ranges.sort_unstable();
        let store = &self.inner.store;
        let counts: Vec<u64> = ranges
            .iter()
            .flat_map(|&(_, base, n)| (base..base + n).map(|i| store.get(i)))
            .collect();
        let mut next = 0;
        for (chunk, _, n) in ranges {
            bases.insert(chunk, (next, n));
            next += n;
        }
        bases.shrink_to_fit();
        self.inner.next.set(next);
        store.reset(next as usize);
        for (i, c) in (0..next).zip(counts) {
            if c > 0 {
                store.add(i, c);
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

/// Derives the source-level counts of a run from its block counts,
/// handing each to `count` as `(point, n)`.
///
/// The language has no `call/cc` and no error handlers, so on a run that
/// completes every profile point whose evaluation starts in block B was
/// evaluated exactly count(B) times. Folding each executed block's
/// points ([`Chunk::block_points`]) over `chunks` — the run's top-level
/// chunks plus [`Vm::compiled_chunks`](crate::Vm) — therefore yields the
/// every-expression counts the tree walker's per-expression counters
/// would have collected, or, under [`ProfileMode::CallsOnly`], the
/// calls-only ones; [`ProfileMode::Off`] yields nothing. The fold is one
/// pass over the blocks of `chunks`, in their order, so adding the counts
/// to a `pgmp_profiler::Counters` assigns new slots in the same order in
/// every process. A point compiled into several chunks is handed over
/// once per chunk. `count` must not touch `counters`.
///
/// After a run that failed, the points after the failure in the failing
/// block, and in every block suspended at a call below it, are counted as
/// if they had run.
///
/// # Example
///
/// ```
/// use pgmp_bytecode::{compile_chunk, derive_counts, BlockCounters, Vm};
/// use pgmp_eval::{install_primitives, Interp};
/// use pgmp_expander::Expander;
/// use pgmp_profiler::{Dataset, ProfileMode};
/// use pgmp_reader::read_str;
///
/// let forms = read_str("(define (f) 1) (f) (f)", "d.scm").unwrap();
/// let chunks: Vec<_> = Expander::new()
///     .expand_program(&forms)
///     .unwrap()
///     .iter()
///     .map(compile_chunk)
///     .collect();
/// let mut interp = Interp::new();
/// install_primitives(&mut interp);
/// let blocks = BlockCounters::new();
/// let mut vm = Vm::new();
/// vm.set_block_profiling(blocks.clone());
/// for chunk in &chunks {
///     vm.run_chunk(&mut interp, chunk).unwrap();
/// }
/// let lambdas = vm.compiled_chunks();
/// let mut calls = Dataset::new();
/// let all = chunks.iter().chain(&lambdas);
/// derive_counts(all, &blocks, ProfileMode::CallsOnly, |point, n| calls.record(point, n));
/// assert_eq!(calls.len(), 2);
/// assert!(calls.iter().all(|(_, n)| n == 1), "each call site ran once");
/// ```
pub fn derive_counts<'a>(
    chunks: impl IntoIterator<Item = &'a Chunk>,
    counters: &BlockCounters,
    mode: ProfileMode,
    mut count: impl FnMut(SourceObject, u64),
) {
    if !mode.is_on() {
        return;
    }
    let bases = counters.inner.bases.borrow();
    let store = &counters.inner.store;
    for chunk in chunks {
        let Some(&(base, n)) = bases.get(&chunk.id) else {
            continue;
        };
        for b in 0..n.min(chunk.block_count() as u32) {
            let hits = store.get(base + b);
            if hits == 0 {
                continue;
            }
            for point in chunk.block_points(b, mode == ProfileMode::CallsOnly) {
                count(*point, hits);
            }
        }
    }
}

/// Block counters that can turn what a VM run has counted so far into
/// source-level counts at any moment of the run, not only after it.
///
/// Holds the registry the VM counts into plus every chunk whose blocks it
/// counts: the caller's top-level chunks ([`DerivedCounts::track`]) and,
/// once handed to [`Vm::set_derived_counts`](crate::Vm::set_derived_counts),
/// each lambda chunk the VM counts, tracked the first time it does.
/// Clones share both. Tracking relies on block indexes staying put, so
/// code counted into one must not be re-laid-out
/// ([`relayout`](crate::Vm::relayout)) while it is tracked.
#[derive(Clone, Debug, Default)]
pub struct DerivedCounts {
    blocks: BlockCounters,
    chunks: Rc<RefCell<Vec<Chunk>>>,
}

impl DerivedCounts {
    /// An empty dense registry tracking no chunk.
    pub fn new() -> DerivedCounts {
        DerivedCounts::default()
    }

    /// The registry the VM counts block entries into.
    pub(crate) fn blocks(&self) -> &BlockCounters {
        &self.blocks
    }

    /// Adds `chunk` to the chunks whose block counts are derived.
    pub fn track(&self, chunk: Chunk) {
        self.chunks.borrow_mut().push(chunk);
    }

    /// Hands the counts derived ([`derive_counts`]) from every tracked
    /// chunk's block counts to `count`, then zeroes the block counts, so
    /// the next drain hands over only what ran in between. Draining in
    /// the middle of a run counts the rest of each block already entered
    /// (the running one and those suspended at a call) as if it had run;
    /// those points are not counted again when they do.
    pub fn drain(&self, mode: ProfileMode, count: impl FnMut(SourceObject, u64)) {
        derive_counts(self.chunks.borrow().iter(), &self.blocks, mode, count);
        self.blocks.clear();
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
    fn retain_chunks_drops_dead_ranges_and_packs_the_rest() {
        let c = BlockCounters::new();
        c.register_chunk(1, 3);
        c.register_chunk(2, 5);
        c.register_chunk(3, 2);
        c.increment(1, 2);
        c.increment(2, 4);
        c.increment(3, 1);
        c.increment(3, 1);
        c.retain_chunks([3, 1, 9]);
        assert_eq!(c.chunk_count(), 2);
        assert_eq!(c.register_chunk(1, 3), 0, "live ranges packed in id order");
        assert_eq!(c.register_chunk(3, 2), 3);
        assert_eq!(c.snapshot(), HashMap::from([((1, 2), 1), ((3, 1), 2)]));
        // The dropped chunk starts over after the live ranges.
        assert_eq!(c.register_chunk(2, 5), 5);
        assert_eq!(c.count(2, 4), 0);
        c.increment(2, 4);
        assert_eq!(c.count(2, 4), 1);
        assert_eq!(c.len(), 3);
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
        assert!(
            !c.store().has_sampler_thread(),
            "manual mode has no sampler thread"
        );
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
    fn sampling_with_thread_reports_rate() {
        let c = BlockCounters::with_store(SlotStore::sampling(499));
        assert_eq!(c.store().sample_hz(), Some(499));
        assert!(c.store().has_sampler_thread());
        assert!(c.store().sampling_shared().is_some());
    }
}
