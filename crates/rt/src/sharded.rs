//! A lock-striped, atomic counter registry.
//!
//! This is the concurrency substrate for *online* profile collection: many
//! threads bump counters while an aggregator periodically snapshots or
//! drains them. The registry is generic over the key type so the same
//! structure serves both implementations of the design — the proc-macro
//! runtime keys counters by point name (`String`, this crate's global
//! registry) and `pgmp-adaptive` keys them by interned source object.
//!
//! Design:
//!
//! - Keys are spread over `shards` (a power of two) by an FNV-1a hash, so
//!   unrelated profile points contend on different locks.
//! - Each shard is an `RwLock<HashMap<K, AtomicU64>>`. The hot path — a hit
//!   on an already-known point — takes the shard's **read** lock, so any
//!   number of threads can count concurrently on the same shard; the write
//!   lock is only taken the first time a point is seen.
//! - Counter updates are *saturating*: a counter that reaches `u64::MAX`
//!   stays there rather than wrapping to zero, which matters for adaptive
//!   loops left running indefinitely (see `Counters` in `pgmp-profiler` for
//!   the same policy on the single-threaded side).
//!
//! Snapshots (`snapshot`) observe each shard atomically but not the whole
//! registry; `drain` moves every counter out, guaranteeing each hit lands
//! in exactly one drain — the property epoch-based aggregation needs.

use pgmp_syntax::{FnvHashMap, FnvHasher};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

struct Shard<K> {
    map: RwLock<FnvHashMap<K, AtomicU64>>,
}

impl<K> Default for Shard<K> {
    fn default() -> Shard<K> {
        Shard {
            map: RwLock::new(HashMap::default()),
        }
    }
}

/// A sharded, thread-safe `key -> u64` counter map. See the module docs.
pub struct ShardedRegistry<K> {
    shards: Box<[Shard<K>]>,
    mask: u64,
}

impl<K: Eq + Hash> Default for ShardedRegistry<K> {
    fn default() -> ShardedRegistry<K> {
        ShardedRegistry::new()
    }
}

pub(crate) fn saturating_fetch_add(counter: &AtomicU64, n: u64) {
    // Plain fetch_add would wrap at u64::MAX; a compare-exchange loop lets
    // us saturate instead. Uncontended it costs the same one RMW.
    let mut cur = counter.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_add(n);
        match counter.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

impl<K: Eq + Hash> ShardedRegistry<K> {
    /// A registry sized for this machine: at least four shards per
    /// available core (rounded up to a power of two), so threads rarely
    /// collide on a stripe even under a skewed key distribution.
    pub fn new() -> ShardedRegistry<K> {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(8);
        ShardedRegistry::with_shards((cores * 4).next_power_of_two())
    }

    /// A registry with exactly `shards` stripes (rounded up to a power of
    /// two, minimum 1).
    pub fn with_shards(shards: usize) -> ShardedRegistry<K> {
        let n = shards.max(1).next_power_of_two();
        ShardedRegistry {
            shards: (0..n).map(|_| Shard::default()).collect(),
            mask: (n - 1) as u64,
        }
    }

    /// Number of stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_for<Q: Hash + ?Sized>(&self, key: &Q) -> &Shard<K> {
        let mut h = FnvHasher::default();
        key.hash(&mut h);
        &self.shards[(h.finish() & self.mask) as usize]
    }

    /// Adds `n` to `key`'s counter, saturating at `u64::MAX`.
    ///
    /// Borrowed-key form: a `ShardedRegistry<String>` accepts `&str`
    /// without allocating unless the key is new.
    pub fn add<Q>(&self, key: &Q, n: u64)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        let shard = self.shard_for(key);
        {
            let map = shard.map.read().expect("sharded registry poisoned");
            if let Some(counter) = map.get(key) {
                saturating_fetch_add(counter, n);
                return;
            }
        }
        let mut map = shard.map.write().expect("sharded registry poisoned");
        let counter = map.entry(key.to_owned()).or_insert_with(|| AtomicU64::new(0));
        saturating_fetch_add(counter, n);
    }

    /// Adds one to `key`'s counter.
    pub fn increment<Q>(&self, key: &Q)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        self.add(key, 1);
    }

    /// Current count for `key` (0 if never counted).
    pub fn count<Q>(&self, key: &Q) -> u64
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let map = self
            .shard_for(key)
            .map
            .read()
            .expect("sharded registry poisoned");
        map.get(key).map(|c| c.load(Ordering::Relaxed)).unwrap_or(0)
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.map.read().expect("sharded registry poisoned").len())
            .sum()
    }

    /// True iff no key has been counted.
    pub fn is_empty(&self) -> bool {
        self.shards
            .iter()
            .all(|s| s.map.read().expect("sharded registry poisoned").is_empty())
    }

    /// Removes every counter.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard
                .map
                .write()
                .expect("sharded registry poisoned")
                .clear();
        }
    }

    /// Copies out every `(key, count)` pair. Each shard is observed
    /// atomically; concurrent increments may land before or after their
    /// shard is visited.
    pub fn snapshot(&self) -> Vec<(K, u64)>
    where
        K: Clone,
    {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let map = shard.map.read().expect("sharded registry poisoned");
            out.extend(
                map.iter()
                    .map(|(k, c)| (k.clone(), c.load(Ordering::Relaxed))),
            );
        }
        out
    }

    /// Moves every counter out, leaving the registry empty. Every hit lands
    /// in exactly one drain: an increment either completes before its shard
    /// is taken (and is returned here) or lands in the fresh map (and is
    /// returned by the next drain).
    pub fn drain(&self) -> Vec<(K, u64)> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let taken =
                std::mem::take(&mut *shard.map.write().expect("sharded registry poisoned"));
            out.extend(
                taken
                    .into_iter()
                    .map(|(k, c)| (k, c.load(Ordering::Relaxed))),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn add_and_count() {
        let r: ShardedRegistry<String> = ShardedRegistry::with_shards(4);
        r.increment("a");
        r.add("a", 4);
        r.increment("b");
        assert_eq!(r.count("a"), 5);
        assert_eq!(r.count("b"), 1);
        assert_eq!(r.count("missing"), 0);
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let r: ShardedRegistry<String> = ShardedRegistry::with_shards(1);
        r.add("hot", u64::MAX - 1);
        r.add("hot", 5);
        assert_eq!(r.count("hot"), u64::MAX);
        r.increment("hot");
        assert_eq!(r.count("hot"), u64::MAX);
    }

    #[test]
    fn drain_empties_and_returns_everything() {
        let r: ShardedRegistry<String> = ShardedRegistry::with_shards(8);
        r.add("x", 3);
        r.add("y", 7);
        let mut drained = r.drain();
        drained.sort();
        assert_eq!(drained, vec![("x".to_owned(), 3), ("y".to_owned(), 7)]);
        assert!(r.is_empty());
        assert!(r.drain().is_empty());
    }

    #[test]
    fn no_lost_updates_across_threads() {
        let r: Arc<ShardedRegistry<String>> = Arc::new(ShardedRegistry::with_shards(8));
        let threads = 8;
        let per_thread = 10_000;
        let keys: Vec<String> = (0..16).map(|i| format!("point#{i}")).collect();
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let r = r.clone();
                let keys = keys.clone();
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        r.increment(keys[(t + i) % keys.len()].as_str());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total: u64 = r.snapshot().into_iter().map(|(_, c)| c).sum();
        assert_eq!(total, (threads * per_thread) as u64);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let r: ShardedRegistry<String> = ShardedRegistry::with_shards(5);
        assert_eq!(r.shard_count(), 8);
        assert!(ShardedRegistry::<String>::new().shard_count().is_power_of_two());
    }
}
