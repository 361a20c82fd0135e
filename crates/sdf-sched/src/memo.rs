//! Cross-run memoization of chain-DP results.
//!
//! The value and argmin split of every DPPO/SDPPO cell are pure
//! functions of the *content* of its subchain — the repetition counts at
//! each position plus the aggregated (TNSE, delay, edge-count) of every
//! position pair the DP's rectangle queries can see.  [`MemoStore`] keys
//! cells by a translation-invariant content hash of exactly that input
//! (built by `ChainHasher` alongside the [`crate::chain::ChainTables`]
//! prefix sums), so the same subchain reached through a *different*
//! graph, a different lexical position, or a different request hits the
//! same entry.
//!
//! The store works per schedule tree.  A run resolves the root and then
//! every tree cell from the store; on the first miss it runs the dense
//! fill and inserts the resulting tree's `n − 1` cells.  A lexical order
//! whose content the store has seen — a reverted edit, an undo, a
//! repeated request — costs no DP fill at all, and the store grows by
//! only `n − 1` entries per solved order.  Reuse of partial subchains is
//! deliberately dropped: seeding the dense fill per cell multiplied the
//! store's memory for little gain.  Entries are keyed by cost model (the
//! `DOMAIN_*` tags), so SDPPO policies that price every split alike share
//! them.
//!
//! Correctness does not depend on the store at all: a hit merely replays
//! a value the exact recurrence would recompute, and the smallest-argmin
//! split tie-break is part of the memoized answer, so memo-assisted runs
//! are bit-identical to cold runs (asserted by tests, the edit proptests
//! and the CI smoke job).
//!
//! The store is bounded (FIFO eviction) and thread-safe; the engine holds
//! it in an `Arc` that survives across `AnalysisBuilder` runs and daemon
//! requests.  Occupancy and hit/miss/insert/evict totals are kept in
//! store-local atomics (the daemon serves them even though its workers
//! install no recorder) and mirrored onto the active trace recorder as
//! `engine.incremental.memo.*` counters when one is installed.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Domain tag: DPPO (Sum-combine, always-factored crossing cost).
pub const DOMAIN_DPPO: u8 = 1;
/// Domain tag: SDPPO with the gcd-factored crossing cost, shared by
/// [`crate::FactoringPolicy::Heuristic`] and
/// [`crate::FactoringPolicy::Always`], which price every split alike.
pub const DOMAIN_SDPPO_FACTORED: u8 = 2;
/// Domain tag: SDPPO with the unfactored crossing cost
/// ([`crate::FactoringPolicy::Never`]).
pub const DOMAIN_SDPPO_UNFACTORED: u8 = 3;

/// Content-addressed identity of one chain-DP subproblem.
///
/// `h1`/`h2` are two independent 128-bit translation-invariant digests of
/// the subchain content (repetition counts and pairwise edge aggregates);
/// `len` pins the subchain length and `tag` the DP domain, so DPPO and
/// the three SDPPO factoring policies never share entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MemoKey {
    /// First digest family (position hash ∥ pair hash).
    pub h1: u128,
    /// Second, independently seeded digest family.
    pub h2: u128,
    /// Number of actors in the subchain.
    pub len: u32,
    /// DP domain (`DOMAIN_*`).
    pub tag: u8,
}

/// The memoized answer of one DP cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoEntry {
    /// The exact DP value of the subchain.
    pub value: u64,
    /// The smallest-argmin split, relative to the subchain start
    /// (`k - i`), so the entry is position-independent like its key.
    pub split_rel: u32,
}

/// A point-in-time summary of the store, for `stats`/`metrics`/`top`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Entries currently held.
    pub occupancy: u64,
    /// Configured capacity (entries).
    pub capacity: u64,
    /// Lookup hits since construction.
    pub hits: u64,
    /// Lookup misses since construction.
    pub misses: u64,
    /// Entries inserted since construction.
    pub inserts: u64,
    /// Entries evicted (FIFO) since construction.
    pub evictions: u64,
}

struct MemoInner {
    map: HashMap<MemoKey, MemoEntry>,
    /// Insertion order, for FIFO eviction.
    fifo: VecDeque<MemoKey>,
}

/// A bounded, thread-safe, content-addressed store of chain-DP cells that
/// persists across engine runs and daemon requests.
pub struct MemoStore {
    inner: Mutex<MemoInner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
}

impl MemoStore {
    /// Default capacity: 4M entries (a few hundred MB fully occupied) —
    /// comfortably the full working set of the n=2048 scale corpus.
    pub const DEFAULT_CAPACITY: usize = 1 << 22;

    /// Creates a store bounded to `capacity` entries (minimum 1).
    pub fn with_capacity(capacity: usize) -> MemoStore {
        MemoStore {
            inner: Mutex::new(MemoInner {
                map: HashMap::new(),
                fifo: VecDeque::new(),
            }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Creates a store with [`MemoStore::DEFAULT_CAPACITY`].
    pub fn new() -> MemoStore {
        MemoStore::with_capacity(MemoStore::DEFAULT_CAPACITY)
    }

    /// Looks `key` up, recording a hit or miss.
    pub fn lookup(&self, key: &MemoKey) -> Option<MemoEntry> {
        let entry = self
            .inner
            .lock()
            .expect("memo store poisoned")
            .map
            .get(key)
            .copied();
        match entry {
            Some(_) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                sdf_trace::counter_inc("engine.incremental.memo.hits");
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                sdf_trace::counter_inc("engine.incremental.memo.misses");
            }
        }
        entry
    }

    /// Inserts `key → entry`, evicting the oldest entry when full.
    /// Re-inserting an existing key is a no-op (the value is a pure
    /// function of the key, so it cannot differ).
    pub fn insert(&self, key: MemoKey, entry: MemoEntry) {
        let mut inner = self.inner.lock().expect("memo store poisoned");
        if inner.map.contains_key(&key) {
            return;
        }
        if inner.map.len() >= self.capacity {
            if let Some(oldest) = inner.fifo.pop_front() {
                inner.map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                sdf_trace::counter_inc("engine.incremental.memo.evictions");
            }
        }
        inner.map.insert(key, entry);
        inner.fifo.push_back(key);
        self.inserts.fetch_add(1, Ordering::Relaxed);
        sdf_trace::counter_inc("engine.incremental.memo.inserts");
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("memo store poisoned").map.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drops every entry (totals are preserved).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("memo store poisoned");
        inner.map.clear();
        inner.fifo.clear();
    }

    /// A point-in-time summary of occupancy and lifetime totals.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            occupancy: self.len() as u64,
            capacity: self.capacity as u64,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

impl Default for MemoStore {
    fn default() -> MemoStore {
        MemoStore::new()
    }
}

impl std::fmt::Debug for MemoStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("MemoStore")
            .field("occupancy", &stats.occupancy)
            .field("capacity", &stats.capacity)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u128) -> MemoKey {
        MemoKey {
            h1: n,
            h2: n.wrapping_mul(0x9E3779B97F4A7C15),
            len: 3,
            tag: DOMAIN_DPPO,
        }
    }

    #[test]
    fn lookup_insert_round_trip() {
        let store = MemoStore::with_capacity(8);
        assert_eq!(store.lookup(&key(1)), None);
        store.insert(
            key(1),
            MemoEntry {
                value: 42,
                split_rel: 1,
            },
        );
        assert_eq!(
            store.lookup(&key(1)),
            Some(MemoEntry {
                value: 42,
                split_rel: 1
            })
        );
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
        assert_eq!(stats.occupancy, 1);
        assert_eq!(stats.capacity, 8);
    }

    #[test]
    fn fifo_eviction_bounds_occupancy() {
        let store = MemoStore::with_capacity(4);
        for i in 0..10u128 {
            store.insert(
                key(i),
                MemoEntry {
                    value: i as u64,
                    split_rel: 0,
                },
            );
        }
        assert_eq!(store.len(), 4);
        assert_eq!(store.stats().evictions, 6);
        // The oldest keys are gone, the newest survive.
        assert_eq!(store.lookup(&key(0)), None);
        assert!(store.lookup(&key(9)).is_some());
    }

    #[test]
    fn reinsert_is_a_no_op() {
        let store = MemoStore::with_capacity(4);
        let e = MemoEntry {
            value: 7,
            split_rel: 2,
        };
        store.insert(key(5), e);
        store.insert(key(5), e);
        assert_eq!(store.stats().inserts, 1);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn tags_and_length_separate_domains() {
        let a = MemoKey {
            h1: 1,
            h2: 2,
            len: 3,
            tag: DOMAIN_DPPO,
        };
        let b = MemoKey {
            tag: DOMAIN_SDPPO_FACTORED,
            ..a
        };
        let c = MemoKey { len: 4, ..a };
        let store = MemoStore::new();
        store.insert(
            a,
            MemoEntry {
                value: 1,
                split_rel: 0,
            },
        );
        assert!(store.lookup(&b).is_none());
        assert!(store.lookup(&c).is_none());
    }

    #[test]
    fn clear_preserves_totals() {
        let store = MemoStore::with_capacity(4);
        store.insert(
            key(1),
            MemoEntry {
                value: 1,
                split_rel: 0,
            },
        );
        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.stats().inserts, 1);
        assert_eq!(store.lookup(&key(1)), None);
    }
}
