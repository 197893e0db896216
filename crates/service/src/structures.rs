//! The structure cache: enumerated state spaces kept for re-weighting.
//!
//! Rate constants never change which states a network reaches, only how
//! fast it moves between them (see [`cme::StateSpace::reweight`]). So an
//! `/exact` or `/check` solve whose network differs from an earlier one
//! only in its rates — a robustness sweep over one rate, perfbench's
//! Example 1 entries at jittered γ — can skip enumeration: the daemon keeps
//! each enumerated space's rate-free structure under a key holding
//! everything enumeration reads and nothing else, and weighs a held one
//! with the request's rates. Weighing reproduces the enumerated space bit
//! for bit, so bodies do not depend on what the cache held.
//!
//! Eviction is least-recently-used under a fixed byte budget and a fixed
//! entry count. The cache holds structures only, not weights: a miss keeps
//! the enumerated space's structure by reference count and a hit weighs it
//! afresh. Spaces are enumerated and weighed outside the lock; two requests
//! missing the same key at once both enumerate, and the first to finish is
//! kept.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use cme::{CmeError, SpaceStructure, StateSpace};
use crn::Crn;

use crate::api::Spaces;

/// The structure cache's fixed byte budget. A structure larger than this
/// is solved but not kept.
pub const STRUCTURE_CACHE_BYTES: usize = 64 << 20;

/// The most structures the cache holds, however small they are. This
/// bounds the least-recently-used scan an insertion makes under the lock.
pub const STRUCTURE_CACHE_ENTRIES: usize = 1024;

/// A held structure, what it is charged, and the logical clock of its last
/// use.
struct Entry {
    structure: SpaceStructure,
    bytes: usize,
    last_used: u64,
}

/// What an entry is charged besides its structure's
/// [`heap_bytes`](SpaceStructure::heap_bytes) and its key's capacity: the
/// key's allocation slack, as `heap_bytes` charges its own, and three map
/// slots with their control bytes. The map keeps at most 7/8 of its slots
/// full and grows by doubling, so as it fills it has at most 16/7 slots
/// per entry. It does not shrink when entries are evicted, but the entry
/// cap holds it to 2,048 slots, about 100 KiB.
const ENTRY_OVERHEAD: usize = 32 + 3 * (std::mem::size_of::<(String, Entry)>() + 1);

#[derive(Default)]
struct Held {
    entries: HashMap<String, Entry>,
    clock: u64,
    bytes: usize,
    evictions: u64,
}

/// A snapshot of the structure-cache counters for `GET /metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StructureStats {
    /// Structures held.
    pub entries: usize,
    /// Bytes the held structures are charged: each one's
    /// [`heap_bytes`](SpaceStructure::heap_bytes), its key and its map
    /// slots.
    pub bytes: usize,
    /// Solves that weighed a held structure.
    pub hits: u64,
    /// Solves that enumerated their space.
    pub misses: u64,
    /// Structures dropped to make room.
    pub evictions: u64,
}

/// An LRU cache from structure keys to enumerated structures, bounded in
/// bytes and in entries.
pub struct StructureCache {
    held: Mutex<Held>,
    budget: usize,
    max_entries: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for StructureCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "StructureCache({:?})", self.stats())
    }
}

impl StructureCache {
    /// Creates an empty cache holding at most `budget` bytes in at most
    /// `max_entries` structures.
    pub fn new(budget: usize, max_entries: usize) -> StructureCache {
        StructureCache {
            held: Mutex::new(Held::default()),
            budget,
            max_entries,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The current counters.
    pub fn stats(&self) -> StructureStats {
        let held = self.held.lock().expect("structure cache lock");
        StructureStats {
            entries: held.entries.len(),
            bytes: held.bytes,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: held.evictions,
        }
    }

    /// The space `enumerate` builds for `crn`, and whether it came from the
    /// cache: a held structure under `key` weighed with `crn`'s rates, or
    /// else the enumerated space, whose structure is then kept if it fits
    /// the budget.
    ///
    /// `key` must name everything `enumerate` reads but the rates, so any
    /// two spaces under one key differ only in their weights.
    ///
    /// # Errors
    ///
    /// Propagates `enumerate`'s error; nothing is kept then.
    pub fn prepare(
        &self,
        key: String,
        crn: &Crn,
        enumerate: impl FnOnce() -> Result<StateSpace, CmeError>,
    ) -> Result<(StateSpace, bool), CmeError> {
        let held = {
            let mut held = self.held.lock().expect("structure cache lock");
            held.clock += 1;
            let clock = held.clock;
            held.entries.get_mut(&key).map(|entry| {
                entry.last_used = clock;
                entry.structure.clone()
            })
        };
        // The key holds the stoichiometry, so weighing cannot refuse; if it
        // did, enumerating afresh is still the right answer.
        if let Some(space) = held.and_then(|structure| structure.weigh(crn).ok()) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((space, true));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let space = enumerate()?;
        let structure = space.structure();
        let bytes = structure.heap_bytes() + key.capacity() + ENTRY_OVERHEAD;
        if bytes <= self.budget && self.max_entries > 0 {
            self.keep(key, structure, bytes);
        }
        Ok((space, false))
    }

    /// Holds `structure` under `key`, evicting the least recently used
    /// structures until it fits. A structure another solve already put
    /// there stays.
    fn keep(&self, key: String, structure: SpaceStructure, bytes: usize) {
        let mut held = self.held.lock().expect("structure cache lock");
        if held.entries.contains_key(&key) {
            return;
        }
        while held.bytes + bytes > self.budget || held.entries.len() >= self.max_entries {
            let Some(oldest) = held
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(key, _)| key.clone())
            else {
                break;
            };
            let evicted = held.entries.remove(&oldest).expect("oldest entry is held");
            held.bytes -= evicted.bytes;
            held.evictions += 1;
        }
        held.clock += 1;
        let last_used = held.clock;
        held.bytes += bytes;
        held.entries.insert(
            key,
            Entry {
                structure,
                bytes,
                last_used,
            },
        );
    }
}

/// The cache as the space provider of one unit of work: it records on the
/// unit's span whether the structure was held (`structure=hit|miss`), how
/// many states the space has and, for a transient, the series terms and
/// the uniformization rate its solve used.
pub(crate) struct UnitSpaces<'a> {
    pub(crate) cache: &'a StructureCache,
    pub(crate) attrs: &'a mut Vec<(&'static str, String)>,
}

impl Spaces for UnitSpaces<'_> {
    fn space(
        &mut self,
        key: impl FnOnce() -> String,
        crn: &Crn,
        enumerate: impl FnOnce() -> Result<StateSpace, CmeError>,
    ) -> Result<StateSpace, CmeError> {
        let prepared = self.cache.prepare(key(), crn, enumerate);
        let held = matches!(prepared, Ok((_, true)));
        let structure = if held { "hit" } else { "miss" };
        self.attrs.push(("structure", structure.to_string()));
        let (space, _) = prepared?;
        self.attrs.push(("states", space.len().to_string()));
        Ok(space)
    }

    fn solved(&mut self, terms: usize, rate: f64) {
        self.attrs.push(("terms", terms.to_string()));
        self.attrs.push(("rate", rate.to_string()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme::PopulationBounds;

    fn space(text: &str, cap: u64) -> (Crn, impl Fn() -> Result<StateSpace, CmeError>) {
        let crn: Crn = text.parse().unwrap();
        let initial = crn.state_from_counts([("a", cap)]).unwrap();
        let enumerate_crn = crn.clone();
        let enumerate =
            move || StateSpace::enumerate(&enumerate_crn, &initial, &PopulationBounds::strict(cap));
        (crn, enumerate)
    }

    fn cache() -> StructureCache {
        StructureCache::new(STRUCTURE_CACHE_BYTES, STRUCTURE_CACHE_ENTRIES)
    }

    #[test]
    fn a_held_structure_is_reweighted_to_the_request() {
        let cache = cache();
        let (slow, enumerate) = space("a -> b @ 1\nb -> a @ 2", 5);
        let (first, hit) = cache.prepare("iso".into(), &slow, &enumerate).unwrap();
        assert!(!hit);
        let fast: Crn = "a -> b @ 10\nb -> a @ 20".parse().unwrap();
        let (second, hit) = cache
            .prepare("iso".into(), &fast, || panic!("the structure is held"))
            .unwrap();
        assert!(hit);
        assert_eq!(second.len(), first.len());
        assert_eq!(second.total_outflow(0), 10.0 * first.total_outflow(0));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.hits, stats.misses), (1, 1, 1));
        assert!(stats.bytes >= first.structure().heap_bytes() + ENTRY_OVERHEAD);
    }

    #[test]
    fn failed_enumerations_are_not_kept() {
        let cache = cache();
        let crn: Crn = "0 -> a @ 1".parse().unwrap();
        let enumerate =
            || StateSpace::enumerate(&crn, &crn.zero_state(), &PopulationBounds::strict(3));
        for _ in 0..2 {
            let err = cache.prepare("birth".into(), &crn, enumerate).unwrap_err();
            assert!(matches!(err, CmeError::BoundExceeded { .. }));
        }
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn the_byte_budget_evicts_the_least_recently_used() {
        let (crn, enumerate) = space("a -> b @ 1\nb -> a @ 2", 40);
        let one = enumerate().unwrap().structure().heap_bytes() + "k0".len() + ENTRY_OVERHEAD;
        // Room for two such structures, not three.
        let cache = StructureCache::new(2 * one + one / 2, STRUCTURE_CACHE_ENTRIES);
        for key in ["k0", "k1"] {
            cache.prepare(key.into(), &crn, &enumerate).unwrap();
        }
        // Touch k0, so k1 is the least recently used when k2 arrives.
        assert!(cache.prepare("k0".into(), &crn, &enumerate).unwrap().1);
        cache.prepare("k2".into(), &crn, &enumerate).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (2, 1));
        assert!(stats.bytes <= 2 * one + one / 2);
        assert!(cache.prepare("k0".into(), &crn, &enumerate).unwrap().1);
        assert!(!cache.prepare("k1".into(), &crn, &enumerate).unwrap().1);
        // A space above the whole budget is solved but never kept.
        let tiny = StructureCache::new(16, STRUCTURE_CACHE_ENTRIES);
        assert!(!tiny.prepare("k".into(), &crn, &enumerate).unwrap().1);
        assert_eq!(tiny.stats().entries, 0);
    }

    #[test]
    fn the_entry_cap_evicts_the_least_recently_used() {
        let (crn, enumerate) = space("a -> b @ 1\nb -> a @ 2", 3);
        let cache = StructureCache::new(STRUCTURE_CACHE_BYTES, 2);
        for key in ["k0", "k1", "k0", "k2"] {
            cache.prepare(key.into(), &crn, &enumerate).unwrap();
        }
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (2, 1));
        assert!(cache.prepare("k0".into(), &crn, &enumerate).unwrap().1);
        assert!(!cache.prepare("k1".into(), &crn, &enumerate).unwrap().1);
        // A cache of no entries keeps nothing.
        let none = StructureCache::new(STRUCTURE_CACHE_BYTES, 0);
        for _ in 0..2 {
            assert!(!none.prepare("k".into(), &crn, &enumerate).unwrap().1);
        }
        assert_eq!(none.stats().entries, 0);
    }
}
