//! What the structure cache charges against what its entries take: a cache
//! filled with many tiny structures, each charged a few hundred bytes of
//! vectors, must count at least the memory it holds, allocator overhead
//! and map slots included, and stop at its entry cap.
//!
//! The global allocator here counts every live allocation at the size
//! glibc's malloc gives it, so this file holds one test: another running
//! beside it would count in the same total.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cme::{FirstPassage, PopulationBounds, StateSpace};
use crn::Crn;
use service::{StructureCache, STRUCTURE_CACHE_BYTES, STRUCTURE_CACHE_ENTRIES};

/// The chunk glibc's malloc takes for a request of `size` bytes: the
/// request and an 8-byte header, rounded up to 16 bytes, 32 at least.
fn chunk(size: usize) -> usize {
    ((size + 8 + 15) & !15).max(32)
}

/// Bytes of live chunks.
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; only the count is
// added.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(chunk(layout.size()), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(chunk(layout.size()), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn many_tiny_structures_are_charged_at_least_what_they_hold() {
    // A three-state race, solved once per key, so that every held
    // structure has its components built.
    let crn: Crn = "x -> h @ 2\nx -> t @ 1".parse().unwrap();
    let initial = crn.state_from_counts([("x", 1)]).unwrap();
    let bounds = PopulationBounds::strict(1);
    let passage = FirstPassage::new(&crn)
        .outcome_species_at_least("heads", "h", 1)
        .unwrap()
        .outcome_species_at_least("tails", "t", 1)
        .unwrap();
    let filled = STRUCTURE_CACHE_ENTRIES + STRUCTURE_CACHE_ENTRIES / 2;

    let before = LIVE.load(Ordering::Relaxed);
    let cache = StructureCache::new(STRUCTURE_CACHE_BYTES, STRUCTURE_CACHE_ENTRIES);
    for i in 0..filled {
        let (space, held): (StateSpace, bool) = cache
            .prepare(format!("race {i}"), &crn, || {
                passage.enumerate(&initial, &bounds)
            })
            .unwrap();
        assert!(!held);
        assert_eq!(space.len(), 3);
        let solved = passage.solve_space(&space).unwrap();
        assert_eq!(solved.probability("heads"), 2.0 / 3.0);
    }
    let held = LIVE.load(Ordering::Relaxed) - before;

    let stats = cache.stats();
    assert_eq!(stats.entries, STRUCTURE_CACHE_ENTRIES);
    assert_eq!(stats.evictions as usize, filled - STRUCTURE_CACHE_ENTRIES);
    assert!(
        stats.bytes >= held,
        "charged {} bytes for {held} held",
        stats.bytes
    );
    assert!(
        stats.bytes <= 2 * held,
        "charged {} bytes for {held} held",
        stats.bytes
    );
    drop(cache);
}
