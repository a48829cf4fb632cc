//! Allocation guard for graph construction: building the whole zoo at
//! batch 8 may make at most [`MAX_ALLOCS_PER_NODE`] heap allocations and
//! [`MAX_REALLOCS_PER_NODE`] reallocations per node. Allocation counts are
//! deterministic, so unlike a timing test this guard cannot flake; it fails
//! when construction starts copying names, shapes or per-node vectors it
//! does not keep, or building names that have to grow.
//!
//! The counting allocator sees every thread of the process, so this binary
//! holds exactly one test: no other test can allocate during the count.

use proof_models::ModelId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The figures construction reaches (10.66 and 0.22), plus ~10% headroom.
const MAX_ALLOCS_PER_NODE: f64 = 11.7;
const MAX_REALLOCS_PER_NODE: f64 = 0.25;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees pass straight to it and its results come back
// unchanged; the counters are plain statistics that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn zoo_construction_allocates_within_budget() {
    let (a0, r0) = (
        ALLOCS.load(Ordering::Relaxed),
        REALLOCS.load(Ordering::Relaxed),
    );
    let nodes: usize = ModelId::ALL.iter().map(|m| m.build(8).node_count()).sum();
    let allocs = ALLOCS.load(Ordering::Relaxed) - a0;
    let reallocs = REALLOCS.load(Ordering::Relaxed) - r0;
    let per_node = allocs as f64 / nodes as f64;
    eprintln!("{nodes} nodes: {allocs} allocations ({per_node:.2}/node), {reallocs} reallocs");
    assert!(
        per_node <= MAX_ALLOCS_PER_NODE,
        "building the zoo made {allocs} allocations for {nodes} nodes \
         ({per_node:.2}/node, budget {MAX_ALLOCS_PER_NODE})"
    );
    let reallocs_per_node = reallocs as f64 / nodes as f64;
    assert!(
        reallocs_per_node <= MAX_REALLOCS_PER_NODE,
        "building the zoo made {reallocs} reallocations for {nodes} nodes \
         ({reallocs_per_node:.2}/node, budget {MAX_REALLOCS_PER_NODE})"
    );
}
