//! Heap budget of the simulated fleet, in live bytes per processor.
//!
//! In the paper a processor holds the k+2 values of the nodes it works
//! for and little else. One k = 4 canonical pass (n = 1024, each
//! processor incs once) under `TraceMode::Contacts` leaves the tree with
//! 108 live heap bytes per processor: a 40-byte engine state beside the
//! one topology and configuration the fleet shares, one 8-byte load
//! counter, no transit tables, runs that hold exactly their entries and
//! a processor's only shim entry inline, the object and reply cache at
//! the root's worker only, and that cache capped at `REPLY_CACHE_CAP`
//! entries. With 64-byte engines that each carried the topology pointer
//! and the packed configuration, and a sent/received pair per load, it
//! held 140; with 96-byte engines, `Vec` runs and the root's fields in
//! every hosted slot 193; before the transit box, freed runs and the
//! cap 312. The budget is 240, set a fifth above 193. The count depends
//! on nothing but the code, so a table that grows with the op count, or
//! a buffer kept after its last entry, shows here exactly.
//!
//! This file holds one test on purpose: the counter is process-wide, and
//! a second test running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use distctr::prelude::*;

/// The system allocator, keeping the number of bytes currently
/// allocated.
struct Live;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

fn bytes(n: usize) -> i64 {
    i64::try_from(n).expect("an allocation fits i64")
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a statistic and publishes
// no other data.
unsafe impl GlobalAlloc for Live {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(bytes(layout.size()), Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(bytes(layout.size()), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(bytes(new_size) - bytes(layout.size()), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Live = Live;

#[test]
fn a_canonical_pass_leaves_at_most_240_live_heap_bytes_per_processor() {
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let mut tree = TreeCounter::builder(1024)
        .expect("n = 4^5")
        .trace(TraceMode::Contacts)
        .build()
        .expect("tree");
    let n = tree.processors();
    for i in 0..n {
        let value = tree.inc(ProcessorId::new(i)).expect("inc").value;
        assert_eq!(value, i as u64, "values are sequential");
    }
    assert_eq!(tree.loads().total_messages(), 12_154, "the k = 4 canonical pass is the same pass");
    let live = LIVE_BYTES.load(Ordering::Relaxed) - before;
    let per_processor = live as f64 / n as f64;
    assert!(
        live <= 240 * bytes(n),
        "{live} live heap bytes for {n} processors ({per_processor:.1} each); budget 240"
    );
    println!("{live} live heap bytes / {n} processors ({per_processor:.1} each)");
    drop(tree);
}
