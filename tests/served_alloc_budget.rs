//! Allocation budget of a served `inc`, as a count that repeats.
//!
//! One `RemoteCounter` incs 20,000 times against a combining server over
//! `ShmTreeCounter::new(81)`, after 2,000 warm-up incs, and the whole
//! process — client, reactor and combiner threads alike — is counted.
//! Reading each reply in three `read`s into a fresh payload, a combining
//! round that built its sets, maps and lists anew, and a sequential shm
//! drive that posted an op cell and a work-list per op made 10.03 heap
//! allocations per served inc. With a client reply buffer, a round
//! scratch kept by the combiner and a work-list kept by the shm counter
//! it makes 0.032: what is left is the reply channel growing its list by
//! one block every 31 replies. The budget is 0.25 per inc. The count
//! depends on nothing but the code, so a regression shows here exactly,
//! not as a timing.
//!
//! This file holds one test on purpose: the counter is process-wide, and
//! a second test running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use distctr_server::{CounterServer, RemoteCounter};
use distctr_shm::ShmTreeCounter;

/// The system allocator, counting every `alloc` and `realloc`.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a statistic and publishes
// no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const WARM_UP: u64 = 2_000;
const COUNTED: u64 = 20_000;

#[test]
fn a_served_inc_stays_under_a_quarter_of_an_allocation() {
    let tree = ShmTreeCounter::new(81).expect("k = 3 arena");
    let mut server = CounterServer::serve_async_combining(tree).expect("serve");
    let mut client = RemoteCounter::connect(server.local_addr()).expect("connect");
    for i in 0..WARM_UP {
        assert_eq!(client.inc().expect("warm-up inc"), i, "values are sequential");
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in WARM_UP..WARM_UP + COUNTED {
        assert_eq!(client.inc().expect("inc"), i, "values are sequential");
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    drop(client);
    server.shutdown().expect("shutdown");
    assert!(
        allocations * 4 <= COUNTED,
        "{allocations} allocations for {COUNTED} served incs ({:.3} per inc); budget 0.25",
        allocations as f64 / COUNTED as f64
    );
    println!("{allocations} allocations / {COUNTED} served incs");
}
