//! Allocation budget of the simulator's delivery loop, as a count that
//! repeats.
//!
//! One k = 4 canonical pass (n = 1024, each processor incs once) under
//! `TraceMode::Contacts` moves 12,154 messages. With a fresh `Effects`
//! vector per `on_event` and tree-backed contact sets the pass made
//! 19,896 heap allocations (1.64 per message); with the engine writing
//! into the driver's buffer and flat contact sets it made 5,955 (0.49).
//! With the queue's FIFO run, contact sets built once per op and child
//! walks that do not allocate it made 3,413 (0.28), with sends
//! scheduled straight from the outbox 3,409 (0.28), and with emptied
//! tables freeing their buffers 3,487 (0.29): a processor that buffers
//! traffic or serves a node again after its tables drained allocates
//! them anew. Runs that hold exactly their entries took it to 3,498,
//! one reallocation per insert into a non-empty run; with a processor's
//! only shim entry inline it makes 3,070 (0.25), every run the same,
//! and the same again once the fleet's engines share one topology and
//! configuration: the pass allocates per message, not per processor.
//! The budget is 0.35 per message, set about a fifth above 3,487. The
//! count depends on nothing but the code, so a regression shows here
//! exactly, not as a timing.
//!
//! The second test counts a warm pass of the simulator's op loop on a
//! baseline: `CentralCounter` at n = 1024, each processor incing once
//! more after a first pass. Collecting the op and its reply into
//! fresh vectors and taking the reply buffer made that 4.00 allocations
//! per inc; injecting, running and claiming from the kept buffer makes
//! 1.00. The budget is 1.25 per inc.
//!
//! The counter is per thread and counts only while a test arms it, so
//! the harness's own threads and a test running beside another are not
//! counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use distctr::prelude::*;

thread_local! {
    /// This thread's allocations since it was armed; `None` while
    /// disarmed. Const-initialised and without a destructor, so the
    /// allocator can touch it without allocating.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

/// The system allocator, counting every `alloc` and `realloc` of an
/// armed thread.
struct Counting;

fn count_one() {
    // A thread being torn down has no counter left; it is not armed.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get().map(|n| n + 1)));
}

/// The allocations `pass` makes on this thread, and its result.
fn allocations_of<T>(pass: impl FnOnce() -> T) -> (u64, T) {
    ALLOCATIONS.with(|n| n.set(Some(0)));
    let out = pass();
    (ALLOCATIONS.with(|n| n.take()).expect("armed"), out)
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a statistic and publishes
// no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_canonical_pass_stays_under_seven_twentieths_of_an_allocation_per_message() {
    let mut tree = TreeCounter::builder(1024)
        .expect("n = 4^5")
        .trace(TraceMode::Contacts)
        .build()
        .expect("tree");
    let n = tree.processors();
    let (allocations, ()) = allocations_of(|| {
        for i in 0..n {
            let value = tree.inc(ProcessorId::new(i)).expect("inc").value;
            assert_eq!(value, i as u64, "values are sequential");
        }
    });
    let messages = tree.loads().total_messages();
    assert_eq!(messages, 12_154, "the k = 4 canonical pass is the same pass");
    assert!(
        allocations * 20 <= messages * 7,
        "{allocations} allocations for {messages} messages ({:.2} per message); budget 0.35",
        allocations as f64 / messages as f64
    );
    println!("{allocations} allocations / {messages} messages");
}

#[test]
fn a_warm_central_pass_stays_under_five_fourths_of_an_allocation_per_inc() {
    let mut central = CentralCounter::new(1024).expect("central");
    let n = central.processors();
    for i in 0..n {
        central.inc(ProcessorId::new(i)).expect("warm-up inc");
    }
    let (allocations, ()) = allocations_of(|| {
        for i in 0..n {
            let value = central.inc(ProcessorId::new(i)).expect("inc").value;
            assert_eq!(value, (n + i) as u64, "values are sequential");
        }
    });
    assert!(
        allocations * 4 <= n as u64 * 5,
        "{allocations} allocations for {n} central incs ({:.2} per inc); budget 1.25",
        allocations as f64 / n as f64
    );
    println!("{allocations} allocations / {n} central incs");
}
