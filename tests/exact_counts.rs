//! The exact message counts of the canonical pass, as counts that repeat.
//!
//! The paper's result is a message count, and every count below depends
//! on nothing but the code: the delivery order the queue produces, the
//! engine's routing and retirements, and the contact sets the trace
//! recorder builds. A change to any of them that alters a delivery or a
//! recorded contact moves one of these numbers exactly.
//!
//! One pass is `n` incs, one per processor in id order, on a fresh tree
//! under the default builder (`TraceMode::Contacts`). The k = 5 pass
//! under FIFO delivery is the one the paper's tables report
//! (`bottleneck_per_k` 17.0, `msgs_per_op` 14.512448); the two k = 4
//! passes run it under the adversarial `Lifo` tiebreak and under seeded
//! random delays, so the queue's ordering is pinned beyond FIFO too.

use distctr::prelude::*;

/// What one canonical pass produced.
#[derive(Debug, PartialEq, Eq)]
struct Counts {
    /// `max_p m_p`, sends plus receives.
    max_load: u64,
    /// Retirements over every level.
    retirements: u64,
    /// Messages over the pass.
    messages: u64,
    /// `Σ_p |I_p|` over the pass's operations.
    contacts: u64,
}

fn canonical_pass(mut tree: TreeCounter) -> Counts {
    let mut contacts = 0;
    for i in 0..tree.processors() {
        let result = tree.inc(ProcessorId::new(i)).expect("inc");
        assert_eq!(result.value, i as u64, "values are sequential");
        contacts += result.trace.expect("contacts are traced by default").contacts.len() as u64;
    }
    Counts {
        max_load: tree.loads().max_load(),
        retirements: tree.audit().retirements_by_level().iter().sum(),
        messages: tree.loads().total_messages(),
        contacts,
    }
}

#[test]
fn the_k5_canonical_pass_repeats_its_counts() {
    let tree = TreeCounter::builder(15_625).expect("n = 5^6").build().expect("tree");
    let want = Counts { max_load: 85, retirements: 9_814, messages: 226_757, contacts: 159_881 };
    assert_eq!(canonical_pass(tree), want);
}

#[test]
fn a_lifo_k4_pass_repeats_its_counts() {
    let tree = TreeCounter::builder(1024)
        .expect("n = 4^5")
        .delivery(DeliveryPolicy::Lifo)
        .build()
        .expect("tree");
    let want = Counts { max_load: 67, retirements: 604, messages: 12_088, contacts: 8_554 };
    assert_eq!(canonical_pass(tree), want);
}

#[test]
fn a_random_delay_k4_pass_repeats_its_counts() {
    let tree = TreeCounter::builder(1024)
        .expect("n = 4^5")
        .delivery(DeliveryPolicy::random_delay(0x00C0_FFEE, 8))
        .build()
        .expect("tree");
    let want = Counts { max_load: 67, retirements: 602, messages: 12_080, contacts: 8_552 };
    assert_eq!(canonical_pass(tree), want);
}
