//! Model-based property tests: a tree-hosted object must behave exactly
//! like its sequential model, no matter the workload, seed or delivery
//! policy — the linearization the tree provides is the sequential object
//! semantics itself.

use distctr_core::object::{PqRequest, PqResponse, PriorityQueueObject};
use distctr_core::{DistributedFlipBit, DistributedPriorityQueue, TreeClient, TreeCounter};
use distctr_sim::{Counter, DeliveryPolicy, ProcessorId, TraceMode};
use proptest::prelude::*;
use std::collections::BinaryHeap;

/// A random priority-queue op.
#[derive(Debug, Clone, Copy)]
enum PqOp {
    Insert(u64),
    ExtractMin,
}

fn pq_op() -> impl Strategy<Value = PqOp> {
    prop_oneof![(0u64..1000).prop_map(PqOp::Insert), Just(PqOp::ExtractMin),]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn distributed_pq_matches_binary_heap_model(
        ops in prop::collection::vec(pq_op(), 1..60),
        seed in any::<u64>(),
    ) {
        let mut dist = DistributedPriorityQueue::new(8).expect("pq");
        let mut model: BinaryHeap<std::cmp::Reverse<u64>> = BinaryHeap::new();
        for (i, op) in ops.iter().enumerate() {
            let initiator = ProcessorId::new(((seed as usize).wrapping_add(i * 7)) % 8);
            match op {
                PqOp::Insert(key) => {
                    let len = dist.insert(initiator, *key).expect("insert");
                    model.push(std::cmp::Reverse(*key));
                    prop_assert_eq!(len as usize, model.len());
                }
                PqOp::ExtractMin => {
                    let got = dist.extract_min(initiator).expect("extract");
                    let want = model.pop().map(|r| r.0);
                    prop_assert_eq!(got, want);
                }
            }
        }
        prop_assert_eq!(dist.len(), model.len());
    }

    #[test]
    fn distributed_flip_bit_matches_bool_model(
        flips in 1usize..80,
        seed in any::<u64>(),
    ) {
        let mut dist = DistributedFlipBit::new(8).expect("bit");
        let mut model = false;
        for i in 0..flips {
            let initiator = ProcessorId::new(((seed as usize).wrapping_add(i * 3)) % 8);
            let old = dist.test_and_flip(initiator).expect("flip");
            prop_assert_eq!(old, model);
            model = !model;
        }
        prop_assert_eq!(dist.bit(), model);
    }

    #[test]
    fn tree_client_pq_correct_under_random_delays(
        seed in any::<u64>(),
        max_delay in 1u64..10,
        keys in prop::collection::vec(0u64..100, 1..20),
    ) {
        let mut client = TreeClient::<PriorityQueueObject>::builder(8)
            .expect("builder")
            .trace(TraceMode::Off)
            .delivery(DeliveryPolicy::random_delay(seed, max_delay))
            .build()
            .expect("client");
        for (i, &key) in keys.iter().enumerate() {
            client
                .invoke(ProcessorId::new(i % 8), PqRequest::Insert(key))
                .expect("insert");
        }
        let mut drained = Vec::new();
        loop {
            match client
                .invoke(ProcessorId::new(drained.len() % 8), PqRequest::ExtractMin)
                .expect("extract")
                .value
            {
                PqResponse::Min(Some(v)) => drained.push(v),
                PqResponse::Min(None) => break,
                PqResponse::Inserted { .. } => unreachable!(),
            }
        }
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        prop_assert_eq!(drained, sorted, "heapsort over the network");
    }

    #[test]
    fn counter_and_flip_bit_parity_agree(seed in any::<u64>()) {
        // The flip bit is the counter mod 2: drive both with the same
        // initiators and compare.
        let mut counter = TreeCounter::new(27).expect("counter");
        let mut bit = DistributedFlipBit::new(27).expect("bit");
        for i in 0..40usize {
            let p = ProcessorId::new(((seed as usize).wrapping_add(i * 11)) % 27);
            let value = counter.inc(p).expect("inc").value;
            let old = bit.test_and_flip(p).expect("flip");
            prop_assert_eq!(old, value % 2 == 1);
        }
    }
}
