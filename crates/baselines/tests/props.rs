//! Property-based tests over the baseline substrates.

use distctr_baselines::{
    has_step_property, BitonicNetwork, CentralCounter, CombiningTreeCounter,
    CountingNetworkCounter, DiffractingTreeCounter, Hosting,
};
use distctr_sim::{
    ConcurrentCounter, ConcurrentDriver, Counter, DeliveryPolicy, ProcessorId, TraceMode,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bitonic_step_property_for_any_entry_multiset(
        width_exp in 1u32..5,
        entries in prop::collection::vec(0usize..64, 0..200),
    ) {
        let width = 1usize << width_exp;
        let net = BitonicNetwork::new(width);
        let entries: Vec<usize> = entries.into_iter().map(|e| e % width).collect();
        let counts = net.simulate_counts(&entries);
        prop_assert!(has_step_property(&counts), "width {width}: {counts:?}");
        prop_assert_eq!(counts.iter().sum::<u64>(), entries.len() as u64);
    }

    #[test]
    fn bitonic_sequential_tokens_exit_round_robin(
        width_exp in 1u32..5,
        m in 1usize..80,
        entry_seed in any::<u64>(),
    ) {
        // Whatever wires sequential tokens enter on, the i-th token exits
        // at rank i mod w — the counting property.
        let width = 1usize << width_exp;
        let net = BitonicNetwork::new(width);
        let mut toggles = vec![false; net.balancer_count()];
        let mut x = entry_seed;
        for i in 0..m {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let mut wire = (x >> 33) as usize % width;
            let mut next = net.entry(wire);
            while let Some(b) = next {
                let bal = net.balancer(b);
                wire = if toggles[b as usize] { bal.bottom } else { bal.top };
                toggles[b as usize] = !toggles[b as usize];
                next = net.next_on_wire(wire, b);
            }
            prop_assert_eq!(net.exit_rank(wire), i % width, "token {} of width {}", i, width);
        }
    }

    #[test]
    fn combining_tree_gap_free_for_any_batching(
        n in 2usize..40,
        batch in 1usize..40,
        seed in any::<u64>(),
    ) {
        let mut c = CombiningTreeCounter::new(n).expect("combining");
        let values = ConcurrentDriver::run_batches(&mut c, batch, seed).expect("runs");
        prop_assert!(ConcurrentDriver::values_are_gap_free(&values));
        prop_assert_eq!(values.len(), n);
    }

    #[test]
    fn diffracting_tree_exit_spread_for_any_batching(
        depth in 0u32..4,
        batch in 1usize..33,
        seed in any::<u64>(),
    ) {
        let mut c = DiffractingTreeCounter::new(32, depth).expect("diffracting");
        let values = ConcurrentDriver::run_batches(&mut c, batch, seed).expect("runs");
        prop_assert!(ConcurrentDriver::values_are_gap_free(&values));
        let counts = c.exit_counts();
        let max = counts.iter().max().copied().unwrap_or(0);
        let min = counts.iter().min().copied().unwrap_or(0);
        prop_assert!(max - min <= 1, "balanced exits: {counts:?}");
    }

    #[test]
    fn counting_network_correct_under_random_delays(
        width_exp in 1u32..4,
        seed in any::<u64>(),
        max_delay in 1u64..12,
    ) {
        let width = 1usize << width_exp;
        let mut c = CountingNetworkCounter::with_policy(
            16,
            width,
            TraceMode::Off,
            DeliveryPolicy::random_delay(seed, max_delay),
        )
        .expect("counting");
        for i in 0..16u64 {
            let r = c.inc(ProcessorId::new((i % 16) as usize)).expect("inc");
            prop_assert_eq!(r.value, i, "sequential ops count exactly");
        }
    }

    // --- step-sequential equivalence: simulated baselines vs. the
    // --- real-atomics implementations in distctr-shm. Driven one token
    // --- at a time, the hardware structures must be *indistinguishable*
    // --- from the message-model simulations they were ported from.

    #[test]
    fn atomic_bitonic_exit_counts_match_the_simulated_network(
        width_exp in 1u32..5,
        entries in prop::collection::vec(0usize..64, 0..200),
    ) {
        let width = 1usize << width_exp;
        let net = BitonicNetwork::new(width);
        let atomic = distctr_shm::AtomicBitonicCounter::new(width);
        let entries: Vec<usize> = entries.into_iter().map(|e| e % width).collect();
        for &e in &entries {
            let _ = atomic.inc_on(e);
        }
        let simulated = net.simulate_counts(&entries);
        prop_assert_eq!(
            atomic.exit_counts(),
            simulated,
            "same wiring, same entry multiset, same exit distribution"
        );
        prop_assert_eq!(atomic.issued(), entries.len() as u64);
    }

    #[test]
    fn atomic_bitonic_ith_sequential_token_counts_i(
        width_exp in 1u32..5,
        m in 1usize..80,
        entry_seed in any::<u64>(),
    ) {
        // The atomic port of the counting property the toggle-vector
        // test above pins for the simulation: whatever wires sequential
        // tokens enter on, the i-th token's *value* is i.
        let width = 1usize << width_exp;
        let atomic = distctr_shm::AtomicBitonicCounter::new(width);
        let mut x = entry_seed;
        for i in 0..m as u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let wire = (x >> 33) as usize % width;
            prop_assert_eq!(atomic.inc_on(wire), i, "token {} of width {}", i, width);
        }
    }

    #[test]
    fn atomic_combining_and_simulated_combining_agree_on_the_multiset(
        n in 2usize..=64,
        batch in 1usize..40,
        seed in any::<u64>(),
    ) {
        // Both combining counters — the message-model tree and the
        // flat-combining cell — must hand the same n callers the same
        // value multiset 0..n, whatever the batching.
        let mut sim = CombiningTreeCounter::new(n).expect("combining");
        let mut sim_values = ConcurrentDriver::run_batches(&mut sim, batch, seed).expect("runs");
        sim_values.sort_unstable();
        let atomic = distctr_shm::FlatCombiningCounter::new(n);
        let mut atomic_values: Vec<u64> = (0..n).map(|t| atomic.inc_shared(t)).collect();
        atomic_values.sort_unstable();
        prop_assert_eq!(sim_values, atomic_values);
    }

    #[test]
    fn hosting_covers_all_processors_when_enough_nodes(
        processors in 1usize..64,
        extra in 0usize..4,
    ) {
        // With logical >= processors and a coprime stride, every
        // processor hosts something.
        let logical = processors * (extra + 1);
        let h = Hosting::new(logical, processors);
        let mut hit = vec![false; processors];
        for i in 0..logical {
            hit[h.host_of(i).index()] = true;
        }
        prop_assert!(hit.iter().all(|&b| b), "stride covers all {processors} processors");
        // Balance: colocation within 1 of the mean.
        let mean = logical / processors;
        prop_assert!(h.max_colocation() <= mean + 1);
    }
}

/// Batches whose initiators repeat: a processor with two `inc`s in one
/// batch receives two replies, and which reply answers which `inc` is the
/// one decision the simulated drivers make beyond the protocols.
const REPEATED_INITIATOR_BATCHES: [&[usize]; 4] = [
    &[3, 3, 5, 3],
    &[0, 7, 0, 7, 0, 7],
    &[2, 2, 2, 2, 6, 6, 1, 2],
    &[5, 1, 4, 1, 5, 1, 4, 5, 1, 4],
];

fn repeated_initiator_values(counter: &mut dyn ConcurrentCounter) -> Vec<Vec<u64>> {
    REPEATED_INITIATOR_BATCHES
        .iter()
        .map(|batch| {
            let batch: Vec<_> = batch.iter().map(|&p| ProcessorId::new(p)).collect();
            counter.inc_batch(&batch).expect("batch")
        })
        .collect()
}

/// What the four concurrent baselines on 8 processors (counting width 4,
/// diffracting depth 2) hand [`REPEATED_INITIATOR_BATCHES`], one line per
/// policy of [`DeliveryPolicy::test_suite`] and counter.
const REPEATED_INITIATOR_VALUES: &str = "\
fifo central: [[0, 1, 2, 3], [4, 5, 6, 7, 8, 9], [10, 11, 12, 13, 14, 15, 16, 17], [18, 19, 20, 21, 22, 23, 24, 25, 26, 27]]
fifo combining-tree: [[0, 3, 2, 1], [4, 9, 8, 7, 5, 6], [10, 17, 11, 12, 15, 14, 16, 13], [18, 22, 27, 25, 20, 24, 19, 26, 23, 21]]
fifo counting-network: [[0, 1, 2, 3], [4, 5, 6, 7, 8, 9], [10, 11, 12, 13, 14, 15, 16, 17], [18, 19, 20, 21, 22, 23, 24, 25, 26, 27]]
fifo diffracting-tree: [[0, 3, 2, 1], [4, 9, 8, 7, 6, 5], [12, 15, 10, 13, 17, 16, 14, 11], [20, 21, 27, 26, 23, 25, 22, 24, 19, 18]]
random central: [[3, 0, 1, 2], [9, 7, 4, 5, 6, 8], [14, 10, 12, 13, 15, 16, 17, 11], [25, 19, 20, 24, 22, 26, 21, 23, 27, 18]]
random combining-tree: [[0, 3, 2, 1], [9, 4, 6, 8, 5, 7], [12, 17, 13, 14, 10, 11, 16, 15], [21, 22, 27, 25, 18, 23, 26, 20, 24, 19]]
random counting-network: [[3, 1, 0, 2], [8, 6, 4, 7, 9, 5], [11, 15, 14, 13, 16, 17, 10, 12], [18, 27, 19, 21, 24, 25, 20, 26, 22, 23]]
random diffracting-tree: [[0, 3, 1, 2], [7, 4, 9, 6, 5, 8], [10, 17, 14, 15, 16, 11, 12, 13], [20, 26, 25, 19, 21, 23, 24, 18, 27, 22]]
lifo central: [[3, 2, 1, 0], [9, 8, 7, 6, 5, 4], [17, 16, 15, 14, 13, 12, 11, 10], [27, 26, 25, 24, 23, 22, 21, 20, 19, 18]]
lifo combining-tree: [[1, 3, 2, 0], [5, 7, 9, 6, 4, 8], [15, 11, 10, 12, 16, 17, 14, 13], [23, 19, 26, 20, 25, 21, 22, 27, 18, 24]]
lifo counting-network: [[1, 0, 3, 2], [5, 4, 7, 6, 9, 8], [11, 10, 13, 12, 15, 14, 17, 16], [19, 18, 21, 20, 23, 22, 25, 24, 27, 26]]
lifo diffracting-tree: [[1, 2, 3, 0], [5, 4, 9, 6, 7, 8], [17, 10, 15, 16, 12, 13, 11, 14], [25, 27, 26, 24, 18, 20, 19, 21, 22, 23]]
channel-fifo central: [[0, 2, 1, 3], [4, 7, 5, 8, 6, 9], [10, 12, 13, 14, 15, 16, 11, 17], [18, 22, 19, 25, 20, 26, 23, 21, 27, 24]]
channel-fifo combining-tree: [[0, 1, 3, 2], [4, 6, 9, 8, 5, 7], [12, 16, 15, 14, 11, 10, 17, 13], [20, 18, 21, 24, 23, 19, 26, 22, 25, 27]]
channel-fifo counting-network: [[1, 2, 0, 3], [5, 4, 6, 7, 9, 8], [13, 14, 15, 17, 10, 12, 11, 16], [24, 21, 19, 20, 25, 22, 18, 27, 23, 26]]
channel-fifo diffracting-tree: [[0, 2, 1, 3], [6, 7, 4, 9, 8, 5], [13, 16, 10, 11, 14, 15, 12, 17], [18, 24, 26, 23, 20, 25, 27, 19, 22, 21]]
";

#[test]
fn repeated_initiators_receive_the_pinned_values_under_every_policy() {
    let mut lines = Vec::new();
    for policy in DeliveryPolicy::test_suite() {
        let counters: [Box<dyn ConcurrentCounter>; 4] = [
            Box::new(CentralCounter::with_policy(8, TraceMode::Off, policy.clone()).expect("c")),
            Box::new(
                CombiningTreeCounter::with_policy(8, TraceMode::Off, policy.clone()).expect("c"),
            ),
            Box::new(
                CountingNetworkCounter::with_policy(8, 4, TraceMode::Off, policy.clone())
                    .expect("c"),
            ),
            Box::new(
                DiffractingTreeCounter::with_policy(8, 2, TraceMode::Off, policy.clone())
                    .expect("c"),
            ),
        ];
        for mut c in counters {
            let values = repeated_initiator_values(c.as_mut());
            lines.push(format!("{} {}: {values:?}\n", policy.name(), c.name()));
        }
    }
    assert_eq!(lines.concat(), REPEATED_INITIATOR_VALUES);
}
