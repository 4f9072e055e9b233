//! The paper's claims as executable integration tests: the lower bound,
//! the matching upper bound, and the separation between them.

use distctr::bound::theory;
use distctr::prelude::*;

/// The paper's tree with retirement disabled (the ablation).
fn static_tree(n: usize) -> TreeCounter {
    TreeCounter::builder(n)
        .expect("builder")
        .retirement(RetirementPolicy::Never)
        .build()
        .expect("static")
}

#[test]
fn theorem_sandwich_tree_counter_between_k_and_20k() {
    for k in 2..=4u32 {
        let n = distctr::core::kmath::leaves_of_order(k) as usize;
        let mut counter = TreeCounter::new(n).expect("tree");
        let out = SequentialDriver::run_shuffled(&mut counter, k as u64).expect("runs");
        assert!(out.values_are_sequential());
        let b = counter.loads().max_load();
        assert!(b >= u64::from(k), "lower bound: {b} >= k = {k}");
        assert!(b <= 20 * u64::from(k), "upper bound: {b} <= 20k = {}", 20 * k);
    }
}

#[test]
fn centralized_counter_is_theta_n_bottlenecked() {
    for n in [8usize, 81, 1024] {
        let mut counter = CentralCounter::new(n).expect("central");
        SequentialDriver::run_identity(&mut counter).expect("runs");
        let b = counter.loads().max_load();
        assert!(b >= 2 * n as u64, "n={n}: coordinator load {b} >= 2n");
    }
}

#[test]
fn retirement_beats_every_theta_n_baseline_at_scale() {
    // At n = 1024 (k = 4) the separation is decisive.
    let n = 1024usize;
    let tree = {
        let mut c = TreeCounter::new(n).expect("tree");
        SequentialDriver::run_shuffled(&mut c, 1).expect("runs");
        c.loads().max_load()
    };
    for (name, bottleneck) in [
        ("central", {
            let mut c = CentralCounter::new(n).expect("central");
            SequentialDriver::run_shuffled(&mut c, 1).expect("runs");
            c.loads().max_load()
        }),
        ("static-tree", {
            let mut c = static_tree(n);
            SequentialDriver::run_shuffled(&mut c, 1).expect("runs");
            c.loads().max_load()
        }),
        ("combining-tree", {
            let mut c = CombiningTreeCounter::new(n).expect("combining");
            SequentialDriver::run_shuffled(&mut c, 1).expect("runs");
            c.loads().max_load()
        }),
        ("diffracting-tree", {
            let mut c = DiffractingTreeCounter::new(n, 5).expect("diffracting");
            SequentialDriver::run_shuffled(&mut c, 1).expect("runs");
            c.loads().max_load()
        }),
    ] {
        assert!(
            10 * tree < bottleneck,
            "retirement tree ({tree}) must beat {name} ({bottleneck}) by >10x at n={n}"
        );
    }
}

#[test]
fn retirement_is_the_load_spreading_mechanism() {
    // Ablation: identical topology and routing; only retirement differs.
    let n = 1024usize;
    let with = {
        let mut c = TreeCounter::new(n).expect("tree");
        SequentialDriver::run_identity(&mut c).expect("runs");
        c.loads().max_load()
    };
    let without = {
        let mut c = static_tree(n);
        SequentialDriver::run_identity(&mut c).expect("runs");
        c.loads().max_load()
    };
    assert!(
        20 * with < without,
        "retirement cuts the bottleneck by >20x at n={n}: {with} vs {without}"
    );
}

#[test]
fn adversary_cannot_push_tree_counter_above_big_o_k() {
    // Even the proof's own adversary cannot hurt the matching upper
    // bound: the tree's bottleneck stays within its O(k) ceiling.
    let mut counter = TreeCounter::new(81).expect("tree");
    let outcome = Adversary::sampled(8, 5).run(&mut counter).expect("adversary runs");
    assert!(outcome.bottleneck.1 >= 3);
    assert!(outcome.bottleneck.1 <= 20 * 3, "O(k) under adversarial order too");
}

#[test]
fn bound_grows_like_log_over_loglog() {
    // k(n) is very slowly growing: the paper's point that even huge
    // networks only force a tiny per-processor load.
    assert_eq!(theory::lower_bound_k(8), 2);
    assert_eq!(theory::lower_bound_k(81), 3);
    assert_eq!(theory::lower_bound_k(1024), 4);
    assert_eq!(theory::lower_bound_k(15_625), 5);
    assert_eq!(theory::lower_bound_k(279_936), 6);
    // Continuous overlay agrees within 1 on exact points.
    for k in 2..=6u32 {
        let n = distctr::core::kmath::leaves_of_order(k) as f64;
        assert!((theory::lower_bound_continuous(n) - f64::from(k)).abs() < 1e-6);
    }
}

#[test]
fn counter_value_survives_root_retirements() {
    // The root retires k^k - 1 times at most; the counter value must ride
    // along in the handoff. After n ops the value is exactly n.
    let mut counter = TreeCounter::new(81).expect("tree");
    SequentialDriver::run_identity(&mut counter).expect("runs");
    assert_eq!(counter.value(), 81);
    let root_retirements = counter.audit().retirements_by_level()[0];
    assert!(root_retirements > 0, "the root did retire during the run");
}
