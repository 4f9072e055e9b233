//! Pins the model checker's exploration: the standing sweep cells
//! (`distctr_check::sweep_cells`, the cells `checkdrive` runs) must visit
//! exactly the recorded number of transitions, quiescent leaves and
//! distinct quiescent states at 50,000 transitions per cell, and hold
//! every invariant. A change to the engine, the checker's world or the
//! shared recovery directory that alters what the search explores shows
//! up here as a count change.

use distctr_check::{sweep_cells, Budget, Checker};

#[test]
fn the_sweep_cells_explore_the_recorded_state_space() {
    let expected = [(116, 20, 2), (1_582, 72, 2), (9_048, 560, 2), (50_000, 290, 6)];
    let cells = sweep_cells();
    assert_eq!(cells.len(), expected.len());
    for ((name, cfg), want) in cells.into_iter().zip(expected) {
        let outcome =
            Checker::new(cfg).budget(Budget { max_transitions: 50_000, ..Budget::default() }).run();
        assert!(outcome.holds(), "[{name}] violation: {:?}", outcome.violation);
        let s = &outcome.stats;
        assert_eq!((s.transitions, s.quiescent_leaves, s.distinct_quiescent), want, "[{name}]");
    }
}
