//! Overlapping-operation semantics: centralized counters are
//! linearizable; counting networks are only quiescently consistent.
//! (Herlihy-Shavit-Waarts, *Linearizable Counting Networks* — cited by
//! the paper — formalizes exactly this distinction.)

use distctr::prelude::*;
use distctr::sim::{check_fetch_inc_history, FetchIncRecord, OverlappedCounter, SimTime};

/// The classic non-linearizable execution on a width-2 counting network:
/// a token stalls between the balancer and its exit counter; a later
/// token completes with a larger value; a third token, started after the
/// second finished, slips into the stalled token's exit slot and returns
/// the *smaller* value 0.
fn stalled_token_schedule<C: OverlappedCounter>(counter: &mut C) -> Vec<FetchIncRecord> {
    let t = SimTime::from_ticks;
    counter.start_inc(ProcessorId::new(0)).expect("T1 starts");
    counter.advance_until(t(50)).expect("T1 stalls in the network");
    counter.start_inc(ProcessorId::new(1)).expect("T2 starts");
    counter.advance_until(t(70)).expect("T2 completes");
    counter.start_inc(ProcessorId::new(2)).expect("T3 starts");
    let completed = counter.finish_all().expect("drain");
    completed.into_iter().map(|c| c.to_record()).collect()
}

#[test]
fn counting_network_violates_linearizability_under_a_stall() {
    // Script: T1's injection (send #0) takes 1 tick; its balancer->exit
    // hop (send #1) takes 100 ticks; everything else is prompt.
    let mut counter = CountingNetworkCounter::with_policy(
        4,
        2,
        TraceMode::Contacts,
        DeliveryPolicy::scripted([1, 100]),
    )
    .expect("counting network");
    let records = stalled_token_schedule(&mut counter);
    assert_eq!(records.len(), 3);

    // Quiescent consistency still holds: the values are exactly {0,1,2}.
    let verdict = check_fetch_inc_history(&records);
    assert!(verdict.gap_free(), "gap-free after quiescence: {verdict:?}");

    // But the history is not linearizable: T2 (value 1) completed before
    // T3 (value 0) started.
    let v = verdict.violations.first().unwrap_or_else(|| {
        panic!("the stalled-token schedule must violate linearizability: {records:?}")
    });
    let (earlier, later) = (records[v.floor], records[v.op]);
    assert!(earlier.value > later.value);
    assert!(earlier.completed_at < later.started_at);
}

#[test]
fn central_counter_is_linearizable_under_the_same_stall() {
    // The same adversarial delays cannot break the centralized counter:
    // the coordinator assigns values in processing order, which respects
    // real time.
    let mut counter =
        CentralCounter::with_policy(4, TraceMode::Contacts, DeliveryPolicy::scripted([1, 100]))
            .expect("central");
    let records = stalled_token_schedule(&mut counter);
    assert!(
        check_fetch_inc_history(&records).linearizable(),
        "central counter must stay linearizable: {records:?}"
    );
}

#[test]
fn central_counter_linearizable_under_random_staggered_schedules() {
    for seed in 0..20u64 {
        let mut counter = CentralCounter::with_policy(
            8,
            TraceMode::Contacts,
            DeliveryPolicy::random_delay(seed, 16),
        )
        .expect("central");
        // Stagger starts pseudo-randomly.
        let mut at = 0u64;
        for i in 0..8usize {
            at += (seed.wrapping_mul(31).wrapping_add(i as u64)) % 7;
            counter.advance_until(SimTime::from_ticks(at)).expect("advance");
            counter.start_inc(ProcessorId::new(i)).expect("start");
        }
        let records: Vec<_> =
            counter.finish_all().expect("drain").into_iter().map(|c| c.to_record()).collect();
        assert!(check_fetch_inc_history(&records).linearizable(), "seed {seed}: {records:?}");
    }
}

#[test]
fn counting_network_stays_quiescently_consistent_under_random_staggering() {
    for seed in 0..20u64 {
        let mut counter = CountingNetworkCounter::with_policy(
            8,
            4,
            TraceMode::Contacts,
            DeliveryPolicy::random_delay(seed, 16),
        )
        .expect("counting network");
        let mut at = 0u64;
        for i in 0..8usize {
            at += seed % 5;
            counter.advance_until(SimTime::from_ticks(at)).expect("advance");
            counter.start_inc(ProcessorId::new(i)).expect("start");
        }
        let completed = counter.finish_all().expect("drain");
        let mut values: Vec<u64> = completed.iter().map(|c| c.value).collect();
        values.sort_unstable();
        assert_eq!(values, (0..8).collect::<Vec<u64>>(), "seed {seed}: gap-free");
    }
}

#[test]
fn overlapped_timing_fields_are_consistent() {
    let mut counter = CentralCounter::new(4).expect("central");
    counter.start_inc(ProcessorId::new(1)).expect("start");
    counter.advance_until(SimTime::from_ticks(5)).expect("advance");
    counter.start_inc(ProcessorId::new(2)).expect("start");
    let completed = counter.finish_all().expect("drain");
    assert_eq!(completed.len(), 2);
    for c in &completed {
        assert!(c.started_at <= c.completed_at);
    }
    assert_eq!(completed[0].started_at, SimTime::ZERO);
    assert_eq!(completed[1].started_at, SimTime::from_ticks(5));
}
