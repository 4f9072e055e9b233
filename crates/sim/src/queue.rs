//! The pending-message priority queue.
//!
//! Messages wait here between being sent and being delivered, ordered by
//! their `DeliveryRank` (arrival time, then
//! a policy-chosen tiebreak). `pop` yields the next message the network
//! should deliver.
//!
//! ## Storage layout
//!
//! Bare `(rank, slot)` entries are ordered in two parts: a *run* of
//! entries pushed in ascending rank order, and a min-heap for the rest.
//! A push whose rank is after the run's last entry appends to the run;
//! any other push goes to the heap; `pop` takes the smaller of the two
//! heads. Every policy's tiebreak derives from the global send sequence,
//! so no two ranks are equal and the split cannot change the delivery
//! order. Under unit-delay FIFO every send ranks after everything in
//! flight, so the heap stays empty and a delivery costs a deque pop
//! instead of a heap sift.
//!
//! The envelopes live in a slot arena beside both parts. Cancelling a
//! message (a crash purging its victim's inbox) *tombstones* its slot —
//! the entry stays behind and is discarded lazily when it surfaces —
//! instead of rebuilding the heap per cancellation. `settle` keeps both
//! heads live after every mutation, so `peek_rank` stays a borrow and
//! the delivery loop never observes a tombstone.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::id::{OpId, ProcessorId};
use crate::policy::DeliveryRank;

/// A message in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Sender.
    pub from: ProcessorId,
    /// Recipient.
    pub to: ProcessorId,
    /// The operation whose process this message belongs to.
    pub op: OpId,
    /// Protocol payload.
    pub msg: M,
    /// Trace node id of the *send* event, if tracing is on.
    pub(crate) sent_from_event: Option<u32>,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    rank: DeliveryRank,
    slot: u32,
}

// Min-heap semantics: reverse the natural rank order.
impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.rank == other.rank
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other.rank.cmp(&self.rank)
    }
}

/// Priority queue of in-flight messages, ordered by delivery rank.
///
/// Not exposed mutably outside the crate; the [`Network`](crate::Network)
/// is the only producer and consumer. Public so that diagnostics can
/// report queue depth.
#[derive(Debug, Clone, Default)]
pub struct EventQueue<M> {
    /// Entries in strictly ascending rank order.
    run: VecDeque<Entry>,
    /// Entries that ranked before the run's last entry when pushed.
    heap: BinaryHeap<Entry>,
    /// Slot arena: `None` marks a tombstone whose entry has not surfaced
    /// yet. A slot is recycled only after its entry is discarded, so a
    /// stale entry can never resolve to a new message.
    slots: Vec<Option<Envelope<M>>>,
    free: Vec<u32>,
    live: usize,
}

impl<M> EventQueue<M> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            run: VecDeque::new(),
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Number of messages currently in flight.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no messages are in flight (the network is quiescent).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    pub(crate) fn push(&mut self, rank: DeliveryRank, envelope: Envelope<M>) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(envelope);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("queue slots fit u32");
                self.slots.push(Some(envelope));
                slot
            }
        };
        let entry = Entry { rank, slot };
        if self.run.back().is_none_or(|last| last.rank < rank) {
            self.run.push_back(entry);
        } else {
            self.heap.push(entry);
        }
        self.live += 1;
    }

    /// Whether the next message is at the run's head rather than the
    /// heap's.
    fn run_leads(&self) -> bool {
        match (self.run.front(), self.heap.peek()) {
            (Some(run), Some(heap)) => run.rank < heap.rank,
            (run, _) => run.is_some(),
        }
    }

    pub(crate) fn pop(&mut self) -> Option<(DeliveryRank, Envelope<M>)> {
        // `settle` keeps both heads live, so one pop suffices.
        let entry = if self.run_leads() { self.run.pop_front() } else { self.heap.pop() }?;
        let envelope = self.slots[entry.slot as usize].take().expect("head entry is live");
        self.free.push(entry.slot);
        self.live -= 1;
        self.settle();
        Some((entry.rank, envelope))
    }

    /// Rank of the next message to be delivered, if any.
    pub(crate) fn peek_rank(&self) -> Option<DeliveryRank> {
        if self.run_leads() { self.run.front() } else { self.heap.peek() }.map(|e| e.rank)
    }

    /// Discards tombstoned entries at both heads so the next
    /// `peek_rank`/`pop` sees a live message (or an empty queue).
    fn settle(&mut self) {
        while let Some(head) = self.run.front() {
            if self.slots[head.slot as usize].is_some() {
                break;
            }
            self.free.push(head.slot);
            self.run.pop_front();
        }
        while let Some(head) = self.heap.peek() {
            if self.slots[head.slot as usize].is_some() {
                break;
            }
            self.free.push(head.slot);
            self.heap.pop();
        }
    }

    /// Removes every message addressed to `to`, returning them in
    /// delivery order. Used when `to` crashes: its inbox becomes dead
    /// letters. The matching envelopes are tombstoned in place — their
    /// entries are skipped lazily on pop — so a cancellation costs one
    /// scan, not a heap rebuild.
    pub(crate) fn drain_for(&mut self, to: ProcessorId) -> Vec<(DeliveryRank, Envelope<M>)> {
        let mut purged: Vec<(DeliveryRank, Envelope<M>)> = Vec::new();
        for entry in self.run.iter().chain(self.heap.iter()) {
            let slot = &mut self.slots[entry.slot as usize];
            if slot.as_ref().is_some_and(|e| e.to == to) {
                purged.push((entry.rank, slot.take().expect("matched above")));
            }
        }
        self.live -= purged.len();
        self.settle();
        purged.sort_by_key(|(rank, _)| *rank);
        purged
    }

    /// Short human-readable summaries of the next messages due, in
    /// delivery order. Used by livelock diagnostics.
    pub(crate) fn head_summaries(&self, limit: usize) -> Vec<String>
    where
        M: std::fmt::Debug,
    {
        let mut entries: Vec<(DeliveryRank, &Envelope<M>)> = self
            .run
            .iter()
            .chain(self.heap.iter())
            .filter_map(|e| self.slots[e.slot as usize].as_ref().map(|env| (e.rank, env)))
            .collect();
        entries.sort_by_key(|(rank, _)| *rank);
        entries
            .into_iter()
            .take(limit)
            .map(|(rank, e)| format!("{} {} -> {} ({}): {:?}", rank.at, e.from, e.to, e.op, e.msg))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn env(tag: u8) -> Envelope<u8> {
        Envelope {
            from: ProcessorId::new(0),
            to: ProcessorId::new(1),
            op: OpId::new(0),
            msg: tag,
            sent_from_event: None,
        }
    }

    fn rank(at: u64, tiebreak: u64) -> DeliveryRank {
        DeliveryRank { at: SimTime::from_ticks(at), tiebreak }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(rank(5, 0), env(5));
        q.push(rank(1, 0), env(1));
        q.push(rank(3, 0), env(3));
        let order: Vec<u8> = std::iter::from_fn(|| q.pop().map(|(_, e)| e.msg)).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn tiebreak_orders_equal_times() {
        let mut q = EventQueue::new();
        q.push(rank(2, 9), env(9));
        q.push(rank(2, 1), env(1));
        q.push(rank(2, 4), env(4));
        let order: Vec<u8> = std::iter::from_fn(|| q.pop().map(|(_, e)| e.msg)).collect();
        assert_eq!(order, vec![1, 4, 9]);
    }

    #[test]
    fn len_and_quiescence() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(rank(1, 0), env(0));
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_rank(), Some(rank(1, 0)));
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_rank(), None);
    }

    #[test]
    fn drain_for_splits_by_recipient() {
        let mut q = EventQueue::new();
        let mut to = |i: usize, tag: u8, at: u64| {
            let mut e = env(tag);
            e.to = ProcessorId::new(i);
            q.push(rank(at, u64::from(tag)), e);
        };
        to(1, 1, 5);
        to(2, 2, 1);
        to(1, 3, 2);
        let purged = q.drain_for(ProcessorId::new(1));
        assert_eq!(
            purged.iter().map(|(_, e)| e.msg).collect::<Vec<_>>(),
            vec![3, 1],
            "purged in delivery order"
        );
        assert_eq!(q.len(), 1, "other recipients keep their messages");
        assert_eq!(q.pop().map(|(_, e)| e.msg), Some(2));
        assert!(q.drain_for(ProcessorId::new(1)).is_empty(), "nothing left to purge");
    }

    #[test]
    fn cancellation_tombstones_skip_on_pop_without_reordering_survivors() {
        // Interleave three recipients, cancel one mid-stream, and verify
        // the survivors pop in exactly the order they would have without
        // the cancellation — the tombstoned entries are skipped, never
        // reordered, and len/peek stay consistent throughout.
        fn send(q: &mut EventQueue<u8>, i: usize, tag: u8, at: u64) {
            let mut e = env(tag);
            e.to = ProcessorId::new(i);
            q.push(rank(at, u64::from(tag)), e);
        }
        let mut q = EventQueue::new();
        send(&mut q, 1, 1, 1);
        send(&mut q, 2, 2, 2);
        send(&mut q, 1, 3, 3);
        send(&mut q, 3, 4, 4);
        send(&mut q, 1, 5, 5);
        send(&mut q, 2, 6, 6);
        assert_eq!(q.len(), 6);
        // P1's inbox dies: 1, 3 and 5 become dead letters, in delivery
        // order.
        let purged = q.drain_for(ProcessorId::new(1));
        assert_eq!(purged.iter().map(|(_, e)| e.msg).collect::<Vec<_>>(), vec![1, 3, 5]);
        assert_eq!(q.len(), 3, "live count excludes tombstones");
        // The head was a tombstone (msg 1 at t1); peek must already see
        // the next live message.
        assert_eq!(q.peek_rank(), Some(rank(2, 2)));
        let order: Vec<u8> = std::iter::from_fn(|| q.pop().map(|(_, e)| e.msg)).collect();
        assert_eq!(order, vec![2, 4, 6], "survivors deliver in unchanged order");
        assert!(q.is_empty());
        // Slots are recycled: push after heavy cancellation still works.
        send(&mut q, 2, 9, 9);
        assert_eq!(q.pop().map(|(_, e)| e.msg), Some(9));
    }

    #[test]
    fn head_summaries_are_in_delivery_order_and_bounded() {
        let mut q = EventQueue::new();
        q.push(rank(9, 0), env(9));
        q.push(rank(1, 0), env(1));
        q.push(rank(4, 0), env(4));
        let heads = q.head_summaries(2);
        assert_eq!(heads.len(), 2);
        assert!(heads[0].contains("t1") && heads[0].contains("P0 -> P1"), "{heads:?}");
        assert!(heads[1].contains("t4"), "{heads:?}");
    }

    /// Seeded random `push`/`pop`/`drain_for` sequences against a sorted
    /// `Vec`, with ranks drawn the way the network draws them: from each
    /// policy's `schedule`, at the clock of the last delivery, with one
    /// send sequence number per push.
    #[test]
    fn the_split_queue_matches_a_sorted_reference_under_every_policy() {
        use crate::policy::DeliveryPolicy;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let policies: [fn(u64) -> DeliveryPolicy; 5] = [
            |_| DeliveryPolicy::Fifo,
            |_| DeliveryPolicy::Lifo,
            |seed| DeliveryPolicy::random_delay(seed, 8),
            |seed| DeliveryPolicy::scripted((0..600).map(move |i| 1 + (i * 7 + seed) % 13)),
            |seed| DeliveryPolicy::channel_fifo(seed, 8),
        ];
        for (which, make) in policies.iter().enumerate() {
            let fifo = which == 0;
            let mut heap_used = false;
            for seed in 0..4u64 {
                let mut policy = make(seed);
                let mut rng = StdRng::seed_from_u64(seed * 5 + which as u64);
                let mut q: EventQueue<u8> = EventQueue::new();
                // (rank, tag, recipient), sorted by rank.
                let mut reference: Vec<(DeliveryRank, u8, usize)> = Vec::new();
                let (mut now, mut seq) = (SimTime::ZERO, 0u64);
                for _ in 0..1500 {
                    match rng.gen_range(0..20) {
                        0..=10 => {
                            let (from, to) = (rng.gen_range(0..4usize), rng.gen_range(0..4usize));
                            let rank = policy.schedule(now, seq, from as u32, to as u32);
                            let tag = seq as u8;
                            seq += 1;
                            let mut e = env(tag);
                            (e.from, e.to) = (ProcessorId::new(from), ProcessorId::new(to));
                            q.push(rank, e);
                            let at = reference.partition_point(|(r, _, _)| *r < rank);
                            reference.insert(at, (rank, tag, to));
                        }
                        11..=18 => {
                            let got = q.pop().map(|(rank, e)| (rank, e.msg));
                            let want = (!reference.is_empty()).then(|| reference.remove(0));
                            assert_eq!(got, want.map(|(rank, tag, _)| (rank, tag)));
                            if let Some((rank, _)) = got {
                                now = now.max_with(rank.at);
                            }
                        }
                        _ => {
                            let to = rng.gen_range(0..4usize);
                            let got: Vec<(DeliveryRank, u8)> = q
                                .drain_for(ProcessorId::new(to))
                                .into_iter()
                                .map(|(rank, e)| (rank, e.msg))
                                .collect();
                            let want: Vec<(DeliveryRank, u8)> = reference
                                .iter()
                                .filter(|e| e.2 == to)
                                .map(|&(rank, tag, _)| (rank, tag))
                                .collect();
                            reference.retain(|e| e.2 != to);
                            assert_eq!(got, want, "purged in delivery order");
                        }
                    }
                    assert_eq!(q.len(), reference.len());
                    assert_eq!(q.peek_rank(), reference.first().map(|e| e.0));
                    heap_used |= !q.heap.is_empty();
                    if fifo {
                        assert!(q.heap.is_empty(), "every FIFO send lands in the run");
                    }
                }
                for (rank, tag, _) in reference.drain(..) {
                    assert_eq!(q.pop().map(|(rank, e)| (rank, e.msg)), Some((rank, tag)));
                }
                assert!(q.is_empty());
            }
            assert_eq!(heap_used, !fifo, "policy {which}: the heap holds what the run cannot");
        }
    }

    #[test]
    fn clone_preserves_contents() {
        let mut q = EventQueue::new();
        q.push(rank(1, 1), env(1));
        q.push(rank(1, 0), env(0));
        let mut c = q.clone();
        assert_eq!(c.pop().map(|(_, e)| e.msg), Some(0));
        assert_eq!(c.pop().map(|(_, e)| e.msg), Some(1));
        assert_eq!(q.len(), 2, "original untouched");
    }
}
