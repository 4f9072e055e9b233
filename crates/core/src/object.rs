//! Sequentially-dependent objects hosted at the tree root.
//!
//! The paper's Hot Spot Lemma — and with it the whole lower bound —
//! applies to "the family of all distributed data structures in which an
//! operation depends on the operation that immediately precedes it.
//! Examples are a bit that can be accessed and flipped, and a priority
//! queue." The tree construction generalizes the same way: any object
//! whose operations are read-modify-write against a single logical state
//! can ride the retirement tree and inherit the O(k) bottleneck.
//!
//! [`RootObject`] abstracts that state: requests climb the tree exactly
//! like `inc` messages, the root applies them in arrival order, and
//! responses return directly to the initiator. [`CounterObject`] is the
//! paper's counter; [`FlipBitObject`] and [`PriorityQueueObject`] are the
//! paper's two other examples.

use std::collections::BinaryHeap;
use std::fmt;

/// A sequential object living at the root of the communication tree.
///
/// `apply` must be deterministic: together with the network's ordering it
/// defines the object's linearization. [`Default`] is the object's initial
/// state, the one every tree client starts from.
pub trait RootObject: Clone + Default + fmt::Debug {
    /// Operation request, carried up the tree.
    type Request: Clone + fmt::Debug;
    /// Operation response, sent straight back to the initiator.
    type Response: Clone + fmt::Debug;

    /// Applies one operation and produces its response.
    fn apply(&mut self, req: Self::Request) -> Self::Response;

    /// Applies `count` copies of `req` as one atomic step and produces
    /// the response of the *first* copy.
    ///
    /// The root applies every traversal
    /// ([`Msg::Apply`](crate::messages::Msg::Apply)) through this hook, a
    /// unit operation as a count of 1, so `apply_batch(req, 1)` must equal
    /// `apply(req)`. Objects whose responses form a range under
    /// repetition — the counter returns its pre-batch value, so the batch
    /// owns `[v, v + count)` — override this with an O(1) step. The
    /// default replays `apply` `count` times, which is always
    /// semantically correct.
    fn apply_batch(&mut self, req: Self::Request, count: u64) -> Self::Response {
        let first = self.apply(req.clone());
        for _ in 1..count {
            self.apply(req.clone());
        }
        first
    }
}

/// The paper's counter: `inc` returns the pre-increment value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterObject {
    value: u64,
}

impl CounterObject {
    /// A counter starting at zero.
    #[must_use]
    pub fn new() -> Self {
        CounterObject::default()
    }

    /// The current value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.value
    }
}

impl RootObject for CounterObject {
    type Request = ();
    type Response = u64;

    fn apply(&mut self, (): ()) -> u64 {
        let old = self.value;
        self.value += 1;
        old
    }

    /// One addition regardless of `count`; the batch owns `[old, old + count)`.
    fn apply_batch(&mut self, (): (), count: u64) -> u64 {
        let old = self.value;
        self.value += count;
        old
    }
}

/// The paper's "bit that can be accessed and flipped":
/// test-and-flip returns the old bit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlipBitObject {
    bit: bool,
}

impl FlipBitObject {
    /// A bit starting at `false`.
    #[must_use]
    pub fn new() -> Self {
        FlipBitObject::default()
    }

    /// The current bit.
    #[must_use]
    pub fn bit(&self) -> bool {
        self.bit
    }
}

impl RootObject for FlipBitObject {
    type Request = ();
    type Response = bool;

    fn apply(&mut self, (): ()) -> bool {
        let old = self.bit;
        self.bit = !self.bit;
        old
    }
}

/// A fetch-max register: `fetch_max(x)` returns the old maximum and
/// raises the register to `max(old, x)` — another member of the paper's
/// sequentially-dependent family, included as the simplest nontrivial
/// custom [`RootObject`] (see the tutorial in `docs/TUTORIAL.md`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MaxRegisterObject {
    max: u64,
}

impl MaxRegisterObject {
    /// A register starting at zero.
    #[must_use]
    pub fn new() -> Self {
        MaxRegisterObject::default()
    }

    /// The current maximum.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }
}

impl RootObject for MaxRegisterObject {
    type Request = u64;
    type Response = u64;

    fn apply(&mut self, x: u64) -> u64 {
        let old = self.max;
        self.max = self.max.max(x);
        old
    }
}

/// Requests of the distributed priority queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PqRequest {
    /// Insert a key.
    Insert(u64),
    /// Remove and return the smallest key.
    ExtractMin,
}

/// Responses of the distributed priority queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PqResponse {
    /// The insert completed; reports the queue length after it.
    Inserted {
        /// Number of keys now in the queue.
        len: u64,
    },
    /// The extracted minimum (None if the queue was empty).
    Min(Option<u64>),
}

/// The paper's priority-queue example: a min-priority-queue whose state
/// lives at the (migrating) root.
///
/// Note on message sizes: unlike the counter, the queue's state is not
/// O(log n) bits, so a root retirement's handoff conceptually carries the
/// heap. The *lower bound* still applies verbatim (operations are
/// sequentially dependent); only the upper bound's message-length remark
/// specializes to small-state objects.
#[derive(Debug, Clone, Default)]
pub struct PriorityQueueObject {
    heap: BinaryHeap<std::cmp::Reverse<u64>>,
}

impl PriorityQueueObject {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        PriorityQueueObject::default()
    }

    /// Number of keys currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The smallest key without removing it.
    #[must_use]
    pub fn peek_min(&self) -> Option<u64> {
        self.heap.peek().map(|r| r.0)
    }
}

impl RootObject for PriorityQueueObject {
    type Request = PqRequest;
    type Response = PqResponse;

    fn apply(&mut self, req: PqRequest) -> PqResponse {
        match req {
            PqRequest::Insert(key) => {
                self.heap.push(std::cmp::Reverse(key));
                PqResponse::Inserted { len: self.heap.len() as u64 }
            }
            PqRequest::ExtractMin => PqResponse::Min(self.heap.pop().map(|r| r.0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_object_counts() {
        let mut c = CounterObject::new();
        assert_eq!(c.apply(()), 0);
        assert_eq!(c.apply(()), 1);
        assert_eq!(c.value(), 2);
    }

    #[test]
    fn counter_batch_reserves_a_contiguous_range() {
        let mut c = CounterObject::new();
        assert_eq!(c.apply(()), 0);
        assert_eq!(c.apply_batch((), 5), 1, "batch starts at the pre-batch value");
        assert_eq!(c.apply(()), 6, "the batch consumed [1, 6)");
        assert_eq!(c.value(), 7);
    }

    #[test]
    fn default_batch_replays_apply_and_returns_the_first_response() {
        let mut b = FlipBitObject::new();
        assert!(!b.apply_batch((), 3), "first flip saw false");
        assert!(b.bit(), "three flips applied");
        let mut q = PriorityQueueObject::new();
        q.apply(PqRequest::Insert(7));
        assert_eq!(q.apply_batch(PqRequest::ExtractMin, 2), PqResponse::Min(Some(7)));
        assert!(q.is_empty());
    }

    #[test]
    fn flip_bit_alternates() {
        let mut b = FlipBitObject::new();
        assert!(!b.apply(()));
        assert!(b.apply(()));
        assert!(!b.apply(()));
        assert!(b.bit());
    }

    #[test]
    fn priority_queue_orders_keys() {
        let mut q = PriorityQueueObject::new();
        assert_eq!(q.apply(PqRequest::ExtractMin), PqResponse::Min(None));
        q.apply(PqRequest::Insert(5));
        q.apply(PqRequest::Insert(1));
        let resp = q.apply(PqRequest::Insert(3));
        assert_eq!(resp, PqResponse::Inserted { len: 3 });
        assert_eq!(q.peek_min(), Some(1));
        assert_eq!(q.apply(PqRequest::ExtractMin), PqResponse::Min(Some(1)));
        assert_eq!(q.apply(PqRequest::ExtractMin), PqResponse::Min(Some(3)));
        assert_eq!(q.apply(PqRequest::ExtractMin), PqResponse::Min(Some(5)));
        assert!(q.is_empty());
    }

    #[test]
    fn max_register_keeps_the_running_maximum() {
        let mut r = MaxRegisterObject::new();
        assert_eq!(r.apply(5), 0);
        assert_eq!(r.apply(3), 5, "returns the old max");
        assert_eq!(r.apply(9), 5);
        assert_eq!(r.max(), 9);
    }

    #[test]
    fn objects_are_cloneable_for_adversary_probing() {
        let mut q = PriorityQueueObject::new();
        q.apply(PqRequest::Insert(9));
        let mut fork = q.clone();
        assert_eq!(fork.apply(PqRequest::ExtractMin), PqResponse::Min(Some(9)));
        assert_eq!(q.len(), 1, "original untouched");
    }
}
