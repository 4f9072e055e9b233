//! The paper's generalized data structures, as instances of the generic
//! tree client.
//!
//! "Note that the argument in the Hot Spot Lemma can be made for the
//! family of all distributed data structures in which an operation
//! depends on the operation that immediately precedes it. Examples for
//! such data structures are a bit that can be accessed and flipped, and
//! a priority queue."
//!
//! Both are type aliases of [`TreeClient`] that add only their object's
//! own operations: they ride the same retirement tree as the counter and
//! inherit its O(k) per-processor bottleneck over the canonical workload.

use distctr_sim::{ProcessorId, SimError};

use crate::client::TreeClient;
use crate::object::{FlipBitObject, PqRequest, PqResponse, PriorityQueueObject};

/// A distributed test-and-flip bit.
///
/// # Examples
///
/// ```
/// use distctr_core::DistributedFlipBit;
/// use distctr_sim::ProcessorId;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut bit = DistributedFlipBit::new(8)?;
/// assert_eq!(bit.test_and_flip(ProcessorId::new(2))?, false);
/// assert_eq!(bit.test_and_flip(ProcessorId::new(6))?, true);
/// assert_eq!(bit.bit(), false);
/// # Ok(())
/// # }
/// ```
pub type DistributedFlipBit = TreeClient<FlipBitObject>;

impl TreeClient<FlipBitObject> {
    /// Returns the old bit and flips it, as one operation initiated by
    /// `initiator`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TreeClient::invoke`].
    pub fn test_and_flip(&mut self, initiator: ProcessorId) -> Result<bool, SimError> {
        Ok(self.invoke(initiator, ())?.response)
    }

    /// The current bit.
    #[must_use]
    pub fn bit(&self) -> bool {
        self.object().bit()
    }
}

/// A distributed min-priority queue.
///
/// # Examples
///
/// ```
/// use distctr_core::DistributedPriorityQueue;
/// use distctr_sim::ProcessorId;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut pq = DistributedPriorityQueue::new(8)?;
/// pq.insert(ProcessorId::new(0), 30)?;
/// pq.insert(ProcessorId::new(1), 10)?;
/// assert_eq!(pq.extract_min(ProcessorId::new(2))?, Some(10));
/// assert_eq!(pq.extract_min(ProcessorId::new(3))?, Some(30));
/// assert_eq!(pq.extract_min(ProcessorId::new(4))?, None);
/// # Ok(())
/// # }
/// ```
pub type DistributedPriorityQueue = TreeClient<PriorityQueueObject>;

impl TreeClient<PriorityQueueObject> {
    /// Inserts `key`, returning the queue length after the insert.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TreeClient::invoke`].
    pub fn insert(&mut self, initiator: ProcessorId, key: u64) -> Result<u64, SimError> {
        match self.invoke(initiator, PqRequest::Insert(key))?.response {
            PqResponse::Inserted { len } => Ok(len),
            PqResponse::Min(_) => unreachable!("insert answers with Inserted"),
        }
    }

    /// Removes and returns the smallest key (`None` if empty).
    ///
    /// # Errors
    ///
    /// Same conditions as [`TreeClient::invoke`].
    pub fn extract_min(&mut self, initiator: ProcessorId) -> Result<Option<u64>, SimError> {
        match self.invoke(initiator, PqRequest::ExtractMin)?.response {
            PqResponse::Min(min) => Ok(min),
            PqResponse::Inserted { .. } => unreachable!("extract answers with Min"),
        }
    }

    /// Number of keys currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.object().len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.object().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_bit_parity_matches_operation_count() {
        let mut bit = DistributedFlipBit::new(27).expect("bit");
        let n = bit.processors();
        for i in 0..n {
            let old = bit.test_and_flip(ProcessorId::new(i)).expect("flip");
            assert_eq!(old, i % 2 == 1);
        }
        assert_eq!(bit.bit(), n % 2 == 1);
    }

    #[test]
    fn flip_bit_keeps_tree_lemmas() {
        let mut bit = DistributedFlipBit::new(81).expect("bit");
        for i in 0..81 {
            bit.test_and_flip(ProcessorId::new(i)).expect("flip");
        }
        assert!(bit.audit().grow_old_lemma_holds());
        assert!(bit.audit().retirement_lemma_holds());
        assert!(bit.audit().retirement_counts_within_pools(bit.topology()));
        assert!(bit.loads().max_load() <= 20 * 3, "O(k) bottleneck for the bit too");
    }

    #[test]
    fn priority_queue_sorts_arbitrary_inserts() {
        let mut pq = DistributedPriorityQueue::new(8).expect("pq");
        let keys = [5u64, 3, 9, 1, 7, 3, 8, 2];
        for (i, &key) in keys.iter().enumerate() {
            let len = pq.insert(ProcessorId::new(i % 8), key).expect("insert");
            assert_eq!(len, i as u64 + 1);
        }
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        for (i, &expected) in sorted.iter().enumerate() {
            let min = pq.extract_min(ProcessorId::new(i % 8)).expect("extract");
            assert_eq!(min, Some(expected));
        }
        assert!(pq.is_empty());
        assert_eq!(pq.extract_min(ProcessorId::new(0)).expect("extract"), None);
    }

    #[test]
    fn priority_queue_is_heapsort_over_the_network() {
        // Round-trip property over a pseudo-random key set.
        let mut pq = DistributedPriorityQueue::new(8).expect("pq");
        let mut keys: Vec<u64> = (0..32).map(|i| (i * 2654435761u64) % 1000).collect();
        for (i, &key) in keys.iter().enumerate() {
            pq.insert(ProcessorId::new(i % 8), key).expect("insert");
        }
        assert_eq!(pq.len(), 32);
        let mut drained = Vec::new();
        while let Some(min) = pq.extract_min(ProcessorId::new(drained.len() % 8)).expect("extract")
        {
            drained.push(min);
        }
        keys.sort_unstable();
        assert_eq!(drained, keys);
    }
}
