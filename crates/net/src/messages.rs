//! Wire messages of the threaded backend.
//!
//! The protocol itself speaks the shared [`distctr_core::Msg`] enum — the
//! same messages the simulator delivers — so the two backends cannot
//! drift apart. [`NetMsg`] merely wraps it with the transport-level
//! control traffic a real thread pool needs (start an operation, crash a
//! worker, shut a thread down), none of which counts toward the paper's
//! per-processor message load.

use crossbeam_channel::Sender;
use distctr_core::RootObject;

pub use distctr_core::{Msg, NodeTransfer};

/// A message between worker threads: one shared-protocol message, or a
/// driver control signal.
#[derive(Debug, Clone)]
pub enum NetMsg<O: RootObject> {
    /// A protocol message of the shared engine (an `Apply` hop, a reply,
    /// handoff traffic, a worker-change notification, recovery traffic).
    Protocol(Msg<O>),
    /// Driver control: the receiving processor initiates `count`
    /// identical operations sharing one tree traversal (one
    /// [`Msg::Apply`]; a unit operation has `count` 1). Not counted as
    /// load (it models the local request).
    Start {
        /// Driver-assigned operation sequence number.
        op_seq: u64,
        /// Number of operations combined (0 is read as 1).
        count: u64,
        /// The operation payload, shared by the whole batch.
        req: O::Request,
    },
    /// Fault injection: the receiving processor crashes. It loses every
    /// hosted node, its forwarding table, and its pending buffers, and
    /// from then on silently discards all traffic (a fail-silent model).
    /// Not counted as load.
    Crash,
    /// Driver control: report the worker's engine fingerprint (its
    /// processor index and [`NodeEngine::fingerprint`]) on `reply`.
    /// Answered even by crashed workers — their reset engine *is* their
    /// observable state — so conformance suites can compare a whole
    /// fleet against the model checker's quiescent set. Not counted as
    /// load.
    ///
    /// [`NodeEngine::fingerprint`]: distctr_core::engine::NodeEngine::fingerprint
    Fingerprint {
        /// Where to send `(processor_index, fingerprint)`.
        reply: Sender<(usize, u64)>,
    },
    /// Driver control: exit the thread loop. Not counted as load.
    Shutdown,
}

impl<O: RootObject> NetMsg<O> {
    /// Whether this message counts toward the paper's per-processor
    /// message load: protocol traffic does, driver control does not.
    #[must_use]
    pub fn counts_as_load(&self) -> bool {
        matches!(self, NetMsg::Protocol(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distctr_core::{CounterObject, NodeRef};
    use distctr_sim::ProcessorId;

    type Wire = NetMsg<CounterObject>;

    #[test]
    fn control_messages_are_not_load() {
        assert!(!Wire::Start { op_seq: 0, count: 8, req: () }.counts_as_load());
        assert!(!Wire::Shutdown.counts_as_load());
        assert!(!Wire::Crash.counts_as_load());
        assert!(Wire::Protocol(Msg::Reply { resp: 0, op_seq: 0 }).counts_as_load());
        assert!(Wire::Protocol(Msg::Apply {
            node: NodeRef::ROOT,
            origin: ProcessorId::new(0),
            op_seq: 0,
            count: 1,
            req: ()
        })
        .counts_as_load());
        assert!(Wire::Protocol(Msg::HandoffPart { node: NodeRef::ROOT, part: 0, total: 4 })
            .counts_as_load());
    }

    #[test]
    fn transfer_round_trips_through_clone() {
        let t: NodeTransfer<CounterObject> = NodeTransfer {
            node: NodeRef { level: 1, index: 2 },
            pool_cursor: 3,
            parent_worker: Some(ProcessorId::new(0)),
            child_workers: Box::new([ProcessorId::new(4), ProcessorId::new(5)]),
            root: None,
        };
        let c = t.clone();
        assert_eq!(c.pool_cursor, 3);
        assert_eq!(c.node, t.node);
    }
}
