//! Wire messages of the retirement-tree protocol — the **one** message
//! vocabulary shared by every backend.
//!
//! The protocol is generic over the [`RootObject`] it transports: [`Msg<O>`] carries requests `O::Request` up the tree
//! and responses `O::Response` straight back to initiators. The paper's
//! counter is the instance `O = CounterObject` ([`CounterMsg`]). The
//! simulator, the threaded backend and the TCP service all exchange
//! exactly these messages; the sans-io engine
//! ([`NodeEngine`](crate::engine::NodeEngine)) is their single producer
//! and consumer, so the backends cannot drift apart.
//!
//! The paper keeps "the length of messages as short as O(log n) bits" by
//! splitting a retirement handoff into k+1 unit messages rather than one
//! big state dump; we model the same message economy with k load-only
//! [`Msg::HandoffPart`]s plus one [`Msg::HandoffFinal`] carrying the
//! k+2-value state (O(k log n) bits — the aggregate of the paper's unit
//! parts). [`Msg::wire_size_bits`] estimates each message's encoded size
//! so tests can assert the O(log n) claim for small-state objects.

use std::collections::VecDeque;

use distctr_sim::ProcessorId;

use crate::object::{CounterObject, RootObject};
use crate::topology::NodeRef;

/// The k+2 values that migrate with a retiring (or rebuilt) node's job:
/// its place in the replacement pool, the workers of its parent and
/// children, and — at the root — the hosted object with its reply cache.
#[derive(Debug, Clone)]
pub struct NodeTransfer<O: RootObject> {
    /// The node changing hands.
    pub node: NodeRef,
    /// Retirements so far (the pool cursor of the *successor*).
    pub pool_cursor: u64,
    /// Current worker of the parent node (None at the root).
    pub parent_worker: Option<ProcessorId>,
    /// Current workers of the inner-node children (empty on level k).
    pub child_workers: Vec<ProcessorId>,
    /// The hosted object state (Some at the root only).
    pub object: Option<O>,
    /// Recent `(op_seq, response)` pairs already answered by the root,
    /// migrating with the object so retries stay exactly-once across
    /// retirements (root only; empty elsewhere).
    pub reply_cache: VecDeque<(u64, O::Response)>,
}

/// A message of the tree protocol, generic over the hosted
/// [`RootObject`].
#[derive(Debug, Clone)]
pub enum Msg<O: RootObject> {
    /// An operation request from `origin`, climbing the tree; addressed
    /// to the current worker of `node`.
    Apply {
        /// The tree node this hop targets.
        node: NodeRef,
        /// The processor that initiated the operation (reply address).
        origin: ProcessorId,
        /// Driver-assigned operation sequence number; the root's reply
        /// cache deduplicates retries by it.
        op_seq: u64,
        /// The operation payload.
        req: O::Request,
    },
    /// A *batch* of `count` identical operation requests from `origin`,
    /// climbing the tree as **one** message; addressed to the current
    /// worker of `node`. The root applies the whole batch atomically
    /// ([`RootObject::apply_batch`])
    /// and answers with a single [`Msg::Reply`] carrying the first
    /// response — for the counter, the start `v` of the contiguous range
    /// `[v, v + count)` the batch owns. Each tree node ages by the same
    /// constant as for a unit `Apply`: the batch costs one traversal, so
    /// the per-inc message load is amortized to O(k / count).
    BatchApply {
        /// The tree node this hop targets.
        node: NodeRef,
        /// The processor that initiated the batch (reply address).
        origin: ProcessorId,
        /// Driver-assigned sequence number for the whole batch; a retry
        /// repeats the same `op_seq` *and* the same `count`, so the
        /// root's reply cache deduplicates batches unchanged.
        op_seq: u64,
        /// Number of operations combined into this traversal (≥ 1).
        count: u64,
        /// The operation payload, shared by every member of the batch.
        req: O::Request,
    },
    /// The operation's response, sent by the root's worker directly to
    /// the operation's initiator.
    Reply {
        /// Operation sequence number (matches the `Apply`).
        op_seq: u64,
        /// The response payload.
        resp: O::Response,
    },
    /// One unit of a retiring worker's state transfer to its successor
    /// (parts `0..total-1`; pure load, the final part installs).
    HandoffPart {
        /// The node whose worker is being replaced.
        node: NodeRef,
        /// Zero-based part number.
        part: u32,
        /// Total number of messages in this handoff (k+1).
        total: u32,
    },
    /// The final handoff message, carrying the migrating state.
    HandoffFinal {
        /// The transferred node state.
        transfer: Box<NodeTransfer<O>>,
    },
    /// Notification to the worker of `node` that adjacent node `retired`
    /// now answers at `new_worker`.
    NewWorker {
        /// The neighbour being informed (whose worker receives this).
        node: NodeRef,
        /// The node whose worker changed.
        retired: NodeRef,
        /// The replacement processor.
        new_worker: ProcessorId,
    },
    /// Notification to a leaf processor that its parent node `retired`
    /// now answers at `new_worker`. Only reachable in ablation
    /// configurations (level-k nodes have singleton pools and never
    /// retire under the paper's scheme).
    NewWorkerLeaf {
        /// The node whose worker changed (the leaf's parent).
        retired: NodeRef,
        /// The replacement processor.
        new_worker: ProcessorId,
    },
    /// Recovery: the watchdog of `node`'s pool successor fired because the
    /// current worker is presumed crashed (or a handoff's state-bearing
    /// final was lost). Delivered to the successor itself (a self-message
    /// modelling its local timeout), this starts a *forced retirement*:
    /// the successor rebuilds the node's k+2-value state from its
    /// neighbours instead of receiving a handoff from the dead worker.
    RecoverPromote {
        /// The node whose worker crashed.
        node: NodeRef,
        /// The node's neighbours with the worker each is currently
        /// reachable at (supplied by the watchdog, which reads the
        /// registry at quiescence — the successor's own routing view
        /// died with the old worker).
        neighbours: Vec<(NodeRef, ProcessorId)>,
    },
    /// Recovery: the promoted `successor` asks `neighbour`'s worker to
    /// resend its share of `node`'s state (the neighbour's own identity
    /// and current worker).
    RebuildQuery {
        /// The node being rebuilt.
        node: NodeRef,
        /// The neighbour whose share is requested.
        neighbour: NodeRef,
        /// Where to send the [`Msg::RebuildShare`].
        successor: ProcessorId,
    },
    /// Recovery: one neighbour's unit share of `node`'s rebuilt state.
    /// Like handoff parts, each share is a unit message; the successor
    /// takes over once every distinct neighbour has answered.
    RebuildShare {
        /// The node being rebuilt.
        node: NodeRef,
        /// The neighbour this share speaks for.
        neighbour: NodeRef,
        /// The processor currently answering for `neighbour`.
        worker: ProcessorId,
    },
}

/// The paper's counter instance of the protocol messages.
pub type CounterMsg = Msg<CounterObject>;

impl<O: RootObject> Msg<O> {
    /// A short tag for diagnostics and audits.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Msg::Apply { .. } => "apply",
            Msg::BatchApply { .. } => "batch-apply",
            Msg::Reply { .. } => "reply",
            Msg::HandoffPart { .. } => "handoff",
            Msg::HandoffFinal { .. } => "handoff-final",
            Msg::NewWorker { .. } => "new-worker",
            Msg::NewWorkerLeaf { .. } => "new-worker-leaf",
            Msg::RecoverPromote { .. } => "recover-promote",
            Msg::RebuildQuery { .. } => "rebuild-query",
            Msg::RebuildShare { .. } => "rebuild-share",
        }
    }

    /// Estimated encoded size in bits on a network of `n` processors with
    /// tree order `k`, given the payload sizes of the hosted object's
    /// request (`req_bits`) and response (`resp_bits`). Every other field
    /// is a processor id or op sequence (`log2 n` bits), a node reference
    /// (`log2 k + log2 n` bits) or a small part counter. For the counter
    /// (`req_bits = 0`, `resp_bits ≈ log2 n`) this verifies the paper's
    /// O(log n) message-length claim for every unit message; the
    /// state-bearing [`Msg::HandoffFinal`] aggregates the k+2 values the
    /// paper would split into unit parts, so it alone is O(k log n).
    #[must_use]
    pub fn wire_size_bits(&self, n: u64, k: u32, req_bits: u32, resp_bits: u32) -> u32 {
        let id_bits = 64 - n.max(2).leading_zeros();
        let node_bits = (32 - k.max(2).leading_zeros()) + id_bits;
        let tag_bits = 4;
        tag_bits
            + match self {
                Msg::Apply { .. } => node_bits + 2 * id_bits + req_bits,
                // The count rides in the op-sequence width: a batch of m
                // from a driver is bounded by the op space, so it costs
                // one more id-sized field — still O(log n).
                Msg::BatchApply { .. } => node_bits + 3 * id_bits + req_bits,
                Msg::Reply { .. } => id_bits + resp_bits,
                // Part counters are bounded by MAX_ORDER + 1, so a fixed
                // byte each suffices regardless of k.
                Msg::HandoffPart { .. } => node_bits + 2 * 8,
                Msg::HandoffFinal { .. } => node_bits + (k + 2) * id_bits + resp_bits,
                Msg::NewWorker { .. } => 2 * node_bits + id_bits,
                Msg::NewWorkerLeaf { .. } => node_bits + id_bits,
                Msg::RecoverPromote { neighbours, .. } => {
                    node_bits + (neighbours.len() as u32) * (node_bits + id_bits)
                }
                Msg::RebuildQuery { .. } => 2 * node_bits + id_bits,
                Msg::RebuildShare { .. } => 2 * node_bits + id_bits,
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(level: u32, index: u64) -> NodeRef {
        NodeRef { level, index }
    }

    fn counter_bits(n: u64) -> u32 {
        64 - n.max(2).leading_zeros() + 1
    }

    fn transfer() -> Box<NodeTransfer<CounterObject>> {
        Box::new(NodeTransfer {
            node: node(1, 0),
            pool_cursor: 1,
            parent_worker: Some(ProcessorId::new(0)),
            child_workers: vec![ProcessorId::new(2), ProcessorId::new(4)],
            object: None,
            reply_cache: VecDeque::new(),
        })
    }

    fn all_variants() -> Vec<CounterMsg> {
        vec![
            Msg::Apply { node: node(1, 0), origin: ProcessorId::new(0), op_seq: 0, req: () },
            Msg::BatchApply {
                node: node(1, 0),
                origin: ProcessorId::new(0),
                op_seq: 0,
                count: 4,
                req: (),
            },
            Msg::Reply { op_seq: 0, resp: 1 },
            Msg::HandoffPart { node: node(1, 0), part: 0, total: 4 },
            Msg::HandoffFinal { transfer: transfer() },
            Msg::NewWorker {
                node: node(0, 0),
                retired: node(1, 0),
                new_worker: ProcessorId::new(1),
            },
            Msg::NewWorkerLeaf { retired: node(3, 0), new_worker: ProcessorId::new(1) },
            Msg::RecoverPromote {
                node: node(1, 0),
                neighbours: vec![(node(0, 0), ProcessorId::new(0))],
            },
            Msg::RebuildQuery {
                node: node(1, 0),
                neighbour: node(0, 0),
                successor: ProcessorId::new(2),
            },
            Msg::RebuildShare {
                node: node(1, 0),
                neighbour: node(0, 0),
                worker: ProcessorId::new(0),
            },
        ]
    }

    #[test]
    fn kinds_are_distinct() {
        let msgs = all_variants();
        let kinds: std::collections::HashSet<_> = msgs.iter().map(Msg::kind).collect();
        assert_eq!(kinds.len(), msgs.len());
    }

    #[test]
    fn wire_size_is_logarithmic_in_n_for_the_counter() {
        let m: CounterMsg = Msg::NewWorker {
            node: node(2, 7),
            retired: node(3, 21),
            new_worker: ProcessorId::new(40),
        };
        let small = m.wire_size_bits(81, 3, 0, counter_bits(81));
        let big = m.wire_size_bits(279_936, 6, 0, counter_bits(279_936));
        assert!(small < big);
        // O(log n): even for the largest supported n, far below 4 * 64.
        assert!(big < 256, "message stays O(log n) bits: {big}");
        // Doubling n adds at most ~3 bits per id field.
        let n1 = m.wire_size_bits(1 << 20, 5, 0, counter_bits(1 << 20));
        let n2 = m.wire_size_bits(1 << 21, 5, 0, counter_bits(1 << 21));
        assert!(n2 - n1 <= 3 * 3);
    }

    #[test]
    fn all_variants_have_positive_size() {
        for m in all_variants() {
            assert!(m.wire_size_bits(1024, 4, 0, 11) > 0, "{}", m.kind());
        }
    }

    #[test]
    fn request_payload_contributes_to_apply_size() {
        // A priority-queue insert carries a 64-bit key.
        let m: Msg<crate::object::MaxRegisterObject> =
            Msg::Apply { node: node(1, 0), origin: ProcessorId::new(0), op_seq: 0, req: 9 };
        let plain = m.wire_size_bits(1024, 4, 0, 11);
        let keyed = m.wire_size_bits(1024, 4, 64, 11);
        assert_eq!(keyed - plain, 64);
    }

    #[test]
    fn only_the_final_handoff_message_scales_with_k() {
        let part: CounterMsg = Msg::HandoffPart { node: node(1, 0), part: 0, total: 4 };
        let fin: CounterMsg = Msg::HandoffFinal { transfer: transfer() };
        let part_growth = part.wire_size_bits(1024, 9, 0, 11) - part.wire_size_bits(1024, 2, 0, 11);
        let fin_growth = fin.wire_size_bits(1024, 9, 0, 11) - fin.wire_size_bits(1024, 2, 0, 11);
        assert!(part_growth <= 4, "unit parts stay O(log n): {part_growth}");
        assert!(fin_growth >= 7 * 11, "the final aggregates k+2 ids: {fin_growth}");
    }

    #[test]
    fn transfer_round_trips_through_clone() {
        let t = transfer();
        let c = t.clone();
        assert_eq!(c.pool_cursor, 1);
        assert_eq!(c.node, t.node);
    }
}
