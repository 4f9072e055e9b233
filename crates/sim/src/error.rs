//! Error type for simulator construction and driving.

use std::error::Error;
use std::fmt;

/// Errors reported by the simulator's public API.
///
/// Message-level faults (sending to an out-of-range processor from inside a
/// protocol) are programmer errors and panic instead; see the `Panics`
/// sections on the relevant methods.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A network or counter was requested with zero processors.
    EmptyNetwork,
    /// A driver was given an initiator outside `0..n`.
    UnknownProcessor {
        /// The offending processor index.
        index: usize,
        /// The network size.
        processors: usize,
    },
    /// A driver was asked to run an operation sequence that does not
    /// satisfy the paper's "each processor increments exactly once"
    /// requirement.
    NotAPermutation,
    /// The run hit a safety cap — on messages delivered, or on messages
    /// queued at once — which almost always indicates a protocol that
    /// fails to quiesce. Carries enough diagnostics to see *what* was
    /// ping-ponging when the cap was hit.
    Livelock {
        /// The cap that was hit: the configured cap on deliveries per run
        /// call, or, when `queue_depth` reached it, the network's bound on
        /// queued messages (64 per processor plus 2^16).
        cap: u64,
        /// Messages delivered by this run call before giving up.
        delivered: u64,
        /// Messages still queued when the cap was hit.
        queue_depth: usize,
        /// Summaries of the last few deliveries before the cap.
        recent_deliveries: Vec<String>,
        /// Summaries of the next few messages that were due.
        next_pending: Vec<String>,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::EmptyNetwork => write!(f, "network must contain at least one processor"),
            SimError::UnknownProcessor { index, processors } => write!(
                f,
                "processor index {index} out of range for a network of {processors} processors"
            ),
            SimError::NotAPermutation => {
                write!(f, "operation sequence is not a permutation of all processors")
            }
            SimError::Livelock { cap, delivered, queue_depth, recent_deliveries, next_pending } => {
                write!(
                    f,
                    "livelock cap of {cap} reached after {delivered} deliveries \
                     with {queue_depth} still queued; protocol may not quiesce"
                )?;
                if !recent_deliveries.is_empty() {
                    write!(f, "; last deliveries: [{}]", recent_deliveries.join("; "))?;
                }
                if !next_pending.is_empty() {
                    write!(f, "; next due: [{}]", next_pending.join("; "))?;
                }
                Ok(())
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = SimError::UnknownProcessor { index: 9, processors: 4 };
        let s = e.to_string();
        assert!(s.contains('9') && s.contains('4'));
        assert!(s.starts_with(char::is_lowercase));
        assert!(SimError::EmptyNetwork.to_string().contains("at least one"));
        assert!(SimError::NotAPermutation.to_string().contains("permutation"));
        let livelock = SimError::Livelock {
            cap: 7,
            delivered: 7,
            queue_depth: 2,
            recent_deliveries: vec!["t=3 P1 -> P2 (op0): ping".into()],
            next_pending: vec!["t=4 P2 -> P1 (op0): pong".into()],
        };
        let s = livelock.to_string();
        assert!(s.contains('7') && s.contains("ping") && s.contains("pong"));
    }

    #[test]
    fn error_trait_object() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<SimError>();
    }
}
