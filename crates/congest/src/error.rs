use std::error::Error;
use std::fmt;

use graphs::NodeId;

use crate::Round;

/// Errors raised by the CONGEST simulator.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CongestError {
    /// A message exceeded the per-edge bandwidth budget of the run's
    /// [`Config`](crate::Config).
    BandwidthExceeded {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Round in which the violation occurred.
        round: Round,
        /// Bits the sender tried to push over the edge this round.
        bits: usize,
        /// Configured per-edge budget.
        budget: usize,
    },
    /// A node attempted to send to a non-neighbour.
    NotANeighbor {
        /// Sending node.
        from: NodeId,
        /// Intended destination.
        to: NodeId,
    },
    /// Two messages were queued on the same directed edge in one round.
    DuplicateSend {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Round in which the duplicate send occurred.
        round: Round,
    },
    /// `run_until_quiescent` reached its round cap without quiescing.
    RoundLimitExceeded {
        /// The cap that was hit.
        limit: Round,
    },
}

impl fmt::Display for CongestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CongestError::BandwidthExceeded { from, to, round, bits, budget } => write!(
                f,
                "bandwidth exceeded on edge {from}->{to} in round {round}: {bits} bits > {budget} bit budget"
            ),
            CongestError::NotANeighbor { from, to } => {
                write!(f, "node {from} attempted to send to non-neighbor {to}")
            }
            CongestError::DuplicateSend { from, to, round } => {
                write!(f, "two messages queued on edge {from}->{to} in round {round}")
            }
            CongestError::RoundLimitExceeded { limit } => {
                write!(f, "network did not quiesce within {limit} rounds")
            }
        }
    }
}

impl Error for CongestError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CongestError::BandwidthExceeded {
            from: NodeId::new(1),
            to: NodeId::new(2),
            round: 7,
            bits: 40,
            budget: 16,
        };
        assert!(e.to_string().contains("40 bits > 16"));
        let e = CongestError::RoundLimitExceeded { limit: 10 };
        assert_eq!(e.to_string(), "network did not quiesce within 10 rounds");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CongestError>();
    }
}
