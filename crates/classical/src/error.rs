use std::error::Error;
use std::fmt;

use congest::{CongestError, Round, RunStats};

/// Errors raised by the distributed-algorithm drivers.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum AlgoError {
    /// The underlying CONGEST simulation failed.
    Congest(CongestError),
    /// The graph is disconnected, so distances/diameter are infinite.
    Disconnected,
    /// A protocol invariant was violated (always a bug in the caller's
    /// inputs, e.g. an inconsistent tree).
    Protocol {
        /// Description of the violated invariant.
        reason: String,
    },
    /// A randomized algorithm aborted (e.g. the sample-size guard of the
    /// HPRW 3/2-approximation, Figure 3 step 1).
    Aborted {
        /// Why the algorithm gave up.
        reason: String,
    },
    /// A parameter is outside its documented domain.
    InvalidParameter {
        /// Description of the violated constraint.
        reason: String,
    },
    /// Injected faults (see `congest::faults`) broke a protocol invariant
    /// the algorithm depends on; the result would have been wrong, so the
    /// driver reports where degradation was first detected instead.
    FaultDetected {
        /// Simulation round at which the violation was detected.
        round: u64,
        /// Which invariant broke, and where.
        detail: String,
    },
}

impl AlgoError {
    /// Settles a pipelined-wave run ([`waves`](crate::waves),
    /// [`girth`](crate::girth)) whose nodes record the first broken
    /// wave-order invariant (Lemmas 3–4, source collisions): `violation`
    /// is the earliest of them. Under a fault plan, degraded schedules are
    /// an expected outcome, and the violation is a
    /// [`AlgoError::FaultDetected`]; fault-free, only an invalid schedule
    /// causes one, and it is an [`AlgoError::Protocol`] reported ahead of
    /// any simulator error (it comes no later than the error it causes: a
    /// collision makes its source send twice).
    pub(crate) fn settle_waves(
        run: Result<RunStats, CongestError>,
        violation: Option<(Round, String)>,
        fault_aware: bool,
    ) -> Result<RunStats, AlgoError> {
        if !fault_aware {
            if let Some((_, reason)) = violation {
                return Err(AlgoError::Protocol { reason });
            }
        }
        let stats = run.map_err(|e| AlgoError::from_congest(e, fault_aware))?;
        match violation {
            Some((round, detail)) => Err(AlgoError::FaultDetected { round, detail }),
            None => Ok(stats),
        }
    }

    /// Wraps a simulator error from a fault-aware driver, reinterpreting
    /// fault symptoms as fault degradation: lost messages can push a
    /// protocol past its deterministic schedule (a blown round cap), and
    /// can desynchronize a pipelined schedule until two logical waves land
    /// on one edge in one round (a duplicate send). Both are consequences
    /// of injection, not caller bugs — on a fault-free run they stay hard
    /// simulator errors.
    pub(crate) fn from_congest(e: CongestError, fault_aware: bool) -> Self {
        match e {
            CongestError::RoundLimitExceeded { limit } if fault_aware => AlgoError::FaultDetected {
                round: limit,
                detail: "round cap exceeded: injected faults stalled the protocol schedule".into(),
            },
            CongestError::DuplicateSend { from, to, round } if fault_aware => {
                AlgoError::FaultDetected {
                    round,
                    detail: format!(
                        "duplicate send on edge {from}->{to}: injected faults \
                         desynchronized the pipelined schedule"
                    ),
                }
            }
            e => AlgoError::Congest(e),
        }
    }
}

impl fmt::Display for AlgoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgoError::Congest(e) => write!(f, "congest simulation failed: {e}"),
            AlgoError::Disconnected => write!(f, "graph is not connected"),
            AlgoError::Protocol { reason } => write!(f, "protocol invariant violated: {reason}"),
            AlgoError::Aborted { reason } => write!(f, "algorithm aborted: {reason}"),
            AlgoError::InvalidParameter { reason } => write!(f, "invalid parameter: {reason}"),
            AlgoError::FaultDetected { round, detail } => {
                write!(f, "fault detected at round {round}: {detail}")
            }
        }
    }
}

impl Error for AlgoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AlgoError::Congest(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CongestError> for AlgoError {
    fn from(e: CongestError) -> Self {
        AlgoError::Congest(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let inner = CongestError::RoundLimitExceeded { limit: 5 };
        let e = AlgoError::from(inner.clone());
        assert!(e.to_string().contains("5 rounds"));
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&AlgoError::Disconnected).is_none());
        assert_eq!(
            AlgoError::Disconnected.to_string(),
            "graph is not connected"
        );
    }
}
