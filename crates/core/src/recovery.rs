//! Bounded re-execution recovery for the quantum diameter drivers.
//!
//! The quantum algorithms of [`exact`], [`exact_simple`] and
//! [`approx`] are fail-stop under an injected
//! [`congest::FaultPlan`]: their classical substrate phases degrade to
//! [`classical::AlgoError::FaultDetected`] (surfacing here as
//! [`QdError::Classical`]), and a fault-perturbed Evaluation can trip
//! [`QdError::VerificationFailed`]. This module runs them through
//! [`classical::recovery::heal`], the one retry loop behind
//! [`classical::recovery::exact_diameter_recovering`] too:
//!
//! * **Retry** — bounded re-execution under a freshly
//!   [reseeded](congest::recovery::reseed) plan.
//! * **Retransmit** — the one-shot classical substrate phases (leader
//!   election, the BFS tree build, HPRW preparation) already consult
//!   [`Config::recovery`] and repeat their idempotent messages; they
//!   charge their own trace events and `qd_recovery_actions_total`
//!   metrics at the source, so resends under a quantum driver are
//!   accounted without this wrapper's involvement (they do not appear in
//!   the wrapper's [`RecoveryStats`](congest::RecoveryStats)). The Figure 2
//!   Evaluation strips retransmission — it is a reversible procedure run
//!   in superposition with a fixed round schedule, where resending has no
//!   physical meaning (see
//!   [`evaluation::run_windowed`](crate::evaluation::run_windowed)).
//! * **Partial network** — on crash-stops, re-root onto the largest
//!   surviving component via
//!   [`classical::recovery::carve_survivors`] and answer for it.
//!
//! The wrappers return [`Recovered<T>`](Recovered), the type
//! [`classical::recovery`] defines for its own driver (re-exported here):
//! the run, its recovery stats and the surviving component, if any.
//!
//! A discarded attempt is charged like the classical driver's — recovery
//! stats, `qd_recovery_wasted_*` counters and a derived `wasted attempt
//! k` trace span — but its accounting is coarser: a failed quantum
//! attempt reports only its detection round, so `wasted_rounds` is a
//! lower bound and wasted messages/bits stay 0. The spans reach the trace
//! and metrics only; the runs' own ledgers do not carry them.

pub use classical::recovery::Recovered;
use classical::recovery::{heal, Attempt, RetryScope};
use classical::AlgoError;
use congest::{Config, RoundsLedger, RunStats};
use graphs::Graph;

use crate::approx::{self, ApproxParams, ApproxRun};
use crate::exact::{self, DiameterRun, ExactParams};
use crate::{exact_simple, QdError};

/// The exact driver's whole-run retries.
const EXACT: RetryScope = RetryScope {
    scope: 0xE8AC,
    label: "quantum-exact",
    span: None,
};
/// The Section 3.1 driver's whole-run retries.
const SIMPLE: RetryScope = RetryScope {
    scope: 0x5E31,
    label: "quantum-simple",
    span: None,
};
/// The approximation driver's whole-run retries.
const APPROX: RetryScope = RetryScope {
    scope: 0xA990,
    label: "quantum-approx",
    span: None,
};

/// Runs the exact `O(√(nD))` algorithm of Theorem 1, healing detected
/// faults per [`Config::recovery`].
///
/// # Errors
///
/// As [`exact::diameter`], once every permitted recovery avenue is
/// exhausted.
///
/// # Example
///
/// Node 9 of a 10-path crash-stops; the recovering driver answers for
/// the surviving 9-path:
///
/// ```
/// use diameter_quantum::exact::ExactParams;
/// use diameter_quantum::recovery;
/// use congest::{Config, FaultPlan, RecoveryPolicy};
/// use graphs::generators;
///
/// let g = generators::path(10);
/// let cfg = Config::for_graph(&g)
///     .with_faults(FaultPlan::new(7).with_crash(9, 0))
///     .with_recovery(RecoveryPolicy::standard());
/// let out = recovery::exact_recovering(&g, ExactParams::new(1), cfg)?;
/// assert_eq!(out.run.value, 8);
/// assert_eq!(out.recovery.reroots, 1);
/// # Ok::<(), diameter_quantum::QdError>(())
/// ```
pub fn exact_recovering(
    graph: &Graph,
    params: ExactParams,
    config: Config,
) -> Result<Recovered<DiameterRun>, QdError> {
    heal(graph, config, EXACT, healable, |g, c, _| {
        attempt(exact::diameter(g, params, c))
    })
    .map(|(out, _)| out)
}

/// Runs the simpler `O(√n · D)` algorithm of Section 3.1, healing
/// detected faults per [`Config::recovery`].
///
/// # Errors
///
/// As [`exact_simple::diameter`], once every permitted recovery avenue is
/// exhausted.
pub fn simple_recovering(
    graph: &Graph,
    params: ExactParams,
    config: Config,
) -> Result<Recovered<DiameterRun>, QdError> {
    heal(graph, config, SIMPLE, healable, |g, c, _| {
        attempt(exact_simple::diameter(g, params, c))
    })
    .map(|(out, _)| out)
}

/// Runs the `3/2`-approximation of Theorem 4, healing detected faults
/// per [`Config::recovery`]. With partial-network semantics the estimate
/// refers to the surviving component.
///
/// # Errors
///
/// As [`approx::diameter`], once every permitted recovery avenue is
/// exhausted.
pub fn approx_recovering(
    graph: &Graph,
    params: ApproxParams,
    config: Config,
) -> Result<Recovered<ApproxRun>, QdError> {
    heal(graph, config, APPROX, healable, |g, c, _| {
        attempt(approx::diameter(g, params, c))
    })
    .map(|(out, _)| out)
}

/// True when a reseeded re-execution can heal `e`: detected fault
/// degradation, or an Evaluation/closed-form mismatch (the loop heals
/// only under a fault plan, whose perturbed schedules are the expected
/// cause of one).
fn healable(e: &QdError) -> bool {
    matches!(
        e,
        QdError::Classical(AlgoError::FaultDetected { .. }) | QdError::VerificationFailed { .. }
    )
}

/// One quantum run as [`heal`] takes it. A failure wasted at least its
/// detection round (0 where the error carries none).
fn attempt<T>(run: Result<T, QdError>) -> Attempt<T, QdError> {
    run.map(|run| (run, RoundsLedger::new())).map_err(|e| {
        let rounds = match &e {
            QdError::Classical(AlgoError::FaultDetected { round, .. }) => *round,
            _ => 0,
        };
        (
            e,
            RunStats {
                rounds,
                ..RunStats::default()
            },
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use classical::recovery::carve_survivors;
    use congest::{FaultPlan, RecoveryPolicy};
    use graphs::generators;

    #[test]
    fn clean_runs_pass_through_unchanged() {
        let g = generators::cycle(16);
        let cfg = Config::for_graph(&g).with_recovery(RecoveryPolicy::standard());
        let out = exact_recovering(&g, ExactParams::new(7), cfg).unwrap();
        let plain = exact::diameter(&g, ExactParams::new(7), Config::for_graph(&g)).unwrap();
        assert_eq!(out.run.value, plain.value);
        assert!(out.recovery.is_clean());
        assert!(out.surviving.is_none());
    }

    #[test]
    fn crash_reroots_the_exact_driver() {
        let g = generators::path(10);
        let cfg = Config::for_graph(&g)
            .with_faults(FaultPlan::new(7).with_crash(9, 0))
            .with_recovery(RecoveryPolicy::standard());
        assert!(exact::diameter(&g, ExactParams::new(1), cfg).is_err());
        let out = exact_recovering(&g, ExactParams::new(1), cfg).unwrap();
        assert_eq!(out.run.value, 8);
        let surviving = out.surviving.unwrap();
        assert_eq!(surviving.excluded, 1);
        assert_eq!(surviving.nodes.len(), 9);
        assert_eq!(out.recovery.reroots, 1);
    }

    #[test]
    fn approx_reroots_to_the_surviving_component() {
        let g = generators::grid(4, 5);
        // Crash a corner: the grid stays connected, 19 survivors.
        let cfg = Config::for_graph(&g)
            .with_faults(FaultPlan::new(2).with_crash(19, 0))
            .with_recovery(RecoveryPolicy::standard());
        let out = approx_recovering(&g, ApproxParams::new(3), cfg).unwrap();
        let surviving = out.surviving.unwrap();
        assert_eq!(surviving.excluded, 1);
        let sub = carve_survivors(&g, &FaultPlan::new(2).with_crash(19, 0))
            .unwrap()
            .graph;
        let d = graphs::metrics::diameter(&sub).unwrap();
        assert!(out.run.estimate <= d && u64::from(out.run.estimate) * 3 >= u64::from(d) * 2);
    }

    #[test]
    fn exhausted_retries_surface_the_error() {
        let g = generators::path(10);
        // Partial disabled: a crash can never be healed by reseeding.
        let cfg = Config::for_graph(&g)
            .with_faults(FaultPlan::new(7).with_crash(5, 0))
            .with_recovery(RecoveryPolicy::standard().with_partial(false));
        let err = exact_recovering(&g, ExactParams::new(1), cfg).unwrap_err();
        assert!(matches!(
            err,
            QdError::Classical(AlgoError::FaultDetected { .. })
        ));
    }
}
