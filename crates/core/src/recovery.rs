//! How the quantum diameter drivers heal.
//!
//! [`exact::diameter`](crate::exact::diameter),
//! [`exact_simple::diameter`](crate::exact_simple::diameter) and
//! [`approx::diameter`](crate::approx::diameter) heal detected faults
//! under whatever [`RecoveryPolicy`](congest::RecoveryPolicy) their
//! [`Config`] carries. Under the passive default they are fail-stop under
//! an injected [`congest::FaultPlan`]: their classical substrate phases
//! degrade to [`classical::AlgoError::FaultDetected`] (surfacing as
//! [`QdError::Classical`]), and a fault-perturbed Evaluation can trip
//! [`QdError::VerificationFailed`]. Each driver runs its body through
//! [`classical::recovery::heal`], the one retry loop behind the classical
//! driver too:
//!
//! * **Retry** — bounded re-execution under a freshly
//!   [reseeded](congest::recovery::reseed) plan.
//! * **Retransmit** — the BFS tree build and HPRW preparation consult
//!   [`Config::recovery`] and repeat their idempotent messages; they
//!   charge their own trace events and `qd_recovery_actions_total`
//!   metrics at the source, so resends under a quantum driver are
//!   accounted without [`heal`]'s involvement (they do not appear in the
//!   run's [`RecoveryStats`](congest::RecoveryStats)). Leader election
//!   never reads the policy, so it resends nothing. The Figure 2
//!   Evaluation strips retransmission — it is a reversible procedure run
//!   in superposition with a fixed round schedule, where resending has no
//!   physical meaning (see
//!   [`evaluation::run_windowed`](crate::evaluation::run_windowed)).
//! * **Partial network** — on crash-stops, re-root onto the largest
//!   surviving component via
//!   [`classical::recovery::carve_survivors`] and answer for it.
//!
//! A discarded attempt is charged like the classical driver's — recovery
//! stats, `qd_recovery_wasted_*` counters and a derived `wasted attempt
//! k` trace span — but its accounting is coarser: a failed quantum
//! attempt reports only its detection round, so `wasted_rounds` is a
//! lower bound and wasted messages/bits stay 0. The spans reach the trace
//! and metrics only; the runs' own ledgers do not carry them.

use classical::recovery::{heal, Attempt, Healed, RetryScope};
use classical::AlgoError;
use congest::{Config, RoundsLedger, RunStats};
use graphs::Graph;

use crate::QdError;

/// The exact driver's whole-run retries.
pub(crate) const EXACT: RetryScope = RetryScope {
    scope: 0xE8AC,
    label: "quantum-exact",
};
/// The Section 3.1 driver's whole-run retries.
pub(crate) const SIMPLE: RetryScope = RetryScope {
    scope: 0x5E31,
    label: "quantum-simple",
};
/// The approximation driver's whole-run retries.
pub(crate) const APPROX: RetryScope = RetryScope {
    scope: 0xA990,
    label: "quantum-approx",
};

/// Runs one attempt `run` of a quantum driver through [`heal`] under
/// `config`'s recovery policy, in `scope`.
pub(crate) fn healed<T: Healed>(
    graph: &Graph,
    config: Config,
    scope: RetryScope,
    mut run: impl FnMut(&Graph, Config) -> Result<T, QdError>,
) -> Result<T, QdError> {
    heal(graph, config, scope, healable, |g, c, _| attempt(run(g, c))).map(|(run, _)| run)
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
    use crate::approx::{self, ApproxParams};
    use crate::exact::{self, ExactParams};
    use crate::QdError;
    use classical::recovery::carve_survivors;
    use classical::AlgoError;
    use congest::{Config, FaultPlan, RecoveryPolicy};
    use graphs::generators;

    #[test]
    fn clean_runs_pass_through_unchanged() {
        let g = generators::cycle(16);
        let cfg = Config::for_graph(&g).with_recovery(RecoveryPolicy::standard());
        let out = exact::diameter(&g, ExactParams::new(7), cfg).unwrap();
        let plain = exact::diameter(&g, ExactParams::new(7), Config::for_graph(&g)).unwrap();
        assert_eq!(out.value, plain.value);
        assert!(out.recovery.is_clean());
        assert!(out.surviving.is_none());
    }

    #[test]
    fn crash_reroots_the_exact_driver() {
        let g = generators::path(10);
        let cfg = Config::for_graph(&g).with_faults(FaultPlan::new(7).with_crash(9, 0));
        assert!(exact::diameter(&g, ExactParams::new(1), cfg).is_err());
        let cfg = cfg.with_recovery(RecoveryPolicy::standard());
        let out = exact::diameter(&g, ExactParams::new(1), cfg).unwrap();
        assert_eq!(out.value, 8);
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
        let out = approx::diameter(&g, ApproxParams::new(3), cfg).unwrap();
        let surviving = out.surviving.unwrap();
        assert_eq!(surviving.excluded, 1);
        let sub = carve_survivors(&g, &FaultPlan::new(2).with_crash(19, 0))
            .unwrap()
            .graph;
        let d = graphs::metrics::diameter(&sub).unwrap();
        assert!(out.estimate <= d && u64::from(out.estimate) * 3 >= u64::from(d) * 2);
    }

    #[test]
    fn exhausted_retries_surface_the_error() {
        let g = generators::path(10);
        // Partial disabled: a crash can never be healed by reseeding.
        let cfg = Config::for_graph(&g)
            .with_faults(FaultPlan::new(7).with_crash(5, 0))
            .with_recovery(RecoveryPolicy::standard().with_partial(false));
        let err = exact::diameter(&g, ExactParams::new(1), cfg).unwrap_err();
        assert!(matches!(
            err,
            QdError::Classical(AlgoError::FaultDetected { .. })
        ));
    }
}
