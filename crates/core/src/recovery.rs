//! Bounded re-execution recovery for the quantum diameter drivers.
//!
//! The quantum algorithms of [`exact`] and
//! [`approx`] are fail-stop under an injected
//! [`congest::FaultPlan`]: their classical substrate phases degrade to
//! [`classical::AlgoError::FaultDetected`] (surfacing here as
//! [`QdError::Classical`]), and a fault-perturbed Evaluation can trip
//! [`QdError::VerificationFailed`]. This module wraps them in the same
//! [`RecoveryPolicy`]-governed healing as
//! [`classical::recovery::exact_diameter_recovering`]:
//!
//! * **Retry** — bounded re-execution under a freshly
//!   [reseeded](congest::recovery::reseed) plan.
//! * **Retransmit** — the one-shot classical substrate phases (leader
//!   election, the BFS tree build, HPRW preparation) already consult
//!   [`Config::recovery`] and repeat their idempotent messages; they
//!   charge their own trace events and `qd_recovery_actions_total`
//!   metrics at the source, so resends under a quantum driver are
//!   accounted without this wrapper's involvement (they do not appear in
//!   the wrapper's [`RecoveryStats`]). The Figure 2 Evaluation strips
//!   retransmission — it is a reversible procedure run in superposition
//!   with a fixed round schedule, where resending has no physical
//!   meaning (see [`evaluation::run_windowed`](crate::evaluation::run_windowed)).
//! * **Partial network** — on crash-stops, re-root onto the largest
//!   surviving component via
//!   [`classical::recovery::carve_survivors`] and answer for it.
//!
//! Both wrappers return [`Recovered<T>`](Recovered), the type
//! [`classical::recovery`] defines for its own driver (re-exported here):
//! the run, its [`RecoveryStats`] and the surviving component, if any.
//!
//! Wasted-work accounting is coarser than the classical driver's: a
//! failed quantum attempt reports only its detection round, so
//! `wasted_rounds` is a lower bound and wasted messages/bits stay 0.

use classical::recovery::carve_survivors;
pub use classical::recovery::Recovered;
use classical::AlgoError;
use congest::recovery::{note_recovery, reseed};
use congest::{Config, FaultPlan, RecoveryPolicy, RecoveryStats};
use graphs::Graph;
use trace::RecoveryAction;

use crate::approx::{self, ApproxParams, ApproxRun};
use crate::exact::{self, DiameterRun, ExactParams};
use crate::QdError;

/// Reseed scope for exact-driver retries.
const SCOPE_EXACT: u64 = 0xE8AC;
/// Reseed scope for approximation-driver retries.
const SCOPE_APPROX: u64 = 0xA990;

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
    recover_with(graph, config, SCOPE_EXACT, "quantum-exact", move |g, c| {
        exact::diameter(g, params, c)
    })
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
    recover_with(
        graph,
        config,
        SCOPE_APPROX,
        "quantum-approx",
        move |g, c| approx::diameter(g, params, c),
    )
}

/// True when `e` is the kind of failure a reseeded re-execution can
/// heal: detected fault degradation, or an Evaluation/closed-form
/// mismatch while a fault plan is active (fault-perturbed schedules are
/// the expected cause there).
fn recoverable(e: &QdError, fault_aware: bool) -> bool {
    match e {
        QdError::Classical(AlgoError::FaultDetected { .. }) => true,
        QdError::VerificationFailed { .. } => fault_aware,
        _ => false,
    }
}

/// Detection round of a failed attempt — the honest lower bound for the
/// rounds it wasted (0 where the error carries no round).
fn wasted_rounds_of(e: &QdError) -> u64 {
    match e {
        QdError::Classical(AlgoError::FaultDetected { round, .. }) => *round,
        _ => 0,
    }
}

/// The generic bounded re-execution loop shared by the quantum drivers.
fn recover_with<T>(
    graph: &Graph,
    config: Config,
    scope: u64,
    scope_label: &str,
    mut run: impl FnMut(&Graph, Config) -> Result<T, QdError>,
) -> Result<Recovered<T>, QdError> {
    let policy: RecoveryPolicy = config.recovery();
    let plan = config.faults();
    let seed = plan.as_ref().map(FaultPlan::seed).unwrap_or(0);
    let mut stats = RecoveryStats::default();
    for attempt in 0..=policy.retries() {
        let cfg = match (&plan, attempt) {
            (Some(p), a) if a > 0 => {
                config.with_faults(p.clone().with_seed(reseed(seed, a, scope)))
            }
            _ => config,
        };
        match run(graph, cfg) {
            Ok(value) => {
                return Ok(Recovered {
                    run: value,
                    recovery: stats,
                    surviving: None,
                })
            }
            Err(e) => {
                if !recoverable(&e, plan.is_some()) {
                    return Err(e);
                }
                let wasted = wasted_rounds_of(&e);
                let has_crashes = plan.as_ref().is_some_and(|p| !p.crashes().is_empty());
                if policy.partial() && has_crashes {
                    charge_waste(&mut stats, wasted);
                    let plan = plan.expect("has_crashes implies a plan");
                    let Some(carve) = carve_survivors(graph, &plan) else {
                        return Err(e);
                    };
                    stats.reroots += 1;
                    note_recovery(RecoveryAction::Reroot, 1, "surviving component", 0, 1);
                    // The carved plan has no crashes, so the sub-run can
                    // retry but never re-enters this branch.
                    let sub = recover_with(
                        &carve.graph,
                        config.with_faults(carve.plan),
                        scope,
                        scope_label,
                        run,
                    )?;
                    stats.absorb(&sub.recovery);
                    return Ok(Recovered {
                        run: sub.run,
                        recovery: stats,
                        surviving: Some(carve.component),
                    });
                }
                if attempt < policy.retries() && plan.is_some() {
                    charge_waste(&mut stats, wasted);
                    stats.retries += 1;
                    note_recovery(
                        RecoveryAction::Retry,
                        u64::from(attempt) + 1,
                        scope_label,
                        wasted,
                        1,
                    );
                    continue;
                }
                return Err(e);
            }
        }
    }
    unreachable!("the attempt loop returns on its final iteration");
}

/// Charges a discarded attempt's (lower-bound) rounds.
fn charge_waste(stats: &mut RecoveryStats, wasted_rounds: u64) {
    stats.wasted_rounds += wasted_rounds;
    ::metrics::add(::metrics::names::RECOVERY_WASTED_ROUNDS, wasted_rounds);
}

#[cfg(test)]
mod tests {
    use super::*;
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
