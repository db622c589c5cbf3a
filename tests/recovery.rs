//! Integration tests for the self-healing drivers (`classical::recovery`
//! and `quantum_diameter::recovery`).
//!
//! The recovery contract extends the fault contract of
//! `failure_injection.rs` from *correct-or-detected* to
//! *correct-or-detected-or-recovered*:
//!
//! * Recovery is **deterministic**: retry fates and reseeded plans are
//!   pure functions of the seed, so a recovering run — result, recovery
//!   stats, and full trace stream — replays byte-identically.
//! * Checkpoint/restart resumes a dropped eccentricity wave from the
//!   last completed segment boundary, never from round 0.
//! * Partial-network semantics answer for the largest surviving
//!   component, matching a centrally carved reference.
//! * A clean (unhealed, full-network) run is exactly as correct as the
//!   fail-stop driver; a healed run may additionally end in typed
//!   detection once every recovery avenue is exhausted.

use proptest::prelude::*;

use congest::{FaultPlan, RecoveryPolicy, RecoveryStats};
use congest_diameter::prelude::*;
use quantum_diameter::recovery as qrecovery;
use quantum_diameter::QdError;

/// Everything the determinism contract covers about one recovering run,
/// in a directly comparable shape (the ledger is summarized because its
/// phase stats are already covered by the trace stream).
type RunKey = Result<
    (
        graphs::Dist,
        Vec<graphs::Dist>,
        RecoveryStats,
        Option<(Vec<NodeId>, usize)>,
    ),
    String,
>;

/// Runs the recovering classical driver under a trace recorder,
/// returning the comparable result key, the fault tally, and the full
/// event stream.
fn recovering_run(g: &Graph, cfg: Config) -> (RunKey, Vec<trace::TraceEvent>) {
    let recorder = trace::Recorder::shared();
    let key = {
        let _guard = trace::install(recorder.clone());
        match classical::recovery::exact_diameter_recovering(g, cfg) {
            Ok(out) => Ok((
                out.run.diameter,
                out.run.eccentricities,
                out.recovery,
                out.surviving.map(|s| (s.nodes, s.excluded)),
            )),
            Err(e) => Err(e.to_string()),
        }
    };
    let events = recorder.borrow_mut().take();
    (key, events)
}

/// A connected random graph for the recovery properties. Kept small:
/// each proptest case runs the full recovering APSP driver up to 5 times.
fn arb_graph() -> impl Strategy<Value = graphs::Graph> {
    (6usize..20, 0u64..1_000_000)
        .prop_map(|(n, seed)| graphs::generators::random_connected(n, 0.15, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The recovering driver — retries, retransmissions, checkpoint
    /// restarts, partial re-roots and all — replays byte-identically,
    /// whether it heals, answers clean, or exhausts its budget into typed
    /// detection.
    #[test]
    fn recovering_runs_replay_identically(
        g in arb_graph(),
        fseed in 0u64..1_000,
        crash in any::<bool>(),
    ) {
        let mut plan = FaultPlan::new(fseed).with_drop(0.004);
        if crash {
            plan = plan.with_crash(fseed as usize % g.len(), fseed % 3);
        }
        let policy = RecoveryPolicy::standard().with_checkpoint(5);
        let cfg = Config::for_graph(&g).with_faults(plan).with_recovery(policy);

        let (key, events) = recovering_run(&g, cfg);
        let (key_k, events_k) = recovering_run(&g, cfg);
        prop_assert_eq!(&key_k, &key, "result diverged");
        prop_assert_eq!(&events_k, &events, "trace diverged");
    }

    /// A passive policy is an identity: the recovering driver returns
    /// exactly the fail-stop driver's answer (or error), reports clean
    /// stats, and never claims partial semantics.
    #[test]
    fn passive_policy_matches_the_fail_stop_driver(
        g in arb_graph(),
        fseed in 0u64..1_000,
    ) {
        let cfg = Config::for_graph(&g).with_faults(FaultPlan::new(fseed).with_drop(0.004));
        prop_assert!(cfg.recovery().is_passive());
        let healed = classical::recovery::exact_diameter_recovering(&g, cfg);
        let failstop = classical::apsp::exact_diameter(&g, cfg);
        match (healed, failstop) {
            (Ok(h), Ok(f)) => {
                prop_assert_eq!(h.run.diameter, f.diameter);
                prop_assert_eq!(h.run.eccentricities, f.eccentricities);
                prop_assert!(h.recovery.is_clean());
                prop_assert!(h.surviving.is_none());
            }
            (Err(he), Err(fe)) => prop_assert_eq!(he.to_string(), fe.to_string()),
            (h, f) => {
                return Err(TestCaseError::fail(format!(
                    "passive recovery diverged: {h:?} vs fail-stop {f:?}"
                )))
            }
        }
    }
}

/// Regression: a wave segment dropped mid-schedule restarts from its own
/// checkpoint boundary — completed segments are never re-executed, so
/// the schedule never rewinds to round 0.
///
/// The seed is pinned to a run (found by sweep) where segment 1 loses a
/// wave and is restarted once, while segment 0 completed on the first
/// try; determinism (see `recovering_runs_replay_identically`) keeps the
/// pin stable.
#[test]
fn checkpoint_restart_resumes_from_the_last_segment_boundary() {
    let g = graphs::generators::random_connected(26, 0.12, 2);
    let reference = graphs::metrics::diameter(&g).unwrap();
    let policy = RecoveryPolicy::new()
        .with_retries(3)
        .with_retransmit(2)
        .with_checkpoint(6);
    let cfg = Config::for_graph(&g)
        .with_faults(FaultPlan::new(40).with_drop(0.003))
        .with_recovery(policy);

    let out = classical::recovery::exact_diameter_recovering(&g, cfg).unwrap();
    assert_eq!(out.run.diameter, reference);
    assert_eq!(
        out.recovery.retries, 0,
        "must not re-run the whole pipeline"
    );
    assert_eq!(out.recovery.restarts, 1, "exactly one segment restart");
    assert!(out.recovery.wasted_rounds > 0, "the discarded try costs");

    let labels: Vec<&str> = out.run.ledger.phases().map(|(l, _, _)| l).collect();
    // The failing segment's discarded try is ledgered as waste...
    assert!(
        labels.contains(&"eccentricity waves[seg 1] wasted try 0"),
        "missing the wasted span for the restarted segment: {labels:?}"
    );
    // ...while segment 0, already checkpointed, ran exactly once and
    // wasted nothing — the restart did not rewind to round 0.
    assert_eq!(
        labels
            .iter()
            .filter(|l| l.starts_with("eccentricity waves[seg 0]"))
            .count(),
        1,
        "segment 0 was re-executed: {labels:?}"
    );
    // Every committed segment appears exactly once.
    for seg in 0..5 {
        let clean = format!("eccentricity waves[seg {seg}]");
        assert_eq!(
            labels.iter().filter(|l| **l == clean.as_str()).count(),
            1,
            "segment {seg} committed more than once: {labels:?}"
        );
    }
}

/// Regression: a checkpoint-restarted wave segment rebases its quiet
/// phases. `checkpointed_waves` rebases every source's start round against
/// the segment boundary, and each future source sleeps until that rebased
/// start — so a restart that kept a stale schedule would start waves off
/// their Lemma 2 slots and miss the diameter. (That the wave program's
/// `Sleep` votes schedule exactly like stepping every node is checked
/// against the reference simulator in `classical::waves`.)
#[test]
fn restarted_segments_redeclare_rebased_quiet_phases() {
    let g = graphs::generators::random_connected(26, 0.12, 2);
    let policy = RecoveryPolicy::new()
        .with_retries(3)
        .with_retransmit(2)
        .with_checkpoint(6);
    let cfg = Config::for_graph(&g)
        .with_faults(FaultPlan::new(40).with_drop(0.003))
        .with_recovery(policy);
    let out = classical::recovery::exact_diameter_recovering(&g, cfg).unwrap();
    // Same pinned seed as the checkpoint test above.
    assert_eq!(
        out.recovery.restarts, 1,
        "the pinned seed must restart a segment"
    );
    assert_eq!(out.run.diameter, graphs::metrics::diameter(&g).unwrap());
}

/// Partial-network semantics: whenever crash-stops force a re-root, the
/// answer equals the true diameter of the centrally carved surviving
/// component, and the component bookkeeping is consistent.
#[test]
fn partial_answers_match_the_carved_component_reference() {
    let g = graphs::generators::random_connected(18, 0.15, 3);
    let mut partial = 0u32;
    for fseed in 0..10u64 {
        let plan = FaultPlan::new(fseed).with_crash(fseed as usize % g.len(), fseed % 3);
        let cfg = Config::for_graph(&g)
            .with_faults(plan.clone())
            .with_recovery(RecoveryPolicy::standard());
        let out = match classical::recovery::exact_diameter_recovering(&g, cfg) {
            Ok(out) => out,
            Err(e @ AlgoError::FaultDetected { .. }) => {
                panic!("standard policy failed to heal a lone crash: {e}")
            }
            Err(e) => panic!("untyped failure under a crash plan: {e:?}"),
        };
        let Some(surviving) = out.surviving else {
            // The crash landed after the protocol no longer needed the
            // node; the full-network answer must then be exact.
            assert_eq!(
                out.run.diameter,
                graphs::metrics::diameter(&g).unwrap(),
                "seed {fseed}"
            );
            continue;
        };
        partial += 1;
        let carve = classical::recovery::carve_survivors(&g, &plan).unwrap();
        assert_eq!(surviving.nodes, carve.component.nodes, "seed {fseed}");
        assert_eq!(
            surviving.nodes.len() + surviving.excluded,
            g.len(),
            "seed {fseed}: component bookkeeping leaks nodes"
        );
        assert_eq!(
            out.run.diameter,
            graphs::metrics::diameter(&carve.graph).unwrap(),
            "seed {fseed}: wrong surviving-component diameter"
        );
        assert!(out.recovery.reroots >= 1, "seed {fseed}");
    }
    assert!(partial > 0, "sweep never exercised partial semantics");
}

/// Classifies one recovering-driver outcome against the
/// correct-or-detected-or-recovered contract. `truth_of(surviving)`
/// supplies the reference answer (full-network or carved-component).
fn classify<T>(
    result: Result<qrecovery::Recovered<T>, QdError>,
    value_of: impl Fn(&T) -> u32,
    truth_full: u32,
    truth_partial: impl Fn(&[NodeId]) -> u32,
    exact: bool,
    context: &str,
) -> &'static str {
    match result {
        Ok(out) => {
            let value = value_of(&out.run);
            let truth = match &out.surviving {
                Some(s) => truth_partial(&s.nodes),
                None => truth_full,
            };
            let in_contract = if exact {
                value == truth
            } else {
                // `D̄ ≤ D ≤ (3/2)·D̄` — the Theorem 4 guarantee.
                value <= truth && 2 * truth <= 3 * value
            };
            if out.recovery.is_clean() {
                assert!(
                    in_contract,
                    "{context}: clean run outside the guarantee: got {value}, truth {truth}"
                );
                "clean"
            } else if in_contract {
                "healed"
            } else {
                // A healed run that passed the driver's checks with a
                // wrong answer: the documented guarantee-class residue
                // (see RECOVERY.md). Never silent — recovery stats say
                // the run was healed.
                "unsound"
            }
        }
        Err(QdError::Classical(AlgoError::FaultDetected { .. })) => "detected",
        Err(QdError::VerificationFailed { .. }) => "detected",
        Err(e) => panic!("{context}: untyped failure under faults: {e:?}"),
    }
}

/// The quantum exact driver (Theorem 1) under drops, crashes, and
/// jitter: every outcome lands in the
/// correct-or-detected-or-recovered contract, the sweep actually heals
/// something, and nothing ever fails untyped.
#[test]
fn quantum_exact_recovering_sweep() {
    let g = graphs::generators::random_connected(20, 0.15, 11);
    let truth = graphs::metrics::diameter(&g).unwrap();
    let mut healed = 0u32;
    let mut unsound = 0u32;
    let mut runs = 0u32;
    for fseed in 0..6u64 {
        let drop = FaultPlan::new(fseed).with_drop(0.004);
        let crash = FaultPlan::new(fseed).with_crash(fseed as usize % g.len(), fseed % 3);
        let jitter = FaultPlan::new(fseed).with_delay(0.004, 3);
        for (kind, plan) in [("drop", drop), ("crash", crash), ("jitter", jitter)] {
            let cfg = Config::for_graph(&g)
                .with_faults(plan.clone())
                .with_recovery(RecoveryPolicy::standard());
            let outcome = classify(
                qrecovery::exact_recovering(&g, ExactParams::new(fseed), cfg),
                |run| run.value,
                truth,
                |_| {
                    let carve = classical::recovery::carve_survivors(&g, &plan).unwrap();
                    graphs::metrics::diameter(&carve.graph).unwrap()
                },
                true,
                &format!("quantum exact, {kind}, seed {fseed}"),
            );
            runs += 1;
            match outcome {
                "healed" => healed += 1,
                "unsound" => unsound += 1,
                _ => {}
            }
        }
    }
    assert!(healed > 0, "sweep never exercised the healing path");
    assert!(
        unsound * 4 <= runs,
        "guarantee-class residue dominates the sweep: {unsound}/{runs}"
    );
}

/// The 3/2-approximation driver (Theorem 4) under the same fault kinds:
/// estimates stay within the approximation guarantee (for the network
/// actually answered for), or the run degrades to typed detection.
#[test]
fn quantum_approx_recovering_sweep() {
    let g = graphs::generators::random_connected(20, 0.18, 5);
    let truth = graphs::metrics::diameter(&g).unwrap();
    let mut healed = 0u32;
    let mut unsound = 0u32;
    let mut runs = 0u32;
    for fseed in 0..6u64 {
        let drop = FaultPlan::new(fseed).with_drop(0.004);
        let crash = FaultPlan::new(fseed).with_crash(fseed as usize % g.len(), fseed % 3);
        let jitter = FaultPlan::new(fseed).with_delay(0.004, 3);
        for (kind, plan) in [("drop", drop), ("crash", crash), ("jitter", jitter)] {
            let cfg = Config::for_graph(&g)
                .with_faults(plan.clone())
                .with_recovery(RecoveryPolicy::standard());
            let outcome = classify(
                qrecovery::approx_recovering(&g, ApproxParams::new(fseed), cfg),
                |run| run.estimate,
                truth,
                |_| {
                    let carve = classical::recovery::carve_survivors(&g, &plan).unwrap();
                    graphs::metrics::diameter(&carve.graph).unwrap()
                },
                false,
                &format!("quantum approx, {kind}, seed {fseed}"),
            );
            runs += 1;
            match outcome {
                "healed" => healed += 1,
                "unsound" => unsound += 1,
                _ => {}
            }
        }
    }
    assert!(healed > 0, "sweep never exercised the healing path");
    assert!(
        unsound * 4 <= runs,
        "guarantee-class residue dominates the sweep: {unsound}/{runs}"
    );
}
