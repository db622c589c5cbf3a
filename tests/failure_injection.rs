//! Failure-injection and edge-case tests: every driver must fail *loudly
//! and typed* on broken inputs, never return garbage — including under the
//! seeded fault plans of `congest::faults`, where the contract is "correct
//! answer or a `FaultDetected` error naming the round", never a silently
//! wrong diameter.

use congest_diameter::prelude::*;
use proptest::prelude::*;

use classical::hprw::{self, HprwParams};
use congest::reference::Reference;
use congest::{CongestError, FaultPlan, FaultStats};
use quantum_diameter::{approx, exact};

/// With a bandwidth budget far below O(log n), every algorithm must abort
/// with a bandwidth error instead of silently widening its messages.
#[test]
fn starved_bandwidth_is_detected() {
    let g = graphs::generators::random_connected(24, 0.15, 1);
    let tight = Config::new(2); // 2 bits per edge per round: hopeless
    let err = classical::apsp::exact_diameter(&g, tight).unwrap_err();
    assert!(
        matches!(
            err,
            AlgoError::Congest(CongestError::BandwidthExceeded { .. })
        ),
        "expected bandwidth error, got {err:?}"
    );
    let err = exact::diameter(&g, ExactParams::new(0), tight).unwrap_err();
    assert!(matches!(
        err,
        QdError::Classical(AlgoError::Congest(CongestError::BandwidthExceeded { .. }))
    ));
}

/// The algorithms actually fit the canonical O(log n) budget: the largest
/// message ever sent stays within Config::for_graph.
#[test]
fn algorithms_fit_the_congest_budget() {
    let g = graphs::generators::random_connected(40, 0.1, 3);
    let cfg = Config::for_graph(&g);
    // Completing at all proves the fit; also check headroom.
    let out = classical::apsp::exact_diameter(&g, cfg).unwrap();
    let max_bits = out.ledger.max_message_bits();
    assert!(max_bits <= cfg.bandwidth_bits());
    assert!(max_bits >= 2, "stats should have recorded messages");
    let girth = classical::girth::compute(&g, cfg).unwrap();
    assert!(girth.ledger.max_message_bits() <= cfg.bandwidth_bits());
}

/// Disconnected networks: every driver returns the typed error.
#[test]
fn disconnection_is_typed_everywhere() {
    let g = graphs::Graph::from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]).unwrap();
    let cfg = Config::for_graph(&g);
    assert!(matches!(
        classical::apsp::exact_diameter(&g, cfg),
        Err(AlgoError::Disconnected)
    ));
    assert!(matches!(
        classical::girth::compute(&g, cfg),
        Err(AlgoError::Disconnected)
    ));
    assert!(matches!(
        classical::ecc::two_approx(&g, cfg),
        Err(AlgoError::Disconnected)
    ));
    assert!(matches!(
        hprw::approx_diameter(&g, HprwParams::classical(6, 0), cfg),
        Err(AlgoError::Disconnected)
    ));
    assert!(matches!(
        exact::diameter(&g, ExactParams::new(0), cfg),
        Err(QdError::Classical(AlgoError::Disconnected))
    ));
    assert!(matches!(
        approx::diameter(&g, ApproxParams::new(0), cfg),
        Err(QdError::Classical(AlgoError::Disconnected))
    ));
}

/// Degenerate parameters are rejected, not mangled.
#[test]
fn degenerate_parameters_are_rejected() {
    let g = graphs::generators::cycle(8);
    let cfg = Config::for_graph(&g);
    // δ outside (0, 1).
    assert!(exact::diameter(&g, ExactParams::new(0).with_failure_prob(0.0), cfg).is_err());
    assert!(exact::diameter(&g, ExactParams::new(0).with_failure_prob(1.5), cfg).is_err());
    // Empty graph.
    let empty = graphs::Graph::from_edges(0, []).unwrap();
    assert!(exact::diameter(&empty, ExactParams::new(0), Config::new(8)).is_err());
    assert!(classical::apsp::exact_diameter(&empty, Config::new(8)).is_err());
}

/// Tiny networks (n = 1, 2) are exact and never panic across all drivers.
#[test]
fn tiny_networks_everywhere() {
    for n in [1usize, 2] {
        let g = if n == 1 {
            graphs::Graph::from_edges(1, []).unwrap()
        } else {
            graphs::Graph::from_edges(2, [(0, 1)]).unwrap()
        };
        let cfg = Config::for_graph(&g);
        let expect = (n - 1) as graphs::Dist;
        assert_eq!(
            classical::apsp::exact_diameter(&g, cfg).unwrap().diameter,
            expect
        );
        assert_eq!(
            exact::diameter(&g, ExactParams::new(0), cfg).unwrap().value,
            expect
        );
        assert_eq!(
            quantum_diameter::exact_simple::diameter(&g, ExactParams::new(0), cfg)
                .unwrap()
                .value,
            expect
        );
        assert_eq!(
            approx::diameter(&g, ApproxParams::new(0), cfg)
                .unwrap()
                .estimate,
            expect
        );
        assert_eq!(classical::girth::compute(&g, cfg).unwrap().girth, None);
    }
}

// ---------------------------------------------------------------------------
// Fault injection: determinism and graceful degradation.
// ---------------------------------------------------------------------------

/// Min-id flood used as the fault-determinism workload (mirrors the
/// scheduler-equivalence workload in `tests/property.rs`).
#[derive(Clone, Debug)]
struct IdMsg(u32, usize);
impl congest::Payload for IdMsg {
    fn size_bits(&self) -> usize {
        congest::bits::for_node(self.1)
    }
}
struct MinIdFlood {
    best: u32,
}
impl congest::NodeProgram for MinIdFlood {
    type Msg = IdMsg;
    type Output = u32;
    fn on_round(&mut self, ctx: &mut congest::RoundCtx<'_, IdMsg>) -> congest::Status {
        let mut improved = ctx.round() == 0;
        for &(_, IdMsg(v, _)) in ctx.inbox() {
            if v < self.best {
                self.best = v;
                improved = true;
            }
        }
        if improved {
            ctx.broadcast(IdMsg(self.best, ctx.num_nodes()));
        }
        congest::Status::Halted
    }
    fn finish(self, _node: NodeId) -> u32 {
        self.best
    }
}

/// Everything the fault-replay contract covers about one run: run stats,
/// fault stats, outputs, and the full trace event stream (including
/// `Fault` events), skip-expanded.
type Replay = (RunStats, FaultStats, Vec<u32>, Vec<trace::TraceEvent>);

/// Runs `make`'s program under `cfg` on `Network`, or with `reference` on
/// the reference simulator, with a trace recorder installed.
fn replay<P>(g: &Graph, cfg: Config, reference: bool, make: impl Fn(NodeId) -> P) -> Replay
where
    P: congest::NodeProgram<Output = u32>,
{
    let recorder = trace::Recorder::shared();
    let (stats, faults, outputs) = {
        let _guard = trace::install(recorder.clone());
        if reference {
            let mut reference = Reference::new(g, cfg, make);
            let stats = reference.run_until_quiescent(100_000).unwrap();
            assert_eq!(reference.breach(), None);
            (stats, reference.fault_stats(), reference.into_outputs())
        } else {
            let mut net = congest::Network::new(g, cfg, make);
            let stats = net.run_until_quiescent(100_000).unwrap();
            (stats, net.fault_stats(), net.into_outputs())
        }
    };
    let events = trace::expand_round_skips(recorder.borrow_mut().take());
    (stats, faults, outputs, events)
}

/// The min-id flood under `cfg`.
fn faulty_flood_run(g: &Graph, cfg: Config, reference: bool) -> Replay {
    replay(g, cfg, reference, |v| MinIdFlood { best: u32::from(v) })
}

/// Min-id flood whose nodes each sleep until a staggered wake round
/// before joining: the fault layer (drops, jitter, crashes) interacting
/// with `Status::Sleep` and fast-forward is exactly the replay surface
/// the active-set scheduler must keep byte-identical.
struct SleepyFlood {
    wake: u64,
    best: u32,
}
impl congest::NodeProgram for SleepyFlood {
    type Msg = IdMsg;
    type Output = u32;
    fn on_round(&mut self, ctx: &mut congest::RoundCtx<'_, IdMsg>) -> congest::Status {
        let mut improved = ctx.round() == self.wake;
        for &(_, IdMsg(v, _)) in ctx.inbox() {
            if v < self.best {
                self.best = v;
                improved = true;
            }
        }
        if improved {
            ctx.broadcast(IdMsg(self.best, ctx.num_nodes()));
        }
        if ctx.round() < self.wake {
            congest::Status::Sleep(self.wake)
        } else {
            congest::Status::Halted
        }
    }
    fn finish(self, _node: NodeId) -> u32 {
        self.best
    }
}

/// Like [`faulty_flood_run`], but over the staggered-wake flood.
fn faulty_sleepy_run(g: &Graph, cfg: Config, reference: bool) -> Replay {
    replay(g, cfg, reference, |v| SleepyFlood {
        wake: (v.index() as u64 * 5) % 17,
        best: u32::from(v),
    })
}

/// A connected random graph for the fault-replay properties.
fn arb_graph() -> impl Strategy<Value = graphs::Graph> {
    (4usize..24, 0u64..1_000_000)
        .prop_map(|(n, seed)| graphs::generators::random_connected(n, 0.15, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The network replays fault plans byte-identically to the reference
    /// simulator: same RunStats, FaultStats, outputs, and trace stream
    /// under drops, corruption, delay jitter, link failures, and a
    /// crash-stop. The staggered-wake flood additionally crosses the fault
    /// layer with `Status::Sleep` wakeups and fast-forwardable quiescent
    /// stretches (a delayed message must still land, and wake its
    /// receiver, at the exact round the stepping reference delivers it).
    #[test]
    fn faulty_runs_match_the_reference(g in arb_graph(), fseed in 0u64..1_000) {
        let plan = FaultPlan::new(fseed)
            .with_drop(0.08)
            .with_corrupt(0.04)
            .with_delay(0.15, 3)
            .with_link_failure(0, 1, 1..5)
            .with_crash(g.len() - 1, 3);
        let cfg = Config::for_graph(&g).with_faults(plan);
        for (name, run) in [
            ("flood", faulty_flood_run as fn(&Graph, Config, bool) -> Replay),
            ("sleepy", faulty_sleepy_run as fn(&Graph, Config, bool) -> Replay),
        ] {
            let (stats, faults, outputs, events) = run(&g, cfg, true);
            let (stats_k, faults_k, outputs_k, events_k) = run(&g, cfg, false);
            prop_assert_eq!(stats_k, stats, "run stats diverged ({})", name);
            prop_assert_eq!(faults_k, faults, "fault stats diverged ({})", name);
            prop_assert_eq!(&outputs_k, &outputs, "outputs diverged ({})", name);
            prop_assert_eq!(&events_k, &events, "trace diverged ({})", name);
        }
    }

    /// A passive plan (seed only, nothing enabled) is a strict identity:
    /// stats, outputs, and traces match a config with no plan at all, and
    /// the configs compare equal.
    #[test]
    fn passive_fault_plan_is_identity(g in arb_graph(), fseed in 0u64..1_000) {
        let base = Config::for_graph(&g);
        let passive = base.with_faults(FaultPlan::new(fseed));
        prop_assert_eq!(passive, base);
        let (stats, faults, outputs, events) = faulty_flood_run(&g, base, false);
        prop_assert_eq!(faults, FaultStats::default());
        let (stats_p, faults_p, outputs_p, events_p) = faulty_flood_run(&g, passive, false);
        prop_assert_eq!(stats_p, stats);
        prop_assert_eq!(faults_p, FaultStats::default());
        prop_assert_eq!(&outputs_p, &outputs);
        prop_assert_eq!(&events_p, &events);
    }
}

/// Asserts the fault contract for one driver result: either the right
/// answer, or a `FaultDetected` error whose rendering names the round.
/// Returns whether degradation was detected.
fn correct_or_detected(
    result: Result<graphs::Dist, AlgoError>,
    truth: graphs::Dist,
    context: &str,
) -> bool {
    match result {
        Ok(d) => {
            assert_eq!(d, truth, "{context}: silently wrong diameter");
            false
        }
        Err(e @ AlgoError::FaultDetected { .. }) => {
            assert!(
                e.to_string().contains("fault detected at round"),
                "{context}: error does not name a round: {e}"
            );
            true
        }
        Err(e) => panic!("{context}: untyped failure under faults: {e:?}"),
    }
}

/// Message drops: across a sweep of fault seeds, the classical exact
/// driver and the quantum exact driver (Theorem 1) always either answer
/// correctly or fail with `FaultDetected` — and the sweep actually
/// exercises both outcomes.
#[test]
fn exact_drivers_degrade_gracefully_under_drops() {
    let g = graphs::generators::random_connected(22, 0.15, 11);
    let truth = graphs::metrics::diameter(&g).unwrap();
    let mut detected = 0u32;
    let mut correct = 0u32;
    for fseed in 0..12u64 {
        // Alternate heavy and feather-light loss so the sweep exercises
        // both contract arms: detection (2% over thousands of messages is
        // near-certain to hit a protocol edge) and unharmed completion.
        let p = if fseed % 2 == 0 { 0.02 } else { 2e-5 };
        let plan = FaultPlan::new(fseed).with_drop(p);
        let cfg = Config::for_graph(&g).with_faults(plan);
        let classical_result = classical::apsp::exact_diameter(&g, cfg).map(|out| out.diameter);
        if correct_or_detected(classical_result, truth, "classical apsp") {
            detected += 1;
        } else {
            correct += 1;
        }
        let quantum_result = match exact::diameter(&g, ExactParams::new(fseed), cfg) {
            Ok(run) => Ok(run.value),
            Err(QdError::Classical(e)) => Err(e),
            Err(e) => panic!("quantum exact: untyped failure under faults: {e:?}"),
        };
        correct_or_detected(quantum_result, truth, "quantum exact");
    }
    assert!(detected > 0, "sweep never tripped fault detection");
    assert!(correct > 0, "sweep never completed a faulty run correctly");
}

/// The 3/2-approximation drivers under drops: correct-to-guarantee or
/// typed detection, never a silently out-of-range estimate.
#[test]
fn approx_drivers_degrade_gracefully_under_drops() {
    let g = graphs::generators::random_connected(20, 0.18, 5);
    let truth = graphs::metrics::diameter(&g).unwrap();
    for fseed in 0..8u64 {
        let plan = FaultPlan::new(fseed).with_drop(0.02);
        let cfg = Config::for_graph(&g).with_faults(plan);
        match hprw::approx_diameter(&g, HprwParams::classical(g.len(), fseed), cfg) {
            Ok(run) => assert!(
                run.estimate <= truth && run.estimate >= (2 * truth) / 3,
                "hprw estimate {} out of range for D={truth}",
                run.estimate
            ),
            Err(AlgoError::FaultDetected { .. }) => {}
            Err(e) => panic!("hprw: untyped failure under faults: {e:?}"),
        }
        match approx::diameter(&g, ApproxParams::new(fseed), cfg) {
            Ok(run) => assert!(
                run.estimate <= truth && run.estimate >= (2 * truth) / 3,
                "quantum approx estimate {} out of range for D={truth}",
                run.estimate
            ),
            Err(QdError::Classical(AlgoError::FaultDetected { .. })) => {}
            Err(e) => panic!("quantum approx: untyped failure under faults: {e:?}"),
        }
    }
}

/// Crash-stopping a node mid-protocol is always detected: the diameter of
/// the surviving network is not the diameter that was asked for.
#[test]
fn crash_stops_are_always_detected() {
    let g = graphs::generators::random_connected(18, 0.2, 3);
    for crashed in [0usize, 7, 17] {
        let plan = FaultPlan::new(1).with_crash(crashed, 2);
        let cfg = Config::for_graph(&g).with_faults(plan);
        let err = classical::apsp::exact_diameter(&g, cfg).unwrap_err();
        assert!(
            matches!(err, AlgoError::FaultDetected { .. }),
            "crash of {crashed} gave {err:?}"
        );
    }
}

/// Pure delivery jitter loses nothing, but it breaks the paper's timing
/// lemmas (a wave arriving late violates Lemma 3's arrival equation), so
/// runs either absorb it or report it — and heavy jitter is reported.
#[test]
fn jitter_is_detected_when_it_breaks_the_schedule() {
    let g = graphs::generators::random_connected(16, 0.2, 9);
    let truth = graphs::metrics::diameter(&g).unwrap();
    let mut detected = 0u32;
    for fseed in 0..6u64 {
        let plan = FaultPlan::new(fseed).with_delay(0.9, 3);
        let cfg = Config::for_graph(&g).with_faults(plan);
        if correct_or_detected(
            classical::apsp::exact_diameter(&g, cfg).map(|out| out.diameter),
            truth,
            "classical apsp under jitter",
        ) {
            detected += 1;
        }
    }
    assert!(detected > 0, "heavy jitter was never detected");
}

/// The quantum maximize resource cap aborts gracefully: the run completes,
/// flags `aborted`, and still returns a valid (if possibly suboptimal)
/// eccentricity window value.
#[test]
fn quantum_abort_is_graceful() {
    use quantum::{maximize, MaximizeParams, SearchState};
    use rand::{rngs::StdRng, SeedableRng};
    let n = 4096;
    let state = SearchState::uniform(n);
    let params = MaximizeParams::with_min_mass(1.0 / n as f64).with_cap_factor(1.0);
    let mut rng = StdRng::seed_from_u64(3);
    let out = maximize(&state, |x| x, params, &mut rng).unwrap();
    assert!(out.aborted);
    assert!(out.argmax < n);
}
