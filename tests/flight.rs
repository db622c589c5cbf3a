//! Flight-recorder determinism: the observability layer is an observer of
//! the *protocol*, so its output must not depend on how the simulator
//! executes a run. The network skips halted nodes and
//! fast-forwards quiet stretches; the reference simulator steps every
//! node every round. A fast-forwarded stretch enters the ring as one
//! `RoundSkip`-mirroring span record, and the window view must re-expand
//! it to exactly the records the reference's stepped trace rebuilds into.

use congest_diameter::prelude::*;
use proptest::prelude::*;

use congest::reference::Reference;
use congest::{FaultPlan, RecoveryPolicy, RunStats};
use trace::flight::{self, FlightRecorder};
use trace::RoundRecord;

/// A small id message, sized under the O(log n) budget of the smallest
/// test graph (the flight recorder charges its bits).
#[derive(Clone, Debug)]
struct IdMsg(u32);
impl congest::Payload for IdMsg {
    fn size_bits(&self) -> usize {
        16
    }
}

/// Min-id flood whose nodes sleep until staggered wake rounds: the
/// `Status::Sleep` stretches give fast-forward real `RoundSkip` spans to
/// compress, and the wake stagger keeps the active set sparse so the
/// network and the reference execute genuinely different node counts
/// over identical traffic.
struct SleepyFlood {
    wake: u64,
    best: u32,
}

impl congest::NodeProgram for SleepyFlood {
    type Msg = IdMsg;
    type Output = u32;

    fn on_round(&mut self, ctx: &mut congest::RoundCtx<'_, IdMsg>) -> congest::Status {
        let mut improved = ctx.round() == self.wake;
        for &(_, IdMsg(v)) in ctx.inbox() {
            if v < self.best {
                self.best = v;
                improved = true;
            }
        }
        if improved {
            ctx.broadcast(IdMsg(self.best));
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

/// Everything one observed run produces: the simulator's own stats and
/// the flight recorder's normalized window + lifetime totals.
struct Observed {
    stats: RunStats,
    window: Vec<RoundRecord>,
    totals: RoundRecord,
    rounds: u64,
    outputs: Vec<u32>,
}

fn sleepy(stagger: u64) -> impl Fn(NodeId) -> SleepyFlood {
    move |v| SleepyFlood {
        wake: v.index() as u64 * stagger % 97,
        best: u32::from(v),
    }
}

/// Runs the sleepy flood on the network under a live flight recorder.
fn observed_run(g: &Graph, cfg: Config, stagger: u64) -> Observed {
    let recorder = FlightRecorder::shared();
    let (stats, outputs) = {
        let _flight = flight::install(recorder.clone());
        let mut net = congest::Network::new(g, cfg, sleepy(stagger));
        let stats = net.run_until_quiescent(100_000).unwrap();
        (stats, net.into_outputs())
    };
    let rec = recorder.borrow();
    Observed {
        stats,
        window: rec.window(),
        totals: rec.totals(),
        rounds: rec.rounds(),
        outputs,
    }
}

/// The same run on the reference simulator, which charges no flight
/// recorder: the recorder is rebuilt from its full event stream
/// ([`FlightRecorder::from_events`]).
fn reference_run(g: &Graph, cfg: Config, stagger: u64) -> Observed {
    let full = trace::Recorder::shared();
    let (stats, outputs) = {
        let _trace = trace::install(full.clone());
        let mut reference = Reference::new(g, cfg, sleepy(stagger));
        let stats = reference.run_until_quiescent(100_000).unwrap();
        assert_eq!(reference.breach(), None);
        (stats, reference.into_outputs())
    };
    let events = full.borrow_mut().take();
    let rec = FlightRecorder::from_events(flight::DEFAULT_CAPACITY, &events);
    Observed {
        stats,
        window: rec.window(),
        totals: rec.totals(),
        rounds: rec.rounds(),
        outputs,
    }
}

/// A connected random graph for the determinism matrix.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (6usize..28, 0u64..1_000_000)
        .prop_map(|(n, seed)| graphs::generators::random_connected(n, 0.15, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Flight windows and lifetime totals of the network match the
    /// reference simulator's — a `RoundSkip` span must aggregate exactly
    /// as the rounds it covers would have, record by record.
    #[test]
    fn flight_identical_across_matrix(g in arb_graph()) {
        let cfg = Config::for_graph(&g);
        let expect = reference_run(&g, cfg, 7);
        prop_assert!(expect.totals.messages > 0, "inert workload");
        let run = observed_run(&g, cfg, 7);
        prop_assert_eq!(&run.stats, &expect.stats, "stats diverged");
        prop_assert_eq!(&run.outputs, &expect.outputs, "answers diverged");
        prop_assert_eq!(run.rounds, expect.rounds, "round count diverged");
        prop_assert_eq!(&run.window, &expect.window, "window diverged");
        prop_assert_eq!(&run.totals, &expect.totals, "totals diverged");
    }

    /// Under a seeded fault plan the recorder's fault column matches the
    /// reference too: fault fates are a pure function of (plan seed,
    /// round, edge), so the per-round records they land in cannot move.
    #[test]
    fn flight_fault_column_replays_across_matrix(
        g in arb_graph(),
        fault_seed in 0u64..1_000,
    ) {
        let plan = FaultPlan::new(fault_seed)
            .with_drop(0.08)
            .with_corrupt(0.04)
            .with_delay(0.15, 3);
        let cfg = Config::for_graph(&g).with_faults(plan);
        let expect = reference_run(&g, cfg, 7);
        let run = observed_run(&g, cfg, 7);
        prop_assert!(expect.totals.faults > 0, "plan injected nothing");
        prop_assert_eq!(&run.window, &expect.window, "window diverged");
        prop_assert_eq!(&run.totals, &expect.totals, "totals diverged");
    }
}

/// Rebuilding a recorder from the run's own full-fidelity event stream
/// (`FlightRecorder::from_events`) reproduces the live-charged records —
/// the recorder and the trace are two views of one accounting, end to
/// end through the real simulator.
#[test]
fn event_sourced_recorder_matches_live_charging_end_to_end() {
    let g = graphs::generators::random_connected(20, 0.2, 11);
    let cfg = Config::for_graph(&g);
    let recorder = FlightRecorder::shared();
    let full = trace::Recorder::shared();
    let stats = {
        let _flight = flight::install(recorder.clone());
        let _trace = trace::install(full.clone());
        let mut net = congest::Network::new(&g, cfg, |v| SleepyFlood {
            wake: (v.index() as u64 * 7) % 23,
            best: u32::from(v),
        });
        net.run_until_quiescent(100_000).unwrap()
    };
    let live = recorder.borrow();
    let replayed =
        FlightRecorder::from_events(trace::flight::DEFAULT_CAPACITY, full.borrow().events());
    assert_eq!(replayed.rounds(), live.rounds());
    assert_eq!(replayed.window(), live.window());
    assert_eq!(replayed.totals(), live.totals());
    assert_eq!(live.totals().messages, stats.messages);
    assert_eq!(live.totals().bits, stats.total_bits);
}

/// The same end to end for a recovering run: BFS with claim
/// retransmission under a drop plan, built from several roots in turn
/// under one recorder. Each build that resends claims notes a recovery
/// (`congest::recovery::note_recovery`) between rounds, which the next
/// build's first record carries; the recorder rebuilt from the run's own
/// trace must agree, recoveries and faults columns included.
#[test]
fn event_sourced_recorder_matches_a_retransmitting_run() {
    let g = graphs::generators::random_connected(24, 0.2, 5);
    let cfg = Config::for_graph(&g)
        .with_faults(FaultPlan::new(3).with_drop(0.01))
        .with_recovery(RecoveryPolicy::new().with_retransmit(2));
    let recorder = FlightRecorder::shared();
    let full = trace::Recorder::shared();
    let built = {
        let _flight = flight::install(recorder.clone());
        let _trace = trace::install(full.clone());
        (0..6)
            .filter(|&root| classical::bfs::build(&g, NodeId::new(root), cfg).is_ok())
            .count()
    };
    let live = recorder.borrow();
    let replayed =
        FlightRecorder::from_events(trace::flight::DEFAULT_CAPACITY, full.borrow().events());
    assert!(built >= 2, "only {built} of 6 builds succeeded");
    assert!(live.totals().faults > 0, "the plan injected nothing");
    assert!(
        live.window().iter().any(|r| r.recoveries > 0),
        "no recovery landed in the window"
    );
    assert_eq!(replayed.rounds(), live.rounds());
    assert_eq!(replayed.window(), live.window());
    assert_eq!(replayed.totals(), live.totals());
}
