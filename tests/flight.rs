//! Flight-recorder and sampled-trace determinism: the observability layer
//! is an observer of the *protocol*, so its output must not depend on how
//! the simulator executes a run. The network skips halted nodes and
//! fast-forwards quiet stretches; the reference simulator steps every
//! node every round. A fast-forwarded stretch enters the ring as one
//! `RoundSkip`-mirroring span record, and the window view must re-expand
//! it to exactly the records the reference's stepped trace rebuilds into.

use congest_diameter::prelude::*;
use proptest::prelude::*;

use congest::reference::Reference;
use congest::{FaultPlan, RunStats};
use trace::flight::{self, FlightRecorder, SamplePolicy, SampledSink};
use trace::{RoundRecord, TraceEvent, TraceSink};

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

/// Everything one observed run produces: the simulator's own stats, the
/// flight recorder's normalized window + lifetime totals, and the
/// deterministically sampled event stream.
struct Observed {
    stats: RunStats,
    window: Vec<RoundRecord>,
    totals: RoundRecord,
    rounds: u64,
    sampled: Vec<TraceEvent>,
    outputs: Vec<u32>,
}

fn sleepy(stagger: u64) -> impl Fn(NodeId) -> SleepyFlood {
    move |v| SleepyFlood {
        wake: v.index() as u64 * stagger % 97,
        best: u32::from(v),
    }
}

fn sample_policy(sample_seed: u64) -> SamplePolicy {
    SamplePolicy::new(sample_seed, 0.25)
}

/// Runs the sleepy flood on the network under a live flight recorder and
/// a [`SampledSink`] (rate 0.25, seeded by `sample_seed`) wrapped around
/// an in-memory recorder. The sampled stream is normalized with
/// [`trace::expand_round_skips`] before comparison: a fast-forwarding run
/// legitimately *represents* a quiet stretch as one `RoundSkip` event.
fn observed_run(g: &Graph, cfg: Config, sample_seed: u64, stagger: u64) -> Observed {
    let recorder = FlightRecorder::shared();
    let sink = std::rc::Rc::new(std::cell::RefCell::new(SampledSink::new(
        sample_policy(sample_seed),
        trace::Recorder::new(),
    )));
    let (stats, outputs) = {
        let _flight = flight::install(recorder.clone());
        let _trace = trace::install(sink.clone() as trace::SharedSink);
        let mut net = congest::Network::new(g, cfg, sleepy(stagger));
        let stats = net.run_until_quiescent(100_000).unwrap();
        (stats, net.into_outputs())
    };
    let sampled = trace::expand_round_skips(sink.borrow().inner().events().to_vec());
    let rec = recorder.borrow();
    Observed {
        stats,
        window: rec.window(),
        totals: rec.totals(),
        rounds: rec.rounds(),
        sampled,
        outputs,
    }
}

/// The same run on the reference simulator, which charges no flight
/// recorder: the recorder is rebuilt from its full event stream
/// ([`FlightRecorder::from_events`]), and the stream is sampled by the
/// same policy.
fn reference_run(g: &Graph, cfg: Config, sample_seed: u64, stagger: u64) -> Observed {
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
    let mut sampled = SampledSink::new(sample_policy(sample_seed), trace::Recorder::new());
    for event in &events {
        sampled.record(event);
    }
    Observed {
        stats,
        window: rec.window(),
        totals: rec.totals(),
        rounds: rec.rounds(),
        sampled: sampled.inner().events().to_vec(),
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

    /// Flight windows, lifetime totals, and the sampled trace of the
    /// network match the reference simulator's — a `RoundSkip` span must
    /// aggregate exactly as the rounds it covers would have, record by
    /// record.
    #[test]
    fn flight_and_sampled_trace_identical_across_matrix(
        g in arb_graph(),
        sample_seed in 0u64..1_000,
    ) {
        let cfg = Config::for_graph(&g);
        let expect = reference_run(&g, cfg, sample_seed, 7);
        prop_assert!(expect.totals.messages > 0, "inert workload");
        let run = observed_run(&g, cfg, sample_seed, 7);
        prop_assert_eq!(&run.stats, &expect.stats, "stats diverged");
        prop_assert_eq!(&run.outputs, &expect.outputs, "answers diverged");
        prop_assert_eq!(run.rounds, expect.rounds, "round count diverged");
        prop_assert_eq!(&run.window, &expect.window, "window diverged");
        prop_assert_eq!(&run.totals, &expect.totals, "totals diverged");
        prop_assert_eq!(&run.sampled, &expect.sampled, "sample diverged");
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
        let expect = reference_run(&g, cfg, 0, 7);
        let run = observed_run(&g, cfg, 0, 7);
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
