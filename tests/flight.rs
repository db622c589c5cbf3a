//! Flight-recorder and sampled-trace determinism across the execution
//! matrix: the observability layer is an observer of the *protocol*, so
//! its output must be byte-identical across scheduling modes and
//! fast-forwarding — the two knobs that change *how* a run executes
//! without changing *what* it computes. A fast-forwarded quiet
//! stretch enters the ring as one `RoundSkip`-mirroring span record, and
//! the window view must re-expand it to exactly the records a stepped run
//! produces.

use congest_diameter::prelude::*;
use proptest::prelude::*;

use congest::{FaultPlan, RunStats};
use trace::flight::{self, FlightRecorder, SamplePolicy, SampledSink};
use trace::{RoundRecord, TraceEvent};

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
/// compress, and the wake stagger keeps the active set sparse so dense
/// and active-set scheduling execute genuinely different node counts
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
    spans: usize,
    sampled: Vec<TraceEvent>,
    outputs: Vec<u32>,
}

/// Runs the sleepy flood under a flight recorder and a [`SampledSink`]
/// (rate 0.25, seeded by `sample_seed`) wrapped around an in-memory
/// recorder. The sampled stream is normalized with
/// [`trace::expand_round_skips`] before comparison: a fast-forwarding run
/// legitimately *represents* a quiet stretch as one `RoundSkip` event,
/// and the contract is that the normalized streams are byte-identical.
fn observed_run(g: &Graph, cfg: Config, sample_seed: u64, stagger: u64) -> Observed {
    let recorder = FlightRecorder::shared();
    let sink = std::rc::Rc::new(std::cell::RefCell::new(SampledSink::new(
        SamplePolicy::new(sample_seed, 0.25),
        trace::Recorder::new(),
    )));
    let (stats, outputs) = {
        let _flight = flight::install(recorder.clone());
        let _trace = trace::install(sink.clone() as trace::SharedSink);
        let mut net = congest::Network::new(g, cfg, |v| SleepyFlood {
            wake: v.index() as u64 * stagger % 97,
            best: u32::from(v),
        });
        let stats = net.run_until_quiescent(100_000).unwrap();
        (stats, net.into_outputs())
    };
    let rec = recorder.borrow();
    let sampled = trace::expand_round_skips(sink.borrow().inner().events().to_vec());
    Observed {
        stats,
        window: rec.window(),
        totals: rec.totals(),
        rounds: rec.rounds(),
        spans: rec.records().filter(|r| r.span > 1).count(),
        sampled,
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

    /// The tentpole's determinism contract: flight windows, lifetime
    /// totals, and the sampled trace are byte-identical across the full
    /// {Dense, ActiveSet} × fast-forward {on, off} matrix — a `RoundSkip`
    /// span must aggregate exactly as the rounds it covers would have,
    /// record by record.
    #[test]
    fn flight_and_sampled_trace_identical_across_matrix(
        g in arb_graph(),
        sample_seed in 0u64..1_000,
    ) {
        let base = Config::for_graph(&g);
        let reference = observed_run(&g, base, sample_seed, 7);
        prop_assert!(reference.totals.messages > 0, "inert workload");
        for sched in [Scheduling::Dense, Scheduling::ActiveSet] {
            for ff in [true, false] {
                let cfg = base.with_scheduling(sched).with_fast_forward(ff);
                let run = observed_run(&g, cfg, sample_seed, 7);
                let knob = format!("sched={sched:?} ff={ff}");
                prop_assert_eq!(&run.stats, &reference.stats, "stats diverged at {}", &knob);
                prop_assert_eq!(&run.outputs, &reference.outputs, "answers diverged at {}", &knob);
                prop_assert_eq!(run.rounds, reference.rounds, "round count diverged at {}", &knob);
                prop_assert_eq!(&run.window, &reference.window, "window diverged at {}", &knob);
                prop_assert_eq!(&run.totals, &reference.totals, "totals diverged at {}", &knob);
                prop_assert_eq!(&run.sampled, &reference.sampled, "sample diverged at {}", &knob);
            }
        }
    }

    /// Under a seeded fault plan the recorder's fault column replays
    /// byte-identically too: fault fates are a pure function of
    /// (plan seed, round, edge), so the per-round records they land in
    /// cannot move across scheduling modes.
    #[test]
    fn flight_fault_column_replays_across_matrix(
        g in arb_graph(),
        fault_seed in 0u64..1_000,
    ) {
        let plan = FaultPlan::new(fault_seed)
            .with_drop(0.08)
            .with_corrupt(0.04)
            .with_delay(0.15, 3);
        let base = Config::for_graph(&g).with_faults(plan);
        let reference = observed_run(&g, base, 0, 7);
        for sched in [Scheduling::Dense, Scheduling::ActiveSet] {
            let run = observed_run(&g, base.with_scheduling(sched), 0, 7);
            let knob = format!("sched={sched:?}");
            prop_assert_eq!(&run.window, &reference.window, "window diverged at {}", &knob);
            prop_assert_eq!(&run.totals, &reference.totals, "totals diverged at {}", &knob);
        }
    }
}

/// A long staggered-wake run on a path: fast-forward *must* compress
/// quiet stretches into span records, and the stepped reference must
/// normalize to the identical window and totals.
#[test]
fn fast_forward_spans_aggregate_exactly_as_stepped_rounds() {
    let g = graphs::generators::path(24);
    let base = Config::for_graph(&g).with_scheduling(Scheduling::ActiveSet);
    let fast = observed_run(&g, base.with_fast_forward(true), 3, 13);
    let stepped = observed_run(&g, base.with_fast_forward(false), 3, 13);
    assert!(
        fast.spans > 0,
        "workload produced no quiet stretch to fast-forward"
    );
    assert_eq!(stepped.spans, 0, "a stepped run must not contain spans");
    assert_eq!(fast.rounds, stepped.rounds);
    assert_eq!(fast.window, stepped.window);
    assert_eq!(fast.totals, stepped.totals);
    assert_eq!(fast.stats, stepped.stats);
    // The span compression is real: fewer physical records than rounds.
    assert!((fast.rounds as usize) > fast.window.len() - fast.spans);
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
