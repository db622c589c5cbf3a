//! Metric ↔ trace ↔ ledger reconciliation: the cost-metrics registry is an
//! observer of the same events the trace layer and the simulator's own
//! `RunStats`/`RoundsLedger` accounting see, so every total must agree
//! *exactly*, and a run's registry must replay exactly.

use congest::{Config, FaultPlan, Network, NodeProgram, Payload, RoundCtx, Status};
use congest_diameter::prelude::*;
use graphs::{generators, NodeId};
use metrics::registry::DEFAULT_BITS_BUCKETS;
use quantum_diameter::exact::ExactParams;

/// One classical APSP run with a metrics registry and a trace recorder
/// both installed; returns the registry, the trace summary, and the run's
/// own ledger.
fn instrumented_apsp(
    g: &graphs::Graph,
    cfg: Config,
) -> (metrics::Registry, trace::Summary, congest::RoundsLedger) {
    let registry = metrics::Registry::shared();
    let recorder = trace::Recorder::shared();
    let out = {
        let _m = metrics::install(registry.clone());
        let _t = trace::install(recorder.clone());
        classical::apsp::exact_diameter(g, cfg).unwrap()
    };
    let summary = trace::Summary::from_events(&recorder.borrow_mut().take());
    let registry = std::rc::Rc::try_unwrap(registry).unwrap().into_inner();
    (registry, summary, out.ledger)
}

/// Every charged byte agrees three ways: metrics counters == trace
/// delivered totals == the run's own per-phase ledger.
#[test]
fn cost_metrics_reconcile_with_trace_and_ledger() {
    let g = generators::random_sparse(40, 5.0, 7);
    let cfg = Config::for_graph(&g);
    let (registry, summary, ledger) = instrumented_apsp(&g, cfg);

    let messages = registry.counter(metrics::names::MESSAGES);
    let payload = registry.counter(metrics::names::PAYLOAD_BITS);
    let wire = registry.counter(metrics::names::WIRE_BITS);
    let rounds = registry.counter(metrics::names::ROUNDS);

    // Metrics == trace: both charge at the exact commit point of a send.
    assert_eq!(messages, summary.messages_delivered);
    assert_eq!(payload, summary.bits_delivered);

    // Metrics == the simulator's own books.
    assert_eq!(messages, ledger.total_messages());
    assert_eq!(payload, ledger.total_bits());
    assert_eq!(rounds, ledger.total_rounds());

    // The cost model charges every message its framing, so the wire total
    // is exactly payload + framing — no rounding residue.
    assert_eq!(
        wire,
        payload + metrics::CostModel::default().header_bits * messages
    );
    assert!(messages > 0 && payload > 0);
}

/// The message-width histogram is the same stream the counters saw:
/// its count and sum equal the message/payload counters, and the bucket
/// counts partition the count.
#[test]
fn histogram_buckets_reconcile_with_counters() {
    let g = generators::torus(6, 6);
    let (registry, _, _) = instrumented_apsp(&g, Config::for_graph(&g));

    let h = registry
        .histogram(metrics::names::MESSAGE_BITS)
        .expect("message-width histogram recorded");
    assert_eq!(h.count(), registry.counter(metrics::names::MESSAGES));
    assert_eq!(h.sum(), registry.counter(metrics::names::PAYLOAD_BITS));
    assert_eq!(h.bucket_counts().iter().sum::<u64>(), h.count());
    assert_eq!(h.cumulative_counts().last().copied(), Some(h.count()));
}

/// A message of an explicit width.
#[derive(Clone, Debug)]
struct Wide(usize);

impl Payload for Wide {
    fn size_bits(&self) -> usize {
        self.0
    }
}

/// Chatters for a fixed number of rounds with widths from 1 bit to 700,
/// across every histogram boundary: even nodes broadcast, odd nodes send
/// to their first neighbour.
struct Chatter {
    rounds: u64,
}

impl NodeProgram for Chatter {
    type Msg = Wide;
    type Output = ();
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Wide>) -> Status {
        const WIDTHS: [usize; 13] = [1, 3, 4, 5, 9, 16, 17, 64, 65, 200, 512, 513, 700];
        if ctx.round() >= self.rounds {
            return Status::Halted;
        }
        let v = ctx.node().index();
        let width = WIDTHS[(v * 7 + ctx.round() as usize) % WIDTHS.len()];
        if v % 2 == 0 {
            ctx.broadcast(Wide(width));
        } else if let Some(&to) = ctx.neighbors().first() {
            ctx.send(to, Wide(width));
        }
        Status::Active
    }
    fn finish(self, _node: NodeId) {}
}

/// The registry, charged once per round from the scheduler's round tally,
/// holds exactly what charging every traced message and fault one by one
/// gives: every counter, and every bucket of the width histogram. Checked
/// fault-free and under a drop/crash plan, on traffic that fills
/// every width bucket under a budget as wide as its widest message; the
/// fault-free registry is also the same with no trace sink installed,
/// where the commit stages without per-message work.
#[test]
fn per_round_registry_matches_a_per_message_oracle() {
    let g = generators::random_sparse(40, 5.0, 11);
    let wide = Config::new(700);
    let plan = FaultPlan::new(5).with_drop(0.1).with_crash(4, 3);
    let run = |cfg: Config, traced: bool| {
        let registry = metrics::Registry::shared();
        let recorder = trace::Recorder::shared();
        {
            let _m = metrics::install(registry.clone());
            let _t = traced.then(|| trace::install(recorder.clone()));
            let mut net = Network::new(&g, cfg, |_| Chatter { rounds: 12 });
            net.run_until_quiescent(1_000).unwrap();
        }
        let events = recorder.borrow_mut().take();
        let registry = std::rc::Rc::try_unwrap(registry).unwrap().into_inner();
        (registry, events)
    };
    for (cfg, faulty) in [(wide, false), (wide.with_faults(plan), true)] {
        let (registry, events) = run(cfg, true);
        let mut widths = metrics::Histogram::new(&DEFAULT_BITS_BUCKETS);
        let (mut messages, mut payload, mut wire) = (0, 0, 0);
        let mut faults = 0;
        for event in &events {
            match *event {
                trace::TraceEvent::Message { bits, .. } => {
                    widths.observe(bits);
                    messages += 1;
                    payload += bits;
                    wire += metrics::CostModel::default().wire_bits(bits);
                }
                trace::TraceEvent::Fault { .. } => faults += 1,
                _ => {}
            }
        }
        assert!(widths.bucket_counts().iter().all(|&c| c > 0), "{widths:?}");
        assert_eq!(faulty, faults > 0, "faults {faults}");
        let counter = |name| registry.counter(name);
        assert_eq!(counter(metrics::names::MESSAGES), messages);
        assert_eq!(counter(metrics::names::PAYLOAD_BITS), payload);
        assert_eq!(counter(metrics::names::WIRE_BITS), wire);
        assert_eq!(counter(metrics::names::FAULTS), faults);
        let names = registry.counters();
        assert_eq!(names.contains_key(metrics::names::FAULTS), faulty);
        assert_eq!(
            registry.histogram(metrics::names::MESSAGE_BITS),
            Some(&widths)
        );
        if !faulty {
            assert_eq!(run(cfg, false).0, registry, "untraced registry");
        }
    }
}

/// A run's registry replays exactly (`Registry::eq` ignores wall-clock
/// spans and the scheduler/memory telemetry family), and so do the trace
/// totals it reconciles against.
#[test]
fn registries_are_identical_across_scheduling_modes() {
    let g = generators::random_sparse(36, 5.0, 3);
    let cfg = Config::for_graph(&g);
    let (first, first_summary, _) = instrumented_apsp(&g, cfg);
    let (again, summary, _) = instrumented_apsp(&g, cfg);
    assert_eq!(again, first, "registry diverged");
    assert_eq!(summary.messages_delivered, first_summary.messages_delivered);
    assert_eq!(summary.bits_delivered, first_summary.bits_delivered);
}

/// A full Theorem 1 run charges its quantum phase through the oracle
/// counters, and those reconcile exactly with the run's `OracleCost` and
/// measured per-application `DistributedOracle` schedule.
#[test]
fn oracle_counters_reconcile_with_the_exact_run() {
    let g = generators::torus(6, 6);
    let cfg = Config::for_graph(&g);
    let registry = metrics::Registry::shared();
    let recorder = trace::Recorder::shared();
    let run = {
        let _m = metrics::install(registry.clone());
        let _t = trace::install(recorder.clone());
        quantum_diameter::exact::diameter(&g, ExactParams::new(5).with_failure_prob(1e-3), cfg)
            .unwrap()
    };
    let summary = trace::Summary::from_events(&recorder.borrow_mut().take());
    let registry = registry.borrow();

    assert_eq!(
        registry.counter(metrics::names::ORACLE_SETUP_OPS),
        run.oracle.setup_ops()
    );
    assert_eq!(
        registry.counter(metrics::names::ORACLE_EVALUATION_OPS),
        run.oracle.evaluation_ops()
    );
    // The Theorem 7 conversion: charged applications × measured schedule.
    assert_eq!(
        registry.counter(metrics::names::ORACLE_ROUNDS),
        run.quantum_rounds
    );
    assert_eq!(
        registry.counter(metrics::names::ORACLE_QUBITS),
        run.oracle_schedule.qubits_for(&run.oracle)
    );
    assert_eq!(
        registry.counter(metrics::names::ORACLE_MESSAGES),
        run.oracle_schedule.messages_for(&run.oracle)
    );
    assert!(registry.counter(metrics::names::ORACLE_QUBITS) > 0);

    // Classical traffic reconciles against the trace as usual.
    assert_eq!(
        registry.counter(metrics::names::MESSAGES),
        summary.messages_delivered
    );
    assert_eq!(
        registry.counter(metrics::names::PAYLOAD_BITS),
        summary.bits_delivered
    );

    // Phase-round counters (simulated + derived families together) are the
    // same spans the trace summary aggregates.
    let phase_total: u64 = registry
        .counters()
        .iter()
        .filter(|(name, _)| {
            name.starts_with(metrics::names::PHASE_ROUNDS)
                || name.starts_with(metrics::names::PHASE_ROUNDS_DERIVED)
        })
        .map(|(_, v)| v)
        .sum();
    assert_eq!(phase_total, summary.total_phase_rounds());

    // The analytic memory estimate lands in the gauges.
    assert_eq!(
        registry.gauge(metrics::names::PER_NODE_QUBITS),
        Some(run.memory.per_node_qubits as f64)
    );
    assert_eq!(
        registry.gauge(metrics::names::LEADER_QUBITS),
        Some(run.memory.leader_qubits as f64)
    );
}

/// With no registry installed, nothing observes the run — and the run is
/// not observable: a later installed-registry run must charge identical
/// totals (installation cannot perturb the protocol).
#[test]
fn metrics_are_strictly_opt_in() {
    let g = generators::random_sparse(30, 5.0, 1);
    let cfg = Config::for_graph(&g);
    assert!(!metrics::enabled());
    let bare = classical::apsp::exact_diameter(&g, cfg).unwrap();

    let registry = metrics::Registry::shared();
    let instrumented = {
        let _m = metrics::install(registry.clone());
        assert!(metrics::enabled());
        classical::apsp::exact_diameter(&g, cfg).unwrap()
    };
    assert!(!metrics::enabled());

    assert_eq!(bare.diameter, instrumented.diameter);
    assert_eq!(
        bare.ledger.total_messages(),
        instrumented.ledger.total_messages()
    );
    assert_eq!(
        registry.borrow().counter(metrics::names::MESSAGES),
        instrumented.ledger.total_messages()
    );
}
