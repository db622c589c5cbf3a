//! End-to-end telemetry reconciliation: a traced run of the Theorem 1
//! algorithm must produce a JSONL event stream whose aggregates agree
//! *exactly* with the run's own `RunStats`/`OracleCost` accounting — the
//! trace layer is an observer, never a second (drifting) bookkeeper.

use congest::Config;
use congest_diameter::prelude::*;
use graphs::{generators, metrics};
use quantum_diameter::exact;

/// Traced exact run on the 8×8 torus: write the trace through a
/// [`trace::FileSink`], read it back, and reconcile every aggregate
/// against [`exact::DiameterRun`].
#[test]
fn traced_exact_run_reconciles_with_its_own_accounting() {
    let g = generators::torus(8, 8);
    let cfg = Config::for_graph(&g);
    let dir = std::env::temp_dir().join("qdiam-trace-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("exact-torus.jsonl");

    let sink = trace::FileSink::shared(&path).unwrap();
    let run = {
        let _guard = trace::install(sink.clone());
        exact::diameter(&g, ExactParams::new(5).with_failure_prob(1e-3), cfg).unwrap()
    };
    trace::TraceSink::flush(&mut *sink.borrow_mut()).unwrap();
    assert!(sink.borrow_mut().take_error().is_none());

    let events = trace::read_jsonl(&path).unwrap();
    assert_eq!(events.len() as u64, sink.borrow().lines_written());
    let summary = trace::Summary::from_events(&events);

    // The answer itself, both in the run and as a trace value.
    assert_eq!(run.value, metrics::diameter(&g).unwrap());
    assert!(summary
        .values()
        .iter()
        .any(|(label, v)| label == "diameter" && *v == u64::from(run.value)));

    // Every phase span — initialization, the schedule-measuring probes, the
    // sampled verification runs, and the derived Theorem 7 quantum phase —
    // must add up to the ledgers plus the charged quantum rounds.
    assert_eq!(
        summary.total_phase_rounds(),
        run.init_ledger.total_rounds() + run.probe_ledger.total_rounds() + run.quantum_rounds
    );

    // Each charged oracle application appears once, and the per-application
    // schedules re-add to the Theorem 7 conversion.
    assert_eq!(summary.oracle_setup_ops, run.oracle.setup_ops());
    assert_eq!(summary.oracle_evaluation_ops, run.oracle.evaluation_ops());
    assert_eq!(
        summary.oracle_setup_rounds + summary.oracle_evaluation_rounds,
        run.quantum_rounds
    );
    assert_eq!(
        summary.oracle_setup_rounds,
        run.oracle.setup_ops() * run.oracle_schedule.setup_rounds
    );

    // Per-event traffic reconciles with the *non-derived* spans: every
    // `Message`/`Round` tick belongs to exactly one physically simulated
    // phase, and derived spans (uncompute, scheduled quantum rounds)
    // contribute none.
    assert_eq!(
        summary.messages_delivered,
        summary.simulated_phase_messages()
    );
    assert_eq!(summary.round_ticks, summary.simulated_phase_rounds());
    assert!(summary.messages_delivered > 0);

    // Round ticks carry *actual* deliveries (messages drained at round
    // start), so their sum can never exceed the sent-message count, and
    // falls short exactly by the messages still in flight when a
    // fixed-duration phase (the Figure 2 waves) ends.
    assert!(summary.round_deliveries > 0);
    assert!(summary.round_deliveries <= summary.messages_delivered);

    // Per-edge rollups partition the global message count.
    let edge_messages: u64 = summary.edges().values().map(|e| e.messages).sum();
    assert_eq!(edge_messages, summary.messages_delivered);
    let edge_bits: u64 = summary.edges().values().map(|e| e.bits).sum();
    assert_eq!(edge_bits, summary.bits_delivered);

    // The analytic memory estimate is reported for both scopes.
    let highwater = summary.qubit_highwater();
    assert!(highwater
        .iter()
        .any(|(s, q)| s == "per-node" && *q == run.memory.per_node_qubits as u64));
    assert!(highwater
        .iter()
        .any(|(s, q)| s == "leader" && *q == run.memory.leader_qubits as u64));

    // The Figure 2 wave invariant (Lemmas 2–4) is an observable metric:
    // waves were seen and never carried two distinct surviving messages.
    assert!(summary.wave_observations > 0);
    assert_eq!(summary.wave_max_distinct, 1);
}

/// A full O(√(nD)) exact run stays inside the canonical CONGEST
/// bandwidth budget: it completes under it, and no phase of either
/// ledger records a message wider than the budget.
#[test]
fn full_exact_run_fits_the_bandwidth_budget() {
    let g = generators::torus(6, 6);
    let cfg = Config::for_graph(&g);
    let run = exact::diameter(&g, ExactParams::new(2).with_failure_prob(1e-3), cfg).unwrap();
    assert_eq!(run.value, metrics::diameter(&g).unwrap());

    for (label, stats, _) in run.init_ledger.phases().chain(run.probe_ledger.phases()) {
        assert!(
            stats.max_message_bits <= cfg.bandwidth_bits(),
            "phase '{label}' sent {} bits over a {}-bit budget",
            stats.max_message_bits,
            cfg.bandwidth_bits()
        );
    }
}

/// The approximation pipeline reconciles the same way (and emits no
/// duplicate spans for the HPRW phases it re-ledgers under a prefix).
#[test]
fn traced_approx_run_reconciles_with_its_own_accounting() {
    let g = generators::torus(6, 6);
    let cfg = Config::for_graph(&g);

    let recorder = trace::Recorder::shared();
    let run = {
        let _guard = trace::install(recorder.clone());
        quantum_diameter::approx::diameter(&g, ApproxParams::new(4).with_failure_prob(1e-3), cfg)
            .unwrap()
    };
    let events = recorder.borrow_mut().take();
    let summary = trace::Summary::from_events(&events);

    assert_eq!(
        summary.total_phase_rounds(),
        run.prep_ledger.total_rounds() + run.probe_ledger.total_rounds() + run.quantum_rounds
    );
    assert_eq!(
        summary.messages_delivered,
        summary.simulated_phase_messages()
    );
    assert_eq!(summary.round_ticks, summary.simulated_phase_rounds());
    assert!(summary.round_deliveries > 0);
    assert!(summary.round_deliveries <= summary.messages_delivered);
    assert_eq!(summary.oracle_setup_ops, run.oracle.setup_ops());
    assert_eq!(summary.oracle_evaluation_ops, run.oracle.evaluation_ops());
    assert!(summary
        .values()
        .iter()
        .any(|(label, v)| label == "diameter estimate" && *v == u64::from(run.estimate)));
}
