//! Zero-dependency metrics for CONGEST simulations: counters, gauges,
//! fixed-bucket histograms, a hierarchical wall-clock phase profiler, and a
//! constant-honest communication [`CostModel`].
//!
//! Where `trace` records *events* (what happened, per message), this crate
//! records *aggregates* (how much it cost, in real units: bits on the wire,
//! qubits per oracle application, nanoseconds per phase). The two layers are
//! designed to reconcile exactly: the simulator tallies each round's traffic
//! at the commit point where it emits `TraceEvent::Message` and charges the
//! registry the round's totals in one bulk charge when the round closes
//! ([`Registry::charge_messages`]), so the [`names::PAYLOAD_BITS`] counter
//! always equals the trace layer's delivered-bits total.
//!
//! Installation mirrors `trace`: metrics are strictly opt-in via a
//! thread-local RAII guard, and with no registry installed every charge site
//! short-circuits on a single thread-local read.
//!
//! ```
//! let registry = metrics::Registry::shared();
//! {
//!     let _guard = metrics::install(registry.clone());
//!     metrics::add(metrics::names::ROUNDS, 3);
//! }
//! assert_eq!(registry.borrow().counter(metrics::names::ROUNDS), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod export;
pub mod profile;
pub mod registry;

pub use cost::CostModel;
pub use profile::{span, Span};
pub use registry::{Histogram, Registry, SharedRegistry, SpanStats};

use std::cell::RefCell;

/// Well-known metric names, shared by the simulator, the drivers, and the
/// reconciliation tests so they never drift apart.
pub mod names {
    /// Messages delivered by the simulator (counter), charged once per
    /// round from the round's tally — reconciles with
    /// `trace::Summary::messages_delivered` and `RunStats::messages`.
    pub const MESSAGES: &str = "qd_messages_total";
    /// Payload bits delivered (counter), charged once per round with
    /// [`MESSAGES`] — reconciles with `trace::Summary::bits_delivered` and
    /// `RunStats::total_bits`.
    pub const PAYLOAD_BITS: &str = "qd_payload_bits_total";
    /// Wire bits delivered: payload plus per-message framing charged by the
    /// [`crate::CostModel`] (counter).
    pub const WIRE_BITS: &str = "qd_wire_bits_total";
    /// Simulated rounds ticked, including fast-forwarded quiescent rounds
    /// (counter) — reconciles with `trace::Summary::round_ticks`.
    pub const ROUNDS: &str = "qd_rounds_total";
    /// Per-message payload-width distribution in bits (histogram).
    pub const MESSAGE_BITS: &str = "qd_message_bits";
    /// Ledger phase rounds, labelled `{phase="..."}` (counter family).
    pub const PHASE_ROUNDS: &str = "qd_phase_rounds_total";
    /// Rounds of *derived* phases — accounting artifacts (uncomputation,
    /// Theorem 7 scheduled rounds) never individually simulated; kept as a
    /// separate `{phase="..."}` family so [`PHASE_ROUNDS`] reconciles
    /// against [`ROUNDS`] exactly (counter family).
    pub const PHASE_ROUNDS_DERIVED: &str = "qd_phase_rounds_derived_total";
    /// Charged `Setup`/`Setup⁻¹` oracle applications (counter).
    pub const ORACLE_SETUP_OPS: &str = "qd_oracle_setup_ops_total";
    /// Charged `Evaluation`/`Evaluation⁻¹` oracle applications (counter).
    pub const ORACLE_EVALUATION_OPS: &str = "qd_oracle_evaluation_ops_total";
    /// CONGEST rounds charged to the quantum phase (Theorem 7 conversion,
    /// counter).
    pub const ORACLE_ROUNDS: &str = "qd_oracle_rounds_total";
    /// Qubits communicated network-wide by charged oracle applications
    /// (counter): ops × measured per-application qubit width.
    pub const ORACLE_QUBITS: &str = "qd_oracle_qubit_sends_total";
    /// Quantum messages scheduled by charged oracle applications (counter).
    pub const ORACLE_MESSAGES: &str = "qd_oracle_messages_total";
    /// Analytic per-node quantum memory (gauge, qubits).
    pub const PER_NODE_QUBITS: &str = "qd_memory_per_node_qubits";
    /// Analytic leader quantum memory (gauge, qubits).
    pub const LEADER_QUBITS: &str = "qd_memory_leader_qubits";
    /// Faults injected by the scheduler's fault layer (counter) —
    /// reconciles with `trace::Summary::faults` and `FaultStats` totals.
    pub const FAULTS: &str = "qd_faults_total";
    /// Recovery actions taken by drivers (counter): retries, checkpoint
    /// restarts, retransmitted messages, and partial-network re-roots —
    /// reconciles with `RecoveryStats::actions` (retransmissions are
    /// charged per resent message but traced once per protocol phase, so
    /// the trace `Summary::recoveries` tally is a lower bound).
    pub const RECOVERY_ACTIONS: &str = "qd_recovery_actions_total";
    /// Rounds spent on recovery attempts that were thrown away (counter).
    pub const RECOVERY_WASTED_ROUNDS: &str = "qd_recovery_wasted_rounds_total";
    /// Wire bits moved by recovery attempts that were thrown away
    /// (counter).
    pub const RECOVERY_WASTED_BITS: &str = "qd_recovery_wasted_bits_total";
    /// Node programs executed by the scheduler (counter) — reconciles with
    /// `RoundsLedger::total_scheduled_nodes` and
    /// `RunStats::scheduled_nodes`.
    pub const SCHEDULED_NODES: &str = "qd_scheduled_nodes_total";
    /// Node-round slots available (n × rounds, counter) — the denominator
    /// of [`ACTIVE_FRACTION`]; reconciles with
    /// `RoundsLedger::total_node_rounds`.
    pub const NODE_ROUNDS: &str = "qd_node_rounds_total";
    /// Fraction of node-round slots actually executed (gauge):
    /// [`SCHEDULED_NODES`] / [`NODE_ROUNDS`], refreshed each round from the
    /// registry's own counters so multi-phase runs report the ledger-wide
    /// ratio qdiam reports print.
    pub const ACTIVE_FRACTION: &str = "qd_active_fraction";
    /// High-water bytes held by the simulator's message path (gauge;
    /// monotone per run): the capacity of both send buffers plus the inbox
    /// arena, which from round 0 holds a fixed `u32` slot per directed edge
    /// and one scratch slot (`2m + 1` slots) and an 8-byte record per node.
    pub const ARENA_BYTES_HIGHWATER: &str = "qd_arena_bytes_highwater";
    /// Longest causal message chain observed by the critical-path profiler
    /// (gauge; maximum across networks run under the registry).
    pub const CRITICAL_PATH_DEPTH: &str = "qd_critical_path_depth";

    /// Scheduler and memory telemetry: these describe how a simulator
    /// executed a run, not what the run computed (a simulator that runs
    /// every node executes more node programs over identical traffic), so — like
    /// the scheduling fields of `RunStats` and the telemetry columns of
    /// the flight recorder's `RoundRecord` — they are excluded from
    /// [`Registry`](crate::Registry) equality. They still export and
    /// render normally.
    pub const TELEMETRY: [&str; 4] = [
        SCHEDULED_NODES,
        NODE_ROUNDS,
        ACTIVE_FRACTION,
        ARENA_BYTES_HIGHWATER,
    ];
}

/// Renders `name{key="value"}` for a labelled metric family.
///
/// The label value is escaped for the Prometheus exposition format
/// (backslash, double quote, newline).
pub fn labeled(name: &str, key: &str, value: &str) -> String {
    let mut escaped = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => escaped.push_str("\\\\"),
            '"' => escaped.push_str("\\\""),
            '\n' => escaped.push_str("\\n"),
            other => escaped.push(other),
        }
    }
    format!("{name}{{{key}=\"{escaped}\"}}")
}

thread_local! {
    static CURRENT: RefCell<Option<SharedRegistry>> = const { RefCell::new(None) };
}

/// Installs `registry` as this thread's metrics registry for the guard's
/// lifetime.
///
/// Any previously installed registry is restored when the guard drops, so
/// installations nest — exactly like `trace::install`.
#[must_use = "metrics collection stops when the guard is dropped"]
pub fn install(registry: SharedRegistry) -> Guard {
    let previous = CURRENT.with(|current| current.borrow_mut().replace(registry));
    Guard { previous }
}

/// Restores the previously installed registry (if any) on drop.
pub struct Guard {
    previous: Option<SharedRegistry>,
}

impl Drop for Guard {
    fn drop(&mut self) {
        CURRENT.with(|current| *current.borrow_mut() = self.previous.take());
    }
}

/// Whether a registry is installed on this thread.
#[inline]
pub fn enabled() -> bool {
    CURRENT.with(|current| current.borrow().is_some())
}

/// A clone of the installed registry handle, if any.
///
/// Hot loops (e.g. the per-round simulator step) fetch this once and reuse
/// the handle instead of paying a thread-local lookup per charge.
#[inline]
pub fn current() -> Option<SharedRegistry> {
    CURRENT.with(|current| current.borrow().clone())
}

/// Runs `f` against the installed registry, if any.
///
/// The closure never runs while metrics are disabled, so charge sites whose
/// bookkeeping allocates (labelled names, string formatting) stay free on
/// the disabled path.
pub fn with(f: impl FnOnce(&mut Registry)) {
    if let Some(registry) = current() {
        f(&mut registry.borrow_mut());
    }
}

/// Adds `delta` to the counter `name` on the installed registry, if any.
pub fn add(name: &str, delta: u64) {
    with(|r| r.add(name, delta));
}

/// Sets the gauge `name` on the installed registry, if any.
pub fn set_gauge(name: &str, value: f64) {
    with(|r| r.set_gauge(name, value));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_charges_are_no_ops() {
        assert!(!enabled());
        add(names::MESSAGES, 5);
        with(|_| unreachable!("must not run while disabled"));
        assert!(current().is_none());
    }

    #[test]
    fn install_scopes_collection_to_the_guard() {
        let registry = Registry::shared();
        {
            let _guard = install(registry.clone());
            assert!(enabled());
            add(names::MESSAGES, 2);
            add(names::MESSAGES, 3);
            set_gauge(names::PER_NODE_QUBITS, 42.0);
        }
        assert!(!enabled());
        add(names::MESSAGES, 100);
        let r = registry.borrow();
        assert_eq!(r.counter(names::MESSAGES), 5);
        assert_eq!(r.gauge(names::PER_NODE_QUBITS), Some(42.0));
    }

    #[test]
    fn installations_nest_and_restore() {
        let outer = Registry::shared();
        let inner = Registry::shared();
        let _outer_guard = install(outer.clone());
        add(names::ROUNDS, 1);
        {
            let _inner_guard = install(inner.clone());
            add(names::ROUNDS, 10);
        }
        add(names::ROUNDS, 1);
        assert_eq!(outer.borrow().counter(names::ROUNDS), 2);
        assert_eq!(inner.borrow().counter(names::ROUNDS), 10);
    }

    #[test]
    fn current_handle_reaches_the_same_registry() {
        let registry = Registry::shared();
        let _guard = install(registry.clone());
        let handle = current().expect("installed");
        handle.borrow_mut().add(names::WIRE_BITS, 7);
        assert_eq!(registry.borrow().counter(names::WIRE_BITS), 7);
    }

    #[test]
    fn labeled_renders_and_escapes() {
        assert_eq!(
            labeled(names::PHASE_ROUNDS, "phase", "bfs(leader)"),
            "qd_phase_rounds_total{phase=\"bfs(leader)\"}"
        );
        assert_eq!(labeled("m", "k", "a\"b\\c"), "m{k=\"a\\\"b\\\\c\"}");
    }
}
