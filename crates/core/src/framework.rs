//! Distributed quantum optimization — Section 2.4 / Theorem 7 of the paper.
//!
//! The leader node holds the `O(log n)`-qubit internal register and drives
//! quantum maximum finding (Corollary 1, [`quantum::maximize`]). The
//! `Setup` and `Evaluation` operators are *distributed* procedures: each
//! application (or inverse application) runs a fixed round schedule over the
//! whole network. Theorem 7 therefore converts oracle-call counts into
//! CONGEST rounds:
//!
//! ```text
//! rounds = T_init + (#Setup ops)·T_setup + (#Evaluation ops)·T_eval
//! ```
//!
//! The schedules `T_setup`/`T_eval` handed to [`optimize`] are *measured*
//! from real runs of the corresponding distributed programs (see
//! [`exact`](crate::exact), [`exact_simple`](crate::exact_simple),
//! [`approx`](crate::approx)); they are branch-independent by construction,
//! which is what allows superposed execution.
//!
//! The three drivers run Theorem 7 through one crate-private
//! search-and-verify body (`Instance::search_and_verify`): each supplies
//! only its branch values `f`, its distributed Evaluation and that run's
//! ledger entry. Theorems 1 and 4 also share `probe`, which measures the
//! schedules from one real run of each operator.

use classical::{aggregate, TreeView};
use congest::{bits, Config, RoundsLedger};
use graphs::{Dist, Graph, NodeId};
use quantum::{maximize, MaximizeParams, OracleCost, SearchState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{evaluation, QdError};

/// The round schedules — and measured per-application traffic — of the two
/// distributed black-box operators.
///
/// The rounds fields implement Theorem 7's conversion. The qubit/message
/// fields are the *constant-honest* extension: each application of a
/// distributed operator in superposition carries the same network traffic
/// its classical probe run carried, except that every payload bit is now a
/// qubit. Probe runs measure that traffic, so oracle-call counts convert
/// into real communication units, not just rounds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DistributedOracle {
    /// Rounds for one application of `Setup` or `Setup⁻¹` (Proposition 2:
    /// a broadcast along the BFS tree).
    pub setup_rounds: u64,
    /// Rounds for one application of `Evaluation` or `Evaluation⁻¹`
    /// (Proposition 3/4: the Figure 2 schedule).
    pub evaluation_rounds: u64,
    /// Qubits communicated network-wide by one `Setup` application —
    /// the payload bits its probe run delivered.
    pub setup_qubits: u64,
    /// Messages sent by one `Setup` application.
    pub setup_messages: u64,
    /// Qubits communicated network-wide by one `Evaluation` application.
    pub evaluation_qubits: u64,
    /// Messages sent by one `Evaluation` application.
    pub evaluation_messages: u64,
}

impl DistributedOracle {
    /// A schedule with the given round counts and no measured traffic
    /// (qubit and message constants zero) — for analytic schedules and
    /// degenerate (single-node / zero-diameter) runs.
    pub fn from_rounds(setup_rounds: u64, evaluation_rounds: u64) -> Self {
        DistributedOracle {
            setup_rounds,
            evaluation_rounds,
            ..DistributedOracle::default()
        }
    }

    /// Sets the measured per-application `Setup` traffic.
    #[must_use]
    pub fn with_setup_traffic(mut self, qubits: u64, messages: u64) -> Self {
        self.setup_qubits = qubits;
        self.setup_messages = messages;
        self
    }

    /// Sets the measured per-application `Evaluation` traffic.
    #[must_use]
    pub fn with_evaluation_traffic(mut self, qubits: u64, messages: u64) -> Self {
        self.evaluation_qubits = qubits;
        self.evaluation_messages = messages;
        self
    }

    /// Converts an oracle-call count into CONGEST rounds (Theorem 7).
    pub fn rounds_for(&self, cost: &OracleCost) -> u64 {
        cost.setup_ops() * self.setup_rounds + cost.evaluation_ops() * self.evaluation_rounds
    }

    /// Qubits communicated network-wide by the charged applications.
    pub fn qubits_for(&self, cost: &OracleCost) -> u64 {
        cost.setup_ops() * self.setup_qubits + cost.evaluation_ops() * self.evaluation_qubits
    }

    /// Messages scheduled by the charged applications.
    pub fn messages_for(&self, cost: &OracleCost) -> u64 {
        cost.setup_ops() * self.setup_messages + cost.evaluation_ops() * self.evaluation_messages
    }
}

/// Analytic per-node quantum memory requirement (Theorem 1 claims
/// `O((log n)²)` qubits per node; Theorem 7's proof gives the breakdown).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryEstimate {
    /// Qubits each ordinary node needs: the `|u₀⟩` data register plus the
    /// Evaluation workspace (`τ'`, `t_v`, `d_v`, one kept message) —
    /// `O(log n)`.
    pub per_node_qubits: usize,
    /// Qubits the leader needs: the per-node workspace plus the internal
    /// register and the recorded amplification outcomes —
    /// `O(log|X| · log(1/ε))` = `O((log n)²)`.
    pub leader_qubits: usize,
}

/// Computes the memory breakdown for a domain of size `domain` on an
/// `n`-node network, with optimum-mass promise `min_mass = ε`.
pub fn memory_estimate(n: usize, domain: usize, min_mass: f64) -> MemoryEstimate {
    let b = (usize::BITS - n.max(2).leading_zeros()) as usize; // ⌈log₂ n⌉ + O(1)
    let bx = (usize::BITS - domain.max(2).leading_zeros()) as usize;
    // Data register |u0> (bx) + tour offset (b+2) + last-wave t_v (b+2) +
    // running max d_v (b) + one kept message (b+2+b).
    let per_node_qubits = bx + 5 * b + 6;
    // Leader: workspace + internal register (candidate + threshold) +
    // O(log(1/ε)) recorded amplification outcomes of log|X| qubits each
    // (Theorem 7's O(log|X|·log(1/ε)) term).
    let stages = (1.0 / min_mass.clamp(f64::MIN_POSITIVE, 1.0))
        .log2()
        .ceil()
        .max(1.0) as usize;
    let leader_qubits = per_node_qubits + 2 * bx + stages * bx;
    MemoryEstimate {
        per_node_qubits,
        leader_qubits,
    }
}

/// Reports the analytic qubit requirements to an installed trace sink and
/// metrics registry.
pub(crate) fn emit_memory(memory: &MemoryEstimate) {
    trace::emit_with(|| trace::TraceEvent::Qubits {
        scope: "per-node".into(),
        qubits: memory.per_node_qubits as u64,
    });
    trace::emit_with(|| trace::TraceEvent::Qubits {
        scope: "leader".into(),
        qubits: memory.leader_qubits as u64,
    });
    ::metrics::with(|r| {
        r.set_gauge(
            ::metrics::names::PER_NODE_QUBITS,
            memory.per_node_qubits as f64,
        );
        r.set_gauge(::metrics::names::LEADER_QUBITS, memory.leader_qubits as f64);
    });
}

/// Result of a distributed quantum optimization.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptimizeOutcome {
    /// The element the search settled on (maximizer with probability
    /// `≥ 1 − δ`).
    pub argmax: usize,
    /// `f(argmax)`.
    pub value: u64,
    /// Oracle-call accounting.
    pub oracle: OracleCost,
    /// CONGEST rounds consumed by the quantum phase (Theorem 7 conversion).
    pub quantum_rounds: u64,
    /// `true` if the search hit its worst-case resource cap.
    pub aborted: bool,
}

/// Runs distributed quantum optimization (Theorem 7): maximum finding over
/// `state`'s support, charging every oracle application its distributed
/// round schedule.
///
/// # Errors
///
/// Propagates [`quantum::QuantumError`] for invalid parameters.
pub fn optimize<R: Rng + ?Sized>(
    state: &SearchState,
    f: impl Fn(usize) -> u64,
    oracle: DistributedOracle,
    params: MaximizeParams,
    rng: &mut R,
) -> Result<OptimizeOutcome, QdError> {
    let out = maximize(state, &f, params, rng)?;
    let quantum_rounds = oracle.rounds_for(&out.cost);
    if trace::enabled() {
        // One event per charged oracle application (Theorem 7's terms), plus
        // a derived span for the whole quantum phase: these rounds are
        // scheduled, not individually simulated, so consumers reconciling
        // per-message traffic must skip them.
        for index in 0..out.cost.setup_ops() {
            trace::emit(trace::TraceEvent::Oracle {
                op: trace::OracleOp::Setup,
                index,
                rounds: oracle.setup_rounds,
            });
        }
        for index in 0..out.cost.evaluation_ops() {
            trace::emit(trace::TraceEvent::Oracle {
                op: trace::OracleOp::Evaluation,
                index,
                rounds: oracle.evaluation_rounds,
            });
        }
        trace::emit(trace::TraceEvent::Phase {
            label: "quantum optimization (Theorem 7)".into(),
            rounds: quantum_rounds,
            messages: 0,
            bits: 0,
            reps: 1,
            derived: true,
        });
    }
    // Constant-honest charging: the quantum phase's communication in real
    // units — charged applications times the *measured* per-application
    // traffic — not just its Theorem 7 round count.
    metrics::with(|r| {
        r.add(metrics::names::ORACLE_SETUP_OPS, out.cost.setup_ops());
        r.add(
            metrics::names::ORACLE_EVALUATION_OPS,
            out.cost.evaluation_ops(),
        );
        r.add(metrics::names::ORACLE_ROUNDS, quantum_rounds);
        r.add(metrics::names::ORACLE_QUBITS, oracle.qubits_for(&out.cost));
        r.add(
            metrics::names::ORACLE_MESSAGES,
            oracle.messages_for(&out.cost),
        );
        // Mirror the derived quantum-phase span (emitted to the trace
        // above) so phase-round counters add up to the trace summary.
        r.add(
            &metrics::labeled(
                metrics::names::PHASE_ROUNDS_DERIVED,
                "phase",
                "quantum optimization (Theorem 7)",
            ),
            quantum_rounds,
        );
    });
    Ok(OptimizeOutcome {
        argmax: out.argmax,
        value: f(out.argmax),
        oracle: out.cost,
        quantum_rounds,
        aborted: out.aborted,
    })
}

/// The node count of `graph`; the empty graph has no leader to search from.
pub(crate) fn nodes(graph: &Graph) -> Result<usize, QdError> {
    if graph.is_empty() {
        return Err(QdError::InvalidParameter {
            reason: "empty graph".into(),
        });
    }
    Ok(graph.len())
}

/// Measures the operator schedules, and the per-application traffic that
/// constant-honest accounting charges, from one real run of each: `Setup`
/// as a node-id broadcast down `agg_tree` (Proposition 2), `Evaluation` as
/// the windowed Figure 2 run at `u0` (walk on `walk_tree`, convergecast on
/// `agg_tree`). Returns the schedule and the probe runs' ledger.
pub(crate) fn probe(
    graph: &Graph,
    walk_tree: &TreeView,
    agg_tree: &TreeView,
    d: Dist,
    u0: NodeId,
    config: Config,
) -> Result<(DistributedOracle, RoundsLedger), QdError> {
    let _span = ::metrics::span("probe");
    let mut ledger = RoundsLedger::new();
    let setup = aggregate::broadcast(graph, agg_tree, 0, bits::for_node(graph.len()), config)?;
    ledger.add("probe: setup broadcast [Prop 2]", setup.stats);
    let eval = evaluation::run_windowed(graph, walk_tree, agg_tree, d, u0, config)?;
    ledger.extend_prefixed("probe: ", &eval.ledger);
    let schedule = DistributedOracle::from_rounds(setup.stats.rounds, eval.forward_rounds())
        .with_setup_traffic(setup.stats.total_bits, setup.stats.messages)
        .with_evaluation_traffic(eval.forward_bits(), eval.forward_messages());
    Ok((schedule, ledger))
}

/// One driver's instantiation of Theorem 7: the branch values `f(u)` over
/// the domain `0..f.len()`, the schedules the search is charged, the probe
/// runs' ledger, the search parameters, the seed of the measurement and of
/// the verified-branch draw, the number of random branches verified
/// besides the maximum, and the label of the closing `Value` trace event.
pub(crate) struct Instance<'a> {
    pub f: &'a [Dist],
    pub schedule: DistributedOracle,
    pub probe_ledger: RoundsLedger,
    pub params: MaximizeParams,
    pub seed: u64,
    pub verify_branches: usize,
    pub label: &'static str,
}

/// The quantum phase of a run: the search's outcome, the schedules it was
/// charged and the probe and verification runs' ledger. The default is the
/// phase of a single-node graph, which needs no search.
#[derive(Clone, Debug, Default)]
pub(crate) struct Found {
    pub opt: OptimizeOutcome,
    pub schedule: DistributedOracle,
    pub probe_ledger: RoundsLedger,
}

impl Instance<'_> {
    /// Runs the search over the uniform superposition of the domain, then
    /// verifies each distinct branch among `verify_branches` random ones
    /// and the reported maximum once: `verify(u, ledger)` runs the
    /// driver's distributed Evaluation of branch `u`, adds it to the
    /// ledger and returns its value, which must equal `f(u)`.
    ///
    /// # Errors
    ///
    /// [`QdError::VerificationFailed`] on the first mismatch, or whatever
    /// the search or `verify` returns.
    pub(crate) fn search_and_verify(
        self,
        mut verify: impl FnMut(usize, &mut RoundsLedger) -> Result<Dist, QdError>,
    ) -> Result<Found, QdError> {
        let f = self.f;
        let quantum_span = ::metrics::span("quantum");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let state = SearchState::uniform(f.len());
        let opt = optimize(
            &state,
            |u| u64::from(f[u]),
            self.schedule,
            self.params,
            &mut rng,
        )?;
        drop(quantum_span);

        let verify_span = ::metrics::span("verify");
        let mut branches: Vec<usize> = (0..self.verify_branches)
            .map(|_| rng.random_range(0..f.len()))
            .collect();
        branches.push(opt.argmax);
        // Sampled branches can collide with each other or with the winner;
        // each duplicate would re-run an identical Evaluation (and charge
        // the ledger twice), so verify each branch once.
        branches.sort_unstable();
        branches.dedup();
        let mut probe_ledger = self.probe_ledger;
        for u in branches {
            let distributed = verify(u, &mut probe_ledger)?;
            if distributed != f[u] {
                return Err(QdError::VerificationFailed {
                    branch: u,
                    distributed: u64::from(distributed),
                    reference: u64::from(f[u]),
                });
            }
        }
        drop(verify_span);

        trace::emit_with(|| trace::TraceEvent::Value {
            label: self.label.into(),
            value: opt.value,
        });
        Ok(Found {
            opt,
            schedule: self.schedule,
            probe_ledger,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rounds_conversion_matches_theorem7() {
        let oracle = DistributedOracle::from_rounds(10, 100);
        // 3 iterations = 6 setup + 6 evaluation ops, plus 1 prep + 1 verify.
        let mut c = OracleCost::new();
        c.charge_state_preparation();
        c.charge_iterations(3);
        c.charge_verification();
        assert_eq!(oracle.rounds_for(&c), (1 + 6) * 10 + (6 + 1) * 100);
    }

    #[test]
    fn optimize_finds_max_and_charges_rounds() {
        let state = SearchState::uniform(64);
        let f = |x: usize| ((x * 29) % 64) as u64;
        let oracle = DistributedOracle::from_rounds(5, 17);
        let params = MaximizeParams::with_min_mass(1.0 / 64.0).with_failure_prob(1e-3);
        let mut rng = StdRng::seed_from_u64(12);
        let out = optimize(&state, f, oracle, params, &mut rng).unwrap();
        assert_eq!(out.value, 63);
        assert_eq!(out.quantum_rounds, oracle.rounds_for(&out.oracle));
        assert!(out.quantum_rounds > 0);
    }

    /// Optimization over a non-uniform initial state (the Section 4 Setup
    /// distributes mass only over R).
    #[test]
    fn optimize_over_restricted_support() {
        let n = 60;
        let state = SearchState::uniform_over(n, |x| x >= 40).unwrap();
        let oracle = DistributedOracle::from_rounds(3, 11);
        let params = MaximizeParams::with_min_mass(1.0 / 20.0).with_failure_prob(1e-3);
        let mut rng = StdRng::seed_from_u64(5);
        let out = optimize(&state, |x| (100 - x) as u64, oracle, params, &mut rng).unwrap();
        // Max of 100 - x over the support {40..59} is at x = 40 — the global
        // max at x = 0 is outside the support and must not be returned.
        assert_eq!(out.argmax, 40);
        assert_eq!(out.value, 60);
    }

    /// Every charged oracle application shows up in the trace, and the
    /// charged rounds reconcile exactly with the Theorem 7 conversion.
    #[test]
    fn traced_optimization_charges_every_oracle_application() {
        let state = SearchState::uniform(32);
        let oracle = DistributedOracle::from_rounds(7, 19);
        let params = MaximizeParams::with_min_mass(1.0 / 32.0).with_failure_prob(1e-3);
        let mut rng = StdRng::seed_from_u64(9);
        let recorder = trace::Recorder::shared();
        let out = {
            let _guard = trace::install(recorder.clone());
            optimize(&state, |x| x as u64, oracle, params, &mut rng).unwrap()
        };
        let events = recorder.borrow_mut().take();
        let summary = trace::Summary::from_events(&events);
        assert_eq!(summary.oracle_setup_ops, out.oracle.setup_ops());
        assert_eq!(summary.oracle_evaluation_ops, out.oracle.evaluation_ops());
        assert_eq!(
            summary.oracle_setup_rounds + summary.oracle_evaluation_rounds,
            out.quantum_rounds
        );
        let span = summary.phase("quantum optimization (Theorem 7)").unwrap();
        assert!(span.derived, "scheduled rounds are derived, not simulated");
        assert_eq!(span.rounds, out.quantum_rounds);
    }

    #[test]
    fn memory_is_polylog() {
        let m1 = memory_estimate(1 << 10, 1 << 10, 0.001);
        let m2 = memory_estimate(1 << 20, 1 << 20, 0.001);
        // Doubling log n should roughly double per-node memory…
        assert!(m2.per_node_qubits < 3 * m1.per_node_qubits);
        // …and leader memory grows like log², far below linear in n.
        assert!(m2.leader_qubits < 4 * m1.leader_qubits);
        assert!(m2.leader_qubits < 1 << 10);
        assert!(m1.leader_qubits > m1.per_node_qubits);
    }

    #[test]
    fn memory_grows_with_smaller_mass() {
        let loose = memory_estimate(1024, 1024, 0.5);
        let tight = memory_estimate(1024, 1024, 1.0 / 1024.0);
        assert!(tight.leader_qubits > loose.leader_qubits);
        assert_eq!(tight.per_node_qubits, loose.per_node_qubits);
    }
}
