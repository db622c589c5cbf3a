//! Aggregation of event streams into per-phase and per-edge rollups.

use std::collections::HashMap;
use std::fmt;

use crate::event::{OracleOp, TraceEvent};
use crate::sink::TraceSink;

/// Aggregate cost of one labeled phase (summed over repeated spans).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Span events observed with this label.
    pub spans: u64,
    /// Total rounds charged (`rounds * reps` summed over spans).
    pub rounds: u64,
    /// Total messages charged.
    pub messages: u64,
    /// Total payload bits charged.
    pub bits: u64,
    /// True when every span with this label was derived (an accounting
    /// artifact, not a simulated execution).
    pub derived: bool,
}

/// Aggregate traffic over one directed edge.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeTotals {
    /// Messages delivered over the edge.
    pub messages: u64,
    /// Total payload bits delivered.
    pub bits: u64,
}

/// A streaming aggregator; usable directly as a [`TraceSink`] or filled
/// from a decoded event list.
#[derive(Default)]
pub struct Summary {
    /// Total events seen.
    pub events: u64,
    /// Round ticks seen (`Round` events).
    pub round_ticks: u64,
    /// Sum of `Round::delivered` over all round ticks — messages drained
    /// from inboxes at round starts. At most `messages_delivered` (sent
    /// messages still in flight when a run ends are never drained).
    pub round_deliveries: u64,
    /// Messages delivered (`Message` events).
    pub messages_delivered: u64,
    /// Total payload bits delivered.
    pub bits_delivered: u64,
    /// Per-phase rollups, in first-seen order.
    phases: Vec<(String, PhaseTotals)>,
    /// Per-edge rollups.
    edges: HashMap<(u64, u64), EdgeTotals>,
    /// Oracle applications and rounds charged, per kind.
    pub oracle_setup_ops: u64,
    /// Rounds charged across all Setup applications.
    pub oracle_setup_rounds: u64,
    /// Evaluation applications observed.
    pub oracle_evaluation_ops: u64,
    /// Rounds charged across all Evaluation applications.
    pub oracle_evaluation_rounds: u64,
    /// Qubit high-water per scope.
    qubits: Vec<(String, u64)>,
    /// Injected faults (`Fault` events), total.
    pub faults: u64,
    /// Injected faults per kind, in first-seen order.
    fault_kinds: Vec<(String, u64)>,
    /// Recovery actions (`Recovery` events), total.
    pub recoveries: u64,
    /// Recovery actions per kind, in first-seen order.
    recovery_kinds: Vec<(String, u64)>,
    /// Rounds wasted by retried/restarted attempts, summed over `Recovery`
    /// events.
    pub recovery_wasted_rounds: u64,
    /// Wave observations with at least one surviving message.
    pub wave_observations: u64,
    /// Maximum surviving wave messages seen at any node in any round.
    pub wave_max_surviving: u64,
    /// Maximum distinct surviving wave values seen at any node in any round.
    pub wave_max_distinct: u64,
    /// Named scalar outcomes, in order.
    values: Vec<(String, u64)>,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary::default()
    }

    /// Builds a summary from a decoded event stream.
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> Self {
        let mut summary = Summary::new();
        for event in events {
            summary.record(event);
        }
        summary
    }

    /// Per-phase rollups in first-seen order.
    pub fn phases(&self) -> &[(String, PhaseTotals)] {
        &self.phases
    }

    /// The rollup for one phase label.
    pub fn phase(&self, label: &str) -> Option<&PhaseTotals> {
        self.phases.iter().find(|(l, _)| l == label).map(|(_, t)| t)
    }

    /// Per-edge rollups (unordered).
    pub fn edges(&self) -> &HashMap<(u64, u64), EdgeTotals> {
        &self.edges
    }

    /// Qubit high-water samples per scope, in first-seen order.
    pub fn qubit_highwater(&self) -> &[(String, u64)] {
        &self.qubits
    }

    /// Named scalar outcomes, in emission order.
    pub fn values(&self) -> &[(String, u64)] {
        &self.values
    }

    /// Injected-fault counts per kind, in first-seen order.
    pub fn fault_kinds(&self) -> &[(String, u64)] {
        &self.fault_kinds
    }

    /// Recovery-action counts per kind, in first-seen order.
    pub fn recovery_kinds(&self) -> &[(String, u64)] {
        &self.recovery_kinds
    }

    /// Total rounds charged across non-derived phase spans.
    pub fn simulated_phase_rounds(&self) -> u64 {
        self.phases
            .iter()
            .filter(|(_, t)| !t.derived)
            .map(|(_, t)| t.rounds)
            .sum()
    }

    /// Total messages charged across non-derived phase spans; reconciles
    /// with `messages_delivered` when every simulated execution was both
    /// message-traced and span-accounted.
    pub fn simulated_phase_messages(&self) -> u64 {
        self.phases
            .iter()
            .filter(|(_, t)| !t.derived)
            .map(|(_, t)| t.messages)
            .sum()
    }

    /// Total rounds charged across all phase spans, derived included.
    pub fn total_phase_rounds(&self) -> u64 {
        self.phases.iter().map(|(_, t)| t.rounds).sum()
    }

    fn phase_mut(&mut self, label: &str) -> &mut PhaseTotals {
        if let Some(idx) = self.phases.iter().position(|(l, _)| l == label) {
            return &mut self.phases[idx].1;
        }
        self.phases.push((
            label.to_string(),
            PhaseTotals {
                derived: true,
                ..Default::default()
            },
        ));
        &mut self.phases.last_mut().expect("just pushed").1
    }
}

impl TraceSink for Summary {
    fn record(&mut self, event: &TraceEvent) {
        self.events += 1;
        match event {
            TraceEvent::Round { delivered, .. } => {
                self.round_ticks += 1;
                self.round_deliveries += delivered;
            }
            // A compressed quiescent stretch counts exactly the ticks a
            // stepped run would have emitted, each delivering nothing —
            // keeps `round_ticks` reconciliation with `RunStats.rounds`
            // and phase-span rounds exact under fast-forwarding.
            TraceEvent::RoundSkip { from, to } => {
                self.round_ticks += to.saturating_sub(*from);
            }
            TraceEvent::Message { from, to, bits, .. } => {
                self.messages_delivered += 1;
                self.bits_delivered += bits;
                let edge = self.edges.entry((*from, *to)).or_default();
                edge.messages += 1;
                edge.bits += bits;
            }
            TraceEvent::Phase {
                label,
                rounds,
                messages,
                bits,
                reps,
                derived,
            } => {
                let totals = self.phase_mut(label);
                totals.spans += 1;
                totals.rounds += rounds * reps;
                totals.messages += messages * reps;
                totals.bits += bits * reps;
                totals.derived &= derived;
            }
            TraceEvent::Oracle { op, rounds, .. } => match op {
                OracleOp::Setup => {
                    self.oracle_setup_ops += 1;
                    self.oracle_setup_rounds += rounds;
                }
                OracleOp::Evaluation => {
                    self.oracle_evaluation_ops += 1;
                    self.oracle_evaluation_rounds += rounds;
                }
            },
            TraceEvent::Qubits { scope, qubits } => {
                if let Some(entry) = self.qubits.iter_mut().find(|(s, _)| s == scope) {
                    entry.1 = entry.1.max(*qubits);
                } else {
                    self.qubits.push((scope.clone(), *qubits));
                }
            }
            TraceEvent::Wave {
                surviving,
                distinct,
                ..
            } => {
                if *surviving > 0 {
                    self.wave_observations += 1;
                }
                self.wave_max_surviving = self.wave_max_surviving.max(*surviving);
                self.wave_max_distinct = self.wave_max_distinct.max(*distinct);
            }
            TraceEvent::Fault { kind, .. } => {
                self.faults += 1;
                let name = kind.as_str();
                if let Some(entry) = self.fault_kinds.iter_mut().find(|(k, _)| k == name) {
                    entry.1 += 1;
                } else {
                    self.fault_kinds.push((name.to_string(), 1));
                }
            }
            TraceEvent::Recovery { round, action, .. } => {
                self.recoveries += 1;
                self.recovery_wasted_rounds += round;
                let name = action.as_str();
                if let Some(entry) = self.recovery_kinds.iter_mut().find(|(k, _)| k == name) {
                    entry.1 += 1;
                } else {
                    self.recovery_kinds.push((name.to_string(), 1));
                }
            }
            TraceEvent::Value { label, value } => {
                self.values.push((label.clone(), *value));
            }
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "trace summary: {} events", self.events)?;
        writeln!(
            f,
            "  network: {} round ticks, {} messages, {} bits",
            self.round_ticks, self.messages_delivered, self.bits_delivered
        )?;
        if !self.phases.is_empty() {
            writeln!(f, "  phases (rounds/messages/bits, * = derived):")?;
            let width = self.phases.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
            for (label, t) in &self.phases {
                writeln!(
                    f,
                    "    {mark}{label:<width$}  {:>8} r  {:>8} m  {:>10} b  x{}",
                    t.rounds,
                    t.messages,
                    t.bits,
                    t.spans,
                    mark = if t.derived { "*" } else { " " },
                )?;
            }
            writeln!(
                f,
                "    total rounds: {} simulated, {} incl. derived",
                self.simulated_phase_rounds(),
                self.total_phase_rounds()
            )?;
        }
        if self.oracle_setup_ops + self.oracle_evaluation_ops > 0 {
            writeln!(
                f,
                "  oracle: {} setup ops ({} rounds), {} evaluation ops ({} rounds)",
                self.oracle_setup_ops,
                self.oracle_setup_rounds,
                self.oracle_evaluation_ops,
                self.oracle_evaluation_rounds
            )?;
        }
        for (scope, qubits) in &self.qubits {
            writeln!(f, "  qubit high-water [{scope}]: {qubits}")?;
        }
        if self.faults > 0 {
            let kinds = self
                .fault_kinds
                .iter()
                .map(|(k, c)| format!("{k} {c}"))
                .collect::<Vec<_>>()
                .join(", ");
            writeln!(f, "  faults injected: {} ({kinds})", self.faults)?;
        }
        if self.recoveries > 0 {
            let kinds = self
                .recovery_kinds
                .iter()
                .map(|(k, c)| format!("{k} {c}"))
                .collect::<Vec<_>>()
                .join(", ");
            writeln!(
                f,
                "  recovery actions: {} ({kinds}), {} rounds wasted",
                self.recoveries, self.recovery_wasted_rounds
            )?;
        }
        if self.wave_observations > 0 {
            writeln!(
                f,
                "  waves: {} survivor observations, max {} surviving / {} distinct per node-round",
                self.wave_observations, self.wave_max_surviving, self.wave_max_distinct
            )?;
        }
        if !self.edges.is_empty() {
            let mut busiest: Vec<_> = self.edges.iter().collect();
            busiest.sort_by(|a, b| b.1.bits.cmp(&a.1.bits).then(a.0.cmp(b.0)));
            writeln!(f, "  busiest edges (of {}):", self.edges.len())?;
            for ((from, to), t) in busiest.into_iter().take(5) {
                writeln!(
                    f,
                    "    {from:>4} -> {to:<4}  {:>6} m  {:>8} b",
                    t.messages, t.bits
                )?;
            }
        }
        for (label, value) in &self.values {
            writeln!(f, "  value {label}: {value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_phases_edges_and_oracle_ops() {
        let events = vec![
            TraceEvent::Round {
                round: 1,
                delivered: 2,
            },
            TraceEvent::Message {
                round: 1,
                from: 0,
                to: 1,
                bits: 8,
            },
            TraceEvent::Message {
                round: 1,
                from: 0,
                to: 1,
                bits: 8,
            },
            TraceEvent::Message {
                round: 1,
                from: 1,
                to: 0,
                bits: 4,
            },
            TraceEvent::Phase {
                label: "bfs".into(),
                rounds: 10,
                messages: 3,
                bits: 20,
                reps: 2,
                derived: false,
            },
            TraceEvent::Phase {
                label: "uncompute".into(),
                rounds: 5,
                messages: 1,
                bits: 4,
                reps: 1,
                derived: true,
            },
            TraceEvent::Oracle {
                op: OracleOp::Setup,
                index: 0,
                rounds: 7,
            },
            TraceEvent::Oracle {
                op: OracleOp::Evaluation,
                index: 0,
                rounds: 9,
            },
            TraceEvent::Oracle {
                op: OracleOp::Evaluation,
                index: 1,
                rounds: 9,
            },
            TraceEvent::Qubits {
                scope: "per-node".into(),
                qubits: 5,
            },
            TraceEvent::Qubits {
                scope: "per-node".into(),
                qubits: 3,
            },
            TraceEvent::Wave {
                round: 2,
                node: 1,
                surviving: 1,
                distinct: 1,
            },
            TraceEvent::Wave {
                round: 3,
                node: 1,
                surviving: 0,
                distinct: 0,
            },
            TraceEvent::Value {
                label: "diameter".into(),
                value: 6,
            },
        ];
        let summary = Summary::from_events(&events);
        assert_eq!(summary.events, events.len() as u64);
        assert_eq!(summary.round_ticks, 1);
        assert_eq!(summary.round_deliveries, 2);
        assert_eq!(summary.messages_delivered, 3);
        assert_eq!(summary.bits_delivered, 20);

        let bfs = summary.phase("bfs").unwrap();
        assert_eq!(bfs.rounds, 20, "reps are multiplied in");
        assert_eq!(bfs.messages, 6);
        assert!(!bfs.derived);
        assert!(summary.phase("uncompute").unwrap().derived);
        assert_eq!(summary.simulated_phase_rounds(), 20);
        assert_eq!(summary.total_phase_rounds(), 25);
        assert_eq!(summary.simulated_phase_messages(), 6);

        let edge = &summary.edges()[&(0, 1)];
        assert_eq!((edge.messages, edge.bits), (2, 16));
        let edge = &summary.edges()[&(1, 0)];
        assert_eq!((edge.messages, edge.bits), (1, 4));

        assert_eq!(summary.oracle_setup_ops, 1);
        assert_eq!(summary.oracle_setup_rounds, 7);
        assert_eq!(summary.oracle_evaluation_ops, 2);
        assert_eq!(summary.oracle_evaluation_rounds, 18);

        assert_eq!(summary.qubit_highwater(), &[("per-node".to_string(), 5)]);
        assert_eq!(summary.wave_observations, 1);
        assert_eq!(summary.wave_max_surviving, 1);
        assert_eq!(summary.values(), &[("diameter".to_string(), 6)]);
    }

    /// A `RoundSkip` reconciles as the ticks a stepped run would have
    /// emitted: a stream with the compressed event and its expanded
    /// equivalent aggregate to the same round totals.
    #[test]
    fn round_skip_counts_as_stepped_ticks() {
        let compressed = vec![
            TraceEvent::Round {
                round: 0,
                delivered: 3,
            },
            TraceEvent::RoundSkip { from: 1, to: 6 },
            TraceEvent::Round {
                round: 6,
                delivered: 1,
            },
        ];
        let expanded = crate::event::expand_round_skips(compressed.clone());
        let a = Summary::from_events(&compressed);
        let b = Summary::from_events(&expanded);
        assert_eq!(a.round_ticks, 7);
        assert_eq!(a.round_ticks, b.round_ticks);
        assert_eq!(a.round_deliveries, 4);
        assert_eq!(a.round_deliveries, b.round_deliveries);
    }

    #[test]
    fn display_mentions_each_section() {
        let events = vec![
            TraceEvent::Message {
                round: 1,
                from: 0,
                to: 1,
                bits: 8,
            },
            TraceEvent::Phase {
                label: "leader election".into(),
                rounds: 4,
                messages: 1,
                bits: 8,
                reps: 1,
                derived: false,
            },
            TraceEvent::Oracle {
                op: OracleOp::Setup,
                index: 0,
                rounds: 3,
            },
            TraceEvent::Value {
                label: "diameter".into(),
                value: 2,
            },
        ];
        let text = Summary::from_events(&events).to_string();
        for needle in [
            "leader election",
            "1 setup ops",
            "busiest edges",
            "value diameter: 2",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn aggregates_faults_per_kind() {
        use crate::event::FaultKind;
        let events = vec![
            TraceEvent::Fault {
                round: 0,
                kind: FaultKind::Drop,
                from: 0,
                to: 1,
            },
            TraceEvent::Fault {
                round: 1,
                kind: FaultKind::Drop,
                from: 1,
                to: 2,
            },
            TraceEvent::Fault {
                round: 2,
                kind: FaultKind::LinkDown,
                from: 2,
                to: 0,
            },
        ];
        let summary = Summary::from_events(&events);
        assert_eq!(summary.faults, 3);
        assert_eq!(
            summary.fault_kinds(),
            &[("drop".to_string(), 2), ("link-down".to_string(), 1)]
        );
        let text = summary.to_string();
        assert!(text.contains("faults injected: 3"), "{text}");
        assert!(text.contains("drop 2"), "{text}");
    }

    #[test]
    fn aggregates_recoveries_per_action() {
        use crate::event::RecoveryAction;
        let events = vec![
            TraceEvent::Recovery {
                round: 12,
                action: RecoveryAction::Restart,
                attempt: 1,
                scope: "eccentricity waves[seg 0]".into(),
            },
            TraceEvent::Recovery {
                round: 12,
                action: RecoveryAction::Restart,
                attempt: 2,
                scope: "eccentricity waves[seg 0]".into(),
            },
            TraceEvent::Recovery {
                round: 0,
                action: RecoveryAction::Reroot,
                attempt: 1,
                scope: "surviving component".into(),
            },
        ];
        let summary = Summary::from_events(&events);
        assert_eq!(summary.recoveries, 3);
        assert_eq!(summary.recovery_wasted_rounds, 24);
        assert_eq!(
            summary.recovery_kinds(),
            &[("restart".to_string(), 2), ("re-root".to_string(), 1)]
        );
        let text = summary.to_string();
        assert!(text.contains("recovery actions: 3"), "{text}");
        assert!(text.contains("restart 2"), "{text}");
        assert!(text.contains("24 rounds wasted"), "{text}");
    }

    #[test]
    fn mixed_derived_and_simulated_spans_count_as_simulated() {
        let events = vec![
            TraceEvent::Phase {
                label: "p".into(),
                rounds: 1,
                messages: 0,
                bits: 0,
                reps: 1,
                derived: true,
            },
            TraceEvent::Phase {
                label: "p".into(),
                rounds: 2,
                messages: 0,
                bits: 0,
                reps: 1,
                derived: false,
            },
        ];
        let summary = Summary::from_events(&events);
        assert!(!summary.phase("p").unwrap().derived);
        assert_eq!(summary.simulated_phase_rounds(), 3);
    }
}
