use std::fmt;

use crate::{Round, RunStats};

/// Round/bit accounting across the phases of a multi-phase distributed
/// algorithm.
///
/// The paper's algorithms are compositions (leader election, then BFS, then
/// a quantum optimization whose every oracle call is itself a sub-protocol).
/// A ledger records one labelled [`RunStats`] entry per phase — possibly
/// scaled by a repetition count, as when amplitude amplification invokes the
/// same Setup/Evaluation schedule many times — and reports totals.
///
/// # Example
///
/// ```
/// use congest::{RoundsLedger, RunStats};
///
/// let mut ledger = RoundsLedger::new();
/// ledger.add("bfs", RunStats { rounds: 12, ..RunStats::default() });
/// ledger.add_scaled("evaluation", RunStats { rounds: 40, ..RunStats::default() }, 9);
/// assert_eq!(ledger.total_rounds(), 12 + 9 * 40);
/// ```
#[derive(Clone, Debug, Default)]
pub struct RoundsLedger {
    phases: Vec<Phase>,
}

#[derive(Clone, Debug)]
struct Phase {
    label: String,
    stats: RunStats,
    repetitions: u64,
}

impl RoundsLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        RoundsLedger::default()
    }

    /// Records a phase executed once.
    pub fn add(&mut self, label: impl Into<String>, stats: RunStats) {
        self.add_scaled(label, stats, 1);
    }

    /// Records a phase whose schedule is executed `repetitions` times (e.g.
    /// one amplitude-amplification iteration measured once and repeated).
    ///
    /// When a [`trace`] sink is installed, recording a phase also emits a
    /// [`trace::TraceEvent::Phase`] span, so ledgers double as the span
    /// source of the telemetry layer.
    pub fn add_scaled(&mut self, label: impl Into<String>, stats: RunStats, repetitions: u64) {
        let label = label.into();
        Self::emit_span(&label, &stats, repetitions, false);
        self.phases.push(Phase {
            label,
            stats,
            repetitions,
        });
    }

    /// Records a phase that is an accounting artifact rather than a fresh
    /// simulated execution — e.g. the Figure 2 uncomputation, charged as a
    /// mirror image of steps 1–3 without re-running the network. The span
    /// is emitted with `derived = true` so trace consumers can reconcile
    /// per-message events against non-derived spans only.
    pub fn add_derived(&mut self, label: impl Into<String>, stats: RunStats) {
        let label = label.into();
        Self::emit_span(&label, &stats, 1, true);
        self.phases.push(Phase {
            label,
            stats,
            repetitions: 1,
        });
    }

    /// Copies every phase of `other` into this ledger under
    /// `"{prefix}{label}"`. No spans are emitted: the source ledger already
    /// emitted them (under their unprefixed labels) when the phases were
    /// first recorded.
    pub fn extend_prefixed(&mut self, prefix: &str, other: &RoundsLedger) {
        for p in &other.phases {
            self.phases.push(Phase {
                label: format!("{prefix}{}", p.label),
                stats: p.stats,
                repetitions: p.repetitions,
            });
        }
    }

    fn emit_span(label: &str, stats: &RunStats, repetitions: u64, derived: bool) {
        trace::emit_with(|| trace::TraceEvent::Phase {
            label: label.to_string(),
            rounds: stats.rounds,
            messages: stats.messages,
            bits: stats.total_bits,
            reps: repetitions,
            derived,
        });
        // Mirror the span into the metrics layer as a labelled round
        // counter. Derived phases (accounting artifacts, e.g. the Figure 2
        // uncomputation) are kept under a separate family so consumers can
        // reconcile simulated rounds against `qd_rounds_total` exactly.
        metrics::with(|r| {
            let family = if derived {
                metrics::names::PHASE_ROUNDS_DERIVED
            } else {
                metrics::names::PHASE_ROUNDS
            };
            r.add(
                &metrics::labeled(family, "phase", label),
                stats.rounds * repetitions,
            );
        });
    }

    /// Number of recorded phases.
    pub fn len(&self) -> usize {
        self.phases.len()
    }

    /// Returns `true` if no phases have been recorded.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Total rounds across all phases, including repetitions.
    pub fn total_rounds(&self) -> Round {
        self.phases
            .iter()
            .map(|p| p.stats.rounds * p.repetitions)
            .sum()
    }

    /// Total delivered bits across all phases, including repetitions.
    pub fn total_bits(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| p.stats.total_bits * p.repetitions)
            .sum()
    }

    /// Total delivered messages across all phases, including repetitions.
    pub fn total_messages(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| p.stats.messages * p.repetitions)
            .sum()
    }

    /// Total node-program executions scheduled across all phases, including
    /// repetitions (see [`RunStats::scheduled_nodes`]).
    pub fn total_scheduled_nodes(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| p.stats.scheduled_nodes * p.repetitions)
            .sum()
    }

    /// Total scheduling opportunities (`n · rounds` summed per phase)
    /// across all phases, including repetitions.
    pub fn total_node_rounds(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| p.stats.node_rounds * p.repetitions)
            .sum()
    }

    /// Fraction of scheduling opportunities actually executed across the
    /// whole ledger — the multi-phase analogue of
    /// [`RunStats::active_fraction`]. 1.0 for an empty ledger (or one whose
    /// phases carry no scheduling telemetry, e.g. derived phases only).
    pub fn active_fraction(&self) -> f64 {
        let node_rounds = self.total_node_rounds();
        if node_rounds == 0 {
            return 1.0;
        }
        self.total_scheduled_nodes() as f64 / node_rounds as f64
    }

    /// Largest single message observed in any phase.
    pub fn max_message_bits(&self) -> usize {
        self.phases
            .iter()
            .map(|p| p.stats.max_message_bits)
            .max()
            .unwrap_or(0)
    }

    /// Iterates over `(label, stats, repetitions)` for every phase.
    pub fn phases(&self) -> impl Iterator<Item = (&str, &RunStats, u64)> + '_ {
        self.phases
            .iter()
            .map(|p| (p.label.as_str(), &p.stats, p.repetitions))
    }
}

impl fmt::Display for RoundsLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<28} {:>8} {:>6} {:>12}",
            "phase", "rounds", "reps", "total rounds"
        )?;
        for p in &self.phases {
            writeln!(
                f,
                "{:<28} {:>8} {:>6} {:>12}",
                p.label,
                p.stats.rounds,
                p.repetitions,
                p.stats.rounds * p.repetitions
            )?;
        }
        write!(
            f,
            "{:<28} {:>8} {:>6} {:>12}",
            "TOTAL",
            "",
            "",
            self.total_rounds()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(rounds: Round, bits: u64) -> RunStats {
        RunStats {
            rounds,
            total_bits: bits,
            messages: bits / 8,
            ..RunStats::default()
        }
    }

    #[test]
    fn totals_respect_repetitions() {
        let mut ledger = RoundsLedger::new();
        ledger.add("init", stats(10, 80));
        ledger.add_scaled("oracle", stats(5, 40), 20);
        assert_eq!(ledger.total_rounds(), 10 + 100);
        assert_eq!(ledger.total_bits(), 80 + 800);
        assert_eq!(ledger.total_messages(), 10 + 100);
        assert_eq!(ledger.len(), 2);
        assert!(!ledger.is_empty());
    }

    #[test]
    fn empty_ledger() {
        let ledger = RoundsLedger::new();
        assert!(ledger.is_empty());
        assert_eq!(ledger.total_rounds(), 0);
        assert_eq!(ledger.max_message_bits(), 0);
    }

    #[test]
    fn display_contains_phases_and_total() {
        let mut ledger = RoundsLedger::new();
        ledger.add("bfs", stats(3, 0));
        let s = ledger.to_string();
        assert!(s.contains("bfs"));
        assert!(s.contains("TOTAL"));
    }

    #[test]
    fn phase_iteration() {
        let mut ledger = RoundsLedger::new();
        ledger.add_scaled("x", stats(2, 16), 3);
        let (label, st, reps) = ledger.phases().next().unwrap();
        assert_eq!(label, "x");
        assert_eq!(st.rounds, 2);
        assert_eq!(reps, 3);
    }

    /// `add_scaled` must agree with manually absorbing the same stats
    /// `repetitions` times into one accumulator.
    #[test]
    fn scaled_totals_match_repeated_absorb() {
        let phases = [(stats(7, 56), 3u64), (stats(11, 16), 1), (stats(2, 8), 20)];
        let mut ledger = RoundsLedger::new();
        let mut absorbed = RunStats::default();
        for (i, (st, reps)) in phases.iter().enumerate() {
            ledger.add_scaled(format!("phase {i}"), *st, *reps);
            for _ in 0..*reps {
                absorbed.absorb(st);
            }
        }
        assert_eq!(ledger.total_rounds(), absorbed.rounds);
        assert_eq!(ledger.total_messages(), absorbed.messages);
        assert_eq!(ledger.total_bits(), absorbed.total_bits);
        assert_eq!(ledger.max_message_bits(), absorbed.max_message_bits);
    }

    #[test]
    fn scheduling_telemetry_totals_respect_repetitions() {
        let mut ledger = RoundsLedger::new();
        let mut a = stats(10, 80);
        a.scheduled_nodes = 30;
        a.node_rounds = 100;
        let mut b = stats(5, 40);
        b.scheduled_nodes = 50;
        b.node_rounds = 50;
        ledger.add("init", a);
        ledger.add_scaled("oracle", b, 2);
        assert_eq!(ledger.total_scheduled_nodes(), 30 + 2 * 50);
        assert_eq!(ledger.total_node_rounds(), 100 + 2 * 50);
        let expect = 130.0 / 200.0;
        assert!((ledger.active_fraction() - expect).abs() < 1e-12);
        assert_eq!(RoundsLedger::new().active_fraction(), 1.0);
    }

    #[test]
    fn derived_phases_count_in_totals() {
        let mut ledger = RoundsLedger::new();
        ledger.add("forward", stats(9, 24));
        ledger.add_derived("uncompute", stats(9, 24));
        assert_eq!(ledger.total_rounds(), 18);
        assert_eq!(ledger.len(), 2);
    }

    #[test]
    fn extend_prefixed_copies_phases_verbatim() {
        let mut inner = RoundsLedger::new();
        inner.add_scaled("sample", stats(4, 32), 2);
        inner.add("bfs", stats(6, 8));
        let mut outer = RoundsLedger::new();
        outer.add("pre-pass", stats(1, 0));
        outer.extend_prefixed("figure 3: ", &inner);
        let labels: Vec<&str> = outer.phases().map(|(l, _, _)| l).collect();
        assert_eq!(labels, ["pre-pass", "figure 3: sample", "figure 3: bfs"]);
        assert_eq!(outer.total_rounds(), 1 + 2 * 4 + 6);
    }

    #[test]
    fn display_snapshot() {
        let mut ledger = RoundsLedger::new();
        ledger.add("leader election", stats(5, 40));
        ledger.add_scaled("evaluation", stats(40, 8), 9);
        let expected = "\
phase                          rounds   reps total rounds
leader election                     5      1            5
evaluation                         40      9          360
TOTAL                                                 365";
        assert_eq!(ledger.to_string(), expected);
    }

    #[test]
    fn recording_emits_phase_spans_with_derived_flags() {
        let recorder = trace::Recorder::shared();
        let _guard = trace::install(recorder.clone());
        let mut ledger = RoundsLedger::new();
        ledger.add_scaled("walk", stats(3, 24), 4);
        ledger.add_derived("uncompute", stats(3, 24));
        let mut copied = RoundsLedger::new();
        copied.extend_prefixed("outer: ", &ledger);
        let events = recorder.borrow_mut().take();
        assert_eq!(
            events,
            vec![
                trace::TraceEvent::Phase {
                    label: "walk".into(),
                    rounds: 3,
                    messages: 3,
                    bits: 24,
                    reps: 4,
                    derived: false,
                },
                trace::TraceEvent::Phase {
                    label: "uncompute".into(),
                    rounds: 3,
                    messages: 3,
                    bits: 24,
                    reps: 1,
                    derived: true,
                },
            ],
            "extend_prefixed must not re-emit spans"
        );
    }
}
