//! The structured event model.
//!
//! Every observable fact about a CONGEST run is one of these variants. The
//! JSONL encoding is a flat object per event with a `"type"` discriminant,
//! decoded losslessly by [`TraceEvent::from_json`].

use crate::json::Json;

/// Which half of a distributed-oracle application an event charges.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OracleOp {
    /// A Setup application (state preparation / database load).
    Setup,
    /// An Evaluation application (one call to the evaluation circuit).
    Evaluation,
}

impl OracleOp {
    fn as_str(self) -> &'static str {
        match self {
            OracleOp::Setup => "setup",
            OracleOp::Evaluation => "evaluation",
        }
    }
}

/// The kind of an injected fault (see the `congest::faults` module for the
/// injection semantics).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A message was lost in transit (random drop).
    Drop,
    /// A message was lost to a scheduled link failure.
    LinkDown,
    /// A node crash-stopped (`from == to`), or a message addressed to a
    /// crashed node was discarded (`from != to`).
    Crash,
}

impl FaultKind {
    /// The JSON encoding of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::LinkDown => "link-down",
            FaultKind::Crash => "crash",
        }
    }
}

/// The kind of a recovery action taken by a driver (see the
/// `congest::recovery` module for the policy that authorizes them).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RecoveryAction {
    /// A failed protocol (or pipeline) was rerun under a fresh fault seed.
    Retry,
    /// A tree protocol repeated its critical send for extra rounds.
    Retransmit,
    /// A checkpointed wave segment was restarted from its boundary.
    Restart,
    /// The run was re-rooted on the surviving component after crash-stops.
    Reroot,
}

impl RecoveryAction {
    /// The JSON encoding of the action.
    pub fn as_str(self) -> &'static str {
        match self {
            RecoveryAction::Retry => "retry",
            RecoveryAction::Retransmit => "retransmit",
            RecoveryAction::Restart => "restart",
            RecoveryAction::Reroot => "re-root",
        }
    }
}

/// One structured telemetry event.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// One synchronous round completed on a network, delivering `delivered`
    /// messages.
    Round {
        /// Round index within the current network execution, counted from 0
        /// (the event for round `r` is emitted as `RunStats::rounds` becomes
        /// `r + 1`).
        round: u64,
        /// Messages actually delivered at the start of this round, i.e. the
        /// messages staged during round `round - 1` and drained from the
        /// inboxes when this round began. Round 0 always delivers 0.
        delivered: u64,
    },
    /// A fast-forwarded quiescent stretch: rounds `from..to` (half-open)
    /// completed without executing anything or delivering any message,
    /// compressed into one event so skipping stays O(1) with a tracer
    /// installed. Semantically identical to `to - from` consecutive
    /// [`TraceEvent::Round`] ticks with `delivered: 0`; use
    /// [`expand_round_skips`] to normalize a stream for tick-exact
    /// comparison against a stepped run.
    RoundSkip {
        /// First skipped round (inclusive).
        from: u64,
        /// First round *not* covered by the skip (exclusive); `to > from`.
        to: u64,
    },
    /// One message crossed an edge.
    Message {
        /// Round in which the message was *sent*; it is delivered at the
        /// start of round `round + 1`.
        round: u64,
        /// Sending node id.
        from: u64,
        /// Receiving node id.
        to: u64,
        /// Payload width in bits.
        bits: u64,
    },
    /// A labeled phase span: the aggregate cost of one algorithm phase,
    /// optionally repeated.
    Phase {
        /// Human-readable phase label (matches `RoundsLedger` labels).
        label: String,
        /// Rounds for one repetition of the phase.
        rounds: u64,
        /// Messages for one repetition.
        messages: u64,
        /// Total payload bits for one repetition.
        bits: u64,
        /// Number of repetitions charged.
        reps: u64,
        /// True when the span is an accounting artifact (e.g. the Figure 2
        /// uncomputation, charged as a mirror of steps 1–3, or a scheduled
        /// quantum cost) rather than a physically simulated execution; only
        /// non-derived spans reconcile against `Message` events.
        derived: bool,
    },
    /// One application of a distributed oracle inside the quantum
    /// optimization loop.
    Oracle {
        /// Which circuit was applied.
        op: OracleOp,
        /// Application index (0-based within its kind).
        index: u64,
        /// CONGEST rounds charged for this application.
        rounds: u64,
    },
    /// A qubit high-water sample for a memory scope.
    Qubits {
        /// Scope the sample applies to (e.g. `"per-node"`, `"leader"`).
        scope: String,
        /// Qubit count.
        qubits: u64,
    },
    /// A wave-propagation observation at one node in one round (Figure 2,
    /// Lemmas 2–4): `surviving` counts fresh wave messages that beat the
    /// node's current birth date, `distinct` the distinct fresh values.
    /// Emitted only when a fresh wave survives (`surviving ≥ 1`): a node
    /// whose inbox holds only stale waves is not run for them, so it has
    /// nothing to observe, whichever simulator runs it.
    Wave {
        /// Round of the observation.
        round: u64,
        /// Observing node id.
        node: u64,
        /// Fresh wave messages surviving the staleness filter this round.
        surviving: u64,
        /// Distinct `(tau, dist)` values among the surviving messages.
        distinct: u64,
    },
    /// One injected fault (emitted by the scheduler's fault layer, exactly
    /// one event per injected fault).
    Fault {
        /// Round in which the fault was injected.
        round: u64,
        /// What went wrong.
        kind: FaultKind,
        /// Sending node id (for [`FaultKind::Crash`] with `from == to`:
        /// the crashed node itself).
        from: u64,
        /// Receiving node id.
        to: u64,
    },
    /// One recovery action taken by a driver in response to a detected
    /// fault (emitted by the recovery layer, exactly one event per action).
    Recovery {
        /// Round count of the attempt being recovered from (retries and
        /// restarts: rounds wasted; retransmissions and re-roots: 0).
        round: u64,
        /// What the driver did.
        action: RecoveryAction,
        /// 1-based attempt number for retries/restarts (0 where an attempt
        /// count is meaningless, e.g. retransmission rounds).
        attempt: u64,
        /// What was recovered — a ledger-style scope label such as
        /// `"classical-apsp"`, `"eccentricity waves[seg 3]"`, or
        /// `"surviving component"`.
        scope: String,
    },
    /// A named scalar outcome (e.g. the evaluated `f(u0)`).
    Value {
        /// What the scalar is.
        label: String,
        /// The scalar.
        value: u64,
    },
}

fn int(v: u64) -> Json {
    Json::Int(i128::from(v))
}

impl TraceEvent {
    /// Encodes the event as one compact JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let obj = match self {
            TraceEvent::Round { round, delivered } => Json::obj([
                ("type", Json::Str("round".into())),
                ("round", int(*round)),
                ("delivered", int(*delivered)),
            ]),
            TraceEvent::RoundSkip { from, to } => Json::obj([
                ("type", Json::Str("round-skip".into())),
                ("from", int(*from)),
                ("to", int(*to)),
            ]),
            TraceEvent::Message {
                round,
                from,
                to,
                bits,
            } => Json::obj([
                ("type", Json::Str("message".into())),
                ("round", int(*round)),
                ("from", int(*from)),
                ("to", int(*to)),
                ("bits", int(*bits)),
            ]),
            TraceEvent::Phase {
                label,
                rounds,
                messages,
                bits,
                reps,
                derived,
            } => Json::obj([
                ("type", Json::Str("phase".into())),
                ("label", Json::Str(label.clone())),
                ("rounds", int(*rounds)),
                ("messages", int(*messages)),
                ("bits", int(*bits)),
                ("reps", int(*reps)),
                ("derived", Json::Bool(*derived)),
            ]),
            TraceEvent::Oracle { op, index, rounds } => Json::obj([
                ("type", Json::Str("oracle".into())),
                ("op", Json::Str(op.as_str().into())),
                ("index", int(*index)),
                ("rounds", int(*rounds)),
            ]),
            TraceEvent::Qubits { scope, qubits } => Json::obj([
                ("type", Json::Str("qubits".into())),
                ("scope", Json::Str(scope.clone())),
                ("qubits", int(*qubits)),
            ]),
            TraceEvent::Wave {
                round,
                node,
                surviving,
                distinct,
            } => Json::obj([
                ("type", Json::Str("wave".into())),
                ("round", int(*round)),
                ("node", int(*node)),
                ("surviving", int(*surviving)),
                ("distinct", int(*distinct)),
            ]),
            TraceEvent::Fault {
                round,
                kind,
                from,
                to,
            } => Json::obj([
                ("type", Json::Str("fault".into())),
                ("round", int(*round)),
                ("kind", Json::Str(kind.as_str().into())),
                ("from", int(*from)),
                ("to", int(*to)),
            ]),
            TraceEvent::Recovery {
                round,
                action,
                attempt,
                scope,
            } => Json::obj([
                ("type", Json::Str("recovery".into())),
                ("round", int(*round)),
                ("action", Json::Str(action.as_str().into())),
                ("attempt", int(*attempt)),
                ("scope", Json::Str(scope.clone())),
            ]),
            TraceEvent::Value { label, value } => Json::obj([
                ("type", Json::Str("value".into())),
                ("label", Json::Str(label.clone())),
                ("value", int(*value)),
            ]),
        };
        obj.render()
    }

    /// Decodes one event from its JSON object form.
    pub fn from_json(line: &str) -> Result<TraceEvent, String> {
        let obj = Json::parse(line).map_err(|e| e.to_string())?;
        let kind = obj
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| "event missing \"type\"".to_string())?;
        let u = |key: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{kind} event missing integer \"{key}\""))
        };
        let s = |key: &str| -> Result<String, String> {
            obj.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{kind} event missing string \"{key}\""))
        };
        match kind {
            "round" => Ok(TraceEvent::Round {
                round: u("round")?,
                delivered: u("delivered")?,
            }),
            "round-skip" => Ok(TraceEvent::RoundSkip {
                from: u("from")?,
                to: u("to")?,
            }),
            "message" => Ok(TraceEvent::Message {
                round: u("round")?,
                from: u("from")?,
                to: u("to")?,
                bits: u("bits")?,
            }),
            "phase" => Ok(TraceEvent::Phase {
                label: s("label")?,
                rounds: u("rounds")?,
                messages: u("messages")?,
                bits: u("bits")?,
                reps: u("reps")?,
                derived: obj
                    .get("derived")
                    .and_then(Json::as_bool)
                    .ok_or("phase event missing bool \"derived\"")?,
            }),
            "oracle" => Ok(TraceEvent::Oracle {
                op: match s("op")?.as_str() {
                    "setup" => OracleOp::Setup,
                    "evaluation" => OracleOp::Evaluation,
                    other => return Err(format!("unknown oracle op {other:?}")),
                },
                index: u("index")?,
                rounds: u("rounds")?,
            }),
            "qubits" => Ok(TraceEvent::Qubits {
                scope: s("scope")?,
                qubits: u("qubits")?,
            }),
            "wave" => Ok(TraceEvent::Wave {
                round: u("round")?,
                node: u("node")?,
                surviving: u("surviving")?,
                distinct: u("distinct")?,
            }),
            "fault" => Ok(TraceEvent::Fault {
                round: u("round")?,
                kind: match s("kind")?.as_str() {
                    "drop" => FaultKind::Drop,
                    "link-down" => FaultKind::LinkDown,
                    "crash" => FaultKind::Crash,
                    other => return Err(format!("unknown fault kind {other:?}")),
                },
                from: u("from")?,
                to: u("to")?,
            }),
            "recovery" => Ok(TraceEvent::Recovery {
                round: u("round")?,
                action: match s("action")?.as_str() {
                    "retry" => RecoveryAction::Retry,
                    "retransmit" => RecoveryAction::Retransmit,
                    "restart" => RecoveryAction::Restart,
                    "re-root" => RecoveryAction::Reroot,
                    other => return Err(format!("unknown recovery action {other:?}")),
                },
                attempt: u("attempt")?,
                scope: s("scope")?,
            }),
            "value" => Ok(TraceEvent::Value {
                label: s("label")?,
                value: u("value")?,
            }),
            other => Err(format!("unknown event type {other:?}")),
        }
    }
}

/// Expands every [`TraceEvent::RoundSkip`] into the per-round
/// [`TraceEvent::Round`] ticks (each delivering 0) a stepped run would have
/// emitted, leaving every other event untouched.
///
/// The fast-forwarding scheduler and a stepped scheduler are
/// *observationally* identical but emit differently compressed streams;
/// equivalence tests compare both sides through this normalization to stay
/// tick-exact.
pub fn expand_round_skips(events: impl IntoIterator<Item = TraceEvent>) -> Vec<TraceEvent> {
    let mut out = Vec::new();
    for event in events {
        match event {
            TraceEvent::RoundSkip { from, to } => {
                out.extend((from..to).map(|round| TraceEvent::Round {
                    round,
                    delivered: 0,
                }))
            }
            other => out.push(other),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Round {
                round: 3,
                delivered: 12,
            },
            TraceEvent::RoundSkip { from: 4, to: 9 },
            TraceEvent::Message {
                round: 3,
                from: 0,
                to: 5,
                bits: 17,
            },
            TraceEvent::Phase {
                label: "step 1: dfs walk (2d moves)".into(),
                rounds: 15,
                messages: 14,
                bits: 98,
                reps: 2,
                derived: false,
            },
            TraceEvent::Oracle {
                op: OracleOp::Setup,
                index: 0,
                rounds: 11,
            },
            TraceEvent::Oracle {
                op: OracleOp::Evaluation,
                index: 7,
                rounds: 61,
            },
            TraceEvent::Qubits {
                scope: "per-node".into(),
                qubits: 9,
            },
            TraceEvent::Wave {
                round: 4,
                node: 31,
                surviving: 1,
                distinct: 1,
            },
            TraceEvent::Fault {
                round: 6,
                kind: FaultKind::LinkDown,
                from: 2,
                to: 9,
            },
            TraceEvent::Fault {
                round: 1,
                kind: FaultKind::Crash,
                from: 4,
                to: 4,
            },
            TraceEvent::Recovery {
                round: 42,
                action: RecoveryAction::Restart,
                attempt: 2,
                scope: "eccentricity waves[seg 3]".into(),
            },
            TraceEvent::Recovery {
                round: 0,
                action: RecoveryAction::Reroot,
                attempt: 1,
                scope: "surviving component".into(),
            },
            TraceEvent::Value {
                label: "ecc \"leader\"".into(),
                value: 8,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips_through_json() {
        for event in samples() {
            let line = event.to_json();
            assert_eq!(TraceEvent::from_json(&line).unwrap(), event, "{line}");
        }
    }

    #[test]
    fn labels_with_quotes_and_newlines_survive() {
        let event = TraceEvent::Value {
            label: "odd \"label\"\nwith\tcontrol".into(),
            value: 1,
        };
        assert_eq!(TraceEvent::from_json(&event.to_json()).unwrap(), event);
    }

    #[test]
    fn expanding_round_skips_matches_stepped_ticks() {
        let compressed = vec![
            TraceEvent::Round {
                round: 0,
                delivered: 2,
            },
            TraceEvent::RoundSkip { from: 1, to: 4 },
            TraceEvent::Round {
                round: 4,
                delivered: 1,
            },
        ];
        let expanded = expand_round_skips(compressed);
        assert_eq!(
            expanded,
            vec![
                TraceEvent::Round {
                    round: 0,
                    delivered: 2
                },
                TraceEvent::Round {
                    round: 1,
                    delivered: 0
                },
                TraceEvent::Round {
                    round: 2,
                    delivered: 0
                },
                TraceEvent::Round {
                    round: 3,
                    delivered: 0
                },
                TraceEvent::Round {
                    round: 4,
                    delivered: 1
                },
            ]
        );
        // A stepped stream (no skips) passes through unchanged.
        assert_eq!(expand_round_skips(expanded.clone()), expanded);
    }

    #[test]
    fn decode_rejects_malformed_events() {
        assert!(TraceEvent::from_json("{}").is_err());
        assert!(TraceEvent::from_json(r#"{"type":"nope"}"#).is_err());
        assert!(TraceEvent::from_json(r#"{"type":"round","round":1}"#).is_err());
        assert!(
            TraceEvent::from_json(r#"{"type":"oracle","op":"mystery","index":0,"rounds":1}"#)
                .is_err()
        );
        for kind in ["gremlin", "corrupt", "delay"] {
            let line = format!(r#"{{"type":"fault","round":1,"kind":"{kind}","from":0,"to":1}}"#);
            assert!(TraceEvent::from_json(&line).is_err(), "{kind}");
        }
        assert!(TraceEvent::from_json(
            r#"{"type":"recovery","round":1,"action":"give-up","attempt":1,"scope":"x"}"#
        )
        .is_err());
        assert!(TraceEvent::from_json("not json").is_err());
    }
}
