//! Zero-dependency structured telemetry for CONGEST simulations.
//!
//! The simulator and the algorithm layers emit [`TraceEvent`]s — round
//! ticks, per-edge message deliveries, phase spans, oracle applications,
//! qubit high-water samples — into a thread-local
//! [`TraceSink`]. Tracing is strictly opt-in: with no sink installed,
//! [`enabled`] is a single thread-local read and every emission site
//! short-circuits before building its event, so the simulator keeps its
//! zero-overhead hot path.
//!
//! Three sinks ship with the crate:
//!
//! * [`Recorder`] — keeps events in memory, for tests and examples;
//! * [`FileSink`] — appends one JSON object per line (JSONL), written by a
//!   hand-rolled escape-safe encoder (no serde);
//! * [`Summary`] — streams events into per-phase / per-edge rollups.
//!
//! For runs too large to trace per event, the [`flight`] module provides a
//! fixed-capacity per-round [`FlightRecorder`] (closed once per round by
//! the simulator, independent of this sink channel).
//!
//! ```
//! use trace::{Recorder, TraceEvent};
//!
//! let recorder = Recorder::shared();
//! {
//!     let _guard = trace::install(recorder.clone());
//!     trace::emit(TraceEvent::Value { label: "diameter".into(), value: 4 });
//! }
//! assert_eq!(recorder.borrow().events().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod flight;
pub mod json;
pub mod sink;
pub mod summary;

pub use event::{expand_round_skips, FaultKind, OracleOp, RecoveryAction, TraceEvent};
pub use flight::{FlightRecorder, RoundRecord};
pub use json::Json;
pub use sink::{
    parse_jsonl, parse_jsonl_lossy, read_jsonl, read_jsonl_lossy, FileSink, Recorder, SharedSink,
    TraceSink,
};
pub use summary::{EdgeTotals, PhaseTotals, Summary};

use std::cell::RefCell;

thread_local! {
    static CURRENT: RefCell<Option<SharedSink>> = const { RefCell::new(None) };
}

/// Installs `sink` as this thread's trace sink for the guard's lifetime.
///
/// Any previously installed sink is restored when the guard drops, so
/// installations nest.
#[must_use = "tracing stops when the guard is dropped"]
pub fn install(sink: SharedSink) -> Guard {
    let previous = CURRENT.with(|current| current.borrow_mut().replace(sink));
    Guard { previous }
}

/// Restores the previously installed sink (if any) on drop.
pub struct Guard {
    previous: Option<SharedSink>,
}

impl Drop for Guard {
    fn drop(&mut self) {
        CURRENT.with(|current| *current.borrow_mut() = self.previous.take());
    }
}

/// Whether a sink is installed on this thread.
#[inline]
pub fn enabled() -> bool {
    CURRENT.with(|current| current.borrow().is_some())
}

/// A clone of the installed sink handle, if any.
///
/// Hot loops (e.g. the per-round simulator step) fetch this once and reuse
/// the handle instead of paying a thread-local lookup per event.
#[inline]
pub fn current() -> Option<SharedSink> {
    CURRENT.with(|current| current.borrow().clone())
}

/// Sends one event to the installed sink, if any.
pub fn emit(event: TraceEvent) {
    if let Some(sink) = current() {
        sink.borrow_mut().record(&event);
    }
}

/// Builds and sends an event only when a sink is installed.
///
/// Use this at emission sites whose event construction allocates: the
/// closure never runs while tracing is disabled.
pub fn emit_with(build: impl FnOnce() -> TraceEvent) {
    if let Some(sink) = current() {
        sink.borrow_mut().record(&build());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    #[test]
    fn disabled_by_default_and_emit_is_a_no_op() {
        assert!(!enabled());
        emit(TraceEvent::Round {
            round: 1,
            delivered: 0,
        });
        emit_with(|| unreachable!("must not build events while disabled"));
    }

    #[test]
    fn install_scopes_tracing_to_the_guard() {
        let recorder = Recorder::shared();
        {
            let _guard = install(recorder.clone());
            assert!(enabled());
            emit(TraceEvent::Round {
                round: 1,
                delivered: 2,
            });
            emit_with(|| TraceEvent::Value {
                label: "x".into(),
                value: 3,
            });
        }
        assert!(!enabled());
        emit(TraceEvent::Round {
            round: 9,
            delivered: 9,
        });
        assert_eq!(
            recorder.borrow().events(),
            &[
                TraceEvent::Round {
                    round: 1,
                    delivered: 2
                },
                TraceEvent::Value {
                    label: "x".into(),
                    value: 3
                },
            ]
        );
    }

    #[test]
    fn installations_nest_and_restore() {
        let outer = Recorder::shared();
        let inner = Recorder::shared();
        let _outer_guard = install(outer.clone());
        emit(TraceEvent::Round {
            round: 1,
            delivered: 0,
        });
        {
            let _inner_guard = install(inner.clone());
            emit(TraceEvent::Round {
                round: 2,
                delivered: 0,
            });
        }
        emit(TraceEvent::Round {
            round: 3,
            delivered: 0,
        });
        assert_eq!(outer.borrow().events().len(), 2);
        assert_eq!(inner.borrow().events().len(), 1);
    }

    #[test]
    fn current_handle_reaches_the_same_sink() {
        let recorder = Recorder::shared();
        let _guard = install(recorder.clone());
        let handle = current().expect("installed");
        handle.borrow_mut().record(&TraceEvent::Round {
            round: 5,
            delivered: 1,
        });
        assert_eq!(recorder.borrow().events().len(), 1);
    }

    #[test]
    fn summary_works_as_an_installed_sink() {
        let summary = Rc::new(RefCell::new(Summary::new()));
        {
            let _guard = install(summary.clone());
            emit(TraceEvent::Message {
                round: 1,
                from: 0,
                to: 1,
                bits: 8,
            });
        }
        assert_eq!(summary.borrow().messages_delivered, 1);
    }
}
