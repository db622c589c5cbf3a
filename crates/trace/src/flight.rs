//! The **flight recorder**: scale-safe, always-on observability for runs
//! too big to trace per event.
//!
//! A [`FlightRecorder`] is a fixed-capacity ring buffer of compact
//! per-round aggregate records ([`RoundRecord`]): messages, wire bits,
//! deliveries, faults, recoveries, plus scheduler telemetry (scheduled
//! nodes, frontier width, wakeups, arena high-water bytes). Every round
//! enters through one call, [`FlightRecorder::close`], which the simulator
//! makes once per round from the same tally the metrics layer is charged
//! from, so a 10⁶-node run pays O(1) per round — no per-edge events, no
//! unbounded memory — and the recorder still explains where the rounds and
//! bytes went. Only recovery actions, which drivers take between rounds,
//! are noted separately ([`FlightRecorder::note_recovery`]); they land in
//! the next record.
//!
//! Fast-forwarded quiescent stretches enter the ring as one *span* record
//! covering many rounds (mirroring `TraceEvent::RoundSkip`); the
//! [`FlightRecorder::window`] view re-expands spans so a fast-forwarding
//! run and a stepped run normalize to identical per-round records. Like
//! `RunStats`, equality on [`RoundRecord`] compares only the protocol
//! observables — scheduler/memory telemetry legitimately differs between
//! simulators that execute different nodes over the same traffic.
//!
//! Installation mirrors the crate's sink and the metrics registry: a
//! thread-local RAII guard ([`install`]), strictly opt-in, with
//! [`current`] fetched once per round by hot loops.

use crate::event::TraceEvent;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

/// Default ring capacity in record slots: enough to explain the tail of a
/// long run while the whole ring (256 × 88 B = 22 KiB) fits inside even a
/// 32 KiB L1 data cache alongside the simulator's own per-round working
/// set — the per-round overwrite must not take cache misses, or the <5%
/// overhead budget on sparse-wavefront workloads is blown by the ring
/// itself.
pub const DEFAULT_CAPACITY: usize = 256;

/// How many hottest rounds (by messages) the recorder keeps, independent
/// of ring eviction.
pub const HOT_K: usize = 8;

/// One ring entry: the aggregate observables of `span` consecutive rounds
/// starting at `round` (`span == 1` for a stepped round; a fast-forwarded
/// quiescent stretch is one record with `span > 1`).
///
/// Equality compares only the protocol observables (`round`, `span`,
/// `delivered`, `messages`, `bits`, `faults`, `recoveries`); the scheduler
/// and memory telemetry (`scheduled`, `frontier`, `wakeups`,
/// `arena_bytes`) is excluded, for the same reason `RunStats` excludes its
/// scheduling fields: a simulator that skips idle nodes and one that runs
/// every node produce identical traffic with different schedules.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundRecord {
    /// First round covered by this record (assigned by
    /// [`FlightRecorder::close`]).
    pub round: u64,
    /// Rounds covered (1 for a stepped round; the skipped stretch length
    /// for a fast-forward record).
    pub span: u64,
    /// Messages delivered at the start of the covered rounds.
    pub delivered: u64,
    /// Messages committed (sent) during the covered rounds.
    pub messages: u64,
    /// Payload bits committed during the covered rounds.
    pub bits: u64,
    /// Faults injected during the covered rounds.
    pub faults: u64,
    /// Recovery actions noted since the previous record closed.
    pub recoveries: u64,
    /// Node programs executed (telemetry; excluded from equality).
    pub scheduled: u64,
    /// Timed wakeups that fired into the active set (telemetry).
    pub wakeups: u64,
    /// Next-round frontier width when the round closed (telemetry).
    pub frontier: u64,
    /// Message-arena high-water bytes when the round closed (telemetry).
    pub arena_bytes: u64,
}

impl PartialEq for RoundRecord {
    fn eq(&self, other: &Self) -> bool {
        self.round == other.round
            && self.span == other.span
            && self.delivered == other.delivered
            && self.messages == other.messages
            && self.bits == other.bits
            && self.faults == other.faults
            && self.recoveries == other.recoveries
    }
}

impl Eq for RoundRecord {}

/// A shared, reference-counted flight-recorder handle.
pub type SharedFlight = Rc<RefCell<FlightRecorder>>;

/// Fixed-capacity ring buffer of [`RoundRecord`]s plus lifetime totals and
/// an online hottest-rounds list. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    /// Ring capacity in record slots (and, for stepped runs where every
    /// record is one round, in rounds covered).
    capacity: u64,
    /// Physical slots; grows to `capacity` records, then wraps.
    ring: Vec<RoundRecord>,
    /// Index of the oldest record once the ring has wrapped.
    head: usize,
    /// Rounds currently covered by `ring` (Σ span).
    covered: u64,
    /// Recovery actions noted since the last close, charged to the next
    /// record.
    recoveries: u64,
    /// Whether any span record (> 1 round) has ever entered the ring.
    /// While false, `covered` tracking degenerates to `ring.len()` and
    /// the overwrite path skips the old-slot span read.
    mixed_spans: bool,
    /// Recorder-local index of the next round to close. Cumulative across
    /// phases: a driver that runs several networks sees one concatenated
    /// timeline.
    next_round: u64,
    /// Lifetime aggregates, unaffected by ring eviction (`span` holds the
    /// total rounds; `arena_bytes`/`frontier` hold maxima).
    totals: RoundRecord,
    /// Top-[`HOT_K`] closed rounds by messages (ties: earlier round
    /// first), maintained online.
    hottest: Vec<RoundRecord>,
    /// Message count of the coldest entry in a *full* `hottest` list —
    /// the one-compare fast path that keeps [`close`](Self::close) O(1)
    /// in the steady state. `0` while the list is short, so every record
    /// still takes the slow path until `hottest` fills.
    hot_floor: u64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// A recorder with the [`DEFAULT_CAPACITY`]-round window.
    pub fn new() -> Self {
        FlightRecorder::with_capacity(DEFAULT_CAPACITY)
    }

    /// A recorder whose ring covers the last `capacity` rounds (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity: capacity as u64,
            // Preallocated (bounded for absurd capacities) so the
            // per-round push never reallocates mid-run.
            ring: Vec::with_capacity(capacity.min(1 << 20)),
            head: 0,
            covered: 0,
            recoveries: 0,
            mixed_spans: false,
            next_round: 0,
            totals: RoundRecord::default(),
            hottest: Vec::with_capacity(HOT_K + 1),
            hot_floor: 0,
        }
    }

    /// A shared default recorder, ready for [`install`].
    pub fn shared() -> SharedFlight {
        Rc::new(RefCell::new(FlightRecorder::new()))
    }

    /// Charges one recovery action to the next record to close.
    pub fn note_recovery(&mut self) {
        self.recoveries += 1;
    }

    /// Closes the next `rec.span ≥ 1` rounds as one record: assigns
    /// `rec.round`, adds the recoveries noted since the last close, and
    /// pushes it into the ring, the lifetime totals and (span 1 only) the
    /// hottest list. A record with `span > 1` is a fast-forwarded stretch.
    #[inline]
    pub fn close(&mut self, rec: RoundRecord) {
        self.push(
            rec.span,
            rec.delivered,
            rec.messages,
            rec.bits,
            rec.faults,
            rec.recoveries,
            rec.scheduled,
            rec.wakeups,
            rec.frontier,
            rec.arena_bytes,
        );
    }

    /// The body of [`close`](Self::close), deliberately out-of-line:
    /// inlined into the simulator's (register-hungry) round close it forces
    /// spills, and the overhead gate could no longer measure the same code
    /// the simulator runs. It takes the fields, not the record: a record
    /// passed by value goes through memory, and reading back the caller's
    /// field-by-field stores with the wide loads the compiler picks stalls
    /// on store forwarding, doubling the close. The record is rebuilt
    /// through a closure so each consumer materializes its own copy where
    /// it needs it: the cold calls in their own blocks, and the ring
    /// overwrite as direct field stores into the slot. The two rare
    /// branches (the ring still growing, a record hot enough for the
    /// leaderboard) are `#[cold]` out-of-line calls, which keeps their
    /// `Vec` machinery out of this frame.
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        span: u64,
        delivered: u64,
        messages: u64,
        bits: u64,
        faults: u64,
        recoveries: u64,
        scheduled: u64,
        wakeups: u64,
        frontier: u64,
        arena_bytes: u64,
    ) {
        debug_assert!(span >= 1, "a record covers at least one round");
        let round = self.next_round;
        self.next_round += span;
        // Recoveries are rare: reset the pending count only when there is
        // one, which keeps a store off the steady-state path.
        let recoveries = recoveries + self.recoveries;
        if self.recoveries != 0 {
            self.recoveries = 0;
        }
        let rec = || RoundRecord {
            round,
            span,
            delivered,
            messages,
            bits,
            faults,
            recoveries,
            scheduled,
            wakeups,
            frontier,
            arena_bytes,
        };
        // `totals.span` is not summed here: it always equals `next_round`,
        // so the getter derives it and the hot path saves the update.
        self.totals.delivered += delivered;
        self.totals.messages += messages;
        self.totals.bits += bits;
        self.totals.faults += faults;
        self.totals.recoveries += recoveries;
        self.totals.scheduled += scheduled;
        self.totals.wakeups += wakeups;
        self.totals.frontier = self.totals.frontier.max(frontier);
        self.totals.arena_bytes = self.totals.arena_bytes.max(arena_bytes);
        if span == 1 {
            // Steady-state fast path: once the list is full, a record no
            // hotter than its coldest entry can never enter — an equal
            // message count loses the tie to the earlier round already
            // held.
            if self.hottest.len() != HOT_K || messages > self.hot_floor {
                self.note_hot(rec());
            }
        } else {
            self.mixed_spans = true;
        }
        // Slot ring: once `capacity` records exist, each push overwrites
        // the oldest slot in place — one store, no shifting, memory fixed.
        // Span records make `covered` exceed `capacity` (a compressed
        // quiet stretch holds more rounds than the slots it evicts);
        // [`window`](Self::window) truncates the expansion, which is what
        // keeps a fast-forwarding ring and a stepped ring normalizing to
        // the same per-round window.
        if self.ring.len() < self.capacity as usize {
            self.grow_push(rec());
        } else {
            let old = &mut self.ring[self.head];
            // All-singles rings (no skip ever recorded) keep `covered`
            // pinned at capacity: +1 in, -1 out. Skipping the old-slot
            // span read keeps the steady-state overwrite store-only.
            if self.mixed_spans {
                self.covered += span;
                self.covered -= old.span;
            }
            *old = rec();
            self.head += 1;
            if self.head == self.ring.len() {
                self.head = 0;
            }
        }
    }

    /// Records a fast-forwarded stretch of `rounds` fully quiescent rounds
    /// (none for `rounds == 0`) as one span record — O(1) however long the
    /// jump, normalizing in [`FlightRecorder::window`] to exactly the
    /// zero-counter records a stepped run would have produced.
    pub fn skip(&mut self, rounds: u64) {
        if rounds > 0 {
            self.close(RoundRecord {
                span: rounds,
                ..RoundRecord::default()
            });
        }
    }

    /// The ring's warm-up append — taken at most `capacity` times per
    /// recorder lifetime.
    #[cold]
    #[inline(never)]
    fn grow_push(&mut self, rec: RoundRecord) {
        self.covered += rec.span;
        self.ring.push(rec);
    }

    /// Inserts a record that beat the leaderboard floor. Cold by
    /// construction: after the first [`HOT_K`] rounds this runs only when
    /// a round is hotter than the current top eight.
    #[cold]
    #[inline(never)]
    fn note_hot(&mut self, rec: RoundRecord) {
        // Descending by messages, ties broken by earlier round; bounded at
        // HOT_K, so the insert is O(HOT_K) and fully deterministic.
        let pos = self
            .hottest
            .iter()
            .position(|h| {
                (h.messages, std::cmp::Reverse(h.round))
                    < (rec.messages, std::cmp::Reverse(rec.round))
            })
            .unwrap_or(self.hottest.len());
        if pos < HOT_K {
            self.hottest.insert(pos, rec);
            self.hottest.truncate(HOT_K);
            if self.hottest.len() == HOT_K {
                self.hot_floor = self.hottest[HOT_K - 1].messages;
            }
        }
    }

    /// The raw ring records, oldest first (span records not expanded).
    pub fn records(&self) -> impl Iterator<Item = &RoundRecord> {
        // Logical order on the wrap ring: the slots at and after `head`
        // are the oldest, the slots before it the most recent.
        let (wrapped, oldest) = self.ring.split_at(self.head);
        oldest.iter().chain(wrapped.iter())
    }

    /// Rounds covered by the ring right now.
    pub fn covered(&self) -> u64 {
        self.covered
    }

    /// Rounds closed or skipped over the recorder's lifetime.
    pub fn rounds(&self) -> u64 {
        self.next_round
    }

    /// Lifetime aggregates (survive ring eviction): `span` holds total
    /// rounds; `frontier`/`arena_bytes` hold lifetime maxima; everything
    /// else sums. `recoveries` includes those noted after the last closed
    /// round, which no record carries yet.
    pub fn totals(&self) -> RoundRecord {
        RoundRecord {
            span: self.next_round,
            recoveries: self.totals.recoveries + self.recoveries,
            ..self.totals
        }
    }

    /// The top-[`HOT_K`] rounds by committed messages, hottest first.
    pub fn hottest(&self) -> &[RoundRecord] {
        &self.hottest
    }

    /// The last `capacity` rounds as uniform per-round records: span
    /// records are expanded into the rounds a stepped scheduler would have
    /// recorded — the first carries the record's counters (recoveries
    /// noted before a fast-forward; a quiescent stretch has no traffic),
    /// the rest are zero — and the result is truncated to the window. This
    /// is the normalization the determinism suite compares: a
    /// fast-forwarding run and a stepped run return identical windows.
    pub fn window(&self) -> Vec<RoundRecord> {
        let mut out: Vec<RoundRecord> = Vec::new();
        let mut need = self.capacity.min(self.covered);
        let (wrapped, oldest) = self.ring.split_at(self.head);
        'outer: for rec in wrapped.iter().rev().chain(oldest.iter().rev()) {
            for round in (rec.round..rec.round + rec.span).rev() {
                if need == 0 {
                    break 'outer;
                }
                let counters = if round == rec.round {
                    *rec
                } else {
                    RoundRecord::default()
                };
                out.push(RoundRecord {
                    round,
                    span: 1,
                    ..counters
                });
                need -= 1;
            }
        }
        out.reverse();
        out
    }

    /// Rebuilds a recorder from a trace-event stream through the same
    /// [`close`](Self::close) the simulator calls: each `Message`/`Fault`
    /// event is charged to the round whose `Round` tick follows it, each
    /// `Recovery` is noted as drivers note it, and a `RoundSkip` closes one
    /// span record. A recorder fed by the simulator and one rebuilt from
    /// its trace therefore agree record for record (telemetry fields
    /// excepted: the event stream does not carry them).
    pub fn from_events(capacity: usize, events: &[TraceEvent]) -> FlightRecorder {
        let mut rec = FlightRecorder::with_capacity(capacity);
        let mut open = RoundRecord::default();
        for event in events {
            match *event {
                TraceEvent::Message { bits, .. } => {
                    open.messages += 1;
                    open.bits += bits;
                }
                TraceEvent::Fault { .. } => open.faults += 1,
                TraceEvent::Recovery { .. } => rec.note_recovery(),
                TraceEvent::Round { delivered, .. } => rec.close(RoundRecord {
                    span: 1,
                    delivered,
                    ..std::mem::take(&mut open)
                }),
                TraceEvent::RoundSkip { from, to } => rec.skip(to.saturating_sub(from)),
                _ => {}
            }
        }
        rec
    }

    /// Renders the recorder as a human-readable timeline: lifetime totals,
    /// per-round percentiles over the window, a sparkline of messages per
    /// round, and the hottest rounds.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let t = self.totals();
        let _ = writeln!(
            out,
            "flight recorder: {} rounds ({} in window), {} messages, {} bits, {} delivered",
            t.span,
            self.covered.min(self.capacity),
            t.messages,
            t.bits,
            t.delivered
        );
        let _ = writeln!(
            out,
            "lifetime: scheduled {} | wakeups {} | faults {} | recoveries {} | \
             max frontier {} | arena high-water {} bytes",
            t.scheduled, t.wakeups, t.faults, t.recoveries, t.frontier, t.arena_bytes
        );
        let window = self.window();
        if window.is_empty() {
            let _ = writeln!(out, "(no rounds recorded)");
            return out;
        }
        let msgs: Vec<u64> = window.iter().map(|r| r.messages).collect();
        let bits: Vec<u64> = window.iter().map(|r| r.bits).collect();
        let _ = writeln!(out, "window messages/round: {}", percentile_line(&msgs));
        let _ = writeln!(out, "window bits/round:     {}", percentile_line(&bits));
        let _ = writeln!(
            out,
            "messages sparkline (oldest -> newest, {} rounds):\n  {}",
            window.len(),
            sparkline(&msgs, 64)
        );
        if !self.hottest.is_empty() {
            let _ = writeln!(out, "hottest rounds (by messages):");
            for h in &self.hottest {
                let _ = writeln!(
                    out,
                    "  round {:>8}: {} messages, {} bits, {} delivered, {} scheduled",
                    h.round, h.messages, h.bits, h.delivered, h.scheduled
                );
            }
        }
        out
    }
}

/// `p50/p90/p99/max` of a non-empty sample.
fn percentile_line(xs: &[u64]) -> String {
    let mut sorted = xs.to_vec();
    sorted.sort_unstable();
    let pick = |p: usize| sorted[(sorted.len() - 1) * p / 100];
    format!(
        "p50 {} / p90 {} / p99 {} / max {}",
        pick(50),
        pick(90),
        pick(99),
        sorted[sorted.len() - 1]
    )
}

/// A unicode sparkline of `xs` compressed into at most `buckets` buckets
/// (each the mean of its slice), scaled to the largest bucket.
fn sparkline(xs: &[u64], buckets: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if xs.is_empty() {
        return String::new();
    }
    let buckets = buckets.max(1).min(xs.len());
    let mut means = Vec::with_capacity(buckets);
    for b in 0..buckets {
        let lo = b * xs.len() / buckets;
        let hi = ((b + 1) * xs.len() / buckets).max(lo + 1);
        let sum: u64 = xs[lo..hi].iter().sum();
        means.push(sum as f64 / (hi - lo) as f64);
    }
    let max = means.iter().cloned().fold(0.0f64, f64::max);
    means
        .iter()
        .map(|&m| {
            if max == 0.0 {
                BARS[0]
            } else {
                BARS[((m / max * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

thread_local! {
    static CURRENT: RefCell<Option<SharedFlight>> = const { RefCell::new(None) };
}

/// Installs `recorder` as this thread's flight recorder for the guard's
/// lifetime. Installations nest, exactly like [`crate::install`] and
/// `metrics::install`.
#[must_use = "flight recording stops when the guard is dropped"]
pub fn install(recorder: SharedFlight) -> Guard {
    let previous = CURRENT.with(|current| current.borrow_mut().replace(recorder));
    Guard { previous }
}

/// Restores the previously installed recorder (if any) on drop.
pub struct Guard {
    previous: Option<SharedFlight>,
}

impl Drop for Guard {
    fn drop(&mut self) {
        CURRENT.with(|current| *current.borrow_mut() = self.previous.take());
    }
}

/// A clone of the installed recorder handle, if any. Hot loops fetch this
/// once per round.
pub fn current() -> Option<SharedFlight> {
    CURRENT.with(|current| current.borrow().clone())
}

/// Runs `f` against the installed recorder, if any. Clone-free: the
/// handle is borrowed in place, so per-round charge sites pay one
/// thread-local access and no reference-count traffic. Calling
/// [`install`] from inside `f` panics (the slot is borrowed).
pub fn with(f: impl FnOnce(&mut FlightRecorder)) {
    CURRENT.with(|current| {
        if let Some(recorder) = current.borrow().as_ref() {
            f(&mut recorder.borrow_mut());
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stepped round's record (`round` is left for the recorder).
    fn one_round(delivered: u64, messages: u64, bits: u64) -> RoundRecord {
        RoundRecord {
            span: 1,
            delivered,
            messages,
            bits,
            ..RoundRecord::default()
        }
    }

    #[test]
    fn rounds_accumulate_and_close() {
        let mut rec = FlightRecorder::with_capacity(16);
        rec.close(RoundRecord {
            round: 99,
            faults: 1,
            ..one_round(3, 2, 12)
        });
        rec.note_recovery();
        rec.close(one_round(2, 0, 0));
        let records: Vec<_> = rec.records().copied().collect();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].round, 0, "the recorder assigns the round");
        assert_eq!(records[0].messages, 2);
        assert_eq!(records[0].bits, 12);
        assert_eq!(records[0].faults, 1);
        assert_eq!(records[0].delivered, 3);
        assert_eq!(records[0].recoveries, 0);
        assert_eq!(records[1].round, 1);
        assert_eq!(records[1].recoveries, 1);
        let t = rec.totals();
        assert_eq!((t.span, t.messages, t.bits, t.delivered), (2, 2, 12, 5));
        assert_eq!((t.faults, t.recoveries), (1, 1));
    }

    #[test]
    fn a_recovery_noted_after_the_last_close_is_in_the_totals() {
        let mut rec = FlightRecorder::with_capacity(16);
        rec.close(one_round(3, 2, 12));
        rec.note_recovery();
        assert_eq!(rec.totals().recoveries, 1);
        assert!(rec.render().contains("recoveries 1 |"), "{}", rec.render());
        // The next close charges it to its record, and counts it once.
        rec.close(one_round(0, 0, 0));
        assert_eq!(rec.totals().recoveries, 1);
        assert_eq!(rec.window()[1].recoveries, 1);
    }

    #[test]
    fn ring_evicts_by_rounds_covered_not_records() {
        let mut rec = FlightRecorder::with_capacity(4);
        for _ in 0..10 {
            rec.close(one_round(0, 0, 0));
        }
        assert_eq!(rec.covered(), 4);
        assert_eq!(rec.window().len(), 4);
        assert_eq!(rec.window()[0].round, 6);
        // Lifetime totals survive eviction.
        assert_eq!(rec.totals().span, 10);
    }

    #[test]
    fn skip_spans_normalize_like_steppedzero_rounds() {
        // One recorder fast-forwards 5 rounds; the other steps them.
        let mut skipped = FlightRecorder::with_capacity(8);
        let mut stepped = FlightRecorder::with_capacity(8);
        for rec in [&mut skipped, &mut stepped] {
            rec.close(one_round(0, 1, 10));
        }
        skipped.skip(5);
        for _ in 0..5 {
            stepped.close(one_round(0, 0, 0));
        }
        for rec in [&mut skipped, &mut stepped] {
            rec.close(one_round(1, 1, 7));
        }
        assert_eq!(skipped.window(), stepped.window());
        assert_eq!(skipped.rounds(), stepped.rounds());
        // A span larger than the whole window truncates identically too.
        let mut skipped = FlightRecorder::with_capacity(3);
        let mut stepped = FlightRecorder::with_capacity(3);
        skipped.skip(10);
        skipped.skip(0);
        for _ in 0..10 {
            stepped.close(one_round(0, 0, 0));
        }
        skipped.close(one_round(0, 0, 0));
        stepped.close(one_round(0, 0, 0));
        assert_eq!(skipped.window(), stepped.window());
        assert_eq!(skipped.window().len(), 3);
    }

    /// A fast-forwarded stretch of `k` rounds enters the ring as one span
    /// record, and the window and lifetime totals come out exactly as if
    /// the simulator had closed `k` rounds with zero counts — including a
    /// recovery noted before the stretch, which both charge to its first
    /// round.
    #[test]
    fn skip_matches_zero_count_closed_rounds() {
        let busy = |rec: &mut FlightRecorder, r: u64| {
            rec.close(RoundRecord {
                faults: r % 2,
                scheduled: 3,
                ..one_round(r, r + 1, 8 * (r + 1))
            });
        };
        let mut skipped = FlightRecorder::with_capacity(32);
        let mut stepped = FlightRecorder::with_capacity(32);
        for (r, quiet) in [(0, 4), (1, 11), (2, 1), (3, 0)] {
            for rec in [&mut skipped, &mut stepped] {
                busy(rec, r);
                if r == 1 {
                    rec.note_recovery();
                }
            }
            skipped.skip(quiet);
            for _ in 0..quiet {
                stepped.close(one_round(0, 0, 0));
            }
        }
        assert!(skipped.records().any(|r| r.span > 1));
        assert!(stepped.records().all(|r| r.span == 1));
        assert_eq!(skipped.rounds(), stepped.rounds());
        assert_eq!(skipped.window(), stepped.window());
        assert_eq!(skipped.totals(), stepped.totals());
        assert_eq!(skipped.totals().recoveries, 1);
        assert_eq!(skipped.window()[6].recoveries, 1);
        assert!(skipped.records().count() < skipped.rounds() as usize);
    }

    #[test]
    fn equality_ignores_scheduler_telemetry() {
        let a = RoundRecord {
            round: 3,
            span: 1,
            messages: 5,
            scheduled: 100,
            frontier: 9,
            arena_bytes: 4096,
            ..RoundRecord::default()
        };
        let b = RoundRecord {
            round: 3,
            span: 1,
            messages: 5,
            ..RoundRecord::default()
        };
        assert_eq!(a, b);
        let c = RoundRecord { messages: 6, ..b };
        assert_ne!(a, c);
    }

    #[test]
    fn hottest_rounds_are_tracked_online() {
        let mut rec = FlightRecorder::with_capacity(4);
        for (i, m) in [3u64, 9, 1, 9, 5].iter().enumerate() {
            rec.close(one_round(i as u64, *m, m * 8));
        }
        let hot = rec.hottest();
        assert_eq!(hot[0].round, 1, "ties break toward the earlier round");
        assert_eq!(hot[1].round, 3);
        assert_eq!(hot[2].round, 4);
        // Hot rounds survive ring eviction (round 0 left the window but is
        // still on the hottest list).
        assert!(rec.window().iter().all(|r| r.round != 0));
        assert!(hot.iter().any(|r| r.round == 0));
    }

    #[test]
    fn from_events_matches_live_charging() {
        let events = vec![
            TraceEvent::Message {
                round: 0,
                from: 0,
                to: 1,
                bits: 8,
            },
            TraceEvent::Message {
                round: 0,
                from: 1,
                to: 0,
                bits: 8,
            },
            TraceEvent::Round {
                round: 0,
                delivered: 0,
            },
            TraceEvent::Recovery {
                round: 1,
                action: crate::event::RecoveryAction::Retransmit,
                attempt: 0,
                scope: "bfs".into(),
            },
            TraceEvent::RoundSkip { from: 1, to: 4 },
            TraceEvent::Fault {
                round: 4,
                kind: crate::event::FaultKind::Drop,
                from: 0,
                to: 1,
            },
            TraceEvent::Round {
                round: 4,
                delivered: 2,
            },
        ];
        let rebuilt = FlightRecorder::from_events(16, &events);
        let mut live = FlightRecorder::with_capacity(16);
        live.close(one_round(0, 2, 16));
        live.note_recovery();
        live.skip(3);
        live.close(RoundRecord {
            faults: 1,
            ..one_round(2, 0, 0)
        });
        assert_eq!(rebuilt.rounds(), live.rounds());
        assert_eq!(rebuilt.window(), live.window());
        assert_eq!(rebuilt.totals(), live.totals());
        assert_eq!(live.window()[1].recoveries, 1);
        assert_eq!(live.totals().faults, 1);
    }

    #[test]
    fn render_is_stable_and_nonempty() {
        let mut rec = FlightRecorder::with_capacity(8);
        for i in 0..20u64 {
            rec.close(one_round(i % 3, i % 4, (i % 4) * 16));
        }
        let text = rec.render();
        assert!(text.contains("flight recorder:"), "{text}");
        assert!(text.contains("p50"), "{text}");
        assert!(text.contains("hottest rounds"), "{text}");
        assert_eq!(text, rec.render(), "rendering must be deterministic");
    }

    #[test]
    fn install_scopes_charging_to_the_guard() {
        assert!(current().is_none());
        let rec = FlightRecorder::shared();
        {
            let _guard = install(rec.clone());
            with(|f| f.close(one_round(0, 1, 4)));
        }
        with(|_| unreachable!("must not run while disabled"));
        assert_eq!(rec.borrow().totals().messages, 1);
    }
}
