//! The **flight recorder**: scale-safe, always-on observability for runs
//! too big to trace per event.
//!
//! A [`FlightRecorder`] is a fixed-capacity ring buffer of compact
//! per-round aggregate records ([`RoundRecord`]): messages, wire bits,
//! deliveries, faults, recoveries, plus scheduler telemetry (scheduled
//! nodes, frontier width, wakeups, arena high-water bytes). The simulator
//! charges it once per round from the same accounting the metrics layer
//! uses, so a 10⁶-node run pays O(1) per round — no per-edge events, no
//! unbounded memory — and the recorder still explains where the rounds and
//! bytes went.
//!
//! Fast-forwarded quiescent stretches enter the ring as one *span* record
//! covering many rounds (mirroring `TraceEvent::RoundSkip`); the
//! [`FlightRecorder::window`] view re-expands spans so a fast-forwarding
//! run and a stepped run normalize to identical per-round records. Like
//! `RunStats`, equality on [`RoundRecord`] compares only the protocol
//! observables — scheduler/memory telemetry legitimately differs between
//! simulators that execute different nodes over the same traffic.
//!
//! The module also hosts the deterministic **sampling policy** for
//! full-fidelity events: [`SamplePolicy`] keeps a message event with a
//! probability that is a pure function of `(seed, round, edge)` — exactly
//! like fault-plan fates — so a [`SampledSink`]-filtered trace is
//! byte-identical whichever nodes the simulator executes and whether it
//! fast-forwards.
//!
//! Installation mirrors the crate's sink and the metrics registry: a
//! thread-local RAII guard ([`install`]), strictly opt-in, with
//! [`current`] fetched once per round by hot loops.

use crate::event::TraceEvent;
use crate::sink::TraceSink;
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
/// quiescent stretch is one record with `span > 1` and zero counters).
///
/// Equality compares only the protocol observables (`round`, `span`,
/// `delivered`, `messages`, `bits`, `faults`, `recoveries`); the scheduler
/// and memory telemetry (`scheduled`, `frontier`, `wakeups`,
/// `arena_bytes`) is excluded, for the same reason `RunStats` excludes its
/// scheduling fields: a simulator that skips idle nodes and one that runs
/// every node produce identical traffic with different schedules.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundRecord {
    /// First round covered by this record.
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
    /// Recovery actions noted during the covered rounds.
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

/// The per-round telemetry sampled once when a round closes (the
/// counter-like fields accumulate through `note_*` calls instead).
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundSample {
    /// Messages delivered at the start of the round.
    pub delivered: u64,
    /// Node programs executed this round.
    pub scheduled: u64,
    /// Width of the next round's accumulated frontier.
    pub frontier: u64,
    /// Timed wakeups that fired into this round's active set.
    pub wakeups: u64,
    /// Message-arena high-water bytes.
    pub arena_bytes: u64,
}

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
    /// Counters accumulating for the round currently in flight.
    open: RoundRecord,
    /// Whether `open` holds any charges — the common clean case lets
    /// [`close_round`](Self::close_round) skip the merge entirely.
    open_dirty: bool,
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
    /// the one-compare fast path that keeps [`close_round`](Self::close_round)
    /// O(1) in the steady state. `0` while the list is short, so every
    /// record still takes the slow path until `hottest` fills.
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
            open: RoundRecord::default(),
            open_dirty: false,
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

    /// Charges one committed message of `bits` payload bits to the open
    /// round.
    pub fn note_message(&mut self, bits: u64) {
        self.note_messages(1, bits);
    }

    /// Charges `count` committed messages totalling `bits` payload bits to
    /// the open round (the simulator's once-per-round bulk form).
    #[inline]
    pub fn note_messages(&mut self, count: u64, bits: u64) {
        self.open.messages += count;
        self.open.bits += bits;
        self.open_dirty = true;
    }

    /// Charges `count` injected faults to the open round.
    #[inline]
    pub fn note_faults(&mut self, count: u64) {
        self.open.faults += count;
        self.open_dirty = true;
    }

    /// Charges one recovery action to the open round.
    pub fn note_recovery(&mut self) {
        self.open.recoveries += 1;
        self.open_dirty = true;
    }

    /// Closes the open round: stamps the accumulated counters with
    /// `sample`'s once-per-round telemetry and pushes the record.
    #[inline]
    pub fn close_round(&mut self, sample: RoundSample) {
        self.close_charged(0, 0, 0, sample);
    }

    /// [`close_round`](Self::close_round) with this round's bulk charges
    /// passed inline — the simulator's once-per-round form, equivalent to
    /// `note_messages(messages, bits); note_faults(faults); close_round(sample)`
    /// but without touching the open record when nothing else charged it.
    ///
    /// Deliberately out-of-line: inlined into the simulator's (large,
    /// register-hungry) round commit this body forces spills around the
    /// whole round loop, and the overhead gate could no longer measure the
    /// same code the simulator runs. One `call` per round is cheaper than
    /// both.
    #[inline(never)]
    pub fn close_charged(
        &mut self,
        mut messages: u64,
        mut bits: u64,
        mut faults: u64,
        sample: RoundSample,
    ) {
        let mut recoveries = 0;
        if self.open_dirty {
            // Only the charge counters accumulate in `open`; fold and
            // reset just those.
            messages += self.open.messages;
            bits += self.open.bits;
            faults += self.open.faults;
            recoveries = self.open.recoveries;
            self.open.messages = 0;
            self.open.bits = 0;
            self.open.faults = 0;
            self.open.recoveries = 0;
            self.open_dirty = false;
        }
        let round = self.next_round;
        self.next_round = round + 1;
        // This is `push(rec)` hand-specialized to the span-1 steady state.
        // The record is built through a closure so every consumer
        // materializes its own copy where it needs it: the cold calls in
        // their own blocks, and the ring overwrite as direct field stores
        // into the slot. A single up-front `RoundRecord` local would be
        // address-taken by the cold calls, forcing a stack copy on the hot
        // path whose scalar-store/vector-reload round trip defeats
        // store-to-load forwarding — measurably slower than the stores
        // themselves.
        let rec = || RoundRecord {
            round,
            span: 1,
            delivered: sample.delivered,
            messages,
            bits,
            faults,
            recoveries,
            scheduled: sample.scheduled,
            frontier: sample.frontier,
            wakeups: sample.wakeups,
            arena_bytes: sample.arena_bytes,
        };
        self.totals.delivered += sample.delivered;
        self.totals.messages += messages;
        self.totals.bits += bits;
        self.totals.faults += faults;
        self.totals.recoveries += recoveries;
        self.totals.scheduled += sample.scheduled;
        self.totals.wakeups += sample.wakeups;
        self.totals.frontier = self.totals.frontier.max(sample.frontier);
        self.totals.arena_bytes = self.totals.arena_bytes.max(sample.arena_bytes);
        if self.hottest.len() != HOT_K || messages > self.hot_floor {
            self.note_hot(rec());
        }
        if self.ring.len() < self.capacity as usize {
            self.grow_push(rec());
        } else {
            let old = &mut self.ring[self.head];
            if self.mixed_spans {
                self.covered += 1;
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
    /// as one span record — O(1) however long the jump, normalizing in
    /// [`FlightRecorder::window`] to exactly the zero-counter records a
    /// stepped run would have produced.
    pub fn skip(&mut self, rounds: u64) {
        if rounds == 0 {
            return;
        }
        let rec = RoundRecord {
            round: self.next_round,
            span: rounds,
            ..RoundRecord::default()
        };
        self.next_round += rounds;
        self.push(rec);
    }

    /// The general push, used by the (rare) fast-forward span path —
    /// [`close_charged`](Self::close_charged) hand-specializes this for
    /// the per-round steady state instead of calling it. The two
    /// genuinely rare branches (the ring still growing, a record hot
    /// enough for the leaderboard) are `#[cold]` out-of-line calls, which
    /// keeps their `Vec` machinery (reallocation, `insert`'s memmove) out
    /// of callers' frames.
    #[inline]
    fn push(&mut self, rec: RoundRecord) {
        // `totals.span` is not summed here: it always equals `next_round`
        // (every close adds 1, every skip adds its span), so the getter
        // derives it and the hot path saves the update.
        // The seven sums sit adjacent in declaration order (`delivered`
        // through `wakeups`) so the compiler can fold them into wide
        // vector adds; the two maxima trail.
        self.totals.delivered += rec.delivered;
        self.totals.messages += rec.messages;
        self.totals.bits += rec.bits;
        self.totals.faults += rec.faults;
        self.totals.recoveries += rec.recoveries;
        self.totals.scheduled += rec.scheduled;
        self.totals.wakeups += rec.wakeups;
        self.totals.frontier = self.totals.frontier.max(rec.frontier);
        self.totals.arena_bytes = self.totals.arena_bytes.max(rec.arena_bytes);
        if rec.span == 1 {
            // Steady-state fast path: once the list is full, a record no
            // hotter than its coldest entry can never enter — an equal
            // message count loses the tie to the earlier round already
            // held.
            if self.hottest.len() != HOT_K || rec.messages > self.hot_floor {
                self.note_hot(rec);
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
            self.grow_push(rec);
        } else {
            let old = &mut self.ring[self.head];
            // All-singles rings (no skip ever recorded) keep `covered`
            // pinned at capacity: +1 in, -1 out. Skipping the old-slot
            // span read keeps the steady-state overwrite store-only.
            if self.mixed_spans {
                self.covered += rec.span;
                self.covered -= old.span;
            }
            *old = rec;
            self.head += 1;
            if self.head == self.ring.len() {
                self.head = 0;
            }
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
    /// else sums.
    pub fn totals(&self) -> RoundRecord {
        RoundRecord {
            span: self.next_round,
            ..self.totals
        }
    }

    /// The top-[`HOT_K`] rounds by committed messages, hottest first.
    pub fn hottest(&self) -> &[RoundRecord] {
        &self.hottest
    }

    /// The last `capacity` rounds as uniform per-round records: span
    /// records are expanded into the zero-counter rounds a stepped
    /// scheduler would have recorded, and the result is truncated to the
    /// window. This is the normalization the determinism suite compares —
    /// a fast-forwarding run and a stepped run return identical windows.
    pub fn window(&self) -> Vec<RoundRecord> {
        let mut out: Vec<RoundRecord> = Vec::new();
        let mut need = self.capacity.min(self.covered);
        let (wrapped, oldest) = self.ring.split_at(self.head);
        'outer: for rec in wrapped.iter().rev().chain(oldest.iter().rev()) {
            if need == 0 {
                break;
            }
            if rec.span == 1 {
                out.push(*rec);
                need -= 1;
            } else {
                for r in (rec.round..rec.round + rec.span).rev() {
                    out.push(RoundRecord {
                        round: r,
                        span: 1,
                        ..RoundRecord::default()
                    });
                    need -= 1;
                    if need == 0 {
                        break 'outer;
                    }
                }
            }
        }
        out.reverse();
        out
    }

    /// Rebuilds a recorder from a trace-event stream, attributing each
    /// `Message`/`Fault`/`Recovery` event to the round whose `Round` tick
    /// follows it and mapping `RoundSkip` to [`FlightRecorder::skip`] —
    /// the same aggregation the live charging performs, so a recorder fed
    /// by the simulator and one rebuilt from its trace agree record for
    /// record (telemetry fields excepted: the event stream does not carry
    /// them).
    pub fn from_events(capacity: usize, events: &[TraceEvent]) -> FlightRecorder {
        let mut rec = FlightRecorder::with_capacity(capacity);
        for event in events {
            match event {
                TraceEvent::Message { bits, .. } => rec.note_message(*bits),
                TraceEvent::Fault { .. } => rec.note_faults(1),
                TraceEvent::Recovery { .. } => rec.note_recovery(),
                TraceEvent::Round { delivered, .. } => rec.close_round(RoundSample {
                    delivered: *delivered,
                    ..RoundSample::default()
                }),
                TraceEvent::RoundSkip { from, to } => rec.skip(to.saturating_sub(*from)),
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
        let t = self.totals;
        let _ = writeln!(
            out,
            "flight recorder: {} rounds ({} in window), {} messages, {} bits, {} delivered",
            self.next_round,
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

/// Whether a recorder is installed on this thread — the cheapest possible
/// probe for hot-loop guards.
pub fn active() -> bool {
    CURRENT.with(|current| current.borrow().is_some())
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

/// Messages are sampled at `rate_ppm` parts per million as a pure function
/// of `(seed, round, from, to)` — the same fmix64 avalanche construction
/// fault-plan fates use (under a distinct salt, so a shared seed does not
/// correlate sampling with fault decisions). Deterministic by
/// construction: the same message is kept or suppressed in every replay,
/// regardless of which nodes execute or whether rounds are fast-forwarded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SamplePolicy {
    seed: u64,
    rate_ppm: u32,
}

/// Decorrelates the sampling stream from a fault plan sharing the seed.
const SAMPLE_SALT: u64 = 0x5ABB_1E5A_4D50_1E5E;

const PPM: u64 = 1_000_000;

impl SamplePolicy {
    /// A policy keeping `rate` (clamped to `[0, 1]`) of message events.
    pub fn new(seed: u64, rate: f64) -> Self {
        let ppm = (rate.clamp(0.0, 1.0) * PPM as f64).round() as u32;
        SamplePolicy::with_ppm(seed, ppm)
    }

    /// A policy keeping `ppm` parts per million of message events.
    pub fn with_ppm(seed: u64, ppm: u32) -> Self {
        SamplePolicy {
            seed,
            rate_ppm: ppm.min(PPM as u32),
        }
    }

    /// The sampling rate in parts per million.
    pub fn rate_ppm(&self) -> u32 {
        self.rate_ppm
    }

    /// Whether the message on `(from, to)` in `round` is kept. Pure: no
    /// state, no stream position — only the coordinates matter.
    pub fn sample(&self, round: u64, from: u64, to: u64) -> bool {
        if self.rate_ppm == 0 {
            return false;
        }
        if u64::from(self.rate_ppm) >= PPM {
            return true;
        }
        let mut h = (self.seed ^ SAMPLE_SALT) ^ 0x9E37_79B9_7F4A_7C15;
        for v in [round, from, to] {
            h = (h ^ v).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            h ^= h >> 33;
            h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
            h ^= h >> 33;
        }
        (h >> 32) % PPM < u64::from(self.rate_ppm)
    }
}

/// A [`TraceSink`] adapter that forwards every event except `Message`s
/// failing its [`SamplePolicy`] — turning a full-fidelity per-edge trace
/// into a deterministic sample that stays byte-identical whichever nodes
/// the simulator executes and whether it fast-forwards.
#[derive(Debug)]
pub struct SampledSink<S> {
    policy: SamplePolicy,
    inner: S,
    sampled: u64,
    suppressed: u64,
}

impl<S: TraceSink> SampledSink<S> {
    /// Wraps `inner`, filtering message events through `policy`.
    pub fn new(policy: SamplePolicy, inner: S) -> Self {
        SampledSink {
            policy,
            inner,
            sampled: 0,
            suppressed: 0,
        }
    }

    /// Message events kept so far.
    pub fn sampled(&self) -> u64 {
        self.sampled
    }

    /// Message events suppressed so far.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// A reference to the wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: TraceSink> TraceSink for SampledSink<S> {
    fn record(&mut self, event: &TraceEvent) {
        if let TraceEvent::Message {
            round, from, to, ..
        } = event
        {
            if !self.policy.sample(*round, *from, *to) {
                self.suppressed += 1;
                return;
            }
            self.sampled += 1;
        }
        self.inner.record(event);
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::Recorder;

    fn closed(rec: &mut FlightRecorder, delivered: u64) {
        rec.close_round(RoundSample {
            delivered,
            ..RoundSample::default()
        });
    }

    #[test]
    fn rounds_accumulate_and_close() {
        let mut rec = FlightRecorder::with_capacity(16);
        rec.note_message(8);
        rec.note_message(4);
        rec.note_faults(1);
        closed(&mut rec, 3);
        rec.note_recovery();
        closed(&mut rec, 2);
        let records: Vec<_> = rec.records().copied().collect();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].round, 0);
        assert_eq!(records[0].messages, 2);
        assert_eq!(records[0].bits, 12);
        assert_eq!(records[0].faults, 1);
        assert_eq!(records[0].delivered, 3);
        assert_eq!(records[1].recoveries, 1);
        let t = rec.totals();
        assert_eq!((t.span, t.messages, t.bits, t.delivered), (2, 2, 12, 5));
    }

    #[test]
    fn ring_evicts_by_rounds_covered_not_records() {
        let mut rec = FlightRecorder::with_capacity(4);
        for _ in 0..10 {
            closed(&mut rec, 0);
        }
        assert_eq!(rec.covered(), 4);
        assert_eq!(rec.window().len(), 4);
        assert_eq!(rec.window()[0].round, 6);
        // Lifetime totals survive eviction.
        assert_eq!(rec.totals().span, 10);
    }

    #[test]
    fn skip_spans_normalize_like_stepped_zero_rounds() {
        // One recorder fast-forwards 5 rounds; the other steps them.
        let mut skipped = FlightRecorder::with_capacity(8);
        let mut stepped = FlightRecorder::with_capacity(8);
        for rec in [&mut skipped, &mut stepped] {
            rec.note_message(10);
            closed(rec, 0);
        }
        skipped.skip(5);
        for _ in 0..5 {
            closed(&mut stepped, 0);
        }
        for rec in [&mut skipped, &mut stepped] {
            rec.note_message(7);
            closed(rec, 1);
        }
        assert_eq!(skipped.window(), stepped.window());
        assert_eq!(skipped.rounds(), stepped.rounds());
        // A span larger than the whole window truncates identically too.
        let mut skipped = FlightRecorder::with_capacity(3);
        let mut stepped = FlightRecorder::with_capacity(3);
        skipped.skip(10);
        for _ in 0..10 {
            closed(&mut stepped, 0);
        }
        closed(&mut skipped, 0);
        closed(&mut stepped, 0);
        assert_eq!(skipped.window(), stepped.window());
        assert_eq!(skipped.window().len(), 3);
    }

    /// A fast-forwarded stretch of `k` rounds enters the ring as one span
    /// record, and the window and lifetime totals come out exactly as if
    /// the simulator had closed `k` rounds with zero counts.
    #[test]
    fn skip_matches_zero_count_closed_rounds() {
        let busy = |rec: &mut FlightRecorder, r: u64| {
            rec.close_charged(
                r + 1,
                8 * (r + 1),
                r % 2,
                RoundSample {
                    delivered: r,
                    scheduled: 3,
                    ..RoundSample::default()
                },
            );
        };
        let mut skipped = FlightRecorder::with_capacity(32);
        let mut stepped = FlightRecorder::with_capacity(32);
        for (r, quiet) in [(0, 4), (1, 11), (2, 1), (3, 0)] {
            for rec in [&mut skipped, &mut stepped] {
                busy(rec, r);
            }
            skipped.skip(quiet);
            for _ in 0..quiet {
                stepped.close_charged(0, 0, 0, RoundSample::default());
            }
        }
        assert!(skipped.records().any(|r| r.span > 1));
        assert!(stepped.records().all(|r| r.span == 1));
        assert_eq!(skipped.rounds(), stepped.rounds());
        assert_eq!(skipped.window(), stepped.window());
        assert_eq!(skipped.totals(), stepped.totals());
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
            rec.note_messages(*m, m * 8);
            closed(&mut rec, i as u64);
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
            TraceEvent::RoundSkip { from: 1, to: 4 },
            TraceEvent::Fault {
                round: 4,
                kind: crate::event::FaultKind::Drop,
                from: 0,
                to: 1,
                delay: 0,
            },
            TraceEvent::Round {
                round: 4,
                delivered: 2,
            },
        ];
        let rebuilt = FlightRecorder::from_events(16, &events);
        let mut live = FlightRecorder::with_capacity(16);
        live.note_messages(2, 16);
        closed(&mut live, 0);
        live.skip(3);
        live.note_faults(1);
        closed(&mut live, 2);
        assert_eq!(rebuilt.window(), live.window());
        assert_eq!(rebuilt.totals(), live.totals());
    }

    #[test]
    fn render_is_stable_and_nonempty() {
        let mut rec = FlightRecorder::with_capacity(8);
        for i in 0..20u64 {
            rec.note_messages(i % 4, (i % 4) * 16);
            closed(&mut rec, i % 3);
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
            with(|f| f.note_message(4));
            with(|f| {
                f.close_round(RoundSample::default());
            });
        }
        with(|_| unreachable!("must not run while disabled"));
        assert_eq!(rec.borrow().totals().messages, 1);
    }

    #[test]
    fn sample_policy_is_pure_and_rate_bounded() {
        let p = SamplePolicy::new(42, 0.25);
        for round in 0..50 {
            for edge in 0..20 {
                assert_eq!(
                    p.sample(round, edge, edge + 1),
                    p.sample(round, edge, edge + 1)
                );
            }
        }
        let kept = (0..100_000u64).filter(|&i| p.sample(i, 1, 2)).count();
        let rate = kept as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate} far from 0.25");
        assert!(!SamplePolicy::new(7, 0.0).sample(1, 2, 3));
        assert!(SamplePolicy::new(7, 1.0).sample(1, 2, 3));
        // Distinct seeds decorrelate.
        let q = SamplePolicy::new(43, 0.25);
        assert!((0..1000u64).any(|i| p.sample(i, 0, 1) != q.sample(i, 0, 1)));
    }

    #[test]
    fn sampled_sink_filters_only_messages() {
        let policy = SamplePolicy::new(9, 0.5);
        let mut sink = SampledSink::new(policy, Recorder::new());
        let mut expected = 0u64;
        for round in 0..200u64 {
            sink.record(&TraceEvent::Message {
                round,
                from: 0,
                to: 1,
                bits: 8,
            });
            expected += u64::from(policy.sample(round, 0, 1));
        }
        sink.record(&TraceEvent::Round {
            round: 200,
            delivered: 200,
        });
        sink.record(&TraceEvent::RoundSkip { from: 201, to: 300 });
        assert_eq!(sink.sampled(), expected);
        assert_eq!(sink.suppressed(), 200 - expected);
        let events = sink.into_inner();
        let events = events.events();
        // Non-message events always pass through.
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::RoundSkip { .. })));
        assert_eq!(events.len() as u64, expected + 2);
    }
}
