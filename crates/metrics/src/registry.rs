//! The metrics registry: counters, gauges, fixed-bucket histograms, and
//! accumulated profiler spans.
//!
//! All maps are `BTreeMap`s so exports are deterministically ordered, which
//! lets tests byte-compare whole registries across runs.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::cost::CostModel;
use crate::names;

/// A shareable, installable registry handle.
pub type SharedRegistry = Rc<RefCell<Registry>>;

/// Default histogram bucket upper bounds for message widths, in bits.
///
/// CONGEST charges every edge `O(log n)` bits per round; these buckets make
/// the *actual* width distribution visible (a constant-honest replacement
/// for the uniform budget). The final `+Inf` bucket is implicit.
pub const DEFAULT_BITS_BUCKETS: [u64; 8] = [4, 8, 16, 32, 64, 128, 256, 512];

/// A fixed-bucket histogram over `u64` observations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// One count per bound, plus a trailing `+Inf` bucket.
    counts: Vec<u64>,
    sum: u64,
    count: u64,
}

impl Histogram {
    /// A histogram with the given inclusive upper bounds (must be strictly
    /// increasing; a `+Inf` bucket is appended implicitly).
    pub fn new(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0,
            count: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Records observations already bucketed: `counts[i]` more in bucket
    /// `i` (the `+Inf` bucket last), whose values sum to `sum`.
    fn absorb(&mut self, counts: &[u64], sum: u64) {
        debug_assert_eq!(counts.len(), self.counts.len());
        for (slot, &c) in self.counts.iter_mut().zip(counts) {
            *slot += c;
            self.count += c;
        }
        self.sum += sum;
    }

    /// The bucket upper bounds (exclusive of the implicit `+Inf`).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts; the last entry is the `+Inf` bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Cumulative counts in Prometheus `le` order, ending with the total.
    pub fn cumulative_counts(&self) -> Vec<u64> {
        let mut total = 0;
        self.counts
            .iter()
            .map(|c| {
                total += c;
                total
            })
            .collect()
    }
}

/// Accumulated wall-clock statistics for one profiler span path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Times the span was entered.
    pub calls: u64,
    /// Total wall-clock nanoseconds across all calls.
    pub nanos: u64,
}

/// The metrics registry.
///
/// Counters and gauges are flat maps keyed by metric name (labelled
/// families embed their label, e.g. `qd_phase_rounds_total{phase="…"}`
/// rendered by [`crate::labeled`]). Spans are keyed by `/`-joined profiler
/// paths such as `exact/quantum`.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    cost: CostModel,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    spans: BTreeMap<String, SpanStats>,
}

impl Registry {
    /// An empty registry with the default [`CostModel`].
    pub fn new() -> Self {
        Registry::default()
    }

    /// An empty registry charging costs under `cost`.
    pub fn with_cost(cost: CostModel) -> Self {
        Registry {
            cost,
            ..Registry::default()
        }
    }

    /// A registry wrapped for installation via [`crate::install`].
    pub fn shared() -> SharedRegistry {
        Rc::new(RefCell::new(Registry::new()))
    }

    /// The registry's cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Adds `delta` to the counter `name`, creating it at zero.
    pub fn add(&mut self, name: &str, delta: u64) {
        if let Some(slot) = self.counters.get_mut(name) {
            *slot += delta;
        } else {
            self.counters.insert(name.to_owned(), delta);
        }
    }

    /// The counter `name`, or 0 if never charged.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the gauge `name`.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// The gauge `name`, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The histogram `name`, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Accumulates `nanos` of wall-clock time under the span `path`.
    pub fn record_span(&mut self, path: &str, nanos: u64) {
        if let Some(stats) = self.spans.get_mut(path) {
            stats.calls += 1;
            stats.nanos += nanos;
        } else {
            self.spans
                .insert(path.to_owned(), SpanStats { calls: 1, nanos });
        }
    }

    /// All counters, name-ordered.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// All gauges, name-ordered.
    pub fn gauges(&self) -> &BTreeMap<String, f64> {
        &self.gauges
    }

    /// All histograms, name-ordered.
    pub fn histograms(&self) -> &BTreeMap<String, Histogram> {
        &self.histograms
    }

    /// All profiler spans, path-ordered.
    pub fn spans(&self) -> &BTreeMap<String, SpanStats> {
        &self.spans
    }

    /// Charges `count` delivered messages carrying `payload_bits` in total
    /// under the cost model: the message counter, the payload and wire bit
    /// totals (each message pays [`CostModel::header_bits`] of framing),
    /// and the width histogram, all at once so they reconcile by
    /// construction. `widths` holds the messages per
    /// [`DEFAULT_BITS_BUCKETS`] bucket, `+Inf` last, and sums to `count`.
    ///
    /// With `count == 0` nothing is touched, so a registry charged once per
    /// round exports exactly what one charged per message would.
    pub fn charge_messages(
        &mut self,
        count: u64,
        payload_bits: u64,
        widths: &[u64; DEFAULT_BITS_BUCKETS.len() + 1],
    ) {
        if count == 0 {
            return;
        }
        debug_assert_eq!(widths.iter().sum::<u64>(), count);
        let wire = payload_bits + count * self.cost.header_bits;
        self.add(names::MESSAGES, count);
        self.add(names::PAYLOAD_BITS, payload_bits);
        self.add(names::WIRE_BITS, wire);
        if let Some(h) = self.histograms.get_mut(names::MESSAGE_BITS) {
            h.absorb(widths, payload_bits);
        } else {
            let mut h = Histogram::new(&DEFAULT_BITS_BUCKETS);
            h.absorb(widths, payload_bits);
            self.histograms.insert(names::MESSAGE_BITS.to_owned(), h);
        }
    }

    /// Charges `rounds` simulated rounds that executed `scheduled` node
    /// programs out of `node_rounds` slots (n per round), and refreshes
    /// [`names::ACTIVE_FRACTION`] from the registry's own counters, so a
    /// multi-phase run exports the ledger-wide fraction qdiam reports print.
    pub fn charge_rounds(&mut self, rounds: u64, scheduled: u64, node_rounds: u64) {
        self.add(names::ROUNDS, rounds);
        self.add(names::SCHEDULED_NODES, scheduled);
        self.add(names::NODE_ROUNDS, node_rounds);
        let slots = self.counter(names::NODE_ROUNDS);
        if slots > 0 {
            let scheduled = self.counter(names::SCHEDULED_NODES);
            self.set_gauge(names::ACTIVE_FRACTION, scheduled as f64 / slots as f64);
        }
    }

    /// `true` if no metric of any kind has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }
}

/// Deterministic-state equality: counters, gauges, and histograms — spans
/// are wall-clock measurements and the [`names::TELEMETRY`] family is
/// scheduler/memory telemetry, both deliberately excluded, so registries
/// from runs with identical protocol behaviour compare equal across the
/// scheduling-mode × fast-forward matrix.
impl PartialEq for Registry {
    fn eq(&self, other: &Self) -> bool {
        fn protocol<V>(map: &BTreeMap<String, V>) -> impl Iterator<Item = (&String, &V)> {
            map.iter()
                .filter(|(name, _)| !names::TELEMETRY.contains(&name.as_str()))
        }
        self.cost == other.cost
            && protocol(&self.counters).eq(protocol(&other.counters))
            && protocol(&self.gauges).eq(protocol(&other.gauges))
            && self.histograms == other.histograms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_observations_and_cumulates() {
        let mut h = Histogram::new(&[4, 8, 16]);
        for v in [1, 4, 5, 8, 9, 100] {
            h.observe(v);
        }
        assert_eq!(h.bucket_counts(), &[2, 2, 1, 1]);
        assert_eq!(h.cumulative_counts(), vec![2, 4, 5, 6]);
        assert_eq!(h.sum(), 127);
        assert_eq!(h.count(), 6);
        // The invariant the reconciliation tests pin: bucket counts sum to
        // the observation count.
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), h.count());
    }

    #[test]
    fn charge_messages_matches_one_observation_per_message() {
        let widths = [3, 17, 515, 17];
        let mut counts = [0; DEFAULT_BITS_BUCKETS.len() + 1];
        let mut expect = Histogram::new(&DEFAULT_BITS_BUCKETS);
        for bits in widths {
            expect.observe(bits);
        }
        counts.copy_from_slice(expect.bucket_counts());
        let mut r = Registry::new();
        r.charge_messages(0, 0, &[0; DEFAULT_BITS_BUCKETS.len() + 1]);
        assert!(r.is_empty(), "an empty charge creates no metric");
        r.charge_messages(4, 552, &counts);
        assert_eq!(r.counter(names::MESSAGES), 4);
        assert_eq!(r.counter(names::PAYLOAD_BITS), 552);
        assert_eq!(r.counter(names::WIRE_BITS), 552 + 4 * r.cost().header_bits);
        assert_eq!(r.histogram(names::MESSAGE_BITS), Some(&expect));
        // 515 overflows the largest bound into +Inf.
        assert_eq!(*expect.bucket_counts().last().unwrap(), 1);
    }

    #[test]
    fn registry_equality_ignores_spans() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        a.add("x", 1);
        b.add("x", 1);
        a.record_span("exact/init", 1_000);
        b.record_span("exact/init", 999_999);
        assert_eq!(a, b);
        b.add("x", 1);
        assert_ne!(a, b);
    }

    #[test]
    fn span_stats_accumulate() {
        let mut r = Registry::new();
        r.record_span("a/b", 10);
        r.record_span("a/b", 5);
        let s = r.spans()["a/b"];
        assert_eq!(s.calls, 2);
        assert_eq!(s.nanos, 15);
    }
}
