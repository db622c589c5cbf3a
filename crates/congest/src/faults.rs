//! Seeded, deterministic fault injection for the CONGEST scheduler.
//!
//! A [`FaultPlan`] describes *what can go wrong* in a network: a
//! per-message drop probability, scheduled link failures, and crash-stop
//! nodes. All three keep the model synchronous: a message sent in round
//! `r` either arrives at the start of round `r + 1` or never does. Plans
//! attach to a [`Config`](crate::Config) via
//! [`Config::with_faults`](crate::Config::with_faults) and are applied by
//! [`Network::step`](crate::Network::step) in its sequential commit phase.
//!
//! # Determinism
//!
//! Every probabilistic decision is drawn from a generator seeded by mixing
//! the plan's seed with the message coordinates `(round, from, to)` — a
//! pure function of *what* is being decided, not of *when* the scheduler
//! got around to deciding it. Together with the commit phase being
//! sequential in node-id order, this makes a `(graph, config, seed)` triple
//! replay byte-identically — outputs, [`RunStats`](crate::RunStats),
//! [`FaultStats`], and trace streams — whichever nodes the scheduler
//! executes and whether or not it fast-forwards, so the
//! [`reference`](crate::reference) simulator, which decides fates through
//! the same [`FaultPlan::fate`], must agree with it.
//!
//! # Fault semantics
//!
//! * **drop** — the message is lost in transit: the sender pays for it
//!   (stats and `Message` trace events still record the send) but it never
//!   reaches the receiver's inbox.
//! * **link failure** — every message crossing the (undirected) edge during
//!   the scheduled round interval is lost.
//! * **crash-stop** — from its scheduled round on, the node stops executing
//!   (it votes `Halted`, sends nothing, and messages addressed to it are
//!   discarded). Crashes are permanent.

use std::ops::Range;
use std::sync::{Mutex, OnceLock};

use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::Round;

/// Parts-per-million denominator for the plan's drop probability.
const PPM: u32 = 1_000_000;

/// A scheduled failure of one undirected link for a half-open round
/// interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkFailure {
    /// Smaller endpoint of the (normalized) edge.
    pub u: usize,
    /// Larger endpoint of the (normalized) edge.
    pub v: usize,
    /// First round (inclusive) in which the link is down.
    pub start: Round,
    /// First round in which the link is back up (exclusive end).
    pub end: Round,
}

/// A declarative description of the faults to inject into a run.
///
/// The drop probability is stored in parts per million so plans are `Eq`
/// (and therefore internable and comparable inside
/// [`Config`](crate::Config)); [`FaultPlan::with_drop`] takes an ordinary
/// `f64` probability in `[0, 1]`.
///
/// # Example
///
/// ```
/// use congest::FaultPlan;
///
/// let plan = FaultPlan::new(7)
///     .with_drop(0.05)
///     .with_crash(4, 10)
///     .with_link_failure(0, 1, 5..9);
/// assert!(!plan.is_passive());
/// assert_eq!(plan, FaultPlan::parse("seed=7,drop=0.05,crash=4@10,link=0-1@5..9").unwrap());
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    drop_ppm: u32,
    links: Vec<LinkFailure>,
    crashes: Vec<(usize, Round)>,
}

fn ppm_of(p: f64) -> u32 {
    assert!(
        (0.0..=1.0).contains(&p),
        "fault probability {p} out of [0, 1]"
    );
    (p * f64::from(PPM)).round() as u32
}

impl FaultPlan {
    /// An empty (passive) plan with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// The plan's RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Drops each message independently with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop_ppm = ppm_of(p);
        self
    }

    /// Fails the undirected link `{u, v}` for the round interval `rounds`
    /// (half-open).
    pub fn with_link_failure(mut self, u: usize, v: usize, rounds: Range<Round>) -> Self {
        self.links.push(LinkFailure {
            u: u.min(v),
            v: u.max(v),
            start: rounds.start,
            end: rounds.end,
        });
        self
    }

    /// Crash-stops `node` at the start of `round` (it executes rounds
    /// `0..round` normally, then goes silent forever).
    pub fn with_crash(mut self, node: usize, round: Round) -> Self {
        self.crashes.push((node, round));
        self
    }

    /// True when the plan injects nothing: no drops, no link failures, no
    /// crashes. [`Config::with_faults`](crate::Config::with_faults)
    /// treats a passive plan exactly like no plan at all.
    pub fn is_passive(&self) -> bool {
        self.drop_ppm == 0 && self.links.is_empty() && self.crashes.is_empty()
    }

    /// The scheduled crash-stops, as `(node, round)` pairs in insertion
    /// order.
    pub fn crashes(&self) -> &[(usize, Round)] {
        &self.crashes
    }

    /// True when the undirected link `{a, b}` is scheduled down in `round`.
    pub fn link_down(&self, round: Round, a: usize, b: usize) -> bool {
        let (u, v) = (a.min(b), a.max(b));
        self.links
            .iter()
            .any(|l| l.u == u && l.v == v && l.start <= round && round < l.end)
    }

    /// Rolls the fate of one message, identified by its coordinates.
    ///
    /// The decision is a pure function of `(plan, round, from, to)`: the
    /// same message meets the same fate in every replay, regardless of
    /// scheduler internals (the reference simulator calls it too).
    pub fn fate(&self, round: Round, from: usize, to: usize) -> MessageFate {
        if self.link_down(round, from, to) {
            return MessageFate::LinkDropped;
        }
        if self.drop_ppm == 0 {
            return MessageFate::Delivered;
        }
        let mut rng = StdRng::seed_from_u64(mix(self.seed, round, from as u64, to as u64));
        if roll(&mut rng, self.drop_ppm) {
            MessageFate::Dropped
        } else {
            MessageFate::Delivered
        }
    }

    /// Parses a fault specification string (the `qdiam --faults` /
    /// `QD_FAULTS` grammar): comma-separated clauses
    ///
    /// * `seed=<u64>` — RNG seed (default 0)
    /// * `drop=<p>` — per-message drop probability
    /// * `link=<u>-<v>@<start>..<end>` — link `{u, v}` down for rounds
    ///   `start..end`
    /// * `crash=<node>@<round>` — crash-stop `node` at `round`
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown clauses, malformed
    /// numbers, or out-of-range probabilities.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause {clause:?} is not key=value"))?;
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v
                    .parse()
                    .map_err(|_| format!("bad probability {v:?} in {clause:?}"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("probability {p} out of [0, 1] in {clause:?}"));
                }
                Ok(p)
            };
            let int = |v: &str| -> Result<u64, String> {
                v.parse()
                    .map_err(|_| format!("bad integer {v:?} in {clause:?}"))
            };
            match key {
                "seed" => plan.seed = int(value)?,
                "drop" => plan.drop_ppm = ppm_of(prob(value)?),
                "link" => {
                    let (edge, rounds) = value
                        .split_once('@')
                        .ok_or_else(|| format!("link clause {clause:?} is not link=u-v@a..b"))?;
                    let (u, v) = edge
                        .split_once('-')
                        .ok_or_else(|| format!("link clause {clause:?} is not link=u-v@a..b"))?;
                    let (start, end) = rounds
                        .split_once("..")
                        .ok_or_else(|| format!("link clause {clause:?} is not link=u-v@a..b"))?;
                    plan = plan.with_link_failure(
                        int(u)? as usize,
                        int(v)? as usize,
                        int(start)?..int(end)?,
                    );
                }
                "crash" => {
                    let (node, round) = value.split_once('@').ok_or_else(|| {
                        format!("crash clause {clause:?} is not crash=node@round")
                    })?;
                    plan = plan.with_crash(int(node)? as usize, int(round)?);
                }
                other => return Err(format!("unknown fault clause key {other:?}")),
            }
        }
        Ok(plan)
    }

    /// The plan minus its crash-stops — the drops and link failures
    /// survive untouched. Partial-network recovery uses this when re-running
    /// on the surviving component: the crashed nodes no longer exist there,
    /// but the channel noise they ran under still does.
    ///
    /// ```
    /// use congest::FaultPlan;
    ///
    /// let plan = FaultPlan::new(3).with_drop(0.01).with_crash(4, 10);
    /// let survivor_plan = plan.without_crashes();
    /// assert!(survivor_plan.crashes().is_empty());
    /// assert_eq!(survivor_plan, FaultPlan::new(3).with_drop(0.01));
    /// ```
    pub fn without_crashes(mut self) -> Self {
        self.crashes.clear();
        self
    }

    /// Renumbers the plan's node-addressed faults through `map`, where
    /// `map(old_id)` returns the node's id in a re-indexed subgraph, or
    /// `None` if the node is absent there. Crash-stops of absent nodes and
    /// link failures with an absent endpoint are dropped; everything
    /// node-independent (seed, drop probability) is kept verbatim.
    ///
    /// ```
    /// use congest::FaultPlan;
    ///
    /// // Nodes {0, 2, 3} survive and become {0, 1, 2}.
    /// let map = |n: usize| [Some(0), None, Some(1), Some(2)][n];
    /// let plan = FaultPlan::new(9)
    ///     .with_link_failure(0, 2, 1..4)
    ///     .with_link_failure(1, 3, 1..4)
    ///     .with_crash(3, 7);
    /// let renumbered = plan.renumbered(map);
    /// assert_eq!(
    ///     renumbered,
    ///     FaultPlan::new(9).with_link_failure(0, 1, 1..4).with_crash(2, 7)
    /// );
    /// ```
    pub fn renumbered(mut self, map: impl Fn(usize) -> Option<usize>) -> Self {
        self.links = self
            .links
            .iter()
            .filter_map(|l| {
                let (u, v) = (map(l.u)?, map(l.v)?);
                Some(LinkFailure {
                    u: u.min(v),
                    v: u.max(v),
                    start: l.start,
                    end: l.end,
                })
            })
            .collect();
        self.crashes = self
            .crashes
            .iter()
            .filter_map(|&(node, round)| Some((map(node)?, round)))
            .collect();
        self
    }

    /// Interns the plan in the process-wide registry, returning its
    /// `Copy + Eq` handle. Equal plans intern to equal handles.
    pub fn intern(self) -> FaultsId {
        let registry = registry().lock().expect("fault registry poisoned");
        intern_in(registry, self)
    }

    /// Looks a plan up by its interned handle.
    pub fn lookup(id: FaultsId) -> FaultPlan {
        registry()
            .lock()
            .expect("fault registry poisoned")
            .get(id.0 as usize)
            .expect("FaultsId minted by intern()")
            .clone()
    }
}

/// The decided fate of one message in transit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MessageFate {
    /// Delivered normally next round.
    Delivered,
    /// Lost in transit (random drop).
    Dropped,
    /// Lost to a scheduled link failure.
    LinkDropped,
}

/// A `Copy + Eq` handle to an interned [`FaultPlan`]; what
/// [`Config`](crate::Config) actually stores, so configs stay cheap value
/// types while plans carry heap-allocated schedules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultsId(u32);

fn registry() -> &'static Mutex<Vec<FaultPlan>> {
    static REGISTRY: OnceLock<Mutex<Vec<FaultPlan>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn intern_in(mut registry: std::sync::MutexGuard<'_, Vec<FaultPlan>>, plan: FaultPlan) -> FaultsId {
    if let Some(i) = registry.iter().position(|p| *p == plan) {
        return FaultsId(i as u32);
    }
    let id = u32::try_from(registry.len()).expect("fault registry overflow");
    registry.push(plan);
    FaultsId(id)
}

/// Avalanche mix of the plan seed with one message's coordinates
/// (fmix64-style multiply–xor–shift rounds).
fn mix(seed: u64, round: Round, from: u64, to: u64) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for v in [round, from, to] {
        h = (h ^ v).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^= h >> 33;
    }
    h
}

/// Bernoulli roll at `ppm` parts per million, consuming exactly one `u64`
/// of the stream.
fn roll(rng: &mut StdRng, ppm: u32) -> bool {
    // Uniform in [0, PPM) via the high bits of one draw.
    (rng.next_u64() >> 32) % u64::from(PPM) < u64::from(ppm)
}

/// Counts of injected faults over one [`Network`](crate::Network) run,
/// exposed by [`Network::fault_stats`](crate::Network::fault_stats).
///
/// Kept separate from [`RunStats`](crate::RunStats) so a fault-free run's
/// accounting is bit-for-bit what it was before fault injection existed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages lost to random drops.
    pub dropped: u64,
    /// Messages lost to scheduled link failures.
    pub link_dropped: u64,
    /// Messages discarded because their receiver had crash-stopped.
    pub crash_dropped: u64,
    /// Crash-stop events applied.
    pub crashes: u64,
}

impl FaultStats {
    /// Total messages prevented from reaching their receiver's program.
    pub fn lost(&self) -> u64 {
        self.dropped + self.link_dropped + self.crash_dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_round_trip_through_parse() {
        let plan = FaultPlan::new(11)
            .with_drop(0.25)
            .with_link_failure(3, 1, 2..9)
            .with_crash(5, 7);
        let spec = "seed=11, drop=0.25, link=3-1@2..9, crash=5@7";
        assert_eq!(FaultPlan::parse(spec).unwrap(), plan);
        assert!(!plan.is_passive());
        assert!(FaultPlan::parse("").unwrap().is_passive());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "nonsense",
            "bogus=1",
            "drop=1.5",
            "drop=x",
            "corrupt=0.1",
            "delay=0.1:2",
            "link=0-1",
            "link=0@1..2",
            "crash=3",
            "seed=-1",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn link_failure_is_normalized_and_half_open() {
        let plan = FaultPlan::new(0).with_link_failure(5, 2, 3..6);
        assert!(plan.link_down(3, 2, 5));
        assert!(plan.link_down(5, 5, 2));
        assert!(!plan.link_down(2, 2, 5));
        assert!(!plan.link_down(6, 2, 5));
        assert!(!plan.link_down(4, 2, 4));
    }

    #[test]
    fn fate_is_a_pure_function_of_coordinates() {
        let plan = FaultPlan::new(42).with_drop(0.3);
        for round in 0..20 {
            for from in 0..6 {
                for to in 0..6 {
                    assert_eq!(plan.fate(round, from, to), plan.fate(round, from, to));
                }
            }
        }
        // Different coordinates decouple: some messages drop, some do not.
        let fates: Vec<MessageFate> = (0..200).map(|r| plan.fate(r, 0, 1)).collect();
        assert!(fates.contains(&MessageFate::Dropped));
        assert!(fates.contains(&MessageFate::Delivered));
    }

    #[test]
    fn drop_rate_tracks_the_configured_probability() {
        let plan = FaultPlan::new(9).with_drop(0.2);
        let trials = 20_000u64;
        let drops = (0..trials)
            .filter(|&r| plan.fate(r, 1, 2) == MessageFate::Dropped)
            .count() as f64;
        let rate = drops / trials as f64;
        assert!((rate - 0.2).abs() < 0.02, "drop rate {rate} far from 0.2");
    }

    #[test]
    fn interning_dedupes_equal_plans() {
        let a = FaultPlan::new(1).with_drop(0.1).intern();
        let b = FaultPlan::new(1).with_drop(0.1).intern();
        let c = FaultPlan::new(2).with_drop(0.1).intern();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(FaultPlan::lookup(a), FaultPlan::new(1).with_drop(0.1));
    }

    #[test]
    fn drop_fates_match_their_golden_rounds() {
        // The rounds of 0..500 in which this plan drops the message 0 → 1.
        // Every committed fault run depends on which messages drop, so the
        // drop decision must stay the first draw of each message's RNG.
        const GOLDEN: [u64; 69] = [
            15, 23, 40, 42, 54, 55, 60, 63, 67, 70, 79, 96, 102, 119, 147, 148, 150, 153, 156, 161,
            162, 165, 173, 177, 202, 203, 204, 208, 214, 217, 218, 226, 229, 234, 244, 250, 257,
            258, 267, 282, 285, 291, 302, 311, 314, 315, 327, 330, 338, 350, 351, 352, 364, 365,
            375, 384, 399, 404, 406, 409, 416, 427, 442, 454, 459, 460, 482, 487, 497,
        ];
        let plan = FaultPlan::new(3).with_drop(0.15);
        let dropped: Vec<u64> = (0..500)
            .filter(|&r| plan.fate(r, 0, 1) == MessageFate::Dropped)
            .collect();
        assert_eq!(dropped, GOLDEN);
    }
}
