//! Recovery policies and accounting for faulty runs.
//!
//! The fault layer ([`FaultPlan`](crate::FaultPlan)) makes runs *fail
//! honestly* — a violated paper invariant surfaces as a typed error instead
//! of a silently wrong answer. A [`RecoveryPolicy`] is the other half of
//! that contract: it tells a driver what it may do about the failure.
//! Three mechanisms compose, each bounded and each deterministic:
//!
//! * **bounded re-execution** — rerun the failed protocol (or the failed
//!   checkpoint segment) up to [`retries`](RecoveryPolicy::retries) times,
//!   each attempt under a fresh fault seed derived by [`reseed`] so the
//!   retry fates are a pure function of `(seed, attempt, scope)`;
//! * **round-level retransmission** — tree protocols (BFS claims,
//!   convergecast reports) repeat their one critical send for
//!   [`retransmit`](RecoveryPolicy::retransmit) extra rounds, with
//!   idempotent receivers, so an independently dropped message no longer
//!   kills the run;
//! * **checkpoint/restart** — the long Figure-2 wave schedule is cut into
//!   segments of [`checkpoint`](RecoveryPolicy::checkpoint) sources; a
//!   dropped wave restarts only its own segment, never round 0.
//!
//! Crash-stops are not maskable by any of the above; with
//! [`partial`](RecoveryPolicy::partial) set, drivers instead re-elect and
//! re-root on the surviving connected component and return *its* diameter.
//!
//! Recovery is never free: every retry, retransmission, and restart is
//! charged to the rounds ledger and the metrics cost model, counted in
//! [`RecoveryStats`], and traced as `TraceEvent::Recovery` events.

use std::fmt;

/// What a driver is allowed to do when a fault is detected.
///
/// The default policy is **passive** (recover nothing) so fault-free and
/// detect-only runs are byte-identical to a build without the recovery
/// layer. Parse one from the `qdiam --recover` / `QD_RECOVER` grammar, or
/// build one explicitly:
///
/// ```
/// use congest::RecoveryPolicy;
///
/// let policy = RecoveryPolicy::new()
///     .with_retries(2)
///     .with_retransmit(2)
///     .with_checkpoint(16)
///     .with_partial(true);
/// assert_eq!(policy, RecoveryPolicy::standard());
/// assert_eq!(policy, RecoveryPolicy::parse("retry=2,retransmit=2,checkpoint=16,partial").unwrap());
/// assert!(!policy.is_passive());
/// assert!(RecoveryPolicy::new().is_passive());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct RecoveryPolicy {
    retries: u32,
    retransmit: u32,
    checkpoint: u32,
    partial: bool,
}

impl RecoveryPolicy {
    /// The passive policy: detect faults, recover nothing.
    pub fn new() -> Self {
        RecoveryPolicy::default()
    }

    /// The standard self-healing policy: 2 bounded retries, 2 extra
    /// retransmission rounds, wave checkpoints of 16 sources, and
    /// partial-network semantics for crash-stops. This is what a bare
    /// `--recover` flag (or `QD_RECOVER=1`) selects.
    pub fn standard() -> Self {
        RecoveryPolicy {
            retries: 2,
            retransmit: 2,
            checkpoint: 16,
            partial: true,
        }
    }

    /// Sets the bounded re-execution budget: how many times a failed
    /// protocol (or checkpoint segment) may be rerun under a fresh seed.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Sets how many extra rounds tree protocols repeat their critical
    /// send (0 disables retransmission).
    pub fn with_retransmit(mut self, rounds: u32) -> Self {
        self.retransmit = rounds;
        self
    }

    /// Sets the wave-schedule checkpoint length in sources per segment
    /// (0 disables checkpointing — the schedule runs monolithically).
    pub fn with_checkpoint(mut self, sources: u32) -> Self {
        self.checkpoint = sources;
        self
    }

    /// Enables partial-network semantics: on a crash-stop, re-elect and
    /// re-root on the surviving connected component instead of aborting.
    pub fn with_partial(mut self, partial: bool) -> Self {
        self.partial = partial;
        self
    }

    /// Bounded re-execution budget (0 = never rerun).
    pub fn retries(&self) -> u32 {
        self.retries
    }

    /// Extra retransmission rounds for tree protocols (0 = off).
    pub fn retransmit(&self) -> u32 {
        self.retransmit
    }

    /// Wave checkpoint length in sources per segment (0 = off).
    pub fn checkpoint(&self) -> u32 {
        self.checkpoint
    }

    /// Whether crash-stops degrade to the surviving component.
    pub fn partial(&self) -> bool {
        self.partial
    }

    /// `true` when the policy recovers nothing (the default).
    pub fn is_passive(&self) -> bool {
        *self == RecoveryPolicy::default()
    }

    /// Parses the `--recover` / `QD_RECOVER` grammar: comma-separated
    /// clauses `retry=<n>`, `retransmit=<rounds>`, `checkpoint=<sources>`,
    /// and the bare flag `partial` (or `partial=true|false`). The empty
    /// string and the aliases `1`, `on`, `true`, and `standard` all select
    /// [`RecoveryPolicy::standard`]; `off`, `0`, `false`, and `none`
    /// select the passive policy.
    ///
    /// ```
    /// use congest::RecoveryPolicy;
    ///
    /// assert_eq!(RecoveryPolicy::parse("on").unwrap(), RecoveryPolicy::standard());
    /// assert_eq!(RecoveryPolicy::parse("off").unwrap(), RecoveryPolicy::new());
    /// let p = RecoveryPolicy::parse("retry=3,checkpoint=8").unwrap();
    /// assert_eq!((p.retries(), p.retransmit(), p.checkpoint(), p.partial()), (3, 0, 8, false));
    /// assert!(RecoveryPolicy::parse("retry=lots").is_err());
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed clause.
    pub fn parse(spec: &str) -> Result<RecoveryPolicy, String> {
        match spec.trim() {
            "" | "1" | "on" | "true" | "standard" => return Ok(RecoveryPolicy::standard()),
            "0" | "off" | "false" | "none" => return Ok(RecoveryPolicy::new()),
            _ => {}
        }
        let mut policy = RecoveryPolicy::new();
        for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let (key, value) = clause.split_once('=').unwrap_or((clause, ""));
            let count = |v: &str| -> Result<u32, String> {
                v.parse::<u32>()
                    .map_err(|_| format!("recovery clause {clause:?}: {v:?} is not a count"))
            };
            match key {
                "retry" | "retries" => policy.retries = count(value)?,
                "retransmit" => policy.retransmit = count(value)?,
                "checkpoint" => policy.checkpoint = count(value)?,
                "partial" => {
                    policy.partial = match value {
                        "" | "true" | "1" | "on" => true,
                        "false" | "0" | "off" => false,
                        other => {
                            return Err(format!(
                                "recovery clause {clause:?}: {other:?} is not a boolean"
                            ))
                        }
                    }
                }
                other => return Err(format!("unknown recovery clause {other:?}")),
            }
        }
        Ok(policy)
    }
}

impl fmt::Display for RecoveryPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_passive() {
            return write!(f, "off");
        }
        let mut sep = "";
        if self.retries > 0 {
            write!(f, "retry={}", self.retries)?;
            sep = ",";
        }
        if self.retransmit > 0 {
            write!(f, "{sep}retransmit={}", self.retransmit)?;
            sep = ",";
        }
        if self.checkpoint > 0 {
            write!(f, "{sep}checkpoint={}", self.checkpoint)?;
            sep = ",";
        }
        if self.partial {
            write!(f, "{sep}partial")?;
        }
        Ok(())
    }
}

/// Derives the fault seed for a recovery attempt.
///
/// A retried protocol must not replay the exact fault fates that killed it
/// — but the retry must still be deterministic. This mixes the original
/// plan seed with the attempt number and a scope discriminant (e.g. the
/// checkpoint segment index) through an avalanche permutation, so every
/// `(seed, attempt, scope)` triple maps to one fixed fresh seed, identical
/// on every replay.
///
/// ```
/// use congest::recovery::reseed;
///
/// assert_eq!(reseed(7, 1, 0), reseed(7, 1, 0));
/// assert_ne!(reseed(7, 1, 0), reseed(7, 2, 0));
/// assert_ne!(reseed(7, 1, 0), reseed(7, 1, 1));
/// assert_ne!(reseed(7, 1, 0), 7);
/// ```
pub fn reseed(seed: u64, attempt: u32, scope: u64) -> u64 {
    let mut h = seed ^ 0xA076_1D64_78BD_642F;
    for v in [u64::from(attempt), scope] {
        h ^= v.wrapping_mul(0xE703_7ED1_A0B4_28DB);
        h = h.rotate_left(31).wrapping_mul(0x8EBC_6AF0_9C88_C6E3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h
}

/// Counts of the recovery actions a driver performed, and what they cost.
///
/// The "wasted" fields account everything spent on attempts that were
/// discarded — rounds executed, messages sent, and wire bits moved by a
/// failed segment or a failed full attempt. A successful retry therefore
/// reports exactly how much the fault cost beyond the clean run.
///
/// ```
/// use congest::RecoveryStats;
///
/// let mut total = RecoveryStats::default();
/// let segment = RecoveryStats { retries: 1, wasted_rounds: 40, ..Default::default() };
/// total.absorb(&segment);
/// assert_eq!(total.retries, 1);
/// assert_eq!(total.actions(), 1);
/// assert!(!total.is_clean());
/// assert!(RecoveryStats::default().is_clean());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Bounded re-executions of a whole protocol or pipeline.
    pub retries: u64,
    /// Checkpoint-segment restarts (each is also one retry of that segment).
    pub restarts: u64,
    /// Extra protocol-level retransmission rounds actually executed.
    pub retransmissions: u64,
    /// Partial-network re-roots (re-election on the surviving component).
    pub reroots: u64,
    /// Rounds spent on attempts that were thrown away.
    pub wasted_rounds: u64,
    /// Messages sent by attempts that were thrown away.
    pub wasted_messages: u64,
    /// Wire bits moved by attempts that were thrown away.
    pub wasted_bits: u64,
}

impl RecoveryStats {
    /// Total recovery actions taken (retries + restarts + retransmissions
    /// + re-roots).
    pub fn actions(&self) -> u64 {
        self.retries + self.restarts + self.retransmissions + self.reroots
    }

    /// `true` when no recovery action was needed.
    pub fn is_clean(&self) -> bool {
        *self == RecoveryStats::default()
    }

    /// Accumulates another stats block into this one.
    pub fn absorb(&mut self, other: &RecoveryStats) {
        self.retries += other.retries;
        self.restarts += other.restarts;
        self.retransmissions += other.retransmissions;
        self.reroots += other.reroots;
        self.wasted_rounds += other.wasted_rounds;
        self.wasted_messages += other.wasted_messages;
        self.wasted_bits += other.wasted_bits;
    }
}

impl fmt::Display for RecoveryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "retries {}, restarts {}, retransmissions {}, re-roots {}, \
             wasted {} rounds / {} messages / {} bits",
            self.retries,
            self.restarts,
            self.retransmissions,
            self.reroots,
            self.wasted_rounds,
            self.wasted_messages,
            self.wasted_bits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_display() {
        for spec in [
            "off",
            "retry=2",
            "retransmit=3",
            "checkpoint=16",
            "partial",
            "retry=2,retransmit=2,checkpoint=16,partial",
        ] {
            let policy = RecoveryPolicy::parse(spec).unwrap();
            assert_eq!(
                RecoveryPolicy::parse(&policy.to_string()).unwrap(),
                policy,
                "{spec}"
            );
        }
    }

    #[test]
    fn aliases_select_the_standard_policy() {
        for alias in ["", "1", "on", "true", "standard"] {
            assert_eq!(
                RecoveryPolicy::parse(alias).unwrap(),
                RecoveryPolicy::standard()
            );
        }
        for alias in ["0", "off", "false", "none"] {
            assert!(RecoveryPolicy::parse(alias).unwrap().is_passive());
        }
    }

    #[test]
    fn malformed_clauses_are_rejected() {
        assert!(RecoveryPolicy::parse("retry=").is_err());
        assert!(RecoveryPolicy::parse("retry=-1").is_err());
        assert!(RecoveryPolicy::parse("bogus=1").is_err());
        assert!(RecoveryPolicy::parse("partial=maybe").is_err());
    }

    #[test]
    fn reseed_avalanches_and_never_fixes_the_seed() {
        let mut seen = std::collections::HashSet::new();
        for seed in [0u64, 1, 7, u64::MAX] {
            for attempt in 1..4u32 {
                for scope in 0..4u64 {
                    let s = reseed(seed, attempt, scope);
                    assert_ne!(s, seed);
                    assert!(seen.insert(s), "collision at ({seed},{attempt},{scope})");
                }
            }
        }
    }

    #[test]
    fn stats_absorb_sums_every_field() {
        let a = RecoveryStats {
            retries: 1,
            restarts: 2,
            retransmissions: 3,
            reroots: 4,
            wasted_rounds: 5,
            wasted_messages: 6,
            wasted_bits: 7,
        };
        let mut b = a;
        b.absorb(&a);
        assert_eq!(
            b,
            RecoveryStats {
                retries: 2,
                restarts: 4,
                retransmissions: 6,
                reroots: 8,
                wasted_rounds: 10,
                wasted_messages: 12,
                wasted_bits: 14,
            }
        );
        assert_eq!(a.actions(), 10);
    }
}
