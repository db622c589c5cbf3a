use std::cmp::Reverse;
use std::collections::BinaryHeap;

use graphs::{BitSet, Graph, NodeId};
use metrics::registry::DEFAULT_BITS_BUCKETS;

use crate::faults::{FaultPlan, FaultStats, FaultsId, MessageFate};
use crate::program::{Dest, Inbox, SendBuf};
use crate::recovery::RecoveryPolicy;
use crate::{CongestError, NodeProgram, Payload, Round, RoundCtx, Status};

/// Simulator configuration.
///
/// # Example
///
/// ```
/// use congest::Config;
/// use graphs::generators;
///
/// let g = generators::cycle(64);
/// let cfg = Config::for_graph(&g);
/// assert_eq!(cfg.bandwidth_bits(), 4 * 6 + 8);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Config {
    bandwidth_bits: usize,
    /// Interned fault plan, if any — `Config` stays `Copy + Eq` while the
    /// plan itself (heap-allocated schedules) lives in the fault registry.
    faults: Option<FaultsId>,
    /// What drivers may do about a detected fault. The scheduler itself
    /// never consults this — recovery is a driver-level concern — but
    /// carrying it here threads one policy through every phase of a
    /// multi-phase algorithm.
    recovery: RecoveryPolicy,
    /// Whether the critical-path profiler tracks per-node causal depth
    /// (see [`Network::critical_path`]). Off by default: the tracking is
    /// O(messages) per round, cheap but not free.
    critical_path: bool,
}

impl Config {
    /// A configuration with an explicit per-edge bandwidth budget (bits per
    /// round); a message wider than the budget fails the round with
    /// [`CongestError::BandwidthExceeded`]. `Config::new(usize::MAX)` lets
    /// every message through, and the run's [`RunStats::max_message_bits`]
    /// then measures the width an algorithm actually needs.
    pub fn new(bandwidth_bits: usize) -> Self {
        Config {
            bandwidth_bits,
            faults: None,
            recovery: RecoveryPolicy::default(),
            critical_path: false,
        }
    }

    /// The canonical CONGEST budget for `graph`: `4⌈log₂ n⌉ + 8` bits, i.e.
    /// `O(log n)` with a constant comfortably covering the two-field
    /// messages used by the algorithms in this workspace.
    pub fn for_graph(graph: &Graph) -> Self {
        Config::new(4 * crate::bits::for_node(graph.len().max(2)) + 8)
    }

    /// The per-edge per-round budget in bits.
    pub fn bandwidth_bits(&self) -> usize {
        self.bandwidth_bits
    }

    /// Attaches a [`FaultPlan`]: the scheduler will drop messages, fail
    /// links, and crash-stop nodes exactly as the plan dictates,
    /// deterministically per `(graph, config, seed)` and independently of
    /// which nodes execute and of fast-forwarding.
    ///
    /// A [passive](FaultPlan::is_passive) plan is equivalent to no plan at
    /// all: the resulting `Config` compares equal to one that never saw
    /// `with_faults`, and the scheduler's outputs, stats, and traces are
    /// bit-for-bit those of a fault-free run.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = if plan.is_passive() {
            None
        } else {
            Some(plan.intern())
        };
        self
    }

    /// The attached fault plan, if one is active.
    pub fn faults(&self) -> Option<FaultPlan> {
        self.faults.map(FaultPlan::lookup)
    }

    /// True when a (non-passive) fault plan is attached — the signal
    /// algorithm drivers use to swap hard invariant assertions for typed
    /// fault-detection errors.
    pub fn has_faults(&self) -> bool {
        self.faults.is_some()
    }

    /// Attaches a [`RecoveryPolicy`] telling drivers what they may do when
    /// a fault is detected: bounded reseeded retries, tree-protocol
    /// retransmission, wave checkpoint/restart, and partial-network
    /// semantics for crash-stops. The four diameter drivers (the classical
    /// exact baseline, Theorem 1, Section 3.1 and Theorem 4) heal under
    /// whatever policy their `Config` carries; the BFS and convergecast
    /// protocols read its retransmit count wherever they run. The passive
    /// default recovers nothing, so detect-only runs are fail-stop.
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    /// The attached recovery policy (passive by default).
    pub fn recovery(&self) -> RecoveryPolicy {
        self.recovery
    }

    /// Enables the critical-path profiler: the scheduler maintains a
    /// per-node causal-depth scalar (the longest chain of causally ordered
    /// messages ending at the node), updated at the commit point, and
    /// surfaces the longest chain through [`Network::critical_path`] and
    /// [`RunStats::critical_depth`]. The depth is a protocol observable —
    /// unaffected by fast-forwarding — and
    /// empirically checks the Figure-2 wave pipeline: a wave that obeys
    /// the 2τ′(u) schedule cannot build a causal chain longer than its
    /// scheduled duration.
    pub fn with_critical_path(mut self, enabled: bool) -> Self {
        self.critical_path = enabled;
        self
    }

    /// Whether the critical-path profiler is enabled.
    pub fn critical_path(&self) -> bool {
        self.critical_path
    }
}

/// Accounting collected by a [`Network`] run.
///
/// Equality compares only the *protocol observables* (rounds, messages,
/// bits, widest message, causal depth) — the scheduling telemetry
/// (`scheduled_nodes`, `node_rounds`) is excluded: how many node programs
/// a simulator executes to produce the same traffic is a cost, not a
/// result (the [`reference`](crate::reference) simulator runs every node
/// every round).
#[derive(Clone, Copy, Debug, Default, Eq)]
pub struct RunStats {
    /// Rounds executed.
    pub rounds: Round,
    /// Total messages delivered.
    pub messages: u64,
    /// Total bits delivered.
    pub total_bits: u64,
    /// Largest single message observed, in bits.
    pub max_message_bits: usize,
    /// Node-program executions actually scheduled: the active-set size
    /// summed over stepped rounds; fast-forwarded rounds schedule nothing.
    /// Excluded from equality (scheduling telemetry, not a protocol
    /// observable).
    pub scheduled_nodes: u64,
    /// Node-round opportunities: `n × rounds`, counting fast-forwarded
    /// rounds. `scheduled_nodes / node_rounds` is the active-node fraction.
    /// Excluded from equality.
    pub node_rounds: u64,
    /// Longest causal message chain observed so far (0 unless
    /// [`Config::with_critical_path`] enabled the profiler). *Included* in
    /// equality: commit order is sequential and fate decisions are pure, so
    /// the causal depth is a protocol observable, unaffected by
    /// fast-forwarding.
    pub critical_depth: u64,
}

impl PartialEq for RunStats {
    fn eq(&self, other: &Self) -> bool {
        self.rounds == other.rounds
            && self.messages == other.messages
            && self.total_bits == other.total_bits
            && self.max_message_bits == other.max_message_bits
            && self.critical_depth == other.critical_depth
    }
}

impl RunStats {
    /// Merges another phase's statistics into this one (rounds add up;
    /// maxima combine).
    pub fn absorb(&mut self, other: &RunStats) {
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.total_bits += other.total_bits;
        self.max_message_bits = self.max_message_bits.max(other.max_message_bits);
        self.scheduled_nodes += other.scheduled_nodes;
        self.node_rounds += other.node_rounds;
        // Phases run on fresh networks, so chains do not span phases: the
        // longest chain of the combined run is the max, not the sum.
        self.critical_depth = self.critical_depth.max(other.critical_depth);
    }

    /// Fraction of node-round opportunities that actually executed a
    /// program: 1.0 when every node ran every round, lower when halted
    /// nodes were skipped or quiet stretches fast-forwarded. Returns 1.0
    /// for an empty run.
    pub fn active_fraction(&self) -> f64 {
        if self.node_rounds == 0 {
            1.0
        } else {
            self.scheduled_nodes as f64 / self.node_rounds as f64
        }
    }
}

/// The synchronous CONGEST scheduler.
///
/// Holds one [`NodeProgram`] instance per node and executes each round in
/// five phases, then closes it:
///
/// 0. **assemble** — crash-stops due this round apply (fault plans only);
///    then the runnable set: last round's [`Status::Active`] voters and
///    the receivers of a message they do not ignore, plus
///    [`Status::Sleep`] wakeups that have come due. Nodes that voted
///    `Halted` and received nothing they want are not executed.
/// 1. **seal** — the two send buffers swap: the one committed last round
///    becomes the read-only store this round's inboxes index into. Every
///    inbox already sits in its node's row of the graph's CSR layout (one
///    entry-index slot per incident edge), written there by the commit, so
///    sealing only resets the receiver list, O(1). An inbox is an
///    [`Inbox`] view of its row; no payload moves.
/// 2. **execute** — every scheduled program runs against its inbox view,
///    taken from its row (which leaves the row empty for the commit), and
///    appends its sends to the round's shared send buffer: one entry
///    per `send`, and one per `broadcast`/`broadcast_except` however many
///    neighbours it reaches. Nodes that staged anything are collected into
///    a sender list with the end of their run of entries. Each vote is
///    recorded as soon as its program returns: `Active` voters and
///    imminent sleepers are queued for the next round, later wakeups go to
///    the timer heap.
/// 3. **validate** — every sender's entries are checked (neighbour, one
///    message per directed edge per round, bandwidth) *before any effect
///    commits*: a failed `step()` leaves [`RunStats`], the round counter,
///    and the next round's inboxes untouched. A sender whose only entry is a broadcast reaches
///    distinct neighbours by construction, so only its bandwidth is
///    checked.
/// 4. **commit** — in node-id order: each entry's receivers are walked
///    once and the entry is charged once to the round's traffic tally.
///    With a trace sink, a fault plan or the critical-path profiler, each
///    delivered message is also traced and meets its fault fate; with none
///    of those, the entries take an out-of-line staging-only lane. Each
///    delivery asks the receiver's program, in its post-round state,
///    whether it [ignores](NodeProgram::ignores) the message. A wanted
///    delivery writes the entry index into the next free slot of its
///    receiver's row and advances the row's count; an ignored one writes
///    a scratch slot instead and is never shown, but still counts as in
///    flight. A receiver's first wanted delivery appends it to the
///    round's receiver list. After the commit one pass over that list
///    queues the receivers for the next round: a receiver whose deliveries
///    are all ignored is neither on the list nor run for them. Only the
///    sender list is walked — edge-level sparsity on top of the active
///    set's node-level kind.
///
/// Closing the round folds its tally into [`RunStats`], the metrics
/// registry (one bulk charge, not one per message) and the flight recorder.
///
/// With a metrics registry installed, each phase is timed into the
/// `congest/assemble`, `congest/seal`, `congest/execute` (votes
/// included), `congest/validate` and `congest/commit` profiler spans.
///
/// Node iteration order is fixed (by id) and inboxes arrive sorted by
/// sender id (an invariant the scheduler `debug_assert!`s), so runs are
/// fully deterministic.
///
/// When nothing is runnable and nothing is in flight, the run loops
/// fast-forward: the round counter jumps to the next scheduled event (a
/// timed wakeup or a crash-stop) instead of stepping idle rounds, and the
/// stretch closes as one zero-traffic record. The jump is observationally
/// identical to stepping: `RunStats.rounds`, the registry, the trace (one
/// `RoundSkip` standing for the zero-delivery ticks), the flight recorder
/// (one span record) and fault fates (pure functions of
/// `(seed, round, edge)`) come out as if every round had executed.
///
/// See the [crate-level example](crate).
pub struct Network<'g, P: NodeProgram> {
    graph: &'g Graph,
    config: Config,
    programs: Vec<P>,
    statuses: Vec<Status>,
    /// How many entries of `statuses` are currently [`Status::Halted`].
    /// Maintained incrementally at the two status-write sites (crash-stop
    /// application and the execute phase's vote), so [`Network::is_quiescent`]
    /// is O(1) instead of scanning all n statuses every round — that scan
    /// made long-frontier runs (e.g. flooding a path) quadratic.
    halted: usize,
    /// This round's send buffer: every executed node appends its sends
    /// here, and after commit it holds the payloads of the next round's
    /// inboxes.
    sent: SendBuf<P::Msg>,
    /// Last round's send buffer, read-only this round: the store every
    /// inbox view indexes into. The two buffers swap at each seal, so no
    /// per-round allocation after warm-up.
    prev: SendBuf<P::Msg>,
    /// The sealed inboxes and the next round's staged deliveries, as entry
    /// indices in the graph's CSR rows.
    arena: InboxArena,
    /// Nodes that staged at least one entry this round (ascending), each
    /// with the end of its run of entries in `sent` (the run starts where
    /// the previous sender's ends). The commit and validate phases walk
    /// this instead of the full active set — edge-level sparsity on top of
    /// the active set's node-level kind.
    senders: Vec<(u32, u32)>,
    /// Epoch-stamped duplicate-send marks, one slot per destination node.
    /// `seen[to] == seen_epoch` means the sender currently being validated
    /// already sent to `to` this round — an O(1) check replacing the seed
    /// scheduler's O(deg²) scan.
    seen: Vec<u64>,
    seen_epoch: u64,
    /// Node ids executed in the current round, sorted ascending, rebuilt
    /// each round from `next_active` plus due wakeups.
    active: Vec<u32>,
    /// Accumulator for the *next* round's active set: nodes that voted
    /// [`Status::Active`] (or an imminent [`Status::Sleep`]) this round,
    /// plus every node woken by a delivery it does not ignore.
    /// Duplicate-free (guarded by `active_mark`) but in no set order until
    /// the next round's rebuild.
    next_active: Vec<u32>,
    /// Bitmap half of the hybrid active-set representation: when an
    /// out-of-order `next_active` is dense (≥ ~n/32), assembly rebuilds the
    /// sorted list by a bitmap set-and-scan in O(n/64 + k) instead of an
    /// O(k log k) sort — identical output either way.
    frontier: BitSet,
    /// Round-stamped membership marks: node `i` is queued for round `r`
    /// iff `active_mark[i] == r`. Stamps only grow, so stale entries (from
    /// earlier rounds or across a fast-forward jump) never collide;
    /// `Round::MAX` is the never-stamped sentinel. The marks keep both
    /// `next_active` and the wakeup merge duplicate-free, so the assembled
    /// active list never needs a dedup pass.
    active_mark: Vec<Round>,
    /// Whether `next_active` is currently in ascending node-id order. The
    /// execute phase queues voters in ascending order into an empty list,
    /// so only out-of-order delivery wakes clear this; when it survives the
    /// round, assembly skips its sort.
    next_sorted: bool,
    /// Pending timed wakeups, keyed `(wake_round, node)`. Entries are lazy:
    /// one is live only while `statuses[node]` still holds the
    /// `Sleep(wake_round)` vote that created it; anything else is stale and
    /// discarded on pop.
    wakeups: BinaryHeap<Reverse<(Round, u32)>>,
    /// The wake round of the entry most recently pushed for each node
    /// (0 = none; pushes always target `wake ≥ round + 2 > 0`). Recording
    /// a vote skips the push when a node re-votes the wake round it already
    /// queued — the dominant pattern for pipelined-wave sources, which are
    /// re-woken by every passing front and re-park at the same start round.
    /// Without the skip the heap accumulates one duplicate per wake, and
    /// popping them dominated wave-heavy profiles. Cleared when the
    /// matching entry pops so a later re-vote of the same round re-queues.
    queued_wake: Vec<Round>,
    round: Round,
    stats: RunStats,
    /// This round's traffic, charged as it commits and folded into every
    /// accounting channel by [`Network::close_round`].
    tally: Tally,
    /// Runtime fault-injection state, present iff the config carries a
    /// non-passive [`FaultPlan`].
    fault: Option<FaultState>,
    /// Causal-depth profiler state, present iff
    /// [`Config::with_critical_path`] enabled it. Boxed: four `Vec`s the
    /// common unprofiled path should not pay struct size for.
    crit: Option<Box<CritState>>,
    /// High-water bytes held by the message path (capacities of both send
    /// buffers, plus the arena's fixed index array, one slot per directed
    /// edge and a scratch slot, and its per-node records), refreshed at
    /// round end whenever a metrics registry or flight recorder is
    /// installed.
    arena_highwater: u64,
    /// The thread's flight recorder, bound once at construction (unlike
    /// the per-round `trace::current()` / `metrics::current()` fetches):
    /// the recorder covers whole runs, and a cached handle turns the
    /// per-round charge into a field check instead of a thread-local
    /// probe — the difference between passing and failing the <5%
    /// overhead gate on sparse-wavefront workloads.
    flight: Option<trace::flight::SharedFlight>,
}

/// Below this node count the hybrid active-set assembly always sorts: the
/// bitmap's O(n/64) scan term isn't worth setting up on tiny graphs.
const FRONTIER_MIN_NODES: usize = 256;

/// Density threshold for the bitmap path, as a right-shift of `n`: an
/// out-of-order active set of at least `n >> 5` (n/32) nodes is rebuilt by
/// bitmap set-and-scan instead of sorting.
const FRONTIER_DENSITY_SHIFT: usize = 5;

/// The index side of the message path: which staged entries each node
/// receives, laid out in the graph's own CSR rows. CONGEST allows one
/// message per directed edge per round, so node `t` never receives more
/// than `deg(t)` entries, and row `t` — one slot per incident edge — holds
/// its whole inbox. The commit writes each delivery straight into the
/// next free slot of its receiver's row, in ascending sender order (the
/// commit walks senders in order, and a receiver gets at most one entry per
/// sender), so every row comes out sorted without a scatter.
///
/// Each node's row is described by one [`Row`] record: where the row
/// starts and how many deliveries it holds. One count serves both the
/// sealed inbox and the staged one because the two are never live at
/// once: the execute phase reads every inbox before any commit starts, and
/// [`InboxArena::take`] empties each row as its inbox is handed out. Every
/// receiver is in the next round's active set, so the execute phase empties
/// every row that holds an inbox. A delivery reads and writes its
/// receiver's record on one cache line, and the execute phase finds and
/// empties an inbox on one line too.
///
/// A row holds only the deliveries its receiver wants. One its program
/// [ignores](NodeProgram::ignores) writes its entry index to a scratch
/// slot past every row instead, and the count does not advance, so no
/// inbox ever shows it and its receiver's row is never touched. It still
/// counts in `in_flight`: it was delivered, and quiescence and
/// fast-forward wait for it like any other. A node therefore lands on the
/// receiver list, and is woken, only by its first wanted delivery.
struct InboxArena {
    /// One record per node.
    rows: Vec<Row>,
    /// One entry-index slot per directed edge, allocated once, then the
    /// scratch slot that ignored deliveries write to.
    idx: Vec<u32>,
    /// The next round's distinct receivers of a wanted delivery, in
    /// first-wanted-delivery order, in the first `staged` slots. The
    /// buffer has a fixed `n + 1` slots, so the staging append can write
    /// unconditionally and only advance on a receiver's first wanted
    /// delivery.
    receivers: Vec<u32>,
    staged: usize,
    /// Deliveries staged for the next round, ignored ones included,
    /// counted as they are staged.
    in_flight: usize,
}

/// One node's record in the [`InboxArena`]: its row of index slots
/// starts at `start`, and its first `len` slots are in use. Eight bytes,
/// aligned to eight, so a record never straddles a cache line.
#[derive(Clone, Copy, Debug)]
#[repr(C, align(8))]
struct Row {
    /// The row's first slot: the node's offset in the graph's CSR rows.
    start: u32,
    /// From the seal until the execute phase takes it, the size of this
    /// round's inbox; from then on, the wanted deliveries staged for the
    /// next round.
    len: u32,
}

/// The staging side of an [`InboxArena`], borrowed for a run of
/// deliveries with the receiver list's length in a local.
struct Stager<'a> {
    rows: &'a mut [Row],
    idx: &'a mut [u32],
    receivers: &'a mut [u32],
    staged: usize,
}

impl Stager<'_> {
    /// One past the last slot of node `t`'s row: the next row's start, or
    /// the scratch slot after the last row.
    fn row_end(&self, t: usize) -> usize {
        self.rows
            .get(t + 1)
            .map_or(self.idx.len() - 1, |row| row.start as usize)
    }

    /// Stages entry `entry` of the current send buffer for node `to`'s
    /// next inbox if `wants` (its program does not ignore the message).
    /// Branch-free: a wanted delivery writes the next free slot of its
    /// receiver's row and advances the row's count, an ignored one writes
    /// the scratch slot and leaves the count; both write the receiver list,
    /// which only advances on a receiver's first wanted delivery.
    #[inline(always)]
    fn stage(&mut self, to: usize, entry: u32, wants: bool) {
        let (l, next) = {
            let row = self.rows[to];
            (row.len, row.start as usize + row.len as usize)
        };
        // Every wanted delivery crosses its own incident edge, so it lands
        // inside the row.
        debug_assert!(
            !wants || next < self.row_end(to),
            "node {to} was staged more messages than it has neighbours"
        );
        let scratch = self.idx.len() - 1;
        self.idx[if wants { next } else { scratch }] = entry;
        let w = u32::from(wants);
        self.rows[to].len = l + w;
        self.receivers[self.staged] = to as u32;
        // `l < w` exactly when the row was empty and this one is wanted.
        self.staged += usize::from(l < w);
    }
}

impl InboxArena {
    fn new(graph: &Graph) -> Self {
        let offsets = graph.offsets();
        let n = graph.len();
        let rows = offsets[..n]
            .iter()
            .map(|&start| Row { start, len: 0 })
            .collect();
        InboxArena {
            rows,
            idx: vec![0; offsets[n] as usize + 1],
            receivers: vec![0; n + 1],
            staged: 0,
            in_flight: 0,
        }
    }

    /// Borrows the staging side; the caller stores its `staged` back.
    #[inline]
    fn stager(&mut self) -> Stager<'_> {
        Stager {
            rows: &mut self.rows,
            idx: &mut self.idx,
            receivers: &mut self.receivers,
            staged: self.staged,
        }
    }

    /// Stages one delivery (see [`Stager::stage`]) and counts it in flight.
    #[inline]
    fn stage(&mut self, to: usize, entry: u32, wants: bool) {
        let mut stager = self.stager();
        stager.stage(to, entry, wants);
        self.staged = stager.staged;
        self.in_flight += 1;
    }

    /// The next round's distinct receivers of a wanted delivery, in
    /// first-wanted-delivery order.
    #[inline]
    fn receivers(&self) -> &[u32] {
        &self.receivers[..self.staged]
    }

    /// Seals the staged rows as this round's inboxes: a row holds just
    /// what was staged for it, so only the receiver list and the in-flight
    /// count are reset.
    #[inline]
    fn seal(&mut self) {
        debug_assert!(
            self.in_flight
                >= self
                    .receivers()
                    .iter()
                    .map(|&t| self.rows[t as usize].len as usize)
                    .sum::<usize>(),
            "the arena's rows hold more deliveries than were staged"
        );
        self.staged = 0;
        self.in_flight = 0;
    }

    /// This round's inbox of node `i`, as entry indices, leaving its row
    /// empty for the commit to stage into.
    #[inline]
    fn take(&mut self, i: usize) -> &[u32] {
        let row = &mut self.rows[i];
        let start = row.start as usize;
        let len = std::mem::take(&mut row.len) as usize;
        &self.idx[start..start + len]
    }
}

/// The longest causal message chain a profiled run has observed — see
/// [`Config::with_critical_path`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CriticalPath {
    /// Chain length in messages (each hop is one delivered message whose
    /// sender causally depended on the previous hop).
    pub depth: u64,
    /// The node at which the longest chain ends (smallest id on ties).
    pub node: NodeId,
}

/// Per-node causal-depth state for the opt-in critical-path profiler.
///
/// `depth[v]` is the length of the longest chain of causally ordered
/// message deliveries ending at `v`. A message committed in round `r`
/// carries `depth[from] + 1`; deliveries staged for round `r + 1` are
/// max-merged per receiver during commit (epoch-stamped, so the merge
/// buffer never needs clearing) and folded into `depth` at the end of the
/// step — exactly when the messages become visible to their receivers — so
/// the commit of round `r + 1` reads fully settled depths.
struct CritState {
    depth: Vec<u64>,
    /// Per-receiver max staged this round, valid iff `mark[v] == epoch`.
    staged: Vec<u64>,
    mark: Vec<u64>,
    epoch: u64,
    /// Receivers staged this round (duplicate-free via `mark`).
    touched: Vec<u32>,
    max_depth: u64,
}

impl CritState {
    fn new(n: usize) -> Self {
        CritState {
            depth: vec![0; n],
            staged: vec![0; n],
            mark: vec![0; n],
            epoch: 1,
            touched: Vec::new(),
            max_depth: 0,
        }
    }

    /// Stages a delivery of chain length `d` to node `to` (max-merge).
    #[inline]
    fn stage(&mut self, to: usize, d: u64) {
        if self.mark[to] != self.epoch {
            self.mark[to] = self.epoch;
            self.staged[to] = d;
            self.touched.push(to as u32);
        } else if d > self.staged[to] {
            self.staged[to] = d;
        }
    }

    /// Folds this round's staged deliveries into the settled depths.
    #[inline]
    fn apply(&mut self) {
        for &t in &self.touched {
            let tu = t as usize;
            if self.staged[tu] > self.depth[tu] {
                self.depth[tu] = self.staged[tu];
                self.max_depth = self.max_depth.max(self.staged[tu]);
            }
        }
        self.touched.clear();
        self.epoch += 1;
    }
}

/// Mutable fault-injection state for one network run.
struct FaultState {
    plan: FaultPlan,
    /// Per-node crash-stop flags (permanent once set).
    crashed: Vec<bool>,
    stats: FaultStats,
}

impl FaultState {
    fn new(plan: FaultPlan, n: usize) -> Self {
        FaultState {
            plan,
            crashed: vec![false; n],
            stats: FaultStats::default(),
        }
    }
}

/// The width-histogram slot of a `bits`-wide message: the first of
/// [`DEFAULT_BITS_BUCKETS`] (the powers of two 2², …, 2⁹) at or above
/// `bits`, i.e. ⌈log₂ bits⌉ − 2 clamped into range, the last slot `+Inf`.
#[inline]
fn width_slot(bits: usize) -> usize {
    let ceil_log2 = (usize::BITS - bits.saturating_sub(1).leading_zeros()) as usize;
    ceil_log2.saturating_sub(2).min(DEFAULT_BITS_BUCKETS.len())
}

/// One round's traffic, written by the crash-stop phase and the commit.
/// [`Network::close_round`] folds it into
/// [`RunStats`], the metrics registry and the flight recorder, so the
/// three channels are charged the same numbers, once per round.
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    /// Messages sent (whether or not the fault layer lets them through),
    /// their payload bits and the widest; and the rounds closed, the node
    /// programs they ran and their node-round slots.
    sent: RunStats,
    /// Injected faults: fates other than delivery, discards at crashed
    /// receivers, and crash-stops.
    faults: u64,
    /// Messages handed to the programs at the start of the round.
    delivered: u64,
    /// Timed wakeups that fired into the round's active set.
    wakeups: u64,
    /// Messages per [`width_slot`], counted only while a registry is
    /// installed.
    widths: [u64; DEFAULT_BITS_BUCKETS.len() + 1],
}

impl Tally {
    /// Charges one send-buffer entry that reached `count` receivers with a
    /// `bits`-wide payload, and with `widths` set, its width slot. The
    /// histogram's only reader is the registry, and bucketing every entry
    /// of a run nobody meters costs its message loop a few per cent.
    #[inline]
    fn charge_entry(&mut self, count: u64, bits: usize, widths: bool) {
        let sent = &mut self.sent;
        sent.messages += count;
        sent.total_bits += count * bits as u64;
        sent.max_message_bits = sent.max_message_bits.max(bits);
        if widths {
            self.widths[width_slot(bits)] += count;
        }
    }

    /// Charges one injected fault and emits its `Fault` trace event.
    fn fault(&mut self, tracer: &Option<trace::SharedSink>, round: Round, event: FaultEvent) {
        self.faults += 1;
        if let Some(sink) = tracer {
            let (kind, from, to) = event;
            let fault = trace::TraceEvent::Fault {
                round,
                kind,
                from,
                to,
            };
            sink.borrow_mut().record(&fault);
        }
    }

    /// Charges the traffic to `registry` in bulk. A counter is created only
    /// when its delta is non-zero, so the registry reads the same as one
    /// charged per message.
    fn charge(&self, registry: &mut metrics::Registry) {
        let sent = &self.sent;
        registry.charge_messages(sent.messages, sent.total_bits, &self.widths);
        if self.faults > 0 {
            registry.add(metrics::names::FAULTS, self.faults);
        }
    }
}

/// An injected fault as `(kind, from, to)`; a crash-stop has
/// `from == to`.
type FaultEvent = (trace::FaultKind, u64, u64);

impl<'g, P: NodeProgram> Network<'g, P> {
    /// Creates a network over `graph`, instantiating the program at every
    /// node with `make`.
    pub fn new(graph: &'g Graph, config: Config, mut make: impl FnMut(NodeId) -> P) -> Self {
        let programs: Vec<P> = graph.nodes().map(&mut make).collect();
        let n = programs.len();
        Network {
            graph,
            config,
            statuses: vec![Status::Active; n],
            halted: 0,
            sent: SendBuf::default(),
            prev: SendBuf::default(),
            arena: InboxArena::new(graph),
            senders: Vec::new(),
            seen: vec![0; n],
            seen_epoch: 0,
            active: Vec::new(),
            // Every node starts `Active`, so round 0 runs everybody.
            next_active: (0..n as u32).collect(),
            frontier: BitSet::new(n),
            active_mark: vec![Round::MAX; n],
            next_sorted: true,
            wakeups: BinaryHeap::new(),
            queued_wake: vec![0; n],
            round: 0,
            programs,
            stats: RunStats::default(),
            tally: Tally::default(),
            fault: config.faults().map(|plan| FaultState::new(plan, n)),
            crit: config.critical_path().then(|| Box::new(CritState::new(n))),
            arena_highwater: 0,
            flight: trace::flight::current(),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The configuration in use.
    pub fn config(&self) -> Config {
        self.config
    }

    /// Rounds executed so far.
    pub fn round(&self) -> Round {
        self.round
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Returns `true` if every node voted [`Status::Halted`] in the latest
    /// round and no messages are waiting for delivery. A
    /// [`Status::Sleep`] vote blocks quiescence — the pending wakeup is
    /// scheduled work.
    pub fn is_quiescent(&self) -> bool {
        debug_assert_eq!(
            self.halted,
            self.statuses
                .iter()
                .filter(|&&s| s == Status::Halted)
                .count()
        );
        self.arena.in_flight == 0 && self.halted == self.statuses.len()
    }

    /// Total node-program executions scheduled so far: the active-set size
    /// summed over stepped rounds (fast-forwarded rounds schedule nothing,
    /// a failed step's round never closes, and a receiver whose deliveries
    /// its program [ignores](NodeProgram::ignores) is not scheduled for
    /// them). The same count as
    /// [`RunStats::scheduled_nodes`] — excluded there from equality, since
    /// it is a cost rather than a protocol observable;
    /// [`RunStats::active_fraction`] is the ratio against `n · rounds`.
    pub fn scheduled_nodes(&self) -> u64 {
        self.stats.scheduled_nodes
    }

    /// Counts of the faults injected so far (all zero when the config has
    /// no fault plan). Kept out of [`RunStats`] so fault-free accounting is
    /// byte-identical to a scheduler without fault injection.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    /// The longest causal message chain observed so far, or `None` unless
    /// the profiler was enabled via [`Config::with_critical_path`].
    ///
    /// The chain length lower-bounds the rounds any schedule needs for the
    /// information flow this run performed, and for the Figure-2 wave
    /// pipeline it sits between the graph eccentricity of the wave's
    /// source and the 2τ′(u)-governed scheduled duration.
    pub fn critical_path(&self) -> Option<CriticalPath> {
        self.crit.as_ref().map(|c| {
            let (mut depth, mut node) = (0u64, 0usize);
            for (i, &d) in c.depth.iter().enumerate() {
                if d > depth {
                    depth = d;
                    node = i;
                }
            }
            CriticalPath {
                depth,
                node: NodeId::new(node),
            }
        })
    }

    /// Takes a fresh reading of the message path's capacity bytes into
    /// the high-water mark. The capacities only grow, so any call sees a
    /// value at least as large as every earlier round's.
    fn refresh_arena_highwater(&mut self) {
        use std::mem::size_of;
        let (sent, prev, arena) = (&self.sent, &self.prev, &self.arena);
        let entries = (sent.msgs.capacity() + prev.msgs.capacity()) * size_of::<(NodeId, P::Msg)>()
            + (sent.dest.capacity() + prev.dest.capacity()) * size_of::<Dest>();
        let index =
            arena.idx.capacity() * size_of::<u32>() + arena.rows.capacity() * size_of::<Row>();
        self.arena_highwater = self.arena_highwater.max((entries + index) as u64);
    }

    /// Queues this round's receivers for the next round, after the votes
    /// and in first-delivery order. Every receiver on the list got a
    /// delivery it wants (see [`InboxArena`]); the round-stamped mark
    /// skips the ones a vote already queued. Branch-free: every receiver
    /// is written, and the list only advances past a fresh one.
    fn wake_receivers(&mut self, round: Round) {
        let stamp = round + 1;
        let receivers = self.arena.receivers();
        let base = self.next_active.len();
        let mut last = self.next_active.last().copied().unwrap_or(0);
        let mut sorted = self.next_sorted;
        self.next_active.resize(base + receivers.len(), 0);
        let mut end = base;
        for &t in receivers {
            let tu = t as usize;
            let fresh = self.active_mark[tu] != stamp;
            self.active_mark[tu] = stamp;
            self.next_active[end] = t;
            end += fresh as usize;
            sorted &= !fresh | (last <= t);
            last = if fresh { t } else { last };
        }
        self.next_active.truncate(end);
        self.next_sorted = sorted;
    }

    /// Consumes the network and extracts every node's local output, in node
    /// id order.
    pub fn into_outputs(self) -> Vec<P::Output> {
        self.programs
            .into_iter()
            .enumerate()
            .map(|(i, p)| p.finish(NodeId::new(i)))
            .collect()
    }

    /// Executes a single round.
    ///
    /// # Errors
    ///
    /// Returns an error on invalid sends, or on over-budget messages. A
    /// failed `step()` commits nothing: the round counter, [`RunStats`],
    /// and the next round's inboxes are left exactly as they were before
    /// the call (program state is not rolled back — an errored network
    /// should be discarded, not resumed; crash flags applied by a fault
    /// plan at the top of the failed round likewise persist).
    pub fn step(&mut self) -> Result<(), CongestError> {
        let round = self.round;
        // Fetched once per round; `None` (the default) keeps the message
        // loop free of tracing work. The registry is charged at close.
        let tracer = trace::current();
        let meter = metrics::current();
        // With a registry installed, each phase below is charged to its
        // `congest/<phase>` profiler span by one lap of this clock.
        let mut clock = meter.as_ref().map(|_| std::time::Instant::now());
        // Everything staged last round is handed to the programs now, so
        // this round delivers exactly the previously in-flight messages.
        self.tally.delivered = self.arena.in_flight as u64;

        // Phase 0: crash-stops (fault plans only), then the runnable set.
        // Taking the fault state out of `self` keeps the borrows of the
        // execute and commit phases disjoint.
        let mut fault = self.fault.take();
        if let Some(f) = fault.as_mut() {
            self.apply_crashes(round, f, &tracer);
        }
        self.assemble(round);
        lap(&meter, &mut clock, "congest/assemble");

        // Phase 1: swap the send buffers and seal last round's staged rows
        // as this round's inboxes.
        std::mem::swap(&mut self.sent, &mut self.prev);
        self.sent.clear();
        self.arena.seal();
        lap(&meter, &mut clock, "congest/seal");

        // Phase 2: execute every runnable program, appending sends to the
        // round's send buffer and collecting the ids that staged anything.
        self.execute(round, fault.as_ref().map(|f| f.crashed.as_slice()));
        lap(&meter, &mut clock, "congest/execute");

        // Phase 3: validate every sender's entries before committing any
        // effect, so an error leaves the accounting of this round as if the
        // step never ran.
        let validated = self.validate_staged(round);
        lap(&meter, &mut clock, "congest/validate");
        if let Err(e) = validated {
            // Nothing was staged, so the next seal hands every node an
            // empty inbox; this round's payloads can go now.
            self.sent.clear();
            self.senders.clear();
            self.prev.clear();
            self.fault = fault;
            // The round never closes, but its crash-stops stand (as do
            // their trace events and `FaultStats`), so the registry keeps
            // counting them.
            if let Some(meter) = &meter {
                std::mem::take(&mut self.tally).charge(&mut meter.borrow_mut());
            }
            return Err(e);
        }

        // Phase 4: commit, in node-id order, then wake the receivers that
        // got a message they do not ignore. After an all-active round
        // every node is already queued by its vote, so no receiver needs
        // waking.
        let wake = self.next_active.len() < self.programs.len();
        self.commit(round, fault.as_mut(), &tracer, meter.is_some());
        self.fault = fault;
        if wake {
            self.wake_receivers(round);
        }
        // This round's deliveries become visible at the start of the next,
        // so their causal depths settle now.
        if let Some(c) = self.crit.as_deref_mut() {
            c.apply();
            self.stats.critical_depth = c.max_depth;
        }
        // The message-path buffers only grow, so their capacity sum is the
        // run's memory high-water: read every 64 rounds when someone is
        // listening, and exactly when the run loops exit.
        if round & 63 == 0 && (meter.is_some() || self.flight.is_some()) {
            self.refresh_arena_highwater();
        }
        lap(&meter, &mut clock, "congest/commit");

        self.close_round(None, &meter, &tracer);
        Ok(())
    }

    /// Phase 0 of [`Network::step`] (fault plans only): crash-stops every
    /// node scheduled to crash by `round` and not yet crashed. Its status
    /// is pinned to `Halted`, and the crash is charged and traced as a
    /// fault whose `from` and `to` are the node itself.
    fn apply_crashes(
        &mut self,
        round: Round,
        f: &mut FaultState,
        tracer: &Option<trace::SharedSink>,
    ) {
        let n = self.programs.len();
        for &(node, at) in f.plan.crashes() {
            if at <= round && node < n && !f.crashed[node] {
                f.crashed[node] = true;
                if self.statuses[node] != Status::Halted {
                    self.halted += 1;
                }
                self.statuses[node] = Status::Halted;
                f.stats.crashes += 1;
                let crash = (trace::FaultKind::Crash, node as u64, node as u64);
                self.tally.fault(tracer, round, crash);
            }
        }
    }

    /// Phase 0b of [`Network::step`]: assembles this round's runnable set
    /// — last round's `Active` voters and message receivers (accumulated
    /// in `next_active`) plus any timed wakeups that have come due — as a
    /// sorted list, and tallies its size and how many wakeups joined it.
    /// Crash flags are applied before this runs, so a crashed sleeper's
    /// heap entry is already stale (its status was pinned `Halted`).
    fn assemble(&mut self, round: Round) {
        let n = self.programs.len();
        let mut woke = 0;
        std::mem::swap(&mut self.active, &mut self.next_active);
        self.next_active.clear();
        let mut in_order = self.next_sorted;
        self.next_sorted = true;
        while let Some(&Reverse((wake, i))) = self.wakeups.peek() {
            if wake > round {
                break;
            }
            self.wakeups.pop();
            // Live entry (the sleep vote that created it stands) and not
            // already queued — stale entries from superseded votes, or a
            // message wake that queued the node beforehand, are skipped
            // here.
            let iu = i as usize;
            if self.queued_wake[iu] == wake {
                self.queued_wake[iu] = 0;
            }
            if self.statuses[iu] == Status::Sleep(wake) && self.active_mark[iu] != round {
                self.active_mark[iu] = round;
                woke += 1;
                if self.active.last().is_some_and(|&last| last > i) {
                    in_order = false;
                }
                self.active.push(i);
            }
        }
        if !in_order {
            // Hybrid restoration of sorted order: dense sets rebuild via
            // the frontier bitmap in O(n/64 + k); sparse ones sort. Both
            // produce the same ascending list — density only moves cost.
            if n >= FRONTIER_MIN_NODES && self.active.len() >= n >> FRONTIER_DENSITY_SHIFT {
                self.frontier.clear();
                for &i in &self.active {
                    self.frontier.insert(i as usize);
                }
                self.active.clear();
                let frontier = &self.frontier;
                self.active.extend(frontier.iter().map(|i| i as u32));
            } else {
                self.active.sort_unstable();
            }
        }
        debug_assert!(self.active.windows(2).all(|w| w[0] < w[1]));
        self.tally.sent.scheduled_nodes = self.active.len() as u64;
        self.tally.wakeups = woke;
    }

    /// Phase 2 of [`Network::step`]: runs every scheduled program against
    /// its inbox view, letting it append to this round's send buffer, and
    /// records each node that staged anything in `senders` with the end of
    /// its run of entries (ascending, like `active`). Each run also swaps
    /// the node's old vote for its new one in the O(1)-quiescence counter
    /// and records the vote for the next round right away: voters that run
    /// again are stamped and queued in `next_active` in ascending order
    /// (the active list is sorted, so the receivers the commit wakes later
    /// mostly hit already-marked nodes and the next round can skip its
    /// sort), and future wakeups go to the heap. Crash-stopped nodes are
    /// skipped: they neither read their inbox nor send, and their status
    /// stays pinned to `Halted`.
    fn execute(&mut self, round: Round, crashed: Option<&[bool]>) {
        let n = self.programs.len();
        self.senders.clear();
        for &i in &self.active {
            let iu = i as usize;
            // Taken even from a crashed node, so that its row is empty for
            // the commit too.
            let ids = self.arena.take(iu);
            if crashed.is_some_and(|c| c[iu]) {
                continue;
            }
            let node = NodeId::new(iu);
            let inbox = Inbox::new(&self.prev.msgs, ids);
            // The commit phase fills inboxes in ascending sender order with
            // at most one message per directed edge; programs rely on this
            // (see `NodeProgram::on_round`), so enforce it where a future
            // scheduler change would first break it.
            debug_assert!(
                inbox
                    .iter()
                    .zip(inbox.iter().skip(1))
                    .all(|(a, b)| a.0 < b.0),
                "inbox of {node} is not strictly sorted by sender id"
            );
            let staged = self.sent.len();
            let neighbors = self.graph.neighbors(node);
            let mut ctx = RoundCtx::new(node, round, n, neighbors, inbox, &mut self.sent);
            let vote = self.programs[iu].on_round(&mut ctx);
            self.halted += (vote == Status::Halted) as usize;
            self.halted -= (self.statuses[iu] == Status::Halted) as usize;
            self.statuses[iu] = vote;
            // Record the vote: `Active` voters and past-due sleepers run
            // again next round; future wakeups go to the heap; `Halted`
            // voters drop out until a message arrives. Worked out without
            // branching on the vote, which programs such as the Figure 2
            // waves cast unpredictably between `Halted` and a parked
            // `Sleep` that is mostly queued already.
            let (sleeps, wake) = match vote {
                Status::Sleep(wake) => (true, wake),
                _ => (false, 0),
            };
            let parks = sleeps & (wake > round + 1);
            if parks & (self.queued_wake[iu] != wake) {
                self.queued_wake[iu] = wake;
                self.wakeups.push(Reverse((wake, i)));
            }
            if !parks & (vote != Status::Halted) {
                self.active_mark[iu] = round + 1;
                self.next_active.push(i);
            }
            if self.sent.len() > staged {
                self.senders.push((i, self.sent.len() as u32));
            }
        }
        // Every node with an inbox was scheduled, so every row is empty.
        debug_assert!(self.arena.rows.iter().all(|row| row.len == 0));
    }

    /// Checks every sender's entries (neighbour, duplicate-send, bandwidth)
    /// without committing anything. The execute phase records every node
    /// that staged an entry in `senders`, so walking that list (ascending,
    /// like the active list it filters) is exhaustive.
    ///
    /// A sender whose only entry is a broadcast reaches distinct
    /// neighbours by construction, so only its bandwidth is checked (and
    /// reported against its first receiver). Any other sender's entries
    /// are expanded in staging order: a neighbour check on `send` entries,
    /// a `seen` stamp per receiver, then the bandwidth check — so the error
    /// is always the first offending message in staging order.
    fn validate_staged(&mut self, round: Round) -> Result<(), CongestError> {
        let budget = self.config.bandwidth_bits;
        let too_wide = |from: NodeId, to: NodeId, bits: usize| CongestError::BandwidthExceeded {
            from,
            to,
            round,
            bits,
            budget,
        };
        let sent = &self.sent;
        let mut first = 0;
        for &(i, end) in &self.senders {
            let (start, end) = (first, end as usize);
            first = end;
            let node = NodeId::new(i as usize);
            if end - start == 1 && !matches!(sent.dest[start], Dest::One(_)) {
                let bits = sent.msgs[start].1.size_bits();
                if bits > budget {
                    let neighbors = self.graph.neighbors(node);
                    let (targets, skip) = sent.dest[start].targets(neighbors);
                    if let Some(&to) = targets.iter().find(|&&to| Some(to) != skip) {
                        return Err(too_wide(node, to, bits));
                    }
                }
                continue;
            }
            let neighbors = self.graph.neighbors(node);
            self.seen_epoch += 1;
            for k in start..end {
                let bits = sent.msgs[k].1.size_bits();
                let dest = &sent.dest[k];
                let (targets, skip) = dest.targets(neighbors);
                for &to in targets {
                    if Some(to) == skip {
                        continue;
                    }
                    if matches!(dest, Dest::One(_)) && !self.graph.has_edge(node, to) {
                        return Err(CongestError::NotANeighbor { from: node, to });
                    }
                    let slot = &mut self.seen[to.index()];
                    if *slot == self.seen_epoch {
                        return Err(CongestError::DuplicateSend {
                            from: node,
                            to,
                            round,
                        });
                    }
                    *slot = self.seen_epoch;
                    if bits > budget {
                        return Err(too_wide(node, to, bits));
                    }
                }
            }
        }
        Ok(())
    }

    /// Phase 4 of [`Network::step`]: commits the validated entries, in
    /// node-id order. Each entry's receivers are walked once, in neighbour
    /// order, and staged into their rows for the next round. Only the
    /// sender list is walked — nodes that staged nothing cost nothing here
    /// — and it is ascending and exhaustive by construction, so deliveries
    /// stage in sender-id order and each receiver's row comes out sorted
    /// for free. Every entry is charged to the round tally once, with its
    /// delivery count (and its width slot when `widths`: a registry is
    /// installed).
    ///
    /// With no trace sink, fault plan or critical-path profiler, the entries
    /// take the staging-only lane, [`commit_plain`]. Otherwise each
    /// delivered message is traced and meets its fault fate, a pure
    /// function of the message's `(round, from, to)` coordinates, so
    /// scheduling and fast-forwarding cannot change it.
    fn commit(
        &mut self,
        round: Round,
        mut fault: Option<&mut FaultState>,
        tracer: &Option<trace::SharedSink>,
        widths: bool,
    ) {
        use trace::FaultKind::{Crash, Drop, LinkDown};
        let (graph, programs) = (self.graph, self.programs.as_slice());
        let (sent, arena, tally) = (&self.sent, &mut self.arena, &mut self.tally);
        if tracer.is_none() && fault.is_none() && self.crit.is_none() {
            let lane = Lane {
                graph,
                programs,
                senders: &self.senders,
                msgs: &sent.msgs,
                dest: &sent.dest,
                widths,
            };
            commit_plain(lane, arena, tally);
            return;
        }
        let mut crit = self.crit.as_deref_mut();
        let mut first = 0;
        for &(i, end) in &self.senders {
            let (i, end) = (i as usize, end as usize);
            let node = NodeId::new(i);
            // Chain length every message from this sender extends: its
            // settled causal depth (deliveries up to this round's start
            // were folded in at the end of the previous step) plus one.
            let link_depth = crit.as_deref().map_or(0, |c| c.depth[i] + 1);
            let neighbors = graph.neighbors(node);
            for k in first..end {
                let msg = &sent.msgs[k].1;
                let bits = msg.size_bits();
                let (targets, skip) = sent.dest[k].targets(neighbors);
                let mut count = 0u64;
                for &to in targets {
                    if Some(to) == skip {
                        continue;
                    }
                    count += 1;
                    // Sends are traced (and charged) whether or not the
                    // message survives the fault layer: a lost message
                    // still spent the sender's bandwidth.
                    if let Some(sink) = tracer {
                        let (from, to, bits) = (i as u64, to.index() as u64, bits as u64);
                        sink.borrow_mut().record(&trace::TraceEvent::Message {
                            round,
                            from,
                            to,
                            bits,
                        });
                    }
                    let t = to.index();
                    let wants = !programs[t].ignores(msg);
                    let Some(f) = fault.as_deref_mut() else {
                        deliver(arena, crit.as_deref_mut(), t, k as u32, wants, link_depth);
                        continue;
                    };
                    // A message to a crashed node is discarded; `from !=
                    // to` distinguishes this from the crash-stop event
                    // itself.
                    let (counter, kind) = match f.plan.fate(round, i, t) {
                        _ if f.crashed[t] => (&mut f.stats.crash_dropped, Crash),
                        MessageFate::Delivered => {
                            deliver(arena, crit.as_deref_mut(), t, k as u32, wants, link_depth);
                            continue;
                        }
                        MessageFate::Dropped => (&mut f.stats.dropped, Drop),
                        MessageFate::LinkDropped => (&mut f.stats.link_dropped, LinkDown),
                    };
                    *counter += 1;
                    tally.fault(tracer, round, (kind, i as u64, t as u64));
                }
                if count > 0 {
                    tally.charge_entry(count, bits, widths);
                }
            }
            first = end;
        }
    }

    /// Closes the stepped round (`skipped = None`) or a fast-forward over
    /// `skipped = Some(span)` rounds with an empty tally: folds the round
    /// tally into [`RunStats`], the metrics registry (one bulk charge) and
    /// the flight recorder (one [`trace::RoundRecord`]), advances the round
    /// counter and emits the trace tick — a `Round`, or one `RoundSkip`
    /// for the whole fast-forward.
    fn close_round(
        &mut self,
        skipped: Option<Round>,
        meter: &Option<metrics::SharedRegistry>,
        tracer: &Option<trace::SharedSink>,
    ) {
        let (n, from, span) = (self.programs.len() as u64, self.round, skipped.unwrap_or(1));
        let mut tally = std::mem::take(&mut self.tally);
        let sent = &mut tally.sent;
        (sent.rounds, sent.node_rounds) = (span, n * span);
        self.round += span;
        self.stats.absorb(sent);
        if let Some(meter) = meter {
            let mut meter = meter.borrow_mut();
            tally.charge(&mut meter);
            let sent = &tally.sent;
            meter.charge_rounds(span, sent.scheduled_nodes, sent.node_rounds);
            if skipped.is_none() {
                let arena = self.arena_highwater as f64;
                meter.set_gauge(metrics::names::ARENA_BYTES_HIGHWATER, arena);
                if let Some(c) = self.crit.as_deref() {
                    // Max-tracking: multi-phase drivers run several networks
                    // under one registry, and the report wants the longest
                    // chain any of them built.
                    let name = metrics::names::CRITICAL_PATH_DEPTH;
                    if c.max_depth as f64 > meter.gauge(name).unwrap_or(0.0) {
                        meter.set_gauge(name, c.max_depth as f64);
                    }
                }
            }
        }
        if let Some(flight) = &self.flight {
            let sent = &tally.sent;
            flight.borrow_mut().close(trace::RoundRecord {
                span,
                delivered: tally.delivered,
                messages: sent.messages,
                bits: sent.total_bits,
                faults: tally.faults,
                scheduled: sent.scheduled_nodes,
                wakeups: tally.wakeups,
                frontier: self.next_active.len() as u64,
                arena_bytes: self.arena_highwater,
                ..trace::RoundRecord::default()
            });
        }
        if let Some(sink) = tracer {
            sink.borrow_mut().record(&match skipped {
                None => trace::TraceEvent::Round {
                    round: from,
                    delivered: tally.delivered,
                },
                Some(_) => trace::TraceEvent::RoundSkip {
                    from,
                    to: self.round,
                },
            });
        }
    }

    /// Executes exactly `rounds` rounds (fully quiescent stretches are
    /// fast-forwarded rather than stepped, with identical observable
    /// effects — see [`Network`]).
    ///
    /// # Errors
    ///
    /// Propagates any error from [`Network::step`].
    pub fn run_rounds(&mut self, rounds: Round) -> Result<RunStats, CongestError> {
        let target = self.round.saturating_add(rounds);
        while self.round < target {
            if !self.fast_forward(target) {
                self.step()?;
            }
        }
        self.finish_telemetry();
        Ok(self.stats)
    }

    /// Runs until quiescence (every node halted, no messages in flight).
    ///
    /// # Errors
    ///
    /// Returns [`CongestError::RoundLimitExceeded`] if the network does not
    /// quiesce within `max_rounds`, or propagates errors from
    /// [`Network::step`].
    pub fn run_until_quiescent(&mut self, max_rounds: Round) -> Result<RunStats, CongestError> {
        while !self.is_quiescent() {
            if self.round >= max_rounds {
                return Err(CongestError::RoundLimitExceeded { limit: max_rounds });
            }
            if !self.fast_forward(max_rounds) {
                self.step()?;
            }
        }
        self.finish_telemetry();
        Ok(self.stats)
    }

    /// Takes the final exact arena reading the 64-round refresh cadence
    /// may have missed and republishes the gauge, so post-run exports and
    /// reports never see a stale high-water mark.
    fn finish_telemetry(&mut self) {
        let meter = metrics::current();
        if meter.is_some() || self.flight.is_some() {
            self.refresh_arena_highwater();
        }
        if let Some(meter) = meter {
            let arena = self.arena_highwater as f64;
            let mut meter = meter.borrow_mut();
            meter.set_gauge(metrics::names::ARENA_BYTES_HIGHWATER, arena);
        }
    }

    /// Jumps the round counter over the upcoming rounds that would be
    /// no-ops — empty active set, nothing in flight, no fault event due —
    /// up to (exclusive) the first round that needs stepping, or `cap`,
    /// and returns whether it moved. The stretch closes as one zero-traffic
    /// record (see [`Network::close_round`]): trace consumers treat its
    /// [`trace::TraceEvent::RoundSkip`] exactly as that many zero-delivery
    /// `Round` ticks (see [`trace::expand_round_skips`]), and `RunStats`
    /// advances as if every round had been stepped (skipped rounds
    /// schedule no nodes, so only `node_rounds` grows).
    ///
    /// Events that stop the jump: the earliest live timed wakeup and the
    /// earliest not-yet-applied crash-stop (its `Fault` trace event must
    /// land in its exact round).
    fn fast_forward(&mut self, cap: Round) -> bool {
        if !self.next_active.is_empty() || self.arena.in_flight != 0 {
            return false;
        }
        let mut target = cap;
        if let Some(f) = &self.fault {
            let n = self.programs.len();
            for &(node, at) in f.plan.crashes() {
                if node < n && !f.crashed[node] {
                    target = target.min(at.max(self.round));
                }
            }
        }
        // Purge stale wakeups until one is live; a live entry always exists
        // for every currently sleeping node.
        while let Some(&Reverse((wake, i))) = self.wakeups.peek() {
            let iu = i as usize;
            if self.statuses[iu] == Status::Sleep(wake) {
                target = target.min(wake);
                break;
            }
            self.wakeups.pop();
            if self.queued_wake[iu] == wake {
                self.queued_wake[iu] = 0;
            }
        }
        if target <= self.round {
            return false;
        }
        let (meter, tracer) = (metrics::current(), trace::current());
        self.close_round(Some(target - self.round), &meter, &tracer);
        true
    }
}

/// Stages entry `entry` of this round's send buffer for delivery to `to`
/// at the start of the next round (shown to `to` only if it `wants` it),
/// carrying causal depth `depth` into the critical-path profiler when it
/// is on.
#[inline]
fn deliver(
    arena: &mut InboxArena,
    crit: Option<&mut CritState>,
    to: usize,
    entry: u32,
    wants: bool,
    depth: u64,
) {
    if let Some(c) = crit {
        c.stage(to, depth);
    }
    arena.stage(to, entry, wants);
}

/// What the staging-only commit lane reads: the round's validated send
/// buffer, walked by sender, the programs it asks whether they want each
/// message, and how to charge the entries.
struct Lane<'a, P: NodeProgram> {
    graph: &'a Graph,
    programs: &'a [P],
    senders: &'a [(u32, u32)],
    msgs: &'a [(NodeId, P::Msg)],
    dest: &'a [Dest],
    widths: bool,
}

/// The staging-only commit lane of [`Network::commit`], taken when no
/// trace sink, fault plan or critical-path profiler is on: stages every
/// delivery of every validated entry and charges each entry to `tally`.
///
/// It is the loop every plain round spends most of its commit in, so it
/// stands out of line, over slices, with the receiver list's length, the
/// in-flight count and the tally in locals: a delivery then reads its
/// receiver's program and writes its record, the receiver list and one
/// index slot, by the same [`Stager::stage`] as [`InboxArena::stage`].
#[inline(never)]
fn commit_plain<P: NodeProgram>(lane: Lane<'_, P>, arena: &mut InboxArena, tally: &mut Tally) {
    let mut stager = arena.stager();
    // Slicing the records to the program count lets the program lookup's
    // bounds check stand for the record's.
    let programs = lane.programs;
    stager.rows = &mut stager.rows[..programs.len()];
    let (mut in_flight, mut charged) = (0, *tally);
    let mut first = 0;
    for &(i, end) in lane.senders {
        let end = end as usize;
        let neighbors = lane.graph.neighbors(NodeId::new(i as usize));
        for k in first..end {
            let msg = &lane.msgs[k].1;
            let (targets, skip) = lane.dest[k].targets(neighbors);
            let mut count = 0;
            for &to in targets {
                if Some(to) != skip {
                    count += 1;
                    let t = to.index();
                    stager.stage(t, k as u32, !programs[t].ignores(msg));
                }
            }
            if count > 0 {
                charged.charge_entry(count, msg.size_bits(), lane.widths);
                in_flight += count;
            }
        }
        first = end;
    }
    arena.staged = stager.staged;
    arena.in_flight += in_flight as usize;
    *tally = charged;
}

/// Charges the time since `clock` was last read to the metrics profiler
/// span `path` and restarts the clock; a no-op without a registry.
#[inline]
fn lap(
    meter: &Option<metrics::SharedRegistry>,
    clock: &mut Option<std::time::Instant>,
    path: &str,
) {
    if let (Some(meter), Some(started)) = (meter, clock.as_mut()) {
        let now = std::time::Instant::now();
        let nanos = u64::try_from((now - *started).as_nanos()).unwrap_or(u64::MAX);
        meter.borrow_mut().record_span(path, nanos);
        *started = now;
    }
}

impl<P: NodeProgram> std::fmt::Debug for Network<'_, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("nodes", &self.programs.len())
            .field("round", &self.round)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::Reference;
    use crate::{bits, Payload};
    use graphs::generators;

    /// Test message with an explicit size.
    #[derive(Clone, Debug)]
    struct Sized(usize);
    impl Payload for Sized {
        fn size_bits(&self) -> usize {
            self.0
        }
    }

    /// Node 0 sends one message of `bits` to node 1 in round 0.
    struct OneShot {
        bits: usize,
        to_bad_target: bool,
        duplicate: bool,
    }
    impl NodeProgram for OneShot {
        type Msg = Sized;
        type Output = ();
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, Sized>) -> Status {
            if ctx.node() == NodeId::new(0) && ctx.round() == 0 {
                let target = if self.to_bad_target {
                    NodeId::new(3)
                } else {
                    NodeId::new(1)
                };
                ctx.send(target, Sized(self.bits));
                if self.duplicate {
                    ctx.send(target, Sized(self.bits));
                }
            }
            Status::Halted
        }
        fn finish(self, _node: NodeId) {}
    }

    fn one_shot_net(
        g: &Graph,
        bits: usize,
        bad: bool,
        dup: bool,
        budget: usize,
    ) -> Network<'_, OneShot> {
        Network::new(g, Config::new(budget), move |_| OneShot {
            bits,
            to_bad_target: bad,
            duplicate: dup,
        })
    }

    /// Everyone floods the minimum id they have seen.
    #[derive(Clone, Debug)]
    struct Id(u32, usize);
    impl Payload for Id {
        fn size_bits(&self) -> usize {
            bits::for_node(self.1)
        }
    }
    struct MinId {
        best: u32,
    }
    impl NodeProgram for MinId {
        type Msg = Id;
        type Output = u32;
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, Id>) -> Status {
            let mut improved = ctx.round() == 0;
            for &(_, Id(v, _)) in ctx.inbox() {
                if v < self.best {
                    self.best = v;
                    improved = true;
                }
            }
            if improved {
                ctx.broadcast(Id(self.best, ctx.num_nodes()));
            }
            Status::Halted
        }
        fn finish(self, _node: NodeId) -> u32 {
            self.best
        }
    }

    #[test]
    fn bandwidth_enforced() {
        let g = generators::path(3);
        let mut net = one_shot_net(&g, 17, false, false, 16);
        let err = net.run_until_quiescent(10).unwrap_err();
        assert!(matches!(
            err,
            CongestError::BandwidthExceeded {
                bits: 17,
                budget: 16,
                ..
            }
        ));
    }

    /// An unbounded budget lets every message through, and the run's
    /// widest message is the width the program needs.
    #[test]
    fn unbounded_budget_measures_the_widest_message() {
        let g = generators::path(3);
        let mut net = one_shot_net(&g, 17, false, false, usize::MAX);
        let stats = net.run_until_quiescent(10).unwrap();
        assert_eq!(stats.max_message_bits, 17);
    }

    #[test]
    fn non_neighbor_send_is_rejected() {
        let g = generators::path(4); // 0-1-2-3; 0 and 3 are not adjacent
        let mut net = one_shot_net(&g, 1, true, false, 16);
        let err = net.run_until_quiescent(10).unwrap_err();
        assert_eq!(
            err,
            CongestError::NotANeighbor {
                from: NodeId::new(0),
                to: NodeId::new(3)
            }
        );
    }

    /// Validation must report the first offending message in staging
    /// order, with the neighbour check before the bandwidth check, whether
    /// the sends ascend or not.
    #[test]
    fn outbox_validation_reports_the_first_offending_message() {
        struct Scripted(Vec<(usize, usize)>);
        impl NodeProgram for Scripted {
            type Msg = Sized;
            type Output = ();
            fn on_round(&mut self, ctx: &mut RoundCtx<'_, Sized>) -> Status {
                if ctx.node() == NodeId::new(0) {
                    for &(to, bits) in &self.0 {
                        ctx.send(NodeId::new(to), Sized(bits));
                    }
                }
                Status::Halted
            }
            fn finish(self, _node: NodeId) {}
        }
        // Node 0 sends; its neighbours are 1, 2 and 4.
        let g = Graph::from_edges(6, [(0, 1), (0, 2), (0, 4), (3, 5)]).unwrap();
        let v = NodeId::new;
        let not_neighbor = |to| {
            Err(CongestError::NotANeighbor {
                from: v(0),
                to: v(to),
            })
        };
        let too_wide = |to| {
            Err(CongestError::BandwidthExceeded {
                from: v(0),
                to: v(to),
                round: 0,
                bits: 17,
                budget: 16,
            })
        };
        let cases = [
            (vec![(1, 8), (2, 8), (4, 8)], Ok(())),
            (vec![(1, 8), (3, 8), (4, 8)], not_neighbor(3)),
            (vec![(1, 8), (4, 8), (5, 8)], not_neighbor(5)),
            (vec![(0, 8), (1, 8)], not_neighbor(0)),
            (vec![(1, 8), (7, 8)], not_neighbor(7)),
            (vec![(1, 8), (2, 17), (3, 8)], too_wide(2)),
            (vec![(1, 8), (3, 17)], not_neighbor(3)),
            (vec![(4, 8), (1, 8), (2, 17)], too_wide(2)),
            (vec![(4, 8), (3, 8), (2, 17)], not_neighbor(3)),
            (
                vec![(1, 8), (2, 8), (1, 8)],
                Err(CongestError::DuplicateSend {
                    from: v(0),
                    to: v(1),
                    round: 0,
                }),
            ),
        ];
        for (sends, expect) in cases {
            let mut net = Network::new(&g, Config::new(16), |_| Scripted(sends.clone()));
            assert_eq!(net.step(), expect, "sends {sends:?}");
        }
    }

    #[test]
    fn duplicate_directed_send_is_rejected() {
        let g = generators::path(3);
        let mut net = one_shot_net(&g, 1, false, true, 16);
        let err = net.run_until_quiescent(10).unwrap_err();
        assert!(matches!(err, CongestError::DuplicateSend { .. }));
    }

    /// Regression (round accounting bugfix): a failed `step()` must leave
    /// `stats()` and `round()` exactly as they were — the seed scheduler
    /// committed the effects of every outbox it had processed before the
    /// offending message.
    #[test]
    fn failed_step_leaves_accounting_unchanged() {
        /// Node 0 sends a valid message; node 2 then misbehaves.
        struct GoodThenBad {
            bad_bits: usize,
            duplicate: bool,
        }
        impl NodeProgram for GoodThenBad {
            type Msg = Sized;
            type Output = ();
            fn on_round(&mut self, ctx: &mut RoundCtx<'_, Sized>) -> Status {
                if ctx.round() == 0 {
                    if ctx.node() == NodeId::new(0) {
                        ctx.send(NodeId::new(1), Sized(8));
                    }
                    if ctx.node() == NodeId::new(2) {
                        ctx.send(NodeId::new(1), Sized(self.bad_bits));
                        if self.duplicate {
                            ctx.send(NodeId::new(1), Sized(self.bad_bits));
                        }
                    }
                }
                Status::Halted
            }
            fn finish(self, _node: NodeId) {}
        }
        let g = generators::path(3);
        for (bad_bits, duplicate) in [(17, false), (8, true)] {
            let mut net = Network::new(&g, Config::new(16), move |_| GoodThenBad {
                bad_bits,
                duplicate,
            });
            let before = *net.stats();
            let err = net.step().unwrap_err();
            if duplicate {
                assert!(matches!(err, CongestError::DuplicateSend { .. }));
            } else {
                assert!(matches!(err, CongestError::BandwidthExceeded { .. }));
            }
            assert_eq!(*net.stats(), before, "failed step mutated stats");
            assert_eq!(net.round(), 0, "failed step advanced the round");
        }
    }

    /// A failed round never closes, but the crash-stops applied at its top
    /// stand: the registry counts them, as `FaultStats` and the trace do.
    #[test]
    fn failed_step_still_charges_its_crash_stops() {
        let g = generators::path(3);
        let cfg = Config::new(16).with_faults(FaultPlan::new(0).with_crash(2, 0));
        let registry = metrics::Registry::shared();
        let (faults, events) = traced(|| {
            let _guard = metrics::install(registry.clone());
            let mut net = Network::new(&g, cfg, |_| OneShot {
                bits: 8,
                to_bad_target: false,
                duplicate: true,
            });
            assert!(matches!(
                net.step(),
                Err(CongestError::DuplicateSend { .. })
            ));
            net.fault_stats()
        });
        assert_eq!(faults.crashes, 1);
        assert_eq!(events.len(), 1, "one crash-stop event: {events:?}");
        let registry = registry.borrow();
        assert_eq!(registry.counter(metrics::names::FAULTS), 1);
        assert_eq!(registry.counter(metrics::names::ROUNDS), 0);
    }

    /// With a registry installed, every stepped round charges each of the
    /// five `step` phases to its own profiler span, and the export carries
    /// all five.
    #[test]
    fn metered_runs_export_every_step_phase_span() {
        let g = generators::grid(6, 7);
        let registry = metrics::Registry::shared();
        let stats = {
            let _guard = metrics::install(registry.clone());
            let mut net = Network::new(&g, Config::for_graph(&g), |v| MinId { best: u32::from(v) });
            net.run_until_quiescent(1000).unwrap()
        };
        let registry = registry.borrow();
        let text = metrics::export::to_prometheus(&registry);
        for phase in ["assemble", "seal", "execute", "validate", "commit"] {
            let path = format!("congest/{phase}");
            let span = registry.spans().get(&path).copied().unwrap_or_default();
            assert_eq!(span.calls, stats.rounds, "{path} calls");
            assert!(
                text.contains(&format!("qd_span_seconds_total{{span=\"{path}\"}}")),
                "{path} missing from the export"
            );
        }
    }

    #[test]
    fn quiescence_counts_in_flight_messages() {
        let g = generators::path(3);
        let mut net = one_shot_net(&g, 8, false, false, 16);
        // Round 0: all vote Halted but node 0's message is in flight, so the
        // network must run one more round to deliver it.
        let stats = net.run_until_quiescent(10).unwrap();
        assert_eq!(stats.rounds, 2);
        assert_eq!(stats.messages, 1);
        assert_eq!(stats.total_bits, 8);
    }

    #[test]
    fn round_limit_is_reported() {
        struct Chatter;
        impl NodeProgram for Chatter {
            type Msg = Sized;
            type Output = ();
            fn on_round(&mut self, ctx: &mut RoundCtx<'_, Sized>) -> Status {
                ctx.broadcast(Sized(1));
                Status::Active
            }
            fn finish(self, _node: NodeId) {}
        }
        let g = generators::cycle(4);
        let mut net = Network::new(&g, Config::new(8), |_| Chatter);
        let err = net.run_until_quiescent(5).unwrap_err();
        assert_eq!(err, CongestError::RoundLimitExceeded { limit: 5 });
        assert_eq!(net.round(), 5);
    }

    #[test]
    fn run_rounds_is_exact() {
        struct Idle;
        impl NodeProgram for Idle {
            type Msg = ();
            type Output = u64;
            fn on_round(&mut self, _ctx: &mut RoundCtx<'_, ()>) -> Status {
                Status::Halted
            }
            fn finish(self, node: NodeId) -> u64 {
                node.index() as u64
            }
        }
        let g = generators::complete(3);
        let mut net = Network::new(&g, Config::for_graph(&g), |_| Idle);
        let stats = net.run_rounds(7).unwrap();
        assert_eq!(stats.rounds, 7);
        assert_eq!(net.into_outputs(), vec![0, 1, 2]);
    }

    /// The tally's width slot is the bucket `Histogram::observe` picks on
    /// the registry's default bounds, for every width across every
    /// boundary (4/5, 8/9, …, 512/513) and past the last into `+Inf`.
    #[test]
    fn width_slot_matches_the_histogram_buckets() {
        for bits in 0..=1100usize {
            let mut h = metrics::Histogram::new(&DEFAULT_BITS_BUCKETS);
            h.observe(bits as u64);
            let slot = h.bucket_counts().iter().position(|&c| c == 1);
            assert_eq!(Some(width_slot(bits)), slot, "{bits} bits");
        }
    }

    /// With a sink installed, the scheduler emits one `Message` event per
    /// sent message and one `Round` tick per executed round carrying the
    /// number of messages *delivered* at the start of that round (i.e.
    /// staged during the previous round).
    #[test]
    fn tracing_captures_messages_and_rounds() {
        let g = generators::path(3);
        let recorder = trace::Recorder::shared();
        let events = {
            let _guard = trace::install(recorder.clone());
            let mut net = one_shot_net(&g, 8, false, false, 16);
            net.run_until_quiescent(10).unwrap();
            recorder.borrow_mut().take()
        };
        assert_eq!(
            events,
            vec![
                trace::TraceEvent::Message {
                    round: 0,
                    from: 0,
                    to: 1,
                    bits: 8
                },
                // Round 0 delivers nothing: node 0's message is only staged
                // during it. Round 1 delivers it.
                trace::TraceEvent::Round {
                    round: 0,
                    delivered: 0
                },
                trace::TraceEvent::Round {
                    round: 1,
                    delivered: 1
                },
            ]
        );
        // With the guard dropped, the same run emits nothing.
        let mut net = one_shot_net(&g, 8, false, false, 16);
        net.run_until_quiescent(10).unwrap();
        assert!(recorder.borrow().events().is_empty());
    }

    /// Regression (round accounting bugfix): `Round { delivered }` counts
    /// messages drained from inboxes at the start of the round, so the sum
    /// of `delivered` over a quiescent run equals the messages sent — the
    /// seed scheduler attributed staged traffic to the staging round
    /// instead.
    #[test]
    fn round_ticks_count_actual_deliveries() {
        let g = generators::path(4);
        let recorder = trace::Recorder::shared();
        let stats = {
            let _guard = trace::install(recorder.clone());
            let mut net = Network::new(&g, Config::for_graph(&g), |v| MinId { best: u32::from(v) });
            net.run_until_quiescent(100).unwrap()
        };
        let events = recorder.borrow_mut().take();
        let mut delivered_by_round = Vec::new();
        let mut sent_by_round = Vec::new();
        for event in &events {
            match *event {
                trace::TraceEvent::Round { round, delivered } => {
                    assert_eq!(round, delivered_by_round.len() as u64);
                    delivered_by_round.push(delivered);
                }
                trace::TraceEvent::Message { round, .. } => {
                    sent_by_round.resize(round as usize + 1, 0u64);
                    sent_by_round[round as usize] += 1;
                }
                _ => {}
            }
        }
        // Nothing can be delivered in round 0, and every round's deliveries
        // are exactly the previous round's sends.
        assert_eq!(delivered_by_round[0], 0);
        for (r, &delivered) in delivered_by_round.iter().enumerate().skip(1) {
            assert_eq!(
                delivered,
                sent_by_round.get(r - 1).copied().unwrap_or(0),
                "round {r}"
            );
        }
        assert_eq!(delivered_by_round.iter().sum::<u64>(), stats.messages);
    }

    /// Deterministic replay: two identical runs produce identical stats.
    #[test]
    fn runs_are_deterministic() {
        let g = generators::random_connected(24, 0.15, 3);
        let run = || {
            let mut net = Network::new(&g, Config::for_graph(&g), |v| MinId { best: u32::from(v) });
            let stats = net.run_until_quiescent(1000).unwrap();
            (stats, net.into_outputs())
        };
        let (s1, o1) = run();
        let (s2, o2) = run();
        assert_eq!(s1, s2);
        assert_eq!(o1, o2);
        assert!(o1.iter().all(|&b| b == 0), "min-id flood converged to 0");
    }

    /// A passive plan is indistinguishable from no plan: the configs
    /// compare equal, so every downstream run is trivially byte-identical.
    #[test]
    fn passive_fault_plan_is_identity() {
        let cfg = Config::new(16);
        assert_eq!(cfg.with_faults(FaultPlan::new(99)), cfg);
        assert!(!cfg.with_faults(FaultPlan::new(99)).has_faults());
        assert!(cfg
            .with_faults(FaultPlan::new(0).with_drop(0.5))
            .has_faults());
    }

    fn min_id_fault_run(
        g: &Graph,
        cfg: Config,
    ) -> (RunStats, FaultStats, Vec<u32>, Vec<trace::TraceEvent>) {
        let recorder = trace::Recorder::shared();
        let (stats, faults, outputs) = {
            let _guard = trace::install(recorder.clone());
            let mut net = Network::new(g, cfg, |v| MinId { best: u32::from(v) });
            let stats = net.run_until_quiescent(10_000).unwrap();
            let faults = net.fault_stats();
            (stats, faults, net.into_outputs())
        };
        let events = recorder.borrow_mut().take();
        (stats, faults, outputs, events)
    }

    /// The determinism contract under faults: a lossy run replays
    /// byte-identically (stats, fault stats, outputs, trace stream).
    #[test]
    fn faulty_runs_replay_byte_identically() {
        let g = generators::random_connected(25, 0.15, 7);
        let plan = FaultPlan::new(11)
            .with_drop(0.1)
            .with_crash(5, 4)
            .with_link_failure(0, 1, 2..6);
        let cfg = Config::for_graph(&g).with_faults(plan);
        let baseline = min_id_fault_run(&g, cfg);
        assert!(baseline.1.lost() > 0, "plan injected nothing");
        assert_eq!(min_id_fault_run(&g, cfg), baseline, "faulty run diverged");
    }

    /// A crash-stopped node goes silent: it stops flooding, its output
    /// freezes at the crash-time state, and traffic addressed to it is
    /// discarded (and counted).
    #[test]
    fn crash_stop_silences_a_node() {
        let g = generators::path(3);
        let cfg = Config::for_graph(&g).with_faults(FaultPlan::new(0).with_crash(2, 0));
        let (stats, faults, outputs, events) = min_id_fault_run(&g, cfg);
        assert_eq!(outputs, vec![0, 0, 2], "node 2 crashed before learning 0");
        assert_eq!(faults.crashes, 1);
        assert!(faults.crash_dropped > 0, "messages to node 2 not discarded");
        assert!(stats.messages > 0);
        assert!(events.contains(&trace::TraceEvent::Fault {
            round: 0,
            kind: trace::FaultKind::Crash,
            from: 2,
            to: 2,
        }));
    }

    /// A scheduled link failure loses exactly the messages crossing the
    /// edge during its interval, in both directions.
    #[test]
    fn link_failure_blocks_scheduled_rounds() {
        let g = generators::path(3);
        let cfg =
            Config::for_graph(&g).with_faults(FaultPlan::new(0).with_link_failure(0, 1, 0..100));
        let (_, faults, outputs, _) = min_id_fault_run(&g, cfg);
        // The 0-1 link is down for the whole run, so id 0 never escapes
        // node 0; nodes 1 and 2 converge on 1.
        assert_eq!(outputs, vec![0, 1, 1]);
        assert_eq!(faults.link_dropped, 2, "round-0 messages 0→1 and 1→0");
    }

    /// Runs `f` with a fresh trace recorder installed and returns its
    /// result with the events it emitted.
    fn traced<T>(f: impl FnOnce() -> T) -> (T, Vec<trace::TraceEvent>) {
        let recorder = trace::Recorder::shared();
        let out = {
            let _guard = trace::install(recorder.clone());
            f()
        };
        let events = recorder.borrow_mut().take();
        (out, events)
    }

    /// Sleeps until `wake`; at the wake round node 0 broadcasts once.
    /// Counts its own executions so tests can observe scheduling
    /// sparseness (the count is *not* part of any byte-identity check —
    /// skipping executions is the whole point of the active set).
    struct Alarm {
        wake: Round,
        runs: u64,
    }
    impl NodeProgram for Alarm {
        type Msg = Sized;
        type Output = u64;
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, Sized>) -> Status {
            self.runs += 1;
            if ctx.round() < self.wake {
                return Status::Sleep(self.wake);
            }
            if ctx.round() == self.wake && ctx.node() == NodeId::new(0) {
                ctx.broadcast(Sized(4));
            }
            Status::Halted
        }
        fn finish(self, _node: NodeId) -> u64 {
            self.runs
        }
    }

    /// A timed wakeup fires exactly at its round, fast-forwarded stretches
    /// emit the same round ticks a stepped run would, and stats/traces
    /// match the reference simulator, which steps every node every round.
    #[test]
    fn sleep_and_fast_forward_match_the_reference() {
        let g = generators::path(3);
        let alarm = |_| Alarm { wake: 9, runs: 0 };
        let ((stats, scheduled), events) = traced(|| {
            let mut net = Network::new(&g, Config::new(16), alarm);
            (net.run_rounds(15).unwrap(), net.scheduled_nodes())
        });
        let ((expect, breach), expect_events) = traced(|| {
            let mut reference = Reference::new(&g, Config::new(16), alarm);
            (reference.run_rounds(15).unwrap(), reference.breach())
        });
        assert_eq!(breach, None);
        assert_eq!(stats, expect, "stats diverged");
        // The network compresses each fast-forwarded stretch into one
        // `RoundSkip`; expanded, the streams are identical tick for tick.
        assert!(
            events
                .iter()
                .any(|e| matches!(e, trace::TraceEvent::RoundSkip { .. })),
            "fast-forward emitted no compact skip event"
        );
        assert_eq!(
            trace::expand_round_skips(events),
            expect_events,
            "trace streams diverged"
        );
        // 3 nodes in round 0, 3 wakeups in round 9, 1 receiver in round
        // 10 — everything else is skipped.
        assert_eq!(scheduled, 7, "active set scheduled more than expected");
        assert!(expect_events.contains(&trace::TraceEvent::Round {
            round: 10,
            delivered: 1
        }));
    }

    /// A message arriving before the wake round re-runs the sleeper, and
    /// its fresh vote supersedes the pending wakeup: a cancelled sleeper
    /// does not keep the network awake until its stale wake round.
    #[test]
    fn sleep_is_superseded_by_message_arrival() {
        struct Canceler;
        impl NodeProgram for Canceler {
            type Msg = Sized;
            type Output = ();
            fn on_round(&mut self, ctx: &mut RoundCtx<'_, Sized>) -> Status {
                if ctx.node() == NodeId::new(0) {
                    if ctx.round() == 0 {
                        ctx.send(NodeId::new(1), Sized(1));
                    }
                    Status::Halted
                } else if !ctx.inbox().is_empty() {
                    Status::Halted
                } else {
                    Status::Sleep(50)
                }
            }
            fn finish(self, _node: NodeId) {}
        }
        let g = generators::path(2);
        let mut net = Network::new(&g, Config::new(16), |_| Canceler);
        let stats = net.run_until_quiescent(100).unwrap();
        assert_eq!(stats.rounds, 2, "stale wakeup kept the network awake");
        let mut reference = Reference::new(&g, Config::new(16), |_| Canceler);
        assert_eq!(reference.run_until_quiescent(100), Ok(stats));
    }

    /// A pending `Sleep` blocks quiescence: the run-loop cap is hit (and
    /// reported) exactly as in the stepping reference, even though the
    /// network covers the distance by fast-forwarding.
    #[test]
    fn sleeping_node_blocks_quiescence_until_the_cap() {
        let g = generators::path(2);
        let alarm = |_| Alarm {
            wake: 1000,
            runs: 0,
        };
        let limit = Err(CongestError::RoundLimitExceeded { limit: 10 });
        let mut net = Network::new(&g, Config::new(16), alarm);
        assert_eq!(net.run_until_quiescent(10), limit);
        assert_eq!(net.round(), 10);
        let mut reference = Reference::new(&g, Config::new(16), alarm);
        assert_eq!(reference.run_until_quiescent(10), limit);
        assert_eq!(reference.round(), 10);
    }

    /// Fast-forward must not jump over a scheduled crash-stop: the `Fault`
    /// trace event lands in its exact round, as in the stepping reference.
    #[test]
    fn fast_forward_stops_for_scheduled_crashes() {
        struct Idle;
        impl NodeProgram for Idle {
            type Msg = Sized;
            type Output = ();
            fn on_round(&mut self, _ctx: &mut RoundCtx<'_, Sized>) -> Status {
                Status::Halted
            }
            fn finish(self, _node: NodeId) {}
        }
        let g = generators::path(3);
        let cfg = Config::new(16).with_faults(FaultPlan::new(3).with_crash(2, 7));
        let (got, events) = traced(|| {
            let mut net = Network::new(&g, cfg, |_| Idle);
            (net.run_rounds(12).unwrap(), net.fault_stats())
        });
        let (expect, expect_events) = traced(|| {
            let mut reference = Reference::new(&g, cfg, |_| Idle);
            (reference.run_rounds(12).unwrap(), reference.fault_stats())
        });
        assert_eq!(got, expect, "crash interplay diverged: stats");
        assert_eq!(
            trace::expand_round_skips(events.clone()),
            expect_events,
            "crash interplay diverged: traces"
        );
        assert!(events.contains(&trace::TraceEvent::Fault {
            round: 7,
            kind: trace::FaultKind::Crash,
            from: 2,
            to: 2,
        }));
    }

    /// The network against the reference simulator on a real
    /// message-driven workload, with and without a lossy plan.
    #[test]
    fn min_id_flood_matches_the_reference() {
        let g = generators::random_connected(25, 0.15, 7);
        let plan = FaultPlan::new(11).with_drop(0.1).with_crash(5, 4);
        for cfg in [
            Config::for_graph(&g),
            Config::for_graph(&g).with_faults(plan),
        ] {
            let (stats, faults, outputs, events) = min_id_fault_run(&g, cfg);
            let (expect, expect_events) = traced(|| {
                let mut reference = Reference::new(&g, cfg, |v| MinId { best: u32::from(v) });
                let stats = reference.run_until_quiescent(10_000).unwrap();
                assert_eq!(reference.breach(), None);
                (stats, reference.fault_stats(), reference.into_outputs())
            });
            assert_eq!((stats, faults, outputs), expect, "{cfg:?}");
            assert_eq!(trace::expand_round_skips(events), expect_events);
        }
    }

    /// A message node 1 wants or not, tagged so tests can tell them apart.
    #[derive(Clone, Debug)]
    struct Note {
        tag: u32,
        wanted: bool,
    }
    impl Payload for Note {
        fn size_bits(&self) -> usize {
            8
        }
    }

    /// On `path(3)`, the end nodes send node 1 scripted notes; node 1
    /// ignores the unwanted ones. Every node logs the rounds it runs and
    /// the inboxes it reads, which (unlike a program the reference may
    /// check) changes its state on an ignored-only inbox: only for tests
    /// of the network's own scheduling.
    struct Picky {
        /// `(round, note)` sends to node 1, ascending by round.
        script: Vec<(Round, Note)>,
        /// When set, `ignores` wants every note.
        eager: bool,
        /// The node votes `Active` in every round before this one.
        active_until: Round,
        runs: Vec<Round>,
        heard: Vec<(Round, Vec<(usize, u32)>)>,
    }
    impl Picky {
        fn new(script: Vec<(Round, Note)>) -> Self {
            Picky {
                script,
                eager: false,
                active_until: 0,
                runs: Vec::new(),
                heard: Vec::new(),
            }
        }
    }
    impl NodeProgram for Picky {
        type Msg = Note;
        type Output = (Vec<Round>, Vec<(Round, Vec<(usize, u32)>)>);
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, Note>) -> Status {
            let round = ctx.round();
            self.runs.push(round);
            if !ctx.inbox().is_empty() {
                let inbox = ctx.inbox().iter();
                let heard = inbox.map(|(from, m)| (from.index(), m.tag)).collect();
                self.heard.push((round, heard));
            }
            for (_, note) in self.script.iter().filter(|&&(r, _)| r == round) {
                ctx.send(NodeId::new(1), note.clone());
            }
            match self.script.iter().find(|&&(r, _)| r > round) {
                _ if round + 1 < self.active_until => Status::Active,
                Some(&(next, _)) => Status::Sleep(next),
                None => Status::Halted,
            }
        }
        fn ignores(&self, msg: &Note) -> bool {
            !self.eager && !msg.wanted
        }
        fn finish(self, _node: NodeId) -> Self::Output {
            (self.runs, self.heard)
        }
    }

    /// An ignored delivery is charged (`RunStats`, registry, flight
    /// recorder), traced and counted as delivered like any other, but
    /// does not wake its receiver, and a receiver woken by a wanted note
    /// in the same round does not see it.
    #[test]
    fn only_a_wanted_message_wakes_its_receiver() {
        let note = |tag, wanted| Note { tag, wanted };
        let script = |v: NodeId| match v.index() {
            0 => vec![(0, note(10, false)), (2, note(20, false))],
            2 => vec![
                (0, note(12, false)),
                (2, note(22, true)),
                (5, note(52, false)),
            ],
            _ => Vec::new(),
        };
        let g = generators::path(3);
        let (registry, flight) = (
            metrics::Registry::shared(),
            trace::flight::FlightRecorder::shared(),
        );
        let ((stats, outputs), events) = traced(|| {
            let _meter = metrics::install(registry.clone());
            let _flight = trace::flight::install(flight.clone());
            let mut net = Network::new(&g, Config::new(16), |v| Picky::new(script(v)));
            (net.run_until_quiescent(20).unwrap(), net.into_outputs())
        });
        let (runs, heard) = &outputs[1];
        // Round 0 runs everybody; the unwanted notes of rounds 0 and 5 wake
        // nobody, the wanted one of round 2 wakes node 1 in round 3, and
        // node 1 reads it alone.
        assert_eq!(runs, &[0, 3]);
        assert_eq!(heard, &[(3, vec![(2, 22)])]);
        assert_eq!((stats.rounds, stats.messages, stats.total_bits), (7, 5, 40));
        let sends: Vec<_> = events
            .iter()
            .filter_map(|e| match *e {
                trace::TraceEvent::Message {
                    round, from, to, ..
                } => Some((round, from, to)),
                _ => None,
            })
            .collect();
        assert_eq!(
            sends,
            [(0, 0, 1), (0, 2, 1), (2, 0, 1), (2, 2, 1), (5, 2, 1)]
        );
        let delivered: u64 = events
            .iter()
            .map(|e| match *e {
                trace::TraceEvent::Round { delivered, .. } => delivered,
                _ => 0,
            })
            .sum();
        assert_eq!(delivered, 5, "ignored deliveries still count as delivered");
        let registry = registry.borrow();
        assert_eq!(registry.counter(metrics::names::MESSAGES), 5);
        assert_eq!(registry.counter(metrics::names::PAYLOAD_BITS), 40);
        let totals = flight.borrow().totals();
        assert_eq!((totals.messages, totals.bits, totals.delivered), (5, 40, 5));
    }

    /// A node that runs anyway, because it voted `Active`, is still shown
    /// only the messages it wants.
    #[test]
    fn a_running_node_never_sees_what_it_ignores() {
        let note = |tag, wanted| Note { tag, wanted };
        let g = generators::path(2);
        let mut net = Network::new(&g, Config::new(16), |v| match v.index() {
            0 => Picky::new(vec![
                (0, note(10, false)),
                (1, note(11, true)),
                (2, note(12, false)),
            ]),
            _ => Picky {
                active_until: 5,
                ..Picky::new(Vec::new())
            },
        });
        let stats = net.run_until_quiescent(20).unwrap();
        assert_eq!(stats.messages, 3);
        let (runs, heard) = &net.into_outputs()[1];
        assert_eq!(runs, &[0, 1, 2, 3, 4]);
        assert_eq!(heard, &[(2, vec![(0, 11)])]);
    }

    /// An ignored delivery and then a wanted one to the same receiver in
    /// the same round: the ignored one goes to the scratch slot, the wanted
    /// one to the first slot of the row, and only it is shown.
    #[test]
    fn an_ignored_then_a_wanted_delivery_to_one_receiver() {
        let note = |tag, wanted| Note { tag, wanted };
        let g = generators::path(3);
        let mut net = Network::new(&g, Config::new(16), |v| {
            Picky::new(match v.index() {
                0 => vec![(0, note(10, false))],
                2 => vec![(0, note(12, true))],
                _ => Vec::new(),
            })
        });
        net.step().unwrap();
        // Node 0 staged entry 0, node 2 entry 1; the commit walks senders
        // in id order, so the ignored delivery comes first.
        let row = net.arena.rows[1];
        assert_eq!(row.len, 1);
        assert_eq!(net.arena.idx[row.start as usize], 1);
        assert_eq!(net.arena.idx.last(), Some(&0), "the scratch slot");
        assert_eq!(net.arena.in_flight, 2);
        assert_eq!(net.arena.receivers(), &[1]);
        net.run_until_quiescent(20).unwrap();
        let (runs, heard) = &net.into_outputs()[1];
        assert_eq!(runs, &[0, 1]);
        assert_eq!(heard, &[(1, vec![(2, 12)])]);
    }

    /// A receiver that ignores every delivery of a round: its row and count
    /// are untouched and it is not queued, yet the deliveries are in flight,
    /// so the network is not quiescent until the round that hands them
    /// out has run.
    #[test]
    fn a_receiver_ignoring_every_delivery_keeps_its_row() {
        let note = |tag| Note { tag, wanted: false };
        let g = generators::path(3);
        let mut net = Network::new(&g, Config::new(16), |v| {
            Picky::new(match v.index() {
                0 => vec![(0, note(10))],
                2 => vec![(0, note(12))],
                _ => Vec::new(),
            })
        });
        let start = net.arena.rows[1].start as usize;
        net.arena.idx[start..start + 2].fill(u32::MAX);
        net.step().unwrap();
        assert_eq!(net.arena.rows[1].len, 0);
        assert_eq!(net.arena.idx[start..start + 2], [u32::MAX; 2]);
        assert_eq!(net.arena.in_flight, 2);
        assert!(net.arena.receivers().is_empty());
        assert_eq!(net.halted, 3, "every node voted Halted");
        assert!(!net.is_quiescent());
        let stats = net.run_until_quiescent(20).unwrap();
        assert_eq!((stats.rounds, stats.messages), (2, 2));
        assert_eq!(net.into_outputs()[1], (vec![0], Vec::new()));
    }

    /// Floods the largest value heard. A value no larger than the node's
    /// best is ignored, and such a value changes nothing, whatever else
    /// the inbox holds, so the program keeps the `ignores` contract.
    /// `heard` logs the values of every inbox the node acts on that it
    /// does not ignore.
    struct MaxFlood {
        best: u32,
        heard: Vec<(Round, Vec<(usize, u32)>)>,
        /// When false, `ignores` wakes the node for everything.
        picky: bool,
    }
    impl NodeProgram for MaxFlood {
        type Msg = Id;
        type Output = (u32, Vec<(Round, Vec<(usize, u32)>)>);
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, Id>) -> Status {
            let fresh = ctx.inbox().iter().any(|&(_, Id(v, _))| v > self.best);
            if fresh {
                let inbox = ctx.inbox().iter().filter(|&(_, Id(v, _))| *v > self.best);
                let heard = inbox.map(|&(from, Id(v, _))| (from.index(), v)).collect();
                self.heard.push((ctx.round(), heard));
                self.best = ctx.inbox().iter().map(|m| m.1 .0).fold(self.best, u32::max);
            }
            if fresh || ctx.round() == 0 {
                ctx.broadcast(Id(self.best, ctx.num_nodes()));
            }
            Status::Halted
        }
        fn ignores(&self, msg: &Id) -> bool {
            self.picky && msg.0 <= self.best
        }
        fn finish(self, _node: NodeId) -> Self::Output {
            (self.best, self.heard)
        }
    }

    fn max_flood(picky: bool) -> impl Fn(NodeId) -> MaxFlood {
        move |v| MaxFlood {
            best: (u32::from(v) * 7) % 25,
            heard: Vec::new(),
            picky,
        }
    }

    /// Ignoring changes which nodes run and nothing else: against the same
    /// program woken for every delivery, and against the reference, the
    /// outputs, `RunStats` (rounds to quiescence included), `FaultStats`,
    /// trace, registry counters and flight records agree, fault-free and
    /// under a drop/crash plan, while fewer node programs run.
    #[test]
    fn ignoring_changes_only_which_nodes_run() {
        let g = generators::random_connected(25, 0.15, 7);
        let plan = FaultPlan::new(11).with_drop(0.1).with_crash(5, 4);
        for cfg in [
            Config::for_graph(&g),
            Config::for_graph(&g).with_faults(plan),
        ] {
            let run = |picky: bool| {
                let registry = metrics::Registry::shared();
                let flight = trace::flight::FlightRecorder::shared();
                let ((stats, scheduled, faults, outputs), events) = traced(|| {
                    let _meter = metrics::install(registry.clone());
                    let _flight = trace::flight::install(flight.clone());
                    let mut net = Network::new(&g, cfg, max_flood(picky));
                    let stats = net.run_until_quiescent(10_000).unwrap();
                    let (scheduled, faults) = (net.scheduled_nodes(), net.fault_stats());
                    (
                        stats,
                        scheduled,
                        faults,
                        format!("{:?}", net.into_outputs()),
                    )
                });
                let registry = registry.borrow();
                let counters = [
                    metrics::names::MESSAGES,
                    metrics::names::PAYLOAD_BITS,
                    metrics::names::ROUNDS,
                    metrics::names::FAULTS,
                ]
                .map(|name| registry.counter(name));
                let records: Vec<_> = flight.borrow().records().copied().collect();
                let observed = (stats, faults, outputs, events, counters, records);
                (observed, scheduled)
            };
            let (picky, picky_scheduled) = run(true);
            let (eager, eager_scheduled) = run(false);
            assert_eq!(picky, eager, "{cfg:?}");
            assert!(
                picky_scheduled < eager_scheduled,
                "{picky_scheduled} runs against {eager_scheduled}, {cfg:?}"
            );
            let (expect, expect_events) = traced(|| {
                let mut reference = Reference::new(&g, cfg, max_flood(true));
                let stats = reference.run_until_quiescent(10_000).unwrap();
                assert_eq!(reference.breach(), None);
                let outputs = format!("{:?}", reference.into_outputs());
                (stats, outputs)
            });
            let (stats, _, outputs, events, ..) = picky;
            assert_eq!((stats, outputs), expect, "{cfg:?}");
            assert_eq!(trace::expand_round_skips(events), expect_events);
        }
    }

    /// Dropped messages still charge the sender's bandwidth: `RunStats`
    /// counts sends, the fault layer separately counts losses.
    #[test]
    fn dropped_messages_are_accounted_as_sent() {
        let g = generators::path(3);
        let cfg = Config::for_graph(&g).with_faults(FaultPlan::new(1).with_drop(1.0));
        let (stats, faults, outputs, _) = min_id_fault_run(&g, cfg);
        // Round 0's broadcasts all drop; nobody ever improves again.
        assert_eq!(outputs, vec![0, 1, 2]);
        assert_eq!(stats.messages, 4, "path(3) round-0 broadcasts");
        assert_eq!(faults.dropped, 4);
    }
}
