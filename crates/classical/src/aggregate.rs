//! Broadcast and convergecast along a rooted spanning tree.
//!
//! Convergecast implements the paper's Figure 2 Step 3 pattern: values flow
//! bottom-up, each node forwarding only the aggregate of what it has seen,
//! so a single `O(log n)`-bit message per tree edge suffices. Broadcast is
//! the top-down dual. Both finish in `depth + 1` rounds.

use congest::{bits, Config, Network, NodeProgram, Payload, RoundCtx, RunStats, Status};
use graphs::{Graph, NodeId};

use crate::error::AlgoError;
use crate::tree_view::TreeView;

/// The aggregation performed by a convergecast.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Maximum, carrying the id of a node achieving it.
    Max,
    /// Minimum, carrying the id of a node achieving it.
    Min,
    /// Sum (saturating).
    Sum,
}

#[derive(Clone, Debug)]
struct AggMsg {
    value: u64,
    witness: u32,
    /// Wire widths of the value and of the witness id.
    value_bits: u8,
    node_bits: u8,
}

impl Payload for AggMsg {
    fn size_bits(&self) -> usize {
        usize::from(self.value_bits) + usize::from(self.node_bits)
    }
}

struct AggProgram<'t> {
    parent: Option<NodeId>,
    /// The node's children, borrowed from the tree the aggregate climbs.
    children: &'t [NodeId],
    pending: usize,
    op: Op,
    acc: u64,
    witness: u32,
    value_bits: u8,
    node_bits: u8,
    sent: bool,
    /// Bit `k` is set once the report of `children[k]` has been counted:
    /// retransmission may deliver duplicates, which must not decrement
    /// `pending` twice or double-count an [`Op::Sum`] contribution. Without
    /// retransmission each child reports at most once, so this stays empty
    /// and unallocated.
    counted: Vec<u64>,
    /// Extra rounds to repeat the parent report
    /// (`RecoveryPolicy::retransmit`; 0 keeps the single-shot protocol
    /// byte-identical).
    resend: u32,
    resends_left: u32,
    resent: u64,
}

impl AggProgram<'_> {
    fn report(&self) -> AggMsg {
        AggMsg {
            value: self.acc,
            witness: self.witness,
            value_bits: self.value_bits,
            node_bits: self.node_bits,
        }
    }

    /// Whether the report from `from` is the first this node counts from
    /// that child. Only a retransmitting run can repeat one.
    fn first_report(&mut self, from: NodeId) -> bool {
        if self.resend == 0 {
            return true;
        }
        let Some(k) = self.children.iter().position(|&c| c == from) else {
            return false;
        };
        if self.counted.is_empty() {
            self.counted = vec![0; self.children.len().div_ceil(64)];
        }
        let (word, bit) = (k / 64, 1u64 << (k % 64));
        let first = self.counted[word] & bit == 0;
        self.counted[word] |= bit;
        first
    }

    fn combine(&mut self, value: u64, witness: u32) {
        match self.op {
            Op::Max => {
                if value > self.acc || (value == self.acc && witness < self.witness) {
                    self.acc = value;
                    self.witness = witness;
                }
            }
            Op::Min => {
                if value < self.acc || (value == self.acc && witness < self.witness) {
                    self.acc = value;
                    self.witness = witness;
                }
            }
            Op::Sum => self.acc = self.acc.saturating_add(value),
        }
    }
}

impl NodeProgram for AggProgram<'_> {
    type Msg = AggMsg;
    type Output = ((u64, NodeId), bool, u64);

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, AggMsg>) -> Status {
        for &(from, ref msg) in ctx.inbox() {
            if !self.first_report(from) {
                continue;
            }
            self.combine(msg.value, msg.witness);
            self.pending = self.pending.saturating_sub(1);
        }
        if self.pending == 0 && !self.sent {
            self.sent = true;
            if let Some(parent) = self.parent {
                ctx.send(parent, self.report());
                self.resends_left = self.resend;
            }
        } else if self.sent && self.resends_left > 0 {
            // All children are counted, so `acc` is final: each repeat
            // carries the identical aggregate, and the parent's dedup makes
            // duplicates harmless.
            if let Some(parent) = self.parent {
                ctx.send(parent, self.report());
                self.resent += 1;
            }
            self.resends_left -= 1;
        }
        // Leaves fire in round 0 (initial `Active` status); interior nodes
        // fire on the last child report — message-driven, so `Halted` is
        // the precise active-set vote unless retransmissions are pending.
        if self.resends_left > 0 {
            Status::Active
        } else {
            Status::Halted
        }
    }

    fn finish(self, _node: NodeId) -> ((u64, NodeId), bool, u64) {
        (
            (self.acc, NodeId::from(self.witness)),
            self.sent,
            self.resent,
        )
    }
}

/// Result of a convergecast: the aggregate as known at the tree root.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AggOutcome {
    /// The aggregated value.
    pub value: u64,
    /// For [`Op::Max`]/[`Op::Min`], a node achieving the value (smallest id
    /// on ties); meaningless for [`Op::Sum`].
    pub witness: NodeId,
    /// Round/bit accounting.
    pub stats: RunStats,
    /// Aggregate reports re-sent under `RecoveryPolicy::retransmit` (0 when
    /// retransmission is off).
    pub retransmissions: u64,
}

/// The wire width of a value, as the byte its messages carry.
fn value_width(value_bits: usize) -> Result<u8, AlgoError> {
    if value_bits > 64 {
        return Err(AlgoError::InvalidParameter {
            reason: format!("value width {value_bits} exceeds the 64 bits of a value"),
        });
    }
    Ok(value_bits as u8)
}

/// The convergecast program at each node, as [`convergecast`] starts it.
fn convergecast_program<'a>(
    tree: &'a TreeView,
    values: &'a [u64],
    value_bits: u8,
    op: Op,
    config: Config,
) -> impl Fn(NodeId) -> AggProgram<'a> + 'a {
    let resend = config.recovery().retransmit();
    let node_bits = bits::for_node(tree.len()) as u8;
    move |v| AggProgram {
        parent: tree.parent(v),
        children: tree.children(v),
        pending: tree.children(v).len(),
        op,
        acc: values[v.index()],
        witness: u32::from(v),
        value_bits,
        node_bits,
        sent: false,
        counted: Vec::new(),
        resend,
        resends_left: 0,
        resent: 0,
    }
}

/// Aggregates `values` up `tree` to its root in `depth + 1` rounds.
///
/// `value_bits` is the honest wire width of a value (and must cover every
/// partial aggregate: for [`Op::Sum`], the width of the total).
///
/// # Errors
///
/// Returns a wrapped simulator error; `Protocol` if arrays mismatch;
/// `InvalidParameter` if `value_bits` exceeds 64.
///
/// # Example
///
/// ```
/// use classical::{aggregate::{self, Op}, bfs, TreeView};
/// use congest::{bits, Config};
/// use graphs::{generators, NodeId};
///
/// let g = generators::path(5);
/// let cfg = Config::for_graph(&g);
/// let tree = TreeView::from(&bfs::build(&g, NodeId::new(0), cfg)?);
/// let values = vec![3, 9, 4, 9, 1];
/// let out = aggregate::convergecast(&g, &tree, &values, 8, Op::Max, cfg)?;
/// assert_eq!(out.value, 9);
/// assert_eq!(out.witness, NodeId::new(1)); // smallest id achieving 9
/// # Ok::<(), classical::AlgoError>(())
/// ```
pub fn convergecast(
    graph: &Graph,
    tree: &TreeView,
    values: &[u64],
    value_bits: usize,
    op: Op,
    config: Config,
) -> Result<AggOutcome, AlgoError> {
    if values.len() != graph.len() || tree.len() != graph.len() {
        return Err(AlgoError::Protocol {
            reason: "values/tree size mismatch".into(),
        });
    }
    let value_bits = value_width(value_bits)?;
    let fault_aware = config.has_faults();
    let resend = config.recovery().retransmit();
    let program = convergecast_program(tree, values, value_bits, op, config);
    let mut net = Network::new(graph, config, program);
    let cap = 2 * graph.len() as u64 + 16 + u64::from(resend);
    let stats = net
        .run_until_quiescent(cap)
        .map_err(|e| AlgoError::from_congest(e, fault_aware))?;
    let outputs = net.into_outputs();
    if fault_aware {
        // Every node sends its partial aggregate at least once, after all
        // children report. A node that never fired means some child message
        // was lost and the chain up to the root stalled — the root's value
        // would silently miss a whole subtree.
        if let Some(stalled) = outputs.iter().position(|&(_, sent, _)| !sent) {
            return Err(AlgoError::FaultDetected {
                round: stats.rounds,
                detail: format!(
                    "convergecast stalled at node {stalled}: a child aggregate never arrived"
                ),
            });
        }
    }
    let retransmissions: u64 = outputs.iter().map(|&(_, _, r)| r).sum();
    if retransmissions > 0 {
        // Honest accounting at the source: resends are recovery actions
        // wherever they happen (here or under a quantum driver) — one bulk
        // trace event per phase, one metrics charge per resent message.
        congest::recovery::note_recovery(
            trace::RecoveryAction::Retransmit,
            0,
            "convergecast reports",
            0,
            retransmissions,
        );
    }
    let ((value, witness), _, _) = outputs[tree.root().index()];
    Ok(AggOutcome {
        value,
        witness,
        stats,
        retransmissions,
    })
}

#[derive(Clone, Debug)]
struct BcastMsg {
    value: u64,
    value_bits: u8,
}

impl Payload for BcastMsg {
    fn size_bits(&self) -> usize {
        usize::from(self.value_bits)
    }
}

struct BcastProgram<'t> {
    /// The node's children, borrowed from the tree the value descends.
    children: &'t [NodeId],
    value: Option<u64>,
    value_bits: u8,
    is_root: bool,
    sent: bool,
}

impl NodeProgram for BcastProgram<'_> {
    type Msg = BcastMsg;
    type Output = Option<u64>;

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, BcastMsg>) -> Status {
        if let Some(&(_, BcastMsg { value, .. })) = ctx.inbox().first() {
            self.value = Some(value);
        }
        if (self.is_root || self.value.is_some()) && !self.sent {
            self.sent = true;
            let value = self.value.expect("root starts with a value");
            for &c in self.children {
                ctx.send(
                    c,
                    BcastMsg {
                        value,
                        value_bits: self.value_bits,
                    },
                );
            }
        }
        // Message-driven relay; the root's round-0 broadcast rides on the
        // initial `Active` status, so `Halted` is the precise vote.
        Status::Halted
    }

    fn finish(self, _node: NodeId) -> Option<u64> {
        self.value
    }
}

/// Result of a broadcast: the value as received by every node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BroadcastOutcome {
    /// Per-node received value (identical everywhere on success).
    pub values: Vec<u64>,
    /// Round/bit accounting.
    pub stats: RunStats,
}

/// The broadcast program at each node, as [`broadcast`] starts it.
fn broadcast_program<'t>(
    tree: &'t TreeView,
    value: u64,
    value_bits: u8,
) -> impl Fn(NodeId) -> BcastProgram<'t> + 't {
    let root = tree.root();
    move |v| BcastProgram {
        children: tree.children(v),
        value: (v == root).then_some(value),
        value_bits,
        is_root: v == root,
        sent: false,
    }
}

/// Broadcasts `value` from the root of `tree` to every node in `depth + 1`
/// rounds.
///
/// # Errors
///
/// Returns a wrapped simulator error, `Protocol` if some node was not
/// reached (inconsistent tree), or `InvalidParameter` if `value_bits`
/// exceeds 64.
pub fn broadcast(
    graph: &Graph,
    tree: &TreeView,
    value: u64,
    value_bits: usize,
    config: Config,
) -> Result<BroadcastOutcome, AlgoError> {
    let value_bits = value_width(value_bits)?;
    let fault_aware = config.has_faults();
    let mut net = Network::new(graph, config, broadcast_program(tree, value, value_bits));
    let cap = 2 * graph.len() as u64 + 16;
    let stats = net
        .run_until_quiescent(cap)
        .map_err(|e| AlgoError::from_congest(e, fault_aware))?;
    let outputs = net.into_outputs();
    if let Some(missed) = outputs.iter().position(Option::is_none) {
        return Err(if fault_aware {
            AlgoError::FaultDetected {
                round: stats.rounds,
                detail: format!(
                    "broadcast never reached node {missed}: a tree-edge message was lost"
                ),
            }
        } else {
            AlgoError::Protocol {
                reason: "broadcast did not reach every node".into(),
            }
        });
    }
    let values = outputs.into_iter().flatten().collect();
    Ok(BroadcastOutcome { values, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs;
    use crate::differential::{self, Run};
    use graphs::generators;

    fn tree_of(g: &Graph, root: usize) -> TreeView {
        TreeView::from(&bfs::build(g, NodeId::new(root), Config::for_graph(g)).unwrap())
    }

    #[test]
    fn convergecast_max_and_witness() {
        let g = generators::random_connected(25, 0.15, 2);
        let tree = tree_of(&g, 0);
        let values: Vec<u64> = (0..25).map(|i| (i as u64 * 13) % 17).collect();
        let expect = values.iter().copied().max().unwrap();
        let out = convergecast(&g, &tree, &values, 8, Op::Max, Config::for_graph(&g)).unwrap();
        assert_eq!(out.value, expect);
        assert_eq!(values[out.witness.index()], expect);
    }

    #[test]
    fn convergecast_min() {
        let g = generators::grid(4, 4);
        let tree = tree_of(&g, 5);
        let values: Vec<u64> = (0..16).map(|i| 100 - i as u64).collect();
        let out = convergecast(&g, &tree, &values, 8, Op::Min, Config::for_graph(&g)).unwrap();
        assert_eq!(out.value, 85);
        assert_eq!(out.witness, NodeId::new(15));
    }

    #[test]
    fn convergecast_sum_counts() {
        let g = generators::cycle(12);
        let tree = tree_of(&g, 0);
        let values: Vec<u64> = (0..12).map(|i| u64::from(i % 3 == 0)).collect();
        let out = convergecast(&g, &tree, &values, 8, Op::Sum, Config::for_graph(&g)).unwrap();
        assert_eq!(out.value, 4);
    }

    #[test]
    fn convergecast_rounds_scale_with_depth() {
        let g = generators::path(40);
        let tree = tree_of(&g, 0);
        let values = vec![1u64; 40];
        let out = convergecast(&g, &tree, &values, 8, Op::Sum, Config::for_graph(&g)).unwrap();
        assert_eq!(out.value, 40);
        // Depth 39: the deepest leaf's message needs 39 hops.
        assert!(
            (40..=42).contains(&out.stats.rounds),
            "rounds = {}",
            out.stats.rounds
        );
    }

    #[test]
    fn convergecast_size_mismatch() {
        let g = generators::path(4);
        let tree = tree_of(&g, 0);
        let err = convergecast(&g, &tree, &[1, 2], 8, Op::Sum, Config::for_graph(&g)).unwrap_err();
        assert!(matches!(err, AlgoError::Protocol { .. }));
    }

    /// Widths travel as bytes; a value never needs more than 64 bits, so
    /// a wider declaration is a typed error, not a silent truncation.
    #[test]
    fn value_widths_beyond_64_bits_are_rejected() {
        let g = generators::path(4);
        let tree = tree_of(&g, 0);
        let cfg = Config::for_graph(&g);
        let err = convergecast(&g, &tree, &[1; 4], 65, Op::Sum, cfg).unwrap_err();
        assert!(matches!(err, AlgoError::InvalidParameter { .. }), "{err:?}");
        let err = broadcast(&g, &tree, 1, 300, cfg).unwrap_err();
        assert!(matches!(err, AlgoError::InvalidParameter { .. }), "{err:?}");
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let g = generators::random_connected(30, 0.1, 7);
        let tree = tree_of(&g, 4);
        let out = broadcast(&g, &tree, 0xBEEF, 16, Config::for_graph(&g)).unwrap();
        assert!(out.values.iter().all(|&v| v == 0xBEEF));
    }

    #[test]
    fn single_node_aggregate() {
        let g = Graph::from_edges(1, []).unwrap();
        let tree = tree_of(&g, 0);
        let out = convergecast(&g, &tree, &[7], 4, Op::Max, Config::for_graph(&g)).unwrap();
        assert_eq!(out.value, 7);
        assert_eq!(out.witness, NodeId::new(0));
        let b = broadcast(&g, &tree, 3, 4, Config::for_graph(&g)).unwrap();
        assert_eq!(b.values, vec![3]);
    }

    #[test]
    fn programs_match_the_reference() {
        for (seed, g) in differential::graphs() {
            let cfg = Config::for_graph(&g);
            let tree = TreeView::from(&bfs::build(&g, NodeId::new(0), cfg).unwrap());
            let values: Vec<u64> = (0..g.len() as u64).map(|i| (i * 7 + seed) % 11).collect();
            let n = g.len() as u64;
            for cfg in differential::configs(&g, seed) {
                let resend = u64::from(cfg.recovery().retransmit());
                let program = convergecast_program(&tree, &values, 4, Op::Max, cfg);
                differential::check(&g, cfg, Run::Quiescent(2 * n + 16 + resend), program);
                let program = broadcast_program(&tree, 9, 4);
                differential::check(&g, cfg, Run::Quiescent(2 * n + 16), program);
            }
        }
    }
}
