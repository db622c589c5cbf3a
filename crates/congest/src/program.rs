use std::fmt;

use graphs::NodeId;

use crate::{Payload, Round};

/// A node's vote at the end of a round.
///
/// The network stops when *every* node voted [`Status::Halted`] in the most
/// recent round **and** no messages are in flight. A node may vote `Halted`
/// and later resume activity when new messages arrive — the vote is about
/// the current round, not a permanent state.
///
/// The vote is also a scheduling promise: a node that voted `Halted` (or
/// `Sleep` before its wake round) is **not executed** until a message it
/// does not [ignore](NodeProgram::ignores) lands in its inbox, so `Halted`
/// must genuinely mean "nothing to do unless new messages arrive" — in
/// particular, a program must not vote `Halted` while planning to act at a
/// later round based on `ctx.round()` alone. Timed programs vote
/// [`Status::Sleep`] instead. The [`reference`](crate::reference)
/// simulator runs every node every round and reports a node that sends or
/// changes its vote while not runnable as a contract breach.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Status {
    /// The node may still have work to do.
    #[default]
    Active,
    /// The node has nothing to do unless new messages arrive. It is run
    /// again only when one arrives that its program does not
    /// [ignore](NodeProgram::ignores); the messages it ignores never reach
    /// its inbox.
    Halted,
    /// Like `Halted`, but with a timed wakeup: the node has nothing to do
    /// unless new messages arrive **or** round `Sleep(w)` begins, at which
    /// point the scheduler guarantees it executes even with an empty inbox.
    ///
    /// The hint is superseded by the node's next execution (a message
    /// arriving earlier re-runs the program, and whatever it votes then
    /// replaces the old wakeup). A wake round at or before the next round is
    /// equivalent to `Active`. Unlike `Halted`, a sleeping node blocks
    /// quiescence: its pending wakeup counts as work, and fast-forward
    /// stops at its wake round.
    Sleep(Round),
}

/// Where one staged send goes: the receivers are resolved against the
/// sender's sorted neighbour list only when the round commits, so a
/// broadcast stores its payload once instead of once per neighbour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Dest {
    /// One node ([`RoundCtx::send`]); the network checks it is a neighbour.
    One(NodeId),
    /// Every neighbour ([`RoundCtx::broadcast`]).
    All,
    /// Every neighbour except the given node
    /// ([`RoundCtx::broadcast_except`]).
    AllBut(NodeId),
}

impl Dest {
    /// The receivers of this entry when sent by a node with sorted
    /// `neighbors`: a slice walked in order, minus the one id to skip.
    pub(crate) fn targets<'a>(&'a self, neighbors: &'a [NodeId]) -> (&'a [NodeId], Option<NodeId>) {
        match self {
            Dest::One(to) => (std::slice::from_ref(to), None),
            Dest::All => (neighbors, None),
            Dest::AllBut(skip) => (neighbors, Some(*skip)),
        }
    }
}

/// One round's staged traffic: entry `k` is the payload `msgs[k]`, stored
/// once with its sender, bound for `dest[k]`. Every node that runs in a
/// round appends to the same buffer in node-id order, so each sender's
/// entries are one contiguous run. After the
/// round commits, the buffer becomes the storage the next round's inboxes
/// index into.
#[derive(Debug)]
pub(crate) struct SendBuf<M> {
    pub(crate) msgs: Vec<(NodeId, M)>,
    pub(crate) dest: Vec<Dest>,
}

impl<M> Default for SendBuf<M> {
    fn default() -> Self {
        SendBuf {
            msgs: Vec::new(),
            dest: Vec::new(),
        }
    }
}

impl<M> SendBuf<M> {
    pub(crate) fn len(&self) -> usize {
        self.msgs.len()
    }

    pub(crate) fn clear(&mut self) {
        self.msgs.clear();
        self.dest.clear();
    }

    pub(crate) fn push(&mut self, from: NodeId, msg: M, dest: Dest) {
        self.msgs.push((from, msg));
        self.dest.push(dest);
    }
}

/// A node's inbox for one round: `(sender, message)` pairs strictly sorted
/// by sender id, at most one per directed edge.
///
/// The view holds no messages of its own. It is a list of entry indices
/// into the buffer the senders staged into last round, so a broadcast
/// payload is stored once however many neighbours receive it. The view
/// borrows that buffer for the lifetime of the round's [`RoundCtx`]: it is
/// `Copy`, it may be held while the program sends, and it cannot outlive
/// the round.
pub struct Inbox<'a, M> {
    msgs: &'a [(NodeId, M)],
    idx: &'a [u32],
}

// Manual impls: `M` itself need not be `Clone`/`Copy` for the view to be.
impl<M> Clone for Inbox<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for Inbox<'_, M> {}

impl<'a, M> Inbox<'a, M> {
    /// The inbox whose `k`-th message is `msgs[idx[k]]`.
    pub(crate) fn new(msgs: &'a [(NodeId, M)], idx: &'a [u32]) -> Self {
        Inbox { msgs, idx }
    }

    /// The messages in ascending sender order.
    pub fn iter(&self) -> InboxIter<'a, M> {
        InboxIter {
            msgs: self.msgs,
            idx: self.idx.iter(),
        }
    }

    /// The message from the smallest sender id, if any.
    pub fn first(&self) -> Option<&'a (NodeId, M)> {
        self.iter().next()
    }

    /// Number of messages received this round.
    pub fn len(&self) -> usize {
        self.idx.len()
    }

    /// True when nothing arrived this round.
    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }
}

impl<M: fmt::Debug> fmt::Debug for Inbox<'_, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a, M> IntoIterator for Inbox<'a, M> {
    type Item = &'a (NodeId, M);
    type IntoIter = InboxIter<'a, M>;
    fn into_iter(self) -> InboxIter<'a, M> {
        self.iter()
    }
}

/// Iterator over an [`Inbox`], in ascending sender order.
pub struct InboxIter<'a, M> {
    msgs: &'a [(NodeId, M)],
    idx: std::slice::Iter<'a, u32>,
}

impl<M> Clone for InboxIter<'_, M> {
    fn clone(&self) -> Self {
        InboxIter {
            msgs: self.msgs,
            idx: self.idx.clone(),
        }
    }
}

impl<M: fmt::Debug> fmt::Debug for InboxIter<'_, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.clone()).finish()
    }
}

impl<'a, M> Iterator for InboxIter<'a, M> {
    type Item = &'a (NodeId, M);
    fn next(&mut self) -> Option<Self::Item> {
        self.idx.next().map(|&k| &self.msgs[k as usize])
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.idx.size_hint()
    }
}

impl<M> DoubleEndedIterator for InboxIter<'_, M> {
    fn next_back(&mut self) -> Option<Self::Item> {
        self.idx.next_back().map(|&k| &self.msgs[k as usize])
    }
}

impl<M> ExactSizeIterator for InboxIter<'_, M> {}
impl<M> std::iter::FusedIterator for InboxIter<'_, M> {}

/// Per-round context handed to [`NodeProgram::on_round`]: the node's
/// identity, the inbox of the current round, and the outbox.
pub struct RoundCtx<'a, M: Payload> {
    node: NodeId,
    round: Round,
    num_nodes: usize,
    neighbors: &'a [NodeId],
    inbox: Inbox<'a, M>,
    /// The round's shared send buffer; this node's entries start at
    /// `first`.
    out: &'a mut SendBuf<M>,
    first: usize,
}

impl<'a, M: Payload> RoundCtx<'a, M> {
    /// `out` is the round's send buffer, shared by every node the scheduler
    /// runs this round: the node's sends are appended after whatever
    /// earlier nodes staged, and its capacity is kept across rounds, so
    /// steady-state rounds allocate nothing.
    pub(crate) fn new(
        node: NodeId,
        round: Round,
        num_nodes: usize,
        neighbors: &'a [NodeId],
        inbox: Inbox<'a, M>,
        out: &'a mut SendBuf<M>,
    ) -> Self {
        let first = out.len();
        RoundCtx {
            node,
            round,
            num_nodes,
            neighbors,
            inbox,
            out,
            first,
        }
    }

    /// This node's identifier.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The current round, counted from 0.
    pub fn round(&self) -> Round {
        self.round
    }

    /// Total number of nodes `n` (known to every node in the CONGEST model).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The node's neighbours, sorted by id.
    pub fn neighbors(&self) -> &[NodeId] {
        self.neighbors
    }

    /// The node's degree.
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// Messages received this round, as `(sender, message)` pairs strictly
    /// sorted by sender id (at most one message per directed edge per
    /// round — see [`NodeProgram::on_round`](crate::NodeProgram::on_round)
    /// for why programs may rely on this).
    ///
    /// The [`Inbox`] is a view into the buffer last round's senders staged
    /// into. It borrows nothing from the context itself, so a program may
    /// keep iterating it while it sends, but it lives no longer than the
    /// round.
    pub fn inbox(&self) -> Inbox<'a, M> {
        self.inbox
    }

    /// Queues `msg` for delivery to neighbour `to` at the start of the next
    /// round.
    ///
    /// Validity (neighbour check, one message per directed edge per round,
    /// bandwidth budget) is checked by the network when the round commits.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.out.push(self.node, msg, Dest::One(to));
    }

    /// Queues `msg` to every neighbour. The payload is stored once, however
    /// many neighbours receive it; an isolated node stages nothing.
    pub fn broadcast(&mut self, msg: M) {
        if !self.neighbors.is_empty() {
            self.out.push(self.node, msg, Dest::All);
        }
    }

    /// Queues `msg` to every neighbour except `skip` (which need not be a
    /// neighbour). The payload is stored once; nothing is staged when no
    /// neighbour is left.
    pub fn broadcast_except(&mut self, skip: NodeId, msg: M) {
        let reaches_someone = match self.neighbors {
            [] => false,
            [only] => *only != skip,
            _ => true,
        };
        if reaches_someone {
            self.out.push(self.node, msg, Dest::AllBut(skip));
        }
    }
}

impl<M: Payload> fmt::Debug for RoundCtx<'_, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RoundCtx")
            .field("node", &self.node)
            .field("round", &self.round)
            .field("num_nodes", &self.num_nodes)
            .field("neighbors", &self.neighbors)
            .field("inbox", &self.inbox)
            .field("staged", &&self.out.msgs[self.first..])
            .finish()
    }
}

/// The per-node state machine of a distributed algorithm.
///
/// One instance runs at every node. Each round the network calls
/// [`on_round`](NodeProgram::on_round) with the messages delivered this
/// round; the program queues outgoing messages on the context and returns its
/// halting vote. When the run ends, [`finish`](NodeProgram::finish) extracts
/// the node's local output.
///
/// See the [crate-level example](crate) for a complete program.
pub trait NodeProgram: Sized {
    /// Message type exchanged by this algorithm.
    type Msg: Payload;
    /// Local output extracted from each node when the run ends.
    type Output;

    /// Executes one synchronous round at this node.
    ///
    /// # Inbox ordering invariant
    ///
    /// [`RoundCtx::inbox`] is **strictly sorted by sender id**, with at most
    /// one message per directed edge per round. This is load-bearing, not
    /// cosmetic: deterministic tie-breaks such as the "smallest-id
    /// activator" rule in the BFS program rely on iterating senders in
    /// ascending order. The scheduler guarantees the invariant and
    /// `debug_assert!`s it each round before handing over the inbox.
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Self::Msg>) -> Status;

    /// Whether this node, in its current state, has no use for `msg`.
    ///
    /// Return `true` only if the next [`on_round`](NodeProgram::on_round)
    /// would do exactly what it does without `msg` in its inbox: the same
    /// sends, the same state and the same vote, whatever else the inbox
    /// holds. In particular, an inbox of nothing but such messages must
    /// send nothing, keep the node's state and re-cast the vote the node
    /// last cast.
    ///
    /// The network then never shows the message: it is still charged,
    /// traced, fault-fated and counted as delivered (so quiescence waits
    /// for it), but it does not enter the receiver's inbox and does not
    /// wake a `Halted` or sleeping receiver. A node that runs anyway (it
    /// voted `Active`, its wakeup came due, or a message it wants woke it)
    /// reads only the messages it wants, in sender order. The question is
    /// asked when the message is committed, of the receiver's state after
    /// its own run in that round, which is the state it starts the
    /// delivery round in.
    ///
    /// The default ignores nothing. The [`reference`](crate::reference)
    /// simulator shows every message and runs every node every round, so a
    /// differential run against it checks that this method is sound: it
    /// reports a node that sends or changes its vote on an inbox this
    /// method waved through, and a program that acts on a message it
    /// claims to ignore produces different outputs there.
    #[inline]
    fn ignores(&self, msg: &Self::Msg) -> bool {
        let _ = msg;
        false
    }

    /// Consumes the program and returns the node's local output.
    fn finish(self, node: NodeId) -> Self::Output;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_send_and_broadcast_fill_outbox() {
        let v = NodeId::new;
        let neighbors = [v(1), v(2)];
        let msgs = [(v(2), false), (v(1), true)];
        let mut out = SendBuf::default();
        out.push(v(4), true, Dest::All);
        let mut ctx = RoundCtx::new(v(0), 3, 5, &neighbors, Inbox::new(&msgs, &[1]), &mut out);
        assert_eq!(ctx.node(), v(0));
        assert_eq!(ctx.round(), 3);
        assert_eq!(ctx.num_nodes(), 5);
        assert_eq!(ctx.degree(), 2);
        assert_eq!(ctx.inbox().len(), 1);
        assert_eq!(ctx.inbox().first(), Some(&(v(1), true)));
        ctx.send(v(1), false);
        ctx.broadcast(true);
        ctx.broadcast_except(v(2), false);
        // One entry per call: broadcasts store their payload once.
        assert_eq!(
            out.dest[1..],
            [Dest::One(v(1)), Dest::All, Dest::AllBut(v(2))]
        );
        assert!(out.msgs[1..].iter().all(|&(from, _)| from == v(0)));
    }

    #[test]
    fn broadcasts_that_reach_nobody_stage_nothing() {
        let v = NodeId::new;
        let mut out: SendBuf<bool> = SendBuf::default();
        let empty = Inbox::new(&[], &[]);
        let mut isolated = RoundCtx::new(v(0), 0, 3, &[], empty, &mut out);
        isolated.broadcast(true);
        isolated.broadcast_except(v(1), true);
        let leaf = [v(1)];
        let mut ctx = RoundCtx::new(v(2), 0, 3, &leaf, empty, &mut out);
        ctx.broadcast_except(v(1), true);
        assert_eq!(out.len(), 0);
        let mut ctx = RoundCtx::new(v(2), 0, 3, &leaf, empty, &mut out);
        ctx.broadcast_except(v(0), true);
        assert_eq!(out.dest, [Dest::AllBut(v(0))]);
    }

    #[test]
    fn inbox_view_follows_its_index_list() {
        let v = NodeId::new;
        let msgs = [(v(3), 'c'), (v(1), 'a'), (v(2), 'b')];
        let inbox = Inbox::new(&msgs, &[1, 2, 0]);
        let seen: Vec<_> = inbox.into_iter().copied().collect();
        assert_eq!(seen, [(v(1), 'a'), (v(2), 'b'), (v(3), 'c')]);
        assert_eq!(inbox.iter().next_back(), Some(&(v(3), 'c')));
        assert_eq!(inbox.iter().len(), 3);
        assert_eq!(format!("{inbox:?}"), format!("{:?}", seen));
        assert!(Inbox::<char>::new(&msgs, &[]).is_empty());
    }

    #[test]
    fn status_default_is_active() {
        assert_eq!(Status::default(), Status::Active);
    }
}
