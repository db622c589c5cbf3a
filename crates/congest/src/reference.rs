//! A reference simulator for differential tests of [`Network`].
//!
//! [`Reference`] runs any [`NodeProgram`] under the same CONGEST rules as
//! [`Network`], but shares none of its scheduling, validation, commit or
//! fault code; only the program interface ([`RoundCtx`] and its [`Inbox`]
//! view) is common. It is written to be slow and plainly right:
//!
//! * every live node runs every round, so there is no active set, wakeup
//!   heap or fast-forward to get wrong;
//! * each node has its own `Vec` inbox, and every `send`, `broadcast` and
//!   `broadcast_except` is expanded into one message per receiver;
//! * a sender's messages are validated with a `HashSet` of the receivers
//!   it has already used;
//! * fault fates come straight from [`FaultPlan::fate`], crash-stops from
//!   [`FaultPlan::crashes`], and each inbox is sorted by sender once the
//!   round's deliveries (and due delayed messages) are in;
//! * every delivered message is shown to its receiver, including the ones
//!   its program [ignores](NodeProgram::ignores), which `Network` never
//!   puts in an inbox. A program whose `ignores` claims a message it in
//!   fact acts on therefore gives different outputs here, so every
//!   differential run also checks that a program's `ignores` is sound.
//!
//! With a trace sink installed it emits the `Round`, `Message` and
//! `Fault` events `Network` emits, in the same order, with one `Round`
//! tick per round where `Network` may write one `RoundSkip`
//! for a quiet stretch: the two streams agree after
//! [`trace::expand_round_skips`]. The critical-path profiler, the metrics
//! registry and the flight recorder are not modelled.
//!
//! # The scheduling contract
//!
//! Running every node is only equivalent to `Network`'s active set for
//! programs that keep the [`Status`] contract. A node is *runnable* in a
//! round when its standing vote is [`Status::Active`], when it voted
//! [`Status::Sleep`]`(w)` and round `w` has begun, or when a message
//! arrived that its program does not [ignore](NodeProgram::ignores);
//! `Network` executes exactly the runnable nodes. A node that stages a
//! send or changes its vote while not runnable breaches the contract: the
//! reference still delivers the send and records the vote, and
//! [`Reference::breach`] reports the first such `(round, node)`.
//!
//! [`Network`]: crate::Network

use std::collections::HashSet;

use graphs::{Graph, NodeId};

use crate::faults::MessageFate;
use crate::program::{Dest, SendBuf};
use crate::{
    Config, CongestError, FaultPlan, FaultStats, Inbox, NodeProgram, Payload, Round, RoundCtx,
    RunStats, Status,
};

/// A message held back by the fault plan: `(due round, from, to, payload)`.
type Held<M> = (Round, NodeId, NodeId, M);

/// The reference simulator. Its API mirrors the run loop of
/// [`Network`](crate::Network).
pub struct Reference<'g, P: NodeProgram> {
    graph: &'g Graph,
    config: Config,
    plan: Option<FaultPlan>,
    programs: Vec<P>,
    /// Each node's latest vote; crash-stopped nodes are pinned `Halted`.
    votes: Vec<Status>,
    /// This round's inbox of each node, sorted by sender.
    inboxes: Vec<Vec<(NodeId, P::Msg)>>,
    /// Delayed messages, in the order their fates were decided.
    held: Vec<Held<P::Msg>>,
    crashed: Vec<bool>,
    round: Round,
    stats: RunStats,
    faults: FaultStats,
    breach: Option<(Round, NodeId)>,
}

impl<'g, P: NodeProgram> Reference<'g, P> {
    /// Creates a reference run over `graph`, instantiating the program at
    /// every node with `make`.
    pub fn new(graph: &'g Graph, config: Config, make: impl FnMut(NodeId) -> P) -> Self {
        let programs: Vec<P> = graph.nodes().map(make).collect();
        let n = programs.len();
        Reference {
            graph,
            config,
            plan: config.faults(),
            programs,
            votes: vec![Status::Active; n],
            inboxes: (0..n).map(|_| Vec::new()).collect(),
            held: Vec::new(),
            crashed: vec![false; n],
            round: 0,
            stats: RunStats::default(),
            faults: FaultStats::default(),
            breach: None,
        }
    }

    /// Rounds executed so far.
    pub fn round(&self) -> Round {
        self.round
    }

    /// Statistics accumulated so far. `critical_depth` stays 0, and
    /// `scheduled_nodes` counts every live node every round.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Counts of the faults injected so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults
    }

    /// The first contract breach, if any: the round and the node that
    /// staged a send or changed its vote while not runnable.
    pub fn breach(&self) -> Option<(Round, NodeId)> {
        self.breach
    }

    /// True when every node's latest vote is `Halted` and no message is
    /// waiting, delayed ones included.
    pub fn is_quiescent(&self) -> bool {
        self.votes.iter().all(|&s| s == Status::Halted)
            && self.inboxes.iter().all(Vec::is_empty)
            && self.held.is_empty()
    }

    /// Consumes the run and extracts every node's local output, in node id
    /// order.
    pub fn into_outputs(self) -> Vec<P::Output> {
        self.programs
            .into_iter()
            .enumerate()
            .map(|(i, p)| p.finish(NodeId::new(i)))
            .collect()
    }

    /// Executes exactly `rounds` rounds.
    ///
    /// # Errors
    ///
    /// Propagates any error from [`Reference::step`].
    pub fn run_rounds(&mut self, rounds: Round) -> Result<RunStats, CongestError> {
        for _ in 0..rounds {
            self.step()?;
        }
        Ok(self.stats)
    }

    /// Runs until quiescence.
    ///
    /// # Errors
    ///
    /// [`CongestError::RoundLimitExceeded`] if the run does not quiesce
    /// within `max_rounds`, or any error from [`Reference::step`].
    pub fn run_until_quiescent(&mut self, max_rounds: Round) -> Result<RunStats, CongestError> {
        while !self.is_quiescent() {
            if self.round >= max_rounds {
                return Err(CongestError::RoundLimitExceeded { limit: max_rounds });
            }
            self.step()?;
        }
        Ok(self.stats)
    }

    /// Executes one round: crash-stops, every live node, validation, then
    /// delivery.
    ///
    /// # Errors
    ///
    /// The first invalid message in node order and send order: a
    /// non-neighbour receiver, a second message over one directed edge, or
    /// an over-budget message. A failed round commits no statistics and
    /// does not advance the round.
    pub fn step(&mut self) -> Result<(), CongestError> {
        let graph = self.graph;
        let n = self.programs.len();
        let round = self.round;
        let budget = self.config.bandwidth_bits();
        let tracer = trace::current();
        let emit = |event: trace::TraceEvent| {
            if let Some(sink) = &tracer {
                sink.borrow_mut().record(&event);
            }
        };
        let fault = |kind, from: NodeId, to: NodeId, delay| trace::TraceEvent::Fault {
            round,
            kind,
            from: from.index() as u64,
            to: to.index() as u64,
            delay,
        };

        if let Some(plan) = &self.plan {
            for &(node, at) in plan.crashes() {
                if at <= round && node < n && !self.crashed[node] {
                    self.crashed[node] = true;
                    self.votes[node] = Status::Halted;
                    self.faults.crashes += 1;
                    let v = NodeId::new(node);
                    emit(fault(trace::FaultKind::Crash, v, v, 0));
                }
            }
        }

        let delivered: usize = self.inboxes.iter().map(Vec::len).sum();
        let longest = self.inboxes.iter().map(Vec::len).max().unwrap_or(0);
        let positions: Vec<u32> = (0..longest as u32).collect();
        let mut out: Vec<Vec<(NodeId, P::Msg)>> = (0..n).map(|_| Vec::new()).collect();
        for v in graph.nodes() {
            let i = v.index();
            if self.crashed[i] {
                continue;
            }
            let inbox = &self.inboxes[i];
            let standing = self.votes[i];
            let runnable = match standing {
                Status::Active => true,
                Status::Sleep(wake) => wake <= round,
                Status::Halted => false,
            } || inbox.iter().any(|(_, msg)| !self.programs[i].ignores(msg));
            let neighbors = graph.neighbors(v);
            let mut staged = SendBuf::default();
            let view = Inbox::new(inbox, &positions[..inbox.len()]);
            let mut ctx = RoundCtx::new(v, round, n, neighbors, view, &mut staged);
            self.votes[i] = self.programs[i].on_round(&mut ctx);
            self.stats.scheduled_nodes += 1;
            let acted = staged.len() > 0 || self.votes[i] != standing;
            if !runnable && acted && self.breach.is_none() {
                self.breach = Some((round, v));
            }
            for ((_, msg), dest) in staged.msgs.into_iter().zip(staged.dest) {
                match dest {
                    Dest::One(to) => out[i].push((to, msg)),
                    Dest::All => out[i].extend(neighbors.iter().map(|&to| (to, msg.clone()))),
                    Dest::AllBut(skip) => out[i].extend(
                        neighbors
                            .iter()
                            .filter(|&&to| to != skip)
                            .map(|&to| (to, msg.clone())),
                    ),
                }
            }
        }

        for v in graph.nodes() {
            let mut used = HashSet::new();
            for (to, msg) in &out[v.index()] {
                let to = *to;
                let bits = msg.size_bits();
                if !graph.neighbors(v).contains(&to) {
                    return Err(CongestError::NotANeighbor { from: v, to });
                }
                if !used.insert(to) {
                    return Err(CongestError::DuplicateSend { from: v, to, round });
                }
                if bits > budget {
                    return Err(CongestError::BandwidthExceeded {
                        from: v,
                        to,
                        round,
                        bits,
                        budget,
                    });
                }
            }
        }

        let mut next: Vec<Vec<(NodeId, P::Msg)>> = (0..n).map(|_| Vec::new()).collect();
        for (v, sends) in graph.nodes().zip(out) {
            for (to, msg) in sends {
                let bits = msg.size_bits();
                self.stats.messages += 1;
                self.stats.total_bits += bits as u64;
                self.stats.max_message_bits = self.stats.max_message_bits.max(bits);
                emit(trace::TraceEvent::Message {
                    round,
                    from: v.index() as u64,
                    to: to.index() as u64,
                    bits: bits as u64,
                });
                if self.crashed[to.index()] {
                    self.faults.crash_dropped += 1;
                    emit(fault(trace::FaultKind::Crash, v, to, 0));
                    continue;
                }
                let fate = self.plan.as_ref().map_or(MessageFate::Delivered, |p| {
                    p.fate(round, v.index(), to.index())
                });
                match fate {
                    MessageFate::Delivered => next[to.index()].push((v, msg)),
                    MessageFate::Dropped => {
                        self.faults.dropped += 1;
                        emit(fault(trace::FaultKind::Drop, v, to, 0));
                    }
                    MessageFate::Corrupted => {
                        self.faults.corrupted += 1;
                        emit(fault(trace::FaultKind::Corrupt, v, to, 0));
                    }
                    MessageFate::LinkDropped => {
                        self.faults.link_dropped += 1;
                        emit(fault(trace::FaultKind::LinkDown, v, to, 0));
                    }
                    MessageFate::Delayed(extra) => {
                        self.faults.delayed += 1;
                        emit(fault(trace::FaultKind::Delay, v, to, extra));
                        self.held.push((round + 1 + extra, v, to, msg));
                    }
                }
            }
        }

        // Delayed messages due next round join in the order they were
        // held. One addressed to a crashed node is discarded; one whose
        // sender already has a message for the same receiver waits a
        // round more.
        let mut k = 0;
        while k < self.held.len() {
            let (due, from, to, _) = self.held[k];
            if due > round + 1 {
                k += 1;
            } else if self.crashed[to.index()] {
                self.faults.crash_dropped += 1;
                emit(fault(trace::FaultKind::Crash, from, to, 0));
                self.held.remove(k);
            } else if next[to.index()].iter().any(|&(s, _)| s == from) {
                self.held[k].0 = round + 2;
                self.faults.deferred += 1;
                k += 1;
            } else {
                let (_, from, to, msg) = self.held.remove(k);
                next[to.index()].push((from, msg));
            }
        }
        for inbox in &mut next {
            inbox.sort_by_key(|&(from, _)| from);
        }
        self.inboxes = next;

        self.round += 1;
        self.stats.rounds = self.round;
        self.stats.node_rounds = n as u64 * self.round;
        emit(trace::TraceEvent::Round {
            round,
            delivered: delivered as u64,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::generators;

    #[derive(Clone, Debug)]
    struct Ping;
    impl Payload for Ping {
        fn size_bits(&self) -> usize {
            1
        }
    }

    /// Votes `vote` every round, yet node 0 sends at round 3 with an empty
    /// inbox: a send from a node that is not runnable.
    struct QuietSender {
        vote: Status,
    }
    impl NodeProgram for QuietSender {
        type Msg = Ping;
        type Output = ();
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, Ping>) -> Status {
            if ctx.node() == NodeId::new(0) && ctx.round() == 3 {
                ctx.broadcast(Ping);
            }
            self.vote
        }
        fn finish(self, _node: NodeId) {}
    }

    #[test]
    fn a_send_while_not_runnable_is_reported_as_a_breach() {
        let g = generators::path(3);
        for vote in [Status::Halted, Status::Sleep(10)] {
            let mut reference = Reference::new(&g, Config::new(8), |_| QuietSender { vote });
            let stats = reference.run_rounds(6).unwrap();
            assert_eq!(reference.breach(), Some((3, NodeId::new(0))), "{vote:?}");
            // The breaching send is still delivered.
            assert_eq!(stats.messages, 1);
        }
    }

    /// Ignores every message, yet acts on one: node 0 pings at round 1,
    /// and node 1, on hearing it, either answers (`answers`) or switches
    /// its vote to `Sleep(9)`. Both lie about the ignored-only inbox.
    struct Liar {
        answers: bool,
    }
    impl NodeProgram for Liar {
        type Msg = Ping;
        type Output = ();
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, Ping>) -> Status {
            match ctx.node().index() {
                0 if ctx.round() == 0 => return Status::Sleep(1),
                0 if ctx.round() == 1 => ctx.send(NodeId::new(1), Ping),
                1 if !ctx.inbox().is_empty() && self.answers => ctx.broadcast(Ping),
                1 if !ctx.inbox().is_empty() => return Status::Sleep(9),
                _ => {}
            }
            Status::Halted
        }
        fn ignores(&self, _msg: &Ping) -> bool {
            true
        }
        fn finish(self, _node: NodeId) {}
    }

    #[test]
    fn acting_on_an_ignored_only_inbox_is_reported_as_a_breach() {
        let g = generators::path(3);
        for answers in [true, false] {
            let mut reference = Reference::new(&g, Config::new(8), |_| Liar { answers });
            reference.run_rounds(4).unwrap();
            assert_eq!(reference.breach(), Some((2, NodeId::new(1))), "{answers}");
        }
    }

    /// Sleeps until round 4 and sends then; a message that wakes it earlier
    /// lets it answer at once. Neither send is a breach.
    struct Sleeper;
    impl NodeProgram for Sleeper {
        type Msg = Ping;
        type Output = ();
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, Ping>) -> Status {
            let me = ctx.node().index();
            if (me == 0 && ctx.round() == 1) || (me == 1 && ctx.round() == 4) {
                ctx.broadcast(Ping);
            }
            if me == 2 && !ctx.inbox().is_empty() {
                ctx.broadcast(Ping);
            }
            match ctx.round() {
                r if r < 4 && me == 1 => Status::Sleep(4),
                0 if me == 0 => Status::Sleep(1),
                _ => Status::Halted,
            }
        }
        fn finish(self, _node: NodeId) {}
    }

    #[test]
    fn due_wakeups_and_arrivals_make_a_node_runnable() {
        let g = generators::path(3);
        let mut reference = Reference::new(&g, Config::new(8), |_| Sleeper);
        reference.run_until_quiescent(20).unwrap();
        assert_eq!(reference.breach(), None);
    }
}
