//! Differential suite for the simulator's message path: `Network` against
//! the reference simulator in `congest::reference`, which shares no
//! scheduling, validation, commit or fault code with it.
//!
//! The scripted programs keep the `Status` contract (a halted node, or a
//! sleeping one before its wake round, does nothing while its inbox is
//! empty), so active-set scheduling must agree with the reference's
//! run-everyone rounds, and the reference must report no contract breach.
//! They keep the [`NodeProgram::ignores`] contract too: a randomly
//! scripted node keeps a watermark that it raises now and then, and
//! records and acts only on the messages at or above it, so the network
//! may leave the others out of its inbox and not wake it for them.
//!
//! Compared per run: every round's inbox contents and order at every node,
//! `RunStats`, the fault counters, and the first error.

use std::sync::Arc;

use congest::reference::Reference;
use congest::{
    Config, CongestError, FaultPlan, FaultStats, Network, NodeProgram, Payload, Round, RoundCtx,
    RunStats, Status,
};
use graphs::{Graph, NodeId};
use proptest::prelude::*;

/// Rounds every run lasts.
const ROUNDS: Round = 12;
/// Per-edge budget of every run.
const BUDGET: usize = 24;

/// A payload with an explicit wire size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Pay {
    val: u32,
    bits: u16,
}

impl Payload for Pay {
    fn size_bits(&self) -> usize {
        usize::from(self.bits)
    }
}

/// One call a program makes on its `RoundCtx`.
#[derive(Clone, Copy, Debug)]
enum Action {
    Send(NodeId, Pay),
    Broadcast(Pay),
    Except(NodeId, Pay),
}

/// SplitMix64 step.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A stream of pseudo-random draws.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = mix(self.0);
        self.0
    }

    fn below(&mut self, k: usize) -> usize {
        (self.next() % k.max(1) as u64) as usize
    }

    fn chance(&mut self, per_mille: u32) -> bool {
        self.next() % 1000 < u64::from(per_mille)
    }
}

/// What each node does, as a pure function of its node id, the round, its
/// inbox and its vote the last time it ran.
#[derive(Clone)]
enum Script {
    /// Pseudo-random sends, broadcasts, skips and `Halted`/`Sleep`/`Active`
    /// votes, and raises of the node's watermark; with probability
    /// `chaos`/1000 per acting node, one misbehaving call as well.
    Random { seed: u64, chaos: u32 },
    /// Fixed calls per `(node, round)`; every node stays `Active`.
    Table(Arc<Vec<(usize, Round, Vec<Action>)>>),
}

impl Script {
    /// The calls, the vote, and a value the node's watermark is raised to
    /// (0 for none); `inbox` holds only the messages at or above the
    /// watermark.
    fn act(
        &self,
        v: NodeId,
        round: Round,
        last: Status,
        inbox: &[(NodeId, Pay)],
        neighbors: &[NodeId],
        n: usize,
    ) -> (Vec<Action>, Status, u32) {
        let (seed, chaos) = match self {
            Script::Table(table) => {
                let acts = table
                    .iter()
                    .filter(|(u, r, _)| *u == v.index() && *r == round)
                    .flat_map(|(_, _, acts)| acts.iter().copied())
                    .collect();
                return (acts, Status::Active, 0);
            }
            Script::Random { seed, chaos } => (*seed, *chaos),
        };
        // Not runnable: nothing to do until a message or the wake round.
        let idle = match last {
            Status::Active => false,
            Status::Halted => true,
            Status::Sleep(wake) => round < wake,
        };
        if idle && inbox.is_empty() {
            return (Vec::new(), last, 0);
        }
        let folded = inbox.iter().fold(0u64, |acc, &(from, m)| {
            mix(acc ^ ((from.index() as u64) << 32) ^ u64::from(m.val))
        });
        let mut d = Draws(mix(seed ^ mix(v.index() as u64 ^ mix(round ^ folded))));
        let pay = |d: &mut Draws| Pay {
            val: d.next() as u32,
            bits: 1 + d.below(BUDGET) as u16,
        };
        let deg = neighbors.len();
        let mut acts = Vec::new();
        match d.below(6) {
            0 => {}
            1 => acts.push(Action::Broadcast(pay(&mut d))),
            2 => {
                // Skip a neighbour, or a node that is not one (possibly
                // this node itself, possibly out of range).
                let skip = if deg > 0 && d.chance(700) {
                    neighbors[d.below(deg)]
                } else {
                    NodeId::new(d.below(n + 2))
                };
                acts.push(Action::Except(skip, pay(&mut d)));
            }
            3 => {
                // Distinct neighbours in a scrambled order.
                let mut picks: Vec<NodeId> = neighbors
                    .iter()
                    .copied()
                    .filter(|_| d.chance(500))
                    .collect();
                for i in (1..picks.len()).rev() {
                    picks.swap(i, d.below(i + 1));
                }
                acts.extend(picks.into_iter().map(|to| Action::Send(to, pay(&mut d))));
            }
            4 if deg > 0 => {
                // Broadcast past one neighbour, then send it its own
                // message: a broadcast and a send that do not collide.
                let skip = neighbors[d.below(deg)];
                acts.push(Action::Except(skip, pay(&mut d)));
                acts.push(Action::Send(skip, pay(&mut d)));
            }
            _ => {
                if deg > 0 {
                    acts.push(Action::Send(neighbors[d.below(deg)], pay(&mut d)));
                }
                acts.push(Action::Except(v, pay(&mut d)));
            }
        }
        if d.chance(chaos) {
            let wide = Pay {
                val: 7,
                bits: (BUDGET + 1 + d.below(8)) as u16,
            };
            match d.below(4) {
                0 if deg > 0 => {
                    acts.push(Action::Broadcast(pay(&mut d)));
                    acts.push(Action::Send(neighbors[d.below(deg)], pay(&mut d)));
                }
                1 => {
                    let to = NodeId::new(d.below(n + 2));
                    if !neighbors.contains(&to) {
                        acts.push(Action::Send(to, pay(&mut d)));
                    }
                }
                2 if deg > 0 => {
                    let to = neighbors[d.below(deg)];
                    acts.push(Action::Send(to, pay(&mut d)));
                    acts.push(Action::Send(to, pay(&mut d)));
                }
                _ => {
                    let at = d.below(acts.len() + 1);
                    let act = if deg > 0 && d.chance(500) {
                        Action::Send(neighbors[d.below(deg)], wide)
                    } else {
                        Action::Broadcast(wide)
                    };
                    acts.insert(at, act);
                }
            }
        }
        let vote = match d.below(20) {
            0..=6 => Status::Halted,
            7..=9 => Status::Sleep(round + 1 + d.below(5) as Round),
            _ => Status::Active,
        };
        // Payload values are uniform, so a watermark of w ignores a share
        // w / 2^32 of them; raises stop at half the range.
        let raise = if d.chance(250) {
            d.next() as u32 >> 1
        } else {
            0
        };
        (acts, vote, raise)
    }
}

/// Every non-empty inbox a node saw: `(round, inbox)`.
type Seen = Vec<(Round, Vec<(NodeId, Pay)>)>;

/// The scripted program as `Network` runs it.
struct Scripted {
    script: Script,
    last: Status,
    /// Messages below it are ignored.
    watermark: u32,
    seen: Seen,
}

impl NodeProgram for Scripted {
    type Msg = Pay;
    type Output = Seen;

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Pay>) -> Status {
        let view = ctx.inbox();
        let all: Vec<(NodeId, Pay)> = view.into_iter().copied().collect();
        assert_eq!(view.len(), all.len());
        assert_eq!(view.is_empty(), all.is_empty());
        assert_eq!(view.first(), all.first());
        assert!(view.iter().rev().eq(all.iter().rev()));
        let inbox: Vec<(NodeId, Pay)> = all.into_iter().filter(|(_, m)| !self.ignores(m)).collect();
        if !inbox.is_empty() {
            self.seen.push((ctx.round(), inbox.clone()));
        }
        let (acts, vote, raise) = self.script.act(
            ctx.node(),
            ctx.round(),
            self.last,
            &inbox,
            ctx.neighbors(),
            ctx.num_nodes(),
        );
        self.watermark = self.watermark.max(raise);
        for act in acts {
            match act {
                Action::Send(to, m) => ctx.send(to, m),
                Action::Broadcast(m) => ctx.broadcast(m),
                Action::Except(skip, m) => ctx.broadcast_except(skip, m),
            }
        }
        self.last = vote;
        vote
    }

    fn ignores(&self, msg: &Pay) -> bool {
        msg.val < self.watermark
    }

    fn finish(self, _node: NodeId) -> Seen {
        self.seen
    }
}

/// What a run produced.
#[derive(Debug, PartialEq)]
struct Outcome {
    seen: Vec<Seen>,
    stats: RunStats,
    faults: FaultStats,
    error: Option<CongestError>,
}

fn scripted(script: &Script) -> impl FnMut(NodeId) -> Scripted + '_ {
    |_| Scripted {
        script: script.clone(),
        last: Status::Active,
        watermark: 0,
        seen: Vec::new(),
    }
}

fn network_run(g: &Graph, script: &Script, cfg: Config) -> Outcome {
    let mut net = Network::new(g, cfg, scripted(script));
    let error = net.run_rounds(ROUNDS).err();
    let (stats, faults) = (*net.stats(), net.fault_stats());
    Outcome {
        seen: net.into_outputs(),
        stats,
        faults,
        error,
    }
}

fn reference_run(g: &Graph, script: &Script, cfg: Config) -> Outcome {
    let mut reference = Reference::new(g, cfg, scripted(script));
    let error = reference.run_rounds(ROUNDS).err();
    assert_eq!(
        reference.breach(),
        None,
        "scripted programs keep the contract"
    );
    let (stats, faults) = (*reference.stats(), reference.fault_stats());
    Outcome {
        seen: reference.into_outputs(),
        stats,
        faults,
        error,
    }
}

/// Compares `Network` under `cfg` with the reference.
fn agree(g: &Graph, script: &Script, cfg: Config) -> Result<(), TestCaseError> {
    let expect = reference_run(g, script, cfg);
    let got = network_run(g, script, cfg);
    prop_assert_eq!(&got.error, &expect.error, "first error");
    prop_assert_eq!(&got.stats, &expect.stats, "run stats");
    prop_assert_eq!(&got.faults, &expect.faults, "fault stats");
    for (v, (a, b)) in got.seen.iter().zip(&expect.seen).enumerate() {
        prop_assert_eq!(a, b, "inboxes of node {}", v);
    }
    Ok(())
}

/// A graph on `n` nodes with each pair joined with probability
/// `per_mille`/1000: isolated nodes, leaves and several components are
/// all common at the low densities.
fn sampled_graph(n: usize, per_mille: u32, seed: u64) -> Graph {
    let mut d = Draws(seed);
    let mut edges = Vec::new();
    for u in 0..n {
        for v in u + 1..n {
            if d.chance(per_mille) {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, edges).expect("simple edge list")
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (1usize..24, 0usize..4, any::<u64>())
        .prop_map(|(n, density, seed)| sampled_graph(n, [30, 100, 250, 600][density], seed))
}

fn cfg() -> Config {
    Config::new(BUDGET)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Well-behaved programs: identical inboxes, stats and no error.
    #[test]
    fn valid_traffic_matches_the_reference(g in arb_graph(), seed in any::<u64>()) {
        agree(&g, &Script::Random { seed, chaos: 0 }, cfg())?;
    }

    /// Drops: lost messages leave gaps in the receivers' rows, and the
    /// fates and fault stats must match.
    #[test]
    fn faulty_traffic_matches_the_reference(
        g in arb_graph(),
        seed in any::<u64>(),
        plan_seed in any::<u64>(),
    ) {
        let plan = FaultPlan::new(plan_seed).with_drop(0.1);
        agree(&g, &Script::Random { seed, chaos: 0 }, cfg().with_faults(plan))?;
    }

    /// Misbehaving programs: the same first error (neighbour, duplicate,
    /// bandwidth) in the same round, after the same accounting.
    #[test]
    fn invalid_traffic_fails_like_the_reference(g in arb_graph(), seed in any::<u64>()) {
        agree(&g, &Script::Random { seed, chaos: 150 }, cfg())?;
    }
}

/// Runs a fixed table of calls and checks it against the reference.
fn table_run(g: &Graph, table: Vec<(usize, Round, Vec<Action>)>) -> Outcome {
    let script = Script::Table(Arc::new(table));
    agree(g, &script, cfg()).unwrap();
    network_run(g, &script, cfg())
}

fn pay(bits: u16) -> Pay {
    Pay {
        val: u32::from(bits),
        bits,
    }
}

/// The star 0–{1, 2, 3} plus the edge 3–4 and the isolated node 5.
fn star() -> Graph {
    Graph::from_edges(6, [(0, 1), (0, 2), (0, 3), (3, 4)]).unwrap()
}

#[test]
fn skipping_a_non_neighbour_reaches_every_neighbour() {
    let v = NodeId::new;
    let out = table_run(&star(), vec![(0, 0, vec![Action::Except(v(4), pay(3))])]);
    assert_eq!(out.error, None);
    assert_eq!(out.stats.messages, 3);
    for i in 1..=3 {
        assert_eq!(out.seen[i], vec![(1, vec![(v(0), pay(3))])]);
    }
}

#[test]
fn skipping_the_only_neighbour_sends_nothing() {
    let v = NodeId::new;
    let out = table_run(
        &star(),
        vec![
            (1, 0, vec![Action::Except(v(0), pay(3))]),
            (4, 0, vec![Action::Except(v(3), pay(3))]),
        ],
    );
    assert_eq!(out.error, None);
    assert_eq!(out.stats.messages, 0);
}

#[test]
fn isolated_nodes_broadcast_nothing() {
    let v = NodeId::new;
    let out = table_run(
        &star(),
        vec![(
            5,
            0,
            vec![Action::Broadcast(pay(3)), Action::Except(v(0), pay(3))],
        )],
    );
    assert_eq!(out.error, None);
    assert_eq!(out.stats.messages, 0);
}

#[test]
fn broadcast_and_send_to_one_neighbour_is_a_duplicate() {
    let v = NodeId::new;
    for acts in [
        vec![Action::Broadcast(pay(3)), Action::Send(v(2), pay(4))],
        vec![Action::Send(v(2), pay(4)), Action::Broadcast(pay(3))],
        vec![Action::Except(v(1), pay(3)), Action::Send(v(3), pay(4))],
        vec![Action::Except(v(4), pay(3)), Action::Except(v(4), pay(3))],
    ] {
        let out = table_run(&star(), vec![(0, 2, acts.clone())]);
        let to = match acts[..] {
            [Action::Except(_, _), Action::Except(_, _)] => v(1),
            [_, Action::Send(to, _)] | [Action::Send(to, _), _] => to,
            _ => unreachable!(),
        };
        assert_eq!(
            out.error,
            Some(CongestError::DuplicateSend {
                from: v(0),
                to,
                round: 2
            }),
            "{acts:?}"
        );
        assert_eq!(out.stats.rounds, 2);
    }
}

#[test]
fn a_send_to_a_non_neighbour_is_rejected() {
    let v = NodeId::new;
    // Node 0's neighbours are 1, 2 and 3; 5 is isolated and 9 is no node.
    for to in [4, 0, 5, 9] {
        let out = table_run(
            &star(),
            vec![(
                0,
                1,
                vec![Action::Broadcast(pay(3)), Action::Send(v(to), pay(3))],
            )],
        );
        assert_eq!(
            out.error,
            Some(CongestError::NotANeighbor {
                from: v(0),
                to: v(to)
            })
        );
    }
}

#[test]
fn over_budget_payloads_fail_on_their_first_receiver() {
    let v = NodeId::new;
    let wide = pay(BUDGET as u16 + 1);
    for (acts, to) in [
        (vec![Action::Broadcast(wide)], 1),
        (vec![Action::Except(v(1), wide)], 2),
        (
            vec![Action::Send(v(3), pay(2)), Action::Except(v(3), wide)],
            1,
        ),
        (
            vec![Action::Except(v(1), pay(2)), Action::Send(v(1), wide)],
            1,
        ),
    ] {
        let out = table_run(&star(), vec![(0, 0, acts)]);
        assert_eq!(
            out.error,
            Some(CongestError::BandwidthExceeded {
                from: v(0),
                to: v(to),
                round: 0,
                bits: BUDGET + 1,
                budget: BUDGET,
            })
        );
        assert_eq!(out.stats, RunStats::default());
    }
}

/// Runs a table whose deliveries fill receivers' inbox rows to their
/// degree, fault-free and under `plan`, against the reference; returns the
/// network's outcomes.
fn full_rows_run(
    g: &Graph,
    table: Vec<(usize, Round, Vec<Action>)>,
    plan: FaultPlan,
) -> (Outcome, Outcome) {
    let script = Script::Table(Arc::new(table));
    let faulty = cfg().with_faults(plan);
    agree(g, &script, cfg()).unwrap();
    agree(g, &script, faulty).unwrap();
    (
        network_run(g, &script, cfg()),
        network_run(g, &script, faulty),
    )
}

/// `K_n`.
fn complete(n: usize) -> Graph {
    Graph::from_edges(n, (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v)))).unwrap()
}

/// Every node of `0..n` broadcasts in each of `rounds`.
fn broadcasts(
    n: usize,
    rounds: impl Iterator<Item = Round> + Clone,
) -> Vec<(usize, Round, Vec<Action>)> {
    (0..n)
        .flat_map(|v| {
            rounds.clone().map(move |r| {
                (
                    v,
                    r,
                    vec![Action::Broadcast(pay(1 + (v as u16 + r as u16) % 8))],
                )
            })
        })
        .collect()
}

#[test]
fn a_star_centre_hears_every_leaf_in_one_round() {
    let v = NodeId::new;
    let leaves = 7;
    let g = Graph::from_edges(leaves + 1, (1..=leaves).map(|i| (0, i))).unwrap();
    // Round 1: every leaf sends to the centre (filling its row) while the
    // centre broadcasts (filling every leaf's one-slot row); round 2 the
    // leaves do it again by broadcast.
    let mut table: Vec<_> = (1..=leaves)
        .map(|i| (i, 1, vec![Action::Send(v(0), pay(i as u16))]))
        .collect();
    table.push((0, 1, vec![Action::Broadcast(pay(9))]));
    table.extend((1..=leaves).map(|i| (i, 2, vec![Action::Broadcast(pay(i as u16 + 1))])));
    let plan = FaultPlan::new(11).with_drop(0.1);
    let (plain, _) = full_rows_run(&g, table, plan);
    assert_eq!(plain.error, None);
    assert_eq!(plain.stats.messages, 3 * leaves as u64);
    let centre: Vec<_> = (1..=leaves).map(|i| (v(i), pay(i as u16))).collect();
    assert_eq!(plain.seen[0][0], (2, centre));
    assert_eq!(plain.seen[0][1].1.len(), leaves);
}

#[test]
fn every_node_of_k8_broadcasting_every_round_fills_every_row() {
    let g = complete(8);
    let plan = FaultPlan::new(12).with_drop(0.1);
    let (plain, faulty) = full_rows_run(&g, broadcasts(8, 0..ROUNDS), plan);
    assert_eq!(plain.error, None);
    assert_eq!(plain.stats.messages, 8 * 7 * ROUNDS);
    for seen in &plain.seen {
        assert_eq!(seen.len() as Round, ROUNDS - 1);
        assert!(seen.iter().all(|(_, inbox)| inbox.len() == 7));
    }
    assert!(faulty.faults.dropped > 0, "{:?}", faulty.faults);
}
