//! The two-party simulation argument — **Theorem 10**, **Theorem 11** and
//! **Figures 6–7** of the paper.
//!
//! Theorem 11: an `r`-round quantum algorithm over the path-partitioned
//! network `G_d` (or the stretched gadget `G'_n(x, y)`, Figure 8), in which
//! each intermediate node keeps at most `s` qubits, can be simulated by a
//! two-party protocol of `O(r/d)` messages and `O(r · (bw + s))` qubits:
//! Alice and Bob alternately simulate diagonal *areas* of width `d`
//! (Figure 7), handing over only the `O(d)` message and private registers
//! that cross the frontier.
//!
//! This module provides:
//!
//! * [`Partition`] — the Alice / layer / Bob ownership structure of a
//!   network, and [`CutTraffic`], a trace sink which measures the bits
//!   actually crossing each layer boundary in a real CONGEST run (at most
//!   `b · bw` per round, the quantity the simulation must forward);
//! * [`TwoPartyPlan`] — the Figure 6/7 block schedule with its exact
//!   message and qubit accounting;
//! * [`decide_disj_via_diameter`] — the end-to-end Theorem 10/3 pipeline:
//!   build `G'_n(x, y)`, run a *real* distributed diameter computation on
//!   it, read off `DISJ(x, y)` from the diameter gap, and report the
//!   two-party cost of simulating that run.

use std::cell::RefCell;
use std::rc::Rc;

use classical::{apsp, AlgoError};
use congest::{Config, Round};
use graphs::NodeId;
use trace::{TraceEvent, TraceSink};

use crate::disj;
use crate::reduction::Reduction;
use crate::stretch::{PathNetwork, StretchedGraph, StretchedReduction};

/// Who owns a node in the two-party simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// Alice's area (the left part `U_n`, or node `A` of `G_d`).
    Alice,
    /// Intermediate layer `j ∈ 1..=d` (the dummy node `P_j`).
    Layer(usize),
    /// Bob's area (the right part `V_n`, or node `B`).
    Bob,
}

impl Side {
    /// Linear position: Alice = 0, layer `j` = `j`, Bob = `d + 1`.
    pub fn position(&self, depth: usize) -> usize {
        match *self {
            Side::Alice => 0,
            Side::Layer(j) => j,
            Side::Bob => depth + 1,
        }
    }
}

/// The layered ownership structure of a network.
#[derive(Clone, Debug)]
pub struct Partition {
    side: Vec<Side>,
    depth: usize,
}

impl Partition {
    /// Builds a partition from explicit per-node sides.
    ///
    /// # Panics
    ///
    /// Panics if a layer index is outside `1..=depth`.
    pub fn new(side: Vec<Side>, depth: usize) -> Self {
        for s in &side {
            if let Side::Layer(j) = *s {
                assert!((1..=depth).contains(&j), "layer {j} outside 1..={depth}");
            }
        }
        Partition { side, depth }
    }

    /// The partition of the Figure 5 path network `G_d`.
    pub fn for_path_network(net: &PathNetwork) -> Self {
        let side = (0..net.graph.len())
            .map(|i| {
                if i == net.a.index() {
                    Side::Alice
                } else if i == net.b.index() {
                    Side::Bob
                } else {
                    Side::Layer(i)
                }
            })
            .collect();
        Partition::new(side, net.d)
    }

    /// The partition of a stretched gadget `G'_n(x, y)` (Figure 8): original
    /// left nodes → Alice, original right nodes → Bob, dummy layer `j` →
    /// `Layer(j + 1)`.
    pub fn for_stretched(sg: &StretchedGraph) -> Self {
        let n = sg.inner.graph.len();
        let depth = sg.layers.len();
        let mut side = vec![Side::Alice; n];
        for v in &sg.inner.right {
            side[v.index()] = Side::Bob;
        }
        for (j, layer) in sg.layers.iter().enumerate() {
            for v in layer {
                side[v.index()] = Side::Layer(j + 1);
            }
        }
        Partition::new(side, depth)
    }

    /// The side owning node `v`.
    pub fn side(&self, v: NodeId) -> Side {
        self.side[v.index()]
    }

    /// The separation depth `d`.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Returns `true` if every edge of `graph` connects nodes at linear
    /// positions differing by at most 1 — the property that forces
    /// information to spend `d` rounds crossing the middle (the premise of
    /// Theorem 11).
    pub fn is_layered(&self, graph: &graphs::Graph) -> bool {
        graph.edges().all(|(u, v)| {
            let pu = self.side(u).position(self.depth);
            let pv = self.side(v).position(self.depth);
            pu.abs_diff(pv) <= 1
        })
    }
}

/// Measured traffic across the layer boundaries of a partitioned run: a
/// trace sink that folds the run's [`TraceEvent::Message`] events, so it
/// counts every message a node sends across a boundary, whether or not a
/// fault plan lets it through. Install it with `trace::install` around the
/// run, then call [`CutTraffic::finalize`].
#[derive(Clone, Debug)]
pub struct CutTraffic {
    /// Total bits that crossed each boundary `j` (between positions `j`
    /// and `j + 1`), for `j ∈ 0..=d`.
    pub boundary_bits: Vec<u64>,
    /// The largest number of bits crossing a single boundary in a single
    /// round — must be at most `b · bw`.
    pub max_boundary_round_bits: u64,
    /// Total bits crossing any boundary.
    pub total_bits: u64,
    partition: Partition,
    round_acc: Vec<u64>,
    current_round: Round,
}

impl CutTraffic {
    /// A meter over the `d + 1` boundaries of `partition`, wrapped for
    /// `trace::install`.
    pub fn shared(partition: Partition) -> Rc<RefCell<CutTraffic>> {
        let boundaries = partition.depth() + 1;
        Rc::new(RefCell::new(CutTraffic {
            boundary_bits: vec![0; boundaries],
            max_boundary_round_bits: 0,
            total_bits: 0,
            partition,
            round_acc: vec![0; boundaries],
            current_round: 0,
        }))
    }

    fn flush(&mut self) {
        for acc in &mut self.round_acc {
            self.max_boundary_round_bits = self.max_boundary_round_bits.max(*acc);
            *acc = 0;
        }
    }

    /// Finalizes the per-round maxima (call after the run ends).
    pub fn finalize(&mut self) {
        self.flush();
    }
}

impl TraceSink for CutTraffic {
    fn record(&mut self, event: &TraceEvent) {
        let TraceEvent::Message {
            round,
            from,
            to,
            bits,
        } = *event
        else {
            return;
        };
        let depth = self.partition.depth();
        let position = |v: u64| self.partition.side(NodeId::new(v as usize)).position(depth);
        let (pf, pt) = (position(from), position(to));
        if pf == pt {
            return;
        }
        if round != self.current_round {
            self.flush();
            self.current_round = round;
        }
        let boundary = pf.min(pt);
        self.boundary_bits[boundary] += bits;
        self.round_acc[boundary] += bits;
        self.total_bits += bits;
    }
}

/// Which player simulates a given area block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Owner {
    /// Alice simulates this block.
    Alice,
    /// Bob simulates this block.
    Bob,
}

/// The Figure 6/7 block schedule of Theorem 11's simulation, with exact
/// accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TwoPartyPlan {
    /// Rounds `r` of the simulated distributed algorithm.
    pub rounds: u64,
    /// Separation depth `d`.
    pub depth: u64,
    /// Bandwidth `bw` (qubits per edge per round) of the simulated network.
    pub bw_qubits: u64,
    /// Per-node memory `s` of the intermediate nodes.
    pub mem_qubits: u64,
}

impl TwoPartyPlan {
    /// Plans the simulation of an `r`-round algorithm.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    pub fn new(rounds: u64, depth: u64, bw_qubits: u64, mem_qubits: u64) -> Self {
        assert!(depth > 0, "separation depth must be positive");
        TwoPartyPlan {
            rounds,
            depth,
            bw_qubits,
            mem_qubits,
        }
    }

    /// Number of area blocks (`⌈r/d⌉`, the `s` loop of the proof).
    pub fn turns(&self) -> u64 {
        self.rounds.div_ceil(self.depth).max(1)
    }

    /// The player simulating block `s` (1-indexed): Bob for odd `s`, Alice
    /// for even `s` (as in the proof).
    pub fn owner(&self, turn: u64) -> Owner {
        if turn % 2 == 1 {
            Owner::Bob
        } else {
            Owner::Alice
        }
    }

    /// Qubits handed over at the end of each block: the `O(d)` message
    /// registers (`bw` each) plus the `d` private registers (`s` each).
    pub fn qubits_per_turn(&self) -> u64 {
        self.depth * (self.bw_qubits + self.mem_qubits)
    }

    /// Total two-party messages: one per block plus the final output.
    pub fn messages(&self) -> u64 {
        self.turns() + 1
    }

    /// Total qubits communicated: `O(r · (bw + s))`.
    pub fn total_qubits(&self) -> u64 {
        self.turns() * self.qubits_per_turn() + 1
    }
}

/// Result of the end-to-end Theorem 10/3 pipeline.
#[derive(Clone, Debug)]
pub struct DisjViaDiameter {
    /// The recovered disjointness value (`true` = disjoint).
    pub answer: bool,
    /// The measured diameter of `G'_n(x, y)`.
    pub diameter: graphs::Dist,
    /// Rounds of the real distributed diameter computation that was run.
    pub distributed_rounds: u64,
    /// The two-party simulation cost of that run (Theorem 11 accounting).
    pub plan: TwoPartyPlan,
}

/// Result of the Theorem 10 pipeline on an *unstretched* gadget.
#[derive(Clone, Debug)]
pub struct GadgetSimulation {
    /// The recovered disjointness value.
    pub answer: bool,
    /// The measured diameter of `G_n(x, y)`.
    pub diameter: graphs::Dist,
    /// Rounds `r` of the distributed diameter computation.
    pub distributed_rounds: u64,
    /// Two-party messages: 2 per simulated round (one each way), as in
    /// Theorem 10's proof.
    pub messages: u64,
    /// Total qubits: `O(r · b · log n)` — each message carries the traffic
    /// of all `b` cut edges for one round.
    pub qubits: u64,
}

/// Decides `DISJ(x, y)` by running a real distributed exact-diameter
/// computation on a **base** gadget `G_n(x, y)` (Theorem 8/9) and
/// thresholding at `d₁` vs `d₂`, with the **Theorem 10** transcript
/// accounting: Alice and Bob co-simulate the `r`-round run by exchanging,
/// each round, one message per direction carrying the `b` cut edges'
/// traffic (`≤ b·bw` qubits), for `2r` messages and `O(r·b·log n)` qubits
/// total.
///
/// # Errors
///
/// Propagates distributed-run failures.
pub fn decide_disj_via_gadget<R: Reduction>(
    red: &R,
    x: &[bool],
    y: &[bool],
    config: Config,
) -> Result<GadgetSimulation, AlgoError> {
    let instance = red.build(x, y);
    let out = apsp::exact_diameter(&instance.graph, config)?;
    let answer = out.diameter <= red.d1();
    debug_assert_eq!(answer, disj::eval(x, y));
    let r = out.rounds();
    let messages = 2 * r;
    let qubits = messages * red.b() as u64 * config.bandwidth_bits() as u64;
    Ok(GadgetSimulation {
        answer,
        diameter: out.diameter,
        distributed_rounds: r,
        messages,
        qubits,
    })
}

/// Decides `DISJ(x, y)` by running a *real* distributed exact-diameter
/// computation on the stretched gadget `G'_n(x, y)` and thresholding at
/// `d + d₁` vs `d + d₂`, reporting the Theorem 11 two-party cost of the
/// run.
///
/// `mem_qubits` is the per-node memory to charge in the plan (use the
/// algorithm's `O(log n)` footprint, or the quantum algorithms'
/// `O(log² n)`).
///
/// # Errors
///
/// Propagates distributed-run failures.
pub fn decide_disj_via_diameter<R: Reduction>(
    stretched: &StretchedReduction<R>,
    x: &[bool],
    y: &[bool],
    mem_qubits: u64,
    config: Config,
) -> Result<DisjViaDiameter, AlgoError> {
    let instance = stretched.build(x, y);
    let out = apsp::exact_diameter(&instance.graph, config)?;
    let answer = out.diameter <= stretched.d1();
    debug_assert!(
        out.diameter <= stretched.d1() || out.diameter >= stretched.d2(),
        "diameter {} fell in the forbidden gap",
        out.diameter
    );
    debug_assert_eq!(answer, disj::eval(x, y));
    let plan = TwoPartyPlan::new(
        out.rounds(),
        stretched.depth() as u64,
        config.bandwidth_bits() as u64,
        mem_qubits,
    );
    Ok(DisjViaDiameter {
        answer,
        diameter: out.diameter,
        distributed_rounds: out.rounds(),
        plan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bit_gadget::BitGadgetReduction;
    use crate::stretch::{self, StretchedReduction};
    use classical::leader;
    use congest::{Config, Network, NodeProgram};

    #[test]
    fn path_network_partition_is_layered() {
        let net = stretch::path_network(6);
        let p = Partition::for_path_network(&net);
        assert!(p.is_layered(&net.graph));
        assert_eq!(p.side(net.a), Side::Alice);
        assert_eq!(p.side(net.b), Side::Bob);
        assert_eq!(p.side(NodeId::new(3)), Side::Layer(3));
        assert_eq!(p.depth(), 6);
    }

    #[test]
    fn stretched_partition_is_layered() {
        let red = StretchedReduction::new(BitGadgetReduction::new(8), 5);
        let (x, y) = disj::random_instance(8, false, 2);
        let sg = red.build_layered(&x, &y);
        let p = Partition::for_stretched(&sg);
        assert!(
            p.is_layered(&sg.inner.graph),
            "stretched gadget must be layered"
        );
    }

    /// Real run on a stretched gadget: per-round boundary traffic is
    /// bounded by b · bw — the quantity Theorem 11 forwards per block.
    #[test]
    fn cut_traffic_is_bounded_by_b_times_bw() {
        let base = BitGadgetReduction::new(8);
        let b = base.b() as u64;
        let red = StretchedReduction::new(base, 4);
        let (x, y) = disj::random_instance(8, true, 5);
        let sg = red.build_layered(&x, &y);
        let p = Partition::for_stretched(&sg);
        let config = Config::for_graph(&sg.inner.graph);
        // Run a real protocol (leader election) with the meter attached.
        let graph = &sg.inner.graph;
        let mut net = Network::new(graph, config, |v| LeaderProbe { best: u32::from(v) });
        let traffic = CutTraffic::shared(p);
        {
            let _meter = trace::install(traffic.clone());
            net.run_until_quiescent(10_000).unwrap();
        }
        let mut t = traffic.borrow_mut();
        t.finalize();
        assert!(t.total_bits > 0, "the election must cross the cut");
        let cap = b * config.bandwidth_bits() as u64;
        assert!(
            t.max_boundary_round_bits <= cap,
            "boundary traffic {} exceeds b·bw = {cap}",
            t.max_boundary_round_bits
        );
        assert_eq!(t.boundary_bits.len(), 5);
    }

    /// Minimal min-id flood used as the measured protocol above.
    struct LeaderProbe {
        best: u32,
    }
    #[derive(Clone, Debug)]
    struct Cand(u32);
    impl congest::Payload for Cand {
        fn size_bits(&self) -> usize {
            16
        }
    }
    impl NodeProgram for LeaderProbe {
        type Msg = Cand;
        type Output = u32;
        fn on_round(&mut self, ctx: &mut congest::RoundCtx<'_, Cand>) -> congest::Status {
            let mut improved = ctx.round() == 0;
            for &(_, Cand(v)) in ctx.inbox() {
                if v < self.best {
                    self.best = v;
                    improved = true;
                }
            }
            if improved {
                ctx.broadcast(Cand(self.best));
            }
            // Min-id flood: message-driven after round 0, so `Halted` is
            // the precise active-set vote.
            congest::Status::Halted
        }
        fn finish(self, _node: NodeId) -> u32 {
            self.best
        }
    }

    #[test]
    fn plan_accounting_matches_theorem11() {
        let plan = TwoPartyPlan::new(1000, 50, 8, 32);
        assert_eq!(plan.turns(), 20); // ⌈r/d⌉
        assert_eq!(plan.messages(), 21);
        assert_eq!(plan.qubits_per_turn(), 50 * (8 + 32)); // O(d(bw+s))
        assert_eq!(plan.total_qubits(), 20 * 2000 + 1); // O(r(bw+s))
        assert_eq!(plan.owner(1), Owner::Bob);
        assert_eq!(plan.owner(2), Owner::Alice);
        // Message count scales inversely with d at fixed r.
        let deep = TwoPartyPlan::new(1000, 200, 8, 32);
        assert_eq!(deep.turns(), 5);
    }

    #[test]
    fn disj_decision_end_to_end() {
        let red = StretchedReduction::new(BitGadgetReduction::new(6), 3);
        for seed in 0..3 {
            for disjoint in [true, false] {
                let (x, y) = disj::random_instance(6, disjoint, seed);
                let g = red.build(&x, &y);
                let config = Config::for_graph(&g.graph);
                let out = decide_disj_via_diameter(&red, &x, &y, 64, config).unwrap();
                assert_eq!(out.answer, disjoint, "seed {seed}");
                if disjoint {
                    assert!(out.diameter <= red.d1());
                } else {
                    assert!(out.diameter >= red.d2());
                }
                assert!(out.plan.messages() <= out.distributed_rounds / 3 + 2);
            }
        }
    }

    /// Theorem 10 end-to-end on the HW (Figure 4) gadget: the distributed
    /// run decides DISJ; the simulation transcript has 2r messages of
    /// b·bw qubits each.
    #[test]
    fn gadget_simulation_theorem10() {
        use crate::hw::HwReduction;
        let red = HwReduction::new(2);
        for seed in 0..3 {
            for disjoint in [true, false] {
                let (x, y) = disj::random_instance(red.k(), disjoint, seed);
                let g = red.build(&x, &y);
                let config = Config::for_graph(&g.graph);
                let out = decide_disj_via_gadget(&red, &x, &y, config).unwrap();
                assert_eq!(out.answer, disjoint, "seed {seed}");
                assert_eq!(out.messages, 2 * out.distributed_rounds);
                assert_eq!(
                    out.qubits,
                    out.messages * red.b() as u64 * config.bandwidth_bits() as u64
                );
                if disjoint {
                    assert!(out.diameter <= 2);
                } else {
                    assert!(out.diameter >= 3);
                }
            }
        }
    }

    #[test]
    fn leader_probe_converges() {
        // Sanity: the probe protocol itself elects node 0.
        let net = stretch::path_network(3);
        let out = leader::elect(&net.graph, Config::for_graph(&net.graph)).unwrap();
        assert_eq!(out.leader, NodeId::new(0));
    }

    #[test]
    #[should_panic(expected = "layer 9 outside")]
    fn partition_validates_layers() {
        Partition::new(vec![Side::Layer(9)], 3);
    }
}
