//! **Figures 5–7 / Theorem 11**: the path network `G_d` and the
//! area-by-area two-party simulation — an `r`-round distributed algorithm
//! over a depth-`d` layered network compiles to `⌈r/d⌉ + 1` messages and
//! `O(r(bw + s))` qubits, alternating Bob/Alice as in Figure 7.

use bench::{rule, scale};
use commcc::bit_gadget::BitGadgetReduction;
use commcc::disj;
use commcc::simulation::{CutTraffic, Owner, Partition, TwoPartyPlan};
use commcc::stretch::{self, StretchedReduction};
use congest::Network;

fn main() {
    let scale = scale();

    rule("Figure 5: the path network G_d");
    for &d in &[4usize, 16, 64] {
        let net = stretch::path_network(d * scale);
        println!(
            "G_{}: {} nodes, {} edges, d(A, B) = {}",
            d * scale,
            net.graph.len(),
            net.graph.num_edges(),
            graphs::traversal::distance(&net.graph, net.a, net.b).unwrap()
        );
    }

    rule("Figures 6-7: block schedule of the simulation (r = 24, d = 6)");
    let plan = TwoPartyPlan::new(24, 6, 8, 16);
    for turn in 1..=plan.turns() {
        let owner = match plan.owner(turn) {
            Owner::Bob => "Bob  ",
            Owner::Alice => "Alice",
        };
        println!(
            "block {turn}: {owner} simulates rounds {:>2}..{:>2}, then hands over {} qubits",
            (turn - 1) * 6 + 1,
            turn * 6,
            plan.qubits_per_turn()
        );
    }
    println!(
        "+ 1 final output message → {} messages total",
        plan.messages()
    );

    rule("Theorem 11 accounting: messages = ⌈r/d⌉ + 1, qubits = O(r(bw+s))");
    println!(
        "{:>8} {:>6} {:>10} {:>14} {:>14}",
        "r", "d", "messages", "total qubits", "r·(bw+s)"
    );
    let (bw, s) = (16u64, 64u64);
    for &(r, d) in &[
        (100u64, 10u64),
        (1000, 10),
        (1000, 100),
        (10000, 100),
        (10000, 1000),
    ] {
        let plan = TwoPartyPlan::new(r, d, bw, s);
        assert_eq!(plan.messages(), r.div_ceil(d) + 1);
        println!(
            "{:>8} {:>6} {:>10} {:>14} {:>14}",
            r,
            d,
            plan.messages(),
            plan.total_qubits(),
            r * (bw + s)
        );
    }

    rule("measured cut traffic on a real run over G'(x, y)");
    let base = BitGadgetReduction::new(16);
    for &d in &[2usize, 4, 8] {
        let red = StretchedReduction::new(base, d * scale);
        let (x, y) = disj::random_instance(16, false, 3);
        let sg = red.build_layered(&x, &y);
        let partition = Partition::for_stretched(&sg);
        assert!(partition.is_layered(&sg.inner.graph));
        let cfg = bench::config_for(&sg.inner.graph);
        // Run a real protocol (min-id flood) with the boundary meter.
        let mut net = Network::new(&sg.inner.graph, cfg, |v| Probe { best: u32::from(v) });
        let meter = CutTraffic::shared(partition);
        {
            let _meter = trace::install(meter.clone());
            net.run_until_quiescent(100_000).expect("run");
        }
        let mut t = meter.borrow_mut();
        t.finalize();
        let cap = commcc::reduction::Reduction::b(&base) as u64 * cfg.bandwidth_bits() as u64;
        assert!(t.max_boundary_round_bits <= cap);
        println!(
            "d = {:>3}: boundaries = {}, max bits/boundary/round = {} (cap b·bw = {}), total cross bits = {}",
            d * scale,
            t.boundary_bits.len(),
            t.max_boundary_round_bits,
            cap,
            t.total_bits
        );
    }
    println!("\nno round ever pushes more than b·bw bits across a boundary — exactly");
    println!("the register volume each simulation block must hand over (Theorem 11).");
}

struct Probe {
    best: u32,
}

#[derive(Clone, Debug)]
struct Cand(u32);

impl congest::Payload for Cand {
    fn size_bits(&self) -> usize {
        16
    }
}

impl congest::NodeProgram for Probe {
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
        congest::Status::Halted
    }
    fn finish(self, _node: graphs::NodeId) -> u32 {
        self.best
    }
}
