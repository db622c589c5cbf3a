//! Property-based tests (proptest) over randomized graph and input spaces:
//! the paper's lemmas and guarantees as machine-checked invariants.

use congest::reference::Reference;
use congest_diameter::prelude::*;
use proptest::prelude::*;

use commcc::bit_gadget::BitGadgetReduction;
use commcc::hw::HwReduction;
use commcc::reduction::{check_instance, Reduction};
use commcc::stretch::StretchedReduction;
use graphs::tree::{EulerTour, RootedTree};
use quantum_diameter::dfs_window::{min_coverage, Windows};

/// A connected random graph described by (n, density, seed).
fn arb_graph() -> impl Strategy<Value = graphs::Graph> {
    (3usize..28, 0usize..3, 0u64..1_000_000).prop_map(|(n, density, seed)| {
        let p = [0.08, 0.15, 0.3][density];
        graphs::generators::random_connected(n, p, seed)
    })
}

/// A random connected tree.
fn arb_tree() -> impl Strategy<Value = graphs::Graph> {
    (2usize..30, 0u64..1_000_000).prop_map(|(n, seed)| graphs::generators::random_tree(n, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The distributed BFS (Figure 1) matches the centralized reference on
    /// arbitrary connected graphs and roots.
    #[test]
    fn distributed_bfs_matches_reference(g in arb_graph(), root_sel in 0usize..1000) {
        let root = NodeId::new(root_sel % g.len());
        let cfg = Config::for_graph(&g);
        let out = classical::bfs::build(&g, root, cfg).unwrap();
        let reference = graphs::traversal::Bfs::run(&g, root);
        for v in g.nodes() {
            prop_assert_eq!(Some(out.dists[v.index()]), reference.dist(v));
        }
        prop_assert_eq!(u64::from(out.depth) + 2, out.stats.rounds);
    }

    /// Lemma 1: with window width 2d over the Euler tour of a depth-d BFS
    /// tree, every node is covered by at least a d/2n fraction of windows.
    #[test]
    fn lemma1_coverage(g in arb_graph()) {
        let bfs = graphs::traversal::Bfs::run(&g, NodeId::new(0));
        let d = bfs.eccentricity().unwrap();
        prop_assume!(d >= 1);
        let tree = RootedTree::from_bfs(&bfs).unwrap();
        let tour = EulerTour::new(&tree);
        let windows = Windows::new(&tour, 2 * d as usize);
        let bound = f64::from(d) / (2.0 * g.len() as f64);
        prop_assert!(min_coverage(&windows) >= bound - 1e-12);
    }

    /// Maximizing the window function always yields the diameter
    /// (Equation 2's key property).
    #[test]
    fn window_max_peaks_at_diameter(g in arb_graph()) {
        let bfs = graphs::traversal::Bfs::run(&g, NodeId::new(0));
        let d = bfs.eccentricity().unwrap();
        let tree = RootedTree::from_bfs(&bfs).unwrap();
        let tour = EulerTour::new(&tree);
        let windows = Windows::new(&tour, 2 * d as usize);
        let eccs = graphs::metrics::eccentricities(&g).unwrap();
        let f = windows.window_max(&eccs);
        prop_assert_eq!(
            f.into_iter().max().unwrap(),
            graphs::metrics::diameter(&g).unwrap()
        );
    }

    /// The classical exact-diameter pipeline is correct on arbitrary
    /// connected graphs.
    #[test]
    fn classical_exact_diameter_correct(g in arb_graph()) {
        let cfg = Config::for_graph(&g);
        let out = classical::apsp::exact_diameter(&g, cfg).unwrap();
        prop_assert_eq!(Some(out.diameter), graphs::metrics::diameter(&g));
    }

    /// The quantum exact algorithm (Theorem 1) is correct on arbitrary
    /// connected graphs (δ = 10⁻³; a proptest run has ~24 cases so the
    /// expected number of quantum failures is ≪ 1).
    #[test]
    fn quantum_exact_diameter_correct(g in arb_graph(), seed in 0u64..1000) {
        let cfg = Config::for_graph(&g);
        let out = quantum_diameter::exact::diameter(
            &g,
            ExactParams::new(seed).with_failure_prob(1e-3),
            cfg,
        ).unwrap();
        prop_assert_eq!(Some(out.value), graphs::metrics::diameter(&g));
    }

    /// Trees: the DFS tour is an Euler tour (every edge visited exactly
    /// twice) and the distributed walk reproduces it from any start.
    #[test]
    fn dfs_walk_reproduces_tour_on_trees(g in arb_tree(), start_sel in 0usize..1000) {
        let cfg = Config::for_graph(&g);
        let b = classical::bfs::build(&g, NodeId::new(0), cfg).unwrap();
        let view = classical::TreeView::from(&b);
        let rooted = RootedTree::from_parents(&b.parents).unwrap();
        let tour = EulerTour::new(&rooted);
        let start = NodeId::new(start_sel % g.len());
        let steps = (tour.len() as u64).min(2 * u64::from(b.depth)).max(1);
        let walk = classical::dfs_walk::walk(&g, &view, start, steps, cfg).unwrap();
        let expected = tour.segment_first_visits(tour.tau(start), steps as usize);
        for (v, offset) in expected {
            prop_assert_eq!(walk.tau[v.index()], Some(offset as u64));
        }
    }

    /// The HW reduction (Theorem 8) satisfies Definition 3 on arbitrary
    /// inputs.
    #[test]
    fn hw_reduction_contract(s in 1usize..5, xm in any::<u64>(), ym in any::<u64>()) {
        let red = HwReduction::new(s);
        let k = red.k();
        let x: Vec<bool> = (0..k).map(|i| xm >> (i % 64) & 1 == 1).collect();
        let y: Vec<bool> = (0..k).map(|i| ym >> (i % 64) & 1 == 1).collect();
        prop_assert!(check_instance(&red, &x, &y).is_ok());
    }

    /// The bit-gadget reduction (Theorem 9 class) satisfies Definition 3 on
    /// arbitrary inputs, including non-power-of-two k.
    #[test]
    fn bit_gadget_contract(k in 2usize..24, xm in any::<u64>(), ym in any::<u64>()) {
        let red = BitGadgetReduction::new(k);
        let x: Vec<bool> = (0..k).map(|i| xm >> i & 1 == 1).collect();
        let y: Vec<bool> = (0..k).map(|i| ym >> i & 1 == 1).collect();
        prop_assert!(check_instance(&red, &x, &y).is_ok());
    }

    /// Figure 8: stretching preserves the reduction contract with the gap
    /// shifted by d.
    #[test]
    fn stretched_reduction_contract(
        k in 2usize..10,
        d in 1usize..7,
        xm in any::<u32>(),
        ym in any::<u32>(),
    ) {
        let red = StretchedReduction::new(BitGadgetReduction::new(k), d);
        let x: Vec<bool> = (0..k).map(|i| xm >> i & 1 == 1).collect();
        let y: Vec<bool> = (0..k).map(|i| ym >> i & 1 == 1).collect();
        prop_assert!(check_instance(&red, &x, &y).is_ok());
        prop_assert_eq!(red.num_nodes(), red.base().num_nodes() + red.b() * d);
    }

    /// Amplitude amplification finds a planted element whenever one exists
    /// (δ = 10⁻³ per call).
    #[test]
    fn amplify_finds_planted_elements(n in 8usize..256, target_sel in 0usize..1000, seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        let target = target_sel % n;
        let init = SearchState::uniform(n);
        let params = quantum::AmplifyParams::with_min_mass(1.0 / n as f64)
            .with_failure_prob(1e-3);
        let mut rng = StdRng::seed_from_u64(seed);
        let out = quantum::amplify(&init, |x| x == target, params, &mut rng).unwrap();
        prop_assert_eq!(out.found, Some(target));
    }

    /// Grover evolution preserves the norm and matches the closed form for
    /// arbitrary marked fractions.
    #[test]
    fn grover_closed_form(n in 4usize..128, marked_count in 1usize..4, k in 0u64..12) {
        let init = SearchState::uniform(n);
        let mut s = init.clone();
        let m = marked_count.min(n);
        let marked = |x: usize| x < m;
        s.grover_iterations(&init, marked, k);
        let expect = SearchState::grover_success_probability(m as f64 / n as f64, k);
        prop_assert!((s.probability_of(marked) - expect).abs() < 1e-9);
        prop_assert!((s.norm_squared() - 1.0).abs() < 1e-9);
    }

    /// LP13 source detection matches the centralized reference for
    /// arbitrary source sets and parameters.
    #[test]
    fn source_detection_matches_reference(
        g in arb_graph(),
        src_mask in any::<u32>(),
        gamma in 1usize..5,
        sigma in 1u32..12,
    ) {
        let sources: Vec<NodeId> = (0..g.len())
            .filter(|&i| src_mask >> (i % 32) & 1 == 1)
            .map(NodeId::new)
            .collect();
        let cfg = Config::for_graph(&g);
        let out = classical::source_detection::detect(&g, &sources, gamma, sigma, cfg).unwrap();
        let expect = classical::source_detection::reference(&g, &sources, gamma, sigma);
        prop_assert_eq!(out.lists, expect);
    }

    /// The distributed girth computation (PRT12) matches the centralized
    /// edge-removal reference on arbitrary connected graphs.
    #[test]
    fn distributed_girth_matches_reference(g in arb_graph()) {
        let cfg = Config::for_graph(&g);
        let out = classical::girth::compute(&g, cfg).unwrap();
        prop_assert_eq!(out.girth, graphs::metrics::girth(&g));
    }

    /// The BCW98 quantum disjointness protocol is correct and its
    /// transcript respects the BGK lower bound on arbitrary inputs.
    #[test]
    fn qdisj_protocol_correct(k in 4usize..128, xm in any::<u128>(), ym in any::<u128>(), seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        let x: Vec<bool> = (0..k).map(|i| xm >> (i % 128) & 1 == 1).collect();
        let y: Vec<bool> = (0..k).map(|i| ym >> (i % 128) & 1 == 1).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let out = commcc::qdisj::run(&x, &y, 1e-3, &mut rng).unwrap();
        prop_assert_eq!(out.disjoint, commcc::disj::eval(&x, &y));
        if let Some(w) = out.witness {
            prop_assert!(x[w] && y[w]);
        }
        // The BGK bound constrains worst-case transcripts; only disjoint
        // inputs exercise the full budget (intersecting ones may finish
        // after a lucky early measurement).
        if out.disjoint {
            let lb = commcc::bounds::bgk_qubits_lower_bound(k as u64, out.messages);
            prop_assert!(out.qubits as f64 >= lb);
        }
    }

    /// The CONGEST simulator is deterministic: identical runs produce
    /// identical stats on arbitrary graphs.
    #[test]
    fn simulator_determinism(g in arb_graph()) {
        let cfg = Config::for_graph(&g);
        let run = || classical::apsp::exact_diameter(&g, cfg).unwrap();
        let a = run();
        let b = run();
        prop_assert_eq!(a.diameter, b.diameter);
        prop_assert_eq!(a.ledger.total_rounds(), b.ledger.total_rounds());
        prop_assert_eq!(a.ledger.total_bits(), b.ledger.total_bits());
    }
}

/// Min-id flood: the message-heavy scheduler workload (every node floods
/// the smallest id it has seen until quiescence).
#[derive(Clone, Debug)]
struct IdMsg(u32, usize);
impl congest::Payload for IdMsg {
    fn size_bits(&self) -> usize {
        congest::bits::for_node(self.1)
    }
}
struct MinIdFlood {
    best: u32,
}
impl congest::NodeProgram for MinIdFlood {
    type Msg = IdMsg;
    type Output = u32;
    fn on_round(&mut self, ctx: &mut congest::RoundCtx<'_, IdMsg>) -> congest::Status {
        let mut improved = ctx.round() == 0;
        for &(_, IdMsg(v, _)) in ctx.inbox() {
            if v < self.best {
                self.best = v;
                improved = true;
            }
        }
        if improved {
            ctx.broadcast(IdMsg(self.best, ctx.num_nodes()));
        }
        congest::Status::Halted
    }
    fn finish(self, _node: NodeId) -> u32 {
        self.best
    }
}

/// Runs `f` with a fresh trace recorder installed, returning its result
/// and the skip-expanded event stream.
fn traced<T>(f: impl FnOnce() -> T) -> (T, Vec<trace::TraceEvent>) {
    let recorder = trace::Recorder::shared();
    let out = {
        let _guard = trace::install(recorder.clone());
        f()
    };
    let events = recorder.borrow_mut().take();
    (out, trace::expand_round_skips(events))
}

/// Runs the flood under `cfg` with a recorder installed, returning
/// everything the determinism contract covers: outputs, stats, and the
/// full trace event stream.
fn flood_run(g: &Graph, cfg: Config) -> (RunStats, Vec<u32>, Vec<trace::TraceEvent>) {
    let ((stats, outputs), events) = traced(|| {
        let mut net = congest::Network::new(g, cfg, |v| MinIdFlood { best: u32::from(v) });
        let stats = net.run_until_quiescent(100_000).unwrap();
        (stats, net.into_outputs())
    });
    (stats, outputs, events)
}

/// [`flood_run`] on the reference simulator.
fn reference_flood_run(g: &Graph, cfg: Config) -> (RunStats, Vec<u32>, Vec<trace::TraceEvent>) {
    let ((stats, outputs), events) = traced(|| {
        let mut reference = Reference::new(g, cfg, |v| MinIdFlood { best: u32::from(v) });
        let stats = reference.run_until_quiescent(100_000).unwrap();
        assert_eq!(reference.breach(), None);
        (stats, reference.into_outputs())
    });
    (stats, outputs, events)
}

/// The *seed* scheduler's semantics, hand-rolled: per-round reallocation,
/// per-node inbox sort, linear duplicate scan. Returns the flood's outputs
/// and the accounting the seed scheduler would have reported, as the
/// pre-change reference the reworked scheduler must still match.
fn seed_reference_flood(g: &Graph) -> (Vec<u32>, u64, u64, u64) {
    let n = g.len();
    let msg_bits = congest::bits::for_node(n) as u64;
    let mut best: Vec<u32> = (0..n as u32).collect();
    let mut inboxes: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
    let (mut rounds, mut messages, mut total_bits) = (0u64, 0u64, 0u64);
    let mut in_flight = 0usize;
    loop {
        if rounds > 0 && in_flight == 0 {
            break;
        }
        let mut current = std::mem::replace(&mut inboxes, vec![Vec::new(); n]);
        in_flight = 0;
        for i in 0..n {
            let mut inbox = std::mem::take(&mut current[i]);
            inbox.sort_by_key(|&(from, _)| from);
            let mut improved = rounds == 0;
            for &(_, v) in &inbox {
                if v < best[i] {
                    best[i] = v;
                    improved = true;
                }
            }
            if !improved {
                continue;
            }
            let mut sent_to: Vec<usize> = Vec::new();
            for &to in g.neighbors(NodeId::new(i)) {
                assert!(!sent_to.contains(&to.index()));
                sent_to.push(to.index());
                messages += 1;
                total_bits += msg_bits;
                inboxes[to.index()].push((i, best[i]));
                in_flight += 1;
            }
        }
        rounds += 1;
    }
    (best, rounds, messages, total_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The reworked scheduler still matches the seed scheduler's outputs
    /// and accounting on a message-heavy flood.
    #[test]
    fn flood_matches_seed_scheduler(g in arb_graph()) {
        let (stats, outputs, _) = flood_run(&g, Config::for_graph(&g));

        // Against the pre-change sequential scheduler's semantics.
        let (seed_outputs, seed_rounds, seed_messages, seed_bits) = seed_reference_flood(&g);
        prop_assert_eq!(&outputs, &seed_outputs);
        prop_assert_eq!(stats.rounds, seed_rounds);
        prop_assert_eq!(stats.messages, seed_messages);
        prop_assert_eq!(stats.total_bits, seed_bits);
        prop_assert!(outputs.iter().all(|&b| b == 0));
    }

    /// The Figure 2 pipelined wave phase computes every node's
    /// `max_u d(u, v)`, checked against the centralized BFS ground truth.
    #[test]
    fn waves_match_bfs_ground_truth(g in arb_graph()) {
        let cfg = Config::for_graph(&g);
        let root = NodeId::new(0);
        let b = classical::bfs::build(&g, root, cfg).unwrap();
        let view = classical::TreeView::from(&b);
        let steps = 2 * (g.len() as u64 - 1);
        let dfs = classical::dfs_walk::walk(&g, &view, root, steps, cfg).unwrap();
        let sources: Vec<(NodeId, u64)> = g
            .nodes()
            .map(|v| (v, dfs.tau[v.index()].unwrap()))
            .collect();
        let duration = 2 * steps + g.len() as u64 + 2;

        let max_dist = classical::waves::run(&g, &sources, duration, cfg).unwrap().max_dist;
        for v in g.nodes() {
            let expect = g
                .nodes()
                .map(|u| graphs::traversal::Bfs::run(&g, u).dist(v).unwrap())
                .max()
                .unwrap();
            prop_assert_eq!(max_dist[v.index()], expect, "node {}", v);
        }
    }
}

/// Timed-wakeup beacon workload: every node sleeps until its own wake
/// round, broadcasts its id once, and goes quiet; receivers accumulate
/// what they hear but stay message-driven. Scattered wakes leave long
/// fully-quiescent stretches, so this is the fast-forward stress case —
/// and nodes woken early by a neighbour's beacon re-vote `Sleep`, which
/// doubles wakeup-heap entries on purpose.
struct Beacon {
    wake: u64,
    n: usize,
    heard: u64,
}
impl congest::NodeProgram for Beacon {
    type Msg = IdMsg;
    type Output = u64;
    fn on_round(&mut self, ctx: &mut congest::RoundCtx<'_, IdMsg>) -> congest::Status {
        for &(_, IdMsg(v, _)) in ctx.inbox() {
            self.heard += u64::from(v);
        }
        if ctx.round() == self.wake {
            ctx.broadcast(IdMsg(ctx.node().index() as u32, self.n));
        }
        if ctx.round() < self.wake {
            congest::Status::Sleep(self.wake)
        } else {
            congest::Status::Halted
        }
    }
    fn finish(self, _node: NodeId) -> u64 {
        self.heard
    }
}

/// Runs the beacon workload under `cfg` on `Network` (or, with
/// `reference`, on the reference simulator), returning stats, outputs,
/// the skip-expanded trace, and how many node executions were paid for.
fn beacon_run(
    g: &Graph,
    cfg: Config,
    wakes: &[u64],
    reference: bool,
) -> (RunStats, Vec<u64>, Vec<trace::TraceEvent>, u64) {
    let beacon = |v: NodeId| Beacon {
        wake: wakes[v.index()],
        n: g.len(),
        heard: 0,
    };
    let cap = wakes.iter().max().unwrap() + 4;
    let ((stats, outputs, scheduled), events) = traced(|| {
        if reference {
            let mut reference = Reference::new(g, cfg, beacon);
            let stats = reference.run_until_quiescent(cap).unwrap();
            assert_eq!(reference.breach(), None);
            (stats, reference.into_outputs(), stats.scheduled_nodes)
        } else {
            let mut net = congest::Network::new(g, cfg, beacon);
            let stats = net.run_until_quiescent(cap).unwrap();
            let scheduled = net.scheduled_nodes();
            (stats, net.into_outputs(), scheduled)
        }
    });
    (stats, outputs, events, scheduled)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The network is byte-identical to the reference simulator on the
    /// message-heavy flood (outputs, stats, trace events). The flood keeps
    /// most nodes halted after their last improvement, so halted-node
    /// skipping is on the hot path here.
    #[test]
    fn scheduling_flood_equivalence(g in arb_graph()) {
        let cfg = Config::for_graph(&g);
        let (stats, outputs, events) = reference_flood_run(&g, cfg);
        let (s, o, e) = flood_run(&g, cfg);
        prop_assert_eq!(s, stats, "stats diverged");
        prop_assert_eq!(&o, &outputs, "outputs diverged");
        prop_assert_eq!(&e, &events, "trace diverged");
    }

    /// The Figure 2 wave phase, whose sources vote `Sleep(start)` until
    /// their staggered start rounds — the production workload the
    /// timed-wakeup queue was built for. The wave program itself is checked
    /// against the reference simulator in `classical::waves`; at driver
    /// level, a run replays byte-identically and its fast-forwarded trace
    /// accounts for every round, message and bit of its stats.
    #[test]
    fn scheduling_waves_equivalence(g in arb_graph()) {
        let cfg = Config::for_graph(&g);
        let root = NodeId::new(0);
        let b = classical::bfs::build(&g, root, cfg).unwrap();
        let view = classical::TreeView::from(&b);
        let steps = 2 * (g.len() as u64 - 1);
        let dfs = classical::dfs_walk::walk(&g, &view, root, steps, cfg).unwrap();
        let sources: Vec<(NodeId, u64)> = g
            .nodes()
            .map(|v| (v, dfs.tau[v.index()].unwrap()))
            .collect();
        let duration = 2 * steps + g.len() as u64 + 2;

        let wave_run = || {
            let (out, events) = traced(|| {
                classical::waves::run(&g, &sources, duration, cfg).unwrap()
            });
            (out.max_dist, out.stats, events)
        };
        let (max_dist, stats, events) = wave_run();
        let summary = trace::Summary::from_events(&events);
        prop_assert_eq!(summary.round_ticks, duration);
        prop_assert_eq!(summary.messages_delivered, stats.messages);
        prop_assert_eq!(summary.bits_delivered, stats.total_bits);
        let (max_dist_k, stats_k, events_k) = wave_run();
        prop_assert_eq!(&max_dist_k, &max_dist, "outputs diverged");
        prop_assert_eq!(stats_k, stats, "stats diverged");
        prop_assert_eq!(&events_k, &events, "trace diverged");
    }

    /// The beacon workload's scattered wakes leave long fully-quiescent
    /// stretches: fast-forward must skip them without perturbing stats,
    /// outputs, or the round-tick trace of the stepping reference, and
    /// never execute more nodes than it.
    #[test]
    fn scheduling_beacon_fast_forward_equivalence(g in arb_graph(), wseed in any::<u64>()) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(wseed);
        let wakes: Vec<u64> = (0..g.len()).map(|_| rng.random_range(0..60)).collect();
        let cfg = Config::for_graph(&g);
        let (stats, outputs, events, every) = beacon_run(&g, cfg, &wakes, true);
        prop_assert_eq!(every, g.len() as u64 * stats.rounds);
        let (s, o, e, sched) = beacon_run(&g, cfg, &wakes, false);
        prop_assert_eq!(s, stats, "stats diverged");
        prop_assert_eq!(&o, &outputs, "outputs diverged");
        prop_assert_eq!(&e, &events, "trace diverged");
        prop_assert!(sched <= every, "active set scheduled more than every node");
    }
}

/// Runs the paper's classical driver suite — BFS (Figure 1), the exact
/// APSP pipeline, a convergecast aggregation, and a single-node
/// eccentricity — back-to-back under one recorder, returning per-driver
/// output keys, per-driver stats, and the combined skip-expanded trace
/// stream. Every driver in the suite votes `Halted`/`Sleep` instead of
/// idling, so this is the coverage for the vote-and-wake contract across
/// the Table 1 workloads.
fn driver_suite_run(
    g: &Graph,
    cfg: Config,
) -> (Vec<String>, Vec<RunStats>, Vec<trace::TraceEvent>) {
    let ((keys, stats), events) = traced(|| {
        let mut keys = Vec::new();
        let mut stats = Vec::new();
        let root = NodeId::new(0);

        let b = classical::bfs::build(g, root, cfg).unwrap();
        keys.push(format!("bfs {:?} {:?}", b.dists, b.parents));
        stats.push(b.stats);

        let apsp = classical::apsp::exact_diameter(g, cfg).unwrap();
        keys.push(format!(
            "apsp {} {:?} {} {} {}",
            apsp.diameter,
            apsp.eccentricities,
            apsp.ledger.total_rounds(),
            apsp.ledger.total_messages(),
            apsp.ledger.total_bits(),
        ));

        let tree = classical::TreeView::from(&b);
        let values: Vec<u64> = (0..g.len() as u64).collect();
        let agg = classical::aggregate::convergecast(
            g,
            &tree,
            &values,
            congest::bits::for_node(g.len()),
            classical::aggregate::Op::Max,
            cfg,
        )
        .unwrap();
        keys.push(format!("aggregate {} {}", agg.value, agg.witness));
        stats.push(agg.stats);

        let e = classical::ecc::compute(g, root, cfg).unwrap();
        keys.push(format!("ecc {}", e.ecc));
        stats.push(e.stats);

        (keys, stats)
    });
    (keys, stats, events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every hot classical driver — BFS, APSP, convergecast aggregation,
    /// and eccentricity. Their node programs are checked against the
    /// reference simulator in their own modules; at driver level, the
    /// suite replays byte-identically (outputs, `RunStats`, skip-expanded
    /// trace) and answers like the centralized ground truth.
    #[test]
    fn scheduling_driver_suite_equivalence(g in arb_graph()) {
        let cfg = Config::for_graph(&g);
        let (keys, stats, events) = driver_suite_run(&g, cfg);
        let truth = graphs::metrics::diameter(&g).unwrap();
        prop_assert!(keys[1].starts_with(&format!("apsp {truth} ")), "{}", &keys[1]);
        prop_assert_eq!(&keys[2], &format!("aggregate {} v{}", g.len() - 1, g.len() - 1));
        let (keys_k, stats_k, events_k) = driver_suite_run(&g, cfg);
        prop_assert_eq!(&keys_k, &keys, "outputs diverged");
        prop_assert_eq!(&stats_k, &stats, "stats diverged");
        prop_assert_eq!(&events_k, &events, "trace diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Both 3/2-approximations stay within their guarantee on random
    /// graphs (w.h.p. statement checked across the proptest corpus).
    #[test]
    fn approx_guarantees(g in arb_graph(), seed in 0u64..1000) {
        prop_assume!(g.len() >= 6);
        let cfg = Config::for_graph(&g);
        let truth = graphs::metrics::diameter(&g).unwrap();
        let c = classical::hprw::approx_diameter(
            &g,
            classical::hprw::HprwParams::classical(g.len(), seed),
            cfg,
        ).unwrap();
        // The HPRW guarantee is the floor form: ⌊2D/3⌋ ≤ D̄ ≤ D.
        prop_assert!(c.estimate <= truth && c.estimate >= (2 * truth) / 3);
        let q = quantum_diameter::approx::diameter(
            &g,
            ApproxParams::new(seed).with_failure_prob(1e-3),
            cfg,
        ).unwrap();
        prop_assert!(q.estimate <= truth && q.estimate >= (2 * truth) / 3);
    }
}
