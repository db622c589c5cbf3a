//! Criterion benches for the PRT12/LP13 substrate extensions: distributed
//! girth and (S, γ, σ)-source detection — plus the tracing-overhead and
//! scheduler-hot-loop comparisons guarding the simulator's performance
//! contracts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

use congest::{bits, Config, Network, NodeProgram, Payload, RoundCtx, RunStats, Status};
use graphs::{Graph, NodeId};

fn bench_girth(c: &mut Criterion) {
    let mut group = c.benchmark_group("prt12_girth");
    group.sample_size(10);
    for &n in &[48usize, 96] {
        let g = graphs::generators::random_sparse(n, 5.0, 4);
        let cfg = Config::for_graph(&g);
        group.bench_with_input(BenchmarkId::new("distributed", n), &g, |b, g| {
            b.iter(|| {
                let out = classical::girth::compute(black_box(g), cfg).unwrap();
                black_box(out.girth)
            })
        });
        group.bench_with_input(BenchmarkId::new("centralized_reference", n), &g, |b, g| {
            b.iter(|| black_box(graphs::metrics::girth(black_box(g))))
        });
    }
    group.finish();
}

fn bench_source_detection(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp13_source_detection");
    for &n in &[128usize, 512] {
        let g = graphs::generators::random_sparse(n, 5.0, 5);
        let cfg = Config::for_graph(&g);
        let sources: Vec<NodeId> = (0..n / 16).map(|i| NodeId::new(i * 16)).collect();
        group.bench_with_input(BenchmarkId::new("gamma4_sigma16", n), &g, |b, g| {
            b.iter(|| {
                let out = classical::source_detection::detect(black_box(g), &sources, 4, 16, cfg)
                    .unwrap();
                black_box(out.lists.len())
            })
        });
    }
    group.finish();
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

/// The telemetry layer must be strictly opt-in: with no sink installed,
/// `Network::step` only pays one `trace::current()` thread-local lookup per
/// round (the per-message paths just branch on the resulting `None`). This
/// bench compares the round loop with and without a sink, then bounds the
/// disabled-path overhead directly: rounds × cost(`current()`) must stay
/// under 5% of the whole run.
fn bench_tracing_overhead(c: &mut Criterion) {
    let g = graphs::generators::random_sparse(96, 5.0, 4);
    let cfg = Config::for_graph(&g);

    let mut group = c.benchmark_group("tracing_overhead");
    group.sample_size(10);
    group.bench_function("bfs_tracing_disabled", |b| {
        b.iter(|| {
            let out = classical::bfs::build(black_box(&g), NodeId::new(0), cfg).unwrap();
            black_box(out.depth)
        })
    });
    group.bench_function("bfs_recorder_sink", |b| {
        b.iter(|| {
            let recorder = trace::Recorder::shared();
            let _guard = trace::install(recorder.clone());
            let out = classical::bfs::build(black_box(&g), NodeId::new(0), cfg).unwrap();
            let recorded = recorder.borrow().events().len();
            black_box((out.depth, recorded))
        })
    });
    group.finish();

    let samples = 30;
    let mut run_times = Vec::with_capacity(samples);
    let mut rounds = 0;
    for _ in 0..samples {
        let t = Instant::now();
        let out = classical::bfs::build(&g, NodeId::new(0), cfg).unwrap();
        run_times.push(t.elapsed().as_secs_f64());
        rounds = out.stats.rounds;
    }
    let run_med = median(run_times);

    let calls_per_sample = 10_000u32;
    let mut call_times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..calls_per_sample {
            black_box(trace::current().is_some());
        }
        call_times.push(t.elapsed().as_secs_f64());
    }
    let call_med = median(call_times) / f64::from(calls_per_sample);

    let overhead = (rounds as f64 * call_med) / run_med;
    println!(
        "tracing disabled-path overhead: {:.4}% of the round loop \
         ({rounds} rounds x {:.1} ns per current() lookup)",
        overhead * 100.0,
        call_med * 1e9
    );
    assert!(
        overhead < 0.05,
        "disabled tracing costs {:.2}% of the round loop (budget: 5%)",
        overhead * 100.0
    );
}

/// The cost-metrics layer obeys the same contract as tracing: strictly
/// opt-in. With no registry installed, `Network::step` pays one
/// `metrics::current()` thread-local lookup per round and nothing per
/// message. The criterion group compares a BFS with and without a
/// registry; the trailing gate bounds the disabled path directly —
/// rounds × cost(`current()`) must stay under 5% of the whole run.
fn bench_metrics_overhead(c: &mut Criterion) {
    let g = graphs::generators::random_sparse(96, 5.0, 4);
    let cfg = Config::for_graph(&g);

    let mut group = c.benchmark_group("metrics_overhead");
    group.sample_size(10);
    group.bench_function("bfs_metrics_disabled", |b| {
        b.iter(|| {
            let out = classical::bfs::build(black_box(&g), NodeId::new(0), cfg).unwrap();
            black_box(out.depth)
        })
    });
    group.bench_function("bfs_registry_installed", |b| {
        b.iter(|| {
            let registry = metrics::Registry::shared();
            let _guard = metrics::install(registry.clone());
            let out = classical::bfs::build(black_box(&g), NodeId::new(0), cfg).unwrap();
            let messages = registry.borrow().counter(metrics::names::MESSAGES);
            black_box((out.depth, messages))
        })
    });
    group.finish();

    let samples = 30;
    let mut run_times = Vec::with_capacity(samples);
    let mut rounds = 0;
    for _ in 0..samples {
        let t = Instant::now();
        let out = classical::bfs::build(&g, NodeId::new(0), cfg).unwrap();
        run_times.push(t.elapsed().as_secs_f64());
        rounds = out.stats.rounds;
    }
    let run_med = median(run_times);

    let calls_per_sample = 10_000u32;
    let mut call_times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..calls_per_sample {
            black_box(metrics::current().is_some());
        }
        call_times.push(t.elapsed().as_secs_f64());
    }
    let call_med = median(call_times) / f64::from(calls_per_sample);

    let overhead = (rounds as f64 * call_med) / run_med;
    println!(
        "metrics disabled-path overhead: {:.4}% of the round loop \
         ({rounds} rounds x {:.1} ns per current() lookup)",
        overhead * 100.0,
        call_med * 1e9
    );
    assert!(
        overhead < 0.05,
        "disabled metrics cost {:.2}% of the round loop (budget: 5%)",
        overhead * 100.0
    );
}

/// The message-heavy workload the scheduler rework targets: every node
/// floods the smallest id it has seen, re-broadcasting on every
/// improvement, until quiescence.
#[derive(Clone, Debug)]
struct IdMsg(u32, usize);
impl Payload for IdMsg {
    fn size_bits(&self) -> usize {
        bits::for_node(self.1)
    }
}
struct MinIdFlood {
    best: u32,
}
impl NodeProgram for MinIdFlood {
    type Msg = IdMsg;
    type Output = u32;
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, IdMsg>) -> Status {
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
        Status::Halted
    }
    fn finish(self, _node: NodeId) -> u32 {
        self.best
    }
}

fn flood(g: &Graph, cfg: Config) -> (congest::RunStats, Vec<u32>) {
    let mut net = Network::new(g, cfg, |v| MinIdFlood { best: u32::from(v) });
    let stats = net.run_until_quiescent(100_000).unwrap();
    (stats, net.into_outputs())
}

/// A faithful replica of the *seed* scheduler's hot loop running the same
/// min-id flood: fresh `vec![Vec::new(); n]` inbox tables and one fresh
/// outbox `Vec` per node every round, a per-node `sort_by_key` on the
/// inbox, and the O(deg²) `sent_to.contains` duplicate scan — exactly the
/// costs the reworked `Network::step` removed. Kept as the baseline the
/// `scheduler_hot_loop` gate measures against.
fn seed_replica_flood(g: &Graph) -> (u64, Vec<u32>) {
    let n = g.len();
    let msg_bits = bits::for_node(n);
    let mut best: Vec<u32> = (0..n as u32).collect();
    let mut inboxes: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
    let mut in_flight = 0usize;
    let mut rounds = 0u64;
    let mut messages = 0u64;
    let mut total_bits = 0u64;
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
            let mut outbox: Vec<(usize, u32)> = Vec::new();
            if improved {
                for &to in g.neighbors(NodeId::new(i)) {
                    outbox.push((to.index(), best[i]));
                }
            }
            let mut sent_to: Vec<usize> = Vec::with_capacity(outbox.len());
            for (to, v) in outbox {
                assert!(!sent_to.contains(&to), "duplicate send");
                sent_to.push(to);
                messages += 1;
                total_bits += msg_bits as u64;
                inboxes[to].push((i, v));
                in_flight += 1;
            }
        }
        rounds += 1;
    }
    black_box(total_bits);
    black_box(messages);
    (rounds, best)
}

/// The scheduler rework's performance contract: the allocation-free
/// sequential path must not be slower than the seed scheduler's hot loop
/// (it should be measurably faster). The criterion group gives the full
/// comparison; the trailing gate hard-asserts the
/// sequential bound at <5% overhead, mirroring `tracing_overhead`.
fn bench_scheduler_hot_loop(c: &mut Criterion) {
    let g96 = graphs::generators::random_sparse(96, 5.0, 4);
    let g256 = graphs::generators::random_sparse(256, 6.0, 9);

    // Cross-check before timing: the replica and the scheduler agree on
    // the flood's result and round count, so they do equivalent work.
    for g in [&g96, &g256] {
        let cfg = Config::for_graph(g);
        let (stats, outputs) = flood(g, cfg);
        let (replica_rounds, replica_best) = seed_replica_flood(g);
        assert_eq!(outputs, replica_best, "flood outputs diverge from replica");
        assert_eq!(stats.rounds, replica_rounds, "flood rounds diverge");
    }

    let mut group = c.benchmark_group("scheduler_hot_loop");
    group.sample_size(10);
    for (n, g) in [(96usize, &g96), (256usize, &g256)] {
        let cfg = Config::for_graph(g);
        group.bench_with_input(BenchmarkId::new("seed_replica", n), g, |b, g| {
            b.iter(|| black_box(seed_replica_flood(black_box(g))))
        });
        group.bench_with_input(BenchmarkId::new("sequential", n), g, |b, g| {
            b.iter(|| black_box(flood(black_box(g), cfg)))
        });
    }
    group.finish();

    let samples = 30;
    let cfg = Config::for_graph(&g96);
    let mut seed_times = Vec::with_capacity(samples);
    let mut new_times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        black_box(seed_replica_flood(&g96));
        seed_times.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        black_box(flood(&g96, cfg));
        new_times.push(t.elapsed().as_secs_f64());
    }
    let seed_med = median(seed_times);
    let new_med = median(new_times);
    println!(
        "scheduler hot loop: seed replica {:.1} µs, reworked sequential {:.1} µs \
         ({:+.1}% vs seed)",
        seed_med * 1e6,
        new_med * 1e6,
        (new_med / seed_med - 1.0) * 100.0
    );
    assert!(
        new_med <= seed_med * 1.05,
        "reworked sequential step() is {:.1}% slower than the seed hot loop (budget: 5%)",
        (new_med / seed_med - 1.0) * 100.0
    );
}

/// One DFS token step: the current move index (payload width precomputed
/// by the program).
#[derive(Clone, Debug)]
struct WalkToken(u64, usize);
impl Payload for WalkToken {
    fn size_bits(&self) -> usize {
        self.1
    }
}

/// The sparsest workload the active-set scheduler targets: a single token
/// walking the Euler tour of a spanning tree, so exactly one node has
/// anything to do each round (mirrors `classical::dfs_walk`, inlined here
/// so the bench can read `Network::scheduled_nodes`).
struct TokenWalk {
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    next_child: usize,
    start: bool,
    steps: u64,
    t_bits: usize,
    visits: u64,
}

impl NodeProgram for TokenWalk {
    type Msg = WalkToken;
    type Output = u64;
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, WalkToken>) -> Status {
        let mut token = (self.start && ctx.round() == 0).then_some(0);
        for &(_, WalkToken(t, _)) in ctx.inbox() {
            token = Some(t);
        }
        if let Some(t) = token {
            self.visits += 1;
            if t < self.steps {
                let to = match self.children.get(self.next_child) {
                    Some(&c) => {
                        self.next_child += 1;
                        Some(c)
                    }
                    None => self.parent,
                };
                if let Some(to) = to {
                    ctx.send(to, WalkToken(t + 1, self.t_bits));
                }
            }
        }
        // Token-driven: round 0 is covered by the initial Active status.
        Status::Halted
    }
    fn finish(self, _node: NodeId) -> u64 {
        self.visits
    }
}

/// Runs the full `2(n-1)`-move tour; returns stats, per-node visit
/// counts, and the scheduler's executed-node count.
fn token_walk(g: &Graph, tree: &classical::TreeView, cfg: Config) -> (RunStats, Vec<u64>, u64) {
    let steps = 2 * (g.len() as u64 - 1);
    let t_bits = bits::for_value(steps.max(1));
    let mut net = Network::new(g, cfg, |v| TokenWalk {
        parent: tree.parent(v),
        children: tree.children(v).to_vec(),
        next_child: 0,
        start: v == tree.root(),
        steps,
        t_bits,
        visits: 0,
    });
    let stats = net.run_until_quiescent(steps + 4).unwrap();
    let scheduled = net.scheduled_nodes();
    (stats, net.into_outputs(), scheduled)
}

/// The adversarial counterpart: every node broadcasts every round until a
/// fixed horizon, so the active set is always full and the active-set
/// bookkeeping is pure overhead.
struct Chatter {
    horizon: u64,
    heard: u64,
}

impl NodeProgram for Chatter {
    type Msg = WalkToken;
    type Output = u64;
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, WalkToken>) -> Status {
        for &(_, WalkToken(t, _)) in ctx.inbox() {
            self.heard = self.heard.wrapping_add(t);
        }
        if ctx.round() < self.horizon {
            ctx.broadcast(WalkToken(ctx.round(), bits::for_value(self.horizon)));
            Status::Active
        } else {
            Status::Halted
        }
    }
    fn finish(self, _node: NodeId) -> u64 {
        self.heard
    }
}

fn chatter(g: &Graph, cfg: Config, horizon: u64) -> (RunStats, Vec<u64>, u64) {
    let mut net = Network::new(g, cfg, |_| Chatter { horizon, heard: 0 });
    let stats = net.run_until_quiescent(horizon + 4).unwrap();
    let scheduled = net.scheduled_nodes();
    (stats, net.into_outputs(), scheduled)
}

/// Times two alternatives over `samples` interleaved repetitions (one
/// sample of each per iteration, so slow machine-load drift hits both
/// sides equally) and returns their median seconds.
/// Interleaved A/B timing: ABBA ordering within consecutive pairs (so
/// slow drift on shared hardware cancels instead of always penalising
/// the second runner) and, alongside the per-side medians, the median of
/// the per-pair b/a ratios — the drift-robust statistic the budget gates
/// assert on.
fn timed_pair(samples: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64, f64) {
    let mut ta = Vec::with_capacity(samples);
    let mut tb = Vec::with_capacity(samples);
    let mut ratios = Vec::with_capacity(samples);
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    for i in 0..samples {
        let (sa, sb) = if i % 2 == 0 {
            let sa = time(&mut a);
            let sb = time(&mut b);
            (sa, sb)
        } else {
            let sb = time(&mut b);
            let sa = time(&mut a);
            (sa, sb)
        };
        ta.push(sa);
        tb.push(sb);
        ratios.push(sb / sa);
    }
    (median(ta), median(tb), median(ratios))
}

/// Absolute throughput of the active-set scheduler at its two extremes:
/// the DFS token walk, where one node is busy per round, and the chatter
/// broadcast, where every node is busy every round. Publishes
/// `BENCH_scheduler.json` at the repo root with rounds/sec and the
/// measured active-node fraction of both workloads; `scripts/benchdiff`
/// tracks the throughput across changes.
fn bench_scheduler_sparse(c: &mut Criterion) {
    let g = graphs::generators::random_sparse(256, 5.0, 11);
    let n = g.len();
    let cfg = Config::for_graph(&g);
    let tree = classical::TreeView::from(
        &classical::bfs::build(&g, NodeId::new(0), cfg).expect("connected"),
    );
    let horizon = 64u64;

    // The executed-node counts confirm the walk is genuinely sparse and
    // the chatter genuinely dense (outputs are checked against the
    // reference simulator by the test suites).
    let (walk_stats, _, walk_sched) = token_walk(&g, &tree, cfg);
    assert!(
        walk_sched * 20 < n as u64 * walk_stats.rounds,
        "token walk is not sparse: {walk_sched} node executions in {} rounds",
        walk_stats.rounds
    );
    // RunStats carries the same telemetry the scheduler reports directly.
    assert_eq!(walk_stats.scheduled_nodes, walk_sched);
    assert_eq!(walk_stats.node_rounds, n as u64 * walk_stats.rounds);
    let (chat_stats, _, chat_sched) = chatter(&g, cfg, horizon);
    assert!(
        chat_sched >= n as u64 * (chat_stats.rounds - 1),
        "chatter should keep the active set full: {chat_sched} node executions"
    );
    assert_eq!(chat_stats.scheduled_nodes, chat_sched);

    let mut group = c.benchmark_group("scheduler_sparse");
    group.sample_size(10);
    group.bench_function("dfs_token_walk", |b| {
        b.iter(|| black_box(token_walk(black_box(&g), &tree, cfg)))
    });
    group.bench_function("chatter", |b| {
        b.iter(|| black_box(chatter(black_box(&g), cfg, horizon)))
    });
    group.finish();

    let samples = 50;
    let time = |f: &dyn Fn()| {
        median(
            (0..samples)
                .map(|_| {
                    let t = Instant::now();
                    f();
                    t.elapsed().as_secs_f64()
                })
                .collect(),
        )
    };
    let walk_med = time(&|| {
        black_box(token_walk(&g, &tree, cfg));
    });
    let chat_med = time(&|| {
        black_box(chatter(&g, cfg, horizon));
    });
    println!(
        "scheduler_sparse: dfs token walk {:.1} µs (active fraction {:.4}); \
         chatter {:.1} µs (active fraction {:.4})",
        walk_med * 1e6,
        walk_stats.active_fraction(),
        chat_med * 1e6,
        chat_stats.active_fraction(),
    );

    let workload = |name: &str, stats: RunStats, secs: f64| {
        trace::Json::obj([
            ("workload", trace::Json::Str(name.into())),
            ("nodes", trace::Json::Int(n as i128)),
            ("rounds", trace::Json::Int(i128::from(stats.rounds))),
            (
                "scheduled_nodes",
                trace::Json::Int(i128::from(stats.scheduled_nodes)),
            ),
            (
                "rounds_per_sec",
                trace::Json::Float(stats.rounds as f64 / secs),
            ),
            (
                "active_node_fraction",
                trace::Json::Float(stats.active_fraction()),
            ),
        ])
    };
    let payload = trace::Json::obj([
        ("experiment", trace::Json::Str("scheduler_sparse".into())),
        (
            "workloads",
            trace::Json::Arr(vec![
                workload("dfs_token_walk", walk_stats, walk_med),
                workload("chatter_all_active", chat_stats, chat_med),
            ]),
        ),
    ]);
    bench::write_results_json_in(bench::repo_root(), "BENCH_scheduler", payload)
        .expect("write BENCH_scheduler.json");
}

/// A replica of `BENCH_scale`'s BFS flood (see `src/bin/scale.rs`): node 0
/// seeds hop 0, every node adopts the first distance it hears and
/// rebroadcasts. On a path the wavefront is one node wide, so each round
/// does almost no work — the worst case for any per-round charge.
#[derive(Clone, Debug)]
struct Hop(u32);
impl Payload for Hop {
    fn size_bits(&self) -> usize {
        32
    }
}
struct ScaleFlood {
    dist: Option<u32>,
}
impl NodeProgram for ScaleFlood {
    type Msg = Hop;
    type Output = Option<u32>;
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Hop>) -> Status {
        if self.dist.is_none() {
            if ctx.node() == NodeId::new(0) && ctx.round() == 0 {
                self.dist = Some(0);
                ctx.broadcast(Hop(1));
            } else if let Some(&(_, Hop(d))) = ctx.inbox().first() {
                self.dist = Some(d);
                ctx.broadcast(Hop(d + 1));
            }
        }
        Status::Halted
    }
    fn finish(self, _node: NodeId) -> Option<u32> {
        self.dist
    }
}

/// Runs the scale flood and returns the run seconds only (graph/network
/// construction excluded, mirroring how `BENCH_scale` computes its
/// `rounds_per_sec`).
fn scale_flood_secs(g: &Graph, cfg: Config) -> (f64, RunStats) {
    let mut net = Network::new(g, cfg, |_| ScaleFlood { dist: None });
    let t = Instant::now();
    let stats = net
        .run_until_quiescent(g.len() as u64 + 16)
        .expect("flood quiesces");
    let secs = t.elapsed().as_secs_f64();
    black_box(net.into_outputs());
    (secs, stats)
}

/// The flight recorder's per-round budget, in ns per round close.
///
/// Derivation: 5% of the fastest untraced per-round time of the n = 10⁵
/// path flood on the simulator this gate was introduced against — before
/// the zero-copy message path — rounded down. Six gate runs of that
/// simulator on a shared 2-vCPU x86-64 host measured untraced minima of
/// 20.75–32.93 ms over 100,001 rounds; the fastest, 20.75 ms, is
/// 207.5 ns per round, and 5% of it is 10.37 ns. A fixed budget keeps the
/// gate about the recorder: a faster simulator shrinks the flood, and a
/// ratio against it would then fail without the recorder changing. Never
/// widen it.
const FLIGHT_BUDGET_NS_PER_ROUND: f64 = 10.0;

/// Minimum ns per `close_charged` over one block of timing samples, each
/// a tight loop of calls in the recorder's steady state (full ring,
/// overwrite path, full hottest list with a settled floor). It measures
/// the real deployed code: `close_charged` is `#[inline(never)]`, so the
/// loop and the simulator's round commit call the same function.
fn flight_close_ns(recorder: &trace::flight::SharedFlight, samples: usize) -> f64 {
    let steady_sample = trace::RoundSample {
        delivered: 1,
        scheduled: 2,
        frontier: 1,
        wakeups: 0,
        arena_bytes: 1 << 20,
    };
    let closes_per_sample = 20_000u32;
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let t = Instant::now();
        for i in 0..closes_per_sample {
            recorder.borrow_mut().close_charged(
                1 + u64::from(black_box(i) & 1),
                56,
                0,
                steady_sample,
            );
        }
        best = best.min(t.elapsed().as_secs_f64());
    }
    best / f64::from(closes_per_sample) * 1e9
}

/// The flight recorder's performance contract: recording per-round
/// aggregates must cost O(1) per round and at most
/// [`FLIGHT_BUDGET_NS_PER_ROUND`] per round close. The criterion group
/// shows the comparison on a small path flood. The gate then runs the
/// `BENCH_scale` path flood at n = 10⁵ — the sparse-wavefront workload
/// where per-round overhead has nowhere to hide — untraced and recorded
/// in ABBA-ordered pairs, checks the recording changes nothing and
/// covers every round, and prices one close between pairs. A direct A/B
/// of two ~10–20 ms runs cannot resolve a few ns per round on a shared
/// vCPU; the tight close loop measures hundreds of thousands of calls,
/// and interference is strictly additive there, so the minimum over the
/// interleaved blocks is the least-biased estimate of the intrinsic cost.
fn bench_flight_overhead(c: &mut Criterion) {
    let g_small = graphs::generators::path(4096);
    let cfg_small = Config::for_graph(&g_small);

    let mut group = c.benchmark_group("flight_overhead");
    group.sample_size(10);
    group.bench_function("path_flood_untraced", |b| {
        b.iter(|| black_box(scale_flood_secs(black_box(&g_small), cfg_small)))
    });
    group.bench_function("path_flood_flight_recorder", |b| {
        b.iter(|| {
            let recorder = trace::FlightRecorder::shared();
            let _guard = trace::flight::install(recorder.clone());
            let out = black_box(scale_flood_secs(black_box(&g_small), cfg_small));
            let rounds = recorder.borrow().rounds();
            black_box((out, rounds))
        })
    });
    group.finish();

    let n = 100_000;
    let g = graphs::generators::path(n);
    let cfg = Config::for_graph(&g);
    let samples = 15;
    let mut plain_times = Vec::with_capacity(samples);
    let mut flight_times = Vec::with_capacity(samples);
    let mut recorded_rounds = 0;
    let mut run_rounds = 0;
    let flight_flood = |g: &graphs::Graph, cfg: Config| {
        let recorder = trace::FlightRecorder::shared();
        let guard = trace::flight::install(recorder.clone());
        let (secs, stats) = scale_flood_secs(g, cfg);
        drop(guard);
        (secs, stats, recorder)
    };
    // The close-timing recorder, warmed into its steady state once.
    let close_recorder = trace::FlightRecorder::shared();
    flight_close_ns(&close_recorder, 1);
    let mut close_ns = f64::INFINITY;
    for i in 0..samples {
        // ABBA ordering: alternate which side runs first within each pair
        // so slow drift on shared hardware (another tenant ramping up
        // mid-gate) cancels out of the A/B medians instead of always
        // penalising whichever side happens to run second.
        let (plain_secs, stats, flight_secs, flight_stats, recorder) = if i % 2 == 0 {
            let (ps, s) = scale_flood_secs(&g, cfg);
            let (fs, f, rec) = flight_flood(&g, cfg);
            (ps, s, fs, f, rec)
        } else {
            let (fs, f, rec) = flight_flood(&g, cfg);
            let (ps, s) = scale_flood_secs(&g, cfg);
            (ps, s, fs, f, rec)
        };
        run_rounds = stats.rounds;
        plain_times.push(plain_secs);
        flight_times.push(flight_secs);
        assert_eq!(stats, flight_stats, "recording must not change the run");
        let rec = recorder.borrow();
        recorded_rounds = rec.rounds();
        assert_eq!(rec.rounds(), stats.rounds, "every round must be covered");
        assert_eq!(rec.totals().messages, stats.messages);
        assert_eq!(rec.totals().bits, stats.total_bits);
        close_ns = close_ns.min(flight_close_ns(&close_recorder, 3));
    }
    let plain_min = plain_times.iter().copied().fold(f64::INFINITY, f64::min);
    let plain_med = median(plain_times);
    let flight_med = median(flight_times);
    // The ratio the gate used to assert, kept for comparison with older
    // logs: rounds × ns per close against the fastest untraced flood.
    let ratio = run_rounds as f64 * close_ns * 1e-9 / plain_min;
    println!(
        "flight recorder overhead: {close_ns:.1} ns per round close \
         (budget {FLIGHT_BUDGET_NS_PER_ROUND} ns; min over {samples} interleaved blocks); \
         {:.2}% of the n = 10^5 path flood ({run_rounds} rounds, untraced min {:.2} ms = \
         {:.1} ns per round, recorded {:.2} ms, A/B medians {:+.2}%; \
         {recorded_rounds} rounds covered)",
        ratio * 100.0,
        plain_min * 1e3,
        plain_min * 1e9 / run_rounds as f64,
        flight_med * 1e3,
        (flight_med / plain_med - 1.0) * 100.0
    );
    assert!(
        close_ns <= FLIGHT_BUDGET_NS_PER_ROUND,
        "flight recorder costs {close_ns:.1} ns per round close \
         (budget: {FLIGHT_BUDGET_NS_PER_ROUND} ns)"
    );
}

/// `Graph::from_edges`'s performance contract: the bulk CSR build (degree
/// count, prefix sum, scatter, per-row sort) must build the same graph as
/// the incremental `GraphBuilder` loop it replaced, at least 2× faster on
/// an n = 10⁵ sparse edge list. The gate asserts on the median of
/// per-pair ratios from interleaved runs.
fn bench_graph_build(c: &mut Criterion) {
    let n = 100_000;
    let edges: Vec<(usize, usize)> = graphs::generators::random_sparse(n, 8.0, 3)
        .edges()
        .map(|(u, v)| (u.index(), v.index()))
        .collect();
    let bulk = || Graph::from_edges(n, edges.iter().copied()).expect("simple graph");
    let incremental = || {
        let mut builder = graphs::GraphBuilder::new(n);
        for &(u, v) in &edges {
            builder.edge(u, v);
        }
        builder.build()
    };
    assert_eq!(bulk(), incremental(), "bulk and incremental builds diverge");

    let mut group = c.benchmark_group("graph_build");
    group.sample_size(10);
    group.bench_function("from_edges", |b| b.iter(|| black_box(bulk())));
    group.bench_function("incremental_builder", |b| {
        b.iter(|| black_box(incremental()))
    });
    group.finish();

    let (bulk_med, incremental_med, ratio) = timed_pair(
        15,
        || {
            black_box(bulk());
        },
        || {
            black_box(incremental());
        },
    );
    println!(
        "graph build at n = 10^5, m = {}: from_edges {:.2} ms, incremental builder \
         {:.2} ms, median per-pair ratio {ratio:.2}x",
        edges.len(),
        bulk_med * 1e3,
        incremental_med * 1e3
    );
    assert!(
        ratio >= 2.0,
        "from_edges is only {ratio:.2}x faster than the incremental builder (gate: 2x)"
    );
}

criterion_group!(
    benches,
    bench_girth,
    bench_source_detection,
    bench_tracing_overhead,
    bench_metrics_overhead,
    bench_scheduler_hot_loop,
    bench_scheduler_sparse,
    bench_flight_overhead,
    bench_graph_build
);
criterion_main!(benches);
