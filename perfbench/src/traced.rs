//! The traced run: per-layer numbers for all four workloads in one pass.
//!
//! Spans are recorded from this file, around the calls into each layer's
//! public functions (name, start, end, parent span, operation id), kept in
//! memory and written to [`SPANS_PATH`] at the end. The Table-1 pipelines
//! are re-composed here from their phase functions, in their entry points'
//! order, and every traced operation is reconciled exactly against an
//! untraced one: same answer, and per-phase (or per-round) rounds, messages
//! and bits that sum to the untraced run's totals.

use std::fmt::Write as _;
use std::time::Instant;

use classical::aggregate::{self, Op};
use classical::{bfs, dfs_walk, leader, waves, TreeView};
use congest::{bits, Network, RoundsLedger, RunStats};
use diameter_quantum::dfs_window::Windows;
use diameter_quantum::evaluation;
use diameter_quantum::exact::ExactParams;
use diameter_quantum::framework::{self, DistributedOracle};
use graphs::tree::{EulerTour, RootedTree};
use graphs::{Dist, Graph, NodeId};
use quantum::{MaximizeParams, OracleCost, SearchState};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::report::{median, Metric, Outcome};
use crate::workloads::{self, config, Flood, Instance, Raw, Workload};

/// Where the spans of a traced run are written, relative to the working
/// directory.
pub const SPANS_PATH: &str = "perfbench/out/spans.jsonl";

/// Repetitions of each recorder configuration on `apsp_observed`.
const OBSERVED_REPS: usize = 3;

/// Traffic a span's call was charged.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Counts {
    rounds: u64,
    messages: u64,
    bits: u64,
    scheduled: u64,
}

impl Counts {
    fn of_stats(s: &RunStats) -> Self {
        Counts {
            rounds: s.rounds,
            messages: s.messages,
            bits: s.total_bits,
            scheduled: s.scheduled_nodes,
        }
    }

    fn of_ledger(l: &RoundsLedger) -> Self {
        Counts {
            rounds: l.total_rounds(),
            messages: l.total_messages(),
            bits: l.total_bits(),
            scheduled: l.total_scheduled_nodes(),
        }
    }

    fn add(self, o: Counts) -> Counts {
        Counts {
            rounds: self.rounds + o.rounds,
            messages: self.messages + o.messages,
            bits: self.bits + o.bits,
            scheduled: self.scheduled + o.scheduled,
        }
    }

    /// Rounds, messages and bits: the fields the reconciliation compares.
    fn traffic(self) -> (u64, u64, u64) {
        (self.rounds, self.messages, self.bits)
    }
}

struct Span {
    op: usize,
    parent: Option<usize>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    counts: Option<Counts>,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder. Operation ids index `ops`, which names the
/// workload each operation belongs to.
struct Tracer {
    origin: Instant,
    ops: Vec<&'static str>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            ops: Vec::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new operation; later spans carry its id.
    fn begin_op(&mut self, workload: Workload) {
        self.ops.push(workload.name());
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let span = Span {
            op: self.ops.len() - 1,
            parent: self.open.last().copied(),
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            counts: None,
        };
        self.spans.push(span);
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// A span around one simulated phase, recording what it was charged.
    fn phase<T, E: std::fmt::Display>(
        &mut self,
        name: &'static str,
        call: impl FnOnce() -> Result<T, E>,
        counts: impl FnOnce(&T) -> Counts,
    ) -> Result<T, String> {
        self.span(name, |t| {
            let out = call().map_err(|e| format!("{name}: {e}"))?;
            t.set_counts(counts(&out));
            Ok(out)
        })
    }

    fn set_counts(&mut self, c: Counts) {
        let id = *self.open.last().expect("counts belong to an open span");
        self.spans[id].counts = Some(c);
    }

    /// The current operation's spans named `name`.
    fn named(&self, name: &'static str) -> impl Iterator<Item = &Span> + '_ {
        let op = self.ops.len() - 1;
        self.spans
            .iter()
            .filter(move |s| s.op == op && s.name == name)
    }

    /// Total seconds in the current operation's spans named `name`.
    fn secs(&self, name: &'static str) -> f64 {
        self.named(name).map(Span::secs).sum()
    }

    /// Sum of the counts recorded in the current operation.
    fn counted(&self) -> Counts {
        let op = self.ops.len() - 1;
        self.spans
            .iter()
            .filter(|s| s.op == op)
            .filter_map(|s| s.counts)
            .fold(Counts::default(), Counts::add)
    }

    /// Writes every span as one JSON line, with its self time (duration
    /// minus the time its child spans cover).
    fn write(&self, path: &str) -> std::io::Result<()> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut text = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                text,
                "{{\"id\": {id}, \"op\": {}, \"workload\": \"{}\", \"name\": \"{}\", \
                 \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}",
                s.op,
                self.ops[s.op],
                s.name,
                s.start_ns,
                s.end_ns,
                s.end_ns - s.start_ns - child_ns[id]
            );
            if let Some(c) = s.counts {
                let _ = write!(
                    text,
                    ", \"rounds\": {}, \"messages\": {}, \"bits\": {}, \"scheduled\": {}",
                    c.rounds, c.messages, c.bits, c.scheduled
                );
            }
            text.push_str("}\n");
        }
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// Runs the traced pass over every workload and collects the per-layer
/// metrics.
pub fn run(seed: u64) -> Outcome {
    let mut out = Outcome::new(format!("traced pass over every workload, seed={seed}"));
    let mut t = Tracer::new();
    for w in Workload::ALL {
        let inst = Instance::new(w, w.input_seed(seed, 0));
        let metrics = match w {
            Workload::Flood => flood(&inst, &mut t, &mut out),
            Workload::Apsp => apsp(&inst, &mut t, &mut out),
            Workload::Exact => exact(&inst, &mut t, &mut out),
            Workload::ApspObserved => observed(&inst, &mut t, &mut out),
        };
        match metrics {
            Ok(m) => out.metrics.extend(m),
            Err(e) => out.fail(format!("{}: {e}", w.name())),
        }
    }
    match t.write(SPANS_PATH) {
        Ok(()) => out.note(format!("{} spans -> {SPANS_PATH}", t.spans.len())),
        Err(e) => out.fail(format!("writing {SPANS_PATH}: {e}")),
    }
    out
}

fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("reconciliation failed: {}", what()))
    }
}

/// One untimed warm-up and `ops` timed untraced operations. Returns their
/// median seconds and the first timed result.
fn baseline(
    inst: &Instance,
    g: &Graph,
    ops: usize,
    out: &mut Outcome,
) -> Result<(f64, Raw), String> {
    let warm = inst.op(g).and_then(|raw| inst.check(&raw));
    out.tally("warm-up", &warm);
    let mut times = Vec::new();
    let mut first = None;
    for _ in 0..ops {
        let start = Instant::now();
        let raw = inst.op(g);
        let secs = start.elapsed().as_secs_f64();
        let checked = raw.and_then(|raw| inst.check(&raw).map(|_| raw));
        out.tally(&format!("untraced {}", inst.workload.name()), &checked);
        if let Ok(raw) = checked {
            times.push(secs);
            first.get_or_insert(raw);
        }
    }
    let first = first.ok_or("every untraced operation failed")?;
    Ok((median(&times), first))
}

fn flood(inst: &Instance, t: &mut Tracer, out: &mut Outcome) -> Result<Vec<Metric>, String> {
    let g = inst.graph();
    let (plain_s, first) = baseline(inst, &g, 2, out)?;
    let Raw::Flood(plain_outputs, plain_stats) = first else {
        unreachable!("the flood workload answers with a flood")
    };
    drop(g);

    t.begin_op(Workload::Flood);
    let g = t.span("graphs.build", |_| inst.graph());
    let traced: Result<_, String> = t.span("congest.flood", |t| {
        let mut net = t.span("congest.new", |_| Network::new(&g, config(&g), Flood::new));
        while !net.is_quiescent() {
            if net.round() >= workloads::flood_round_cap(&g) {
                return Err("flood did not quiesce".to_string());
            }
            let before = *net.stats();
            t.span("congest.step", |t| {
                net.step().map_err(|e| e.to_string())?;
                let after = net.stats();
                t.set_counts(Counts {
                    rounds: after.rounds - before.rounds,
                    messages: after.messages - before.messages,
                    bits: after.total_bits - before.total_bits,
                    scheduled: after.scheduled_nodes - before.scheduled_nodes,
                });
                Ok::<(), String>(())
            })?;
        }
        let stats = *net.stats();
        Ok((t.span("congest.outputs", |_| net.into_outputs()), stats))
    });
    out.tally("traced flood", &traced);
    let (outputs, stats) = traced?;

    check(inst.flood_ok(&outputs), || {
        "traced flood distances differ from the reference".into()
    })?;
    check(outputs == plain_outputs, || {
        "traced flood answer differs from untraced".into()
    })?;
    check(stats == plain_stats, || {
        format!("traced {stats:?} != untraced {plain_stats:?}")
    })?;
    let steps: Vec<(f64, Counts)> = t
        .named("congest.step")
        .map(|s| (s.secs(), s.counts.unwrap_or_default()))
        .collect();
    let summed = steps.iter().fold(Counts::default(), |a, s| a.add(s.1));
    check(
        summed.traffic() == (stats.rounds, stats.messages, stats.total_bits),
        || format!("per-round sums {summed:?} != RunStats {stats:?}"),
    )?;

    // A bulk round carries at least 1% of the flood's messages; the rest
    // (the chained components' path) is the tail.
    let bulk = |c: &Counts| c.messages * 100 >= stats.messages;
    let (mut bulk_s, mut bulk_msgs, mut tail_s, mut tail_rounds) = (0.0, 0u64, 0.0, 0u64);
    for (secs, c) in &steps {
        if bulk(c) {
            bulk_s += secs;
            bulk_msgs += c.messages;
        } else {
            tail_s += secs;
            tail_rounds += 1;
        }
    }
    let traced_s = t.secs("congest.flood");
    out.note(format!(
        "flood: {} bulk rounds carry {bulk_msgs} of {} messages; {tail_rounds} tail rounds",
        steps.len() as u64 - tail_rounds,
        stats.messages
    ));
    Ok(vec![
        Metric::new("graphs.build_s", t.secs("graphs.build"), "s"),
        Metric::new("congest.new_s", t.secs("congest.new"), "s"),
        Metric::new(
            "congest.bulk_ns_per_msg",
            bulk_s * 1e9 / bulk_msgs.max(1) as f64,
            "ns",
        ),
        Metric::new(
            "congest.tail_us_per_round",
            tail_s * 1e6 / tail_rounds.max(1) as f64,
            "us",
        ),
        Metric::new("congest.rounds", stats.rounds as f64, "count"),
        Metric::new("congest.messages", stats.messages as f64, "count"),
        Metric::new(
            "congest.scheduled_nodes",
            stats.scheduled_nodes as f64,
            "count",
        ),
        Metric::new(
            "congest.active_fraction",
            stats.active_fraction(),
            "fraction",
        ),
        Metric::new("bench.trace_overhead.flood", traced_s / plain_s, "ratio"),
    ])
}

/// The classical exact pipeline re-composed from its phase functions, in
/// `classical::apsp::exact_diameter`'s order.
struct ApspAnswer {
    diameter: Dist,
    radius: Dist,
    eccentricities: Vec<Dist>,
    ledger: RoundsLedger,
}

fn apsp_pipeline(t: &mut Tracer, g: &Graph) -> Result<ApspAnswer, String> {
    let cfg = config(g);
    let n = g.len() as u64;
    let mut ledger = RoundsLedger::new();

    let elect = t.phase(
        "classical.leader",
        || leader::elect(g, cfg),
        |o| Counts::of_stats(&o.stats),
    )?;
    ledger.add("leader election", elect.stats);
    let b = t.phase(
        "classical.bfs",
        || bfs::build(g, elect.leader, cfg),
        |o| Counts::of_stats(&o.stats),
    )?;
    ledger.add("bfs(leader)", b.stats);
    let tree = TreeView::from(&b);

    let steps = 2 * (n - 1);
    let dfs = t.phase(
        "classical.dfs_walk",
        || dfs_walk::walk(g, &tree, elect.leader, steps, cfg),
        |o| Counts::of_stats(&o.stats),
    )?;
    ledger.add("dfs numbering", dfs.stats);

    let sources = dfs
        .tau
        .iter()
        .enumerate()
        .map(|(i, tau)| tau.map(|tau| (NodeId::new(i), tau)))
        .collect::<Option<Vec<_>>>()
        .ok_or("the DFS tour missed a node")?;
    let duration = 2 * steps + u64::from(b.depth) + 2;
    let wave = t.phase(
        "classical.waves",
        || waves::run(g, &sources, duration, cfg),
        |o| Counts::of_stats(&o.stats),
    )?;
    ledger.add("eccentricity waves", wave.stats);

    let values: Vec<u64> = wave.max_dist.iter().map(|&d| u64::from(d)).collect();
    let width = bits::for_dist(g.len());
    let extreme = |t: &mut Tracer, op| {
        t.phase(
            "classical.convergecast",
            || aggregate::convergecast(g, &tree, &values, width, op, cfg),
            |o| Counts::of_stats(&o.stats),
        )
    };
    let max = extreme(t, Op::Max)?;
    ledger.add("max convergecast", max.stats);
    let min = extreme(t, Op::Min)?;
    ledger.add("min convergecast", min.stats);

    Ok(ApspAnswer {
        diameter: max.value as Dist,
        radius: min.value as Dist,
        eccentricities: wave.max_dist,
        ledger,
    })
}

type Phases = Vec<(String, RunStats, u64)>;

fn phases(l: &RoundsLedger) -> Phases {
    l.phases()
        .map(|(label, stats, reps)| (label.to_string(), *stats, reps))
        .collect()
}

/// The traced APSP answer and ledger must equal the untraced ones, and the
/// per-phase spans must sum to the ledger's totals.
fn reconcile_apsp(
    inst: &Instance,
    t: &Tracer,
    traced: &ApspAnswer,
    plain: &classical::apsp::ExactDiameterOutcome,
) -> Result<(), String> {
    inst.check_apsp(traced.diameter, traced.radius, &traced.eccentricities)?;
    check(
        (traced.diameter, traced.radius, &traced.eccentricities)
            == (plain.diameter, plain.radius, &plain.eccentricities),
        || "traced APSP answer differs from untraced".into(),
    )?;
    check(phases(&traced.ledger) == phases(&plain.ledger), || {
        format!(
            "traced ledger {:?} != untraced {:?}",
            phases(&traced.ledger),
            phases(&plain.ledger)
        )
    })?;
    let counted = t.counted();
    let ledger = Counts::of_ledger(&plain.ledger);
    check(counted.traffic() == ledger.traffic(), || {
        format!("phase spans sum to {counted:?}, ledger totals {ledger:?}")
    })
}

fn apsp(inst: &Instance, t: &mut Tracer, out: &mut Outcome) -> Result<Vec<Metric>, String> {
    let g = inst.graph();
    let (plain_s, first) = baseline(inst, &g, 1, out)?;
    let Raw::Apsp(plain) = first else {
        unreachable!("the apsp workload answers with an APSP outcome")
    };

    t.begin_op(Workload::Apsp);
    let traced = t.span("classical.apsp", |t| apsp_pipeline(t, &g));
    out.tally("traced apsp", &traced);
    let traced = traced?;
    reconcile_apsp(inst, t, &traced, &plain)?;

    let wave = t
        .named("classical.waves")
        .find_map(|s| s.counts)
        .unwrap_or_default();
    let waves_s = t.secs("classical.waves");
    Ok(vec![
        Metric::new("classical.leader_s", t.secs("classical.leader"), "s"),
        Metric::new("classical.bfs_s", t.secs("classical.bfs"), "s"),
        Metric::new("classical.dfs_walk_s", t.secs("classical.dfs_walk"), "s"),
        Metric::new("classical.waves_s", waves_s, "s"),
        Metric::new(
            "classical.convergecast_s",
            t.secs("classical.convergecast"),
            "s",
        ),
        Metric::new(
            "classical.waves_ns_per_msg",
            waves_s * 1e9 / wave.messages.max(1) as f64,
            "ns",
        ),
        Metric::new("classical.waves_rounds", wave.rounds as f64, "count"),
        Metric::new("classical.waves_messages", wave.messages as f64, "count"),
        Metric::new(
            "classical.waves_scheduled_nodes",
            wave.scheduled as f64,
            "count",
        ),
        Metric::new(
            "bench.trace_overhead.apsp",
            t.secs("classical.apsp") / plain_s,
            "ratio",
        ),
    ])
}

/// Theorem 1 re-composed from its layers' public functions, in
/// `diameter_quantum::exact::diameter`'s order (the analytic memory
/// estimate, which only reports to installed recorders, is left out).
struct ExactAnswer {
    value: Dist,
    init_ledger: RoundsLedger,
    probe_ledger: RoundsLedger,
    oracle: OracleCost,
    quantum_rounds: u64,
}

fn exact_pipeline(t: &mut Tracer, g: &Graph, params: ExactParams) -> Result<ExactAnswer, String> {
    let cfg = config(g);
    let n = g.len();
    let mut init_ledger = RoundsLedger::new();

    let elect = t.phase(
        "classical.leader",
        || leader::elect(g, cfg),
        |o| Counts::of_stats(&o.stats),
    )?;
    init_ledger.add("leader election", elect.stats);
    let b = t.phase(
        "classical.bfs",
        || bfs::build(g, elect.leader, cfg),
        |o| Counts::of_stats(&o.stats),
    )?;
    init_ledger.add("bfs(leader) [Figure 1]", b.stats);
    let tree = TreeView::from(&b);
    let d = b.depth;
    check(n > 1 && d > 0, || {
        "the input is a single node, which Theorem 1 answers without a search".into()
    })?;

    let tour = t
        .span("core.windows", |_| {
            RootedTree::from_parents(&b.parents).map(|r| EulerTour::new(&r))
        })
        .map_err(|e| e.to_string())?;
    let windows = t.span("core.windows", |_| Windows::new(&tour, 2 * d as usize));
    let eccs = t
        .span("graphs.eccentricities", |_| {
            graphs::metrics::eccentricities(g)
        })
        .ok_or("disconnected graph")?;
    let f_values = t.span("core.windows", |_| windows.window_max(&eccs));

    let mut probe_ledger = RoundsLedger::new();
    let setup_probe = t.phase(
        "classical.broadcast",
        || aggregate::broadcast(g, &tree, 0, bits::for_node(n), cfg),
        |o| Counts::of_stats(&o.stats),
    )?;
    probe_ledger.add("probe: setup broadcast [Prop 2]", setup_probe.stats);
    let figure2 = |t: &mut Tracer, u0: NodeId| {
        t.phase(
            "core.figure2",
            || evaluation::run_figure2(g, &tree, d, u0, cfg),
            |r| Counts::of_ledger(&r.ledger),
        )
    };
    let eval_probe = figure2(t, elect.leader)?;
    probe_ledger.extend_prefixed("probe: ", &eval_probe.ledger);
    let oracle_schedule =
        DistributedOracle::from_rounds(setup_probe.stats.rounds, eval_probe.forward_rounds())
            .with_setup_traffic(setup_probe.stats.total_bits, setup_probe.stats.messages)
            .with_evaluation_traffic(eval_probe.forward_bits(), eval_probe.forward_messages());

    let min_mass = (f64::from(d) / (2.0 * n as f64)).clamp(1.0 / n as f64, 1.0);
    let state = SearchState::uniform(n);
    let mut rng = StdRng::seed_from_u64(params.seed);
    let opt = t
        .span("core.optimize", |_| {
            framework::optimize(
                &state,
                |u| u64::from(f_values[u]),
                oracle_schedule,
                MaximizeParams::with_min_mass(min_mass).with_failure_prob(params.failure_prob),
                &mut rng,
            )
        })
        .map_err(|e| e.to_string())?;

    let mut branches: Vec<usize> = (0..params.verify_branches)
        .map(|_| rng.random_range(0..n))
        .collect();
    branches.push(opt.argmax);
    branches.sort_unstable();
    branches.dedup();
    for u in branches {
        let run = figure2(t, NodeId::new(u))?;
        probe_ledger.extend_prefixed(&format!("verify u={u}: "), &run.ledger);
        check(run.value == f_values[u], || {
            format!(
                "Figure 2 gave {} for branch {u}, closed form {}",
                run.value, f_values[u]
            )
        })?;
    }

    Ok(ExactAnswer {
        value: opt.value as Dist,
        init_ledger,
        probe_ledger,
        oracle: opt.oracle,
        quantum_rounds: opt.quantum_rounds,
    })
}

fn exact(inst: &Instance, t: &mut Tracer, out: &mut Outcome) -> Result<Vec<Metric>, String> {
    let g = inst.graph();
    let (plain_s, first) = baseline(inst, &g, 1, out)?;
    let Raw::Exact(plain) = first else {
        unreachable!("the exact workload answers with a Theorem 1 run")
    };

    t.begin_op(Workload::Exact);
    let params = ExactParams::new(inst.seed);
    let traced = t.span("core.exact", |t| exact_pipeline(t, &g, params));
    out.tally("traced exact", &traced);
    let traced = traced?;

    check(traced.value == inst.diameter(), || {
        format!(
            "traced Theorem 1 answered {} for {}",
            traced.value,
            inst.diameter()
        )
    })?;
    check(
        (traced.value, traced.quantum_rounds, traced.oracle)
            == (plain.value, plain.quantum_rounds, plain.oracle),
        || "traced Theorem 1 answer or oracle charge differs from untraced".into(),
    )?;
    check(
        phases(&traced.init_ledger) == phases(&plain.init_ledger)
            && phases(&traced.probe_ledger) == phases(&plain.probe_ledger),
        || "traced Theorem 1 ledgers differ from untraced".into(),
    )?;
    let counted = t.counted();
    let ledgers = Counts::of_ledger(&plain.init_ledger).add(Counts::of_ledger(&plain.probe_ledger));
    check(counted.traffic() == ledgers.traffic(), || {
        format!("phase spans sum to {counted:?}, ledger totals {ledgers:?}")
    })?;

    Ok(vec![
        Metric::new(
            "graphs.eccentricities_s",
            t.secs("graphs.eccentricities"),
            "s",
        ),
        Metric::new("core.windows_s", t.secs("core.windows"), "s"),
        Metric::new("classical.broadcast_s", t.secs("classical.broadcast"), "s"),
        Metric::new("core.figure2_s", t.secs("core.figure2"), "s"),
        Metric::new(
            "core.figure2_calls",
            t.named("core.figure2").count() as f64,
            "count",
        ),
        Metric::new("core.optimize_s", t.secs("core.optimize"), "s"),
        Metric::new(
            "quantum.oracle_calls",
            traced.oracle.total_ops() as f64,
            "count",
        ),
        Metric::new(
            "quantum.iterations",
            traced.oracle.iterations as f64,
            "count",
        ),
        Metric::new(
            "bench.trace_overhead.exact",
            t.secs("core.exact") / plain_s,
            "ratio",
        ),
    ])
}

/// Which recorders an `apsp_observed` timing runs under.
#[derive(Clone, Copy)]
enum Recorders {
    None,
    Registry,
    Flight,
    Both,
}

impl Recorders {
    const ALL: [Recorders; 4] = [
        Recorders::None,
        Recorders::Registry,
        Recorders::Flight,
        Recorders::Both,
    ];

    /// Runs `f` with these recorders installed, fresh, and returns them.
    fn install<T>(
        self,
        f: impl FnOnce() -> T,
    ) -> (
        T,
        Option<metrics::SharedRegistry>,
        Option<trace::flight::SharedFlight>,
    ) {
        let registry =
            matches!(self, Recorders::Registry | Recorders::Both).then(metrics::Registry::shared);
        let flight = matches!(self, Recorders::Flight | Recorders::Both)
            .then(trace::flight::FlightRecorder::shared);
        let _meter = registry.clone().map(metrics::install);
        let _flight = flight.clone().map(trace::flight::install);
        (f(), registry, flight)
    }
}

fn observed(inst: &Instance, t: &mut Tracer, out: &mut Outcome) -> Result<Vec<Metric>, String> {
    let g = inst.graph();
    let warm = inst.op(&g).and_then(|raw| inst.check(&raw));
    out.tally("warm-up", &warm);

    // Time each recorder configuration OBSERVED_REPS times, rotating the
    // order so drift on the host does not favour one configuration.
    let mut secs: [Vec<f64>; 4] = Default::default();
    let mut plain = None;
    for rep in 0..OBSERVED_REPS {
        for i in 0..4 {
            let which = (rep + i) % 4;
            let start = Instant::now();
            let (result, registry, flight) =
                Recorders::ALL[which].install(|| classical::apsp::exact_diameter(&g, config(&g)));
            let elapsed = start.elapsed().as_secs_f64();
            let checked = result.map_err(|e| e.to_string()).and_then(|o| {
                inst.check_apsp(o.diameter, o.radius, &o.eccentricities)?;
                let charged = workloads::ledger_charged(&o.ledger);
                if let (Some(r), Some(f)) = (&registry, &flight) {
                    workloads::check_recorders(&r.borrow(), &f.borrow(), &charged)?;
                }
                Ok(o)
            });
            out.tally("untraced apsp_observed", &checked);
            if let Ok(o) = checked {
                secs[which].push(elapsed);
                plain.get_or_insert(o);
            }
        }
    }
    let plain = plain.ok_or("every untraced operation failed")?;
    let [none_s, registry_s, flight_s, both_s] = secs.map(|s| median(&s));
    let charged = workloads::ledger_charged(&plain.ledger);

    t.begin_op(Workload::ApspObserved);
    let (traced, registry, flight) =
        Recorders::Both.install(|| t.span("classical.apsp", |t| apsp_pipeline(t, &g)));
    out.tally("traced apsp_observed", &traced);
    let traced = traced?;
    reconcile_apsp(inst, t, &traced, &plain)?;
    let (registry, flight) = (registry.expect("installed"), flight.expect("installed"));
    workloads::check_recorders(&registry.borrow(), &flight.borrow(), &charged)?;

    Ok(vec![
        Metric::new(
            "metrics.registry_ns_per_msg",
            (registry_s - none_s) * 1e9 / charged.messages.max(1) as f64,
            "ns",
        ),
        Metric::new(
            "trace.flight_ns_per_round",
            (flight_s - none_s) * 1e9 / charged.rounds.max(1) as f64,
            "ns",
        ),
        Metric::new(
            "bench.trace_overhead.apsp_observed",
            t.secs("classical.apsp") / both_s,
            "ratio",
        ),
    ])
}
