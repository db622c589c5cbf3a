//! The four workloads: their inputs, one operation each through a public
//! entry point, and the check of every answer against the reference.

use std::time::Instant;

use classical::apsp::ExactDiameterOutcome;
use congest::{Config, CongestError, Network, NodeProgram, Payload, RoundCtx, RunStats, Status};
use diameter_quantum::exact::{self, ExactParams};
use graphs::{Graph, NodeId};

use crate::gen;
use crate::reference::Adjacency;

/// Expected degree of the `sparse` family every workload draws from.
pub const DEGREE: f64 = 8.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Wake-on-message flood from node 0 on n = 10⁶ (`congest::Network`).
    Flood,
    /// Classical exact diameter on n = 512 (`classical::apsp`).
    Apsp,
    /// Theorem 1 exact diameter on n = 1024 (`diameter_quantum::exact`).
    Exact,
    /// `Apsp` with a metrics registry and flight recorder, on the same
    /// inputs as `Apsp` for the same seed.
    ApspObserved,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Flood,
        Workload::Apsp,
        Workload::Exact,
        Workload::ApspObserved,
    ];

    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Flood => "flood",
            Workload::Apsp => "apsp",
            Workload::Exact => "exact",
            Workload::ApspObserved => "apsp_observed",
        }
    }

    pub fn n(self) -> usize {
        match self {
            Workload::Flood => 1_000_000,
            Workload::Apsp | Workload::ApspObserved => 512,
            Workload::Exact => 1024,
        }
    }

    /// Input graphs per run: operations cycle over them, so a run's figures
    /// do not hang on one graph. Theorem 1's charged rounds vary most (its
    /// Grover iteration count is random, its schedule scales with the
    /// leader's eccentricity), and its operations are the cheapest, so it
    /// takes the most; the flood's 10⁶-node input is one.
    pub fn inputs(self) -> usize {
        match self {
            Workload::Flood => 1,
            Workload::Apsp | Workload::ApspObserved => 5,
            Workload::Exact => 40,
        }
    }

    /// The seed of input `i` of a run with seed `seed`; distinct across
    /// runs and inputs.
    pub fn input_seed(self, seed: u64, i: usize) -> u64 {
        seed.wrapping_mul(self.inputs() as u64)
            .wrapping_add(i as u64)
    }
}

/// What one operation was charged, as its own stats or ledgers report it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Charged {
    pub rounds: u64,
    pub bits: u64,
    pub messages: u64,
}

/// An operation's result, before it is checked.
pub enum Raw {
    Flood(Vec<Option<u32>>, RunStats),
    Apsp(ExactDiameterOutcome),
    Exact(Box<exact::DiameterRun>),
    Observed(
        ExactDiameterOutcome,
        metrics::SharedRegistry,
        trace::flight::SharedFlight,
    ),
}

/// One workload's generated input and its reference answer.
pub struct Instance {
    pub workload: Workload,
    pub seed: u64,
    pub edges: Vec<(usize, usize)>,
    /// Flood: hop distances from node 0. Otherwise: every eccentricity.
    expected: Vec<u32>,
    /// Seconds the generator took (not part of any metric).
    pub gen_s: f64,
}

impl Instance {
    pub fn new(workload: Workload, seed: u64) -> Self {
        let n = workload.n();
        let start = Instant::now();
        let edges = gen::sparse(n, DEGREE, seed);
        let gen_s = start.elapsed().as_secs_f64();
        let adj = Adjacency::new(n, &edges);
        let expected = match workload {
            Workload::Flood => adj.distances_from(0),
            _ => adj
                .eccentricities()
                .expect("the generator chains every component"),
        };
        Instance {
            workload,
            seed,
            edges,
            expected,
            gen_s,
        }
    }

    pub fn n(&self) -> usize {
        self.workload.n()
    }

    pub fn graph(&self) -> Graph {
        Graph::from_edges(self.n(), self.edges.iter().copied())
            .expect("generated edges form a simple graph")
    }

    /// Builds the graph (and, for the flood, its network) as a user must
    /// before the first operation. Returns the graph and the seconds taken.
    pub fn set_up(&self) -> (Graph, f64) {
        let start = Instant::now();
        let g = self.graph();
        if self.workload == Workload::Flood {
            let net = Network::new(&g, config(&g), Flood::new);
            std::hint::black_box(&net);
            let secs = start.elapsed().as_secs_f64();
            drop(net);
            return (g, secs);
        }
        let secs = start.elapsed().as_secs_f64();
        (g, secs)
    }

    /// The diameter, or for the flood the largest distance from node 0.
    pub fn diameter(&self) -> u32 {
        self.expected.iter().copied().max().unwrap_or(0)
    }

    pub fn radius(&self) -> u32 {
        self.expected.iter().copied().min().unwrap_or(0)
    }

    /// The round count the charged rounds are compared against: ecc(0) + 1
    /// for the flood (the rounds its token needs to reach the farthest
    /// node; the simulator adds one to deliver the last echo), and n for
    /// the diameter pipelines (the classical `Θ(n)` bound Table 1 compares
    /// them with). The raw count is unfit as a metric across seeds: the
    /// flood's is set by where the giant component lands in the chained
    /// path.
    pub fn round_scale(&self) -> f64 {
        match self.workload {
            Workload::Flood => f64::from(self.diameter()) + 1.0,
            _ => self.n() as f64,
        }
    }

    pub fn eccentricities(&self) -> &[u32] {
        &self.expected
    }

    /// Whether flood outputs are the reference distances from node 0.
    pub fn flood_ok(&self, outputs: &[Option<u32>]) -> bool {
        outputs.len() == self.expected.len()
            && outputs
                .iter()
                .zip(&self.expected)
                .all(|(&got, &want)| got == Some(want))
    }

    /// Runs one operation on `g` untraced, with nothing but the call
    /// itself inside, so the caller can time exactly the operation. Theorem
    /// 1 draws its measurements from the input's seed.
    pub fn op(&self, g: &Graph) -> Result<Raw, String> {
        match self.workload {
            Workload::Flood => {
                let (outputs, stats) = flood(g).map_err(|e| e.to_string())?;
                Ok(Raw::Flood(outputs, stats))
            }
            Workload::Apsp => classical::apsp::exact_diameter(g, config(g))
                .map(Raw::Apsp)
                .map_err(|e| e.to_string()),
            Workload::Exact => {
                let params = ExactParams::new(self.seed);
                exact::diameter(g, params, config(g))
                    .map(|run| Raw::Exact(Box::new(run)))
                    .map_err(|e| e.to_string())
            }
            Workload::ApspObserved => {
                let registry = metrics::Registry::shared();
                let flight = trace::flight::FlightRecorder::shared();
                let out = {
                    let _meter = metrics::install(registry.clone());
                    let _flight = trace::flight::install(flight.clone());
                    classical::apsp::exact_diameter(g, config(g)).map_err(|e| e.to_string())?
                };
                Ok(Raw::Observed(out, registry, flight))
            }
        }
    }

    /// Checks an operation's answer against the reference and returns
    /// what the operation was charged.
    pub fn check(&self, raw: &Raw) -> Result<Charged, String> {
        match raw {
            Raw::Flood(outputs, stats) => {
                if !self.flood_ok(outputs) {
                    return Err("flood distances differ from the reference BFS".into());
                }
                Ok(stats_charged(stats))
            }
            Raw::Apsp(out) => {
                self.check_apsp(out.diameter, out.radius, &out.eccentricities)?;
                Ok(ledger_charged(&out.ledger))
            }
            Raw::Exact(run) => {
                if run.value != self.diameter() {
                    return Err(format!(
                        "Theorem 1 answered {} for diameter {}",
                        run.value,
                        self.diameter()
                    ));
                }
                Ok(exact_charged(run))
            }
            Raw::Observed(out, registry, flight) => {
                self.check_apsp(out.diameter, out.radius, &out.eccentricities)?;
                let charged = ledger_charged(&out.ledger);
                check_recorders(&registry.borrow(), &flight.borrow(), &charged)?;
                Ok(charged)
            }
        }
    }

    pub fn check_apsp(&self, diameter: u32, radius: u32, eccs: &[u32]) -> Result<(), String> {
        if diameter != self.diameter() || radius != self.radius() || eccs != self.eccentricities() {
            return Err(format!(
                "APSP answered diameter {diameter}, radius {radius} for {}, {} \
                 (eccentricities equal: {})",
                self.diameter(),
                self.radius(),
                eccs == self.eccentricities()
            ));
        }
        Ok(())
    }
}

/// The single-threaded, fault-free CONGEST configuration every workload
/// runs under: one shard, default active-set scheduling.
pub fn config(g: &Graph) -> Config {
    Config::for_graph(g)
}

pub fn stats_charged(stats: &RunStats) -> Charged {
    Charged {
        rounds: stats.rounds,
        bits: stats.total_bits,
        messages: stats.messages,
    }
}

pub fn ledger_charged(ledger: &congest::RoundsLedger) -> Charged {
    Charged {
        rounds: ledger.total_rounds(),
        bits: ledger.total_bits(),
        messages: ledger.total_messages(),
    }
}

/// Theorem 1's charge: Initialization plus the quantum phase, whose bits
/// are the qubits the charged oracle applications communicate.
pub fn exact_charged(run: &exact::DiameterRun) -> Charged {
    Charged {
        rounds: run.rounds(),
        bits: run.init_ledger.total_bits() + run.oracle_schedule.qubits_for(&run.oracle),
        messages: run.init_ledger.total_messages() + run.oracle_schedule.messages_for(&run.oracle),
    }
}

/// The registry and the flight recorder must count the traffic the ledger
/// charged.
pub fn check_recorders(
    registry: &metrics::Registry,
    flight: &trace::FlightRecorder,
    charged: &Charged,
) -> Result<(), String> {
    let counted = registry.counter(metrics::names::MESSAGES);
    let recorded = flight.totals();
    if counted != charged.messages
        || recorded.messages != charged.messages
        || recorded.bits != charged.bits
    {
        return Err(format!(
            "recorders disagree with the ledger: registry {counted} and flight {} \
             messages, flight {} bits; ledger {} messages, {} bits",
            recorded.messages, recorded.bits, charged.messages, charged.bits
        ));
    }
    Ok(())
}

/// A flood token carrying the receiver's hop distance from node 0.
#[derive(Clone, Debug)]
pub struct Hop(u32);

impl Payload for Hop {
    fn size_bits(&self) -> usize {
        32
    }
}

/// Wake-on-message flood: node 0 starts at distance 0; every other node
/// adopts the first distance it hears, rebroadcasts `d + 1` and halts.
/// Every vote is `Halted`, so only nodes with mail are scheduled.
pub struct Flood {
    dist: Option<u32>,
}

impl Flood {
    pub fn new(_node: NodeId) -> Self {
        Flood { dist: None }
    }
}

impl NodeProgram for Flood {
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

/// Round cap for a flood on `g`: it quiesces after ecc(0) + 1 rounds.
pub fn flood_round_cap(g: &Graph) -> u64 {
    g.len() as u64 + 16
}

/// One flood from node 0 on a network built for this call.
pub fn flood(g: &Graph) -> Result<(Vec<Option<u32>>, RunStats), CongestError> {
    let mut net = Network::new(g, config(g), Flood::new);
    let stats = net.run_until_quiescent(flood_round_cap(g))?;
    Ok((net.into_outputs(), stats))
}
