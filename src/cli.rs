//! Argument parsing and dispatch for the `qdiam` command-line tool.
//!
//! Kept separate from the binary so the parsing and report logic is unit
//! tested. No external argument-parsing dependency: the grammar is small.

use std::fmt::Write as _;

use classical::hprw::HprwParams;
use classical::recovery::SurvivingComponent;
use congest::{Config, FaultPlan, RecoveryPolicy, RecoveryStats, RoundsLedger};
use diameter_quantum::approx::{self, ApproxParams};
use diameter_quantum::exact::ExactParams;
use diameter_quantum::{exact, exact_simple};
use graphs::Graph;

/// Which algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// Theorem 1: quantum exact diameter in `Õ(√(nD))` rounds.
    Exact,
    /// Section 3.1: the simpler quantum exact algorithm, `O(√n·D)` rounds.
    Simple,
    /// Theorem 4: quantum 3/2-approximation, `Õ(∛(nD) + D)` rounds.
    Approx,
    /// The classical `Θ(n)`-round exact baseline (PRT12/HW12).
    Classical,
    /// The classical HPRW 3/2-approximation, `Õ(√n + D)` rounds.
    ClassicalApprox,
    /// The trivial 2-approximation (`ecc(leader)`), `O(D)` rounds.
    TwoApprox,
    /// The classical `Θ(n)`-round girth computation (PRT12).
    Girth,
}

impl Algorithm {
    /// The stable lowercase name: the same token `Algorithm::parse`
    /// accepts and artifact filenames use.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Exact => "exact",
            Algorithm::Simple => "simple",
            Algorithm::Approx => "approx",
            Algorithm::Classical => "classical",
            Algorithm::ClassicalApprox => "classical-approx",
            Algorithm::TwoApprox => "two-approx",
            Algorithm::Girth => "girth",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "exact" => Ok(Algorithm::Exact),
            "simple" => Ok(Algorithm::Simple),
            "approx" => Ok(Algorithm::Approx),
            "classical" => Ok(Algorithm::Classical),
            "classical-approx" => Ok(Algorithm::ClassicalApprox),
            "two-approx" => Ok(Algorithm::TwoApprox),
            "girth" => Ok(Algorithm::Girth),
            other => Err(format!("unknown algorithm '{other}'")),
        }
    }
}

/// Which graph family to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// `P_n` — diameter `n − 1`.
    Path,
    /// `C_n` — diameter `⌊n/2⌋`.
    Cycle,
    /// Near-square grid with `n` nodes.
    Grid,
    /// Uniform random tree.
    Tree,
    /// Sparse random graph (average degree from `--degree`).
    Sparse,
    /// Erdős–Rényi `G(n, p)` (probability from `--p`), connected.
    Er,
    /// Barbell: two cliques and a bridge.
    Barbell,
    /// Lollipop: clique with a pendant path.
    Lollipop,
    /// Hypercube with at least `n` nodes.
    Hypercube,
    /// Load an edge-list file given with `--file` (ignores `--n`).
    File,
}

impl Family {
    /// The stable lowercase name: the same token [`Family::parse`] accepts
    /// and artifacts like `crossover.json` use.
    pub fn name(&self) -> &'static str {
        match self {
            Family::Path => "path",
            Family::Cycle => "cycle",
            Family::Grid => "grid",
            Family::Tree => "tree",
            Family::Sparse => "sparse",
            Family::Er => "er",
            Family::Barbell => "barbell",
            Family::Lollipop => "lollipop",
            Family::Hypercube => "hypercube",
            Family::File => "file",
        }
    }

    /// Parses a family name (the same tokens `--family` accepts).
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown token.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "path" => Ok(Family::Path),
            "cycle" => Ok(Family::Cycle),
            "grid" => Ok(Family::Grid),
            "tree" => Ok(Family::Tree),
            "sparse" => Ok(Family::Sparse),
            "er" => Ok(Family::Er),
            "barbell" => Ok(Family::Barbell),
            "lollipop" => Ok(Family::Lollipop),
            "hypercube" => Ok(Family::Hypercube),
            "file" => Ok(Family::File),
            other => Err(format!("unknown family '{other}'")),
        }
    }
}

/// Parsed command-line options.
#[derive(Clone, Debug, PartialEq)]
pub struct Options {
    /// Algorithm to run.
    pub algorithm: Algorithm,
    /// Graph family.
    pub family: Family,
    /// Number of nodes (approximate for grid/hypercube).
    pub n: usize,
    /// RNG seed (graph construction and quantum measurement).
    pub seed: u64,
    /// Average degree for `--family sparse`.
    pub degree: f64,
    /// Edge probability for `--family er`.
    pub p: f64,
    /// Cluster-size override for the approximation algorithms.
    pub s: Option<usize>,
    /// Quantum failure probability `δ`.
    pub delta: f64,
    /// Edge-list file for `--family file`.
    pub file: Option<String>,
    /// Print per-phase ledgers.
    pub verbose: bool,
    /// Write a JSONL event trace of the run to this path.
    pub trace: Option<String>,
    /// Fault-injection spec (see [`congest::FaultPlan::parse`]); validated
    /// at parse time, kept as the raw text so reports can echo it.
    pub faults: Option<String>,
    /// Recovery-policy spec (see [`congest::RecoveryPolicy::parse`]);
    /// `Some("")` is the bare `--recover` flag (the standard policy).
    pub recover: Option<String>,
    /// Export the run's metrics registry to this path (`.json` → JSON,
    /// anything else → Prometheus text).
    pub metrics: Option<String>,
    /// Enable the critical-path profiler (`qdiam report` forces this on).
    pub critical_path: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            algorithm: Algorithm::Exact,
            family: Family::Sparse,
            n: 128,
            seed: 0,
            degree: 6.0,
            p: 0.1,
            s: None,
            delta: 0.01,
            file: None,
            verbose: false,
            trace: None,
            faults: None,
            recover: None,
            metrics: None,
            critical_path: false,
        }
    }
}

/// Usage text printed on `--help` or a parse error.
pub const USAGE: &str = "\
qdiam — quantum CONGEST diameter computation (Le Gall & Magniez, PODC 2018)

USAGE: qdiam <ALGORITHM> [OPTIONS]
       qdiam trace-summary <TRACE.jsonl>
       qdiam crossover [CROSSOVER OPTIONS]
       qdiam timeline <ALGORITHM> [OPTIONS]
       qdiam report <ALGORITHM> [OPTIONS] [--out DIR]

ALGORITHMS:
  exact             quantum exact diameter, Õ(√(nD)) rounds   (Theorem 1)
  simple            quantum exact, O(√n·D) rounds             (Section 3.1)
  approx            quantum 3/2-approximation, Õ(∛(nD)+D)     (Theorem 4)
  classical         classical exact baseline, Θ(n) rounds     (PRT12/HW12)
  classical-approx  classical 3/2-approximation, Õ(√n+D)      (HPRW14)
  two-approx        eccentricity of a leader, O(D) rounds
  girth             classical girth computation, Θ(n) rounds  (PRT12)

COMMANDS:
  trace-summary     aggregate a --trace JSONL file into per-phase/per-edge
                    rollups and print them
  crossover         sweep classical BFS-APSP vs quantum exact/approx across
                    graph families and sizes under the constant-honest cost
                    model; writes crossover.json + CROSSOVER.md into the
                    results directory.  Options: --families a,b (default
                    sparse,tree)  --ns 16,24,... (default 16,24,32,48,64)
                    --seed S  --qubit-factor F (classical bits one qubit
                    costs; default 100)  --header-bits B (per-message
                    framing; default 64)  --no-approx  --out DIR
                    --metrics PATH
  timeline          run an algorithm with the flight recorder installed and
                    print the per-round timeline (lifetime totals, window
                    percentiles, a messages-per-round sparkline, and the
                    hottest rounds). Takes the same options as a run
  report            run an algorithm with the flight recorder, metrics
                    registry, and critical-path profiler all enabled, and
                    write a markdown run report (run summary, critical
                    path, timeline, cost-model totals, recovery ledger)
                    into the results directory (--out DIR overrides;
                    default QD_RESULTS_DIR or results)

OPTIONS:
  --family F   path|cycle|grid|tree|sparse|er|barbell|lollipop|hypercube|file
               (default: sparse)
  --file PATH  edge-list file ('n m' header + 'u v' lines) for --family file
  --n N        number of nodes (default: 128)
  --seed S     RNG seed (default: 0)
  --degree D   average degree for --family sparse (default: 6)
  --p P        edge probability for --family er (default: 0.1)
  --s S        cluster-size override for the approximations
  --delta D    quantum failure probability (default: 0.01)
  --trace PATH write a JSONL event trace of the run to PATH
  --metrics P  export the run's metrics registry to P after the run
               (.json extension -> JSON, anything else -> Prometheus text)
  --faults S   inject deterministic message/node faults; S is a comma-
               separated list of: seed=<u64>  drop=<p>  corrupt=<p>
               delay=<p>:<max>  link=<u>-<v>@<start>..<end>
               crash=<node>@<round>. Algorithms either still answer
               correctly or fail with a typed fault-detection error.
  --recover [S] enable self-healing for detected faults; S is a comma-
               separated list of: retry=<n>  retransmit=<rounds>
               checkpoint=<sources>  partial[=true|false]. A bare
               --recover (or S in {1, on, true, standard}) selects the
               standard policy retry=2,retransmit=2,checkpoint=16,partial;
               'off' disables recovery
  --critical-path
               enable the critical-path profiler: track the longest chain
               of causally ordered messages and add it to the report
               (qdiam report forces this on)
  --verbose    print per-phase round ledgers
  --help       this message

RECOVERY:
  With a policy active, detected faults are healed instead of fatal:
  failed protocols rerun under a deterministically reseeded fault plan
  (retry=N), tree protocols repeat their critical sends with idempotent
  receivers (retransmit=R), the eccentricity-wave schedule restarts from
  the last completed checkpoint segment instead of round 0
  (checkpoint=S sources), and crash-stops re-root onto the largest
  surviving connected component (partial) — the reported diameter then
  refers to that component. exact, simple, approx and classical heal
  under the policy; classical-approx, two-approx and girth do not, and
  reject an active policy (exit 1). Every healed run reports its
  recovery cost (retries, restarts, retransmissions, re-roots, wasted
  rounds/messages/bits). See RECOVERY.md for the full semantics.

ENVIRONMENT:
  QD_METRICS      metrics export path applied when --metrics is absent
  QD_FAULTS       fault spec applied when --faults is absent (same grammar);
                  also honored by the experiment binaries in crates/bench
  QD_RECOVER      recovery policy applied when --recover is absent (same
                  grammar); also honored by the experiment binaries in
                  crates/bench
  QD_SCALE        sweep-size multiplier for the experiment binaries
  QD_RESULTS_DIR  where experiment binaries write JSON artifacts
                  (default: results)
";

/// A fully parsed invocation: an algorithm run, a trace-file query, or a
/// crossover sweep.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Run an algorithm with the given options.
    Run(Options),
    /// Summarize a previously written `--trace` JSONL file.
    TraceSummary(String),
    /// Sweep classical vs quantum costs and emit the crossover report.
    Crossover(CrossoverOptions),
    /// Run an algorithm under the flight recorder and print its timeline.
    Timeline(Options),
    /// Run an algorithm under full observability and write a markdown run
    /// report into the results directory.
    Report(ReportOptions),
}

/// Parsed options of the `report` subcommand.
#[derive(Clone, Debug, PartialEq)]
pub struct ReportOptions {
    /// The run to perform (critical-path profiling is forced on).
    pub run: Options,
    /// Output directory override (default: `QD_RESULTS_DIR` or `results`).
    pub out: Option<String>,
}

/// Parsed options of the `crossover` subcommand.
#[derive(Clone, Debug, PartialEq)]
pub struct CrossoverOptions {
    /// The sweep configuration handed to [`crate::crossover::run`].
    pub params: crate::crossover::CrossoverParams,
    /// Output directory override (default: `QD_RESULTS_DIR` or `results`).
    pub out: Option<String>,
    /// Export the sweep's aggregate metrics registry to this path.
    pub metrics: Option<String>,
}

/// Parses a full command line (without the program name) into a [`Command`].
///
/// # Errors
///
/// As for [`parse`].
pub fn parse_command(args: &[String]) -> Result<Command, String> {
    match args.first().map(String::as_str) {
        Some("trace-summary") => match args {
            [_, path] => Ok(Command::TraceSummary(path.clone())),
            [_] => Err("trace-summary requires a path".into()),
            _ => Err("trace-summary takes exactly one path".into()),
        },
        Some("crossover") => parse_crossover(&args[1..]).map(Command::Crossover),
        Some("timeline") => parse(&args[1..]).map(Command::Timeline),
        Some("report") => parse_report(&args[1..]).map(Command::Report),
        _ => parse(args).map(Command::Run),
    }
}

/// Parses `report` arguments: `--out DIR` is peeled off, everything else is
/// an ordinary run invocation.
fn parse_report(args: &[String]) -> Result<ReportOptions, String> {
    let mut out = None;
    let mut rest = Vec::with_capacity(args.len());
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--out" {
            out = Some(
                iter.next()
                    .ok_or_else(|| "--out requires a value".to_string())?
                    .clone(),
            );
        } else {
            rest.push(arg.clone());
        }
    }
    Ok(ReportOptions {
        run: parse(&rest)?,
        out,
    })
}

fn parse_crossover(args: &[String]) -> Result<CrossoverOptions, String> {
    let mut opts = CrossoverOptions {
        params: crate::crossover::CrossoverParams::default(),
        out: None,
        metrics: None,
    };
    let mut iter = args.iter().peekable();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            iter.next().ok_or(format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--families" => {
                opts.params.families = value("--families")?
                    .split(',')
                    .map(|s| Family::parse(s.trim()))
                    .collect::<Result<_, _>>()?;
            }
            "--ns" => {
                opts.params.ns = value("--ns")?
                    .split(',')
                    .map(|s| s.trim().parse::<usize>().map_err(|e| format!("--ns: {e}")))
                    .collect::<Result<_, _>>()?;
                if opts.params.ns.iter().any(|&n| n < 2) {
                    return Err("--ns entries must be >= 2".into());
                }
            }
            "--seed" => {
                opts.params.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--qubit-factor" => {
                let f: f64 = value("--qubit-factor")?
                    .parse()
                    .map_err(|e| format!("--qubit-factor: {e}"))?;
                if !(f >= 0.0 && f.is_finite()) {
                    return Err("--qubit-factor must be finite and >= 0".into());
                }
                opts.params.cost.qubit_factor = f;
            }
            "--header-bits" => {
                opts.params.cost.header_bits = value("--header-bits")?
                    .parse()
                    .map_err(|e| format!("--header-bits: {e}"))?
            }
            "--no-approx" => opts.params.include_approx = false,
            "--out" => opts.out = Some(value("--out")?.clone()),
            "--metrics" => opts.metrics = Some(value("--metrics")?.clone()),
            other => return Err(format!("crossover: unknown option '{other}'")),
        }
    }
    Ok(opts)
}

/// Exports `registry` to `path`, creating parent directories first so
/// `--metrics results/run.prom` works before `results/` exists.
fn export_metrics(registry: &metrics::Registry, path: &str) -> Result<(), String> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| format!("--metrics '{path}': {e}"))?;
        }
    }
    metrics::export::write(registry, path).map_err(|e| format!("--metrics '{path}': {e}"))
}

/// Runs the crossover sweep, writes `crossover.json` + `CROSSOVER.md`, and
/// returns a console summary of the verdicts.
///
/// # Errors
///
/// Propagates sweep and filesystem errors as strings.
pub fn crossover(opts: &CrossoverOptions) -> Result<String, String> {
    let report = match &opts.metrics {
        Some(mpath) => {
            let registry = std::rc::Rc::new(std::cell::RefCell::new(metrics::Registry::with_cost(
                opts.params.cost,
            )));
            let report = {
                let _guard = metrics::install(registry.clone());
                crate::crossover::run(&opts.params)?
            };
            export_metrics(&registry.borrow(), mpath)?;
            report
        }
        None => crate::crossover::run(&opts.params)?,
    };
    let dir = opts
        .out
        .clone()
        .unwrap_or_else(|| std::env::var("QD_RESULTS_DIR").unwrap_or_else(|_| "results".into()));
    let (json_path, md_path) = report
        .write_artifacts(&dir)
        .map_err(|e| format!("writing crossover artifacts to '{dir}': {e}"))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "crossover sweep: {} points across {} families, ns {:?}",
        report.points.len(),
        report.params.families.len(),
        report.params.ns
    );
    for c in report.crossings.iter().filter(|c| c.metric == "cost_units") {
        let verdict = match (c.kind, c.n) {
            (crate::crossover::CrossKind::Empirical, Some(n)) => {
                format!("crossover at n = {n:.0}")
            }
            (crate::crossover::CrossKind::Projected, Some(n)) => {
                format!("projected crossover at n ≈ {n:.3e}")
            }
            _ => match c.ratio_at_max_n {
                Some(r) => format!("no crossover (factor {r:.2}x)"),
                None => "no crossover (ratio undefined)".to_string(),
            },
        };
        let _ = writeln!(
            out,
            "  {} / {} [cost_units]: {verdict}",
            c.family, c.quantum_algo
        );
    }
    let _ = writeln!(out, "wrote {}", json_path.display());
    let _ = writeln!(out, "wrote {}", md_path.display());
    if let Some(mpath) = &opts.metrics {
        let _ = writeln!(out, "metrics -> {mpath}");
    }
    Ok(out)
}

/// Runs the selected algorithm with the flight recorder installed and
/// appends the rendered per-round timeline to the run report.
///
/// # Errors
///
/// As for [`run`].
pub fn timeline(opts: &Options) -> Result<String, String> {
    let recorder = trace::flight::FlightRecorder::shared();
    let report = {
        let _guard = trace::flight::install(recorder.clone());
        run(opts)
    }?;
    Ok(format!(
        "{report}--- timeline ---\n{}",
        recorder.borrow().render()
    ))
}

/// Runs the selected algorithm under full observability — flight recorder,
/// metrics registry, and the critical-path profiler (forced on) — and
/// writes a markdown run report into the results directory.
///
/// # Errors
///
/// Propagates run and filesystem errors as strings.
pub fn report(opts: &ReportOptions) -> Result<String, String> {
    let mut run_opts = opts.run.clone();
    run_opts.critical_path = true;
    // The report needs the registry contents itself, so it owns the
    // install and performs the `--metrics`/`QD_METRICS` export that
    // [`run`] would otherwise do.
    let mpath = run_opts
        .metrics
        .take()
        .or_else(|| std::env::var("QD_METRICS").ok());
    let recorder = trace::flight::FlightRecorder::shared();
    let registry = metrics::Registry::shared();
    let console = {
        let _flight = trace::flight::install(recorder.clone());
        let _meter = metrics::install(registry.clone());
        run_with_trace(&run_opts)
    };
    // As in [`run`]: a failed run still leaves its export behind.
    let exported = mpath
        .as_ref()
        .map_or(Ok(()), |mpath| export_metrics(&registry.borrow(), mpath));
    let console = console?;
    exported?;
    let md = report_markdown(&run_opts, &console, &recorder.borrow(), &registry.borrow());
    let dir = opts
        .out
        .clone()
        .unwrap_or_else(|| std::env::var("QD_RESULTS_DIR").unwrap_or_else(|_| "results".into()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("report directory '{dir}': {e}"))?;
    let path = format!(
        "{dir}/REPORT_{}_{}_n{}.md",
        run_opts.algorithm.name(),
        run_opts.family.name(),
        run_opts.n
    );
    std::fs::write(&path, &md).map_err(|e| format!("writing '{path}': {e}"))?;
    let mut out = console;
    if let Some(mpath) = &mpath {
        let _ = writeln!(out, "metrics: -> {mpath}");
    }
    let _ = writeln!(out, "report -> {path}");
    Ok(out)
}

/// Renders the markdown run report combining the console summary, the
/// critical path, the flight-recorder timeline, the cost-model totals, and
/// the recovery ledger.
fn report_markdown(
    opts: &Options,
    console: &str,
    recorder: &trace::FlightRecorder,
    registry: &metrics::Registry,
) -> String {
    let mut md = String::new();
    let _ = writeln!(md, "# qdiam run report\n");
    let _ = writeln!(
        md,
        "- algorithm: `{}` | graph: `{}`, n = {} | seed: {}",
        opts.algorithm.name(),
        opts.family.name(),
        opts.n,
        opts.seed
    );
    let _ = writeln!(
        md,
        "- faults: {} | recovery: {}\n",
        opts.faults.as_deref().unwrap_or("none"),
        opts.recover.as_deref().unwrap_or("none")
    );
    let _ = writeln!(md, "## Run summary\n\n```\n{}```\n", console);
    let depth = registry
        .gauge(metrics::names::CRITICAL_PATH_DEPTH)
        .unwrap_or(0.0) as u64;
    let rounds = registry.counter(metrics::names::ROUNDS);
    let _ = writeln!(md, "## Critical path\n");
    let _ = writeln!(md, "- longest causal message chain: {depth} hops");
    let _ = writeln!(md, "- simulated rounds: {rounds}");
    if rounds > 0 {
        let _ = writeln!(
            md,
            "- chain / rounds: {:.3} — the chain lower-bounds the rounds any \
             schedule needs for this run's information flow; a Figure-2 wave \
             schedule bounds it above by the scheduled 2τ′-governed duration \
             (EXPERIMENTS.md § A11)",
            depth as f64 / rounds as f64
        );
    }
    let _ = writeln!(md, "\n## Timeline\n\n```\n{}```\n", recorder.render());
    let _ = writeln!(md, "## Cost totals\n");
    let _ = writeln!(md, "| metric | value |");
    let _ = writeln!(md, "|---|---|");
    for (name, value) in registry.counters() {
        let _ = writeln!(md, "| `{name}` | {value} |");
    }
    for (name, value) in registry.gauges() {
        let _ = writeln!(md, "| `{name}` | {value} |");
    }
    let _ = writeln!(md, "\n## Recovery\n");
    let actions = registry.counter(metrics::names::RECOVERY_ACTIONS);
    if actions == 0 {
        let _ = writeln!(md, "no recovery actions recorded");
    } else {
        let _ = writeln!(md, "- recovery actions: {actions}");
        let _ = writeln!(
            md,
            "- wasted rounds: {} | wasted wire bits: {}",
            registry.counter(metrics::names::RECOVERY_WASTED_ROUNDS),
            registry.counter(metrics::names::RECOVERY_WASTED_BITS)
        );
    }
    md
}

/// Parses arguments (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for malformed input; the caller prints
/// it together with [`USAGE`].
pub fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut iter = args.iter().peekable();
    let first = iter.next().ok_or("missing algorithm")?;
    if first == "--help" || first == "-h" {
        return Err(String::new()); // caller prints usage
    }
    opts.algorithm = Algorithm::parse(first)?;
    while let Some(flag) = iter.next() {
        if flag == "--recover" {
            // The value is optional: a bare `--recover` selects the
            // standard policy, exactly like `QD_RECOVER=1`.
            let spec = match iter.peek() {
                Some(next) if !next.starts_with("--") => iter.next().cloned().unwrap_or_default(),
                _ => String::new(),
            };
            RecoveryPolicy::parse(&spec).map_err(|e| format!("--recover: {e}"))?;
            opts.recover = Some(spec);
            continue;
        }
        let mut value = |name: &str| -> Result<&String, String> {
            iter.next().ok_or(format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--family" => opts.family = Family::parse(value("--family")?)?,
            "--n" => {
                opts.n = value("--n")?.parse().map_err(|e| format!("--n: {e}"))?;
                if opts.n == 0 {
                    return Err("--n must be positive".into());
                }
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--degree" => {
                opts.degree = value("--degree")?
                    .parse()
                    .map_err(|e| format!("--degree: {e}"))?
            }
            "--p" => opts.p = value("--p")?.parse().map_err(|e| format!("--p: {e}"))?,
            "--s" => opts.s = Some(value("--s")?.parse().map_err(|e| format!("--s: {e}"))?),
            "--delta" => {
                opts.delta = value("--delta")?
                    .parse()
                    .map_err(|e| format!("--delta: {e}"))?;
                if !(opts.delta > 0.0 && opts.delta < 1.0) {
                    return Err("--delta must be in (0, 1)".into());
                }
            }
            "--file" => opts.file = Some(value("--file")?.clone()),
            "--trace" => opts.trace = Some(value("--trace")?.clone()),
            "--faults" => {
                let spec = value("--faults")?;
                FaultPlan::parse(spec).map_err(|e| format!("--faults: {e}"))?;
                opts.faults = Some(spec.clone());
            }
            "--metrics" => opts.metrics = Some(value("--metrics")?.clone()),
            "--critical-path" => opts.critical_path = true,
            "--verbose" => opts.verbose = true,
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(opts)
}

/// Builds the requested graph.
///
/// # Errors
///
/// Returns a message for parameter combinations the family rejects.
pub fn build_graph(opts: &Options) -> Result<Graph, String> {
    let n = opts.n;
    let g = match opts.family {
        Family::Path => graphs::generators::path(n),
        Family::Cycle => {
            if n < 3 {
                return Err("cycle needs --n >= 3".into());
            }
            graphs::generators::cycle(n)
        }
        Family::Grid => {
            let rows = (n as f64).sqrt().round().max(1.0) as usize;
            graphs::generators::grid(rows, n.div_ceil(rows))
        }
        Family::Tree => graphs::generators::random_tree(n, opts.seed),
        Family::Sparse => {
            if n < 2 {
                return Err("sparse needs --n >= 2".into());
            }
            graphs::generators::random_sparse(n, opts.degree, opts.seed)
        }
        Family::Er => graphs::generators::random_connected(n, opts.p, opts.seed),
        Family::Barbell => {
            if n < 5 {
                return Err("barbell needs --n >= 5".into());
            }
            graphs::generators::barbell(n / 3, n - 2 * (n / 3))
        }
        Family::Lollipop => {
            if n < 3 {
                return Err("lollipop needs --n >= 3".into());
            }
            graphs::generators::lollipop(n / 2, n - n / 2)
        }
        Family::Hypercube => {
            let dim = (n.max(2) as f64).log2().ceil() as usize;
            graphs::generators::hypercube(dim.clamp(1, 20))
        }
        Family::File => {
            let path = opts
                .file
                .as_ref()
                .ok_or("--family file requires --file PATH")?;
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
            graphs::io::parse_edge_list(&text).map_err(|e| format!("'{path}': {e}"))?
        }
    };
    Ok(g)
}

/// Runs the selected algorithm and renders a report.
///
/// With `opts.trace` set, a [`trace::FileSink`] is installed for the
/// duration of the run and every event the algorithms emit is written to
/// the given JSONL path (see `qdiam trace-summary`). With `opts.metrics`
/// set, a [`metrics::Registry`] is installed and exported to the given path
/// after the run (`.json` → JSON, anything else → Prometheus text).
///
/// # Errors
///
/// Propagates algorithm errors (and trace/metrics I/O errors) as strings.
pub fn run(opts: &Options) -> Result<String, String> {
    let mpath = opts
        .metrics
        .clone()
        .or_else(|| std::env::var("QD_METRICS").ok());
    let Some(mpath) = &mpath else {
        return run_with_trace(opts);
    };
    let registry = metrics::Registry::shared();
    let report = {
        let _guard = metrics::install(registry.clone());
        run_with_trace(opts)
    };
    // A failed run is exported too: its registry says where the rounds and
    // faults went before the error. The run's error outranks the export's.
    let exported = export_metrics(&registry.borrow(), mpath);
    let report = report?;
    exported?;
    Ok(format!("{report}metrics: -> {mpath}\n"))
}

fn run_with_trace(opts: &Options) -> Result<String, String> {
    let Some(path) = &opts.trace else {
        return run_report(opts);
    };
    let sink = trace::FileSink::shared(path).map_err(|e| format!("--trace '{path}': {e}"))?;
    let report = {
        let _guard = trace::install(sink.clone());
        run_report(opts)
    }?;
    let mut file = sink.borrow_mut();
    trace::TraceSink::flush(&mut *file).map_err(|e| format!("--trace '{path}': {e}"))?;
    if let Some(e) = file.take_error() {
        return Err(format!("--trace '{path}': {e}"));
    }
    Ok(format!(
        "{report}trace: {} events -> {path}\n",
        file.lines_written()
    ))
}

/// Reads a `--trace` JSONL file back and renders the aggregated
/// [`trace::Summary`].
///
/// Robust to the two common ways a trace file ends up unusable: an empty
/// file (the run died before emitting anything) gets a clear error instead
/// of a blank report, and a truncated final line (the run was killed
/// mid-write) is dropped with a warning while the complete prefix is still
/// summarized. Corruption anywhere else keeps its line-numbered error.
///
/// # Errors
///
/// Propagates I/O and parse errors as strings.
pub fn trace_summary(path: &str) -> Result<String, String> {
    let (events, warning) = trace::read_jsonl_lossy(path).map_err(|e| format!("'{path}': {e}"))?;
    if events.is_empty() {
        return Err(match warning {
            Some(w) => format!("'{path}': {w}; no complete events before the truncation"),
            None => format!("'{path}': empty trace: the file contains no events"),
        });
    }
    let summary = trace::Summary::from_events(&events);
    let mut out = String::new();
    if let Some(w) = warning {
        let _ = writeln!(out, "warning: {w}");
    }
    let _ = write!(out, "{summary}");
    Ok(out)
}

/// Resolves the fault spec with `--faults` taking precedence over the
/// `QD_FAULTS` environment variable. Factored out of [`run`] so precedence
/// is testable without mutating the test process's environment.
fn resolve_faults(
    flag: Option<&str>,
    env: Option<&str>,
) -> Result<Option<(String, FaultPlan)>, String> {
    let Some(spec) = flag.or(env) else {
        return Ok(None);
    };
    let plan = FaultPlan::parse(spec).map_err(|e| format!("fault spec '{spec}': {e}"))?;
    Ok(Some((spec.to_string(), plan)))
}

/// Resolves the recovery policy with `--recover` taking precedence over
/// the `QD_RECOVER` environment variable. A spec that parses to the
/// passive policy (`off`) resolves to `None`, so `--recover off` and
/// `QD_RECOVER=0` really do disable recovery.
fn resolve_recovery(
    flag: Option<&str>,
    env: Option<&str>,
) -> Result<Option<RecoveryPolicy>, String> {
    let Some(spec) = flag.or(env) else {
        return Ok(None);
    };
    let policy = RecoveryPolicy::parse(spec).map_err(|e| format!("recovery spec '{spec}': {e}"))?;
    Ok(Some(policy).filter(|p| !p.is_passive()))
}

/// One driver's result in the one shape every `qdiam` run prints.
struct DriverReport {
    /// The answer lines, the `rounds:` line and any driver-specific
    /// line after it, newline-terminated.
    answer: String,
    /// Every ledger the run simulated, each under its `--verbose` dump
    /// heading. The `scheduling:` line sums over all of them.
    ledgers: Vec<(&'static str, RoundsLedger)>,
    /// What healing cost and the component answered for, printed when a
    /// recovery policy is active.
    healed: Option<Healing>,
}

/// A healing driver's recovery stats and surviving component.
type Healing = (RecoveryStats, Option<SurvivingComponent>);

impl DriverReport {
    /// Prints the report: the recovery lines of a healed run, the answer,
    /// one `scheduling:` line over every simulated ledger, and with
    /// `verbose` each non-empty ledger. The `scheduling:` line says how
    /// many of the run's `n · rounds` scheduling opportunities actually
    /// executed a node program: telemetry about the scheduler, not a
    /// protocol observable.
    fn write(&self, out: &mut String, verbose: bool) {
        if let Some((recovery, surviving)) = &self.healed {
            if let Some(s) = surviving {
                let _ = writeln!(
                    out,
                    "surviving component: {} nodes ({} crashed/unreachable excluded) — \
                     the answer refers to this component",
                    s.nodes.len(),
                    s.excluded
                );
            }
            let _ = writeln!(out, "recovery cost: {recovery}");
        }
        out.push_str(&self.answer);
        let ledgers = self.ledgers.iter().map(|(_, l)| l);
        let scheduled: u64 = ledgers.clone().map(|l| l.total_scheduled_nodes()).sum();
        let node_rounds: u64 = ledgers.map(|l| l.total_node_rounds()).sum();
        let fraction = if node_rounds == 0 {
            1.0
        } else {
            scheduled as f64 / node_rounds as f64
        };
        let _ = writeln!(
            out,
            "scheduling: {scheduled} of {node_rounds} node-rounds executed ({:.1}% active)",
            fraction * 100.0
        );
        if verbose {
            for (heading, ledger) in self.ledgers.iter().filter(|(_, l)| !l.is_empty()) {
                let _ = writeln!(out, "--- {heading} ---\n{ledger}");
            }
        }
    }
}

fn run_report(opts: &Options) -> Result<String, String> {
    let g = build_graph(opts)?;
    let mut cfg = Config::for_graph(&g).with_critical_path(opts.critical_path);
    let env_faults = std::env::var("QD_FAULTS").ok();
    let faults = resolve_faults(opts.faults.as_deref(), env_faults.as_deref())?;
    // A crash of a node the graph lacks would otherwise inject nothing.
    if let Some((spec, plan)) = &faults {
        if let Some((node, _)) = plan.crashes().iter().find(|&&(v, _)| v >= g.len()) {
            return Err(format!(
                "fault spec '{spec}': crash node {node} does not exist (the graph has {} nodes)",
                g.len()
            ));
        }
    }
    let env_recover = std::env::var("QD_RECOVER").ok();
    let policy = resolve_recovery(opts.recover.as_deref(), env_recover.as_deref())?;
    let heals = matches!(
        opts.algorithm,
        Algorithm::Exact | Algorithm::Simple | Algorithm::Approx | Algorithm::Classical
    );
    if let Some(policy) = policy.filter(|_| !heals) {
        return Err(format!(
            "recovery policy '{policy}': {} does not heal; only exact, simple, approx \
             and classical do",
            opts.algorithm.name()
        ));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "graph: {:?} family, {} nodes, {} edges",
        opts.family,
        g.len(),
        g.num_edges()
    );
    let faulty = faults.is_some();
    if let Some((spec, plan)) = faults {
        let _ = writeln!(out, "faults: {spec}");
        cfg = cfg.with_faults(plan);
    }
    if let Some(policy) = policy {
        let _ = writeln!(out, "recovery: {policy}");
        cfg = cfg.with_recovery(policy);
    }
    // Under an active fault plan or the critical-path profiler, make sure
    // a metrics registry observes the run so the report can state how many
    // faults were injected (`qd_faults_total`) and the longest causal
    // chain (`qd_critical_path_depth` — drivers run several networks, and
    // the max-tracking gauge is the cross-phase channel for the depth);
    // reuse the `--metrics` registry when one is already installed so the
    // export keeps seeing everything.
    let aux_registry = (faulty || opts.critical_path)
        .then(|| metrics::current().unwrap_or_else(metrics::Registry::shared));
    let _aux_guard = match &aux_registry {
        Some(r) if metrics::current().is_none() => Some(metrics::install(r.clone())),
        _ => None,
    };
    let (answer, ledgers, healing) = match opts.algorithm {
        Algorithm::Exact | Algorithm::Simple => {
            let params = ExactParams::new(opts.seed).with_failure_prob(opts.delta);
            let driver = match opts.algorithm {
                Algorithm::Simple => exact_simple::diameter,
                _ => exact::diameter,
            };
            let run = driver(&g, params, cfg).map_err(|e| e.to_string())?;
            let answer = format!(
                "diameter: {}\nrounds: {} (init {} + quantum {})\n\
                 oracle calls: {} | memory: {} qubits/node, {} at leader\n",
                run.value,
                run.rounds(),
                run.init_ledger.total_rounds(),
                run.quantum_rounds,
                run.oracle.total_ops(),
                run.memory.per_node_qubits,
                run.memory.leader_qubits
            );
            // Every simulated network: Initialization, then the probe and
            // verify runs of Figure 2.
            (
                answer,
                vec![
                    ("initialization ledger", run.init_ledger),
                    ("probe/verification ledger", run.probe_ledger),
                ],
                (run.recovery, run.surviving),
            )
        }
        Algorithm::Approx => {
            let mut params = ApproxParams::new(opts.seed).with_failure_prob(opts.delta);
            if let Some(s) = opts.s {
                params = params.with_s(s);
            }
            let run = approx::diameter(&g, params, cfg).map_err(|e| e.to_string())?;
            let answer = format!(
                "estimate D̄: {} (⌊2D/3⌋ ≤ D̄ ≤ D)\nrounds: {} (prep {} + quantum {}) | s = {}\n",
                run.estimate,
                run.rounds(),
                run.prep_ledger.total_rounds(),
                run.quantum_rounds,
                run.s
            );
            (
                answer,
                vec![
                    ("preparation ledger", run.prep_ledger),
                    ("probe/verification ledger", run.probe_ledger),
                ],
                (run.recovery, run.surviving),
            )
        }
        Algorithm::Classical => {
            let run = classical::apsp::exact_diameter(&g, cfg).map_err(|e| e.to_string())?;
            let answer = format!(
                "diameter: {} | radius: {}\nrounds: {}\n",
                run.diameter,
                run.radius,
                run.rounds()
            );
            (
                answer,
                vec![("ledger", run.ledger)],
                (run.recovery, run.surviving),
            )
        }
        Algorithm::ClassicalApprox => {
            let params = match opts.s {
                Some(s) => HprwParams::with_s(s, opts.seed),
                None => HprwParams::classical(g.len(), opts.seed),
            };
            let run =
                classical::hprw::approx_diameter(&g, params, cfg).map_err(|e| e.to_string())?;
            let answer = format!(
                "estimate D̄: {} (⌊2D/3⌋ ≤ D̄ ≤ D)\nrounds: {} | |R| = {}\n",
                run.estimate,
                run.rounds(),
                run.r_size
            );
            (answer, vec![("ledger", run.ledger)], Healing::default())
        }
        Algorithm::TwoApprox => {
            let run = classical::ecc::two_approx(&g, cfg).map_err(|e| e.to_string())?;
            let answer = format!(
                "estimate: {} (E ≤ D ≤ 2E) from ecc({})\nrounds: {}\n",
                run.estimate,
                run.node,
                run.rounds()
            );
            (answer, vec![("ledger", run.ledger)], Healing::default())
        }
        Algorithm::Girth => {
            let run = classical::girth::compute(&g, cfg).map_err(|e| e.to_string())?;
            let girth = run.girth.map_or_else(
                || "none (the network is a tree)".to_string(),
                |girth| girth.to_string(),
            );
            let answer = format!("girth: {girth}\nrounds: {}\n", run.rounds());
            (answer, vec![("ledger", run.ledger)], Healing::default())
        }
    };
    let report = DriverReport {
        answer,
        ledgers,
        healed: policy.map(|_| healing),
    };
    report.write(&mut out, opts.verbose);
    if let Some(registry) = &aux_registry {
        if faulty {
            let _ = writeln!(
                out,
                "faults injected: {}",
                registry.borrow().counter(metrics::names::FAULTS)
            );
        }
        if opts.critical_path {
            let depth = registry
                .borrow()
                .gauge(metrics::names::CRITICAL_PATH_DEPTH)
                .unwrap_or(0.0) as u64;
            let _ = writeln!(
                out,
                "critical path: longest causal message chain {depth} hops"
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_defaults_and_flags() {
        let o = parse(&args("exact")).unwrap();
        assert_eq!(o, Options::default());
        let o = parse(&args(
            "approx --family cycle --n 64 --seed 9 --s 12 --delta 0.001 --verbose",
        ))
        .unwrap();
        assert_eq!(o.algorithm, Algorithm::Approx);
        assert_eq!(o.family, Family::Cycle);
        assert_eq!(o.n, 64);
        assert_eq!(o.seed, 9);
        assert_eq!(o.s, Some(12));
        assert_eq!(o.delta, 0.001);
        assert!(o.verbose);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse(&args("warp-drive")).is_err());
        assert!(parse(&args("exact --n")).is_err());
        assert!(parse(&args("exact --n zero")).is_err());
        assert!(parse(&args("exact --n 0")).is_err());
        assert!(parse(&args("exact --delta 2")).is_err());
        assert!(parse(&args("exact --what 3")).is_err());
        assert_eq!(
            parse(&args("exact --shards 2")),
            Err("unknown option '--shards'".to_string())
        );
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn sched_flag_parses_and_rejects() {
        assert_eq!(
            parse(&args("exact --sched dense")),
            Err("unknown option '--sched'".to_string())
        );
    }

    #[test]
    fn faults_flag_parses_and_rejects() {
        let o = parse(&args("classical --faults drop=0.1,seed=7")).unwrap();
        assert_eq!(o.faults.as_deref(), Some("drop=0.1,seed=7"));
        assert!(parse(&args("classical --faults drop=two")).is_err());
        assert!(parse(&args("classical --faults")).is_err());
    }

    #[test]
    fn faults_flag_takes_precedence_over_env() {
        let from_flag = resolve_faults(Some("drop=0.5"), Some("drop=0.1"))
            .unwrap()
            .unwrap();
        assert_eq!(from_flag.0, "drop=0.5");
        let from_env = resolve_faults(None, Some("crash=3@2")).unwrap().unwrap();
        assert_eq!(from_env.0, "crash=3@2");
        assert!(resolve_faults(None, None).unwrap().is_none());
        assert!(resolve_faults(None, Some("nonsense")).is_err());
    }

    #[test]
    fn recover_flag_parses_bare_and_with_spec() {
        // Bare flag: the standard policy, even with more flags after it.
        let o = parse(&args("classical --recover --verbose")).unwrap();
        assert_eq!(o.recover.as_deref(), Some(""));
        assert!(o.verbose);
        let o = parse(&args("classical --recover retry=3,partial --n 12")).unwrap();
        assert_eq!(o.recover.as_deref(), Some("retry=3,partial"));
        assert_eq!(o.n, 12);
        assert!(parse(&args("classical --recover retry=lots")).is_err());
        assert!(parse(&args("classical --recover bogus=1")).is_err());
    }

    #[test]
    fn recover_flag_takes_precedence_over_env() {
        let from_flag = resolve_recovery(Some("retry=5"), Some("retry=1"))
            .unwrap()
            .unwrap();
        assert_eq!(from_flag.retries(), 5);
        let from_env = resolve_recovery(None, Some("1")).unwrap().unwrap();
        assert_eq!(from_env, RecoveryPolicy::standard());
        assert!(resolve_recovery(None, None).unwrap().is_none());
        // A spec that parses to the passive policy disables recovery.
        assert!(resolve_recovery(Some("off"), Some("1")).unwrap().is_none());
        assert!(resolve_recovery(None, Some("0")).unwrap().is_none());
        assert!(resolve_recovery(None, Some("nonsense")).is_err());
    }

    /// The `scheduling:` line of `exact`, `simple` and `approx` covers
    /// every simulated network: Initialization (or Theorem 4's
    /// preparation) and the probe and verify runs. It counts Figure 2's
    /// derived uncompute phase, which runs no network, zero times. The
    /// `rounds:` line still charges the first phase and the quantum phase
    /// only.
    #[test]
    fn scheduling_line_covers_every_simulated_network() {
        for algo in ["exact", "simple", "approx"] {
            let opts = parse(&args(&format!("{algo} --family sparse --n 256"))).unwrap();
            let report = run(&opts).unwrap();
            let g = build_graph(&opts).unwrap();
            let cfg = Config::for_graph(&g);
            let (first, probe, rounds) = match opts.algorithm {
                Algorithm::Approx => {
                    let params = ApproxParams::new(opts.seed).with_failure_prob(opts.delta);
                    let run = approx::diameter(&g, params, cfg).unwrap();
                    let rounds = format!("rounds: {} (prep ", run.rounds());
                    (run.prep_ledger, run.probe_ledger, rounds)
                }
                algorithm => {
                    let params = ExactParams::new(opts.seed).with_failure_prob(opts.delta);
                    let run = match algorithm {
                        Algorithm::Simple => exact_simple::diameter(&g, params, cfg),
                        _ => exact::diameter(&g, params, cfg),
                    }
                    .unwrap();
                    let rounds = format!("rounds: {} (init ", run.rounds());
                    (run.init_ledger, run.probe_ledger, rounds)
                }
            };
            let (mut scheduled, mut node_rounds, mut uncomputes) = (0, 0, 0);
            for ledger in [&first, &probe] {
                for (label, stats, reps) in ledger.phases() {
                    if label.contains("uncompute") {
                        assert_eq!((stats.scheduled_nodes, stats.node_rounds), (0, 0));
                        assert!(stats.rounds > 0, "{label}");
                        uncomputes += 1;
                    }
                    scheduled += stats.scheduled_nodes * reps;
                    node_rounds += stats.node_rounds * reps;
                }
            }
            assert!(
                node_rounds > first.total_node_rounds(),
                "{algo}: the probe ledger simulated nothing"
            );
            // Theorems 1 and 4 run Figure 2, and with it the uncompute
            // phase; Section 3.1 does not.
            assert_eq!(uncomputes > 0, algo != "simple", "{algo}");
            let line = format!("scheduling: {scheduled} of {node_rounds} node-rounds executed");
            assert!(report.contains(&line), "{algo}: {report}");
            assert!(report.contains(&rounds), "{algo}: {report}");
        }
    }

    /// A crash-stop that is fatal under the passive policy heals to the
    /// surviving component's diameter under `--recover`, for the classical
    /// and both quantum exact drivers.
    #[test]
    fn recover_heals_a_crash_to_the_surviving_component() {
        for algo in ["classical", "exact", "simple"] {
            let fatal = format!("{algo} --family path --n 10 --faults crash=9@0,seed=7");
            let err = run(&parse(&args(&fatal)).unwrap()).unwrap_err();
            assert!(err.contains("fault detected at round"), "{algo}: {err}");
            let healed = run(&parse(&args(&format!("{fatal} --recover"))).unwrap()).unwrap();
            assert!(healed.contains("recovery: retry=2"), "{algo}: {healed}");
            assert!(
                healed.contains("surviving component: 9 nodes (1 crashed/unreachable excluded)"),
                "{algo}: {healed}"
            );
            assert!(healed.contains("diameter: 8"), "{algo}: {healed}");
            assert!(healed.contains("recovery cost:"), "{algo}: {healed}");
            assert!(healed.contains("faults injected:"), "{algo}: {healed}");
        }
    }

    /// Only exact, simple, approx and classical heal. The other drivers
    /// reject an active policy once it is resolved (from `--recover` or
    /// `QD_RECOVER` alike) instead of accepting one no code applies; the
    /// passive policy is still accepted.
    #[test]
    fn drivers_that_do_not_heal_reject_an_active_policy() {
        for algo in ["classical-approx", "two-approx", "girth"] {
            let plan = format!("{algo} --family path --n 10 --seed 1 --faults crash=9@0,seed=7");
            let err = run(&parse(&args(&format!("{plan} --recover"))).unwrap()).unwrap_err();
            assert!(err.contains(&format!("{algo} does not heal")), "{err}");
            assert!(
                err.contains("only exact, simple, approx and classical do"),
                "{err}"
            );
            let off = format!("{algo} --family path --n 10 --seed 1 --recover off");
            assert!(run(&parse(&args(&off)).unwrap()).is_ok(), "{algo}");
        }
    }

    /// A crash of a node the graph does not have is a spec error, from
    /// `--faults` and `QD_FAULTS` alike, not a plan that injects nothing.
    #[test]
    fn a_crash_outside_the_graph_is_rejected() {
        let o = parse(&args(
            "exact --family path --n 8 --faults crash=99@0 --recover",
        ))
        .unwrap();
        let err = run(&o).unwrap_err();
        assert!(err.contains("crash node 99 does not exist"), "{err}");
        assert!(err.contains("8 nodes"), "{err}");
        // The last node is still a valid target.
        let o = parse(&args(
            "classical --family path --n 8 --faults crash=7@0 --recover",
        ))
        .unwrap();
        assert!(run(&o).unwrap().contains("diameter: 6"));
    }

    /// `--recover off` (and `QD_RECOVER=0`) really is the passive policy:
    /// the crash stays fatal.
    #[test]
    fn recover_off_is_inert() {
        let o = parse(&args(
            "classical --family path --n 10 --faults crash=9@0 --recover off",
        ))
        .unwrap();
        let err = run(&o).unwrap_err();
        assert!(err.contains("fault detected at round"), "{err}");
    }

    /// A total drop plan cannot yield a silently wrong answer: the run
    /// fails with a typed fault-detection error naming a round.
    #[test]
    fn faulty_run_degrades_to_a_typed_error() {
        let o = parse(&args("classical --family path --n 8 --faults drop=1.0")).unwrap();
        let err = run(&o).unwrap_err();
        assert!(err.contains("fault detected at round"), "{err}");
        // A passive plan (seed only) changes nothing but the report header.
        let o = parse(&args("classical --family path --n 8 --faults seed=5")).unwrap();
        let report = run(&o).unwrap();
        assert!(report.contains("diameter: 7"), "{report}");
        assert!(report.contains("faults: seed=5"), "{report}");
    }

    #[test]
    fn build_graph_families() {
        for family in [
            "path", "cycle", "grid", "tree", "sparse", "er", "barbell", "lollipop",
        ] {
            let o = parse(&args(&format!("exact --family {family} --n 24"))).unwrap();
            let g = build_graph(&o).unwrap();
            assert!(graphs::traversal::is_connected(&g), "{family}");
            assert!(g.len() >= 20, "{family} built only {} nodes", g.len());
        }
        let o = parse(&args("exact --family hypercube --n 30")).unwrap();
        assert_eq!(build_graph(&o).unwrap().len(), 32);
    }

    #[test]
    fn file_family_loads_edge_lists() {
        let dir = std::env::temp_dir().join("qdiam-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ring.edges");
        std::fs::write(
            &path,
            graphs::io::to_edge_list(&graphs::generators::cycle(12)),
        )
        .unwrap();
        let o = parse(&args(&format!(
            "classical --family file --file {}",
            path.display()
        )))
        .unwrap();
        let report = run(&o).unwrap();
        assert!(report.contains("diameter: 6"), "{report}");
        // Missing --file is a clear error.
        let o = parse(&args("classical --family file")).unwrap();
        assert!(run(&o).unwrap_err().contains("--file"));
    }

    #[test]
    fn parse_command_dispatches() {
        assert_eq!(
            parse_command(&args("trace-summary /tmp/x.jsonl")).unwrap(),
            Command::TraceSummary("/tmp/x.jsonl".into())
        );
        assert!(parse_command(&args("trace-summary")).is_err());
        assert!(parse_command(&args("trace-summary a b")).is_err());
        let o = parse_command(&args("exact --trace out.jsonl")).unwrap();
        assert_eq!(
            o,
            Command::Run(Options {
                trace: Some("out.jsonl".into()),
                ..Options::default()
            })
        );
    }

    #[test]
    fn trace_flag_writes_a_summarizable_jsonl_file() {
        let dir = std::env::temp_dir().join("qdiam-cli-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("exact.jsonl");
        let o = parse(&args(&format!(
            "exact --family grid --n 16 --trace {}",
            path.display()
        )))
        .unwrap();
        let report = run(&o).unwrap();
        assert!(report.contains("trace:"), "{report}");
        let rendered = trace_summary(path.to_str().unwrap()).unwrap();
        assert!(rendered.contains("leader election"), "{rendered}");
        assert!(rendered.contains("oracle"), "{rendered}");
        // A second run without the flag must not touch the file.
        let events_before = trace::read_jsonl(&path).unwrap().len();
        run(&parse(&args("exact --family grid --n 16")).unwrap()).unwrap();
        assert_eq!(trace::read_jsonl(&path).unwrap().len(), events_before);
    }

    #[test]
    fn run_each_algorithm_end_to_end() {
        for algo in [
            "exact",
            "simple",
            "approx",
            "classical",
            "classical-approx",
            "two-approx",
            "girth",
        ] {
            let o = parse(&args(&format!("{algo} --family cycle --n 16 --verbose"))).unwrap();
            let report = run(&o).unwrap_or_else(|e| panic!("{algo}: {e}"));
            assert!(
                report.contains("rounds"),
                "{algo} report missing rounds:\n{report}"
            );
        }
    }

    #[test]
    fn reports_are_consistent_with_each_other() {
        let exact = run(&parse(&args("classical --family grid --n 25")).unwrap()).unwrap();
        let quantum = run(&parse(&args("exact --family grid --n 25")).unwrap()).unwrap();
        // Both must state the same diameter (8 for a 5x5 grid).
        assert!(exact.contains("diameter: 8"), "{exact}");
        assert!(quantum.contains("diameter: 8"), "{quantum}");
    }

    #[test]
    fn trace_summary_rejects_empty_files_clearly() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("qd-cli-empty-{}.jsonl", std::process::id()));
        std::fs::write(&path, "").unwrap();
        let err = trace_summary(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("empty trace"), "{err}");
        // Blank lines only: still an empty trace, same clear error.
        std::fs::write(&path, "\n\n\n").unwrap();
        let err = trace_summary(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("empty trace"), "{err}");
        std::fs::remove_file(&path).unwrap();
        // Missing file: plain I/O error with the path.
        let err = trace_summary(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("qd-cli-empty"), "{err}");
    }

    #[test]
    fn trace_summary_recovers_truncated_traces_with_a_warning() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("qd-cli-trunc-{}.jsonl", std::process::id()));
        // A real trace, then chop the file mid-line as a crash would.
        let mut o = parse(&args("classical --family cycle --n 12")).unwrap();
        o.trace = Some(path.to_str().unwrap().to_string());
        run(&o).unwrap();
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 7]).unwrap();
        let rendered = trace_summary(path.to_str().unwrap()).unwrap();
        assert!(rendered.starts_with("warning:"), "{rendered}");
        assert!(rendered.contains("trace truncated"), "{rendered}");
        assert!(rendered.contains("leader election"), "{rendered}");
        // A file that is *only* a truncated line errors rather than
        // printing a summary of nothing.
        std::fs::write(&path, "{\"type\":\"rou").unwrap();
        let err = trace_summary(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("no complete events"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn parse_command_dispatches_crossover() {
        let cmd = parse_command(&args(
            "crossover --families path,tree --ns 8,12 --seed 5 --qubit-factor 10 \
             --header-bits 32 --no-approx --out /tmp/x --metrics /tmp/x/m.json",
        ))
        .unwrap();
        let Command::Crossover(o) = cmd else {
            panic!("expected crossover command");
        };
        assert_eq!(o.params.families, vec![Family::Path, Family::Tree]);
        assert_eq!(o.params.ns, vec![8, 12]);
        assert_eq!(o.params.seed, 5);
        assert_eq!(o.params.cost.qubit_factor, 10.0);
        assert_eq!(o.params.cost.header_bits, 32);
        assert!(!o.params.include_approx);
        assert_eq!(o.out.as_deref(), Some("/tmp/x"));
        assert_eq!(o.metrics.as_deref(), Some("/tmp/x/m.json"));
    }

    #[test]
    fn parse_crossover_rejects_garbage() {
        assert!(parse_command(&args("crossover --ns 1")).is_err());
        assert!(parse_command(&args("crossover --ns")).is_err());
        assert!(parse_command(&args("crossover --families warp")).is_err());
        assert!(parse_command(&args("crossover --qubit-factor -3")).is_err());
        assert!(parse_command(&args("crossover --what 1")).is_err());
    }

    #[test]
    fn parse_command_dispatches_timeline_and_report() {
        let cmd = parse_command(&args("timeline classical --family path --n 16")).unwrap();
        let Command::Timeline(o) = cmd else {
            panic!("expected timeline command");
        };
        assert_eq!(o.algorithm, Algorithm::Classical);
        assert_eq!(o.family, Family::Path);
        assert_eq!(o.n, 16);
        let cmd = parse_command(&args("report exact --family grid --n 25 --out /tmp/r")).unwrap();
        let Command::Report(o) = cmd else {
            panic!("expected report command");
        };
        assert_eq!(o.run.algorithm, Algorithm::Exact);
        assert_eq!(o.run.family, Family::Grid);
        assert_eq!(o.out.as_deref(), Some("/tmp/r"));
        assert!(parse_command(&args("timeline")).is_err());
        assert!(parse_command(&args("report warp-drive")).is_err());
    }

    /// `qdiam timeline` is `run` plus the flight recorder's rendering —
    /// the answer is unchanged and the per-round telemetry follows it.
    #[test]
    fn timeline_appends_the_flight_recorder_render() {
        let o = parse(&args("classical --family path --n 24")).unwrap();
        let out = timeline(&o).unwrap();
        assert!(out.contains("diameter: 23"), "{out}");
        assert!(out.contains("--- timeline ---"), "{out}");
        assert!(out.contains("flight recorder:"), "{out}");
        assert!(out.contains("hottest rounds"), "{out}");
    }

    /// The timeline counts every recovery the trace holds, including the
    /// ones a driver notes after the last simulated round closes.
    #[test]
    fn timeline_counts_recoveries_noted_after_the_last_round() {
        let path = std::env::temp_dir().join(format!("qd-cli-tl-{}.jsonl", std::process::id()));
        let mut o = parse(&args(
            "classical --family path --n 64 --seed 5 --faults drop=0.001,seed=3 --recover",
        ))
        .unwrap();
        o.trace = Some(path.to_str().unwrap().to_string());
        let out = timeline(&o).unwrap();
        let events = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let traced = events.matches("\"type\":\"recovery\"").count();
        assert_eq!(traced, 7);
        assert!(out.contains("| recoveries 7 |"), "{out}");
    }

    /// `--critical-path` adds the profiler's chain-depth line to the run
    /// report without changing the answer.
    #[test]
    fn critical_path_flag_reports_chain_depth() {
        let o = parse(&args("classical --family path --n 16 --critical-path")).unwrap();
        let out = run(&o).unwrap();
        assert!(out.contains("diameter: 15"), "{out}");
        let line = out
            .lines()
            .find(|l| l.starts_with("critical path: "))
            .unwrap_or_else(|| panic!("missing critical-path line:\n{out}"));
        let depth: u64 = line
            .trim_end_matches(" hops")
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(depth > 0, "profiler saw no causal chain: {line}");
    }

    /// `qdiam report` writes the full markdown run report with every
    /// section the check.sh schema smoke greps for.
    #[test]
    fn report_writes_markdown_with_all_sections() {
        let dir = std::env::temp_dir().join(format!("qd-cli-report-{}", std::process::id()));
        let cmd = parse_command(&args(&format!(
            "report classical --family grid --n 25 --out {}",
            dir.display()
        )))
        .unwrap();
        let Command::Report(o) = cmd else {
            panic!("expected report command");
        };
        let console = report(&o).unwrap();
        assert!(console.contains("diameter: 8"), "{console}");
        assert!(console.contains("report -> "), "{console}");
        let path = dir.join("REPORT_classical_grid_n25.md");
        let md = std::fs::read_to_string(&path).unwrap();
        for section in [
            "# qdiam run report",
            "## Run summary",
            "## Critical path",
            "- longest causal message chain:",
            "## Timeline",
            "flight recorder:",
            "## Cost totals",
            "`qd_messages_total`",
            "`qd_rounds_total`",
            "## Recovery",
        ] {
            assert!(md.contains(section), "report missing {section:?}:\n{md}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn metrics_flag_exports_after_a_run() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("qd-cli-metrics-{}.json", std::process::id()));
        let mut o = parse(&args("classical --family cycle --n 12")).unwrap();
        o.metrics = Some(path.to_str().unwrap().to_string());
        let report = run(&o).unwrap();
        assert!(report.contains("metrics:"), "{report}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("qd_messages_total"), "{text}");
        assert!(text.contains("qd_rounds_total"), "{text}");
        std::fs::remove_file(&path).unwrap();
    }

    /// A run that fails under a fault plan still writes its `--metrics`
    /// export (the exit code stays an error), and the export counts the
    /// faults that brought it down — through `run` and through `report`.
    #[test]
    fn failed_runs_still_export_their_metrics() {
        let dir = std::env::temp_dir().join(format!("qd-cli-failed-{}", std::process::id()));
        let spec = "classical --family sparse --n 256 \
                    --faults seed=7,drop=0.01,delay=0.05:3,crash=4@10";
        let faults_total = |path: &std::path::Path| -> u64 {
            let text = std::fs::read_to_string(path).unwrap();
            let line = text
                .lines()
                .find(|l| l.starts_with("qd_faults_total "))
                .unwrap_or_else(|| panic!("no qd_faults_total in {text}"));
            line["qd_faults_total ".len()..].trim().parse().unwrap()
        };
        let path = dir.join("run.prom");
        let mut o = parse(&args(spec)).unwrap();
        o.metrics = Some(path.to_str().unwrap().to_string());
        let err = run(&o).unwrap_err();
        assert!(err.contains("fault detected"), "{err}");
        assert!(faults_total(&path) > 0);

        let mpath = dir.join("report.prom");
        let cmd = parse_command(&args(&format!(
            "report {spec} --out {} --metrics {}",
            dir.display(),
            mpath.display()
        )))
        .unwrap();
        let Command::Report(o) = cmd else {
            panic!("expected report command");
        };
        assert!(report(&o).is_err());
        assert!(faults_total(&mpath) > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
