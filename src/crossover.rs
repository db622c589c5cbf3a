//! The classical-vs-quantum crossover engine.
//!
//! The capstone question of this reproduction (see ROADMAP.md and Kerger
//! et al., "Mind the Õ"): for which `(n, D)` does Theorem 1's `Õ(√(nD))`
//! quantum diameter algorithm actually beat the classical `Θ(n)` BFS-APSP
//! baseline once *real* constants are charged? This module sweeps both
//! (plus the Theorem 4 approximation) across graph families and sizes,
//! prices every run with the constant-honest [`metrics::CostModel`] —
//! actual payload bits, per-message framing, measured per-oracle-application
//! qubit traffic — and reports:
//!
//! * per-`(n, D)` cost tables (rounds, wire bits, qubit sends, cost units),
//! * the first empirical crossover point per metric, or its demonstrated
//!   absence together with the measured constant factor,
//! * log-log slope fits extending the paper's Table 1 with measured
//!   exponents, and projected crossover points where the sweep is too
//!   small to show one, and
//! * the *break-even qubit factor*: the largest price per communicated
//!   qubit (in classical wire bits) under which the quantum run still wins.
//!
//! Artifacts: `crossover.json` (machine-readable, schema below) and an
//! auto-generated Markdown report `CROSSOVER.md`, both written by
//! [`CrossoverReport::write_artifacts`] — usually into `results/` via
//! `qdiam crossover` or the `crossover` bench bin.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use congest::{Config, RoundsLedger};
use diameter_quantum::approx::{self, ApproxParams};
use diameter_quantum::exact::{self, ExactParams};
use metrics::CostModel;
use trace::Json;

use crate::cli::{build_graph, Family, Options};

/// Sweep configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct CrossoverParams {
    /// Graph families to sweep.
    pub families: Vec<Family>,
    /// Node counts to sweep, ascending.
    pub ns: Vec<usize>,
    /// RNG seed (graph construction and quantum measurement).
    pub seed: u64,
    /// The constant-honest price list.
    pub cost: CostModel,
    /// Also run the Theorem 4 `3/2`-approximation.
    pub include_approx: bool,
}

impl Default for CrossoverParams {
    fn default() -> Self {
        CrossoverParams {
            families: vec![Family::Sparse, Family::Tree],
            ns: vec![16, 24, 32, 48, 64],
            seed: 1,
            cost: CostModel::default(),
            include_approx: true,
        }
    }
}

/// One algorithm run, priced in real units.
#[derive(Clone, Debug, PartialEq)]
pub struct CostPoint {
    /// Graph family name.
    pub family: String,
    /// Nodes.
    pub n: usize,
    /// True diameter of the instance.
    pub d: u64,
    /// Algorithm identifier: `classical-apsp`, `quantum-exact`,
    /// `quantum-approx`.
    pub algo: String,
    /// Total CONGEST rounds (simulated plus Theorem 7 scheduled).
    pub rounds: u64,
    /// Classical messages delivered (simulated phases).
    pub classical_messages: u64,
    /// Classical payload bits delivered.
    pub classical_bits: u64,
    /// Quantum messages scheduled by charged oracle applications.
    pub quantum_messages: u64,
    /// Qubits communicated by charged oracle applications.
    pub qubit_sends: u64,
    /// Classical wire bits: payload plus per-message framing for every
    /// message, classical or quantum.
    pub wire_bits: u64,
    /// Total cost under the model: wire bits plus the qubit premium.
    pub cost_units: f64,
}

impl CostPoint {
    /// The value of a named metric, for crossover scans and fits.
    pub fn metric(&self, metric: &str) -> f64 {
        match metric {
            "rounds" => self.rounds as f64,
            "wire_bits" => self.wire_bits as f64,
            "qubit_sends" => self.qubit_sends as f64,
            "cost_units" => self.cost_units,
            other => panic!("unknown metric '{other}'"),
        }
    }
}

/// A least-squares power-law fit `metric ≈ e^intercept · n^slope` for one
/// `(family, algo)` series.
#[derive(Clone, Debug, PartialEq)]
pub struct Fit {
    /// Graph family.
    pub family: String,
    /// Algorithm.
    pub algo: String,
    /// Metric name.
    pub metric: String,
    /// Fitted exponent of `n`.
    pub slope: f64,
    /// Fitted `ln` of the constant factor.
    pub intercept: f64,
}

/// How (or whether) a quantum series crossed the classical baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrossKind {
    /// Quantum beat classical at some swept `n`.
    Empirical,
    /// No crossover in the sweep, but the fitted quantum slope is smaller:
    /// the fits intersect at the projected `n`.
    Projected,
    /// The fitted slopes differ by less than [`SLOPE_EPS`] (or so little
    /// that the projected intersection overflows `f64`): the sweep cannot
    /// tell the growth rates apart, so no finite crossover is projected.
    IndistinguishableSlopes,
    /// Quantum does not cross (steeper slope and never cheaper).
    None,
}

impl CrossKind {
    /// Stable identifier used in the JSON artifact.
    pub fn as_str(&self) -> &'static str {
        match self {
            CrossKind::Empirical => "empirical",
            CrossKind::Projected => "projected",
            CrossKind::IndistinguishableSlopes => "indistinguishable-slopes",
            CrossKind::None => "none",
        }
    }
}

/// Slope differences at or below this are treated as *indistinguishable*:
/// the projected-intersection formula divides by the difference, so values
/// this small produce astronomically large (or non-finite) `n*` that say
/// nothing beyond "the fits are parallel to within noise".
pub const SLOPE_EPS: f64 = 1e-6;

/// The crossover verdict for one `(family, quantum algo, metric)` triple.
#[derive(Clone, Debug, PartialEq)]
pub struct Crossing {
    /// Graph family.
    pub family: String,
    /// The quantum series compared against `classical-apsp`.
    pub quantum_algo: String,
    /// Metric name.
    pub metric: String,
    /// Verdict.
    pub kind: CrossKind,
    /// Empirical: the smallest swept `n` where quantum won. Projected: the
    /// fitted intersection point.
    pub n: Option<f64>,
    /// `quantum / classical` at the largest swept `n` — the measured
    /// constant factor (values < 1 mean quantum is already cheaper).
    /// `None` when the classical metric is zero there (e.g. `qubit_sends`
    /// for a purely classical run): the ratio is undefined, not infinite.
    pub ratio_at_max_n: Option<f64>,
    /// For `cost_units` only: the qubit price at which the largest swept
    /// instance breaks even ([`CostModel::break_even_factor`]).
    pub break_even_qubit_factor: Option<f64>,
}

/// The full sweep result.
#[derive(Clone, Debug, PartialEq)]
pub struct CrossoverReport {
    /// Echo of the sweep configuration.
    pub params: CrossoverParams,
    /// Every priced run.
    pub points: Vec<CostPoint>,
    /// Power-law fits per `(family, algo, metric)`.
    pub fits: Vec<Fit>,
    /// Verdicts per `(family, quantum algo, metric)`.
    pub crossings: Vec<Crossing>,
}

/// Metrics scanned for crossovers and fitted for slopes. `qubit_sends` is
/// identically zero for the classical baseline, so its fit is absent there
/// and its crossover ratio is undefined — the pipeline must degrade to
/// `null`s in the artifact, never NaN/∞ (pinned by regression test).
pub const METRICS: [&str; 4] = ["rounds", "wire_bits", "qubit_sends", "cost_units"];

/// Runs the sweep.
///
/// # Errors
///
/// Propagates graph-construction and algorithm errors as strings.
pub fn run(params: &CrossoverParams) -> Result<CrossoverReport, String> {
    if params.ns.is_empty() {
        return Err("crossover sweep needs at least one n".into());
    }
    if params.families.is_empty() {
        return Err("crossover sweep needs at least one family".into());
    }
    let mut points = Vec::new();
    for &family in &params.families {
        for &n in &params.ns {
            points.extend(sweep_point(params, family, n)?);
        }
    }
    let fits = compute_fits(&points);
    let crossings = compute_crossings(&points, &fits, &params.cost);
    Ok(CrossoverReport {
        params: params.clone(),
        points,
        fits,
        crossings,
    })
}

fn sweep_point(
    params: &CrossoverParams,
    family: Family,
    n: usize,
) -> Result<Vec<CostPoint>, String> {
    let opts = Options {
        family,
        n,
        seed: params.seed,
        ..Options::default()
    };
    let g = build_graph(&opts)?;
    let cfg = Config::for_graph(&g);
    let fam = family.name();

    // Classical BFS-APSP baseline: everything is simulated traffic.
    let classical = classical::apsp::exact_diameter(&g, cfg)
        .map_err(|e| format!("classical-apsp on {fam} n={n}: {e}"))?;
    let d = u64::from(classical.diameter);
    // Every point: the classical ledger's simulated traffic plus the
    // quantum phase's charged messages and qubits, framed and priced
    // under the cost model.
    let point = |algo: &str, rounds, classical: &RoundsLedger, quantum_messages, qubit_sends| {
        let classical_messages = classical.total_messages();
        let classical_bits = classical.total_bits();
        let wire_bits =
            classical_bits + params.cost.header_bits * (classical_messages + quantum_messages);
        CostPoint {
            family: fam.to_string(),
            n,
            d,
            algo: algo.into(),
            rounds,
            classical_messages,
            classical_bits,
            quantum_messages,
            qubit_sends,
            wire_bits,
            cost_units: params.cost.cost_units(wire_bits, qubit_sends),
        }
    };
    let mut out = vec![point(
        "classical-apsp",
        classical.rounds(),
        &classical.ledger,
        0,
        0,
    )];

    // Theorem 1 exact: the init ledger is classical traffic; the quantum
    // phase's traffic is charged applications × measured per-application
    // constants (probe/verification runs are diagnostics, not charged).
    let run = exact::diameter(&g, ExactParams::new(params.seed), cfg)
        .map_err(|e| format!("quantum-exact on {fam} n={n}: {e}"))?;
    out.push(point(
        "quantum-exact",
        run.rounds(),
        &run.init_ledger,
        run.oracle_schedule.messages_for(&run.oracle),
        run.oracle_schedule.qubits_for(&run.oracle),
    ));

    if params.include_approx {
        let run = approx::diameter(&g, ApproxParams::new(params.seed), cfg)
            .map_err(|e| format!("quantum-approx on {fam} n={n}: {e}"))?;
        out.push(point(
            "quantum-approx",
            run.rounds(),
            &run.prep_ledger,
            run.oracle_schedule.messages_for(&run.oracle),
            run.oracle_schedule.qubits_for(&run.oracle),
        ));
    }
    Ok(out)
}

/// Series of one algorithm within one family, ascending in `n`.
fn series<'a>(points: &'a [CostPoint], family: &str, algo: &str) -> Vec<&'a CostPoint> {
    let mut s: Vec<&CostPoint> = points
        .iter()
        .filter(|p| p.family == family && p.algo == algo)
        .collect();
    s.sort_by_key(|p| p.n);
    s
}

fn algos(points: &[CostPoint]) -> Vec<String> {
    let mut v = Vec::new();
    for p in points {
        if !v.contains(&p.algo) {
            v.push(p.algo.clone());
        }
    }
    v
}

fn families(points: &[CostPoint]) -> Vec<String> {
    let mut v = Vec::new();
    for p in points {
        if !v.contains(&p.family) {
            v.push(p.family.clone());
        }
    }
    v
}

/// Least squares in `ln` space: `(slope, intercept)` of
/// `ln y = intercept + slope · ln x`. Skips non-positive values; returns
/// `None` with fewer than two usable points.
pub fn loglog_fit(xs: &[f64], ys: &[f64]) -> Option<(f64, f64)> {
    let pts: Vec<(f64, f64)> = xs
        .iter()
        .zip(ys)
        .filter(|&(&x, &y)| x > 0.0 && y > 0.0)
        .map(|(&x, &y)| (x.ln(), y.ln()))
        .collect();
    if pts.len() < 2 {
        return None;
    }
    let n = pts.len() as f64;
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = pts.iter().map(|p| (p.0 - mx).powi(2)).sum();
    if sxx == 0.0 {
        return None;
    }
    let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let slope = sxy / sxx;
    Some((slope, my - slope * mx))
}

fn compute_fits(points: &[CostPoint]) -> Vec<Fit> {
    let mut fits = Vec::new();
    for family in families(points) {
        for algo in algos(points) {
            let s = series(points, &family, &algo);
            let xs: Vec<f64> = s.iter().map(|p| p.n as f64).collect();
            for metric in METRICS {
                let ys: Vec<f64> = s.iter().map(|p| p.metric(metric)).collect();
                if let Some((slope, intercept)) = loglog_fit(&xs, &ys) {
                    fits.push(Fit {
                        family: family.clone(),
                        algo: algo.clone(),
                        metric: metric.to_string(),
                        slope,
                        intercept,
                    });
                }
            }
        }
    }
    fits
}

fn find_fit<'a>(fits: &'a [Fit], family: &str, algo: &str, metric: &str) -> Option<&'a Fit> {
    fits.iter()
        .find(|f| f.family == family && f.algo == algo && f.metric == metric)
}

/// Projects where a quantum cost curve undercuts a classical one, from
/// their [`loglog_fit`]s, each given as `(slope, intercept)`.
///
/// Returns [`CrossKind::Projected`] with the intersection `n*` when the
/// quantum fit grows strictly slower. Slopes that differ by at most
/// [`SLOPE_EPS`], and intersections that overflow `f64` (the same
/// ill-conditioning in disguise), give [`CrossKind::IndistinguishableSlopes`]
/// instead of a meaningless or infinite `n*`; a quantum fit that grows at
/// least as fast (or a non-finite slope) gives [`CrossKind::None`].
///
/// # Example
///
/// ```
/// use congest_diameter::crossover::{project_crossover, CrossKind};
///
/// // 100·n against 1000·√n: they meet at n* = 100.
/// let classical = (1.0, 100f64.ln());
/// let quantum = (0.5, 1000f64.ln());
/// let (kind, n_star) = project_crossover(classical, quantum);
/// assert_eq!(kind, CrossKind::Projected);
/// assert!((n_star.unwrap() - 100.0).abs() < 1e-9);
/// assert_eq!(project_crossover(classical, classical).0, CrossKind::IndistinguishableSlopes);
/// ```
pub fn project_crossover(classical: (f64, f64), quantum: (f64, f64)) -> (CrossKind, Option<f64>) {
    let ((c_slope, c_intercept), (q_slope, q_intercept)) = (classical, quantum);
    let diff = c_slope - q_slope;
    if diff.abs() <= SLOPE_EPS {
        return (CrossKind::IndistinguishableSlopes, None);
    }
    if !diff.is_finite() || diff < 0.0 {
        return (CrossKind::None, None);
    }
    let n_star = ((q_intercept - c_intercept) / diff).exp();
    if n_star.is_finite() {
        (CrossKind::Projected, Some(n_star))
    } else {
        (CrossKind::IndistinguishableSlopes, None)
    }
}

fn compute_crossings(points: &[CostPoint], fits: &[Fit], cost: &CostModel) -> Vec<Crossing> {
    let mut crossings = Vec::new();
    for family in families(points) {
        let classical = series(points, &family, "classical-apsp");
        if classical.is_empty() {
            continue;
        }
        for algo in algos(points) {
            if algo == "classical-apsp" {
                continue;
            }
            let quantum = series(points, &family, &algo);
            for metric in METRICS {
                // Pair up by n (both series sweep the same ns).
                let paired: Vec<(&CostPoint, &CostPoint)> = classical
                    .iter()
                    .filter_map(|c| quantum.iter().find(|q| q.n == c.n).map(|q| (*c, *q)))
                    .collect();
                let Some(&(last_c, last_q)) = paired.last() else {
                    continue;
                };
                // A zero classical baseline (qubit_sends on classical-apsp)
                // leaves the ratio undefined — `None`, never ∞ or NaN.
                let ratio = (last_c.metric(metric) > 0.0)
                    .then(|| last_q.metric(metric) / last_c.metric(metric));
                let empirical = paired
                    .iter()
                    .find(|(c, q)| q.metric(metric) < c.metric(metric));
                let (kind, at) = if let Some((c, _)) = empirical {
                    (CrossKind::Empirical, Some(c.n as f64))
                } else {
                    let pair = find_fit(fits, &family, "classical-apsp", metric)
                        .zip(find_fit(fits, &family, &algo, metric));
                    match pair {
                        Some((fc, fq)) => {
                            project_crossover((fc.slope, fc.intercept), (fq.slope, fq.intercept))
                        }
                        None => (CrossKind::None, None),
                    }
                };
                let break_even = (metric == "cost_units")
                    .then(|| {
                        CostModel::break_even_factor(
                            last_c.wire_bits,
                            last_q.wire_bits,
                            last_q.qubit_sends,
                        )
                    })
                    .flatten();
                let _ = cost; // the model already priced the points
                crossings.push(Crossing {
                    family: family.clone(),
                    quantum_algo: algo.clone(),
                    metric: metric.to_string(),
                    kind,
                    n: at,
                    ratio_at_max_n: ratio,
                    break_even_qubit_factor: break_even,
                });
            }
        }
    }
    crossings
}

/// `Json::Float` for finite values, `Json::Null` otherwise: JSON has no
/// NaN/Infinity literals, and a poisoned float would make the whole
/// artifact unparseable downstream.
fn finite(v: f64) -> Json {
    if v.is_finite() {
        Json::Float(v)
    } else {
        Json::Null
    }
}

impl CrossoverReport {
    /// Renders the machine-readable artifact (`crossover.json`).
    pub fn to_json(&self) -> Json {
        let points = self
            .points
            .iter()
            .map(|p| {
                Json::obj([
                    ("family", Json::Str(p.family.clone())),
                    ("n", Json::Int(p.n as i128)),
                    ("d", Json::Int(p.d as i128)),
                    ("algo", Json::Str(p.algo.clone())),
                    ("rounds", Json::Int(p.rounds as i128)),
                    (
                        "classical_messages",
                        Json::Int(p.classical_messages as i128),
                    ),
                    ("classical_bits", Json::Int(p.classical_bits as i128)),
                    ("quantum_messages", Json::Int(p.quantum_messages as i128)),
                    ("qubit_sends", Json::Int(p.qubit_sends as i128)),
                    ("wire_bits", Json::Int(p.wire_bits as i128)),
                    ("cost_units", finite(p.cost_units)),
                ])
            })
            .collect();
        let fits = self
            .fits
            .iter()
            .map(|f| {
                Json::obj([
                    ("family", Json::Str(f.family.clone())),
                    ("algo", Json::Str(f.algo.clone())),
                    ("metric", Json::Str(f.metric.clone())),
                    ("slope", finite(f.slope)),
                    ("intercept", finite(f.intercept)),
                ])
            })
            .collect();
        let crossings = self
            .crossings
            .iter()
            .map(|c| {
                Json::obj([
                    ("family", Json::Str(c.family.clone())),
                    ("quantum_algo", Json::Str(c.quantum_algo.clone())),
                    ("metric", Json::Str(c.metric.clone())),
                    ("kind", Json::Str(c.kind.as_str().into())),
                    ("n", c.n.map(finite).unwrap_or(Json::Null)),
                    (
                        "ratio_at_max_n",
                        c.ratio_at_max_n.map(finite).unwrap_or(Json::Null),
                    ),
                    (
                        "break_even_qubit_factor",
                        c.break_even_qubit_factor.map(finite).unwrap_or(Json::Null),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("experiment", Json::Str("crossover".into())),
            ("seed", Json::Int(self.params.seed as i128)),
            (
                "header_bits",
                Json::Int(self.params.cost.header_bits as i128),
            ),
            ("qubit_factor", finite(self.params.cost.qubit_factor)),
            ("points", Json::Arr(points)),
            ("fits", Json::Arr(fits)),
            ("crossings", Json::Arr(crossings)),
        ])
    }

    /// Renders the auto-generated Markdown report (`CROSSOVER.md`).
    pub fn render_markdown(&self) -> String {
        let mut md = String::new();
        let _ = writeln!(md, "# Classical vs quantum crossover report");
        let _ = writeln!(md);
        let _ = writeln!(
            md,
            "Auto-generated by the crossover engine (`qdiam crossover`). \
             Constant-honest cost model: {} header bits per message, qubit \
             factor {} (one communicated qubit costs as much as {} classical \
             wire bits). Seed {}.",
            self.params.cost.header_bits,
            self.params.cost.qubit_factor,
            self.params.cost.qubit_factor,
            self.params.seed
        );
        let _ = writeln!(md);
        let _ = writeln!(
            md,
            "Metrics: `rounds` (simulated + Theorem 7 scheduled), `wire_bits` \
             (payload + framing for every classical *and* quantum message), \
             `qubit_sends` (communicated qubits; identically zero for the \
             classical baseline), `cost_units` (wire bits + qubit premium)."
        );
        for family in families(&self.points) {
            let _ = writeln!(md, "\n## Family `{family}`\n");
            let algo_list = algos(&self.points);
            // Rounds table.
            let mut header = String::from("| n | D |");
            let mut rule = String::from("|---|---|");
            for a in &algo_list {
                let _ = write!(header, " {a} rounds |");
                rule.push_str("---|");
            }
            let _ = writeln!(md, "{header}\n{rule}");
            let classical = series(&self.points, &family, "classical-apsp");
            for c in &classical {
                let mut row = format!("| {} | {} |", c.n, c.d);
                for a in &algo_list {
                    match series(&self.points, &family, a).iter().find(|p| p.n == c.n) {
                        Some(p) => {
                            let _ = write!(row, " {} |", p.rounds);
                        }
                        None => row.push_str(" – |"),
                    }
                }
                let _ = writeln!(md, "{row}");
            }
            // Cost table.
            let _ = writeln!(md, "\n| n | algo | wire bits | qubit sends | cost units |");
            let _ = writeln!(md, "|---|---|---|---|---|");
            for c in &classical {
                for a in &algo_list {
                    if let Some(p) = series(&self.points, &family, a).iter().find(|p| p.n == c.n) {
                        let _ = writeln!(
                            md,
                            "| {} | {} | {} | {} | {:.0} |",
                            p.n, p.algo, p.wire_bits, p.qubit_sends, p.cost_units
                        );
                    }
                }
            }
            // Verdicts.
            let _ = writeln!(md, "\n### Crossovers vs `classical-apsp`\n");
            for c in self.crossings.iter().filter(|c| c.family == family) {
                let verdict = match c.kind {
                    CrossKind::Empirical => {
                        format!("**empirical crossover at n = {}**", c.n.unwrap_or(f64::NAN))
                    }
                    CrossKind::Projected => format!(
                        "no crossover in sweep; fits project n* ≈ {:.3e}",
                        c.n.unwrap_or(f64::NAN)
                    ),
                    CrossKind::IndistinguishableSlopes => {
                        "no crossover in sweep; fitted slopes are indistinguishable \
                         (|Δslope| ≤ 1e-6), so no finite intersection is projected"
                            .to_string()
                    }
                    CrossKind::None => "no crossover (quantum never cheaper in sweep, \
                                        steeper or unfitted slope)"
                        .to_string(),
                };
                let factor = match c.ratio_at_max_n {
                    Some(r) => format!("{r:.3}×"),
                    None => "undefined (classical baseline is zero)".to_string(),
                };
                let mut line = format!(
                    "- `{}` / `{}`: {verdict}; measured factor {factor} at n = {}",
                    c.quantum_algo,
                    c.metric,
                    self.params.ns.last().copied().unwrap_or(0),
                );
                if let Some(be) = c.break_even_qubit_factor {
                    let _ = write!(
                        line,
                        "; break-even qubit factor {be:.2} (quantum wins iff a qubit \
                         costs < {be:.2} classical bits)"
                    );
                }
                let _ = writeln!(md, "{line}");
            }
        }
        let _ = writeln!(md, "\n## Slope fits (extending Table 1)\n");
        let _ = writeln!(
            md,
            "| family | algo | metric | fitted slope | paper bound (rounds) |"
        );
        let _ = writeln!(md, "|---|---|---|---|---|");
        for f in &self.fits {
            let _ = writeln!(
                md,
                "| {} | {} | {} | {:.3} | {} |",
                f.family,
                f.algo,
                f.metric,
                f.slope,
                paper_bound(&f.algo)
            );
        }
        let _ = writeln!(
            md,
            "\nSlopes are least-squares exponents of `metric ≈ C · n^slope` \
             over the swept sizes; `D` varies with the family, so \
             `√(nD)`-type bounds appear as family-dependent exponents."
        );
        md
    }

    /// Writes `crossover.json` and `CROSSOVER.md` into `dir` (created if
    /// missing); returns both paths.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_artifacts(&self, dir: impl AsRef<Path>) -> io::Result<(PathBuf, PathBuf)> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let json_path = dir.join("crossover.json");
        std::fs::write(&json_path, self.to_json().render() + "\n")?;
        let md_path = dir.join("CROSSOVER.md");
        std::fs::write(&md_path, self.render_markdown())?;
        Ok((json_path, md_path))
    }
}

/// The paper's round bound for an algorithm, quoted in the slope table.
fn paper_bound(algo: &str) -> &'static str {
    match algo {
        "classical-apsp" => "Θ(n)",
        "quantum-exact" => "Õ(√(nD))",
        "quantum-approx" => "Õ(∛(nD) + D)",
        _ => "—",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CrossoverReport {
        run(&CrossoverParams {
            families: vec![Family::Path],
            ns: vec![8, 12, 16],
            seed: 3,
            cost: CostModel::default(),
            include_approx: false,
        })
        .unwrap()
    }

    #[test]
    fn sweep_produces_points_fits_and_crossings() {
        let report = tiny();
        assert_eq!(report.points.len(), 3 * 2, "2 algos × 3 sizes");
        // Every metric × quantum algo gets a verdict; fits cover every
        // series except classical `qubit_sends`, which is identically zero
        // and therefore unfittable in log-log space.
        assert_eq!(report.crossings.len(), METRICS.len());
        assert_eq!(report.fits.len(), 2 * METRICS.len() - 1);
        assert!(
            find_fit(&report.fits, "path", "classical-apsp", "qubit_sends").is_none(),
            "an all-zero series must not get a fit"
        );
        // Path diameters are n − 1.
        for p in &report.points {
            assert_eq!(p.d, p.n as u64 - 1, "{p:?}");
        }
        // Quantum points actually charge qubit traffic.
        assert!(report
            .points
            .iter()
            .filter(|p| p.algo == "quantum-exact")
            .all(|p| p.qubit_sends > 0 && p.quantum_messages > 0));
    }

    #[test]
    fn wire_bits_charge_headers_for_every_message() {
        let report = tiny();
        let h = report.params.cost.header_bits;
        for p in &report.points {
            assert_eq!(
                p.wire_bits,
                p.classical_bits + h * (p.classical_messages + p.quantum_messages),
                "{p:?}"
            );
            let expected =
                p.wire_bits as f64 + p.qubit_sends as f64 * report.params.cost.qubit_factor;
            assert!((p.cost_units - expected).abs() < 1e-6);
        }
    }

    #[test]
    fn json_artifact_is_schema_shaped() {
        let report = tiny();
        let json = report.to_json();
        assert_eq!(
            json.get("experiment").and_then(Json::as_str),
            Some("crossover")
        );
        let rendered = json.render();
        let back = Json::parse(&rendered).expect("round-trips");
        assert_eq!(
            back.get("points").map(|p| matches!(p, Json::Arr(_))),
            Some(true)
        );
        assert!(back.get("fits").is_some());
        assert!(back.get("crossings").is_some());
    }

    #[test]
    fn markdown_report_has_tables_and_verdicts() {
        let report = tiny();
        let md = report.render_markdown();
        assert!(md.contains("# Classical vs quantum crossover report"));
        assert!(md.contains("## Family `path`"));
        assert!(md.contains("| n | D |"));
        assert!(md.contains("### Crossovers vs `classical-apsp`"));
        assert!(md.contains("## Slope fits (extending Table 1)"));
        assert!(md.contains("Õ(√(nD))"));
    }

    #[test]
    fn loglog_fit_recovers_power_laws() {
        let xs: Vec<f64> = (1..=6).map(|i| (1 << i) as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 5.0 * x.sqrt()).collect();
        let (slope, intercept) = loglog_fit(&xs, &ys).unwrap();
        assert!((slope - 0.5).abs() < 1e-9);
        assert!((intercept - 5.0f64.ln()).abs() < 1e-9);
        let lin: Vec<f64> = xs.iter().map(|x| 3.0 * x).collect();
        let (slope, intercept) = loglog_fit(&xs, &lin).unwrap();
        assert!((slope - 1.0).abs() < 1e-9);
        assert!((intercept - 3.0f64.ln()).abs() < 1e-9);
        assert!(loglog_fit(&[1.0], &[2.0]).is_none());
        assert!(loglog_fit(&[1.0, 1.0], &[2.0, 3.0]).is_none());
    }

    /// Regression: a metric that is identically zero on the classical
    /// baseline (`qubit_sends`) must not poison the artifact with NaN or
    /// ±∞ — the ratio degrades to `null` and the verdict stays typed.
    #[test]
    fn classical_zero_metric_never_yields_nan() {
        let report = tiny();
        let qubit_crossing = report
            .crossings
            .iter()
            .find(|c| c.metric == "qubit_sends")
            .expect("qubit_sends is scanned");
        assert_eq!(
            qubit_crossing.ratio_at_max_n, None,
            "ratio against a zero baseline must be undefined, not ∞"
        );
        assert_eq!(qubit_crossing.kind, CrossKind::None);
        for c in &report.crossings {
            if let Some(r) = c.ratio_at_max_n {
                assert!(r.is_finite(), "{c:?}");
            }
            if let Some(n) = c.n {
                assert!(n.is_finite(), "{c:?}");
            }
        }
        let rendered = report.to_json().render();
        for poison in ["NaN", "nan", "Infinity", "inf"] {
            assert!(!rendered.contains(poison), "artifact contains {poison}");
        }
        Json::parse(&rendered).expect("artifact parses despite zero-valued series");
        // The Markdown path must survive the undefined ratio too.
        assert!(report
            .render_markdown()
            .contains("undefined (classical baseline is zero)"));
    }

    fn synthetic_point(algo: &str, n: usize, rounds: u64) -> CostPoint {
        CostPoint {
            family: "synthetic".into(),
            n,
            d: 1,
            algo: algo.into(),
            rounds,
            classical_messages: 1,
            classical_bits: 8,
            quantum_messages: 0,
            qubit_sends: 0,
            wire_bits: 8,
            cost_units: 8.0,
        }
    }

    /// A ~0 slope difference must produce the `indistinguishable-slopes`
    /// verdict instead of dividing by (almost) zero and projecting a
    /// meaningless or infinite `n*`.
    #[test]
    fn near_equal_slopes_are_reported_as_indistinguishable() {
        let points = vec![
            synthetic_point("classical-apsp", 8, 100),
            synthetic_point("classical-apsp", 16, 200),
            synthetic_point("quantum-exact", 8, 150),
            synthetic_point("quantum-exact", 16, 300),
        ];
        let mk_fit = |algo: &str, metric: &str, slope: f64, intercept: f64| Fit {
            family: "synthetic".into(),
            algo: algo.into(),
            metric: metric.into(),
            slope,
            intercept,
        };
        let fits = vec![
            mk_fit("classical-apsp", "rounds", 1.0, 2.0),
            // Quantum's fitted slope differs by less than SLOPE_EPS and its
            // intercept is higher: the old formula projected
            // exp(huge) = ∞ here.
            mk_fit("quantum-exact", "rounds", 1.0 + SLOPE_EPS / 2.0, 2.5),
        ];
        let crossings = compute_crossings(&points, &fits, &CostModel::default());
        let rounds = crossings
            .iter()
            .find(|c| c.metric == "rounds")
            .expect("rounds verdict");
        assert_eq!(rounds.kind, CrossKind::IndistinguishableSlopes);
        assert_eq!(rounds.n, None);
        assert_eq!(rounds.ratio_at_max_n, Some(1.5));
        // Metrics with no fits at all stay `None`, not a crash.
        let wire = crossings.iter().find(|c| c.metric == "wire_bits").unwrap();
        assert_eq!(wire.kind, CrossKind::None);
    }

    /// The classical baseline is Θ(n) rounds; the Theorem 1 algorithm is
    /// Õ(√(nD)). On a path D = n−1, so quantum rounds grow ~n while the
    /// classical baseline also grows ~n — but on a low-diameter family the
    /// quantum slope must come out strictly smaller.
    #[test]
    fn quantum_round_slope_beats_classical_on_low_diameter_family() {
        let report = run(&CrossoverParams {
            families: vec![Family::Er],
            ns: vec![24, 40, 64, 96],
            seed: 5,
            cost: CostModel::default(),
            include_approx: false,
        })
        .unwrap();
        let fc = find_fit(&report.fits, "er", "classical-apsp", "rounds").unwrap();
        let fq = find_fit(&report.fits, "er", "quantum-exact", "rounds").unwrap();
        assert!(
            fq.slope < fc.slope,
            "quantum slope {} should be below classical {}",
            fq.slope,
            fc.slope
        );
    }
}
