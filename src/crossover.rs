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
//! * per metric, the first swept `n` where the quantum run was cheaper, or
//!   that none was up to the largest swept `n`, with the measured
//!   quantum/classical factor there and both fitted exponents,
//! * log-log slope fits extending the paper's Table 1 with measured
//!   exponents, and
//! * the *break-even qubit factor*: the largest price per communicated
//!   qubit (in classical wire bits) under which the quantum run still wins.
//!
//! Crossovers are measured, never projected: where two fitted power laws
//! intersect moves by orders of magnitude with the sweep's range, so a
//! sweep without a crossing says only that.
//!
//! Artifacts: `crossover.json` (machine-readable, schema below) and an
//! auto-generated Markdown report `CROSSOVER.md`, both written by
//! [`CrossoverReport::write_artifacts`] — usually into `results/` via
//! `qdiam crossover`. The committed `results/CROSSOVER.md` is the sweep
//! `qdiam crossover --families sparse,tree --ns
//! 16,24,32,48,64,96,128,160,192 --seed 7 --out results`.

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
    /// Node counts to sweep; [`run`] sorts and dedups them.
    pub ns: Vec<usize>,
    /// RNG seed (graph construction and quantum measurement).
    pub seed: u64,
}

impl Default for CrossoverParams {
    fn default() -> Self {
        CrossoverParams {
            families: vec![Family::Sparse, Family::Tree],
            ns: vec![16, 24, 32, 48, 64],
            seed: 1,
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
    /// The value of one of the [`METRICS`].
    fn metric(&self, metric: &str) -> f64 {
        match metric {
            "rounds" => self.rounds as f64,
            "wire_bits" => self.wire_bits as f64,
            "qubit_sends" => self.qubit_sends as f64,
            "cost_units" => self.cost_units,
            other => unreachable!("'{other}' is not one of METRICS"),
        }
    }
}

/// A least-squares power-law fit `metric ≈ C · n^slope` for one
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
}

/// The crossover verdict for one `(family, quantum algo, metric)` triple.
#[derive(Clone, Debug, PartialEq)]
pub struct Crossing {
    /// Graph family.
    pub family: String,
    /// The quantum series compared against `classical-apsp`.
    pub quantum_algo: String,
    /// Metric name.
    pub metric: String,
    /// The smallest swept `n` where quantum was cheaper, if any.
    pub first_win: Option<usize>,
    /// The largest swept `n`, where [`Crossing::ratio_at_max_n`] was
    /// measured.
    pub max_n: usize,
    /// `quantum / classical` at `max_n` — the measured constant factor
    /// (values < 1 mean quantum is already cheaper). `None` when the
    /// classical metric is zero there: the ratio is undefined, not
    /// infinite.
    pub ratio_at_max_n: Option<f64>,
    /// Fitted exponents of `n`, classical then quantum; `None` for a
    /// series [`loglog_fit`] cannot fit (e.g. an all-zero one).
    pub slopes: (Option<f64>, Option<f64>),
    /// For `cost_units` only: the qubit price at which the largest swept
    /// instance breaks even ([`CostModel::break_even_factor`]).
    pub break_even_qubit_factor: Option<f64>,
}

impl Crossing {
    /// The one-line verdict `CROSSOVER.md` and `qdiam crossover` print:
    /// the first swept `n` where quantum was cheaper, or that none was up
    /// to `max_n`, with the factor measured at `max_n`.
    pub fn verdict(&self) -> String {
        let factor = match self.ratio_at_max_n {
            Some(r) => format!("{r:.3}×"),
            None => "undefined (classical baseline is zero)".to_string(),
        };
        let measured = format!("measured factor {factor} at n = {}", self.max_n);
        let mut line = match self.first_win {
            Some(n) => format!("crossover observed at n = {n}; {measured}"),
            None => {
                let exponent = |s: Option<f64>| s.map_or("unfitted".into(), |s| format!("{s:.3}"));
                format!(
                    "not observed up to n = {}; {measured}; fitted exponents classical {}, \
                     quantum {}",
                    self.max_n,
                    exponent(self.slopes.0),
                    exponent(self.slopes.1)
                )
            }
        };
        if let Some(be) = self.break_even_qubit_factor {
            let _ = write!(
                line,
                "; break-even qubit factor {be:.2} (quantum wins iff a qubit \
                 costs < {be:.2} classical bits)"
            );
        }
        line
    }
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

/// Metrics fitted for slopes and scanned for crossovers. `qubit_sends` is
/// identically zero for the classical baseline, so that series has no fit
/// and the metric no crossover verdict; the quantum series keep their fits.
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
    let mut params = params.clone();
    params.ns.sort_unstable();
    params.ns.dedup();
    let mut points = Vec::new();
    for &family in &params.families {
        for &n in &params.ns {
            points.extend(sweep_point(&params, family, n)?);
        }
    }
    let fits = compute_fits(&points);
    let crossings = compute_crossings(&points);
    Ok(CrossoverReport {
        params,
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
    let cost = CostModel::default();

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
        let wire_bits = classical_bits + cost.header_bits * (classical_messages + quantum_messages);
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
            cost_units: cost.cost_units(wire_bits, qubit_sends),
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

    let run = approx::diameter(&g, ApproxParams::new(params.seed), cfg)
        .map_err(|e| format!("quantum-approx on {fam} n={n}: {e}"))?;
    out.push(point(
        "quantum-approx",
        run.rounds(),
        &run.prep_ledger,
        run.oracle_schedule.messages_for(&run.oracle),
        run.oracle_schedule.qubits_for(&run.oracle),
    ));
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

/// Least squares in `ln` space: the slope of `ln y = c + slope · ln x`.
/// Skips non-positive values; returns `None` with fewer than two usable
/// points.
pub fn loglog_fit(xs: &[f64], ys: &[f64]) -> Option<f64> {
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
    Some(sxy / sxx)
}

fn compute_fits(points: &[CostPoint]) -> Vec<Fit> {
    let mut fits = Vec::new();
    for family in families(points) {
        for algo in algos(points) {
            let s = series(points, &family, &algo);
            let xs: Vec<f64> = s.iter().map(|p| p.n as f64).collect();
            for metric in METRICS {
                let ys: Vec<f64> = s.iter().map(|p| p.metric(metric)).collect();
                if let Some(slope) = loglog_fit(&xs, &ys) {
                    fits.push(Fit {
                        family: family.clone(),
                        algo: algo.clone(),
                        metric: metric.to_string(),
                        slope,
                    });
                }
            }
        }
    }
    fits
}

fn compute_crossings(points: &[CostPoint]) -> Vec<Crossing> {
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
            // Pair up by n (both series sweep the same ns).
            let paired: Vec<(&CostPoint, &CostPoint)> = classical
                .iter()
                .filter_map(|c| quantum.iter().find(|q| q.n == c.n).map(|q| (*c, *q)))
                .collect();
            let Some(&(last_c, last_q)) = paired.last() else {
                continue;
            };
            let xs: Vec<f64> = paired.iter().map(|(c, _)| c.n as f64).collect();
            for metric in METRICS {
                let cs: Vec<f64> = paired.iter().map(|(c, _)| c.metric(metric)).collect();
                // A baseline that never spends this metric (qubit_sends on
                // classical-apsp) cannot be undercut: there is no verdict.
                if cs.iter().all(|&c| c == 0.0) {
                    continue;
                }
                let qs: Vec<f64> = paired.iter().map(|(_, q)| q.metric(metric)).collect();
                // A zero classical value at the largest n leaves the ratio
                // undefined — `None`, never ∞ or NaN.
                let ratio = (last_c.metric(metric) > 0.0)
                    .then(|| last_q.metric(metric) / last_c.metric(metric));
                let first_win = paired
                    .iter()
                    .find(|(c, q)| q.metric(metric) < c.metric(metric))
                    .map(|(c, _)| c.n);
                let break_even = (metric == "cost_units")
                    .then(|| {
                        CostModel::break_even_factor(
                            last_c.wire_bits,
                            last_q.wire_bits,
                            last_q.qubit_sends,
                        )
                    })
                    .flatten();
                crossings.push(Crossing {
                    family: family.clone(),
                    quantum_algo: algo.clone(),
                    metric: metric.to_string(),
                    first_win,
                    max_n: last_c.n,
                    ratio_at_max_n: ratio,
                    slopes: (loglog_fit(&xs, &cs), loglog_fit(&xs, &qs)),
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
                    (
                        "first_win",
                        c.first_win.map_or(Json::Null, |n| Json::Int(n as i128)),
                    ),
                    ("max_n", Json::Int(c.max_n as i128)),
                    (
                        "ratio_at_max_n",
                        c.ratio_at_max_n.map_or(Json::Null, finite),
                    ),
                    ("classical_slope", c.slopes.0.map_or(Json::Null, finite)),
                    ("quantum_slope", c.slopes.1.map_or(Json::Null, finite)),
                    (
                        "break_even_qubit_factor",
                        c.break_even_qubit_factor.map(finite).unwrap_or(Json::Null),
                    ),
                ])
            })
            .collect();
        let cost = CostModel::default();
        Json::obj([
            ("experiment", Json::Str("crossover".into())),
            ("seed", Json::Int(self.params.seed as i128)),
            ("header_bits", Json::Int(cost.header_bits as i128)),
            ("qubit_factor", finite(cost.qubit_factor)),
            ("points", Json::Arr(points)),
            ("fits", Json::Arr(fits)),
            ("crossings", Json::Arr(crossings)),
        ])
    }

    /// Renders the auto-generated Markdown report (`CROSSOVER.md`).
    pub fn render_markdown(&self) -> String {
        let cost = CostModel::default();
        let mut md = String::new();
        let _ = writeln!(md, "# Classical vs quantum crossover report");
        let _ = writeln!(md);
        let _ = writeln!(
            md,
            "Auto-generated by the crossover engine (`qdiam crossover`). \
             Constant-honest cost model: {} header bits per message, qubit \
             factor {} (one communicated qubit costs as much as {} classical \
             wire bits). Seed {}.",
            cost.header_bits, cost.qubit_factor, cost.qubit_factor, self.params.seed
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
                let _ = writeln!(
                    md,
                    "- `{}` / `{}`: {}",
                    c.quantum_algo,
                    c.metric,
                    c.verdict()
                );
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
        })
        .unwrap()
    }

    #[test]
    fn sweep_produces_points_fits_and_crossings() {
        let report = tiny();
        assert_eq!(report.points.len(), 3 * 3, "3 algos × 3 sizes");
        // Every metric × quantum algo but `qubit_sends` gets a verdict; fits
        // cover every series except classical `qubit_sends`, which is
        // identically zero and therefore unfittable in log-log space.
        assert_eq!(report.crossings.len(), 2 * (METRICS.len() - 1));
        assert_eq!(report.fits.len(), 3 * METRICS.len() - 1);
        assert!(
            !report
                .fits
                .iter()
                .any(|f| f.algo == "classical-apsp" && f.metric == "qubit_sends"),
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
            .filter(|p| p.algo.starts_with("quantum-"))
            .all(|p| p.qubit_sends > 0 && p.quantum_messages > 0));
    }

    #[test]
    fn wire_bits_charge_headers_for_every_message() {
        let report = tiny();
        let cost = CostModel::default();
        for p in &report.points {
            assert_eq!(
                p.wire_bits,
                p.classical_bits + cost.header_bits * (p.classical_messages + p.quantum_messages),
                "{p:?}"
            );
            let expected = p.wire_bits as f64 + p.qubit_sends as f64 * cost.qubit_factor;
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
        assert!((loglog_fit(&xs, &ys).unwrap() - 0.5).abs() < 1e-9);
        let lin: Vec<f64> = xs.iter().map(|x| 3.0 * x).collect();
        assert!((loglog_fit(&xs, &lin).unwrap() - 1.0).abs() < 1e-9);
        assert!(loglog_fit(&[1.0], &[2.0]).is_none());
        assert!(loglog_fit(&[1.0, 1.0], &[2.0, 3.0]).is_none());
    }

    /// Regression: a metric that is identically zero on the classical
    /// baseline (`qubit_sends`) gets no verdict, and must not poison the
    /// artifact with NaN or ±∞ — its quantum fits stay, and every ratio
    /// is finite.
    #[test]
    fn classical_zero_metric_never_yields_nan() {
        let report = tiny();
        assert!(
            report.crossings.iter().all(|c| c.metric != "qubit_sends"),
            "no verdict against a baseline that sends no qubits"
        );
        assert!(report
            .fits
            .iter()
            .any(|f| f.algo == "quantum-exact" && f.metric == "qubit_sends"));
        for c in &report.crossings {
            if let Some(r) = c.ratio_at_max_n {
                assert!(r.is_finite(), "{c:?}");
            }
        }
        let rendered = report.to_json().render();
        for poison in ["NaN", "nan", "Infinity", "inf"] {
            assert!(!rendered.contains(poison), "artifact contains {poison}");
        }
        Json::parse(&rendered).expect("artifact parses despite zero-valued series");
        assert!(!report.render_markdown().contains("/ `qubit_sends`:"));
    }

    /// An unsorted `ns` is swept in ascending order, and each verdict names
    /// the largest swept `n` as the one its factor was measured at.
    #[test]
    fn unsorted_ns_are_swept_ascending_and_factors_name_their_n() {
        let report = run(&CrossoverParams {
            families: vec![Family::Path],
            ns: vec![24, 16, 24],
            seed: 3,
        })
        .unwrap();
        assert_eq!(report.params.ns, [16, 24]);
        let rounds = report
            .crossings
            .iter()
            .find(|c| c.quantum_algo == "quantum-exact" && c.metric == "rounds")
            .unwrap();
        assert_eq!((rounds.first_win, rounds.max_n), (None, 24));
        let rounds_at = |algo: &str| {
            let p = report.points.iter().find(|p| p.n == 24 && p.algo == algo);
            p.unwrap().rounds as f64
        };
        let factor = rounds_at("quantum-exact") / rounds_at("classical-apsp");
        assert_eq!(rounds.ratio_at_max_n, Some(factor));
        let verdict = rounds.verdict();
        let expected =
            format!("not observed up to n = 24; measured factor {factor:.3}× at n = 24;");
        assert!(verdict.starts_with(&expected), "{verdict}");
        assert!(verdict.contains("fitted exponents classical "), "{verdict}");
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

    /// The crossing is the first swept `n` where quantum was cheaper, even
    /// if a later `n` is not; the factor is still the one at the largest.
    #[test]
    fn the_crossing_is_the_first_swept_win() {
        let points = vec![
            synthetic_point("classical-apsp", 8, 100),
            synthetic_point("classical-apsp", 16, 200),
            synthetic_point("classical-apsp", 32, 400),
            synthetic_point("quantum-exact", 8, 150),
            synthetic_point("quantum-exact", 16, 150),
            synthetic_point("quantum-exact", 32, 600),
        ];
        let crossings = compute_crossings(&points);
        let rounds = crossings.iter().find(|c| c.metric == "rounds").unwrap();
        assert_eq!(rounds.first_win, Some(16));
        assert_eq!((rounds.max_n, rounds.ratio_at_max_n), (32, Some(1.5)));
        assert_eq!(
            rounds.verdict(),
            "crossover observed at n = 16; measured factor 1.500× at n = 32"
        );
        // Equal costs are not a win.
        let wire = crossings.iter().find(|c| c.metric == "wire_bits").unwrap();
        assert_eq!(wire.first_win, None);
        assert_eq!(wire.slopes, (Some(0.0), Some(0.0)));
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
        })
        .unwrap();
        let rounds = report
            .crossings
            .iter()
            .find(|c| c.quantum_algo == "quantum-exact" && c.metric == "rounds")
            .unwrap();
        let (Some(c_slope), Some(q_slope)) = rounds.slopes else {
            panic!("both series are fitted: {rounds:?}");
        };
        assert!(
            q_slope < c_slope,
            "quantum slope {q_slope} should be below classical {c_slope}"
        );
    }
}
