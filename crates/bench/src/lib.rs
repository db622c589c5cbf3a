//! Shared harness utilities for the experiment binaries that regenerate the
//! paper's tables and figures.
//!
//! Each binary in `src/bin/` reproduces one artifact (see DESIGN.md §4 for
//! the experiment index); this library holds the common machinery: scaling
//! control, log–log slope fits, and instance construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use congest::Config;
use graphs::Graph;

/// Experiment scale factor read from the `QD_SCALE` environment variable
/// (default 1). Experiment binaries multiply their sweep sizes by this, so
/// `QD_SCALE=4 cargo run --release --bin table1_exact` runs a larger sweep.
pub fn scale() -> usize {
    std::env::var("QD_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
        .max(1)
}

/// Printed in place of a fit when failed points leave fewer than two.
pub const NO_FIT: &str = "no fit: fewer than two points remain";

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of empty slice");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Fault-injection plan read from the `QD_FAULTS` environment variable
/// (default: none). The spec grammar is [`congest::FaultPlan::parse`]'s —
/// e.g. `QD_FAULTS=drop=0.01,seed=7 cargo run --release --bin table1_exact`
/// reruns a sweep under 1% message loss. Experiment binaries thread this
/// into their [`Config`]s via [`sparse_instance`] or [`config_for`].
///
/// # Panics
///
/// Panics on a malformed spec: a typo'd fault experiment must not silently
/// run fault-free.
pub fn faults() -> Option<congest::FaultPlan> {
    let spec = std::env::var("QD_FAULTS").ok()?;
    Some(congest::FaultPlan::parse(&spec).unwrap_or_else(|e| panic!("QD_FAULTS '{spec}': {e}")))
}

/// Recovery policy read from the `QD_RECOVER` environment variable
/// (default: passive — detect faults, heal nothing). The spec grammar is
/// [`congest::RecoveryPolicy::parse`]'s, so `QD_RECOVER=1` selects the
/// standard self-healing policy and e.g.
/// `QD_FAULTS=drop=0.001,seed=5 QD_RECOVER=standard cargo run --release
/// --bin table1_exact` reruns the Table 1 exact sweep healed under 0.1%
/// message loss (through n = 512; beyond that a uniform drop rate spends
/// the retries). `fault_matrix` fixes its own policy and ignores this one.
///
/// # Panics
///
/// Panics on a malformed spec: a typo'd recovery experiment must not
/// silently measure the passive policy.
pub fn recovery() -> congest::RecoveryPolicy {
    match std::env::var("QD_RECOVER") {
        Err(_) => congest::RecoveryPolicy::new(),
        Ok(spec) => congest::RecoveryPolicy::parse(&spec)
            .unwrap_or_else(|e| panic!("QD_RECOVER '{spec}': {e}")),
    }
}

/// The CONGEST config every experiment binary should use: any
/// `QD_FAULTS` plan and `QD_RECOVER` policy applied.
pub fn config_for(g: &Graph) -> Config {
    let mut cfg = Config::for_graph(g).with_recovery(recovery());
    if let Some(plan) = faults() {
        cfg = cfg.with_faults(plan);
    }
    cfg
}

/// A sweep instance: a sparse random network with roughly constant degree
/// (so the diameter grows only logarithmically), plus its CONGEST config
/// (per [`config_for`]).
pub fn sparse_instance(n: usize, seed: u64) -> (Graph, Config) {
    let g = graphs::generators::random_sparse(n, 8.0, seed);
    let cfg = config_for(&g);
    (g, cfg)
}

/// A sweep instance with *tunable diameter*: a cycle subdivided to roughly
/// the requested diameter, padded with chords. Returns the graph and its
/// exact diameter.
pub fn dialed_diameter_instance(n: usize, target_d: usize, seed: u64) -> (Graph, u32) {
    // A cycle of length ~2·target_d has diameter ~target_d; hang balanced
    // random trees off it to reach n nodes without growing the diameter
    // too much.
    let ring = (2 * target_d).clamp(3, n);
    let mut b = graphs::GraphBuilder::new(n);
    for i in 0..ring {
        b.edge(i, (i + 1) % ring);
    }
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    for v in ring..n {
        // Attach to a random earlier node, biased toward the ring so the
        // appendages stay shallow.
        let parent = if rng.random_bool(0.7) || v == ring {
            rng.random_range(0..ring)
        } else {
            rng.random_range(ring..v)
        };
        b.edge(v, parent);
    }
    let g = b.build();
    let d = graphs::metrics::diameter(&g).expect("connected");
    (g, d)
}

/// Pretty separator line for experiment output.
pub fn rule(title: &str) {
    println!(
        "\n==== {title} {}",
        "=".repeat(64_usize.saturating_sub(title.len()))
    );
}

/// Writes one experiment's structured output to `<dir>/<name>.json`, where
/// `<dir>` is the `QD_RESULTS_DIR` environment variable (default
/// `results`), and returns the path written. Downstream tooling (plots,
/// regression diffs) reads these instead of scraping the printed tables.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_results_json(name: &str, payload: trace::Json) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::PathBuf::from(
        std::env::var("QD_RESULTS_DIR").unwrap_or_else(|_| "results".into()),
    );
    write_results_json_in(dir, name, payload)
}

/// Writes one committed benchmark artifact (`BENCH_scale.json`,
/// `BENCH_drivers.json`, `BENCH_scheduler.json`) to `<dir>/<name>.json`
/// and returns the path written. `<dir>` is `QD_RESULTS_DIR` when it is
/// set, so a smoke run can check a fresh artifact against the committed
/// one without overwriting it, and the [`repo_root`] otherwise.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_bench_json(name: &str, payload: trace::Json) -> std::io::Result<std::path::PathBuf> {
    let dir = std::env::var("QD_RESULTS_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| repo_root());
    write_results_json_in(dir, name, payload)
}

/// Writes one structured artifact to `<dir>/<name>.json` (ignoring
/// `QD_RESULTS_DIR`) and returns the path written.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_results_json_in(
    dir: impl Into<std::path::PathBuf>,
    name: &str,
    payload: trace::Json,
) -> std::io::Result<std::path::PathBuf> {
    let dir = dir.into();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, payload.render() + "\n")?;
    println!("results JSON -> {}", path.display());
    Ok(path)
}

/// The repository root, resolved from this crate's manifest directory.
/// Stable regardless of the working directory cargo launches benches
/// from, so fixed-location artifacts land where the driver looks.
pub fn repo_root() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn dialed_instance_hits_target_roughly() {
        let (g, d) = dialed_diameter_instance(300, 40, 1);
        assert_eq!(g.len(), 300);
        assert!(graphs::traversal::is_connected(&g));
        assert!((30..=80).contains(&d), "diameter {d} far from target 40");
    }

    #[test]
    fn sparse_instance_is_connected() {
        let (g, _) = sparse_instance(128, 3);
        assert!(graphs::traversal::is_connected(&g));
    }

    #[test]
    fn scale_defaults_to_one() {
        assert!(scale() >= 1);
    }

    #[test]
    fn recovery_defaults_to_passive() {
        if std::env::var("QD_RECOVER").is_err() {
            assert!(recovery().is_passive());
        }
    }

    #[test]
    fn repo_root_is_the_workspace_root() {
        assert!(repo_root().join("Cargo.toml").exists());
        assert!(repo_root().join("crates/bench").exists());
    }

    #[test]
    fn results_json_in_writes_where_told() {
        let dir = std::env::temp_dir().join("qdiam-bench-results-in-test");
        let payload = trace::Json::obj([("experiment", trace::Json::Str("unit-in".into()))]);
        let path = write_results_json_in(&dir, "unit-in", payload).unwrap();
        assert_eq!(path, dir.join("unit-in.json"));
        let parsed = trace::Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            parsed.get("experiment").and_then(|v| v.as_str()),
            Some("unit-in")
        );
    }

    #[test]
    fn results_json_round_trips() {
        let dir = std::env::temp_dir().join("qdiam-bench-results-test");
        std::env::set_var("QD_RESULTS_DIR", &dir);
        let payload = trace::Json::obj([
            ("experiment", trace::Json::Str("unit".into())),
            ("points", trace::Json::Arr(vec![trace::Json::Int(3)])),
        ]);
        let path = write_results_json("unit", payload.clone()).unwrap();
        // Committed benchmark artifacts follow QD_RESULTS_DIR too.
        let bench_path = write_bench_json("BENCH_unit", payload).unwrap();
        std::env::remove_var("QD_RESULTS_DIR");
        assert_eq!(bench_path, dir.join("BENCH_unit.json"));
        let parsed = trace::Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            parsed.get("experiment").and_then(|v| v.as_str()),
            Some("unit")
        );
    }
}
