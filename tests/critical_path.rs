//! Critical-path profiler semantics against the paper's Figure 2: the
//! longest chain of causally ordered message deliveries lower-bounds the
//! rounds *any* schedule needs for a run's information flow, and the
//! `2τ′(u)` wave schedule upper-bounds it by the scheduled duration. On
//! hand-analyzable workloads the chain length is exact, so these tests pin
//! equalities, not just inequalities.

use congest_diameter::prelude::*;

use classical::waves;
use congest_diameter::cli;

/// A single wave from one end of a path is a pure relay chain: the causal
/// depth is exactly the source's eccentricity `D = n − 1` plus one — the
/// far endpoint, like every adopter, rebroadcasts on adoption, and that
/// final echo back along the last edge is itself a causally dependent
/// delivery.
#[test]
fn single_wave_on_a_path_has_depth_exactly_d_plus_echo() {
    let n = 64;
    let g = graphs::generators::path(n);
    let cfg = Config::for_graph(&g).with_critical_path(true);
    let duration = 2 + n as u64 + 2;
    let out = waves::run(&g, &[(NodeId::new(0), 0)], duration, cfg).unwrap();
    assert_eq!(out.global_max(), (n - 1) as u32);
    assert_eq!(
        out.stats.critical_depth, n as u64,
        "a relay wave's causal chain is one hop per geodesic edge + the echo"
    );
}

/// The full Figure-2 schedule (every node a source, τ′ from the DFS order
/// of the path): the longest chain is bracketed by the diameter below and
/// the scheduled `2·max τ′ + ecc` duration above, and the phase still
/// computes `max ecc = D`.
#[test]
fn staggered_waves_depth_is_between_d_and_the_scheduled_duration() {
    let n = 48usize;
    let g = graphs::generators::path(n);
    let d = (n - 1) as u64;
    // On a path, the DFS tour positions are the node indices; Lemma 2
    // (`d(u, v) ≤ τ'(v) − τ'(u)`) holds with equality.
    let sources: Vec<(NodeId, u64)> = (0..n).map(|v| (NodeId::new(v), v as u64)).collect();
    let duration = 2 * d + d + 2;
    let cfg = Config::for_graph(&g).with_critical_path(true);
    let out = waves::run(&g, &sources, duration, cfg).unwrap();
    out.verify_complete(&sources).unwrap();
    assert_eq!(out.global_max(), d as u32);
    assert!(
        out.stats.critical_depth >= d,
        "some wave must relay across a geodesic: depth {} < D {d}",
        out.stats.critical_depth
    );
    assert!(
        out.stats.critical_depth <= duration,
        "a causal chain cannot outrun the schedule: depth {} > duration {duration}",
        out.stats.critical_depth
    );
}

/// The profiler's depth is a *protocol* observable: a run replays it
/// exactly, like every other `RunStats` field it travels with.
#[test]
fn critical_depth_is_identical_across_scheduling_modes() {
    let g = graphs::generators::random_connected(40, 0.12, 9);
    let sources: Vec<(NodeId, u64)> = vec![(NodeId::new(0), 0)];
    let cfg = Config::for_graph(&g).with_critical_path(true);
    let duration = 2 + g.len() as u64;
    let first = waves::run(&g, &sources, duration, cfg).unwrap();
    assert!(first.stats.critical_depth > 0);
    let again = waves::run(&g, &sources, duration, cfg).unwrap();
    assert_eq!(again.stats.critical_depth, first.stats.critical_depth);
}

/// The classical O(n) pipeline's DFS token walk is itself a causal chain
/// of `2(n − 1)` hops (the token crosses every tree edge twice), so the
/// registry's critical-path gauge — the maximum over all phases — must
/// reach it, and can never exceed the total simulated rounds.
#[test]
fn apsp_dfs_walk_drives_the_registry_gauge_past_2n() {
    let n = 96usize;
    let g = graphs::generators::path(n);
    let cfg = Config::for_graph(&g).with_critical_path(true);
    let registry = metrics::Registry::shared();
    let out = {
        let _meter = metrics::install(registry.clone());
        classical::apsp::exact_diameter(&g, cfg).unwrap()
    };
    assert_eq!(out.diameter, (n - 1) as u32);
    let depth = registry
        .borrow()
        .gauge(metrics::names::CRITICAL_PATH_DEPTH)
        .expect("profiler gauge exported") as u64;
    assert!(
        depth >= 2 * (n as u64 - 1),
        "DFS token chain missing: gauge {depth} < 2(n-1) = {}",
        2 * (n - 1)
    );
    assert!(
        depth <= out.rounds(),
        "a causal chain cannot exceed the simulated rounds: {depth} > {}",
        out.rounds()
    );
}

/// `qdiam report` end-to-end on a waves-bearing run (ISSUE 10 acceptance):
/// the markdown report's critical-path depth must sit within the
/// documented Figure-2 slack — at least the diameter, at most the
/// simulated rounds — and every schema section must be present.
#[test]
fn report_critical_path_matches_figure_2_bound_on_a_real_run() {
    let n = 512usize;
    let dir = std::env::temp_dir().join(format!("qd-critpath-report-{}", std::process::id()));
    let arg_strings: Vec<String> = format!(
        "report classical --family path --n {n} --out {}",
        dir.display()
    )
    .split_whitespace()
    .map(String::from)
    .collect();
    let cli::Command::Report(opts) = cli::parse_command(&arg_strings).unwrap() else {
        panic!("expected report command");
    };
    let console = cli::report(&opts).unwrap();
    assert!(
        console.contains(&format!("diameter: {}", n - 1)),
        "{console}"
    );
    let md = std::fs::read_to_string(dir.join(format!("REPORT_classical_path_n{n}.md"))).unwrap();
    for section in [
        "## Run summary",
        "## Critical path",
        "## Timeline",
        "## Cost totals",
        "## Recovery",
    ] {
        assert!(md.contains(section), "report missing {section:?}:\n{md}");
    }
    let field = |marker: &str| -> u64 {
        md.lines()
            .find_map(|l| l.strip_prefix(marker))
            .unwrap_or_else(|| panic!("missing {marker:?} in report:\n{md}"))
            .trim()
            .split(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    let depth = field("- longest causal message chain:");
    let rounds = field("- simulated rounds:");
    let d = (n - 1) as u64;
    assert!(
        depth >= d,
        "chain {depth} shorter than the diameter {d}: the waves cannot have propagated"
    );
    assert!(
        depth <= rounds,
        "chain {depth} exceeds the simulated rounds {rounds}: \
         the 2τ′ schedule bound is violated"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
