//! One benchmark for the CONGEST simulator and the Table-1 pipelines.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <flood|apsp|exact|apsp_observed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures one workload with tracing off and prints its
//! end-to-end metrics. `--trace 1` runs the traced pass over all four
//! workloads (so every per-layer metric is measured in one run), writes
//! its spans to `perfbench/out/spans.jsonl` and prints the per-layer
//! metrics. Either way the last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! Everything runs in this one thread: one shard, default active-set
//! scheduling, no faults.

mod gen;
mod reference;
mod report;
mod traced;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use report::{mean, median, quartiles, Metric, Outcome};
use workloads::{Instance, Workload};

const USAGE: &str =
    "usage: perfbench --workload <flood|apsp|exact|apsp_observed> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload '{value}'"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        traced::run(args.seed)
    } else {
        untraced(args.workload, args.seed, args.seconds)
    };
    outcome.print();
    ExitCode::SUCCESS
}

/// Measures one workload with tracing off: one untimed warm-up operation,
/// then operations cycling over the inputs for `seconds` (and at least one
/// per input), each on a graph set up just before it. Set-ups and
/// operations are timed apart, and every answer is checked.
///
/// `op_s` and `setup_s` are the fastest of their kind. The shared host's
/// speed swings by up to a third in spells that can outlast a whole run,
/// and such noise only ever slows work down, so the median of a run tracks
/// the host while the fastest of many short operations, spread over the
/// whole run, tracks the program. The medians and the tail are printed
/// beside them.
fn untraced(w: Workload, seed: u64, seconds: f64) -> Outcome {
    let inputs: Vec<Instance> = (0..w.inputs())
        .map(|i| Instance::new(w, w.input_seed(seed, i)))
        .collect();
    let edges: Vec<String> = inputs.iter().map(|i| i.edges.len().to_string()).collect();
    let gen_s: f64 = inputs.iter().map(|i| i.gen_s).sum();
    let mut outcome = Outcome::new(format!(
        "{} n={} m={} seed={seed} (inputs generated in {gen_s:.3} s)",
        w.name(),
        w.n(),
        edges.join(",")
    ));

    let mut setups = Vec::new();
    let (g, secs) = inputs[0].set_up();
    setups.push(secs);
    let warm = inputs[0].op(&g).and_then(|raw| inputs[0].check(&raw));
    outcome.tally("warm-up", &warm);

    // The charge figures come from each input's first operation, so they
    // do not depend on how many operations fit in the run.
    let mut times = Vec::new();
    let mut rounds_ratio = Vec::new();
    let mut bits = Vec::new();
    let start = Instant::now();
    let mut k = 0;
    while k < inputs.len() || start.elapsed().as_secs_f64() < seconds {
        let inst = &inputs[k % inputs.len()];
        let (g, secs) = inst.set_up();
        setups.push(secs);
        let t = Instant::now();
        let raw = inst.op(&g);
        let secs = t.elapsed().as_secs_f64();
        let checked = raw.and_then(|raw| inst.check(&raw));
        outcome.tally(&format!("op {k} on input {}", k % inputs.len()), &checked);
        if let Ok(c) = checked {
            times.push(secs);
            if k < inputs.len() {
                rounds_ratio.push(c.rounds as f64 / inst.round_scale());
                bits.push(c.bits as f64);
                outcome.note(format!(
                    "input {k}: sim_rounds = {} charged rounds; sim_rounds_ratio divides by {}",
                    c.rounds,
                    inst.round_scale()
                ));
            }
        }
        k += 1;
    }

    let ok_frac = (outcome.attempted - outcome.failed) as f64 / outcome.attempted as f64;
    let (q1, q3) = quartiles(&times);
    let tail = match report::tail(&times) {
        Some((pct, secs)) => format!(", p{pct:.0} {secs:.4}"),
        None => String::new(),
    };
    outcome.note(format!(
        "op_s is the fastest of {} timed operations (median {:.4}, quartiles {q1:.4}, \
         {q3:.4}{tail} s); setup_s is the fastest of {} set-ups (median {:.6} s); \
         failed_frac = {} ({} of {})",
        times.len(),
        median(&times),
        setups.len(),
        median(&setups),
        1.0 - ok_frac,
        outcome.failed,
        outcome.attempted
    ));
    outcome.metrics = vec![
        Metric::new("setup_s", report::min(&setups), "s"),
        Metric::new("op_s", report::min(&times), "s"),
        Metric::new("sim_rounds_ratio", mean(&rounds_ratio), "ratio"),
        Metric::new("sim_bits", mean(&bits), "bit"),
        Metric::new("peak_rss_mib", report::peak_rss_mib(), "MiB"),
        Metric::new("ok_frac", ok_frac, "fraction"),
    ];
    outcome
}
