//! The end-to-end K-SPIN benchmark. See README.md in this directory.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot-hl --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Progress and diagnostics go to stderr; the last line of stdout is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones, measured untraced; with
//! `--trace 1` they are the per-layer ones of the traced run. Any wrong
//! answer fails the run: the JSON says `"correct": false` and the exit code
//! is 1.

mod reference;
mod run;
mod system;
mod trace;
mod util;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;

use run::Metric;

/// The workload seed used when none is given, and a separate held-out
/// seed for re-checking a claim on inputs it was not tuned on.
pub const DEFAULT_SEED: u64 = 1;
pub const HELD_OUT_SEED: u64 = 7_919;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut m = String::new();
    for (i, x) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            x.name, x.value, x.unit
        );
    }
    format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{m}}}}}")
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else {
        eprintln!(
            "unknown workload {:?}; expected one of {:?} \
             (default seed {DEFAULT_SEED}, held-out seed {HELD_OUT_SEED})",
            args.workload,
            workload::WORKLOADS
        );
        return ExitCode::from(2);
    };
    let outcome = std::panic::catch_unwind(|| run::run(&spec, args.seed, args.seconds, args.trace));
    match outcome {
        Ok(o) => {
            eprintln!("{}: exact counters {:?}", spec.name, o.fingerprint);
            let metrics = if args.trace {
                &o.per_layer
            } else {
                &o.end_to_end
            };
            let correct = o.failed == 0;
            println!("{}", json(correct, o.attempted, o.failed, metrics));
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(_) => {
            // A panic is a failed operation; the panic message is on stderr.
            println!("{}", json(false, 1, 1, &[]));
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{run, workload};

    /// A workload shrunk to a few thousand vertices, same stream shape.
    fn small(name: &str) -> workload::Spec {
        workload::Spec {
            vertices: 3_000,
            ..workload::spec(name).expect("named workload")
        }
    }

    /// The benchmark's self-test: two same-seed runs (one untraced, one
    /// traced) pass every check and agree on the exact counters. Within
    /// each run, the 1-worker and `nproc`-worker counters are asserted
    /// equal to the single-client ones.
    #[test]
    fn counters_repeat_across_same_seed_runs() {
        for name in ["hot-hl", "spread-ch"] {
            let spec = small(name);
            let untraced = run::run(&spec, 5, 0.0, false);
            let traced = run::run(&spec, 5, 0.0, true);
            assert_eq!(
                (untraced.failed, traced.failed),
                (0, 0),
                "{name} failed a check"
            );
            assert_eq!(
                untraced.fingerprint, traced.fingerprint,
                "{name} counters moved"
            );
        }
    }
}
