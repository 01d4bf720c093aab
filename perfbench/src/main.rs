//! `perfbench` — the serving benchmark of the ftspan workspace.
//!
//! ```text
//! perfbench --workload <read_hot|read_cold|churn_replicated> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! One run builds the workload's backend from the seed, serves it behind a
//! primary `ftspan_server::Server` with one `ReplicaServer`, drives it over
//! loopback TCP, checks every answer against a mirror, and prints a
//! human-readable report followed by one JSON result line. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` reports the per-layer
//! metrics (see `LAYERS.md`). Set-up time is not part of `--seconds`.

mod backend;
mod check;
mod json;
mod load;
mod metrics;
mod run;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

use ftspan_oracle::{FaultOracle, ShardedOracle};

use crate::workload::{Kind, Spec};

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Which workload.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Per-layer (traced) run.
    pub traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let (mut seed, mut seconds, mut traced) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        traced: traced.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <read_hot|read_cold|churn_replicated> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let spec = Spec::of(args.kind);
    let outcome = match spec.shards {
        None => run::run::<FaultOracle>(&spec, &args),
        Some(_) => run::run::<ShardedOracle>(&spec, &args),
    };
    let reported = if args.traced {
        metrics::select(metrics::PER_LAYER, &outcome.values)
    } else {
        metrics::select(metrics::END_TO_END, &outcome.values)
    };
    let metrics = match reported {
        Ok(metrics) => metrics,
        Err(missing) => {
            eprintln!("perfbench: metric {missing} was not measured");
            return ExitCode::FAILURE;
        }
    };
    for m in &metrics {
        println!("metric {:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        json::result_line(outcome.correct, outcome.attempted, outcome.failed, &metrics)
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
