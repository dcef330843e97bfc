//! Runs one workload of the benchmark and prints its metrics as the last
//! line of standard output:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tpch --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 1` prints the per-layer metrics instead and writes the spans
//! to `perfbench/out/trace-<workload>-<seed>.jsonl`. The exit code is 1
//! when a result differs from its reference, 2 on a usage error.

use pytond_perfbench::append_views::AppendViews;
use pytond_perfbench::datascience::DataScience;
use pytond_perfbench::tpch::Tpch;
use pytond_perfbench::{guard_env, metrics, run, Outcome, Size};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args().and_then(|a| guard_env().map(|_| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let size = Size::full();
    let outcome = match args.workload.as_str() {
        "tpch" => run::<Tpch>(args.seed, args.seconds, args.trace, size),
        "datascience" => run::<DataScience>(args.seed, args.seconds, args.trace, size),
        "append_views" => run::<AppendViews>(args.seed, args.seconds, args.trace, size),
        other => Err(format!(
            "unknown workload {other}; choose tpch, datascience or append_views"
        )),
    };
    let outcome: Outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for p in &outcome.problems {
        eprintln!("perfbench: {p}");
    }
    for e in &outcome.errors {
        eprintln!("perfbench: failed: {e}");
    }
    if let Some((trace, programs)) = &outcome.trace {
        let path = PathBuf::from("perfbench/out")
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = trace.write_jsonl(&path, programs) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    let defs: Vec<(String, &str)> = if args.trace {
        metrics::per_layer()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    match metrics::render(
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        &defs,
        &outcome.values,
    ) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    }
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
