//! End-to-end and per-layer benchmark of the ZigZag receiver.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload stream|mixed|cell --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is a separate
//! run that wraps the program's public seams in spans and reports the
//! per-layer metrics. The last line of standard output is the result as
//! one JSON object; the exit code is non-zero when a correctness gate
//! fails. See `benchmark/README.md` for the workloads and metrics.

mod cell;
mod common;
mod layers;
mod mixed;
mod report;
mod stream;
mod trace;

use report::{check_metrics, result_line, Report};
use std::process::ExitCode;

/// The end-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput", "items/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("delivered_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args, env: &common::Environment) -> Result<Report, String> {
    // stream keeps a segmenting thread and a decode worker busy at once
    if args.workload == "stream" && env.nproc < 2 {
        return Err(format!("stream runs two busy threads but nproc is {}", env.nproc));
    }
    let bench = common::Bench { seed: args.seed, seconds: args.seconds };
    match (args.workload.as_str(), args.trace) {
        ("stream", false) => Ok(stream::e2e(&bench)),
        ("stream", true) => Ok(stream::traced(&bench)),
        ("mixed", false) => Ok(mixed::e2e(&bench)),
        ("mixed", true) => Ok(mixed::traced(&bench)),
        ("cell", false) => Ok(cell::e2e(&bench)),
        ("cell", true) => Ok(cell::traced(&bench)),
        (w, _) => Err(format!("unknown workload {w:?}: expected stream, mixed or cell")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // Both commits of a comparison must measure the program's default
    // kernel backend, so an override is refused rather than recorded.
    if let Ok(v) = std::env::var("ZIGZAG_BACKEND") {
        eprintln!(
            "error: ZIGZAG_BACKEND={v:?} is set; unset it so the default backend is measured"
        );
        return ExitCode::from(2);
    }
    let env = common::Environment::capture(args.seed);
    println!("{}", env.line(&args.workload, args.trace));
    let report = match run(&args, &env) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let declared: &[(&str, &str)] = if args.trace { &layers::PER_LAYER } else { &END_TO_END };
    if let Err(e) = check_metrics(&report.metrics, declared) {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    for note in &report.notes {
        println!("{note}");
    }
    for m in &report.metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(&report));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: a correctness gate failed (see the gate lines above)");
        ExitCode::FAILURE
    }
}
