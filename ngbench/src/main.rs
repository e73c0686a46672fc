//! NonGEMM Bench end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path ngbench/Cargo.toml -- \
//!     --workload <profile-tiny|infer-full|decode-b8|serve-mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run sets the workload up several times (reporting the median set-up
//! time), measures it for `--seconds`, then checks every output outside the
//! timed phase. Human-readable report lines come first; the last line of
//! standard output is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. With `--trace 0` the metrics are the end-to-end set; with
//! `--trace 1` the run splits its time into an untraced half and a traced
//! half, and the metrics are the per-layer set read from spans the
//! benchmark records around its own calls into each layer. See
//! `ngbench/README.md` for the workloads and the metric design.

mod closed;
mod decode;
mod measure;
mod serve;

use std::process::ExitCode;
use std::time::Duration;

use measure::Report;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

impl Args {
    /// How long the untraced phase runs: all of `--seconds`, or its first
    /// half when the run is traced.
    pub fn untraced_for(&self) -> Duration {
        if self.trace {
            self.seconds / 2
        } else {
            self.seconds
        }
    }
}

const WORKLOADS: [&str; 4] = ["profile-tiny", "infer-full", "decode-b8", "serve-mix"];

fn usage() -> String {
    format!(
        "usage: ngbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload '{value}'"));
                }
                workload = Some(value.clone());
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed needs an unsigned integer, got '{value}'"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| {
                        format!("--seconds needs a number in (0, 600], got '{value}'")
                    })?;
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace needs 0 or 1, got '{value}'")),
                })
            }
            other => return Err(format!("unknown argument '{other}'")),
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
        Ok(a) => a,
        Err(e) => {
            eprintln!("ngbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let result: Result<Report, String> = match args.workload.as_str() {
        "profile-tiny" => closed::profile_tiny(&args),
        "infer-full" => closed::infer_full(&args),
        "decode-b8" => decode::run(&args),
        "serve-mix" => serve::run(&args),
        _ => unreachable!("workload validated by parse_args"),
    };
    match result {
        Ok(report) => {
            report.print(&args);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ngbench: {} failed: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}
