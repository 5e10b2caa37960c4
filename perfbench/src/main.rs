//! The ViteX benchmark: runs one workload from a seed, on the caller's
//! thread, and prints its metrics as one JSON object on the last line of
//! standard output.
//!
//! ```text
//! perfbench --workload <protein_single|distinct_k1000|churn_zipf_k1000>
//!           --seed <n> --seconds <s> --trace <0|1> [--smoke] [--trace-out <file>]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones, the self-time table and the tracing overhead, and writes the
//! spans as Chrome trace-event JSON.

mod alloc;
mod inputs;
mod run;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use inputs::Workload;
use run::Config;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: perfbench --workload <protein_single|distinct_k1000|churn_zipf_k1000> \
                     --seed <n> --seconds <s> --trace <0|1> [--smoke] [--trace-out <file>]";

fn parse_args() -> Result<(Config, Option<PathBuf>), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut trace_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
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
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let config = Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        smoke,
    };
    Ok((config, trace_out))
}

fn main() -> ExitCode {
    let (config, trace_out) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run::run(&config);

    eprint!("{}", report.notes);
    if let Some(json) = &report.chrome {
        let path = trace_out.unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out").join(format!(
                "trace_{}_{}.json",
                config.workload.name(),
                config.seed
            ))
        });
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, json));
        match written {
            Ok(()) => eprintln!("trace written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let mut metrics = String::new();
    for (i, m) in report.metrics.iter().enumerate() {
        eprintln!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    eprintln!("attempted={} failed={}", report.attempted, report.failed);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed
    );
    ExitCode::SUCCESS
}
