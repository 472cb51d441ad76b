//! `jportal-benchmark`: runs the benchmark's passes and prints every
//! metric as `workload metric value unit`, then one JSON summary line.
//!
//! ```text
//! jportal-benchmark [--workload NAME] [--phase e2e|traced | --trace 0|1]
//!                   [--seed N] [--seconds S]
//! ```
//!
//! With no `--workload` every workload runs, and with no phase both
//! passes run. `--seed` (default 24301) draws the inputs: the PSB cadence
//! of every collection run. `--seconds` is the measurement budget of each
//! pass on each workload. The traced pass writes its spans to
//! `$CARGO_TARGET_DIR/benchmark/spans-<workload>.jsonl` (`target/` when
//! the variable is unset). The exit code is non-zero when a hard check
//! fails; failed operations are counted in the summary instead.

use std::path::PathBuf;
use std::process::ExitCode;

use jportal_benchmark::metrics::ordered;
use jportal_benchmark::{
    known_answers, run, workload, Phase, WorkloadSpec, DEFAULT_SEED, WORKLOADS,
};

const DEFAULT_SECONDS: f64 = 3.0;

struct Args {
    workloads: Vec<&'static WorkloadSpec>,
    phases: Vec<Phase>,
    seed: u64,
    seconds: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.iter().collect(),
        phases: vec![Phase::EndToEnd, Phase::Traced],
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workloads = vec![workload(&value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?];
            }
            "--phase" | "--trace" => {
                args.phases = vec![match value.as_str() {
                    "e2e" | "0" => Phase::EndToEnd,
                    "traced" | "1" => Phase::Traced,
                    _ => return Err(format!("{flag} takes e2e|traced or 0|1, not {value:?}")),
                }];
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must lie in [0, 3600]".into());
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

fn spans_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("benchmark")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("jportal-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let single = args.workloads.len() == 1;
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let mut json_metrics = Vec::new();
    for spec in &args.workloads {
        let results = match run(spec, &args.phases, args.seed, args.seconds) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("jportal-benchmark: {}: hard check failed: {e}", spec.name);
                return ExitCode::FAILURE;
            }
        };
        for (phase, outcome) in results {
            if let Err(e) = known_answers(spec, args.seed, &outcome) {
                eprintln!("jportal-benchmark: {e}");
                correct = false;
            }
            if let Some(log) = &outcome.spans {
                let path = spans_dir().join(format!("spans-{}.jsonl", spec.name));
                if let Err(e) = log.write_jsonl(&path) {
                    eprintln!("jportal-benchmark: cannot write {}: {e}", path.display());
                }
            }
            for (name, value, unit) in ordered(&outcome.values, phase == Phase::Traced) {
                println!("{} {name} {value} {unit}", spec.name);
                let key = if single {
                    name.to_string()
                } else {
                    format!("{}/{name}", spec.name)
                };
                json_metrics.push(format!(
                    "\"{key}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                ));
            }
            if let Some(a) = outcome.first_collection_accuracy {
                println!("{} first_collection_accuracy {a} ratio", spec.name);
            }
            let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
            println!(
                "{} error_rate {error_rate} ratio ({} of {} operations failed)",
                spec.name, outcome.failed, outcome.attempted
            );
            attempted += outcome.attempted;
            failed += outcome.failed;
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        correct && failed == 0,
        json_metrics.join(", ")
    );
    ExitCode::SUCCESS
}
