//! The JPortal benchmark: end-to-end metrics of collection and offline
//! analysis, and a per-stage ledger of where analysis time and memory go,
//! over four workloads.
//!
//! [`run`] generates a workload's inputs from a seed and runs the
//! requested passes over them (see [`passes`]); the `jportal-benchmark`
//! binary prints the results. The metric and workload declarations live
//! in [`metrics`] and [`workloads`], mirrored by `BENCHMARK.json` at the
//! repository root.

pub mod alloc;
pub mod metrics;
pub mod passes;
pub mod replay;
pub mod spans;
pub mod stats;
pub mod workloads;

pub use passes::{Outcome, Phase};
pub use workloads::{workload, WorkloadSpec, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The default seed (`0x5EED`): under it, every analog's first collection
/// is the evaluation's own configuration, the one behind Figure 7.
pub const DEFAULT_SEED: u64 = 24301;

/// Generates `spec`'s inputs from `seed` and runs each phase over them
/// for about `seconds` of measurement each.
///
/// # Errors
///
/// A message when input generation or a hard check fails (see
/// [`passes::run_pass`]).
pub fn run(
    spec: &WorkloadSpec,
    phases: &[Phase],
    seed: u64,
    seconds: f64,
) -> Result<Vec<(Phase, Outcome)>, String> {
    let subjects = workloads::generate(spec, seed)?;
    phases
        .iter()
        .map(|&phase| passes::run_pass(&subjects, phase, seconds).map(|o| (phase, o)))
        .collect()
}

/// Checks a pass's numbers against published results where the inputs
/// reproduce them: the full suite's first collections at the default
/// seed are Figure 7's configuration, whose mean accuracy is 78.1%.
///
/// # Errors
///
/// A message naming the number that moved.
pub fn known_answers(spec: &WorkloadSpec, seed: u64, outcome: &Outcome) -> Result<(), String> {
    if *spec != WORKLOADS[3] || seed != DEFAULT_SEED {
        return Ok(());
    }
    match outcome.first_collection_accuracy {
        Some(a) if (a - 0.781).abs() > 0.0005 => Err(format!(
            "{} accuracy {a:.4} is not Figure 7's 0.781",
            spec.name
        )),
        _ => Ok(()),
    }
}
