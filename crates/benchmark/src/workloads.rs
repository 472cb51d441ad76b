//! The four benchmark workloads and the inputs generated for them.
//!
//! Every workload runs in the evaluation harness's posture
//! ([`jportal_bench::harness::jvm_config`]: two simulated cores for the
//! multi-threaded analogs, one JIT debug record in ten lost). Ring size
//! and drain rate are literal numbers rather than derived presets, so a
//! change to the encoder cannot silently change a workload's input.

use jportal_bench::harness::jvm_config;
use jportal_ipt::CollectedTraces;
use jportal_jvm::{Jvm, JvmConfig, RunResult};
use jportal_workloads::{workload_by_name, Workload, WORKLOAD_NAMES};

use crate::DEFAULT_SEED;

/// One benchmark workload: which analogs run, at what scale, under which
/// ring configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Workload name, as given to `--workload`.
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
    /// The analogs it runs; one operation covers all of them.
    pub programs: &'static [&'static str],
    /// Workload scale of every analog.
    pub scale: u32,
    /// Per-core PT ring capacity in bytes.
    pub buffer: usize,
    /// Ring drain rate in bytes per 1000 cycles per core.
    pub drain: u64,
    /// Collection runs per analog; one operation covers all of them.
    pub collections: usize,
}

/// Lossless ring: nothing overflows at these scales.
const LOSSLESS_BUFFER: usize = 1 << 22;
const LOSSLESS_DRAIN: u64 = 1 << 20;
/// The Figure 7 "128M" preset at scale 5 (ring and drain derived by the
/// evaluation harness from the median-volume analog, frozen here).
const FIG7_BUFFER: usize = 2272;
const FIG7_DRAIN: u64 = 158;

/// The workloads, in the order a full run visits them.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "clean-lusearch",
        why: "lusearch@125 lossless: 1.00M events from 2.12 MB of PT on 4 threads; packet decode and \
              thread segregation weigh most, and recovery only builds its index",
        programs: &["lusearch"],
        // Not the ROADMAP's 130: there each of the four threads
        // reconstructs just under 2^18 entries, and where a seed moves a
        // few events across threads that thread's buffers double, so the
        // memory metrics jump in 6 MiB steps.
        scale: 125,
        buffer: LOSSLESS_BUFFER,
        drain: LOSSLESS_DRAIN,
        collections: 1,
    },
    WorkloadSpec {
        name: "jit-sunflow",
        why: "sunflow@40 lossless: 1.06M events from 143 KB of PT on one thread; JIT-blob decode, \
              entry emission and lint dominate, and it is the memory stress case",
        programs: &["sunflow"],
        scale: 40,
        buffer: LOSSLESS_BUFFER,
        drain: LOSSLESS_DRAIN,
        collections: 1,
    },
    WorkloadSpec {
        name: "lossy-fop",
        why: "fop@5 under the Figure 7 preset, 4 collections: 45% of PT bytes lost on one thread, so \
              recovery and its candidate-scoring fan-out dominate analysis",
        programs: &["fop"],
        scale: 5,
        buffer: FIG7_BUFFER,
        drain: FIG7_DRAIN,
        collections: 4,
    },
    WorkloadSpec {
        name: "fig7-suite",
        why: "all nine analogs at scale 5 under the Figure 7 preset, 4 collections each: the accuracy \
              guard, breadth of control shapes, and per-call fixed costs",
        programs: &WORKLOAD_NAMES,
        scale: 5,
        buffer: FIG7_BUFFER,
        drain: FIG7_DRAIN,
        collections: 4,
    },
];

/// The workload named `name`.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl WorkloadSpec {
    /// The same workload shape at another scale (tests run scaled-down
    /// shapes).
    pub fn at_scale(&self, scale: u32) -> WorkloadSpec {
        WorkloadSpec { scale, ..*self }
    }
}

/// One collection run of an analog: the pipeline's input.
#[derive(Debug)]
pub struct Collection {
    /// The traced configuration, ground-truth recording off.
    pub traced: JvmConfig,
    /// The traced run with ground truth.
    pub run: RunResult,
}

impl Collection {
    /// The collected traces.
    pub fn traces(&self) -> &CollectedTraces {
        self.run
            .traces
            .as_ref()
            .expect("collections are traced runs")
    }
}

/// One analog with its collections.
#[derive(Debug)]
pub struct Subject {
    /// The analog (program and thread specs).
    pub workload: Workload,
    /// The run untraced (the slowdown baseline).
    pub untraced: JvmConfig,
    /// The collection runs, each with its own PSB cadence.
    pub collections: Vec<Collection>,
}

/// Generates a workload's inputs from `seed`.
///
/// The seed varies what differs between two runs of the same JVM under
/// PT: the phase of the packet-stream sync points. Each collection draws
/// its own PSB cadence from `seed`, which moves where sync points, and in
/// the lossy workloads buffer overflows, fall. Seed [`DEFAULT_SEED`]'s
/// first collection keeps the evaluation cadence, so it reproduces the
/// published numbers. The pipeline only ever sees the generated traces
/// and metadata.
pub fn generate(spec: &WorkloadSpec, seed: u64) -> Result<Vec<Subject>, String> {
    spec.programs
        .iter()
        .map(|&name| {
            let workload = workload_by_name(name, spec.scale);
            let config =
                |tracing| jvm_config(&workload, tracing, Some(spec.buffer), Some(spec.drain));
            let collections = (0..spec.collections)
                .map(|i| {
                    let mut traced = config(true);
                    traced.psb_period = psb_period(seed, i, traced.psb_period);
                    let run =
                        Jvm::new(traced.clone()).run_threads(&workload.program, &workload.threads);
                    if !run.thread_errors.is_empty() {
                        return Err(format!("{name}: thread errors {:?}", run.thread_errors));
                    }
                    traced.record_truth_trace = false;
                    Ok(Collection { traced, run })
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Subject {
                untraced: config(false),
                workload,
                collections,
            })
        })
        .collect()
}

/// The PSB cadence of collection `i` under `seed`: within an eighth of
/// `base` either way, `base` itself for the default seed's first
/// collection.
fn psb_period(seed: u64, i: usize, base: usize) -> usize {
    let k = seed
        .wrapping_sub(DEFAULT_SEED)
        .wrapping_mul(64)
        .wrapping_add(i as u64);
    if k == 0 {
        return base;
    }
    // splitmix64 finalizer.
    let mut z = k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let span = base / 4 + 1;
    base - base / 8 + (z % span as u64) as usize
}

/// `true` when two collections are identical: bytes, losses, sideband and
/// end time on every core.
pub fn same_traces(a: &CollectedTraces, b: &CollectedTraces) -> bool {
    a.end_ts == b.end_ts
        && a.sideband == b.sideband
        && a.per_core.len() == b.per_core.len()
        && a.per_core
            .iter()
            .zip(&b.per_core)
            .all(|(x, y)| x.bytes == y.bytes && x.losses == y.losses)
}
