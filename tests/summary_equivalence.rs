//! Ablation equivalence for interprocedural summaries
//! ([`JPortalConfig::summaries`]). Summaries reach only the feasibility
//! linter, so reports with them on and off must be equal in every field
//! but `lint` — timelines, holes, and every projection and recovery
//! counter — on every seed workload: clean, lossy, and with the trace
//! bytes corrupted or truncated. On honest input the linter must stay
//! silent in both modes.

use jportal::core::{JPortal, JPortalConfig, JPortalReport};
use jportal::ipt::CollectedTraces;
use jportal::jvm::{Jvm, JvmConfig};
use jportal::workloads::{all_workloads, Workload};

/// Deterministic pseudo-random stream (SplitMix64) for corruption.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn jvm_config(w: &Workload, lossy: bool) -> JvmConfig {
    JvmConfig {
        cores: if w.multithreaded { 2 } else { 1 },
        pt_buffer_capacity: if lossy {
            2500
        } else {
            JvmConfig::default().pt_buffer_capacity
        },
        drain_bytes_per_kilocycle: if lossy {
            90
        } else {
            JvmConfig::default().drain_bytes_per_kilocycle
        },
        ..JvmConfig::default()
    }
}

fn config(summaries: bool) -> JPortalConfig {
    JPortalConfig {
        summaries,
        ..JPortalConfig::default()
    }
}

fn assert_equivalent(name: &str, mode: &str, mut on: JPortalReport, mut off: JPortalReport) {
    // Lint runs in a different mode on each side (interprocedural vs
    // per-seam reset); it is compared separately where the input is
    // honest. Everything else must agree exactly.
    for t in &mut on.threads {
        t.lint.clear();
    }
    for t in &mut off.threads {
        t.lint.clear();
    }
    assert_eq!(on, off, "{name} ({mode}): summaries changed the report");
    let ser_on = format!("{:?}", on.threads);
    let ser_off = format!("{:?}", off.threads);
    assert_eq!(
        ser_on, ser_off,
        "{name} ({mode}): serialized thread reports differ"
    );
}

#[test]
fn reports_identical_on_all_clean_seed_workloads() {
    for w in all_workloads(1) {
        let r = Jvm::new(jvm_config(&w, false)).run_threads(&w.program, &w.threads);
        assert!(r.thread_errors.is_empty(), "{} failed", w.name);
        let traces = r.traces.as_ref().unwrap();
        let on = JPortal::with_config(&w.program, config(true)).analyze(traces, &r.archive);
        let off = JPortal::with_config(&w.program, config(false)).analyze(traces, &r.archive);
        // On clean seed reconstructions the linter must be silent in
        // BOTH modes — the new diagnostics never fire on honest input.
        assert!(
            on.lint_summary().is_clean(),
            "{}: summaries-mode lint flagged a clean run: {}",
            w.name,
            on.lint_summary()
        );
        assert!(
            off.lint_summary().is_clean(),
            "{}: legacy lint flagged a clean run: {}",
            w.name,
            off.lint_summary()
        );
        assert_equivalent(w.name, "clean", on, off);
    }
}

#[test]
fn reports_identical_on_all_lossy_seed_workloads() {
    for w in all_workloads(1) {
        let r = Jvm::new(jvm_config(&w, true)).run_threads(&w.program, &w.threads);
        assert!(r.thread_errors.is_empty(), "{} failed", w.name);
        let traces = r.traces.as_ref().unwrap();
        let on = JPortal::with_config(&w.program, config(true)).analyze(traces, &r.archive);
        let off = JPortal::with_config(&w.program, config(false)).analyze(traces, &r.archive);
        assert!(
            on.lint_summary().is_clean(),
            "{}: summaries-mode lint flagged an honest lossy run: {}",
            w.name,
            on.lint_summary()
        );
        assert_equivalent(w.name, "lossy", on, off);
    }
}

/// Overwrites stretches of the exported packet bytes with pseudo-random
/// garbage and truncates one core's tail: the decoder resyncs, the
/// matcher sees nonsense windows, and the two modes must still agree.
fn corrupt(traces: &mut CollectedTraces, seed: u64) {
    let mut rng = Rng(seed);
    for (ci, core) in traces.per_core.iter_mut().enumerate() {
        if core.bytes.is_empty() {
            continue;
        }
        let stretches = 1 + core.bytes.len() / 400;
        for _ in 0..stretches {
            let start = (rng.next() as usize) % core.bytes.len();
            for off in 0..8 {
                if let Some(b) = core.bytes.get_mut(start + off) {
                    *b = (rng.next() & 0xff) as u8;
                }
            }
        }
        if ci == 0 {
            let keep = core.bytes.len() * 4 / 5;
            core.bytes.truncate(keep);
        }
    }
}

#[test]
fn reports_identical_on_garbage_and_truncated_inputs() {
    for w in all_workloads(1) {
        for (mode, lossy) in [("clean+garbage", false), ("lossy+garbage", true)] {
            let mut r = Jvm::new(jvm_config(&w, lossy)).run_threads(&w.program, &w.threads);
            corrupt(r.traces.as_mut().unwrap(), 0xBAD5EED ^ w.name.len() as u64);
            let traces = r.traces.as_ref().unwrap();
            let on = JPortal::with_config(&w.program, config(true)).analyze(traces, &r.archive);
            let off = JPortal::with_config(&w.program, config(false)).analyze(traces, &r.archive);
            // Diagnostics may legitimately differ on corrupted input
            // (the modes have different lint precision); the
            // reconstruction itself must not.
            assert_equivalent(w.name, mode, on, off);
        }
    }
}
