//! The stage replay must reproduce `JPortal::analyze` at one worker
//! exactly, on scaled-down versions of every workload shape and at two
//! seeds — otherwise its per-stage numbers describe some other pipeline.

use jportal_benchmark::replay::{StageDriver, STAGES};
use jportal_benchmark::spans::SpanLog;
use jportal_benchmark::workloads::generate;
use jportal_benchmark::{workload, DEFAULT_SEED};
use jportal_core::{JPortal, JPortalConfig, RecoveryStats};

fn replay_matches_analyze(name: &str, scale: u32) {
    let spec = workload(name).expect("declared workload").at_scale(scale);
    let config = JPortalConfig {
        parallelism: Some(1),
        ..JPortalConfig::default()
    };
    let mut holes = 0;
    for seed in [DEFAULT_SEED, 7] {
        for s in generate(&spec, seed).expect("inputs") {
            let jportal = JPortal::with_config(&s.workload.program, config);
            let stages = StageDriver {
                jportal: &jportal,
                config: &config,
                program: &s.workload.program,
            };
            for c in &s.collections {
                let report = jportal.analyze(c.traces(), &c.run.archive);
                let mut log = SpanLog::new();
                let replay = stages.replay(c.traces(), &c.run.archive, &mut log);
                assert_eq!(
                    replay.threads, report.threads,
                    "{name}@{scale} ({}), seed {seed}",
                    s.workload.name
                );
                holes += replay.threads.iter().map(|t| t.holes.len()).sum::<usize>();

                let spans = log.spans();
                assert_eq!(spans[0].name, "pipeline.replay");
                assert!(spans[1..].iter().all(|sp| sp.parent.is_some()));
                assert!(spans.iter().all(|sp| sp.end_ns >= sp.start_ns));
                let costs = log.self_costs(log.op());
                assert!(costs.keys().all(
                    |k| STAGES.contains(k) || ["pipeline.replay", "core.assemble"].contains(k)
                ));

                let mut recovery = RecoveryStats::default();
                for t in &replay.threads {
                    recovery.merge(&t.recovery);
                }
                let refilled = stages.fill_holes(&replay.lossy_threads, 2, &mut log);
                assert_eq!(refilled, recovery, "two-worker fills match one worker's");
            }
        }
    }
    if spec.buffer < 1 << 20 {
        assert!(holes > 0, "{name}: the lossy shape must exercise recovery");
    }
}

#[test]
fn clean_lusearch_shape() {
    replay_matches_analyze("clean-lusearch", 4);
}

#[test]
fn jit_sunflow_shape() {
    replay_matches_analyze("jit-sunflow", 2);
}

#[test]
fn lossy_fop_shape() {
    replay_matches_analyze("lossy-fop", 2);
}

#[test]
fn fig7_suite_shape() {
    replay_matches_analyze("fig7-suite", 1);
}
