//! Self-profile contracts. The profile is folded from the spans the
//! pipeline records (`Obs::profile`), so its count-weighted form
//! inherits the span tree's determinism: on every seed workload it is
//! byte-identical at one, two and four workers, parses as folded text,
//! roots every stack in a pipeline span category and has no zero
//! weight. A live plane serves that same profile as folded text, as a
//! flamegraph and inside `/metrics.json`, and scraping it while an
//! analysis runs leaves the report unchanged.

use jportal::core::{JPortal, JPortalConfig};
use jportal::jvm::{Jvm, JvmConfig, RunResult};
use jportal::obs::json::{self, Value};
use jportal::obs::{http_get, TelemetryConfig, TelemetryServer};
use jportal::workloads::{all_workloads, Workload};
use jportal::ProfileSnapshot;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Span categories the pipeline opens; every stack must root in one of
/// these (a frame label is `category:name`).
const SPAN_CATEGORIES: [&str; 6] = [
    "pipeline", "collect", "decode", "project", "recover", "lint",
];

/// Small PT buffers and a slow exporter force overflows, so recovery
/// spans show up in the profile too.
fn lossy_run(w: &Workload) -> RunResult {
    Jvm::new(JvmConfig {
        cores: if w.multithreaded { 2 } else { 1 },
        pt_buffer_capacity: 1600,
        drain_bytes_per_kilocycle: 60,
        ..JvmConfig::default()
    })
    .run_threads(&w.program, &w.threads)
}

/// Parses `folded` and checks every stack's root and weight.
fn check_stacks(name: &str, folded: &str) {
    let stacks = ProfileSnapshot::parse_folded(folded)
        .unwrap_or_else(|e| panic!("{name}: folded profile does not parse: {e}"));
    assert!(!stacks.is_empty(), "{name}: no stacks");
    for (stack, weight) in &stacks {
        let cat = stack[0].split(':').next().unwrap();
        assert!(
            SPAN_CATEGORIES.contains(&cat),
            "{name}: stack roots outside the span categories: {stack:?}"
        );
        assert!(*weight > 0, "{name}: zero-weight stack {stack:?}");
    }
}

/// Analyzes `w` at one worker under a deterministic live plane and
/// checks the three profile documents it serves; returns the folded
/// text it served.
fn served_profile(w: &Workload, r: &RunResult) -> String {
    let jp = JPortal::with_config(
        &w.program,
        JPortalConfig {
            parallelism: Some(1),
            telemetry: Some(TelemetryConfig {
                deterministic: true,
                ..TelemetryConfig::default()
            }),
            ..JPortalConfig::default()
        },
    );
    let plane = Arc::clone(jp.telemetry_plane().unwrap());
    let server = TelemetryServer::bind(plane, "127.0.0.1:0").unwrap();
    let url = server.url();
    jp.analyze(r.traces.as_ref().unwrap(), &r.archive);

    let folded = http_get(&format!("{url}/profile/folded")).unwrap();
    assert_eq!(folded.status, 200, "{}: /profile/folded", w.name);
    check_stacks(w.name, &folded.body);

    let svg = http_get(&format!("{url}/profile/flame.svg")).unwrap();
    assert_eq!(svg.status, 200, "{}: /profile/flame.svg", w.name);
    assert!(
        svg.body.starts_with("<svg ") && svg.body.ends_with("</svg>"),
        "{}: malformed flamegraph",
        w.name
    );

    let mj = http_get(&format!("{url}/metrics.json")).unwrap();
    json::validate(&mj.body).unwrap_or_else(|e| panic!("{}: /metrics.json: {e}", w.name));
    let doc = json::parse(&mj.body).unwrap();
    let stacks = doc.get("profile").and_then(|p| p.get("stacks"));
    assert!(
        matches!(stacks, Some(Value::Arr(s)) if !s.is_empty()),
        "{}: /metrics.json has no profile stacks",
        w.name
    );
    server.shutdown();
    folded.body
}

#[test]
fn deterministic_profiles_are_parallelism_independent() {
    for w in all_workloads(1) {
        let r = lossy_run(&w);
        let served = served_profile(&w, &r);
        for workers in [2, 4] {
            let jp = JPortal::with_config(
                &w.program,
                JPortalConfig {
                    parallelism: Some(workers),
                    ..JPortalConfig::default()
                },
            );
            jp.analyze(r.traces.as_ref().unwrap(), &r.archive);
            assert_eq!(
                jp.obs().profile(true).folded_text(),
                served,
                "{}: deterministic profile differs at {workers} workers",
                w.name
            );
            // Self-time weights drop the stacks whose spans took no
            // measurable time, and add none.
            let timed = jp.obs().profile(false).folded_text();
            check_stacks(w.name, &timed);
            let counted = ProfileSnapshot::parse_folded(&served).unwrap();
            for (stack, _) in ProfileSnapshot::parse_folded(&timed).unwrap() {
                assert!(
                    counted.iter().any(|(s, _)| *s == stack),
                    "{}: self-time stack {stack:?} has no span",
                    w.name
                );
            }
        }
    }
}

#[test]
fn scraping_the_profile_never_perturbs_the_report() {
    for w in all_workloads(1) {
        let r = lossy_run(&w);
        let traces = r.traces.as_ref().unwrap();
        let config = JPortalConfig {
            parallelism: Some(2),
            ..JPortalConfig::default()
        };
        let dark = JPortal::with_config(
            &w.program,
            JPortalConfig {
                observability: false,
                ..config
            },
        )
        .analyze(traces, &r.archive);

        let jp = JPortal::with_config(
            &w.program,
            JPortalConfig {
                telemetry: Some(TelemetryConfig::default()),
                ..config
            },
        );
        let server =
            TelemetryServer::bind(Arc::clone(jp.telemetry_plane().unwrap()), "127.0.0.1:0")
                .unwrap();
        let url = server.url();
        let done = AtomicBool::new(false);
        let report = std::thread::scope(|s| {
            // Each scrape folds the spans while the workers record more.
            let scraper = s.spawn(|| {
                let mut scrapes = 0;
                while !done.load(Ordering::Relaxed) || scrapes == 0 {
                    let folded = http_get(&format!("{url}/profile/folded")).unwrap();
                    assert_eq!(folded.status, 200);
                    ProfileSnapshot::parse_folded(&folded.body).unwrap();
                    scrapes += 1;
                }
            });
            let report = jp.analyze(traces, &r.archive);
            done.store(true, Ordering::Relaxed);
            scraper.join().unwrap();
            report
        });
        assert_eq!(dark, report, "{}: report changed under scraping", w.name);
        server.shutdown();
    }
}
