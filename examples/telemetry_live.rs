//! `jportal telemetry_live` — run a seed workload in a loop with the
//! live telemetry plane enabled and serve it over the in-tree scrape
//! endpoint, so a real client (curl, Prometheus, a browser,
//! `jportal-inspect telemetry` or `jportal-inspect profile`) can watch
//! the pipeline work and see where its time goes:
//!
//! ```sh
//! cargo run --release --example telemetry_live                # luindex, forever
//! cargo run --release --example telemetry_live -- sunflow --iters 50
//! cargo run --release --example telemetry_live -- --check     # CI loopback gate
//! curl http://127.0.0.1:<port>/metrics                        # while it runs
//! curl http://127.0.0.1:<port>/profile/folded                 # self-profile
//! ```
//!
//! `--check` replays every seed workload under a deterministic plane,
//! scrapes all four endpoints over loopback — `/metrics`,
//! `/metrics.json` (strict-JSON validated), `/series`, `/stream` — and
//! scrapes concurrently *while* analyses run, asserting that counters
//! only ever move up between scrapes and that sketch percentiles are
//! ordered within their documented bounds. Exits nonzero on any
//! violation.

use jportal::core::{JPortal, JPortalConfig};
use jportal::jvm::{Jvm, JvmConfig, RunResult};
use jportal::obs::json::{self, Value};
use jportal::obs::{http_get, TelemetryConfig, TelemetryPlane, TelemetryServer};
use jportal::workloads::{all_workloads, workload_by_name, Workload};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Lossy collection config (same regime as `observe`): small PT buffers
/// and a slow exporter force per-core overflows, so the recovery-side
/// series have something to show. The plane rides along on every drain.
fn run_jvm(w: &Workload, plane: &Arc<TelemetryPlane>) -> RunResult {
    let cfg = JvmConfig {
        cores: if w.multithreaded { 2 } else { 1 },
        pt_buffer_capacity: 1600,
        drain_bytes_per_kilocycle: 60,
        ..JvmConfig::default()
    };
    Jvm::new(cfg)
        .with_telemetry(Arc::clone(plane))
        .run_threads(&w.program, &w.threads)
}

fn build<'p>(w: &'p Workload, telemetry: TelemetryConfig) -> (JPortal<'p>, Arc<TelemetryPlane>) {
    let jp = JPortal::with_config(
        &w.program,
        JPortalConfig {
            telemetry: Some(telemetry),
            ..JPortalConfig::default()
        },
    );
    let plane = Arc::clone(jp.telemetry_plane().expect("telemetry configured on"));
    (jp, plane)
}

// --------------------------------------------------------------------- live

/// Replay loop: collect + analyze the workload over and over while the
/// endpoint serves whoever connects. `iters: None` runs until killed.
fn live(name: &str, iters: Option<u64>) -> Result<(), String> {
    let w = workload_by_name(name, 1);
    let (jp, plane) = build(&w, TelemetryConfig::default());
    let server = TelemetryServer::bind(Arc::clone(&plane), "127.0.0.1:0")
        .map_err(|e| format!("bind failed: {e}"))?;
    let url = server.url();
    println!("live telemetry for {:?} at {url}", w.name);
    println!("  {url}/metrics        Prometheus text exposition");
    println!("  {url}/metrics.json   flat metrics JSON with the profile section");
    println!("  {url}/series         series names; ?name=<q> for one window");
    println!("  {url}/stream         SSE, one snapshot event per tick");
    println!("  {url}/profile/folded     self-profile as folded stacks (µs of self time)");
    println!("  {url}/profile/flame.svg  self-profile flamegraph (open in a browser)");
    let mut i = 0u64;
    loop {
        let r = run_jvm(&w, &plane);
        let report = jp.analyze(r.traces.as_ref().unwrap(), &r.archive);
        i += 1;
        if i.is_multiple_of(10) || iters.is_some() {
            println!(
                "iteration {i}: {} entries, {} plane ticks",
                report.total_entries(),
                plane.ticks()
            );
        }
        if iters == Some(i) {
            break;
        }
    }
    server.shutdown();
    Ok(())
}

// -------------------------------------------------------------------- check

/// GET `base`/`path`, expect 200, return the body.
fn get_ok(base: &str, path: &str) -> Result<String, String> {
    let r = http_get(&format!("{base}{path}")).map_err(|e| format!("GET {path}: {e}"))?;
    if r.status != 200 {
        return Err(format!("GET {path}: status {}", r.status));
    }
    Ok(r.body)
}

/// The `"counters"` object of a `/metrics.json` document as a map.
fn counters_of(doc: &Value) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Some(Value::Obj(pairs)) = doc.get("counters") {
        for (k, v) in pairs {
            if let Some(n) = v.as_num() {
                out.insert(k.clone(), n);
            }
        }
    }
    out
}

/// Reads the response head plus the first SSE frame from `/stream` over
/// a raw socket ([`http_get`] can't be used: the stream never closes).
fn first_sse_frame(addr: &str) -> Result<String, String> {
    let io = |e: std::io::Error| format!("/stream: {e}");
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(io)?;
    stream
        .write_all(
            format!("GET /stream HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(io)?;
    let mut text = String::new();
    let mut buf = [0u8; 1024];
    loop {
        let n = stream.read(&mut buf).map_err(io)?;
        if n == 0 {
            return Err("/stream: closed before the first frame".into());
        }
        text.push_str(&String::from_utf8_lossy(&buf[..n]));
        let Some(head_end) = text.find("\r\n\r\n") else {
            continue;
        };
        let frames = &text[head_end + 4..];
        if let Some(frame_end) = frames.find("\n\n") {
            if !text.starts_with("HTTP/1.1 200") {
                return Err(format!(
                    "/stream: bad status line {:?}",
                    text.lines().next().unwrap_or("")
                ));
            }
            return Ok(frames[..frame_end].to_string());
        }
    }
}

/// The loopback gate for one workload: schema, endpoint shapes, sketch
/// ordering, and counter monotonicity under concurrent scraping.
fn check(w: &Workload) -> Result<(), String> {
    let fail = |msg: String| Err(format!("{}: {msg}", w.name));
    let (jp, plane) = build(
        w,
        TelemetryConfig {
            deterministic: true,
            ..TelemetryConfig::default()
        },
    );
    let server = TelemetryServer::bind(Arc::clone(&plane), "127.0.0.1:0")
        .map_err(|e| format!("{}: bind failed: {e}", w.name))?;
    let url = server.url();
    let r = run_jvm(w, &plane);
    let traces = r.traces.as_ref().unwrap();
    jp.analyze(traces, &r.archive);

    // Endpoint shapes, after one full collect + analyze.
    let prom = get_ok(&url, "/metrics").map_err(|e| format!("{}: {e}", w.name))?;
    for need in [
        "# TYPE jportal_ipt_decode_packets counter",
        "# TYPE jportal_core_analyze_wall_us summary",
        "quantile=\"0.99\"",
        "jportal_obs_serve_requests",
    ] {
        if !prom.contains(need) {
            return fail(format!("/metrics missing {need:?}"));
        }
    }

    let body = get_ok(&url, "/metrics.json").map_err(|e| format!("{}: {e}", w.name))?;
    if let Err(e) = json::validate(&body) {
        return fail(format!("/metrics.json is not strict JSON: {e}"));
    }
    let doc = json::parse(&body).expect("validated above");
    let c1 = counters_of(&doc);
    if !c1.contains_key("ipt.decode.packets") || !c1.contains_key("cfg.dfa.hits") {
        return fail("/metrics.json counters are missing pipeline keys".into());
    }

    // Sketch percentiles: ordered, inside [min, max], with a live count.
    let Some(Value::Obj(sketches)) = doc.get("sketches") else {
        return fail("/metrics.json has no sketches object".into());
    };
    let analyze = sketches
        .iter()
        .find(|(k, _)| k == "core.analyze.wall_us")
        .map(|(_, v)| v);
    let Some(s) = analyze else {
        return fail("sketch core.analyze.wall_us missing".into());
    };
    let num = |k: &str| s.get(k).and_then(Value::as_num).unwrap_or(f64::NAN);
    let (count, min, p50, p90, p99, max) = (
        num("count"),
        num("min"),
        num("p50"),
        num("p90"),
        num("p99"),
        num("max"),
    );
    if !(count >= 1.0 && min <= p50 && p50 <= p90 && p90 <= p99 && p99 <= max) {
        return fail(format!(
            "sketch percentiles out of order: count {count} min {min} \
             p50 {p50} p90 {p90} p99 {p99} max {max}"
        ));
    }

    // Series: the name list and one concrete window with ordered ticks.
    let names = get_ok(&url, "/series").map_err(|e| format!("{}: {e}", w.name))?;
    if !names.contains("\"counter.ipt.decode.packets\"") {
        return fail("/series names missing counter.ipt.decode.packets".into());
    }
    let win = get_ok(&url, "/series?name=counter.ipt.decode.packets")
        .map_err(|e| format!("{}: {e}", w.name))?;
    if let Err(e) = json::validate(&win) {
        return fail(format!("/series window is not strict JSON: {e}"));
    }
    let win = json::parse(&win).expect("validated above");
    let Some(Value::Arr(points)) = win.get("points") else {
        return fail("/series window has no points array".into());
    };
    if points.is_empty() {
        return fail("/series window is empty after an analysis".into());
    }
    let seqs: Vec<f64> = points
        .iter()
        .filter_map(|p| p.get("seq").and_then(Value::as_num))
        .collect();
    if seqs.windows(2).any(|w| w[0] >= w[1]) {
        return fail("/series seq stamps are not strictly increasing".into());
    }

    // SSE: the plane has published ticks, so /stream must replay the
    // latest snapshot immediately as a well-formed frame.
    let frame =
        first_sse_frame(&server.addr().to_string()).map_err(|e| format!("{}: {e}", w.name))?;
    let data = frame
        .lines()
        .find_map(|l| l.strip_prefix("data: "))
        .ok_or_else(|| format!("{}: SSE frame has no data line: {frame:?}", w.name))?;
    if !frame.starts_with("id: ") || !frame.contains("event: snapshot") {
        return fail(format!("SSE frame malformed: {frame:?}"));
    }
    if let Err(e) = json::validate(data) {
        return fail(format!("SSE payload is not strict JSON: {e}"));
    }

    // Monotone counters under concurrent scraping: a client hammers
    // /metrics.json while more analyses run; every sampled counter may
    // only ever increase.
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let stop = Arc::clone(&stop);
        let url = url.clone();
        std::thread::spawn(move || -> Result<Vec<BTreeMap<String, f64>>, String> {
            let mut samples = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let body = get_ok(&url, "/metrics.json")?;
                json::validate(&body).map_err(|e| format!("mid-run scrape: {e}"))?;
                samples.push(counters_of(&json::parse(&body).expect("validated")));
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(samples)
        })
    };
    // Keep the pipeline busy long enough for several scrapes to land,
    // however fast this workload analyzes.
    let t0 = std::time::Instant::now();
    let mut runs = 0;
    while runs < 3 || t0.elapsed() < Duration::from_millis(50) {
        jp.analyze(traces, &r.archive);
        runs += 1;
    }
    stop.store(true, Ordering::Relaxed);
    let samples = scraper
        .join()
        .map_err(|_| format!("{}: scraper thread panicked", w.name))?
        .map_err(|e| format!("{}: {e}", w.name))?;
    if samples.len() < 2 {
        return fail(format!("only {} mid-run scrapes landed", samples.len()));
    }
    for pair in samples.windows(2) {
        for (k, v) in &pair[0] {
            if let Some(later) = pair[1].get(k) {
                if later < v {
                    return fail(format!("counter {k} regressed mid-run: {v} -> {later}"));
                }
            }
        }
    }

    println!(
        "{:<10} ok: {} plane ticks, {} mid-run scrapes, all endpoints valid",
        w.name,
        plane.ticks(),
        samples.len()
    );
    server.shutdown();
    Ok(())
}

// --------------------------------------------------------------------- main

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check_mode = args.iter().any(|a| a == "--check");
    let mut iters: Option<u64> = None;
    let mut names: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--iters" {
            iters = it.next().and_then(|v| v.parse().ok());
            if iters.is_none() {
                eprintln!("--iters needs a number");
                return ExitCode::FAILURE;
            }
        } else if !a.starts_with("--") {
            names.push(a.clone());
        }
    }

    if check_mode {
        let workloads: Vec<Workload> = if names.is_empty() {
            all_workloads(1)
        } else {
            names.iter().map(|n| workload_by_name(n, 1)).collect()
        };
        for w in &workloads {
            if let Err(e) = check(w) {
                eprintln!("FAILED: {e}");
                return ExitCode::FAILURE;
            }
        }
        println!("all live-telemetry checks passed");
        return ExitCode::SUCCESS;
    }

    let name = names.first().map(String::as_str).unwrap_or("luindex");
    match live(name, iters) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
