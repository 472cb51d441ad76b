//! JPortal — precise and efficient control-flow tracing for JVM programs
//! with (simulated) Intel Processor Trace.
//!
//! Facade crate re-exporting the workspace's public API. See the README for
//! the architecture overview and `DESIGN.md` for the paper-to-module map.
//!
//! # Live telemetry
//!
//! Build the analyzer with `JPortalConfig { telemetry: Some(..), .. }`,
//! bind a [`TelemetryServer`] on its plane, and scrape `/metrics`,
//! `/metrics.json`, `/series?name=..` or `/stream` while analyses run,
//! or `/profile/folded` and `/profile/flame.svg` for the self-profile
//! folded from the pipeline's spans (see DESIGN.md §17–18 and
//! `examples/telemetry_live.rs`):
//!
//! ```no_run
//! use jportal::core::{JPortal, JPortalConfig};
//! use jportal::obs::{TelemetryConfig, TelemetryServer};
//! # fn demo(program: &jportal::bytecode::Program) {
//! let jp = JPortal::with_config(
//!     program,
//!     JPortalConfig {
//!         telemetry: Some(TelemetryConfig::default()),
//!         ..JPortalConfig::default()
//!     },
//! );
//! let plane = jp.telemetry_plane().unwrap().clone();
//! let server = TelemetryServer::bind(plane, "127.0.0.1:0").unwrap();
//! println!("scrape {}/metrics", server.url());
//! # }
//! ```

pub use jportal_analysis as analysis;
pub use jportal_bytecode as bytecode;
pub use jportal_cfg as cfg;
pub use jportal_core as core;
pub use jportal_ipt as ipt;
pub use jportal_jvm as jvm;
pub use jportal_obs as obs;
pub use jportal_profilers as profilers;
pub use jportal_workloads as workloads;

pub use jportal_obs::{
    ContentionCounter, ProfileSnapshot, TelemetryConfig, TelemetryPlane, TelemetryServer,
};
