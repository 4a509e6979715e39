//! Dependency-free telemetry for the AARC stack.
//!
//! The rest of the workspace measures *workflows*; this crate measures the
//! *stack itself*: how long evaluation batches take, where a request spent
//! its time, what the daemon did in the seconds before something went
//! wrong. Like `vendor/` and the CLI's hand-rolled HTTP layer, it is built
//! entirely on `std` — the offline build environment has no metrics or
//! logging crates — and it is deliberately tiny:
//!
//! * [`metrics`] — atomic [`Counter`]s, [`Gauge`]s and fixed-bucket
//!   log-linear [`Histogram`]s (p50/p90/p99 + sum/count). All recording is
//!   commutative integer arithmetic, so merged snapshots are independent
//!   of thread interleaving, and the [`Recorder`] registry snapshots in
//!   deterministic (name-sorted) order.
//! * [`flight`] — [`FlightRecorder`], a bounded ring buffer of recent
//!   structured [`Event`]s (the daemon's black box, served from
//!   `GET /debug/events`).
//! * [`log`] — [`Logger`], leveled structured logging to stderr in
//!   `text` or JSON-lines format.
//! * [`build_info`](mod@crate::build) — compile-time provenance (crate
//!   version, rustc version, cargo profile) for `GET /version`, the
//!   `aarc_build_info` metric and `BENCH_*.json`.
//! * [`prom`] — the one Prometheus text-exposition renderer:
//!   [`prom::write_snapshot`] writes a [`RecorderSnapshot`] with one
//!   `# HELP`/`# TYPE` header per family, to any `fmt::Write` sink. The
//!   daemon's `/metrics` puts its scrape-time values into a
//!   [`RecorderSnapshot`] of its own and renders it through this function
//!   too, and writes its per-session families with [`prom::write_header`]
//!   and [`prom::write_sample`], so no other code writes exposition text.
//!
//! Instrumentation built on this crate must be zero-cost when nothing is
//! attached: every clock read lives behind an `Option` check at the call
//! site, never inside the hot path itself.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod build;
pub mod flight;
mod json;
pub mod log;
pub mod metrics;
pub mod prom;

pub use build::{build_info, BuildInfo};
pub use flight::{events_json, Event, FieldValue, FlightRecorder};
pub use log::{LogFormat, LogLevel, Logger};
pub use metrics::{
    Counter, FamilySnapshot, Gauge, Histogram, HistogramSnapshot, Labels, Recorder,
    RecorderSnapshot, BUCKET_BOUNDS_NS,
};
