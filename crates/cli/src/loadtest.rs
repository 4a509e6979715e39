//! `aarc loadtest` — a self-contained serving load harness.
//!
//! Spawns a real daemon in-process (`run_serve` on an ephemeral port),
//! partitions a target concurrency across N synthetic tenants, and drives
//! session starts through real sockets with a pool of client threads until
//! every tenant sits at its live-session quota. With `--hold` sessions are
//! admitted directly into the paused phase (`"paused": true` in the start
//! body), pinning peak concurrency at the target so the run measures
//! *admission* behaviour (thousands of concurrently-live sessions, `429`
//! once a tenant is full) rather than search throughput.
//!
//! The harness records every request into a latency histogram and counts
//! outcomes by class: a passing run has only 2xx and 429 responses — any
//! 5xx (including 503: quotas are sized so the global watermark is never
//! the binding constraint) fails the run, as does a peak below
//! `--min-concurrent`. Results are printed as JSON, optionally written to
//! `--out`, and `--bench FILE` merges them into an existing `aarc bench`
//! report as its `serve` phase.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use aarc_telemetry::{Histogram, LogFormat, LogLevel, Logger};

use crate::bench::{self, ServePhase};
use crate::client::{http_request_retrying, HttpReply, RetryPolicy};
use crate::problem::PROBLEM_CONTENT_TYPE;
use crate::serve::{run_serve, ServeConfig};
use crate::tenant::{TenantRegistry, TenantSpec};

/// Per-request client timeout (generous: the daemon is local, but a busy
/// scheduler can delay accepts under thousands of sessions).
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// The harness's retry policy: honor `Retry-After` on 429/503 but cap it
/// hard — the daemon suggests whole seconds, and a loadtest that sleeps a
/// second per rejection measures the sleep, not the daemon.
const RETRY_POLICY: RetryPolicy = RetryPolicy {
    max_retries: 2,
    base: Duration::from_millis(2),
    cap: Duration::from_millis(20),
    seed: 0x10ad_7e57,
};

/// Parsed `aarc loadtest` flags.
pub struct LoadtestOptions {
    /// Target concurrently-live sessions across all tenants.
    pub concurrent: usize,
    /// Number of synthetic tenants the target is partitioned across.
    pub tenants: usize,
    /// Client worker threads issuing requests.
    pub clients: usize,
    /// Daemon evaluation-pool threads.
    pub threads: usize,
    /// Optional per-tenant request rate limit, to exercise the 429 rate
    /// path under load.
    pub rps: Option<f64>,
    /// Pause each admitted session, pinning peak concurrency.
    pub hold: bool,
    /// Fail the run if peak concurrency stays below this.
    pub min_concurrent: usize,
    /// Search method of the started sessions.
    pub method: String,
    /// Write the serve-phase JSON here instead of stdout.
    pub out: Option<String>,
    /// Merge the serve phase into this existing `aarc bench` report.
    pub bench: Option<String>,
}

/// Shared outcome counters, updated lock-free by every client thread.
struct Stats {
    latency: Histogram,
    requests: AtomicU64,
    accepted_2xx: AtomicU64,
    rejected_429: AtomicU64,
    rejected_503: AtomicU64,
    server_errors_5xx: AtomicU64,
    retries: AtomicU64,
    sessions_started: AtomicU64,
    concurrent_peak: AtomicU64,
}

impl Stats {
    fn new() -> Self {
        Stats {
            latency: Histogram::new(),
            requests: AtomicU64::new(0),
            accepted_2xx: AtomicU64::new(0),
            rejected_429: AtomicU64::new(0),
            rejected_503: AtomicU64::new(0),
            server_errors_5xx: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            sessions_started: AtomicU64::new(0),
            concurrent_peak: AtomicU64::new(0),
        }
    }

    /// One timed request against the daemon, classified by status class.
    /// Retryable rejections (429/503) are retried per [`RETRY_POLICY`];
    /// the latency histogram times the whole exchange, backoff included,
    /// and only the final reply is classified.
    fn call(
        &self,
        addr: SocketAddr,
        method: &str,
        path: &str,
        api_key: &str,
        body: &[u8],
    ) -> Result<HttpReply, String> {
        let started = Instant::now();
        let retried = http_request_retrying(
            addr,
            method,
            path,
            Some(api_key),
            body,
            REQUEST_TIMEOUT,
            &RETRY_POLICY,
        )?;
        self.latency.record(started.elapsed());
        let reply = retried.reply;
        self.requests
            .fetch_add(1 + u64::from(retried.retries), Ordering::Relaxed);
        self.retries
            .fetch_add(u64::from(retried.retries), Ordering::Relaxed);
        match reply.status {
            200..=299 => self.accepted_2xx.fetch_add(1, Ordering::Relaxed),
            429 => self.rejected_429.fetch_add(1, Ordering::Relaxed),
            503 => self.rejected_503.fetch_add(1, Ordering::Relaxed),
            500.. => self.server_errors_5xx.fetch_add(1, Ordering::Relaxed),
            _ => 0, // 4xx other than 429: client bugs, surfaced via counts below
        };
        // Every non-2xx the daemon emits must be an RFC-7807 problem
        // document; a bare error means the API contract broke under load.
        if reply.status >= 400 && reply.header("content-type") != Some(PROBLEM_CONTENT_TYPE) {
            return Err(format!(
                "{method} {path} answered {} without problem+json (content-type {:?})",
                reply.status,
                reply.header("content-type")
            ));
        }
        Ok(reply)
    }

    /// Folds a freshly-polled live-session sum into the peak.
    fn observe_concurrency(&self, live: u64) {
        self.concurrent_peak.fetch_max(live, Ordering::Relaxed);
    }
}

fn key_of(tenant: usize) -> String {
    format!("load-key-{tenant}")
}

/// Reads a non-negative integer out of a JSON value (the vendored data
/// model normalises small integers to `Int`).
fn value_u64(value: &serde::Value) -> Option<u64> {
    match value {
        serde::Value::Int(i) if *i >= 0 => Some(*i as u64),
        serde::Value::UInt(u) => Some(*u),
        _ => None,
    }
}

/// The tiny scenario every tenant uploads: small enough that a session
/// step is cheap, real enough that sessions live through the scheduler.
fn loadtest_spec_yaml() -> Vec<u8> {
    let mut spec = aarc_spec::synthetic_spec(aarc_spec::SynthParams {
        seed: 11,
        layers: 3,
        max_width: 3,
        ..aarc_spec::SynthParams::default()
    });
    spec.name = "loadtest".to_owned();
    aarc_spec::to_string(&spec, aarc_spec::SpecFormat::Yaml).into_bytes()
}

/// Reads the tenant's live-session count (running + paused) from the
/// pagination envelope's `total` field — two cheap `limit=1` listings.
fn poll_live(stats: &Stats, addr: SocketAddr, key: &str) -> Result<u64, String> {
    let mut live = 0;
    for status in ["running", "paused"] {
        let reply = stats.call(
            addr,
            "GET",
            &format!("/api/v1/sessions?status={status}&limit=1"),
            key,
            b"",
        )?;
        if reply.status == 200 {
            let doc = serde_json::parse(&reply.body)
                .map_err(|e| format!("unparseable session listing: {e}"))?;
            live += doc
                .get("total")
                .and_then(value_u64)
                .ok_or("session listing envelope has no total")?;
        }
    }
    Ok(live)
}

/// Runs the whole harness: spawn daemon, upload, drive, measure, drain.
///
/// # Errors
///
/// Returns a message when the daemon cannot start, any request hits a
/// transport error, any response is 5xx, the run fails to converge, or
/// peak concurrency stays under `--min-concurrent`.
pub fn run_loadtest(options: &LoadtestOptions) -> Result<(), String> {
    if options.concurrent == 0 || options.tenants == 0 || options.clients == 0 {
        return Err("--concurrent, --tenants and --clients must all be at least 1".to_owned());
    }
    let per_tenant = options.concurrent.div_ceil(options.tenants);
    let specs: Vec<TenantSpec> = (0..options.tenants)
        .map(|i| TenantSpec {
            name: format!("load-{i}"),
            api_key: Some(key_of(i)),
            max_scenarios: Some(4),
            max_live_sessions: Some(per_tenant as u64),
            requests_per_sec: options.rps,
            burst: None,
        })
        .collect();
    let registry = TenantRegistry::from_specs(&specs)?;
    // The per-tenant quotas sum to at least the target, and the global
    // watermark sits strictly above that sum: tenant quotas (429) are
    // always the binding constraint, so a correct daemon never answers
    // 503 during the run.
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: options.threads,
        tenants: registry,
        max_live_sessions: per_tenant * options.tenants + 1,
        logger: Logger::new(LogLevel::Error, LogFormat::Text),
        state_dir: None,
        checkpoint_every: crate::state::DEFAULT_CHECKPOINT_EVERY,
        tenants_config: None,
    };
    let (ready_tx, ready_rx) = mpsc::channel();
    let daemon = std::thread::spawn(move || run_serve(config, Some(ready_tx)));
    let addr = ready_rx
        .recv_timeout(Duration::from_secs(10))
        .map_err(|_| "daemon did not become ready within 10s".to_owned())?;

    let run_started = Instant::now();
    let stats = Stats::new();
    let spec_body = loadtest_spec_yaml();
    for tenant in 0..options.tenants {
        let reply = stats.call(
            addr,
            "POST",
            "/api/v1/scenarios",
            &key_of(tenant),
            &spec_body,
        )?;
        if reply.status != 201 {
            let _ = stats.call(addr, "POST", "/api/v1/shutdown", &key_of(0), b"");
            let _ = daemon.join();
            return Err(format!(
                "scenario upload for tenant {tenant} failed with {}: {}",
                reply.status, reply.body
            ));
        }
    }

    // Drive the target: each worker claims the next tenant round-robin and
    // performs one iteration against it — poll its live count, then (if
    // under quota) start a session, pausing it in hold mode. A tenant is
    // done once its live count reaches its quota (hold mode) or the global
    // start target is met. The attempt budget bounds the run when rate
    // limits slow admission to a crawl.
    // In hold mode sessions are admitted directly into the paused phase
    // (`"paused": true`): a held session can never finish on its own, so
    // live counts only grow and the peak deterministically reaches the
    // target.
    let start_body = format!(
        "{{\"scenario\": \"loadtest\", \"method\": \"{}\", \"paused\": {}}}",
        options.method, options.hold
    );
    let tenant_done: Vec<AtomicBool> = (0..options.tenants)
        .map(|_| AtomicBool::new(false))
        .collect();
    let tenant_live: Vec<AtomicU64> = (0..options.tenants).map(|_| AtomicU64::new(0)).collect();
    let next_tenant = AtomicUsize::new(0);
    let attempts = AtomicU64::new(0);
    let attempt_budget = (options.concurrent as u64) * 50 + 1000;
    let failure: std::sync::Mutex<Option<String>> = std::sync::Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..options.clients {
            scope.spawn(|| loop {
                if failure.lock().expect("failure slot").is_some() {
                    return;
                }
                if tenant_done.iter().all(|d| d.load(Ordering::Relaxed)) {
                    return;
                }
                if attempts.fetch_add(1, Ordering::Relaxed) >= attempt_budget {
                    return;
                }
                let tenant = next_tenant.fetch_add(1, Ordering::Relaxed) % options.tenants;
                if tenant_done[tenant].load(Ordering::Relaxed) {
                    continue;
                }
                let key = key_of(tenant);
                let iteration = || -> Result<(), String> {
                    let live = poll_live(&stats, addr, &key)?;
                    tenant_live[tenant].store(live, Ordering::Relaxed);
                    stats.observe_concurrency(
                        tenant_live.iter().map(|l| l.load(Ordering::Relaxed)).sum(),
                    );
                    if live >= per_tenant as u64 {
                        tenant_done[tenant].store(true, Ordering::Relaxed);
                        return Ok(());
                    }
                    if !options.hold
                        && stats.sessions_started.load(Ordering::Relaxed)
                            >= options.concurrent as u64
                    {
                        tenant_done[tenant].store(true, Ordering::Relaxed);
                        return Ok(());
                    }
                    let reply = stats.call(
                        addr,
                        "POST",
                        "/api/v1/sessions",
                        &key,
                        start_body.as_bytes(),
                    )?;
                    if reply.status == 201 {
                        stats.sessions_started.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(())
                };
                if let Err(e) = iteration() {
                    failure.lock().expect("failure slot").get_or_insert(e);
                    return;
                }
            });
        }
    });

    // Always drain the daemon, even on a failed run: shutdown cancels the
    // held (paused) sessions and the accept loop exits once drained.
    let shutdown = stats.call(addr, "POST", "/api/v1/shutdown", &key_of(0), b"");
    let joined = daemon
        .join()
        .map_err(|_| "daemon thread panicked".to_owned())?;
    shutdown?;
    joined?;

    if let Some(e) = failure.into_inner().expect("failure slot") {
        return Err(format!("loadtest client failed: {e}"));
    }

    let wall_ms = run_started.elapsed().as_secs_f64() * 1e3;
    let latency = stats.latency.snapshot();
    let phase = ServePhase {
        requests: stats.requests.load(Ordering::Relaxed),
        p50_ms: latency.quantile_ms(0.50).unwrap_or(0.0),
        p99_ms: latency.quantile_ms(0.99).unwrap_or(0.0),
        sessions_started: stats.sessions_started.load(Ordering::Relaxed),
        concurrent_peak: stats.concurrent_peak.load(Ordering::Relaxed),
        accepted_2xx: stats.accepted_2xx.load(Ordering::Relaxed),
        rejected_429: stats.rejected_429.load(Ordering::Relaxed),
        rejected_503: stats.rejected_503.load(Ordering::Relaxed),
        server_errors_5xx: stats.server_errors_5xx.load(Ordering::Relaxed),
        retries: stats.retries.load(Ordering::Relaxed),
        wall_ms,
        requests_per_sec: if wall_ms > 0.0 {
            stats.requests.load(Ordering::Relaxed) as f64 / (wall_ms / 1e3)
        } else {
            0.0
        },
    };

    let mut report =
        serde_json::to_string_pretty(&phase).expect("serve phase serialization is infallible");
    report.push('\n');
    match options.out.as_deref() {
        Some(path) => {
            aarc_spec::atomic_write(path, report.as_bytes()).map_err(|e| format!("{path}: {e}"))?
        }
        None => print!("{report}"),
    }
    if let Some(path) = options.bench.as_deref() {
        let contents = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let mut bench_report = bench::parse_baseline(&contents)
            .map_err(|e| format!("{path} is not a bench report: {e}"))?;
        bench_report.serve = Some(phase);
        let mut merged = serde_json::to_string_pretty(&bench_report)
            .expect("bench report serialization is infallible");
        merged.push('\n');
        aarc_spec::atomic_write(path, merged.as_bytes()).map_err(|e| format!("{path}: {e}"))?;
    }
    eprintln!(
        "aarc loadtest: {} requests, peak {} concurrent, p50 {:.2}ms p99 {:.2}ms, \
         {} started / {} x429 / {} x503 / {} x5xx / {} retried in {:.0}ms",
        phase.requests,
        phase.concurrent_peak,
        phase.p50_ms,
        phase.p99_ms,
        phase.sessions_started,
        phase.rejected_429,
        phase.rejected_503,
        phase.server_errors_5xx,
        phase.retries,
        phase.wall_ms
    );

    if phase.server_errors_5xx > 0 {
        return Err(format!(
            "{} requests answered 5xx — the daemon must reject with 429/503 problem \
             documents, never fail",
            phase.server_errors_5xx
        ));
    }
    if phase.rejected_503 > 0 {
        return Err(format!(
            "{} requests answered 503 although tenant quotas were sized below the \
             global watermark",
            phase.rejected_503
        ));
    }
    if (phase.concurrent_peak as usize) < options.min_concurrent {
        return Err(format!(
            "peak concurrency {} stayed under --min-concurrent {}",
            phase.concurrent_peak, options.min_concurrent
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_loadtest_spec_parses_validates_and_is_named_loadtest() {
        let body = loadtest_spec_yaml();
        let spec = aarc_spec::from_slice(&body).unwrap();
        assert_eq!(spec.name, "loadtest");
        aarc_spec::validate(&spec).unwrap();
        aarc_spec::compile(&spec).unwrap();
    }

    #[test]
    fn a_small_held_loadtest_pins_its_target_concurrency() {
        let options = LoadtestOptions {
            concurrent: 12,
            tenants: 3,
            clients: 4,
            threads: 2,
            rps: None,
            hold: true,
            min_concurrent: 12,
            method: "aarc".to_owned(),
            out: None,
            bench: None,
        };
        run_loadtest(&options).unwrap();
    }
}
