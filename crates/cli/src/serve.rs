//! `aarc serve` — the online configuration daemon.
//!
//! Where every other subcommand builds the world, runs to completion and
//! exits, `serve` keeps one process-wide
//! [`EvalService`](aarc_simulator::EvalService) alive behind a hand-rolled
//! HTTP/1.1 JSON API (see [`crate::http`]): clients upload scenario specs
//! (parsed in memory via `ScenarioSpec::from_slice`, never touching disk),
//! start search sessions (method × input class × SLO), poll their
//! progress, fetch final reports and scrape `/metrics`.
//!
//! The API is **versioned and multi-tenant**:
//!
//! * every route is mounted under `/api/v1/...`; the bare legacy paths
//!   remain as aliases that answer with a `Deprecation: true` header, and
//!   `GET /api/v1` serves a discovery document;
//! * an `X-Api-Key` header resolves to a [`crate::tenant::Tenant`];
//!   scenarios, sessions and metric labels are partitioned per tenant and
//!   a tenant can never observe (or delete) another tenant's resources —
//!   cross-tenant lookups answer `404`, not `403`, so existence never
//!   leaks. The shared memo-cache still deduplicates identical scenario
//!   environments *below* the namespace (same fingerprint ⇒ same cached
//!   simulations), which is invisible to clients except as speed;
//! * admission control rejects instead of queuing: per-tenant scenario /
//!   live-session quotas and token-bucket rate limits answer `429`, the
//!   global live-session watermark and a draining daemon answer `503`,
//!   both as RFC-7807 problem documents with `Retry-After`;
//! * every non-2xx response is `application/problem+json` (see
//!   [`crate::problem`]).
//!
//! A single **scheduler thread** round-robins
//! [`SearchSession::step`](aarc_core::SearchSession::step) across all live
//! sessions, so concurrent clients' searches interleave on the shared
//! worker pool and memo-cache exactly like `aarc sweep` interleaves its
//! grid — and therefore return results bit-identical to an offline
//! `aarc run` of the same spec/method/SLO (pinned by the CI serve smoke
//! job).
//!
//! Shutdown: `POST /shutdown` stops admission, cancels paused sessions,
//! drains running ones and exits 0. A SIGTERM cannot be intercepted in
//! this build — the offline environment has no `libc` and the crate
//! forbids `unsafe` — so process supervisors should send `/shutdown`
//! first and treat SIGTERM as the hard fallback.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize, Value};

use aarc_baselines::methods;
use aarc_core::report::ConfigurationReport;
use aarc_core::{AarcError, RoundPoint, SearchSession, SessionProgress, SessionState};
use aarc_simulator::{EvalService, EvalTelemetry, ScenarioHandle};
use aarc_spec::{validate, ScenarioSpec};
use aarc_telemetry::{
    events_json, FamilySnapshot, FieldValue, FlightRecorder, Histogram, Labels, LogLevel, Logger,
    Recorder, RecorderSnapshot,
};
use aarc_workloads::Workload;

use crate::http::{read_request, Request, Response};
use crate::problem::{problem, Kind, Problem};
use crate::state::{
    CheckpointSummary, PersistedScenario, QuarantinedFile, SessionCheckpoint, StateDir, WalRecord,
    STATE_VERSION,
};
use crate::sweep::SweepClass;
use crate::tenant::{TenantId, TenantRegistry};
use crate::version::VersionInfo;

/// How long a connection may sit idle before the daemon gives up on it
/// (bounds shutdown latency: a drained daemon only waits this long for
/// stragglers).
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Events retained by the daemon's flight recorder (served from
/// `GET /debug/events`).
const FLIGHT_CAPACITY: usize = 1024;

/// Default and maximum `limit` of `GET /debug/events`.
const DEFAULT_EVENT_LIMIT: usize = 64;

/// `limit` applied to paginated listings when the query omits it.
const DEFAULT_PAGE_LIMIT: usize = 50;

/// Hard ceiling of the pagination `limit` (larger requests are clamped).
const MAX_PAGE_LIMIT: usize = 500;

/// Default global live-session watermark: above this many concurrently
/// live (running or paused) sessions, new session starts are rejected
/// with `503` instead of queuing without bound.
pub const DEFAULT_MAX_LIVE_SESSIONS: usize = 1024;

/// The observable session phases, as used by the `status=` list filter.
const PHASE_LABELS: [&str; 5] = ["running", "paused", "finished", "failed", "cancelled"];

/// Everything `run_serve` needs, bundled so callers (CLI flags, the
/// loadtest harness, tests) build it in one place.
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8080` (port 0 picks an ephemeral
    /// port, reported in the readiness line and the `ready` channel).
    pub addr: String,
    /// Worker threads of the shared evaluation pool.
    pub threads: usize,
    /// Tenant registry (API keys, quotas, rate limits).
    pub tenants: TenantRegistry,
    /// Global live-session watermark for admission control.
    pub max_live_sessions: usize,
    /// Structured logger.
    pub logger: Logger,
    /// Durable state directory (`--state-dir`); `None` disables
    /// persistence entirely — not a single filesystem call is made.
    pub state_dir: Option<PathBuf>,
    /// Checkpoint cadence: a live session's checkpoint is refreshed
    /// after every this-many completed rounds.
    pub checkpoint_every: u64,
    /// Raw contents of the `--tenants` file, persisted verbatim into the
    /// state dir so a restart without the flag keeps its namespaces.
    pub tenants_config: Option<String>,
}

/// The daemon's observability bundle: the metric registry every layer
/// records into, the shared flight recorder, the structured logger, and
/// the daemon's own latency histograms. Built once per `run_serve` and
/// shared by reference with the connection handlers and the scheduler.
pub struct ServeTelemetry {
    recorder: Recorder,
    flight: Arc<FlightRecorder>,
    logger: Logger,
    http_seconds: Arc<Histogram>,
    step_seconds: Arc<Histogram>,
}

impl ServeTelemetry {
    /// Creates the bundle and registers the daemon's own instruments.
    pub fn new(logger: Logger) -> Self {
        let recorder = Recorder::new();
        let flight = Arc::new(FlightRecorder::new(FLIGHT_CAPACITY));
        let http_seconds = recorder.histogram(
            "aarc_http_request_seconds",
            "Wall-clock latency of HTTP requests (read, route, respond).",
        );
        let step_seconds = recorder.histogram(
            "aarc_session_step_seconds",
            "Wall-clock latency of one session scheduler step (ask/evaluate/tell).",
        );
        ServeTelemetry {
            recorder,
            flight,
            logger,
            http_seconds,
            step_seconds,
        }
    }

    /// A bundle that logs errors only — the default for router unit tests.
    #[cfg(test)]
    pub fn quiet() -> Self {
        ServeTelemetry::new(Logger::new(
            LogLevel::Error,
            aarc_telemetry::LogFormat::Text,
        ))
    }

    /// The instruments the [`EvalService`] should record into.
    pub fn eval_telemetry(&self) -> EvalTelemetry {
        EvalTelemetry::new(&self.recorder, Arc::clone(&self.flight))
    }
}

/// One uploaded scenario in the runtime registry.
struct ScenarioEntry<'s> {
    workload: Workload,
    functions: usize,
    edges: usize,
    slo_ms: f64,
    /// One registered handle per input-class variant used by this
    /// scenario's sessions: the class environment is compiled once and
    /// every further session clones the (cheap, `Arc`-backed) handle.
    /// Their fingerprints are unregistered — and their cache entries
    /// purged — when the scenario is deleted, unless another entry (in
    /// any tenant) still references the same fingerprint.
    handles: BTreeMap<String, ScenarioHandle<'s>>,
}

/// Observable lifecycle phase of a served session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Running,
    Paused,
    Finished,
    Failed,
    Cancelled,
}

impl Phase {
    fn label(self) -> &'static str {
        match self {
            Phase::Running => "running",
            Phase::Paused => "paused",
            Phase::Finished => "finished",
            Phase::Failed => "failed",
            Phase::Cancelled => "cancelled",
        }
    }

    /// Whether the session still occupies the scheduler.
    fn is_live(self) -> bool {
        matches!(self, Phase::Running | Phase::Paused)
    }
}

/// Final summary of a finished session (mirrors the sweep report row).
#[derive(Debug, Clone, Serialize)]
struct FinalSummary {
    final_cost: f64,
    final_makespan_ms: f64,
    meets_slo: bool,
    samples: usize,
}

/// One session slot: identity, the steppable session itself (absent while
/// the scheduler holds it for a step, and after it finished), the last
/// published progress snapshot and the terminal result.
struct Slot<'s> {
    id: u64,
    tenant: TenantId,
    scenario: String,
    method: String,
    class: String,
    slo_ms: f64,
    session: Option<SearchSession<'s>>,
    phase: Phase,
    want_pause: bool,
    want_cancel: bool,
    progress: SessionProgress,
    /// Per-round convergence trace, copied incrementally from the
    /// session's [`SearchSession::convergence`] after every step so
    /// `GET /sessions/{id}/trace` works while the session runs and after
    /// it finished (the session itself is consumed on finish).
    trace: Vec<RoundPoint>,
    /// Exact `aarc run --format json` bytes of the winning configuration —
    /// byte-identical to the offline run of the same spec/method/SLO.
    report_json: Option<String>,
    summary: Option<FinalSummary>,
    error: Option<String>,
}

/// Shared daemon state: the evaluation substrate, the tenant registry,
/// the (tenant-partitioned) runtime scenario registry and the session
/// table. Connection handlers and the scheduler thread share it by
/// reference inside one thread scope.
struct ServeState<'s> {
    service: &'s EvalService,
    telemetry: &'s ServeTelemetry,
    tenants: TenantRegistry,
    max_live_sessions: usize,
    scenarios: Mutex<BTreeMap<(TenantId, String), ScenarioEntry<'s>>>,
    /// Per-tenant `(requests, cache hits)` of the fingerprints each tenant
    /// stopped referencing by deleting scenarios, indexed by [`TenantId`],
    /// so its `aarc_tenant_eval_*_total` counters never decrease (the
    /// twin of [`EvalService::unregister`]'s retired total). Locked only
    /// while holding `scenarios`.
    retired_eval: Mutex<Vec<(u64, u64)>>,
    sessions: Mutex<BTreeMap<u64, Slot<'s>>>,
    next_session_id: AtomicU64,
    shutdown: AtomicBool,
    /// Durable state, when `--state-dir` was given.
    persist: Option<StateDir>,
    /// Checkpoint cadence in completed rounds.
    checkpoint_every: u64,
    /// True from boot until startup recovery has finished replaying the
    /// WAL and checkpoints; tenant routes answer 503 `recovering`
    /// meanwhile (operator endpoints stay up).
    recovering: AtomicBool,
    /// The outcome of startup recovery, served at `GET /api/v1/recovery`.
    recovery: Mutex<Option<RecoveryReport>>,
}

/// What startup recovery did, kept for the lifetime of the daemon and
/// served at `GET /api/v1/recovery` (also summarized as the
/// `aarc_recovery_*` metric families).
#[derive(Debug, Clone, Default, Serialize)]
struct RecoveryReport {
    /// WAL records replayed on top of the registry snapshot.
    wal_records_applied: u64,
    /// WAL lines dropped as torn or unparseable.
    wal_lines_dropped: u64,
    /// Scenarios re-registered from persisted specs.
    scenarios_recovered: u64,
    /// Checkpoint files considered.
    checkpoints_seen: u64,
    /// Live sessions resumed by deterministic replay.
    sessions_resumed: u64,
    /// Terminal sessions whose results were restored without replay.
    sessions_restored: u64,
    /// State files (or registry entries) set aside as unusable.
    quarantined: Vec<QuarantinedFile>,
}

impl<'s> ServeState<'s> {
    fn new(
        service: &'s EvalService,
        telemetry: &'s ServeTelemetry,
        tenants: TenantRegistry,
        max_live_sessions: usize,
        persist: Option<StateDir>,
        checkpoint_every: u64,
    ) -> Self {
        let recovering = persist.is_some();
        ServeState {
            service,
            telemetry,
            retired_eval: Mutex::new(vec![(0, 0); tenants.all().len()]),
            tenants,
            max_live_sessions,
            scenarios: Mutex::new(BTreeMap::new()),
            sessions: Mutex::new(BTreeMap::new()),
            next_session_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            persist,
            checkpoint_every,
            recovering: AtomicBool::new(recovering),
            recovery: Mutex::new(None),
        }
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Whether startup recovery is still replaying durable state.
    fn recovering(&self) -> bool {
        self.recovering.load(Ordering::SeqCst)
    }

    /// Resolves a persisted tenant name back to the id of the current
    /// registry — names are the stable cross-restart identity, ids are
    /// positional.
    fn tenant_by_name(&self, name: &str) -> Option<TenantId> {
        self.tenants.all().iter().position(|t| t.name == name)
    }

    /// Number of sessions still occupying the scheduler.
    fn live_sessions(&self) -> usize {
        self.sessions
            .lock()
            .expect("session table poisoned")
            .values()
            .filter(|s| s.phase.is_live())
            .count()
    }

    /// Whether the daemon has been asked to shut down and every session
    /// has reached a terminal phase — the exit condition of both the
    /// accept loop and the scheduler thread.
    fn drained(&self) -> bool {
        self.shutting_down() && self.live_sessions() == 0
    }

    /// Counts one authenticated API request against the tenant's
    /// per-tenant request counter family.
    fn count_tenant_request(&self, tenant: &str) {
        self.telemetry
            .recorder
            .labeled_counter(
                "aarc_tenant_http_requests_total",
                "Authenticated API requests, per tenant.",
                &Labels::new(&[("tenant", tenant)]),
            )
            .inc();
    }

    /// Counts one admission-control rejection (rate, quota, saturated,
    /// shutdown) for the tenant.
    fn count_rejection(&self, tenant: &str, reason: &'static str) {
        self.telemetry
            .recorder
            .labeled_counter(
                "aarc_tenant_rejected_total",
                "Requests rejected by admission control, per tenant and reason.",
                &Labels::new(&[("tenant", tenant), ("reason", reason)]),
            )
            .inc();
    }
}

/// Runs the daemon until a graceful shutdown completes. When `ready` is
/// given, the bound address (useful with port 0) is sent on it right
/// after the listener is up — the in-process channel twin of the
/// readiness stderr line.
///
/// # Errors
///
/// Returns a user-facing message when the listener cannot bind; runtime
/// errors of individual requests are reported to the client, never fatal.
pub fn run_serve(config: ServeConfig, ready: Option<Sender<SocketAddr>>) -> Result<(), String> {
    let ServeConfig {
        addr,
        threads,
        mut tenants,
        max_live_sessions,
        logger,
        state_dir,
        checkpoint_every,
        tenants_config,
    } = config;
    // A daemon explicitly asked for durability it cannot provide must
    // fail loudly at startup, not degrade silently.
    let persist = match &state_dir {
        None => None,
        Some(dir) => Some(
            StateDir::open(dir)
                .map_err(|e| format!("cannot open state dir {}: {e}", dir.display()))?,
        ),
    };
    if let Some(persist) = &persist {
        match &tenants_config {
            // The tenants file travels with the state dir, verbatim, so
            // a restart without `--tenants` keeps its namespaces.
            Some(raw) => persist
                .save_tenants(raw.as_bytes())
                .map_err(|e| format!("cannot persist tenants config: {e}"))?,
            None => {
                if let Some(saved) = persist.load_tenants() {
                    tenants = TenantRegistry::from_file_contents(&saved).map_err(|e| {
                        format!(
                            "persisted tenants config in {} is invalid: {e}",
                            persist.root().display()
                        )
                    })?;
                }
            }
        }
    }
    let listener = TcpListener::bind(&addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve local address: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot configure listener: {e}"))?;
    let service = EvalService::with_threads(threads);
    let telemetry = ServeTelemetry::new(logger);
    service
        .attach_telemetry(telemetry.eval_telemetry())
        .expect("fresh service has no telemetry attached");
    let state = ServeState::new(
        &service,
        &telemetry,
        tenants,
        max_live_sessions,
        persist,
        checkpoint_every.max(1),
    );
    // The readiness line is the machine-readable contract of the CI smoke
    // job and the integration tests: they parse the bound (possibly
    // ephemeral) port out of it. It must stay the FIRST stderr line, so it
    // is printed before any log record.
    eprintln!("aarc serve: listening on {local} ({threads} worker threads)");
    if let Some(ready) = ready {
        let _ = ready.send(local);
    }
    telemetry.logger.info(
        "serve_started",
        &[
            ("addr", FieldValue::Str(local.to_string())),
            ("threads", FieldValue::U64(threads as u64)),
            ("tenants", FieldValue::U64(state.tenants.all().len() as u64)),
            (
                "max_live_sessions",
                FieldValue::U64(state.max_live_sessions as u64),
            ),
        ],
    );

    std::thread::scope(|scope| {
        scope.spawn(|| {
            // Recovery runs on the scheduler thread, before it steps
            // anything: tenant routes answer 503 `recovering` meanwhile
            // and operator endpoints (healthz, metrics, recovery) are
            // already being served by the accept loop.
            run_recovery(&state);
            scheduler_loop(&state)
        });
        loop {
            if state.drained() {
                break;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let state = &state;
                    scope.spawn(move || handle_connection(state, stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => {
                    eprintln!("aarc serve: accept failed: {e}");
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    });
    // Final flush: by now every session is terminal; persist each one's
    // result so a restarted daemon can still serve its report.
    if state.persist.is_some() {
        let checkpoints: Vec<SessionCheckpoint> = {
            let sessions = state.sessions.lock().expect("session table poisoned");
            sessions
                .values()
                .map(|s| checkpoint_of(&state, s))
                .collect()
        };
        for checkpoint in &checkpoints {
            write_checkpoint(&state, checkpoint);
        }
    }
    telemetry.logger.info("serve_drained", &[]);
    eprintln!("aarc serve: drained, exiting");
    Ok(())
}

/// The session scheduler: round-robins one [`SearchSession::step`] per
/// live session per round on the shared service, applying pause/cancel
/// requests between steps, until shutdown has drained every session.
/// Stepping happens outside the session-table lock, so status polls are
/// never blocked behind a long batch.
fn scheduler_loop(state: &ServeState<'_>) {
    loop {
        let shutting_down = state.shutting_down();
        let runnable: Vec<u64> = {
            let mut sessions = state.sessions.lock().expect("session table poisoned");
            for slot in sessions.values_mut() {
                apply_controls_with_shutdown(slot, shutting_down);
            }
            sessions
                .iter()
                .filter(|(_, s)| s.phase == Phase::Running && s.session.is_some())
                .map(|(&id, _)| id)
                .collect()
        };
        let mut stepped = false;
        for id in runnable {
            let taken = {
                let mut sessions = state.sessions.lock().expect("session table poisoned");
                sessions.get_mut(&id).and_then(|slot| {
                    if slot.phase == Phase::Running {
                        slot.session.take()
                    } else {
                        None
                    }
                })
            };
            let Some(mut session) = taken else { continue };
            let step_start = Instant::now();
            let outcome_state = session.step();
            let step_ns = step_start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            state.telemetry.step_seconds.record_ns(step_ns);
            stepped = true;
            let mut sessions = state.sessions.lock().expect("session table poisoned");
            let slot = sessions.get_mut(&id).expect("slots are never removed");
            slot.progress = session.progress().clone();
            slot.trace
                .extend_from_slice(&session.convergence()[slot.trace.len()..]);
            state.telemetry.flight.record(
                "session_step",
                vec![
                    ("session", FieldValue::U64(id)),
                    ("rounds", FieldValue::U64(slot.progress.rounds)),
                    ("duration_us", FieldValue::U64(step_ns / 1_000)),
                ],
            );
            if outcome_state == SessionState::Finished {
                finalize_slot(slot, session, state.telemetry);
            } else {
                slot.session = Some(session);
            }
            // Checkpoint cadence: every Nth completed round, and always
            // at the terminal phase. The checkpoint is assembled under
            // the lock (cheap clones) but written to disk after it is
            // released, so polls are never blocked behind an fsync.
            let due = state.persist.is_some()
                && (outcome_state == SessionState::Finished
                    || (slot.progress.rounds > 0
                        && slot.progress.rounds.is_multiple_of(state.checkpoint_every)));
            let checkpoint = due.then(|| checkpoint_of(state, slot));
            drop(sessions);
            if let Some(checkpoint) = checkpoint {
                write_checkpoint(state, &checkpoint);
            }
        }
        if state.drained() {
            break;
        }
        if !stepped {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

// ---------------------------------------------------------------------------
// Durable state: checkpoints and startup recovery
// ---------------------------------------------------------------------------

/// Assembles the durable record of one session slot — identity and
/// provenance (enough to rebuild the strategy and replay it), the
/// progress/trace the replay is verified against, and the terminal
/// result if the session already finished.
fn checkpoint_of(state: &ServeState<'_>, slot: &Slot<'_>) -> SessionCheckpoint {
    SessionCheckpoint {
        v: STATE_VERSION,
        id: slot.id,
        tenant: state.tenants.tenant(slot.tenant).name.clone(),
        scenario: slot.scenario.clone(),
        method: slot.method.clone(),
        class: slot.class.clone(),
        slo_ms: slot.slo_ms,
        phase: slot.phase.label().to_owned(),
        rounds: slot.progress.rounds,
        progress: slot.progress.clone(),
        trace: slot.trace.clone(),
        report_json: slot.report_json.clone(),
        summary: slot.summary.as_ref().map(|s| CheckpointSummary {
            final_cost: s.final_cost,
            final_makespan_ms: s.final_makespan_ms,
            meets_slo: s.meets_slo,
            samples: s.samples as u64,
        }),
        error: slot.error.clone(),
    }
}

/// Writes one checkpoint through the state dir, counting the outcome; a
/// failed write degrades durability, never the session itself.
fn write_checkpoint(state: &ServeState<'_>, checkpoint: &SessionCheckpoint) {
    let Some(persist) = &state.persist else {
        return;
    };
    match persist.write_checkpoint(checkpoint) {
        // A stale checkpoint (superseded by a newer or terminal one) is
        // skipped, not counted.
        Ok(false) => {}
        Ok(true) => state
            .telemetry
            .recorder
            .counter(
                "aarc_checkpoint_writes_total",
                "Session checkpoints written to the state dir.",
            )
            .inc(),
        Err(e) => {
            state
                .telemetry
                .recorder
                .counter(
                    "aarc_checkpoint_write_failures_total",
                    "Session checkpoint writes that failed (durability degraded).",
                )
                .inc();
            state.telemetry.logger.log(
                LogLevel::Warn,
                "checkpoint_write_failed",
                &[
                    ("session", FieldValue::U64(checkpoint.id)),
                    ("error", FieldValue::Str(e.to_string())),
                ],
            );
        }
    }
}

/// Startup recovery: replays the registry WAL into live scenario
/// registrations, compacts it, then rebuilds every checkpointed session —
/// live ones by deterministic replay (re-stepping a fresh strategy the
/// checkpointed number of rounds and verifying the progress/trace match),
/// terminal ones by restoring their recorded result. Anything unusable is
/// quarantined and reported; recovery degrades, it never crashes the
/// daemon. Runs on the scheduler thread before the first step, while
/// tenant routes answer 503 `recovering`.
fn run_recovery(state: &ServeState<'_>) {
    let Some(persist) = &state.persist else {
        state.recovering.store(false, Ordering::SeqCst);
        return;
    };
    let started = Instant::now();
    state.telemetry.flight.record(
        "recovery_started",
        vec![(
            "state_dir",
            FieldValue::Str(persist.root().display().to_string()),
        )],
    );
    let mut report = RecoveryReport::default();

    let load = persist.load_registry();
    report.wal_records_applied = load.records_applied;
    report.wal_lines_dropped = load.lines_dropped;
    report.quarantined.extend(load.quarantined);
    let mut surviving: Vec<PersistedScenario> = Vec::with_capacity(load.scenarios.len());
    for scenario in load.scenarios {
        match recover_scenario(state, &scenario) {
            Ok(()) => {
                report.scenarios_recovered += 1;
                surviving.push(scenario);
            }
            Err(reason) => {
                // Registry entries live inside the WAL/snapshot, not in
                // their own file, so there is nothing to move — the entry
                // is reported and dropped from the compacted snapshot.
                report.quarantined.push(QuarantinedFile {
                    file: format!("registry:{}/{}", scenario.tenant, scenario.scenario),
                    reason,
                });
            }
        }
    }
    if let Err(e) = persist.compact(&surviving) {
        state.telemetry.logger.log(
            LogLevel::Warn,
            "recovery_compaction_failed",
            &[("error", FieldValue::Str(e.to_string()))],
        );
    }

    for (path, parsed) in persist.load_checkpoints() {
        report.checkpoints_seen += 1;
        let quarantined = match parsed {
            Err(reason) => Some(persist.quarantine(&path, reason)),
            Ok(checkpoint) => match recover_session(state, &checkpoint) {
                Ok(live) => {
                    if live {
                        report.sessions_resumed += 1;
                    } else {
                        report.sessions_restored += 1;
                    }
                    None
                }
                Err(reason) => Some(persist.quarantine(&path, reason)),
            },
        };
        if let Some(entry) = quarantined {
            state.telemetry.flight.record(
                "recovery_quarantined",
                vec![
                    ("file", FieldValue::Str(entry.file.clone())),
                    ("reason", FieldValue::Str(entry.reason.clone())),
                ],
            );
            state.telemetry.logger.log(
                LogLevel::Warn,
                "recovery_quarantined",
                &[
                    ("file", FieldValue::Str(entry.file.clone())),
                    ("reason", FieldValue::Str(entry.reason.clone())),
                ],
            );
            report.quarantined.push(entry);
        }
    }

    // Session ids must keep growing past every recovered id, so resumed
    // and new sessions never collide.
    let max_recovered = {
        let sessions = state.sessions.lock().expect("session table poisoned");
        sessions.keys().next_back().copied().unwrap_or(0)
    };
    let next = state.next_session_id.load(Ordering::SeqCst);
    state
        .next_session_id
        .store(next.max(max_recovered + 1), Ordering::SeqCst);

    let duration_ms = started.elapsed().as_millis().min(u64::MAX as u128) as u64;
    let fields = vec![
        (
            "wal_records_applied",
            FieldValue::U64(report.wal_records_applied),
        ),
        (
            "wal_lines_dropped",
            FieldValue::U64(report.wal_lines_dropped),
        ),
        (
            "scenarios_recovered",
            FieldValue::U64(report.scenarios_recovered),
        ),
        ("sessions_resumed", FieldValue::U64(report.sessions_resumed)),
        (
            "sessions_restored",
            FieldValue::U64(report.sessions_restored),
        ),
        (
            "quarantined",
            FieldValue::U64(report.quarantined.len() as u64),
        ),
        ("duration_ms", FieldValue::U64(duration_ms)),
    ];
    state
        .telemetry
        .flight
        .record("recovery_finished", fields.clone());
    let level = if report.quarantined.is_empty() {
        LogLevel::Info
    } else {
        LogLevel::Warn
    };
    state
        .telemetry
        .logger
        .log(level, "recovery_finished", &fields);
    *state.recovery.lock().expect("recovery report poisoned") = Some(report);
    state.recovering.store(false, Ordering::SeqCst);
}

/// Re-registers one persisted scenario: canonical YAML → spec →
/// validation → compiled workload, inserted under the tenant resolved by
/// name. Mirrors `upload_scenario` without the HTTP layer.
fn recover_scenario(state: &ServeState<'_>, scenario: &PersistedScenario) -> Result<(), String> {
    let tenant_id = state.tenant_by_name(&scenario.tenant).ok_or_else(|| {
        format!(
            "tenant `{}` is not in the current registry",
            scenario.tenant
        )
    })?;
    let (spec, workload) = parse_and_compile(scenario.spec_yaml.as_bytes())
        .map_err(|(_, message)| format!("persisted spec rejected: {message}"))?;
    if workload.name() != scenario.scenario {
        return Err(format!(
            "persisted spec is named `{}`, expected `{}`",
            workload.name(),
            scenario.scenario
        ));
    }
    let mut scenarios = state.scenarios.lock().expect("scenario registry poisoned");
    scenarios.insert(
        (tenant_id, scenario.scenario.clone()),
        ScenarioEntry {
            functions: spec.functions.len(),
            edges: spec.edges.len(),
            slo_ms: workload.slo_ms(),
            workload,
            handles: BTreeMap::new(),
        },
    );
    Ok(())
}

/// Rebuilds one checkpointed session. Terminal sessions are restored
/// verbatim (their recorded report/summary/error is the result). Live
/// sessions are resumed by replay: a fresh strategy is stepped the
/// checkpointed number of rounds and must reproduce the checkpointed
/// progress and convergence trace exactly — the determinism contract the
/// byte-golden suite pins — or the checkpoint is rejected. Returns
/// whether the session came back live.
fn recover_session(state: &ServeState<'_>, checkpoint: &SessionCheckpoint) -> Result<bool, String> {
    let tenant_id = state.tenant_by_name(&checkpoint.tenant).ok_or_else(|| {
        format!(
            "tenant `{}` is not in the current registry",
            checkpoint.tenant
        )
    })?;
    let phase = match checkpoint.phase.as_str() {
        "running" => Phase::Running,
        "paused" => Phase::Paused,
        "finished" => Phase::Finished,
        "failed" => Phase::Failed,
        "cancelled" => Phase::Cancelled,
        other => return Err(format!("unknown phase `{other}`")),
    };
    {
        let sessions = state.sessions.lock().expect("session table poisoned");
        if sessions.contains_key(&checkpoint.id) {
            return Err(format!("duplicate session id {}", checkpoint.id));
        }
    }
    let session = if phase.is_live() {
        Some(replay_session(state, tenant_id, checkpoint)?)
    } else {
        None
    };
    let live = phase.is_live();
    let slot = Slot {
        id: checkpoint.id,
        tenant: tenant_id,
        scenario: checkpoint.scenario.clone(),
        method: checkpoint.method.clone(),
        class: checkpoint.class.clone(),
        slo_ms: checkpoint.slo_ms,
        session,
        phase,
        want_pause: phase == Phase::Paused,
        want_cancel: false,
        progress: checkpoint.progress.clone(),
        trace: checkpoint.trace.clone(),
        report_json: checkpoint.report_json.clone(),
        summary: checkpoint.summary.as_ref().map(|s| FinalSummary {
            final_cost: s.final_cost,
            final_makespan_ms: s.final_makespan_ms,
            meets_slo: s.meets_slo,
            samples: s.samples as usize,
        }),
        error: checkpoint.error.clone(),
    };
    let mut sessions = state.sessions.lock().expect("session table poisoned");
    sessions.insert(checkpoint.id, slot);
    drop(sessions);
    state.telemetry.flight.record(
        "recovery_session",
        vec![
            ("session", FieldValue::U64(checkpoint.id)),
            ("scenario", FieldValue::Str(checkpoint.scenario.clone())),
            ("phase", FieldValue::Str(checkpoint.phase.clone())),
            ("rounds", FieldValue::U64(checkpoint.rounds)),
            ("resumed", FieldValue::U64(u64::from(live))),
        ],
    );
    Ok(live)
}

/// The replay itself: rebuild the strategy exactly like `start_session`
/// would, step it `rounds` times, and verify the replayed state matches
/// the checkpoint bit-for-bit.
fn replay_session<'s>(
    state: &ServeState<'s>,
    tenant_id: TenantId,
    checkpoint: &SessionCheckpoint,
) -> Result<SearchSession<'s>, String> {
    let class =
        SweepClass::parse(&checkpoint.class).map_err(|e| format!("unknown input class: {e}"))?;
    let method = methods::build(&checkpoint.method).map_err(|e| format!("unknown method: {e}"))?;
    let mut scenarios = state.scenarios.lock().expect("scenario registry poisoned");
    let entry = scenarios
        .get_mut(&(tenant_id, checkpoint.scenario.clone()))
        .ok_or_else(|| format!("scenario `{}` was not recovered", checkpoint.scenario))?;
    let handle = match entry.handles.get(&class.label()) {
        Some(handle) => handle.clone(),
        None => {
            let handle = state.service.register(class.env(entry.workload.env()));
            entry.handles.insert(class.label(), handle.clone());
            handle
        }
    };
    drop(scenarios);
    let strategy = method
        .strategy(handle.env(), checkpoint.slo_ms)
        .map_err(|e| format!("cannot rebuild strategy: {e}"))?;
    let mut session = SearchSession::with_slo(strategy, handle, checkpoint.slo_ms);
    for round in 0..checkpoint.rounds {
        if session.step() == SessionState::Finished {
            return Err(format!(
                "replay finished after {} of {} checkpointed rounds",
                round + 1,
                checkpoint.rounds
            ));
        }
    }
    if *session.progress() != checkpoint.progress {
        return Err("replay diverged from the checkpointed progress".to_owned());
    }
    if session.convergence() != checkpoint.trace.as_slice() {
        return Err("replay diverged from the checkpointed convergence trace".to_owned());
    }
    if checkpoint.phase == "paused" {
        session.pause();
    }
    Ok(session)
}

/// [`apply_controls`] preceded by the shutdown sweep: once the daemon is
/// draining, a paused (or about-to-pause) session would park forever and
/// stall the drain, so any pending or applied pause is converted into a
/// cancellation. Run by the scheduler every round, which also closes the
/// race where a pause request lands after `/shutdown` swept the table or
/// while the session was out being stepped.
fn apply_controls_with_shutdown(slot: &mut Slot<'_>, shutting_down: bool) {
    if shutting_down && slot.phase.is_live() && (slot.want_pause || slot.phase == Phase::Paused) {
        slot.want_pause = false;
        slot.want_cancel = true;
    }
    apply_controls(slot);
}

/// Applies pending pause/resume/cancel requests to an idle slot.
fn apply_controls(slot: &mut Slot<'_>) {
    if !slot.phase.is_live() {
        return;
    }
    let Some(session) = slot.session.as_mut() else {
        return; // being stepped right now; re-applied next round
    };
    if slot.want_cancel {
        session.cancel();
        // Un-pause so the next step observes the cancellation and the
        // slot reaches its terminal phase.
        session.resume();
        slot.phase = Phase::Running;
    } else if slot.want_pause && slot.phase == Phase::Running {
        session.pause();
        slot.phase = Phase::Paused;
    } else if !slot.want_pause && slot.phase == Phase::Paused {
        session.resume();
        slot.phase = Phase::Running;
    }
}

/// Moves a finished session's outcome into its slot: the final report is
/// rendered once, as the exact bytes `aarc run --format json` would emit
/// for the same spec/method/SLO.
fn finalize_slot(slot: &mut Slot<'_>, session: SearchSession<'_>, telemetry: &ServeTelemetry) {
    let handle = session.handle().clone();
    slot.trace
        .extend_from_slice(&session.convergence()[slot.trace.len()..]);
    let outcome = session
        .into_outcome()
        .expect("finalize is only called on finished sessions");
    match outcome {
        Ok(outcome) => {
            let report = ConfigurationReport::new(
                handle.env(),
                &outcome.best_configs,
                &outcome.final_report,
                Some(slot.slo_ms),
            );
            let mut json =
                serde_json::to_string_pretty(&report).expect("report serialization is infallible");
            json.push('\n');
            slot.summary = Some(FinalSummary {
                final_cost: outcome.best_cost(),
                final_makespan_ms: outcome.best_runtime_ms(),
                meets_slo: outcome.final_report.meets_slo(slot.slo_ms),
                samples: outcome.trace.sample_count(),
            });
            slot.report_json = Some(json);
            slot.phase = Phase::Finished;
        }
        Err(AarcError::SearchCancelled) => {
            slot.error = Some(AarcError::SearchCancelled.to_string());
            slot.phase = Phase::Cancelled;
        }
        Err(e) => {
            slot.error = Some(e.to_string());
            slot.phase = Phase::Failed;
        }
    }
    let mut fields = vec![
        ("session", FieldValue::U64(slot.id)),
        ("scenario", FieldValue::Str(slot.scenario.clone())),
        ("state", FieldValue::Str(slot.phase.label().to_owned())),
        ("rounds", FieldValue::U64(slot.progress.rounds)),
        ("evals", FieldValue::U64(slot.progress.evals)),
    ];
    if let Some(summary) = &slot.summary {
        fields.push(("final_cost", FieldValue::F64(summary.final_cost)));
        fields.push((
            "final_makespan_ms",
            FieldValue::F64(summary.final_makespan_ms),
        ));
    }
    if let Some(error) = &slot.error {
        fields.push(("error", FieldValue::Str(error.clone())));
    }
    telemetry.flight.record("session_finished", fields.clone());
    let level = if slot.phase == Phase::Failed {
        LogLevel::Warn
    } else {
        LogLevel::Info
    };
    telemetry.logger.log(level, "session_finished", &fields);
}

/// Serves one connection: read a request, route it, write the response.
/// Each request is timed into `aarc_http_request_seconds`, appended to the
/// flight recorder and logged as one structured line.
fn handle_connection(state: &ServeState<'_>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let started = Instant::now();
    let (response, method, path) = match read_request(&mut stream) {
        Ok(None) => return,
        Err(e) => (
            problem(Kind::BadRequest, e.to_string(), "-"),
            "-".to_owned(),
            "-".to_owned(),
        ),
        Ok(Some(request)) => {
            let method = request.method.clone();
            let path = request.path.clone();
            (route(state, &request), method, path)
        }
    };
    let status = response.status;
    let _ = response.write_to(&mut stream);
    let duration_ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    let telemetry = state.telemetry;
    telemetry.http_seconds.record_ns(duration_ns);
    let fields = vec![
        ("method", FieldValue::Str(method)),
        ("path", FieldValue::Str(path)),
        ("status", FieldValue::U64(u64::from(status))),
        ("duration_us", FieldValue::U64(duration_ns / 1_000)),
    ];
    telemetry.flight.record("http_request", fields.clone());
    let level = if status >= 500 {
        LogLevel::Warn
    } else {
        LogLevel::Info
    };
    telemetry.logger.log(level, "http_request", &fields);
}

// ---------------------------------------------------------------------------
// Routing and endpoint handlers
// ---------------------------------------------------------------------------

/// Dispatches one request: `/api/v1/...` is the canonical surface; every
/// bare legacy path remains an alias answering with `Deprecation: true`.
fn route(state: &ServeState<'_>, request: &Request) -> Response {
    match request.path.strip_prefix("/api/v1") {
        Some(rest) if rest.is_empty() || rest.starts_with('/') => {
            route_core(state, request, rest, true)
        }
        _ => route_core(state, request, &request.path, false)
            .with_header("Deprecation", "true".to_owned()),
    }
}

/// Routes one request whose path has already had the version prefix
/// stripped. `v1` marks the canonical surface (it alone serves the
/// discovery document at its root).
fn route_core(state: &ServeState<'_>, request: &Request, path: &str, v1: bool) -> Response {
    let instance = request.path.as_str();
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", []) if v1 => discovery(),
        ("GET", ["healthz"]) => Response::json(200, "{\"status\": \"ok\"}\n".to_owned()),
        ("GET", ["metrics"]) => Response::text(200, render_metrics(state)),
        ("GET", ["version"]) => json_response(200, &VersionInfo::current()),
        ("GET", ["debug", "events"]) => debug_events(state, request, instance),
        ("GET", ["recovery"]) => recovery_status(state),
        ("POST", ["shutdown"]) => request_shutdown(state),
        (_, ["scenarios" | "sessions", ..]) => route_tenant(state, request, &segments, instance),
        (_, ["healthz" | "metrics" | "version" | "shutdown" | "recovery"] | ["debug", ..]) => {
            problem(
                Kind::MethodNotAllowed,
                format!("method {} not allowed here", request.method),
                instance,
            )
        }
        _ => problem(
            Kind::NotFound,
            format!("no such endpoint `{instance}`"),
            instance,
        ),
    }
}

/// The tenant-scoped surface (scenarios and sessions): resolves the
/// `X-Api-Key` header to a tenant, meters the request through the
/// tenant's token bucket, then dispatches. Operator endpoints (healthz,
/// metrics, version, debug, shutdown, discovery) bypass this entirely.
fn route_tenant(
    state: &ServeState<'_>,
    request: &Request,
    segments: &[&str],
    instance: &str,
) -> Response {
    let tenant_id = match state.tenants.resolve(request.header("x-api-key")) {
        Ok(id) => id,
        Err(e) => return problem(Kind::Unauthorized, e.detail(), instance),
    };
    let tenant = state.tenants.tenant(tenant_id);
    state.count_tenant_request(&tenant.name);
    if let Err(retry_after) = tenant.admit_request(Instant::now()) {
        state.count_rejection(&tenant.name, "rate");
        return Problem::new(
            Kind::RateLimited,
            format!(
                "tenant `{}` exceeded its rate limit of {} requests/sec",
                tenant.name, tenant.quotas.requests_per_sec
            ),
        )
        .retry_after(retry_after)
        .response(instance);
    }
    // Tenant state (registries, session table) is still being rebuilt
    // during startup recovery; serving it would show a half-recovered
    // world. Operator endpoints never reach this gate.
    if state.recovering() {
        state.count_rejection(&tenant.name, "recovering");
        return Problem::new(
            Kind::Recovering,
            "daemon is replaying durable state after a restart; retry shortly",
        )
        .retry_after(1)
        .response(instance);
    }
    match (request.method.as_str(), segments) {
        ("GET", ["scenarios"]) => list_scenarios(state, tenant_id, request, instance),
        ("POST", ["scenarios"]) => upload_scenario(state, tenant_id, &request.body, instance),
        ("POST", ["scenarios", "validate"]) => validate_scenario(&request.body, instance),
        ("DELETE", ["scenarios", name]) => delete_scenario(state, tenant_id, name, instance),
        ("GET", ["sessions"]) => list_sessions(state, tenant_id, request, instance),
        ("POST", ["sessions"]) => start_session(state, tenant_id, &request.body, instance),
        ("GET", ["sessions", id]) => with_session_id(id, instance, |id| {
            session_status(state, tenant_id, id, instance)
        }),
        ("GET", ["sessions", id, "report"]) => with_session_id(id, instance, |id| {
            session_report(state, tenant_id, id, instance)
        }),
        ("GET", ["sessions", id, "trace"]) => with_session_id(id, instance, |id| {
            session_trace(state, tenant_id, id, instance)
        }),
        ("POST", ["sessions", id, action @ ("pause" | "resume" | "cancel")]) => {
            with_session_id(id, instance, |id| {
                control_session(state, tenant_id, id, action, instance)
            })
        }
        _ => problem(
            Kind::MethodNotAllowed,
            format!("method {} not allowed here", request.method),
            instance,
        ),
    }
}

/// `GET /api/v1`: the discovery document — supported versions and the
/// route table, so clients can probe capabilities instead of hardcoding.
fn discovery() -> Response {
    let routes: [(&str, &str, &str); 19] = [
        ("GET", "/api/v1", "This discovery document."),
        ("GET", "/api/v1/healthz", "Liveness probe."),
        ("GET", "/api/v1/metrics", "Prometheus text exposition."),
        ("GET", "/api/v1/version", "Build provenance."),
        (
            "GET",
            "/api/v1/recovery",
            "Startup recovery status and damage report.",
        ),
        (
            "GET",
            "/api/v1/debug/events?limit=N",
            "Flight-recorder tail (most recent events).",
        ),
        (
            "GET",
            "/api/v1/scenarios?limit=&offset=&name=",
            "List the tenant's scenarios (paginated envelope).",
        ),
        (
            "POST",
            "/api/v1/scenarios",
            "Upload a scenario spec (YAML or JSON body).",
        ),
        (
            "POST",
            "/api/v1/scenarios/validate",
            "Validate a spec without admitting it.",
        ),
        (
            "DELETE",
            "/api/v1/scenarios/{name}",
            "Delete a scenario with no live sessions.",
        ),
        (
            "GET",
            "/api/v1/sessions?limit=&offset=&status=&scenario=",
            "List the tenant's sessions (paginated envelope).",
        ),
        ("POST", "/api/v1/sessions", "Start a search session."),
        ("GET", "/api/v1/sessions/{id}", "Session status."),
        (
            "GET",
            "/api/v1/sessions/{id}/report",
            "Final report, byte-identical to the offline run.",
        ),
        (
            "GET",
            "/api/v1/sessions/{id}/trace",
            "Per-round convergence trace.",
        ),
        (
            "POST",
            "/api/v1/sessions/{id}/pause",
            "Pause between steps.",
        ),
        (
            "POST",
            "/api/v1/sessions/{id}/resume",
            "Resume a paused session.",
        ),
        (
            "POST",
            "/api/v1/sessions/{id}/cancel",
            "Cancel the session.",
        ),
        (
            "POST",
            "/api/v1/shutdown",
            "Stop admission, drain sessions, exit.",
        ),
    ];
    let doc = Value::Map(vec![
        ("api".to_owned(), Value::Str("aarc".to_owned())),
        (
            "versions".to_owned(),
            Value::Seq(vec![Value::Str("v1".to_owned())]),
        ),
        (
            "deprecated_aliases".to_owned(),
            Value::Str(
                "every route is also mounted at its bare legacy path and answers \
                 with a `Deprecation: true` header there"
                    .to_owned(),
            ),
        ),
        (
            "routes".to_owned(),
            Value::Seq(
                routes
                    .iter()
                    .map(|(method, path, summary)| {
                        Value::Map(vec![
                            ("method".to_owned(), Value::Str((*method).to_owned())),
                            ("path".to_owned(), Value::Str((*path).to_owned())),
                            ("summary".to_owned(), Value::Str((*summary).to_owned())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    json_response(200, &doc)
}

fn with_session_id(raw: &str, instance: &str, f: impl FnOnce(u64) -> Response) -> Response {
    match raw.parse::<u64>() {
        Ok(id) => f(id),
        Err(_) => problem(
            Kind::BadRequest,
            format!("session id `{raw}` is not a number"),
            instance,
        ),
    }
}

// ---------------------------------------------------------------------------
// Pagination
// ---------------------------------------------------------------------------

/// A parsed, bounded `limit`/`offset` pair.
struct Page {
    limit: usize,
    offset: usize,
}

/// Parses `limit`/`offset` query parameters. `limit` defaults to
/// [`DEFAULT_PAGE_LIMIT`] and is clamped into `[1, MAX_PAGE_LIMIT]`;
/// `offset` defaults to 0. Non-numeric values are a 400 problem.
fn parse_page(request: &Request, instance: &str) -> Result<Page, Response> {
    let limit = match request.query_param("limit") {
        None => DEFAULT_PAGE_LIMIT,
        Some(raw) => match raw.parse::<usize>() {
            Ok(value) => value.clamp(1, MAX_PAGE_LIMIT),
            Err(_) => {
                return Err(problem(
                    Kind::BadRequest,
                    format!("limit `{raw}` is not a non-negative integer"),
                    instance,
                ))
            }
        },
    };
    let offset = match request.query_param("offset") {
        None => 0,
        Some(raw) => match raw.parse::<usize>() {
            Ok(value) => value,
            Err(_) => {
                return Err(problem(
                    Kind::BadRequest,
                    format!("offset `{raw}` is not a non-negative integer"),
                    instance,
                ))
            }
        },
    };
    Ok(Page { limit, offset })
}

/// Renders the `{items, total, next_offset}` pagination envelope over the
/// filtered row set. `next_offset` is `null` on the last page (including
/// an offset past the end). Ordering is the caller's: scenario listings
/// come name-sorted, session listings id-sorted, both deterministic.
fn page_envelope<T: Serialize>(rows: &[T], page: &Page) -> Response {
    let total = rows.len();
    let items: Vec<Value> = rows
        .iter()
        .skip(page.offset)
        .take(page.limit)
        .map(serde_json::to_value)
        .collect();
    let next_offset = if page.offset + items.len() < total {
        Value::UInt((page.offset + items.len()) as u64)
    } else {
        Value::Null
    };
    let doc = Value::Map(vec![
        ("items".to_owned(), Value::Seq(items)),
        ("total".to_owned(), Value::UInt(total as u64)),
        ("next_offset".to_owned(), next_offset),
    ]);
    json_response(200, &doc)
}

// ---------------------------------------------------------------------------
// Scenario endpoints
// ---------------------------------------------------------------------------

/// Row of the `GET /scenarios` listing.
#[derive(Debug, Serialize)]
struct ScenarioSummary {
    name: String,
    functions: usize,
    edges: usize,
    slo_ms: f64,
}

/// `GET /scenarios?limit=&offset=&name=`: the tenant's scenarios in name
/// order, optionally filtered by a `name` substring, paginated.
fn list_scenarios(
    state: &ServeState<'_>,
    tenant_id: TenantId,
    request: &Request,
    instance: &str,
) -> Response {
    let page = match parse_page(request, instance) {
        Ok(page) => page,
        Err(response) => return response,
    };
    let filter = request.query_param("name");
    let scenarios = state.scenarios.lock().expect("scenario registry poisoned");
    let rows: Vec<ScenarioSummary> = scenarios
        .iter()
        .filter(|((tenant, _), _)| *tenant == tenant_id)
        .filter(|((_, name), _)| filter.is_none_or(|f| name.contains(f)))
        .map(|((_, name), e)| ScenarioSummary {
            name: name.clone(),
            functions: e.functions,
            edges: e.edges,
            slo_ms: e.slo_ms,
        })
        .collect();
    page_envelope(&rows, &page)
}

#[derive(Debug, Serialize)]
struct UploadReply {
    name: String,
    functions: usize,
    edges: usize,
    slo_ms: f64,
}

/// `POST /scenarios`: parse the body in memory (YAML or JSON, sniffed),
/// validate, compile, and admit the scenario into the tenant's namespace,
/// subject to the tenant's scenario quota.
fn upload_scenario(
    state: &ServeState<'_>,
    tenant_id: TenantId,
    body: &[u8],
    instance: &str,
) -> Response {
    let tenant = state.tenants.tenant(tenant_id);
    if state.shutting_down() {
        state.count_rejection(&tenant.name, "shutdown");
        return Problem::new(Kind::ShuttingDown, "daemon is shutting down")
            .retry_after(1)
            .response(instance);
    }
    let (spec, workload) = match parse_and_compile(body) {
        Ok(pair) => pair,
        Err((kind, message)) => return problem(kind, message, instance),
    };
    let name = workload.name().to_owned();
    // Names become URL path segments, JSON string values and Prometheus
    // label values; restrict them to a safe alphabet up front so every
    // later rendering is trivially well-formed.
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
    {
        return problem(
            Kind::ValidationFailed,
            format!(
                "scenario name `{name}` must be non-empty and use only [A-Za-z0-9._-] \
                 (it becomes a URL path segment and a metrics label)"
            ),
            instance,
        );
    }
    let mut scenarios = state.scenarios.lock().expect("scenario registry poisoned");
    // The duplicate check comes before the quota check: re-uploading an
    // existing name is a 409 conflict even for a tenant at quota (it
    // would not increase the count).
    if scenarios.contains_key(&(tenant_id, name.clone())) {
        return problem(
            Kind::Conflict,
            format!("scenario `{name}` already exists (delete it first)"),
            instance,
        );
    }
    let owned = scenarios
        .keys()
        .filter(|(tenant, _)| *tenant == tenant_id)
        .count() as u64;
    if owned >= tenant.quotas.max_scenarios {
        state.count_rejection(&tenant.name, "quota");
        return problem(
            Kind::QuotaExceeded,
            format!(
                "tenant `{}` is at its scenario quota ({owned}/{}); delete one first",
                tenant.name, tenant.quotas.max_scenarios
            ),
            instance,
        );
    }
    // Write-ahead: the upload is durable before the 201 leaves the
    // daemon. A failed append fails the request — never acknowledge
    // state that would not survive a crash.
    if let Some(persist) = &state.persist {
        let record = WalRecord {
            v: STATE_VERSION,
            op: "upload".to_owned(),
            tenant: tenant.name.clone(),
            scenario: name.clone(),
            // The canonical YAML re-export (not the raw body): recovery
            // re-compiles exactly what this daemon admitted.
            spec_yaml: Some(aarc_spec::to_string(&spec, aarc_spec::SpecFormat::Yaml)),
        };
        if let Err(e) = persist.append_wal(&record) {
            state.count_rejection(&tenant.name, "storage");
            return problem(
                Kind::StorageFailed,
                format!("write-ahead log append failed: {e}"),
                instance,
            );
        }
    }
    let reply = UploadReply {
        name: name.clone(),
        functions: spec.functions.len(),
        edges: spec.edges.len(),
        slo_ms: workload.slo_ms(),
    };
    scenarios.insert(
        (tenant_id, name),
        ScenarioEntry {
            functions: spec.functions.len(),
            edges: spec.edges.len(),
            slo_ms: workload.slo_ms(),
            workload,
            handles: BTreeMap::new(),
        },
    );
    let fields = vec![
        ("scenario", FieldValue::Str(reply.name.clone())),
        ("tenant", FieldValue::Str(tenant.name.clone())),
        ("functions", FieldValue::U64(reply.functions as u64)),
        ("edges", FieldValue::U64(reply.edges as u64)),
        ("slo_ms", FieldValue::F64(reply.slo_ms)),
    ];
    state
        .telemetry
        .flight
        .record("scenario_registered", fields.clone());
    state.telemetry.logger.info("scenario_registered", &fields);
    json_response(201, &reply)
}

#[derive(Debug, Serialize)]
struct ValidateReply {
    valid: bool,
    name: String,
    functions: usize,
    edges: usize,
    slo_ms: f64,
}

/// `POST /scenarios/validate`: parse + validate + compile without
/// admitting anything.
fn validate_scenario(body: &[u8], instance: &str) -> Response {
    match parse_and_compile(body) {
        Ok((spec, workload)) => json_response(
            200,
            &ValidateReply {
                valid: true,
                name: workload.name().to_owned(),
                functions: spec.functions.len(),
                edges: spec.edges.len(),
                slo_ms: workload.slo_ms(),
            },
        ),
        Err((kind, message)) => problem(kind, message, instance),
    }
}

/// The shared upload/validate pipeline: bytes → spec → semantic
/// validation → compiled workload. All in memory. An unparseable body is
/// a 400 ([`Kind::BadRequest`]); a body that parsed but failed semantic
/// validation or compilation is a 422 ([`Kind::ValidationFailed`]).
fn parse_and_compile(body: &[u8]) -> Result<(ScenarioSpec, Workload), (Kind, String)> {
    let spec = ScenarioSpec::from_slice(body).map_err(|e| (Kind::BadRequest, e.to_string()))?;
    validate(&spec).map_err(|e| (Kind::ValidationFailed, e.to_string()))?;
    let workload = aarc_spec::compile(&spec)
        .map_err(|e| (Kind::ValidationFailed, e.to_string()))?
        .into_workload();
    Ok((spec, workload))
}

/// `DELETE /scenarios/{name}`: refuse while the tenant has live sessions
/// on the scenario; otherwise drop it from the tenant's namespace. A
/// fingerprint is only unregistered from the service (purging its cache
/// entries) when no other entry — of any tenant — still references it:
/// the memo-cache is shared substrate below the namespaces. The totals of
/// a fingerprint the tenant no longer references move to its retired
/// tally, so its `aarc_tenant_eval_*_total` counters never decrease.
fn delete_scenario(
    state: &ServeState<'_>,
    tenant_id: TenantId,
    name: &str,
    instance: &str,
) -> Response {
    let mut scenarios = state.scenarios.lock().expect("scenario registry poisoned");
    let key = (tenant_id, name.to_owned());
    if !scenarios.contains_key(&key) {
        return problem(
            Kind::NotFound,
            format!("no scenario named `{name}`"),
            instance,
        );
    }
    {
        let sessions = state.sessions.lock().expect("session table poisoned");
        let live = sessions
            .values()
            .filter(|s| s.tenant == tenant_id && s.scenario == name && s.phase.is_live())
            .count();
        if live > 0 {
            return problem(
                Kind::Conflict,
                format!("scenario `{name}` has {live} live session(s); cancel them first"),
                instance,
            );
        }
    }
    // Write-ahead: the delete is durable before the 200, mirroring
    // upload — a recovered daemon must never resurrect a deleted
    // scenario.
    if let Some(persist) = &state.persist {
        let record = WalRecord {
            v: STATE_VERSION,
            op: "delete".to_owned(),
            tenant: state.tenants.tenant(tenant_id).name.clone(),
            scenario: name.to_owned(),
            spec_yaml: None,
        };
        if let Err(e) = persist.append_wal(&record) {
            state.count_rejection(&state.tenants.tenant(tenant_id).name, "storage");
            return problem(
                Kind::StorageFailed,
                format!("write-ahead log append failed: {e}"),
                instance,
            );
        }
    }
    let entry = scenarios.remove(&key).expect("checked above");
    // Two input classes can share one environment, hence one fingerprint:
    // each fingerprint is retired once.
    let released: BTreeMap<u64, &ScenarioHandle<'_>> = entry
        .handles
        .values()
        .map(|h| (h.fingerprint(), h))
        .collect();
    for (&fingerprint, handle) in &released {
        let holders: Vec<TenantId> = scenarios
            .iter()
            .filter(|(_, e)| e.handles.values().any(|h| h.fingerprint() == fingerprint))
            .map(|((tenant, _), _)| *tenant)
            .collect();
        if !holders.contains(&tenant_id) {
            let stats = handle.scenario_stats();
            let mut retired = state.retired_eval.lock().expect("retired eval poisoned");
            retired[tenant_id].0 += stats.requests;
            retired[tenant_id].1 += stats.cache_hits;
        }
        if holders.is_empty() {
            state.service.unregister(fingerprint);
        }
    }
    let fields = vec![
        ("scenario", FieldValue::Str(name.to_owned())),
        (
            "tenant",
            FieldValue::Str(state.tenants.tenant(tenant_id).name.clone()),
        ),
        ("classes", FieldValue::U64(entry.handles.len() as u64)),
    ];
    state
        .telemetry
        .flight
        .record("scenario_deleted", fields.clone());
    state.telemetry.logger.info("scenario_deleted", &fields);
    #[derive(Serialize)]
    struct DeleteReply {
        deleted: String,
    }
    json_response(
        200,
        &DeleteReply {
            deleted: name.to_owned(),
        },
    )
}

// ---------------------------------------------------------------------------
// Session endpoints
// ---------------------------------------------------------------------------

/// Body of `POST /sessions`.
#[derive(Debug, Deserialize)]
struct StartSessionBody {
    /// Name of an uploaded scenario.
    scenario: String,
    /// Method name (`aarc`, `bo`, `maff`, `random`); `aarc` when omitted.
    method: Option<String>,
    /// Input class (`nominal`, `light`, `middle`, `heavy`); `nominal`
    /// when omitted.
    class: Option<String>,
    /// SLO override, ms; the scenario's own SLO when omitted.
    slo_ms: Option<f64>,
    /// Admit the session directly into the paused phase (it still counts
    /// against live-session quotas). `POST .../resume` starts it. Used by
    /// `aarc loadtest --hold` to pin concurrency without racing the
    /// scheduler.
    paused: Option<bool>,
}

#[derive(Debug, Serialize)]
struct StartSessionReply {
    id: u64,
    scenario: String,
    method: String,
    class: String,
    slo_ms: f64,
    state: String,
}

/// `POST /sessions`: bind a strategy to the scenario's class environment
/// and hand the session to the scheduler. The class environment is
/// compiled and registered once per (tenant, scenario, class) — further
/// sessions clone the cached handle (an `Arc` bump). Admission is decided
/// under the session-table lock, so concurrent starts can never overshoot
/// a tenant's live-session quota or the global watermark: the tenant
/// quota answers `429`, the global watermark `503`, both with
/// `Retry-After` — never unbounded queuing.
fn start_session(
    state: &ServeState<'_>,
    tenant_id: TenantId,
    body: &[u8],
    instance: &str,
) -> Response {
    let tenant = state.tenants.tenant(tenant_id);
    if state.shutting_down() {
        state.count_rejection(&tenant.name, "shutdown");
        return Problem::new(Kind::ShuttingDown, "daemon is shutting down")
            .retry_after(1)
            .response(instance);
    }
    let text = match std::str::from_utf8(body) {
        Ok(text) => text,
        Err(_) => return problem(Kind::BadRequest, "body is not valid utf-8", instance),
    };
    let body: StartSessionBody = match serde_json::from_str(text) {
        Ok(body) => body,
        Err(e) => {
            return problem(
                Kind::BadRequest,
                format!("invalid session request: {e}"),
                instance,
            )
        }
    };
    let class = match SweepClass::parse(body.class.as_deref().unwrap_or("nominal")) {
        Ok(class) => class,
        Err(message) => return problem(Kind::ValidationFailed, message, instance),
    };
    let method_name = body.method.as_deref().unwrap_or("aarc").to_owned();
    let method = match methods::build(&method_name) {
        Ok(method) => method,
        Err(message) => return problem(Kind::ValidationFailed, message, instance),
    };

    let mut scenarios = state.scenarios.lock().expect("scenario registry poisoned");
    let Some(entry) = scenarios.get_mut(&(tenant_id, body.scenario.clone())) else {
        return problem(
            Kind::NotFound,
            format!("no scenario named `{}`", body.scenario),
            instance,
        );
    };
    let slo_ms = body.slo_ms.unwrap_or(entry.slo_ms);
    let handle = match entry.handles.get(&class.label()) {
        Some(handle) => handle.clone(),
        None => {
            let handle = state.service.register(class.env(entry.workload.env()));
            entry.handles.insert(class.label(), handle.clone());
            handle
        }
    };
    let strategy = match method.strategy(handle.env(), slo_ms) {
        Ok(strategy) => strategy,
        Err(e) => {
            return problem(
                Kind::ValidationFailed,
                format!("cannot start search: {e}"),
                instance,
            )
        }
    };
    let mut session = SearchSession::with_slo(strategy, handle, slo_ms);
    let start_paused = body.paused.unwrap_or(false);
    if start_paused {
        session.pause();
    }

    let mut sessions = state.sessions.lock().expect("session table poisoned");
    let tenant_live = sessions
        .values()
        .filter(|s| s.tenant == tenant_id && s.phase.is_live())
        .count() as u64;
    if tenant_live >= tenant.quotas.max_live_sessions {
        state.count_rejection(&tenant.name, "quota");
        return Problem::new(
            Kind::QuotaExceeded,
            format!(
                "tenant `{}` is at its live-session quota ({tenant_live}/{})",
                tenant.name, tenant.quotas.max_live_sessions
            ),
        )
        .retry_after(1)
        .response(instance);
    }
    let live = sessions.values().filter(|s| s.phase.is_live()).count();
    if live >= state.max_live_sessions {
        state.count_rejection(&tenant.name, "saturated");
        return Problem::new(
            Kind::Saturated,
            format!(
                "daemon is at its global live-session watermark ({live}/{})",
                state.max_live_sessions
            ),
        )
        .retry_after(1)
        .response(instance);
    }
    let id = state.next_session_id.fetch_add(1, Ordering::SeqCst);
    let slot = Slot {
        id,
        tenant: tenant_id,
        scenario: body.scenario.clone(),
        method: method_name,
        class: class.label(),
        slo_ms,
        session: Some(session),
        phase: if start_paused {
            Phase::Paused
        } else {
            Phase::Running
        },
        want_pause: start_paused,
        want_cancel: false,
        progress: SessionProgress::default(),
        trace: Vec::new(),
        report_json: None,
        summary: None,
        error: None,
    };
    let reply = StartSessionReply {
        id,
        scenario: slot.scenario.clone(),
        method: slot.method.clone(),
        class: slot.class.clone(),
        slo_ms,
        state: slot.phase.label().to_owned(),
    };
    sessions.insert(id, slot);
    drop(sessions);
    drop(scenarios);
    let fields = vec![
        ("session", FieldValue::U64(id)),
        ("tenant", FieldValue::Str(tenant.name.clone())),
        ("scenario", FieldValue::Str(reply.scenario.clone())),
        ("method", FieldValue::Str(reply.method.clone())),
        ("class", FieldValue::Str(reply.class.clone())),
        ("slo_ms", FieldValue::F64(slo_ms)),
    ];
    state
        .telemetry
        .flight
        .record("session_started", fields.clone());
    state.telemetry.logger.info("session_started", &fields);
    json_response(201, &reply)
}

/// The status document of one session (`GET /sessions/{id}` and the rows
/// of `GET /sessions`).
#[derive(Debug, Serialize)]
struct SessionStatus {
    id: u64,
    scenario: String,
    method: String,
    class: String,
    slo_ms: f64,
    state: String,
    rounds: u64,
    evals: u64,
    incumbent: Option<aarc_core::Incumbent>,
    summary: Option<FinalSummary>,
    error: Option<String>,
}

impl SessionStatus {
    fn of(slot: &Slot<'_>) -> Self {
        SessionStatus {
            id: slot.id,
            scenario: slot.scenario.clone(),
            method: slot.method.clone(),
            class: slot.class.clone(),
            slo_ms: slot.slo_ms,
            state: slot.phase.label().to_owned(),
            rounds: slot.progress.rounds,
            evals: slot.progress.evals,
            incumbent: slot.progress.incumbent.clone(),
            summary: slot.summary.clone(),
            error: slot.error.clone(),
        }
    }
}

/// `GET /sessions?limit=&offset=&status=&scenario=`: the tenant's
/// sessions in id order, filterable by phase label and scenario name
/// (`name=` is accepted as an alias of `scenario=`), paginated.
fn list_sessions(
    state: &ServeState<'_>,
    tenant_id: TenantId,
    request: &Request,
    instance: &str,
) -> Response {
    let page = match parse_page(request, instance) {
        Ok(page) => page,
        Err(response) => return response,
    };
    let status = match request.query_param("status") {
        None => None,
        Some(raw) => {
            if !PHASE_LABELS.contains(&raw) {
                return problem(
                    Kind::BadRequest,
                    format!(
                        "unknown status filter `{raw}` (expected one of {})",
                        PHASE_LABELS.join("|")
                    ),
                    instance,
                );
            }
            Some(raw)
        }
    };
    let scenario = request
        .query_param("scenario")
        .or_else(|| request.query_param("name"));
    let sessions = state.sessions.lock().expect("session table poisoned");
    let rows: Vec<SessionStatus> = sessions
        .values()
        .filter(|s| s.tenant == tenant_id)
        .filter(|s| status.is_none_or(|wanted| s.phase.label() == wanted))
        .filter(|s| scenario.is_none_or(|wanted| s.scenario == wanted))
        .map(SessionStatus::of)
        .collect();
    page_envelope(&rows, &page)
}

fn session_status(
    state: &ServeState<'_>,
    tenant_id: TenantId,
    id: u64,
    instance: &str,
) -> Response {
    let sessions = state.sessions.lock().expect("session table poisoned");
    match sessions.get(&id).filter(|s| s.tenant == tenant_id) {
        Some(slot) => json_response(200, &SessionStatus::of(slot)),
        None => problem(Kind::NotFound, format!("no session {id}"), instance),
    }
}

/// `GET /sessions/{id}/report`: the stored final report, byte-identical
/// to `aarc run --format json` for the same spec/method/SLO.
fn session_report(
    state: &ServeState<'_>,
    tenant_id: TenantId,
    id: u64,
    instance: &str,
) -> Response {
    let sessions = state.sessions.lock().expect("session table poisoned");
    let Some(slot) = sessions.get(&id).filter(|s| s.tenant == tenant_id) else {
        return problem(Kind::NotFound, format!("no session {id}"), instance);
    };
    match slot.phase {
        Phase::Finished => Response::json(
            200,
            slot.report_json
                .clone()
                .expect("finished sessions store their report"),
        ),
        Phase::Failed => problem(
            Kind::Conflict,
            format!(
                "session {id} failed: {}",
                slot.error.as_deref().unwrap_or("unknown error")
            ),
            instance,
        ),
        Phase::Cancelled => problem(
            Kind::Conflict,
            format!("session {id} was cancelled"),
            instance,
        ),
        Phase::Running | Phase::Paused => problem(
            Kind::Conflict,
            format!("session {id} is still {}", slot.phase.label()),
            instance,
        ),
    }
}

/// Reply of `GET /sessions/{id}/trace`: the per-round convergence trace,
/// one point per completed ask/evaluate/tell round. Available while the
/// session runs (plot search progress live) and after it finished.
#[derive(Debug, Serialize)]
struct TraceReply {
    id: u64,
    scenario: String,
    method: String,
    class: String,
    state: String,
    rounds: Vec<RoundPoint>,
}

/// `GET /sessions/{id}/trace`.
fn session_trace(state: &ServeState<'_>, tenant_id: TenantId, id: u64, instance: &str) -> Response {
    let sessions = state.sessions.lock().expect("session table poisoned");
    let Some(slot) = sessions.get(&id).filter(|s| s.tenant == tenant_id) else {
        return problem(Kind::NotFound, format!("no session {id}"), instance);
    };
    json_response(
        200,
        &TraceReply {
            id: slot.id,
            scenario: slot.scenario.clone(),
            method: slot.method.clone(),
            class: slot.class.clone(),
            state: slot.phase.label().to_owned(),
            rounds: slot.trace.clone(),
        },
    )
}

/// `GET /debug/events?limit=N`: the flight recorder's tail (most recent
/// events, oldest first). `limit` defaults to 64 and is capped at the
/// ring's capacity.
fn debug_events(state: &ServeState<'_>, request: &Request, instance: &str) -> Response {
    let limit = match request.query_param("limit") {
        None => DEFAULT_EVENT_LIMIT,
        Some(raw) => match raw.parse::<usize>() {
            Ok(limit) => limit.min(FLIGHT_CAPACITY),
            Err(_) => {
                return problem(
                    Kind::BadRequest,
                    format!("limit `{raw}` is not a non-negative integer"),
                    instance,
                )
            }
        },
    };
    let flight = &state.telemetry.flight;
    let events = flight.tail(limit);
    let body = format!(
        "{{\"total\":{},\"capacity\":{},\"events\":{}}}\n",
        flight.total_recorded(),
        flight.capacity(),
        events_json(&events)
    );
    Response::json(200, body)
}

/// `POST /sessions/{id}/pause|resume|cancel`: record the request; the
/// scheduler applies it between steps.
fn control_session(
    state: &ServeState<'_>,
    tenant_id: TenantId,
    id: u64,
    action: &str,
    instance: &str,
) -> Response {
    let mut sessions = state.sessions.lock().expect("session table poisoned");
    let Some(slot) = sessions.get_mut(&id).filter(|s| s.tenant == tenant_id) else {
        return problem(Kind::NotFound, format!("no session {id}"), instance);
    };
    if !slot.phase.is_live() {
        return problem(
            Kind::Conflict,
            format!("session {id} already {}", slot.phase.label()),
            instance,
        );
    }
    match action {
        // A pause during shutdown would park the session and stall the
        // drain forever (the scheduler would force-cancel it anyway).
        "pause" if state.shutting_down() => {
            return Problem::new(
                Kind::ShuttingDown,
                "daemon is shutting down; pause is not accepted",
            )
            .retry_after(1)
            .response(instance)
        }
        "pause" => slot.want_pause = true,
        "resume" => slot.want_pause = false,
        "cancel" => slot.want_cancel = true,
        _ => unreachable!("router only passes pause/resume/cancel"),
    }
    apply_controls(slot);
    json_response(200, &SessionStatus::of(slot))
}

/// `GET /recovery`: whether this daemon persists state at all, whether
/// startup recovery is still running, and — once it finished — what it
/// recovered and what it had to quarantine.
fn recovery_status(state: &ServeState<'_>) -> Response {
    #[derive(Serialize)]
    struct RecoveryStatusDoc {
        enabled: bool,
        state_dir: Option<String>,
        in_progress: bool,
        report: Option<RecoveryReport>,
    }
    let report = state
        .recovery
        .lock()
        .expect("recovery report poisoned")
        .clone();
    json_response(
        200,
        &RecoveryStatusDoc {
            enabled: state.persist.is_some(),
            state_dir: state
                .persist
                .as_ref()
                .map(|p| p.root().display().to_string()),
            in_progress: state.recovering(),
            report,
        },
    )
}

/// `POST /shutdown`: stop admission, cancel paused sessions (they would
/// otherwise never drain) and let running ones finish; the process exits
/// 0 once the last session reaches a terminal phase. Idempotent: a
/// repeated call (a supervisor retrying, two supervisors racing) answers
/// 200 with the remaining drain count, never an error. With `--state-dir`
/// every live session's checkpoint is flushed here, so even a SIGKILL
/// that lands mid-drain loses at most the rounds since this call.
fn request_shutdown(state: &ServeState<'_>) -> Response {
    state.shutdown.store(true, Ordering::SeqCst);
    let mut sessions = state.sessions.lock().expect("session table poisoned");
    for slot in sessions.values_mut() {
        if slot.phase == Phase::Paused || (slot.phase.is_live() && slot.want_pause) {
            slot.want_pause = false;
            slot.want_cancel = true;
            apply_controls(slot);
        }
    }
    let draining = sessions.values().filter(|s| s.phase.is_live()).count();
    let checkpoints: Vec<SessionCheckpoint> = if state.persist.is_some() {
        sessions
            .values()
            .filter(|s| s.phase.is_live())
            .map(|s| checkpoint_of(state, s))
            .collect()
    } else {
        Vec::new()
    };
    drop(sessions);
    for checkpoint in &checkpoints {
        write_checkpoint(state, checkpoint);
    }
    Response::json(200, format!("{{\"draining\": {draining}}}\n"))
}

fn json_response<T: Serialize>(status: u16, value: &T) -> Response {
    let mut body = serde_json::to_string_pretty(value).expect("API replies serialize");
    body.push('\n');
    Response::json(status, body)
}

// ---------------------------------------------------------------------------
// /metrics
// ---------------------------------------------------------------------------

/// One family of scrape-time series.
fn family<V>(name: &str, help: &str, series: Vec<(Labels, V)>) -> FamilySnapshot<V> {
    (name.to_owned(), help.to_owned(), series)
}

/// One family holding a single unlabelled series.
fn plain<V>(name: &str, help: &str, value: V) -> FamilySnapshot<V> {
    family(name, help, vec![(Labels::default(), value)])
}

/// Renders the Prometheus text exposition. The scrape-time values —
/// eval-service counters from [`EvalService::stats_snapshot`] (including
/// the inflight saturation signals), per-tenant registry/eval/admission
/// families, per-session progress gauges (labelled with their tenant),
/// recovery outcome and build provenance — are put into a
/// [`RecorderSnapshot`] of their own, then rendered together with the
/// shared telemetry recorder's (latency histograms, kernel counters, the
/// per-tenant request/rejection counters) by the one renderer,
/// [`aarc_telemetry::prom::write_snapshot`]. They are not recorded into
/// the shared recorder: a session's `state` label changes as it runs, so
/// a shared gauge would leave its old series behind.
fn render_metrics(state: &ServeState<'_>) -> String {
    let snapshot = state.service.stats_snapshot();
    let mut scrape = RecorderSnapshot::default();
    let build = VersionInfo::current();
    scrape.gauges.push(family(
        "aarc_build_info",
        "Build provenance; the value is always 1, the labels carry the data.",
        vec![(
            Labels::new(&[
                ("version", &build.version),
                ("rustc", &build.rustc),
                ("profile", &build.profile),
            ]),
            1.0,
        )],
    ));
    for (name, help, value) in [
        (
            "aarc_eval_requests_total",
            "Candidate evaluations requested (cache hits + misses).",
            snapshot.stats.requests,
        ),
        (
            "aarc_eval_cache_hits_total",
            "Evaluations answered from the memo-cache.",
            snapshot.stats.cache_hits,
        ),
        (
            "aarc_eval_cache_misses_total",
            "Evaluations that required simulation.",
            snapshot.stats.cache_misses,
        ),
        (
            "aarc_eval_evictions_total",
            "Memo-cache entries evicted under capacity pressure.",
            snapshot.stats.evictions,
        ),
    ] {
        scrape.counters.push(plain(name, help, value));
    }

    // Per-tenant registry views, computed under the scenarios lock (lock
    // order: scenarios before sessions, matching every other handler).
    // Each tenant only ever sees eval traffic over its own scenarios'
    // fingerprints, plus the retired totals of fingerprints it deleted.
    let tenants = state.tenants.all();
    let mut tenant_scenarios = vec![0u64; tenants.len()];
    let mut tenant_fingerprints = vec![std::collections::BTreeSet::new(); tenants.len()];
    let (scenario_count, mut tenant_eval) = {
        let scenarios = state.scenarios.lock().expect("scenario registry poisoned");
        for ((tenant, _), entry) in scenarios.iter() {
            tenant_scenarios[*tenant] += 1;
            tenant_fingerprints[*tenant].extend(entry.handles.values().map(|h| h.fingerprint()));
        }
        let retired = state.retired_eval.lock().expect("retired eval poisoned");
        (scenarios.len(), retired.clone())
    };
    for stats in &snapshot.scenarios {
        for (tenant, fingerprints) in tenant_fingerprints.iter().enumerate() {
            if fingerprints.contains(&stats.fingerprint) {
                tenant_eval[tenant].0 += stats.requests;
                tenant_eval[tenant].1 += stats.cache_hits;
            }
        }
    }

    for (name, help, value) in [
        (
            "aarc_eval_cached_entries",
            "Memo-cache entries currently resident.",
            snapshot.cached_entries,
        ),
        (
            "aarc_eval_threads",
            "Worker threads of the shared evaluation pool.",
            snapshot.stats.threads,
        ),
        (
            "aarc_eval_scenarios_registered",
            "Scenario environments registered with the evaluation service.",
            snapshot.registered_scenarios,
        ),
        (
            "aarc_eval_inflight",
            "Evaluation calls executing right now (the saturation signal).",
            snapshot.inflight,
        ),
        (
            "aarc_eval_inflight_peak",
            "High-water mark of concurrent evaluation calls since boot.",
            snapshot.inflight_peak,
        ),
        (
            "aarc_admission_max_live_sessions",
            "Global live-session watermark enforced by admission control.",
            state.max_live_sessions,
        ),
        (
            "aarc_scenarios",
            "Scenarios in the daemon's runtime registry (all tenants).",
            scenario_count,
        ),
    ] {
        scrape.gauges.push(plain(name, help, value as f64));
    }

    // Recovery families exist only when the daemon persists state, so a
    // daemon without `--state-dir` exposes byte-identical metric
    // families to before the persistence layer existed.
    if state.persist.is_some() {
        scrape.gauges.push(plain(
            "aarc_recovery_in_progress",
            "1 while startup recovery is replaying durable state, 0 after.",
            if state.recovering() { 1.0 } else { 0.0 },
        ));
        let recovery = state.recovery.lock().expect("recovery report poisoned");
        if let Some(report) = recovery.as_ref() {
            for (name, help, value) in [
                (
                    "aarc_recovery_wal_records_applied",
                    "WAL records replayed on top of the registry snapshot at startup.",
                    report.wal_records_applied,
                ),
                (
                    "aarc_recovery_wal_lines_dropped",
                    "WAL lines dropped at startup as torn or unparseable.",
                    report.wal_lines_dropped,
                ),
                (
                    "aarc_recovery_scenarios_recovered",
                    "Scenarios re-registered from persisted specs at startup.",
                    report.scenarios_recovered,
                ),
                (
                    "aarc_recovery_sessions_resumed",
                    "Live sessions resumed by deterministic replay at startup.",
                    report.sessions_resumed,
                ),
                (
                    "aarc_recovery_sessions_restored",
                    "Terminal sessions restored from checkpoints at startup.",
                    report.sessions_restored,
                ),
                (
                    "aarc_recovery_files_quarantined",
                    "State files or registry entries quarantined as unusable at startup.",
                    report.quarantined.len() as u64,
                ),
            ] {
                scrape.gauges.push(plain(name, help, value as f64));
            }
        }
    }

    let sessions = state.sessions.lock().expect("session table poisoned");
    let mut tenant_live = vec![0u64; tenants.len()];
    for slot in sessions.values().filter(|s| s.phase.is_live()) {
        tenant_live[slot.tenant] += 1;
    }
    scrape.counters.push(plain(
        "aarc_sessions_total",
        "Search sessions started since daemon boot.",
        sessions.len() as u64,
    ));
    scrape.gauges.push(plain(
        "aarc_sessions_live",
        "Sessions currently running or paused (all tenants).",
        tenant_live.iter().sum::<u64>() as f64,
    ));
    let tenant_labels: Vec<Labels> = tenants
        .iter()
        .map(|tenant| Labels::new(&[("tenant", &tenant.name)]))
        .collect();
    for (name, help, values) in [
        (
            "aarc_tenant_eval_requests_total",
            "Candidate evaluations over the tenant's registered scenarios.",
            tenant_eval.iter().map(|e| e.0).collect::<Vec<_>>(),
        ),
        (
            "aarc_tenant_eval_cache_hits_total",
            "Memo-cache hits over the tenant's registered scenarios.",
            tenant_eval.iter().map(|e| e.1).collect(),
        ),
    ] {
        let series = tenant_labels.iter().cloned().zip(values).collect();
        scrape.counters.push(family(name, help, series));
    }
    for (name, help, values) in [
        (
            "aarc_tenant_scenarios",
            "Scenarios currently uploaded, per tenant.",
            tenant_scenarios,
        ),
        (
            "aarc_tenant_sessions_live",
            "Sessions currently running or paused, per tenant.",
            tenant_live,
        ),
    ] {
        let values = values.into_iter().map(|v| v as f64);
        let series = tenant_labels.iter().cloned().zip(values).collect();
        scrape.gauges.push(family(name, help, series));
    }

    // One pass over the sessions fills all four families, each session's
    // label set rendered once. `session` is the FIRST label (the CI smoke
    // job greps for it) and `tenant` the last.
    let mut session_families = [
        family(
            "aarc_session_rounds",
            "Completed ask/evaluate/tell rounds of the session.",
            Vec::new(),
        ),
        family(
            "aarc_session_evals",
            "Candidate evaluations consumed by the session.",
            Vec::new(),
        ),
        family(
            "aarc_session_incumbent_cost",
            "Cost of the session's best configuration so far.",
            Vec::new(),
        ),
        family(
            "aarc_session_incumbent_makespan_ms",
            "End-to-end makespan of the session's best configuration, ms.",
            Vec::new(),
        ),
    ];
    for slot in sessions.values() {
        let labels = Labels::new(&[
            ("session", &slot.id.to_string()),
            ("scenario", &slot.scenario),
            ("method", &slot.method),
            ("class", &slot.class),
            ("state", slot.phase.label()),
            ("tenant", &tenants[slot.tenant].name),
        ]);
        let incumbent = slot.progress.incumbent.as_ref();
        let values = [
            Some(slot.progress.rounds as f64),
            Some(slot.progress.evals as f64),
            incumbent.map(|i| i.cost),
            incumbent.map(|i| i.makespan_ms),
        ];
        for ((_, _, series), value) in session_families.iter_mut().zip(values) {
            if let Some(value) = value {
                series.push((labels.clone(), value));
            }
        }
    }
    drop(sessions);
    // A family without sessions (or without incumbents) is not rendered.
    scrape.gauges.extend(
        session_families
            .into_iter()
            .filter(|(_, _, series)| !series.is_empty()),
    );

    let mut out = String::with_capacity(8192);
    aarc_telemetry::prom::write_snapshot(&mut out, &scrape);
    aarc_telemetry::prom::write_snapshot(&mut out, &state.telemetry.recorder.snapshot());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::PROBLEM_CONTENT_TYPE;

    fn chatbot_yaml() -> Vec<u8> {
        let (_, spec) = aarc_spec::builtin_specs()
            .into_iter()
            .find(|(name, _)| *name == "chatbot")
            .expect("chatbot is a builtin");
        aarc_spec::to_string(&spec, aarc_spec::SpecFormat::Yaml).into_bytes()
    }

    /// The chatbot spec renamed, for multi-scenario listings.
    fn named_yaml(name: &str) -> Vec<u8> {
        String::from_utf8(chatbot_yaml())
            .unwrap()
            .replace("name: chatbot", &format!("name: {name}"))
            .into_bytes()
    }

    /// Looks up a key in a parsed JSON map, panicking with the key name.
    fn field<'a>(doc: &'a serde::Value, key: &str) -> &'a serde::Value {
        doc.get(key)
            .unwrap_or_else(|| panic!("missing field `{key}` in {doc:?}"))
    }

    /// Reads a JSON number as u64 (the shim parses small ints as `Int`).
    fn uint(v: &serde::Value) -> u64 {
        match v {
            serde::Value::Int(i) if *i >= 0 => *i as u64,
            serde::Value::UInt(u) => *u,
            other => panic!("expected unsigned integer, got {other:?}"),
        }
    }

    fn request(method: &str, path: &str, body: &[u8]) -> Request {
        let (path, query) = match path.split_once('?') {
            Some((path, query)) => (path.to_owned(), query.to_owned()),
            None => (path.to_owned(), String::new()),
        };
        Request {
            method: method.to_owned(),
            path,
            query,
            headers: Vec::new(),
            body: body.to_vec(),
        }
    }

    /// A request carrying an `X-Api-Key` header.
    fn keyed_request(method: &str, path: &str, key: &str, body: &[u8]) -> Request {
        let mut request = request(method, path, body);
        request
            .headers
            .push(("x-api-key".to_owned(), key.to_owned()));
        request
    }

    fn anonymous_state<'s>(
        service: &'s EvalService,
        telemetry: &'s ServeTelemetry,
    ) -> ServeState<'s> {
        ServeState::new(
            service,
            telemetry,
            TenantRegistry::single_anonymous(),
            DEFAULT_MAX_LIVE_SESSIONS,
            None,
            crate::state::DEFAULT_CHECKPOINT_EVERY,
        )
    }

    /// Asserts a response is a valid RFC-7807 problem document of the
    /// given status, and returns the parsed document.
    fn assert_problem(reply: &Response, status: u16) -> serde::Value {
        assert_eq!(reply.status, status, "{}", reply.body);
        assert_eq!(
            reply.content_type, PROBLEM_CONTENT_TYPE,
            "non-2xx must be problem+json: {}",
            reply.body
        );
        let doc = serde_json::parse(&reply.body).unwrap();
        for key in ["type", "title", "status", "detail", "instance"] {
            field(&doc, key);
        }
        assert_eq!(uint(field(&doc, "status")), u64::from(status));
        assert!(field(&doc, "type")
            .as_str()
            .unwrap()
            .starts_with("/api/v1/problems/"));
        doc
    }

    /// Drives the router directly (no sockets) with a manual scheduler:
    /// steps every live session to completion between requests, exactly
    /// like the scheduler thread would.
    fn drain_sessions(state: &ServeState<'_>) {
        loop {
            let runnable: Vec<u64> = {
                let sessions = state.sessions.lock().unwrap();
                sessions
                    .iter()
                    .filter(|(_, s)| s.phase == Phase::Running && s.session.is_some())
                    .map(|(&id, _)| id)
                    .collect()
            };
            if runnable.is_empty() {
                break;
            }
            for id in runnable {
                let taken = {
                    let mut sessions = state.sessions.lock().unwrap();
                    sessions.get_mut(&id).and_then(|s| s.session.take())
                };
                let Some(mut session) = taken else { continue };
                let st = session.step();
                let mut sessions = state.sessions.lock().unwrap();
                let slot = sessions.get_mut(&id).unwrap();
                slot.progress = session.progress().clone();
                slot.trace
                    .extend_from_slice(&session.convergence()[slot.trace.len()..]);
                if st == SessionState::Finished {
                    finalize_slot(slot, session, state.telemetry);
                } else {
                    slot.session = Some(session);
                }
            }
        }
    }

    #[test]
    fn upload_list_delete_lifecycle() {
        let service = EvalService::with_threads(1);
        let telemetry = ServeTelemetry::quiet();
        let state = anonymous_state(&service, &telemetry);
        let yaml = chatbot_yaml();

        let created = route(&state, &request("POST", "/scenarios", &yaml));
        assert_eq!(created.status, 201, "{}", created.body);
        assert!(created.body.contains("\"chatbot\""));

        let duplicate = route(&state, &request("POST", "/scenarios", &yaml));
        assert_problem(&duplicate, 409);

        let listed = route(&state, &request("GET", "/scenarios", b""));
        assert_eq!(listed.status, 200);
        assert!(listed.body.contains("\"chatbot\""));

        let gone = route(&state, &request("DELETE", "/scenarios/nope", b""));
        assert_problem(&gone, 404);
        let deleted = route(&state, &request("DELETE", "/scenarios/chatbot", b""));
        assert_eq!(deleted.status, 200);
        let listed = route(&state, &request("GET", "/scenarios", b""));
        assert!(!listed.body.contains("chatbot"));
    }

    #[test]
    fn v1_prefix_is_canonical_and_legacy_paths_are_deprecated_aliases() {
        let service = EvalService::with_threads(1);
        let telemetry = ServeTelemetry::quiet();
        let state = anonymous_state(&service, &telemetry);

        // The discovery document only exists on the canonical surface.
        let discovery = route(&state, &request("GET", "/api/v1", b""));
        assert_eq!(discovery.status, 200, "{}", discovery.body);
        assert_eq!(discovery.header("Deprecation"), None);
        let doc = serde_json::parse(&discovery.body).unwrap();
        let versions = field(&doc, "versions").as_seq().unwrap();
        assert_eq!(versions[0].as_str(), Some("v1"));
        let routes = field(&doc, "routes").as_seq().unwrap();
        assert!(routes.len() >= 15, "discovery lists the whole surface");
        assert!(routes
            .iter()
            .all(|r| field(r, "path").as_str().unwrap().starts_with("/api/v1")));

        // Same handler under both mounts; only the legacy one is marked.
        let v1 = route(&state, &request("GET", "/api/v1/healthz", b""));
        assert_eq!(v1.status, 200);
        assert_eq!(v1.header("Deprecation"), None);
        let legacy = route(&state, &request("GET", "/healthz", b""));
        assert_eq!(legacy.status, 200);
        assert_eq!(legacy.header("Deprecation"), Some("true"));
        assert_eq!(v1.body, legacy.body);

        // The whole tenant surface works under the prefix.
        let created = route(
            &state,
            &request("POST", "/api/v1/scenarios", &chatbot_yaml()),
        );
        assert_eq!(created.status, 201, "{}", created.body);
        let listed = route(&state, &request("GET", "/api/v1/scenarios", b""));
        assert!(listed.body.contains("\"chatbot\""));
        assert_eq!(listed.header("Deprecation"), None);

        // Even errors on the legacy surface carry the deprecation marker,
        // and problem instances preserve the path the client used.
        let missing = route(&state, &request("GET", "/nope", b""));
        assert_eq!(missing.header("Deprecation"), Some("true"));
        let doc = assert_problem(&missing, 404);
        assert_eq!(field(&doc, "instance").as_str(), Some("/nope"));
        let v1_missing = route(&state, &request("GET", "/api/v1/nope", b""));
        assert_eq!(v1_missing.header("Deprecation"), None);
        let doc = assert_problem(&v1_missing, 404);
        assert_eq!(field(&doc, "instance").as_str(), Some("/api/v1/nope"));

        // `/api/v1garbage` is not the prefix — it is a legacy-shaped 404.
        let odd = route(&state, &request("GET", "/api/v1garbage", b""));
        assert_eq!(odd.status, 404);
        assert_eq!(odd.header("Deprecation"), Some("true"));
    }

    #[test]
    fn every_error_is_a_problem_document() {
        let service = EvalService::with_threads(1);
        let telemetry = ServeTelemetry::quiet();
        let state = anonymous_state(&service, &telemetry);
        route(&state, &request("POST", "/scenarios", &chatbot_yaml()));

        // 404: unknown endpoint, scenario, session.
        assert_problem(&route(&state, &request("GET", "/api/v1/nope", b"")), 404);
        assert_problem(
            &route(&state, &request("DELETE", "/api/v1/scenarios/ghost", b"")),
            404,
        );
        assert_problem(
            &route(&state, &request("GET", "/api/v1/sessions/99", b"")),
            404,
        );
        assert_problem(
            &route(
                &state,
                &request("POST", "/api/v1/sessions", b"{\"scenario\": \"ghost\"}"),
            ),
            404,
        );
        // 405: wrong method on operator and tenant endpoints.
        assert_problem(
            &route(&state, &request("POST", "/api/v1/version", b"")),
            405,
        );
        assert_problem(
            &route(&state, &request("PUT", "/api/v1/scenarios", b"")),
            405,
        );
        assert_problem(
            &route(&state, &request("DELETE", "/api/v1/sessions/1", b"")),
            405,
        );
        // 400: malformed ids, bodies and query parameters.
        assert_problem(
            &route(&state, &request("GET", "/api/v1/sessions/abc", b"")),
            400,
        );
        assert_problem(
            &route(
                &state,
                &request("POST", "/api/v1/scenarios", b"{ not a spec"),
            ),
            400,
        );
        assert_problem(
            &route(&state, &request("POST", "/api/v1/sessions", b"not json")),
            400,
        );
        assert_problem(
            &route(
                &state,
                &request("GET", "/api/v1/debug/events?limit=many", b""),
            ),
            400,
        );
        // 422: parsed but semantically invalid.
        let doc = assert_problem(
            &route(
                &state,
                &request(
                    "POST",
                    "/api/v1/sessions",
                    b"{\"scenario\": \"chatbot\", \"method\": \"alchemy\"}",
                ),
            ),
            422,
        );
        assert!(field(&doc, "detail").as_str().unwrap().contains("alchemy"));
        // 409: duplicate upload.
        assert_problem(
            &route(
                &state,
                &request("POST", "/api/v1/scenarios", &chatbot_yaml()),
            ),
            409,
        );
    }

    #[test]
    fn invalid_uploads_are_rejected_with_400() {
        let service = EvalService::with_threads(1);
        let telemetry = ServeTelemetry::quiet();
        let state = anonymous_state(&service, &telemetry);
        let garbage = route(&state, &request("POST", "/scenarios", b"{ not a spec"));
        assert_problem(&garbage, 400);
        let empty = route(&state, &request("POST", "/scenarios/validate", b""));
        assert_problem(&empty, 400);
        let ok = route(
            &state,
            &request("POST", "/scenarios/validate", &chatbot_yaml()),
        );
        assert_eq!(ok.status, 200, "{}", ok.body);
        assert!(ok.body.contains("\"valid\": true"));
        // Validation never admits anything.
        let listed = route(&state, &request("GET", "/scenarios", b""));
        assert!(!listed.body.contains("chatbot"));
    }

    #[test]
    fn scenario_names_outside_the_safe_alphabet_are_rejected() {
        let service = EvalService::with_threads(1);
        let telemetry = ServeTelemetry::quiet();
        let state = anonymous_state(&service, &telemetry);
        // Names become URL path segments, JSON values and metrics labels.
        // They parse fine, so this is a 422 (validation), not a 400.
        for bad in ["bad/name", "bad\"name", "bad name"] {
            let yaml = String::from_utf8(chatbot_yaml())
                .unwrap()
                .replace("name: chatbot", &format!("name: '{bad}'"));
            let reply = route(&state, &request("POST", "/scenarios", yaml.as_bytes()));
            assert_problem(&reply, 422);
            assert!(reply.body.contains("[A-Za-z0-9._-]"), "{}", reply.body);
        }
    }

    #[test]
    fn listings_paginate_with_envelope_and_filters() {
        let service = EvalService::with_threads(1);
        let telemetry = ServeTelemetry::quiet();
        let state = anonymous_state(&service, &telemetry);
        for name in ["alpha", "beta", "gamma"] {
            let reply = route(&state, &request("POST", "/scenarios", &named_yaml(name)));
            assert_eq!(reply.status, 201, "{}", reply.body);
        }

        // Page 1 of 2: limit 2, next_offset points at the rest.
        let page = route(&state, &request("GET", "/api/v1/scenarios?limit=2", b""));
        assert_eq!(page.status, 200, "{}", page.body);
        let doc = serde_json::parse(&page.body).unwrap();
        assert_eq!(uint(field(&doc, "total")), 3);
        let items = field(&doc, "items").as_seq().unwrap();
        assert_eq!(items.len(), 2);
        // Deterministic name order.
        assert_eq!(field(&items[0], "name").as_str(), Some("alpha"));
        assert_eq!(field(&items[1], "name").as_str(), Some("beta"));
        assert_eq!(uint(field(&doc, "next_offset")), 2);

        // Page 2: the final page has a null next_offset.
        let page = route(
            &state,
            &request("GET", "/api/v1/scenarios?limit=2&offset=2", b""),
        );
        let doc = serde_json::parse(&page.body).unwrap();
        let items = field(&doc, "items").as_seq().unwrap();
        assert_eq!(items.len(), 1);
        assert_eq!(field(&items[0], "name").as_str(), Some("gamma"));
        assert!(matches!(field(&doc, "next_offset"), serde::Value::Null));

        // Offset past the end: empty page, total still correct.
        let page = route(&state, &request("GET", "/api/v1/scenarios?offset=99", b""));
        let doc = serde_json::parse(&page.body).unwrap();
        assert!(field(&doc, "items").as_seq().unwrap().is_empty());
        assert_eq!(uint(field(&doc, "total")), 3);
        assert!(matches!(field(&doc, "next_offset"), serde::Value::Null));

        // limit=0 clamps to 1; limit above the cap clamps to the cap.
        let page = route(&state, &request("GET", "/api/v1/scenarios?limit=0", b""));
        let doc = serde_json::parse(&page.body).unwrap();
        assert_eq!(field(&doc, "items").as_seq().unwrap().len(), 1);
        let page = route(
            &state,
            &request("GET", "/api/v1/scenarios?limit=99999", b""),
        );
        assert_eq!(page.status, 200);

        // Bad pagination parameters are 400 problems.
        assert_problem(
            &route(&state, &request("GET", "/api/v1/scenarios?limit=abc", b"")),
            400,
        );
        assert_problem(
            &route(&state, &request("GET", "/api/v1/scenarios?offset=-1", b"")),
            400,
        );

        // Substring name filter.
        let page = route(&state, &request("GET", "/api/v1/scenarios?name=amm", b""));
        let doc = serde_json::parse(&page.body).unwrap();
        let items = field(&doc, "items").as_seq().unwrap();
        assert_eq!(items.len(), 1);
        assert_eq!(field(&items[0], "name").as_str(), Some("gamma"));
        assert_eq!(uint(field(&doc, "total")), 1, "total counts filtered rows");
    }

    #[test]
    fn session_listings_filter_by_status_and_scenario() {
        let service = EvalService::with_threads(1);
        let telemetry = ServeTelemetry::quiet();
        let state = anonymous_state(&service, &telemetry);
        route(&state, &request("POST", "/scenarios", &named_yaml("one")));
        route(&state, &request("POST", "/scenarios", &named_yaml("two")));
        let start = |scenario: &str| {
            let body = format!("{{\"scenario\": \"{scenario}\", \"method\": \"random\"}}");
            let reply = route(
                &state,
                &request("POST", "/api/v1/sessions", body.as_bytes()),
            );
            assert_eq!(reply.status, 201, "{}", reply.body);
        };
        start("one");
        start("two");
        route(&state, &request("POST", "/api/v1/sessions/2/cancel", b""));
        drain_sessions(&state);
        // Session 1 finished; session 2 cancelled.

        let finished = route(
            &state,
            &request("GET", "/api/v1/sessions?status=finished", b""),
        );
        let doc = serde_json::parse(&finished.body).unwrap();
        assert_eq!(uint(field(&doc, "total")), 1);
        let items = field(&doc, "items").as_seq().unwrap();
        assert_eq!(uint(field(&items[0], "id")), 1);

        let cancelled = route(
            &state,
            &request("GET", "/api/v1/sessions?status=cancelled", b""),
        );
        let doc = serde_json::parse(&cancelled.body).unwrap();
        assert_eq!(uint(field(&doc, "total")), 1);

        // Scenario filter (exact), with `name=` accepted as an alias.
        for query in ["scenario=two", "name=two"] {
            let reply = route(
                &state,
                &request("GET", &format!("/api/v1/sessions?{query}"), b""),
            );
            let doc = serde_json::parse(&reply.body).unwrap();
            assert_eq!(uint(field(&doc, "total")), 1, "{query}");
            let items = field(&doc, "items").as_seq().unwrap();
            assert_eq!(field(&items[0], "scenario").as_str(), Some("two"));
        }

        // Unknown status values are 400 problems naming the vocabulary.
        let bad = route(
            &state,
            &request("GET", "/api/v1/sessions?status=bogus", b""),
        );
        let doc = assert_problem(&bad, 400);
        assert!(field(&doc, "detail").as_str().unwrap().contains("running"));
    }

    #[test]
    fn session_runs_to_completion_and_reports_offline_identical_bytes() {
        let service = EvalService::with_threads(2);
        let telemetry = ServeTelemetry::quiet();
        let state = anonymous_state(&service, &telemetry);
        route(&state, &request("POST", "/scenarios", &chatbot_yaml()));

        let started = route(
            &state,
            &request("POST", "/sessions", b"{\"scenario\": \"chatbot\"}"),
        );
        assert_eq!(started.status, 201, "{}", started.body);
        assert!(started.body.contains("\"id\": 1"));

        drain_sessions(&state);
        let status = route(&state, &request("GET", "/sessions/1", b""));
        assert_eq!(status.status, 200);
        assert!(status.body.contains("\"finished\""), "{}", status.body);
        assert!(status.body.contains("\"incumbent\""));

        let report = route(&state, &request("GET", "/sessions/1/report", b""));
        assert_eq!(report.status, 200);

        // Bit-identical to the offline path: same strategy driven by
        // SearchDriver::run on a private service.
        let workload = {
            let anonymous = state.tenants.resolve(None).unwrap();
            let scenarios = state.scenarios.lock().unwrap();
            scenarios[&(anonymous, "chatbot".to_owned())]
                .workload
                .clone()
        };
        let method = methods::build("aarc").unwrap();
        let offline_service = EvalService::with_threads(2);
        let outcome = method
            .search_on(
                &offline_service.register(workload.env().clone()),
                workload.slo_ms(),
            )
            .unwrap();
        let offline = ConfigurationReport::new(
            workload.env(),
            &outcome.best_configs,
            &outcome.final_report,
            Some(workload.slo_ms()),
        );
        let mut offline_json = serde_json::to_string_pretty(&offline).unwrap();
        offline_json.push('\n');
        assert_eq!(
            report.body, offline_json,
            "served report must match offline run bytes"
        );
    }

    #[test]
    fn tenants_cannot_observe_each_other() {
        let service = EvalService::with_threads(1);
        let telemetry = ServeTelemetry::quiet();
        let registry = TenantRegistry::from_file_contents(
            "tenants:\n  - name: alpha\n    api_key: ka\n  - name: beta\n    api_key: kb\n",
        )
        .unwrap();
        let state = ServeState::new(
            &service,
            &telemetry,
            registry,
            DEFAULT_MAX_LIVE_SESSIONS,
            None,
            crate::state::DEFAULT_CHECKPOINT_EVERY,
        );

        // Keyless requests are refused outright (no anonymous entry).
        let doc = assert_problem(
            &route(&state, &request("GET", "/api/v1/scenarios", b"")),
            401,
        );
        assert!(field(&doc, "detail")
            .as_str()
            .unwrap()
            .contains("X-Api-Key"));
        assert_problem(
            &route(
                &state,
                &keyed_request("GET", "/api/v1/scenarios", "wrong", b""),
            ),
            401,
        );

        // Both tenants may use the same scenario name: separate namespaces.
        for key in ["ka", "kb"] {
            let reply = route(
                &state,
                &keyed_request("POST", "/api/v1/scenarios", key, &chatbot_yaml()),
            );
            assert_eq!(reply.status, 201, "{key}: {}", reply.body);
        }
        // ...while the identical environment is registered once below the
        // namespaces (shared memo-cache substrate).
        let start = route(
            &state,
            &keyed_request(
                "POST",
                "/api/v1/sessions",
                "ka",
                b"{\"scenario\": \"chatbot\", \"method\": \"random\"}",
            ),
        );
        assert_eq!(start.status, 201, "{}", start.body);

        // Cross-tenant lookups answer 404, never 403: existence must not
        // leak across namespaces.
        let listed = route(&state, &keyed_request("GET", "/api/v1/sessions", "kb", b""));
        let doc = serde_json::parse(&listed.body).unwrap();
        assert_eq!(uint(field(&doc, "total")), 0, "beta sees no alpha sessions");
        assert_problem(
            &route(
                &state,
                &keyed_request("GET", "/api/v1/sessions/1", "kb", b""),
            ),
            404,
        );
        assert_problem(
            &route(
                &state,
                &keyed_request("POST", "/api/v1/sessions/1/cancel", "kb", b""),
            ),
            404,
        );

        route(
            &state,
            &keyed_request("POST", "/api/v1/sessions/1/cancel", "ka", b""),
        );
        drain_sessions(&state);

        // Alpha compiled the only live handle for this class env; its
        // delete unregisters the fingerprint (beta's entry never compiled
        // one, so nothing dangles). Beta's first session simply
        // re-registers it.
        let shared_env_registered = || service.stats_snapshot().registered_scenarios;
        assert_eq!(shared_env_registered(), 1, "one class env was compiled");
        let deleted = route(
            &state,
            &keyed_request("DELETE", "/api/v1/scenarios/chatbot", "ka", b""),
        );
        assert_eq!(deleted.status, 200, "{}", deleted.body);
        assert_eq!(shared_env_registered(), 0, "alpha held the only handle");
        let start = route(
            &state,
            &keyed_request(
                "POST",
                "/api/v1/sessions",
                "kb",
                b"{\"scenario\": \"chatbot\", \"method\": \"random\"}",
            ),
        );
        assert_eq!(start.status, 201, "{}", start.body);
        assert_eq!(shared_env_registered(), 1, "beta's session re-registers");
        let id = uint(field(&serde_json::parse(&start.body).unwrap(), "id"));
        route(
            &state,
            &keyed_request("POST", &format!("/api/v1/sessions/{id}/cancel"), "kb", b""),
        );
        drain_sessions(&state);
        let deleted = route(
            &state,
            &keyed_request("DELETE", "/api/v1/scenarios/chatbot", "kb", b""),
        );
        assert_eq!(deleted.status, 200, "{}", deleted.body);
        assert_eq!(shared_env_registered(), 0, "last reference unregisters");
    }

    #[test]
    fn tenant_quotas_reject_with_429_and_recover() {
        let service = EvalService::with_threads(1);
        let telemetry = ServeTelemetry::quiet();
        let registry = TenantRegistry::from_file_contents(
            "tenants:\n  - name: small\n    api_key: ks\n    max_scenarios: 1\n    max_live_sessions: 1\n",
        )
        .unwrap();
        let state = ServeState::new(
            &service,
            &telemetry,
            registry,
            DEFAULT_MAX_LIVE_SESSIONS,
            None,
            crate::state::DEFAULT_CHECKPOINT_EVERY,
        );

        let first = route(
            &state,
            &keyed_request("POST", "/api/v1/scenarios", "ks", &chatbot_yaml()),
        );
        assert_eq!(first.status, 201, "{}", first.body);
        let over = route(
            &state,
            &keyed_request("POST", "/api/v1/scenarios", "ks", &named_yaml("second")),
        );
        let doc = assert_problem(&over, 429);
        assert!(field(&doc, "detail").as_str().unwrap().contains("quota"));

        let start = |body: &[u8]| {
            route(
                &state,
                &keyed_request("POST", "/api/v1/sessions", "ks", body),
            )
        };
        let first = start(b"{\"scenario\": \"chatbot\", \"method\": \"random\"}");
        assert_eq!(first.status, 201, "{}", first.body);
        let over = start(b"{\"scenario\": \"chatbot\", \"method\": \"random\"}");
        let doc = assert_problem(&over, 429);
        assert!(field(&doc, "detail")
            .as_str()
            .unwrap()
            .contains("live-session"));
        assert_eq!(over.header("Retry-After"), Some("1"));

        // The quota frees as soon as the live session reaches a terminal
        // phase.
        route(
            &state,
            &keyed_request("POST", "/api/v1/sessions/1/cancel", "ks", b""),
        );
        drain_sessions(&state);
        let again = start(b"{\"scenario\": \"chatbot\", \"method\": \"random\"}");
        assert_eq!(again.status, 201, "{}", again.body);
        route(
            &state,
            &keyed_request("POST", "/api/v1/sessions/2/cancel", "ks", b""),
        );
        drain_sessions(&state);
    }

    #[test]
    fn rate_limited_tenants_get_429_with_retry_after() {
        let service = EvalService::with_threads(1);
        let telemetry = ServeTelemetry::quiet();
        let registry = TenantRegistry::from_file_contents(
            "tenants:\n  - name: slow\n    api_key: kr\n    requests_per_sec: 1\n    burst: 1\n",
        )
        .unwrap();
        let state = ServeState::new(
            &service,
            &telemetry,
            registry,
            DEFAULT_MAX_LIVE_SESSIONS,
            None,
            crate::state::DEFAULT_CHECKPOINT_EVERY,
        );
        let first = route(
            &state,
            &keyed_request("GET", "/api/v1/scenarios", "kr", b""),
        );
        assert_eq!(first.status, 200, "{}", first.body);
        let limited = route(
            &state,
            &keyed_request("GET", "/api/v1/scenarios", "kr", b""),
        );
        let doc = assert_problem(&limited, 429);
        assert!(field(&doc, "detail")
            .as_str()
            .unwrap()
            .contains("rate limit"));
        let retry: u64 = limited.header("Retry-After").unwrap().parse().unwrap();
        assert!(retry >= 1);
        // Operator endpoints are exempt from tenant rate limits.
        assert_eq!(
            route(&state, &request("GET", "/api/v1/healthz", b"")).status,
            200
        );
        assert_eq!(
            route(&state, &request("GET", "/api/v1/metrics", b"")).status,
            200
        );
    }

    #[test]
    fn global_watermark_saturates_with_503() {
        let service = EvalService::with_threads(1);
        let telemetry = ServeTelemetry::quiet();
        let state = ServeState::new(
            &service,
            &telemetry,
            TenantRegistry::single_anonymous(),
            1,
            None,
            crate::state::DEFAULT_CHECKPOINT_EVERY,
        );
        route(&state, &request("POST", "/scenarios", &chatbot_yaml()));
        let first = route(
            &state,
            &request(
                "POST",
                "/api/v1/sessions",
                b"{\"scenario\": \"chatbot\", \"method\": \"random\"}",
            ),
        );
        assert_eq!(first.status, 201, "{}", first.body);
        let saturated = route(
            &state,
            &request(
                "POST",
                "/api/v1/sessions",
                b"{\"scenario\": \"chatbot\", \"method\": \"random\"}",
            ),
        );
        let doc = assert_problem(&saturated, 503);
        assert!(field(&doc, "detail")
            .as_str()
            .unwrap()
            .contains("watermark"));
        assert_eq!(saturated.header("Retry-After"), Some("1"));
        // Draining the one live session frees the watermark.
        route(&state, &request("POST", "/api/v1/sessions/1/cancel", b""));
        drain_sessions(&state);
        let again = route(
            &state,
            &request(
                "POST",
                "/api/v1/sessions",
                b"{\"scenario\": \"chatbot\", \"method\": \"random\"}",
            ),
        );
        assert_eq!(again.status, 201, "{}", again.body);
        route(&state, &request("POST", "/api/v1/sessions/2/cancel", b""));
        drain_sessions(&state);
    }

    #[test]
    fn unknown_sessions_scenarios_and_routes_are_404() {
        let service = EvalService::with_threads(1);
        let telemetry = ServeTelemetry::quiet();
        let state = anonymous_state(&service, &telemetry);
        assert_eq!(
            route(&state, &request("GET", "/sessions/7", b"")).status,
            404
        );
        assert_eq!(
            route(&state, &request("GET", "/sessions/7/report", b"")).status,
            404
        );
        assert_eq!(
            route(
                &state,
                &request("POST", "/sessions", b"{\"scenario\": \"ghost\"}")
            )
            .status,
            404
        );
        assert_eq!(route(&state, &request("GET", "/nope", b"")).status, 404);
        assert_eq!(
            route(&state, &request("PUT", "/scenarios", b"")).status,
            405
        );
        assert_eq!(
            route(&state, &request("GET", "/sessions/abc", b"")).status,
            400
        );
    }

    #[test]
    fn pause_cancel_and_delete_conflicts() {
        let service = EvalService::with_threads(1);
        let telemetry = ServeTelemetry::quiet();
        let state = anonymous_state(&service, &telemetry);
        route(&state, &request("POST", "/scenarios", &chatbot_yaml()));
        let started = route(
            &state,
            &request(
                "POST",
                "/sessions",
                b"{\"scenario\": \"chatbot\", \"method\": \"random\"}",
            ),
        );
        assert_eq!(started.status, 201, "{}", started.body);

        // Pause before any scheduling: the session must report paused and
        // deleting its scenario must conflict.
        let paused = route(&state, &request("POST", "/sessions/1/pause", b""));
        assert_eq!(paused.status, 200);
        assert!(paused.body.contains("\"paused\""), "{}", paused.body);
        let conflict = route(&state, &request("DELETE", "/scenarios/chatbot", b""));
        assert_problem(&conflict, 409);
        // A paused session does not advance.
        drain_sessions(&state);
        let status = route(&state, &request("GET", "/sessions/1", b""));
        assert!(status.body.contains("\"paused\""), "{}", status.body);

        // Cancel finishes it with the cancelled phase; its report is 409.
        let cancelled = route(&state, &request("POST", "/sessions/1/cancel", b""));
        assert_eq!(cancelled.status, 200);
        drain_sessions(&state);
        let status = route(&state, &request("GET", "/sessions/1", b""));
        assert!(status.body.contains("\"cancelled\""), "{}", status.body);
        assert_problem(
            &route(&state, &request("GET", "/sessions/1/report", b"")),
            409,
        );
        // Controls on a terminal session conflict.
        assert_problem(
            &route(&state, &request("POST", "/sessions/1/resume", b"")),
            409,
        );
        // With the session terminal, the scenario can be deleted.
        assert_eq!(
            route(&state, &request("DELETE", "/scenarios/chatbot", b"")).status,
            200
        );
    }

    #[test]
    fn sessions_can_start_directly_paused_and_resume() {
        let service = EvalService::with_threads(1);
        let telemetry = ServeTelemetry::quiet();
        let state = anonymous_state(&service, &telemetry);
        route(&state, &request("POST", "/scenarios", &chatbot_yaml()));
        let started = route(
            &state,
            &request(
                "POST",
                "/sessions",
                b"{\"scenario\": \"chatbot\", \"paused\": true}",
            ),
        );
        assert_eq!(started.status, 201, "{}", started.body);
        assert!(started.body.contains("\"paused\""), "{}", started.body);
        // A held session never advances on its own...
        drain_sessions(&state);
        let status = route(&state, &request("GET", "/sessions/1", b""));
        assert!(status.body.contains("\"paused\""), "{}", status.body);
        let paused = route(&state, &request("GET", "/metrics", b"")).body;
        assert!(
            paused.contains("aarc_session_rounds{session=\"1\",")
                && paused.contains(",state=\"paused\","),
            "{paused}"
        );
        // ...but still counts as live: its scenario cannot be deleted.
        assert_problem(
            &route(&state, &request("DELETE", "/scenarios/chatbot", b"")),
            409,
        );
        // Resume runs it to completion like any other session.
        let resumed = route(&state, &request("POST", "/sessions/1/resume", b""));
        assert_eq!(resumed.status, 200, "{}", resumed.body);
        drain_sessions(&state);
        let status = route(&state, &request("GET", "/sessions/1", b""));
        assert!(status.body.contains("\"finished\""), "{}", status.body);
        // Session series are rebuilt per scrape: the finished session's
        // series carry its new state and none of the paused one is left.
        let finished = route(&state, &request("GET", "/metrics", b"")).body;
        let series: Vec<&str> = finished
            .lines()
            .filter(|l| l.starts_with("aarc_session_") && l.contains("{session=\"1\","))
            .collect();
        assert_eq!(series.len(), 4, "{finished}");
        assert!(
            series.iter().all(|l| l.contains(",state=\"finished\",")),
            "{series:?}"
        );
        assert!(!finished.contains("state=\"paused\""), "{finished}");
    }

    #[test]
    fn metrics_exposes_service_session_and_tenant_series() {
        let service = EvalService::with_threads(1);
        let telemetry = ServeTelemetry::quiet();
        let state = anonymous_state(&service, &telemetry);
        route(&state, &request("POST", "/scenarios", &chatbot_yaml()));
        route(
            &state,
            &request("POST", "/sessions", b"{\"scenario\": \"chatbot\"}"),
        );
        drain_sessions(&state);
        let metrics = route(&state, &request("GET", "/metrics", b""));
        assert_eq!(metrics.status, 200);
        for needle in [
            "aarc_eval_requests_total ",
            "aarc_eval_cache_hits_total ",
            "aarc_eval_cached_entries ",
            "aarc_eval_inflight ",
            "aarc_eval_inflight_peak ",
            "aarc_admission_max_live_sessions ",
            "aarc_scenarios 1",
            "aarc_sessions_total 1",
            "aarc_tenant_scenarios{tenant=\"anonymous\"} 1",
            "aarc_tenant_sessions_live{tenant=\"anonymous\"} 0",
            "aarc_tenant_eval_requests_total{tenant=\"anonymous\"}",
            "aarc_tenant_http_requests_total{tenant=\"anonymous\"}",
            "aarc_session_rounds{session=\"1\"",
            "aarc_session_incumbent_cost{",
            "tenant=\"anonymous\"} ",
        ] {
            assert!(
                metrics.body.contains(needle),
                "missing `{needle}` in:\n{}",
                metrics.body
            );
        }
        // Session series put the session label first (the CI smoke greps
        // for it) and the tenant label last.
        let line = metrics
            .body
            .lines()
            .find(|l| l.starts_with("aarc_session_rounds{"))
            .unwrap();
        assert!(
            line.starts_with("aarc_session_rounds{session=\"1\","),
            "{line}"
        );
        assert!(line.contains(",tenant=\"anonymous\"}"), "{line}");
    }

    /// Per-tenant eval counters keep the totals of a deleted scenario,
    /// like the service-wide `aarc_eval_requests_total` does.
    #[test]
    fn tenant_eval_counters_survive_scenario_deletion() {
        let service = EvalService::with_threads(1);
        let telemetry = ServeTelemetry::quiet();
        let state = anonymous_state(&service, &telemetry);
        route(&state, &request("POST", "/scenarios", &chatbot_yaml()));
        // The second, identical search is answered from the memo-cache.
        for _ in 0..2 {
            route(
                &state,
                &request(
                    "POST",
                    "/sessions",
                    b"{\"scenario\": \"chatbot\", \"method\": \"random\"}",
                ),
            );
            drain_sessions(&state);
        }
        let sample = |body: &str, series: &str| -> u64 {
            body.lines()
                .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
                .unwrap_or_else(|| panic!("missing `{series}` in:\n{body}"))
                .parse()
                .unwrap()
        };
        let series = [
            "aarc_eval_requests_total",
            "aarc_tenant_eval_requests_total{tenant=\"anonymous\"}",
            "aarc_tenant_eval_cache_hits_total{tenant=\"anonymous\"}",
        ];
        let before = route(&state, &request("GET", "/metrics", b"")).body;
        let before: Vec<u64> = series.iter().map(|s| sample(&before, s)).collect();
        assert!(before[2] > 0, "the second session hit the cache");
        assert_eq!(before[0], before[1], "one tenant owns all eval traffic");
        let deleted = route(&state, &request("DELETE", "/scenarios/chatbot", b""));
        assert_eq!(deleted.status, 200, "{}", deleted.body);
        let after = route(&state, &request("GET", "/metrics", b"")).body;
        assert!(
            after.contains("aarc_eval_scenarios_registered 0\n"),
            "{after}"
        );
        let after: Vec<u64> = series.iter().map(|s| sample(&after, s)).collect();
        assert_eq!(after, before);
    }

    #[test]
    fn version_endpoint_reports_build_provenance() {
        let service = EvalService::with_threads(1);
        let telemetry = ServeTelemetry::quiet();
        let state = anonymous_state(&service, &telemetry);
        let reply = route(&state, &request("GET", "/version", b""));
        assert_eq!(reply.status, 200, "{}", reply.body);
        let info: VersionInfo = serde_json::from_str(&reply.body).unwrap();
        assert_eq!(info.name, "aarc");
        assert_eq!(info, VersionInfo::current());
        // Wrong method on /version is 405, not 404.
        assert_eq!(route(&state, &request("POST", "/version", b"")).status, 405);
    }

    #[test]
    fn debug_events_serves_the_flight_recorder_tail() {
        let service = EvalService::with_threads(1);
        let telemetry = ServeTelemetry::quiet();
        let state = anonymous_state(&service, &telemetry);
        route(&state, &request("POST", "/scenarios", &chatbot_yaml()));
        route(
            &state,
            &request(
                "POST",
                "/sessions",
                b"{\"scenario\": \"chatbot\", \"method\": \"random\"}",
            ),
        );
        drain_sessions(&state);

        let reply = route(&state, &request("GET", "/debug/events", b""));
        assert_eq!(reply.status, 200, "{}", reply.body);
        let doc = serde_json::parse(&reply.body).unwrap();
        assert_eq!(uint(field(&doc, "capacity")) as usize, FLIGHT_CAPACITY);
        assert!(uint(field(&doc, "total")) > 0);
        let events = field(&doc, "events").as_seq().unwrap();
        assert!(!events.is_empty());
        let kinds: Vec<&str> = events
            .iter()
            .map(|e| field(e, "kind").as_str().unwrap())
            .collect();
        assert!(kinds.contains(&"scenario_registered"), "{kinds:?}");
        assert!(kinds.contains(&"session_started"), "{kinds:?}");
        assert!(kinds.contains(&"session_finished"), "{kinds:?}");
        // Events arrive oldest first with strictly increasing sequence
        // numbers.
        let seqs: Vec<u64> = events.iter().map(|e| uint(field(e, "seq"))).collect();
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1), "{seqs:?}");

        let limited = route(&state, &request("GET", "/debug/events?limit=2", b""));
        let doc = serde_json::parse(&limited.body).unwrap();
        let tail = field(&doc, "events").as_seq().unwrap();
        assert_eq!(tail.len(), 2);
        // The limited reply is the TAIL: its last event matches the
        // unlimited reply's last event.
        assert_eq!(
            uint(field(tail.last().unwrap(), "seq")),
            *seqs.last().unwrap()
        );

        let bad = route(&state, &request("GET", "/debug/events?limit=many", b""));
        assert_problem(&bad, 400);
    }

    #[test]
    fn session_trace_returns_per_round_convergence() {
        let service = EvalService::with_threads(1);
        let telemetry = ServeTelemetry::quiet();
        let state = anonymous_state(&service, &telemetry);
        route(&state, &request("POST", "/scenarios", &chatbot_yaml()));
        route(
            &state,
            &request("POST", "/sessions", b"{\"scenario\": \"chatbot\"}"),
        );
        assert_eq!(
            route(&state, &request("GET", "/sessions/9/trace", b"")).status,
            404
        );
        drain_sessions(&state);

        let reply = route(&state, &request("GET", "/sessions/1/trace", b""));
        assert_eq!(reply.status, 200, "{}", reply.body);
        let doc = serde_json::parse(&reply.body).unwrap();
        assert_eq!(uint(field(&doc, "id")), 1);
        assert_eq!(field(&doc, "scenario").as_str(), Some("chatbot"));
        assert_eq!(field(&doc, "state").as_str(), Some("finished"));
        let rounds = field(&doc, "rounds").as_seq().unwrap();
        assert!(!rounds.is_empty(), "finished session has a trace");
        // Rounds are strictly increasing, evals non-decreasing, and the
        // last point agrees with the session's final progress.
        let progress = {
            let sessions = state.sessions.lock().unwrap();
            sessions[&1].progress.clone()
        };
        let last = rounds.last().unwrap();
        assert_eq!(uint(field(last, "round")), progress.rounds);
        assert_eq!(uint(field(last, "evals")), progress.evals);
        assert!(
            !matches!(field(last, "incumbent_cost"), serde::Value::Null),
            "final point carries the incumbent"
        );
        for pair in rounds.windows(2) {
            assert!(uint(field(&pair[0], "round")) < uint(field(&pair[1], "round")));
            assert!(uint(field(&pair[0], "evals")) <= uint(field(&pair[1], "evals")));
        }
    }

    /// Validates the full text exposition: every sample belongs to a
    /// family announced by exactly one `# HELP` + `# TYPE` pair, family
    /// samples are consecutive, histogram buckets are cumulative with
    /// `+Inf` equal to `_count`, and the latency histograms of the
    /// telemetry recorder are present.
    #[test]
    fn metrics_exposition_is_well_formed() {
        let service = EvalService::with_threads(1);
        let telemetry = ServeTelemetry::quiet();
        service
            .attach_telemetry(telemetry.eval_telemetry())
            .unwrap();
        let state = anonymous_state(&service, &telemetry);
        route(&state, &request("POST", "/scenarios", &chatbot_yaml()));
        route(
            &state,
            &request("POST", "/sessions", b"{\"scenario\": \"chatbot\"}"),
        );
        drain_sessions(&state);
        let metrics = route(&state, &request("GET", "/metrics", b""));
        assert_eq!(metrics.status, 200);
        let body = &metrics.body;

        let mut types: std::collections::BTreeMap<String, String> = Default::default();
        let mut helps: std::collections::BTreeSet<String> = Default::default();
        for line in body.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split(' ');
                let (name, kind) = (it.next().unwrap(), it.next().unwrap());
                assert!(
                    types.insert(name.to_owned(), kind.to_owned()).is_none(),
                    "duplicate TYPE for {name}"
                );
            } else if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split(' ').next().unwrap();
                assert!(helps.insert(name.to_owned()), "duplicate HELP for {name}");
            }
        }
        assert_eq!(
            types.keys().collect::<Vec<_>>(),
            helps.iter().collect::<Vec<_>>(),
            "every TYPE has a HELP and vice versa"
        );

        // Resolve each sample line to its family; histogram samples use
        // the _bucket/_sum/_count suffixes of the family name.
        let family_of = |sample_name: &str| -> String {
            for suffix in ["_bucket", "_sum", "_count"] {
                if let Some(base) = sample_name.strip_suffix(suffix) {
                    if types.get(base).map(String::as_str) == Some("histogram") {
                        return base.to_owned();
                    }
                }
            }
            sample_name.to_owned()
        };
        let mut order: Vec<String> = Vec::new();
        let mut bucket_runs: std::collections::BTreeMap<String, Vec<(f64, u64)>> =
            Default::default();
        let mut counts: std::collections::BTreeMap<String, u64> = Default::default();
        for line in body
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let name_end = line.find(['{', ' ']).unwrap();
            let name = &line[..name_end];
            let family = family_of(name);
            assert!(
                types.contains_key(&family),
                "sample `{name}` has no TYPE header"
            );
            if order.last() != Some(&family) {
                assert!(
                    !order.contains(&family),
                    "family {family} samples are not consecutive"
                );
                order.push(family.clone());
            }
            let value = line.rsplit(' ').next().unwrap();
            if name.ends_with("_bucket") && types[&family] == "histogram" {
                let le = line
                    .split("le=\"")
                    .nth(1)
                    .and_then(|s| s.split('"').next())
                    .expect("bucket has le label");
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse::<f64>().unwrap()
                };
                bucket_runs
                    .entry(family.clone())
                    .or_default()
                    .push((bound, value.parse().unwrap()));
            } else if name.ends_with("_count") && types[&family] == "histogram" {
                counts.insert(family.clone(), value.parse().unwrap());
            }
        }

        let histogram_families: Vec<&String> = types
            .iter()
            .filter(|(_, kind)| *kind == "histogram")
            .map(|(name, _)| name)
            .collect();
        assert!(
            histogram_families.len() >= 3,
            "expected at least 3 histogram families, got {histogram_families:?}"
        );
        for family in &histogram_families {
            let buckets = &bucket_runs[*family];
            assert!(
                buckets
                    .windows(2)
                    .all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1),
                "{family} buckets must be cumulative with increasing bounds"
            );
            let (last_bound, last_value) = *buckets.last().unwrap();
            assert!(last_bound.is_infinite(), "{family} is missing +Inf");
            assert_eq!(last_value, counts[*family], "{family} +Inf != _count");
        }
        // The session actually recorded into the eval histograms (the
        // method decides whether it probes or batches, so accept either).
        assert!(counts["aarc_eval_batch_seconds"] + counts["aarc_eval_probe_seconds"] > 0);
        assert!(body.contains("aarc_kernel_simulations_total "));
        assert!(body.contains("aarc_build_info{"));
        assert!(body.contains("aarc_session_rounds{session=\"1\""));
        assert!(body.contains("aarc_tenant_eval_requests_total{tenant=\"anonymous\"}"));
    }

    #[test]
    fn shutdown_blocks_admission_and_cancels_paused_sessions() {
        let service = EvalService::with_threads(1);
        let telemetry = ServeTelemetry::quiet();
        let state = anonymous_state(&service, &telemetry);
        route(&state, &request("POST", "/scenarios", &chatbot_yaml()));
        route(
            &state,
            &request("POST", "/sessions", b"{\"scenario\": \"chatbot\"}"),
        );
        route(&state, &request("POST", "/sessions/1/pause", b""));

        let reply = route(&state, &request("POST", "/shutdown", b""));
        assert_eq!(reply.status, 200);
        assert!(reply.body.contains("\"draining\""));
        let refused = route(&state, &request("POST", "/scenarios", &chatbot_yaml()));
        assert_problem(&refused, 503);
        assert_eq!(refused.header("Retry-After"), Some("1"));
        let refused = route(
            &state,
            &request("POST", "/sessions", b"{\"scenario\": \"chatbot\"}"),
        );
        let doc = assert_problem(&refused, 503);
        assert!(field(&doc, "detail")
            .as_str()
            .unwrap()
            .contains("shutting down"));
        // The paused session was marked for cancellation so the drain
        // completes.
        drain_sessions(&state);
        assert!(state.drained());
    }

    #[test]
    fn pause_after_shutdown_cannot_stall_the_drain() {
        let service = EvalService::with_threads(1);
        let telemetry = ServeTelemetry::quiet();
        let state = anonymous_state(&service, &telemetry);
        route(&state, &request("POST", "/scenarios", &chatbot_yaml()));
        route(
            &state,
            &request("POST", "/sessions", b"{\"scenario\": \"chatbot\"}"),
        );
        route(&state, &request("POST", "/shutdown", b""));
        // A pause landing after /shutdown is refused outright — it would
        // park the session and the daemon would never exit.
        let late_pause = route(&state, &request("POST", "/sessions/1/pause", b""));
        assert_problem(&late_pause, 503);
        // Even a pause that slipped in as a pending flag (e.g. while the
        // scheduler held the session) is converted to a cancellation by
        // the scheduler's shutdown sweep.
        {
            let mut sessions = state.sessions.lock().unwrap();
            sessions.get_mut(&1).unwrap().want_pause = true;
        }
        {
            let mut sessions = state.sessions.lock().unwrap();
            for slot in sessions.values_mut() {
                apply_controls_with_shutdown(slot, state.shutting_down());
            }
        }
        drain_sessions(&state);
        assert!(state.drained(), "pending pause must not park the session");
    }

    // -----------------------------------------------------------------
    // Durable state: WAL replay, checkpoints, crash recovery
    // -----------------------------------------------------------------

    /// A fresh, unique state directory for one persistence test.
    fn temp_state_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("aarc-serve-state-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// An anonymous-tenant state persisting into `dir`.
    fn persisted_state<'s>(
        service: &'s EvalService,
        telemetry: &'s ServeTelemetry,
        dir: &std::path::Path,
        checkpoint_every: u64,
    ) -> ServeState<'s> {
        ServeState::new(
            service,
            telemetry,
            TenantRegistry::single_anonymous(),
            DEFAULT_MAX_LIVE_SESSIONS,
            Some(StateDir::open(dir).unwrap()),
            checkpoint_every,
        )
    }

    /// Steps session `id` exactly `rounds` rounds (it must not finish),
    /// mirroring one scheduler round per step.
    fn step_rounds(state: &ServeState<'_>, id: u64, rounds: u64) {
        for _ in 0..rounds {
            let mut session = {
                let mut sessions = state.sessions.lock().unwrap();
                sessions.get_mut(&id).unwrap().session.take().unwrap()
            };
            let st = session.step();
            let mut sessions = state.sessions.lock().unwrap();
            let slot = sessions.get_mut(&id).unwrap();
            slot.progress = session.progress().clone();
            slot.trace
                .extend_from_slice(&session.convergence()[slot.trace.len()..]);
            assert_eq!(st, SessionState::Running, "session finished prematurely");
            slot.session = Some(session);
        }
    }

    #[test]
    fn tenant_routes_answer_503_while_recovering() {
        let dir = temp_state_dir("recovering-gate");
        let service = EvalService::with_threads(1);
        let telemetry = ServeTelemetry::quiet();
        let state = persisted_state(&service, &telemetry, &dir, 4);

        // Recovery has not run yet: tenant routes hold with a retryable
        // problem, operator endpoints stay up.
        let refused = route(&state, &request("GET", "/api/v1/scenarios", b""));
        let doc = assert_problem(&refused, 503);
        assert!(
            field(&doc, "type")
                .as_str()
                .unwrap()
                .ends_with("/recovering"),
            "{}",
            refused.body
        );
        assert_eq!(refused.header("Retry-After"), Some("1"));
        assert_eq!(route(&state, &request("GET", "/healthz", b"")).status, 200);
        let status = route(&state, &request("GET", "/api/v1/recovery", b""));
        assert_eq!(status.status, 200);
        assert!(status.body.contains("\"enabled\": true"), "{}", status.body);
        assert!(
            status.body.contains("\"in_progress\": true"),
            "{}",
            status.body
        );

        run_recovery(&state);
        assert!(!state.recovering());
        let listed = route(&state, &request("GET", "/api/v1/scenarios", b""));
        assert_eq!(listed.status, 200, "{}", listed.body);
        let status = route(&state, &request("GET", "/api/v1/recovery", b""));
        assert!(
            status.body.contains("\"in_progress\": false"),
            "{}",
            status.body
        );
        assert!(status.body.contains("\"report\""), "{}", status.body);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_endpoint_reports_disabled_without_state_dir() {
        let service = EvalService::with_threads(1);
        let telemetry = ServeTelemetry::quiet();
        let state = anonymous_state(&service, &telemetry);
        assert!(!state.recovering(), "no state dir, nothing to recover");
        let status = route(&state, &request("GET", "/api/v1/recovery", b""));
        assert_eq!(status.status, 200);
        assert!(
            status.body.contains("\"enabled\": false"),
            "{}",
            status.body
        );
        assert!(status.body.contains("\"report\": null"), "{}", status.body);
    }

    #[test]
    fn registry_wal_survives_restart_and_deletes_stay_deleted() {
        let dir = temp_state_dir("wal-restart");
        let service = EvalService::with_threads(1);
        let telemetry = ServeTelemetry::quiet();
        {
            let state = persisted_state(&service, &telemetry, &dir, 4);
            run_recovery(&state);
            let created = route(&state, &request("POST", "/scenarios", &chatbot_yaml()));
            assert_eq!(created.status, 201, "{}", created.body);
            // Simulated kill -9: the state is dropped without shutdown.
        }
        let state = persisted_state(&service, &telemetry, &dir, 4);
        run_recovery(&state);
        let report = state.recovery.lock().unwrap().clone().unwrap();
        assert_eq!(report.scenarios_recovered, 1, "{report:?}");
        assert!(report.quarantined.is_empty(), "{report:?}");
        let listed = route(&state, &request("GET", "/scenarios", b""));
        assert!(listed.body.contains("chatbot"), "{}", listed.body);

        // A durable delete must never resurrect.
        let deleted = route(&state, &request("DELETE", "/scenarios/chatbot", b""));
        assert_eq!(deleted.status, 200, "{}", deleted.body);
        drop(state);
        let state = persisted_state(&service, &telemetry, &dir, 4);
        run_recovery(&state);
        let report = state.recovery.lock().unwrap().clone().unwrap();
        assert_eq!(report.scenarios_recovered, 0, "{report:?}");
        let listed = route(&state, &request("GET", "/scenarios", b""));
        let doc = serde_json::parse(&listed.body).unwrap();
        assert_eq!(uint(field(&doc, "total")), 0, "{}", listed.body);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn killed_session_resumes_bit_identical_after_restart() {
        let service = EvalService::with_threads(2);
        let telemetry = ServeTelemetry::quiet();
        // The uninterrupted reference run, no persistence involved.
        let reference = {
            let state = anonymous_state(&service, &telemetry);
            route(&state, &request("POST", "/scenarios", &chatbot_yaml()));
            route(
                &state,
                &request("POST", "/sessions", b"{\"scenario\": \"chatbot\"}"),
            );
            drain_sessions(&state);
            let report = route(&state, &request("GET", "/sessions/1/report", b""));
            assert_eq!(report.status, 200, "{}", report.body);
            report.body
        };

        // The interrupted run: a few rounds, a checkpoint, then a
        // simulated kill -9 (drop without shutdown).
        let dir = temp_state_dir("resume");
        {
            let state = persisted_state(&service, &telemetry, &dir, 4);
            run_recovery(&state);
            route(&state, &request("POST", "/scenarios", &chatbot_yaml()));
            route(
                &state,
                &request("POST", "/sessions", b"{\"scenario\": \"chatbot\"}"),
            );
            step_rounds(&state, 1, 3);
            let checkpoint = {
                let sessions = state.sessions.lock().unwrap();
                checkpoint_of(&state, &sessions[&1])
            };
            write_checkpoint(&state, &checkpoint);
        }

        // Restart: the session is resumed by deterministic replay and,
        // run to completion, must reproduce the uninterrupted bytes.
        let state = persisted_state(&service, &telemetry, &dir, 4);
        run_recovery(&state);
        let report = state.recovery.lock().unwrap().clone().unwrap();
        assert_eq!(report.sessions_resumed, 1, "{report:?}");
        assert!(report.quarantined.is_empty(), "{report:?}");
        {
            let sessions = state.sessions.lock().unwrap();
            let slot = &sessions[&1];
            assert_eq!(slot.phase, Phase::Running);
            assert_eq!(slot.progress.rounds, 3, "resumed at the checkpoint");
        }
        drain_sessions(&state);
        let resumed = route(&state, &request("GET", "/sessions/1/report", b""));
        assert_eq!(resumed.status, 200, "{}", resumed.body);
        assert_eq!(
            resumed.body, reference,
            "resumed session must be byte-identical to the uninterrupted run"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn finished_sessions_are_restored_without_replay() {
        let dir = temp_state_dir("restore-terminal");
        let service = EvalService::with_threads(1);
        let telemetry = ServeTelemetry::quiet();
        let reference = {
            let state = persisted_state(&service, &telemetry, &dir, 4);
            run_recovery(&state);
            route(&state, &request("POST", "/scenarios", &chatbot_yaml()));
            route(
                &state,
                &request("POST", "/sessions", b"{\"scenario\": \"chatbot\"}"),
            );
            drain_sessions(&state);
            // The terminal checkpoint the scheduler (or the final drain
            // flush) would write.
            let checkpoint = {
                let sessions = state.sessions.lock().unwrap();
                checkpoint_of(&state, &sessions[&1])
            };
            write_checkpoint(&state, &checkpoint);
            route(&state, &request("GET", "/sessions/1/report", b"")).body
        };
        let state = persisted_state(&service, &telemetry, &dir, 4);
        run_recovery(&state);
        let report = state.recovery.lock().unwrap().clone().unwrap();
        assert_eq!(report.sessions_restored, 1, "{report:?}");
        assert_eq!(report.sessions_resumed, 0, "{report:?}");
        let restored = route(&state, &request("GET", "/sessions/1/report", b""));
        assert_eq!(restored.status, 200, "{}", restored.body);
        assert_eq!(restored.body, reference, "restored report bytes");
        // A new session must not collide with the recovered id.
        let started = route(
            &state,
            &request("POST", "/sessions", b"{\"scenario\": \"chatbot\"}"),
        );
        assert_eq!(started.status, 201, "{}", started.body);
        assert!(started.body.contains("\"id\": 2"), "{}", started.body);
        drain_sessions(&state);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_state_files_are_quarantined_never_fatal() {
        let dir = temp_state_dir("corrupt");
        std::fs::create_dir_all(dir.join("checkpoints")).unwrap();
        std::fs::write(dir.join("checkpoints/session-0000000001.json"), b"{ torn").unwrap();
        std::fs::write(dir.join("checkpoints/session-0000000002.json"), b"").unwrap();
        std::fs::write(dir.join("registry.snapshot"), b"not json at all").unwrap();
        std::fs::write(dir.join("registry.wal"), b"garbage line\n").unwrap();

        let service = EvalService::with_threads(1);
        let telemetry = ServeTelemetry::quiet();
        let state = persisted_state(&service, &telemetry, &dir, 4);
        run_recovery(&state);
        assert!(!state.recovering(), "recovery must complete");
        let report = state.recovery.lock().unwrap().clone().unwrap();
        assert_eq!(report.wal_lines_dropped, 1, "{report:?}");
        // The snapshot and both checkpoints are quarantined, with the
        // files moved out of the live layout.
        assert_eq!(report.quarantined.len(), 3, "{report:?}");
        assert!(!dir.join("checkpoints/session-0000000001.json").exists());
        assert!(dir.join("quarantine").read_dir().unwrap().count() >= 3);

        // Damage is degradation, not death: the daemon serves normally
        // and reports what it set aside.
        let created = route(&state, &request("POST", "/scenarios", &chatbot_yaml()));
        assert_eq!(created.status, 201, "{}", created.body);
        let status = route(&state, &request("GET", "/api/v1/recovery", b""));
        assert!(status.body.contains("\"quarantined\""), "{}", status.body);
        let metrics = route(&state, &request("GET", "/metrics", b"")).body;
        assert!(
            metrics.contains("aarc_recovery_files_quarantined 3"),
            "recovery metrics must expose the damage"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shutdown_is_idempotent_and_flushes_live_checkpoints() {
        let dir = temp_state_dir("shutdown-flush");
        let service = EvalService::with_threads(1);
        let telemetry = ServeTelemetry::quiet();
        let state = persisted_state(&service, &telemetry, &dir, 1_000_000);
        run_recovery(&state);
        route(&state, &request("POST", "/scenarios", &chatbot_yaml()));
        route(
            &state,
            &request("POST", "/sessions", b"{\"scenario\": \"chatbot\"}"),
        );
        // The cadence is huge, so nothing has been checkpointed yet.
        step_rounds(&state, 1, 2);
        assert!(!dir.join("checkpoints/session-0000000001.json").exists());

        let first = route(&state, &request("POST", "/shutdown", b""));
        assert_eq!(first.status, 200, "{}", first.body);
        assert!(first.body.contains("\"draining\": 1"), "{}", first.body);
        // Shutdown flushed the live session's checkpoint.
        assert!(dir.join("checkpoints/session-0000000001.json").exists());
        // A retrying supervisor gets 200 again, never an error.
        let second = route(&state, &request("POST", "/shutdown", b""));
        assert_eq!(second.status, 200, "{}", second.body);
        drain_sessions(&state);
        assert!(state.drained());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shutdown_during_a_drain_leaves_terminal_checkpoints() {
        let dir = temp_state_dir("shutdown-drain");
        let service = EvalService::with_threads(1);
        let telemetry = ServeTelemetry::quiet();
        // A checkpoint every round, so the scheduler's writes and the
        // shutdown flushes race on every step.
        let state = persisted_state(&service, &telemetry, &dir, 1);
        run_recovery(&state);
        route(&state, &request("POST", "/scenarios", &chatbot_yaml()));
        for _ in 0..3 {
            let started = route(
                &state,
                &request("POST", "/sessions", b"{\"scenario\": \"chatbot\"}"),
            );
            assert_eq!(started.status, 201, "{}", started.body);
        }
        std::thread::scope(|scope| {
            let state = &state;
            scope.spawn(move || scheduler_loop(state));
            // Every repeated shutdown flushes the live sessions' checkpoints
            // while the scheduler keeps stepping and finishing them.
            while !state.drained() {
                let reply = route(state, &request("POST", "/shutdown", b""));
                assert_eq!(reply.status, 200, "{}", reply.body);
            }
        });
        // No late flush of a live session replaced its terminal checkpoint.
        let sessions = state.sessions.lock().unwrap();
        assert_eq!(sessions.len(), 3);
        for (id, slot) in sessions.iter() {
            let path = dir.join(format!("checkpoints/session-{id:010}.json"));
            let text = std::fs::read_to_string(&path).unwrap();
            let checkpoint: SessionCheckpoint = serde_json::from_str(&text).unwrap();
            assert_eq!(checkpoint.phase, "finished", "session {id}");
            assert_eq!(checkpoint.rounds, slot.progress.rounds, "session {id}");
            assert!(checkpoint.report_json.is_some(), "session {id}");
        }
        drop(sessions);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_omit_recovery_families_without_state_dir() {
        let service = EvalService::with_threads(1);
        let telemetry = ServeTelemetry::quiet();
        let state = anonymous_state(&service, &telemetry);
        let metrics = route(&state, &request("GET", "/metrics", b"")).body;
        assert!(
            !metrics.contains("aarc_recovery_"),
            "recovery families must not appear without --state-dir"
        );
    }
}
