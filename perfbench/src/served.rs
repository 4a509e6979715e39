//! The served workload: the release `aarc serve` daemon with a fresh
//! `--state-dir`, driven over loopback by closed-loop HTTP clients.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aarc_core::ConfigurationReport;
use aarc_simulator::EvalService;

use crate::corpus::{self, Corpus, Item, Kind};
use crate::offline::{self, Outcomes, Prepared};
use crate::stats::{median_of, Rng, Samples};
use crate::trace::{by_name, Tracer};
use crate::{peak_rss_mb, zero_layers, Args, Report};

/// Closed-loop clients (each waits for its reply before the next request).
const CLIENTS: u64 = 2;
/// Daemon lifetimes (epochs) of an untraced run. Each epoch starts a fresh
/// daemon on a fresh `--state-dir`, uploads the corpus (its set-up, which
/// writes the WAL), serves a fixed number of sessions and shuts the daemon
/// down. Every end-to-end figure is the median over the epochs. The daemon
/// keeps every finished session and walks all of them in each scheduler
/// round and each `/metrics` scrape, so its request times grow with the
/// sessions it has served. A fixed count per epoch gives every epoch the
/// same growth whatever the host's speed (a fixed time did not: session p99
/// rose from 21 ms in the first 10 s of a run to 30 ms in the last), and
/// the median drops an epoch that a passing host disturbance slowed.
const EPOCHS: usize = 3;
/// Sessions an epoch serves per second of `--seconds`, so that an epoch
/// lasts about `--seconds / EPOCHS` at the ≈110 sessions/s the two clients
/// reach on a 2-vCPU host. At 30 s an epoch serves 1,080 sessions, enough
/// for a p99 with 10 samples beyond it.
const SESSIONS_PER_SECOND: f64 = 108.0;
/// Session SLOs as multiples of an item's SLO: distinct SLOs make distinct
/// searches, so the distinct evaluations of a run outgrow the daemon's
/// memo-cache.
const SLO_FACTORS: [f64; 2] = [1.0, 1.25];
/// Sessions run over the corpus items of at most this many functions
/// (the committed specs and the two smallest synthetic cells). Their
/// searches finish within one or two 5 ms polls, so session times sit in
/// a few well-populated clusters and their median and tail hold still
/// across seeds; larger DAGs put a seed-dependent handful of long AARC
/// sessions in the tail.
const SESSION_MAX_FUNCTIONS: usize = 8;
/// The daemon's `--checkpoint-every`, a departure from its default of 8
/// (so checkpoint cost weighs about 4× less here). At 8 rounds the one
/// scheduler thread spends most of its time writing checkpoints (≈700
/// writes/s on a 2-vCPU host), sessions straddle poll clusters and their
/// p50 moves by 18% between seeds; every 64 rounds keeps the WAL and
/// checkpoints in the loop (≈170 writes/s) and the figures steady.
const CHECKPOINT_EVERY: u64 = 64;
const METHODS: [&str; 3] = ["aarc", "maff", "random"];
/// One in this many sessions repeats an earlier (scenario, class, method,
/// SLO) of the same client.
const REPEAT_ONE_IN: usize = 4;
/// Each client scrapes `/metrics` after every this-many sessions.
const SCRAPE_EVERY: u64 = 8;
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);
/// Scratch space for state directories, removed when the run ends.
const TMP_DIR: &str = ".perfbench_tmp";

/// Route span names with their per-layer p50 and p99 metric names.
const ROUTES: [(&str, &str, &str); 5] = [
    (
        "http.scenarios_post",
        "http.scenarios_post.ms_p50",
        "http.scenarios_post.ms_p99",
    ),
    (
        "http.sessions_post",
        "http.sessions_post.ms_p50",
        "http.sessions_post.ms_p99",
    ),
    (
        "http.session_get",
        "http.session_get.ms_p50",
        "http.session_get.ms_p99",
    ),
    (
        "http.report_get",
        "http.report_get.ms_p50",
        "http.report_get.ms_p99",
    ),
    (
        "http.metrics_get",
        "http.metrics_get.ms_p50",
        "http.metrics_get.ms_p99",
    ),
];

struct Reply {
    status: u16,
    body: String,
    total_ms: f64,
    first_byte_ms: f64,
}

/// One request per connection (`Connection: close`, the daemon's
/// contract); the body is sized by `Content-Length` and the reply read to
/// EOF.
fn http(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> Result<Reply, String> {
    let start = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT)
        .map_err(|e| format!("{method} {path}: connect: {e}"))?;
    stream
        .set_read_timeout(Some(REQUEST_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(REQUEST_TIMEOUT)))
        .map_err(|e| format!("{method} {path}: {e}"))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body))
        .map_err(|e| format!("{method} {path}: write: {e}"))?;
    let mut raw = Vec::with_capacity(4096);
    let mut chunk = [0u8; 8192];
    let mut first_byte_ms = None;
    loop {
        let n = stream
            .read(&mut chunk)
            .map_err(|e| format!("{method} {path}: read: {e}"))?;
        if n == 0 {
            break;
        }
        first_byte_ms.get_or_insert_with(|| start.elapsed().as_secs_f64() * 1e3);
        raw.extend_from_slice(&chunk[..n]);
    }
    let total_ms = start.elapsed().as_secs_f64() * 1e3;
    let text = String::from_utf8(raw).map_err(|_| format!("{method} {path}: non-UTF-8 reply"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: reply has no header end"))?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line"))?;
    Ok(Reply {
        status,
        body: body.to_owned(),
        total_ms,
        first_byte_ms: first_byte_ms.unwrap_or(total_ms),
    })
}

/// A running daemon whose stderr is drained by a thread for its whole
/// life (an undrained pipe would stall it).
struct Daemon {
    child: Child,
    addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
    stderr_tail: Arc<Mutex<VecDeque<String>>>,
}

impl Daemon {
    fn spawn(bin: &Path, threads: usize, state_dir: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--threads"])
            .arg(threads.to_string())
            .arg("--state-dir")
            .arg(state_dir)
            .args(["--log-level", "warn", "--checkpoint-every"])
            .arg(CHECKPOINT_EVERY.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let read = stderr.read_line(&mut line).unwrap_or(0);
            if read == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("daemon exited before listening".to_owned());
            }
            if let Some(rest) = line.trim().strip_prefix("aarc serve: listening on ") {
                let addr = rest.split(' ').next().unwrap_or_default();
                break addr
                    .parse::<SocketAddr>()
                    .map_err(|e| format!("bad listening line `{}`: {e}", line.trim()))?;
            }
        };
        let stderr_tail = Arc::new(Mutex::new(VecDeque::new()));
        let tail = Arc::clone(&stderr_tail);
        let drain = std::thread::spawn(move || {
            for line in stderr.lines().map_while(Result::ok) {
                let mut tail = tail.lock().expect("stderr tail lock");
                if tail.len() == 20 {
                    tail.pop_front();
                }
                tail.push_back(line);
            }
        });
        let daemon = Daemon {
            child,
            addr,
            drain: Some(drain),
            stderr_tail,
        };
        daemon.await_recovery()?;
        Ok(daemon)
    }

    /// With `--state-dir` the daemon replays durable state before it
    /// admits tenant requests (answering 503 meanwhile), even when the
    /// directory is fresh; it is ready once `/recovery` says so.
    fn await_recovery(&self) -> Result<(), String> {
        let deadline = Instant::now() + REQUEST_TIMEOUT;
        loop {
            let reply = http(self.addr, "GET", "/api/v1/recovery", b"")?;
            let done =
                serde_json::parse(&reply.body)
                    .ok()
                    .and_then(|doc| match doc.get("in_progress") {
                        Some(serde::Value::Bool(b)) => Some(!b),
                        _ => None,
                    });
            match done {
                Some(true) => return Ok(()),
                _ if Instant::now() > deadline => {
                    return Err(format!(
                        "daemon never finished recovery: {}",
                        reply.body.trim()
                    ))
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// `POST /api/v1/shutdown`, then waits for the exit. Returns whether
    /// the daemon exited with status 0.
    fn shutdown(mut self) -> Result<bool, String> {
        let reply = http(self.addr, "POST", "/api/v1/shutdown", b"")?;
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) => break status,
                None if Instant::now() > deadline => {
                    let _ = self.child.kill();
                    break self.child.wait().map_err(|e| e.to_string())?;
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        let ok = reply.status == 200 && status.success();
        if !ok {
            let tail = self.stderr_tail.lock().expect("stderr tail lock");
            eprintln!("perfbench: daemon exit {status}; stderr tail: {tail:?}");
        }
        Ok(ok)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// The value of an unlabelled sample in a Prometheus text scrape (0 when
/// the family is absent, as counters are until first incremented).
fn scraped(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// An (item, method) pair: one distinct search a session can start.
type Key = (usize, &'static str);

/// State the clients of one daemon share.
struct Shared<'a> {
    addr: SocketAddr,
    /// The report the daemon must serve for each pair: the offline one.
    expected: &'a BTreeMap<Key, String>,
}

/// What one client, or one epoch, measured.
#[derive(Default)]
struct ClientLog {
    attempted: u64,
    failed: u64,
    /// Every failed request and every report that differs from its
    /// offline reference, with its cause.
    problems: Vec<String>,
    sessions: u64,
    session_ms: Vec<f64>,
    requests: Vec<(&'static str, f64, f64)>,
    wasted_polls: u64,
    /// Pairs whose served report matched the offline one.
    served: BTreeSet<Key>,
    tracer: Option<Tracer>,
}

impl ClientLog {
    fn call(
        &mut self,
        addr: SocketAddr,
        route: &'static str,
        method: &str,
        path: &str,
        body: &[u8],
        expect: u16,
    ) -> Option<Reply> {
        self.attempted += 1;
        let span = self.tracer.as_mut().map(|t| t.open(route));
        let reply = http(addr, method, path, body);
        if let (Some(t), Some(span)) = (self.tracer.as_mut(), span) {
            t.close(span);
        }
        match reply {
            Ok(reply) if reply.status == expect => {
                self.requests
                    .push((route, reply.total_ms, reply.first_byte_ms));
                Some(reply)
            }
            Ok(reply) => {
                self.fail(format!(
                    "{method} {path}: status {}: {}",
                    reply.status,
                    reply.body.trim()
                ));
                None
            }
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    fn fail(&mut self, error: String) {
        self.failed += 1;
        self.problems.push(error);
    }

    /// Moves another log's measurements and spans into this one.
    fn absorb(&mut self, other: ClientLog) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.sessions += other.sessions;
        self.session_ms.extend(other.session_ms);
        self.requests.extend(other.requests);
        self.wasted_polls += other.wasted_polls;
        self.served.extend(other.served);
        if let Some(theirs) = other.tracer {
            match &mut self.tracer {
                Some(mine) => mine.absorb(theirs),
                None => self.tracer = Some(theirs),
            }
        }
    }

    /// One session: start it, poll it until it ends, fetch its report.
    fn session(&mut self, shared: &Shared, corpus: &Corpus, key: Key) {
        let item: &Item = &corpus.items[key.0];
        let body = format!(
            "{{\"scenario\": \"{}\", \"method\": \"{}\", \"class\": \"{}\", \"slo_ms\": {:?}}}",
            corpus.scenarios[item.scenario].name,
            key.1,
            item.class.label(),
            item.slo_ms
        );
        let start = Instant::now();
        let root = self.tracer.as_mut().map(|t| t.open("session"));
        let finished = self.drive_session(shared, body.as_bytes(), key);
        if let (Some(t), Some(root)) = (self.tracer.as_mut(), root) {
            t.close(root);
        }
        if finished {
            self.sessions += 1;
            self.session_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }

    fn drive_session(&mut self, shared: &Shared, body: &[u8], key: Key) -> bool {
        let addr = shared.addr;
        let Some(started) = self.call(
            addr,
            "http.sessions_post",
            "POST",
            "/api/v1/sessions",
            body,
            201,
        ) else {
            return false;
        };
        let id = match serde_json::parse(&started.body)
            .ok()
            .and_then(|v| match v.get("id") {
                Some(serde::Value::Int(id)) => Some(*id),
                _ => None,
            }) {
            Some(id) => id,
            None => {
                self.fail(format!(
                    "POST /api/v1/sessions: no id in {}",
                    started.body.trim()
                ));
                return false;
            }
        };
        let status_path = format!("/api/v1/sessions/{id}");
        loop {
            let Some(status) = self.call(addr, "http.session_get", "GET", &status_path, b"", 200)
            else {
                return false;
            };
            let state = serde_json::parse(&status.body)
                .ok()
                .and_then(|v| v.get("state").and_then(|s| s.as_str()).map(str::to_owned));
            match state.as_deref() {
                Some("finished") => break,
                Some("running") => self.wasted_polls += 1,
                _ => {
                    self.fail(format!("session {id} ended badly: {}", status.body.trim()));
                    return false;
                }
            }
        }
        let report_path = format!("/api/v1/sessions/{id}/report");
        let Some(report) = self.call(addr, "http.report_get", "GET", &report_path, b"", 200) else {
            return false;
        };
        if report.body == shared.expected[&key] {
            self.served.insert(key);
        } else {
            self.problems.push(format!(
                "session {id} (item {}, {}): served report differs from the offline outcome",
                key.0, key.1
            ));
        }
        true
    }
}

/// One closed-loop client, for `sessions` sessions. Stopping at `deadline`
/// is a failure: it only happens when the daemon stalls.
fn client(
    shared: &Shared,
    corpus: &Corpus,
    seed: u64,
    sessions: u64,
    deadline: Instant,
    tracer: Option<Tracer>,
) -> ClientLog {
    let mut log = ClientLog {
        tracer,
        ..ClientLog::default()
    };
    let mut rng = Rng::new(seed);
    let combos = corpus.items.len() * METHODS.len();
    let mut history: Vec<usize> = Vec::new();
    let mut started = 0u64;
    while started < sessions {
        if Instant::now() > deadline {
            log.fail(format!(
                "a client ran out of time after {started} of its {sessions} sessions"
            ));
            break;
        }
        let combo = if !history.is_empty() && rng.below(REPEAT_ONE_IN) == 0 {
            history[rng.below(history.len())]
        } else {
            let fresh = rng.below(combos);
            history.push(fresh);
            fresh
        };
        let key = (combo / METHODS.len(), METHODS[combo % METHODS.len()]);
        if let Some(t) = log.tracer.as_mut() {
            t.set_trace(seed.wrapping_mul(1 << 20) + started);
        }
        log.session(shared, corpus, key);
        started += 1;
        if started.is_multiple_of(SCRAPE_EVERY) {
            log.call(
                shared.addr,
                "http.metrics_get",
                "GET",
                "/api/v1/metrics",
                b"",
                200,
            );
        }
    }
    log
}

/// Runs the clients, `sessions` each, and merges their logs; also returns
/// the seconds they took.
fn run_clients(
    shared: &Shared,
    corpus: &Corpus,
    seed: u64,
    sessions: u64,
    deadline: Instant,
    origin: Option<Instant>,
) -> (ClientLog, f64) {
    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let tracer = origin.map(Tracer::new);
                let client_seed = seed.wrapping_add(c + 1);
                scope.spawn(move || client(shared, corpus, client_seed, sessions, deadline, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut merged = ClientLog::default();
    for log in logs {
        merged.absorb(log);
    }
    (merged, elapsed)
}

/// The offline reference of every (item, method) pair: the outcome a
/// library search on a fresh service returns.
fn reference_outcomes(corpus: &Corpus, prepared: &Prepared) -> Outcomes {
    let mut outcomes = Outcomes::default();
    let mut steps = Samples::new(1);
    for (index, env) in prepared.envs.iter().enumerate() {
        let service = EvalService::with_threads(1);
        let handle = service.register(env.clone());
        for &method in &METHODS {
            let slo = corpus.items[index].slo_ms;
            let (outcome, _) = offline::run_search(&handle, method, slo, None, &mut steps, 0);
            outcomes
                .first
                .insert((index, method), outcome.map_err(|e| e.to_string()));
        }
    }
    outcomes
}

/// The report bytes the daemon must serve for an outcome: exactly what
/// `aarc run --format json` prints.
fn report_json(
    env: &aarc_simulator::WorkflowEnvironment,
    outcome: &aarc_core::SearchOutcome,
    slo_ms: f64,
) -> String {
    let report = ConfigurationReport::new(
        env,
        &outcome.best_configs,
        &outcome.final_report,
        Some(slo_ms),
    );
    let mut json = serde_json::to_string_pretty(&report).expect("report serialises");
    json.push('\n');
    json
}

/// Median, tail (p99 with at least 10 samples beyond) and the quantile the
/// tail was actually read at.
fn tail_ms(values: &mut [f64]) -> (f64, f64, f64) {
    let p50 = crate::stats::median(values);
    let (p99, q) = crate::stats::tail(values, 0.99);
    (p50, p99, q)
}

pub fn run(args: &Args) -> Result<Report, String> {
    // The whole seeded corpus is uploaded; sessions run over its small
    // items, each at several SLOs.
    let mut corpus = corpus::build(Kind::Fast, args.seed)?;
    corpus.items = corpus
        .items
        .iter()
        .filter(|item| corpus.scenarios[item.scenario].functions <= SESSION_MAX_FUNCTIONS)
        .flat_map(|item| {
            SLO_FACTORS.iter().map(move |&f| Item {
                slo_ms: item.slo_ms * f,
                why: format!("{}; session SLO x{f}", item.why),
                ..item.clone()
            })
        })
        .collect();
    crate::write_manifest(&corpus, args)?;
    let origin = Instant::now();
    let tracer = args
        .trace
        .then(|| Arc::new(Mutex::new(Tracer::new(origin))));
    let prepared = offline::setup(&corpus, tracer.as_ref())?;
    // The daemon's `--threads`: the host's parallelism, capped at 2.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let tmp = PathBuf::from(TMP_DIR).join(format!("served-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let result = run_epochs(args, &corpus, &prepared, threads, &tmp, origin, tracer);
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(TMP_DIR);
    result
}

/// What one epoch measured: one daemon's set-up, sessions and final
/// counters. Its log also counts the uploads, the checkpoint writes and the
/// shutdown.
struct Epoch {
    setup_s: f64,
    upload_ms: Vec<f64>,
    log: ClientLog,
    clients_s: f64,
    rss_mb: f64,
    /// The daemon's `/metrics` once every session of the epoch finished.
    scrape: String,
}

impl Epoch {
    /// Session (p50, p99, tail quantile) and request (p50, p99).
    fn latencies(&self) -> ((f64, f64, f64), (f64, f64)) {
        let mut sessions = self.log.session_ms.clone();
        let mut requests: Vec<f64> = self.log.requests.iter().map(|r| r.1).collect();
        let (req_p50, req_p99, _) = tail_ms(&mut requests);
        (tail_ms(&mut sessions), (req_p50, req_p99))
    }
}

/// One epoch: a fresh daemon on `state_dir` takes the corpus upload, then
/// serves `sessions_per_client` sessions to each client, then is scraped,
/// measured and shut down.
#[allow(clippy::too_many_arguments)]
fn run_epoch(
    args: &Args,
    corpus: &Corpus,
    expected: &BTreeMap<Key, String>,
    threads: usize,
    state_dir: &Path,
    index: u64,
    sessions_per_client: u64,
    origin: Option<Instant>,
) -> Result<Epoch, String> {
    let start = Instant::now();
    let daemon = Daemon::spawn(&args.aarc_bin, threads, state_dir)?;
    let mut log = ClientLog::default();
    let mut upload_ms = Vec::with_capacity(corpus.scenarios.len());
    for scenario in &corpus.scenarios {
        log.attempted += 1;
        let reply = http(daemon.addr, "POST", "/api/v1/scenarios", &scenario.bytes)?;
        if reply.status != 201 {
            log.fail(format!(
                "upload {}: status {}: {}",
                scenario.name,
                reply.status,
                reply.body.trim()
            ));
        }
        upload_ms.push(reply.total_ms);
    }
    let setup_s = start.elapsed().as_secs_f64();
    let shared = Shared {
        addr: daemon.addr,
        expected,
    };
    // A stalled daemon ends the epoch well within the run's time limit.
    let deadline =
        Instant::now() + Duration::from_secs_f64(3.0 * args.seconds / EPOCHS as f64 + 10.0);
    let seed = args.seed.wrapping_mul(31).wrapping_add(index * CLIENTS);
    let (clients, clients_s) =
        run_clients(&shared, corpus, seed, sessions_per_client, deadline, origin);
    log.absorb(clients);
    // Read once every session finished: the daemon keeps each one, so this
    // is its peak after a fixed number of sessions.
    let rss_mb = peak_rss_mb(&daemon.pid())?;
    log.attempted += 1;
    let scrape = http(daemon.addr, "GET", "/api/v1/metrics", b"")?.body;
    let checkpoint_failures = scraped(&scrape, "aarc_checkpoint_write_failures_total");
    log.attempted += scraped(&scrape, "aarc_checkpoint_writes_total") as u64;
    if checkpoint_failures > 0.0 {
        log.failed += checkpoint_failures as u64;
        log.problems.push(format!(
            "epoch {index}: the daemon counted {checkpoint_failures} checkpoint write failures"
        ));
    }
    log.attempted += 1;
    if !daemon.shutdown()? {
        log.fail(format!(
            "epoch {index}: shutdown failed or the daemon exited non-zero"
        ));
    }
    Ok(Epoch {
        setup_s,
        upload_ms,
        log,
        clients_s,
        rss_mb,
        scrape,
    })
}

fn run_epochs(
    args: &Args,
    corpus: &Corpus,
    prepared: &Prepared,
    threads: usize,
    tmp: &Path,
    origin: Instant,
    setup_tracer: Option<Arc<Mutex<Tracer>>>,
) -> Result<Report, String> {
    // The offline reference of every pair the clients can draw; each
    // served report is compared with it as it arrives.
    let reference = reference_outcomes(corpus, prepared);
    let expected: BTreeMap<Key, String> = reference
        .first
        .iter()
        .map(|(&key, outcome)| {
            let body = match outcome {
                Ok(outcome) => {
                    report_json(&prepared.envs[key.0], outcome, corpus.items[key.0].slo_ms)
                }
                Err(e) => format!("(offline search failed: {e})"),
            };
            (key, body)
        })
        .collect();
    let epoch_sessions = SESSIONS_PER_SECOND * args.seconds / EPOCHS as f64;
    let sessions_per_client = (epoch_sessions / CLIENTS as f64).ceil() as u64;
    // A traced run has an untraced epoch, then a traced one; the tracing
    // overhead is the difference between the two.
    let traced_epochs: Vec<bool> = if args.trace {
        vec![false, true]
    } else {
        vec![false; EPOCHS]
    };
    let mut epochs = Vec::with_capacity(traced_epochs.len());
    for (index, &traced) in traced_epochs.iter().enumerate() {
        let epoch = run_epoch(
            args,
            corpus,
            &expected,
            threads,
            &tmp.join(format!("state-{index}")),
            index as u64,
            sessions_per_client,
            traced.then_some(origin),
        )?;
        let ((p50, p99, q), _) = epoch.latencies();
        eprintln!(
            "perfbench: epoch {index}: setup {:.3} s; {} sessions in {:.2} s, p50 {p50:.3} ms, \
             p99 {p99:.3} ms (q={q:.4}); daemon VmHWM {:.3} MB; {} checkpoint writes; {} evictions",
            epoch.setup_s,
            epoch.log.sessions,
            epoch.clients_s,
            epoch.rss_mb,
            scraped(&epoch.scrape, "aarc_checkpoint_writes_total"),
            scraped(&epoch.scrape, "aarc_eval_evictions_total")
        );
        epochs.push(epoch);
    }

    // Output checks and quality over the pairs the clients were served:
    // each report matched its offline outcome, which must lie on the grid
    // and meet the SLO when re-simulated.
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut problems = Vec::new();
    let mut served = Outcomes::default();
    for epoch in &epochs {
        attempted += epoch.log.attempted;
        failed += epoch.log.failed;
        problems.extend(epoch.log.problems.iter().cloned());
        for key in &epoch.log.served {
            served.first.insert(*key, reference.first[key].clone());
        }
    }
    let quality = offline::check_outcomes(corpus, prepared, &served, &mut problems);
    println!(
        "digest {} seed={} outcomes={} fnv64={:016x}",
        args.workload,
        args.seed,
        reference.first.len(),
        offline::workload_digest(&reference)
    );
    eprintln!(
        "perfbench: {} distinct (item, method) pairs served",
        served.first.len()
    );

    let metrics = if args.trace {
        traced_metrics(args, prepared, &reference, &epochs, setup_tracer)?
    } else {
        let over_epochs = |f: &dyn Fn(&Epoch) -> f64| median_of(epochs.iter().map(f).collect());
        // Latencies pool the epochs' samples: every epoch serves the same
        // number of sessions, so the pool has one growth profile, and its
        // p99 has ≈3× the samples beyond it that one epoch's has. Session
        // times cluster 5 ms apart (one poll of the accept loop each), and
        // the p99 falls where a cluster of ≈3% of sessions meets a sparser
        // one of ≈0.5%; with 10 samples beyond it, it flipped between the
        // two from seed to seed.
        let pooled = |f: &dyn Fn(&ClientLog) -> Vec<f64>| {
            let mut values: Vec<f64> = epochs.iter().flat_map(|e| f(&e.log)).collect();
            let n = values.len();
            let (p50, p99, q) = tail_ms(&mut values);
            eprintln!("perfbench: tail at q={q:.4} of {n} pooled samples");
            (p50, p99)
        };
        let sessions = pooled(&|log| log.session_ms.clone());
        let requests = pooled(&|log| log.requests.iter().map(|r| r.1).collect());
        BTreeMap::from([
            ("setup_s", over_epochs(&|e| e.setup_s)),
            (
                "searches_per_s",
                over_epochs(&|e| e.log.sessions as f64 / e.clients_s),
            ),
            ("search_ms_p50", sessions.0),
            ("search_ms_p99", sessions.1),
            ("request_ms_p50", requests.0),
            ("request_ms_p99", requests.1),
            ("cost_ratio", quality.cost_ratio),
            ("slo_met_share", quality.slo_met_share),
            ("sampled_runtime_ratio", quality.sampled_runtime_ratio),
            ("ok_share", 1.0 - failed as f64 / attempted.max(1) as f64),
            ("peak_rss_mb", over_epochs(&|e| e.rss_mb)),
        ])
    };
    crate::print_problems(&problems);
    Ok(Report {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
    })
}

/// The per-layer metrics of a traced run: HTTP routes and serving figures
/// from its traced epoch, compared with its untraced one.
fn traced_metrics(
    args: &Args,
    prepared: &Prepared,
    reference: &Outcomes,
    epochs: &[Epoch],
    setup_tracer: Option<Arc<Mutex<Tracer>>>,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let [plain, traced] = epochs else {
        unreachable!("a traced run has an untraced and a traced epoch")
    };
    let mut metrics = zero_layers();
    if let Some(t) = &setup_tracer {
        let t = t.lock().expect("tracer lock poisoned");
        crate::setup_layers(&by_name(t.spans()), &mut metrics);
    }
    for (route, p50_name, p99_name) in ROUTES {
        let mut values: Vec<f64> = if route == "http.scenarios_post" {
            epochs
                .iter()
                .flat_map(|e| e.upload_ms.iter().copied())
                .collect()
        } else {
            traced
                .log
                .requests
                .iter()
                .filter(|r| r.0 == route)
                .map(|r| r.1)
                .collect()
        };
        let (p50, p99, _) = tail_ms(&mut values);
        metrics.insert(p50_name, p50);
        metrics.insert(p99_name, p99);
    }
    let mut first: Vec<f64> = traced.log.requests.iter().map(|r| r.2).collect();
    metrics.insert("http.first_byte_ms_p50", crate::stats::median(&mut first));
    metrics.insert(
        "serve.polls_per_session",
        traced.log.wasted_polls as f64 / traced.log.sessions.max(1) as f64,
    );
    // The traced epoch's daemon served nothing else, so its counters
    // cover exactly the epoch.
    let count = |name: &str| scraped(&traced.scrape, name);
    metrics.insert(
        "serve.step_ms_mean",
        count("aarc_session_step_seconds_sum") * 1e3
            / count("aarc_session_step_seconds_count").max(1.0),
    );
    metrics.insert(
        "serve.cache_hit_ratio",
        count("aarc_eval_cache_hits_total") / count("aarc_eval_requests_total").max(1.0),
    );
    metrics.insert("serve.evictions", count("aarc_eval_evictions_total"));
    metrics.insert(
        "state.checkpoint_writes",
        count("aarc_checkpoint_writes_total"),
    );
    metrics.insert(
        "state.checkpoint_failures",
        count("aarc_checkpoint_write_failures_total"),
    );
    metrics.insert("kernel.sim_us", offline::kernel_sim_us(prepared, reference));
    let spans = traced
        .log
        .tracer
        .as_ref()
        .map(|t| by_name(t.spans()))
        .unwrap_or_default();
    let session_ns = spans.get("session").map_or(0, |s| s.total_ns);
    let http_ns: u64 = ROUTES[1..4]
        .iter()
        .filter_map(|r| spans.get(r.0))
        .map(|s| s.total_ns)
        .sum();
    metrics.insert(
        "split.http_share",
        http_ns as f64 / session_ns.max(1) as f64,
    );
    let p50 = |epoch: &Epoch| epoch.latencies().0 .0;
    metrics.insert(
        "trace.overhead_pct",
        (p50(traced) / p50(plain) - 1.0) * 100.0,
    );
    if let Some(t) = &traced.log.tracer {
        crate::write_spans(t.spans(), args)?;
    }
    crate::print_split(&metrics);
    Ok(metrics)
}
