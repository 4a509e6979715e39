//! Durable daemon state: the `--state-dir` persistence layer of
//! `aarc serve`.
//!
//! Layout of a state directory:
//!
//! ```text
//! <state-dir>/
//!   registry.wal        # JSON-lines write-ahead log of scenario ops
//!   registry.snapshot   # compacted registry (atomic-rename JSON)
//!   tenants.cfg         # verbatim copy of the --tenants file
//!   checkpoints/        # one session-<id>.json per session
//!   quarantine/         # unreadable state files moved aside at recovery
//! ```
//!
//! Every file is written through [`aarc_spec::atomic_write`] (temp +
//! fsync + rename) except the WAL, which is append-only and fsynced per
//! record — a scenario upload or delete is durable *before* the 2xx
//! leaves the daemon. Recovery never trusts a file: torn WAL tails are
//! dropped and counted, corrupt snapshots and checkpoints are moved to
//! `quarantine/` and surfaced through `GET /api/v1/recovery`,
//! `aarc_recovery_*` metrics and the flight recorder — the daemon
//! degrades, it does not crash.
//!
//! Session checkpoints are **provenance records, not memory dumps**: the
//! search state machines (`PathConfigState`, the BO surrogate, the RNG
//! streams) are deliberately not serialized. Because every strategy's
//! ask sequence is a pure function of the results it was told — the
//! determinism contract the byte-golden suite pins — a restarted daemon
//! rebuilds the strategy from the persisted spec and replays the
//! checkpointed number of rounds through the (memoized) evaluation
//! service, then verifies the replayed progress and convergence trace
//! match the checkpoint before re-admitting the session. A resumed
//! session therefore finishes **bit-identically** to one that was never
//! interrupted.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use aarc_core::{RoundPoint, SessionProgress};
use aarc_spec::atomic_write;

/// Version stamped into every WAL record, registry snapshot and session
/// checkpoint. Readers accept their own version only; newer or older
/// files are quarantined, never guessed at.
pub const STATE_VERSION: u64 = 1;

/// Default `--checkpoint-every`: a live session's checkpoint is
/// refreshed after every this-many completed rounds (and always at a
/// terminal phase and on shutdown).
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 8;

/// One scenario-registry operation, appended to `registry.wal` as a
/// single JSON line before the mutation's 2xx is sent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WalRecord {
    /// Format version ([`STATE_VERSION`]).
    pub v: u64,
    /// `"upload"` or `"delete"`.
    pub op: String,
    /// Owning tenant, by name (names are stable across restarts; ids
    /// are positional in the registry of the moment).
    pub tenant: String,
    /// Scenario name within the tenant's namespace.
    pub scenario: String,
    /// Canonical YAML re-export of the uploaded spec; present on
    /// `upload`, absent on `delete`.
    #[serde(default)]
    pub spec_yaml: Option<String>,
}

/// One recovered (or to-be-persisted) scenario: the WAL/snapshot payload
/// the registry is rebuilt from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PersistedScenario {
    pub tenant: String,
    pub scenario: String,
    pub spec_yaml: String,
}

/// The compacted registry written to `registry.snapshot` at startup
/// (after WAL replay) so the WAL never grows without bound.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    pub v: u64,
    #[serde(default)]
    pub scenarios: Vec<PersistedScenario>,
}

/// Terminal summary embedded in a finished session's checkpoint
/// (mirrors the serve layer's session summary document).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointSummary {
    pub final_cost: f64,
    pub final_makespan_ms: f64,
    pub meets_slo: bool,
    pub samples: u64,
}

/// One session's durable state: identity + provenance (enough to rebuild
/// the strategy and replay it) + the progress/trace the replay is
/// verified against + the terminal result, if any.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionCheckpoint {
    /// Format version ([`STATE_VERSION`]).
    pub v: u64,
    pub id: u64,
    /// Owning tenant, by name.
    pub tenant: String,
    pub scenario: String,
    pub method: String,
    pub class: String,
    pub slo_ms: f64,
    /// Phase label (`running`/`paused`/`finished`/`failed`/`cancelled`).
    pub phase: String,
    /// Completed rounds — the number of steps recovery replays.
    pub rounds: u64,
    /// Progress snapshot at checkpoint time; the replay must reproduce
    /// it exactly or the checkpoint is quarantined.
    pub progress: SessionProgress,
    /// Convergence trace at checkpoint time; verified like `progress`.
    #[serde(default)]
    pub trace: Vec<RoundPoint>,
    /// Exact final-report bytes of a finished session.
    #[serde(default)]
    pub report_json: Option<String>,
    #[serde(default)]
    pub summary: Option<CheckpointSummary>,
    #[serde(default)]
    pub error: Option<String>,
}

impl SessionCheckpoint {
    /// Whether the session had reached a terminal phase (`finished`,
    /// `failed` or `cancelled`) when this checkpoint was taken.
    pub fn is_terminal(&self) -> bool {
        matches!(self.phase.as_str(), "finished" | "failed" | "cancelled")
    }
}

/// One state file recovery could not use, moved to `quarantine/`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QuarantinedFile {
    /// File name (relative to the state dir) at quarantine time.
    pub file: String,
    /// Why it was set aside.
    pub reason: String,
}

/// Result of reading the registry back: the surviving scenarios plus the
/// damage report.
#[derive(Debug, Default)]
pub struct RegistryLoad {
    /// Scenarios in (re)upload order after snapshot + WAL replay.
    pub scenarios: Vec<PersistedScenario>,
    /// WAL records applied on top of the snapshot.
    pub records_applied: u64,
    /// WAL lines dropped as torn or unparseable.
    pub lines_dropped: u64,
    /// Files (snapshot, WAL) moved to quarantine wholesale.
    pub quarantined: Vec<QuarantinedFile>,
}

/// The `(rounds, terminal)` of a session's last checkpoint write. Its lock
/// is held across the write, so one session's writes are serialized while
/// different sessions write in parallel.
type LastCheckpoint = Arc<Mutex<(u64, bool)>>;

/// A `--state-dir` opened for the lifetime of one daemon: path layout,
/// the append handle of the write-ahead log, and what was last written
/// for each session's checkpoint.
pub struct StateDir {
    root: PathBuf,
    wal: Mutex<File>,
    checkpoints: Mutex<HashMap<u64, LastCheckpoint>>,
}

impl StateDir {
    /// Opens (creating if needed) a state directory and its WAL.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory tree or the
    /// WAL cannot be created — a daemon explicitly asked for durability
    /// it cannot provide should fail loudly at startup, not degrade.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        std::fs::create_dir_all(root.join("checkpoints"))?;
        std::fs::create_dir_all(root.join("quarantine"))?;
        let wal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(root.join("registry.wal"))?;
        Ok(StateDir {
            root,
            wal: Mutex::new(wal),
            checkpoints: Mutex::new(HashMap::new()),
        })
    }

    /// The directory this state lives in.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn wal_path(&self) -> PathBuf {
        self.root.join("registry.wal")
    }

    fn snapshot_path(&self) -> PathBuf {
        self.root.join("registry.snapshot")
    }

    fn tenants_path(&self) -> PathBuf {
        self.root.join("tenants.cfg")
    }

    fn checkpoints_dir(&self) -> PathBuf {
        self.root.join("checkpoints")
    }

    fn quarantine_dir(&self) -> PathBuf {
        self.root.join("quarantine")
    }

    fn checkpoint_path(&self, id: u64) -> PathBuf {
        self.checkpoints_dir()
            .join(format!("session-{id:010}.json"))
    }

    /// Appends one record to the WAL and fsyncs it — the durability
    /// point of a scenario upload/delete, reached *before* the 2xx.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; the caller must then fail the
    /// request instead of acknowledging it.
    pub fn append_wal(&self, record: &WalRecord) -> std::io::Result<()> {
        let mut line = serde_json::to_string(record)
            .map_err(|e| std::io::Error::other(format!("WAL record serialization: {e}")))?;
        line.push('\n');
        let mut wal = self.wal.lock().expect("WAL handle poisoned");
        wal.write_all(line.as_bytes())?;
        wal.sync_data()
    }

    /// Reads the registry back: snapshot first (quarantined if corrupt),
    /// then the WAL replayed over it line by line. Unparseable or
    /// wrong-version lines — a torn tail after a crash mid-append is the
    /// expected case — are dropped and counted, never fatal.
    pub fn load_registry(&self) -> RegistryLoad {
        let mut load = RegistryLoad::default();
        match std::fs::read_to_string(self.snapshot_path()) {
            Err(_) => {} // no snapshot yet — first boot
            Ok(text) => match serde_json::from_str::<RegistrySnapshot>(&text) {
                Ok(snapshot) if snapshot.v == STATE_VERSION => {
                    load.scenarios = snapshot.scenarios;
                }
                Ok(snapshot) => {
                    self.quarantine_file(
                        &self.snapshot_path(),
                        format!(
                            "registry.snapshot has version {} (reader: {STATE_VERSION})",
                            snapshot.v
                        ),
                        &mut load.quarantined,
                    );
                }
                Err(e) => {
                    self.quarantine_file(
                        &self.snapshot_path(),
                        format!("registry.snapshot is corrupt: {e}"),
                        &mut load.quarantined,
                    );
                }
            },
        }
        let Ok(wal_text) = std::fs::read_to_string(self.wal_path()) else {
            return load;
        };
        for line in wal_text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let record = match serde_json::from_str::<WalRecord>(line) {
                Ok(record) if record.v == STATE_VERSION => record,
                _ => {
                    load.lines_dropped += 1;
                    continue;
                }
            };
            match (record.op.as_str(), record.spec_yaml) {
                ("upload", Some(spec_yaml)) => {
                    load.scenarios
                        .retain(|s| !(s.tenant == record.tenant && s.scenario == record.scenario));
                    load.scenarios.push(PersistedScenario {
                        tenant: record.tenant,
                        scenario: record.scenario,
                        spec_yaml,
                    });
                    load.records_applied += 1;
                }
                ("delete", _) => {
                    load.scenarios
                        .retain(|s| !(s.tenant == record.tenant && s.scenario == record.scenario));
                    load.records_applied += 1;
                }
                _ => load.lines_dropped += 1,
            }
        }
        load
    }

    /// Compacts the registry: writes `scenarios` as the new snapshot
    /// (atomic rename) and truncates the WAL. Run once per startup,
    /// after [`load_registry`](Self::load_registry) replayed the old log.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error of the snapshot write or WAL
    /// truncation.
    pub fn compact(&self, scenarios: &[PersistedScenario]) -> std::io::Result<()> {
        let snapshot = RegistrySnapshot {
            v: STATE_VERSION,
            scenarios: scenarios.to_vec(),
        };
        let mut text = serde_json::to_string_pretty(&snapshot)
            .map_err(|e| std::io::Error::other(format!("snapshot serialization: {e}")))?;
        text.push('\n');
        atomic_write(self.snapshot_path(), text.as_bytes())?;
        // Only truncate the log once the snapshot that subsumes it is
        // durable on disk.
        let mut wal = self.wal.lock().expect("WAL handle poisoned");
        let fresh = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(self.wal_path())?;
        fresh.sync_all()?;
        *wal = OpenOptions::new().append(true).open(self.wal_path())?;
        Ok(())
    }

    /// Writes (or refreshes) one session checkpoint atomically, keeping
    /// the session's durable state monotone: writes of one session are
    /// serialized, and a checkpoint with fewer `rounds` than the last one
    /// written, or a non-terminal one after a terminal one, is skipped. A
    /// writer that assembled its checkpoint earlier but reaches the disk
    /// later therefore never regresses a newer one. Returns whether the
    /// checkpoint was written.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn write_checkpoint(&self, checkpoint: &SessionCheckpoint) -> std::io::Result<bool> {
        let last = Arc::clone(
            self.checkpoints
                .lock()
                .expect("checkpoint table poisoned")
                .entry(checkpoint.id)
                .or_default(),
        );
        let mut last = last.lock().expect("session checkpoint lock poisoned");
        let (last_rounds, last_terminal) = *last;
        let terminal = checkpoint.is_terminal();
        if checkpoint.rounds < last_rounds || (last_terminal && !terminal) {
            return Ok(false);
        }
        let mut text = serde_json::to_string_pretty(checkpoint)
            .map_err(|e| std::io::Error::other(format!("checkpoint serialization: {e}")))?;
        text.push('\n');
        atomic_write(self.checkpoint_path(checkpoint.id), text.as_bytes())?;
        *last = (checkpoint.rounds, terminal);
        Ok(true)
    }

    /// Reads every checkpoint file back, in session-id (= file name)
    /// order. Each entry is the file path plus either the parsed
    /// checkpoint or the reason it could not be used — the caller
    /// decides whether to replay or [`quarantine`](Self::quarantine).
    pub fn load_checkpoints(&self) -> Vec<(PathBuf, Result<SessionCheckpoint, String>)> {
        let Ok(entries) = std::fs::read_dir(self.checkpoints_dir()) else {
            return Vec::new();
        };
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_file())
            .collect();
        paths.sort();
        paths
            .into_iter()
            .map(|path| {
                let parsed = std::fs::read_to_string(&path)
                    .map_err(|e| format!("unreadable: {e}"))
                    .and_then(|text| {
                        if text.trim().is_empty() {
                            return Err("empty file".to_owned());
                        }
                        serde_json::from_str::<SessionCheckpoint>(&text)
                            .map_err(|e| format!("corrupt: {e}"))
                    })
                    .and_then(|cp| {
                        if cp.v == STATE_VERSION {
                            Ok(cp)
                        } else {
                            Err(format!("version {} (reader: {STATE_VERSION})", cp.v))
                        }
                    });
                (path, parsed)
            })
            .collect()
    }

    /// Moves a file into `quarantine/`, recording why. Best-effort: if
    /// even the move fails, the file is reported as quarantined anyway
    /// (recovery will not touch it again this boot).
    pub fn quarantine(&self, path: &Path, reason: impl Into<String>) -> QuarantinedFile {
        let mut quarantined = Vec::with_capacity(1);
        self.quarantine_file(path, reason.into(), &mut quarantined);
        quarantined.pop().expect("quarantine_file always reports")
    }

    fn quarantine_file(&self, path: &Path, reason: String, out: &mut Vec<QuarantinedFile>) {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        let mut dest = self.quarantine_dir().join(&name);
        // Never overwrite an earlier quarantined generation.
        let mut suffix = 1u32;
        while dest.exists() {
            dest = self.quarantine_dir().join(format!("{name}.{suffix}"));
            suffix += 1;
        }
        let _ = std::fs::rename(path, &dest);
        out.push(QuarantinedFile { file: name, reason });
    }

    /// Persists a verbatim copy of the tenants config so a restart
    /// without `--tenants` keeps the same namespaces and quotas.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn save_tenants(&self, raw: &[u8]) -> std::io::Result<()> {
        atomic_write(self.tenants_path(), raw)
    }

    /// The persisted tenants config, if one exists.
    pub fn load_tenants(&self) -> Option<String> {
        std::fs::read_to_string(self.tenants_path()).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_state_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("aarc-state-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn upload(tenant: &str, scenario: &str, yaml: &str) -> WalRecord {
        WalRecord {
            v: STATE_VERSION,
            op: "upload".to_owned(),
            tenant: tenant.to_owned(),
            scenario: scenario.to_owned(),
            spec_yaml: Some(yaml.to_owned()),
        }
    }

    fn delete(tenant: &str, scenario: &str) -> WalRecord {
        WalRecord {
            v: STATE_VERSION,
            op: "delete".to_owned(),
            tenant: tenant.to_owned(),
            scenario: scenario.to_owned(),
            spec_yaml: None,
        }
    }

    fn checkpoint(id: u64) -> SessionCheckpoint {
        SessionCheckpoint {
            v: STATE_VERSION,
            id,
            tenant: "anonymous".to_owned(),
            scenario: "chatbot".to_owned(),
            method: "aarc".to_owned(),
            class: "nominal".to_owned(),
            slo_ms: 900.0,
            phase: "running".to_owned(),
            rounds: 3,
            progress: SessionProgress {
                rounds: 3,
                evals: 11,
                incumbent: None,
            },
            trace: vec![RoundPoint {
                round: 3,
                evals: 11,
                incumbent_cost: Some(1.25),
                incumbent_makespan_ms: Some(812.0),
            }],
            report_json: None,
            summary: None,
            error: None,
        }
    }

    #[test]
    fn wal_replay_rebuilds_uploads_and_deletes_in_order() {
        let root = temp_state_dir("replay");
        let state = StateDir::open(&root).unwrap();
        state.append_wal(&upload("acme", "a", "spec-a")).unwrap();
        state.append_wal(&upload("acme", "b", "spec-b")).unwrap();
        state.append_wal(&upload("other", "a", "spec-a2")).unwrap();
        state.append_wal(&delete("acme", "a")).unwrap();
        let load = state.load_registry();
        assert_eq!(load.records_applied, 4);
        assert_eq!(load.lines_dropped, 0);
        assert!(load.quarantined.is_empty());
        let names: Vec<(&str, &str)> = load
            .scenarios
            .iter()
            .map(|s| (s.tenant.as_str(), s.scenario.as_str()))
            .collect();
        assert_eq!(names, vec![("acme", "b"), ("other", "a")]);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn torn_wal_tail_is_dropped_not_fatal() {
        let root = temp_state_dir("torn");
        let state = StateDir::open(&root).unwrap();
        state.append_wal(&upload("t", "keep", "spec")).unwrap();
        // Simulate a crash mid-append: a truncated JSON prefix with no
        // trailing newline.
        {
            let mut wal = OpenOptions::new()
                .append(true)
                .open(root.join("registry.wal"))
                .unwrap();
            wal.write_all(b"{\"v\":1,\"op\":\"upload\",\"tena").unwrap();
        }
        let load = state.load_registry();
        assert_eq!(load.records_applied, 1);
        assert_eq!(load.lines_dropped, 1);
        assert_eq!(load.scenarios.len(), 1);
        assert_eq!(load.scenarios[0].scenario, "keep");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn empty_and_garbage_wal_lines_never_crash() {
        let root = temp_state_dir("garbage");
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(
            root.join("registry.wal"),
            "\n\nnot json at all\n{\"v\": 99, \"op\": \"upload\"}\n\x00\x01\x02\n",
        )
        .unwrap();
        let state = StateDir::open(&root).unwrap();
        let load = state.load_registry();
        assert_eq!(load.records_applied, 0);
        assert_eq!(load.lines_dropped, 3);
        assert!(load.scenarios.is_empty());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn corrupt_snapshot_is_quarantined_and_wal_still_replays() {
        let root = temp_state_dir("corrupt-snapshot");
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(root.join("registry.snapshot"), "{ definitely not json").unwrap();
        let state = StateDir::open(&root).unwrap();
        state.append_wal(&upload("t", "s", "spec")).unwrap();
        let load = state.load_registry();
        assert_eq!(load.quarantined.len(), 1);
        assert!(load.quarantined[0].reason.contains("corrupt"));
        assert_eq!(load.scenarios.len(), 1);
        // The corrupt file moved aside and will not poison the next boot.
        assert!(!root.join("registry.snapshot").exists());
        assert!(root.join("quarantine/registry.snapshot").exists());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn future_snapshot_version_is_quarantined_not_guessed() {
        let root = temp_state_dir("future-snapshot");
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(
            root.join("registry.snapshot"),
            "{\"v\": 2, \"scenarios\": []}",
        )
        .unwrap();
        let state = StateDir::open(&root).unwrap();
        let load = state.load_registry();
        assert_eq!(load.quarantined.len(), 1);
        assert!(load.quarantined[0].reason.contains("version 2"));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn compact_subsumes_wal_into_snapshot() {
        let root = temp_state_dir("compact");
        let state = StateDir::open(&root).unwrap();
        state.append_wal(&upload("t", "a", "spec-a")).unwrap();
        state.append_wal(&upload("t", "b", "spec-b")).unwrap();
        state.append_wal(&delete("t", "a")).unwrap();
        let load = state.load_registry();
        state.compact(&load.scenarios).unwrap();
        assert_eq!(
            std::fs::read_to_string(root.join("registry.wal")).unwrap(),
            ""
        );
        // A fresh reader sees the compacted state, and new appends land
        // in the truncated WAL.
        state.append_wal(&upload("t", "c", "spec-c")).unwrap();
        let reloaded = StateDir::open(&root).unwrap().load_registry();
        let names: Vec<&str> = reloaded
            .scenarios
            .iter()
            .map(|s| s.scenario.as_str())
            .collect();
        assert_eq!(names, vec!["b", "c"]);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn checkpoints_round_trip_in_id_order() {
        let root = temp_state_dir("checkpoints");
        let state = StateDir::open(&root).unwrap();
        state.write_checkpoint(&checkpoint(12)).unwrap();
        state.write_checkpoint(&checkpoint(2)).unwrap();
        let loaded = state.load_checkpoints();
        let ids: Vec<u64> = loaded
            .iter()
            .map(|(_, cp)| cp.as_ref().unwrap().id)
            .collect();
        assert_eq!(ids, vec![2, 12], "padded file names keep id order");
        assert_eq!(*loaded[1].1.as_ref().unwrap(), checkpoint(12));
        // Refreshing a checkpoint replaces it (atomic rename, same path).
        let mut updated = checkpoint(2);
        updated.rounds = 9;
        state.write_checkpoint(&updated).unwrap();
        assert_eq!(state.load_checkpoints().len(), 2);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn stale_checkpoints_never_replace_newer_ones() {
        let root = temp_state_dir("monotone");
        let state = StateDir::open(&root).unwrap();
        let stored = || {
            let loaded = state.load_checkpoints();
            assert_eq!(loaded.len(), 1);
            loaded[0].1.clone().unwrap()
        };
        let mut newer = checkpoint(5);
        newer.rounds = 9;
        assert!(state.write_checkpoint(&newer).unwrap());
        // Fewer rounds than the last write: skipped.
        let older = checkpoint(5);
        assert!(!state.write_checkpoint(&older).unwrap());
        assert_eq!(stored().rounds, 9);
        // Equal rounds refresh (e.g. a pause between two rounds).
        let mut paused = newer.clone();
        paused.phase = "paused".to_owned();
        assert!(state.write_checkpoint(&paused).unwrap());
        // A terminal checkpoint wins over everything non-terminal after it,
        // even with more rounds.
        let mut finished = newer.clone();
        finished.rounds = 12;
        finished.phase = "finished".to_owned();
        finished.report_json = Some("{}\n".to_owned());
        assert!(state.write_checkpoint(&finished).unwrap());
        let mut late_running = newer.clone();
        late_running.rounds = 12;
        assert!(!state.write_checkpoint(&late_running).unwrap());
        assert_eq!(stored(), finished);
        // Re-writing the terminal checkpoint (the drain's final flush) is
        // allowed.
        assert!(state.write_checkpoint(&finished).unwrap());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn corrupt_truncated_and_empty_checkpoints_report_reasons() {
        let root = temp_state_dir("bad-checkpoints");
        let state = StateDir::open(&root).unwrap();
        state.write_checkpoint(&checkpoint(1)).unwrap();
        std::fs::write(root.join("checkpoints/session-0000000002.json"), "").unwrap();
        std::fs::write(
            root.join("checkpoints/session-0000000003.json"),
            "{\"v\": 1, \"id\": 3,",
        )
        .unwrap();
        let mut future = checkpoint(4);
        future.v = 2;
        state.write_checkpoint(&future).unwrap();
        let loaded = state.load_checkpoints();
        assert_eq!(loaded.len(), 4);
        assert!(loaded[0].1.is_ok());
        assert_eq!(loaded[1].1.as_ref().unwrap_err(), "empty file");
        assert!(loaded[2].1.as_ref().unwrap_err().starts_with("corrupt"));
        assert!(loaded[3].1.as_ref().unwrap_err().contains("version 2"));
        // Quarantining the bad ones leaves only the good checkpoint.
        for (path, result) in &loaded {
            if let Err(reason) = result {
                state.quarantine(path, reason.clone());
            }
        }
        assert_eq!(state.load_checkpoints().len(), 1);
        assert_eq!(
            std::fs::read_dir(root.join("quarantine")).unwrap().count(),
            3
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn quarantine_never_overwrites_earlier_generations() {
        let root = temp_state_dir("quarantine-gen");
        let state = StateDir::open(&root).unwrap();
        for generation in 0..3 {
            let path = root.join("victim.json");
            std::fs::write(&path, format!("gen {generation}")).unwrap();
            let entry = state.quarantine(&path, "test");
            assert_eq!(entry.file, "victim.json");
        }
        assert_eq!(
            std::fs::read_dir(root.join("quarantine")).unwrap().count(),
            3
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn tenants_config_round_trips() {
        let root = temp_state_dir("tenants");
        let state = StateDir::open(&root).unwrap();
        assert!(state.load_tenants().is_none());
        state.save_tenants(b"tenants:\n  - name: acme\n").unwrap();
        assert_eq!(
            state.load_tenants().as_deref(),
            Some("tenants:\n  - name: acme\n")
        );
        std::fs::remove_dir_all(&root).ok();
    }

    /// The bench-schema evolution discipline, applied to checkpoints: a
    /// v1 checkpoint with optional keys stripped (simulating an older
    /// writer read by this, newer, reader) still parses, with defaults.
    #[test]
    fn v1_checkpoint_with_stripped_optional_keys_parses_under_this_reader() {
        fn strip_key(v: &mut serde::Value, key: &str) {
            match v {
                serde::Value::Map(entries) => {
                    entries.retain(|(k, _)| k != key);
                    for (_, child) in entries.iter_mut() {
                        strip_key(child, key);
                    }
                }
                serde::Value::Seq(items) => {
                    for item in items.iter_mut() {
                        strip_key(item, key);
                    }
                }
                _ => {}
            }
        }
        let full = checkpoint(7);
        for optional in ["trace", "report_json", "summary", "error"] {
            let mut value = serde_json::to_value(&full);
            strip_key(&mut value, optional);
            let text = serde_json::to_string(&value).unwrap();
            let reparsed: SessionCheckpoint = serde_json::from_str(&text)
                .unwrap_or_else(|e| panic!("checkpoint without `{optional}` must parse: {e}"));
            assert_eq!(reparsed.id, 7);
            assert_eq!(reparsed.progress, full.progress);
        }
        // Same for the WAL record's optional payload.
        let mut value = serde_json::to_value(&upload("t", "s", "spec"));
        strip_key(&mut value, "spec_yaml");
        let record: WalRecord =
            serde_json::from_str(&serde_json::to_string(&value).unwrap()).unwrap();
        assert_eq!(record.spec_yaml, None);
        // And the registry snapshot's scenario list.
        let mut value = serde_json::to_value(&RegistrySnapshot {
            v: STATE_VERSION,
            scenarios: vec![],
        });
        strip_key(&mut value, "scenarios");
        let snapshot: RegistrySnapshot =
            serde_json::from_str(&serde_json::to_string(&value).unwrap()).unwrap();
        assert!(snapshot.scenarios.is_empty());
    }
}
