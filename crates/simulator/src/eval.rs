//! The candidate-evaluation layer between the configuration searchers and
//! the simulation kernel: a process-wide [`EvalService`] that owns the
//! shared evaluation substrate, and cheap per-scenario [`ScenarioHandle`]s
//! that submit candidates through it. Registering a scenario
//! ([`EvalService::register`]) and evaluating through the returned handle
//! is the one way to evaluate a candidate; a caller with a single scenario
//! simply builds a service of its own.
//!
//! Every search method (AARC's Graph-Centric Scheduler, Bayesian
//! optimization, MAFF, random search) spends nearly all of its wall-clock
//! re-simulating candidate configurations, many of which repeat across
//! search steps and across methods (the over-provisioned base configuration
//! alone is executed by every method). Real deployments run fleets of
//! heterogeneous workflows against one evaluation substrate, so the
//! expensive, shareable resources are owned once per process by the
//! service:
//!
//! * a **deterministic chunked worker pool** that evaluates batches of
//!   candidates in parallel: the submitting thread and `threads - 1` scoped
//!   helpers claim fixed-width chunks of a batch from one shared counter.
//!   Each candidate's RNG seed is derived from its *batch index* (see
//!   [`derive_seed`]), never from the thread that happens to run it, so
//!   results are bit-identical regardless of the thread count;
//! * a **sharded memo-cache** keyed by `(scenario fingerprint,
//!   configuration, input bucket, seed)` that short-circuits repeated
//!   simulations. Keys carry the scenario fingerprint, so any number of
//!   scenarios can share the cache without ever leaking reports across
//!   scenarios; hit/miss/eviction statistics are kept **per fingerprint**
//!   (see [`EvalService::scenario_stats`]) as well as in aggregate. Each
//!   candidate is hashed once, in one SipHash pass over its packed key
//!   bytes; that hash picks the shard and indexes it, a lookup compares the
//!   candidate's configuration slice in place, and an owned key is built
//!   only for a miss that enters the cache, so a cache hit allocates
//!   nothing. Eviction is FIFO per shard;
//! * a pool of reusable [`SimScratch`] arenas borrowed by worker threads.
//!
//! A [`ScenarioHandle`] is just a compiled scenario on a service: creating
//! one compiles the environment once, and any number of handles
//! (for the same or different scenarios) can submit through one service
//! concurrently with the searches interleaving on the shared pool. The
//! scenario population is a *runtime* concern: scenarios are
//! [`register`](EvalService::register)ed and
//! [`unregister`](EvalService::unregister)ed while the service runs (a
//! long-lived daemon uploads and deletes scenarios over its API), with
//! unregistration purging the scenario's cache entries, and
//! [`EvalService::stats_snapshot`] gives a pollable service-wide view.
//!
//! Cache bookkeeping (lookup, hit/miss accounting, in-batch dedup,
//! insertion, eviction) always happens on the submitting thread in
//! candidate order, before and after the worker loop; the worker loop only
//! ever runs the pure simulation. This keeps the statistics — and
//! therefore any report that embeds them — identical for `--threads 1` and
//! `--threads 8`.
//!
//! Both the cache and the searchers traffic in the lean [`SimResult`] —
//! cache hits clone an `Arc`, not a report full of `String`s. The full
//! [`ExecutionReport`](crate::executor::ExecutionReport) is only
//! materialised on demand via [`ScenarioHandle::materialize`], which runs
//! [`CompiledScenario::simulate_report`] — the one materialisation path.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use aarc_telemetry::{Counter, FieldValue, FlightRecorder, Gauge, Histogram, Recorder};

use crate::env::{ConfigMap, WorkflowEnvironment};
use crate::error::SimulatorError;
use crate::executor::ExecutionReport;
use crate::input::InputSpec;
use crate::kernel::{BatchSim, CompiledScenario, KernelCounters, SimResult, SimScratch};
use crate::resources::ResourceConfig;

/// Number of independent cache shards (a power of two; the shard is chosen
/// by key hash, so concurrent submitters contend on different locks).
const SHARD_COUNT: usize = 16;

/// FNV-1a over a byte stream: the stable 64-bit content hash used for
/// scenario fingerprints (environment and spec level — see
/// [`WorkflowEnvironment::fingerprint`]).
pub fn fnv1a_64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Derives the RNG seed of the candidate at `index` within a batch from the
/// scenario's base seed (SplitMix64 finalizer over
/// `base + φ + index · 0xBF58476D1CE4E5B9`, where φ is the 64-bit golden
/// ratio constant, all wrapping).
///
/// Seeds depend only on the *position* of a candidate, never on the worker
/// thread that evaluates it or on any shared RNG stream, which is what
/// decouples batch results from evaluation order and thread count.
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Tuning knobs of an [`EvalService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalOptions {
    /// Worker threads used for batch evaluation (1 = fully sequential).
    pub threads: usize,
    /// Maximum number of memoised execution reports kept across all shards
    /// of the shared cache. Eviction is FIFO per shard and can only cost
    /// future cache hits — a recomputed report is always identical to the
    /// evicted one. `0` disables memoisation.
    pub cache_capacity: usize,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            threads: 1,
            cache_capacity: 8_192,
        }
    }
}

/// Cumulative counters of one service (or one scenario's slice of it),
/// surfaced in CLI reports and `BENCH_*.json`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalStats {
    /// Worker threads the pool was configured with.
    pub threads: usize,
    /// Candidate evaluations requested (hits + misses).
    pub requests: u64,
    /// Requests answered from the memo-cache (including duplicates within
    /// one batch, which are simulated only once).
    pub cache_hits: u64,
    /// Requests that required an actual simulation.
    pub cache_misses: u64,
    /// Reports dropped by FIFO eviction after the cache filled up.
    pub evictions: u64,
}

impl EvalStats {
    /// Fraction of requests served from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.requests as f64
        }
    }

    /// Number of simulations actually executed (= cache misses).
    pub fn simulations(&self) -> u64 {
        self.cache_misses
    }
}

/// One scenario's slice of a shared service's statistics, keyed by the
/// scenario fingerprint baked into every cache key. Evictions are
/// attributed to the scenario whose entry was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScenarioEvalStats {
    /// The scenario fingerprint ([`WorkflowEnvironment::fingerprint`]).
    pub fingerprint: u64,
    /// Candidate evaluations requested for this scenario (hits + misses).
    pub requests: u64,
    /// Requests answered from the memo-cache.
    pub cache_hits: u64,
    /// Requests that required an actual simulation.
    pub cache_misses: u64,
    /// This scenario's reports dropped by FIFO eviction.
    pub evictions: u64,
}

impl ScenarioEvalStats {
    /// Fraction of this scenario's requests served from the cache.
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.requests as f64
        }
    }

    /// Number of simulations actually executed for this scenario.
    pub fn simulations(&self) -> u64 {
        self.cache_misses
    }
}

/// A point-in-time view of a whole [`EvalService`], produced by
/// [`EvalService::stats_snapshot`] — the payload a long-running daemon
/// serves from its metrics endpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceSnapshot {
    /// Aggregate counters over every scenario ever registered (monotonic
    /// across unregistration).
    pub stats: EvalStats,
    /// Number of scenarios currently registered.
    pub registered_scenarios: usize,
    /// Number of reports currently memoised across all shards.
    pub cached_entries: usize,
    /// The per-fingerprint breakdown of currently registered scenarios,
    /// ordered by fingerprint.
    pub scenarios: Vec<ScenarioEvalStats>,
    /// Evaluation calls (single probes or whole batches) executing right
    /// now — the service's queue-depth/saturation signal, polled by a
    /// daemon's admission control.
    pub inflight: usize,
    /// High-water mark of `inflight` since the service was created.
    pub inflight_peak: usize,
}

/// Configuration pairs [`KeyRef::hash`] packs into one `write` call: enough
/// for every workflow of the paper and the synthetic corpora in one pass.
/// Longer keys are fed in blocks of this many pairs.
const KEY_BLOCK: usize = 64;

/// Bytes of the key fields ahead of the configuration pairs: fingerprint,
/// input bucket, seed and the pair slice's length prefix.
const KEY_HEADER: usize = 4 * 8 + std::mem::size_of::<usize>();

/// Bytes one `(vcpu bits, memory)` pair feeds the hasher.
const KEY_PAIR: usize = 8 + 4;

/// The exact-equality key of one candidate evaluation, borrowed from the
/// candidate: nothing is allocated to hash it or to look it up.
///
/// The *input bucket* is the bit pattern of the input's scale and payload:
/// two inputs fall into the same bucket iff they are numerically identical,
/// so a cache hit can never return the report of a different input. The
/// seed is normalised to 0 when the cluster models no runtime jitter
/// (reports are then seed-independent), which lets different search methods
/// share entries. Configurations compare by bit pattern.
struct KeyRef<'a> {
    fingerprint: u64,
    input_bucket: (u64, u64),
    seed: u64,
    configs: &'a [ResourceConfig],
}

/// The bit pattern a configuration is keyed by.
fn config_bits(config: &ResourceConfig) -> (u64, u32) {
    (config.vcpu.get().to_bits(), config.memory.get())
}

impl KeyRef<'_> {
    /// SipHash-1-3 with zero keys ([`DefaultHasher::new`]) over exactly the
    /// bytes a derived `Hash` of `(fingerprint, input_bucket, seed,
    /// Box<[(vcpu bits, memory)]>)` feeds it: four native-endian words, the
    /// slice's `usize` length prefix, then 8 + 4 bytes per pair. SipHash
    /// digests a byte stream however it is split into writes, so one write
    /// of the packed bytes yields the hash 2n + 5 separate writes did. The
    /// shard index (`hash % SHARD_COUNT`), and with it per-shard FIFO
    /// eviction, is therefore the same function of the key it always was.
    fn hash(&self) -> u64 {
        let mut hasher = DefaultHasher::new();
        let mut buf = [0u8; KEY_HEADER + KEY_PAIR * KEY_BLOCK];
        let words = [
            self.fingerprint,
            self.input_bucket.0,
            self.input_bucket.1,
            self.seed,
        ];
        for (slot, word) in buf.chunks_exact_mut(8).zip(words) {
            slot.copy_from_slice(&word.to_ne_bytes());
        }
        buf[4 * 8..KEY_HEADER].copy_from_slice(&self.configs.len().to_ne_bytes());
        let mut len = KEY_HEADER;
        for config in self.configs {
            if len == buf.len() {
                hasher.write(&buf);
                len = 0;
            }
            let (vcpu, memory) = config_bits(config);
            buf[len..len + 8].copy_from_slice(&vcpu.to_ne_bytes());
            buf[len + 8..len + KEY_PAIR].copy_from_slice(&memory.to_ne_bytes());
            len += KEY_PAIR;
        }
        hasher.write(&buf[..len]);
        hasher.finish()
    }

    /// Whether two keys name the same evaluation, bit for bit.
    fn same(&self, other: &KeyRef<'_>) -> bool {
        self.fingerprint == other.fingerprint
            && self.input_bucket == other.input_bucket
            && self.seed == other.seed
            && self
                .configs
                .iter()
                .map(config_bits)
                .eq(other.configs.iter().map(config_bits))
    }
}

/// The owned form of a [`KeyRef`] the cache stores, built only for a miss
/// that enters the cache.
#[derive(Debug)]
struct CacheKey {
    fingerprint: u64,
    input_bucket: (u64, u64),
    seed: u64,
    configs: Box<[ResourceConfig]>,
}

impl CacheKey {
    fn new(key: &KeyRef<'_>) -> Self {
        CacheKey {
            fingerprint: key.fingerprint,
            input_bucket: key.input_bucket,
            seed: key.seed,
            configs: key.configs.into(),
        }
    }

    fn view(&self) -> KeyRef<'_> {
        KeyRef {
            fingerprint: self.fingerprint,
            input_bucket: self.input_bucket,
            seed: self.seed,
            configs: &self.configs,
        }
    }
}

/// Hashes a key's SipHash value for a shard's index. All keys of one shard
/// share the low bits (`hash % SHARD_COUNT` picked the shard), and the
/// table places entries by its hash's low bits, so they are swapped with
/// the high half. Keys are built from searcher candidates, never from
/// client bytes.
#[derive(Debug, Default)]
struct ShardHasher(u64);

impl Hasher for ShardHasher {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("shard indexes hash only u64 key hashes")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash.rotate_left(32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One memoised evaluation.
#[derive(Debug)]
struct Entry {
    hash: u64,
    key: CacheKey,
    result: SimResult,
    /// Insertion number of the next-older entry with the same key hash.
    older: Option<u64>,
}

/// One cache shard: its entries in insertion order, which is also FIFO
/// eviction order, and an index from key hash to the newest entry with
/// that hash (older ones chain through [`Entry::older`]). Every entry is
/// one slot of `entries`, with one boxed configuration slice.
#[derive(Debug, Default)]
struct Shard {
    entries: VecDeque<Entry>,
    /// Insertion number of `entries[0]`; `entries[k]` has `head + k`.
    head: u64,
    index: HashMap<u64, u64, BuildHasherDefault<ShardHasher>>,
}

impl Shard {
    /// Position in `entries` of the entry stored under `key`.
    fn find(&self, hash: u64, key: &KeyRef<'_>) -> Option<usize> {
        let mut number = self.index.get(&hash).copied();
        // Walk from the newest entry with this hash to older ones; numbers
        // below `head` were evicted.
        while let Some(n) = number.filter(|&n| n >= self.head) {
            let pos = (n - self.head) as usize;
            if self.entries[pos].key.view().same(key) {
                return Some(pos);
            }
            number = self.entries[pos].older;
        }
        None
    }

    /// Appends a newest entry.
    fn push(&mut self, hash: u64, key: CacheKey, result: SimResult) {
        let number = self.head + self.entries.len() as u64;
        let older = self.index.insert(hash, number);
        self.entries.push_back(Entry {
            hash,
            key,
            result,
            older,
        });
    }

    /// Removes the oldest entry.
    fn pop_oldest(&mut self) -> Option<Entry> {
        let oldest = self.entries.pop_front()?;
        if self.index.get(&oldest.hash) == Some(&self.head) {
            self.index.remove(&oldest.hash);
        }
        self.head += 1;
        Some(oldest)
    }

    /// Keeps the entries whose key `keep` accepts, in their order.
    fn retain(&mut self, mut keep: impl FnMut(&CacheKey) -> bool) {
        self.entries.retain(|e| keep(&e.key));
        self.head = 0;
        self.index.clear();
        for (number, entry) in self.entries.iter_mut().enumerate() {
            entry.older = self.index.insert(entry.hash, number as u64);
        }
    }
}

/// A batch's pre-sized open-addressing table of claimed candidates, keyed
/// by (key hash, candidate index): the first occurrence of each distinct
/// key claims a slot, and a later equal candidate finds that claim.
struct Claims {
    slots: Vec<(u64, usize)>,
}

impl Claims {
    const FREE: usize = usize::MAX;

    /// A table for `candidates` claims, at most half full.
    fn new(candidates: usize) -> Self {
        Claims {
            slots: vec![(0, Self::FREE); (2 * candidates).next_power_of_two()],
        }
    }

    /// The index of an earlier claim for which `same` holds; otherwise
    /// claims a slot for `index` and returns `None`.
    fn claim(&mut self, hash: u64, index: usize, same: impl Fn(usize) -> bool) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            match self.slots[slot] {
                (_, Self::FREE) => {
                    self.slots[slot] = (hash, index);
                    return None;
                }
                (claimed, first) if claimed == hash && same(first) => return Some(first),
                _ => slot = (slot + 1) & mask,
            }
        }
    }
}

/// Hit/miss/eviction counters of one scenario fingerprint. Shared (via
/// `Arc`) between the service registry and every handle of that scenario,
/// so per-scenario statistics survive handle drops.
#[derive(Debug, Default)]
struct ScenarioCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Candidates resolved by intra-batch dedup (identical key earlier in
    /// the same batch) — a subset of `hits`, broken out so the bench can
    /// tell memo-cache reuse from within-batch duplication.
    batch_dedup: AtomicU64,
}

/// The immutable per-scenario half of an evaluation: the compiled scenario,
/// its environment and its statistics slice. Shared by clones of a
/// [`ScenarioHandle`] via `Arc`.
#[derive(Debug)]
struct ScenarioData {
    env: WorkflowEnvironment,
    scenario: CompiledScenario,
    fingerprint: u64,
    counters: Arc<ScenarioCounters>,
    /// The most recent stall-free probe `(configs, result)` of this
    /// registration, used as the incremental anchor for the next probe.
    /// Searcher probes mutate one path suffix per step, so consecutive
    /// probes usually share most of their timeline; reuse is exact
    /// (bit-identical results), so a stale or raced anchor can never
    /// change an outcome — only how much work it saves.
    probe_anchor: Mutex<Option<(ConfigMap, SimResult)>>,
}

/// Telemetry instruments for the evaluation substrate, registered on a
/// shared [`Recorder`] and attached to an [`EvalService`] with
/// [`EvalService::attach_telemetry`].
///
/// When no telemetry is attached the service takes **zero** timestamps —
/// the only overhead on the evaluation path is one atomic load per batch
/// (`OnceLock::get`), which keeps the bench gate's sims/sec unchanged.
/// When attached, each batch records its wall-clock latency split into
/// queue-wait (cache pre-pass, dedup, memo-cache insertion) and pure
/// simulation time, updates a sims/sec gauge, folds the kernel's work
/// counters into process counters, and appends an `eval_batch` event to
/// the flight recorder.
#[derive(Debug)]
pub struct EvalTelemetry {
    batch_seconds: Arc<Histogram>,
    probe_seconds: Arc<Histogram>,
    queue_wait_seconds: Arc<Histogram>,
    sim_seconds: Arc<Histogram>,
    sims_per_sec: Arc<Gauge>,
    kernel_sims: Arc<Counter>,
    node_starts: Arc<Counter>,
    oom_kills: Arc<Counter>,
    capacity_stalls: Arc<Counter>,
    flight: Arc<FlightRecorder>,
}

impl EvalTelemetry {
    /// Registers the evaluation metrics on `recorder` and wires events to
    /// `flight`.
    pub fn new(recorder: &Recorder, flight: Arc<FlightRecorder>) -> Self {
        EvalTelemetry {
            batch_seconds: recorder.histogram(
                "aarc_eval_batch_seconds",
                "Wall-clock latency of candidate evaluation batches.",
            ),
            probe_seconds: recorder.histogram(
                "aarc_eval_probe_seconds",
                "Wall-clock latency of single-candidate probe evaluations.",
            ),
            queue_wait_seconds: recorder.histogram(
                "aarc_eval_queue_wait_seconds",
                "Batch time outside the simulation pool: cache pre-pass, dedup and insertion.",
            ),
            sim_seconds: recorder.histogram(
                "aarc_eval_sim_seconds",
                "Batch time inside the simulation worker pool.",
            ),
            sims_per_sec: recorder.gauge(
                "aarc_sims_per_sec",
                "Simulation throughput of the most recent evaluation batch.",
            ),
            kernel_sims: recorder.counter(
                "aarc_kernel_simulations_total",
                "Completed discrete-event simulations.",
            ),
            node_starts: recorder.counter(
                "aarc_kernel_function_starts_total",
                "Function invocations started by the simulation kernel.",
            ),
            oom_kills: recorder.counter(
                "aarc_kernel_oom_kills_total",
                "Simulated invocations killed by the memory limit.",
            ),
            capacity_stalls: recorder.counter(
                "aarc_kernel_capacity_stalls_total",
                "Placement attempts that found no host with free capacity.",
            ),
            flight,
        }
    }

    /// The flight recorder events are appended to.
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.flight
    }
}

/// The process-wide evaluation substrate: the deterministic chunked
/// worker pool, the sharded fingerprint-keyed memo-cache and the
/// [`SimScratch`] arena pool, shared by every scenario registered on it.
///
/// Scenarios borrow the substrate through [`ScenarioHandle`]s
/// ([`EvalService::register`]); independent searches submit batches through
/// their handles and interleave on the shared pool. Statistics are kept per
/// scenario fingerprint ([`EvalService::scenario_stats`]) and in aggregate
/// ([`EvalService::stats`]).
#[derive(Debug)]
pub struct EvalService {
    options: EvalOptions,
    shards: Vec<Mutex<Shard>>,
    scratch_pool: Mutex<Vec<SimScratch>>,
    scenarios: Mutex<BTreeMap<u64, Arc<ScenarioCounters>>>,
    /// Counters folded in from unregistered scenarios, so the aggregate
    /// [`stats`](EvalService::stats) stays monotonic across the runtime
    /// scenario lifecycle (a `/metrics` scrape must never see totals drop).
    retired: ScenarioCounters,
    /// Optional instrumentation, attached at most once. Unset, the
    /// evaluation path takes no timestamps at all.
    telemetry: OnceLock<EvalTelemetry>,
    /// Evaluation calls (probes or batches) currently executing; see
    /// [`EvalService::inflight`].
    inflight: AtomicU64,
    /// High-water mark of `inflight`.
    inflight_peak: AtomicU64,
    /// Kernel work counters drained from every scratch arena returned to
    /// the pool — the service-wide view of how many simulations ran and
    /// which kernel path (event loop, relaxation, incremental) served
    /// them, regardless of whether telemetry is attached.
    kernel_totals: Mutex<KernelCounters>,
}

/// RAII marker of one in-flight evaluation call: increments the service's
/// saturation gauge on entry and decrements it on drop, even when the
/// evaluation errors.
struct InflightGuard<'a> {
    service: &'a EvalService,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.service.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

impl EvalService {
    /// Creates a service with the given pool and cache options.
    pub fn new(options: EvalOptions) -> Self {
        EvalService {
            options: EvalOptions {
                threads: options.threads.max(1),
                cache_capacity: options.cache_capacity,
            },
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            scratch_pool: Mutex::new(Vec::new()),
            scenarios: Mutex::new(BTreeMap::new()),
            retired: ScenarioCounters::default(),
            telemetry: OnceLock::new(),
            inflight: AtomicU64::new(0),
            inflight_peak: AtomicU64::new(0),
            kernel_totals: Mutex::new(KernelCounters::default()),
        }
    }

    /// Number of evaluation calls (single probes or whole batches)
    /// executing right now. This is the service's saturation signal: a
    /// daemon sheds load when it — together with the live-session count —
    /// crosses an admission watermark.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::SeqCst) as usize
    }

    /// High-water mark of [`inflight`](EvalService::inflight) since the
    /// service was created.
    pub fn inflight_peak(&self) -> usize {
        self.inflight_peak.load(Ordering::SeqCst) as usize
    }

    fn enter_inflight(&self) -> InflightGuard<'_> {
        let now = self.inflight.fetch_add(1, Ordering::SeqCst) + 1;
        self.inflight_peak.fetch_max(now, Ordering::SeqCst);
        InflightGuard { service: self }
    }

    /// Attaches telemetry instruments to the service. May be called at
    /// most once per service; subsequent calls are ignored (the first
    /// attachment wins) and the error carries the rejected instruments.
    pub fn attach_telemetry(&self, telemetry: EvalTelemetry) -> Result<(), EvalTelemetry> {
        self.telemetry.set(telemetry)
    }

    /// The attached telemetry instruments, if any.
    pub fn telemetry(&self) -> Option<&EvalTelemetry> {
        self.telemetry.get()
    }

    /// A service with `threads` workers and the default cache.
    pub fn with_threads(threads: usize) -> Self {
        EvalService::new(EvalOptions {
            threads,
            ..EvalOptions::default()
        })
    }

    /// Worker threads used for batch evaluation.
    pub fn threads(&self) -> usize {
        self.options.threads
    }

    /// Registers `env` on the service: compiles the scenario once and
    /// returns a cheap handle that submits evaluations through the shared
    /// pool and cache. Handles of environments with identical fingerprints
    /// share one statistics slice.
    pub fn register(&self, env: WorkflowEnvironment) -> ScenarioHandle<'_> {
        let fingerprint = env.fingerprint();
        let scenario = CompiledScenario::compile(
            env.workflow(),
            env.profiles(),
            *env.cluster(),
            *env.pricing(),
        )
        .expect("environment profiles are validated at build time");
        let counters = Arc::clone(
            self.scenarios
                .lock()
                .expect("scenario registry poisoned")
                .entry(fingerprint)
                .or_default(),
        );
        ScenarioHandle {
            service: self,
            data: Arc::new(ScenarioData {
                env,
                scenario,
                fingerprint,
                counters,
                probe_anchor: Mutex::new(None),
            }),
        }
    }

    /// Unregisters a scenario from the service by fingerprint: drops its
    /// statistics slice from the registry (its counters are folded into a
    /// retired total, so the aggregate [`stats`](EvalService::stats) stays
    /// monotonic) and purges every cache entry carrying that fingerprint
    /// from all shards. Returns whether the fingerprint was registered.
    ///
    /// Outstanding [`ScenarioHandle`]s of the scenario keep working — they
    /// own the compiled scenario via `Arc` — but become statistically
    /// detached: their counter increments no longer show up in the
    /// service-wide statistics, and entries they re-insert are attributed
    /// to an unknown fingerprint until the scenario is registered again
    /// (which starts a fresh statistics slice).
    pub fn unregister(&self, fingerprint: u64) -> bool {
        let removed = self
            .scenarios
            .lock()
            .expect("scenario registry poisoned")
            .remove(&fingerprint);
        if let Some(counters) = &removed {
            self.retired
                .hits
                .fetch_add(counters.hits.load(Ordering::Relaxed), Ordering::Relaxed);
            self.retired
                .misses
                .fetch_add(counters.misses.load(Ordering::Relaxed), Ordering::Relaxed);
            self.retired.evictions.fetch_add(
                counters.evictions.load(Ordering::Relaxed),
                Ordering::Relaxed,
            );
            self.retired.batch_dedup.fetch_add(
                counters.batch_dedup.load(Ordering::Relaxed),
                Ordering::Relaxed,
            );
        }
        for shard in &self.shards {
            shard
                .lock()
                .expect("cache shard poisoned")
                .retain(|k| k.fingerprint != fingerprint);
        }
        removed.is_some()
    }

    /// Aggregate statistics over every scenario ever registered on the
    /// service (unregistered scenarios' counters stay folded in).
    pub fn stats(&self) -> EvalStats {
        let mut hits = self.retired.hits.load(Ordering::Relaxed);
        let mut misses = self.retired.misses.load(Ordering::Relaxed);
        let mut evictions = self.retired.evictions.load(Ordering::Relaxed);
        for counters in self
            .scenarios
            .lock()
            .expect("scenario registry poisoned")
            .values()
        {
            hits += counters.hits.load(Ordering::Relaxed);
            misses += counters.misses.load(Ordering::Relaxed);
            evictions += counters.evictions.load(Ordering::Relaxed);
        }
        EvalStats {
            threads: self.options.threads,
            requests: hits + misses,
            cache_hits: hits,
            cache_misses: misses,
            evictions,
        }
    }

    /// The per-fingerprint statistics breakdown, ordered by fingerprint.
    /// One entry per distinct scenario ever registered, even if all of its
    /// handles have been dropped.
    pub fn scenario_stats(&self) -> Vec<ScenarioEvalStats> {
        self.scenarios
            .lock()
            .expect("scenario registry poisoned")
            .iter()
            .map(|(&fingerprint, counters)| {
                let hits = counters.hits.load(Ordering::Relaxed);
                let misses = counters.misses.load(Ordering::Relaxed);
                ScenarioEvalStats {
                    fingerprint,
                    requests: hits + misses,
                    cache_hits: hits,
                    cache_misses: misses,
                    evictions: counters.evictions.load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    /// A point-in-time snapshot of the whole service, cheap enough to poll
    /// from a metrics endpoint: aggregate counters, the per-fingerprint
    /// breakdown, the number of currently registered scenarios and the
    /// number of memoised reports.
    pub fn stats_snapshot(&self) -> ServiceSnapshot {
        let scenarios = self.scenario_stats();
        ServiceSnapshot {
            stats: self.stats(),
            registered_scenarios: scenarios.len(),
            cached_entries: self.cached_entries(),
            scenarios,
            inflight: self.inflight(),
            inflight_peak: self.inflight_peak(),
        }
    }

    /// Candidates resolved by intra-batch dedup across every scenario ever
    /// registered (a subset of the aggregate cache hits): identical
    /// `(config, input, seed)` candidates within one batch simulate once
    /// and fan the result out.
    pub fn batch_dedup_hits(&self) -> u64 {
        let mut dedup = self.retired.batch_dedup.load(Ordering::Relaxed);
        for counters in self
            .scenarios
            .lock()
            .expect("scenario registry poisoned")
            .values()
        {
            dedup += counters.batch_dedup.load(Ordering::Relaxed);
        }
        dedup
    }

    /// Aggregate kernel work counters drained from every scratch arena the
    /// service has recycled: total simulations and the per-path breakdown
    /// (event loop vs. relaxation vs. incremental reuse). Arenas currently
    /// checked out by in-flight evaluations are not yet included.
    pub fn kernel_counters(&self) -> KernelCounters {
        *self.kernel_totals.lock().expect("kernel totals poisoned")
    }

    /// Number of reports currently memoised across all shards (all
    /// scenarios together).
    pub fn cached_entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").entries.len())
            .sum()
    }

    /// Evaluates one candidate of `data`'s scenario, consulting the shared
    /// memo-cache first.
    fn evaluate_data(
        &self,
        data: &ScenarioData,
        configs: &ConfigMap,
        input: InputSpec,
        seed: u64,
    ) -> Result<SimResult, SimulatorError> {
        let _inflight = self.enter_inflight();
        let probe_start = self.telemetry.get().map(|_| Instant::now());
        let result = self.evaluate_data_inner(data, configs, input, seed);
        if let (Some(telemetry), Some(start)) = (self.telemetry.get(), probe_start) {
            telemetry.probe_seconds.record(start.elapsed());
        }
        result
    }

    fn evaluate_data_inner(
        &self,
        data: &ScenarioData,
        configs: &ConfigMap,
        input: InputSpec,
        seed: u64,
    ) -> Result<SimResult, SimulatorError> {
        let key = Self::key(data, configs, input, seed);
        let hash = key.hash();
        if let Some(result) = self.cache_get(hash, &key) {
            data.counters.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(result);
        }
        data.counters.misses.fetch_add(1, Ordering::Relaxed);
        let mut scratch = self.take_scratch();
        // Probe fast path: the kernel re-simulates incrementally off this
        // registration's previous stall-free probe when it can prove
        // bit-identity, and from scratch otherwise. Reuse is exact either
        // way, so a stale or raced anchor can never change a result — only
        // how much work it saves. The anchor is taken out for the
        // simulation and put back after it; a result the kernel minted as
        // `stall_free` replaces it, and no other can.
        let mut anchor = data
            .probe_anchor
            .lock()
            .expect("probe anchor poisoned")
            .take();
        let result = data.scenario.simulate_anchored(
            &mut scratch,
            configs,
            input,
            seed,
            anchor.as_ref().map(|(cfgs, result)| (cfgs, result)),
        );
        self.put_scratch(scratch);
        if let Ok(result) = &result {
            if result.stall_free() {
                match &mut anchor {
                    Some((anchor_cfgs, anchor_result)) => {
                        anchor_cfgs.clone_from(configs);
                        *anchor_result = result.clone();
                    }
                    None => anchor = Some((configs.clone(), result.clone())),
                }
            }
        }
        if anchor.is_some() {
            *data.probe_anchor.lock().expect("probe anchor poisoned") = anchor;
        }
        let result = result?;
        self.cache_insert(data, hash, &key, result.clone());
        Ok(result)
    }

    /// Evaluates a batch of candidates of `data`'s scenario. Candidate `i`
    /// runs with the derived seed `derive_seed(env.seed(), i)` — a function
    /// of its index only — and duplicates within the batch are simulated
    /// once, so the returned reports (and the statistics) are bit-identical
    /// regardless of the pool's thread count.
    fn evaluate_batch_data(
        &self,
        data: &ScenarioData,
        candidates: &[ConfigMap],
        input: InputSpec,
    ) -> Result<Vec<SimResult>, SimulatorError> {
        let _inflight = self.enter_inflight();
        let n = candidates.len();
        // One atomic load; `None` keeps the whole path free of clock reads.
        let telemetry = self.telemetry.get();
        let batch_start = telemetry.map(|_| Instant::now());
        let mut results: Vec<Option<SimResult>> = vec![None; n];
        // Sequential cache pre-pass in candidate order: hash each key once,
        // resolve hits, claim the first occurrence of every distinct
        // missing key and remember intra-batch duplicates, each against
        // its first occurrence's candidate index. Counting duplicates as
        // hits matches the sequential (1-thread) semantics exactly.
        let base_seed = data.env.seed();
        let key_of = |i: usize| {
            Self::key(
                data,
                &candidates[i],
                input,
                derive_seed(base_seed, i as u64),
            )
        };
        let mut claims = Claims::new(n);
        // (candidate index, key hash, seed) of each distinct miss.
        let mut pending: Vec<(usize, u64, u64)> = Vec::with_capacity(n);
        let mut duplicates: Vec<(usize, usize)> = Vec::new();
        let mut batch_hits = 0u64;
        for (i, result) in results.iter_mut().enumerate() {
            let key = key_of(i);
            let hash = key.hash();
            if let Some(report) = self.cache_get(hash, &key) {
                data.counters.hits.fetch_add(1, Ordering::Relaxed);
                batch_hits += 1;
                *result = Some(report);
            } else if let Some(first) = claims.claim(hash, i, |j| key_of(j).same(&key)) {
                data.counters.hits.fetch_add(1, Ordering::Relaxed);
                data.counters.batch_dedup.fetch_add(1, Ordering::Relaxed);
                batch_hits += 1;
                duplicates.push((i, first));
            } else {
                data.counters.misses.fetch_add(1, Ordering::Relaxed);
                pending.push((i, hash, derive_seed(base_seed, i as u64)));
            }
        }
        let misses = pending.len();

        // Simulate all distinct misses on the worker pool.
        let sim_start = telemetry.map(|_| Instant::now());
        let computed = self.run_pool(data, candidates, input, &pending);
        let sim_ns = sim_start.map_or(0, |s| s.elapsed().as_nanos().min(u64::MAX as u128) as u64);

        // Insert in candidate order (deterministic eviction), then resolve
        // duplicates from their first occurrences.
        let mut evicted = 0usize;
        for (&(i, hash, _seed), outcome) in pending.iter().zip(computed) {
            let report = outcome?;
            evicted += self.cache_insert(data, hash, &key_of(i), report.clone());
            results[i] = Some(report);
        }
        let dedup_hits = duplicates.len() as u64;
        for (i, first) in duplicates {
            results[i] = results[first].clone();
        }

        if let (Some(telemetry), Some(start)) = (telemetry, batch_start) {
            let total_ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            telemetry.batch_seconds.record_ns(total_ns);
            telemetry.sim_seconds.record_ns(sim_ns);
            telemetry
                .queue_wait_seconds
                .record_ns(total_ns.saturating_sub(sim_ns));
            if sim_ns > 0 && misses > 0 {
                telemetry
                    .sims_per_sec
                    .set(misses as f64 / (sim_ns as f64 / 1e9));
            }
            telemetry.flight.record(
                "eval_batch",
                vec![
                    (
                        "fingerprint",
                        FieldValue::Str(format!("{:016x}", data.fingerprint)),
                    ),
                    ("candidates", FieldValue::U64(n as u64)),
                    ("hits", FieldValue::U64(batch_hits)),
                    ("dedup", FieldValue::U64(dedup_hits)),
                    ("misses", FieldValue::U64(misses as u64)),
                    ("evictions", FieldValue::U64(evicted as u64)),
                    (
                        "queue_us",
                        FieldValue::U64(total_ns.saturating_sub(sim_ns) / 1_000),
                    ),
                    ("sim_us", FieldValue::U64(sim_ns / 1_000)),
                    ("total_us", FieldValue::U64(total_ns / 1_000)),
                ],
            );
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("every candidate resolved"))
            .collect())
    }

    /// Materialises the full [`ExecutionReport`] of one candidate of
    /// `data`'s scenario (bypasses the memo-cache; see
    /// [`ScenarioHandle::materialize`]).
    fn materialize_data(
        &self,
        data: &ScenarioData,
        configs: &ConfigMap,
        input: InputSpec,
        seed: u64,
    ) -> Result<ExecutionReport, SimulatorError> {
        let mut scratch = self.take_scratch();
        let report = data
            .scenario
            .simulate_report(&mut scratch, configs, input, seed);
        self.put_scratch(scratch);
        report
    }

    /// Borrows a scratch arena from the pool (or creates one on first use).
    fn take_scratch(&self) -> SimScratch {
        self.scratch_pool
            .lock()
            .expect("scratch pool poisoned")
            .pop()
            .unwrap_or_default()
    }

    /// Returns a scratch arena to the pool for the next evaluation,
    /// draining the kernel's accumulated work counters into the
    /// service-wide totals (and, when telemetry is attached, into the
    /// process metrics — plain integer adds, never timestamps).
    fn put_scratch(&self, mut scratch: SimScratch) {
        let counters = scratch.take_counters();
        self.kernel_totals
            .lock()
            .expect("kernel totals poisoned")
            .merge(&counters);
        if let Some(telemetry) = self.telemetry.get() {
            telemetry.kernel_sims.add(counters.sims);
            telemetry.node_starts.add(counters.node_starts);
            telemetry.oom_kills.add(counters.oom_kills);
            telemetry.capacity_stalls.add(counters.capacity_stalls);
        }
        self.scratch_pool
            .lock()
            .expect("scratch pool poisoned")
            .push(scratch);
    }

    /// Chunk width of the batch scheduler. A pure function of the number
    /// of pending jobs — never of the thread count — so chunk boundaries,
    /// and with them each chunk's fresh incremental-anchor chain and the
    /// kernel-counter stream, are identical at every pool width. `/64`
    /// yields enough chunks for the workers' shared claim counter to even
    /// out stragglers on large batches; the 8..=512 clamp bounds per-chunk
    /// scheduling overhead on small ones and tail latency on huge ones.
    fn batch_chunk_size(jobs: usize) -> usize {
        (jobs / 64).clamp(8, 512)
    }

    /// Runs the distinct misses of a batch on the worker pool, returning
    /// outcomes in `pending` order.
    ///
    /// The batch is cut into fixed-width chunks
    /// ([`batch_chunk_size`](Self::batch_chunk_size)). The submitting
    /// thread and `threads - 1` scoped helpers run one worker loop each:
    /// claim the next chunk index from a shared counter, simulate it
    /// through the worker's [`BatchSim`] and scratch arena, and repeat until
    /// no chunk is left, so a straggler chunk never idles the rest of the
    /// pool. A one-thread service, or a one-chunk batch, spawns nothing.
    /// Every chunk starts a fresh incremental-anchor chain and carries
    /// positional seeds, so *which* worker claims a chunk is invisible in
    /// the results: streams are bit-identical at every thread count.
    fn run_pool(
        &self,
        data: &ScenarioData,
        candidates: &[ConfigMap],
        input: InputSpec,
        pending: &[(usize, u64, u64)],
    ) -> Vec<Result<SimResult, SimulatorError>> {
        if pending.is_empty() {
            return Vec::new();
        }
        let chunk = Self::batch_chunk_size(pending.len());
        let chunk_count = pending.len().div_ceil(chunk);
        // `Relaxed` suffices: the counter only hands out chunk indices and
        // publishes no data; `pending` and `candidates` are read-only, and
        // the scope's spawns and joins order every other access.
        let next_chunk = AtomicUsize::new(0);
        let worker = || {
            let mut scratch = self.take_scratch();
            let mut batch = BatchSim::new(&data.scenario, input);
            let mut done: Vec<(usize, Vec<Result<SimResult, SimulatorError>>)> = Vec::new();
            let mut job_list: Vec<(&ConfigMap, u64)> = Vec::with_capacity(chunk);
            loop {
                let c = next_chunk.fetch_add(1, Ordering::Relaxed);
                if c >= chunk_count {
                    break;
                }
                let jobs = &pending[c * chunk..pending.len().min((c + 1) * chunk)];
                job_list.clear();
                job_list.extend(jobs.iter().map(|(i, _, seed)| (&candidates[*i], *seed)));
                done.push((c, batch.simulate_chunk(&mut scratch, &job_list)));
            }
            self.put_scratch(scratch);
            done
        };
        let threads = self.options.threads.min(chunk_count);
        let mut slots: Vec<Option<Vec<Result<SimResult, SimulatorError>>>> = Vec::new();
        slots.resize_with(chunk_count, || None);
        std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(worker)).collect();
            let own = worker();
            let joined = helpers
                .into_iter()
                .flat_map(|helper| helper.join().expect("evaluation worker panicked"));
            for (c, results) in own.into_iter().chain(joined) {
                slots[c] = Some(results);
            }
        });
        slots
            .into_iter()
            .flat_map(|s| s.expect("every chunk processed exactly once"))
            .collect()
    }

    /// The exact cache key of one evaluation. The seed is dropped from the
    /// key when the cluster models no jitter, because the report is then
    /// seed-independent.
    fn key<'c>(
        data: &ScenarioData,
        configs: &'c ConfigMap,
        input: InputSpec,
        seed: u64,
    ) -> KeyRef<'c> {
        let key_seed = if data.env.cluster().runtime_jitter > 0.0 {
            seed
        } else {
            0
        };
        KeyRef {
            fingerprint: data.fingerprint,
            input_bucket: (input.scale.to_bits(), input.payload_mb.to_bits()),
            seed: key_seed,
            configs: configs.as_slice(),
        }
    }

    fn shard(&self, hash: u64) -> &Mutex<Shard> {
        &self.shards[(hash as usize) % SHARD_COUNT]
    }

    fn cache_get(&self, hash: u64, key: &KeyRef<'_>) -> Option<SimResult> {
        if self.options.cache_capacity == 0 {
            return None;
        }
        let shard = self.shard(hash).lock().expect("cache shard poisoned");
        shard
            .find(hash, key)
            .map(|pos| shard.entries[pos].result.clone())
    }

    /// Memoises `result` under `key`; returns how many entries were
    /// evicted to make room (feeds the flight recorder's batch events).
    fn cache_insert(
        &self,
        data: &ScenarioData,
        hash: u64,
        key: &KeyRef<'_>,
        result: SimResult,
    ) -> usize {
        if self.options.cache_capacity == 0 {
            return 0;
        }
        let per_shard = (self.options.cache_capacity / SHARD_COUNT).max(1);
        let mut shard = self.shard(hash).lock().expect("cache shard poisoned");
        if let Some(pos) = shard.find(hash, key) {
            // A concurrent submitter memoised the same key first.
            shard.entries[pos].result = result;
            return 0;
        }
        shard.push(hash, CacheKey::new(key), result);
        let mut evicted = 0;
        while shard.entries.len() > per_shard {
            let oldest = shard.pop_oldest().expect("an over-full shard has entries");
            self.count_eviction(data, oldest.key.fingerprint);
            evicted += 1;
        }
        evicted
    }

    /// Attributes one eviction to the scenario whose entry was dropped —
    /// with a shared cache that is not necessarily the submitting scenario.
    fn count_eviction(&self, data: &ScenarioData, evicted_fingerprint: u64) {
        if evicted_fingerprint == data.fingerprint {
            data.counters.evictions.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if let Some(counters) = self
            .scenarios
            .lock()
            .expect("scenario registry poisoned")
            .get(&evicted_fingerprint)
        {
            counters.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Default for EvalService {
    fn default() -> Self {
        EvalService::new(EvalOptions::default())
    }
}

/// A cheap per-scenario view onto a shared [`EvalService`]: the compiled
/// scenario and its statistics slice. Cloning a handle clones an `Arc`, not
/// the compiled scenario.
///
/// Searchers submit candidates through [`evaluate`](ScenarioHandle::evaluate)
/// / [`evaluate_batch`](ScenarioHandle::evaluate_batch); the service
/// short-circuits repeated simulations through the shared memo-cache and
/// fans independent candidates out over the shared worker pool.
#[derive(Debug, Clone)]
pub struct ScenarioHandle<'s> {
    service: &'s EvalService,
    data: Arc<ScenarioData>,
}

impl<'s> ScenarioHandle<'s> {
    /// The wrapped environment (workflow, profiles, space, pricing, ...).
    pub fn env(&self) -> &WorkflowEnvironment {
        &self.data.env
    }

    /// The compiled scenario every evaluation runs against.
    pub fn scenario(&self) -> &CompiledScenario {
        &self.data.scenario
    }

    /// The scenario fingerprint baked into every cache key.
    pub fn fingerprint(&self) -> u64 {
        self.data.fingerprint
    }

    /// Evaluates one candidate with the environment's default input and
    /// seed, consulting the shared memo-cache first.
    ///
    /// # Errors
    ///
    /// See [`CompiledScenario::simulate`].
    pub fn evaluate(&self, configs: &ConfigMap) -> Result<SimResult, SimulatorError> {
        self.evaluate_with(configs, self.data.env.input(), self.data.env.seed())
    }

    /// Evaluates one candidate with full control over input and seed,
    /// consulting the shared memo-cache first.
    ///
    /// # Errors
    ///
    /// See [`CompiledScenario::simulate`].
    pub fn evaluate_with(
        &self,
        configs: &ConfigMap,
        input: InputSpec,
        seed: u64,
    ) -> Result<SimResult, SimulatorError> {
        self.service.evaluate_data(&self.data, configs, input, seed)
    }

    /// Evaluates a batch of candidates with the environment's default input.
    ///
    /// Candidate `i` runs with the derived seed `derive_seed(env.seed(), i)`
    /// — a function of its index only — and duplicates within the batch are
    /// simulated once, so the returned reports (and the cache statistics)
    /// are bit-identical regardless of the pool's thread count.
    ///
    /// # Errors
    ///
    /// Returns the first error in candidate order.
    pub fn evaluate_batch(
        &self,
        candidates: &[ConfigMap],
    ) -> Result<Vec<SimResult>, SimulatorError> {
        self.evaluate_batch_with(candidates, self.data.env.input())
    }

    /// [`evaluate_batch`](ScenarioHandle::evaluate_batch) with an explicit
    /// input.
    ///
    /// # Errors
    ///
    /// Returns the first error in candidate order.
    pub fn evaluate_batch_with(
        &self,
        candidates: &[ConfigMap],
        input: InputSpec,
    ) -> Result<Vec<SimResult>, SimulatorError> {
        self.service
            .evaluate_batch_data(&self.data, candidates, input)
    }

    /// Materialises the full [`ExecutionReport`] (per-function names and the
    /// complete event trace) of one candidate. This deliberately bypasses
    /// the memo-cache — reports are only produced for search winners and
    /// CLI `run` output, never on the hot path — and is bit-identical to
    /// the [`SimResult`] of the same `(configs, input, seed)` triple.
    ///
    /// # Errors
    ///
    /// See [`CompiledScenario::simulate_report`].
    pub fn materialize(
        &self,
        configs: &ConfigMap,
        input: InputSpec,
        seed: u64,
    ) -> Result<ExecutionReport, SimulatorError> {
        self.service
            .materialize_data(&self.data, configs, input, seed)
    }

    /// [`materialize`](ScenarioHandle::materialize) for the exact `(input,
    /// seed)` a [`SimResult`] was produced under — the way a search winner's
    /// full report is recovered without risking a contradictory re-roll
    /// under runtime jitter.
    ///
    /// # Errors
    ///
    /// See [`CompiledScenario::simulate_report`].
    pub fn materialize_result(
        &self,
        configs: &ConfigMap,
        result: &SimResult,
    ) -> Result<ExecutionReport, SimulatorError> {
        self.materialize(configs, result.input(), result.seed())
    }

    /// This scenario's slice of the service's cumulative statistics
    /// (`threads` reports the service's pool width).
    pub fn stats(&self) -> EvalStats {
        let hits = self.data.counters.hits.load(Ordering::Relaxed);
        let misses = self.data.counters.misses.load(Ordering::Relaxed);
        EvalStats {
            threads: self.service.options.threads,
            requests: hits + misses,
            cache_hits: hits,
            cache_misses: misses,
            evictions: self.data.counters.evictions.load(Ordering::Relaxed),
        }
    }

    /// This scenario's statistics in per-fingerprint form.
    pub fn scenario_stats(&self) -> ScenarioEvalStats {
        let hits = self.data.counters.hits.load(Ordering::Relaxed);
        let misses = self.data.counters.misses.load(Ordering::Relaxed);
        ScenarioEvalStats {
            fingerprint: self.data.fingerprint,
            requests: hits + misses,
            cache_hits: hits,
            cache_misses: misses,
            evictions: self.data.counters.evictions.load(Ordering::Relaxed),
        }
    }

    /// Candidates of this scenario resolved by intra-batch dedup (a subset
    /// of its cache hits): identical `(config, input, seed)` candidates
    /// within one [`evaluate_batch`](ScenarioHandle::evaluate_batch)
    /// simulate once and fan the result out.
    pub fn batch_dedup_hits(&self) -> u64 {
        self.data.counters.batch_dedup.load(Ordering::Relaxed)
    }

    /// The service-wide kernel work counters (shared across scenarios —
    /// scratch arenas are pooled service-wide). Exposes the layout
    /// observables [`KernelCounters::allocs_per_sim`] and
    /// [`KernelCounters::bytes_per_sim`] next to the per-path simulation
    /// split.
    pub fn kernel_counters(&self) -> KernelCounters {
        self.service.kernel_counters()
    }
}

// The worker pool shares `&WorkflowEnvironment` across threads.
const _: () = {
    const fn assert_sync<T: Sync + Send>() {}
    assert_sync::<WorkflowEnvironment>();
    assert_sync::<EvalService>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use crate::perf_model::{FunctionProfile, ProfileSet};
    use crate::resources::ResourceConfig;
    use aarc_workflow::WorkflowBuilder;

    fn env() -> WorkflowEnvironment {
        let mut b = WorkflowBuilder::new("eval-test");
        let a = b.add_function("a");
        let c = b.add_function("b");
        b.add_edge(a, c).unwrap();
        let wf = b.build().unwrap();
        let mut p = ProfileSet::new();
        p.insert(
            a,
            FunctionProfile::builder("a")
                .serial_ms(1_000.0)
                .parallel_ms(4_000.0)
                .max_parallelism(4.0)
                .working_set_mb(512.0)
                .mem_floor_mb(256.0)
                .build(),
        );
        p.insert(c, FunctionProfile::builder("b").serial_ms(500.0).build());
        WorkflowEnvironment::builder(wf, p).build().unwrap()
    }

    fn jittery_env() -> WorkflowEnvironment {
        let base = env();
        WorkflowEnvironment::builder(base.workflow().clone(), base.profiles().clone())
            .cluster(ClusterSpec::paper_testbed_with_jitter(0.05))
            .build()
            .unwrap()
    }

    fn candidates(n: usize) -> Vec<ConfigMap> {
        (0..n)
            .map(|i| {
                ConfigMap::uniform(
                    2,
                    ResourceConfig::new(1.0 + (i % 7) as f64, 512 + 64 * (i as u32 % 9)),
                )
            })
            .collect()
    }

    #[test]
    fn single_evaluation_matches_direct_execution() {
        let e = env();
        let service = EvalService::default();
        let handle = service.register(e.clone());
        let cfg = e.base_configs();
        let direct = e.execute(&cfg).unwrap();
        let via_handle = handle.evaluate(&cfg).unwrap();
        assert_eq!(direct.makespan_ms(), via_handle.makespan_ms());
        assert_eq!(direct.total_cost(), via_handle.total_cost());
        assert_eq!(direct.any_oom(), via_handle.any_oom());
        for exec in direct.executions() {
            assert_eq!(
                via_handle.runtime_of(exec.node),
                Some(exec.runtime_ms),
                "{}",
                exec.node
            );
            assert_eq!(via_handle.cost_of(exec.node), Some(exec.cost));
        }
        // Materialising the winner recovers the identical full report.
        let materialised = handle.materialize_result(&cfg, &via_handle).unwrap();
        assert_eq!(direct, materialised);
    }

    #[test]
    fn repeated_evaluations_hit_the_cache() {
        let service = EvalService::default();
        let handle = service.register(env());
        let cfg = handle.env().base_configs();
        let first = handle.evaluate(&cfg).unwrap();
        let second = handle.evaluate(&cfg).unwrap();
        assert_eq!(first, second);
        let stats = handle.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.simulations(), 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn seed_is_normalised_out_of_the_key_without_jitter() {
        let service = EvalService::default();
        let plain = service.register(env());
        let cfg = plain.env().base_configs();
        plain.evaluate_with(&cfg, InputSpec::nominal(), 1).unwrap();
        plain.evaluate_with(&cfg, InputSpec::nominal(), 2).unwrap();
        assert_eq!(
            plain.stats().cache_hits,
            1,
            "seed-independent reports must share entries"
        );

        let jittered = service.register(jittery_env());
        let a = jittered
            .evaluate_with(&cfg, InputSpec::nominal(), 1)
            .unwrap();
        let b = jittered
            .evaluate_with(&cfg, InputSpec::nominal(), 2)
            .unwrap();
        assert_eq!(
            jittered.stats().cache_hits,
            0,
            "jittered reports are seed-specific"
        );
        assert_ne!(a.makespan_ms(), b.makespan_ms());
    }

    #[test]
    fn different_inputs_use_different_buckets() {
        let service = EvalService::default();
        let handle = service.register(env());
        let cfg = handle.env().base_configs();
        let heavy = handle
            .evaluate_with(&cfg, InputSpec::new(2.0, 64.0), 0)
            .unwrap();
        let light = handle
            .evaluate_with(&cfg, InputSpec::new(0.5, 2.0), 0)
            .unwrap();
        assert_eq!(handle.stats().cache_hits, 0);
        assert!(heavy.makespan_ms() > light.makespan_ms());
    }

    #[test]
    fn batch_results_are_identical_across_thread_counts() {
        let cfgs = candidates(40);
        let (one, eight) = (EvalService::with_threads(1), EvalService::with_threads(8));
        let (sequential, parallel) = (one.register(env()), eight.register(env()));
        let a = sequential.evaluate_batch(&cfgs).unwrap();
        let b = parallel.evaluate_batch(&cfgs).unwrap();
        assert_eq!(a, b);
        assert_eq!(sequential.stats().cache_hits, parallel.stats().cache_hits);
        assert_eq!(
            sequential.stats().cache_misses,
            parallel.stats().cache_misses
        );
    }

    #[test]
    fn jittered_batches_are_identical_across_thread_counts() {
        let cfgs = candidates(24);
        let (one, five) = (EvalService::with_threads(1), EvalService::with_threads(5));
        let a = one.register(jittery_env()).evaluate_batch(&cfgs).unwrap();
        let b = five.register(jittery_env()).evaluate_batch(&cfgs).unwrap();
        assert_eq!(
            a, b,
            "derived per-candidate seeds must decouple results from threads"
        );
    }

    #[test]
    fn batch_duplicates_are_simulated_once_and_counted_as_hits() {
        let one = ConfigMap::uniform(2, ResourceConfig::new(2.0, 1_024));
        let cfgs = vec![one.clone(), one.clone(), one.clone(), one];
        let service = EvalService::with_threads(4);
        let handle = service.register(env());
        let reports = handle.evaluate_batch(&cfgs).unwrap();
        assert_eq!(reports.len(), 4);
        assert!(reports.windows(2).all(|w| w[0] == w[1]));
        let stats = handle.stats();
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 3);
    }

    #[test]
    fn eviction_never_changes_results() {
        let tiny_service = EvalService::new(EvalOptions {
            threads: 1,
            cache_capacity: SHARD_COUNT, // one entry per shard
        });
        let uncached_service = EvalService::new(EvalOptions {
            threads: 1,
            cache_capacity: 0, // memoisation disabled entirely
        });
        let tiny = tiny_service.register(env());
        let reference = uncached_service.register(env());
        let cfgs = candidates(60);
        // Fill way past capacity, then walk the set again: many entries have
        // been evicted and recomputed, but every report must match the
        // uncached reference.
        let first = tiny.evaluate_batch(&cfgs).unwrap();
        let second = tiny.evaluate_batch(&cfgs).unwrap();
        let fresh = reference.evaluate_batch(&cfgs).unwrap();
        assert_eq!(first, second);
        assert_eq!(first, fresh);
        assert!(tiny.stats().evictions > 0, "capacity pressure must evict");
        assert!(tiny_service.cached_entries() <= SHARD_COUNT);
        assert_eq!(uncached_service.cached_entries(), 0);
        assert_eq!(reference.stats().cache_hits, 0);
    }

    #[test]
    fn bounded_cache_replay_keeps_the_fifo_figures() {
        // 200 candidates with repeats through a 32-entry cache (2 per
        // shard): probes on one scenario and batches on a jitter-free and a
        // jittered one. Hits, misses and evictions depend on which shard
        // each key lands in and on per-shard FIFO order, so these figures
        // pin both.
        let service = EvalService::new(EvalOptions {
            threads: 1,
            cache_capacity: 32,
        });
        let plain = service.register(env());
        let jittered = service.register(jittery_env());
        let pool = candidates(63);
        for round in 0..10 {
            for k in 0..10 {
                plain.evaluate(&pool[(round * 17 + k * 5) % 21]).unwrap();
            }
            let batch: Vec<ConfigMap> = (0..10)
                .map(|k| pool[(round * 7 + k * 4) % 12].clone())
                .collect();
            if round % 2 == 0 {
                plain.evaluate_batch(&batch).unwrap();
            } else {
                jittered.evaluate_batch(&batch).unwrap();
            }
        }
        let stats = service.stats();
        assert_eq!(stats.requests, 200);
        assert_eq!(
            (
                stats.cache_hits,
                stats.cache_misses,
                stats.evictions,
                service.batch_dedup_hits(),
                service.cached_entries()
            ),
            (99, 101, 70, 8, 31)
        );
    }

    /// The cache key layout before keys were hashed in one pass, hashed
    /// by its derived `Hash`.
    #[derive(Hash)]
    struct DerivedKey {
        fingerprint: u64,
        input_bucket: (u64, u64),
        seed: u64,
        configs: Box<[(u64, u32)]>,
    }

    /// A chain of `n` functions on a cluster with `jitter`.
    fn chain_env(n: usize, jitter: f64) -> WorkflowEnvironment {
        let mut b = WorkflowBuilder::new("chain");
        let nodes: Vec<_> = (0..n).map(|i| b.add_function(format!("f{i}"))).collect();
        for pair in nodes.windows(2) {
            b.add_edge(pair[0], pair[1]).unwrap();
        }
        let wf = b.build().unwrap();
        let mut p = ProfileSet::new();
        for (i, &node) in nodes.iter().enumerate() {
            let name = format!("f{i}");
            p.insert(
                node,
                FunctionProfile::builder(&name).serial_ms(100.0).build(),
            );
        }
        WorkflowEnvironment::builder(wf, p)
            .cluster(ClusterSpec::paper_testbed_with_jitter(jitter))
            .build()
            .unwrap()
    }

    #[test]
    fn one_pass_key_hash_equals_the_derived_hash() {
        // 1 to 70 functions: past KEY_BLOCK, so keys fed in several
        // blocks hash the same bytes too.
        for jitter in [0.0, 0.05] {
            for n in 1..=70 {
                let service = EvalService::default();
                let handle = service.register(chain_env(n, jitter));
                let configs = ConfigMap::from_vec(
                    (0..n)
                        .map(|i| ResourceConfig::new(0.5 + 0.25 * i as f64, 128 + 64 * i as u32))
                        .collect(),
                );
                let input = InputSpec::new(1.5, 32.0);
                let seed = 0xfeed + n as u64;
                let key = EvalService::key(&handle.data, &configs, input, seed);
                let derived = DerivedKey {
                    fingerprint: handle.fingerprint(),
                    input_bucket: (1.5f64.to_bits(), 32.0f64.to_bits()),
                    seed: if jitter > 0.0 { seed } else { 0 },
                    configs: configs
                        .as_slice()
                        .iter()
                        .map(|c| (c.vcpu.get().to_bits(), c.memory.get()))
                        .collect(),
                };
                let mut hasher = DefaultHasher::new();
                std::hash::Hash::hash(&derived, &mut hasher);
                assert_eq!(key.hash(), hasher.finish(), "n = {n}, jitter = {jitter}");
            }
        }
    }

    #[test]
    fn shard_entries_sharing_a_hash_stay_apart() {
        let configs: Vec<ConfigMap> = candidates(3);
        let key = |i: usize| KeyRef {
            fingerprint: 7,
            input_bucket: (0, 0),
            seed: 0,
            configs: configs[i].as_slice(),
        };
        let service = EvalService::default();
        let handle = service.register(env());
        let base = handle.evaluate(&handle.env().base_configs()).unwrap();
        // Three keys forced onto one hash: each is found by its content.
        let mut shard = Shard::default();
        for i in 0..3 {
            shard.push(42, CacheKey::new(&key(i)), base.clone());
        }
        for i in 0..3 {
            assert_eq!(shard.find(42, &key(i)), Some(i));
        }
        // Evicting the oldest leaves the younger twins reachable.
        assert!(shard.pop_oldest().unwrap().key.view().same(&key(0)));
        assert_eq!(shard.find(42, &key(0)), None);
        assert_eq!(shard.find(42, &key(2)), Some(1));
        // Retaining renumbers and re-chains what is left.
        shard.retain(|k| k.view().same(&key(2)));
        assert_eq!(shard.find(42, &key(1)), None);
        assert_eq!(shard.find(42, &key(2)), Some(0));
        assert!(shard.pop_oldest().is_some());
        assert!(shard.index.is_empty());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let service = EvalService::default();
        let handle = service.register(env());
        assert!(handle.evaluate_batch(&[]).unwrap().is_empty());
        assert_eq!(handle.stats().requests, 0);
    }

    #[test]
    fn batch_errors_propagate_deterministically() {
        let mut bad = candidates(6);
        bad[3] = ConfigMap::uniform(2, ResourceConfig::new(500.0, 512)); // unplaceable
        let (one, four) = (EvalService::with_threads(1), EvalService::with_threads(4));
        let a = one.register(env()).evaluate_batch(&bad).unwrap_err();
        let b = four.register(env()).evaluate_batch(&bad).unwrap_err();
        assert_eq!(format!("{a}"), format!("{b}"));
    }

    #[test]
    fn derive_seed_is_index_sensitive_and_stable() {
        assert_eq!(derive_seed(42, 0), derive_seed(42, 0));
        assert_ne!(derive_seed(42, 0), derive_seed(42, 1));
        assert_ne!(derive_seed(42, 0), derive_seed(43, 0));
    }

    #[test]
    fn fingerprint_distinguishes_environments() {
        let service = EvalService::default();
        let a = service.register(env());
        let b = service.register(env());
        let c = service.register(jittery_env());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    // ----- multi-scenario service tests --------------------------------

    #[test]
    fn two_scenarios_share_one_cache_without_leaking() {
        let service = EvalService::with_threads(2);
        let plain = service.register(env());
        let jittered = service.register(jittery_env());
        let cfg = plain.env().base_configs();
        let a = plain.evaluate(&cfg).unwrap();
        let b = jittered.evaluate(&cfg).unwrap();
        // Identical configs, different scenario fingerprints: both must
        // miss (no cross-scenario leak), and both entries coexist.
        assert_ne!(a.makespan_ms(), b.makespan_ms());
        assert_eq!(service.stats().cache_misses, 2);
        assert_eq!(service.stats().cache_hits, 0);
        assert_eq!(service.cached_entries(), 2);
        // Re-evaluating through either handle hits its own entry.
        plain.evaluate(&cfg).unwrap();
        jittered.evaluate(&cfg).unwrap();
        assert_eq!(service.stats().cache_hits, 2);
    }

    #[test]
    fn per_scenario_stats_split_the_aggregate() {
        let service = EvalService::with_threads(1);
        let plain = service.register(env());
        let jittered = service.register(jittery_env());
        let cfg = plain.env().base_configs();
        plain.evaluate(&cfg).unwrap();
        plain.evaluate(&cfg).unwrap();
        jittered.evaluate(&cfg).unwrap();
        let breakdown = service.scenario_stats();
        assert_eq!(breakdown.len(), 2);
        let plain_slice = breakdown
            .iter()
            .find(|s| s.fingerprint == plain.fingerprint())
            .unwrap();
        let jitter_slice = breakdown
            .iter()
            .find(|s| s.fingerprint == jittered.fingerprint())
            .unwrap();
        assert_eq!(plain_slice.requests, 2);
        assert_eq!(plain_slice.cache_hits, 1);
        assert_eq!(jitter_slice.requests, 1);
        assert_eq!(jitter_slice.cache_hits, 0);
        let total = service.stats();
        assert_eq!(total.requests, plain_slice.requests + jitter_slice.requests);
        assert_eq!(
            total.cache_hits,
            plain_slice.cache_hits + jitter_slice.cache_hits
        );
        // Fingerprints are ordered in the breakdown.
        assert!(breakdown[0].fingerprint < breakdown[1].fingerprint);
    }

    #[test]
    fn handles_of_the_same_scenario_share_counters_and_entries() {
        let service = EvalService::with_threads(1);
        let first = service.register(env());
        let second = service.register(env());
        let cfg = first.env().base_configs();
        first.evaluate(&cfg).unwrap();
        second.evaluate(&cfg).unwrap();
        assert_eq!(second.stats().cache_hits, 1, "same fingerprint shares");
        assert_eq!(service.scenario_stats().len(), 1);
        assert_eq!(service.stats().requests, 2);
    }

    #[test]
    fn eviction_is_attributed_to_the_owning_scenario() {
        let service = EvalService::new(EvalOptions {
            threads: 1,
            cache_capacity: SHARD_COUNT, // one entry per shard
        });
        let plain = service.register(env());
        let jittered = service.register(jittery_env());
        let cfgs = candidates(60);
        plain.evaluate_batch(&cfgs).unwrap();
        jittered.evaluate_batch(&cfgs).unwrap();
        let breakdown = service.scenario_stats();
        let evicted: u64 = breakdown.iter().map(|s| s.evictions).sum();
        assert!(evicted > 0, "capacity pressure must evict");
        assert_eq!(service.stats().evictions, evicted);
    }

    #[test]
    fn unregister_purges_cache_entries_and_keeps_totals_monotonic() {
        let service = EvalService::with_threads(1);
        let plain = service.register(env());
        let jittered = service.register(jittery_env());
        let cfg = plain.env().base_configs();
        plain.evaluate(&cfg).unwrap();
        jittered.evaluate(&cfg).unwrap();
        assert_eq!(service.cached_entries(), 2);
        let before = service.stats();

        assert!(service.unregister(plain.fingerprint()));
        assert!(
            !service.unregister(plain.fingerprint()),
            "second unregister is a no-op"
        );
        // Only the other scenario's entry survives, and the aggregate
        // counters did not drop.
        assert_eq!(service.cached_entries(), 1);
        assert_eq!(service.scenario_stats().len(), 1);
        assert_eq!(
            service.scenario_stats()[0].fingerprint,
            jittered.fingerprint()
        );
        assert_eq!(service.stats(), before, "totals stay monotonic");

        // The purged entry recomputes: a fresh registration starts a fresh
        // statistics slice and must miss.
        let again = service.register(env());
        again.evaluate(&cfg).unwrap();
        assert_eq!(again.stats().cache_misses, 1);
        assert_eq!(again.stats().cache_hits, 0);
        assert_eq!(service.stats().requests, before.requests + 1);
    }

    #[test]
    fn stats_snapshot_reflects_the_registry() {
        let service = EvalService::with_threads(3);
        let snap = service.stats_snapshot();
        assert_eq!(snap.registered_scenarios, 0);
        assert_eq!(snap.cached_entries, 0);
        assert_eq!(snap.stats.requests, 0);

        let handle = service.register(env());
        handle.evaluate(&handle.env().base_configs()).unwrap();
        handle.evaluate(&handle.env().base_configs()).unwrap();
        let snap = service.stats_snapshot();
        assert_eq!(snap.registered_scenarios, 1);
        assert_eq!(snap.cached_entries, 1);
        assert_eq!(snap.stats.requests, 2);
        assert_eq!(snap.stats.cache_hits, 1);
        assert_eq!(snap.scenarios.len(), 1);
        assert_eq!(snap.scenarios[0].fingerprint, handle.fingerprint());
        // The snapshot serializes (the daemon's metrics payload).
        let json = serde_json::to_string_pretty(&snap).unwrap();
        assert!(json.contains("\"registered_scenarios\""));
        assert!(json.contains("\"inflight\""));
    }

    #[test]
    fn inflight_tracks_evaluations_and_keeps_a_peak() {
        let service = EvalService::with_threads(2);
        assert_eq!(service.inflight(), 0);
        assert_eq!(service.inflight_peak(), 0);
        let handle = service.register(env());
        handle.evaluate(&handle.env().base_configs()).unwrap();
        handle.evaluate_batch(&candidates(4)).unwrap();
        // The gauge always returns to zero after the calls complete, and
        // the high-water mark remembers that something ran.
        assert_eq!(service.inflight(), 0);
        assert!(service.inflight_peak() >= 1);
        assert_eq!(service.stats_snapshot().inflight, 0);
        assert!(service.stats_snapshot().inflight_peak >= 1);
    }

    #[test]
    fn concurrent_register_evaluate_unregister_is_safe() {
        // Exercise the runtime scenario lifecycle under concurrency: one
        // scenario is hammered with evaluations while another is
        // repeatedly registered, evaluated and unregistered. Nothing may
        // deadlock, leak entries across fingerprints, or corrupt results.
        let service = EvalService::with_threads(2);
        let stable = service.register(env());
        let cfgs = candidates(8);
        let reference = stable.evaluate_batch(&cfgs).unwrap();
        std::thread::scope(|scope| {
            let service = &service;
            let stable = &stable;
            let cfgs = &cfgs;
            let reference = &reference;
            for _ in 0..3 {
                scope.spawn(move || {
                    for _ in 0..20 {
                        let got = stable.evaluate_batch(cfgs).unwrap();
                        assert_eq!(&got, reference);
                    }
                });
            }
            scope.spawn(move || {
                for _ in 0..20 {
                    let churn = service.register(jittery_env());
                    churn.evaluate(&churn.env().base_configs()).unwrap();
                    service.unregister(churn.fingerprint());
                }
            });
        });
        // The churned scenario is gone; the stable one still answers from
        // its (untouched) cache entries.
        let slices = service.scenario_stats();
        assert_eq!(slices.len(), 1);
        assert_eq!(slices[0].fingerprint, stable.fingerprint());
        let hits_before = stable.stats().cache_hits;
        assert_eq!(stable.evaluate_batch(&cfgs).unwrap(), reference);
        assert_eq!(stable.stats().cache_hits, hits_before + cfgs.len() as u64);
    }

    #[test]
    fn interleaved_submissions_keep_per_scenario_results_stable() {
        // Alternating submissions from two scenarios must produce the same
        // per-scenario results and statistics as running each alone.
        let cfgs = candidates(12);
        let shared = EvalService::with_threads(3);
        let h1 = shared.register(env());
        let h2 = shared.register(jittery_env());
        let mut inter1 = Vec::new();
        let mut inter2 = Vec::new();
        for chunk in cfgs.chunks(3) {
            inter1.extend(h1.evaluate_batch(chunk).unwrap());
            inter2.extend(h2.evaluate_batch(chunk).unwrap());
        }

        let (alone_service1, alone_service2) =
            (EvalService::with_threads(3), EvalService::with_threads(3));
        let solo1 = alone_service1.register(env());
        let solo2 = alone_service2.register(jittery_env());
        let mut alone1 = Vec::new();
        let mut alone2 = Vec::new();
        for chunk in cfgs.chunks(3) {
            alone1.extend(solo1.evaluate_batch(chunk).unwrap());
            alone2.extend(solo2.evaluate_batch(chunk).unwrap());
        }
        assert_eq!(inter1, alone1);
        assert_eq!(inter2, alone2);
        assert_eq!(h1.stats().cache_hits, solo1.stats().cache_hits);
        assert_eq!(h2.stats().cache_misses, solo2.stats().cache_misses);
    }

    #[test]
    fn attached_telemetry_records_batches_without_changing_results() {
        let cfgs = candidates(10);

        let plain = EvalService::with_threads(2);
        let baseline = plain.register(env()).evaluate_batch(&cfgs).unwrap();

        let recorder = Recorder::new();
        let flight = Arc::new(FlightRecorder::new(64));
        let instrumented = EvalService::with_threads(2);
        instrumented
            .attach_telemetry(EvalTelemetry::new(&recorder, Arc::clone(&flight)))
            .expect("first attach succeeds");
        // A second attachment is rejected (first wins).
        assert!(instrumented
            .attach_telemetry(EvalTelemetry::new(&recorder, Arc::clone(&flight)))
            .is_err());

        let handle = instrumented.register(env());
        let observed = handle.evaluate_batch(&cfgs).unwrap();
        assert_eq!(observed, baseline, "telemetry must not perturb results");
        handle.evaluate(&cfgs[0]).unwrap();

        let snap = recorder.snapshot();
        let histogram = |name: &str| {
            snap.histograms
                .iter()
                .find(|(n, _, _)| n == name)
                .unwrap_or_else(|| panic!("missing histogram {name}"))
                .2
                .clone()
        };
        assert_eq!(histogram("aarc_eval_batch_seconds").count(), 1);
        assert_eq!(histogram("aarc_eval_sim_seconds").count(), 1);
        assert_eq!(histogram("aarc_eval_queue_wait_seconds").count(), 1);
        assert_eq!(histogram("aarc_eval_probe_seconds").count(), 1);
        // queue + sim never exceed the total batch time.
        assert!(
            histogram("aarc_eval_queue_wait_seconds").sum_ns
                + histogram("aarc_eval_sim_seconds").sum_ns
                <= histogram("aarc_eval_batch_seconds").sum_ns
        );

        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _, _)| n == name)
                .unwrap_or_else(|| panic!("missing counter {name}"))
                .2[0]
                .1
        };
        // 10 batch candidates (distinct) + 1 probe (cache hit, no sim).
        assert_eq!(counter("aarc_kernel_simulations_total"), 10);
        // Two functions per workflow, started once per simulation.
        assert_eq!(counter("aarc_kernel_function_starts_total"), 20);
        assert_eq!(counter("aarc_kernel_oom_kills_total"), 0);

        let gauge = snap
            .gauges
            .iter()
            .find(|(n, _, _)| n == "aarc_sims_per_sec")
            .expect("sims/sec gauge registered");
        assert!(gauge.2[0].1 > 0.0);

        let events = flight.tail(usize::MAX);
        assert_eq!(events.len(), 1, "one eval_batch event, probes are silent");
        assert_eq!(events[0].kind, "eval_batch");
        let field = |name: &str| {
            events[0]
                .fields
                .iter()
                .find(|(k, _)| *k == name)
                .unwrap_or_else(|| panic!("missing field {name}"))
                .1
                .clone()
        };
        assert_eq!(field("candidates"), FieldValue::U64(10));
        assert_eq!(field("hits"), FieldValue::U64(0));
        assert_eq!(field("misses"), FieldValue::U64(10));
        assert_eq!(
            field("fingerprint"),
            FieldValue::Str(format!("{:016x}", handle.fingerprint()))
        );
    }

    #[test]
    fn kernel_counters_accumulate_and_drain() {
        let e = env();
        let scenario =
            CompiledScenario::compile(e.workflow(), e.profiles(), *e.cluster(), *e.pricing())
                .unwrap();
        let mut scratch = SimScratch::new();
        let cfg = e.base_configs();
        scenario
            .simulate(&mut scratch, &cfg, InputSpec::default(), 0)
            .unwrap();
        scenario
            .simulate(&mut scratch, &cfg, InputSpec::default(), 0)
            .unwrap();
        // Counters survive the per-run reset and accumulate across runs.
        let counters = scratch.counters();
        assert_eq!(counters.sims, 2);
        assert_eq!(counters.node_starts, 4);
        assert_eq!(counters.oom_kills, 0);
        // Draining returns the total and zeroes the arena's counters.
        assert_eq!(scratch.take_counters(), counters);
        assert_eq!(scratch.counters(), crate::kernel::KernelCounters::default());

        let mut merged = crate::kernel::KernelCounters::default();
        merged.merge(&counters);
        merged.merge(&counters);
        assert_eq!(merged.sims, 4);
        assert_eq!(merged.node_starts, 8);
    }
}
