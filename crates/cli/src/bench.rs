//! `aarc bench` — the machine-readable performance benchmark behind the CI
//! perf-regression gate.
//!
//! For every spec the harness measures four things through the shared
//! [`EvalService`]:
//!
//! 1. **Thread-scaling curve** — a deterministic batch of candidate
//!    configurations (derived from the spec fingerprint, so the workload is
//!    identical across machines and runs) evaluated at 1, 2, 4 and the
//!    requested thread count, yielding `sims_per_sec` and `speedup` per
//!    point on the chunked worker pool.
//! 2. **Incremental re-simulation** — a suffix-edit probe chain (each probe
//!    re-tunes one node of the previous candidate, the access pattern of a
//!    local search) timed through the event-loop reference and through
//!    [`BatchSim::simulate_chunk`], one chunk per replay of the chain,
//!    yielding the incremental speedup and the kernel's reuse counters.
//! 3. **Intra-batch dedup** — a duplicate-heavy batch (the shape
//!    population-based searches produce) timed once, reporting how many
//!    candidates the scheduler fanned out without simulating.
//! 4. **Search wall-clock** — all four search methods run through one
//!    shared memoising service (exactly what `aarc compare` does), yielding
//!    `wall_ms`, sample counts and the cache hit rate.
//!
//! On top of the per-scenario phases, an **aggregate shared-pool phase**
//! registers every spec on one [`EvalService`] and replays all candidate
//! batches through it back-to-back — the multi-scenario throughput the
//! service layer is supposed to sustain, gated so the shared substrate
//! cannot silently regress.
//!
//! The result serializes as `BENCH_*.json` (see README for the schema). In
//! gate mode the harness compares itself against a committed baseline and
//! fails on >`max_regress` regressions of search wall-clock, peak
//! throughput or aggregate shared-pool throughput, on parallel speedup
//! below `--min-speedup`, on incremental re-simulation speedup below
//! `--min-incremental-speedup`, or on a zero cache hit rate.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use aarc_baselines::methods;
use aarc_simulator::kernel::{BatchSim, CompiledScenario, SimScratch};
use aarc_simulator::{ConfigMap, EvalOptions, EvalService, EvalTelemetry, ResourceConfig};
use aarc_telemetry::{FlightRecorder, Recorder};
use aarc_workloads::Workload;

use crate::version::VersionInfo;

/// Version stamp of the `BENCH_*.json` schema: the thread-scaling curve,
/// the incremental re-simulation, batch dedup and result-slab allocation
/// phases, the all-methods search phase, the aggregate shared-pool phase
/// and the optional `serve` phase written by `aarc loadtest --bench`. A
/// `--baseline` must carry exactly this version ([`parse_baseline`]); the
/// older `bench/BENCH_*.json` files are records, not inputs.
pub const BENCH_VERSION: u32 = 6;

/// One point of the thread-scaling curve: the candidate batch evaluated on
/// a service pool of `threads` workers.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ScalingPoint {
    /// Worker threads of this point.
    pub threads: usize,
    /// Wall-clock time of the batch, ms.
    pub wall_ms: f64,
    /// Simulations executed.
    pub simulations: u64,
    /// Simulations per second.
    pub sims_per_sec: f64,
    /// Throughput relative to the 1-thread point of the same curve.
    pub speedup: f64,
}

/// The incremental re-simulation phase: a suffix-edit probe chain timed
/// through the event-loop reference and through one
/// [`BatchSim::simulate_chunk`] per replay, which re-simulates only
/// downstream of each edit.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct IncrementalPhase {
    /// Probes in the chain (each edits one node of its predecessor).
    pub probes: u64,
    /// Times the chain was replayed per timed loop; both wall-clocks and
    /// the kernel counters below span `probes * rounds` simulations.
    pub rounds: u64,
    /// Wall-clock of the full event-loop re-simulation of every probe, ms.
    pub full_wall_ms: f64,
    /// Wall-clock of the anchored incremental chain over the same probes, ms.
    pub incremental_wall_ms: f64,
    /// `full_wall_ms / incremental_wall_ms`.
    pub speedup: f64,
    /// Probes served incrementally off an anchor: all but the first probe
    /// of each replay, `rounds * (probes - 1)` (0 when the scenario is not
    /// exactness-eligible, e.g. runtime jitter is configured).
    pub incremental_sims: u64,
    /// Node outcomes copied from an anchor instead of recomputed.
    pub nodes_reused: u64,
}

/// The intra-batch dedup phase: a duplicate-heavy batch through the
/// scheduler, reporting how many candidates were fanned out from an
/// in-flight twin instead of simulated.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DedupPhase {
    /// Candidates submitted.
    pub batch: u64,
    /// Distinct candidates in the batch.
    pub unique: u64,
    /// Duplicates served by intra-batch fan-out (0 under runtime jitter,
    /// where every position legitimately carries its own seed).
    pub dedup_hits: u64,
    /// Wall-clock time of the batch, ms.
    pub wall_ms: f64,
    /// Effective candidates per second (submitted, not simulated).
    pub candidates_per_sec: f64,
}

/// The allocation phase: result-slab heap behaviour of the batch miss
/// path, read from the round-three kernel counters after a cache-less
/// single-thread batch. One slab is minted per scheduler chunk, so a
/// healthy batch path sits far below one allocation per simulation.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AllocPhase {
    /// Simulations the counters span.
    pub sims: u64,
    /// Result-slab heap allocations the kernel performed.
    pub result_slab_allocs: u64,
    /// Bytes of outcome storage those slabs carried.
    pub result_slab_bytes: u64,
    /// `result_slab_allocs / sims` — the gated figure.
    pub allocs_per_sim: f64,
    /// `result_slab_bytes / sims`.
    pub bytes_per_sim: f64,
}

/// Per-request eval latency percentiles, from the telemetry histograms
/// attached to the search phase's service (batch and probe requests
/// merged, so probe-only methods contribute too).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LatencyPercentiles {
    /// Median eval request latency, ms.
    pub p50_ms: f64,
    /// 90th-percentile eval request latency, ms.
    pub p90_ms: f64,
    /// 99th-percentile eval request latency, ms.
    pub p99_ms: f64,
    /// Requests the percentiles were computed over.
    pub samples: u64,
}

/// One timed all-methods search run through a shared memoising engine.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SearchPhase {
    /// Wall-clock time of all four searches, ms.
    pub wall_ms: f64,
    /// Search samples recorded across all methods.
    pub samples: u64,
    /// Simulations actually executed (cache misses).
    pub simulations: u64,
    /// Evaluations answered from the memo-cache.
    pub cache_hits: u64,
    /// Evaluations that required a simulation.
    pub cache_misses: u64,
    /// Fraction of evaluations served from the cache.
    pub cache_hit_rate: f64,
    /// Eval request latency percentiles (absent when no request was
    /// timed).
    pub latency: Option<LatencyPercentiles>,
}

/// Benchmark results of one scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchScenario {
    /// Scenario name (from the spec).
    pub scenario: String,
    /// Fingerprint of the spec the candidate batch was derived from.
    pub spec_fingerprint: u64,
    /// Number of workflow functions.
    pub functions: usize,
    /// The thread-scaling curve at 1, 2, 4 and the requested thread count
    /// (deduplicated, capped at `--threads`).
    pub thread_scaling: Vec<ScalingPoint>,
    /// Peak-over-1-thread throughput ratio (the last curve point's
    /// speedup).
    pub speedup: f64,
    /// The incremental re-simulation phase.
    pub incremental_resim: Option<IncrementalPhase>,
    /// The intra-batch dedup phase.
    pub batch_dedup: Option<DedupPhase>,
    /// The result-slab allocation phase; `--max-allocs-per-sim` fails a
    /// report that lacks it.
    pub alloc: Option<AllocPhase>,
    /// The all-methods search phase.
    pub search: SearchPhase,
}

impl BenchScenario {
    /// Best throughput over the scaling curve. The max, not the last
    /// point: on a multicore runner they coincide, while on an
    /// oversubscribed small box the 1-thread point is both the fastest and
    /// the most stable — gating the max keeps the regression check about
    /// the code.
    pub fn peak_sims_per_sec(&self) -> Option<f64> {
        self.thread_scaling
            .iter()
            .map(|p| p.sims_per_sec)
            .max_by(f64::total_cmp)
    }
}

/// The aggregate shared-pool phase: every scenario's candidate batch
/// replayed back-to-back through one multi-scenario [`EvalService`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AggregatePhase {
    /// Wall-clock time of all batches together, ms.
    pub wall_ms: f64,
    /// Simulations executed across all scenarios.
    pub simulations: u64,
    /// Aggregate simulations per second on the shared pool.
    pub sims_per_sec: f64,
}

/// The serving phase written by `aarc loadtest --bench`: request latency
/// and admission-control outcomes of driving many concurrent search
/// sessions against an in-process daemon over real sockets.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ServePhase {
    /// HTTP requests issued by the harness.
    pub requests: u64,
    /// Median request latency, ms.
    pub p50_ms: f64,
    /// 99th-percentile request latency, ms.
    pub p99_ms: f64,
    /// Sessions the daemon admitted (201 replies).
    pub sessions_started: u64,
    /// Peak concurrently-live sessions observed.
    pub concurrent_peak: u64,
    /// Requests answered 2xx.
    pub accepted_2xx: u64,
    /// Requests rejected 429 (quota or rate admission control).
    pub rejected_429: u64,
    /// Requests rejected 503 (global watermark or shutdown).
    pub rejected_503: u64,
    /// Requests answered 5xx — always 0 on a passing run.
    pub server_errors_5xx: u64,
    /// Client-side retries after a 429/503 with `Retry-After`.
    pub retries: u64,
    /// Wall-clock time of the whole loadtest, ms.
    pub wall_ms: f64,
    /// Requests per second sustained over the run.
    pub requests_per_sec: f64,
}

/// The complete `BENCH_*.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    /// Schema version ([`BENCH_VERSION`]).
    pub version: u32,
    /// Worker threads used for the multi-thread phases.
    pub threads: usize,
    /// Candidates per throughput batch.
    pub batch: usize,
    /// One entry per benched spec, in argument order.
    pub scenarios: Vec<BenchScenario>,
    /// The aggregate shared-pool phase over all scenarios.
    pub aggregate: Option<AggregatePhase>,
    /// Provenance of the binary that produced the report.
    pub build_info: Option<VersionInfo>,
    /// The serving phase, merged in by `aarc loadtest --bench` (absent in
    /// plain `aarc bench` reports).
    pub serve: Option<ServePhase>,
    /// Sum of the per-scenario search wall-clocks, ms.
    pub total_search_wall_ms: f64,
    /// Geometric mean of the per-scenario parallel speedups.
    pub mean_speedup: f64,
}

/// Deterministic candidate batch for one workload: `batch` configuration
/// maps drawn from an RNG seeded with the spec fingerprint, snapped onto the
/// scenario's resource grid.
fn candidate_batch(workload: &Workload, fingerprint: u64, batch: usize) -> Vec<ConfigMap> {
    let env = workload.env();
    let space = *env.space();
    let n = env.workflow().len();
    let mut rng = StdRng::seed_from_u64(fingerprint);
    (0..batch)
        .map(|_| {
            ConfigMap::from_vec(
                (0..n)
                    .map(|_| {
                        let vcpu = space.snap_vcpu(rng.gen_range(space.min_vcpu..=space.max_vcpu));
                        let mem = space
                            .snap_memory(rng.gen_range(space.min_memory_mb..=space.max_memory_mb));
                        ResourceConfig::new(vcpu, mem)
                    })
                    .collect(),
            )
        })
        .collect()
}

/// Times one batch evaluation on a fresh, cache-less service with
/// `threads` workers: the best wall-clock in ms and the simulations one
/// pass ran.
fn time_batch(
    workload: &Workload,
    candidates: &[ConfigMap],
    threads: usize,
) -> Result<(f64, u64), String> {
    // The cache is disabled so the phase times raw simulation throughput,
    // not memoisation.
    let service = EvalService::new(EvalOptions {
        threads,
        cache_capacity: 0,
    });
    let handle = service.register(workload.env().clone());
    // A 4096-candidate batch clears in single-digit milliseconds, so one
    // pass is timing noise: keep the best of several (minimum wall-clock
    // estimates the true cost; the cache is off, so every pass re-simulates).
    let passes = if cfg!(debug_assertions) { 1 } else { 3 };
    let mut wall_ms = f64::INFINITY;
    let mut simulations = 0;
    for _ in 0..passes {
        let before = handle.stats().simulations();
        let start = Instant::now();
        handle
            .evaluate_batch(candidates)
            .map_err(|e| format!("batch evaluation failed: {e}"))?;
        wall_ms = wall_ms.min(start.elapsed().as_secs_f64() * 1_000.0);
        simulations = handle.stats().simulations() - before;
    }
    Ok((wall_ms, simulations))
}

/// The thread counts of the scaling curve: 1, 2, 4 and the requested
/// count, deduplicated and capped at `threads`.
fn scaling_thread_counts(threads: usize) -> Vec<usize> {
    let mut counts: Vec<usize> = [1, 2, 4, threads]
        .into_iter()
        .filter(|&t| t <= threads.max(1))
        .collect();
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Measures the thread-scaling curve of one candidate batch.
fn time_scaling(
    workload: &Workload,
    candidates: &[ConfigMap],
    threads: usize,
) -> Result<Vec<ScalingPoint>, String> {
    let mut curve: Vec<ScalingPoint> = Vec::new();
    for t in scaling_thread_counts(threads) {
        let (wall_ms, simulations) = time_batch(workload, candidates, t)?;
        let sims_per_sec = if wall_ms > 0.0 {
            simulations as f64 / (wall_ms / 1_000.0)
        } else {
            f64::INFINITY
        };
        let base = curve.first().map_or(sims_per_sec, |p| p.sims_per_sec);
        curve.push(ScalingPoint {
            threads: t,
            wall_ms,
            simulations,
            sims_per_sec,
            speedup: if base > 0.0 { sims_per_sec / base } else { 1.0 },
        });
    }
    Ok(curve)
}

/// Times a suffix-edit probe chain twice: full event-loop re-simulation of
/// every probe versus one incremental chunk per replay. Both walk the same
/// deterministic chain (derived from the spec fingerprint), so the phase
/// isolates the re-simulation strategy, nothing else.
fn time_incremental(
    workload: &Workload,
    fingerprint: u64,
    probes: usize,
) -> Result<IncrementalPhase, String> {
    let env = workload.env();
    let compiled = CompiledScenario::compile(
        env.workflow(),
        env.profiles(),
        *env.cluster(),
        *env.pricing(),
    )
    .map_err(|e| format!("scenario compilation failed: {e}"))?;
    let space = *env.space();
    let n = env.workflow().len();
    let mut rng = StdRng::seed_from_u64(fingerprint ^ 0x1c4e);
    let mut configs: Vec<ResourceConfig> = env.base_configs().as_slice().to_vec();
    let mut chain = Vec::with_capacity(probes);
    for _ in 0..probes {
        // Suffix bias: re-tune a node from the back half of the DAG, the
        // stagewise scheduler's probe pattern (it walks critical-path
        // suffixes), leaving the upstream timeline reusable.
        let node = n - 1 - rng.gen_range(0..n.div_ceil(3));
        let vcpu = space.snap_vcpu(rng.gen_range(space.min_vcpu..=space.max_vcpu));
        let mem = space.snap_memory(rng.gen_range(space.min_memory_mb..=space.max_memory_mb));
        configs[node] = ResourceConfig::new(vcpu, mem);
        chain.push(ConfigMap::from_vec(configs.clone()));
    }
    let seed = env.seed();
    let input = env.input();
    let mut scratch = SimScratch::new();

    // Paper-scale DAGs simulate in well under a microsecond, so a single
    // pass over the chain is timing noise on a busy runner: replay the
    // chain until each timed loop has executed ~100k simulations, and keep
    // the best of several passes (the minimum wall-clock estimates the true
    // cost; averaging would bake scheduler hiccups into the gate). Debug
    // builds (the unit tests) only need the counters, not stable timing.
    // Five passes, not three: this phase feeds a hard CI floor (not a
    // relative regression check), so it gets the most noise rejection.
    let (budget, passes) = if cfg!(debug_assertions) {
        (2_000, 1)
    } else {
        (100_000, 5)
    };
    let rounds = (budget / probes.max(1)).max(1);

    let mut full_wall_ms = f64::INFINITY;
    for _ in 0..passes {
        let start = Instant::now();
        for _ in 0..rounds {
            for c in &chain {
                compiled
                    .simulate_reference(&mut scratch, c, input, seed)
                    .map_err(|e| format!("reference simulation failed: {e}"))?;
            }
        }
        full_wall_ms = full_wall_ms.min(start.elapsed().as_secs_f64() * 1_000.0);
    }

    // Counters are deltaed over the first pass only, so `probes * rounds`
    // stays the denominator they are read against.
    let before = scratch.counters();
    let mut after = before;
    // One chunk per replay: its first probe is a full relaxation and every
    // later probe edits its predecessor's outcome in place.
    let jobs: Vec<(&ConfigMap, u64)> = chain.iter().map(|c| (c, seed)).collect();
    let mut batch_sim = BatchSim::new(&compiled, input);
    let mut incremental_wall_ms = f64::INFINITY;
    for pass in 0..passes {
        let start = Instant::now();
        for _ in 0..rounds {
            for result in batch_sim.simulate_chunk(&mut scratch, &jobs) {
                result.map_err(|e| format!("incremental simulation failed: {e}"))?;
            }
        }
        incremental_wall_ms = incremental_wall_ms.min(start.elapsed().as_secs_f64() * 1_000.0);
        if pass == 0 {
            after = scratch.counters();
        }
    }

    Ok(IncrementalPhase {
        probes: chain.len() as u64,
        rounds: rounds as u64,
        full_wall_ms,
        incremental_wall_ms,
        speedup: if incremental_wall_ms > 0.0 {
            full_wall_ms / incremental_wall_ms
        } else {
            f64::INFINITY
        },
        incremental_sims: after.incremental_sims - before.incremental_sims,
        nodes_reused: after.nodes_reused - before.nodes_reused,
    })
}

/// Times a duplicate-heavy batch — the unique prefix of the candidate
/// batch replicated back to full size, the shape population-based searches
/// produce when they re-propose configurations.
fn time_dedup(workload: &Workload, candidates: &[ConfigMap]) -> Result<DedupPhase, String> {
    let unique = candidates.len().div_ceil(8).max(1);
    let batch: Vec<ConfigMap> = (0..candidates.len())
        .map(|i| candidates[i % unique].clone())
        .collect();
    // Cache off so dedup, not memoisation, answers the duplicates.
    let service = EvalService::new(EvalOptions {
        threads: 1,
        cache_capacity: 0,
    });
    let handle = service.register(workload.env().clone());
    let start = Instant::now();
    handle
        .evaluate_batch(&batch)
        .map_err(|e| format!("dedup batch evaluation failed: {e}"))?;
    let wall_ms = start.elapsed().as_secs_f64() * 1_000.0;
    Ok(DedupPhase {
        batch: batch.len() as u64,
        unique: unique as u64,
        dedup_hits: handle.batch_dedup_hits(),
        wall_ms,
        candidates_per_sec: if wall_ms > 0.0 {
            batch.len() as f64 / (wall_ms / 1_000.0)
        } else {
            f64::INFINITY
        },
    })
}

/// Measures result-slab allocation behaviour: the candidate batch through
/// a fresh cache-less single-thread service, then the kernel counters. The
/// service is fresh so the counters span exactly this batch; single-thread
/// because the chunk count (and therefore the slab count) is a pure
/// function of the batch length, so one worker measures what every pool
/// width would.
fn time_alloc(workload: &Workload, candidates: &[ConfigMap]) -> Result<AllocPhase, String> {
    let service = EvalService::new(EvalOptions {
        threads: 1,
        cache_capacity: 0,
    });
    let handle = service.register(workload.env().clone());
    handle
        .evaluate_batch(candidates)
        .map_err(|e| format!("alloc batch evaluation failed: {e}"))?;
    let counters = service.kernel_counters();
    Ok(AllocPhase {
        sims: counters.sims,
        result_slab_allocs: counters.result_slab_allocs,
        result_slab_bytes: counters.result_slab_bytes,
        allocs_per_sim: counters.allocs_per_sim(),
        bytes_per_sim: counters.bytes_per_sim(),
    })
}

/// Runs all four search methods through one shared memoising service and
/// times the whole sweep. The service carries telemetry instruments so the
/// phase also reports per-request eval latency percentiles.
///
/// Best-of-N like the throughput phases, each pass on a *fresh* service so
/// every pass pays the same cold cache; the searches are deterministic, so
/// only the wall-clock differs between passes and the fastest one is the
/// least-perturbed measurement of the same work.
fn time_search(workload: &Workload, threads: usize) -> Result<SearchPhase, String> {
    let passes = if cfg!(debug_assertions) { 1 } else { 5 };
    let mut best: Option<SearchPhase> = None;
    for _ in 0..passes {
        let service = EvalService::with_threads(threads);
        let recorder = Recorder::new();
        service
            .attach_telemetry(EvalTelemetry::new(
                &recorder,
                Arc::new(FlightRecorder::new(1)),
            ))
            .expect("fresh service has no telemetry attached");
        let handle = service.register(workload.env().clone());
        let mut samples = 0u64;
        let start = Instant::now();
        for (name, method) in methods::all() {
            let outcome = method
                .search_on(&handle, workload.slo_ms())
                .map_err(|e| format!("method `{name}` failed: {e}"))?;
            samples += outcome.trace.sample_count() as u64;
        }
        let wall_ms = start.elapsed().as_secs_f64() * 1_000.0;
        let stats = handle.stats();
        // Batch and probe requests merged: probe-only methods would
        // otherwise leave the percentiles empty.
        let mut latency_hist = recorder.histogram("aarc_eval_batch_seconds", "").snapshot();
        latency_hist.merge(&recorder.histogram("aarc_eval_probe_seconds", "").snapshot());
        let latency = match (
            latency_hist.quantile_ms(0.50),
            latency_hist.quantile_ms(0.90),
            latency_hist.quantile_ms(0.99),
        ) {
            (Some(p50_ms), Some(p90_ms), Some(p99_ms)) => Some(LatencyPercentiles {
                p50_ms,
                p90_ms,
                p99_ms,
                samples: latency_hist.count(),
            }),
            _ => None,
        };
        let phase = SearchPhase {
            wall_ms,
            samples,
            simulations: stats.simulations(),
            cache_hits: stats.cache_hits,
            cache_misses: stats.cache_misses,
            cache_hit_rate: stats.hit_rate(),
            latency,
        };
        if best.as_ref().is_none_or(|b| phase.wall_ms < b.wall_ms) {
            best = Some(phase);
        }
    }
    Ok(best.expect("at least one search pass ran"))
}

/// Replays every scenario's candidate batch back-to-back through one
/// multi-scenario, cache-less service — the aggregate throughput the
/// shared substrate sustains when many scenarios draw from one pool.
fn time_aggregate(
    workloads: &[(Workload, Vec<ConfigMap>)],
    threads: usize,
) -> Result<AggregatePhase, String> {
    let service = EvalService::new(EvalOptions {
        threads,
        cache_capacity: 0,
    });
    let handles: Vec<_> = workloads
        .iter()
        .map(|(workload, _)| service.register(workload.env().clone()))
        .collect();
    // Best-of-N for the same reason as `time_batch`: the pooled batches
    // clear in milliseconds and the ±20% gate needs a stable estimate.
    let passes = if cfg!(debug_assertions) { 1 } else { 3 };
    let mut wall_ms = f64::INFINITY;
    let mut simulations = 0;
    for _ in 0..passes {
        let before = service.stats().simulations();
        let start = Instant::now();
        for (handle, (_, candidates)) in handles.iter().zip(workloads) {
            handle
                .evaluate_batch(candidates)
                .map_err(|e| format!("aggregate batch evaluation failed: {e}"))?;
        }
        wall_ms = wall_ms.min(start.elapsed().as_secs_f64() * 1_000.0);
        simulations = service.stats().simulations() - before;
    }
    Ok(AggregatePhase {
        wall_ms,
        simulations,
        sims_per_sec: if wall_ms > 0.0 {
            simulations as f64 / (wall_ms / 1_000.0)
        } else {
            f64::INFINITY
        },
    })
}

/// Benchmarks every spec and assembles the report.
///
/// # Errors
///
/// Returns a user-facing message if a spec fails to load/compile or a
/// search fails.
pub fn run_bench(
    spec_paths: &[String],
    threads: usize,
    batch: usize,
) -> Result<BenchReport, String> {
    let mut workloads: Vec<(Workload, Vec<ConfigMap>)> = Vec::with_capacity(spec_paths.len());
    let mut fingerprints = Vec::with_capacity(spec_paths.len());
    for path in spec_paths {
        let spec = aarc_spec::load(path).map_err(|e| format!("{path}: {e}"))?;
        let fingerprint = spec.fingerprint();
        let workload = aarc_spec::compile(&spec)
            .map_err(|e| format!("{path}: {e}"))?
            .into_workload();
        let candidates = candidate_batch(&workload, fingerprint, batch);
        fingerprints.push(fingerprint);
        workloads.push((workload, candidates));
    }

    let mut scenarios = Vec::with_capacity(workloads.len());
    for ((workload, candidates), fingerprint) in workloads.iter().zip(fingerprints) {
        let thread_scaling = time_scaling(workload, candidates, threads)?;
        let incremental_resim = time_incremental(workload, fingerprint, batch)?;
        let batch_dedup = time_dedup(workload, candidates)?;
        let alloc = time_alloc(workload, candidates)?;
        let search = time_search(workload, threads)?;
        scenarios.push(BenchScenario {
            scenario: workload.name().to_owned(),
            spec_fingerprint: fingerprint,
            functions: workload.len(),
            speedup: thread_scaling.last().map(|p| p.speedup).unwrap_or(1.0),
            thread_scaling,
            incremental_resim: Some(incremental_resim),
            batch_dedup: Some(batch_dedup),
            alloc: Some(alloc),
            search,
        });
    }
    let aggregate = time_aggregate(&workloads, threads)?;
    let total_search_wall_ms = scenarios.iter().map(|s| s.search.wall_ms).sum();
    let mean_speedup = if scenarios.is_empty() {
        0.0
    } else {
        let log_sum: f64 = scenarios.iter().map(|s| s.speedup.ln()).sum();
        (log_sum / scenarios.len() as f64).exp()
    };
    Ok(BenchReport {
        version: BENCH_VERSION,
        threads,
        batch,
        scenarios,
        aggregate: Some(aggregate),
        build_info: Some(VersionInfo::current()),
        serve: None,
        total_search_wall_ms,
        mean_speedup,
    })
}

/// Parses a `--baseline` report. Only [`BENCH_VERSION`] reports are read:
/// a report of any other version is refused with a message naming both
/// versions, before its fields are looked at.
///
/// # Errors
///
/// Returns a user-facing message when `raw` is not JSON, carries another
/// schema version, or does not match the schema.
pub fn parse_baseline(raw: &str) -> Result<BenchReport, String> {
    let value = serde_json::parse(raw).map_err(|e| e.to_string())?;
    let version = value.get("version").and_then(|v| u64::from_value(v).ok());
    if version != Some(u64::from(BENCH_VERSION)) {
        let found = version.map_or_else(|| "no version".to_owned(), |v| format!("version {v}"));
        return Err(format!(
            "bench schema {found} is not supported; this aarc reads only version {BENCH_VERSION}"
        ));
    }
    serde_json::from_value(&value).map_err(|e| e.to_string())
}

/// Gate checks: regression vs a committed baseline, minimum parallel
/// speedup, minimum incremental re-simulation speedup, a result-slab
/// allocation ceiling and a nonzero cache hit rate. Returns all failures
/// (empty = gate passes).
pub fn gate_failures(
    current: &BenchReport,
    baseline: Option<&BenchReport>,
    max_regress: f64,
    min_speedup: Option<f64>,
    min_incremental: Option<f64>,
    max_allocs_per_sim: Option<f64>,
) -> Vec<String> {
    let mut failures = Vec::new();
    if let Some(base) = baseline {
        for base_scenario in &base.scenarios {
            let Some(cur) = current
                .scenarios
                .iter()
                .find(|s| s.scenario == base_scenario.scenario)
            else {
                failures.push(format!(
                    "scenario `{}` present in baseline but not benched",
                    base_scenario.scenario
                ));
                continue;
            };
            let wall_limit = base_scenario.search.wall_ms * (1.0 + max_regress);
            if cur.search.wall_ms > wall_limit {
                failures.push(format!(
                    "`{}`: search wall-clock regressed {:.1} ms -> {:.1} ms (limit {:.1} ms, +{:.0}%)",
                    cur.scenario,
                    base_scenario.search.wall_ms,
                    cur.search.wall_ms,
                    wall_limit,
                    max_regress * 100.0
                ));
            }
            if let (Some(base_sims), Some(cur_sims)) =
                (base_scenario.peak_sims_per_sec(), cur.peak_sims_per_sec())
            {
                let sims_floor = base_sims * (1.0 - max_regress);
                if cur_sims < sims_floor {
                    failures.push(format!(
                        "`{}`: simulations/sec regressed {:.0} -> {:.0} (floor {:.0}, -{:.0}%)",
                        cur.scenario,
                        base_sims,
                        cur_sims,
                        sims_floor,
                        max_regress * 100.0
                    ));
                }
            }
        }
    }
    if let Some(base) = baseline {
        if let (Some(base_agg), Some(cur_agg)) = (&base.aggregate, &current.aggregate) {
            let floor = base_agg.sims_per_sec * (1.0 - max_regress);
            if cur_agg.sims_per_sec < floor {
                failures.push(format!(
                    "aggregate shared-pool sims/sec regressed {:.0} -> {:.0} (floor {:.0}, -{:.0}%)",
                    base_agg.sims_per_sec,
                    cur_agg.sims_per_sec,
                    floor,
                    max_regress * 100.0
                ));
            }
        }
    }
    if let Some(min) = min_speedup {
        for s in &current.scenarios {
            if s.speedup < min {
                failures.push(format!(
                    "`{}`: parallel speedup {:.2}x below the required {min:.2}x at {} threads",
                    s.scenario, s.speedup, current.threads
                ));
            }
        }
    }
    if let Some(min) = min_incremental {
        // Only exactness-eligible scenarios (incremental_sims > 0) are held
        // to the floor — a jittered scenario legitimately cannot reuse
        // anchors. But if *no* scenario exercised the incremental path, the
        // eligibility detection itself has regressed.
        let mut any_eligible = false;
        for s in &current.scenarios {
            if let Some(inc) = &s.incremental_resim {
                if inc.incremental_sims == 0 {
                    continue;
                }
                any_eligible = true;
                if inc.speedup < min {
                    failures.push(format!(
                        "`{}`: incremental re-simulation speedup {:.2}x below the required {min:.2}x",
                        s.scenario, inc.speedup
                    ));
                }
            }
        }
        if !any_eligible {
            failures.push(
                "no benched scenario exercised the incremental re-simulation path — \
                 exactness eligibility looks broken"
                    .to_owned(),
            );
        }
    }
    if let Some(max) = max_allocs_per_sim {
        // The ceiling only applies to reports that carry the alloc phase;
        // if the gate is armed but no scenario measured allocations, the
        // phase itself has gone missing — fail loudly instead of silently
        // passing an unmeasured run.
        let mut any_measured = false;
        for s in &current.scenarios {
            if let Some(alloc) = &s.alloc {
                any_measured = true;
                if alloc.allocs_per_sim > max {
                    failures.push(format!(
                        "`{}`: {:.4} result-slab allocations per simulation exceeds the \
                         allowed {max:.4} ({} slabs over {} sims)",
                        s.scenario, alloc.allocs_per_sim, alloc.result_slab_allocs, alloc.sims
                    ));
                }
            }
        }
        if !any_measured {
            failures.push(
                "`--max-allocs-per-sim` set but no benched scenario carries an alloc phase"
                    .to_owned(),
            );
        }
    }
    if baseline.is_some() || min_speedup.is_some() {
        for s in &current.scenarios {
            if s.search.cache_hit_rate <= 0.0 {
                failures.push(format!(
                    "`{}`: memo-cache hit rate is zero — the engine is not amortising repeated simulations",
                    s.scenario
                ));
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes a small synthetic spec into a temp dir of the test's own,
    /// so parallel tests never write the same file.
    fn tiny_spec_path(test: &str) -> String {
        let dir =
            std::env::temp_dir().join(format!("aarc-bench-mod-test-{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.yaml");
        let spec = aarc_spec::synthetic_spec(aarc_spec::SynthParams {
            seed: 5,
            layers: 2,
            max_width: 2,
            ..aarc_spec::SynthParams::default()
        });
        aarc_spec::save(&spec, &path).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn bench_produces_consistent_scenarios_and_roundtrips_as_json() {
        let path = tiny_spec_path("roundtrip");
        let report = run_bench(&[path], 2, 32).unwrap();
        assert_eq!(report.version, BENCH_VERSION);
        assert_eq!(report.scenarios.len(), 1);
        let s = &report.scenarios[0];
        let curve: Vec<usize> = s.thread_scaling.iter().map(|p| p.threads).collect();
        assert_eq!(curve, vec![1, 2], "curve capped at --threads and deduped");
        for point in &s.thread_scaling {
            assert_eq!(point.simulations, 32);
            assert!(point.sims_per_sec > 0.0);
        }
        assert_eq!(s.thread_scaling[0].speedup, 1.0);
        assert!(s.peak_sims_per_sec().is_some());
        let inc = s
            .incremental_resim
            .expect("incremental phase is always run");
        assert_eq!(inc.probes, 32);
        assert_eq!(
            inc.incremental_sims,
            inc.rounds * (inc.probes - 1),
            "jitter-free synthetic spec must be exactness-eligible, and each \
             replay's chunk re-simulates all but its first probe incrementally"
        );
        assert!(
            inc.nodes_reused > 0,
            "suffix edits must reuse node outcomes"
        );
        let dedup = s.batch_dedup.expect("dedup phase is always run");
        assert_eq!(dedup.batch, 32);
        assert_eq!(dedup.unique, 4);
        assert_eq!(
            dedup.dedup_hits, 28,
            "every replicated candidate must be served by fan-out"
        );
        let alloc = s.alloc.expect("alloc phase is always run");
        assert_eq!(alloc.sims, 32, "distinct candidates all simulate");
        // Batch 32 → chunk width 8 → 4 chunks → 4 slab allocations.
        assert_eq!(alloc.result_slab_allocs, 4, "one slab per chunk");
        assert_eq!(alloc.allocs_per_sim, 4.0 / 32.0);
        assert!(alloc.result_slab_bytes > 0);
        assert_eq!(alloc.bytes_per_sim, alloc.result_slab_bytes as f64 / 32.0);
        assert!(s.search.samples > 0);
        assert!(
            s.search.cache_hit_rate > 0.0,
            "shared engine must produce cache hits across methods"
        );
        assert!(s.speedup > 0.0);
        let aggregate = report.aggregate.expect("aggregate phase is always run");
        assert_eq!(aggregate.simulations, 32, "one batch per scenario");
        assert!(aggregate.sims_per_sec > 0.0);
        let latency = s.search.latency.expect("search phase records latency");
        assert!(latency.samples > 0);
        assert!(latency.p50_ms > 0.0);
        assert!(latency.p50_ms <= latency.p90_ms);
        assert!(latency.p90_ms <= latency.p99_ms);
        let build = report.build_info.as_ref().expect("provenance is stamped");
        assert_eq!(*build, crate::version::VersionInfo::current());
        let json = serde_json::to_string_pretty(&report).unwrap();
        let parsed = parse_baseline(&json).unwrap();
        assert_eq!(parsed.scenarios[0].scenario, s.scenario);
        assert_eq!(parsed.scenarios[0].spec_fingerprint, s.spec_fingerprint);
        assert!(parsed.aggregate.is_some());
        assert!(parsed.scenarios[0].search.latency.is_some());
        assert_eq!(parsed.build_info, report.build_info);
    }

    #[test]
    fn serve_phase_round_trips() {
        let path = tiny_spec_path("serve-phase");
        let report = run_bench(&[path], 1, 8).unwrap();
        assert!(
            report.serve.is_none(),
            "plain bench never adds a serve phase"
        );
        let mut with_serve = report.clone();
        with_serve.serve = Some(ServePhase {
            requests: 100,
            p50_ms: 1.0,
            p99_ms: 5.0,
            sessions_started: 40,
            concurrent_peak: 40,
            accepted_2xx: 90,
            rejected_429: 10,
            rejected_503: 0,
            server_errors_5xx: 0,
            retries: 4,
            wall_ms: 250.0,
            requests_per_sec: 400.0,
        });
        let json = serde_json::to_string_pretty(&with_serve).unwrap();
        let parsed = parse_baseline(&json).unwrap();
        let serve = parsed.serve.expect("serve phase survives the round-trip");
        assert_eq!(serve.requests, 100);
        assert_eq!(serve.rejected_429, 10);
        assert_eq!(serve.server_errors_5xx, 0);
        assert_eq!(serve.retries, 4);
        // The gate reads wall-clock and throughput only, so a serve phase
        // on the baseline never trips it.
        assert!(gate_failures(&report, Some(&parsed), 0.2, None, None, None).is_empty());
    }

    #[test]
    fn alloc_ceiling_fails_loudly_on_a_report_without_the_phase() {
        let path = tiny_spec_path("alloc-missing");
        let report = run_bench(&[path], 1, 8).unwrap();
        let mut without_alloc = report.clone();
        without_alloc.scenarios[0].alloc = None;
        // The ceiling reads only the current report, never the baseline.
        assert!(
            gate_failures(&report, Some(&without_alloc), 0.2, None, None, Some(1.0)).is_empty()
        );
        // Arming it against a report that lacks the phase fails instead of
        // silently passing.
        let failures = gate_failures(&without_alloc, None, 0.2, None, None, Some(1.0));
        assert!(
            failures.iter().any(|f| f.contains("alloc phase")),
            "{failures:?}"
        );
    }

    #[test]
    fn baselines_of_another_schema_version_are_refused() {
        for (doc, found) in [
            ("{\"version\": 5, \"scenarios\": []}", "version 5"),
            ("{\"version\": 7}", "version 7"),
            ("{\"threads\": 4}", "no version"),
        ] {
            let err = parse_baseline(doc).unwrap_err();
            assert!(
                err.contains(found) && err.contains(&format!("version {BENCH_VERSION}")),
                "{err}"
            );
        }
        assert!(parse_baseline("not json").is_err());
    }

    #[test]
    fn gate_enforces_the_result_slab_allocation_ceiling() {
        let path = tiny_spec_path("alloc-ceiling");
        let report = run_bench(&[path], 1, 32).unwrap();
        // The measured batch path sits at one slab per chunk, far below
        // one allocation per simulation.
        assert!(gate_failures(&report, None, 0.2, None, None, Some(0.2)).is_empty());
        // A ceiling below the measured figure trips the gate.
        let failures = gate_failures(&report, None, 0.2, None, None, Some(0.01));
        assert!(
            failures
                .iter()
                .any(|f| f.contains("result-slab allocations per simulation")),
            "{failures:?}"
        );
        // Without the flag the phase is informational only.
        assert!(gate_failures(&report, None, 0.2, None, None, None).is_empty());
    }

    #[test]
    fn gate_enforces_the_incremental_resimulation_floor() {
        let path = tiny_spec_path("incremental-floor");
        let report = run_bench(&[path], 1, 32).unwrap();
        // An unreachable incremental floor fails.
        let failures = gate_failures(&report, None, 0.2, None, Some(1_000_000.0), None);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("incremental re-simulation")),
            "{failures:?}"
        );
        // A report whose scenarios never took the incremental path fails
        // outright — eligibility detection must not silently rot.
        let mut ineligible = report.clone();
        for s in &mut ineligible.scenarios {
            if let Some(inc) = &mut s.incremental_resim {
                inc.incremental_sims = 0;
            }
        }
        let failures = gate_failures(&ineligible, None, 0.2, None, Some(1.0), None);
        assert!(
            failures.iter().any(|f| f.contains("eligibility")),
            "{failures:?}"
        );
        // Without the flag, the incremental phase is informational only.
        assert!(gate_failures(&ineligible, None, 0.2, None, None, None).is_empty());
    }

    #[test]
    fn gate_flags_aggregate_shared_pool_regressions() {
        let path = tiny_spec_path("aggregate-gate");
        let report = run_bench(&[path], 1, 16).unwrap();
        let mut fast = report.clone();
        fast.aggregate.as_mut().unwrap().sims_per_sec *= 10.0;
        let failures = gate_failures(&report, Some(&fast), 0.2, None, None, None);
        assert!(
            failures.iter().any(|f| f.contains("aggregate shared-pool")),
            "{failures:?}"
        );
    }

    #[test]
    fn gate_flags_regressions_and_weak_speedup() {
        let path = tiny_spec_path("regression-gate");
        let report = run_bench(&[path], 1, 16).unwrap();
        // Identical runs never regress against themselves.
        assert!(gate_failures(&report, Some(&report), 0.2, None, None, None).is_empty());

        // A baseline that was 10x faster trips both regression checks.
        let mut fast = report.clone();
        fast.scenarios[0].search.wall_ms /= 10.0;
        for point in &mut fast.scenarios[0].thread_scaling {
            point.sims_per_sec *= 10.0;
        }
        let failures = gate_failures(&report, Some(&fast), 0.2, None, None, None);
        assert_eq!(failures.len(), 2, "{failures:?}");

        // An unreachable speedup requirement fails.
        let failures = gate_failures(&report, None, 0.2, Some(1_000.0), None, None);
        assert!(!failures.is_empty());

        // A baseline scenario that was never benched fails.
        let mut renamed = report.clone();
        renamed.scenarios[0].scenario = "ghost".into();
        let failures = gate_failures(&report, Some(&renamed), 0.2, None, None, None);
        assert!(failures.iter().any(|f| f.contains("ghost")));
    }
}
