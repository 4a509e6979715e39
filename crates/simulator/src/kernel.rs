//! The zero-allocation simulation kernel.
//!
//! Candidate evaluation is parallel and memoised (see [`eval`](crate::eval)),
//! so the per-simulation cost is dominated by avoidable allocation, not
//! modelling, unless the simulation avoids it: a naive run clones a `String`
//! name per function, scans the workflow's edge list linearly per successor
//! wake-up, records a trace nobody reads, and rebuilds its event heap and
//! state vectors from scratch — and a memo-cache of full reports clones
//! names and trace on every hit. This module splits the simulation path
//! into three pieces that eliminate all of that:
//!
//! * [`CompiledScenario`] — everything static about a
//!   [`WorkflowEnvironment`](crate::env::WorkflowEnvironment), precomputed
//!   once: CSR-style successor adjacency over dense `u32` node indices,
//!   per-edge pre-resolved transfer payloads (so edge transfer latency is a
//!   table lookup instead of an `O(E)` scan), flat node-indexed profile and
//!   predecessor-count tables, and function names interned once (read only
//!   when a full report is materialised).
//! * [`SimScratch`] — the reusable per-worker arena: event queue, node
//!   states, execution records, cluster placement state and the capacity
//!   wait queue. A worker resets it between candidates instead of
//!   reallocating; after warm-up a simulation performs no heap allocation
//!   beyond the shared result slab (one `Arc` per batch *chunk* since
//!   round three; one per result on the solo entry points).
//! * [`SimResult`] — the lean searcher-facing result: makespan, cost, OOM
//!   flag and per-node timings behind an `Arc`, so the memo-cache clones it
//!   with a reference-count bump. No `String`s, no trace. The full
//!   [`ExecutionReport`](crate::executor::ExecutionReport) (names + trace)
//!   is materialised on demand — only for search winners and CLI `run`
//!   output — via [`CompiledScenario::simulate_report`].
//!
//! The kernel is bit-identical to the pre-compiled executor at every seed
//! and thread count: it performs the same floating-point operations in the
//! same order, drives the same event queue with the same tie-breaking, and
//! draws jitter from the same RNG stream (one draw per started,
//! non-OOM-killed function, in start order). The equivalence proptest in
//! `tests/proptest_kernel.rs` and the pinned CLI compare goldens enforce
//! this.
//!
//! # Round two: the relaxation fast path
//!
//! When runtime jitter is off and a candidate cannot stall on capacity, the
//! event loop degenerates: every function starts the instant its last input
//! arrives, so the whole simulation is one pass over the DAG in topological
//! order — `ready = max(pred.end + transfer)` pulled through a predecessor
//! CSR, no event heap, no placement bookkeeping. Every kernel path runs
//! that relaxation first and keeps it only when the timeline rule
//! (`CompiledScenario::relaxation_exact`) proves it from the relaxed
//! timeline itself: the peak demand of the functions running at any one
//! tick fits one host. The rule has three lines, each a tighter bound than
//! the one before: the O(n) demand sum, an O(n + B) bound over B buckets of
//! ticks, and an exact sweep of the sorted intervals, which only the
//! candidates the first two lines leave pay for
//! ([`KernelCounters::sorted_sweeps`]). Otherwise the path runs the
//! reference event loop ([`CompiledScenario::simulate_reference`]) at
//! once, so a rejected candidate is relaxed and checked once. Both perform
//! the same floating-point operations in the same order, so results stay
//! bit-identical. On top of that sit incremental re-simulation
//! ([`CompiledScenario::simulate_anchored`]: reuse a stall-free anchor's
//! timeline for every node not downstream of a config change — the
//! searchers' `PathConfigState` probes touch one path suffix at a time) and
//! [`BatchSim::simulate_chunk`], the one chained path: it runs one
//! scheduler chunk so each stall-free result anchors the next, with the
//! per-edge transfer table computed once per batch. A result records
//! whether it is such a timeline ([`SimResult::stall_free`]), so no caller
//! has to re-derive it.
//!
//! # Round three: data layout
//!
//! With the algorithmic fast paths in place, profiling moved the bottleneck
//! to memory layout, and this round rebuilds the hot loop around it:
//!
//! * **Structure-of-arrays scratch.** The relaxation no longer walks
//!   mixed-field `NodeSimOutcome` rows; [`SimScratch`] owns dense outcome
//!   *columns* (`start_ms[]`, `end_ms[]`, `runtime_ms[]`, `cost[]` and a
//!   packed `oom` bitset) that the kernel updates in place. An incremental
//!   pass reads predecessor finish times from one contiguous `f64` column
//!   and leaves unaffected nodes untouched — the old per-candidate
//!   anchor-row copy is gone entirely.
//! * **Branch-light relaxation.** The per-node ready time is a plain `f64`
//!   max-reduction over the predecessor CSR (`ms_to_ticks` is monotone, so
//!   hoisting it out of the loop is bit-exact), and the changed/affected
//!   sets are packed `u64` bitmask words instead of `Vec<bool>` — the inner
//!   loops are autovectorizable passes over flat arrays.
//! * **Slab-pooled results.** [`BatchSim::simulate_chunk`] stages every
//!   outcome row of a scheduler chunk into one arena and freezes it with a
//!   *single* `Arc<[NodeSimOutcome]>` allocation; each [`SimResult`] is an
//!   `(offset, len)` view into that shared slab. The allocator leaves the
//!   batch miss path: one heap allocation per chunk instead of one per
//!   simulation (solo entry points still mint one slab per result). The
//!   trade: a memoised result keeps its whole chunk slab alive — bounded by
//!   `chunk × n × 40` bytes per pinned slab, which the memo-cache capacity
//!   caps. [`KernelCounters::result_slab_allocs`] /
//!   [`KernelCounters::result_slab_bytes`] make the layout observable, so a
//!   regression shows up in `aarc bench`'s allocs/sim gate, not just in
//!   wall-clock.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use aarc_workflow::{CommunicationKind, NodeId, Workflow};

use crate::cluster::{ClusterSpec, ClusterState};
use crate::cost::PricingModel;
use crate::env::ConfigMap;
use crate::error::SimulatorError;
use crate::event::{ms_to_ticks, ticks_to_ms, Event, EventQueue, SimTime};
use crate::executor::{ExecutionReport, FunctionExecution, OOM_KILL_MS};
use crate::input::InputSpec;
use crate::perf_model::{FunctionProfile, InvocationOutcome, ProfileSet};
use crate::resources::ResourceConfig;
use crate::trace::{ExecutionTrace, TraceEvent};

/// Headroom (in vCPUs) the no-stall proof leaves below a host's capacity.
/// First-fit placement accumulates `free_vcpu -= / +=` in f64, and so do
/// the proof's own lines: the demand sum, the bucket line's prefix sum over
/// at most `2n + SWEEP_BUCKETS` signed terms, and the sorted sweep. The
/// drift of any of them over a workflow is bounded by a few ULPs per
/// operation (~1e-12 at the paper testbed's 96-vCPU magnitude). 1e-6
/// dominates that by orders of magnitude while staying far below the
/// 0.1-vCPU configuration grid, so the check never admits a candidate the
/// event loop could stall on and never rejects a realistically-sized one.
/// Memory needs no margin: u32 demands summed in u64 compare exactly.
const NO_STALL_VCPU_MARGIN: f64 = 1e-6;

/// Buckets of the timeline rule's second line: a candidate's relaxed
/// timeline is cut into this many equal spans of ticks, and each span's
/// demand bound is checked against one host before anything is sorted. Of
/// the 634 candidates of the three searches in `tests/kernel_path_counts.rs`
/// that the demand sum leaves, 8 buckets leave 285 to the sorted sweep, 16
/// leave 118, 32 leave 3 and 64 none; the bound's prefix sum grows with
/// the bucket count.
const SWEEP_BUCKETS: usize = 32;

/// The smallest `shift` with `last >> shift < SWEEP_BUCKETS`: the width,
/// as a power of two, of the timeline rule's bucket spans for a timeline
/// whose largest tick is `last`.
fn bucket_shift(last: SimTime) -> u32 {
    (u64::BITS - last.leading_zeros()).saturating_sub(SWEEP_BUCKETS.trailing_zeros())
}

/// Per-node outcome of one simulation, as observed by the searchers.
///
/// This is the `Copy` row of a [`SimResult`]: only the quantities the
/// search methods actually consume (path budgets, path costs, profiled
/// weights and report rows). Host placement, cold-start latency and the
/// ready timestamp live only in the materialised
/// [`ExecutionReport`](crate::executor::ExecutionReport).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSimOutcome {
    /// Time the container started, ms.
    pub start_ms: f64,
    /// Time the function finished, ms.
    pub end_ms: f64,
    /// Billed runtime (excludes queueing and cold start), ms.
    pub runtime_ms: f64,
    /// Billed cost of this invocation.
    pub cost: f64,
    /// Whether the invocation was killed out-of-memory.
    pub oom: bool,
}

/// The lean result of one simulation: what the searchers observe and what
/// the [`EvalService`](crate::eval::EvalService) memo-cache stores.
///
/// Cloning is a reference-count bump plus a handful of scalars — no
/// `String`s, no trace, no per-node reallocation — which is what makes
/// cache hits nearly free. Since round three the per-node rows live in a
/// shared refcounted *slab*: results minted by
/// [`BatchSim::simulate_chunk`] are `(offset, len)` views into one
/// arena-per-chunk allocation, so the batch miss path allocates once per
/// chunk rather than once per simulation. Equality compares the visible
/// rows and scalars, never slab identity. The result remembers the
/// `(input, seed)` it was produced under so the matching full
/// [`ExecutionReport`](crate::executor::ExecutionReport) can be
/// re-materialised on demand (see
/// [`ScenarioHandle::materialize_result`](crate::eval::ScenarioHandle::materialize_result)).
/// Equality and `Debug` ignore which kernel path produced a result
/// ([`SimResult::stall_free`]): every path yields the same bits.
#[derive(Clone)]
pub struct SimResult {
    slab: Arc<[NodeSimOutcome]>,
    offset: u32,
    len: u32,
    makespan_ms: f64,
    total_cost: f64,
    any_oom: bool,
    stall_free: bool,
    input: InputSpec,
    seed: u64,
}

impl PartialEq for SimResult {
    fn eq(&self, other: &Self) -> bool {
        self.makespan_ms == other.makespan_ms
            && self.total_cost == other.total_cost
            && self.any_oom == other.any_oom
            && self.input == other.input
            && self.seed == other.seed
            && self.executions() == other.executions()
    }
}

impl fmt::Debug for SimResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Print the view, not the (possibly chunk-wide) backing slab.
        f.debug_struct("SimResult")
            .field("nodes", &self.executions())
            .field("makespan_ms", &self.makespan_ms)
            .field("total_cost", &self.total_cost)
            .field("any_oom", &self.any_oom)
            .field("input", &self.input)
            .field("seed", &self.seed)
            .finish()
    }
}

impl SimResult {
    /// End-to-end latency of the workflow in milliseconds.
    pub fn makespan_ms(&self) -> f64 {
        self.makespan_ms
    }

    /// Total billed cost over all function invocations.
    pub fn total_cost(&self) -> f64 {
        self.total_cost
    }

    /// Whether any function was OOM-killed.
    pub fn any_oom(&self) -> bool {
        self.any_oom
    }

    /// `true` when no function failed and the makespan is within `slo_ms`.
    pub fn meets_slo(&self, slo_ms: f64) -> bool {
        !self.any_oom && self.makespan_ms <= slo_ms
    }

    /// `true` when the kernel proved this timeline stall-free: runtime
    /// jitter is off and the timeline rule accepted the candidate's
    /// topological relaxation, so every function started the tick its last
    /// input arrived. Only such a result can anchor
    /// [`CompiledScenario::simulate_anchored`]. Results of the event loop
    /// report `false`, even when no function happened to wait.
    pub fn stall_free(&self) -> bool {
        self.stall_free
    }

    /// Per-function outcomes, indexed by node index.
    pub fn executions(&self) -> &[NodeSimOutcome] {
        let lo = self.offset as usize;
        &self.slab[lo..lo + self.len as usize]
    }

    /// The outcome of one function (O(1) — nodes are stored densely).
    pub fn execution(&self, node: NodeId) -> Option<NodeSimOutcome> {
        self.executions().get(node.index()).copied()
    }

    /// Billed runtime of one function, if it ran.
    pub fn runtime_of(&self, node: NodeId) -> Option<f64> {
        self.execution(node).map(|e| e.runtime_ms)
    }

    /// Billed cost of one function, if it ran.
    pub fn cost_of(&self, node: NodeId) -> Option<f64> {
        self.execution(node).map(|e| e.cost)
    }

    /// Number of functions that ran.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Returns `true` if the result covers no functions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The input the simulation ran with.
    pub fn input(&self) -> InputSpec {
        self.input
    }

    /// The RNG seed the simulation ran with (only meaningful under runtime
    /// jitter; jitter-free results are seed-independent).
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// Per-node mutable simulation state, reset between runs.
#[derive(Debug, Clone, Copy, Default)]
struct NodeState {
    remaining_preds: u32,
    ready_at_ticks: SimTime,
    started: bool,
    finished: bool,
}

/// Full per-node record of one run: everything needed to materialise a
/// [`FunctionExecution`] without re-deriving anything.
#[derive(Debug, Clone, Copy)]
struct NodeRecord {
    config: ResourceConfig,
    host: usize,
    ready_ms: f64,
    start_ms: f64,
    end_ms: f64,
    runtime_ms: f64,
    cold_start_ms: f64,
    cost: f64,
    oom: bool,
}

impl NodeRecord {
    const EMPTY: NodeRecord = NodeRecord {
        config: ResourceConfig {
            vcpu: crate::resources::Vcpu(0.0),
            memory: crate::resources::MemoryMb(0),
        },
        host: 0,
        ready_ms: 0.0,
        start_ms: 0.0,
        end_ms: 0.0,
        runtime_ms: 0.0,
        cold_start_ms: 0.0,
        cost: 0.0,
        oom: false,
    };
}

/// A packed bitmask over node indices: one `u64` word per 64 nodes.
///
/// Replaces the round-two `Vec<bool>` changed/affected sets — word-wide
/// clears, copies and popcounts instead of byte-per-node traffic.
#[derive(Debug, Default, Clone)]
struct BitMask {
    words: Vec<u64>,
}

impl BitMask {
    /// Resizes to cover `n` bits, all cleared.
    fn reset(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n.div_ceil(64), 0);
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 != 0
    }

    #[inline]
    fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    #[inline]
    fn assign(&mut self, i: usize, value: bool) {
        let word = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        if value {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// Copies `other`'s bits, reusing this mask's allocation.
    fn copy_from(&mut self, other: &BitMask) {
        self.words.clear();
        self.words.extend_from_slice(&other.words);
    }

    fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }
}

/// Dense structure-of-arrays outcome columns: the round-three layout the
/// relaxation streams through. One entry per node, candidate-major (the
/// columns always hold exactly one candidate's outcome; an incremental
/// pass edits the affected entries in place).
#[derive(Debug, Default)]
struct Columns {
    start_ms: Vec<f64>,
    end_ms: Vec<f64>,
    runtime_ms: Vec<f64>,
    cost: Vec<f64>,
    oom: BitMask,
}

impl Columns {
    fn len(&self) -> usize {
        self.end_ms.len()
    }

    /// Resizes every column to `n` zeroed entries.
    fn reset(&mut self, n: usize) {
        self.start_ms.clear();
        self.start_ms.resize(n, 0.0);
        self.end_ms.clear();
        self.end_ms.resize(n, 0.0);
        self.runtime_ms.clear();
        self.runtime_ms.resize(n, 0.0);
        self.cost.clear();
        self.cost.resize(n, 0.0);
        self.oom.reset(n);
    }

    /// Gathers AoS rows (an anchor result) into the columns.
    fn load(&mut self, rows: &[NodeSimOutcome]) {
        self.reset(rows.len());
        for (i, r) in rows.iter().enumerate() {
            self.start_ms[i] = r.start_ms;
            self.end_ms[i] = r.end_ms;
            self.runtime_ms[i] = r.runtime_ms;
            self.cost[i] = r.cost;
            self.oom.assign(i, r.oom);
        }
    }
}

/// The scalar reductions of one simulation, computed over the columns (or
/// staged rows) in node order — the same order every result path has always
/// used, so they are bit-identical across paths — plus the path's
/// [`SimResult::stall_free`] record.
#[derive(Debug, Clone, Copy)]
struct RelaxSummary {
    makespan_ms: f64,
    total_cost: f64,
    any_oom: bool,
    stall_free: bool,
}

/// The reusable per-worker simulation arena.
///
/// Owns every growable buffer a simulation needs — the event heap, node
/// states, execution records, cluster placement state and the capacity wait
/// queue — so that repeated simulations reuse their allocations instead of
/// rebuilding them. One scratch serves one simulation at a time; the
/// [`EvalService`](crate::eval::EvalService) keeps a pool of them, one per
/// active worker.
#[derive(Debug, Default)]
pub struct SimScratch {
    queue: EventQueue,
    states: Vec<NodeState>,
    records: Vec<NodeRecord>,
    cluster: ClusterState,
    waiting: Vec<NodeId>,
    waiting_swap: Vec<NodeId>,
    counters: KernelCounters,
    // Relaxation-path buffers: the dense SoA outcome columns, the packed
    // changed/affected masks of an incremental run, the BFS frontier that
    // closes `changed` over descendants, the per-pred-edge transfer table,
    // and the timeline rule's start and end ticks (sorted as packed keys
    // when the rule's sweep runs).
    cols: Columns,
    changed: BitMask,
    affected: BitMask,
    frontier: Vec<u32>,
    pred_transfer: Vec<f64>,
    sweep: Vec<u64>,
    // Result staging: outcome rows accumulate here and are frozen into one
    // refcounted slab per chunk (batch path) or per result (solo paths).
    rows: Vec<NodeSimOutcome>,
    // Result slabs kept for recycling, oldest first. Once every `SimResult`
    // sharing a slab has been dropped the allocation becomes unique again
    // (`Arc::get_mut` succeeds) and a freeze of the same length overwrites
    // it in place instead of allocating. Without this, a batch retires its
    // whole band of chunk slabs at once — a contiguous free large enough
    // to make glibc trim the heap top every batch, and the page-fault
    // churn of re-growing it dominated the sequential path.
    slab_pool: VecDeque<Arc<[NodeSimOutcome]>>,
}

/// Slabs a scratch keeps for recycling. Covers the in-flight chunk count of
/// the largest batches the scheduler produces (chunk sizing targets 64
/// chunks per batch) plus solo-path slabs; overflow slabs simply stay
/// unpooled and free normally.
const SLAB_POOL_CAP: usize = 128;

/// Work counters accumulated by the simulation kernel.
///
/// Plain integer adds on thread-local state — no clocks, no atomics — so
/// they are always on; they cost nothing measurable against the event
/// loop. Counters accumulate across runs (they are *not* cleared by the
/// per-run reset) until [`SimScratch::take_counters`] drains them; the
/// [`EvalService`](crate::eval::EvalService) drains every scratch it
/// returns to its pool, whether or not telemetry is attached.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelCounters {
    /// Completed simulations.
    pub sims: u64,
    /// Function invocations successfully placed and started.
    pub node_starts: u64,
    /// Invocations killed by the memory limit.
    pub oom_kills: u64,
    /// Placement attempts that found no host with capacity.
    pub capacity_stalls: u64,
    /// Simulations served by the heap-free relaxation path (full pass).
    pub relaxed_sims: u64,
    /// Simulations served incrementally off an anchor result.
    pub incremental_sims: u64,
    /// Node outcomes copied verbatim from an anchor instead of recomputed.
    pub nodes_reused: u64,
    /// Relaxed timelines the timeline rule had to sort: neither the demand
    /// sum nor the bucketed bound settled them, whether the sorted sweep
    /// then accepted or rejected them.
    pub sorted_sweeps: u64,
    /// Result-slab allocations: the heap allocations that carry outcome
    /// rows out of the kernel. At most one per chunk on the batch path and
    /// one per result on the solo paths — recycled retired slabs count
    /// zero — so `result_slab_allocs / sims` is the layout-regression
    /// canary `aarc bench` gates on.
    pub result_slab_allocs: u64,
    /// Bytes of `NodeSimOutcome` storage those slabs carried.
    pub result_slab_bytes: u64,
}

impl KernelCounters {
    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &KernelCounters) {
        self.sims += other.sims;
        self.node_starts += other.node_starts;
        self.oom_kills += other.oom_kills;
        self.capacity_stalls += other.capacity_stalls;
        self.relaxed_sims += other.relaxed_sims;
        self.incremental_sims += other.incremental_sims;
        self.nodes_reused += other.nodes_reused;
        self.sorted_sweeps += other.sorted_sweeps;
        self.result_slab_allocs += other.result_slab_allocs;
        self.result_slab_bytes += other.result_slab_bytes;
    }

    /// Average result-slab heap allocations per completed simulation
    /// (`0.0` before any simulation ran). The chunked batch path sits well
    /// below 1; solo evaluation is exactly 1.
    pub fn allocs_per_sim(&self) -> f64 {
        if self.sims == 0 {
            0.0
        } else {
            self.result_slab_allocs as f64 / self.sims as f64
        }
    }

    /// Average result-slab bytes per completed simulation (`0.0` before
    /// any simulation ran).
    pub fn bytes_per_sim(&self) -> f64 {
        if self.sims == 0 {
            0.0
        } else {
            self.result_slab_bytes as f64 / self.sims as f64
        }
    }
}

impl SimScratch {
    /// Creates an empty scratch; buffers grow on first use and are reused
    /// afterwards.
    pub fn new() -> Self {
        SimScratch::default()
    }

    /// Returns the accumulated kernel counters, resetting them to zero.
    pub fn take_counters(&mut self) -> KernelCounters {
        std::mem::take(&mut self.counters)
    }

    /// Reads the accumulated kernel counters without resetting them.
    pub fn counters(&self) -> KernelCounters {
        self.counters
    }

    /// Prepares the scratch for one run of `scenario`, reusing every
    /// allocation.
    fn reset(&mut self, scenario: &CompiledScenario) {
        self.queue.clear();
        self.states.clear();
        self.states
            .extend(scenario.pred_counts.iter().map(|&p| NodeState {
                remaining_preds: p,
                ..NodeState::default()
            }));
        self.records.clear();
        self.records.resize(scenario.n, NodeRecord::EMPTY);
        self.cluster.reset(&scenario.cluster);
        self.waiting.clear();
        self.waiting_swap.clear();
    }

    /// Appends the event loop's records to the row staging area and
    /// computes the scalar reductions over the appended rows in node order
    /// (the order every result path uses).
    fn stage_records(&mut self) -> RelaxSummary {
        let offset = self.rows.len();
        self.rows
            .extend(self.records.iter().map(|r| NodeSimOutcome {
                start_ms: r.start_ms,
                end_ms: r.end_ms,
                runtime_ms: r.runtime_ms,
                cost: r.cost,
                oom: r.oom,
            }));
        let fresh = &self.rows[offset..];
        RelaxSummary {
            makespan_ms: fresh.iter().map(|e| e.end_ms).fold(0.0, f64::max),
            total_cost: fresh.iter().map(|e| e.cost).sum(),
            any_oom: fresh.iter().any(|e| e.oom),
            stall_free: false,
        }
    }

    /// Freezes the staged rows into one refcounted slab — at most one heap
    /// allocation (plus memcpy) per freeze, counted against
    /// [`KernelCounters::result_slab_allocs`].
    ///
    /// Prefers recycling, in O(1): a freeze looks only at the oldest pooled
    /// slab. If every result sharing it has been dropped and its length
    /// fits, it is overwritten wholesale and handed out again, allocating
    /// nothing; a batch's retired band of chunk slabs comes back this way
    /// in order. The oldest slab then moves to the back of the pool, or out
    /// of it if it is retired but of another length, so the pool adapts
    /// when chunk or workflow sizes change (at the price of one slab per
    /// switch for a caller that alternates sizes). Slabs still referenced
    /// by live results (or pinned by the memo-cache) are never touched —
    /// `Arc::get_mut` proves uniqueness — so recycling cannot alter any
    /// observable result bytes. A retired slab reaches the front within
    /// `SLAB_POOL_CAP` freezes, however many pooled slabs stay pinned.
    fn freeze_rows(&mut self) -> Arc<[NodeSimOutcome]> {
        if let Some(mut oldest) = self.slab_pool.pop_front() {
            match Arc::get_mut(&mut oldest) {
                Some(buf) if buf.len() == self.rows.len() => {
                    buf.copy_from_slice(&self.rows);
                    self.slab_pool.push_back(Arc::clone(&oldest));
                    return oldest;
                }
                Some(_) => {}
                None => self.slab_pool.push_back(oldest),
            }
        }
        let slab: Arc<[NodeSimOutcome]> = self.rows.as_slice().into();
        self.counters.result_slab_allocs += 1;
        self.counters.result_slab_bytes +=
            (slab.len() * std::mem::size_of::<NodeSimOutcome>()) as u64;
        if !slab.is_empty() && self.slab_pool.len() < SLAB_POOL_CAP {
            self.slab_pool.push_back(Arc::clone(&slab));
        }
        slab
    }

    /// Mints a solo result from the staged rows (offset 0, own slab).
    fn mint_staged(&mut self, summary: RelaxSummary, input: InputSpec, seed: u64) -> SimResult {
        let len = self.rows.len() as u32;
        let slab = self.freeze_rows();
        SimResult {
            slab,
            offset: 0,
            len,
            makespan_ms: summary.makespan_ms,
            total_cost: summary.total_cost,
            any_oom: summary.any_oom,
            stall_free: summary.stall_free,
            input,
            seed,
        }
    }
}

/// A [`WorkflowEnvironment`](crate::env::WorkflowEnvironment) compiled for
/// repeated simulation: static structure precomputed once, hot loops free of
/// hashing, edge-list scans and `String` traffic.
#[derive(Debug, Clone)]
pub struct CompiledScenario {
    n: usize,
    /// CSR offsets into `succ_targets` / `succ_effective_mb`, length `n+1`.
    succ_offsets: Vec<u32>,
    /// Flattened successor lists, in the DAG's insertion order (the order
    /// the executor has always walked them, which fixes event tie-breaking).
    succ_targets: Vec<u32>,
    /// Per-edge pre-resolved transfer payload: the edge payload already
    /// divided by fan-out (scatter) or fan-in (gather), so runtime transfer
    /// latency is `transfer_ms(effective_mb * input_scale)`.
    succ_effective_mb: Vec<f64>,
    /// Transpose of the successor CSR: offsets into `pred_sources` /
    /// `pred_effective_mb`, length `n+1`. The relaxation path pulls each
    /// node's ready time from its predecessors instead of pushing events.
    pred_offsets: Vec<u32>,
    pred_sources: Vec<u32>,
    /// Per-pred-edge effective payload, mirroring `succ_effective_mb`.
    pred_effective_mb: Vec<f64>,
    /// One fixed topological order (Kahn over the successor CSR, entries
    /// first in source order).
    topo_order: Vec<u32>,
    pred_counts: Vec<u32>,
    entries: Vec<u32>,
    /// Flat node-indexed profile table (replaces the per-start `HashMap`
    /// lookup).
    profiles: Vec<FunctionProfile>,
    /// Function names, interned once; only read when a full report is
    /// materialised.
    names: Vec<String>,
    cluster: ClusterSpec,
    pricing: PricingModel,
}

impl CompiledScenario {
    /// Compiles the static half of a scenario.
    ///
    /// # Errors
    ///
    /// Returns [`SimulatorError::MissingProfile`] if any function lacks a
    /// performance profile (environments built through
    /// [`WorkflowEnvironment::builder`](crate::env::WorkflowEnvironment::builder)
    /// have already validated this).
    pub fn compile(
        workflow: &Workflow,
        profiles: &ProfileSet,
        cluster: ClusterSpec,
        pricing: PricingModel,
    ) -> Result<Self, SimulatorError> {
        let n = workflow.len();
        let dag = workflow.dag();

        let mut flat_profiles = Vec::with_capacity(n);
        let mut names = Vec::with_capacity(n);
        for id in workflow.node_ids() {
            let Some(profile) = profiles.get(id) else {
                return Err(SimulatorError::MissingProfile {
                    node: id,
                    name: workflow.function(id).name().to_owned(),
                });
            };
            flat_profiles.push(profile.clone());
            names.push(workflow.function(id).name().to_owned());
        }

        let mut succ_offsets = Vec::with_capacity(n + 1);
        let mut succ_targets = Vec::with_capacity(dag.edge_count());
        let mut succ_effective_mb = Vec::with_capacity(dag.edge_count());
        succ_offsets.push(0u32);
        for id in workflow.node_ids() {
            let fanout = dag.successors(id).len().max(1) as f64;
            for &succ in dag.successors(id) {
                // Pre-resolve the communication pattern exactly as
                // `edge_transfer_ms` always has; a DAG edge without metadata
                // contributes a zero payload (and therefore zero latency).
                let effective_mb = match workflow.edge(id, succ) {
                    None => 0.0,
                    Some(edge) => {
                        let fanin = dag.predecessors(succ).len().max(1) as f64;
                        match edge.kind {
                            CommunicationKind::Direct | CommunicationKind::Broadcast => {
                                edge.payload_mb
                            }
                            CommunicationKind::Scatter => edge.payload_mb / fanout,
                            CommunicationKind::Gather => edge.payload_mb / fanin,
                        }
                    }
                };
                succ_targets.push(succ.index() as u32);
                succ_effective_mb.push(effective_mb);
            }
            succ_offsets.push(succ_targets.len() as u32);
        }

        let pred_counts: Vec<u32> = workflow
            .node_ids()
            .map(|id| dag.predecessors(id).len() as u32)
            .collect();
        let entries: Vec<u32> = dag.sources().iter().map(|id| id.index() as u32).collect();

        // Transpose the successor CSR into a predecessor CSR, preserving
        // each target's incoming-edge order (source order).
        let mut pred_offsets = vec![0u32; n + 1];
        for &t in &succ_targets {
            pred_offsets[t as usize + 1] += 1;
        }
        for i in 0..n {
            pred_offsets[i + 1] += pred_offsets[i];
        }
        let mut cursor: Vec<u32> = pred_offsets[..n].to_vec();
        let mut pred_sources = vec![0u32; succ_targets.len()];
        let mut pred_effective_mb = vec![0.0f64; succ_targets.len()];
        for src in 0..n {
            let lo = succ_offsets[src] as usize;
            let hi = succ_offsets[src + 1] as usize;
            for k in lo..hi {
                let t = succ_targets[k] as usize;
                let slot = cursor[t] as usize;
                pred_sources[slot] = src as u32;
                pred_effective_mb[slot] = succ_effective_mb[k];
                cursor[t] += 1;
            }
        }

        // One fixed topological order: Kahn's algorithm over the successor
        // CSR, seeded with the entries in source order. The workflow is
        // acyclic by construction, so the order always covers every node.
        let mut topo_order: Vec<u32> = Vec::with_capacity(n);
        topo_order.extend_from_slice(&entries);
        let mut remaining = pred_counts.clone();
        let mut head = 0;
        while head < topo_order.len() {
            let i = topo_order[head] as usize;
            head += 1;
            let lo = succ_offsets[i] as usize;
            let hi = succ_offsets[i + 1] as usize;
            for &t in &succ_targets[lo..hi] {
                remaining[t as usize] -= 1;
                if remaining[t as usize] == 0 {
                    topo_order.push(t);
                }
            }
        }
        debug_assert_eq!(topo_order.len(), n, "workflow DAGs are acyclic");

        Ok(CompiledScenario {
            n,
            succ_offsets,
            succ_targets,
            succ_effective_mb,
            pred_offsets,
            pred_sources,
            pred_effective_mb,
            topo_order,
            pred_counts,
            entries,
            profiles: flat_profiles,
            names,
            cluster,
            pricing,
        })
    }

    /// Number of workflow functions.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the scenario has no functions.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The cluster the scenario simulates.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// Runs one simulation and returns the lean [`SimResult`] — the hot
    /// path of every search method. The same as
    /// [`CompiledScenario::simulate_anchored`] without an anchor.
    ///
    /// # Errors
    ///
    /// Returns [`SimulatorError::ConfigCountMismatch`] when `configs` does
    /// not cover every function and [`SimulatorError::Unplaceable`] when a
    /// configuration exceeds every cluster host.
    pub fn simulate(
        &self,
        scratch: &mut SimScratch,
        configs: &ConfigMap,
        input: InputSpec,
        seed: u64,
    ) -> Result<SimResult, SimulatorError> {
        self.simulate_anchored(scratch, configs, input, seed, None)
    }

    /// Runs one simulation, reusing `anchor`'s timeline where that is
    /// exact — the searcher-probe fast path (stagewise `PathConfigState`
    /// probes mutate one path suffix per step, leaving most of the DAG
    /// untouched).
    ///
    /// Routes automatically: on a jitter-free cluster it runs the heap-free
    /// topological relaxation — incrementally, re-computing only the nodes
    /// downstream of a configuration change, when `anchor` is a
    /// [`SimResult::stall_free`] result for the same input and length — and
    /// keeps it when the timeline rule proves it bit-identical to the event
    /// loop (`relaxation_exact`). Otherwise it runs the reference event
    /// loop, so a candidate the rule rejects is relaxed and checked once.
    /// Either way the result is bit-identical to
    /// [`CompiledScenario::simulate_reference`]. An anchor `(configs,
    /// result)` must pair a configuration with the result of simulating it
    /// against *this* scenario — the caller owns that pairing; within a
    /// chunk [`BatchSim::simulate_chunk`] maintains it automatically. An
    /// anchor that is not stall-free, or is for another input, is ignored.
    ///
    /// # Errors
    ///
    /// See [`CompiledScenario::simulate`].
    pub fn simulate_anchored(
        &self,
        scratch: &mut SimScratch,
        configs: &ConfigMap,
        input: InputSpec,
        seed: u64,
        anchor: Option<(&ConfigMap, &SimResult)>,
    ) -> Result<SimResult, SimulatorError> {
        if self.relaxable() {
            self.validate(configs)?;
            let anchor = anchor.filter(|(anchor_configs, anchor_result)| {
                anchor_result.stall_free()
                    && anchor_configs.len() == self.n
                    && anchor_result.len() == self.n
                    && anchor_result.input() == input
            });
            let mut transfer = std::mem::take(&mut scratch.pred_transfer);
            self.fill_pred_transfer(input, &mut transfer);
            if let Some((_, anchor_result)) = anchor {
                scratch.cols.load(anchor_result.executions());
            }
            scratch.rows.clear();
            let summary = self.relax_stall_free(
                scratch,
                configs.as_slice(),
                input,
                &transfer,
                anchor.map(|(anchor_configs, _)| anchor_configs.as_slice()),
            );
            scratch.pred_transfer = transfer;
            if let Some(summary) = summary {
                return Ok(scratch.mint_staged(summary, input, seed));
            }
        }
        self.simulate_reference(scratch, configs, input, seed)
    }

    /// Runs one simulation through the reference discrete-event loop,
    /// bypassing the relaxation fast path. This is the pre-round-two
    /// `simulate`: [`CompiledScenario::simulate`] routes here whenever
    /// exactness can't be proven, and the equivalence proptests and the
    /// bench harness call it directly to measure the fast path against it.
    /// Its results never count as [`SimResult::stall_free`].
    ///
    /// # Errors
    ///
    /// See [`CompiledScenario::simulate`].
    pub fn simulate_reference(
        &self,
        scratch: &mut SimScratch,
        configs: &ConfigMap,
        input: InputSpec,
        seed: u64,
    ) -> Result<SimResult, SimulatorError> {
        self.run(scratch, configs, input, seed, None)?;
        scratch.rows.clear();
        // Same reduction order as the pre-compiled executor (node order).
        let summary = scratch.stage_records();
        Ok(scratch.mint_staged(summary, input, seed))
    }

    /// Whether the relaxation can be tried at all: jitter draws one RNG
    /// value per start in start order, which only the event loop
    /// reproduces, and a cluster of zero hosts keeps the event loop too.
    fn relaxable(&self) -> bool {
        let jittered = self.cluster.runtime_jitter > 0.0;
        !jittered && self.cluster.hosts > 0
    }

    /// Relaxes `cfgs` (in full, or as an edit of the anchor timeline held
    /// in `scratch.cols`) and keeps the result only if the timeline rule
    /// proves it stall-free. On success the candidate's rows are staged and
    /// the simulation is counted as relaxed or incremental. On rejection
    /// the staged rows are rolled back and only the rule's sorted sweep is
    /// counted: the caller runs the event loop, which counts the simulation
    /// once, and `scratch.cols` holds the rejected relaxation, not the
    /// anchor.
    fn relax_stall_free(
        &self,
        scratch: &mut SimScratch,
        cfgs: &[ResourceConfig],
        input: InputSpec,
        transfer_ms: &[f64],
        edit: Option<&[ResourceConfig]>,
    ) -> Option<RelaxSummary> {
        let base = scratch.rows.len();
        let (summary, reused) = self.relax_cols(scratch, cfgs, input, transfer_ms, edit);
        if !self.relaxation_exact(scratch, cfgs, summary.makespan_ms) {
            scratch.rows.truncate(base);
            return None;
        }
        // Counter semantics mirror a full event-loop run of the same
        // simulated world: every function "starts" once, OOM verdicts
        // included, plus the round-two accounting of which path served it.
        let counters = &mut scratch.counters;
        counters.sims += 1;
        counters.node_starts += self.n as u64;
        counters.oom_kills += scratch.cols.oom.count_ones();
        if edit.is_some() {
            counters.incremental_sims += 1;
            counters.nodes_reused += reused;
        } else {
            counters.relaxed_sims += 1;
        }
        Some(summary)
    }

    /// The timeline rule: `true` when the relaxed timeline of `cfgs` in
    /// `scratch.cols`, whose latest end is `makespan_ms`, is *provably* the
    /// event loop's timeline, bit for bit.
    ///
    /// Every function occupies its host over the closed tick interval
    /// `[ms_to_ticks(start_ms), ms_to_ticks(end_ms)]`: the event loop
    /// places it when its ready event pops and releases it when its finish
    /// event pops, and on equal ticks either may pop first. If the peak
    /// demand of the intervals that share a tick fits one host, then every
    /// function's ready event finds host 0 with room, whatever the event
    /// order, and first-fit starts it there at its ready tick — exactly the
    /// relaxation (runtime jitter is off; the callers check that first).
    ///
    /// Three lines bound that peak, each tighter than the one before, and
    /// the first that fits accepts:
    ///
    /// 1. The O(n) demand sum over every function bounds any peak, so small
    ///    workflows never go further.
    /// 2. An O(n + B) bucketed bound. The ticks `0..=last`, where `last =
    ///    ms_to_ticks(makespan_ms)` is the largest end tick (`ms_to_ticks`
    ///    is monotone), are cut into [`SWEEP_BUCKETS`] spans of `1 <<
    ///    shift` ticks; a difference array adds each interval's vCPU to
    ///    every span it touches. Tick `t`'s span is `t >> shift`, and an
    ///    interval `[s, e]` that covers `t` has `s >> shift <= t >> shift
    ///    <= e >> shift`, so each span's sum bounds the demand at every
    ///    tick inside it. Any monotone map of ticks to spans would do,
    ///    which is why clamping to the last span is sound. This line runs
    ///    only when the memory sum fits, so it sums vCPU alone.
    /// 3. The exact sorted sweep: the intervals in tick order, starts
    ///    before ends on equal ticks. It decides every candidate the first
    ///    two lines leave, and alone rejects one
    ///    ([`KernelCounters::sorted_sweeps`] counts it either way).
    ///
    /// The memory sums are exact (u32 demands in u64); the vCPU sums keep
    /// [`NO_STALL_VCPU_MARGIN`] of headroom for f64 accumulation drift. The
    /// ticks are computed once, into the scratch's reusable `sweep` buffer,
    /// and packed into sort keys in place only when the sweep runs; the
    /// buckets live on the stack, so the rule allocates nothing once warm.
    fn relaxation_exact(
        &self,
        scratch: &mut SimScratch,
        cfgs: &[ResourceConfig],
        makespan_ms: f64,
    ) -> bool {
        let SimScratch {
            cols,
            sweep,
            counters,
            ..
        } = scratch;
        let host_vcpu = self.cluster.vcpus_per_host;
        let host_memory_mb = u64::from(self.cluster.memory_mb_per_host);
        let fits_vcpu = |vcpu: f64| vcpu + NO_STALL_VCPU_MARGIN <= host_vcpu;
        let mut vcpu = 0.0f64;
        let mut memory_mb = 0u64;
        for cfg in cfgs {
            vcpu += cfg.vcpu.get();
            memory_mb += u64::from(cfg.memory.get());
        }
        let memory_fits = memory_mb <= host_memory_mb;
        if memory_fits && fits_vcpu(vcpu) {
            return true;
        }

        // Sort keys will pack `tick << bits | node`, so sorting the keys
        // sorts the ticks and the node rides along. A tick too large to
        // pack keeps the event loop; that check comes before the buckets,
        // so they never accept what the sweep would not.
        let n = self.n;
        let bits = usize::BITS - n.saturating_sub(1).leading_zeros();
        let max_tick = u64::MAX >> bits;
        let shift = bucket_shift(ms_to_ticks(makespan_ms));
        let span = |tick: SimTime| ((tick >> shift) as usize).min(SWEEP_BUCKETS - 1);
        let mut spans = [0.0f64; SWEEP_BUCKETS + 1];
        let mut latest = 0;
        sweep.clear();
        sweep.resize(2 * n, 0);
        let (starts, ends) = sweep.split_at_mut(n);
        for i in 0..n {
            let start = ms_to_ticks(cols.start_ms[i]);
            let end = ms_to_ticks(cols.end_ms[i]).max(start);
            starts[i] = start;
            ends[i] = end;
            latest = latest.max(end);
            let vcpu = cfgs[i].vcpu.get();
            spans[span(start)] += vcpu;
            spans[span(end) + 1] -= vcpu;
        }
        if latest > max_tick {
            return false;
        }
        if memory_fits {
            let mut vcpu = 0.0f64;
            let mut fit = true;
            for delta in &spans[..SWEEP_BUCKETS] {
                vcpu += delta;
                fit &= fits_vcpu(vcpu);
            }
            if fit {
                return true;
            }
        }

        counters.sorted_sweeps += 1;
        for (i, (start, end)) in starts.iter_mut().zip(ends.iter_mut()).enumerate() {
            *start = *start << bits | i as u64;
            *end = *end << bits | i as u64;
        }
        starts.sort_unstable();
        ends.sort_unstable();
        let node = |key: u64| cfgs[(key & !(u64::MAX << bits)) as usize];
        let (mut vcpu, mut memory_mb) = (0.0f64, 0u64);
        let mut released = 0;
        for &start in starts.iter() {
            // Release every interval that ended strictly before this tick;
            // one ending on it still overlaps (closed intervals).
            while ends[released] >> bits < start >> bits {
                let cfg = node(ends[released]);
                vcpu -= cfg.vcpu.get();
                memory_mb -= u64::from(cfg.memory.get());
                released += 1;
            }
            let cfg = node(start);
            vcpu += cfg.vcpu.get();
            memory_mb += u64::from(cfg.memory.get());
            if !(fits_vcpu(vcpu) && memory_mb <= host_memory_mb) {
                return false;
            }
        }
        true
    }

    /// Validates `configs` exactly as the event loop always has: count
    /// first, then per-node host fit in node order (first failing node
    /// named in the error).
    fn validate(&self, configs: &ConfigMap) -> Result<(), SimulatorError> {
        if configs.len() != self.n {
            return Err(SimulatorError::ConfigCountMismatch {
                expected: self.n,
                got: configs.len(),
            });
        }
        for (i, &cfg) in configs.as_slice().iter().enumerate() {
            if !self.cluster.can_fit(cfg) {
                return Err(SimulatorError::Unplaceable {
                    node: NodeId::new(i),
                });
            }
        }
        Ok(())
    }

    /// Precomputes the per-pred-edge transfer latency table for `input`,
    /// indexed like `pred_sources`. The table depends only on the input
    /// scale, so one fill serves every candidate of a batch.
    fn fill_pred_transfer(&self, input: InputSpec, table: &mut Vec<f64>) {
        let transfer_scale = input.scale.max(0.0);
        table.clear();
        table.extend(
            self.pred_effective_mb
                .iter()
                .map(|&mb| self.cluster.transfer_ms(mb * transfer_scale)),
        );
    }

    /// The heap-free relaxation core, round-three form: one in-place pass
    /// over the dense outcome columns, computing the candidate's
    /// topological relaxation — the timeline in which every function starts
    /// the tick its last input arrives. Preconditions (enforced by
    /// callers): runtime jitter is off, `validate(configs)` passed, the
    /// anchor was produced under the same `input`, and on the edit path
    /// `scratch.cols` holds the anchor's stall-free timeline. One pass in
    /// topological order then performs the same floating-point operations
    /// in the same order as the event loop's `try_start`, so whenever the
    /// timeline rule (`relaxation_exact`) accepts the result it is the
    /// event loop's, bit for bit. The ready time is a branch-light `f64`
    /// max-reduction over the predecessor CSR — `ms_to_ticks` is monotone
    /// non-decreasing, so
    /// `max(ms_to_ticks(pred.end + transfer)) =
    /// ms_to_ticks(max(pred.end + transfer))` and hoisting the conversion
    /// out of the loop is bit-exact; then `start = ticks_to_ms(ready)` and
    /// `end = (start + cold_start) + runtime` exactly as before.
    ///
    /// Leaves the candidate's outcome in `scratch.cols` (so a batch chains
    /// it as the next candidate's anchor without any copying), appends the
    /// candidate's `NodeSimOutcome` rows to `scratch.rows` in the same
    /// pass (a fused store next to the column stores, cheaper than a
    /// separate SoA→AoS scatter), and returns the scalar reductions with
    /// the count of anchor nodes reused; [`Self::relax_stall_free`] applies
    /// the rule, counts the simulation and hands the staged rows on.
    fn relax_cols(
        &self,
        scratch: &mut SimScratch,
        cfgs: &[ResourceConfig],
        input: InputSpec,
        transfer_ms: &[f64],
        edit: Option<&[ResourceConfig]>,
    ) -> (RelaxSummary, u64) {
        let n = self.n;
        let SimScratch {
            cols,
            changed,
            affected,
            frontier,
            rows,
            ..
        } = scratch;

        // The candidate's result row is written in the same pass as the
        // columns (one store next to the column stores beats a separate
        // SoA→AoS scatter over the whole chunk).
        let base = rows.len();

        let mut reused = 0u64;
        match edit {
            None => {
                rows.resize(
                    base + n,
                    NodeSimOutcome {
                        start_ms: 0.0,
                        end_ms: 0.0,
                        runtime_ms: 0.0,
                        cost: 0.0,
                        oom: false,
                    },
                );
                let seg = &mut rows[base..];
                // Full pass: every node recomputed, no masks consulted.
                cols.reset(n);
                for &t in &self.topo_order {
                    let i = t as usize;
                    let lo = self.pred_offsets[i] as usize;
                    let hi = self.pred_offsets[i + 1] as usize;
                    let mut latest = f64::NEG_INFINITY;
                    for (&src, &edge_ms) in
                        self.pred_sources[lo..hi].iter().zip(&transfer_ms[lo..hi])
                    {
                        latest = latest.max(cols.end_ms[src as usize] + edge_ms);
                    }
                    let ready_ticks: SimTime = if hi > lo { ms_to_ticks(latest) } else { 0 };
                    let config = cfgs[i];
                    let (runtime_ms, oom) = match self.profiles[i].evaluate(config, input) {
                        InvocationOutcome::Completed { runtime_ms } => (runtime_ms, false),
                        InvocationOutcome::OutOfMemory { .. } => (OOM_KILL_MS, true),
                    };
                    let cost = self.pricing.invocation_cost(config, runtime_ms);
                    let start_ms = ticks_to_ms(ready_ticks);
                    let end_ms = start_ms + self.cluster.cold_start.latency_ms(config) + runtime_ms;
                    cols.start_ms[i] = start_ms;
                    cols.end_ms[i] = end_ms;
                    cols.runtime_ms[i] = runtime_ms;
                    cols.cost[i] = cost;
                    cols.oom.assign(i, oom);
                    seg[i] = NodeSimOutcome {
                        start_ms,
                        end_ms,
                        runtime_ms,
                        cost,
                        oom,
                    };
                }
            }
            Some(anchor_cfgs) => {
                debug_assert_eq!(cols.len(), n, "edit requires anchor columns");
                // `changed`: nodes whose profile must be re-evaluated.
                // `affected`: changed ∪ descendants(changed) — nodes whose
                // timeline must be recomputed. Everything else keeps its
                // anchor entry, untouched in place.
                changed.reset(n);
                for i in 0..n {
                    let (a, b) = (cfgs[i], anchor_cfgs[i]);
                    if a.vcpu.get().to_bits() != b.vcpu.get().to_bits()
                        || a.memory.get() != b.memory.get()
                    {
                        changed.set(i);
                    }
                }
                affected.copy_from(changed);
                frontier.clear();
                frontier.extend((0..n as u32).filter(|&i| changed.get(i as usize)));
                while let Some(node) = frontier.pop() {
                    let lo = self.succ_offsets[node as usize] as usize;
                    let hi = self.succ_offsets[node as usize + 1] as usize;
                    for &succ in &self.succ_targets[lo..hi] {
                        if !affected.get(succ as usize) {
                            affected.set(succ as usize);
                            frontier.push(succ);
                        }
                    }
                }
                reused = n as u64 - affected.count_ones();

                if reused > 0 {
                    // Append the anchor's rows for every node in one
                    // branch-free column sweep — reused nodes are now
                    // final, and the loop below overwrites the recomputed
                    // ones. This beats a per-node `affected` test (and a
                    // default-fill resize) on the suffix-edit chains where
                    // most of the workflow is reused.
                    rows.extend(
                        cols.start_ms
                            .iter()
                            .zip(&cols.end_ms)
                            .zip(&cols.runtime_ms)
                            .zip(&cols.cost)
                            .enumerate()
                            .map(|(i, (((&start_ms, &end_ms), &runtime_ms), &cost))| {
                                NodeSimOutcome {
                                    start_ms,
                                    end_ms,
                                    runtime_ms,
                                    cost,
                                    oom: cols.oom.get(i),
                                }
                            }),
                    );
                } else {
                    // Every node is affected: the loop below writes each
                    // row exactly once, so a cheap default fill suffices.
                    rows.resize(
                        base + n,
                        NodeSimOutcome {
                            start_ms: 0.0,
                            end_ms: 0.0,
                            runtime_ms: 0.0,
                            cost: 0.0,
                            oom: false,
                        },
                    );
                }
                let seg = &mut rows[base..];

                for &t in &self.topo_order {
                    let i = t as usize;
                    if !affected.get(i) {
                        continue;
                    }
                    let lo = self.pred_offsets[i] as usize;
                    let hi = self.pred_offsets[i + 1] as usize;
                    let mut latest = f64::NEG_INFINITY;
                    for (&src, &edge_ms) in
                        self.pred_sources[lo..hi].iter().zip(&transfer_ms[lo..hi])
                    {
                        latest = latest.max(cols.end_ms[src as usize] + edge_ms);
                    }
                    let ready_ticks: SimTime = if hi > lo { ms_to_ticks(latest) } else { 0 };
                    let config = cfgs[i];
                    let (runtime_ms, cost, oom) = if changed.get(i) {
                        let (runtime_ms, oom) = match self.profiles[i].evaluate(config, input) {
                            InvocationOutcome::Completed { runtime_ms } => (runtime_ms, false),
                            InvocationOutcome::OutOfMemory { .. } => (OOM_KILL_MS, true),
                        };
                        (
                            runtime_ms,
                            self.pricing.invocation_cost(config, runtime_ms),
                            oom,
                        )
                    } else {
                        // Same config, no jitter: runtime, cost and the OOM
                        // verdict are pure functions of (config, input) —
                        // keep the anchor's, still sitting in the columns.
                        (cols.runtime_ms[i], cols.cost[i], cols.oom.get(i))
                    };
                    let start_ms = ticks_to_ms(ready_ticks);
                    let end_ms = start_ms + self.cluster.cold_start.latency_ms(config) + runtime_ms;
                    cols.start_ms[i] = start_ms;
                    cols.end_ms[i] = end_ms;
                    cols.runtime_ms[i] = runtime_ms;
                    cols.cost[i] = cost;
                    cols.oom.assign(i, oom);
                    seg[i] = NodeSimOutcome {
                        start_ms,
                        end_ms,
                        runtime_ms,
                        cost,
                        oom,
                    };
                }
            }
        }

        // Same reduction order as the event loop (node order), now as flat
        // column sweeps.
        let summary = RelaxSummary {
            makespan_ms: cols.end_ms.iter().copied().fold(0.0, f64::max),
            total_cost: cols.cost.iter().sum(),
            any_oom: cols.oom.any(),
            stall_free: true,
        };
        (summary, reused)
    }

    /// Runs one simulation recording the full event trace and materialises
    /// the complete [`ExecutionReport`] (names included) — the only way a
    /// report is produced. The cold path: used for search winners, CLI
    /// `run` output and
    /// [`WorkflowEnvironment::execute`](crate::env::WorkflowEnvironment::execute).
    ///
    /// # Errors
    ///
    /// See [`CompiledScenario::simulate`].
    pub fn simulate_report(
        &self,
        scratch: &mut SimScratch,
        configs: &ConfigMap,
        input: InputSpec,
        seed: u64,
    ) -> Result<ExecutionReport, SimulatorError> {
        let mut trace = ExecutionTrace::new();
        self.run(scratch, configs, input, seed, Some(&mut trace))?;
        let executions: Vec<FunctionExecution> = scratch
            .records
            .iter()
            .enumerate()
            .map(|(i, r)| FunctionExecution {
                node: NodeId::new(i),
                name: self.names[i].clone(),
                config: r.config,
                host: r.host,
                ready_ms: r.ready_ms,
                start_ms: r.start_ms,
                end_ms: r.end_ms,
                runtime_ms: r.runtime_ms,
                cold_start_ms: r.cold_start_ms,
                cost: r.cost,
                oom: r.oom,
            })
            .collect();
        let makespan_ms = executions.iter().map(|e| e.end_ms).fold(0.0, f64::max);
        let total_cost = executions.iter().map(|e| e.cost).sum();
        let any_oom = executions.iter().any(|e| e.oom);
        Ok(ExecutionReport::from_parts(
            executions,
            makespan_ms,
            total_cost,
            any_oom,
            trace,
        ))
    }

    /// The discrete-event loop shared by both result paths. Leaves the
    /// per-node records in `scratch`; `trace` is `None` on the hot path.
    fn run(
        &self,
        scratch: &mut SimScratch,
        configs: &ConfigMap,
        input: InputSpec,
        seed: u64,
        mut trace: Option<&mut ExecutionTrace>,
    ) -> Result<(), SimulatorError> {
        self.validate(configs)?;

        scratch.reset(self);
        // The jitter RNG is only constructed when draws will actually
        // happen; the draw order (one per started, non-OOM function, in
        // start order) is identical to the pre-compiled executor.
        let mut rng = (self.cluster.runtime_jitter > 0.0).then(|| StdRng::seed_from_u64(seed));
        let transfer_scale = input.scale.max(0.0);

        for &entry in &self.entries {
            scratch
                .queue
                .push(0, Event::FunctionReady(NodeId::new(entry as usize)));
        }

        while let Some((now, event)) = scratch.queue.pop() {
            match event {
                Event::FunctionReady(node) => {
                    let i = node.index();
                    if scratch.states[i].started {
                        continue;
                    }
                    scratch.states[i].ready_at_ticks = now;
                    if let Some(t) = trace.as_deref_mut() {
                        t.push(TraceEvent::Ready {
                            at_ms: ticks_to_ms(now),
                            node,
                        });
                    }
                    let started =
                        self.try_start(scratch, configs, input, &mut rng, node, now, &mut trace);
                    if !started {
                        if let Some(t) = trace.as_deref_mut() {
                            t.push(TraceEvent::QueuedForCapacity {
                                at_ms: ticks_to_ms(now),
                                node,
                            });
                        }
                        scratch.waiting.push(node);
                    }
                }
                Event::FunctionFinished(node) => {
                    let i = node.index();
                    if scratch.states[i].finished {
                        continue;
                    }
                    scratch.states[i].finished = true;
                    let record = scratch.records[i];
                    if let Some(t) = trace.as_deref_mut() {
                        t.push(TraceEvent::Finished {
                            at_ms: record.end_ms,
                            node,
                            runtime_ms: record.runtime_ms,
                        });
                    }
                    scratch.cluster.release(record.host, record.config);

                    // Wake up successors whose dependencies are now
                    // satisfied: a CSR walk with table-lookup transfers.
                    let lo = self.succ_offsets[i] as usize;
                    let hi = self.succ_offsets[i + 1] as usize;
                    for k in lo..hi {
                        let succ = self.succ_targets[k] as usize;
                        let transfer_ms = self
                            .cluster
                            .transfer_ms(self.succ_effective_mb[k] * transfer_scale);
                        let arrive = ms_to_ticks(record.end_ms + transfer_ms);
                        let st = &mut scratch.states[succ];
                        st.ready_at_ticks = st.ready_at_ticks.max(arrive);
                        st.remaining_preds -= 1;
                        if st.remaining_preds == 0 {
                            scratch
                                .queue
                                .push(st.ready_at_ticks, Event::FunctionReady(NodeId::new(succ)));
                        }
                    }

                    // Capacity was released: retry queued functions in FIFO
                    // order at the current time, double-buffering the wait
                    // queue instead of allocating a fresh vector.
                    let mut pending = std::mem::take(&mut scratch.waiting_swap);
                    std::mem::swap(&mut pending, &mut scratch.waiting);
                    for &waiting_node in &pending {
                        let started = self.try_start(
                            scratch,
                            configs,
                            input,
                            &mut rng,
                            waiting_node,
                            now,
                            &mut trace,
                        );
                        if !started {
                            scratch.waiting.push(waiting_node);
                        }
                    }
                    pending.clear();
                    scratch.waiting_swap = pending;
                }
            }
        }

        debug_assert!(
            scratch.states.iter().all(|s| s.finished),
            "every function of an acyclic workflow must eventually run"
        );
        scratch.counters.sims += 1;
        Ok(())
    }

    /// Starts `node` at `now_ticks` if a host has capacity; returns `true`
    /// on success. Mirrors the pre-compiled executor's `start_fn` exactly.
    #[allow(clippy::too_many_arguments)]
    fn try_start(
        &self,
        scratch: &mut SimScratch,
        configs: &ConfigMap,
        input: InputSpec,
        rng: &mut Option<StdRng>,
        node: NodeId,
        now_ticks: SimTime,
        trace: &mut Option<&mut ExecutionTrace>,
    ) -> bool {
        let i = node.index();
        let config = configs.get(node);
        let Some(host) = scratch.cluster.try_place(config) else {
            scratch.counters.capacity_stalls += 1;
            return false;
        };
        let profile = &self.profiles[i];
        let cold_start_ms = self.cluster.cold_start.latency_ms(config);
        let outcome = profile.evaluate(config, input);
        let (runtime_ms, oom) = match outcome {
            InvocationOutcome::Completed { runtime_ms } => {
                let jitter = if self.cluster.runtime_jitter > 0.0 {
                    let draw = rng.as_mut().expect("jitter implies an RNG").gen::<f64>();
                    1.0 + self.cluster.runtime_jitter * (draw * 2.0 - 1.0)
                } else {
                    1.0
                };
                (runtime_ms * jitter, false)
            }
            InvocationOutcome::OutOfMemory { required_mb } => {
                if let Some(t) = trace.as_deref_mut() {
                    t.push(TraceEvent::OomKilled {
                        at_ms: ticks_to_ms(now_ticks),
                        node,
                        required_mb,
                    });
                }
                (OOM_KILL_MS, true)
            }
        };
        let start_ms = ticks_to_ms(now_ticks);
        let end_ms = start_ms + cold_start_ms + runtime_ms;
        if let Some(t) = trace.as_deref_mut() {
            t.push(TraceEvent::Started {
                at_ms: start_ms,
                node,
                host,
                cold_start_ms,
            });
        }
        scratch.records[i] = NodeRecord {
            config,
            host,
            ready_ms: ticks_to_ms(scratch.states[i].ready_at_ticks),
            start_ms,
            end_ms,
            runtime_ms,
            cold_start_ms,
            cost: self.pricing.invocation_cost(config, runtime_ms),
            oom,
        };
        scratch.states[i].started = true;
        scratch.counters.node_starts += 1;
        if oom {
            scratch.counters.oom_kills += 1;
        }
        scratch
            .queue
            .push(ms_to_ticks(end_ms), Event::FunctionFinished(node));
        true
    }
}

/// Lockstep batch simulator: runs scheduler chunks of candidates against
/// one [`CompiledScenario`] and one input, sharing the per-pred-edge
/// transfer table across the whole batch and chaining each
/// [`SimResult::stall_free`] result as the incremental anchor for the next
/// candidate of its chunk — so a run of suffix-edit probes re-simulates
/// only the nodes downstream of each edit.
///
/// Every candidate flows through the cheapest applicable path —
/// incremental relaxation off the previous result, full relaxation, or the
/// reference event loop when the timeline rule rejects the relaxed
/// timeline — and every path is bit-identical, so a chunk's results equal
/// a [`CompiledScenario::simulate_reference`] stream result-for-result
/// regardless of how a batch is chunked across workers.
#[derive(Debug)]
pub struct BatchSim<'a> {
    scenario: &'a CompiledScenario,
    input: InputSpec,
    transfer_ms: Vec<f64>,
    /// The previous stall-free candidate's configuration: the anchor the
    /// next candidate of the chunk edits. Kept here so chunks reuse the
    /// buffer.
    anchor_configs: Vec<ResourceConfig>,
}

impl<'a> BatchSim<'a> {
    /// Prepares a batch against `scenario` at `input`, computing the shared
    /// transfer table once.
    pub fn new(scenario: &'a CompiledScenario, input: InputSpec) -> Self {
        let mut transfer_ms = Vec::new();
        scenario.fill_pred_transfer(input, &mut transfer_ms);
        BatchSim {
            scenario,
            input,
            transfer_ms,
            anchor_configs: Vec::new(),
        }
    }

    /// Simulates one scheduler chunk of candidates, chaining each
    /// stall-free result as the next candidate's incremental anchor *in
    /// place* (the
    /// outcome columns never leave `scratch`) and staging every outcome
    /// row into one arena that is frozen with a single
    /// `Arc<[NodeSimOutcome]>` allocation — the batch miss path performs
    /// one result-slab heap allocation per chunk, not per simulation.
    ///
    /// Every chunk starts a fresh chain (its first stall-free candidate is
    /// a full relaxation), so the result and counter streams depend only on
    /// how the batch is chunked, never on which worker runs a chunk. A
    /// candidate the event loop serves breaks the chain, and the next
    /// stall-free one starts a new one; an invalid candidate leaves the
    /// chain as it was.
    ///
    /// Per-candidate errors come back in the returned vector in job order,
    /// exactly as per-candidate [`CompiledScenario::simulate`] calls would
    /// produce them.
    pub fn simulate_chunk(
        &mut self,
        scratch: &mut SimScratch,
        jobs: &[(&ConfigMap, u64)],
    ) -> Vec<Result<SimResult, SimulatorError>> {
        if jobs.is_empty() {
            return Vec::new();
        }
        scratch.rows.clear();
        let mut staged: Vec<Result<(u32, u32, RelaxSummary, u64), SimulatorError>> =
            Vec::with_capacity(jobs.len());
        // Whether `scratch.cols` holds the previous candidate's stall-free
        // timeline (then `self.anchor_configs` names its configuration).
        let mut chained = false;
        let relaxable = self.scenario.relaxable();
        for &(configs, seed) in jobs {
            let offset = scratch.rows.len() as u32;
            let mut relaxed = None;
            if relaxable {
                if let Err(err) = self.scenario.validate(configs) {
                    // Anchor untouched: the next candidate still chains off
                    // the last stall-free one.
                    staged.push(Err(err));
                    continue;
                }
                let edit = chained.then_some(self.anchor_configs.as_slice());
                relaxed = self.scenario.relax_stall_free(
                    scratch,
                    configs.as_slice(),
                    self.input,
                    &self.transfer_ms,
                    edit,
                );
            }
            // Event-loop fallback, staged into the same chunk arena.
            let summary = match relaxed {
                Some(summary) => summary,
                None => match self.scenario.run(scratch, configs, self.input, seed, None) {
                    Ok(()) => scratch.stage_records(),
                    Err(err) => {
                        staged.push(Err(err));
                        continue;
                    }
                },
            };
            // Only a stall-free timeline anchors the next candidate.
            chained = summary.stall_free;
            if chained {
                self.anchor_configs.clear();
                self.anchor_configs.extend_from_slice(configs.as_slice());
            }
            staged.push(Ok((offset, self.scenario.n as u32, summary, seed)));
        }
        let slab = scratch.freeze_rows();
        staged
            .into_iter()
            .map(|entry| {
                entry.map(|(offset, len, summary, seed)| SimResult {
                    slab: Arc::clone(&slab),
                    offset,
                    len,
                    makespan_ms: summary.makespan_ms,
                    total_cost: summary.total_cost,
                    any_oom: summary.any_oom,
                    stall_free: summary.stall_free,
                    input: self.input,
                    seed,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ColdStartModel;
    use crate::perf_model::FunctionProfile;
    use aarc_workflow::WorkflowBuilder;

    fn scenario_parts(jitter: f64) -> (Workflow, ProfileSet, ClusterSpec) {
        let mut b = WorkflowBuilder::new("kern");
        let a = b.add_function("a");
        let c = b.add_function("b");
        let d = b.add_function("c");
        b.add_edge_with(a, c, 16.0, CommunicationKind::Scatter)
            .unwrap();
        b.add_edge_with(a, d, 16.0, CommunicationKind::Scatter)
            .unwrap();
        let wf = b.build().unwrap();
        let mut p = ProfileSet::new();
        p.insert(a, FunctionProfile::builder("a").serial_ms(500.0).build());
        p.insert(
            c,
            FunctionProfile::builder("b")
                .serial_ms(1_000.0)
                .parallel_ms(2_000.0)
                .max_parallelism(2.0)
                .build(),
        );
        p.insert(d, FunctionProfile::builder("c").serial_ms(700.0).build());
        let cluster = ClusterSpec {
            runtime_jitter: jitter,
            cold_start: ColdStartModel::typical(),
            ..ClusterSpec::paper_testbed()
        };
        (wf, p, cluster)
    }

    fn compiled(jitter: f64) -> CompiledScenario {
        let (wf, p, cluster) = scenario_parts(jitter);
        CompiledScenario::compile(&wf, &p, cluster, PricingModel::paper()).unwrap()
    }

    #[test]
    fn simulate_matches_materialised_report_exactly() {
        let scenario = compiled(0.05);
        let mut scratch = SimScratch::new();
        let configs = ConfigMap::uniform(3, ResourceConfig::new(2.0, 1_024));
        let result = scenario
            .simulate(&mut scratch, &configs, InputSpec::nominal(), 7)
            .unwrap();
        let report = scenario
            .simulate_report(&mut scratch, &configs, InputSpec::nominal(), 7)
            .unwrap();
        assert_eq!(result.makespan_ms(), report.makespan_ms());
        assert_eq!(result.total_cost(), report.total_cost());
        assert_eq!(result.any_oom(), report.any_oom());
        for exec in report.executions() {
            let node = result.execution(exec.node).unwrap();
            assert_eq!(node.start_ms, exec.start_ms);
            assert_eq!(node.end_ms, exec.end_ms);
            assert_eq!(node.runtime_ms, exec.runtime_ms);
            assert_eq!(node.cost, exec.cost);
            assert_eq!(node.oom, exec.oom);
        }
        assert!(!report.trace().is_empty(), "full report carries the trace");
    }

    #[test]
    fn scratch_reuse_is_invisible() {
        let scenario = compiled(0.1);
        let mut scratch = SimScratch::new();
        let small = ConfigMap::uniform(3, ResourceConfig::new(1.0, 512));
        let big = ConfigMap::uniform(3, ResourceConfig::new(4.0, 4_096));
        // Interleave differently-shaped runs through one scratch; every
        // result must equal a run on a pristine scratch.
        let r1 = scenario
            .simulate(&mut scratch, &small, InputSpec::nominal(), 1)
            .unwrap();
        let _ = scenario
            .simulate(&mut scratch, &big, InputSpec::new(2.0, 64.0), 2)
            .unwrap();
        let r2 = scenario
            .simulate(&mut scratch, &small, InputSpec::nominal(), 1)
            .unwrap();
        let fresh = scenario
            .simulate(&mut SimScratch::new(), &small, InputSpec::nominal(), 1)
            .unwrap();
        assert_eq!(r1, r2);
        assert_eq!(r1, fresh);
    }

    #[test]
    fn config_count_mismatch_is_reported_with_both_lengths() {
        let scenario = compiled(0.0);
        let configs = ConfigMap::uniform(1, ResourceConfig::new(1.0, 512));
        let err = scenario
            .simulate(&mut SimScratch::new(), &configs, InputSpec::nominal(), 0)
            .unwrap_err();
        assert_eq!(
            err,
            SimulatorError::ConfigCountMismatch {
                expected: 3,
                got: 1
            }
        );
    }

    #[test]
    fn unplaceable_config_is_an_error_with_the_node() {
        let scenario = compiled(0.0);
        let mut configs = ConfigMap::uniform(3, ResourceConfig::new(1.0, 512));
        configs.set(NodeId::new(1), ResourceConfig::new(500.0, 512));
        let err = scenario
            .simulate(&mut SimScratch::new(), &configs, InputSpec::nominal(), 0)
            .unwrap_err();
        assert_eq!(
            err,
            SimulatorError::Unplaceable {
                node: NodeId::new(1)
            }
        );
    }

    #[test]
    fn compile_rejects_missing_profiles() {
        let (wf, _, cluster) = scenario_parts(0.0);
        let err =
            CompiledScenario::compile(&wf, &ProfileSet::new(), cluster, PricingModel::paper())
                .unwrap_err();
        assert!(matches!(err, SimulatorError::MissingProfile { .. }));
    }

    #[test]
    fn relaxation_matches_event_loop_bitwise() {
        let scenario = compiled(0.0);
        let configs = ConfigMap::uniform(3, ResourceConfig::new(2.0, 1_024));
        let mut scratch = SimScratch::new();
        let fast = scenario
            .simulate(&mut scratch, &configs, InputSpec::new(2.0, 64.0), 9)
            .unwrap();
        let slow = scenario
            .simulate_reference(&mut scratch, &configs, InputSpec::new(2.0, 64.0), 9)
            .unwrap();
        assert_eq!(fast, slow);
        assert!(fast.stall_free() && !slow.stall_free());
        assert_eq!(scratch.counters().relaxed_sims, 1);
        assert_eq!(scratch.counters().sims, 2);
    }

    #[test]
    fn jitter_disables_the_relaxation_path() {
        let scenario = compiled(0.1);
        let configs = ConfigMap::uniform(3, ResourceConfig::new(2.0, 1_024));
        let mut scratch = SimScratch::new();
        let result = scenario
            .simulate(&mut scratch, &configs, InputSpec::nominal(), 4)
            .unwrap();
        assert!(!result.stall_free());
        assert_eq!(scratch.counters().relaxed_sims, 0);
        assert_eq!(scratch.counters().sims, 1);
    }

    #[test]
    fn a_cluster_of_zero_hosts_keeps_the_event_loop() {
        let (wf, p, mut cluster) = scenario_parts(0.0);
        cluster.hosts = 0;
        let scenario = CompiledScenario::compile(&wf, &p, cluster, PricingModel::paper()).unwrap();
        let configs = ConfigMap::uniform(3, ResourceConfig::new(1.0, 512));
        let mut scratch = SimScratch::new();
        let result = scenario
            .simulate(&mut scratch, &configs, InputSpec::nominal(), 0)
            .unwrap();
        assert!(!result.stall_free());
        assert_eq!(scratch.counters().relaxed_sims, 0);
        let mut batch = BatchSim::new(&scenario, InputSpec::nominal());
        let chunked = batch.simulate_chunk(&mut scratch, &[(&configs, 0), (&configs, 1)]);
        assert!(chunked.iter().all(|r| !r.as_ref().unwrap().stall_free()));
        let counters = scratch.counters();
        assert_eq!(
            (
                counters.sims,
                counters.relaxed_sims,
                counters.incremental_sims
            ),
            (3, 0, 0)
        );
    }

    #[test]
    fn stall_risk_disables_the_relaxation_path() {
        let (wf, p, mut cluster) = scenario_parts(0.0);
        // One entry then a 2-wide fan-out of 1-vCPU functions against a
        // 1.5-vCPU host: the fan-out's relaxed intervals overlap on 2 vCPU,
        // and the second fan-out function must queue.
        cluster.vcpus_per_host = 1.5;
        let scenario = CompiledScenario::compile(&wf, &p, cluster, PricingModel::paper()).unwrap();
        let configs = ConfigMap::uniform(3, ResourceConfig::new(1.0, 512));
        let mut scratch = SimScratch::new();
        let routed = scenario
            .simulate(&mut scratch, &configs, InputSpec::nominal(), 0)
            .unwrap();
        let reference = scenario
            .simulate_reference(&mut scratch, &configs, InputSpec::nominal(), 0)
            .unwrap();
        assert_eq!(routed, reference);
        assert!(!routed.stall_free());
        assert!(
            scratch.counters().capacity_stalls > 0,
            "the tightened cluster actually queues"
        );
        // The rejected relaxation counts once, as the event loop.
        let counters = scratch.counters();
        assert_eq!(
            (
                counters.sims,
                counters.relaxed_sims,
                counters.incremental_sims
            ),
            (2, 0, 0)
        );
        assert_eq!(counters.node_starts, 6);
    }

    #[test]
    fn a_peak_that_fits_one_host_relaxes_although_the_sum_does_not() {
        // 3 × 40 vCPU exceeds the 96-vCPU host, but the entry never runs
        // beside the 2-wide fan-out, so at most 80 vCPU run at once.
        let scenario = compiled(0.0);
        let configs = ConfigMap::uniform(3, ResourceConfig::new(40.0, 4_096));
        let mut scratch = SimScratch::new();
        let relaxed = scenario
            .simulate(&mut scratch, &configs, InputSpec::nominal(), 0)
            .unwrap();
        let reference = scenario
            .simulate_reference(&mut SimScratch::new(), &configs, InputSpec::nominal(), 0)
            .unwrap();
        assert_eq!(relaxed, reference);
        assert!(relaxed.stall_free());
        assert_eq!(scratch.counters().relaxed_sims, 1);
    }

    #[test]
    fn a_bucket_that_over_counts_leaves_the_decision_to_the_sorted_sweep() {
        // A 4-vCPU function runs for 32 s beside two 3-vCPU functions that
        // run 100 ms each, one after the other with a 10 ms transfer
        // between them, on an 8-vCPU host. At most 7 vCPU run at once, but
        // all three intervals touch the first of the 32 buckets of about
        // one second each, which counts 10 vCPU.
        let mut b = WorkflowBuilder::new("buckets");
        let long = b.add_function("long");
        let first = b.add_function("first");
        let second = b.add_function("second");
        b.add_edge_with(first, second, 10.0, CommunicationKind::Direct)
            .unwrap();
        let wf = b.build().unwrap();
        let mut p = ProfileSet::new();
        for (id, name, serial_ms) in [
            (long, "long", 32_000.0),
            (first, "first", 100.0),
            (second, "second", 100.0),
        ] {
            p.insert(
                id,
                FunctionProfile::builder(name).serial_ms(serial_ms).build(),
            );
        }
        let cluster = ClusterSpec {
            vcpus_per_host: 8.0,
            ..ClusterSpec::paper_testbed()
        };
        let scenario = CompiledScenario::compile(&wf, &p, cluster, PricingModel::paper()).unwrap();
        let mut configs = ConfigMap::uniform(3, ResourceConfig::new(3.0, 512));
        configs.set(long, ResourceConfig::new(4.0, 512));
        let mut scratch = SimScratch::new();
        let relaxed = scenario
            .simulate(&mut scratch, &configs, InputSpec::nominal(), 0)
            .unwrap();
        let [_, a, b] = relaxed.executions() else {
            panic!("three functions ran");
        };
        let shift = bucket_shift(ms_to_ticks(relaxed.makespan_ms()));
        assert!(ms_to_ticks(a.end_ms) < ms_to_ticks(b.start_ms));
        assert_eq!(ms_to_ticks(b.end_ms) >> shift, 0, "one bucket holds both");
        assert!(relaxed.stall_free());
        let counters = scratch.counters();
        assert_eq!(
            (counters.relaxed_sims, counters.sorted_sweeps),
            (1, 1),
            "the buckets failed and the sweep relaxed the candidate"
        );
        let reference = scenario
            .simulate_reference(&mut scratch, &configs, InputSpec::nominal(), 0)
            .unwrap();
        assert_eq!(relaxed, reference);
    }

    #[test]
    fn intervals_that_touch_on_one_tick_overlap() {
        // Two chained 3-vCPU functions on a 4-vCPU host, no transfer: the
        // first ends on the tick the second starts. The closed intervals
        // share that tick, so the rule keeps the event loop (which here
        // releases the first before placing the second). In the second
        // case the shared tick is the first of a bucket, so the first
        // function's other ticks lie in the bucket before it; the shared
        // bucket still counts both, and the sorted sweep decides.
        for (first_ms, on_a_boundary) in [(1_000.0, false), (1_048.576, true)] {
            let mut b = WorkflowBuilder::new("touch");
            let first = b.add_function("first");
            let second = b.add_function("second");
            b.add_edge_with(first, second, 0.0, CommunicationKind::Direct)
                .unwrap();
            let wf = b.build().unwrap();
            let mut p = ProfileSet::new();
            p.insert(
                first,
                FunctionProfile::builder("first")
                    .serial_ms(first_ms)
                    .build(),
            );
            p.insert(
                second,
                FunctionProfile::builder("second").serial_ms(500.0).build(),
            );
            let cluster = ClusterSpec {
                vcpus_per_host: 4.0,
                ..ClusterSpec::paper_testbed()
            };
            let scenario =
                CompiledScenario::compile(&wf, &p, cluster, PricingModel::paper()).unwrap();
            let configs = ConfigMap::uniform(2, ResourceConfig::new(3.0, 512));
            let mut scratch = SimScratch::new();
            let routed = scenario
                .simulate(&mut scratch, &configs, InputSpec::nominal(), 0)
                .unwrap();
            let [a, b] = routed.executions() else {
                panic!("two functions ran");
            };
            let touch = ms_to_ticks(a.end_ms);
            assert_eq!(touch, ms_to_ticks(b.start_ms));
            let shift = bucket_shift(ms_to_ticks(routed.makespan_ms()));
            assert_eq!(
                touch.is_multiple_of(1 << shift),
                on_a_boundary,
                "{first_ms} ms"
            );
            assert!(!routed.stall_free());
            let counters = scratch.counters();
            assert_eq!(
                (counters.sims, counters.relaxed_sims, counters.sorted_sweeps),
                (1, 0, 1)
            );
            assert_eq!(counters.capacity_stalls, 0);
            let reference = scenario
                .simulate_reference(&mut scratch, &configs, InputSpec::nominal(), 0)
                .unwrap();
            assert_eq!(routed, reference);
        }
    }

    #[test]
    fn a_stalling_candidate_is_refused_incrementally_and_counted_once() {
        let (wf, p, cluster) = scenario_parts(0.0);
        let env = crate::env::WorkflowEnvironment::builder(wf, p)
            .cluster(cluster)
            .build()
            .unwrap();
        let service = crate::eval::EvalService::with_threads(1);
        let handle = service.register(env);
        let base = ConfigMap::uniform(3, ResourceConfig::new(2.0, 1_024));
        let anchor = handle.evaluate(&base).unwrap();
        assert!(anchor.stall_free(), "the probe anchor is stall-free");
        // The fan-out's two 50-vCPU functions overlap on 100 vCPU.
        let mut wide = base.clone();
        wide.set(NodeId::new(1), ResourceConfig::new(50.0, 1_024));
        wide.set(NodeId::new(2), ResourceConfig::new(50.0, 1_024));
        let before = service.kernel_counters();
        let routed = handle.evaluate(&wide).unwrap();
        let counters = service.kernel_counters();
        // Relaxed once off the anchor and sorted once, then straight to
        // the event loop, which alone counts the simulation.
        assert_eq!(counters.sorted_sweeps, before.sorted_sweeps + 1);
        assert_eq!(counters.sims, before.sims + 1);
        assert_eq!(
            (counters.relaxed_sims, counters.incremental_sims),
            (before.relaxed_sims, before.incremental_sims)
        );
        assert!(counters.capacity_stalls > before.capacity_stalls);
        assert!(!routed.stall_free());
        let scenario = compiled(0.0);
        let mut scratch = SimScratch::new();
        assert_eq!(
            routed,
            scenario
                .simulate_reference(&mut scratch, &wide, InputSpec::nominal(), 0)
                .unwrap()
        );
        // An event-loop result never anchors: the next candidate relaxes
        // in full.
        let before = scratch.counters();
        let full = scenario
            .simulate_anchored(
                &mut scratch,
                &base,
                InputSpec::nominal(),
                0,
                Some((&wide, &routed)),
            )
            .unwrap();
        assert_eq!(full, anchor);
        let counters = scratch.counters();
        assert_eq!(counters.relaxed_sims, before.relaxed_sims + 1);
        assert_eq!(counters.incremental_sims, before.incremental_sims);
    }

    #[test]
    fn incremental_resimulation_is_exact() {
        let scenario = compiled(0.0);
        let mut scratch = SimScratch::new();
        let base = ConfigMap::uniform(3, ResourceConfig::new(2.0, 1_024));
        let anchor = scenario
            .simulate(&mut scratch, &base, InputSpec::nominal(), 1)
            .unwrap();
        let mut edited = base.clone();
        edited.set(NodeId::new(2), ResourceConfig::new(4.0, 2_048));
        let inc = scenario
            .simulate_anchored(
                &mut scratch,
                &edited,
                InputSpec::nominal(),
                1,
                Some((&base, &anchor)),
            )
            .unwrap();
        assert_eq!(scratch.counters().incremental_sims, 1);
        let full = scenario
            .simulate(&mut scratch, &edited, InputSpec::nominal(), 1)
            .unwrap();
        assert_eq!(inc, full);
        assert!(
            scratch.counters().nodes_reused > 0,
            "the untouched prefix is reused"
        );
    }

    #[test]
    fn incremental_refuses_mismatched_inputs() {
        let scenario = compiled(0.0);
        let mut scratch = SimScratch::new();
        let base = ConfigMap::uniform(3, ResourceConfig::new(2.0, 1_024));
        let anchor = scenario
            .simulate(&mut scratch, &base, InputSpec::nominal(), 1)
            .unwrap();
        let input = InputSpec::new(2.0, 64.0);
        let routed = scenario
            .simulate_anchored(&mut scratch, &base, input, 1, Some((&base, &anchor)))
            .unwrap();
        let counters = scratch.counters();
        assert_eq!((counters.relaxed_sims, counters.incremental_sims), (2, 0));
        assert_eq!(
            routed,
            scenario
                .simulate_reference(&mut scratch, &base, input, 1)
                .unwrap()
        );
    }

    #[test]
    fn chunk_matches_solo_simulation_with_one_slab_alloc() {
        let scenario = compiled(0.0);
        let candidates = [
            ConfigMap::uniform(3, ResourceConfig::new(1.0, 512)),
            ConfigMap::uniform(3, ResourceConfig::new(1.0, 128)),
            // The 2-wide fan-out runs 100 vCPU at once on a 96-vCPU host:
            // it stalls, so the event loop serves it.
            ConfigMap::uniform(3, ResourceConfig::new(50.0, 4_096)),
            ConfigMap::uniform(3, ResourceConfig::new(2.0, 1_024)),
        ];
        let jobs: Vec<(&ConfigMap, u64)> = candidates
            .iter()
            .enumerate()
            .map(|(k, c)| (c, k as u64))
            .collect();

        let mut scratch = SimScratch::new();
        let mut batch = BatchSim::new(&scenario, InputSpec::nominal());
        let chunked = batch.simulate_chunk(&mut scratch, &jobs);
        for (k, configs) in candidates.iter().enumerate() {
            let solo = scenario
                .simulate_reference(
                    &mut SimScratch::new(),
                    configs,
                    InputSpec::nominal(),
                    k as u64,
                )
                .unwrap();
            assert_eq!(chunked[k].as_ref().unwrap(), &solo);
        }

        // One arena allocation carried the whole chunk out. The chain ran a
        // full relaxation, one incremental edit off it, the event loop
        // (which breaks the chain) and a fresh full relaxation.
        let counters = scratch.take_counters();
        assert!(counters.capacity_stalls > 0);
        assert_eq!(counters.result_slab_allocs, 1, "one slab per chunk");
        let row = std::mem::size_of::<NodeSimOutcome>() as u64;
        assert_eq!(counters.result_slab_bytes, 4 * 3 * row);
        assert_eq!(
            (
                counters.sims,
                counters.relaxed_sims,
                counters.incremental_sims
            ),
            (4, 2, 1)
        );
    }

    #[test]
    fn retired_chunk_slabs_are_recycled_without_new_allocations() {
        let scenario = compiled(0.0);
        let candidates = [
            ConfigMap::uniform(3, ResourceConfig::new(1.0, 512)),
            ConfigMap::uniform(3, ResourceConfig::new(2.0, 1_024)),
        ];
        let jobs: Vec<(&ConfigMap, u64)> = candidates
            .iter()
            .enumerate()
            .map(|(k, c)| (c, k as u64))
            .collect();
        let mut scratch = SimScratch::new();
        let mut batch = BatchSim::new(&scenario, InputSpec::nominal());
        let first = batch.simulate_chunk(&mut scratch, &jobs);
        assert_eq!(scratch.counters().result_slab_allocs, 1);
        // While the first chunk's results are alive its slab is pinned:
        // re-running the chunk must allocate a second slab...
        let second = batch.simulate_chunk(&mut scratch, &jobs);
        assert_eq!(scratch.counters().result_slab_allocs, 2);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
        // ...but once both are dropped, every further chunk of the same
        // shape recycles a retired slab and allocates nothing.
        drop(first);
        drop(second);
        for pass in 0..4 {
            let again = batch.simulate_chunk(&mut scratch, &jobs);
            assert!(again.iter().all(|r| r.is_ok()), "pass {pass}");
        }
        assert_eq!(scratch.counters().result_slab_allocs, 2);
    }

    /// A distinct jitter-free configuration per `k`.
    fn solo_configs(k: usize) -> ConfigMap {
        ConfigMap::uniform(
            3,
            ResourceConfig::new(1.0 + (k % 8) as f64, 512 + 64 * k as u32),
        )
    }

    #[test]
    fn dropped_solo_results_are_recycled_without_new_allocations() {
        let scenario = compiled(0.0);
        let mut scratch = SimScratch::new();
        for k in 0..20 {
            let fresh = scenario
                .simulate(
                    &mut SimScratch::new(),
                    &solo_configs(k),
                    InputSpec::nominal(),
                    0,
                )
                .unwrap();
            let recycled = scenario
                .simulate(&mut scratch, &solo_configs(k), InputSpec::nominal(), 0)
                .unwrap();
            assert_eq!(recycled, fresh);
        }
        assert_eq!(scratch.counters().result_slab_allocs, 1);
    }

    #[test]
    fn pinned_solo_results_cost_one_slab_each() {
        let scenario = compiled(0.0);
        let mut scratch = SimScratch::new();
        let kept: Vec<SimResult> = (0..2 * SLAB_POOL_CAP)
            .map(|k| {
                scenario
                    .simulate(&mut scratch, &solo_configs(k), InputSpec::nominal(), 0)
                    .unwrap()
            })
            .collect();
        assert_eq!(
            scratch.counters().result_slab_allocs,
            2 * SLAB_POOL_CAP as u64
        );
        for (k, result) in kept.iter().enumerate() {
            let fresh = scenario
                .simulate(
                    &mut SimScratch::new(),
                    &solo_configs(k),
                    InputSpec::nominal(),
                    0,
                )
                .unwrap();
            assert_eq!(result, &fresh, "a pinned slab was overwritten");
        }
    }

    #[test]
    fn a_pool_of_pinned_slabs_recycles_a_retired_one_within_a_bound() {
        let scenario = compiled(0.0);
        let mut scratch = SimScratch::new();
        let simulate = |scratch: &mut SimScratch, k: usize| {
            scenario
                .simulate(scratch, &solo_configs(k), InputSpec::nominal(), 0)
                .unwrap()
        };
        let mut kept: Vec<SimResult> = (0..SLAB_POOL_CAP)
            .map(|k| simulate(&mut scratch, k))
            .collect();
        // Retire one slab from the middle of a pool of pinned ones, then
        // keep pinning every new result.
        kept.swap_remove(SLAB_POOL_CAP / 2);
        let allocs = |scratch: &SimScratch| scratch.counters().result_slab_allocs;
        let before = allocs(&scratch);
        let mut freezes = 0;
        while allocs(&scratch) == before + freezes {
            assert!(
                freezes < SLAB_POOL_CAP as u64,
                "the retired slab was never recycled"
            );
            kept.push(simulate(&mut scratch, freezes as usize));
            freezes += 1;
        }
        assert_eq!(allocs(&scratch), before + freezes - 1);
        for (k, result) in kept[SLAB_POOL_CAP - 1..].iter().enumerate() {
            let fresh = simulate(&mut SimScratch::new(), k);
            assert_eq!(result, &fresh);
        }
    }

    #[test]
    fn a_retired_slab_of_another_length_gives_up_its_place() {
        let scenario = compiled(0.0);
        let configs = ConfigMap::uniform(3, ResourceConfig::new(2.0, 1_024));
        let jobs = [(&configs, 0), (&configs, 1)];
        let mut scratch = SimScratch::new();
        let mut batch = BatchSim::new(&scenario, InputSpec::nominal());
        // Alternate 3-row solo slabs with 6-row chunk slabs, dropping every
        // result at once: each switch of length costs one slab, and retired
        // slabs of a stale length do not pile up in the pool.
        for _ in 0..10 {
            drop(scenario.simulate(&mut scratch, &configs, InputSpec::nominal(), 0));
            drop(batch.simulate_chunk(&mut scratch, &jobs));
            assert_eq!(scratch.slab_pool.len(), 1);
        }
        assert_eq!(scratch.counters().result_slab_allocs, 20);
        // A run of one length recycles again.
        for _ in 0..10 {
            drop(batch.simulate_chunk(&mut scratch, &jobs));
        }
        assert_eq!(scratch.counters().result_slab_allocs, 20);
    }

    #[test]
    fn chunk_errors_come_back_in_job_order() {
        let scenario = compiled(0.0);
        let good = ConfigMap::uniform(3, ResourceConfig::new(1.0, 512));
        let bad = ConfigMap::uniform(3, ResourceConfig::new(500.0, 512));
        let jobs: Vec<(&ConfigMap, u64)> = vec![(&good, 0), (&bad, 1), (&good, 2)];
        let mut scratch = SimScratch::new();
        let mut batch = BatchSim::new(&scenario, InputSpec::nominal());
        let results = batch.simulate_chunk(&mut scratch, &jobs);
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok());
        assert_eq!(
            results[1].as_ref().unwrap_err(),
            &SimulatorError::Unplaceable {
                node: NodeId::new(0)
            }
        );
        // The candidate after the failure still simulates correctly: it
        // chains off the last valid candidate, which the failure left as
        // the anchor.
        let solo = scenario
            .simulate(&mut SimScratch::new(), &good, InputSpec::nominal(), 2)
            .unwrap();
        assert_eq!(results[2].as_ref().unwrap(), &solo);
    }

    #[test]
    fn empty_chunk_allocates_nothing() {
        let scenario = compiled(0.0);
        let mut scratch = SimScratch::new();
        let mut batch = BatchSim::new(&scenario, InputSpec::nominal());
        assert!(batch.simulate_chunk(&mut scratch, &[]).is_empty());
        assert_eq!(scratch.counters().result_slab_allocs, 0);
    }

    #[test]
    fn bitmask_tracks_tail_bits_exactly() {
        let mut mask = BitMask::default();
        mask.reset(70);
        assert!(!mask.any());
        mask.set(0);
        mask.set(63);
        mask.set(69);
        assert_eq!(mask.count_ones(), 3);
        assert!(mask.get(63) && mask.get(69) && !mask.get(64));
        mask.assign(63, false);
        assert_eq!(mask.count_ones(), 2);
        let mut copy = BitMask::default();
        copy.copy_from(&mask);
        assert_eq!(copy.count_ones(), 2);
        assert!(copy.get(69));
    }

    #[test]
    fn sim_result_accessors() {
        let scenario = compiled(0.0);
        let configs = ConfigMap::uniform(3, ResourceConfig::new(1.0, 512));
        let result = scenario
            .simulate(&mut SimScratch::new(), &configs, InputSpec::nominal(), 3)
            .unwrap();
        assert_eq!(result.len(), 3);
        assert!(!result.is_empty());
        assert_eq!(result.seed(), 3);
        assert_eq!(result.input(), InputSpec::nominal());
        assert!(result.runtime_of(NodeId::new(0)).unwrap() > 0.0);
        assert!(result.cost_of(NodeId::new(0)).unwrap() > 0.0);
        assert!(result.execution(NodeId::new(9)).is_none());
        assert!(result.meets_slo(f64::INFINITY));
        let cheap_clone = result.clone();
        assert_eq!(cheap_clone, result);
    }
}
