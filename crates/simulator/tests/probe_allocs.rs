//! Counted allocation floor of the evaluation service's candidate paths.
//!
//! A search evaluates single probes and batches of ≈70 candidates, and each
//! candidate's bookkeeping (key hashing, cache lookup and insertion, dedup,
//! the probe anchor) should cost no heap allocation it can avoid. These
//! tests count allocations on the calling thread with a counting global
//! allocator, so the test harness's other threads do not disturb the count,
//! and fail when an allocation per candidate comes back. The counts depend
//! only on the code, never on the machine; each bound leaves room for the
//! standard library's collection growth, which is not this code's to fix.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aarc_simulator::{
    ConfigMap, EvalOptions, EvalService, FunctionProfile, KernelCounters, ProfileSet,
    ResourceConfig, WorkflowEnvironment,
};
use aarc_workflow::WorkflowBuilder;

/// Counts the allocations (including reallocations) each thread makes.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counter is a const-initialised
// thread-local without a destructor, so touching it never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its value with the allocations it made on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let value = f();
    (value, ALLOCS.with(Cell::get) - before)
}

/// A jitter-free six-function DAG: an entry fanning out to two branches
/// that join, then a second fan-out.
fn env() -> WorkflowEnvironment {
    let mut b = WorkflowBuilder::new("probe-allocs");
    let names = ["ingest", "left", "right", "join", "report", "archive"];
    let nodes: Vec<_> = names.iter().map(|&n| b.add_function(n)).collect();
    for (from, to) in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5)] {
        b.add_edge(nodes[from], nodes[to]).unwrap();
    }
    let wf = b.build().unwrap();
    let mut profiles = ProfileSet::new();
    for (i, (&node, &name)) in nodes.iter().zip(&names).enumerate() {
        profiles.insert(
            node,
            FunctionProfile::builder(name)
                .serial_ms(200.0 + 50.0 * i as f64)
                .parallel_ms(800.0)
                .max_parallelism(4.0)
                .working_set_mb(256.0)
                .build(),
        );
    }
    WorkflowEnvironment::builder(wf, profiles).build().unwrap()
}

/// A jitter-free thirteen-function DAG on the paper's 96-vCPU host: an
/// entry fanning out to six branches that join, then fan out to four more
/// that join. At 10 vCPU each, the ten functions [`chain`] never edits
/// already sum to 100 vCPU, more than the host, but at most six run at
/// once, so the kernel proves a probe stall-free only from its relaxed
/// timeline, by the bucketed bound of the timeline rule.
fn wide_env() -> WorkflowEnvironment {
    let mut b = WorkflowBuilder::new("probe-allocs-wide");
    let nodes: Vec<_> = (0..13).map(|i| b.add_function(format!("f{i}"))).collect();
    for branch in 1..7 {
        b.add_edge(nodes[0], nodes[branch]).unwrap();
        b.add_edge(nodes[branch], nodes[7]).unwrap();
    }
    for branch in 8..12 {
        b.add_edge(nodes[7], nodes[branch]).unwrap();
        b.add_edge(nodes[branch], nodes[12]).unwrap();
    }
    let wf = b.build().unwrap();
    let mut profiles = ProfileSet::new();
    for (i, &node) in nodes.iter().enumerate() {
        profiles.insert(
            node,
            FunctionProfile::builder(format!("f{i}"))
                .serial_ms(200.0 + 50.0 * i as f64)
                .parallel_ms(800.0)
                .max_parallelism(4.0)
                .working_set_mb(256.0)
                .build(),
        );
    }
    WorkflowEnvironment::builder(wf, profiles).build().unwrap()
}

/// `len` distinct candidates over `n` functions starting at `base`, each
/// re-tuning one function of its predecessor: the suffix edits a stagewise
/// search probes.
fn chain(n: usize, base: ResourceConfig, len: usize) -> Vec<ConfigMap> {
    let mut configs = vec![base; n];
    (0..len)
        .map(|k| {
            configs[n - 1 - k % 3] =
                ResourceConfig::new(0.5 + 0.5 * (k % 9) as f64, 512 + 64 * k as u32);
            ConfigMap::from_vec(configs.clone())
        })
        .collect()
}

fn six_chain(len: usize) -> Vec<ConfigMap> {
    chain(6, ResourceConfig::new(2.0, 1_024), len)
}

fn single_thread(cache_capacity: usize) -> EvalService {
    EvalService::new(EvalOptions {
        threads: 1,
        cache_capacity,
    })
}

#[test]
fn a_cache_hit_probe_allocates_nothing() {
    let service = single_thread(8_192);
    let handle = service.register(env());
    let candidates = six_chain(32);
    for configs in &candidates {
        handle.evaluate(configs).unwrap();
    }
    let (_, allocs) = counted(|| {
        for configs in &candidates {
            handle.evaluate(configs).unwrap();
        }
    });
    assert_eq!(handle.stats().cache_hits, 32);
    assert_eq!(allocs, 0, "cache-hit probes allocated");
}

/// Counts the allocations of 200 distinct probe misses on `env`, after
/// 200 warm-up misses, and returns the service's kernel counters.
fn assert_probe_misses_allocate_at_most_two(
    env: WorkflowEnvironment,
    candidates: &[ConfigMap],
) -> KernelCounters {
    // Four entries per shard: the shards fill while warming up, so every
    // counted miss evicts an entry and no shard grows any more.
    let service = single_thread(64);
    let handle = service.register(env);
    let (warm, misses) = candidates.split_at(200);
    for configs in warm {
        handle.evaluate(configs).unwrap();
    }
    let (_, allocs) = counted(|| {
        for configs in misses {
            handle.evaluate(configs).unwrap();
        }
    });
    assert_eq!(handle.stats().cache_misses, 400);
    // Each miss boxes its cache key and seals its result slab, unless the
    // slab recycles one an eviction retired; nothing else per miss.
    assert!(
        allocs <= 2 * misses.len() as u64,
        "{allocs} allocations over {} probe misses ({:.3} each)",
        misses.len(),
        allocs as f64 / misses.len() as f64
    );
    service.kernel_counters()
}

#[test]
fn a_distinct_probe_miss_allocates_at_most_its_key_and_its_slab() {
    assert_probe_misses_allocate_at_most_two(env(), &six_chain(400));
}

#[test]
fn a_probe_miss_proven_by_the_timeline_rule_allocates_at_most_two() {
    let candidates = chain(13, ResourceConfig::new(10.0, 1_024), 400);
    let vcpu = |c: &ConfigMap| -> f64 { c.as_slice().iter().map(|r| r.vcpu.get()).sum() };
    assert!(candidates.iter().all(|c| vcpu(c) > 96.0));
    let counters = assert_probe_misses_allocate_at_most_two(wide_env(), &candidates);
    // Every probe after the first re-simulated incrementally: the bucketed
    // bound proved each, none needed sorting and none took the event loop.
    assert_eq!(counters.sims, 400);
    assert_eq!(counters.incremental_sims, 399);
    assert_eq!(counters.relaxed_sims, 1);
    assert_eq!(counters.sorted_sweeps, 0);
}

#[test]
fn a_cache_off_batch_allocates_per_batch_not_per_candidate() {
    let service = single_thread(0);
    let handle = service.register(env());
    let mut candidates = six_chain(64);
    candidates.extend_from_within(..6);
    // Warm the scratch arena and its slab pool.
    handle.evaluate_batch(&candidates).unwrap();
    let (results, allocs) = counted(|| handle.evaluate_batch(&candidates).unwrap());
    assert_eq!(results.len(), 70);
    assert_eq!(handle.batch_dedup_hits(), 12);
    assert!(
        allocs <= ALLOCS_PER_BATCH,
        "{allocs} allocations per 70-candidate batch"
    );
}

/// Measured: 32, fixed per batch or per chunk: the result, claim, pending
/// and duplicate vectors and the chunk pool's worker and per-chunk
/// vectors; the 8 chunk slabs recycle. One allocation per distinct
/// candidate would add 58. The margin is for the standard library's
/// growth policy, which sizes the two vectors that grow by pushing.
const ALLOCS_PER_BATCH: u64 = 44;
