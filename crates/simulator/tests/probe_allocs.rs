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
    ConfigMap, EvalOptions, EvalService, FunctionProfile, ProfileSet, ResourceConfig,
    WorkflowEnvironment,
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

/// `len` distinct candidates, each re-tuning one function of its
/// predecessor: the suffix edits a stagewise search probes.
fn chain(len: usize) -> Vec<ConfigMap> {
    let mut configs = vec![ResourceConfig::new(2.0, 1_024); 6];
    (0..len)
        .map(|k| {
            configs[5 - k % 3] =
                ResourceConfig::new(0.5 + 0.5 * (k % 9) as f64, 512 + 64 * k as u32);
            ConfigMap::from_vec(configs.clone())
        })
        .collect()
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
    let candidates = chain(32);
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

#[test]
fn a_distinct_probe_miss_allocates_at_most_its_key_and_its_slab() {
    // Four entries per shard: the shards fill while warming up, so every
    // counted miss evicts an entry and no shard grows any more.
    let service = single_thread(64);
    let handle = service.register(env());
    let candidates = chain(400);
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
}

#[test]
fn a_cache_off_batch_allocates_per_batch_not_per_candidate() {
    let service = single_thread(0);
    let handle = service.register(env());
    let mut candidates = chain(64);
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
