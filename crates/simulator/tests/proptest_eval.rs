//! Batch-scheduler invariance property tests: the chunked worker pool must
//! be invisible in every observable. For any candidate mix — duplicates
//! included, jitter on or off, memo-cache on or off — the result stream,
//! the cache statistics, the intra-batch dedup count and even the kernel's
//! per-path work counters are bit-identical at every thread count, and the
//! whole batch equals a naive per-candidate `simulate` loop that bypasses
//! the batch scheduler entirely (the pre-round-two static path).

use aarc_simulator::kernel::{BatchSim, CompiledScenario, SimScratch};
use aarc_simulator::{
    derive_seed, ClusterSpec, ColdStartModel, ConfigMap, EvalOptions, EvalService, EvalStats,
    FunctionProfile, KernelCounters, ProfileSet, ResourceConfig, ResourceSpace, SimResult,
    WorkflowEnvironment,
};
use aarc_workflow::{CommunicationKind, NodeId, WorkflowBuilder};
use proptest::prelude::*;

const NODES: usize = 5;

/// One fan-out, one fan-in: `f0 → {f1, f2, f3} → f4`.
fn diamond_env(jitter: f64) -> WorkflowEnvironment {
    let mut b = WorkflowBuilder::new("prop-eval");
    let ids: Vec<NodeId> = (0..NODES)
        .map(|i| b.add_function(format!("f{i}")))
        .collect();
    for mid in 1..4 {
        b.add_edge_with(ids[0], ids[mid], 32.0, CommunicationKind::Scatter)
            .unwrap();
        b.add_edge_with(ids[mid], ids[4], 16.0, CommunicationKind::Gather)
            .unwrap();
    }
    let wf = b.build().unwrap();
    let mut set = ProfileSet::new();
    for (i, id) in ids.iter().enumerate() {
        set.insert(
            *id,
            FunctionProfile::builder(format!("f{i}"))
                .serial_ms(200.0 + 150.0 * i as f64)
                .parallel_ms(900.0)
                .max_parallelism(4.0)
                .working_set_mb(700.0)
                .mem_floor_mb(280.0)
                .build(),
        );
    }
    let cluster = ClusterSpec {
        runtime_jitter: jitter,
        cold_start: ColdStartModel::typical(),
        ..ClusterSpec::paper_testbed()
    };
    WorkflowEnvironment::builder(wf, set)
        .cluster(cluster)
        .build()
        .unwrap()
}

/// Snaps raw candidates to the paper space, replaying some of them as
/// verbatim copies of earlier candidates to force intra-batch duplicates.
fn candidates_from(raw: Vec<Vec<(f64, u32)>>, dup_from: &[usize]) -> Vec<ConfigMap> {
    let space = ResourceSpace::paper();
    let mut out: Vec<ConfigMap> = Vec::with_capacity(raw.len());
    for (k, cfgs) in raw.into_iter().enumerate() {
        let dup = dup_from[k] % (k + 1);
        if dup < k {
            out.push(out[dup].clone());
        } else {
            out.push(ConfigMap::from_vec(
                cfgs.into_iter()
                    .map(|(v, m)| ResourceConfig::new(space.snap_vcpu(v), space.snap_memory(m)))
                    .collect(),
            ));
        }
    }
    out
}

struct BatchRun {
    results: Vec<SimResult>,
    stats: EvalStats,
    dedup: u64,
    kernel: KernelCounters,
}

fn run_batch(
    env: &WorkflowEnvironment,
    candidates: &[ConfigMap],
    threads: usize,
    cache: usize,
) -> BatchRun {
    let service = EvalService::new(EvalOptions {
        threads,
        cache_capacity: cache,
    });
    let handle = service.register(env.clone());
    let results = handle.evaluate_batch(candidates).unwrap();
    BatchRun {
        results,
        stats: handle.stats(),
        dedup: handle.batch_dedup_hits(),
        kernel: service.kernel_counters(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batches_are_bit_identical_across_thread_counts(
        raw in proptest::collection::vec(
            proptest::collection::vec((0.1f64..10.0, 128u32..10_240), NODES..NODES + 1),
            1..40,
        ),
        dup_from in proptest::collection::vec(0usize..64, 40usize..41),
        jittered in 0u8..2,
        cached in 0u8..2,
    ) {
        let env = diamond_env(if jittered == 1 { 0.05 } else { 0.0 });
        let candidates = candidates_from(raw, &dup_from);
        let cache = if cached == 1 { 1_024 } else { 0 };

        let one = run_batch(&env, &candidates, 1, cache);
        let two = run_batch(&env, &candidates, 2, cache);
        let eight = run_batch(&env, &candidates, 8, cache);

        // Result streams are bit-identical at every pool width.
        prop_assert_eq!(&one.results, &two.results);
        prop_assert_eq!(&one.results, &eight.results);

        // So are the statistics (modulo the reported pool width itself)...
        for other in [&two, &eight] {
            prop_assert_eq!(one.stats.requests, other.stats.requests);
            prop_assert_eq!(one.stats.cache_hits, other.stats.cache_hits);
            prop_assert_eq!(one.stats.cache_misses, other.stats.cache_misses);
            prop_assert_eq!(one.stats.evictions, other.stats.evictions);
            prop_assert_eq!(one.dedup, other.dedup);
            // ...and the kernel's per-path work counters: chunk boundaries
            // depend only on the batch length, so the relaxed/incremental
            // split is scheduler-invariant, not just the results.
            prop_assert_eq!(one.kernel, other.kernel);
        }

        // The whole batch equals a naive per-candidate simulate loop with
        // the handle's positional seeds — the batch scheduler, the
        // incremental anchors and the dedup fan-out are pure acceleration.
        let compiled = CompiledScenario::compile(
            env.workflow(),
            env.profiles(),
            *env.cluster(),
            *env.pricing(),
        )
        .unwrap();
        let mut scratch = SimScratch::new();
        for (i, configs) in candidates.iter().enumerate() {
            // A jitter-free duplicate fans out the first occurrence's
            // result — including its positional seed (results are
            // seed-independent without jitter, and the cache key already
            // normalises the seed away). Under jitter every candidate runs
            // with its own seed.
            let first = candidates[..i]
                .iter()
                .position(|c| c.as_slice() == configs.as_slice())
                .unwrap_or(i);
            let index = if env.cluster().runtime_jitter > 0.0 { i } else { first };
            let seed = derive_seed(env.seed(), index as u64);
            let solo = compiled
                .simulate_reference(&mut scratch, configs, env.input(), seed)
                .unwrap();
            prop_assert_eq!(&one.results[i], &solo);
        }
    }

    /// The chunked SoA batch path is chunking-invariant: splitting one
    /// candidate stream into chunks of any width produces the same results
    /// bit-for-bit as a solo `simulate` per candidate — each chunk starts a
    /// fresh anchor chain, every result is a view into its chunk's slab,
    /// and the kernel performs exactly one result-slab allocation per
    /// chunk. (Counters other than results may legitimately differ between
    /// *chunkings* — the relaxed/incremental split depends on where chains
    /// reset — which is why the batch scheduler derives its chunk width
    /// from the batch length alone; thread-invariance of the full counter
    /// struct is pinned by the test above.)
    #[test]
    fn chunkings_are_invisible_in_results(
        raw in proptest::collection::vec(
            proptest::collection::vec((0.1f64..10.0, 128u32..10_240), NODES..NODES + 1),
            1..24,
        ),
        dup_from in proptest::collection::vec(0usize..64, 24usize..25),
        chunk_pick in 0usize..3,
    ) {
        let env = diamond_env(0.0);
        let candidates = candidates_from(raw, &dup_from);
        let compiled = CompiledScenario::compile(
            env.workflow(),
            env.profiles(),
            *env.cluster(),
            *env.pricing(),
        )
        .unwrap();
        let input = env.input();

        let chunk = [1, 3, candidates.len()][chunk_pick].max(1);
        let jobs: Vec<(&aarc_simulator::ConfigMap, u64)> = candidates
            .iter()
            .enumerate()
            .map(|(i, c)| (c, derive_seed(env.seed(), i as u64)))
            .collect();

        let mut scratch = SimScratch::new();
        let mut batch = BatchSim::new(&compiled, input);
        let mut chunked = Vec::with_capacity(jobs.len());
        let mut chunks = 0u64;
        for piece in jobs.chunks(chunk) {
            chunked.extend(batch.simulate_chunk(&mut scratch, piece));
            chunks += 1;
        }
        prop_assert_eq!(scratch.counters().result_slab_allocs, chunks);

        let mut solo_scratch = SimScratch::new();
        for (i, &(configs, seed)) in jobs.iter().enumerate() {
            let solo = compiled
                .simulate(&mut solo_scratch, configs, input, seed)
                .unwrap();
            prop_assert_eq!(chunked[i].as_ref().unwrap(), &solo);
        }
    }
}
