//! Batch-path bench: µs per simulation as a function of batch size through
//! the round-two scheduler. Three shapes per paper workload:
//!
//! * `evaluate_batch` — distinct candidates through the [`EvalService`]
//!   batch path (cache off), at batch sizes 1, 64 and 4096: the per-job
//!   overhead of chunking, dedup pre-pass and result merging over the raw
//!   kernel.
//! * `lockstep_chain` — the same candidates driven directly through one
//!   [`BatchSim::simulate_chunk`], where each result anchors the next: the
//!   incremental re-simulation fast path local search leans on, without the
//!   service around it.
//! * `event_loop_chain` — the identical chain through the event-loop
//!   reference, the pre-round-two cost of the same work.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use aarc_simulator::kernel::{BatchSim, CompiledScenario, SimScratch};
use aarc_simulator::{ConfigMap, EvalOptions, EvalService, ResourceConfig};
use aarc_workloads::paper_workloads;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BATCH_SIZES: [usize; 3] = [1, 64, 4096];

/// Deterministic suffix-edit candidate chain: each candidate re-tunes one
/// node of its predecessor, starting from the base configuration.
fn candidate_chain(env: &aarc_simulator::WorkflowEnvironment, len: usize) -> Vec<ConfigMap> {
    let space = *env.space();
    let n = env.workflow().len();
    let mut rng = StdRng::seed_from_u64(0xba7c);
    let mut configs: Vec<ResourceConfig> = env.base_configs().as_slice().to_vec();
    (0..len)
        .map(|_| {
            let node = rng.gen_range(0..n);
            let vcpu = space.snap_vcpu(rng.gen_range(space.min_vcpu..=space.max_vcpu));
            let mem = space.snap_memory(rng.gen_range(space.min_memory_mb..=space.max_memory_mb));
            configs[node] = ResourceConfig::new(vcpu, mem);
            ConfigMap::from_vec(configs.clone())
        })
        .collect()
}

fn bench_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_simulation");
    group.sample_size(10);
    for workload in paper_workloads() {
        let env = workload.env().clone();
        let scenario = CompiledScenario::compile(
            env.workflow(),
            env.profiles(),
            *env.cluster(),
            *env.pricing(),
        )
        .expect("paper workloads compile");
        let chain = candidate_chain(&env, *BATCH_SIZES.last().unwrap());

        for &size in &BATCH_SIZES {
            let candidates = &chain[..size];

            group.bench_with_input(
                BenchmarkId::new(format!("evaluate_batch/{}", workload.name()), size),
                &candidates,
                |b, cands| {
                    let service = EvalService::new(EvalOptions {
                        threads: 1,
                        cache_capacity: 0,
                    });
                    let handle = service.register(env.clone());
                    b.iter(|| {
                        std::hint::black_box(handle.evaluate_batch(cands).expect("batch evaluates"))
                    });
                },
            );

            group.bench_with_input(
                BenchmarkId::new(format!("lockstep_chain/{}", workload.name()), size),
                &candidates,
                |b, cands| {
                    let mut scratch = SimScratch::new();
                    let jobs: Vec<(&ConfigMap, u64)> = cands
                        .iter()
                        .enumerate()
                        .map(|(i, c)| (c, i as u64))
                        .collect();
                    b.iter(|| {
                        let mut batch = BatchSim::new(&scenario, env.input());
                        std::hint::black_box(batch.simulate_chunk(&mut scratch, &jobs));
                    });
                },
            );

            group.bench_with_input(
                BenchmarkId::new(format!("event_loop_chain/{}", workload.name()), size),
                &candidates,
                |b, cands| {
                    let mut scratch = SimScratch::new();
                    b.iter(|| {
                        for (i, configs) in cands.iter().enumerate() {
                            std::hint::black_box(
                                scenario
                                    .simulate_reference(
                                        &mut scratch,
                                        configs,
                                        env.input(),
                                        i as u64,
                                    )
                                    .expect("candidate simulates"),
                            );
                        }
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_batch);
criterion_main!(benches);
