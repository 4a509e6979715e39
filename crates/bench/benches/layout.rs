//! Data-layout bench: the round-three layout paths per paper workload at
//! batch sizes 64 and 4096.
//!
//! * `relaxation_aos` vs `relaxation_soa` — the same candidate chain
//!   through the event-loop reference (array-of-structs `NodeState` rows,
//!   simulated event queue) and through the exact relaxation over the
//!   structure-of-arrays column tables. The gap is the layout + algorithm
//!   win on the solo path; both mint one result slab per simulation, so
//!   allocation is held constant.
//! * `result_slab_per_chunk` — the same chain through `simulate_chunk`:
//!   each result anchors the next and every result is an offset into one
//!   refcounted slab per chunk, the batch miss path's layout.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use aarc_simulator::kernel::{BatchSim, CompiledScenario, SimScratch};
use aarc_simulator::{ConfigMap, ResourceConfig};
use aarc_workloads::paper_workloads;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BATCH_SIZES: [usize; 2] = [64, 4096];

/// Deterministic suffix-edit candidate chain, same construction as the
/// `batch` bench: each candidate re-tunes one node of its predecessor.
fn candidate_chain(env: &aarc_simulator::WorkflowEnvironment, len: usize) -> Vec<ConfigMap> {
    let space = *env.space();
    let n = env.workflow().len();
    let mut rng = StdRng::seed_from_u64(0x1a70);
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

fn bench_layout(c: &mut Criterion) {
    let mut group = c.benchmark_group("layout");
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
                BenchmarkId::new(format!("relaxation_aos/{}", workload.name()), size),
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

            group.bench_with_input(
                BenchmarkId::new(format!("relaxation_soa/{}", workload.name()), size),
                &candidates,
                |b, cands| {
                    let mut scratch = SimScratch::new();
                    b.iter(|| {
                        for (i, configs) in cands.iter().enumerate() {
                            std::hint::black_box(
                                scenario
                                    .simulate(&mut scratch, configs, env.input(), i as u64)
                                    .expect("candidate simulates"),
                            );
                        }
                    });
                },
            );

            group.bench_with_input(
                BenchmarkId::new(format!("result_slab_per_chunk/{}", workload.name()), size),
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
        }
    }
    group.finish();
}

criterion_group!(benches, bench_layout);
criterion_main!(benches);
