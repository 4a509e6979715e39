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
//!
//! Two more shapes replay the whole 4096-candidate chain one probe at a
//! time, the way AARC's scheduler and MAFF evaluate candidates:
//!
//! * `probe_service` — [`ScenarioHandle::evaluate`] on a fresh
//!   single-thread service with the cache on, so each probe pays the key
//!   hash, cache lookup and insertion and the probe-anchor hand-off a
//!   search's probe pays (registration is included, under 1% of a pass);
//! * `probe_kernel` — the bare [`CompiledScenario`] calls that path makes:
//!   an incremental re-simulation off the last exact probe, else a full
//!   one.
//!
//! `probe_service / probe_kernel` is the service's overhead per probe.
//!
//! [`ScenarioHandle::evaluate`]: aarc_simulator::ScenarioHandle::evaluate

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use aarc_simulator::kernel::{BatchSim, CompiledScenario, SimResult, SimScratch};
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

        group.bench_with_input(
            BenchmarkId::new(format!("probe_service/{}", workload.name()), chain.len()),
            &chain,
            |b, chain| {
                b.iter(|| {
                    let service = EvalService::with_threads(1);
                    let handle = service.register(env.clone());
                    for configs in chain {
                        std::hint::black_box(handle.evaluate(configs).expect("probe evaluates"));
                    }
                });
            },
        );

        group.bench_with_input(
            BenchmarkId::new(format!("probe_kernel/{}", workload.name()), chain.len()),
            &chain,
            |b, chain| {
                let mut scratch = SimScratch::new();
                let (input, seed) = (env.input(), env.seed());
                b.iter(|| {
                    let mut anchor: Option<(&ConfigMap, SimResult)> = None;
                    for configs in chain {
                        let result = anchor
                            .as_ref()
                            .and_then(|(anchor_cfgs, anchor_result)| {
                                scenario.try_incremental(
                                    &mut scratch,
                                    configs,
                                    input,
                                    seed,
                                    anchor_cfgs,
                                    anchor_result,
                                )
                            })
                            .unwrap_or_else(|| {
                                scenario
                                    .simulate(&mut scratch, configs, input, seed)
                                    .expect("probe simulates")
                            });
                        let result = std::hint::black_box(result);
                        // The service re-anchors only on an exact probe.
                        if scenario.relaxation_exact(configs) {
                            anchor = Some((configs, result));
                        }
                    }
                });
            },
        );

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
