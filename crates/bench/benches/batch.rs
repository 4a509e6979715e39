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
//! * `probe_kernel` — the bare [`CompiledScenario`] call that path makes:
//!   `simulate_anchored` off the last stall-free probe, which re-simulates
//!   incrementally where it can.
//!
//! `probe_service / probe_kernel` is the service's overhead per probe. Both
//! probe shapes also run on `wide-40`, a generated 40-function workflow
//! whose summed base demand exceeds its host, so each probe's relaxed
//! timeline must pass the kernel's bucketed bound or its interval sweep to
//! stay off the event loop.
//!
//! [`ScenarioHandle::evaluate`]: aarc_simulator::ScenarioHandle::evaluate

use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion};

use aarc_simulator::kernel::{BatchSim, CompiledScenario, SimResult, SimScratch};
use aarc_simulator::{ConfigMap, EvalOptions, EvalService, ResourceConfig, WorkflowEnvironment};
use aarc_workloads::{paper_workloads, RandomWorkloadConfig, RandomWorkloadGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BATCH_SIZES: [usize; 3] = [1, 64, 4096];

/// Deterministic suffix-edit candidate chain: each candidate re-tunes one
/// node of its predecessor, starting from the base configuration.
fn candidate_chain(env: &WorkflowEnvironment, len: usize) -> Vec<ConfigMap> {
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

fn compile(env: &WorkflowEnvironment) -> CompiledScenario {
    CompiledScenario::compile(
        env.workflow(),
        env.profiles(),
        *env.cluster(),
        *env.pricing(),
    )
    .expect("workloads compile")
}

/// The two probe shapes over `chain` on `env`.
fn bench_probes(
    group: &mut BenchmarkGroup<'_>,
    name: &str,
    env: &WorkflowEnvironment,
    chain: &[ConfigMap],
) {
    let scenario = compile(env);
    group.bench_with_input(
        BenchmarkId::new(format!("probe_service/{name}"), chain.len()),
        &chain,
        |b, chain| {
            b.iter(|| {
                let service = EvalService::with_threads(1);
                let handle = service.register(env.clone());
                for configs in chain.iter() {
                    std::hint::black_box(handle.evaluate(configs).expect("probe evaluates"));
                }
            });
        },
    );

    group.bench_with_input(
        BenchmarkId::new(format!("probe_kernel/{name}"), chain.len()),
        &chain,
        |b, chain| {
            let mut scratch = SimScratch::new();
            let (input, seed) = (env.input(), env.seed());
            b.iter(|| {
                let mut anchor: Option<(&ConfigMap, SimResult)> = None;
                for configs in chain.iter() {
                    let result = scenario
                        .simulate_anchored(
                            &mut scratch,
                            configs,
                            input,
                            seed,
                            anchor.as_ref().map(|(cfgs, result)| (*cfgs, result)),
                        )
                        .expect("probe simulates");
                    let result = std::hint::black_box(result);
                    // The service re-anchors only on a stall-free probe.
                    if result.stall_free() {
                        anchor = Some((configs, result));
                    }
                }
            });
        },
    );
}

fn bench_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_simulation");
    group.sample_size(10);
    let probes = *BATCH_SIZES.last().unwrap();
    for workload in paper_workloads() {
        let env = workload.env().clone();
        let scenario = compile(&env);
        let chain = candidate_chain(&env, probes);
        bench_probes(&mut group, workload.name(), &env, &chain);

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

    let wide = RandomWorkloadGenerator::new(
        RandomWorkloadConfig {
            layers: 8,
            max_width: 9,
            ..RandomWorkloadConfig::default()
        },
        5,
    )
    .generate();
    let env = wide.env();
    let base_vcpu: f64 = env
        .base_configs()
        .as_slice()
        .iter()
        .map(|c| c.vcpu.get())
        .sum();
    assert!(base_vcpu > env.cluster().vcpus_per_host);
    bench_probes(&mut group, "wide-40", env, &candidate_chain(env, probes));
    group.finish();
}

criterion_group!(benches, bench_batch);
criterion_main!(benches);
