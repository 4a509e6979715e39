//! Kernel-equivalence property tests: for any workflow shape, profile mix,
//! configuration, input and seed, the compiled kernel's lean [`SimResult`]
//! and the materialised [`ExecutionReport`] must agree *exactly* — same
//! makespan, cost, OOM flag and per-node timings, bit for bit — whether the
//! simulation runs through an [`EvalService`] handle, through a manually
//! driven [`CompiledScenario`] with a reused [`SimScratch`], or through the
//! one-off [`WorkflowEnvironment::execute_with`] path.

use std::cell::Cell;

use aarc_simulator::kernel::{BatchSim, CompiledScenario, SimResult, SimScratch};
use aarc_simulator::{
    ClusterSpec, ColdStartModel, ConfigMap, EvalOptions, EvalService, FunctionProfile, InputSpec,
    PricingModel, ProfileSet, ResourceConfig, ResourceSpace, WorkflowEnvironment,
};
use aarc_workflow::{CommunicationKind, NodeId, WorkflowBuilder};
use proptest::prelude::*;

/// A randomly shaped DAG with random profiles plus matching configurations.
#[derive(Debug, Clone)]
struct Case {
    env: WorkflowEnvironment,
    configs: ConfigMap,
}

type ProfileParams = (f64, f64, f64, f64, f64, f64, f64, f64);

fn profile_from(index: usize, p: ProfileParams) -> FunctionProfile {
    let (serial, parallel, par, io, ws, penalty, sens, mem_sens) = p;
    FunctionProfile::builder(format!("f{index}"))
        .serial_ms(serial)
        .parallel_ms(parallel)
        .max_parallelism(par)
        .io_ms(io)
        .working_set_mb(ws)
        .mem_floor_mb(ws * 0.4)
        .mem_penalty_factor(penalty)
        .input_sensitivity(sens)
        .mem_input_sensitivity(mem_sens)
        .build()
}

fn arb_profile_params() -> impl Strategy<Value = ProfileParams> {
    (
        0.0f64..10_000.0,  // serial
        0.0f64..40_000.0,  // parallel
        1.0f64..8.0,       // max parallelism
        0.0f64..2_000.0,   // io
        128.0f64..4_096.0, // working set
        1.0f64..6.0,       // penalty
        0.0f64..1.5,       // input sensitivity
        0.0f64..1.0,       // memory input sensitivity
    )
}

fn arb_case() -> impl Strategy<Value = Case> {
    (2usize..8).prop_flat_map(|n| {
        (
            proptest::collection::vec(arb_profile_params(), n..n + 1),
            proptest::collection::vec((0.1f64..10.0, 128u32..10_240), n..n + 1),
            0u64..u64::MAX, // wiring seed
            0.0f64..0.2,    // jitter
        )
            .prop_map(move |(params, raw_configs, wiring_seed, jitter)| {
                let mut b = WorkflowBuilder::new("prop-kernel");
                let ids: Vec<NodeId> = (0..n).map(|i| b.add_function(format!("f{i}"))).collect();
                // Deterministic pseudo-random wiring (xorshift): every node
                // past the first gets an edge from some earlier node, with
                // varied payloads and communication kinds; occasional extra
                // edges create fan-in/fan-out.
                let mut state = wiring_seed | 1;
                let mut next = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                for to in 1..n {
                    let from = (next() as usize) % to;
                    let kind = match next() % 4 {
                        0 => CommunicationKind::Direct,
                        1 => CommunicationKind::Scatter,
                        2 => CommunicationKind::Broadcast,
                        _ => CommunicationKind::Gather,
                    };
                    let payload = (next() % 128) as f64;
                    b.add_edge_with(ids[from], ids[to], payload, kind).unwrap();
                    if to >= 2 && next() % 3 == 0 {
                        let extra = (next() as usize) % to;
                        if extra != from {
                            let _ = b.add_edge(ids[extra], ids[to]);
                        }
                    }
                }
                let wf = b.build().unwrap();
                let mut set = ProfileSet::new();
                for (i, (id, p)) in ids.iter().zip(params).enumerate() {
                    set.insert(*id, profile_from(i, p));
                }
                let cluster = ClusterSpec {
                    runtime_jitter: jitter,
                    ..ClusterSpec::paper_testbed()
                };
                let env = WorkflowEnvironment::builder(wf, set)
                    .cluster(cluster)
                    .build()
                    .unwrap();
                let space = ResourceSpace::paper();
                let configs = ConfigMap::from_vec(
                    raw_configs
                        .into_iter()
                        .map(|(v, m)| ResourceConfig::new(space.snap_vcpu(v), space.snap_memory(m)))
                        .collect(),
                );
                Case { env, configs }
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The lean result and the materialised report agree exactly on every
    /// observable, across the service path, the manual kernel path (with a
    /// dirty, reused scratch) and the one-off environment path.
    #[test]
    fn kernel_result_and_materialised_report_agree_exactly(
        case in arb_case(),
        seed in 0u64..u64::MAX,
        scale in 0.25f64..3.0,
        payload in 1.0f64..64.0,
    ) {
        let env = &case.env;
        let configs = &case.configs;
        let n = env.workflow().len();
        let input = InputSpec::new(scale, payload);

        // Path 1: a service handle (memo-cache disabled so the kernel
        // always runs).
        let service = EvalService::new(EvalOptions { threads: 1, cache_capacity: 0 });
        let handle = service.register(env.clone());
        let result = handle.evaluate_with(configs, input, seed).unwrap();

        // Path 2: a manually driven scenario with a deliberately dirty
        // scratch (warmed up on a different candidate first).
        let compiled = CompiledScenario::compile(
            env.workflow(),
            env.profiles(),
            *env.cluster(),
            *env.pricing(),
        )
        .unwrap();
        let mut scratch = SimScratch::new();
        let warmup = ConfigMap::uniform(n, ResourceConfig::new(4.0, 4_096));
        let _ = compiled.simulate(&mut scratch, &warmup, InputSpec::nominal(), seed ^ 1);
        let manual = compiled.simulate(&mut scratch, configs, input, seed).unwrap();
        prop_assert_eq!(&manual, &result);

        // Path 3: the materialised full report (trace recording on), via
        // the handle and via the environment's one-off compile.
        let report = handle.materialize_result(configs, &result).unwrap();
        let one_off = env.execute_with(configs, input, seed).unwrap();
        prop_assert_eq!(&report, &one_off);

        // Exact agreement between the lean and the full views, bit for bit.
        prop_assert_eq!(result.makespan_ms().to_bits(), report.makespan_ms().to_bits());
        prop_assert_eq!(result.total_cost().to_bits(), report.total_cost().to_bits());
        prop_assert_eq!(result.any_oom(), report.any_oom());
        prop_assert_eq!(result.len(), report.executions().len());
        for exec in report.executions() {
            let node = result.execution(exec.node).unwrap();
            prop_assert_eq!(node.start_ms.to_bits(), exec.start_ms.to_bits());
            prop_assert_eq!(node.end_ms.to_bits(), exec.end_ms.to_bits());
            prop_assert_eq!(node.runtime_ms.to_bits(), exec.runtime_ms.to_bits());
            prop_assert_eq!(node.cost.to_bits(), exec.cost.to_bits());
            prop_assert_eq!(node.oom, exec.oom);
            // O(1) report lookup agrees with the dense layout.
            prop_assert_eq!(report.runtime_of(exec.node), Some(exec.runtime_ms));
        }
    }

    /// Incremental re-simulation off an anchor agrees bit-for-bit with a
    /// full simulation after any sequence of random config edits — and is
    /// refused (the kernel simulates in full) whenever exactness can't be
    /// proven (here: runtime jitter on).
    #[test]
    fn incremental_resimulation_matches_full(
        case in arb_case(),
        edits in proptest::collection::vec((0usize..8, 0.1f64..10.0, 128u32..10_240), 1..6),
        seed in 0u64..u64::MAX,
    ) {
        let env = &case.env;
        let n = env.workflow().len();
        let jitter_free = env.cluster().runtime_jitter == 0.0;
        let compiled = CompiledScenario::compile(
            env.workflow(),
            env.profiles(),
            *env.cluster(),
            *env.pricing(),
        )
        .unwrap();
        let space = ResourceSpace::paper();
        let mut scratch = SimScratch::new();
        let anchor_cfgs = case.configs.clone();
        let anchor = compiled
            .simulate(&mut scratch, &anchor_cfgs, env.input(), seed)
            .unwrap();
        let mut configs = anchor_cfgs.clone();
        for (node, v, m) in edits {
            configs.set(
                NodeId::new(node % n),
                ResourceConfig::new(space.snap_vcpu(v), space.snap_memory(m)),
            );
        }
        let full = compiled
            .simulate(&mut scratch, &configs, env.input(), seed)
            .unwrap();
        let before = scratch.counters().incremental_sims;
        let inc = compiled
            .simulate_anchored(
                &mut scratch,
                &configs,
                env.input(),
                seed,
                Some((&anchor_cfgs, &anchor)),
            )
            .unwrap();
        prop_assert_eq!(&inc, &full);
        let incremental = scratch.counters().incremental_sims - before;
        if jitter_free {
            // Paper-space candidates on the paper testbed always satisfy
            // the no-stall condition (8 × 10 vCPU < 96), so eligibility is
            // guaranteed.
            prop_assert_eq!(incremental, 1, "jitter-free paper-space candidates are eligible");
        } else {
            prop_assert_eq!(incremental, 0, "jitter must refuse incremental reuse");
        }
    }

    /// One `simulate_chunk` over an edit chain (each result anchoring the
    /// next candidate) equals per-candidate `simulate` calls
    /// result-for-result, at any edit distance between consecutive
    /// candidates, on a jitter-free testbed (every probe after the first is
    /// incremental), a jittered one (every probe takes the event loop) and
    /// a shrunk 24-vCPU host where candidates at stall risk take the event
    /// loop and break the chain.
    #[test]
    fn batch_sim_chain_matches_individual_simulates(
        case in arb_case(),
        edit_seq in proptest::collection::vec(
            proptest::collection::vec((0usize..8, 0.1f64..10.0, 128u32..10_240), 0..4),
            1..8,
        ),
        seed in 0u64..u64::MAX,
        mode in 0u8..3,
    ) {
        let case_cluster = *case.env.cluster();
        let cluster = match mode {
            0 => ClusterSpec { runtime_jitter: 0.0, ..case_cluster },
            1 => case_cluster,
            _ => ClusterSpec { runtime_jitter: 0.0, vcpus_per_host: 24.0, ..case_cluster },
        };
        let env = WorkflowEnvironment::builder(
            case.env.workflow().clone(),
            case.env.profiles().clone(),
        )
        .cluster(cluster)
        .build()
        .unwrap();
        let n = env.workflow().len();
        let compiled = CompiledScenario::compile(
            env.workflow(),
            env.profiles(),
            *env.cluster(),
            *env.pricing(),
        )
        .unwrap();
        let space = ResourceSpace::paper();
        let mut configs = case.configs.clone();
        let mut chain = Vec::with_capacity(edit_seq.len());
        for edits in edit_seq {
            for (node, v, m) in edits {
                configs.set(
                    NodeId::new(node % n),
                    ResourceConfig::new(space.snap_vcpu(v), space.snap_memory(m)),
                );
            }
            chain.push(configs.clone());
        }
        let jobs: Vec<(&ConfigMap, u64)> = chain
            .iter()
            .enumerate()
            .map(|(k, c)| (c, seed.wrapping_add(k as u64)))
            .collect();

        let mut scratch = SimScratch::new();
        let chunked = BatchSim::new(&compiled, env.input()).simulate_chunk(&mut scratch, &jobs);
        prop_assert_eq!(chunked.len(), jobs.len());
        for (&(configs, candidate_seed), chained) in jobs.iter().zip(&chunked) {
            let solo = compiled
                .simulate(&mut SimScratch::new(), configs, env.input(), candidate_seed)
                .unwrap();
            prop_assert_eq!(chained.as_ref().unwrap(), &solo);
        }
        let counters = scratch.counters();
        prop_assert_eq!(counters.sims, jobs.len() as u64);
        prop_assert_eq!(counters.result_slab_allocs, 1);
        if mode == 0 {
            // Paper-space candidates on the paper testbed never stall
            // (7 × 10 vCPU < 96), so the chain never breaks.
            prop_assert_eq!(counters.relaxed_sims, 1);
            prop_assert_eq!(counters.incremental_sims, jobs.len() as u64 - 1);
        }
    }

    /// Service results are reproducible: evaluating the same candidate twice
    /// with caching disabled re-runs the kernel and lands on the identical
    /// result (scratch reuse leaks nothing between runs).
    #[test]
    fn repeated_uncached_evaluations_are_identical(
        case in arb_case(),
        seed in 0u64..u64::MAX,
    ) {
        let env = &case.env;
        let service = EvalService::new(EvalOptions { threads: 1, cache_capacity: 0 });
        let handle = service.register(env.clone());
        let configs = env.base_configs();
        let a = handle.evaluate_with(&configs, env.input(), seed).unwrap();
        let b = handle.evaluate_with(&configs, env.input(), seed).unwrap();
        prop_assert_eq!(a, b);
        prop_assert_eq!(handle.stats().cache_hits, 0);
    }
}

/// A jitter-free scenario on a tight cluster plus an edit chain of
/// candidates, each re-tuning a few functions of the one before.
#[derive(Debug, Clone)]
struct TightCase {
    scenario: CompiledScenario,
    chain: Vec<ConfigMap>,
}

/// `(runtime in 500 ms steps, profile flavour)`; flavour 0 has a 512 MB
/// memory floor, so small memory configurations are OOM-killed.
type TightFunction = (u32, u8);
/// `(hosts, vCPUs per host, memory choice, cold starts on)`.
type TightCluster = (usize, u32, usize, u8);

/// The vCPU and memory a raw draw picks on a `host_vcpu`-vCPU host: at
/// least one vCPU (so runtimes stay on their 500 ms grid), on the 0.1-vCPU
/// grid, at most the whole host, a half, a third or a quarter of it; and
/// 256–4096 MB in 64 MB steps.
fn tight_config(host_vcpu: u32, vcpu_draw: u32, memory_draw: u32) -> ResourceConfig {
    let max_tenths = 10 * (host_vcpu - 1) / (1 + vcpu_draw % 4);
    let tenths = (vcpu_draw / 4) % (max_tenths + 1);
    ResourceConfig::new(
        1.0 + f64::from(tenths) / 10.0,
        256 + 64 * (memory_draw % 61),
    )
}

fn arb_tight_case() -> impl Strategy<Value = TightCase> {
    (2usize..15).prop_flat_map(|n| {
        (
            proptest::collection::vec((1u32..7, 0u8..4), n..n + 1),
            0u64..u64::MAX, // wiring seed
            (1usize..4, 4u32..41, 0usize..4, 0u8..2),
            proptest::collection::vec((0u32..10_000, 0u32..10_000), n..n + 1),
            proptest::collection::vec((0usize..14, 0u32..10_000, 0u32..10_000), 1..8),
        )
            .prop_map(move |(functions, wiring_seed, cluster, anchor, edits)| {
                tight_case(n, &functions, wiring_seed, cluster, &anchor, &edits)
            })
    })
}

fn tight_case(
    n: usize,
    functions: &[TightFunction],
    wiring_seed: u64,
    (hosts, host_vcpu, memory_choice, cold): TightCluster,
    anchor: &[(u32, u32)],
    edits: &[(usize, u32, u32)],
) -> TightCase {
    let mut b = WorkflowBuilder::new("prop-tight");
    let ids: Vec<NodeId> = (0..n).map(|i| b.add_function(format!("f{i}"))).collect();
    // Same xorshift wiring as `arb_case`, with payloads of 0 or 500 MB (a
    // 500 ms transfer) so that ready ticks stay on the runtime grid.
    let mut state = wiring_seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for to in 1..n {
        let from = (next() as usize) % to;
        let payload = if next() % 3 == 0 { 500.0 } else { 0.0 };
        b.add_edge_with(ids[from], ids[to], payload, CommunicationKind::Direct)
            .unwrap();
        if to >= 2 && next() % 3 == 0 {
            let extra = (next() as usize) % to;
            if extra != from {
                b.add_edge_with(ids[extra], ids[to], 0.0, CommunicationKind::Broadcast)
                    .unwrap();
            }
        }
    }
    let wf = b.build().unwrap();
    let mut profiles = ProfileSet::new();
    for (i, (&id, &(steps, flavour))) in ids.iter().zip(functions).enumerate() {
        let profile = FunctionProfile::builder(format!("f{i}")).serial_ms(500.0 * f64::from(steps));
        let profile = if flavour == 0 {
            profile.working_set_mb(512.0).mem_floor_mb(512.0)
        } else {
            profile
        };
        profiles.insert(id, profile.build());
    }
    let cluster = ClusterSpec {
        hosts,
        vcpus_per_host: f64::from(host_vcpu),
        memory_mb_per_host: [4_096, 8_192, 16_384, 512 * 1024][memory_choice],
        cold_start: if cold == 1 {
            ColdStartModel::typical()
        } else {
            ColdStartModel::disabled()
        },
        ..ClusterSpec::paper_testbed()
    };
    let scenario =
        CompiledScenario::compile(&wf, &profiles, cluster, PricingModel::paper()).unwrap();
    let mut configs: Vec<ResourceConfig> = anchor
        .iter()
        .map(|&(v, m)| tight_config(host_vcpu, v, m))
        .collect();
    let mut chain = vec![ConfigMap::from_vec(configs.clone())];
    for &(node, v, m) in edits {
        configs[node % n] = tight_config(host_vcpu, v, m);
        chain.push(ConfigMap::from_vec(configs.clone()));
    }
    TightCase { scenario, chain }
}

/// Every observable of a result as raw bits, for bit-for-bit comparison.
fn bits(result: &SimResult) -> Vec<u64> {
    let mut bits = vec![
        result.makespan_ms().to_bits(),
        result.total_cost().to_bits(),
        u64::from(result.any_oom()),
    ];
    for e in result.executions() {
        bits.extend([
            e.start_ms.to_bits(),
            e.end_ms.to_bits(),
            e.runtime_ms.to_bits(),
            e.cost.to_bits(),
            u64::from(e.oom),
        ]);
    }
    bits
}

/// Candidates per side of the timeline rule, over one run of
/// [`every_path_equals_the_event_loop_on_tight_clusters`].
#[derive(Debug, Default, Clone, Copy)]
struct Sides {
    /// Relaxed although the demand sum exceeds the host, by the bucketed
    /// bound, which sorts nothing.
    relaxed_by_buckets: u64,
    /// Relaxed only by the sorted sweep: neither the demand sum nor the
    /// buckets fit the host.
    relaxed_by_sort: u64,
    /// Relaxed because the demand sum fits the host.
    relaxed_by_sum: u64,
    /// Served by the event loop.
    event_loop: u64,
    /// Served by the event loop, which did stall on capacity.
    stalled: u64,
}

thread_local! {
    static SIDES: Cell<Sides> = Cell::new(Sides::default());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// On clusters tight enough that candidates stall, `simulate`,
    /// `simulate_anchored` off the previous candidate and one `simulate_chunk`
    /// over the edit chain all equal the event loop bit for bit, and a
    /// candidate is relaxed exactly when its relaxed timeline passes the
    /// rule; only the sorted sweep rejects one. Runtimes sit on a 500 ms
    /// grid, so one function often ends on the tick another starts.
    fn every_path_equals_the_event_loop_on_tight_clusters(case in arb_tight_case()) {
        let TightCase { scenario, chain } = case;
        let host = scenario.cluster();
        let input = InputSpec::nominal();
        let mut scratch = SimScratch::new();
        let mut sides = SIDES.get();
        let mut references = Vec::with_capacity(chain.len());
        let mut solos = Vec::with_capacity(chain.len());
        for configs in &chain {
            let mut reference_scratch = SimScratch::new();
            let reference = scenario
                .simulate_reference(&mut reference_scratch, configs, input, 0)
                .unwrap();
            let sorted_before = scratch.counters().sorted_sweeps;
            let solo = scenario.simulate(&mut scratch, configs, input, 0).unwrap();
            let sorted = scratch.counters().sorted_sweeps > sorted_before;
            prop_assert_eq!(bits(&solo), bits(&reference));
            let (vcpu, memory_mb) = configs.as_slice().iter().fold((0.0, 0u64), |(v, m), c| {
                (v + c.vcpu.get(), m + u64::from(c.memory.get()))
            });
            let sum_fits = vcpu + 1e-6 <= host.vcpus_per_host
                && memory_mb <= u64::from(host.memory_mb_per_host);
            if !solo.stall_free() {
                sides.event_loop += 1;
                prop_assert!(!sum_fits, "the demand sum alone proves this candidate");
                prop_assert!(sorted, "a candidate was rejected without the sorted sweep");
            } else if sum_fits {
                sides.relaxed_by_sum += 1;
                prop_assert!(!sorted, "the demand sum fits, yet the rule sorted");
            } else if sorted {
                sides.relaxed_by_sort += 1;
            } else {
                sides.relaxed_by_buckets += 1;
            }
            if reference_scratch.counters().capacity_stalls > 0 {
                sides.stalled += 1;
                prop_assert!(!solo.stall_free(), "a stalling candidate was relaxed");
            }
            references.push(reference);
            solos.push(solo);
        }
        SIDES.set(sides);

        for k in 1..chain.len() {
            let before = scratch.counters();
            let anchored = scenario
                .simulate_anchored(
                    &mut scratch,
                    &chain[k],
                    input,
                    0,
                    Some((&chain[k - 1], &solos[k - 1])),
                )
                .unwrap();
            let after = scratch.counters();
            prop_assert_eq!(bits(&anchored), bits(&references[k]));
            prop_assert_eq!(anchored.stall_free(), solos[k].stall_free());
            // Incremental exactly off a stall-free anchor, and one
            // simulation either way: a rejected candidate goes straight to
            // the event loop.
            let incremental = solos[k - 1].stall_free() && solos[k].stall_free();
            prop_assert_eq!(after.incremental_sims - before.incremental_sims, u64::from(incremental));
            prop_assert_eq!(after.sims - before.sims, 1);
        }

        let jobs: Vec<(&ConfigMap, u64)> = chain.iter().map(|c| (c, 0)).collect();
        let chunked = BatchSim::new(&scenario, input).simulate_chunk(&mut scratch, &jobs);
        for (chained, reference) in chunked.iter().zip(&references) {
            prop_assert_eq!(bits(chained.as_ref().unwrap()), bits(reference));
        }
    }
}

#[test]
fn tight_clusters_match_the_event_loop_on_both_sides_of_the_rule() {
    SIDES.set(Sides::default());
    every_path_equals_the_event_loop_on_tight_clusters();
    let sides = SIDES.get();
    assert!(
        sides.relaxed_by_buckets > 0
            && sides.relaxed_by_sort > 0
            && sides.relaxed_by_sum > 0
            && sides.event_loop > 0
            && sides.stalled > 0,
        "the cases miss a side of the rule: {sides:?}"
    );
}

#[test]
fn pricing_model_stays_copy_for_scenario_compilation() {
    // CompiledScenario stores the pricing model by value; this pins the
    // Copy bound the kernel relies on.
    let p = PricingModel::paper();
    let q = p;
    assert_eq!(p, q);
}
