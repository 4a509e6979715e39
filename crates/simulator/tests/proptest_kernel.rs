//! Kernel-equivalence property tests: for any workflow shape, profile mix,
//! configuration, input and seed, the compiled kernel's lean [`SimResult`]
//! and the materialised [`ExecutionReport`] must agree *exactly* — same
//! makespan, cost, OOM flag and per-node timings, bit for bit — whether the
//! simulation runs through an [`EvalService`] handle, through a manually
//! driven [`CompiledScenario`] with a reused [`SimScratch`], or through the
//! one-off [`WorkflowEnvironment::execute_with`] path.

use aarc_simulator::kernel::{BatchSim, CompiledScenario, SimScratch};
use aarc_simulator::{
    ClusterSpec, ConfigMap, EvalOptions, EvalService, FunctionProfile, InputSpec, PricingModel,
    ProfileSet, ResourceConfig, ResourceSpace, WorkflowEnvironment,
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
    /// refused (returns `None`) whenever exactness can't be proven (here:
    /// runtime jitter on).
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
        let inc = compiled.try_incremental(
            &mut scratch,
            &configs,
            env.input(),
            seed,
            &anchor_cfgs,
            &anchor,
        );
        if jitter_free {
            // Paper-space candidates on the paper testbed always satisfy
            // the no-stall condition (8 × 10 vCPU < 96), so eligibility is
            // guaranteed — and the result must be bit-identical.
            let inc = inc.expect("jitter-free paper-space candidates are eligible");
            prop_assert_eq!(&inc, &full);
        } else {
            prop_assert!(inc.is_none(), "jitter must refuse incremental reuse");
        }
    }

    /// A `BatchSim` chain (each result anchoring the next candidate) equals
    /// per-candidate `simulate` calls result-for-result, at every jitter and
    /// any edit distance between consecutive candidates.
    #[test]
    fn batch_sim_chain_matches_individual_simulates(
        case in arb_case(),
        edit_seq in proptest::collection::vec(
            proptest::collection::vec((0usize..8, 0.1f64..10.0, 128u32..10_240), 0..4),
            1..8,
        ),
        seed in 0u64..u64::MAX,
    ) {
        let env = &case.env;
        let n = env.workflow().len();
        let compiled = CompiledScenario::compile(
            env.workflow(),
            env.profiles(),
            *env.cluster(),
            *env.pricing(),
        )
        .unwrap();
        let space = ResourceSpace::paper();
        let mut scratch = SimScratch::new();
        let mut batch = BatchSim::new(&compiled, env.input());
        let mut configs = case.configs.clone();
        for (k, edits) in edit_seq.into_iter().enumerate() {
            for (node, v, m) in edits {
                configs.set(
                    NodeId::new(node % n),
                    ResourceConfig::new(space.snap_vcpu(v), space.snap_memory(m)),
                );
            }
            let candidate_seed = seed.wrapping_add(k as u64);
            let chained = batch.simulate(&mut scratch, &configs, candidate_seed).unwrap();
            let solo = compiled
                .simulate(&mut SimScratch::new(), &configs, env.input(), candidate_seed)
                .unwrap();
            prop_assert_eq!(&chained, &solo);
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

#[test]
fn pricing_model_stays_copy_for_scenario_compilation() {
    // CompiledScenario stores the pricing model by value; this pins the
    // Copy bound the kernel relies on.
    let p = PricingModel::paper();
    let q = p;
    assert_eq!(p, q);
}
