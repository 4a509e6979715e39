//! Property-based tests of the Priority Configurator's safety invariants on
//! randomly shaped two-branch workflows.

use aarc_core::configurator::PriorityConfigurator;
use aarc_core::search::SearchTrace;
use aarc_core::AarcParams;
use aarc_simulator::{EvalService, FunctionProfile, ProfileSet, WorkflowEnvironment};
use aarc_workflow::{NodeId, WorkflowBuilder};
use proptest::prelude::*;

/// Builds a two-function chain whose profiles are drawn from the given
/// parameters.
fn chain_env(serial_a: f64, parallel_a: f64, ws_b: f64) -> (WorkflowEnvironment, Vec<NodeId>) {
    let mut b = WorkflowBuilder::new("prop-chain");
    let x = b.add_function("x");
    let y = b.add_function("y");
    b.add_edge(x, y).unwrap();
    let wf = b.build().unwrap();
    let mut profiles = ProfileSet::new();
    profiles.insert(
        x,
        FunctionProfile::builder("x")
            .serial_ms(serial_a)
            .parallel_ms(parallel_a)
            .max_parallelism(6.0)
            .working_set_mb(512.0)
            .mem_floor_mb(256.0)
            .build(),
    );
    profiles.insert(
        y,
        FunctionProfile::builder("y")
            .serial_ms(4_000.0)
            .working_set_mb(ws_b)
            .mem_floor_mb(ws_b * 0.5)
            .mem_penalty_factor(4.0)
            .build(),
    );
    let env = WorkflowEnvironment::builder(wf, profiles).build().unwrap();
    (env, vec![x, y])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the profiles and budget headroom, the configurator never
    /// accepts a configuration that violates its path budget, raises the
    /// path cost or OOMs — and the number of samples never exceeds the
    /// configured trial cap.
    #[test]
    fn configurator_is_safe(
        serial_a in 500.0f64..20_000.0,
        parallel_a in 0.0f64..60_000.0,
        ws_b in 256.0f64..4_096.0,
        headroom in 1.05f64..3.0,
        max_trials in 5usize..60,
    ) {
        let (env, path) = chain_env(serial_a, parallel_a, ws_b);
        let service = EvalService::with_threads(1);
        let handle = service.register(env.clone());
        let mut configs = env.base_configs();
        let baseline = handle.evaluate(&configs).unwrap();
        let budget = baseline.makespan_ms() * headroom;
        let params = AarcParams {
            max_trials_per_path: max_trials,
            ..AarcParams::paper()
        };
        let configurator = PriorityConfigurator::new(params);
        let mut trace = SearchTrace::new();
        let result = configurator
            .configure_path(&handle, &mut configs, &path, budget, budget, &baseline, &mut trace)
            .unwrap();

        prop_assert!(result.samples_used <= max_trials);
        prop_assert_eq!(trace.sample_count(), result.samples_used);

        // The configuration left behind is feasible and not more expensive
        // than the baseline.
        let final_report = env.execute(&configs).unwrap();
        prop_assert!(!final_report.any_oom());
        prop_assert!(final_report.makespan_ms() <= budget + 1e-6);
        prop_assert!(final_report.total_cost() <= baseline.total_cost() + 1e-6);

        // Every configuration stays inside the resource space.
        for (_, cfg) in configs.iter() {
            prop_assert!(env.space().contains(cfg));
        }

        // Accepted samples never increase cost along the trace.
        let mut last = f64::INFINITY;
        for sample in trace.samples() {
            if sample.accepted {
                prop_assert!(sample.cost <= last + 1e-6);
                last = sample.cost;
            }
        }
    }
}
