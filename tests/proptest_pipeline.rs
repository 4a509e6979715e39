//! Property-based tests of the full pipeline on randomly generated
//! workloads: whatever the workflow shape and profiles, AARC must stay
//! within the SLO, never exceed the base cost, and produce configurations
//! inside the platform's resource space.

use aarc::prelude::*;
use aarc::workloads::{RandomWorkloadConfig, RandomWorkloadGenerator};
use proptest::prelude::*;

fn workload_from_seed(seed: u64, layers: usize, width: usize) -> Workload {
    let config = RandomWorkloadConfig {
        layers,
        max_width: width,
        ..RandomWorkloadConfig::default()
    };
    RandomWorkloadGenerator::new(config, seed).generate()
}

proptest! {
    // Each case runs a full configuration search, so keep the count small.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// AARC never returns an SLO-violating or OOM configuration when the
    /// base configuration is feasible, and never costs more than the base.
    #[test]
    fn aarc_is_safe_on_random_workloads(seed in 0u64..10_000, layers in 2usize..5, width in 1usize..4) {
        let workload = workload_from_seed(seed, layers, width);
        let env = workload.env();
        let scheduler = GraphCentricScheduler::new(AarcParams::fast());
        let outcome = scheduler
            .search(env, workload.slo_ms())
            .expect("base configuration is feasible by construction");
        prop_assert!(outcome.final_report.meets_slo(workload.slo_ms()));
        prop_assert!(!outcome.final_report.any_oom());

        let base_cost = env.execute(&env.base_configs()).expect("base executes").total_cost();
        prop_assert!(outcome.final_report.total_cost() <= base_cost * 1.0001);

        // Every configuration is inside the platform's resource space.
        for (_, cfg) in outcome.best_configs.iter() {
            prop_assert!(env.space().contains(cfg), "{cfg} outside the space");
        }
        // One configuration per function.
        prop_assert_eq!(outcome.best_configs.len(), env.workflow().len());
    }

    /// The sample trace is consistent: AARC records one sample per
    /// evaluation the session ran (every probe, its re-executions and the
    /// SLO guard included), and the totals equal the series sums.
    #[test]
    fn search_traces_are_consistent(seed in 0u64..10_000) {
        let workload = workload_from_seed(seed, 3, 2);
        let env = workload.env();
        let strategy = GraphCentricScheduler::new(AarcParams::fast())
            .strategy(env, workload.slo_ms())
            .expect("the SLO is valid");
        let service = EvalService::with_threads(1);
        let mut session =
            SearchSession::with_slo(strategy, service.register(env.clone()), workload.slo_ms());
        while session.step() == SessionState::Running {}
        let evals = session.progress().evals;
        let outcome = session
            .into_outcome()
            .expect("the session finished")
            .expect("search succeeds");
        let trace = &outcome.trace;
        prop_assert_eq!(trace.sample_count() as u64, evals);
        let runtime_sum: f64 = trace.runtime_series().iter().sum();
        prop_assert!((runtime_sum - trace.total_runtime_ms()).abs() < 1e-6);
        let cost_sum: f64 = trace.cost_series().iter().sum();
        prop_assert!((cost_sum - trace.total_cost()).abs() < 1e-6);
    }

    /// MAFF always returns coupled configurations and never violates the
    /// SLO.
    #[test]
    fn maff_stays_coupled_and_safe(seed in 0u64..10_000) {
        let workload = workload_from_seed(seed, 3, 2);
        let maff = MaffGradientDescent::new(MaffParams::default());
        let outcome = maff
            .search(workload.env(), workload.slo_ms())
            .expect("maff search succeeds");
        prop_assert!(outcome.final_report.meets_slo(workload.slo_ms()));
        let space = workload.env().space();
        for (_, cfg) in outcome.best_configs.iter() {
            let coupled = space.snap_vcpu(f64::from(cfg.memory.get()) / 1_024.0);
            prop_assert!((cfg.vcpu.get() - coupled).abs() < 1e-9, "config {cfg} is not coupled");
        }
    }
}
