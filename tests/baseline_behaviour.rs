//! Cross-crate integration tests of the baseline methods' characteristic
//! behaviours — the properties the paper's discussion attributes to each
//! method.

use aarc::baselines::{methods, RandomSearch, RandomSearchParams};
use aarc::prelude::*;
use aarc::workloads::{chatbot, ml_pipeline, video_analysis};
use aarc_simulator::metrics::fluctuation_amplitude;

/// Steps the registered method `name` to completion through a session on
/// `workload` and returns the samples its trace recorded with the
/// evaluations the session ran.
fn samples_and_evals(name: &str, workload: &Workload) -> (u64, u64) {
    let env = workload.env();
    let strategy = methods::build(name)
        .expect("registered method")
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
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    (outcome.trace.sample_count() as u64, evals)
}

#[test]
fn baselines_record_one_sample_per_evaluation_except_maffs_closing_one() {
    for workload in [chatbot(), ml_pipeline(), video_analysis()] {
        let name = workload.name();
        for method in ["bo", "random"] {
            let (samples, evals) = samples_and_evals(method, &workload);
            assert_eq!(samples, evals, "{method} on {name}");
        }
        // MAFF re-evaluates its settled configuration once at the end; that
        // closing evaluation is the search's result, not a sample.
        let (samples, evals) = samples_and_evals("maff", &workload);
        assert_eq!(samples + 1, evals, "maff on {name}");
    }
}

#[test]
fn bo_cost_series_is_unstable_while_aarc_trends_downwards() {
    // §II-B / Fig. 7: BO's sampled cost fluctuates heavily; AARC's accepted
    // samples decrease monotonically, so its overall series is far smoother.
    let workload = chatbot();
    let bo = BayesianOptimization::new(BoParams::default())
        .search(workload.env(), workload.slo_ms())
        .expect("bo search succeeds");
    let aarc = GraphCentricScheduler::new(AarcParams::paper())
        .search(workload.env(), workload.slo_ms())
        .expect("aarc search succeeds");

    let bo_fluct = fluctuation_amplitude(&bo.trace.cost_series());
    let aarc_fluct = fluctuation_amplitude(&aarc.trace.cost_series());
    assert!(
        bo_fluct > aarc_fluct,
        "BO ({bo_fluct:.3}) should fluctuate more than AARC ({aarc_fluct:.3})"
    );

    // AARC's best-so-far cost curve is non-increasing by construction.
    let best = aarc.trace.best_cost_series(workload.slo_ms());
    for pair in best.windows(2) {
        assert!(pair[1] <= pair[0] + 1e-9);
    }
}

#[test]
fn bo_needs_many_more_samples_than_the_workflow_has_functions() {
    // The decoupled workflow space has 2·n dimensions; BO's sample count is
    // a fixed budget far above AARC's per-path queue drain.
    let workload = ml_pipeline();
    let bo = BayesianOptimization::new(BoParams::default())
        .search(workload.env(), workload.slo_ms())
        .expect("bo search succeeds");
    assert_eq!(bo.trace.sample_count(), BoParams::default().iterations);
}

#[test]
fn maff_terminates_quickly_after_its_first_slo_violation() {
    // The paper's MAFF adaptation reverts and terminates on the first SLO
    // violation, which is why its sample counts are the lowest.
    let workload = ml_pipeline();
    let maff = MaffGradientDescent::new(MaffParams::default())
        .search(workload.env(), workload.slo_ms())
        .expect("maff search succeeds");
    let samples = maff.trace.sample_count();
    assert!(
        samples < 80,
        "MAFF should stop early on the CPU-bound workflow, used {samples} samples"
    );
    // At most one violating sample can appear in the trace (the terminating
    // one).
    let violating = maff
        .trace
        .samples()
        .iter()
        .filter(|s| s.makespan_ms > workload.slo_ms() || s.oom)
        .count();
    assert!(
        violating <= 1,
        "found {violating} violating samples in a MAFF trace"
    );
}

#[test]
fn random_search_is_worse_than_aarc_for_the_same_budget() {
    // Ablation control: with the same number of samples as BO, undirected
    // random search does not reach AARC's configuration quality.
    let workload = chatbot();
    let aarc = GraphCentricScheduler::new(AarcParams::paper())
        .search(workload.env(), workload.slo_ms())
        .expect("aarc search succeeds");
    let random = RandomSearch::new(RandomSearchParams {
        iterations: 70,
        seed: 11,
    })
    .search(workload.env(), workload.slo_ms())
    .expect("random search succeeds");
    assert!(random.final_report.meets_slo(workload.slo_ms()));
    assert!(
        aarc.final_report.total_cost() < random.final_report.total_cost(),
        "AARC ({}) should beat random search ({})",
        aarc.final_report.total_cost(),
        random.final_report.total_cost()
    );
}

#[test]
fn every_method_rejects_an_slo_below_the_base_runtime() {
    let workload = video_analysis();
    let impossible_slo = 1_000.0; // 1 s: far below any feasible execution.
    let methods: Vec<Box<dyn ConfigurationSearch>> = vec![
        Box::new(GraphCentricScheduler::new(AarcParams::paper())),
        Box::new(BayesianOptimization::new(BoParams::default())),
        Box::new(MaffGradientDescent::new(MaffParams::default())),
    ];
    for method in methods {
        let err = method
            .search(workload.env(), impossible_slo)
            .expect_err("an impossible SLO must be rejected");
        assert!(
            matches!(err, AarcError::BaseConfigurationViolatesSlo { .. }),
            "{}: unexpected error {err}",
            method.name()
        );
    }
}
