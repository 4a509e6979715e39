//! Pins the invariant the serve daemon's session scheduler (and `aarc
//! sweep`) relies on: round-robin interleaving of independent searches on
//! one shared [`EvalService`] is bit-identical to running each search
//! alone on a private service — even when strategies issue unequal batch
//! sizes and finish at different rounds, and even though a finished
//! session keeps being skipped while the others continue.

use aarc_core::{AarcError, SearchTrace};
use aarc_core::{Ask, SearchDriver, SearchOutcome, SearchSession, SearchStrategy, SessionState};
use aarc_simulator::{
    ConfigMap, EvalService, FunctionProfile, ProfileSet, ResourceConfig, SimResult,
    WorkflowEnvironment,
};
use aarc_workflow::WorkflowBuilder;

fn env() -> WorkflowEnvironment {
    let mut b = WorkflowBuilder::new("interleave");
    let a = b.add_function("a");
    let c = b.add_function("b");
    b.add_edge(a, c).unwrap();
    let wf = b.build().unwrap();
    let mut p = ProfileSet::new();
    p.insert(
        a,
        FunctionProfile::builder("a")
            .serial_ms(800.0)
            .parallel_ms(3_000.0)
            .max_parallelism(4.0)
            .working_set_mb(512.0)
            .mem_floor_mb(256.0)
            .build(),
    );
    p.insert(c, FunctionProfile::builder("b").serial_ms(400.0).build());
    WorkflowEnvironment::builder(wf, p).build().unwrap()
}

/// A deterministic mock strategy: each round asks for a batch of the next
/// planned size (deterministically generated candidates, salted per
/// strategy), then finishes. Its ask sequence depends only on its own
/// plan, so any interleaving must reproduce its solo results.
struct PlannedBatches {
    name: &'static str,
    salt: u32,
    plan: Vec<usize>,
    round: usize,
    counter: u32,
    trace: SearchTrace,
    best: Option<(ConfigMap, SimResult)>,
}

impl PlannedBatches {
    fn new(name: &'static str, salt: u32, plan: Vec<usize>) -> Self {
        PlannedBatches {
            name,
            salt,
            plan,
            round: 0,
            counter: 0,
            trace: SearchTrace::new(),
            best: None,
        }
    }

    fn boxed(name: &'static str, salt: u32, plan: &[usize]) -> Box<dyn SearchStrategy> {
        Box::new(PlannedBatches::new(name, salt, plan.to_vec()))
    }

    fn candidate(&self, i: u32) -> ConfigMap {
        let k = self.salt.wrapping_mul(31).wrapping_add(i);
        ConfigMap::uniform(
            2,
            ResourceConfig::new(1.0 + f64::from(k % 5), 512 + 64 * (k % 9)),
        )
    }
}

impl SearchStrategy for PlannedBatches {
    fn name(&self) -> &str {
        self.name
    }

    fn ask(&mut self, _env: &WorkflowEnvironment) -> Result<Ask, AarcError> {
        if self.round >= self.plan.len() {
            return Ok(Ask::Done);
        }
        let size = self.plan[self.round];
        let batch = (0..size)
            .map(|i| self.candidate(self.counter + i as u32))
            .collect::<Vec<_>>();
        self.counter += size as u32;
        self.round += 1;
        Ok(Ask::Batch(batch))
    }

    fn tell(&mut self, _env: &WorkflowEnvironment, results: &[SimResult]) -> Result<(), AarcError> {
        let base = self.counter - results.len() as u32;
        for (i, result) in results.iter().enumerate() {
            self.trace
                .record(result, true, format!("candidate {}", base + i as u32));
            let configs = self.candidate(base + i as u32);
            let better = self
                .best
                .as_ref()
                .is_none_or(|(_, b)| result.total_cost() < b.total_cost());
            if !result.any_oom() && better {
                self.best = Some((configs, result.clone()));
            }
        }
        Ok(())
    }

    fn finish(&mut self, _env: &WorkflowEnvironment) -> Result<SearchOutcome, AarcError> {
        let (best_configs, final_report) = self.best.take().expect("told at least one result");
        Ok(SearchOutcome {
            best_configs,
            final_report,
            trace: std::mem::take(&mut self.trace),
        })
    }
}

/// The plans deliberately differ in batch size per round *and* in total
/// rounds, so strategies drop out of the round-robin at different times.
const PLANS: [(&str, u32, &[usize]); 4] = [
    ("wide-then-narrow", 1, &[7, 1, 5]),
    ("one-round", 2, &[3]),
    ("steady", 3, &[2, 2, 2, 2, 2, 2]),
    ("late-bloomer", 4, &[1, 1, 9, 4]),
];

/// Result equality modulo the provenance seed: a shared-cache hit returns
/// the first inserter's `(input, seed)` provenance, which without runtime
/// jitter is deliberately seed-independent (the cache key normalises the
/// seed away precisely because the observable values cannot differ).
/// Everything a report can ever surface must be identical.
fn assert_results_equal(got: &SimResult, want: &SimResult, context: &str) {
    assert_eq!(
        got.executions(),
        want.executions(),
        "{context}: node outcomes"
    );
    assert_eq!(got.makespan_ms(), want.makespan_ms(), "{context}: makespan");
    assert_eq!(got.total_cost(), want.total_cost(), "{context}: cost");
    assert_eq!(got.any_oom(), want.any_oom(), "{context}: oom");
    assert_eq!(got.input(), want.input(), "{context}: input");
}

fn assert_outcomes_equal(got: &SearchOutcome, want: &SearchOutcome, context: &str) {
    assert_eq!(
        got.best_configs, want.best_configs,
        "{context}: best configs"
    );
    assert_results_equal(&got.final_report, &want.final_report, context);
    assert_eq!(got.trace, want.trace, "{context}: trace");
}

/// Solo reference runs, each on its own private single-threaded service.
fn solo_outcomes() -> Vec<SearchOutcome> {
    PLANS
        .iter()
        .map(|(name, salt, plan)| {
            let service = EvalService::with_threads(1);
            SearchDriver::run(
                PlannedBatches::boxed(name, *salt, plan),
                &service.register(env()),
            )
            .unwrap()
        })
        .collect()
}

#[test]
fn unequal_batches_and_early_done_do_not_perturb_interleaved_results() {
    let solo = solo_outcomes();
    for threads in [1, 4] {
        let service = EvalService::with_threads(threads);
        let handle = service.register(env());
        let sessions = PLANS
            .iter()
            .map(|(name, salt, plan)| {
                SearchSession::new(PlannedBatches::boxed(name, *salt, plan), handle.clone())
            })
            .collect();
        let outcomes = SearchDriver::run_interleaved(sessions);
        assert_eq!(outcomes.len(), solo.len());
        for ((outcome, want), (name, _, _)) in outcomes.iter().zip(&solo).zip(PLANS) {
            let got = outcome.as_ref().unwrap();
            assert_outcomes_equal(got, want, &format!("{name} @{threads} threads"));
        }
    }
}

#[test]
fn interleaved_results_are_submission_order_invariant() {
    let solo = solo_outcomes();
    // Reversed submission order: every strategy must still reproduce its
    // solo outcome, proving no cross-session leakage through the shared
    // pool or cache.
    let service = EvalService::with_threads(2);
    let handle = service.register(env());
    let sessions = PLANS
        .iter()
        .rev()
        .map(|(name, salt, plan)| {
            SearchSession::new(PlannedBatches::boxed(name, *salt, plan), handle.clone())
        })
        .collect();
    let outcomes = SearchDriver::run_interleaved(sessions);
    for ((outcome, want), (name, _, _)) in outcomes
        .iter()
        .zip(solo.iter().rev())
        .zip(PLANS.iter().rev())
    {
        assert_outcomes_equal(outcome.as_ref().unwrap(), want, &format!("{name} reversed"));
    }
}

#[test]
fn stepped_sessions_report_progress_and_match_the_driver_loop() {
    let service = EvalService::with_threads(1);
    let handle = service.register(env());
    let (name, salt, plan) = PLANS[0];
    let mut session = SearchSession::new(PlannedBatches::boxed(name, salt, plan), handle.clone());
    assert_eq!(session.state(), SessionState::Running);
    let mut rounds = 0u64;
    while session.step() == SessionState::Running {
        rounds += 1;
        assert_eq!(session.progress().rounds, rounds);
    }
    // The final step consumed Ask::Done, which is not a told round.
    assert_eq!(session.progress().rounds, plan.len() as u64);
    assert_eq!(
        session.progress().evals,
        plan.iter().sum::<usize>() as u64,
        "a batch of n counts n evaluations"
    );
    let incumbent = session.progress().incumbent.clone().expect("tracked");
    let outcome = session.into_outcome().unwrap().unwrap();
    assert_eq!(incumbent.cost, outcome.final_report.total_cost());
    assert_eq!(incumbent.configs, outcome.best_configs);

    // And the whole stepped run equals the driver's one-shot loop.
    let reference = SearchDriver::run(
        PlannedBatches::boxed(name, salt, plan),
        &EvalService::with_threads(1).register(env()),
    )
    .unwrap();
    assert_outcomes_equal(&outcome, &reference, "stepped vs driver loop");
}

#[test]
fn pause_blocks_steps_and_cancel_finishes_with_cancelled_error() {
    let service = EvalService::with_threads(1);
    let handle = service.register(env());
    let (name, salt, plan) = PLANS[2];
    let mut session = SearchSession::new(PlannedBatches::boxed(name, salt, plan), handle.clone());
    assert_eq!(session.step(), SessionState::Running);
    session.pause();
    assert_eq!(session.state(), SessionState::Paused);
    let before = session.progress().clone();
    assert_eq!(
        session.step(),
        SessionState::Paused,
        "paused steps are no-ops"
    );
    assert_eq!(session.progress(), &before);
    session.resume();
    assert_eq!(session.step(), SessionState::Running);
    session.cancel();
    assert_eq!(session.state(), SessionState::Finished);
    assert_eq!(session.step(), SessionState::Finished);
    assert!(matches!(
        session.into_outcome(),
        Some(Err(AarcError::SearchCancelled))
    ));
}
