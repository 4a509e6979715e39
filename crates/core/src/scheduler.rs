//! The Graph-Centric Scheduler (Algorithm 1), in resumable ask/tell form.

use aarc_simulator::{profile_workflow, ConfigMap, SimResult, WorkflowEnvironment};
use aarc_workflow::subpath::{decompose, DetourSubpath, PathDecomposition};

use crate::configurator::{PathConfigState, PriorityConfigurator};
use crate::driver::{Ask, SearchStrategy};
use crate::error::AarcError;
use crate::params::AarcParams;
use crate::search::{validate_slo, ConfigurationSearch, SearchOutcome, SearchTrace};

/// The Graph-Centric Scheduler: profiles the workflow, decomposes it into
/// its critical path and detour sub-paths, derives sub-SLOs and drives the
/// [`PriorityConfigurator`] path by path (Algorithm 1).
///
/// The scheduler implements [`ConfigurationSearch`], so it can be compared
/// one-for-one against the baseline methods.
#[derive(Debug, Clone)]
pub struct GraphCentricScheduler {
    params: AarcParams,
    configurator: PriorityConfigurator,
}

impl GraphCentricScheduler {
    /// Creates a scheduler with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid (see [`AarcParams::validate`]).
    pub fn new(params: AarcParams) -> Self {
        GraphCentricScheduler {
            configurator: PriorityConfigurator::new(params),
            params,
        }
    }

    /// The scheduler's parameters.
    pub fn params(&self) -> &AarcParams {
        &self.params
    }

    /// Profiles the workflow under the base configuration and returns its
    /// path decomposition — the structural half of Algorithm 1, exposed for
    /// inspection and for the examples.
    ///
    /// # Errors
    ///
    /// Propagates platform errors from the profiling run.
    pub fn decompose_workflow(
        &self,
        env: &WorkflowEnvironment,
    ) -> Result<PathDecomposition, AarcError> {
        let weights = profile_workflow(env, &env.base_configs())?;
        Ok(decompose(env.workflow().dag(), weights.weight_fn()))
    }
}

/// Derives the latency budget of a detour sub-path from the timeline of
/// the already-configured workflow: the window between the completion of
/// its start anchor and the start of its end anchor (the paper's
/// `runtime_sum(L, sp.start, sp.end)` minus the runtimes of the already
/// scheduled anchor functions). Detours starting at a workflow entry use
/// time zero as the window start; detours ending at a workflow exit may
/// run until the end-to-end SLO.
fn subpath_budget_ms(
    env: &WorkflowEnvironment,
    report: &SimResult,
    subpath: &DetourSubpath,
    slo_ms: f64,
) -> f64 {
    let window_start = subpath
        .start_anchor
        .and_then(|a| report.execution(a))
        .map_or(0.0, |e| e.end_ms);
    let window_end = subpath
        .end_anchor
        .and_then(|a| report.execution(a))
        .map_or(slo_ms, |e| e.start_ms);
    // Leave room for the hand-off from the detour's tail to its end
    // anchor (conservatively the full edge payload).
    let handoff_ms = match (subpath.interior.last(), subpath.end_anchor) {
        (Some(&tail), Some(anchor)) => env
            .workflow()
            .edge(tail, anchor)
            .map_or(0.0, |e| env.cluster().transfer_ms(e.payload_mb)),
        _ => 0.0,
    };
    (window_end - window_start - handoff_ms).max(0.0)
}

/// Where the scheduler strategy is in Algorithm 1. Stages double as the
/// routing key for `tell`: a stage that just asked for a probe interprets
/// the next result.
enum Stage {
    /// Probe the over-provisioned base configuration (lines 2-5).
    Base,
    /// Configuring the critical path (lines 7-9).
    Critical(PathConfigState),
    /// Re-executing so sub-SLO windows reflect the configured critical
    /// path (step ❺ of the architecture figure).
    CriticalReexec,
    /// Selecting the next detour sub-path to configure (lines 11-21).
    Subpaths { next: usize },
    /// Configuring detour sub-path `index` within its window.
    Subpath {
        index: usize,
        state: PathConfigState,
    },
    /// Re-executing after sub-path `index` was configured.
    SubpathReexec { index: usize },
    /// Awaiting the safety-net execution with detours reverted to base.
    Guard,
    /// Search complete.
    Finished,
}

/// The ask/tell form of Algorithm 1: base probe, critical-path
/// configuration, per-sub-path configuration with re-executions in
/// between, and the SLO safety net — every evaluation expressed as an
/// [`Ask::Probe`] so the driver (and therefore a shared pool) executes it.
struct SchedulerStrategy {
    configurator: PriorityConfigurator,
    slo_ms: f64,
    configs: ConfigMap,
    trace: SearchTrace,
    decomposition: Option<PathDecomposition>,
    current_report: Option<SimResult>,
    final_report: Option<SimResult>,
    stage: Stage,
}

impl SchedulerStrategy {
    fn new(configurator: PriorityConfigurator, slo_ms: f64) -> Self {
        SchedulerStrategy {
            configurator,
            slo_ms,
            configs: ConfigMap::from_vec(Vec::new()),
            trace: SearchTrace::new(),
            decomposition: None,
            current_report: None,
            final_report: None,
            stage: Stage::Base,
        }
    }

    fn decomposition(&self) -> &PathDecomposition {
        self.decomposition
            .as_ref()
            .expect("decomposition exists after the base probe")
    }
}

impl SearchStrategy for SchedulerStrategy {
    fn name(&self) -> &str {
        "AARC"
    }

    fn ask(&mut self, env: &WorkflowEnvironment) -> Result<Ask, AarcError> {
        loop {
            match std::mem::replace(&mut self.stage, Stage::Finished) {
                Stage::Base => {
                    // Lines 2-5: assign the over-provisioned base
                    // configuration and execute once to profile the
                    // workflow.
                    self.configs = env.base_configs();
                    self.stage = Stage::Base;
                    return Ok(Ask::Probe(self.configs.clone()));
                }
                Stage::Critical(mut state) => {
                    if state.propose(env, &mut self.configs) {
                        self.stage = Stage::Critical(state);
                    } else {
                        // Critical path done: re-execute so sub-SLO windows
                        // reflect the configured critical path. The last
                        // accepted candidate is still memoised, so this is
                        // a cache hit.
                        self.stage = Stage::CriticalReexec;
                    }
                    return Ok(Ask::Probe(self.configs.clone()));
                }
                Stage::Subpaths { next } => {
                    let decomposition = self.decomposition();
                    let current = self
                        .current_report
                        .as_ref()
                        .expect("current report exists after the critical re-exec");
                    let mut index = next;
                    let mut started = None;
                    while index < decomposition.subpaths.len() {
                        let subpath = &decomposition.subpaths[index];
                        let budget = subpath_budget_ms(env, current, subpath, self.slo_ms);
                        if budget <= 0.0 || subpath.interior.is_empty() {
                            index += 1;
                            continue;
                        }
                        started = Some(self.configurator.begin_path(
                            env,
                            &subpath.interior,
                            budget,
                            self.slo_ms,
                            current,
                        ));
                        break;
                    }
                    if let Some(state) = started {
                        self.stage = Stage::Subpath { index, state };
                        continue;
                    }
                    // All sub-paths configured (or skipped). Safety net: if
                    // the combined configuration somehow violates the SLO
                    // (e.g. through transfer effects not captured by the
                    // per-path budgets), fall back to base configurations
                    // for all non-critical functions. The
                    // critical-path-only configuration is SLO-compliant by
                    // construction.
                    let current = current.clone();
                    if current.meets_slo(self.slo_ms) {
                        self.final_report = Some(current);
                        self.stage = Stage::Finished;
                        return Ok(Ask::Done);
                    }
                    let detour_nodes: Vec<_> = self
                        .decomposition()
                        .subpaths
                        .iter()
                        .flat_map(|sp| sp.interior.iter().copied())
                        .collect();
                    for node in detour_nodes {
                        self.configs.set(node, env.base_config());
                    }
                    self.stage = Stage::Guard;
                    return Ok(Ask::Probe(self.configs.clone()));
                }
                Stage::Subpath { index, mut state } => {
                    if state.propose(env, &mut self.configs) {
                        self.stage = Stage::Subpath { index, state };
                    } else {
                        self.stage = Stage::SubpathReexec { index };
                    }
                    return Ok(Ask::Probe(self.configs.clone()));
                }
                Stage::Finished => return Ok(Ask::Done),
                Stage::CriticalReexec | Stage::SubpathReexec { .. } | Stage::Guard => {
                    unreachable!("re-exec stages await tell, never ask")
                }
            }
        }
    }

    fn tell(&mut self, env: &WorkflowEnvironment, results: &[SimResult]) -> Result<(), AarcError> {
        let result = &results[0];
        match std::mem::replace(&mut self.stage, Stage::Finished) {
            Stage::Base => {
                self.trace.record(result, true);
                if result.any_oom() {
                    return Err(AarcError::BaseConfigurationOom);
                }
                if !result.meets_slo(self.slo_ms) {
                    return Err(AarcError::BaseConfigurationViolatesSlo {
                        makespan_ms: result.makespan_ms(),
                        slo_ms: self.slo_ms,
                    });
                }
                // Lines 6, 10: weighted-DAG decomposition into the critical
                // path and its detour sub-paths.
                let weights = aarc_simulator::ProfiledWeights::from_result(result);
                let decomposition = decompose(env.workflow().dag(), weights.weight_fn());
                // Lines 7-9: configure the critical path against the
                // end-to-end SLO.
                let state = self.configurator.begin_path(
                    env,
                    decomposition.critical.nodes(),
                    self.slo_ms,
                    self.slo_ms,
                    result,
                );
                self.decomposition = Some(decomposition);
                self.stage = Stage::Critical(state);
            }
            Stage::Critical(mut state) => {
                state.observe(&mut self.configs, result, &mut self.trace);
                self.stage = Stage::Critical(state);
            }
            Stage::CriticalReexec => {
                self.trace.record(result, true);
                self.current_report = Some(result.clone());
                self.stage = Stage::Subpaths { next: 0 };
            }
            Stage::Subpath { index, mut state } => {
                state.observe(&mut self.configs, result, &mut self.trace);
                self.stage = Stage::Subpath { index, state };
            }
            Stage::SubpathReexec { index } => {
                self.trace.record(result, true);
                self.current_report = Some(result.clone());
                self.stage = Stage::Subpaths { next: index + 1 };
            }
            Stage::Guard => {
                self.trace.record(result, true);
                self.final_report = Some(result.clone());
                self.stage = Stage::Finished;
            }
            Stage::Subpaths { .. } | Stage::Finished => {
                unreachable!("tell without an evaluation in flight")
            }
        }
        Ok(())
    }

    fn finish(&mut self, _env: &WorkflowEnvironment) -> Result<SearchOutcome, AarcError> {
        Ok(SearchOutcome {
            best_configs: self.configs.clone(),
            final_report: self
                .final_report
                .take()
                .expect("finish follows Ask::Done, which set the final report"),
            trace: std::mem::take(&mut self.trace),
        })
    }
}

impl ConfigurationSearch for GraphCentricScheduler {
    fn name(&self) -> &str {
        "AARC"
    }

    fn strategy(
        &self,
        _env: &WorkflowEnvironment,
        slo_ms: f64,
    ) -> Result<Box<dyn SearchStrategy>, AarcError> {
        validate_slo(slo_ms)?;
        Ok(Box::new(SchedulerStrategy::new(
            self.configurator.clone(),
            slo_ms,
        )))
    }
}

impl Default for GraphCentricScheduler {
    fn default() -> Self {
        GraphCentricScheduler::new(AarcParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aarc_simulator::{FunctionProfile, ProfileSet};
    use aarc_workflow::{NodeId, WorkflowBuilder};

    /// A diamond workflow with one heavy (critical) branch and one light
    /// detour branch.
    fn diamond_env() -> WorkflowEnvironment {
        let mut b = WorkflowBuilder::new("diamond");
        let start = b.add_function("start");
        let heavy = b.add_function("heavy");
        let light = b.add_function("light");
        let end = b.add_function("end");
        b.add_edge(start, heavy).unwrap();
        b.add_edge(start, light).unwrap();
        b.add_edge(heavy, end).unwrap();
        b.add_edge(light, end).unwrap();
        let wf = b.build().unwrap();
        let mut p = ProfileSet::new();
        p.insert(
            start,
            FunctionProfile::builder("start").serial_ms(1_000.0).build(),
        );
        p.insert(
            heavy,
            FunctionProfile::builder("heavy")
                .serial_ms(5_000.0)
                .parallel_ms(40_000.0)
                .max_parallelism(6.0)
                .working_set_mb(1_024.0)
                .mem_floor_mb(512.0)
                .build(),
        );
        p.insert(
            light,
            FunctionProfile::builder("light")
                .serial_ms(3_000.0)
                .working_set_mb(512.0)
                .mem_floor_mb(256.0)
                .build(),
        );
        p.insert(
            end,
            FunctionProfile::builder("end").serial_ms(1_000.0).build(),
        );
        WorkflowEnvironment::builder(wf, p).build().unwrap()
    }

    #[test]
    fn search_meets_slo_and_reduces_cost() {
        let env = diamond_env();
        let slo = 60_000.0;
        let scheduler = GraphCentricScheduler::default();
        let outcome = scheduler.search(&env, slo).unwrap();
        let base_cost = env.execute(&env.base_configs()).unwrap().total_cost();
        assert!(outcome.final_report.meets_slo(slo));
        assert!(
            outcome.best_cost() < 0.5 * base_cost,
            "expect large savings"
        );
        assert!(outcome.trace.sample_count() > 2);
    }

    #[test]
    fn every_function_gets_a_configuration_within_the_space() {
        let env = diamond_env();
        let scheduler = GraphCentricScheduler::default();
        let outcome = scheduler.search(&env, 60_000.0).unwrap();
        assert_eq!(outcome.best_configs.len(), env.workflow().len());
        for (_, cfg) in outcome.best_configs.iter() {
            assert!(
                env.space().contains(cfg),
                "{cfg} outside the resource space"
            );
        }
    }

    #[test]
    fn detour_budget_is_respected() {
        // The light branch must not delay the end function beyond what the
        // configured critical path allows.
        let env = diamond_env();
        let slo = 60_000.0;
        let scheduler = GraphCentricScheduler::default();
        let outcome = scheduler.search(&env, slo).unwrap();
        let report = outcome.final_report;
        let heavy_end = report.execution(NodeId::new(1)).unwrap().end_ms;
        let light_end = report.execution(NodeId::new(2)).unwrap().end_ms;
        // The detour may stretch, but the workflow end is still dominated by
        // (or equal to) the critical branch within the SLO.
        assert!(report.makespan_ms() <= slo);
        assert!(light_end <= slo);
        assert!(heavy_end <= slo);
    }

    #[test]
    fn invalid_slo_is_rejected() {
        let env = diamond_env();
        let scheduler = GraphCentricScheduler::default();
        assert!(matches!(
            scheduler.search(&env, 0.0),
            Err(AarcError::InvalidSlo(_))
        ));
        assert!(matches!(
            scheduler.search(&env, f64::NAN),
            Err(AarcError::InvalidSlo(_))
        ));
    }

    #[test]
    fn impossible_slo_reports_base_violation() {
        let env = diamond_env();
        let scheduler = GraphCentricScheduler::default();
        let err = scheduler.search(&env, 10.0).unwrap_err();
        assert!(matches!(
            err,
            AarcError::BaseConfigurationViolatesSlo { .. }
        ));
    }

    #[test]
    fn decompose_workflow_exposes_critical_path() {
        let env = diamond_env();
        let scheduler = GraphCentricScheduler::default();
        let decomposition = scheduler.decompose_workflow(&env).unwrap();
        assert!(decomposition.critical.contains(NodeId::new(1)));
        assert_eq!(decomposition.subpaths.len(), 1);
        assert_eq!(decomposition.subpaths[0].interior, vec![NodeId::new(2)]);
    }

    #[test]
    fn tighter_slo_yields_more_expensive_configuration() {
        let env = diamond_env();
        let scheduler = GraphCentricScheduler::default();
        let relaxed = scheduler.search(&env, 90_000.0).unwrap();
        let tight = scheduler.search(&env, 25_000.0).unwrap();
        assert!(tight.final_report.meets_slo(25_000.0));
        assert!(relaxed.final_report.meets_slo(90_000.0));
        assert!(
            relaxed.best_cost() <= tight.best_cost() * 1.05,
            "a relaxed SLO should never force a more expensive configuration (relaxed {} vs tight {})",
            relaxed.best_cost(),
            tight.best_cost()
        );
    }

    #[test]
    fn scheduler_name_is_aarc() {
        assert_eq!(GraphCentricScheduler::default().name(), "AARC");
    }
}
