//! The Priority Configurator (Algorithm 2).

use aarc_simulator::{ConfigMap, ResourceConfig, ScenarioHandle, SimResult, WorkflowEnvironment};
use aarc_workflow::{NodeId, ResourceAffinity};

use crate::affinity::classify_affinity;
use crate::error::AarcError;
use crate::operation::{OpType, Operation, OperationQueue};
use crate::params::AarcParams;
use crate::search::SearchTrace;

/// Priority of a freshly created operation on the *preferred* resource
/// dimension of a function (the dimension its affinity says is cheap to
/// shrink).
const PRIORITY_FRESH_PREFERRED: f64 = f64::INFINITY;
/// Priority of a freshly created operation on the non-preferred dimension.
/// Still far above any realistic cost saving, so fresh operations always run
/// before re-enqueued ones.
const PRIORITY_FRESH_OTHER: f64 = f64::MAX / 4.0;
/// Priority of an operation that was reverted but still has trials left
/// (Algorithm 2, line 17).
const PRIORITY_REVERTED: f64 = 0.0;

/// Result of configuring one path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathConfiguration {
    /// Number of workflow executions (samples) spent on this path.
    pub samples_used: usize,
    /// Number of accepted (kept) resource reductions.
    pub accepted_reductions: usize,
}

/// The Priority Configurator: shrinks the CPU and memory allocations of the
/// functions on one path until the path's latency budget is exhausted or no
/// operation can further reduce cost.
///
/// See Algorithm 2 of the paper; the affinity-guided queue seeding is the
/// "affinity-aware" extension controlled by
/// [`AarcParams::affinity_guided`].
#[derive(Debug, Clone)]
pub struct PriorityConfigurator {
    params: AarcParams,
}

impl PriorityConfigurator {
    /// Creates a configurator with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid (see [`AarcParams::validate`]).
    pub fn new(params: AarcParams) -> Self {
        params
            .validate()
            .expect("invalid AarcParams passed to PriorityConfigurator");
        PriorityConfigurator { params }
    }

    /// The configurator's parameters.
    pub fn params(&self) -> &AarcParams {
        &self.params
    }

    /// Configures the functions in `path` so that the sum of their runtimes
    /// stays within `path_budget_ms` and the whole workflow stays within
    /// `end_to_end_slo_ms`, while monotonically decreasing the path's cost.
    ///
    /// `configs` is updated in place; every sampled execution is appended to
    /// `trace`. `baseline` must be a report of the workflow under the
    /// current `configs` (the scheduler always has one at hand), so the
    /// configurator itself only executes candidate configurations. Each
    /// candidate is submitted through `handle`, so re-visited configurations
    /// (e.g. after a revert) are answered from the memo-cache.
    ///
    /// This is the synchronous loop over [`begin_path`]
    /// (PriorityConfigurator::begin_path); the scheduler's ask/tell
    /// strategy drives the same [`PathConfigState`] without holding a
    /// handle.
    ///
    /// # Errors
    ///
    /// Returns an error if the platform rejects an execution.
    #[allow(clippy::too_many_arguments)]
    pub fn configure_path(
        &self,
        handle: &ScenarioHandle<'_>,
        configs: &mut ConfigMap,
        path: &[NodeId],
        path_budget_ms: f64,
        end_to_end_slo_ms: f64,
        baseline: &SimResult,
        trace: &mut SearchTrace,
    ) -> Result<PathConfiguration, AarcError> {
        let env = handle.env();
        let mut state = self.begin_path(env, path, path_budget_ms, end_to_end_slo_ms, baseline);
        while state.propose(env, configs) {
            let report = handle.evaluate(configs)?;
            state.observe(configs, &report, trace);
        }
        Ok(state.result())
    }

    /// Starts the resumable ask/tell form of Algorithm 2 over one path:
    /// seeds the (optionally affinity-ordered) operation queue and captures
    /// the path's budget and baseline cost. Drive the returned state with
    /// [`PathConfigState::propose`] / [`PathConfigState::observe`].
    pub fn begin_path(
        &self,
        env: &WorkflowEnvironment,
        path: &[NodeId],
        path_budget_ms: f64,
        end_to_end_slo_ms: f64,
        baseline: &SimResult,
    ) -> PathConfigState {
        let queue = if path.is_empty() || path_budget_ms <= 0.0 {
            // Nothing to do: an empty queue makes the first `propose`
            // return `false` without spending a sample.
            OperationQueue::new()
        } else {
            self.seed_queue(env, path)
        };
        PathConfigState {
            params: self.params,
            path: path.to_vec(),
            budget: path_budget_ms * self.params.slo_safety_factor,
            end_to_end_slo_ms,
            queue,
            current_path_cost: path_cost(baseline, path),
            result: PathConfiguration {
                samples_used: 0,
                accepted_reductions: 0,
            },
            pending: None,
        }
    }

    /// Builds the initial operation queue for a path (Algorithm 2, lines
    /// 2-10), optionally ordering the two per-function operations by the
    /// function's resource affinity.
    fn seed_queue(&self, env: &WorkflowEnvironment, path: &[NodeId]) -> OperationQueue {
        let mut queue = OperationQueue::new();
        for &node in path {
            let affinity = if self.params.affinity_guided {
                classify_affinity(env, node).map(|r| r.affinity)
            } else {
                None
            };
            for op_type in [OpType::Cpu, OpType::Mem] {
                let step = match op_type {
                    OpType::Cpu => self.params.initial_cpu_step,
                    OpType::Mem => self.params.initial_mem_step,
                };
                let priority = match (affinity, op_type) {
                    // CPU-bound functions: memory is cheap to shrink, try it
                    // first. Memory-bound functions: the other way round.
                    (Some(ResourceAffinity::CpuBound), OpType::Mem)
                    | (Some(ResourceAffinity::MemoryBound), OpType::Cpu)
                    | (Some(ResourceAffinity::IoBound), _)
                    | (None, _) => PRIORITY_FRESH_PREFERRED,
                    _ => PRIORITY_FRESH_OTHER,
                };
                queue.push(
                    Operation::new(node, op_type, step, self.params.func_trials),
                    priority,
                );
            }
        }
        queue
    }
}

/// The paper's `deallocate` as a free function, shared by the synchronous
/// configurator loop and the resumable [`PathConfigState`].
fn deallocate(
    env: &WorkflowEnvironment,
    current: ResourceConfig,
    op: &Operation,
) -> Option<ResourceConfig> {
    let space = env.space();
    let base = env.base_config();
    let candidate = match op.op_type {
        OpType::Cpu => {
            let delta = op.step * base.vcpu.get();
            let new_vcpu = space.snap_vcpu(current.vcpu.get() - delta);
            ResourceConfig::new(new_vcpu, current.memory.get())
        }
        OpType::Mem => {
            let delta = (op.step * f64::from(base.memory.get())).round() as i64;
            let target = i64::from(current.memory.get()) - delta;
            let new_mem = space.snap_memory(target.max(0) as u32);
            ResourceConfig::new(current.vcpu.get(), new_mem)
        }
    };
    let changed = (candidate.vcpu.get() - current.vcpu.get()).abs() > 1e-9
        || candidate.memory.get() != current.memory.get();
    changed.then_some(candidate)
}

/// A candidate reduction in flight: the operation that produced it and the
/// configuration it replaced, kept until the result is observed.
#[derive(Debug, Clone, Copy)]
struct PendingOp {
    op: Operation,
    previous: ResourceConfig,
}

/// The resumable ask/tell form of Algorithm 2 over one path: an operation
/// queue plus the budget/cost bookkeeping, decoupled from any evaluation
/// engine.
///
/// The protocol alternates [`propose`](PathConfigState::propose) (mutates
/// `configs` into the next candidate, returns `false` when the path is
/// done) and [`observe`](PathConfigState::observe) (processes the
/// candidate's simulation result: keep or revert-with-backoff). The
/// synchronous [`PriorityConfigurator::configure_path`] and the scheduler's
/// ask/tell strategy both drive this state machine, so their behaviour is
/// identical by construction.
#[derive(Debug)]
pub struct PathConfigState {
    params: AarcParams,
    path: Vec<NodeId>,
    budget: f64,
    end_to_end_slo_ms: f64,
    queue: OperationQueue,
    current_path_cost: f64,
    result: PathConfiguration,
    pending: Option<PendingOp>,
}

impl PathConfigState {
    /// Mutates `configs` into the next candidate reduction to evaluate.
    /// Returns `false` when the path is fully configured (queue drained or
    /// trial budget spent); `configs` is left at the best accepted state.
    ///
    /// # Panics
    ///
    /// Panics if the previous proposal was never
    /// [`observe`](PathConfigState::observe)d.
    pub fn propose(&mut self, env: &WorkflowEnvironment, configs: &mut ConfigMap) -> bool {
        assert!(
            self.pending.is_none(),
            "propose called with an unobserved candidate in flight"
        );
        while let Some(op) = self.queue.pop() {
            if self.result.samples_used >= self.params.max_trials_per_path {
                return false;
            }
            let previous = configs.get(op.node);
            let Some(candidate) = deallocate(env, previous, &op) else {
                // The allocation is already at the platform minimum (or the
                // step shrank below the grid resolution): drop the
                // operation.
                continue;
            };
            configs.set(op.node, candidate);
            self.pending = Some(PendingOp { op, previous });
            return true;
        }
        false
    }

    /// Processes the simulation result of the candidate produced by the
    /// last [`propose`](PathConfigState::propose): keeps the reduction (and
    /// re-prioritises its operation by the achieved saving) or reverts
    /// `configs` and re-enqueues with exponential back-off (Algorithm 2,
    /// lines 14-21). The sample is appended to `trace`, accepted exactly
    /// when the reduction is kept.
    ///
    /// # Panics
    ///
    /// Panics if no candidate is in flight.
    pub fn observe(
        &mut self,
        configs: &mut ConfigMap,
        report: &SimResult,
        trace: &mut SearchTrace,
    ) {
        let PendingOp { mut op, previous } = self
            .pending
            .take()
            .expect("observe called without a candidate in flight");
        self.result.samples_used += 1;

        let new_path_runtime = path_runtime(report, &self.path);
        let new_path_cost = path_cost(report, &self.path);
        let violates = new_path_runtime > self.budget
            || report.makespan_ms() > self.end_to_end_slo_ms
            || report.any_oom()
            || new_path_cost > self.current_path_cost + 1e-9;
        trace.record(report, !violates);

        if violates {
            // Revert and back off exponentially (Algorithm 2, lines 14-18).
            configs.set(op.node, previous);
            op.step *= self.params.backoff_factor;
            op.trail = op.trail.saturating_sub(1);
            if op.trail > 0 {
                self.queue.push(op, PRIORITY_REVERTED);
            }
        } else {
            // Keep the reduction and re-enqueue the operation with the
            // achieved saving as its priority (lines 20-21).
            let saving = self.current_path_cost - new_path_cost;
            self.current_path_cost = new_path_cost;
            self.result.accepted_reductions += 1;
            self.queue.push(op, saving);
        }
    }

    /// Whether a proposed candidate is awaiting its result.
    pub fn is_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// The per-path tally so far (final once
    /// [`propose`](PathConfigState::propose) returned `false`).
    pub fn result(&self) -> PathConfiguration {
        self.result
    }
}

/// Sum of the billed runtimes of the path's functions — the quantity
/// compared against the (sub-)SLO, since functions on a path execute
/// sequentially.
fn path_runtime(result: &SimResult, path: &[NodeId]) -> f64 {
    path.iter().filter_map(|&n| result.runtime_of(n)).sum()
}

/// Sum of the billed costs of the path's functions.
fn path_cost(result: &SimResult, path: &[NodeId]) -> f64 {
    path.iter().filter_map(|&n| result.cost_of(n)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aarc_simulator::{EvalService, FunctionProfile, ProfileSet, ResourceSpace};
    use aarc_workflow::WorkflowBuilder;

    fn chain_env() -> (WorkflowEnvironment, Vec<NodeId>) {
        let mut b = WorkflowBuilder::new("chain");
        let a = b.add_function("cpu_heavy");
        let c = b.add_function("mem_heavy");
        b.add_edge(a, c).unwrap();
        let wf = b.build().unwrap();
        let mut p = ProfileSet::new();
        p.insert(
            a,
            FunctionProfile::builder("cpu_heavy")
                .serial_ms(2_000.0)
                .parallel_ms(30_000.0)
                .max_parallelism(6.0)
                .working_set_mb(512.0)
                .mem_floor_mb(256.0)
                .build(),
        );
        p.insert(
            c,
            FunctionProfile::builder("mem_heavy")
                .serial_ms(8_000.0)
                .working_set_mb(4_096.0)
                .mem_floor_mb(2_048.0)
                .mem_penalty_factor(5.0)
                .build(),
        );
        let env = WorkflowEnvironment::builder(wf, p).build().unwrap();
        (env, vec![a, c])
    }

    fn run_configurator(
        params: AarcParams,
        budget_ms: f64,
    ) -> (
        WorkflowEnvironment,
        ConfigMap,
        SearchTrace,
        PathConfiguration,
    ) {
        let (env, path) = chain_env();
        let service = EvalService::default();
        let handle = service.register(env.clone());
        let mut configs = env.base_configs();
        let baseline = handle.evaluate(&configs).unwrap();
        let mut trace = SearchTrace::new();
        let configurator = PriorityConfigurator::new(params);
        let result = configurator
            .configure_path(
                &handle,
                &mut configs,
                &path,
                budget_ms,
                budget_ms,
                &baseline,
                &mut trace,
            )
            .unwrap();
        (env, configs, trace, result)
    }

    #[test]
    fn configurator_reduces_cost_without_violating_the_budget() {
        let budget = 60_000.0;
        let (env, configs, _trace, result) = run_configurator(AarcParams::paper(), budget);
        let base_report = env.execute(&env.base_configs()).unwrap();
        let final_report = env.execute(&configs).unwrap();
        assert!(result.accepted_reductions > 0);
        assert!(final_report.total_cost() < base_report.total_cost());
        assert!(final_report.makespan_ms() <= budget);
        assert!(!final_report.any_oom());
    }

    #[test]
    fn shrinks_memory_of_cpu_bound_and_cpu_of_mem_bound() {
        let (_env, configs, _trace, _result) = run_configurator(AarcParams::paper(), 60_000.0);
        let cpu_heavy = configs.get(NodeId::new(0));
        let mem_heavy = configs.get(NodeId::new(1));
        // The CPU-bound function should have lost most of its memory.
        assert!(cpu_heavy.memory.get() <= 2_048);
        // The memory-bound function should have lost most of its CPU.
        assert!(mem_heavy.vcpu.get() <= 4.0);
    }

    #[test]
    fn respects_the_sample_budget() {
        let params = AarcParams {
            max_trials_per_path: 5,
            ..AarcParams::paper()
        };
        let (_env, _configs, trace, result) = run_configurator(params, 60_000.0);
        assert!(result.samples_used <= 5);
        assert_eq!(trace.sample_count(), result.samples_used);
    }

    #[test]
    fn tight_budget_keeps_configuration_at_base() {
        // A budget barely above the base runtime leaves almost no room to
        // shrink; whatever is accepted must still satisfy it.
        let (env, path) = chain_env();
        let service = EvalService::default();
        let handle = service.register(env.clone());
        let mut configs = env.base_configs();
        let baseline = handle.evaluate(&configs).unwrap();
        let budget = baseline.makespan_ms() * 1.01;
        let mut trace = SearchTrace::new();
        let configurator = PriorityConfigurator::new(AarcParams::paper());
        configurator
            .configure_path(
                &handle,
                &mut configs,
                &path,
                budget,
                budget,
                &baseline,
                &mut trace,
            )
            .unwrap();
        let final_report = env.execute(&configs).unwrap();
        assert!(final_report.makespan_ms() <= budget);
        assert!(!final_report.any_oom());
    }

    #[test]
    fn empty_path_or_zero_budget_is_a_no_op() {
        let (env, path) = chain_env();
        let service = EvalService::default();
        let handle = service.register(env.clone());
        let mut configs = env.base_configs();
        let baseline = handle.evaluate(&configs).unwrap();
        let mut trace = SearchTrace::new();
        let configurator = PriorityConfigurator::new(AarcParams::paper());
        let r1 = configurator
            .configure_path(
                &handle,
                &mut configs,
                &[],
                60_000.0,
                60_000.0,
                &baseline,
                &mut trace,
            )
            .unwrap();
        let r2 = configurator
            .configure_path(
                &handle,
                &mut configs,
                &path,
                0.0,
                60_000.0,
                &baseline,
                &mut trace,
            )
            .unwrap();
        assert_eq!(r1.samples_used, 0);
        assert_eq!(r2.samples_used, 0);
        assert_eq!(trace.sample_count(), 0);
        assert_eq!(configs, env.base_configs());
    }

    #[test]
    fn cost_never_increases_across_accepted_samples() {
        let (_env, _configs, trace, _result) = run_configurator(AarcParams::paper(), 60_000.0);
        let mut last_accepted_cost = f64::INFINITY;
        for s in trace.samples() {
            if s.accepted {
                assert!(s.cost <= last_accepted_cost + 1e-6);
                last_accepted_cost = s.cost;
            }
        }
    }

    #[test]
    fn deallocate_stops_at_platform_minimum() {
        let (env, _) = chain_env();
        let space = ResourceSpace::paper();
        let minimal = space.min_config();
        let op_cpu = Operation::new(NodeId::new(0), OpType::Cpu, 0.2, 3);
        let op_mem = Operation::new(NodeId::new(0), OpType::Mem, 0.2, 3);
        assert!(deallocate(&env, minimal, &op_cpu).is_none());
        assert!(deallocate(&env, minimal, &op_mem).is_none());
    }

    #[test]
    fn path_state_drives_identically_to_configure_path() {
        // Drive the resumable state machine by hand and compare against the
        // synchronous loop: identical configs, trace and tallies.
        let (env, path) = chain_env();
        let budget = 60_000.0;
        let configurator = PriorityConfigurator::new(AarcParams::paper());

        let service_sync = EvalService::default();
        let handle_sync = service_sync.register(env.clone());
        let mut configs_sync = env.base_configs();
        let baseline = handle_sync.evaluate(&configs_sync).unwrap();
        let mut trace_sync = SearchTrace::new();
        let result_sync = configurator
            .configure_path(
                &handle_sync,
                &mut configs_sync,
                &path,
                budget,
                budget,
                &baseline,
                &mut trace_sync,
            )
            .unwrap();

        let service_state = EvalService::default();
        let handle_state = service_state.register(env.clone());
        let mut configs_state = env.base_configs();
        let baseline_state = handle_state.evaluate(&configs_state).unwrap();
        let mut trace_state = SearchTrace::new();
        let mut state = configurator.begin_path(&env, &path, budget, budget, &baseline_state);
        assert!(!state.is_pending());
        while state.propose(&env, &mut configs_state) {
            assert!(state.is_pending());
            let report = handle_state.evaluate(&configs_state).unwrap();
            state.observe(&mut configs_state, &report, &mut trace_state);
        }
        assert_eq!(configs_sync, configs_state);
        assert_eq!(trace_sync, trace_state);
        assert_eq!(result_sync, state.result());
    }

    #[test]
    fn affinity_guided_uses_no_more_samples_than_plain_for_this_workload() {
        let plain = AarcParams {
            affinity_guided: false,
            ..AarcParams::paper()
        };
        let (_e1, _c1, trace_guided, _r1) = run_configurator(AarcParams::paper(), 60_000.0);
        let (_e2, _c2, trace_plain, _r2) = run_configurator(plain, 60_000.0);
        // Both must converge; the guided variant should not be wasteful.
        assert!(trace_guided.sample_count() <= trace_plain.sample_count() + 5);
    }

    #[test]
    #[should_panic(expected = "invalid AarcParams")]
    fn constructor_rejects_invalid_params() {
        let bad = AarcParams {
            backoff_factor: 0.0,
            ..AarcParams::paper()
        };
        let _ = PriorityConfigurator::new(bad);
    }
}
