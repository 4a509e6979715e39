//! The materialised side of a simulation: the [`ExecutionReport`] with
//! per-function names and the full event trace.
//!
//! The discrete-event loop itself lives in [`kernel`](crate::kernel), and
//! [`CompiledScenario::simulate_report`](crate::kernel::CompiledScenario::simulate_report)
//! — one kernel run with trace recording on — is the only producer of a
//! report. Hot paths (the search methods, through
//! [`ScenarioHandle`](crate::eval::ScenarioHandle)) use the kernel's lean
//! [`SimResult`](crate::kernel::SimResult) instead and only materialise an
//! `ExecutionReport` for winners.

use serde::{Deserialize, Serialize};

use aarc_workflow::NodeId;

use crate::resources::ResourceConfig;
use crate::trace::ExecutionTrace;

/// Billed runtime charged for an invocation that is killed by the OOM
/// supervisor (detection and teardown time).
pub(crate) const OOM_KILL_MS: f64 = 50.0;

/// Per-function outcome of one simulated workflow execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FunctionExecution {
    /// The function.
    pub node: NodeId,
    /// Its name.
    pub name: String,
    /// Configuration it ran with.
    pub config: ResourceConfig,
    /// Host it was placed on.
    pub host: usize,
    /// Time the function became ready (dependencies satisfied), ms.
    pub ready_ms: f64,
    /// Time the container started (after any capacity wait), ms.
    pub start_ms: f64,
    /// Time the function finished, ms.
    pub end_ms: f64,
    /// Billed runtime (excludes queueing and cold start), ms.
    pub runtime_ms: f64,
    /// Cold-start latency paid, ms.
    pub cold_start_ms: f64,
    /// Billed cost of this invocation.
    pub cost: f64,
    /// Whether the invocation was killed out-of-memory.
    pub oom: bool,
}

/// Result of executing a workflow once under a configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionReport {
    executions: Vec<FunctionExecution>,
    makespan_ms: f64,
    total_cost: f64,
    any_oom: bool,
    #[serde(skip)]
    trace: ExecutionTrace,
}

impl ExecutionReport {
    /// Assembles a report from kernel output (crate-internal: reports are
    /// only ever produced by a simulation).
    pub(crate) fn from_parts(
        executions: Vec<FunctionExecution>,
        makespan_ms: f64,
        total_cost: f64,
        any_oom: bool,
        trace: ExecutionTrace,
    ) -> Self {
        ExecutionReport {
            executions,
            makespan_ms,
            total_cost,
            any_oom,
            trace,
        }
    }

    /// End-to-end latency of the workflow in milliseconds.
    pub fn makespan_ms(&self) -> f64 {
        self.makespan_ms
    }

    /// Total billed cost over all function invocations.
    pub fn total_cost(&self) -> f64 {
        self.total_cost
    }

    /// Whether any function was OOM-killed.
    pub fn any_oom(&self) -> bool {
        self.any_oom
    }

    /// `true` when no function failed and the makespan is within `slo_ms`.
    pub fn meets_slo(&self, slo_ms: f64) -> bool {
        !self.any_oom && self.makespan_ms <= slo_ms
    }

    /// Per-function outcomes, ordered by node index.
    pub fn executions(&self) -> &[FunctionExecution] {
        &self.executions
    }

    /// The outcome of one function.
    ///
    /// Executions are stored densely ordered by node index, so the common
    /// case is a direct O(1) index (callers like
    /// [`runtime_of`](ExecutionReport::runtime_of) hit this in loops); a
    /// linear scan backs it up for reports that arrived in a different
    /// order (e.g. hand-edited deserialized JSON).
    pub fn execution(&self, node: NodeId) -> Option<&FunctionExecution> {
        match self.executions.get(node.index()) {
            Some(e) if e.node == node => Some(e),
            _ => self.executions.iter().find(|e| e.node == node),
        }
    }

    /// Billed runtime of one function, if it ran.
    pub fn runtime_of(&self, node: NodeId) -> Option<f64> {
        self.execution(node).map(|e| e.runtime_ms)
    }

    /// Billed cost of one function, if it ran.
    pub fn cost_of(&self, node: NodeId) -> Option<f64> {
        self.execution(node).map(|e| e.cost)
    }

    /// The detailed event trace of the execution.
    pub fn trace(&self) -> &ExecutionTrace {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use crate::cost::PricingModel;
    use crate::env::ConfigMap;
    use crate::input::InputSpec;
    use crate::kernel::{CompiledScenario, SimScratch};
    use crate::perf_model::{FunctionProfile, ProfileSet};
    use crate::trace::TraceEvent;
    use aarc_workflow::{Workflow, WorkflowBuilder};

    fn two_step_workflow() -> (Workflow, ProfileSet) {
        let mut b = WorkflowBuilder::new("two");
        let a = b.add_function("first");
        let c = b.add_function("second");
        b.add_edge(a, c).unwrap();
        let wf = b.build().unwrap();
        let mut profiles = ProfileSet::new();
        profiles.insert(
            a,
            FunctionProfile::builder("first").serial_ms(1_000.0).build(),
        );
        profiles.insert(
            c,
            FunctionProfile::builder("second")
                .serial_ms(2_000.0)
                .build(),
        );
        (wf, profiles)
    }

    fn run(
        wf: &Workflow,
        profiles: &ProfileSet,
        configs: &ConfigMap,
        cluster: &ClusterSpec,
        seed: u64,
    ) -> ExecutionReport {
        CompiledScenario::compile(wf, profiles, *cluster, PricingModel::paper())
            .unwrap()
            .simulate_report(&mut SimScratch::new(), configs, InputSpec::nominal(), seed)
            .unwrap()
    }

    #[test]
    fn sequential_functions_run_back_to_back() {
        let (wf, profiles) = two_step_workflow();
        let configs = ConfigMap::uniform(wf.len(), ResourceConfig::new(1.0, 512));
        let report = run(&wf, &profiles, &configs, &ClusterSpec::paper_testbed(), 42);
        assert!(!report.any_oom());
        // 1 s + 2 s plus a small transfer.
        assert!(report.makespan_ms() >= 3_000.0);
        assert!(report.makespan_ms() < 3_100.0);
        let a = wf.find("first").unwrap();
        let c = wf.find("second").unwrap();
        assert!(report.execution(c).unwrap().start_ms >= report.execution(a).unwrap().end_ms);
        assert_eq!(report.executions().len(), 2);
    }

    #[test]
    fn parallel_branches_overlap() {
        let mut b = WorkflowBuilder::new("par");
        let split = b.add_function("split");
        let w1 = b.add_function("w1");
        let w2 = b.add_function("w2");
        let merge = b.add_function("merge");
        b.add_edge(split, w1).unwrap();
        b.add_edge(split, w2).unwrap();
        b.add_edge(w1, merge).unwrap();
        b.add_edge(w2, merge).unwrap();
        let wf = b.build().unwrap();
        let mut profiles = ProfileSet::new();
        for (id, spec) in wf.iter() {
            profiles.insert(
                id,
                FunctionProfile::builder(spec.name())
                    .serial_ms(1_000.0)
                    .build(),
            );
        }
        let configs = ConfigMap::uniform(wf.len(), ResourceConfig::new(1.0, 512));
        let report = run(&wf, &profiles, &configs, &ClusterSpec::paper_testbed(), 42);
        // 3 levels of 1 s each, not 4 s: the two workers overlap.
        assert!(report.makespan_ms() < 3_200.0);
        assert!(report.makespan_ms() >= 3_000.0);
    }

    #[test]
    fn capacity_limits_serialise_parallel_work() {
        let mut b = WorkflowBuilder::new("cap");
        let w1 = b.add_function("w1");
        let w2 = b.add_function("w2");
        // No edges: both are entry functions and could run in parallel.
        let _ = (w1, w2);
        let wf = b.build().unwrap();
        let mut profiles = ProfileSet::new();
        for (id, spec) in wf.iter() {
            profiles.insert(
                id,
                FunctionProfile::builder(spec.name())
                    .serial_ms(1_000.0)
                    .build(),
            );
        }
        let tiny_cluster = ClusterSpec {
            hosts: 1,
            vcpus_per_host: 1.0,
            memory_mb_per_host: 1024,
            ..ClusterSpec::paper_testbed()
        };
        let configs = ConfigMap::uniform(wf.len(), ResourceConfig::new(1.0, 512));
        let report = run(&wf, &profiles, &configs, &tiny_cluster, 42);
        // Only one fits at a time, so the second waits for the first.
        assert!(report.makespan_ms() >= 2_000.0);
        let queued = report
            .trace()
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::QueuedForCapacity { .. }))
            .count();
        assert_eq!(queued, 1);
    }

    #[test]
    fn oom_is_reported_and_does_not_satisfy_slo() {
        let mut b = WorkflowBuilder::new("oom");
        let a = b.add_function("big");
        let _ = a;
        let wf = b.build().unwrap();
        let mut profiles = ProfileSet::new();
        profiles.insert(
            wf.find("big").unwrap(),
            FunctionProfile::builder("big")
                .serial_ms(100.0)
                .working_set_mb(4096.0)
                .mem_floor_mb(2048.0)
                .build(),
        );
        let configs = ConfigMap::uniform(wf.len(), ResourceConfig::new(1.0, 512));
        let report = run(&wf, &profiles, &configs, &ClusterSpec::paper_testbed(), 42);
        assert!(report.any_oom());
        assert!(!report.meets_slo(1_000_000.0));
    }

    #[test]
    fn deterministic_without_jitter_and_varies_with_jitter() {
        let (wf, profiles) = two_step_workflow();
        let configs = ConfigMap::uniform(wf.len(), ResourceConfig::new(1.0, 512));
        let r1 = run(&wf, &profiles, &configs, &ClusterSpec::paper_testbed(), 42);
        let r2 = run(&wf, &profiles, &configs, &ClusterSpec::paper_testbed(), 42);
        assert_eq!(r1.makespan_ms(), r2.makespan_ms());
        assert_eq!(r1.total_cost(), r2.total_cost());

        let jittery = ClusterSpec::paper_testbed_with_jitter(0.05);
        let j1 = run(&wf, &profiles, &configs, &jittery, 1);
        let j2 = run(&wf, &profiles, &configs, &jittery, 2);
        assert_ne!(j1.makespan_ms(), j2.makespan_ms());
    }

    #[test]
    fn cost_matches_pricing_model_sum() {
        let (wf, profiles) = two_step_workflow();
        let configs = ConfigMap::uniform(wf.len(), ResourceConfig::new(2.0, 1024));
        let report = run(&wf, &profiles, &configs, &ClusterSpec::paper_testbed(), 42);
        let pricing = PricingModel::paper();
        let manual: f64 = report
            .executions()
            .iter()
            .map(|e| pricing.invocation_cost(e.config, e.runtime_ms))
            .sum();
        assert!((report.total_cost() - manual).abs() < 1e-9);
    }

    #[test]
    fn cold_starts_add_latency_but_not_billed_runtime() {
        let (wf, profiles) = two_step_workflow();
        let configs = ConfigMap::uniform(wf.len(), ResourceConfig::new(1.0, 512));
        let warm = run(&wf, &profiles, &configs, &ClusterSpec::paper_testbed(), 42);
        let cold_cluster = ClusterSpec {
            cold_start: crate::cluster::ColdStartModel::typical(),
            ..ClusterSpec::paper_testbed()
        };
        let cold = run(&wf, &profiles, &configs, &cold_cluster, 42);
        assert!(cold.makespan_ms() > warm.makespan_ms());
        assert!((cold.total_cost() - warm.total_cost()).abs() < 1e-9);
    }
}
