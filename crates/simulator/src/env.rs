//! [`WorkflowEnvironment`]: the bundle a configuration-search method samples
//! from, and [`ConfigMap`]: the per-function configuration vector it
//! optimises.

use serde::{Deserialize, Serialize};

use aarc_workflow::{NodeId, Workflow};

use crate::cluster::ClusterSpec;
use crate::cost::PricingModel;
use crate::error::SimulatorError;
use crate::executor::ExecutionReport;
use crate::input::InputSpec;
use crate::kernel::{CompiledScenario, SimScratch};
use crate::perf_model::ProfileSet;
use crate::resources::{ResourceConfig, ResourceSpace};

/// Per-function resource configurations of a workflow, indexed by
/// [`NodeId`].
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct ConfigMap {
    configs: Vec<ResourceConfig>,
}

impl Clone for ConfigMap {
    fn clone(&self) -> Self {
        ConfigMap {
            configs: self.configs.clone(),
        }
    }

    /// Copies `source` into this map's buffer, reusing its allocation.
    fn clone_from(&mut self, source: &Self) {
        self.configs.clone_from(&source.configs);
    }
}

impl ConfigMap {
    /// Creates a map assigning `config` to all `len` functions.
    pub fn uniform(len: usize, config: ResourceConfig) -> Self {
        ConfigMap {
            configs: vec![config; len],
        }
    }

    /// Creates a map from an explicit per-function vector.
    pub fn from_vec(configs: Vec<ResourceConfig>) -> Self {
        ConfigMap { configs }
    }

    /// Number of functions covered.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// Returns `true` if the map covers no functions.
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// Configuration of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn get(&self, node: NodeId) -> ResourceConfig {
        self.configs[node.index()]
    }

    /// Replaces the configuration of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set(&mut self, node: NodeId, config: ResourceConfig) {
        self.configs[node.index()] = config;
    }

    /// Iterates over `(NodeId, ResourceConfig)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, ResourceConfig)> + '_ {
        self.configs
            .iter()
            .enumerate()
            .map(|(i, c)| (NodeId::new(i), *c))
    }

    /// The raw configuration slice, indexed by node index.
    pub fn as_slice(&self) -> &[ResourceConfig] {
        &self.configs
    }

    /// Total memory provisioned across all functions, in MB.
    pub fn total_memory_mb(&self) -> u64 {
        self.configs.iter().map(|c| u64::from(c.memory.get())).sum()
    }

    /// Total vCPUs provisioned across all functions.
    pub fn total_vcpu(&self) -> f64 {
        self.configs.iter().map(|c| c.vcpu.get()).sum()
    }
}

/// Static bundle of everything needed to execute a workflow under candidate
/// configurations: the workflow, per-function profiles, pricing, cluster,
/// resource space and default input.
///
/// The environment plays the role of the paper's cloud testbed: search
/// methods repeatedly call [`WorkflowEnvironment::execute`] with candidate
/// [`ConfigMap`]s and observe runtime and cost.
#[derive(Debug, Clone)]
pub struct WorkflowEnvironment {
    workflow: Workflow,
    profiles: ProfileSet,
    pricing: PricingModel,
    cluster: ClusterSpec,
    space: ResourceSpace,
    input: InputSpec,
    base_config: ResourceConfig,
    seed: u64,
}

impl WorkflowEnvironment {
    /// Starts building an environment for `workflow` with the given
    /// profiles.
    pub fn builder(workflow: Workflow, profiles: ProfileSet) -> WorkflowEnvironmentBuilder {
        WorkflowEnvironmentBuilder {
            env: WorkflowEnvironment {
                workflow,
                profiles,
                pricing: PricingModel::paper(),
                cluster: ClusterSpec::paper_testbed(),
                space: ResourceSpace::paper(),
                input: InputSpec::nominal(),
                base_config: ResourceSpace::paper().max_config(),
                seed: 0,
            },
        }
    }

    /// The workflow being configured.
    pub fn workflow(&self) -> &Workflow {
        &self.workflow
    }

    /// The per-function performance profiles.
    pub fn profiles(&self) -> &ProfileSet {
        &self.profiles
    }

    /// The pricing model.
    pub fn pricing(&self) -> &PricingModel {
        &self.pricing
    }

    /// The simulated cluster.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// The discrete resource space configurations are drawn from.
    pub fn space(&self) -> &ResourceSpace {
        &self.space
    }

    /// The default input executions use.
    pub fn input(&self) -> InputSpec {
        self.input
    }

    /// The over-provisioned base configuration (Algorithm 1, lines 2–4).
    pub fn base_config(&self) -> ResourceConfig {
        self.base_config
    }

    /// The RNG seed used for jittered executions.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A [`ConfigMap`] assigning the base configuration to every function.
    pub fn base_configs(&self) -> ConfigMap {
        ConfigMap::uniform(self.workflow.len(), self.base_config)
    }

    /// A stable 64-bit fingerprint of the whole scenario (workflow
    /// structure, profiles, pricing, cluster, space, default input and
    /// seed), used as the scenario component of the
    /// [`EvalService`](crate::eval::EvalService) cache key. FNV-1a over a
    /// canonical rendering — per-function profiles are walked in node order,
    /// not map order, so two identical environments always agree. Any change
    /// to any field changes the fingerprint, so memoised reports can never
    /// leak across scenarios.
    pub fn fingerprint(&self) -> u64 {
        use std::fmt::Write;
        let mut rendered = format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{}",
            self.workflow,
            self.pricing,
            self.cluster,
            self.space,
            self.input,
            self.base_config,
            self.seed
        );
        for id in self.workflow.node_ids() {
            write!(rendered, "|{:?}:{:?}", id, self.profiles.get(id))
                .expect("writing to a String is infallible");
        }
        crate::eval::fnv1a_64(rendered.bytes())
    }

    /// Executes the workflow once under `configs` with the environment's
    /// default input and seed.
    ///
    /// # Errors
    ///
    /// See [`CompiledScenario::simulate_report`].
    pub fn execute(&self, configs: &ConfigMap) -> Result<ExecutionReport, SimulatorError> {
        self.execute_with(configs, self.input, self.seed)
    }

    /// Executes the workflow once under `configs` for a specific input.
    ///
    /// # Errors
    ///
    /// See [`CompiledScenario::simulate_report`].
    pub fn execute_with_input(
        &self,
        configs: &ConfigMap,
        input: InputSpec,
    ) -> Result<ExecutionReport, SimulatorError> {
        self.execute_with(configs, input, self.seed)
    }

    /// Executes the workflow once with full control over input and RNG seed
    /// (the seed only matters when the cluster models runtime jitter): a
    /// one-off compile plus [`CompiledScenario::simulate_report`]. Repeated
    /// evaluations should go through an
    /// [`EvalService`](crate::eval::EvalService) handle, which compiles once.
    ///
    /// # Errors
    ///
    /// See [`CompiledScenario::simulate_report`].
    pub fn execute_with(
        &self,
        configs: &ConfigMap,
        input: InputSpec,
        seed: u64,
    ) -> Result<ExecutionReport, SimulatorError> {
        CompiledScenario::compile(&self.workflow, &self.profiles, self.cluster, self.pricing)?
            .simulate_report(&mut SimScratch::new(), configs, input, seed)
    }

    /// Returns a copy of the environment with a different default input
    /// (used by the input-aware engine to optimise per input class).
    pub fn with_input(&self, input: InputSpec) -> Self {
        WorkflowEnvironment {
            input,
            ..self.clone()
        }
    }
}

/// Builder for [`WorkflowEnvironment`].
#[derive(Debug, Clone)]
pub struct WorkflowEnvironmentBuilder {
    env: WorkflowEnvironment,
}

impl WorkflowEnvironmentBuilder {
    /// Overrides the pricing model (default: the paper's constants).
    pub fn pricing(mut self, pricing: PricingModel) -> Self {
        self.env.pricing = pricing;
        self
    }

    /// Overrides the cluster specification (default: the paper's testbed).
    pub fn cluster(mut self, cluster: ClusterSpec) -> Self {
        self.env.cluster = cluster;
        self
    }

    /// Overrides the resource space (default: the paper's discretisation).
    pub fn space(mut self, space: ResourceSpace) -> Self {
        self.env.space = space;
        self
    }

    /// Overrides the default input (default: nominal).
    pub fn input(mut self, input: InputSpec) -> Self {
        self.env.input = input;
        self
    }

    /// Overrides the over-provisioned base configuration (default: the
    /// space's maximum configuration).
    pub fn base_config(mut self, config: ResourceConfig) -> Self {
        self.env.base_config = config;
        self
    }

    /// Sets the RNG seed used for jittered executions.
    pub fn seed(mut self, seed: u64) -> Self {
        self.env.seed = seed;
        self
    }

    /// Validates and finishes the environment.
    ///
    /// # Errors
    ///
    /// Returns an error if any function lacks a profile, or if the base
    /// configuration cannot fit on the cluster.
    pub fn build(self) -> Result<WorkflowEnvironment, SimulatorError> {
        let env = self.env;
        for id in env.workflow.node_ids() {
            if env.profiles.get(id).is_none() {
                return Err(SimulatorError::MissingProfile {
                    node: id,
                    name: env.workflow.function(id).name().to_owned(),
                });
            }
        }
        if !env.cluster.can_fit(env.base_config) {
            return Err(SimulatorError::InvalidConfig {
                node: NodeId::new(0),
                reason: format!(
                    "base configuration {} exceeds the capacity of every cluster host",
                    env.base_config
                ),
            });
        }
        Ok(env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf_model::FunctionProfile;
    use aarc_workflow::WorkflowBuilder;

    fn env() -> WorkflowEnvironment {
        let mut b = WorkflowBuilder::new("env");
        let a = b.add_function("a");
        let c = b.add_function("b");
        b.add_edge(a, c).unwrap();
        let wf = b.build().unwrap();
        let mut profiles = ProfileSet::new();
        profiles.insert(
            a,
            FunctionProfile::builder("a").parallel_ms(4_000.0).build(),
        );
        profiles.insert(c, FunctionProfile::builder("b").serial_ms(1_000.0).build());
        WorkflowEnvironment::builder(wf, profiles).build().unwrap()
    }

    #[test]
    fn config_map_accessors() {
        let mut m = ConfigMap::uniform(3, ResourceConfig::new(1.0, 512));
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
        m.set(NodeId::new(1), ResourceConfig::new(2.0, 1024));
        assert_eq!(m.get(NodeId::new(1)), ResourceConfig::new(2.0, 1024));
        assert_eq!(m.total_memory_mb(), 512 + 1024 + 512);
        assert!((m.total_vcpu() - 4.0).abs() < 1e-9);
        assert_eq!(m.iter().count(), 3);
        assert_eq!(m.as_slice().len(), 3);
        let v = ConfigMap::from_vec(vec![ResourceConfig::new(0.5, 128)]);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn environment_executes_base_configs() {
        let env = env();
        let report = env.execute(&env.base_configs()).unwrap();
        assert!(report.makespan_ms() > 0.0);
        assert!(!report.any_oom());
    }

    #[test]
    fn builder_rejects_missing_profiles() {
        let mut b = WorkflowBuilder::new("bad");
        b.add_function("unprofiled");
        let wf = b.build().unwrap();
        let err = WorkflowEnvironment::builder(wf, ProfileSet::new())
            .build()
            .unwrap_err();
        assert!(matches!(err, SimulatorError::MissingProfile { .. }));
    }

    #[test]
    fn builder_rejects_oversized_base_config() {
        let mut b = WorkflowBuilder::new("big");
        let a = b.add_function("a");
        let wf = b.build().unwrap();
        let mut profiles = ProfileSet::new();
        profiles.insert(a, FunctionProfile::builder("a").serial_ms(1.0).build());
        let err = WorkflowEnvironment::builder(wf, profiles)
            .cluster(ClusterSpec {
                vcpus_per_host: 4.0,
                ..ClusterSpec::paper_testbed()
            })
            .base_config(ResourceConfig::new(8.0, 1024))
            .build()
            .unwrap_err();
        assert!(matches!(err, SimulatorError::InvalidConfig { .. }));
    }

    #[test]
    fn with_input_changes_default_input() {
        let env = env().with_input(InputSpec::new(2.0, 64.0));
        assert_eq!(env.input().scale, 2.0);
        let base = env.base_configs();
        let heavy = env.execute(&base).unwrap();
        let light = env
            .execute_with_input(&base, InputSpec::new(0.5, 2.0))
            .unwrap();
        assert!(heavy.makespan_ms() > light.makespan_ms());
    }

    #[test]
    fn builder_overrides_are_applied() {
        let mut b = WorkflowBuilder::new("cfg");
        let a = b.add_function("a");
        let wf = b.build().unwrap();
        let mut profiles = ProfileSet::new();
        profiles.insert(a, FunctionProfile::builder("a").serial_ms(1.0).build());
        let env = WorkflowEnvironment::builder(wf, profiles)
            .pricing(PricingModel::new(1.0, 0.0, 0.0))
            .space(ResourceSpace {
                max_vcpu: 4.0,
                ..ResourceSpace::paper()
            })
            .base_config(ResourceConfig::new(4.0, 2048))
            .seed(7)
            .build()
            .unwrap();
        assert_eq!(env.pricing().per_vcpu_ms, 1.0);
        assert_eq!(env.space().max_vcpu, 4.0);
        assert_eq!(env.base_config(), ResourceConfig::new(4.0, 2048));
    }
}
