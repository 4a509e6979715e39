//! The Input-Aware Configuration Engine plugin (§IV-D).
//!
//! Input-sensitive workflows (Video Analysis in the paper) have different
//! optimal configurations for different input sizes. When the plugin is
//! enabled, the engine analyses representative inputs per size class, runs
//! the Graph-Centric Scheduler once per class, and at request time
//! dispatches each input to the configuration of its class.

use std::collections::BTreeMap;

use aarc_simulator::{
    ConfigMap, EvalOptions, EvalService, ExecutionReport, InputClass, InputSpec,
    WorkflowEnvironment,
};

use crate::driver::{SearchDriver, SearchSession};
use crate::error::AarcError;
use crate::scheduler::GraphCentricScheduler;
use crate::search::{ConfigurationSearch, SearchTrace};

/// Pre-computed configurations per input size class, plus a dispatcher.
#[derive(Debug, Clone)]
pub struct InputAwareEngine {
    configs: BTreeMap<InputClass, ConfigMap>,
    fallback: Option<ConfigMap>,
    trace: SearchTrace,
}

impl InputAwareEngine {
    /// Builds the engine by running `scheduler` once for every `(class,
    /// representative input)` pair on `env`, over a private single-threaded
    /// [`EvalService`] shared by all classes. See
    /// [`build_with`](InputAwareEngine::build_with) to share a wider,
    /// process-wide service instead.
    ///
    /// The configuration found for [`InputClass::Heavy`] (or, failing that,
    /// the largest class present) doubles as the fallback for inputs whose
    /// class has no dedicated configuration.
    ///
    /// # Errors
    ///
    /// Propagates scheduler errors; a class whose representative input makes
    /// even the base configuration violate the SLO is reported as such.
    pub fn build(
        scheduler: &GraphCentricScheduler,
        env: &WorkflowEnvironment,
        slo_ms: f64,
        class_inputs: &BTreeMap<InputClass, InputSpec>,
    ) -> Result<Self, AarcError> {
        Self::build_with(
            scheduler,
            &EvalService::new(EvalOptions::default()),
            env,
            slo_ms,
            class_inputs,
        )
    }

    /// [`build`](InputAwareEngine::build) over a shared [`EvalService`]:
    /// every class's environment is registered as a handle on `service`,
    /// and the per-class scheduler runs interleave their evaluations on the
    /// service's worker pool and memo-cache. Results are bit-identical to
    /// sequential per-class searches on private services — per-class inputs
    /// bucket the cache keys, so entries never leak between classes.
    ///
    /// # Errors
    ///
    /// Propagates the first scheduler error in class order.
    pub fn build_with(
        scheduler: &GraphCentricScheduler,
        service: &EvalService,
        env: &WorkflowEnvironment,
        slo_ms: f64,
        class_inputs: &BTreeMap<InputClass, InputSpec>,
    ) -> Result<Self, AarcError> {
        let mut classes = Vec::with_capacity(class_inputs.len());
        let mut units = Vec::with_capacity(class_inputs.len());
        for (&class, &input) in class_inputs {
            let class_env = env.with_input(input);
            let strategy = scheduler.strategy(&class_env, slo_ms)?;
            units.push(SearchSession::new(strategy, service.register(class_env)));
            classes.push(class);
        }
        let outcomes = SearchDriver::run_interleaved(units);
        let mut configs = BTreeMap::new();
        let mut trace = SearchTrace::new();
        for (class, outcome) in classes.into_iter().zip(outcomes) {
            let outcome = outcome?;
            // Fold the per-class searches into one engine-level trace.
            trace.append(outcome.trace);
            configs.insert(class, outcome.best_configs);
        }
        let fallback = configs
            .get(&InputClass::Heavy)
            .or_else(|| configs.values().next_back())
            .cloned();
        Ok(InputAwareEngine {
            configs,
            fallback,
            trace,
        })
    }

    /// Creates an engine directly from pre-computed configurations (useful
    /// in tests and when configurations are cached).
    pub fn from_configs(configs: BTreeMap<InputClass, ConfigMap>) -> Self {
        let fallback = configs
            .get(&InputClass::Heavy)
            .or_else(|| configs.values().next_back())
            .cloned();
        InputAwareEngine {
            configs,
            fallback,
            trace: SearchTrace::new(),
        }
    }

    /// The configuration selected for `input`: the one of its size class,
    /// falling back to the heaviest available configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AarcError::NoConfigurations`] when the engine holds no
    /// configurations at all.
    pub fn dispatch(&self, input: InputSpec) -> Result<&ConfigMap, AarcError> {
        let class = input.classify();
        self.configs
            .get(&class)
            .or(self.fallback.as_ref())
            .ok_or(AarcError::NoConfigurations)
    }

    /// The configuration of a specific class, if present.
    pub fn config_for(&self, class: InputClass) -> Option<&ConfigMap> {
        self.configs.get(&class)
    }

    /// Number of classes with a dedicated configuration.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// Returns `true` if the engine holds no configurations.
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// The merged search trace of all per-class scheduler runs.
    pub fn trace(&self) -> &SearchTrace {
        &self.trace
    }

    /// Serves one request: dispatches `input` to its class configuration and
    /// executes the workflow with it.
    ///
    /// # Errors
    ///
    /// Propagates dispatch and execution errors.
    pub fn serve(
        &self,
        env: &WorkflowEnvironment,
        input: InputSpec,
    ) -> Result<ExecutionReport, AarcError> {
        let configs = self.dispatch(input)?;
        Ok(env.execute_with_input(configs, input)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::AarcParams;
    use aarc_simulator::{FunctionProfile, ProfileSet, ResourceConfig};
    use aarc_workflow::WorkflowBuilder;

    fn input_sensitive_env() -> WorkflowEnvironment {
        let mut b = WorkflowBuilder::new("video-like");
        let a = b.add_function("split");
        let c = b.add_function("process");
        b.add_edge(a, c).unwrap();
        let wf = b.build().unwrap();
        let mut p = ProfileSet::new();
        p.insert(
            a,
            FunctionProfile::builder("split")
                .serial_ms(2_000.0)
                .parallel_ms(8_000.0)
                .max_parallelism(4.0)
                .working_set_mb(1_024.0)
                .mem_floor_mb(512.0)
                .input_sensitivity(1.0)
                .mem_input_sensitivity(0.8)
                .build(),
        );
        p.insert(
            c,
            FunctionProfile::builder("process")
                .serial_ms(4_000.0)
                .parallel_ms(20_000.0)
                .max_parallelism(6.0)
                .working_set_mb(2_048.0)
                .mem_floor_mb(1_024.0)
                .input_sensitivity(1.0)
                .mem_input_sensitivity(0.8)
                .build(),
        );
        WorkflowEnvironment::builder(wf, p).build().unwrap()
    }

    fn class_inputs() -> BTreeMap<InputClass, InputSpec> {
        BTreeMap::from([
            (InputClass::Light, InputSpec::new(0.4, 4.0)),
            (InputClass::Middle, InputSpec::new(1.0, 16.0)),
            (InputClass::Heavy, InputSpec::new(2.0, 64.0)),
        ])
    }

    #[test]
    fn engine_builds_one_config_per_class() {
        let env = input_sensitive_env();
        let scheduler = GraphCentricScheduler::new(AarcParams::fast());
        let engine = InputAwareEngine::build(&scheduler, &env, 120_000.0, &class_inputs()).unwrap();
        assert_eq!(engine.len(), 3);
        assert!(!engine.is_empty());
        for class in InputClass::ALL {
            assert!(engine.config_for(class).is_some());
        }
    }

    #[test]
    fn heavy_inputs_get_larger_configurations_than_light_ones() {
        let env = input_sensitive_env();
        let scheduler = GraphCentricScheduler::new(AarcParams::fast());
        let engine = InputAwareEngine::build(&scheduler, &env, 120_000.0, &class_inputs()).unwrap();
        let light = engine.config_for(InputClass::Light).unwrap();
        let heavy = engine.config_for(InputClass::Heavy).unwrap();
        assert!(heavy.total_memory_mb() >= light.total_memory_mb());
    }

    #[test]
    fn dispatch_routes_by_class_and_serves_within_slo() {
        let env = input_sensitive_env();
        let slo = 120_000.0;
        let scheduler = GraphCentricScheduler::new(AarcParams::fast());
        let engine = InputAwareEngine::build(&scheduler, &env, slo, &class_inputs()).unwrap();
        for (_, &input) in class_inputs().iter() {
            let report = engine.serve(&env, input).unwrap();
            assert!(
                report.meets_slo(slo),
                "class {:?} violates slo",
                input.classify()
            );
        }
    }

    #[test]
    fn build_with_shared_service_matches_private_build() {
        let env = input_sensitive_env();
        let slo = 120_000.0;
        let scheduler = GraphCentricScheduler::new(AarcParams::fast());
        let private = InputAwareEngine::build(&scheduler, &env, slo, &class_inputs()).unwrap();
        let service = EvalService::with_threads(4);
        let shared =
            InputAwareEngine::build_with(&scheduler, &service, &env, slo, &class_inputs()).unwrap();
        for class in InputClass::ALL {
            assert_eq!(
                private.config_for(class),
                shared.config_for(class),
                "interleaving on a shared pool must not change class {class} configs"
            );
        }
        assert_eq!(private.trace(), shared.trace());
        // One handle per class env, each with its own fingerprint.
        assert_eq!(service.scenario_stats().len(), 3);
        assert!(service.stats().requests > 0);
    }

    #[test]
    fn dispatch_without_configs_errors() {
        let engine = InputAwareEngine::from_configs(BTreeMap::new());
        assert!(matches!(
            engine.dispatch(InputSpec::nominal()),
            Err(AarcError::NoConfigurations)
        ));
    }

    #[test]
    fn unknown_class_falls_back_to_heaviest() {
        let env = input_sensitive_env();
        let heavy_cfg = ConfigMap::uniform(env.workflow().len(), ResourceConfig::new(8.0, 4_096));
        let engine = InputAwareEngine::from_configs(BTreeMap::from([(
            InputClass::Heavy,
            heavy_cfg.clone(),
        )]));
        // A light input has no dedicated configuration; the heavy one is
        // used as fallback.
        let dispatched = engine.dispatch(InputSpec::new(0.3, 1.0)).unwrap();
        assert_eq!(dispatched, &heavy_cfg);
    }
}
