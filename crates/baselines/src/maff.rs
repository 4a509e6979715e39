//! MAFF: memory-centric coupled gradient descent (Zubko et al., adapted to
//! workflows as in the paper's §IV-A).
//!
//! MAFF only tunes memory; vCPU stays proportional (1 core per 1 024 MB).
//! Starting from a generously provisioned allocation it walks memory
//! downward function by function as long as cost decreases, and — following
//! the paper's description — *reverts to the previous step and terminates*
//! as soon as the workflow's SLO is violated. The coupled search space is
//! small, so MAFF needs few samples, but it cannot express configurations
//! like "4 vCPU with 512 MB" and therefore gets stuck in coupled local
//! optima (the effect visible in Fig. 7b).

use aarc_core::driver::{Ask, SearchStrategy};
use aarc_core::search::{validate_slo, ConfigurationSearch, SearchOutcome, SearchTrace};
use aarc_core::AarcError;
use aarc_simulator::{ConfigMap, ResourceConfig, SimResult, WorkflowEnvironment};
use aarc_workflow::NodeId;

/// Parameters of the MAFF baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaffParams {
    /// Megabytes of memory that buy one vCPU core (AWS-style coupling; the
    /// paper uses 1 024 MB per core).
    pub mb_per_core: f64,
    /// Initial memory allocation for every function, in MB.
    pub initial_memory_mb: u32,
    /// Initial downward memory step, in MB.
    pub initial_step_mb: u32,
    /// The step is halved when a full pass over the functions brings no
    /// improvement; the search stops when the step falls below this value.
    pub min_step_mb: u32,
    /// Hard cap on the number of samples.
    pub max_samples: usize,
}

impl Default for MaffParams {
    fn default() -> Self {
        MaffParams {
            mb_per_core: 1_024.0,
            initial_memory_mb: 10_240,
            initial_step_mb: 1_024,
            min_step_mb: 64,
            max_samples: 80,
        }
    }
}

/// The MAFF gradient-descent baseline.
#[derive(Debug, Clone)]
pub struct MaffGradientDescent {
    params: MaffParams,
}

impl MaffGradientDescent {
    /// Creates the baseline with the given parameters.
    pub fn new(params: MaffParams) -> Self {
        MaffGradientDescent { params }
    }

    /// The baseline's parameters.
    pub fn params(&self) -> &MaffParams {
        &self.params
    }
}

/// The coupled configuration for a memory size, shared with the strategy.
fn coupled(params: &MaffParams, env: &WorkflowEnvironment, memory_mb: u32) -> ResourceConfig {
    let space = env.space();
    let mem = space.snap_memory(memory_mb);
    let vcpu = space.snap_vcpu(f64::from(mem) / params.mb_per_core);
    ResourceConfig::new(vcpu, mem)
}

/// Where the MAFF strategy is in its descent.
enum Stage {
    /// Probe the initial coupled, over-provisioned configuration.
    Base,
    /// Walking memory downward node by node (a candidate is in flight iff
    /// `pending` is set).
    Descent,
    /// Asking for the final evaluation of the settled configuration.
    Final,
    /// Awaiting the final evaluation's result.
    AwaitFinal,
    /// Search complete.
    Finished,
}

/// A descent candidate in flight: the node being shrunk, the configuration
/// it replaced, and the candidate memory size to commit on acceptance.
struct PendingStep {
    node: NodeId,
    previous: ResourceConfig,
    candidate_mem: u32,
}

/// The ask/tell form of MAFF's coupled gradient descent: strictly
/// sequential probes (each step depends on the previous result), walking
/// the topological order pass by pass with a halving step, then one final
/// probe of the settled configuration.
struct MaffStrategy {
    params: MaffParams,
    slo_ms: f64,
    trace: SearchTrace,
    memories: Vec<u32>,
    configs: ConfigMap,
    best_cost: f64,
    step: u32,
    order: Vec<NodeId>,
    pos: usize,
    improved: bool,
    pending: Option<PendingStep>,
    final_report: Option<SimResult>,
    stage: Stage,
}

impl SearchStrategy for MaffStrategy {
    fn name(&self) -> &str {
        "MAFF"
    }

    fn ask(&mut self, env: &WorkflowEnvironment) -> Result<Ask, AarcError> {
        loop {
            match self.stage {
                Stage::Base => {
                    // Initial coupled, over-provisioned configuration.
                    let n = env.workflow().len();
                    self.memories = vec![self.params.initial_memory_mb; n];
                    self.configs = ConfigMap::from_vec(
                        self.memories
                            .iter()
                            .map(|&m| coupled(&self.params, env, m))
                            .collect(),
                    );
                    self.order = env.workflow().topological_order();
                    return Ok(Ask::Probe(self.configs.clone()));
                }
                Stage::Descent => {
                    if self.trace.sample_count() >= self.params.max_samples {
                        self.stage = Stage::Final;
                        continue;
                    }
                    if self.step < self.params.min_step_mb {
                        self.stage = Stage::Final;
                        continue;
                    }
                    if self.pos == self.order.len() {
                        // Pass boundary: halve the step when a full pass
                        // brought no improvement.
                        if !self.improved {
                            self.step /= 2;
                        }
                        if self.step < self.params.min_step_mb {
                            self.stage = Stage::Final;
                        } else {
                            self.pos = 0;
                            self.improved = false;
                        }
                        continue;
                    }
                    let node = self.order[self.pos];
                    let current_mem = self.memories[node.index()];
                    if current_mem <= env.space().min_memory_mb {
                        self.pos += 1;
                        continue;
                    }
                    let candidate_mem = current_mem
                        .saturating_sub(self.step)
                        .max(env.space().min_memory_mb);
                    if candidate_mem == current_mem {
                        self.pos += 1;
                        continue;
                    }
                    let previous = self.configs.get(node);
                    let candidate = coupled(&self.params, env, candidate_mem);
                    self.configs.set(node, candidate);
                    self.pending = Some(PendingStep {
                        node,
                        previous,
                        candidate_mem,
                    });
                    return Ok(Ask::Probe(self.configs.clone()));
                }
                Stage::Final => {
                    self.stage = Stage::AwaitFinal;
                    return Ok(Ask::Probe(self.configs.clone()));
                }
                Stage::Finished => return Ok(Ask::Done),
                Stage::AwaitFinal => unreachable!("AwaitFinal awaits tell, never asks"),
            }
        }
    }

    fn tell(&mut self, _env: &WorkflowEnvironment, results: &[SimResult]) -> Result<(), AarcError> {
        let report = &results[0];
        match self.stage {
            Stage::Base => {
                self.trace.record(report, true);
                if report.any_oom() {
                    return Err(AarcError::BaseConfigurationOom);
                }
                if !report.meets_slo(self.slo_ms) {
                    return Err(AarcError::BaseConfigurationViolatesSlo {
                        makespan_ms: report.makespan_ms(),
                        slo_ms: self.slo_ms,
                    });
                }
                self.best_cost = report.total_cost();
                self.pos = 0;
                self.improved = false;
                self.stage = Stage::Descent;
            }
            Stage::Descent => {
                let PendingStep {
                    node,
                    previous,
                    candidate_mem,
                } = self.pending.take().expect("a descent step is in flight");
                if !report.meets_slo(self.slo_ms) {
                    // Paper: revert to the previous step and terminate.
                    self.trace.record(report, false);
                    self.configs.set(node, previous);
                    self.stage = Stage::Final;
                } else if report.total_cost() + 1e-9 < self.best_cost {
                    self.trace.record(report, true);
                    self.memories[node.index()] = candidate_mem;
                    self.best_cost = report.total_cost();
                    self.improved = true;
                    self.pos += 1;
                } else {
                    // Cost did not improve: undo and move on (local
                    // gradient is non-negative in this direction).
                    self.trace.record(report, false);
                    self.configs.set(node, previous);
                    self.pos += 1;
                }
            }
            Stage::AwaitFinal => {
                self.final_report = Some(report.clone());
                self.stage = Stage::Finished;
            }
            Stage::Final | Stage::Finished => {
                unreachable!("tell without an evaluation in flight")
            }
        }
        Ok(())
    }

    fn finish(&mut self, _env: &WorkflowEnvironment) -> Result<SearchOutcome, AarcError> {
        Ok(SearchOutcome {
            best_configs: self.configs.clone(),
            final_report: self.final_report.take().expect("search completed"),
            trace: std::mem::take(&mut self.trace),
        })
    }
}

impl ConfigurationSearch for MaffGradientDescent {
    fn name(&self) -> &str {
        "MAFF"
    }

    fn strategy(
        &self,
        _env: &WorkflowEnvironment,
        slo_ms: f64,
    ) -> Result<Box<dyn SearchStrategy>, AarcError> {
        validate_slo(slo_ms)?;
        Ok(Box::new(MaffStrategy {
            params: self.params,
            slo_ms,
            trace: SearchTrace::new(),
            memories: Vec::new(),
            configs: ConfigMap::from_vec(Vec::new()),
            best_cost: f64::INFINITY,
            step: self.params.initial_step_mb,
            order: Vec::new(),
            pos: 0,
            improved: false,
            pending: None,
            final_report: None,
            stage: Stage::Base,
        }))
    }
}

impl Default for MaffGradientDescent {
    fn default() -> Self {
        MaffGradientDescent::new(MaffParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aarc_simulator::{FunctionProfile, ProfileSet};
    use aarc_workflow::WorkflowBuilder;

    fn cpu_heavy_env() -> WorkflowEnvironment {
        // A workload like the ML Pipeline: CPU-hungry, memory-light. MAFF
        // cannot drop memory without also dropping the cores it needs, so it
        // stays expensive.
        let mut b = WorkflowBuilder::new("cpuish");
        let a = b.add_function("crunch");
        let c = b.add_function("finish");
        b.add_edge(a, c).unwrap();
        let wf = b.build().unwrap();
        let mut p = ProfileSet::new();
        p.insert(
            a,
            FunctionProfile::builder("crunch")
                .serial_ms(2_000.0)
                .parallel_ms(60_000.0)
                .max_parallelism(8.0)
                .working_set_mb(512.0)
                .mem_floor_mb(256.0)
                .build(),
        );
        p.insert(
            c,
            FunctionProfile::builder("finish")
                .serial_ms(3_000.0)
                .working_set_mb(256.0)
                .build(),
        );
        WorkflowEnvironment::builder(wf, p).build().unwrap()
    }

    #[test]
    fn maff_meets_slo_and_uses_coupled_configs() {
        let env = cpu_heavy_env();
        let slo = 60_000.0;
        let maff = MaffGradientDescent::default();
        let outcome = maff.search(&env, slo).unwrap();
        assert!(outcome.final_report.meets_slo(slo));
        for (_, cfg) in outcome.best_configs.iter() {
            let expected_vcpu = env.space().snap_vcpu(f64::from(cfg.memory.get()) / 1_024.0);
            assert!(
                (cfg.vcpu.get() - expected_vcpu).abs() < 1e-9,
                "MAFF configs must stay coupled: {cfg}"
            );
        }
    }

    #[test]
    fn maff_reduces_cost_from_the_coupled_base() {
        let env = cpu_heavy_env();
        let maff = MaffGradientDescent::default();
        let outcome = maff.search(&env, 60_000.0).unwrap();
        let base = ConfigMap::uniform(
            env.workflow().len(),
            ResourceConfig::coupled(10_240, 1_024.0),
        );
        let base_cost = env.execute(&base).unwrap().total_cost();
        assert!(outcome.best_cost() < base_cost);
    }

    #[test]
    fn maff_sample_budget_is_respected() {
        let env = cpu_heavy_env();
        let params = MaffParams {
            max_samples: 10,
            ..MaffParams::default()
        };
        let maff = MaffGradientDescent::new(params);
        let outcome = maff.search(&env, 60_000.0).unwrap();
        assert!(outcome.trace.sample_count() <= 10);
    }

    #[test]
    fn maff_rejects_invalid_or_impossible_slos() {
        let env = cpu_heavy_env();
        let maff = MaffGradientDescent::default();
        assert!(matches!(
            maff.search(&env, -1.0),
            Err(AarcError::InvalidSlo(_))
        ));
        assert!(matches!(
            maff.search(&env, 100.0),
            Err(AarcError::BaseConfigurationViolatesSlo { .. })
        ));
    }

    #[test]
    fn maff_name() {
        assert_eq!(MaffGradientDescent::default().name(), "MAFF");
    }

    #[test]
    fn tight_slo_keeps_memory_high_because_of_coupling() {
        // With a tight SLO the workflow needs many cores; because MAFF
        // couples cores to memory it is forced to keep large memory too.
        let env = cpu_heavy_env();
        let tight = 25_000.0;
        let maff = MaffGradientDescent::default();
        let outcome = maff.search(&env, tight).unwrap();
        assert!(outcome.final_report.meets_slo(tight));
        let crunch = env.workflow().find("crunch").unwrap();
        assert!(outcome.best_configs.get(crunch).memory.get() >= 4_096);
    }
}
