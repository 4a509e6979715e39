//! Uniform random search over the decoupled configuration space.
//!
//! Not part of the paper's comparison, but a useful control for the
//! ablation benches: it shares BO's search space without any surrogate
//! model, which isolates how much the Gaussian process actually contributes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use aarc_core::driver::{Ask, SearchStrategy};
use aarc_core::search::{validate_slo, ConfigurationSearch, SearchOutcome, SearchTrace};
use aarc_core::AarcError;
use aarc_simulator::{ConfigMap, ResourceConfig, SimResult, WorkflowEnvironment};

/// Parameters of the random-search control.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomSearchParams {
    /// Number of random samples (workflow executions).
    pub iterations: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomSearchParams {
    fn default() -> Self {
        RandomSearchParams {
            iterations: 70,
            seed: 7,
        }
    }
}

/// The random-search control method.
#[derive(Debug, Clone)]
pub struct RandomSearch {
    params: RandomSearchParams,
}

impl RandomSearch {
    /// Creates the control with the given parameters.
    pub fn new(params: RandomSearchParams) -> Self {
        RandomSearch { params }
    }
}

/// Where the random-search strategy is in its two-step protocol.
enum Stage {
    /// Probe the over-provisioned base configuration.
    Base,
    /// The full random design is in flight as one batch.
    Design,
    /// All samples observed.
    Finished,
}

/// The ask/tell form of random search: one base probe, then the entire
/// design as a single index-seeded batch — candidates fan out over the
/// shared worker pool with seeds derived from their index, keeping results
/// thread-count and interleaving invariant.
struct RandomStrategy {
    params: RandomSearchParams,
    slo_ms: f64,
    rng: StdRng,
    trace: SearchTrace,
    candidates: Vec<ConfigMap>,
    best_cost: f64,
    best_configs: Option<ConfigMap>,
    // The outcome carries the report of the winning sample itself: under
    // runtime jitter every batched candidate ran with its own derived
    // seed, so re-simulating the winner under a different seed could
    // contradict the feasibility decision that selected it.
    best_report: Option<SimResult>,
    stage: Stage,
}

impl SearchStrategy for RandomStrategy {
    fn name(&self) -> &str {
        "Random"
    }

    fn ask(&mut self, env: &WorkflowEnvironment) -> Result<Ask, AarcError> {
        match self.stage {
            Stage::Base => Ok(Ask::Probe(env.base_configs())),
            Stage::Design => Ok(Ask::Batch(self.candidates.clone())),
            Stage::Finished => Ok(Ask::Done),
        }
    }

    fn tell(&mut self, env: &WorkflowEnvironment, results: &[SimResult]) -> Result<(), AarcError> {
        match self.stage {
            Stage::Base => {
                let base_report = &results[0];
                self.trace.record(base_report, true);
                if base_report.any_oom() {
                    return Err(AarcError::BaseConfigurationOom);
                }
                if !base_report.meets_slo(self.slo_ms) {
                    return Err(AarcError::BaseConfigurationViolatesSlo {
                        makespan_ms: base_report.makespan_ms(),
                        slo_ms: self.slo_ms,
                    });
                }
                self.best_cost = base_report.total_cost();
                self.best_configs = Some(env.base_configs());
                self.best_report = Some(base_report.clone());

                // Every sample is independent, so the whole design is drawn
                // up front (same RNG stream as a sequential loop) and asked
                // as one batch.
                let space = *env.space();
                let remaining = self.params.iterations.max(2) - 1;
                self.candidates = (0..remaining)
                    .map(|_| {
                        ConfigMap::from_vec(
                            (0..env.workflow().len())
                                .map(|_| {
                                    let vcpu = space.snap_vcpu(
                                        self.rng.gen_range(space.min_vcpu..=space.max_vcpu),
                                    );
                                    let mem = space.snap_memory(
                                        self.rng
                                            .gen_range(space.min_memory_mb..=space.max_memory_mb),
                                    );
                                    ResourceConfig::new(vcpu, mem)
                                })
                                .collect(),
                        )
                    })
                    .collect();
                self.stage = Stage::Design;
            }
            Stage::Design => {
                for (configs, report) in std::mem::take(&mut self.candidates)
                    .into_iter()
                    .zip(results)
                {
                    let feasible = report.meets_slo(self.slo_ms) && !report.any_oom();
                    self.trace.record(report, feasible);
                    if feasible && report.total_cost() < self.best_cost {
                        self.best_cost = report.total_cost();
                        self.best_configs = Some(configs);
                        self.best_report = Some(report.clone());
                    }
                }
                self.stage = Stage::Finished;
            }
            Stage::Finished => unreachable!("tell without an evaluation in flight"),
        }
        Ok(())
    }

    fn finish(&mut self, _env: &WorkflowEnvironment) -> Result<SearchOutcome, AarcError> {
        Ok(SearchOutcome {
            best_configs: self.best_configs.take().expect("search completed"),
            final_report: self.best_report.take().expect("search completed"),
            trace: std::mem::take(&mut self.trace),
        })
    }
}

impl ConfigurationSearch for RandomSearch {
    fn name(&self) -> &str {
        "Random"
    }

    fn strategy(
        &self,
        _env: &WorkflowEnvironment,
        slo_ms: f64,
    ) -> Result<Box<dyn SearchStrategy>, AarcError> {
        validate_slo(slo_ms)?;
        Ok(Box::new(RandomStrategy {
            params: self.params,
            slo_ms,
            rng: StdRng::seed_from_u64(self.params.seed),
            trace: SearchTrace::new(),
            candidates: Vec::new(),
            best_cost: f64::INFINITY,
            best_configs: None,
            best_report: None,
            stage: Stage::Base,
        }))
    }
}

impl Default for RandomSearch {
    fn default() -> Self {
        RandomSearch::new(RandomSearchParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aarc_simulator::{FunctionProfile, ProfileSet, WorkflowEnvironment};
    use aarc_workflow::WorkflowBuilder;

    fn env() -> WorkflowEnvironment {
        let mut b = WorkflowBuilder::new("rand-test");
        let a = b.add_function("a");
        let wf = b.build().unwrap();
        let mut p = ProfileSet::new();
        p.insert(
            a,
            FunctionProfile::builder("a")
                .serial_ms(1_000.0)
                .parallel_ms(5_000.0)
                .max_parallelism(4.0)
                .working_set_mb(512.0)
                .mem_floor_mb(256.0)
                .build(),
        );
        WorkflowEnvironment::builder(wf, p).build().unwrap()
    }

    #[test]
    fn random_search_never_returns_an_slo_violation() {
        let env = env();
        let slo = 30_000.0;
        let rs = RandomSearch::new(RandomSearchParams {
            iterations: 15,
            seed: 3,
        });
        let outcome = rs.search(&env, slo).unwrap();
        assert!(outcome.final_report.meets_slo(slo));
        assert_eq!(outcome.trace.sample_count(), 15);
    }

    #[test]
    fn random_search_is_deterministic_per_seed() {
        let env = env();
        let rs = RandomSearch::default();
        let a = rs.search(&env, 30_000.0).unwrap();
        let b = rs.search(&env, 30_000.0).unwrap();
        assert_eq!(a.best_cost(), b.best_cost());
    }

    #[test]
    fn random_search_name() {
        assert_eq!(RandomSearch::default().name(), "Random");
    }

    #[test]
    fn final_report_is_the_winning_sample_even_under_jitter() {
        // With runtime jitter every batched candidate runs under its own
        // derived seed, so the outcome must carry the winning sample's
        // report verbatim — re-simulating under another seed could flip the
        // feasibility decision that selected it.
        let base = env();
        let jittery =
            WorkflowEnvironment::builder(base.workflow().clone(), base.profiles().clone())
                .cluster(aarc_simulator::ClusterSpec::paper_testbed_with_jitter(0.2))
                .build()
                .unwrap();
        let slo = 30_000.0;
        let rs = RandomSearch::new(RandomSearchParams {
            iterations: 20,
            seed: 11,
        });
        let outcome = rs.search(&jittery, slo).unwrap();
        let best_accepted_cost = outcome
            .trace
            .samples()
            .iter()
            .filter(|s| s.accepted)
            .map(|s| s.cost)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(outcome.final_report.total_cost(), best_accepted_cost);
        assert!(outcome.final_report.meets_slo(slo));
    }
}
