//! Workflow-level Bayesian optimization over decoupled resources (the
//! baseline of Bilal et al., extended to workflows as in the paper's §II-B
//! and §IV-A).
//!
//! The joint configuration of an `n`-function workflow is encoded as a
//! `2n`-dimensional point in `[0, 1]^{2n}` (per function: normalised vCPU
//! and normalised memory, both snapped onto the paper's discretisation). A
//! Gaussian-process surrogate with an RBF kernel models the penalised cost
//! objective; candidates are scored with expected improvement. The method
//! works, but — as the paper observes (Fig. 3) — the search space grows so
//! large after decoupling that it converges slowly and unstably for
//! workflows.
//!
//! The strategy keeps one surrogate for the whole search. Every sample
//! appends one row to the GP's Cholesky factor, and every acquisition
//! rescales the targets, refits only the target mean and weights, draws its
//! whole candidate pool, and scores it in blocks of candidates (see
//! `gp.rs`). That is exactly the arithmetic of refitting from scratch and
//! scoring one candidate at a time, so results are bit-identical to it.

mod acquisition;
mod gp;
mod kernel;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use aarc_core::driver::{Ask, SearchStrategy};
use aarc_core::search::{validate_slo, ConfigurationSearch, SearchOutcome, SearchTrace};
use aarc_core::AarcError;
use aarc_simulator::{ConfigMap, ResourceConfig, SimResult, WorkflowEnvironment};

use self::acquisition::expected_improvement;
use self::gp::GaussianProcess;
use self::kernel::RbfKernel;

/// Parameters of the Bayesian-optimization baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoParams {
    /// Total number of samples (workflow executions), including the initial
    /// random design. The paper runs 100 rounds for the Chatbot motivation
    /// experiment and ~70 in the evaluation figures.
    pub iterations: usize,
    /// Number of initial quasi-random samples before the surrogate is used.
    pub initial_samples: usize,
    /// Number of random candidates scored by expected improvement per
    /// iteration.
    pub candidates: usize,
    /// RBF kernel length scale over the normalised inputs.
    pub length_scale: f64,
    /// Exploration margin of the expected-improvement acquisition.
    pub xi: f64,
    /// RNG seed (the search is deterministic for a fixed seed).
    pub seed: u64,
}

impl Default for BoParams {
    fn default() -> Self {
        BoParams {
            iterations: 70,
            initial_samples: 8,
            candidates: 256,
            length_scale: 0.25,
            xi: 0.01,
            seed: 2_025,
        }
    }
}

impl BoParams {
    /// The 100-round configuration used by the paper's §II-B motivation
    /// experiment (Fig. 3).
    pub fn motivation() -> Self {
        BoParams {
            iterations: 100,
            ..BoParams::default()
        }
    }
}

/// The Bayesian-optimization baseline.
#[derive(Debug, Clone)]
pub struct BayesianOptimization {
    params: BoParams,
}

impl BayesianOptimization {
    /// Creates the baseline with the given parameters.
    pub fn new(params: BoParams) -> Self {
        BayesianOptimization { params }
    }

    /// The baseline's parameters.
    pub fn params(&self) -> &BoParams {
        &self.params
    }

    /// Penalised objective: billed cost, inflated proportionally to the SLO
    /// excess and to OOM failures. The penalty is *relative to the
    /// candidate's own cost* (as in the original single-function BO
    /// formulation), which is what makes workflow-level BO keep probing the
    /// cheap-but-slow boundary region — the instability the paper observes
    /// in §II-B.
    fn objective(cost: f64, makespan_ms: f64, oom: bool, slo_ms: f64, base_cost: f64) -> f64 {
        let mut obj = cost;
        if makespan_ms > slo_ms {
            obj *= 1.0 + 2.0 * (makespan_ms / slo_ms - 1.0);
        }
        if oom {
            obj += base_cost;
        }
        obj
    }
}

/// Decodes a normalised `[0, 1]^{2n}` point into a per-function
/// configuration map, shared by the method facade and the strategy.
fn decode(env: &WorkflowEnvironment, point: &[f64]) -> ConfigMap {
    let space = env.space();
    let n = env.workflow().len();
    let mut configs = Vec::with_capacity(n);
    for f in 0..n {
        let cpu_norm = point[2 * f].clamp(0.0, 1.0);
        let mem_norm = point[2 * f + 1].clamp(0.0, 1.0);
        let vcpu = space.snap_vcpu(space.min_vcpu + cpu_norm * (space.max_vcpu - space.min_vcpu));
        let mem_range = f64::from(space.max_memory_mb - space.min_memory_mb);
        let mem = space.snap_memory(space.min_memory_mb + (mem_norm * mem_range).round() as u32);
        configs.push(ResourceConfig::new(vcpu, mem));
    }
    ConfigMap::from_vec(configs)
}

/// Where the BO strategy is in its protocol.
enum Stage {
    /// Probe the over-provisioned base configuration.
    Base,
    /// The initial space-filling design is in flight as one batch.
    InitDesign,
    /// Surrogate-guided sequential probes (a candidate is in flight iff
    /// `pending` is set).
    Surrogate,
    /// Search complete.
    Finished,
}

/// The ask/tell form of workflow-level BO: one base probe, the initial
/// random design as a single index-seeded batch, then strictly sequential
/// surrogate-guided probes (every point depends on all previous
/// observations).
struct BoStrategy {
    params: BoParams,
    slo_ms: f64,
    rng: StdRng,
    trace: SearchTrace,
    total_budget: usize,
    base_cost: f64,
    /// The surrogate over every sample so far, grown one sample at a time.
    gp: GaussianProcess,
    /// The penalised objective of every sample, in `gp` order.
    ys: Vec<f64>,
    init_points: Vec<Vec<f64>>,
    init_configs: Vec<ConfigMap>,
    pending: Option<(Vec<f64>, ConfigMap)>,
    best_feasible_cost: f64,
    best_configs: Option<ConfigMap>,
    // The outcome carries the report of the winning sample itself: under
    // runtime jitter the batched initial design runs with per-candidate
    // derived seeds, so re-simulating the winner under a different seed
    // could contradict the feasibility decision that selected it.
    best_report: Option<SimResult>,
    stage: Stage,
}

impl BoStrategy {
    /// Folds one observed sample into the surrogate's dataset and the
    /// best-so-far tracking.
    fn observe_sample(&mut self, point: &[f64], configs: ConfigMap, report: &SimResult) {
        let feasible = report.meets_slo(self.slo_ms) && !report.any_oom();
        self.trace.record(report, feasible);
        let obj = BayesianOptimization::objective(
            report.total_cost(),
            report.makespan_ms(),
            report.any_oom(),
            self.slo_ms,
            self.base_cost,
        );
        self.gp.push(point);
        self.ys.push(obj);
        if feasible && report.total_cost() < self.best_feasible_cost {
            self.best_feasible_cost = report.total_cost();
            self.best_configs = Some(configs);
            self.best_report = Some(report.clone());
        }
    }

    /// Maximises expected improvement over a random candidate pool
    /// (normalising the objective keeps the GP well-conditioned).
    fn next_point(&mut self) -> Vec<f64> {
        let dim = self.gp.dim();
        let y_scale = self.ys.iter().cloned().fold(f64::MIN, f64::max).max(1e-9);
        let ys_norm: Vec<f64> = self.ys.iter().map(|y| y / y_scale).collect();
        self.gp.set_targets(&ys_norm);
        let best_norm = ys_norm.iter().cloned().fold(f64::INFINITY, f64::min);
        // Scoring consumes no randomness, so the whole pool is drawn first,
        // in the order of scoring one candidate at a time: the fallback
        // point, then the candidates.
        let mut pool: Vec<f64> = (0..dim).map(|_| self.rng.gen::<f64>()).collect();
        if self.params.candidates > 0 {
            let incumbent = self.gp.point(
                ys_norm
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite objectives"))
                    .map(|(i, _)| i)
                    .unwrap_or(0),
            );
            pool.reserve(self.params.candidates * dim);
            for c in 0..self.params.candidates {
                if c % 4 == 0 {
                    // A quarter of the pool are local perturbations of the
                    // incumbent, which helps late-stage refinement.
                    pool.extend(
                        incumbent
                            .iter()
                            .map(|v| (v + self.rng.gen_range(-0.1..0.1)).clamp(0.0, 1.0)),
                    );
                } else {
                    pool.extend((0..dim).map(|_| self.rng.gen::<f64>()));
                }
            }
        }
        // The first strict maximum wins; pool point 0 is the fallback.
        let mut best = 0;
        let mut best_ei = f64::NEG_INFINITY;
        for (c, (mean, var)) in self.gp.predict(&pool[dim..]).into_iter().enumerate() {
            let ei = expected_improvement(mean, var, best_norm, self.params.xi);
            if ei > best_ei {
                best_ei = ei;
                best = c + 1;
            }
        }
        pool[best * dim..][..dim].to_vec()
    }
}

impl SearchStrategy for BoStrategy {
    fn name(&self) -> &str {
        "BO"
    }

    fn ask(&mut self, env: &WorkflowEnvironment) -> Result<Ask, AarcError> {
        match self.stage {
            Stage::Base => Ok(Ask::Probe(env.base_configs())),
            Stage::InitDesign => Ok(Ask::Batch(self.init_configs.clone())),
            Stage::Surrogate => {
                if self.trace.sample_count() >= self.total_budget {
                    self.stage = Stage::Finished;
                    return Ok(Ask::Done);
                }
                let point = self.next_point();
                let configs = decode(env, &point);
                self.pending = Some((point, configs.clone()));
                Ok(Ask::Probe(configs))
            }
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
                let dim = env.workflow().len() * 2;
                self.base_cost = base_report.total_cost();
                self.gp.push(&vec![1.0; dim]);
                self.ys = vec![BayesianOptimization::objective(
                    self.base_cost,
                    base_report.makespan_ms(),
                    false,
                    self.slo_ms,
                    self.base_cost,
                )];
                self.best_feasible_cost = self.base_cost;
                self.best_configs = Some(env.base_configs());
                self.best_report = Some(base_report.clone());

                // Initial space-filling design: uniform random points. They
                // are independent of any observation, so they are drawn up
                // front (the RNG stream is identical to a sequential loop,
                // which never consumed randomness between draws) and asked
                // as one batch.
                let n_init = self
                    .total_budget
                    .min(self.params.initial_samples)
                    .saturating_sub(1);
                self.init_points = (0..n_init)
                    .map(|_| (0..dim).map(|_| self.rng.gen::<f64>()).collect())
                    .collect();
                self.init_configs = self.init_points.iter().map(|p| decode(env, p)).collect();
                self.stage = if self.init_points.is_empty() {
                    Stage::Surrogate
                } else {
                    Stage::InitDesign
                };
            }
            Stage::InitDesign => {
                let points = std::mem::take(&mut self.init_points);
                let configs = std::mem::take(&mut self.init_configs);
                for ((point, config), report) in points.iter().zip(configs).zip(results) {
                    self.observe_sample(point, config, report);
                }
                self.stage = Stage::Surrogate;
            }
            Stage::Surrogate => {
                let (point, configs) = self.pending.take().expect("a probe is in flight");
                self.observe_sample(&point, configs, &results[0]);
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

impl ConfigurationSearch for BayesianOptimization {
    fn name(&self) -> &str {
        "BO"
    }

    fn strategy(
        &self,
        env: &WorkflowEnvironment,
        slo_ms: f64,
    ) -> Result<Box<dyn SearchStrategy>, AarcError> {
        validate_slo(slo_ms)?;
        Ok(Box::new(BoStrategy {
            params: self.params,
            slo_ms,
            rng: StdRng::seed_from_u64(self.params.seed),
            trace: SearchTrace::new(),
            total_budget: self.params.iterations.max(2),
            base_cost: 0.0,
            gp: GaussianProcess::new(
                RbfKernel::new(1.0, self.params.length_scale, 1e-6),
                env.workflow().len() * 2,
            ),
            ys: Vec::new(),
            init_points: Vec::new(),
            init_configs: Vec::new(),
            pending: None,
            best_feasible_cost: f64::INFINITY,
            best_configs: None,
            best_report: None,
            stage: Stage::Base,
        }))
    }
}

impl Default for BayesianOptimization {
    fn default() -> Self {
        BayesianOptimization::new(BoParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aarc_simulator::{FunctionProfile, ProfileSet};
    use aarc_workflow::WorkflowBuilder;

    fn small_env() -> WorkflowEnvironment {
        let mut b = WorkflowBuilder::new("bo-test");
        let a = b.add_function("work");
        let c = b.add_function("save");
        b.add_edge(a, c).unwrap();
        let wf = b.build().unwrap();
        let mut p = ProfileSet::new();
        p.insert(
            a,
            FunctionProfile::builder("work")
                .serial_ms(2_000.0)
                .parallel_ms(20_000.0)
                .max_parallelism(4.0)
                .working_set_mb(512.0)
                .mem_floor_mb(256.0)
                .build(),
        );
        p.insert(
            c,
            FunctionProfile::builder("save")
                .serial_ms(2_000.0)
                .working_set_mb(256.0)
                .build(),
        );
        WorkflowEnvironment::builder(wf, p).build().unwrap()
    }

    fn fast_params() -> BoParams {
        BoParams {
            iterations: 20,
            initial_samples: 5,
            candidates: 64,
            ..BoParams::default()
        }
    }

    #[test]
    fn bo_finds_a_cheaper_feasible_configuration() {
        let env = small_env();
        let slo = 60_000.0;
        let bo = BayesianOptimization::new(fast_params());
        let outcome = bo.search(&env, slo).unwrap();
        let base_cost = env.execute(&env.base_configs()).unwrap().total_cost();
        assert!(outcome.final_report.meets_slo(slo));
        assert!(outcome.best_cost() < base_cost);
        assert_eq!(outcome.trace.sample_count(), 20);
    }

    #[test]
    fn bo_is_deterministic_for_a_seed() {
        let env = small_env();
        let bo = BayesianOptimization::new(fast_params());
        let a = bo.search(&env, 60_000.0).unwrap();
        let b = bo.search(&env, 60_000.0).unwrap();
        assert_eq!(a.best_cost(), b.best_cost());
        assert_eq!(a.trace.cost_series(), b.trace.cost_series());
    }

    #[test]
    fn different_seeds_explore_differently() {
        let env = small_env();
        let a = BayesianOptimization::new(fast_params())
            .search(&env, 60_000.0)
            .unwrap();
        let b = BayesianOptimization::new(BoParams {
            seed: 999,
            ..fast_params()
        })
        .search(&env, 60_000.0)
        .unwrap();
        assert_ne!(a.trace.cost_series(), b.trace.cost_series());
    }

    #[test]
    fn bo_rejects_invalid_and_impossible_slos() {
        let env = small_env();
        let bo = BayesianOptimization::new(fast_params());
        assert!(matches!(
            bo.search(&env, f64::NAN),
            Err(AarcError::InvalidSlo(_))
        ));
        assert!(matches!(
            bo.search(&env, 1.0),
            Err(AarcError::BaseConfigurationViolatesSlo { .. })
        ));
    }

    #[test]
    fn decode_snaps_onto_the_grid_and_respects_bounds() {
        let env = small_env();

        let low = decode(&env, &[0.0, 0.0, 0.0, 0.0]);
        let high = decode(&env, &[1.0, 1.0, 1.0, 1.0]);
        for (_, c) in low.iter() {
            assert_eq!(c, env.space().min_config());
        }
        for (_, c) in high.iter() {
            assert_eq!(c, env.space().max_config());
        }
        // Out-of-range coordinates are clamped rather than panicking.
        let clamped = decode(&env, &[-3.0, 7.0, 0.5, 0.5]);
        assert!(env
            .space()
            .contains(clamped.get(aarc_workflow::NodeId::new(0))));
    }

    #[test]
    fn objective_penalises_violations_and_oom() {
        let feasible = BayesianOptimization::objective(100.0, 50.0, false, 100.0, 1_000.0);
        let slow = BayesianOptimization::objective(100.0, 150.0, false, 100.0, 1_000.0);
        let oom = BayesianOptimization::objective(100.0, 50.0, true, 100.0, 1_000.0);
        assert_eq!(feasible, 100.0);
        assert!(slow > feasible, "slo excess must inflate the objective");
        assert!(oom > feasible + 999.0, "oom must add the base-cost penalty");
    }

    /// `cost_series()` bits and best-cost bits of BO on `small_env` at pool
    /// sizes the compare goldens miss (they score the default 256, a whole
    /// number of scoring blocks), recorded from the one-candidate-at-a-time
    /// scorer. 37 candidates leave a partial last block, and a length scale
    /// of 1.0 lets incumbent perturbations win acquisitions (at the default
    /// 0.25 they never do on this workflow). 0 candidates score nothing, so
    /// every surrogate probe is the pool's fallback draw.
    #[test]
    fn bo_matches_recorded_searches_at_unaligned_and_empty_pools() {
        const POOL_37: [u64; 30] = [
            0x4100e00000000000,
            0x40facccccccccccd,
            0x40f4b1999999999a,
            0x40ec666666666667,
            0x40f7166666666666,
            0x4102d9999999999b,
            0x40fa677777777778,
            0x40f7140000000000,
            0x40eb533333333334,
            0x40effdf6b0df6b0e,
            0x40ed99999999999a,
            0x40d8d5f15f15f15f,
            0x40f052fab4152fab,
            0x40ec0e2856e2856e,
            0x40e6955555555556,
            0x40dd800000000001,
            0x40f6940000000000,
            0x40f9673333333332,
            0x40ed980000000000,
            0x40f15b3333333334,
            0x40e489c28f5c28f6,
            0x40eb2b3333333334,
            0x40f68208934b69ae,
            0x40e018dc8dc8dc8e,
            0x40ea008e78356d14,
            0x410b84888888888a,
            0x41084d5555555556,
            0x40f005999999999a,
            0x410b9fdac37dac37,
            0x40f098cccccccccd,
        ];
        const POOL_0: [u64; 30] = [
            0x4100e00000000000,
            0x40facccccccccccd,
            0x40f4b1999999999a,
            0x40ec666666666667,
            0x40f7166666666666,
            0x4102d9999999999b,
            0x40fa677777777778,
            0x40f7140000000000,
            0x410fdb3333333334,
            0x40e91ecccccccccd,
            0x40fbc59999999999,
            0x40f360cccccccccd,
            0x40eb533333333334,
            0x40f07d999999999a,
            0x40f2d26666666666,
            0x40f914cccccccccd,
            0x40e84ba83a83a83b,
            0x40e76ca5ca5ca5ca,
            0x40ffd9999999999b,
            0x40f7de6666666667,
            0x40f8f00000000000,
            0x410075999999999a,
            0x40eaee6666666667,
            0x40e77ccccccccccc,
            0x40f2c80000000000,
            0x40ef4ccccccccccd,
            0x40f220cccccccccc,
            0x40eb8e6666666666,
            0x40f7666666666667,
            0x40e624cccccccccd,
        ];
        let env = small_env();
        for (candidates, length_scale, series, best) in [
            (37, 1.0, POOL_37, 0x40d8d5f15f15f15f),
            (0, 0.25, POOL_0, 0x40e624cccccccccd),
        ] {
            let params = BoParams {
                candidates,
                iterations: 30,
                length_scale,
                ..BoParams::default()
            };
            let outcome = BayesianOptimization::new(params)
                .search(&env, 60_000.0)
                .unwrap();
            let bits: Vec<u64> = outcome
                .trace
                .cost_series()
                .iter()
                .map(|c| c.to_bits())
                .collect();
            assert_eq!(bits, series, "cost series at {candidates} candidates");
            assert_eq!(
                outcome.best_cost().to_bits(),
                best,
                "best cost at {candidates} candidates"
            );
        }
    }

    #[test]
    fn bo_name() {
        assert_eq!(BayesianOptimization::default().name(), "BO");
    }
}
