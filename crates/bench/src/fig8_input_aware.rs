//! Fig. 8 — the input-aware configuration engine (§IV-D) on the Video
//! Analysis workflow: per-request runtime against the SLO threshold and
//! average cost per input size class, for AARC (input-aware) vs the static
//! configurations found by BO and MAFF.

use std::collections::BTreeMap;

use aarc_baselines::methods;
use aarc_core::{
    AarcError, AarcParams, ConfigurationSearch, GraphCentricScheduler, InputAwareEngine,
};
use aarc_simulator::{ConfigMap, EvalService, InputClass};
use aarc_workloads::inputs::request_sequence;
use aarc_workloads::video_analysis;

/// Outcome of serving one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestOutcome {
    /// Request index (x-axis of Fig. 8a).
    pub request: usize,
    /// Input class of the request.
    pub class: InputClass,
    /// End-to-end runtime in ms.
    pub runtime_ms: f64,
    /// Billed cost of the request.
    pub cost: f64,
    /// Whether the request met the workload SLO.
    pub met_slo: bool,
}

/// The Fig. 8 measurements for one method.
#[derive(Debug, Clone, PartialEq)]
pub struct InputAwareResult {
    /// Method name ([`ConfigurationSearch::name`]).
    pub method: String,
    /// Per-request outcomes (Fig. 8a).
    pub requests: Vec<RequestOutcome>,
    /// Average cost per input class (Fig. 8b).
    pub avg_cost_per_class: BTreeMap<InputClass, f64>,
    /// Number of SLO violations across all requests.
    pub slo_violations: usize,
}

impl InputAwareResult {
    fn from_requests(method: &str, requests: Vec<RequestOutcome>) -> Self {
        let mut sums: BTreeMap<InputClass, (f64, usize)> = BTreeMap::new();
        for r in &requests {
            let e = sums.entry(r.class).or_insert((0.0, 0));
            e.0 += r.cost;
            e.1 += 1;
        }
        let avg_cost_per_class = sums
            .into_iter()
            .map(|(c, (sum, n))| (c, sum / n as f64))
            .collect();
        let slo_violations = requests.iter().filter(|r| !r.met_slo).count();
        InputAwareResult {
            method: method.to_owned(),
            requests,
            avg_cost_per_class,
            slo_violations,
        }
    }
}

/// Runs the Fig. 8 experiment with `total_requests` requests cycling through
/// light / middle / heavy inputs.
///
/// AARC uses the input-aware engine (one configuration per class); BO and
/// MAFF use the single static configuration their search finds for the
/// nominal input, as in the paper.
///
/// # Errors
///
/// Propagates search and execution errors.
pub fn run(total_requests: usize) -> Result<Vec<InputAwareResult>, AarcError> {
    let workload = video_analysis();
    let env = workload.env();
    let slo = workload.slo_ms();
    let requests = request_sequence(total_requests);

    let mut results = Vec::new();

    // One shared evaluation service for the whole figure: the per-class
    // input-aware searches interleave on its pool, and the static
    // baselines' searches reuse the same cache.
    let service = EvalService::default();

    // AARC with the input-aware engine plugin.
    let scheduler = GraphCentricScheduler::new(AarcParams::paper());
    let engine =
        InputAwareEngine::build_with(&scheduler, &service, env, slo, workload.input_classes())?;
    let mut aarc_requests = Vec::with_capacity(total_requests);
    for (i, (class, input)) in requests.iter().enumerate() {
        let report = engine.serve(env, *input)?;
        aarc_requests.push(RequestOutcome {
            request: i,
            class: *class,
            runtime_ms: report.makespan_ms(),
            cost: report.total_cost(),
            met_slo: report.meets_slo(slo),
        });
    }
    results.push(InputAwareResult::from_requests(
        scheduler.name(),
        aarc_requests,
    ));

    // Static baselines: one configuration for all inputs.
    for name in ["bo", "maff"] {
        let search = methods::build(name).expect("baselines are registered");
        let outcome = search.search_on(&service.register(env.clone()), slo)?;
        results.push(serve_static(
            search.name(),
            &outcome.best_configs,
            &requests,
            slo,
            env,
        )?);
    }
    Ok(results)
}

fn serve_static(
    method: &str,
    configs: &ConfigMap,
    requests: &[(InputClass, aarc_simulator::InputSpec)],
    slo: f64,
    env: &aarc_simulator::WorkflowEnvironment,
) -> Result<InputAwareResult, AarcError> {
    let mut outcomes = Vec::with_capacity(requests.len());
    for (i, (class, input)) in requests.iter().enumerate() {
        let report = env.execute_with_input(configs, *input)?;
        outcomes.push(RequestOutcome {
            request: i,
            class: *class,
            runtime_ms: report.makespan_ms(),
            cost: report.total_cost(),
            met_slo: report.meets_slo(slo),
        });
    }
    Ok(InputAwareResult::from_requests(method, outcomes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_aware_aarc_never_violates_and_undercuts_static_baselines_on_light_inputs() {
        // A small request count keeps the test tractable; the experiments
        // binary runs the full 300-request sequence.
        let results = run(9).unwrap();
        assert_eq!(results.len(), 3);
        let aarc = &results[0];
        assert_eq!(aarc.method, "AARC");
        assert_eq!(
            aarc.slo_violations, 0,
            "input-aware AARC must stay within the SLO"
        );

        let light_cost_aarc = aarc.avg_cost_per_class[&InputClass::Light];
        for baseline in &results[1..] {
            let light_cost_baseline = baseline.avg_cost_per_class[&InputClass::Light];
            assert!(
                light_cost_aarc < light_cost_baseline,
                "AARC should be cheaper on light inputs than {} ({} vs {})",
                baseline.method,
                light_cost_aarc,
                light_cost_baseline
            );
        }
    }
}
