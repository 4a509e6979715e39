//! Figs. 5, 6 and 7 — search efficiency of AARC vs BO vs MAFF on the three
//! workflows: total sampling runtime and cost (Fig. 5) and the per-sample
//! runtime / cost series (Figs. 6 and 7).

use aarc_baselines::methods;
use aarc_core::{AarcError, ConfigurationSearch};
use aarc_simulator::EvalService;
use aarc_workloads::{paper_workloads, Workload};

use crate::FIGURE_METHODS;

/// Search-efficiency measurements of one (workload, method) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchEfficiency {
    /// Workload name.
    pub workload: String,
    /// Method name ([`ConfigurationSearch::name`]).
    pub method: String,
    /// Number of samples (workflow executions) the search performed.
    pub samples: usize,
    /// Total sampling wall-clock runtime in seconds (Fig. 5a).
    pub total_runtime_s: f64,
    /// Total sampling cost (Fig. 5b).
    pub total_cost: f64,
    /// Per-sample runtime series in ms (Fig. 6).
    pub runtime_series_ms: Vec<f64>,
    /// Per-sample cost series (Fig. 7).
    pub cost_series: Vec<f64>,
    /// Cost of the final configuration the method settled on.
    pub final_cost: f64,
    /// Runtime of the final configuration in ms.
    pub final_runtime_ms: f64,
    /// Whether the final configuration meets the workload's SLO.
    pub final_meets_slo: bool,
}

/// Runs one method on one workload and collects its efficiency metrics,
/// over a private single-threaded evaluation service.
///
/// # Errors
///
/// Propagates search errors.
pub fn measure(
    workload: &Workload,
    method: &dyn ConfigurationSearch,
) -> Result<SearchEfficiency, AarcError> {
    measure_on(&EvalService::default(), workload, method)
}

/// [`measure`] over a shared [`EvalService`]: the workload is registered as
/// a handle and the search submits through the shared pool and
/// fingerprint-keyed cache. Results are bit-identical to a private service.
///
/// # Errors
///
/// Propagates search errors.
pub fn measure_on(
    service: &EvalService,
    workload: &Workload,
    method: &dyn ConfigurationSearch,
) -> Result<SearchEfficiency, AarcError> {
    let outcome = method.search_on(&service.register(workload.env().clone()), workload.slo_ms())?;
    Ok(SearchEfficiency {
        workload: workload.name().to_owned(),
        method: method.name().to_owned(),
        samples: outcome.trace.sample_count(),
        total_runtime_s: outcome.trace.total_runtime_ms() / 1_000.0,
        total_cost: outcome.trace.total_cost(),
        runtime_series_ms: outcome.trace.runtime_series(),
        cost_series: outcome.trace.cost_series(),
        final_cost: outcome.final_report.total_cost(),
        final_runtime_ms: outcome.final_report.makespan_ms(),
        final_meets_slo: outcome.final_report.meets_slo(workload.slo_ms()),
    })
}

/// Runs all three methods on all three paper workloads (the full Fig. 5/6/7
/// matrix).
///
/// # Errors
///
/// Propagates search errors.
pub fn run_all() -> Result<Vec<SearchEfficiency>, AarcError> {
    // One shared service across the whole matrix: every (workload, method)
    // pair draws from the same pool, and repeated simulations (e.g. the
    // base configuration per workload) hit the shared cache across methods.
    let service = EvalService::default();
    let mut out = Vec::new();
    for workload in paper_workloads() {
        for name in FIGURE_METHODS {
            let method = methods::build(name).expect("figure methods are registered");
            out.push(measure_on(&service, &workload, &*method)?);
        }
    }
    Ok(out)
}

/// Relative reduction of `ours` against `baseline` (e.g. `0.85` = 85 %
/// lower).
pub fn reduction(ours: f64, baseline: f64) -> f64 {
    if baseline <= 0.0 {
        return 0.0;
    }
    1.0 - ours / baseline
}

#[cfg(test)]
mod tests {
    use super::*;
    use aarc_workloads::chatbot;

    fn measure_named(workload: &Workload, name: &str) -> SearchEfficiency {
        measure(workload, &*methods::build(name).unwrap()).unwrap()
    }

    #[test]
    fn aarc_beats_bo_on_chatbot_final_cost_with_comparable_search_effort() {
        let wl = chatbot();
        let aarc = measure_named(&wl, "aarc");
        let bo = measure_named(&wl, "bo");
        assert!(aarc.final_meets_slo);
        assert!(bo.final_meets_slo);
        // On the Chatbot workload (serial functions near the SLO) the two
        // methods spend a similar sampling budget; AARC's advantage is the
        // quality of the found configuration. The large search-runtime gap
        // of the paper shows up on Video Analysis (see the end-to-end test
        // `aarc_search_is_cheaper_and_faster_than_bo_on_the_heavy_workload`).
        // The ratio is fully deterministic: executions carry per-candidate
        // seeds derived from the sample index (see
        // `aarc_simulator::derive_seed`), so the measurement no longer
        // depends on RNG stream order or thread count — only on the fixed
        // candidate sequence BO's vendored-rand stream draws (ratio 1.813 at
        // the time of writing, vs 1.6 with crates.io rand). The bound keeps
        // a small margin over that pinned value.
        assert!(
            aarc.total_runtime_s < 1.9 * bo.total_runtime_s,
            "AARC search effort should stay comparable to BO ({} vs {})",
            aarc.total_runtime_s,
            bo.total_runtime_s
        );
        assert!(
            aarc.final_cost < bo.final_cost,
            "AARC final config must be cheaper than BO ({} vs {})",
            aarc.final_cost,
            bo.final_cost
        );
    }

    #[test]
    fn aarc_beats_maff_final_cost_on_chatbot() {
        let wl = chatbot();
        let aarc = measure_named(&wl, "aarc");
        let maff = measure_named(&wl, "maff");
        assert!(maff.final_meets_slo);
        assert!(
            aarc.final_cost < maff.final_cost,
            "AARC ({}) must undercut MAFF ({})",
            aarc.final_cost,
            maff.final_cost
        );
    }

    #[test]
    fn reduction_helper() {
        assert!((reduction(15.0, 100.0) - 0.85).abs() < 1e-12);
        assert_eq!(reduction(5.0, 0.0), 0.0);
    }

    #[test]
    fn measurements_carry_full_series() {
        let wl = chatbot();
        let aarc = measure_named(&wl, "aarc");
        assert_eq!(aarc.method, "AARC");
        assert_eq!(aarc.samples, aarc.runtime_series_ms.len());
        assert_eq!(aarc.samples, aarc.cost_series.len());
        assert!(aarc.samples > 3);
    }
}
