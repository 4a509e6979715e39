//! The `aarc compare` report: per-method cost, SLO attainment and search
//! effort, serializable as JSON (full detail, including per-function rows
//! via [`aarc_core::report::ConfigurationReport`]) or CSV (totals only).

use serde::Serialize;

use aarc_core::report::ConfigurationReport;
use aarc_core::{AarcError, ConfigurationSearch};
use aarc_simulator::{EvalService, EvalStats};
use aarc_workloads::Workload;

/// RFC 4180 quoting for a CSV field: wrap in quotes when the value contains
/// a comma, quote or line break, doubling embedded quotes. Shared with the
/// sweep report's CSV rendering.
pub(crate) fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// One method's outcome on a scenario.
#[derive(Debug, Clone, Serialize)]
pub struct MethodResult {
    /// CLI method name (`aarc`, `bo`, `maff`, `random`).
    pub method: String,
    /// The engine's display name ("AARC", "BO", ...).
    pub display_name: String,
    /// Cost of the best configuration found.
    pub final_cost: f64,
    /// End-to-end runtime of the best configuration, ms.
    pub final_makespan_ms: f64,
    /// Whether the best configuration meets the SLO.
    pub meets_slo: bool,
    /// Number of sampled workflow executions the search spent.
    pub samples: usize,
    /// Total billed cost of all sampled executions (Fig. 5b).
    pub search_cost: f64,
    /// Total runtime of all sampled executions, ms (Fig. 5a).
    pub search_runtime_ms: f64,
    /// Per-function configuration breakdown.
    pub configuration: ConfigurationReport,
}

/// Evaluation-engine statistics of one comparison run, accumulated across
/// all methods (they share one engine, so e.g. the base configuration is
/// simulated once and answered from the cache three times).
///
/// Deliberately excludes the thread count: the numbers are invariant under
/// it, which is what keeps `aarc compare` output byte-identical for
/// `--threads 1` and `--threads 8`.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct EvalSummary {
    /// Simulations actually executed (cache misses).
    pub simulations: u64,
    /// Candidate evaluations answered from the memo-cache.
    pub cache_hits: u64,
    /// Candidate evaluations that required a simulation.
    pub cache_misses: u64,
    /// Fraction of evaluations served from the cache.
    pub cache_hit_rate: f64,
}

impl From<EvalStats> for EvalSummary {
    fn from(stats: EvalStats) -> Self {
        EvalSummary {
            simulations: stats.simulations(),
            cache_hits: stats.cache_hits,
            cache_misses: stats.cache_misses,
            cache_hit_rate: stats.hit_rate(),
        }
    }
}

/// The full comparison of every method on one scenario.
#[derive(Debug, Clone, Serialize)]
pub struct CompareReport {
    /// Scenario name.
    pub scenario: String,
    /// The SLO every method searched under, ms.
    pub slo_ms: f64,
    /// Number of workflow functions.
    pub functions: usize,
    /// Shared evaluation-service statistics over the whole comparison.
    pub eval: EvalSummary,
    /// One entry per method, in [`aarc_baselines::methods::NAMES`] order.
    pub methods: Vec<MethodResult>,
}

impl CompareReport {
    /// Runs every `(name, method)` pair on the workload through one
    /// caller-provided shared [`EvalService`] (one handle shared by all
    /// methods), so repeated candidate simulations are answered from the
    /// memo-cache. Methods run sequentially, which keeps the statistics —
    /// and therefore the report bytes — identical to the historical
    /// per-scenario engine.
    ///
    /// # Errors
    ///
    /// Propagates the first search failure.
    pub fn run_on(
        service: &EvalService,
        workload: &Workload,
        methods: Vec<(&'static str, Box<dyn ConfigurationSearch>)>,
        slo_ms: f64,
    ) -> Result<Self, AarcError> {
        let handle = service.register(workload.env().clone());
        let env = handle.env();
        let mut results = Vec::with_capacity(methods.len());
        for (cli_name, method) in methods {
            let outcome = method.search_on(&handle, slo_ms)?;
            results.push(MethodResult {
                method: cli_name.to_owned(),
                display_name: method.name().to_owned(),
                final_cost: outcome.best_cost(),
                final_makespan_ms: outcome.best_runtime_ms(),
                meets_slo: outcome.final_report.meets_slo(slo_ms),
                samples: outcome.trace.sample_count(),
                search_cost: outcome.trace.total_cost(),
                search_runtime_ms: outcome.trace.total_runtime_ms(),
                configuration: ConfigurationReport::new(
                    env,
                    &outcome.best_configs,
                    &outcome.final_report,
                    Some(slo_ms),
                ),
            });
        }
        Ok(CompareReport {
            scenario: workload.name().to_owned(),
            slo_ms,
            functions: workload.len(),
            eval: handle.stats().into(),
            methods: results,
        })
    }

    /// Renders the totals as CSV (header + one row per method).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "scenario,method,final_cost,final_makespan_ms,meets_slo,samples,search_cost,search_runtime_ms\n",
        );
        for m in &self.methods {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{}\n",
                csv_field(&self.scenario),
                m.method,
                m.final_cost,
                m.final_makespan_ms,
                m.meets_slo,
                m.samples,
                m.search_cost,
                m.search_runtime_ms
            ));
        }
        out
    }

    /// Renders a compact fixed-width text table.
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "comparison on `{}` ({} functions, slo {:.1} ms)\n{:<8} {:>14} {:>16} {:>9} {:>8} {:>16}\n",
            self.scenario, self.functions, self.slo_ms, "method", "final cost", "makespan (ms)", "slo", "samples", "search cost"
        );
        for m in &self.methods {
            out.push_str(&format!(
                "{:<8} {:>14.1} {:>16.1} {:>9} {:>8} {:>16.1}\n",
                m.method,
                m.final_cost,
                m.final_makespan_ms,
                if m.meets_slo { "met" } else { "VIOLATED" },
                m.samples,
                m.search_cost
            ));
        }
        out.push_str(&format!(
            "eval: {} simulations, {} cache hits ({:.1}% hit rate)\n",
            self.eval.simulations,
            self.eval.cache_hits,
            self.eval.cache_hit_rate * 100.0
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aarc_baselines::methods;

    #[test]
    fn csv_fields_with_separators_are_quoted() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a, b"), "\"a, b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_field("two\nlines"), "\"two\nlines\"");
    }

    #[test]
    fn compare_runs_all_methods_and_serializes() {
        let spec = aarc_spec::synthetic_spec(aarc_spec::SynthParams {
            seed: 11,
            layers: 2,
            max_width: 2,
            ..aarc_spec::SynthParams::default()
        });
        let workload = aarc_spec::compile(&spec).unwrap().into_workload();
        let service = EvalService::with_threads(1);
        let report =
            CompareReport::run_on(&service, &workload, methods::all(), workload.slo_ms()).unwrap();
        assert_eq!(report.methods.len(), 4);
        for m in &report.methods {
            assert!(m.final_cost > 0.0);
            assert!(m.samples > 0);
        }
        // The four methods share one engine: at minimum, the base
        // configuration re-executions of the later methods hit the cache.
        assert!(report.eval.cache_hits > 0);
        assert!(report.eval.simulations > 0);
        assert!(report.eval.cache_hit_rate > 0.0);
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("\"final_cost\""));
        assert!(json.contains("\"meets_slo\""));
        assert!(json.contains("\"cache_hits\""));
        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), 5);
        assert!(csv.starts_with("scenario,method"));
        let table = report.to_table();
        assert!(table.contains("aarc") && table.contains("random"));
    }
}
