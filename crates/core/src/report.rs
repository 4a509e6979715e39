//! Human-readable configuration reports.
//!
//! Cloud operators reviewing AARC's decisions want to see, per function, the
//! chosen vCPU/memory allocation, the resulting runtime and cost, and the
//! totals against the SLO. [`ConfigurationReport`] renders exactly that as a
//! fixed-width text table (also used by the `experiments` binary).

use std::fmt;

use serde::Serialize;

use aarc_simulator::{ConfigMap, SimResult, WorkflowEnvironment};

/// A per-function summary of a configuration and its measured behaviour.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FunctionRow {
    /// Function name.
    pub name: String,
    /// Configured vCPU cores.
    pub vcpu: f64,
    /// Configured memory in MB.
    pub memory_mb: u32,
    /// Billed runtime in ms.
    pub runtime_ms: f64,
    /// Billed cost.
    pub cost: f64,
}

/// A pretty-printable summary of a full workflow configuration.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ConfigurationReport {
    workflow_name: String,
    rows: Vec<FunctionRow>,
    makespan_ms: f64,
    total_cost: f64,
    slo_ms: Option<f64>,
}

impl ConfigurationReport {
    /// Builds a report from a configuration and a matching simulation
    /// result.
    pub fn new(
        env: &WorkflowEnvironment,
        configs: &ConfigMap,
        execution: &SimResult,
        slo_ms: Option<f64>,
    ) -> Self {
        let rows = env
            .workflow()
            .node_ids()
            .map(|id| {
                let cfg = configs.get(id);
                FunctionRow {
                    name: env.workflow().function(id).name().to_owned(),
                    vcpu: cfg.vcpu.get(),
                    memory_mb: cfg.memory.get(),
                    runtime_ms: execution.runtime_of(id).unwrap_or(0.0),
                    cost: execution.cost_of(id).unwrap_or(0.0),
                }
            })
            .collect();
        ConfigurationReport {
            workflow_name: env.workflow().name().to_owned(),
            rows,
            makespan_ms: execution.makespan_ms(),
            total_cost: execution.total_cost(),
            slo_ms,
        }
    }

    /// Per-function rows.
    pub fn rows(&self) -> &[FunctionRow] {
        &self.rows
    }

    /// End-to-end runtime in ms.
    pub fn makespan_ms(&self) -> f64 {
        self.makespan_ms
    }

    /// Total billed cost.
    pub fn total_cost(&self) -> f64 {
        self.total_cost
    }

    /// Whether the configuration met the SLO it was built for (if one was
    /// given).
    pub fn meets_slo(&self) -> Option<bool> {
        self.slo_ms.map(|slo| self.makespan_ms <= slo)
    }
}

impl fmt::Display for ConfigurationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "configuration for workflow `{}`", self.workflow_name)?;
        writeln!(
            f,
            "{:<28} {:>8} {:>10} {:>14} {:>14}",
            "function", "vCPU", "memory", "runtime (ms)", "cost"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<28} {:>8.1} {:>7} MB {:>14.1} {:>14.1}",
                row.name, row.vcpu, row.memory_mb, row.runtime_ms, row.cost
            )?;
        }
        write!(
            f,
            "end-to-end: {:.1} ms, total cost: {:.1}",
            self.makespan_ms, self.total_cost
        )?;
        if let Some(slo) = self.slo_ms {
            write!(
                f,
                " (slo {:.1} ms: {})",
                slo,
                if self.makespan_ms <= slo {
                    "met"
                } else {
                    "VIOLATED"
                }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aarc_simulator::{FunctionProfile, ProfileSet, ResourceConfig};
    use aarc_workflow::WorkflowBuilder;

    fn env() -> WorkflowEnvironment {
        let mut b = WorkflowBuilder::new("report");
        let a = b.add_function("alpha");
        let c = b.add_function("beta");
        b.add_edge(a, c).unwrap();
        let wf = b.build().unwrap();
        let mut p = ProfileSet::new();
        p.insert(
            a,
            FunctionProfile::builder("alpha").serial_ms(100.0).build(),
        );
        p.insert(c, FunctionProfile::builder("beta").serial_ms(200.0).build());
        WorkflowEnvironment::builder(wf, p).build().unwrap()
    }

    #[test]
    fn report_contains_all_functions_and_totals() {
        let env = env();
        let configs = ConfigMap::uniform(2, ResourceConfig::new(1.0, 512));
        let execution = aarc_simulator::EvalService::default()
            .register(env.clone())
            .evaluate(&configs)
            .unwrap();
        let report = ConfigurationReport::new(&env, &configs, &execution, Some(10_000.0));
        assert_eq!(report.rows().len(), 2);
        assert_eq!(report.meets_slo(), Some(true));
        assert!(report.total_cost() > 0.0);
        let text = report.to_string();
        assert!(text.contains("alpha"));
        assert!(text.contains("beta"));
        assert!(text.contains("met"));
    }

    #[test]
    fn violated_slo_is_flagged() {
        let env = env();
        let configs = ConfigMap::uniform(2, ResourceConfig::new(1.0, 512));
        let execution = aarc_simulator::EvalService::default()
            .register(env.clone())
            .evaluate(&configs)
            .unwrap();
        let report = ConfigurationReport::new(&env, &configs, &execution, Some(1.0));
        assert_eq!(report.meets_slo(), Some(false));
        assert!(report.to_string().contains("VIOLATED"));
    }

    #[test]
    fn report_without_slo_has_no_verdict() {
        let env = env();
        let configs = ConfigMap::uniform(2, ResourceConfig::new(1.0, 512));
        let execution = aarc_simulator::EvalService::default()
            .register(env.clone())
            .evaluate(&configs)
            .unwrap();
        let report = ConfigurationReport::new(&env, &configs, &execution, None);
        assert_eq!(report.meets_slo(), None);
        assert!(!report.to_string().contains("slo"));
    }
}
