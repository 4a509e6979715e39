//! Pre-refactor goldens for the zero-allocation kernel: the three paper
//! workloads, compiled from their committed specs, must keep producing the
//! exact observables the pre-kernel executor produced at the pinned default
//! seeds — through the lean `SimResult` path, the materialised
//! `ExecutionReport` path, and the Graph-Centric Scheduler's full search.
//!
//! The numbers below were captured from the executor as it stood before the
//! kernel rewrite (PR 3) and are asserted with exact `f64` equality: the
//! kernel is required to be bit-identical, not merely close.

use std::path::PathBuf;

use aarc_core::{ConfigurationSearch, GraphCentricScheduler};
use aarc_simulator::EvalService;

fn workload(name: &str) -> aarc_workloads::Workload {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("specs")
        .join(format!("{name}.yaml"));
    let spec = aarc_spec::load(&path).expect("committed spec loads");
    aarc_spec::compile(&spec)
        .expect("spec compiles")
        .into_workload()
}

/// `(spec file, base-config makespan ms, base-config total cost)`.
const BASE_GOLDENS: [(&str, f64, f64); 3] = [
    ("chatbot", 88018.0, 1789440.0),
    ("ml_pipeline", 54728.667, 974848.0),
    ("video_analysis", 160452.0, 2457600.0),
];

/// `(spec file, AARC final cost, AARC final makespan ms)`.
const SEARCH_GOLDENS: [(&str, f64, f64); 3] = [
    ("chatbot", 158574.93333333335, 104184.66666666667),
    ("ml_pipeline", 205722.69714285716, 93347.71366666668),
    ("video_analysis", 1481786.1818181819, 161361.091),
];

#[test]
fn base_config_executions_match_pre_refactor_goldens() {
    for (name, makespan_ms, total_cost) in BASE_GOLDENS {
        let wl = workload(name);
        let service = EvalService::with_threads(1);
        let handle = service.register(wl.env().clone());
        let result = handle.evaluate(&wl.env().base_configs()).unwrap();
        assert_eq!(
            result.makespan_ms(),
            makespan_ms,
            "{name}: base makespan drifted (got {:?})",
            result.makespan_ms()
        );
        assert_eq!(
            result.total_cost(),
            total_cost,
            "{name}: base cost drifted (got {:?})",
            result.total_cost()
        );
        assert!(!result.any_oom(), "{name}: base config must not OOM");
        // The materialised report agrees bit for bit.
        let report = handle
            .materialize_result(&wl.env().base_configs(), &result)
            .unwrap();
        assert_eq!(
            report.makespan_ms().to_bits(),
            result.makespan_ms().to_bits()
        );
        assert_eq!(report.total_cost().to_bits(), result.total_cost().to_bits());
    }
}

#[test]
fn aarc_search_matches_pre_refactor_goldens() {
    for (name, final_cost, final_makespan_ms) in SEARCH_GOLDENS {
        let wl = workload(name);
        let service = EvalService::with_threads(1);
        let outcome = GraphCentricScheduler::default()
            .search_on(&service.register(wl.env().clone()), wl.slo_ms())
            .unwrap();
        assert_eq!(
            outcome.best_cost(),
            final_cost,
            "{name}: AARC final cost drifted (got {:?})",
            outcome.best_cost()
        );
        assert_eq!(
            outcome.best_runtime_ms(),
            final_makespan_ms,
            "{name}: AARC final makespan drifted (got {:?})",
            outcome.best_runtime_ms()
        );
    }
}
