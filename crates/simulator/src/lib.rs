//! Deterministic serverless-platform simulator used as the measurement
//! substrate for the AARC reproduction.
//!
//! The original paper runs every workflow function in its own Docker
//! container on a 96-core Xeon host, decoupling CPU and memory limits via
//! cgroups, and measures wall-clock runtime and billed cost. All search
//! methods (AARC, Bayesian optimization, MAFF) only ever observe the triple
//! `(runtime, cost, oom?)` of a workflow execution under a candidate
//! configuration. This crate reproduces exactly that observation interface
//! with an analytical performance model and a discrete-event workflow
//! executor:
//!
//! * [`resources`] — decoupled CPU/memory allocations ([`ResourceConfig`])
//!   and the discretised configuration space of the paper (memory 128–10240
//!   MB in 64 MB steps, vCPU 0.1–10).
//! * [`perf_model`] — per-function performance profiles: Amdahl-style CPU
//!   scaling, working-set memory pressure, an OOM floor and I/O time.
//! * [`cost`] — the paper's extended AWS-Lambda pricing model
//!   `cost = t · (µ0·cpu + µ1·mem) + µ2`.
//! * [`cluster`] — hosts, containers and cold starts.
//! * [`kernel`](mod@crate::kernel) — the zero-allocation simulation kernel:
//!   [`CompiledScenario`] (static structure precomputed once per
//!   environment), [`SimScratch`] (a reusable per-worker arena) and
//!   [`SimResult`] (the lean result the searchers and the memo-cache use).
//! * [`executor`] — the materialised side of a simulation: the full
//!   [`ExecutionReport`] (names + trace) that
//!   [`CompiledScenario::simulate_report`] produces.
//! * [`profiler`] — profiling runs with dummy input that produce the node
//!   weights consumed by the Graph-Centric Scheduler.
//! * [`env`](mod@crate::env) — [`WorkflowEnvironment`], the bundle (workflow
//!   + profiles + pricing + cluster + input) that search methods sample.
//! * [`eval`](mod@crate::eval) — the candidate-evaluation layer the
//!   searchers submit through: a process-wide [`EvalService`] (deterministic
//!   worker pool, sharded fingerprint-keyed memo-cache, scratch arenas)
//!   borrowed by cheap per-scenario [`ScenarioHandle`]s — the one way to
//!   evaluate a candidate.
//!
//! # Example
//!
//! ```
//! use aarc_simulator::prelude::*;
//! use aarc_workflow::WorkflowBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = WorkflowBuilder::new("demo");
//! let f = b.add_function("crunch");
//! let g = b.add_function("store");
//! b.add_edge(f, g)?;
//! let wf = b.build()?;
//!
//! let mut profiles = ProfileSet::new();
//! profiles.insert(f, FunctionProfile::builder("crunch").parallel_ms(8_000.0).build());
//! profiles.insert(g, FunctionProfile::builder("store").serial_ms(500.0).build());
//!
//! let env = WorkflowEnvironment::builder(wf, profiles).build()?;
//! let report = env.execute(&env.base_configs())?;
//! assert!(report.makespan_ms() > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod cost;
pub mod env;
pub mod error;
pub mod eval;
pub mod event;
pub mod executor;
pub mod input;
pub mod kernel;
pub mod metrics;
pub mod perf_model;
pub mod profiler;
pub mod resources;
pub mod trace;

pub use cluster::{ClusterSpec, ColdStartModel};
pub use cost::PricingModel;
pub use env::{ConfigMap, WorkflowEnvironment, WorkflowEnvironmentBuilder};
pub use error::SimulatorError;
pub use eval::{
    derive_seed, EvalOptions, EvalService, EvalStats, EvalTelemetry, ScenarioEvalStats,
    ScenarioHandle, ServiceSnapshot,
};
pub use executor::{ExecutionReport, FunctionExecution};
pub use input::{InputClass, InputSpec};
pub use kernel::{
    BatchSim, CompiledScenario, KernelCounters, NodeSimOutcome, SimResult, SimScratch,
};
pub use perf_model::{FunctionProfile, FunctionProfileBuilder, ProfileSet};
pub use profiler::{profile_workflow, ProfiledWeights};
pub use resources::{MemoryMb, ResourceConfig, ResourceSpace, Vcpu};

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::cluster::ClusterSpec;
    pub use crate::cost::PricingModel;
    pub use crate::env::{ConfigMap, WorkflowEnvironment};
    pub use crate::error::SimulatorError;
    pub use crate::eval::{
        EvalOptions, EvalService, EvalStats, ScenarioEvalStats, ScenarioHandle, ServiceSnapshot,
    };
    pub use crate::executor::ExecutionReport;
    pub use crate::input::{InputClass, InputSpec};
    pub use crate::kernel::{CompiledScenario, SimResult, SimScratch};
    pub use crate::perf_model::{FunctionProfile, ProfileSet};
    pub use crate::profiler::profile_workflow;
    pub use crate::resources::{MemoryMb, ResourceConfig, ResourceSpace, Vcpu};
}
