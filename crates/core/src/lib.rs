//! AARC core: automated, affinity-aware, decoupled CPU/memory resource
//! configuration for serverless workflows.
//!
//! This crate implements the paper's contribution:
//!
//! * [`scheduler::GraphCentricScheduler`] — Algorithm 1 (*Overall
//!   Scheduling*): profiles the workflow under an over-provisioned base
//!   configuration, builds the weighted DAG, extracts the critical path and
//!   its detour sub-paths, derives sub-SLOs and drives the configurator
//!   path by path.
//! * [`configurator::PriorityConfigurator`] — Algorithm 2 (*Priority
//!   Configuration*): a priority-queue driven greedy search that repeatedly
//!   shrinks the CPU or memory of one function on a path, reverts with
//!   exponential back-off on SLO violation / cost increase / OOM, and stops
//!   when the queue drains or the trial budget is spent.
//! * [`affinity`] — resource-affinity analysis that seeds the priority queue
//!   (memory operations first for CPU-bound functions and vice versa).
//! * [`input_aware::InputAwareEngine`] — the §IV-D plugin that pre-computes
//!   one configuration per input size class and dispatches requests to the
//!   matching configuration.
//! * [`search`] — the [`search::ConfigurationSearch`] trait and the
//!   sample-by-sample [`search::SearchTrace`] shared with the baseline
//!   methods; the traces drive Figs. 5–7.
//! * [`driver`] — the ask/tell protocol: every method is a resumable
//!   [`driver::SearchStrategy`], a [`driver::SearchSession`] advances one
//!   strategy a single ask/evaluate/tell round per step (with
//!   cancellation and a pollable progress snapshot), and the
//!   [`driver::SearchDriver`] entry points are thin loops over sessions —
//!   so independent searches interleave their batches on one shared
//!   [`EvalService`](aarc_simulator::EvalService) pool (or are served
//!   online by a daemon) while staying bit-identical to sequential runs.
//!
//! # Quick start
//!
//! ```
//! use aarc_core::prelude::*;
//! use aarc_simulator::prelude::*;
//! use aarc_workflow::WorkflowBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A two-function workflow with a CPU-heavy stage.
//! let mut b = WorkflowBuilder::new("demo");
//! let crunch = b.add_function("crunch");
//! let store = b.add_function("store");
//! b.add_edge(crunch, store)?;
//! let wf = b.build()?;
//!
//! let mut profiles = ProfileSet::new();
//! profiles.insert(crunch, FunctionProfile::builder("crunch")
//!     .parallel_ms(30_000.0).max_parallelism(4.0).build());
//! profiles.insert(store, FunctionProfile::builder("store")
//!     .serial_ms(2_000.0).build());
//! let env = WorkflowEnvironment::builder(wf, profiles).build()?;
//!
//! // Find a cost-minimal decoupled configuration under a 60 s SLO.
//! let scheduler = GraphCentricScheduler::new(AarcParams::default());
//! let outcome = scheduler.search(&env, 60_000.0)?;
//! assert!(outcome.final_report.meets_slo(60_000.0));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod affinity;
pub mod configurator;
pub mod driver;
pub mod error;
pub mod input_aware;
pub mod operation;
pub mod params;
pub mod report;
pub mod scheduler;
pub mod search;

pub use affinity::{classify_affinity, AffinityReport};
pub use configurator::{PathConfigState, PriorityConfigurator};
pub use driver::{
    Ask, Incumbent, RoundPoint, SearchDriver, SearchSession, SearchStrategy, SessionProgress,
    SessionState,
};
pub use error::AarcError;
pub use input_aware::InputAwareEngine;
pub use operation::{OpType, Operation, OperationQueue};
pub use params::AarcParams;
pub use report::ConfigurationReport;
pub use scheduler::GraphCentricScheduler;
pub use search::{ConfigurationSearch, SearchOutcome, SearchSample, SearchTrace};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::affinity::classify_affinity;
    pub use crate::driver::{
        Ask, Incumbent, SearchDriver, SearchSession, SearchStrategy, SessionProgress, SessionState,
    };
    pub use crate::error::AarcError;
    pub use crate::input_aware::InputAwareEngine;
    pub use crate::params::AarcParams;
    pub use crate::report::ConfigurationReport;
    pub use crate::scheduler::GraphCentricScheduler;
    pub use crate::search::{ConfigurationSearch, SearchOutcome, SearchTrace};
}
