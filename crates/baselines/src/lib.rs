//! Baseline configuration-search methods the paper compares AARC against.
//!
//! * [`bo::BayesianOptimization`] — the decoupled-resource Bayesian
//!   optimization of Bilal et al. (EuroSys'23), extended to workflows as the
//!   paper does: the joint per-function (vCPU, memory) vector is optimised
//!   with a Gaussian-process surrogate and expected-improvement
//!   acquisition over the discretised space (memory 128–10 240 MB in 64 MB
//!   steps, vCPU 0.1–10).
//! * [`maff::MaffGradientDescent`] — MAFF (Zubko et al.), a memory-centric
//!   gradient-descent that keeps CPU coupled to memory (1 vCPU per
//!   1 024 MB) and reverts-and-terminates on the first SLO violation.
//! * [`random_search::RandomSearch`] — a uniform random-sampling control
//!   used in ablation experiments.
//!
//! All methods implement the same
//! [`ConfigurationSearch`](aarc_core::search::ConfigurationSearch) trait as
//! AARC's scheduler, so the experiment harness can swap them freely; the
//! [`methods`] registry builds any of them, AARC included, by name.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bo;
pub mod maff;
pub mod methods;
pub mod random_search;

pub use bo::{BayesianOptimization, BoParams};
pub use maff::{MaffGradientDescent, MaffParams};
pub use random_search::{RandomSearch, RandomSearchParams};
