//! The one by-name registry of search methods: AARC's scheduler and every
//! baseline, built with the parameters the paper evaluates them with. The
//! CLI, the daemon and the experiment harness all pick methods from here.

use aarc_core::{AarcParams, ConfigurationSearch, GraphCentricScheduler};

use crate::{
    BayesianOptimization, BoParams, MaffGradientDescent, MaffParams, RandomSearch,
    RandomSearchParams,
};

/// Every method name, in display order: the paper's three methods in the
/// order its figures use (AARC, BO, MAFF), then the random-search control.
pub const NAMES: [&str; 4] = ["aarc", "bo", "maff", "random"];

/// Builds a boxed search method from its name.
///
/// # Errors
///
/// Returns a message listing the accepted names when `name` is unknown.
pub fn build(name: &str) -> Result<Box<dyn ConfigurationSearch>, String> {
    match name {
        "aarc" => Ok(Box::new(GraphCentricScheduler::new(AarcParams::paper()))),
        "bo" => Ok(Box::new(BayesianOptimization::new(BoParams::default()))),
        "maff" => Ok(Box::new(MaffGradientDescent::new(MaffParams::default()))),
        "random" => Ok(Box::new(RandomSearch::new(RandomSearchParams::default()))),
        other => Err(format!(
            "unknown method `{other}` (accepted: {})",
            NAMES.join(", ")
        )),
    }
}

/// Every method, as `(name, method)` pairs in [`NAMES`] order.
pub fn all() -> Vec<(&'static str, Box<dyn ConfigurationSearch>)> {
    NAMES
        .iter()
        .map(|&name| (name, build(name).expect("registered names build")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_builds_in_order_and_unknown_fails() {
        let labels: Vec<String> = all().iter().map(|(_, m)| m.name().to_owned()).collect();
        assert_eq!(labels, vec!["AARC", "BO", "MAFF", "Random"]);
        let err = build("simulated-annealing").err().expect("unknown name");
        assert!(err.contains("aarc, bo, maff, random"), "{err}");
    }
}
