//! The seeded scenario corpus: the committed specs plus synthetic specs of
//! varied depth and width, expanded into (scenario, input class, SLO)
//! search items. Only items whose base configuration meets the SLO are
//! emitted, so every failure the benchmark counts is a real one.

use std::path::PathBuf;

use aarc_simulator::{EvalService, InputClass, WorkflowEnvironment};
use aarc_spec::{synthetic_spec, SpecFormat, SynthParams};

use crate::stats::Rng;

/// The input-class axis of a search, as the daemon's `class` field names
/// it: the scenario's own input, or a class's representative input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    Nominal,
    Light,
    Heavy,
}

impl Class {
    pub fn label(self) -> &'static str {
        match self {
            Class::Nominal => "nominal",
            Class::Light => "light",
            Class::Heavy => "heavy",
        }
    }

    /// The environment a search of this class runs over (the daemon builds
    /// its per-class session environments the same way).
    pub fn env(self, base: &WorkflowEnvironment) -> WorkflowEnvironment {
        let class = match self {
            Class::Nominal => return base.clone(),
            Class::Light => InputClass::Light,
            Class::Heavy => InputClass::Heavy,
        };
        base.with_input(class.representative())
    }
}

/// Where a scenario's spec comes from.
#[derive(Debug, Clone)]
pub enum Source {
    /// A committed spec file, read with `aarc_spec::load`.
    File(PathBuf),
    /// A generated spec, parsed from bytes with `aarc_spec::from_slice`.
    Generated,
}

/// One scenario of the corpus.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub name: String,
    pub source: Source,
    pub functions: usize,
    /// The YAML bytes (uploaded verbatim to the daemon).
    pub bytes: Vec<u8>,
}

/// One search item: a scenario at an input class under an SLO.
#[derive(Debug, Clone)]
pub struct Item {
    pub scenario: usize,
    pub class: Class,
    pub slo_ms: f64,
    /// Makespan and cost of the base configuration under this class.
    pub base_ms: f64,
    pub base_cost: f64,
    /// Why the item is in the corpus.
    pub why: String,
}

#[derive(Debug, Clone)]
pub struct Corpus {
    pub scenarios: Vec<Scenario>,
    pub items: Vec<Item>,
    /// Items dropped because their base configuration misses the SLO.
    pub dropped: Vec<String>,
}

/// The two corpus shapes the workloads search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Small DAGs for BO, whose surrogate cost grows with 2 dims per
    /// function: committed specs at their own input, plus synthetic specs
    /// of 4 to 9 functions.
    Bo,
    /// Committed specs at three input classes plus synthetic specs of 5 to
    /// 40 functions at tight and loose SLO headroom.
    Fast,
}

/// Synthetic cells: (layers, max width). The function count of each
/// generated scenario is pinned to the cell's mean, so the corpus has the
/// same size profile at every seed and only profiles and edges vary. BO's
/// cost per search is set by its 2-dims-per-function surrogate, so its
/// cells step through 4 to 9 functions: per-search times then spread
/// evenly and their median moves smoothly with the host's speed, where
/// one fixed size would flip it between the host's fast and slow spells.
const BO_CELLS: [(usize, usize); 6] = [(2, 3), (2, 4), (3, 3), (2, 6), (4, 3), (3, 5)];
const FAST_CELLS: [(usize, usize); 8] = [
    (2, 4),
    (3, 4),
    (4, 4),
    (4, 6),
    (5, 6),
    (6, 7),
    (7, 8),
    (8, 9),
];
/// SLO headroom over the base makespan: tight makes searches stop early
/// on violations, loose lets them shrink resources further.
const HEADROOMS: [(f64, &str); 2] = [(1.1, "tight"), (1.6, "loose")];
/// Synthetic specs per (cell, headroom): enough that per-seed means are
/// steady.
const BO_REPLICAS: usize = 2;
const FAST_REPLICAS: usize = 6;

const COMMITTED_DIR: &str = "specs";

/// Builds the corpus of `kind` for `seed`. The same seed always yields
/// byte-identical specs and the same items.
pub fn build(kind: Kind, seed: u64) -> Result<Corpus, String> {
    let mut corpus = Corpus {
        scenarios: Vec::new(),
        items: Vec::new(),
        dropped: Vec::new(),
    };
    let committed_classes: &[Class] = match kind {
        Kind::Bo => &[Class::Nominal],
        Kind::Fast => &[Class::Nominal, Class::Light, Class::Heavy],
    };
    for path in committed_specs()? {
        let spec = aarc_spec::load(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let slo = spec.slo_ms;
        let index = push_scenario(&mut corpus, &spec, Source::File(path), bytes);
        for &class in committed_classes {
            corpus.offer(
                index,
                class,
                |_| slo,
                format!("committed spec at {} input, its own SLO", class.label()),
            )?;
        }
    }
    let mut rng = Rng::new(seed ^ 0x00c0_ffee);
    let (cells, replicas): (&[(usize, usize)], usize) = match kind {
        Kind::Bo => (&BO_CELLS, BO_REPLICAS),
        Kind::Fast => (&FAST_CELLS, FAST_REPLICAS),
    };
    let prefix = match kind {
        Kind::Bo => "bo",
        Kind::Fast => "fast",
    };
    for replica in 0..replicas {
        for (cell, &(layers, width)) in cells.iter().enumerate() {
            for &(headroom, tag) in &HEADROOMS {
                let mut spec = pinned_synthetic(&mut rng, layers, width, headroom);
                spec.name = format!("gen-{prefix}-{seed}-{replica}-{cell}-{tag}");
                let functions = spec.functions.len();
                let bytes = aarc_spec::to_string(&spec, SpecFormat::Yaml).into_bytes();
                let index = push_scenario(&mut corpus, &spec, Source::Generated, bytes);
                let class = match kind {
                    Kind::Bo => Class::Nominal,
                    Kind::Fast => [Class::Nominal, Class::Light, Class::Heavy][rng.below(3)],
                };
                corpus.offer(
                    index,
                    class,
                    |base_ms| base_ms * headroom,
                    format!(
                        "synthetic {layers} layers x width <= {width} ({functions} functions), \
                         {} input, {tag} SLO = {headroom} x base makespan",
                        class.label()
                    ),
                )?;
            }
        }
    }
    Ok(corpus)
}

fn committed_specs() -> Result<Vec<PathBuf>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(COMMITTED_DIR)
        .map_err(|e| format!("{COMMITTED_DIR}/: {e} (run from the repository root)"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "yaml"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("{COMMITTED_DIR}/ holds no .yaml specs"));
    }
    Ok(paths)
}

fn push_scenario(
    corpus: &mut Corpus,
    spec: &aarc_spec::ScenarioSpec,
    source: Source,
    bytes: Vec<u8>,
) -> usize {
    corpus.scenarios.push(Scenario {
        name: spec.name.clone(),
        source,
        functions: spec.functions.len(),
        bytes,
    });
    corpus.scenarios.len() - 1
}

/// A synthetic spec whose function count is the cell's mean width times
/// its depth: generator seeds are drawn until one hits it (bounded; the
/// closest draw wins otherwise).
fn pinned_synthetic(
    rng: &mut Rng,
    layers: usize,
    width: usize,
    headroom: f64,
) -> aarc_spec::ScenarioSpec {
    let target = (layers * (width + 1)).div_ceil(2);
    let mut best: Option<(usize, aarc_spec::ScenarioSpec)> = None;
    for _ in 0..64 {
        let spec = synthetic_spec(SynthParams {
            seed: rng.next_u64() >> 1,
            layers,
            max_width: width,
            slo_headroom: headroom,
            ..SynthParams::default()
        });
        let miss = spec.functions.len().abs_diff(target);
        if best.as_ref().is_none_or(|(m, _)| miss < *m) {
            best = Some((miss, spec));
        }
        if miss == 0 {
            break;
        }
    }
    best.expect("at least one draw").1
}

impl Corpus {
    /// One line per item: scenario, class, SLO, base makespan and why.
    pub fn manifest(&self) -> String {
        self.items
            .iter()
            .map(|i| {
                format!(
                    "{}\t{}\tslo {:.1} ms\tbase {:.1} ms\t{}\n",
                    self.scenarios[i.scenario].name,
                    i.class.label(),
                    i.slo_ms,
                    i.base_ms,
                    i.why
                )
            })
            .chain(self.dropped.iter().map(|d| format!("dropped: {d}\n")))
            .collect()
    }

    /// Adds the item if the base configuration meets its SLO without OOM.
    fn offer(
        &mut self,
        scenario: usize,
        class: Class,
        slo: impl Fn(f64) -> f64,
        why: String,
    ) -> Result<(), String> {
        let s = &self.scenarios[scenario];
        let spec = aarc_spec::from_slice(&s.bytes).map_err(|e| format!("{}: {e}", s.name))?;
        let compiled = aarc_spec::compile(&spec).map_err(|e| format!("{}: {e}", s.name))?;
        let env = class.env(compiled.workload().env());
        let service = EvalService::with_threads(1);
        let base = service
            .register(env.clone())
            .evaluate(&env.base_configs())
            .map_err(|e| format!("{} base configuration: {e}", s.name))?;
        let slo_ms = slo(base.makespan_ms());
        if base.any_oom() || base.makespan_ms() > slo_ms {
            self.dropped.push(format!(
                "{} at {}: base configuration takes {:.0} ms against a {:.0} ms SLO{}",
                s.name,
                class.label(),
                base.makespan_ms(),
                slo_ms,
                if base.any_oom() { " (OOM)" } else { "" }
            ));
            return Ok(());
        }
        self.items.push(Item {
            scenario,
            class,
            slo_ms,
            base_ms: base.makespan_ms(),
            base_cost: base.total_cost(),
            why,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at_repo_root() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
        std::env::set_current_dir(root).expect("repository root exists");
    }

    #[test]
    fn corpus_is_seeded_feasible_and_uniquely_named() {
        at_repo_root();
        for kind in [Kind::Bo, Kind::Fast] {
            let a = build(kind, 3).unwrap();
            let b = build(kind, 3).unwrap();
            let c = build(kind, 4).unwrap();
            let bytes = |c: &Corpus| {
                c.scenarios
                    .iter()
                    .map(|s| s.bytes.clone())
                    .collect::<Vec<_>>()
            };
            assert_eq!(bytes(&a), bytes(&b), "same seed, same specs");
            assert_ne!(bytes(&a), bytes(&c), "another seed, other specs");
            let mut names: Vec<&str> = a.scenarios.iter().map(|s| s.name.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), a.scenarios.len(), "names are unique");
            assert!(a
                .items
                .iter()
                .all(|i| i.base_ms <= i.slo_ms && !i.why.is_empty()));
        }
    }

    #[test]
    fn infeasible_committed_classes_are_dropped_with_a_reason() {
        at_repo_root();
        let fast = build(Kind::Fast, 1).unwrap();
        assert!(
            fast.dropped
                .iter()
                .any(|d| d.starts_with("chatbot at heavy")),
            "{:?}",
            fast.dropped
        );
    }
}
