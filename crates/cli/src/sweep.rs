//! `aarc sweep` — spec glob × methods × input classes on one shared
//! evaluation pool.
//!
//! Where `aarc compare` evaluates the four methods on *one* scenario,
//! `sweep` fans any number of scenarios (spec files or whole directories),
//! any subset of methods and optionally per-input-class variants out as
//! independent ask/tell searches, round-robin interleaved by the
//! [`SearchDriver`] over a single process-wide
//! [`EvalService`](aarc_simulator::EvalService) — one worker pool, one
//! fingerprint-keyed memo-cache, one scratch-arena pool.
//!
//! The report is deterministic by construction: scenarios are sorted by
//! name (so the output is independent of argument order), every per-search
//! result is bit-identical to a sequential run on a private service (see the
//! driver's determinism contract), and cache statistics are accounted on
//! the submitting thread (so the bytes are identical for any `--threads`).
//! Wall-clock never appears in the report.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use serde::Serialize;

use aarc_baselines::methods;
use aarc_core::{SearchDriver, SearchOutcome, SearchSession};
use aarc_simulator::{EvalService, EvalStats, InputClass, ScenarioEvalStats, WorkflowEnvironment};
use aarc_workloads::Workload;

/// Version stamp of the sweep report schema.
pub const SWEEP_VERSION: u32 = 1;

/// The input-class axis of a sweep: the scenario's own (nominal) input, or
/// a class representative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SweepClass {
    /// The scenario's default input, unchanged.
    Nominal,
    /// The representative input of one [`InputClass`].
    Class(InputClass),
}

impl SweepClass {
    /// The label used in reports and `--classes`.
    pub fn label(self) -> String {
        match self {
            SweepClass::Nominal => "nominal".to_string(),
            SweepClass::Class(c) => c.to_string(),
        }
    }

    /// Parses one `--classes` entry.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "nominal" => Ok(SweepClass::Nominal),
            "light" => Ok(SweepClass::Class(InputClass::Light)),
            "middle" => Ok(SweepClass::Class(InputClass::Middle)),
            "heavy" => Ok(SweepClass::Class(InputClass::Heavy)),
            other => Err(format!(
                "unknown input class `{other}` (accepted: nominal, light, middle, heavy)"
            )),
        }
    }

    /// The environment this class variant searches over (also used by the
    /// serve daemon to build per-class session environments).
    pub(crate) fn env(self, base: &WorkflowEnvironment) -> WorkflowEnvironment {
        match self {
            SweepClass::Nominal => base.clone(),
            SweepClass::Class(c) => base.with_input(c.representative()),
        }
    }
}

/// Evaluation counters as they appear in sweep reports (thread count
/// deliberately excluded: the numbers are invariant under it).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SweepEval {
    /// Simulations actually executed (cache misses).
    pub simulations: u64,
    /// Candidate evaluations answered from the shared memo-cache.
    pub cache_hits: u64,
    /// Candidate evaluations that required a simulation.
    pub cache_misses: u64,
    /// Reports dropped by FIFO eviction.
    pub evictions: u64,
    /// Fraction of evaluations served from the cache.
    pub cache_hit_rate: f64,
}

impl From<EvalStats> for SweepEval {
    fn from(stats: EvalStats) -> Self {
        SweepEval {
            simulations: stats.simulations(),
            cache_hits: stats.cache_hits,
            cache_misses: stats.cache_misses,
            evictions: stats.evictions,
            cache_hit_rate: stats.hit_rate(),
        }
    }
}

impl From<ScenarioEvalStats> for SweepEval {
    fn from(stats: ScenarioEvalStats) -> Self {
        SweepEval {
            simulations: stats.simulations(),
            cache_hits: stats.cache_hits,
            cache_misses: stats.cache_misses,
            evictions: stats.evictions,
            cache_hit_rate: stats.hit_rate(),
        }
    }
}

/// One scenario-variant's slice of the shared cache statistics.
#[derive(Debug, Clone, Serialize)]
pub struct SweepScenarioEval {
    /// Scenario name.
    pub scenario: String,
    /// Input-class label (`nominal`, `light`, `middle`, `heavy`).
    pub class: String,
    /// The variant's environment fingerprint, in hex (the cache-key
    /// component that isolates it in the shared cache).
    pub fingerprint: String,
    /// The variant's counters.
    pub eval: SweepEval,
}

/// One `(method, class)` search result on one scenario.
#[derive(Debug, Clone, Serialize)]
pub struct SweepRun {
    /// CLI method name (`aarc`, `bo`, `maff`, `random`).
    pub method: String,
    /// The method's display name ("AARC", "BO", ...).
    pub display_name: String,
    /// Input-class label this run searched under.
    pub class: String,
    /// Cost of the best configuration found.
    pub final_cost: f64,
    /// End-to-end runtime of the best configuration, ms.
    pub final_makespan_ms: f64,
    /// Whether the best configuration meets the SLO.
    pub meets_slo: bool,
    /// Number of sampled workflow executions the search spent.
    pub samples: usize,
    /// Total billed cost of all sampled executions.
    pub search_cost: f64,
    /// Total (simulated) runtime of all sampled executions, ms.
    pub search_runtime_ms: f64,
}

/// All runs of one scenario, plus its summed cache statistics.
#[derive(Debug, Clone, Serialize)]
pub struct SweepScenario {
    /// Scenario name.
    pub scenario: String,
    /// The SLO every run of this scenario searched under, ms.
    pub slo_ms: f64,
    /// Number of workflow functions.
    pub functions: usize,
    /// Cache statistics summed over this scenario's class variants.
    pub eval: SweepEval,
    /// One entry per `(class, method)`, classes in `--classes` order,
    /// methods in `--methods` order.
    pub runs: Vec<SweepRun>,
}

/// The complete sweep report.
#[derive(Debug, Clone, Serialize)]
pub struct SweepReport {
    /// Schema version ([`SWEEP_VERSION`]).
    pub version: u32,
    /// One entry per scenario, sorted by name (argument-order independent).
    pub scenarios: Vec<SweepScenario>,
    /// Aggregate statistics of the shared pool over the whole sweep.
    pub eval: SweepEval,
    /// Per-fingerprint breakdown of the shared cache (one entry per
    /// scenario × class variant, in scenario order).
    pub eval_breakdown: Vec<SweepScenarioEval>,
}

impl SweepReport {
    /// Renders the runs as CSV (header + one row per run).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "scenario,class,method,final_cost,final_makespan_ms,meets_slo,samples,search_cost,search_runtime_ms\n",
        );
        for s in &self.scenarios {
            for r in &s.runs {
                out.push_str(&format!(
                    "{},{},{},{},{},{},{},{},{}\n",
                    crate::report::csv_field(&s.scenario),
                    r.class,
                    r.method,
                    r.final_cost,
                    r.final_makespan_ms,
                    r.meets_slo,
                    r.samples,
                    r.search_cost,
                    r.search_runtime_ms
                ));
            }
        }
        out
    }
}

/// Expands sweep positionals: a file names itself; a directory expands to
/// its `*.yaml` / `*.yml` / `*.json` entries in name order.
///
/// # Errors
///
/// Returns a user-facing message for unreadable paths, directories
/// containing no spec files, arguments naming nothing on disk (e.g. an
/// unexpanded glob) and an empty argument list — a sweep must never
/// silently emit an empty report.
pub fn expand_spec_args(args: &[String]) -> Result<Vec<PathBuf>, String> {
    let mut paths = Vec::new();
    for arg in args {
        let path = Path::new(arg);
        if path.is_dir() {
            let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
                .map_err(|e| format!("{arg}: {e}"))?
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|p| {
                    matches!(
                        p.extension().and_then(|e| e.to_str()),
                        Some("yaml" | "yml" | "json")
                    )
                })
                .collect();
            entries.sort();
            if entries.is_empty() {
                return Err(format!("no scenario specs found under {arg}"));
            }
            paths.extend(entries);
        } else if path.is_file() {
            paths.push(path.to_path_buf());
        } else {
            // A non-existent path — typically a shell glob that matched
            // nothing and arrived as the literal pattern.
            return Err(format!("no scenario specs found under {arg}"));
        }
    }
    if paths.is_empty() {
        return Err("sweep needs at least one spec file or directory".to_string());
    }
    Ok(paths)
}

/// One loaded scenario of the sweep.
struct SweepScenarioInput {
    workload: Workload,
    slo_ms: f64,
}

/// Runs the sweep: loads every spec, builds one search unit per
/// `(scenario, class, method)` on a shared [`EvalService`], interleaves
/// them on its pool, and assembles the report.
///
/// # Errors
///
/// Returns a user-facing message for load/compile failures or the first
/// search failure (in sorted scenario order).
pub fn run_sweep(
    spec_paths: &[PathBuf],
    method_names: &[&'static str],
    classes: &[SweepClass],
    threads: usize,
    slo_override_ms: Option<f64>,
) -> Result<SweepReport, String> {
    // Load and sort scenarios by name so the report (and the shared-pool
    // submission order) is independent of how the paths were given.
    let mut scenarios: Vec<SweepScenarioInput> = Vec::with_capacity(spec_paths.len());
    for path in spec_paths {
        let display = path.display();
        let spec = aarc_spec::load(path).map_err(|e| format!("{display}: {e}"))?;
        let workload = aarc_spec::compile(&spec)
            .map_err(|e| format!("{display}: {e}"))?
            .into_workload();
        let slo_ms = slo_override_ms.unwrap_or_else(|| workload.slo_ms());
        scenarios.push(SweepScenarioInput { workload, slo_ms });
    }
    scenarios.sort_by(|a, b| a.workload.name().cmp(b.workload.name()));
    // Duplicate names would make the name-sorted report ambiguous (and its
    // order silently argument-dependent); refuse them up front.
    for pair in scenarios.windows(2) {
        if pair[0].workload.name() == pair[1].workload.name() {
            return Err(format!(
                "two specs share the scenario name `{}` — sweep reports are keyed by name",
                pair[0].workload.name()
            ));
        }
    }

    let service = EvalService::with_threads(threads);

    // One unit per (scenario, class, method); the scenario is compiled once
    // per class variant and the cheap handle cloned across methods, so all
    // of a variant's units share one fingerprint (and stats slice).
    struct UnitMeta {
        scenario: usize,
        class: SweepClass,
        method: &'static str,
        display_name: String,
    }
    let mut metas: Vec<UnitMeta> = Vec::new();
    let mut units: Vec<SearchSession<'_>> = Vec::new();
    let mut variant_fingerprints: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    for (si, scenario) in scenarios.iter().enumerate() {
        for (ci, &class) in classes.iter().enumerate() {
            let env = class.env(scenario.workload.env());
            let handle = service.register(env);
            variant_fingerprints.insert((si, ci), handle.fingerprint());
            for &name in method_names {
                let method = methods::build(name)?;
                let strategy = method
                    .strategy(handle.env(), scenario.slo_ms)
                    .map_err(|e| sweep_error(&scenarios[si], class, name, &e))?;
                metas.push(UnitMeta {
                    scenario: si,
                    class,
                    method: name,
                    display_name: method.name().to_owned(),
                });
                units.push(SearchSession::new(strategy, handle.clone()));
            }
        }
    }

    // Interleave every search on the shared pool.
    let outcomes = SearchDriver::run_interleaved(units);

    // Assemble rows in (scenario, class, method) order; fail on the first
    // error in that order.
    let mut runs_by_scenario: Vec<Vec<SweepRun>> = scenarios.iter().map(|_| Vec::new()).collect();
    for (meta, outcome) in metas.iter().zip(outcomes) {
        let outcome: SearchOutcome = outcome
            .map_err(|e| sweep_error(&scenarios[meta.scenario], meta.class, meta.method, &e))?;
        let slo_ms = scenarios[meta.scenario].slo_ms;
        runs_by_scenario[meta.scenario].push(SweepRun {
            method: meta.method.to_owned(),
            display_name: meta.display_name.clone(),
            class: meta.class.label(),
            final_cost: outcome.best_cost(),
            final_makespan_ms: outcome.best_runtime_ms(),
            meets_slo: outcome.final_report.meets_slo(slo_ms),
            samples: outcome.trace.sample_count(),
            search_cost: outcome.trace.total_cost(),
            search_runtime_ms: outcome.trace.total_runtime_ms(),
        });
    }

    // Per-fingerprint statistics, attributed back to (scenario, class).
    let by_fingerprint: BTreeMap<u64, ScenarioEvalStats> = service
        .scenario_stats()
        .into_iter()
        .map(|s| (s.fingerprint, s))
        .collect();
    let mut eval_breakdown = Vec::new();
    let mut per_scenario_totals: Vec<SweepEval> = scenarios
        .iter()
        .map(|_| SweepEval {
            simulations: 0,
            cache_hits: 0,
            cache_misses: 0,
            evictions: 0,
            cache_hit_rate: 0.0,
        })
        .collect();
    // Two classes of one scenario can share a fingerprint (e.g. `nominal`
    // and `middle` when the spec's own input IS the nominal one): they then
    // share one counter slice, so group the class labels and count the
    // slice once per scenario instead of once per class.
    let mut fingerprint_classes: BTreeMap<(usize, u64), Vec<&str>> = BTreeMap::new();
    for (&(si, ci), &fingerprint) in &variant_fingerprints {
        fingerprint_classes
            .entry((si, fingerprint))
            .or_default()
            .push(match classes[ci] {
                SweepClass::Nominal => "nominal",
                SweepClass::Class(InputClass::Light) => "light",
                SweepClass::Class(InputClass::Middle) => "middle",
                SweepClass::Class(InputClass::Heavy) => "heavy",
            });
    }
    for (&(si, fingerprint), class_labels) in &fingerprint_classes {
        let stats = by_fingerprint
            .get(&fingerprint)
            .copied()
            .expect("every registered fingerprint has a stats slice");
        eval_breakdown.push(SweepScenarioEval {
            scenario: scenarios[si].workload.name().to_owned(),
            class: class_labels.join("+"),
            fingerprint: format!("{fingerprint:016x}"),
            eval: stats.into(),
        });
        let total = &mut per_scenario_totals[si];
        total.simulations += stats.simulations();
        total.cache_hits += stats.cache_hits;
        total.cache_misses += stats.cache_misses;
        total.evictions += stats.evictions;
    }
    for total in &mut per_scenario_totals {
        let requests = total.cache_hits + total.cache_misses;
        total.cache_hit_rate = if requests == 0 {
            0.0
        } else {
            total.cache_hits as f64 / requests as f64
        };
    }

    let scenario_reports = scenarios
        .iter()
        .zip(runs_by_scenario)
        .zip(per_scenario_totals)
        .map(|((input, runs), eval)| SweepScenario {
            scenario: input.workload.name().to_owned(),
            slo_ms: input.slo_ms,
            functions: input.workload.len(),
            eval,
            runs,
        })
        .collect();

    Ok(SweepReport {
        version: SWEEP_VERSION,
        scenarios: scenario_reports,
        eval: service.stats().into(),
        eval_breakdown,
    })
}

fn sweep_error(
    scenario: &SweepScenarioInput,
    class: SweepClass,
    method: &str,
    error: &dyn std::fmt::Display,
) -> String {
    format!(
        "sweep failed on {}/{}/{method}: {error}",
        scenario.workload.name(),
        class.label()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_dir(marker: &str, seeds: &[u64]) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aarc-sweep-mod-{marker}"));
        std::fs::create_dir_all(&dir).unwrap();
        for &seed in seeds {
            let spec = aarc_spec::synthetic_spec(aarc_spec::SynthParams {
                seed,
                layers: 2,
                max_width: 2,
                ..aarc_spec::SynthParams::default()
            });
            aarc_spec::save(&spec, dir.join(format!("s{seed}.yaml"))).unwrap();
        }
        dir
    }

    #[test]
    fn expand_walks_directories_in_name_order() {
        let dir = spec_dir("expand", &[3, 1, 2]);
        let paths = expand_spec_args(&[dir.to_string_lossy().into_owned()]).unwrap();
        assert_eq!(paths.len(), 3);
        let names: Vec<String> = paths
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["s1.yaml", "s2.yaml", "s3.yaml"]);
        assert!(expand_spec_args(&[]).is_err());
    }

    #[test]
    fn empty_directories_and_missing_paths_are_clear_errors() {
        let empty = std::env::temp_dir().join("aarc-sweep-mod-empty");
        std::fs::create_dir_all(&empty).unwrap();
        // Remove any stray spec files from previous runs.
        for entry in std::fs::read_dir(&empty).unwrap() {
            std::fs::remove_file(entry.unwrap().path()).ok();
        }
        let arg = empty.to_string_lossy().into_owned();
        let err = expand_spec_args(std::slice::from_ref(&arg)).unwrap_err();
        assert_eq!(err, format!("no scenario specs found under {arg}"));
        // A glob that matched nothing arrives as the literal pattern.
        let glob = format!("{arg}/*.yaml");
        let err = expand_spec_args(std::slice::from_ref(&glob)).unwrap_err();
        assert_eq!(err, format!("no scenario specs found under {glob}"));
    }

    #[test]
    fn sweep_report_is_submission_order_invariant() {
        let dir = spec_dir("order", &[11, 12]);
        let a = dir.join("s11.yaml");
        let b = dir.join("s12.yaml");
        let fwd = run_sweep(
            &[a.clone(), b.clone()],
            &["aarc", "random"],
            &[SweepClass::Nominal],
            1,
            None,
        )
        .unwrap();
        let rev = run_sweep(
            &[b, a],
            &["aarc", "random"],
            &[SweepClass::Nominal],
            4,
            None,
        )
        .unwrap();
        let fwd_json = serde_json::to_string_pretty(&fwd).unwrap();
        let rev_json = serde_json::to_string_pretty(&rev).unwrap();
        assert_eq!(
            fwd_json, rev_json,
            "sweep must be argument-order and thread-count invariant"
        );
        assert_eq!(fwd.scenarios.len(), 2);
        assert_eq!(fwd.scenarios[0].runs.len(), 2);
        assert_eq!(fwd.eval_breakdown.len(), 2);
        assert!(fwd.eval.cache_hits > 0, "methods share the pool's cache");
    }

    #[test]
    fn sweep_matches_sequential_private_engines() {
        // The shared-pool interleaved sweep must report exactly what each
        // method finds on its own private service.
        let dir = spec_dir("seq", &[21]);
        let path = dir.join("s21.yaml");
        let report = run_sweep(
            std::slice::from_ref(&path),
            &["aarc", "maff"],
            &[SweepClass::Nominal],
            2,
            None,
        )
        .unwrap();
        let spec = aarc_spec::load(&path).unwrap();
        let workload = aarc_spec::compile(&spec).unwrap().into_workload();
        for run in &report.scenarios[0].runs {
            let method = methods::build(&run.method).unwrap();
            let outcome = method.search(workload.env(), workload.slo_ms()).unwrap();
            assert_eq!(run.final_cost, outcome.best_cost(), "{}", run.method);
            assert_eq!(run.samples, outcome.trace.sample_count(), "{}", run.method);
            assert_eq!(
                run.search_cost,
                outcome.trace.total_cost(),
                "{}",
                run.method
            );
        }
    }

    #[test]
    fn classes_add_per_class_rows_and_fingerprints() {
        let dir = spec_dir("classes", &[31]);
        let path = dir.join("s31.yaml");
        let report = run_sweep(
            &[path],
            &["aarc"],
            &[SweepClass::Nominal, SweepClass::Class(InputClass::Light)],
            1,
            None,
        )
        .unwrap();
        let runs = &report.scenarios[0].runs;
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].class, "nominal");
        assert_eq!(runs[1].class, "light");
        assert_eq!(report.eval_breakdown.len(), 2);
        assert_ne!(
            report.eval_breakdown[0].fingerprint, report.eval_breakdown[1].fingerprint,
            "per-class envs must occupy distinct cache-key spaces"
        );
    }

    #[test]
    fn colliding_class_fingerprints_are_grouped_not_double_counted() {
        // Synthetic specs default to the nominal input, so the `nominal`
        // and `middle` variants produce byte-identical environments (one
        // fingerprint, one shared counter slice). The report must group
        // them into one breakdown entry and count the slice once.
        let dir = spec_dir("collide", &[41]);
        let path = dir.join("s41.yaml");
        let report = run_sweep(
            std::slice::from_ref(&path),
            &["aarc"],
            &[SweepClass::Nominal, SweepClass::Class(InputClass::Middle)],
            1,
            None,
        )
        .unwrap();
        assert_eq!(report.scenarios[0].runs.len(), 2, "both class runs kept");
        assert_eq!(report.eval_breakdown.len(), 1, "one entry per fingerprint");
        assert_eq!(report.eval_breakdown[0].class, "nominal+middle");
        let scenario_eval = report.scenarios[0].eval;
        assert_eq!(
            scenario_eval.simulations, report.eval.simulations,
            "single-scenario sweep: per-scenario eval must equal the aggregate"
        );
        assert_eq!(scenario_eval.cache_hits, report.eval.cache_hits);
    }

    #[test]
    fn duplicate_scenario_names_are_rejected() {
        let dir = spec_dir("dup", &[51]);
        let a = dir.join("s51.yaml");
        let b = dir.join("s51-copy.yaml");
        std::fs::copy(&a, &b).unwrap();
        let err = run_sweep(&[a, b], &["aarc"], &[SweepClass::Nominal], 1, None).unwrap_err();
        assert!(err.contains("share the scenario name"), "{err}");
    }

    #[test]
    fn sweep_class_parse_round_trips() {
        for label in ["nominal", "light", "middle", "heavy"] {
            assert_eq!(SweepClass::parse(label).unwrap().label(), label);
        }
        assert!(SweepClass::parse("gigantic").is_err());
    }
}
