//! End-to-end tests driving the compiled `aarc` binary, covering the
//! acceptance path: `validate` and `compare` succeed on every spec under
//! `specs/`, and `compare` emits a JSON report with cost and SLO attainment
//! per method.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_aarc"))
}

/// Numeric coercion over the shim's JSON value model (ints, unsigned ints
/// and floats all count as numbers).
fn as_num(v: &serde::Value) -> Option<f64> {
    match v {
        serde::Value::Int(i) => Some(*i as f64),
        serde::Value::UInt(u) => Some(*u as f64),
        serde::Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn specs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("specs")
}

fn all_spec_paths() -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(specs_dir())
        .expect("specs/ exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("yaml"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 5,
        "expected the three paper workloads plus at least two synthetic scenarios, found {}",
        paths.len()
    );
    paths
}

fn run_ok(cmd: &mut Command) -> Output {
    let out = cmd.output().expect("binary runs");
    assert!(
        out.status.success(),
        "command failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn validate_succeeds_on_every_committed_spec() {
    let paths = all_spec_paths();
    let out = run_ok(bin().arg("validate").args(&paths));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for p in &paths {
        assert!(
            stdout.contains(&format!("{}: ok", p.display())),
            "missing ok line for {}\n{stdout}",
            p.display()
        );
    }
}

#[test]
fn compare_emits_cost_and_slo_attainment_per_method_on_every_spec() {
    for path in all_spec_paths() {
        let out = run_ok(
            bin()
                .args(["compare", "--format", "json", "--spec"])
                .arg(&path),
        );
        let json = String::from_utf8_lossy(&out.stdout);
        let report = serde_json::parse(&json)
            .unwrap_or_else(|e| panic!("{}: invalid JSON: {e}", path.display()));
        let methods = report
            .get("methods")
            .and_then(|m| m.as_seq())
            .unwrap_or_else(|| panic!("{}: no methods array", path.display()));
        assert_eq!(methods.len(), 4, "{}", path.display());
        for entry in methods {
            for field in [
                "method",
                "final_cost",
                "meets_slo",
                "search_cost",
                "configuration",
            ] {
                assert!(
                    entry.get(field).is_some(),
                    "{}: method entry lacks `{field}`: {json}",
                    path.display()
                );
            }
        }
    }
}

#[test]
fn compare_csv_has_one_row_per_method() {
    let spec = specs_dir().join("synthetic_dense.yaml");
    let out = run_ok(
        bin()
            .args(["compare", "--format", "csv", "--spec"])
            .arg(&spec),
    );
    let csv = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 5, "{csv}");
    assert!(lines[0].starts_with("scenario,method,final_cost"));
    for method in ["aarc", "bo", "maff", "random"] {
        assert!(
            lines.iter().any(|l| l.contains(&format!(",{method},"))),
            "{csv}"
        );
    }
}

#[test]
fn run_produces_a_report_and_honours_method_and_format() {
    let spec = specs_dir().join("chatbot.yaml");
    let text = run_ok(bin().args(["run", "--method", "maff", "--spec"]).arg(&spec));
    let stdout = String::from_utf8_lossy(&text.stdout);
    assert!(
        stdout.contains("configuration for workflow `chatbot`"),
        "{stdout}"
    );
    assert!(stdout.contains("search:"), "{stdout}");

    let json_out = run_ok(
        bin()
            .args(["run", "--method", "aarc", "--format", "json", "--spec"])
            .arg(&spec),
    );
    let report = serde_json::parse(&String::from_utf8_lossy(&json_out.stdout)).unwrap();
    assert!(report
        .get("rows")
        .and_then(|r| r.as_seq())
        .is_some_and(|r| r.len() == 6));
    assert!(report.get("total_cost").is_some());
}

#[test]
fn validate_rejects_broken_specs_with_nonzero_exit() {
    let dir = std::env::temp_dir().join("aarc-cli-test-invalid");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.yaml");
    std::fs::write(
        &path,
        "version: 1\nname: broken\nslo_ms: -5.0\nfunctions:\n  - name: a\n    profile:\n      serial_ms: 1.0\nedges:\n  - from: a\n    to: ghost\n",
    )
    .unwrap();
    let out = bin().arg("validate").arg(&path).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("slo_ms"), "{stderr}");
    assert!(stderr.contains("ghost"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn export_builtin_reproduces_the_committed_golden_specs() {
    let dir = std::env::temp_dir().join("aarc-cli-test-export");
    std::fs::remove_dir_all(&dir).ok();
    run_ok(bin().args(["export-builtin", "--dir"]).arg(&dir));
    for name in ["chatbot", "ml_pipeline", "video_analysis"] {
        let exported = std::fs::read_to_string(dir.join(format!("{name}.yaml"))).unwrap();
        let committed = std::fs::read_to_string(specs_dir().join(format!("{name}.yaml"))).unwrap();
        assert_eq!(
            exported, committed,
            "{name} drifted from the committed spec"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_mints_a_spec_that_validates_and_compares() {
    let dir = std::env::temp_dir().join("aarc-cli-test-generate");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("minted.yaml");
    run_ok(
        bin()
            .args([
                "generate",
                "--seed",
                "7",
                "--layers",
                "2",
                "--max-width",
                "2",
                "--out",
            ])
            .arg(&path),
    );
    run_ok(bin().arg("validate").arg(&path));
    let out = run_ok(
        bin()
            .args(["compare", "--format", "table", "--spec"])
            .arg(&path),
    );
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(table.contains("synthetic-7"), "{table}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compare_reports_shared_engine_cache_stats() {
    let spec = specs_dir().join("chatbot.yaml");
    let out = run_ok(
        bin()
            .args(["compare", "--threads", "2", "--format", "json", "--spec"])
            .arg(&spec),
    );
    let report = serde_json::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    let eval = report.get("eval").expect("report carries eval stats");
    for field in [
        "simulations",
        "cache_hits",
        "cache_misses",
        "cache_hit_rate",
    ] {
        assert!(eval.get(field).is_some(), "eval lacks `{field}`");
    }
    // All four methods execute the same base configuration; the engine must
    // have answered at least the three re-executions from the cache.
    let hits = eval.get("cache_hits").and_then(as_num).unwrap();
    assert!(hits >= 3.0, "expected cross-method cache hits, got {hits}");
}

#[test]
fn bench_emits_schema_and_gates_against_itself() {
    let dir = std::env::temp_dir().join("aarc-cli-test-bench");
    std::fs::create_dir_all(&dir).unwrap();
    let baseline = dir.join("baseline.json");
    let current = dir.join("BENCH_pr.json");
    let spec = specs_dir().join("chatbot.yaml");

    // First run writes the baseline.
    run_ok(
        bin()
            .args(["bench"])
            .arg(&spec)
            .args(["--threads", "2", "--batch", "64", "--out"])
            .arg(&baseline),
    );
    let report =
        serde_json::parse(&std::fs::read_to_string(&baseline).unwrap()).expect("valid JSON");
    assert_eq!(
        report.get("version").and_then(as_num),
        Some(6.0),
        "BENCH schema version"
    );
    let build_info = report.get("build_info").expect("build provenance block");
    assert!(
        build_info.get("rustc").and_then(|v| v.as_str()).is_some(),
        "build_info must record the rustc version"
    );
    let aggregate = report
        .get("aggregate")
        .expect("aggregate shared-pool phase");
    assert!(
        aggregate.get("sims_per_sec").and_then(as_num).unwrap() > 0.0,
        "aggregate phase must record throughput"
    );
    let scenarios = report.get("scenarios").and_then(|s| s.as_seq()).unwrap();
    assert_eq!(scenarios.len(), 1);
    for field in [
        "scenario",
        "spec_fingerprint",
        "thread_scaling",
        "speedup",
        "incremental_resim",
        "batch_dedup",
        "alloc",
        "search",
    ] {
        assert!(
            scenarios[0].get(field).is_some(),
            "scenario lacks `{field}`"
        );
    }
    let curve = scenarios[0]
        .get("thread_scaling")
        .and_then(|s| s.as_seq())
        .unwrap();
    assert_eq!(
        curve.len(),
        2,
        "curve at --threads 2 holds the 1t and 2t points"
    );
    assert_eq!(curve[0].get("threads").and_then(as_num), Some(1.0));
    assert_eq!(curve[1].get("threads").and_then(as_num), Some(2.0));
    let inc = scenarios[0].get("incremental_resim").unwrap();
    assert!(
        inc.get("incremental_sims").and_then(as_num).unwrap() > 0.0,
        "jitter-free spec must take the incremental path"
    );
    let dedup = scenarios[0].get("batch_dedup").unwrap();
    assert!(
        dedup.get("dedup_hits").and_then(as_num).unwrap() > 0.0,
        "duplicate-heavy batch must record fan-out hits"
    );
    let alloc = scenarios[0].get("alloc").unwrap();
    // Batch 64 -> chunk width 8 -> 8 chunks -> 8 slabs over 64 sims.
    assert_eq!(
        alloc.get("allocs_per_sim").and_then(as_num),
        Some(0.125),
        "batch path must mint one result slab per chunk"
    );
    let search = scenarios[0].get("search").unwrap();
    let hit_rate = search.get("cache_hit_rate").and_then(as_num).unwrap();
    assert!(hit_rate > 0.0, "search phase must produce cache hits");
    let latency = search.get("latency").expect("per-eval latency percentiles");
    let p50 = latency.get("p50_ms").and_then(as_num).unwrap();
    let p99 = latency.get("p99_ms").and_then(as_num).unwrap();
    assert!(
        p50 > 0.0 && p99 >= p50,
        "latency percentiles must be ordered"
    );

    // Second run gates against the first: identical workloads on the same
    // machine cannot regress by 900% (huge tolerance keeps this timing-noise
    // proof — the tight 20% gate runs in CI against the committed baseline).
    run_ok(
        bin()
            .args(["bench"])
            .arg(&spec)
            .args([
                "--threads",
                "2",
                "--batch",
                "64",
                "--max-regress",
                "9.0",
                "--max-allocs-per-sim",
                "0.2",
                "--baseline",
            ])
            .arg(&baseline)
            .args(["--out"])
            .arg(&current),
    );

    // An unreachable speedup requirement must fail the gate.
    let out = bin()
        .args(["bench"])
        .arg(&spec)
        .args(["--threads", "2", "--batch", "64", "--min-speedup", "1000"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("speedup"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_honours_threads_and_reports_eval_stats() {
    let spec = specs_dir().join("chatbot.yaml");
    let out_1t = run_ok(bin().args(["run", "--threads", "1", "--spec"]).arg(&spec));
    let out_4t = run_ok(bin().args(["run", "--threads", "4", "--spec"]).arg(&spec));
    assert_eq!(
        out_1t.stdout, out_4t.stdout,
        "run output must not depend on threads"
    );
    let text = String::from_utf8_lossy(&out_1t.stdout);
    assert!(text.contains("eval:"), "{text}");
    assert!(text.contains("hit rate"), "{text}");

    let bad = bin()
        .args(["run", "--threads", "0", "--spec"])
        .arg(&spec)
        .output()
        .unwrap();
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("--threads"));
}

#[test]
fn unknown_subcommands_and_flags_fail_cleanly() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));

    let out = bin().args(["run", "--nope", "x"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--nope"));

    let help = run_ok(bin().arg("help"));
    assert!(String::from_utf8_lossy(&help.stdout).contains("USAGE"));

    // Every subcommand answers `--help`/`-h` with the usage and exits 0
    // without running (`serve --help` binds nothing), yet still rejects
    // an unknown flag.
    for subcommand in [
        "validate",
        "run",
        "compare",
        "sweep",
        "bench",
        "serve",
        "loadtest",
        "export-builtin",
        "generate",
    ] {
        for flag in ["--help", "-h"] {
            let out = run_ok(bin().args([subcommand, flag]));
            assert!(
                String::from_utf8_lossy(&out.stdout).starts_with("aarc — "),
                "{subcommand} {flag}"
            );
            assert!(out.stderr.is_empty(), "{subcommand} {flag} ran");
        }
        let out = bin().args([subcommand, "--nope", "x"]).output().unwrap();
        assert!(!out.status.success(), "{subcommand} --nope");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("unknown flag `--nope`"),
            "{subcommand}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
