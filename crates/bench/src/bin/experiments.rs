//! Command-line experiment runner that regenerates every table and figure of
//! the AARC paper's evaluation as text tables.
//!
//! ```text
//! experiments [fig2|fig3|fig5|fig6|fig7|table2|fig8|ablations|all] [--quick]
//! ```
//!
//! `--quick` shrinks repetition counts so the full suite finishes in a couple
//! of minutes; the defaults mirror the paper (100 BO rounds, 100 repeated
//! executions, 300 requests).

use std::env;

use aarc_bench::fig5_search_efficiency::{reduction, run_all as run_fig5};
use aarc_bench::{
    ablations, fig2_decoupling, fig3_bo_motivation, fig8_input_aware, fmt_thousands, table2_optimal,
};
use aarc_workloads::paper_workloads;

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_owned());

    let run = |name: &str| which == "all" || which == name;

    if run("fig2") {
        fig2();
    }
    if run("fig3") {
        fig3(quick);
    }
    if run("fig5") || run("fig6") || run("fig7") {
        fig5_6_7(run("fig5"), run("fig6"), run("fig7"));
    }
    if run("table2") {
        table2(quick);
    }
    if run("fig8") {
        fig8(quick);
    }
    if run("ablations") {
        run_ablations();
    }
}

fn banner(title: &str) {
    println!("\n=== {title} ===");
}

fn fig2() {
    banner("Fig. 2 — runtime and cost with decoupled resources");
    for workload in paper_workloads() {
        let heatmap = fig2_decoupling::sweep(&workload);
        println!("\nworkload: {}", workload.name());
        println!(
            "{:>6} {:>9} {:>14} {:>16}",
            "vCPU", "mem (MB)", "runtime (ms)", "cost"
        );
        for cell in &heatmap.cells {
            match (cell.runtime_ms, cell.cost) {
                (Some(rt), Some(cost)) => println!(
                    "{:>6.1} {:>9} {:>14.1} {:>16}",
                    cell.vcpu,
                    cell.memory_mb,
                    rt,
                    fmt_thousands(cost)
                ),
                _ => println!(
                    "{:>6.1} {:>9} {:>14} {:>16}",
                    cell.vcpu, cell.memory_mb, "OOM", "-"
                ),
            }
        }
        if let Some(best) = heatmap.cheapest_within_slo(workload.slo_ms()) {
            println!(
                "cost optimum within SLO: {:.1} vCPU / {} MB (cost {})",
                best.vcpu,
                best.memory_mb,
                fmt_thousands(best.cost.unwrap_or(0.0))
            );
        }
        if let Some(saving) = fig2_decoupling::decoupling_memory_saving(&heatmap, 1_024.0) {
            println!(
                "memory saving vs coupled allocation: {:.1} %",
                saving * 100.0
            );
        }
    }
}

fn fig3(quick: bool) {
    banner("Fig. 3 — Bayesian optimization search for Chatbot (§II-B motivation)");
    let rounds = if quick { 40 } else { 100 };
    match fig3_bo_motivation::run(rounds) {
        Ok(result) => {
            println!("rounds: {rounds}");
            println!(
                "total sampling runtime: {:.2} h",
                result.total_runtime_hours
            );
            println!(
                "cost reduction of best feasible sample: {:.1} %",
                result.cost_reduction * 100.0
            );
            println!(
                "average fluctuation amplitude: {:.1} % of the mean cost",
                result.fluctuation_amplitude * 100.0
            );
            println!(
                "fraction of cost changes that are increases: {:.1} %",
                result.increase_fraction * 100.0
            );
            println!("\n{:>6} {:>14} {:>16}", "sample", "runtime (ms)", "cost");
            for (i, (rt, cost)) in result
                .runtime_series_ms
                .iter()
                .zip(&result.cost_series)
                .enumerate()
            {
                println!("{:>6} {:>14.1} {:>16}", i + 1, rt, fmt_thousands(*cost));
            }
        }
        Err(e) => eprintln!("fig3 failed: {e}"),
    }
}

fn fig5_6_7(print5: bool, print6: bool, print7: bool) {
    banner("Figs. 5/6/7 — search efficiency of AARC vs BO vs MAFF");
    let results = match run_fig5() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("search-efficiency experiment failed: {e}");
            return;
        }
    };

    if print5 {
        println!("\nFig. 5 — total sampling runtime and cost");
        println!(
            "{:<16} {:<6} {:>8} {:>18} {:>18}",
            "workload", "method", "samples", "total runtime (s)", "total cost"
        );
        for r in &results {
            println!(
                "{:<16} {:<6} {:>8} {:>18.1} {:>18}",
                r.workload,
                r.method,
                r.samples,
                r.total_runtime_s,
                fmt_thousands(r.total_cost)
            );
        }
        // Headline reductions (AARC vs each baseline, per workload).
        for workload in ["chatbot", "ml-pipeline", "video-analysis"] {
            let find = |method: &str| {
                results
                    .iter()
                    .find(|r| r.workload == workload && r.method == method)
            };
            if let (Some(aarc), Some(bo), Some(maff)) = (find("AARC"), find("BO"), find("MAFF")) {
                println!(
                    "{workload}: AARC search runtime {:.1}% vs BO, {:.1}% vs MAFF; search cost {:.1}% vs BO, {:.1}% vs MAFF (positive = AARC lower)",
                    reduction(aarc.total_runtime_s, bo.total_runtime_s) * 100.0,
                    reduction(aarc.total_runtime_s, maff.total_runtime_s) * 100.0,
                    reduction(aarc.total_cost, bo.total_cost) * 100.0,
                    reduction(aarc.total_cost, maff.total_cost) * 100.0,
                );
            }
        }
    }

    if print6 {
        println!("\nFig. 6 — workflow runtime vs sample count");
        for r in &results {
            let series: Vec<String> = r
                .runtime_series_ms
                .iter()
                .map(|v| format!("{v:.0}"))
                .collect();
            println!("{} / {}: [{}]", r.workload, r.method, series.join(", "));
        }
    }

    if print7 {
        println!("\nFig. 7 — workflow cost vs sample count");
        for r in &results {
            let series: Vec<String> = r.cost_series.iter().map(|v| format!("{v:.0}")).collect();
            println!("{} / {}: [{}]", r.workload, r.method, series.join(", "));
        }
    }
}

fn table2(quick: bool) {
    banner("Table II — average runtime and cost of the found configurations");
    let repetitions = if quick { 20 } else { 100 };
    match table2_optimal::run_all(repetitions) {
        Ok(rows) => {
            println!(
                "{:<16} {:<6} {:>18} {:>16} {:>14}",
                "workload", "method", "runtime (s)", "cost", "slo violations"
            );
            for r in rows {
                println!(
                    "{:<16} {:<6} {:>12.1} ± {:>3.1} {:>16} {:>10}/{}",
                    r.workload,
                    r.method,
                    r.runtime_mean_s,
                    r.runtime_std_s,
                    fmt_thousands(r.cost_mean),
                    r.slo_violations,
                    r.repetitions
                );
            }
        }
        Err(e) => eprintln!("table2 failed: {e}"),
    }
}

fn fig8(quick: bool) {
    banner("Fig. 8 — input-aware configuration on Video Analysis");
    let requests = if quick { 30 } else { 300 };
    match fig8_input_aware::run(requests) {
        Ok(results) => {
            for r in &results {
                println!(
                    "\nmethod {} — {} SLO violations out of {} requests",
                    r.method,
                    r.slo_violations,
                    r.requests.len()
                );
                println!("average cost per input class:");
                for (class, cost) in &r.avg_cost_per_class {
                    println!("  {class:>7}: {}", fmt_thousands(*cost));
                }
            }
        }
        Err(e) => eprintln!("fig8 failed: {e}"),
    }
}

fn run_ablations() {
    banner("Ablations — AARC design choices (chatbot workload)");
    let workload = aarc_workloads::chatbot();
    match ablations::run_all(&workload) {
        Ok(results) => {
            println!(
                "{:<28} {:>8} {:>18} {:>16} {:>10}",
                "variant", "samples", "search runtime (s)", "final cost", "meets SLO"
            );
            for r in results {
                println!(
                    "{:<28} {:>8} {:>18.1} {:>16} {:>10}",
                    r.variant,
                    r.samples,
                    r.total_runtime_s,
                    fmt_thousands(r.final_cost),
                    r.meets_slo
                );
            }
        }
        Err(e) => eprintln!("ablations failed: {e}"),
    }
}
