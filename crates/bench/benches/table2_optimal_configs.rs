//! Table II bench: repeated execution of a found configuration under runtime
//! jitter (the paper's 100-run averaging), measured per method on the
//! Chatbot workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use aarc_baselines::methods;
use aarc_bench::table2_optimal::evaluate_config;
use aarc_bench::FIGURE_METHODS;
use aarc_workloads::chatbot;

fn bench_table2(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2_optimal_configs");
    group.sample_size(10);

    let workload = chatbot();
    for name in FIGURE_METHODS {
        // Search once outside the timed section; the bench measures the
        // repeated evaluation of the found configuration.
        let method = methods::build(name).expect("figure methods are registered");
        let outcome = method
            .search(workload.env(), workload.slo_ms())
            .expect("search succeeds");
        group.bench_with_input(
            BenchmarkId::new("evaluate_20_runs", method.name()),
            &outcome.best_configs,
            |b, configs| {
                b.iter(|| {
                    std::hint::black_box(
                        evaluate_config(workload.env(), configs, workload.slo_ms(), 20)
                            .expect("evaluation succeeds"),
                    )
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_table2);
criterion_main!(benches);
