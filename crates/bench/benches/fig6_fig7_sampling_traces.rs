//! Figs. 6 and 7 bench: producing the per-sample runtime and cost series of
//! each method on the Chatbot workflow (the series plotted in the figures),
//! plus the trace post-processing itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use aarc_baselines::methods;
use aarc_bench::fig5_search_efficiency::measure;
use aarc_bench::FIGURE_METHODS;
use aarc_workloads::chatbot;

fn bench_fig6_fig7(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_fig7_sampling_traces");
    group.sample_size(10);

    for name in FIGURE_METHODS {
        let method = methods::build(name).expect("figure methods are registered");
        group.bench_with_input(
            BenchmarkId::new("series", method.name()),
            &method,
            |b, m| {
                let workload = chatbot();
                b.iter(|| {
                    let eff = measure(&workload, &**m).expect("search succeeds");
                    std::hint::black_box((eff.runtime_series_ms, eff.cost_series))
                });
            },
        );
    }

    // Post-processing of an already-collected trace (best-cost running
    // minimum) — cheap, but it is what the plotting pipeline does per point.
    let workload = chatbot();
    let aarc = methods::build("aarc").expect("aarc is registered");
    let eff = measure(&workload, &*aarc).expect("search succeeds");
    group.bench_function("best_cost_running_minimum", |b| {
        b.iter(|| {
            let mut best = f64::INFINITY;
            let series: Vec<f64> = eff
                .cost_series
                .iter()
                .map(|&c| {
                    best = best.min(c);
                    best
                })
                .collect();
            std::hint::black_box(series)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_fig6_fig7);
criterion_main!(benches);
