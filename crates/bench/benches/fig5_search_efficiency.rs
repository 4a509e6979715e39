//! Fig. 5 bench: one full configuration search per (workload, method) pair —
//! the quantity whose total sampling runtime and cost the figure reports.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use aarc_baselines::methods;
use aarc_bench::fig5_search_efficiency::measure;
use aarc_bench::FIGURE_METHODS;
use aarc_workloads::{chatbot, ml_pipeline};

fn bench_fig5(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_search_efficiency");
    group.sample_size(10);
    // The chatbot and ML Pipeline workloads keep the bench runtime sane;
    // the experiments binary covers Video Analysis as well.
    for workload in [chatbot(), ml_pipeline()] {
        for name in FIGURE_METHODS {
            let method = methods::build(name).expect("figure methods are registered");
            group.bench_with_input(
                BenchmarkId::new(method.name(), workload.name()),
                &workload,
                |b, wl| {
                    b.iter(|| {
                        std::hint::black_box(measure(wl, &*method).expect("search succeeds"))
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig5);
criterion_main!(benches);
