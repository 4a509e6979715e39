//! Fig. 3 bench: the Bayesian-optimization motivation experiment on the
//! Chatbot workflow (§II-B). Reduced round counts keep the bench tractable
//! while exercising the full GP fit / acquisition / sampling loop; the
//! evaluation figures' 70-sample budget is where the surrogate's growing
//! factor and candidate scoring dominate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use aarc_baselines::BoParams;
use aarc_bench::fig3_bo_motivation::run;

fn bench_fig3(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_bo_motivation");
    group.sample_size(10);
    for rounds in [10usize, 25, BoParams::default().iterations] {
        group.bench_with_input(BenchmarkId::new("bo_chatbot", rounds), &rounds, |b, &r| {
            b.iter(|| std::hint::black_box(run(r).expect("bo motivation run succeeds")));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig3);
criterion_main!(benches);
