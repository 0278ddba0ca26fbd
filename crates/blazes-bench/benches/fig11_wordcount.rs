//! Criterion bench for the Figure 11 workload: one wordcount run per
//! (cluster size, coordination regime). Criterion measures the wall-clock
//! cost of simulating each configuration; the *virtual-time* results that
//! reproduce the figure come from the `fig11` binary.

use blazes_apps::wordcount::run_wordcount;
use blazes_bench::fig11_scenario;
use blazes_dataflow::backend::BackendSpec;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_fig11(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig11_wordcount");
    group.sample_size(10);
    for workers in [5usize, 20] {
        for (label, transactional) in [("sealed", false), ("transactional", true)] {
            group.bench_with_input(BenchmarkId::new(label, workers), &workers, |b, &w| {
                b.iter(|| {
                    let mut sc = fig11_scenario(w, transactional, 0);
                    sc.workload.batches = 10;
                    black_box(
                        run_wordcount(&sc, &BackendSpec::Sim)
                            .stats
                            .messages_delivered(),
                    )
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig11);
criterion_main!(benches);
