//! Criterion bench: the heavy-compute hashing wordcount swept over worker
//! counts, against the simulator baseline. The `par_scaling` bin is the
//! JSON-emitting CI variant of the same sweep; this harness integrates
//! with criterion's timing for local comparisons.

use blazes_apps::heavy::{run_heavy, HeavyConfig};
use blazes_dataflow::backend::BackendSpec;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn small_uniform() -> HeavyConfig {
    HeavyConfig::uniform(8_000, 128)
}

fn small_skewed() -> HeavyConfig {
    HeavyConfig::skewed(8_000, 128)
}

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("par_scaling");
    group.sample_size(10);

    group.bench_function("sim/uniform", |b| {
        let cfg = small_uniform();
        b.iter(|| black_box(run_heavy(&cfg, &BackendSpec::Sim).0.len()));
    });
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("par/uniform", workers),
            &workers,
            |b, &workers| {
                let cfg = small_uniform();
                b.iter(|| black_box(run_heavy(&cfg, &BackendSpec::par(workers)).0.len()));
            },
        );
    }
    group.bench_with_input(
        BenchmarkId::new("par/skewed", 4usize),
        &4usize,
        |b, &workers| {
            let cfg = small_skewed();
            b.iter(|| black_box(run_heavy(&cfg, &BackendSpec::par(workers)).0.len()));
        },
    );
    group.finish();
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
