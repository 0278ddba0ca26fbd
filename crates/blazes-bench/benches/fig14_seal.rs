//! Criterion bench for the Figure 14 comparison: independent vs unanimous
//! seal protocols at 10 ad servers.

use blazes_apps::adreport::StrategyKind;
use blazes_apps::autocoord::run_ad_auto;
use blazes_apps::workload::CampaignPlacement;
use blazes_bench::adreport_scenario;
use blazes_dataflow::backend::BackendSpec;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_seals(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig14_seal");
    group.sample_size(10);
    for (label, placement) in [
        ("independent", CampaignPlacement::Independent),
        ("unanimous", CampaignPlacement::Spread),
    ] {
        group.bench_with_input(BenchmarkId::new(label, 10), &10usize, |b, &n| {
            b.iter(|| {
                let mut sc = adreport_scenario(n, StrategyKind::Sealed, placement, 0);
                sc.workload.entries_per_server = 200;
                black_box(
                    run_ad_auto(&sc, &BackendSpec::Sim)
                        .0
                        .stats
                        .messages_delivered(),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_seals);
criterion_main!(benches);
