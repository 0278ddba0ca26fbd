//! Criterion bench for the Figures 12–13 workload: ad reporting under each
//! coordination strategy at 5 and 10 ad servers (scaled-down entry counts;
//! the figure-shape runs live in the `fig12`/`fig13` binaries).

use blazes_apps::adreport::StrategyKind;
use blazes_apps::autocoord::run_ad_auto;
use blazes_apps::workload::CampaignPlacement;
use blazes_bench::adreport_scenario;
use blazes_dataflow::backend::BackendSpec;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_adreport(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig12_13_adreport");
    group.sample_size(10);
    for servers in [5usize, 10] {
        for (label, strategy, placement) in [
            (
                "uncoordinated",
                StrategyKind::Uncoordinated,
                CampaignPlacement::Spread,
            ),
            ("ordered", StrategyKind::Ordered, CampaignPlacement::Spread),
            ("seal", StrategyKind::Sealed, CampaignPlacement::Spread),
        ] {
            group.bench_with_input(BenchmarkId::new(label, servers), &servers, |b, &n| {
                b.iter(|| {
                    let mut sc = adreport_scenario(n, strategy, placement, 0);
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
    }
    group.finish();
}

criterion_group!(benches, bench_adreport);
criterion_main!(benches);
