//! Benchmarks for tracker-IP completion (Sect. 3.3) and the dedicated-IP
//! analysis (Figs. 4–5), plus the pDNS-coverage ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xborder::dedicated::DedicatedAnalysis;
use xborder::ips::TrackerIpSet;
use xborder::pipeline::run_extension_pipeline;
use xborder::{World, WorldConfig};
use xborder_bench::{Repro, Scale};
use xborder_faults::{DegradationReport, FaultInjector};

fn bench_ip_set_build(c: &mut Criterion) {
    let repro = Repro::run(Scale::Small, 71);
    c.bench_function("ipcompletion/from_dataset", |b| {
        b.iter(|| TrackerIpSet::from_dataset(&repro.out.dataset, &repro.out.classification))
    });
    c.bench_function("ipcompletion/pdns_forward_completion", |b| {
        b.iter(|| {
            let mut set = TrackerIpSet::from_dataset(&repro.out.dataset, &repro.out.classification);
            set.complete_with_pdns_degraded(
                repro.world.dns.pdns(),
                &FaultInjector::inactive(),
                &mut DegradationReport::default(),
            )
        })
    });
}

fn bench_dedicated_analysis(c: &mut Criterion) {
    let repro = Repro::run(Scale::Small, 72);
    c.bench_function("fig4/dedicated_ip_analysis", |b| {
        b.iter(|| DedicatedAnalysis::run(&repro.out, repro.world.dns.pdns()))
    });
    let analysis = DedicatedAnalysis::run(&repro.out, repro.world.dns.pdns());
    c.bench_function("fig5/heavy_sharers", |b| b.iter(|| analysis.heavy_sharers(10).len()));
}

fn bench_ablation_pdns_coverage(c: &mut Criterion) {
    // Ablation: how many extra IPs (and how much work) different sensor
    // coverages produce. Re-builds the world with each coverage level.
    let mut g = c.benchmark_group("ablation_pdns_coverage");
    g.sample_size(10);
    for coverage in [0.0f64, 0.1, 0.35, 1.0] {
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{coverage:.2}")),
            &coverage,
            |b, cov| {
                b.iter(|| {
                    let mut cfg = WorldConfig::small(73);
                    cfg.pdns_coverage = *cov;
                    // Shrink the world further: this ablation rebuilds it.
                    cfg.web.n_publishers = 100;
                    cfg.web.n_adtech_orgs = 30;
                    cfg.web.n_clean_orgs = 15;
                    cfg.study.population.n_users = 20;
                    cfg.study.visits_per_user_mean = 15.0;
                    let mut world = World::build(cfg);
                    let out = run_extension_pipeline(&mut world);
                    out.completion.n_added
                })
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_ip_set_build,
    bench_dedicated_analysis,
    bench_ablation_pdns_coverage
);
criterion_main!(benches);
