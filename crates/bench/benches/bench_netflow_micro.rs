//! Benchmarks for the ISP NetFlow path (Tables 7–8, Fig. 12): snapshot
//! generation, the v5 wire codec, the collector/matcher, and the
//! sampling-rate ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use xborder_bench::{Repro, Scale};
use xborder_netflow::record::encode_flows;
use xborder_netflow::{generate_snapshot, FlowCollector, IspProfile, SnapshotConfig, V5Packet};

fn bench_snapshot_generation(c: &mut Criterion) {
    let repro = Repro::run(Scale::Small, 61);
    let profile = IspProfile::by_name("DE-Broadband").unwrap();
    let cfg = SnapshotConfig {
        n_page_views: 100,
        ..Default::default()
    };
    let view = repro.world.dns.indexed_view(repro.world.graph.domains());
    c.bench_function("table8/generate_snapshot_100views", |b| {
        b.iter(|| generate_snapshot(&profile, &cfg, &repro.world.graph, &view, 62))
    });
}

fn bench_v5_codec(c: &mut Criterion) {
    let repro = Repro::run(Scale::Small, 63);
    let profile = IspProfile::by_name("PL").unwrap();
    let cfg = SnapshotConfig {
        n_page_views: 50,
        ..Default::default()
    };
    let view = repro.world.dns.indexed_view(repro.world.graph.domains());
    let snap = generate_snapshot(&profile, &cfg, &repro.world.graph, &view, 64);

    let mut g = c.benchmark_group("netflow_v5");
    g.throughput(Throughput::Elements(snap.flows.len() as u64));
    g.bench_function("encode", |b| b.iter(|| encode_flows(&snap.flows, 1, 1000)));
    let packets = encode_flows(&snap.flows, 1, 1000);
    g.bench_function("decode", |b| {
        b.iter(|| {
            packets
                .iter()
                .map(|p| V5Packet::decode(p.clone()).expect("valid packet").records.len())
                .sum::<usize>()
        })
    });
    g.finish();
}

fn bench_collector_matching(c: &mut Criterion) {
    let repro = Repro::run(Scale::Small, 65);
    let profile = IspProfile::by_name("HU").unwrap();
    let cfg = SnapshotConfig {
        n_page_views: 200,
        ..Default::default()
    };
    let view = repro.world.dns.indexed_view(repro.world.graph.domains());
    let snap = generate_snapshot(&profile, &cfg, &repro.world.graph, &view, 66);

    let mut g = c.benchmark_group("table8_matcher");
    g.throughput(Throughput::Elements(snap.flows.len() as u64));
    g.bench_function("hash_match_flows", |b| {
        b.iter(|| {
            let mut collector = FlowCollector::new(repro.out.tracker_ips.ips.keys().copied());
            for f in &snap.flows {
                collector.ingest(f, profile.country);
            }
            collector.into_stats().tracking_flows
        })
    });
    g.finish();
}

fn bench_ablation_sampling_rate(c: &mut Criterion) {
    // Ablation: confinement-estimate stability vs sampled volume. Cost
    // scales linearly; EXPERIMENTS.md tracks the estimate variance.
    let repro = Repro::run(Scale::Small, 67);
    let profile = IspProfile::by_name("DE-Mobile").unwrap();
    let view = repro.world.dns.indexed_view(repro.world.graph.domains());
    let mut g = c.benchmark_group("ablation_sampling_rate");
    for views in [25usize, 50, 100, 200] {
        let cfg = SnapshotConfig {
            n_page_views: views,
            ..Default::default()
        };
        g.bench_with_input(BenchmarkId::from_parameter(views), &views, |b, _| {
            b.iter(|| {
                generate_snapshot(&profile, &cfg, &repro.world.graph, &view, 68)
                    .flows
                    .len()
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_snapshot_generation,
    bench_v5_codec,
    bench_collector_matching,
    bench_ablation_sampling_rate
);
criterion_main!(benches);
