//! Benchmarks for the extension-study path (Table 1, Fig. 2).
//!
//! Covers world generation, the full 4.5-month study simulation, and the
//! hot inner pieces: visit sampling and single-page rendering.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use xborder::{World, WorldConfig};
use xborder_browser::{run_study_degraded, RenderConfig, RenderEngine, StudyConfig, VisitSampler};
use xborder_faults::{DegradationReport, FaultInjector};

fn bench_world_build(c: &mut Criterion) {
    c.bench_function("worldgen/small_world_build", |b| {
        b.iter(|| World::build(WorldConfig::small(1)))
    });
}

fn bench_full_study(c: &mut Criterion) {
    // Table 1's dataset comes out of exactly this call.
    c.bench_function("table1/run_study_small", |b| {
        b.iter_batched(
            || World::build(WorldConfig::small(2)),
            |mut world| {
                let mut rng = StdRng::seed_from_u64(3);
                run_study_degraded(
                    &StudyConfig::small(),
                    &world.graph,
                    &mut world.dns,
                    &mut rng,
                    &FaultInjector::inactive(),
                    &mut DegradationReport::default(),
                )
            },
            BatchSize::PerIteration,
        )
    });
}

fn bench_render_visit(c: &mut Criterion) {
    let mut world = World::build(WorldConfig::small(4));
    let engine = RenderEngine::new(&world.graph, RenderConfig::default());
    let mut rng = StdRng::seed_from_u64(5);
    let pop = xborder_browser::UserPopulation::generate(
        &xborder_browser::UserPopulationConfig::small(),
        &mut rng,
    );
    let user = pop.users[0].clone();
    let mut out = Vec::with_capacity(4096);
    let n_pub = world.graph.publishers.len();
    let mut i = 0usize;
    let inj = FaultInjector::inactive();
    let mut report = DegradationReport::default();
    c.bench_function("fig2/render_single_visit", |b| {
        b.iter(|| {
            i = (i + 1) % n_pub;
            out.clear();
            let publisher = world.graph.publisher(xborder_webgraph::PublisherId(i as u32));
            engine.render_visit_degraded(
                &user,
                publisher,
                xborder_netsim::SimTime(100),
                &mut world.dns,
                &mut out,
                &mut rng,
                &inj,
                &mut report,
            )
        })
    });
}

fn bench_visit_sampler(c: &mut Criterion) {
    let world = World::build(WorldConfig::small(6));
    let mut sampler = VisitSampler::new();
    let mut rng = StdRng::seed_from_u64(7);
    let es = xborder_geo::CountryCode::parse("ES").unwrap();
    c.bench_function("fig2/visit_sample", |b| {
        b.iter(|| sampler.sample(es, &world.graph, 0.42, 0.02, &mut rng))
    });
}

criterion_group!(
    benches,
    bench_world_build,
    bench_full_study,
    bench_render_visit,
    bench_visit_sampler
);
criterion_main!(benches);
