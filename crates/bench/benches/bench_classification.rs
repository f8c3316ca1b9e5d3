//! Benchmarks for the classification path (Table 2, Fig. 3) and the
//! classifier-stage ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xborder::{World, WorldConfig};
use xborder_browser::{run_study_degraded, ExtensionDataset, StudyConfig};
use xborder_classify::classifier::{classify_with_stages_threads, ClassifierStages};
use xborder_classify::{classify, generate_lists, FilterList, FilterRule, RuleEngine};
use xborder_faults::{DegradationReport, FaultInjector};
use xborder_webgraph::Domain;

fn dataset() -> (World, ExtensionDataset, FilterList, FilterList) {
    let mut world = World::build(WorldConfig::small(11));
    let mut rng = StdRng::seed_from_u64(12);
    let ds = run_study_degraded(
        &StudyConfig::small(),
        &world.graph,
        &mut world.dns,
        &mut rng,
        &FaultInjector::inactive(),
        &mut DegradationReport::default(),
    );
    let (el, ep) = generate_lists(&world.graph);
    (world, ds, el, ep)
}

fn bench_table2_classify(c: &mut Criterion) {
    let (_world, ds, el, ep) = dataset();
    let mut g = c.benchmark_group("table2");
    g.throughput(Throughput::Elements(ds.requests.len() as u64));
    g.bench_function("classify_full", |b| {
        b.iter(|| classify(&ds.requests, &ds.domains, &el, &ep))
    });
    g.finish();
}

fn bench_ablation_stages(c: &mut Criterion) {
    // Ablation: which stage contributes what cost (and, in EXPERIMENTS.md,
    // what recall).
    let (_world, ds, el, ep) = dataset();
    let mut g = c.benchmark_group("ablation_classifier_stages");
    let configs = [
        ("lists_only", ClassifierStages { referrer_propagation: false, require_args: true, keywords: false }),
        ("lists_plus_referrer", ClassifierStages { referrer_propagation: true, require_args: true, keywords: false }),
        ("lists_plus_keywords", ClassifierStages { referrer_propagation: false, require_args: true, keywords: true }),
        ("full", ClassifierStages::default()),
        ("no_args_requirement", ClassifierStages { referrer_propagation: true, require_args: false, keywords: true }),
    ];
    for (name, stages) in configs {
        g.bench_function(name, |b| {
            b.iter(|| classify_with_stages_threads(&ds.requests, &ds.domains, &el, &ep, stages, 1))
        });
    }
    g.finish();
}

fn bench_fig3_top_tlds(c: &mut Criterion) {
    let (_world, ds, el, ep) = dataset();
    let res = classify(&ds.requests, &ds.domains, &el, &ep);
    let out = xborder::pipeline::StudyOutputs {
        dataset: ds,
        classification: res,
        easylist: el,
        easyprivacy: ep,
        tracker_ips: Default::default(),
        completion: xborder::ips::CompletionStats {
            n_observed: 0,
            n_added: 0,
            v4_share: 0.0,
            added_v4_share: 0.0,
        },
        ipmap_estimates: Default::default(),
        maxmind_estimates: Default::default(),
        ipapi_estimates: Default::default(),
        snapshots: Vec::new(),
    };
    c.bench_function("fig3/top_tlds", |b| {
        b.iter(|| xborder::report::Fig3Data::compute(&out, 20))
    });
}

fn bench_filter_list_matching(c: &mut Criterion) {
    let (_world, ds, el, _ep) = dataset();
    let mut g = c.benchmark_group("filterlist");
    g.throughput(Throughput::Elements(1));
    let r = &ds.requests[ds.requests.len() / 2];
    let host = ds.domains.domain(r.host);
    g.bench_function("match_one_request", |b| {
        b.iter(|| el.matches(host, &r.url))
    });
    g.finish();
}

/// Synthetic URL-dependent rule set + probe URLs for the engine scaling
/// curve (the generated lists are all domain anchors; substring/path
/// rules are where the automaton's one-pass scan beats the per-rule
/// oracle, and where the curve's slope shows).
fn engine_workload(n_rules: usize, n_urls: usize, seed: u64) -> (FilterList, Vec<(Domain, String)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_domains = (n_rules / 2).max(8);
    let domains: Vec<Domain> = (0..n_domains)
        .map(|i| Domain::new(format!("cdn{i}.ads{}.example{}.com", i % 13, i % 5)))
        .collect();
    let mut list = FilterList::new("bench-engine");
    for i in 0..n_rules {
        list.push(match i % 5 {
            0 => FilterRule::DomainAnchor(domains[rng.gen_range(0..n_domains)].clone()),
            1 | 2 => FilterRule::DomainWithPath {
                domain: domains[rng.gen_range(0..n_domains)].clone(),
                path_prefix: format!("/seg{}/", i % 97),
            },
            _ => FilterRule::UrlSubstring(format!("tok{:04}x", rng.gen_range(0..n_rules * 2))),
        });
    }
    let probes = (0..n_urls)
        .map(|_| {
            let host = if rng.gen_range(0..4) == 0 {
                domains[rng.gen_range(0..n_domains)].clone()
            } else {
                Domain::new(format!("www.site{}.net", rng.gen_range(0..n_domains)))
            };
            let url = format!(
                "https://{host}/seg{}/page?uid=u{}&tok{:04}x=1",
                rng.gen_range(0..97),
                rng.gen_range(0..100_000),
                rng.gen_range(0..n_rules * 4),
            );
            (host, url)
        })
        .collect();
    (list, probes)
}

fn bench_rule_engine(c: &mut Criterion) {
    // Scaling curve: match cost over a fixed URL sample as the rule count
    // grows {64, 512, 4096}. The engine's one-pass automaton should stay
    // near-flat in rules; the per-rule oracle grows linearly — the gap is
    // the tentpole's whole argument. Build cost rides along so compile
    // amortization stays visible.
    const N_URLS: usize = 2048;
    let mut g = c.benchmark_group("rule_engine");
    g.throughput(Throughput::Elements(N_URLS as u64));
    for n_rules in [64usize, 512, 4096] {
        let (list, probes) = engine_workload(n_rules, N_URLS, 97);
        g.bench_with_input(BenchmarkId::new("build", n_rules), &n_rules, |b, _| {
            b.iter(|| RuleEngine::compile(&[&list]))
        });
        let mut engine = RuleEngine::compile(&[&list]);
        // Warm the per-host row cache so the measured loop is the
        // steady-state URL path, like the classifier's memoized hot loop.
        let warm: u64 = probes.iter().filter(|(h, u)| engine.matches(h, u)).count() as u64;
        let oracle: u64 = probes.iter().filter(|(h, u)| list.matches(h, u)).count() as u64;
        assert_eq!(warm, oracle, "engine drifted from the rule oracle");
        g.bench_with_input(BenchmarkId::new("engine_match", n_rules), &n_rules, |b, _| {
            b.iter(|| {
                probes
                    .iter()
                    .filter(|(host, url)| engine.matches(host, url))
                    .count()
            })
        });
        g.bench_with_input(BenchmarkId::new("oracle_match", n_rules), &n_rules, |b, _| {
            b.iter(|| {
                probes
                    .iter()
                    .filter(|(host, url)| list.matches(host, url))
                    .count()
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_table2_classify,
    bench_ablation_stages,
    bench_fig3_top_tlds,
    bench_filter_list_matching,
    bench_rule_engine
);
criterion_main!(benches);
