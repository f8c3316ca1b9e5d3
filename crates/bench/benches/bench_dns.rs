//! Benchmarks for the DNS substrate, including the mapping-policy ablation
//! (DESIGN.md: geo vs round-robin vs pinned confinement mechanics).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use xborder_dns::{ClientCtx, DnsCache, DnsSim, MappingPolicy, ZoneEntry, ZoneServer};
use xborder_faults::{DegradationReport, FaultInjector};
use xborder_geo::{CountryCode, WORLD};
use xborder_netsim::time::SimTime;
use xborder_netsim::ServerId;
use xborder_webgraph::{Domain, DomainTable};

fn wide_zone(policy: MappingPolicy) -> ZoneEntry {
    let countries = ["US", "DE", "GB", "FR", "NL", "IE", "ES", "IT", "SE", "JP", "SG", "AU"];
    ZoneEntry {
        host: Domain::new("bench.example.com"),
        servers: countries
            .iter()
            .enumerate()
            .map(|(i, code)| {
                let c = WORLD.country_or_panic(CountryCode::parse(code).unwrap());
                ZoneServer {
                    server: ServerId(i as u32),
                    ip: std::net::IpAddr::V4(std::net::Ipv4Addr::from(0x0900_0000u32 + i as u32)),
                    country: c.code,
                    location: c.centroid(),
                        valid: None,
                }
            })
            .collect(),
        policy,
        ttl_secs: 300,
    }
}

fn bench_ablation_dns_policy(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_dns_policy");
    let de = WORLD.country_or_panic(CountryCode::parse("DE").unwrap());
    let client = ClientCtx::with_isp_resolver(de.code, de.centroid());
    let policies = [
        ("nearest_capacity_aware", MappingPolicy::NearestToResolver { epsilon: 0.08 }),
        ("nearest_high_dispersion", MappingPolicy::NearestToResolver { epsilon: 0.5 }),
        ("round_robin", MappingPolicy::RoundRobin),
        ("pinned", MappingPolicy::Pinned),
    ];
    for (name, policy) in policies {
        let zone = wide_zone(policy);
        let mut rng = StdRng::seed_from_u64(81);
        g.bench_with_input(BenchmarkId::from_parameter(name), &(), |b, _| {
            b.iter(|| zone.select(client.resolver.location, SimTime(100), &mut rng))
        });
    }
    g.finish();
}

fn bench_resolution_with_pdns_capture(c: &mut Criterion) {
    let mut dns = DnsSim::new();
    dns.add_zone(wide_zone(MappingPolicy::NearestToResolver { epsilon: 0.08 }))
        .unwrap();
    let de = WORLD.country_or_panic(CountryCode::parse("DE").unwrap());
    let client = ClientCtx::with_isp_resolver(de.code, de.centroid());
    let mut domains = DomainTable::new();
    let host = domains.intern(&Domain::new("bench.example.com"));
    let (view, pdns) = dns.indexed_view_and_pdns(&domains);
    let mut cache = DnsCache::for_user(82, 0);
    let inj = FaultInjector::inactive();
    let mut report = DegradationReport::default();
    let mut t = 0u64;
    c.bench_function("dns/resolve_with_pdns", |b| {
        b.iter(|| {
            // One TTL per step: every lookup misses, resolves and is
            // captured into the sensor.
            t += 300;
            let (answer, _) = cache
                .resolve_shared_id(&view, host, &client, SimTime(t), &inj, &mut report)
                .unwrap();
            for o in cache.take_id_observations() {
                pdns.observe(domains.domain(o.host), o.ip, o.time);
            }
            answer
        })
    });
}

criterion_group!(benches, bench_ablation_dns_policy, bench_resolution_with_pdns_capture);
criterion_main!(benches);
