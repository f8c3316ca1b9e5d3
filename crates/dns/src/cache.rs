//! A TTL-honouring stub-resolver cache.
//!
//! Why it matters for the paper: DNS redirection (Table 5's best lever)
//! only takes effect once cached answers expire. The paper contrasts
//! Google's 300 s TTLs with Facebook's 7,200 s ones (Sect. 5.1) — a
//! redirection rolls out "from seconds to a few hours". This cache makes
//! that dynamic measurable: resolve through it, flip the zone, and watch
//! the old answer linger for exactly one TTL.
//!
//! It is the *per-user* resolver state of every driver (DESIGN.md §5d),
//! mirroring the paper's per-client caching (Sect. 5.1): each simulated
//! user (or ephemeral ISP subscriber) owns one `DnsCache`, resolves
//! interned hosts against a shared read-only [`IndexedZoneView`], and
//! buffers the [`PdnsIdObservation`]s its cache misses would have
//! produced at a production resolver. Lookup RNG is hash-derived from
//! `(user stream, host, time)`, so a lookup's answer never depends on how
//! many lookups ran before it — the property that lets user shards run
//! concurrently and still merge bit-identically.

use crate::resolver::ClientCtx;
use crate::sim::{IndexedZoneView, PdnsIdObservation};
use crate::zone::ZoneServer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use xborder_faults::{derive_stream_seed, DegradationReport, FaultError, FaultInjector};
use xborder_netsim::time::SimTime;
use xborder_webgraph::DomainId;

/// One cached answer.
#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    answer: ZoneServer,
    expires: SimTime,
}

/// A per-client answer cache over interned hosts.
#[derive(Debug, Default)]
pub struct DnsCache {
    /// Dense id-indexed entries (DESIGN.md §5f); grown lazily to the
    /// highest id touched.
    by_id: Vec<Option<CacheEntry>>,
    /// Seed of this client's lookup-RNG stream (see [`DnsCache::for_user`]).
    lookup_seed: u64,
    /// Observations buffered on cache misses, for deterministic replay
    /// into the central pDNS database.
    id_observations: Vec<PdnsIdObservation>,
}

impl DnsCache {
    /// The stub-resolver state of one study user: lookup RNG derives from
    /// `(study_seed, user)`, so two users' DNS answers are independent and
    /// a user's answers are independent of every other user's progress.
    pub fn for_user(study_seed: u64, user: u64) -> Self {
        DnsCache {
            lookup_seed: derive_stream_seed(study_seed, user),
            ..Self::default()
        }
    }

    /// Resolves through the cache against a shared read-only zone view.
    /// A hit answers from the cache (no authoritative query, no pDNS
    /// observation, no RNG); a miss resolves with a lookup RNG derived
    /// from `(user stream, host hash, time)`, buffers the observation a
    /// sensor would have recorded, and caches the answer until its TTL
    /// runs out (TTL measured from the *effective* resolve time, after any
    /// fault backoff). An answer cached at `t` with TTL `d` serves
    /// `[t, t + d)`; failed resolutions are not cached. Hits and misses
    /// count into `report.dns_cache_hits` / `dns_cache_misses`.
    ///
    /// The miss-RNG seed uses the view's precomputed `stable_hash` of the
    /// host bytes, and cache slots are a dense `Vec` indexed by id, so no
    /// string is hashed or cloned per lookup (DESIGN.md §5f).
    pub fn resolve_shared_id(
        &mut self,
        view: &IndexedZoneView<'_>,
        host_id: DomainId,
        client: &ClientCtx,
        now: SimTime,
        inj: &FaultInjector,
        report: &mut DegradationReport,
    ) -> Result<(ZoneServer, SimTime), FaultError> {
        let idx = host_id.0 as usize;
        if self.by_id.len() <= idx {
            self.by_id.resize(idx + 1, None);
        }
        if let Some(entry) = self.by_id[idx] {
            if now < entry.expires {
                report.dns_cache_hits += 1;
                return Ok((entry.answer, now));
            }
        }
        report.dns_cache_misses += 1;
        let mut rng = StdRng::seed_from_u64(derive_stream_seed(
            self.lookup_seed,
            view.host_hash(host_id) ^ now.0.rotate_left(32),
        ));
        let (answer, t_eff, ttl) =
            view.resolve_degraded_id(host_id, client, now, &mut rng, inj, report)?;
        self.id_observations.push(PdnsIdObservation {
            host: host_id,
            ip: answer.ip,
            time: t_eff,
        });
        self.by_id[idx] = Some(CacheEntry {
            answer,
            expires: t_eff.plus_secs(ttl as u64),
        });
        Ok((answer, t_eff))
    }

    /// Drains the buffered observations (in lookup order) for replay
    /// into [`crate::DnsSim::absorb_id_observations`].
    pub fn take_id_observations(&mut self) -> Vec<PdnsIdObservation> {
        std::mem::take(&mut self.id_observations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::forward;
    use crate::sim::{reference, DnsSim};
    use crate::zone::{MappingPolicy, ZoneEntry};
    use std::collections::HashMap;
    use std::net::IpAddr;
    use xborder_faults::stable_hash;
    use xborder_geo::{cc, CountryCode, WORLD};
    use xborder_netsim::ServerId;
    use xborder_webgraph::{Domain, DomainTable};

    fn zone(host: &str, ip: &str, country: &str, ttl: u32) -> ZoneEntry {
        let c = WORLD.country_or_panic(CountryCode::parse(country).unwrap());
        ZoneEntry {
            host: Domain::new(host),
            servers: vec![ZoneServer {
                server: ServerId(1),
                ip: ip.parse().unwrap(),
                country: c.code,
                location: c.centroid(),
                valid: None,
            }],
            policy: MappingPolicy::Pinned,
            ttl_secs: ttl,
        }
    }

    fn client() -> ClientCtx {
        let de = WORLD.country_or_panic(cc!("DE"));
        ClientCtx::with_isp_resolver(cc!("DE"), de.centroid())
    }

    /// Interns `hosts` in order (as the world's domain table would).
    fn interned(hosts: &[&str]) -> (DomainTable, Vec<DomainId>) {
        let mut domains = DomainTable::new();
        let ids = hosts
            .iter()
            .map(|h| domains.intern(&Domain::new(h)))
            .collect();
        (domains, ids)
    }

    /// One fault-free lookup through `cache`, answering `None` on failure.
    fn lookup(
        cache: &mut DnsCache,
        view: &IndexedZoneView<'_>,
        id: DomainId,
        t: u64,
        report: &mut DegradationReport,
    ) -> Option<ZoneServer> {
        let inj = FaultInjector::inactive();
        cache
            .resolve_shared_id(view, id, &client(), SimTime(t), &inj, report)
            .ok()
            .map(|(a, _)| a)
    }

    fn hits_misses(report: &DegradationReport) -> (u64, u64) {
        (report.dns_cache_hits, report.dns_cache_misses)
    }

    #[test]
    fn caches_within_ttl() {
        let mut dns = DnsSim::new();
        dns.add_zone(zone("t.x.com", "1.0.0.1", "DE", 300)).unwrap();
        let (domains, ids) = interned(&["t.x.com"]);
        let mut cache = DnsCache::for_user(1, 0);
        let mut report = DegradationReport::default();
        {
            let view = dns.indexed_view(&domains);
            lookup(&mut cache, &view, ids[0], 0, &mut report).unwrap();
            lookup(&mut cache, &view, ids[0], 299, &mut report).unwrap();
        }
        assert_eq!(hits_misses(&report), (1, 1));
        // The authoritative side (and its pDNS sensor) saw exactly one query.
        dns.absorb_id_observations(&cache.take_id_observations(), &domains);
        let host = Domain::new("t.x.com");
        assert_eq!(forward(dns.pdns(), &host).len(), 1);
        assert_eq!(forward(dns.pdns(), &host)[0].count, 1);
    }

    #[test]
    fn expires_after_ttl() {
        let mut dns = DnsSim::new();
        dns.add_zone(zone("t.x.com", "1.0.0.1", "DE", 300)).unwrap();
        let (domains, ids) = interned(&["t.x.com"]);
        let view = dns.indexed_view(&domains);
        let mut cache = DnsCache::for_user(2, 0);
        let mut report = DegradationReport::default();
        lookup(&mut cache, &view, ids[0], 0, &mut report).unwrap();
        lookup(&mut cache, &view, ids[0], 300, &mut report).unwrap();
        assert_eq!(hits_misses(&report), (0, 2));
    }

    #[test]
    fn ttl_boundary_is_half_open() {
        // An answer cached at t with TTL d serves [t, t+d) — the instant
        // `now == expires` is already a miss.
        let mut dns = DnsSim::new();
        dns.add_zone(zone("t.x.com", "1.0.0.1", "DE", 100)).unwrap();
        let (domains, ids) = interned(&["t.x.com"]);
        let view = dns.indexed_view(&domains);
        let mut cache = DnsCache::for_user(42, 7);
        let mut report = DegradationReport::default();
        lookup(&mut cache, &view, ids[0], 0, &mut report).unwrap();
        lookup(&mut cache, &view, ids[0], 99, &mut report).unwrap();
        assert_eq!(hits_misses(&report), (1, 1));
        lookup(&mut cache, &view, ids[0], 100, &mut report).unwrap();
        assert_eq!(hits_misses(&report), (1, 2));
        // The refreshed entry is live through 199 and gone at 200.
        lookup(&mut cache, &view, ids[0], 199, &mut report).unwrap();
        assert_eq!(hits_misses(&report), (2, 2));
        lookup(&mut cache, &view, ids[0], 200, &mut report).unwrap();
        assert_eq!(hits_misses(&report), (2, 3));
        assert_eq!(cache.take_id_observations().len(), 3);
    }

    #[test]
    fn shared_path_buffers_observations_instead_of_capturing() {
        let mut dns = DnsSim::new();
        dns.add_zone(zone("t.x.com", "1.0.0.1", "DE", 300)).unwrap();
        let (domains, ids) = interned(&["t.x.com"]);
        let inj = FaultInjector::inactive();
        let mut report = DegradationReport::default();

        let mut cache = DnsCache::for_user(1, 2);
        let (ans, t_eff) = {
            let view = dns.indexed_view(&domains);
            let first = cache
                .resolve_shared_id(&view, ids[0], &client(), SimTime(50), &inj, &mut report)
                .unwrap();
            // Hit within TTL: no new observation.
            cache
                .resolve_shared_id(&view, ids[0], &client(), SimTime(60), &inj, &mut report)
                .unwrap();
            first
        };
        assert_eq!(t_eff, SimTime(50));
        assert!(dns.pdns().is_empty(), "view resolution must not capture");

        let obs = cache.take_id_observations();
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].ip, ans.ip);
        dns.absorb_id_observations(&obs, &domains);
        let host = Domain::new("t.x.com");
        assert_eq!(forward(dns.pdns(), &host).len(), 1);
        assert_eq!(forward(dns.pdns(), &host)[0].count, 1);
        assert!(cache.take_id_observations().is_empty(), "drain is one-shot");
    }

    #[test]
    fn redirection_takes_one_ttl_to_roll_out() {
        // The paper's Sect. 5.1 dynamic: flip the zone to a new country and
        // the old answer lingers until the TTL runs out.
        let mut dns = DnsSim::new();
        dns.add_zone(zone("t.x.com", "1.0.0.1", "US", 7200))
            .unwrap();
        let (domains, ids) = interned(&["t.x.com"]);
        let mut cache = DnsCache::for_user(3, 0);
        let mut report = DegradationReport::default();

        let before = lookup(
            &mut cache,
            &dns.indexed_view(&domains),
            ids[0],
            0,
            &mut report,
        );
        assert_eq!(before.unwrap().country, cc!("US"));

        // Operator redirects to a German server ("GDPR-friendly DNS"); the
        // view is rebuilt over the new zone, the cache keeps its slot.
        dns.add_zone(zone("t.x.com", "1.0.0.2", "DE", 7200))
            .unwrap();
        let view = dns.indexed_view(&domains);

        // Mid-TTL: still the stale US answer.
        let stale = lookup(&mut cache, &view, ids[0], 3600, &mut report);
        assert_eq!(stale.unwrap().country, cc!("US"));
        // Post-TTL: the redirection is live.
        let fresh = lookup(&mut cache, &view, ids[0], 7200, &mut report);
        assert_eq!(fresh.unwrap().country, cc!("DE"));
    }

    #[test]
    fn eviction_and_live_count() {
        // Entries expire per host: at t=500 the 100 s answer is gone (a
        // miss) while the 1000 s one still answers from the cache.
        let mut dns = DnsSim::new();
        dns.add_zone(zone("a.x.com", "1.0.0.1", "DE", 100)).unwrap();
        dns.add_zone(zone("b.x.com", "1.0.0.2", "DE", 1000))
            .unwrap();
        let (domains, ids) = interned(&["a.x.com", "b.x.com"]);
        let view = dns.indexed_view(&domains);
        let mut cache = DnsCache::for_user(4, 0);
        let mut report = DegradationReport::default();
        for &id in &ids {
            lookup(&mut cache, &view, id, 0, &mut report).unwrap();
        }
        for &id in &ids {
            lookup(&mut cache, &view, id, 50, &mut report).unwrap();
        }
        assert_eq!(hits_misses(&report), (2, 2));
        lookup(&mut cache, &view, ids[1], 500, &mut report).unwrap();
        assert_eq!(hits_misses(&report), (3, 2));
        lookup(&mut cache, &view, ids[0], 500, &mut report).unwrap();
        assert_eq!(hits_misses(&report), (3, 3));
    }

    #[test]
    fn nxdomain_is_not_cached() {
        let dns = DnsSim::new();
        let (domains, ids) = interned(&["missing.com"]);
        let view = dns.indexed_view(&domains);
        let mut cache = DnsCache::for_user(5, 0);
        let mut report = DegradationReport::default();
        for _ in 0..3 {
            assert!(lookup(&mut cache, &view, ids[0], 0, &mut report).is_none());
        }
        assert_eq!(hits_misses(&report), (0, 3));
        assert!(cache.take_id_observations().is_empty());
    }

    /// The string-keyed reference cache: entries keyed by [`Domain`], the
    /// miss-RNG seed from `stable_hash` of the host bytes, resolution
    /// through [`reference::resolve_degraded`].
    struct StringCache {
        entries: HashMap<Domain, CacheEntry>,
        lookup_seed: u64,
        hits: u64,
        misses: u64,
        observations: Vec<(Domain, IpAddr, SimTime)>,
    }

    impl StringCache {
        fn resolve(
            &mut self,
            dns: &DnsSim,
            host: &Domain,
            now: SimTime,
            inj: &FaultInjector,
            report: &mut DegradationReport,
        ) -> Result<(ZoneServer, SimTime), FaultError> {
            if let Some(entry) = self.entries.get(host) {
                if now < entry.expires {
                    self.hits += 1;
                    report.dns_cache_hits += 1;
                    return Ok((entry.answer, now));
                }
            }
            self.misses += 1;
            report.dns_cache_misses += 1;
            let mut rng = StdRng::seed_from_u64(derive_stream_seed(
                self.lookup_seed,
                stable_hash(host.as_str().as_bytes()) ^ now.0.rotate_left(32),
            ));
            let (answer, t_eff, ttl) =
                reference::resolve_degraded(dns, host, &client(), now, &mut rng, inj, report)?;
            self.observations.push((host.clone(), answer.ip, t_eff));
            let expires = t_eff.plus_secs(ttl as u64);
            self.entries
                .insert(host.clone(), CacheEntry { answer, expires });
            Ok((answer, t_eff))
        }
    }

    #[test]
    fn id_path_matches_string_path_bit_for_bit() {
        // Same lookup stream, same hosts, same times: the dense id path
        // must produce identical answers, effective times, counters, and
        // (after id→domain replay) identical pDNS content.
        let mut dns = DnsSim::new();
        dns.add_zone(zone("a.x.com", "1.0.0.1", "DE", 100)).unwrap();
        dns.add_zone(zone("b.x.com", "1.0.0.2", "US", 300)).unwrap();
        let (domains, ids) = interned(&["a.x.com", "b.x.com"]);
        let hosts = [Domain::new("a.x.com"), Domain::new("b.x.com")];
        let iview = dns.indexed_view(&domains);
        let inj = FaultInjector::inactive();

        let mut id_cache = DnsCache::for_user(99, 3);
        let mut string_cache = StringCache {
            entries: HashMap::new(),
            lookup_seed: id_cache.lookup_seed,
            hits: 0,
            misses: 0,
            observations: Vec::new(),
        };
        let mut rep_s = DegradationReport::default();
        let mut rep_i = DegradationReport::default();
        for step in 0..40u64 {
            let h = (step % 2) as usize;
            let t = SimTime(step * 37);
            let a = string_cache
                .resolve(&dns, &hosts[h], t, &inj, &mut rep_s)
                .unwrap();
            let b = id_cache
                .resolve_shared_id(&iview, ids[h], &client(), t, &inj, &mut rep_i)
                .unwrap();
            assert_eq!(a, b, "answers diverged at step {step}");
        }
        assert_eq!(
            (string_cache.hits, string_cache.misses),
            hits_misses(&rep_i)
        );
        assert_eq!(rep_s.dns_cache_hits, rep_i.dns_cache_hits);
        assert_eq!(rep_s.dns_cache_misses, rep_i.dns_cache_misses);

        let obs_i = id_cache.take_id_observations();
        assert_eq!(string_cache.observations.len(), obs_i.len());
        let mut replay_s = crate::PassiveDnsDb::new();
        for (host, ip, t) in &string_cache.observations {
            replay_s.observe(host, *ip, *t);
        }
        let mut replay_i = DnsSim::new();
        replay_i.absorb_id_observations(&obs_i, &domains);
        for h in &hosts {
            assert_eq!(forward(&replay_s, h), forward(replay_i.pdns(), h));
        }
    }

    #[test]
    fn lookup_streams_differ_per_user_and_are_reproducible() {
        // Two users' lookup seeds are decorrelated; the same user's seed is
        // stable — the per-user determinism the parallel study rests on.
        let a = DnsCache::for_user(9, 0);
        let b = DnsCache::for_user(9, 1);
        let a2 = DnsCache::for_user(9, 0);
        assert_ne!(a.lookup_seed, b.lookup_seed);
        assert_eq!(a.lookup_seed, a2.lookup_seed);
    }
}
