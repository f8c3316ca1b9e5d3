//! The three-stage tracking-flow classifier (paper Sect. 3.2): its types
//! and the batch entry points.
//!
//! Stage 1 matches the blocklists, stage 2 propagates tracking labels along
//! referrer edges, stage 3 keyword-matches what is left and re-propagates.
//! The stages themselves live in [`crate::incremental`], which runs them
//! per chunk for both entry points: [`classify`] hands it the whole log as
//! one chunk, [`crate::IncrementalClassifier`] feeds it a stream chunk by
//! chunk with state carried across.

use crate::engine::RuleEngine;
use crate::rules::FilterList;
use serde::{Deserialize, Serialize};
use xborder_browser::LoggedRequest;
use xborder_webgraph::DomainTable;

/// Per-request classification outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Classification {
    /// Matched by the easylist/easyprivacy rules (stage 1).
    AbpTracking,
    /// Added by the semi-automatic pass: referrer propagation (stage 2) or
    /// keyword matching (stage 3).
    SemiTracking,
    /// Not identified as tracking ("clean" third-party flow).
    Clean,
}

impl Classification {
    /// True for either tracking class.
    pub fn is_tracking(&self) -> bool {
        !matches!(self, Classification::Clean)
    }
}

/// Per-method aggregate counts — the columns of the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MethodCounts {
    /// Distinct FQDNs among this method's tracking flows.
    pub n_fqdn: usize,
    /// Distinct pay-level domains ("TLD" in paper terms).
    pub n_tld: usize,
    /// Distinct request URLs.
    pub n_unique_urls: usize,
    /// Total requests.
    pub n_total_requests: usize,
}

/// The classifier's full output.
///
/// # Index invariant
///
/// `labels` is parallel to the classified request slice: label `i` belongs
/// to request `i`. Callers must index with positions from the *same* slice
/// the classifier ran over — after log faults drop entries, the remapping
/// in `xborder-browser`'s `extension.rs` compacts both the requests and
/// their referrer indices together, so compacted positions stay valid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassificationResult {
    /// Per-request labels, parallel to the input slice.
    pub labels: Vec<Classification>,
    /// Stage-1 (blocklist) counts: Table 2, row 1.
    pub abp: MethodCounts,
    /// Stage-2/3 (semi-automatic) counts: Table 2, row 2.
    pub semi: MethodCounts,
    /// Total propagation sweeps across both referrer stages (back-compat:
    /// the sum of [`ClassificationResult::stage2_rounds`] and
    /// [`ClassificationResult::stage3_rounds`]).
    pub propagation_rounds: usize,
    /// Sweeps the stage-2 referrer propagation needed: 1 for the ordered
    /// forward pass, plus the worklist depth if the input had forward-
    /// pointing referrers.
    pub stage2_rounds: usize,
    /// Propagation depth of the post-keyword re-propagation (0 when the
    /// keyword stage enabled nothing further).
    pub stage3_rounds: usize,
}

impl ClassificationResult {
    /// Label of request `i`.
    ///
    /// `i` must be a position in the request slice this result was computed
    /// from (see the struct-level index invariant).
    pub fn label(&self, i: usize) -> Classification {
        debug_assert!(
            i < self.labels.len(),
            "request index {i} out of range ({} labels): labels are parallel to the \
             classified slice; use positions from the same (compacted) request log",
            self.labels.len()
        );
        self.labels[i]
    }

    /// True if request `i` was classified as tracking by any stage.
    ///
    /// Same index invariant as [`ClassificationResult::label`].
    pub fn is_tracking(&self, i: usize) -> bool {
        debug_assert!(
            i < self.labels.len(),
            "request index {i} out of range ({} labels): labels are parallel to the \
             classified slice; use positions from the same (compacted) request log",
            self.labels.len()
        );
        self.labels[i].is_tracking()
    }

    /// Total tracking requests over both methods (Table 2, "Total" row).
    pub fn total_tracking_requests(&self) -> usize {
        self.abp.n_total_requests + self.semi.n_total_requests
    }
}

/// Stage toggles for the classifier-ablation experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassifierStages {
    /// Run the referrer-propagation stage.
    pub referrer_propagation: bool,
    /// Require URL arguments for referrer propagation (the paper does).
    pub require_args: bool,
    /// Run the keyword stage.
    pub keywords: bool,
}

impl Default for ClassifierStages {
    fn default() -> Self {
        ClassifierStages {
            referrer_propagation: true,
            require_args: true,
            keywords: true,
        }
    }
}

/// Runs the full classifier over a request log.
///
/// `domains` is the world interner the log's `DomainId`s index into
/// (`ExtensionDataset::domains` / `WebGraph::domains`).
pub fn classify(
    requests: &[LoggedRequest],
    domains: &DomainTable,
    easylist: &FilterList,
    easyprivacy: &FilterList,
) -> ClassificationResult {
    classify_with_stages_threads(
        requests,
        domains,
        easylist,
        easyprivacy,
        ClassifierStages::default(),
        1,
    )
}

/// Runs the classifier with configurable stages (the ablation entry
/// point).
///
/// `threads` is unused: classification runs on the calling thread. The
/// parameter stays so existing callers keep compiling; sharding stage 1
/// over threads bought nothing measurable on the paper-scale log.
pub fn classify_with_stages_threads(
    requests: &[LoggedRequest],
    domains: &DomainTable,
    easylist: &FilterList,
    easyprivacy: &FilterList,
    stages: ClassifierStages,
    _threads: usize,
) -> ClassificationResult {
    let mut engine = RuleEngine::compile(&[easylist, easyprivacy]);
    crate::incremental::classify_log(requests, domains, &mut engine, stages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::listgen::generate_lists;
    use rand::{rngs::StdRng, SeedableRng};
    use xborder_browser::Referrer;
    use xborder_browser::{run_study_sharded, StudyConfig};
    use xborder_dns::{DnsSim, MappingPolicy, ZoneEntry, ZoneServer};
    use xborder_faults::{DegradationReport, FaultInjector};
    use xborder_geo::{CountryCode, WORLD};
    use xborder_netsim::ServerId;
    use xborder_webgraph::{generate, Domain, WebGraph, WebGraphConfig};

    fn wire_all(graph: &WebGraph, dns: &mut DnsSim) {
        let de = WORLD.country_or_panic(CountryCode::parse("DE").unwrap());
        let mut next = 0u32;
        for s in &graph.services {
            for h in &s.hosts {
                next += 1;
                dns.add_zone(ZoneEntry {
                    host: h.clone(),
                    servers: vec![ZoneServer {
                        server: ServerId(next),
                        ip: std::net::IpAddr::V4(std::net::Ipv4Addr::from(0x0300_0000u32 + next)),
                        country: de.code,
                        location: de.centroid(),
                        valid: None,
                    }],
                    policy: MappingPolicy::Pinned,
                    ttl_secs: 300,
                })
                .unwrap();
            }
        }
    }

    fn dataset(seed: u64) -> (WebGraph, Vec<xborder_browser::LoggedRequest>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = generate(&WebGraphConfig::small(), &mut rng);
        let mut dns = DnsSim::new();
        wire_all(&graph, &mut dns);
        let ds = run_study_sharded(
            &StudyConfig::small(),
            &graph,
            &mut dns,
            &mut rng,
            &FaultInjector::inactive(),
            &mut DegradationReport::default(),
            1,
        );
        (graph, ds.requests)
    }

    #[test]
    fn semi_pass_finds_more_than_lists_alone() {
        let (graph, requests) = dataset(1);
        let (el, ep) = generate_lists(&graph);
        let res = classify(&requests, graph.domains(), &el, &ep);
        assert!(res.abp.n_total_requests > 0);
        assert!(res.semi.n_total_requests > 0, "semi pass found nothing");
        // The headline mechanism: the semi pass adds a substantial fraction
        // on top of the lists (paper: ~80 % more; the small synthetic config
        // yields 0.12–0.20 across seeds under the vendored RNG stream, so the
        // threshold checks the mechanism rather than the paper's magnitude).
        let ratio = res.semi.n_total_requests as f64 / res.abp.n_total_requests as f64;
        assert!(ratio > 0.1, "semi/abp ratio {ratio}");
    }

    #[test]
    fn false_positives_on_clean_services_are_rare() {
        // The keyword stage string-matches the whole URL (as the paper
        // does), so a random identifier can spuriously contain "rtb" —
        // a tiny, realistic noise floor rather than a defect.
        let (graph, requests) = dataset(2);
        let (el, ep) = generate_lists(&graph);
        let res = classify(&requests, graph.domains(), &el, &ep);
        let mut clean_total = 0usize;
        let mut clean_flagged = 0usize;
        for (i, r) in requests.iter().enumerate() {
            let svc = graph.service_by_host_id(r.host).expect("known host");
            if !graph.service(svc).is_tracking() {
                clean_total += 1;
                if res.is_tracking(i) {
                    clean_flagged += 1;
                }
            }
        }
        assert!(clean_total > 0);
        let fp_rate = clean_flagged as f64 / clean_total as f64;
        assert!(fp_rate < 0.005, "false-positive rate {fp_rate}");
    }

    #[test]
    fn recall_improves_with_semi_stage() {
        let (graph, requests) = dataset(3);
        let (el, ep) = generate_lists(&graph);
        let full = classify(&requests, graph.domains(), &el, &ep);
        let lists_only = classify_with_stages_threads(
            &requests,
            graph.domains(),
            &el,
            &ep,
            ClassifierStages {
                referrer_propagation: false,
                require_args: true,
                keywords: false,
            },
            1,
        );
        let tracking_truth = requests
            .iter()
            .filter(|r| {
                graph
                    .service_by_host_id(r.host)
                    .map(|s| graph.service(s).is_tracking())
                    .unwrap_or(false)
            })
            .count();
        let full_found = full.labels.iter().filter(|l| l.is_tracking()).count();
        let lists_found = lists_only.labels.iter().filter(|l| l.is_tracking()).count();
        assert!(full_found > lists_found);
        assert!(full_found <= tracking_truth, "classifier overshoots truth");
    }

    #[test]
    fn counts_are_consistent() {
        let (graph, requests) = dataset(4);
        let (el, ep) = generate_lists(&graph);
        let res = classify(&requests, graph.domains(), &el, &ep);
        let tracked = res.labels.iter().filter(|l| l.is_tracking()).count();
        assert_eq!(res.total_tracking_requests(), tracked);
        assert!(res.abp.n_unique_urls <= res.abp.n_total_requests);
        assert!(res.abp.n_tld <= res.abp.n_fqdn);
        assert!(res.semi.n_tld <= res.semi.n_fqdn);
    }

    #[test]
    fn labels_parallel_to_input() {
        let (graph, requests) = dataset(5);
        let (el, ep) = generate_lists(&graph);
        let res = classify(&requests, graph.domains(), &el, &ep);
        assert_eq!(res.labels.len(), requests.len());
    }

    #[test]
    fn empty_input() {
        let (graph, _) = dataset(6);
        let (el, ep) = generate_lists(&graph);
        let res = classify(&[], graph.domains(), &el, &ep);
        assert!(res.labels.is_empty());
        assert_eq!(res.abp.n_total_requests, 0);
        assert_eq!(res.semi.n_total_requests, 0);
    }

    /// Hand-built request with a clean (keyword-free) URL carrying args,
    /// interning its hosts into the test's own `DomainTable`.
    fn chain_request(
        i: usize,
        referrer: Referrer,
        domains: &mut DomainTable,
    ) -> xborder_browser::LoggedRequest {
        use xborder_browser::UserId;
        use xborder_netsim::time::SimTime;
        use xborder_webgraph::PublisherId;
        let host = Domain::new(format!("h{i}.example.com"));
        xborder_browser::LoggedRequest {
            user: UserId(0),
            time: SimTime(i as u64),
            first_party: domains.intern(&Domain::new("pub.example.org")),
            publisher: PublisherId(0),
            url: format!("https://{host}/p?x={i}").into_boxed_str(),
            host: domains.intern(&host),
            referrer,
            ip: "10.0.0.1".parse().unwrap(),
        }
    }

    /// A 40-link referrer chain stored in *reverse* order (each request's
    /// parent sits at a higher index), rooted in one blocklisted request.
    /// The pre-fix classifier labeled one link per whole-log rescan and
    /// stopped at the `rounds > 16` cap, silently dropping the deep tail;
    /// the worklist must label the entire chain.
    #[test]
    fn deep_reversed_chain_fully_labeled() {
        const LEN: usize = 40;
        let mut domains = DomainTable::new();
        let mut requests: Vec<xborder_browser::LoggedRequest> = (0..LEN - 1)
            .map(|i| {
                chain_request(
                    i,
                    Referrer::Request(xborder_browser::RequestId(i as u32 + 1)),
                    &mut domains,
                )
            })
            .collect();
        requests.push(chain_request(LEN - 1, Referrer::FirstParty, &mut domains)); // root
        let mut el = crate::rules::FilterList::new("easylist");
        el.push(crate::rules::FilterRule::DomainAnchor(Domain::new(
            format!("h{}.example.com", LEN - 1),
        )));
        let ep = crate::rules::FilterList::new("easyprivacy");

        let res = classify(&requests, &domains, &el, &ep);
        let labeled = res.labels.iter().filter(|l| l.is_tracking()).count();
        assert_eq!(
            labeled, LEN,
            "whole chain must be labeled, got {labeled}/{LEN}"
        );
        assert_eq!(res.labels[LEN - 1], Classification::AbpTracking);
        assert!(res.labels[0].is_tracking(), "deepest link dropped");
        // Depth bookkeeping: the chain needed more rounds than the old cap.
        assert!(
            res.stage2_rounds > 16,
            "stage-2 depth {} should exceed the old round cap",
            res.stage2_rounds
        );
        assert_eq!(res.stage3_rounds, 0);
        assert_eq!(
            res.propagation_rounds,
            res.stage2_rounds + res.stage3_rounds
        );
    }

    /// A chain stored in log order (referrers point backwards) converges in
    /// the single forward sweep — no worklist fallback.
    #[test]
    fn backward_chain_converges_in_one_sweep() {
        const LEN: usize = 40;
        let mut domains = DomainTable::new();
        let mut requests = vec![chain_request(0, Referrer::FirstParty, &mut domains)];
        requests.extend((1..LEN).map(|i| {
            chain_request(
                i,
                Referrer::Request(xborder_browser::RequestId(i as u32 - 1)),
                &mut domains,
            )
        }));
        let mut el = crate::rules::FilterList::new("easylist");
        el.push(crate::rules::FilterRule::DomainAnchor(Domain::new(
            "h0.example.com",
        )));
        let ep = crate::rules::FilterList::new("easyprivacy");

        let res = classify(&requests, &domains, &el, &ep);
        assert!(res.labels.iter().all(|l| l.is_tracking()));
        assert_eq!(
            res.stage2_rounds, 1,
            "backward chain must converge in one sweep"
        );
    }
}
