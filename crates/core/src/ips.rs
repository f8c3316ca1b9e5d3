//! Tracker IP-set construction and passive-DNS completion (Sect. 3.3).
//!
//! The extension logs give `(tracking FQDN, server IP)` pairs — but only
//! the IPs *our* users were mapped to. Forward passive-DNS lookups complete
//! the set with addresses other resolvers saw for the same names (the
//! paper gained +2.78 %), and attach validity windows that later scope the
//! NetFlow matching.

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::net::IpAddr;
use xborder_browser::ExtensionDataset;
use xborder_classify::ClassificationResult;
use xborder_dns::PassiveDnsDb;
use xborder_faults::{DegradationReport, FaultInjector};
use xborder_netsim::time::TimeWindow;
use xborder_webgraph::Domain;

/// Everything known about one tracker IP.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IpInfo {
    /// Tracking requests observed to this IP in the extension dataset
    /// (zero for pDNS-completed IPs).
    pub requests: u64,
    /// Tracking FQDNs seen answering from this IP.
    pub hosts: HashSet<Domain>,
    /// Validity window: observation span, widened by pDNS records.
    pub window: TimeWindow,
    /// True if the IP came only from pDNS completion, never from a user.
    pub from_pdns_only: bool,
}

/// The tracker IP set.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct TrackerIpSet {
    /// Per-IP records.
    pub ips: HashMap<IpAddr, IpInfo>,
}

/// Summary of the completion step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompletionStats {
    /// IPs observed directly by users.
    pub n_observed: usize,
    /// IPs added by forward pDNS.
    pub n_added: usize,
    /// Share of IPv4 among all tracker IPs.
    pub v4_share: f64,
    /// Share of IPv4 among the pDNS additions.
    pub added_v4_share: f64,
}

impl CompletionStats {
    /// pDNS increase over the observed set, as a fraction.
    pub fn added_fraction(&self) -> f64 {
        if self.n_observed == 0 {
            0.0
        } else {
            self.n_added as f64 / self.n_observed as f64
        }
    }
}

impl TrackerIpSet {
    /// Builds the observed IP set from classified extension data.
    pub fn from_dataset(dataset: &ExtensionDataset, labels: &ClassificationResult) -> TrackerIpSet {
        let mut set = TrackerIpSet::default();
        for (i, r) in dataset.requests.iter().enumerate() {
            if !labels.is_tracking(i) {
                continue;
            }
            set.absorb_tracking_request(r.ip, dataset.domains.domain(r.host), r.time);
        }
        set
    }

    /// Absorbs one tracking request into the observed set. Request order
    /// never matters — the per-IP record is a commutative fold (count,
    /// host-set union, window hull) — so the out-of-core driver can feed
    /// this segment by segment and land on exactly
    /// [`TrackerIpSet::from_dataset`] over the concatenated log.
    pub fn absorb_tracking_request(
        &mut self,
        ip: IpAddr,
        host: &Domain,
        time: xborder_netsim::time::SimTime,
    ) {
        let info = self.ips.entry(ip).or_insert_with(|| IpInfo {
            requests: 0,
            hosts: HashSet::new(),
            window: TimeWindow::new(time, time.plus_secs(1)),
            from_pdns_only: false,
        });
        info.requests += 1;
        // Hosts arrive as interned ids resolved through the domain table;
        // clone the string only on first sight of an (ip, host) pair —
        // repeat requests (the common case) stay allocation-free.
        if !info.hosts.contains(host) {
            info.hosts.insert(host.clone());
        }
        info.window.extend_to(time);
    }

    /// All tracking FQDNs currently in the set.
    pub fn tracking_hosts(&self) -> HashSet<Domain> {
        self.ips
            .values()
            .flat_map(|i| i.hosts.iter().cloned())
            .collect()
    }

    /// Forward-pDNS completion: for every known tracking FQDN, pull every
    /// address the sensors ever saw for it and add the missing ones with
    /// their validity windows. Returns the completion summary.
    ///
    /// Under fault injection the sensor network can have gaps (records invisible → fewer completed
    /// IPs) and stale records (windows collapsed to first-seen → narrower
    /// validity scoping downstream). Per-record accounting lands in
    /// `report`.
    pub fn complete_with_pdns_degraded(
        &mut self,
        pdns: &PassiveDnsDb,
        inj: &FaultInjector,
        report: &mut DegradationReport,
    ) -> CompletionStats {
        let n_observed = self.ips.len();
        // Canonical (sorted) host order: when two tracking FQDNs resolve to
        // the same pdns-only IP, the host recorded on the new record is the
        // first one iterated, so the iteration order must not depend on the
        // hasher. The out-of-core fingerprint hashes these host sets.
        let mut hosts: Vec<Domain> = self.tracking_hosts().into_iter().collect();
        hosts.sort_unstable();
        for host in &hosts {
            for rec in pdns.forward_degraded(host, inj, report) {
                match self.ips.get_mut(&rec.ip) {
                    Some(info) => {
                        // Known IP: pDNS can still widen its validity window.
                        info.window.extend_to(rec.window.start);
                        if rec.window.end.0 > 0 {
                            info.window
                                .extend_to(xborder_netsim::time::SimTime(rec.window.end.0 - 1));
                        }
                    }
                    None => {
                        let mut hs = HashSet::new();
                        hs.insert(host.clone());
                        self.ips.insert(
                            rec.ip,
                            IpInfo {
                                requests: 0,
                                hosts: hs,
                                window: rec.window,
                                from_pdns_only: true,
                            },
                        );
                    }
                }
            }
        }
        let n_added = self.ips.len() - n_observed;
        let v4 = self.ips.keys().filter(|ip| ip.is_ipv4()).count();
        let added_v4 = self
            .ips
            .iter()
            .filter(|(ip, i)| i.from_pdns_only && ip.is_ipv4())
            .count();
        CompletionStats {
            n_observed,
            n_added,
            v4_share: if self.ips.is_empty() {
                0.0
            } else {
                v4 as f64 / self.ips.len() as f64
            },
            added_v4_share: if n_added == 0 {
                0.0
            } else {
                added_v4 as f64 / n_added as f64
            },
        }
    }

    /// `(ip, request_weight)` pairs for weighted geolocation evaluation.
    pub fn weighted_ips(&self) -> Vec<(IpAddr, u64)> {
        let mut v: Vec<(IpAddr, u64)> = self.ips.iter().map(|(ip, i)| (*ip, i.requests)).collect();
        v.sort();
        v
    }

    /// Number of tracker IPs.
    pub fn len(&self) -> usize {
        self.ips.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.ips.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xborder_netsim::time::SimTime;

    fn d(s: &str) -> Domain {
        Domain::new(s)
    }

    #[test]
    fn completion_adds_unseen_ips() {
        let mut set = TrackerIpSet::default();
        let mut hosts = HashSet::new();
        hosts.insert(d("t.x.com"));
        set.ips.insert(
            "1.0.0.1".parse().unwrap(),
            IpInfo {
                requests: 10,
                hosts,
                window: TimeWindow::new(SimTime(10), SimTime(20)),
                from_pdns_only: false,
            },
        );
        let mut pdns = PassiveDnsDb::new();
        pdns.observe(&d("t.x.com"), "1.0.0.1".parse().unwrap(), SimTime(5));
        pdns.observe(&d("t.x.com"), "1.0.0.2".parse().unwrap(), SimTime(7));
        pdns.observe(&d("other.com"), "1.0.0.3".parse().unwrap(), SimTime(8));

        let stats = set.complete_with_pdns_degraded(
            &pdns,
            &FaultInjector::inactive(),
            &mut DegradationReport::default(),
        );
        assert_eq!(stats.n_observed, 1);
        assert_eq!(stats.n_added, 1);
        assert!((stats.added_fraction() - 1.0).abs() < 1e-9);
        // The unrelated domain's IP is not pulled in.
        assert!(!set.ips.contains_key(&"1.0.0.3".parse::<IpAddr>().unwrap()));
        // The added IP is flagged and windowed.
        let added = &set.ips[&"1.0.0.2".parse::<IpAddr>().unwrap()];
        assert!(added.from_pdns_only);
        assert_eq!(added.requests, 0);
        // Known IP's window got widened backwards to the pDNS first-seen.
        let known = &set.ips[&"1.0.0.1".parse::<IpAddr>().unwrap()];
        assert!(known.window.contains(SimTime(5)));
    }

    #[test]
    fn empty_set_completion_is_noop() {
        let mut set = TrackerIpSet::default();
        let pdns = PassiveDnsDb::new();
        let stats = set.complete_with_pdns_degraded(
            &pdns,
            &FaultInjector::inactive(),
            &mut DegradationReport::default(),
        );
        assert_eq!(stats.n_observed, 0);
        assert_eq!(stats.n_added, 0);
        assert_eq!(stats.added_fraction(), 0.0);
        assert!(set.is_empty());
    }
}
