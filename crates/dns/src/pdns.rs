//! Passive DNS replication (Weimer, FIRST 2005; Robtex-style database).
//!
//! Sensors at production resolvers record every (name, address) resolution;
//! the database keeps, per pair, the first and last time it was seen. The
//! paper uses the forward view to *complete* a tracker's IP set (finding
//! IPs our users were never mapped to, +2.78 %) and the reverse view to
//! check whether an IP is *dedicated* to one tracking domain or shared by
//! many (Figs. 4–5), plus the validity windows that scope the NetFlow join.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::IpAddr;
use xborder_faults::{ip_key, stable_hash, DegradationReport, FaultInjector};
use xborder_netsim::time::{SimTime, TimeWindow};
use xborder_webgraph::Domain;

/// One (domain, ip) association with its observed validity window.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PdnsRecord {
    /// The resolved name.
    pub domain: Domain,
    /// The answer address.
    pub ip: IpAddr,
    /// First-seen .. last-seen window (half-open).
    pub window: TimeWindow,
    /// Number of observations folded into this record.
    pub count: u64,
}

/// The passive-DNS database: forward and reverse indexes over
/// [`PdnsRecord`]s.
#[derive(Debug, Default)]
pub struct PassiveDnsDb {
    records: Vec<PdnsRecord>,
    forward: HashMap<Domain, Vec<usize>>,
    reverse: HashMap<IpAddr, Vec<usize>>,
}

impl PassiveDnsDb {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// The record index of a (domain, ip) pair: one hash of the *borrowed*
    /// domain plus a scan of its record list. An FQDN maps to a handful of
    /// addresses, so the scan is shorter than hashing an owned
    /// `(Domain, IpAddr)` key would be — and needs no per-call clone,
    /// which used to dominate observation replay (DESIGN.md §5f).
    fn index_of(&self, domain: &Domain, ip: IpAddr) -> Option<usize> {
        self.forward
            .get(domain)?
            .iter()
            .copied()
            .find(|&i| self.records[i].ip == ip)
    }

    /// Records one observation of `domain` resolving to `ip` at time `t`.
    pub fn observe(&mut self, domain: &Domain, ip: IpAddr, t: SimTime) {
        match self.index_of(domain, ip) {
            Some(idx) => {
                let rec = &mut self.records[idx];
                rec.window.extend_to(t);
                rec.count += 1;
            }
            None => {
                let idx = self.records.len();
                self.records.push(PdnsRecord {
                    domain: domain.clone(),
                    ip,
                    window: TimeWindow::new(t, SimTime(t.0 + 1)),
                    count: 1,
                });
                self.forward.entry(domain.clone()).or_default().push(idx);
                self.reverse.entry(ip).or_default().push(idx);
            }
        }
    }

    /// Forward lookup: every address ever seen answering for `domain`.
    pub fn forward(&self, domain: &Domain) -> Vec<&PdnsRecord> {
        self.forward
            .get(domain)
            .map(|idxs| idxs.iter().map(|&i| &self.records[i]).collect())
            .unwrap_or_default()
    }

    /// Forward lookup under fault injection: sensor-gapped records are
    /// invisible, stale records keep only their first-seen stamp (the
    /// sensor stopped refreshing last-seen). Returns owned records because
    /// stale windows are rewritten. Coins key on the (domain, ip) pair, so
    /// repeated queries degrade identically.
    pub fn forward_degraded(
        &self,
        domain: &Domain,
        inj: &FaultInjector,
        report: &mut DegradationReport,
    ) -> Vec<PdnsRecord> {
        let mut out = Vec::new();
        for rec in self.forward(domain) {
            report.pdns_records_seen += 1;
            if !inj.is_active() {
                out.push(rec.clone());
                continue;
            }
            let key = stable_hash(rec.domain.as_str().as_bytes()) ^ ip_key(rec.ip);
            if inj.pdns_gapped(key) {
                report.pdns_records_gapped += 1;
                continue;
            }
            let mut rec = rec.clone();
            if inj.pdns_stale(key) {
                report.pdns_records_stale += 1;
                rec.window = TimeWindow::new(rec.window.start, SimTime(rec.window.start.0 + 1));
            }
            out.push(rec);
        }
        out
    }

    /// Reverse lookup: every name ever seen served from `ip`.
    pub fn reverse(&self, ip: IpAddr) -> Vec<&PdnsRecord> {
        self.reverse
            .get(&ip)
            .map(|idxs| idxs.iter().map(|&i| &self.records[i]).collect())
            .unwrap_or_default()
    }

    /// Distinct pay-level domains ("TLDs") seen on `ip` within `w`.
    pub fn tlds_on_ip(&self, ip: IpAddr, w: TimeWindow) -> Vec<Domain> {
        let mut v: Vec<Domain> = self
            .reverse(ip)
            .into_iter()
            .filter(|r| r.window.overlaps(&w))
            .map(|r| r.domain.tld())
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// Total number of distinct (domain, ip) pairs.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no records exist.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates all records.
    pub fn iter(&self) -> impl Iterator<Item = &PdnsRecord> {
        self.records.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Domain {
        Domain::new(s)
    }
    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    #[test]
    fn observe_and_forward() {
        let mut db = PassiveDnsDb::new();
        db.observe(&d("t.x.com"), ip("1.2.3.4"), SimTime(100));
        db.observe(&d("t.x.com"), ip("1.2.3.5"), SimTime(200));
        let fwd = db.forward(&d("t.x.com"));
        assert_eq!(fwd.len(), 2);
        assert!(db.forward(&d("other.com")).is_empty());
    }

    #[test]
    fn windows_extend_with_observations() {
        let mut db = PassiveDnsDb::new();
        db.observe(&d("t.x.com"), ip("1.2.3.4"), SimTime(100));
        db.observe(&d("t.x.com"), ip("1.2.3.4"), SimTime(5000));
        let w = db.forward(&d("t.x.com"))[0].window;
        assert_eq!(w.start, SimTime(100));
        assert!(w.contains(SimTime(5000)));
        assert_eq!(db.len(), 1);
        assert_eq!(db.forward(&d("t.x.com"))[0].count, 2);
    }

    #[test]
    fn reverse_lookup_collects_domains() {
        let mut db = PassiveDnsDb::new();
        let shared = ip("9.9.9.9");
        db.observe(&d("sync.a.com"), shared, SimTime(10));
        db.observe(&d("px.b.net"), shared, SimTime(20));
        db.observe(&d("t.a.com"), shared, SimTime(30));
        let rev = db.reverse(shared);
        assert_eq!(rev.len(), 3);
        let tlds = db.tlds_on_ip(shared, TimeWindow::new(SimTime(0), SimTime(100)));
        assert_eq!(tlds.len(), 2); // a.com appears twice but dedups
        assert!(tlds.contains(&d("a.com")));
        assert!(tlds.contains(&d("b.net")));
    }

    #[test]
    fn window_filter_excludes_stale_records() {
        let mut db = PassiveDnsDb::new();
        db.observe(&d("t.x.com"), ip("1.2.3.4"), SimTime(100));
        db.observe(&d("t.x.com"), ip("5.6.7.8"), SimTime(10_000));
        let w = TimeWindow::new(SimTime(0), SimTime(200));
        let early: Vec<_> = db
            .forward(&d("t.x.com"))
            .into_iter()
            .filter(|r| r.window.overlaps(&w))
            .collect();
        assert_eq!(early.len(), 1);
        assert_eq!(early[0].ip, ip("1.2.3.4"));
        let tlds = db.tlds_on_ip(ip("5.6.7.8"), TimeWindow::new(SimTime(0), SimTime(200)));
        assert!(tlds.is_empty());
    }

    #[test]
    fn empty_db() {
        let db = PassiveDnsDb::new();
        assert!(db.is_empty());
        assert_eq!(db.len(), 0);
        assert!(db.reverse(ip("1.1.1.1")).is_empty());
    }
}
