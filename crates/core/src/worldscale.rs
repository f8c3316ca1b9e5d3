//! Million-user worlds: the out-of-core extension pipeline (DESIGN.md §5j).
//!
//! The streaming driver in [`crate::stream`] materializes the full
//! population up front and appends every segment's rows to the full
//! [`xborder_browser::ExtensionDataset`] — both `O(world)` allocations.
//! This module is the driver for [`crate::worldgen::WorldConfig::large`]
//! worlds. It runs the same segment loop as the streaming driver (replay,
//! ingest, checkpoint, completion, geolocation), but the population is
//! never materialized (each segment's users regenerate from
//! `(pop_seed, user_range)`) and no segment is kept: its sink folds every
//! committed segment into constant-size aggregates, then drops it. That
//! includes EU28 confinement: tracking flows from EU28 users are counted
//! per server IP during ingest and resolved against the IPmap estimates
//! once geolocation has run, so there is no second pass over the log.
//!
//! Memory is one segment of simulation plus the fold state plus the
//! incremental classifier's interned state. The classifier state still
//! grows with the number of distinct URLs in the world, so process memory
//! is not yet bounded by the segment size.
//!
//! ## The determinism contract, unchanged
//!
//! Segment size, thread budget, kill schedule and checkpointing remain
//! pure performance/availability knobs. The mechanisms are the streaming
//! driver's (per-user RNG streams, offset-keyed log faults, delta-fixpoint
//! classification, the commutative tracker-set fold), plus two
//! aggregate-level rules that make segmentation invisible in the folded
//! outputs:
//!
//! * **Commutative folds stay commutative.** The visit digest XORs
//!   per-visit hashes, so the batch driver's final timestamp sort cannot
//!   show; dataset stats fold through seen-flags (users never span
//!   segments, so distinct counts are unions of segment-local sets); EU28
//!   flows are per-IP counts.
//! * **Order-sensitive folds key on global coordinates.** The request
//!   digest chains in global log order and rebases cascade referrers to
//!   the *global* row index before hashing — a segment-local index would
//!   make the segment size observable.
//!
//! `tests/worldscale.rs` pins [`ScaleOutputs::fingerprint`] across segment
//! sizes × thread budgets × fault plans × kill schedules, and pins every
//! aggregate against the materialized batch pipeline on a shared
//! segmented config.

use crate::confine::{is_eu28, DestBreakdown};
use crate::ips::{CompletionStats, TrackerIpSet};
use crate::pipeline::EstimateMap;
use crate::stream::{
    label_tag, put_ip, put_tracker_ips, run_segments, Segment, SegmentInputs, SegmentSink,
    StreamError,
};
use crate::worldgen::World;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::collections::HashMap;
use std::net::IpAddr;
use std::path::PathBuf;
use std::time::Instant;
use xborder_browser::{
    LoggedRequest, Referrer, RequestId, StudyChunk, User, UserPopulation, Visit,
};
use xborder_checkpoint::ByteWriter;
use xborder_classify::{Classification, MethodCounts};
use xborder_faults::{stable_hash, DegradationReport, FaultPlan, KillSwitch};
use xborder_geo::Region;

/// How the out-of-core driver segments and checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleConfig {
    /// Users per segment (clamped to ≥ 1). A pure performance knob.
    pub segment_users: usize,
    /// Checkpoint directory; `None` disables durability. The format is
    /// the streaming driver's (same chunk payloads, same manifest), so
    /// kill-anywhere resume works identically.
    pub checkpoint_dir: Option<PathBuf>,
}

impl ScaleConfig {
    /// In-memory out-of-core run: segmented execution, no checkpoints.
    pub fn in_memory(segment_users: usize) -> ScaleConfig {
        ScaleConfig {
            segment_users,
            checkpoint_dir: None,
        }
    }

    /// Durable run: checkpoint every segment and stage into `dir`.
    pub fn durable(segment_users: usize, dir: impl Into<PathBuf>) -> ScaleConfig {
        ScaleConfig {
            checkpoint_dir: Some(dir.into()),
            ..ScaleConfig::in_memory(segment_users)
        }
    }

    /// Has no effect: the driver keeps no segments, so there is nothing to
    /// spill and `dir` is never created. Kept with its signature because
    /// the benchmark harness still calls it; it goes with the next
    /// benchmark change.
    pub fn with_resident_window(self, _window: usize, _dir: impl Into<PathBuf>) -> ScaleConfig {
        self
    }
}

/// Everything the out-of-core pipeline distills from a world: the folded
/// analyses of [`crate::pipeline::StudyOutputs`] without the `O(world)`
/// dataset behind them.
#[derive(Debug)]
pub struct ScaleOutputs {
    /// Segments ingested (a function of the segment-size knob; excluded
    /// from [`ScaleOutputs::fingerprint`]).
    pub n_segments: usize,
    /// Table-1 statistics, folded through per-segment seen-flags.
    pub stats: xborder_browser::DatasetStats,
    /// Order-insensitive digest of every visit row.
    pub visit_hash: u64,
    /// Order-sensitive digest of every request row (global log order,
    /// referrers rebased to global row indices).
    pub request_hash: u64,
    /// Table-2 counts for the easylist method.
    pub abp: MethodCounts,
    /// Table-2 counts for the semi-automatic method.
    pub semi: MethodCounts,
    /// Stage-2 fixpoint rounds (max across segments + 1, the batch figure).
    pub stage2_rounds: usize,
    /// Stage-3 fixpoint rounds.
    pub stage3_rounds: usize,
    /// Tracker IPs (observed + pDNS-completed) with validity windows.
    pub tracker_ips: TrackerIpSet,
    /// pDNS completion summary.
    pub completion: CompletionStats,
    /// IPmap estimates per tracker IP.
    pub ipmap_estimates: EstimateMap,
    /// MaxMind-style estimates per tracker IP.
    pub maxmind_estimates: EstimateMap,
    /// ip-api-style estimates per tracker IP.
    pub ipapi_estimates: EstimateMap,
    /// Destination breakdown of EU28-origin tracking flows under IPmap.
    pub eu28: DestBreakdown,
}

impl ScaleOutputs {
    /// Canonical digest of every knob-invariant output. Bit-identical
    /// across segment sizes, thread budgets and kill schedules;
    /// `n_segments` (a knob echo) is deliberately excluded.
    pub fn fingerprint(&self) -> u64 {
        let mut w = ByteWriter::new();
        w.put_usize(self.stats.n_users);
        w.put_usize(self.stats.n_first_party_domains);
        w.put_usize(self.stats.n_first_party_requests);
        w.put_usize(self.stats.n_third_party_domains);
        w.put_usize(self.stats.n_third_party_requests);
        w.put_u64(self.visit_hash);
        w.put_u64(self.request_hash);
        for m in [&self.abp, &self.semi] {
            w.put_usize(m.n_fqdn);
            w.put_usize(m.n_tld);
            w.put_usize(m.n_unique_urls);
            w.put_usize(m.n_total_requests);
        }
        w.put_usize(self.stage2_rounds);
        w.put_usize(self.stage3_rounds);
        put_tracker_ips(&mut w, &self.tracker_ips);
        w.put_usize(self.completion.n_observed);
        w.put_usize(self.completion.n_added);
        w.put_f64(self.completion.v4_share);
        w.put_f64(self.completion.added_v4_share);
        for map in [
            &self.ipmap_estimates,
            &self.maxmind_estimates,
            &self.ipapi_estimates,
        ] {
            let mut entries: Vec<_> = map.iter().collect();
            entries.sort_by_key(|(ip, _)| **ip);
            w.put_usize(entries.len());
            for (ip, est) in entries {
                put_ip(&mut w, *ip);
                w.put_bytes(&est.country.bytes());
            }
        }
        w.put_u64(self.eu28.total);
        for r in Region::ALL {
            w.put_u64(self.eu28.counts.get(&r).copied().unwrap_or(0));
        }
        stable_hash(&w.into_bytes())
    }
}

/// Digest of one request row at `global_row`. `parent` must already be a
/// *global* row index — hashing a segment-local index would make the
/// segment size observable in the chained fold.
fn request_row_hash(
    buf: &mut Vec<u8>,
    global_row: u64,
    r: &LoggedRequest,
    parent: Option<u64>,
    first_party_ref: bool,
    label: u8,
) -> u64 {
    buf.clear();
    buf.extend_from_slice(&global_row.to_le_bytes());
    buf.extend_from_slice(&r.user.0.to_le_bytes());
    buf.extend_from_slice(&r.time.0.to_le_bytes());
    buf.extend_from_slice(&r.first_party.0.to_le_bytes());
    buf.extend_from_slice(&r.publisher.0.to_le_bytes());
    buf.extend_from_slice(&r.host.0.to_le_bytes());
    match (parent, first_party_ref) {
        (Some(p), _) => {
            buf.push(2);
            buf.extend_from_slice(&p.to_le_bytes());
        }
        (None, true) => buf.push(1),
        (None, false) => buf.push(0),
    }
    match r.ip {
        IpAddr::V4(v4) => {
            buf.push(4);
            buf.extend_from_slice(&v4.octets());
        }
        IpAddr::V6(v6) => {
            buf.push(6);
            buf.extend_from_slice(&v6.octets());
        }
    }
    buf.push(label);
    buf.extend_from_slice(r.url.as_bytes());
    stable_hash(buf)
}

/// The `(visit_hash, request_hash)` digests of [`ScaleOutputs`], folded
/// chunk by chunk.
#[derive(Default)]
struct Digests {
    visit_hash: u64,
    request_hash: u64,
    n_requests: u64,
    row_buf: Vec<u8>,
}

impl Digests {
    /// Folds one chunk of rows; `labels` yields one tag byte per request.
    /// Chunks must arrive in global log order, their referrers local to
    /// the chunk — a whole log in global order is one chunk.
    fn absorb(
        &mut self,
        visits: &[Visit],
        requests: &[LoggedRequest],
        labels: impl IntoIterator<Item = u8>,
    ) {
        for v in visits {
            // XOR fold: the batch dataset sorts visits by timestamp at
            // finalization; an order-insensitive digest sees through that.
            let mut b = [0u8; 16];
            b[..4].copy_from_slice(&v.user.0.to_le_bytes());
            b[4..8].copy_from_slice(&v.publisher.0.to_le_bytes());
            b[8..16].copy_from_slice(&v.time.0.to_le_bytes());
            self.visit_hash ^= stable_hash(&b);
        }
        let base = self.n_requests;
        for (i, (r, label)) in requests.iter().zip(labels).enumerate() {
            // Chunk-local parent row → global row: referrers never cross
            // users (hence never chunks), so parent and child share the
            // same base offset.
            let (parent, fp) = match r.referrer {
                Referrer::None => (None, false),
                Referrer::FirstParty => (None, true),
                Referrer::Request(RequestId(p)) => (Some(base + p as u64), false),
            };
            self.request_hash = self.request_hash.rotate_left(3)
                ^ request_row_hash(&mut self.row_buf, base + i as u64, r, parent, fp, label);
        }
        self.n_requests += requests.len() as u64;
    }
}

/// Folds a *materialized* log into the `(visit_hash, request_hash)`
/// digests of [`ScaleOutputs`] — the bridge the equality tests use to pin
/// the out-of-core fold against the batch pipeline. `requests` must be in
/// global log order with global referrers (a batch
/// [`crate::pipeline::StudyOutputs`] dataset qualifies as-is); the visit
/// fold is order-insensitive.
pub fn dataset_digests(visits: &[Visit], requests: &[LoggedRequest], labels: &[u8]) -> (u64, u64) {
    assert_eq!(labels.len(), requests.len(), "one label byte per request");
    let mut digests = Digests::default();
    digests.absorb(visits, requests, labels.iter().copied());
    (digests.visit_hash, digests.request_hash)
}

/// The worldscale sink: the constant-size fold state every segment
/// absorbs into. All fields are either commutative (seen-flags, XOR digest,
/// per-IP flow counts) or chained in global log order with global
/// coordinates (request digest), so the final values are invariant to how
/// the stream was segmented.
struct Aggregates {
    /// Seen-flags by dense publisher / domain id (users never span
    /// segments, so distinct counts are unions of segment-local sets).
    visited_publishers: Vec<bool>,
    request_hosts: Vec<bool>,
    n_visits: u64,
    digests: Digests,
    /// Tracking flows from EU28 users, counted per server IP; resolved
    /// against the IPmap estimates once geolocation has run. At most one
    /// entry per observed tracker IP.
    eu28_flows: HashMap<IpAddr, u64>,
}

impl Aggregates {
    fn new(n_publishers: usize, n_domains: usize) -> Aggregates {
        Aggregates {
            visited_publishers: vec![false; n_publishers],
            request_hosts: vec![false; n_domains],
            n_visits: 0,
            digests: Digests::default(),
            eu28_flows: HashMap::new(),
        }
    }

    /// Folds one classified chunk. `labels` are parallel to the requests;
    /// `users` are the chunk's users, the first of them `user_start`.
    /// Chunks must arrive in user (= global log) order for the request
    /// digest to chain correctly.
    fn absorb_chunk(
        &mut self,
        chunk: &StudyChunk,
        labels: &[Classification],
        users: &[User],
        user_start: usize,
    ) {
        debug_assert_eq!(labels.len(), chunk.requests.len());
        let tags = labels.iter().map(|&l| label_tag(l));
        self.digests.absorb(&chunk.visits, &chunk.requests, tags);
        for v in &chunk.visits {
            self.visited_publishers[v.publisher.0 as usize] = true;
        }
        self.n_visits += chunk.visits.len() as u64;
        let user_eu28: Vec<bool> = users.iter().map(|u| is_eu28(u.country)).collect();
        for (r, label) in chunk.requests.iter().zip(labels) {
            self.request_hosts[r.host.0 as usize] = true;
            if label.is_tracking() && user_eu28[r.user.0 as usize - user_start] {
                *self.eu28_flows.entry(r.ip).or_insert(0) += 1;
            }
        }
    }

    fn stats(&self, n_users: usize) -> xborder_browser::DatasetStats {
        xborder_browser::DatasetStats {
            n_users,
            n_first_party_domains: self.visited_publishers.iter().filter(|&&b| b).count(),
            n_first_party_requests: self.n_visits as usize,
            n_third_party_domains: self.request_hosts.iter().filter(|&&b| b).count(),
            n_third_party_requests: self.digests.n_requests as usize,
        }
    }

    /// The destination breakdown of the EU28-origin flows under
    /// `estimates`, resolved in sorted-IP order — equal to folding every
    /// flow through [`DestBreakdown::absorb_eu28_flow`].
    fn eu28_breakdown(&self, estimates: &EstimateMap) -> DestBreakdown {
        let mut flows: Vec<(IpAddr, u64)> =
            self.eu28_flows.iter().map(|(ip, n)| (*ip, *n)).collect();
        flows.sort_unstable();
        let mut eu28 = DestBreakdown::default();
        for (ip, n) in flows {
            eu28.absorb_flows(ip, n, estimates);
        }
        eu28
    }
}

impl SegmentSink for Aggregates {
    fn absorb(&mut self, seg: Segment<'_>, _kill: &KillSwitch) -> Result<(), StreamError> {
        self.absorb_chunk(&seg.chunk, &seg.labels, seg.users, seg.user_start);
        Ok(())
    }
}

/// Runs the extension pipeline out of core against a segmented world.
///
/// Requires a [`crate::worldgen::WorldConfig::large`]-style config
/// (`study.population.segmented` set); panics otherwise, because a
/// non-segmented population cannot be regenerated range by range.
/// Checkpointing, kill-anywhere resume and the error surface match
/// [`crate::stream::run_extension_pipeline_streaming`].
pub fn run_worldscale_pipeline(
    world: &mut World,
    plan: &FaultPlan,
    scale_cfg: &ScaleConfig,
    kill: &KillSwitch,
) -> Result<(ScaleOutputs, DegradationReport), StreamError> {
    assert!(
        world.config.study.population.segmented,
        "worldscale requires a segmented population config (WorldConfig::large)"
    );
    let mut report = DegradationReport::default();
    let t_total = Instant::now();

    // World-RNG draws mirror the batch/streaming drivers on a segmented
    // config bit for bit: one study-stream draw, then the single
    // `pop_seed` draw segmented population generation consumes, then the
    // study seed — without materializing a single user.
    let mut rng = StdRng::seed_from_u64(world.study_rng.gen());
    let pop_seed: u64 = rng.gen();
    let study_seed: u64 = rng.gen();
    let pop_cfg = world.config.study.population.clone();
    let mut agg = Aggregates::new(world.graph.publishers.len(), world.graph.domains().len());
    let run = run_segments(
        world,
        &mut rng,
        plan,
        SegmentInputs {
            n_users: pop_cfg.n_users,
            users: &|range| {
                let range = range.start as u32..range.end as u32;
                Cow::Owned(UserPopulation::generate_range(&pop_cfg, pop_seed, range))
            },
            // Population-wide, streamed without a user vector: the visit
            // budget normalizes by it, so it must never be per segment.
            mean_activity: UserPopulation::mean_activity_segmented(&pop_cfg, pop_seed),
            study_seed,
            segment_users: scale_cfg.segment_users,
            checkpoint_dir: scale_cfg.checkpoint_dir.as_deref(),
        },
        &mut agg,
        kill,
        &mut report,
    )?;
    let eu28 = agg.eu28_breakdown(&run.ipmap_estimates);
    report.eu28_confinement = eu28.share(Region::Eu28);
    report.timings.total_ms = t_total.elapsed().as_secs_f64() * 1e3;
    Ok((
        ScaleOutputs {
            n_segments: run.n_segments,
            stats: agg.stats(pop_cfg.n_users),
            visit_hash: agg.digests.visit_hash,
            request_hash: agg.digests.request_hash,
            abp: run.abp,
            semi: run.semi,
            stage2_rounds: run.stage2_rounds,
            stage3_rounds: run.stage3_rounds,
            tracker_ips: run.tracker_ips,
            completion: run.completion,
            ipmap_estimates: run.ipmap_estimates,
            maxmind_estimates: run.maxmind_estimates,
            ipapi_estimates: run.ipapi_estimates,
            eu28,
        },
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_request_digest_is_order_sensitive() {
        // Two chunks absorbed in opposite orders must disagree: the
        // request digest is chained, not commutative (the global log has
        // one order).
        use xborder_browser::UserId;
        use xborder_netsim::time::SimTime;
        use xborder_webgraph::{DomainId, PublisherId};
        let req = |host: u32, url: &str| LoggedRequest {
            user: UserId(0),
            time: SimTime(1),
            first_party: DomainId(0),
            publisher: PublisherId(0),
            url: url.into(),
            host: DomainId(host),
            referrer: Referrer::FirstParty,
            ip: "10.0.0.1".parse().unwrap(),
        };
        let chunk = |host: u32, url: &str| StudyChunk {
            visits: vec![],
            requests: vec![req(host, url)],
            observations: vec![],
            report: DegradationReport::default(),
        };
        let (c1, c2) = (
            chunk(0, "https://a.example/x"),
            chunk(1, "https://b.example/y"),
        );
        let users = UserPopulation::generate_range(
            &xborder_browser::UserPopulationConfig::small(),
            7,
            0..1,
        );
        let mut fwd = Aggregates::new(4, 4);
        fwd.absorb_chunk(&c1, &[Classification::AbpTracking], &users, 0);
        fwd.absorb_chunk(&c2, &[Classification::AbpTracking], &users, 0);
        let mut rev = Aggregates::new(4, 4);
        rev.absorb_chunk(&c2, &[Classification::AbpTracking], &users, 0);
        rev.absorb_chunk(&c1, &[Classification::AbpTracking], &users, 0);
        assert_ne!(fwd.digests.request_hash, rev.digests.request_hash);
        // The visit digest and distinct counts stay commutative.
        assert_eq!(fwd.digests.visit_hash, rev.digests.visit_hash);
        assert_eq!(fwd.request_hosts, rev.request_hosts);
        assert_eq!(fwd.eu28_flows, rev.eu28_flows);
    }

    #[test]
    fn eu28_flow_counts_resolve_like_per_flow_absorb() {
        // Per-IP counts of EU28-origin tracking flows, resolved against
        // the estimates after the fact, must equal folding every flow
        // through `absorb_eu28_flow` — origins outside EU28, clean rows
        // and IPs without an estimate included.
        use xborder_browser::{LoggedRequest, UserId};
        use xborder_geo::cc;
        use xborder_geoloc::GeoEstimate;
        use xborder_netsim::time::SimTime;
        use xborder_webgraph::{DomainId, PublisherId};
        let users = UserPopulation::generate_range(
            &xborder_browser::UserPopulationConfig::small(),
            11,
            0..40,
        );
        let ip = |i: usize| -> IpAddr { format!("10.0.0.{}", i % 5).parse().unwrap() };
        let requests: Vec<LoggedRequest> = (0..120)
            .map(|i| LoggedRequest {
                user: UserId((i % 40) as u32),
                time: SimTime(i as u64),
                first_party: DomainId(0),
                publisher: PublisherId(0),
                url: format!("https://t.example/{i}").into(),
                host: DomainId(0),
                referrer: Referrer::FirstParty,
                ip: ip(i),
            })
            .collect();
        let labels: Vec<Classification> = (0..120)
            .map(|i| {
                if i % 3 == 0 {
                    Classification::Clean
                } else {
                    Classification::AbpTracking
                }
            })
            .collect();
        let chunk = StudyChunk {
            visits: vec![],
            requests,
            observations: vec![],
            report: DegradationReport::default(),
        };
        let estimates: EstimateMap = [cc!("DE"), cc!("US"), cc!("FR"), cc!("IT")]
            .into_iter()
            .enumerate()
            .map(|(i, country)| (ip(i), GeoEstimate { country }))
            .collect();

        let mut agg = Aggregates::new(1, 1);
        agg.absorb_chunk(&chunk, &labels, &users, 0);
        let got = agg.eu28_breakdown(&estimates);
        let mut want = DestBreakdown::default();
        for (r, label) in chunk.requests.iter().zip(&labels) {
            if label.is_tracking() {
                want.absorb_eu28_flow(users[r.user.0 as usize].country, r.ip, &estimates);
            }
        }
        assert!(
            want.total > 0,
            "the sample must contain EU28 tracking flows"
        );
        assert!(
            users.iter().any(|u| !is_eu28(u.country)),
            "the sample must contain users outside EU28"
        );
        assert_eq!(got.total, want.total);
        assert_eq!(got.counts, want.counts);
    }
}
