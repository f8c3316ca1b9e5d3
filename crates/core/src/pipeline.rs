//! The end-to-end measurement pipeline: study → classification → IP set →
//! geolocation.
//!
//! [`run_extension_pipeline`] is the workhorse behind every figure that
//! uses extension data: it runs the simulated 4.5-month study, classifies
//! the request log, completes the tracker IP set through passive DNS, and
//! geolocates every tracker IP with all three providers. It has no stage
//! sequence of its own: it is the streaming driver
//! ([`crate::stream::run_extension_pipeline_streaming`]) run as one
//! in-memory segment, so batch, streaming and worldscale share one loop.

use crate::ips::{CompletionStats, TrackerIpSet};
use crate::stream::{run_extension_pipeline_streaming, StreamConfig};
use crate::worldgen::World;
use std::collections::HashMap;
use std::net::IpAddr;
use xborder_browser::ExtensionDataset;
use xborder_classify::{ClassificationResult, FilterList};
use xborder_faults::{DegradationReport, FaultInjector, FaultPlan, KillSwitch};
use xborder_geoloc::{GeoEstimate, Geolocator};

/// Per-provider frozen estimates over the tracker IP set.
pub type EstimateMap = HashMap<IpAddr, GeoEstimate>;

/// Everything the downstream analyses consume.
pub struct StudyOutputs {
    /// The simulated extension dataset.
    pub dataset: ExtensionDataset,
    /// Per-request tracking labels and Table-2 counts.
    pub classification: ClassificationResult,
    /// The generated easylist analogue (kept for ablations).
    pub easylist: FilterList,
    /// The generated easyprivacy analogue.
    pub easyprivacy: FilterList,
    /// Tracker IPs (observed + pDNS-completed) with validity windows.
    pub tracker_ips: TrackerIpSet,
    /// pDNS completion summary (Sect. 3.3 numbers).
    pub completion: CompletionStats,
    /// IPmap estimates per tracker IP.
    pub ipmap_estimates: EstimateMap,
    /// MaxMind-style estimates per tracker IP.
    pub maxmind_estimates: EstimateMap,
    /// ip-api-style estimates per tracker IP.
    pub ipapi_estimates: EstimateMap,
    /// Rolling-window snapshots emitted during streaming ingestion
    /// (DESIGN.md §5g); empty for the batch pipeline, which publishes one
    /// report at the end instead.
    pub snapshots: Vec<crate::snapshots::RollingSnapshot>,
}

/// Freezes a provider's answers over an IP list into a map, sharded over
/// contiguous chunks of the list with `std::thread::scope`. Provider
/// misses (and, for IPmap, probe outages and quorum abstentions) under
/// `inj` leave gaps in the map and are tallied in the returned report.
///
/// Bit-identical for any `threads`: each lookup depends only on
/// `(provider, ip, inj)` — fault coins are hash-derived per entity, per-IP
/// measurement RNG is seeded from the address — and the per-shard reports
/// are merged by original chunk order (counter addition commutes, see
/// [`DegradationReport::absorb_counters`]). Returns the map plus the
/// merged counters for the caller to absorb into its report.
pub fn freeze_estimates_degraded_sharded<G: Geolocator + Sync + ?Sized>(
    provider: &G,
    ips: &[IpAddr],
    inj: &FaultInjector,
    threads: usize,
) -> (EstimateMap, DegradationReport) {
    let freeze = |ips: &[IpAddr]| {
        let mut report = DegradationReport::default();
        let map: EstimateMap = ips
            .iter()
            .filter_map(|ip| {
                provider
                    .locate_degraded(*ip, inj, &mut report)
                    .map(|e| (*ip, e))
            })
            .collect();
        (map, report)
    };
    if threads <= 1 || ips.len() < 2 * threads {
        return freeze(ips);
    }
    let chunk = ips.len().div_ceil(threads);
    let freeze = &freeze;
    let shards: Vec<(EstimateMap, DegradationReport)> = std::thread::scope(|scope| {
        let handles: Vec<_> = ips
            .chunks(chunk)
            .map(|c| scope.spawn(move || freeze(c)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("freeze shard panicked"))
            .collect()
    });
    let mut map = EstimateMap::with_capacity(ips.len());
    let mut merged = DegradationReport::default();
    for (m, r) in shards {
        map.extend(m);
        merged.absorb_counters(&r);
    }
    (map, merged)
}

/// Runs the full extension pipeline against a built world.
///
/// Consumes the world's dedicated study RNG stream, so repeated calls on
/// the same `World` value continue the stream (build a fresh `World` for a
/// bit-identical rerun).
pub fn run_extension_pipeline(world: &mut World) -> StudyOutputs {
    run_extension_pipeline_degraded(world, &FaultPlan::none()).0
}

/// Runs the full extension pipeline under a fault plan.
///
/// This is the streaming driver with every user in one in-memory segment
/// and no kill switch: the segment is classified by
/// [`xborder_classify::classify`], and nothing is checkpointed.
/// [`run_extension_pipeline`] is this function at [`FaultPlan::none`],
/// which keeps every fault coin cold and the RNG streams bit-identical to
/// the fault-free pipeline. Returns the outputs together with a
/// [`DegradationReport`] quantifying what the faults cost: delivery
/// coverage, DNS retry pressure, pDNS gaps, probe outages, quorum
/// abstentions, geolocation coverage, and the headline EU28 confinement
/// computed from whatever survived.
pub fn run_extension_pipeline_degraded(
    world: &mut World,
    plan: &FaultPlan,
) -> (StudyOutputs, DegradationReport) {
    let one_segment = StreamConfig::in_memory(world.config.study.population.n_users);
    // Without a checkpoint directory the loop performs no IO and computes
    // no fingerprint, and `KillSwitch::none` never fires: nothing can fail.
    run_extension_pipeline_streaming(world, plan, &one_segment, &KillSwitch::none())
        .unwrap_or_else(|e| unreachable!("an in-memory run without kill sites failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worldgen::WorldConfig;
    use xborder_geo::WORLD;

    fn outputs() -> (World, StudyOutputs) {
        let mut world = World::build(WorldConfig::small(11));
        let out = run_extension_pipeline(&mut world);
        (world, out)
    }

    #[test]
    fn pipeline_produces_tracking_flows() {
        let (_, out) = outputs();
        assert!(out.dataset.requests.len() > 1_000);
        assert!(out.classification.abp.n_total_requests > 0);
        assert!(out.classification.semi.n_total_requests > 0);
        assert!(!out.tracker_ips.is_empty());
    }

    #[test]
    fn completion_adds_a_small_fraction() {
        let (_, out) = outputs();
        let frac = out.completion.added_fraction();
        assert!(frac > 0.0, "pDNS completion added nothing");
        assert!(frac < 0.5, "pDNS completion added {frac}, too much");
    }

    #[test]
    fn every_tracker_ip_is_geolocated_by_ipmap() {
        let (_, out) = outputs();
        for ip in out.tracker_ips.ips.keys() {
            assert!(out.ipmap_estimates.contains_key(ip), "{ip} missing from IPmap");
            assert!(out.maxmind_estimates.contains_key(ip), "{ip} missing from MaxMind");
        }
    }

    #[test]
    fn ipmap_beats_registries_on_accuracy() {
        let (world, out) = outputs();
        let acc = |map: &EstimateMap| {
            let mut right = 0usize;
            let mut total = 0usize;
            for (ip, est) in map {
                if let Some(truth) = world.infra.true_country_of(*ip) {
                    total += 1;
                    if est.country == truth {
                        right += 1;
                    }
                }
            }
            right as f64 / total.max(1) as f64
        };
        let ipmap_acc = acc(&out.ipmap_estimates);
        let mm_acc = acc(&out.maxmind_estimates);
        assert!(
            ipmap_acc > mm_acc + 0.1,
            "ipmap {ipmap_acc} vs maxmind {mm_acc}"
        );
        assert!(ipmap_acc > 0.8, "ipmap accuracy {ipmap_acc}");
    }

    #[test]
    fn registries_agree_with_each_other() {
        let (_, out) = outputs();
        let mut agree = 0usize;
        let mut total = 0usize;
        for (ip, mm) in &out.maxmind_estimates {
            if let Some(ia) = out.ipapi_estimates.get(ip) {
                total += 1;
                if mm.country == ia.country {
                    agree += 1;
                }
            }
        }
        let share = agree as f64 / total.max(1) as f64;
        assert!(share > 0.9, "registry agreement {share}");
    }

    #[test]
    fn v4_dominates_tracker_ips() {
        let (_, out) = outputs();
        let v4 = out.tracker_ips.ips.keys().filter(|ip| ip.is_ipv4()).count();
        let share = v4 as f64 / out.tracker_ips.len() as f64;
        assert!(share > 0.9, "v4 share {share}");
    }

    #[test]
    fn eu28_users_exist_in_dataset() {
        let (_, out) = outputs();
        let eu = out
            .dataset
            .users
            .users
            .iter()
            .filter(|u| WORLD.country_or_panic(u.country).eu28)
            .count();
        assert!(eu > 5);
    }
}
