//! The traced run: each workload rebuilt from the public functions of
//! each layer (crate), with a span around every call. Until spans live
//! inside the program, this is the only way to split a run into layers
//! from outside; its outputs must equal the untraced pipeline's, which the
//! sample's digest checks against the reference.
//!
//! The rebuilds follow the pipelines' call order and world-RNG draws
//! exactly (`xborder::pipeline`, `xborder::stream`,
//! `xborder::worldscale`, `xborder::ispstudy`). Two things differ and are
//! documented in README.md: the chunk payload and completion-stage
//! encodings are rewritten here from the same public codec calls (they
//! are crate-private in `xborder`), and `stream-durable`'s rolling
//! snapshots are recomputed at the end with the public
//! `batch_snapshots`, because the streaming pipeline's accumulator is private.

use crate::probe::mib;
use crate::trace::{timed, Tracer};
use crate::workloads::{
    self, label_bytes, paper_output, scale_output, stream_output, to_value, RunOutput, Spec,
    Workload, SPILL_WINDOW, STREAM_CHUNK_USERS, STREAM_SNAPSHOTS, THREADS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::net::IpAddr;
use std::path::Path;
use std::time::Instant;
use xborder::confine::{region_breakdown_eu28, DestBreakdown};
use xborder::ips::{IpInfo, TrackerIpSet};
use xborder::ispstudy::{snapshot_days, IspStudyConfig, IspStudyResults, SnapshotStats};
use xborder::pipeline::{freeze_estimates_degraded_sharded, EstimateMap};
use xborder::snapshots::batch_snapshots;
use xborder::stream::config_fingerprint;
use xborder::worldscale::ScaleOutputs;
use xborder::{StudyOutputs, World};
use xborder_browser::{
    run_study_sharded, ExtensionDataset, LoggedRequest, Referrer, RequestId, SegmentBlock,
    StudyChunk, StudyCtx, StudyStream, UserPopulation, LABEL_ABP, LABEL_CLEAN, LABEL_SEMI,
};
use xborder_checkpoint::{ByteWriter, CheckpointStore};
use xborder_classify::{
    classify_with_stages_threads, generate_lists, Classification, ClassificationResult,
    ClassifierStages, IncrementalClassifier,
};
use xborder_faults::{
    derive_stream_seed, stable_hash, DegradationReport, FaultInjector, FaultPlan, KillSwitch,
};
use xborder_geoloc::{IpMap, RegistryDb, RegistryStyle};
use xborder_netflow::{generate_snapshot_blocks, IspProfile, SnapshotConfig, TrackerIntervalSet};
use xborder_netsim::time::SimTime;
use xborder_webgraph::{SegmentStats, SegmentStore, SegmentStoreConfig};

/// What a traced run produced.
pub struct TracedRun {
    /// The rebuilt outputs.
    pub output: RunOutput,
    /// Spans and counters.
    pub tracer: Tracer,
    /// Seconds from the first pipeline call to the verified result: the
    /// interval the untraced `wall_s` covers.
    pub wall_s: f64,
    /// Milliseconds from world build to the verified result.
    pub total_ms: f64,
}

/// Runs `spec`'s workload rebuilt from layer calls, with tracing on.
pub fn run_traced(spec: &Spec, scratch: &Path) -> TracedRun {
    let mut tr = Tracer::on();
    let t_total = Instant::now();
    let mut world = tr.span("worldgen", "build", || spec.build_world(THREADS));
    workloads::fresh_dir(scratch);
    let t_run = Instant::now();
    let output = match spec.workload {
        Workload::PaperRepro => paper_repro(spec, &mut world, &mut tr),
        Workload::StreamDurable => stream_durable(&mut world, scratch, &mut tr),
        Workload::WorldscaleSpill => worldscale_spill(spec, &mut world, scratch, &mut tr),
    };
    TracedRun {
        output,
        wall_s: t_run.elapsed().as_secs_f64(),
        total_ms: t_total.elapsed().as_secs_f64() * 1e3,
        tracer: tr,
    }
}

/// Per-layer metrics of one traced run, keyed as in
/// [`crate::report::PER_LAYER`].
pub fn layer_metrics(run: &TracedRun) -> BTreeMap<String, f64> {
    let tr = &run.tracer;
    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let worldgen = tr.layer("worldgen");
    put("worldgen.wall_ms", worldgen.wall_ms);
    put("worldgen.cpu_ms", worldgen.cpu_ms);
    put("worldgen.allocs", worldgen.allocs);
    put("worldgen.live_peak_mib", worldgen.live_peak_mib);

    let browser = tr.layer("browser");
    put("browser.wall_ms", browser.wall_ms);
    put("browser.cpu_ms", browser.cpu_ms);
    put("browser.wait_ms", browser.wait_ms);
    put("browser.allocs", browser.allocs);
    put("browser.alloc_mib", browser.alloc_mib);
    put("browser.live_peak_mib", browser.live_peak_mib);
    for k in [
        "browser.users",
        "browser.requests",
        "browser.visits",
        "dns.attempts",
    ] {
        put(k, tr.counter(k));
    }
    let hits = tr.counter("dns.cache_hits");
    put(
        "dns.cache_hit_ratio",
        ratio(hits, hits + tr.counter("dns.cache_misses")),
    );

    let classify = tr.layer("classify");
    put("classify.wall_ms", classify.wall_ms);
    put("classify.cpu_ms", classify.cpu_ms);
    put("classify.wait_ms", classify.wait_ms);
    put("classify.allocs", classify.allocs);
    put("classify.live_peak_mib", classify.live_peak_mib);
    for k in [
        "classify.requests",
        "classify.tracking_requests",
        "classify.stage2_rounds",
        "classify.stage3_rounds",
    ] {
        put(k, tr.counter(k));
    }

    put("ips.wall_ms", tr.layer("ips").wall_ms);
    put("ips.tracker_ips", tr.counter("ips.tracker_ips"));
    put("ips.pdns_added", tr.counter("ips.pdns_added"));

    let geoloc = tr.layer("geoloc");
    put("geoloc.wall_ms", geoloc.wall_ms);
    put("geoloc.cpu_ms", geoloc.cpu_ms);
    put("geoloc.lookups", tr.counter("geoloc.lookups"));
    let hits = tr.counter("geoloc.assign_hits");
    put(
        "geoloc.assign_cache_hit_ratio",
        ratio(hits, hits + tr.counter("geoloc.assign_misses")),
    );
    put(
        "geoloc.index_probe_visits",
        tr.counter("geoloc.index_probe_visits"),
    );

    let segment = tr.layer("segment");
    put("segment.wall_ms", segment.wall_ms);
    put("segment.push_ms", tr.wall_ms("segment", Some("push")));
    put("segment.get_ms", tr.wall_ms("segment", Some("get")));
    put("segment.spilled", tr.counter("segment.spilled"));
    put("segment.reloaded", tr.counter("segment.reloaded"));
    put(
        "segment.peak_resident_mib",
        mib(tr.counter("segment.peak_resident_bytes")),
    );
    put("segment.io_write_mib", segment.write_mib);
    put("segment.io_read_mib", segment.read_mib);

    put(
        "checkpoint.encode_ms",
        tr.wall_ms("checkpoint", Some("encode")),
    );
    put(
        "checkpoint.append_ms",
        tr.wall_ms("checkpoint", Some("append")),
    );
    put("checkpoint.chunks", tr.counter("checkpoint.chunks"));
    put("checkpoint.bytes_mib", mib(tr.counter("checkpoint.bytes")));

    let (gen_ms, match_ms) = (
        tr.counter("netflow.generate_ms"),
        tr.counter("netflow.match_ms"),
    );
    let records = tr.counter("netflow.records");
    put("netflow.generate_ms", gen_ms);
    put("netflow.match_ms", match_ms);
    put("netflow.records", records);
    put(
        "netflow.records_per_s",
        ratio(records, (gen_ms + match_ms) / 1e3),
    );
    put(
        "netflow.match_ratio",
        ratio(tr.counter("netflow.matched"), records),
    );

    for (k, op) in [
        ("analyses.whatif_ms", "whatif"),
        ("analyses.confine_ms", "confine"),
        ("analyses.collab_ms", "collab"),
        ("analyses.other_ms", "other"),
    ] {
        put(k, tr.wall_ms("analyses", Some(op)));
    }
    put("digest.wall_ms", tr.layer("digest").wall_ms);
    put("trace.unattributed_ms", run.total_ms - tr.attributed_ms());
    m
}

fn count_chunk(
    tr: &mut Tracer,
    report: &DegradationReport,
    users: usize,
    visits: usize,
    requests: usize,
) {
    tr.count("browser.users", users as f64);
    tr.count("browser.visits", visits as f64);
    tr.count("browser.requests", requests as f64);
    tr.count("dns.cache_hits", report.dns_cache_hits as f64);
    tr.count("dns.cache_misses", report.dns_cache_misses as f64);
    tr.count("dns.attempts", report.dns_attempts as f64);
}

fn count_labels(tr: &mut Tracer, labels: &[Classification], stage2: usize, stage3: usize) {
    tr.count("classify.requests", labels.len() as f64);
    let tracking = labels.iter().filter(|l| l.is_tracking()).count();
    tr.count("classify.tracking_requests", tracking as f64);
    tr.count_max("classify.stage2_rounds", stage2 as f64);
    tr.count_max("classify.stage3_rounds", stage3 as f64);
}

fn count_segments(tr: &mut Tracer, stats: &SegmentStats) {
    tr.count("segment.spilled", stats.segments_spilled as f64);
    tr.count("segment.reloaded", stats.segments_reloaded as f64);
    tr.count(
        "segment.peak_resident_bytes",
        stats.peak_resident_bytes as f64,
    );
}

/// The geolocation stage (`xborder::pipeline`'s provider freeze): world
/// RNG draws on this thread in the pipeline's order, then the three
/// providers built and frozen concurrently.
fn geolocate(
    world: &World,
    rng: &mut StdRng,
    tracker_ips: &TrackerIpSet,
    inj: &FaultInjector,
    tr: &mut Tracer,
) -> (EstimateMap, EstimateMap, EstimateMap) {
    let mut ip_list: Vec<IpAddr> = tracker_ips.ips.keys().copied().collect();
    ip_list.sort();
    let ipmap = tr.span("geoloc", "ipmap_new", || {
        IpMap::new(world.config.ipmap, &world.infra, rng)
    });
    let seat_seed: u64 = rng.gen();
    let mm_noise_seed: u64 = rng.gen();
    let ia_noise_seed: u64 = rng.gen();
    let build = |style, noise_seed| {
        let mut seat = StdRng::seed_from_u64(seat_seed);
        let mut noise = StdRng::seed_from_u64(noise_seed);
        RegistryDb::build(style, &world.infra, &mut seat, &mut noise)
    };
    let per_provider = THREADS.div_ceil(3).max(1);
    let ((a, ra), (b, rb), (c, rc)) = tr.span("geoloc", "build_and_freeze", || {
        std::thread::scope(|s| {
            let ha =
                s.spawn(|| freeze_estimates_degraded_sharded(&ipmap, &ip_list, inj, per_provider));
            let hb = s.spawn(|| {
                let db = build(RegistryStyle::MaxMindLike, mm_noise_seed);
                freeze_estimates_degraded_sharded(&db, &ip_list, inj, per_provider)
            });
            let hc = s.spawn(|| {
                let db = build(RegistryStyle::IpApiLike, ia_noise_seed);
                freeze_estimates_degraded_sharded(&db, &ip_list, inj, per_provider)
            });
            (
                ha.join().expect("ipmap freeze panicked"),
                hb.join().expect("maxmind freeze panicked"),
                hc.join().expect("ipapi freeze panicked"),
            )
        })
    });
    tr.count(
        "geoloc.lookups",
        (ra.geo_lookups + rb.geo_lookups + rc.geo_lookups) as f64,
    );
    let cache = ipmap.assign_cache_stats();
    tr.count("geoloc.assign_hits", cache.hits as f64);
    tr.count("geoloc.assign_misses", cache.misses as f64);
    tr.count("geoloc.index_probe_visits", cache.index_probe_visits as f64);
    (a, b, c)
}

fn complete_ips(
    tracker_ips: &mut TrackerIpSet,
    world: &World,
    inj: &FaultInjector,
    tr: &mut Tracer,
) -> (xborder::ips::CompletionStats, DegradationReport) {
    let mut delta = DegradationReport::default();
    let stats = tr.span("ips", "complete_with_pdns", || {
        tracker_ips.complete_with_pdns_degraded(world.dns.pdns(), inj, &mut delta)
    });
    tr.count("ips.tracker_ips", tracker_ips.len() as f64);
    tr.count("ips.pdns_added", stats.n_added as f64);
    (stats, delta)
}

/// `paper-repro`: the batch pipeline (`run_extension_pipeline_degraded`)
/// and then every paper experiment, ISP study included.
fn paper_repro(spec: &Spec, world: &mut World, tr: &mut Tracer) -> RunOutput {
    let inj = FaultInjector::new(FaultPlan::none());
    let mut report = DegradationReport::default();
    let mut rng = StdRng::seed_from_u64(world.study_rng.gen());
    let dataset = tr.span("browser", "run_study_sharded", || {
        run_study_sharded(
            &world.config.study,
            &world.graph,
            &mut world.dns,
            &mut rng,
            &inj,
            &mut report,
            THREADS,
        )
    });
    count_chunk(
        tr,
        &report,
        dataset.users.users.len(),
        dataset.visits.len(),
        dataset.requests.len(),
    );
    let (easylist, easyprivacy) = tr.span("classify", "generate_lists", || {
        generate_lists(&world.graph)
    });
    let classification = tr.span("classify", "classify_with_stages_threads", || {
        classify_with_stages_threads(
            &dataset.requests,
            &dataset.domains,
            &easylist,
            &easyprivacy,
            ClassifierStages::default(),
            THREADS,
        )
    });
    count_labels(
        tr,
        &classification.labels,
        classification.stage2_rounds,
        classification.stage3_rounds,
    );
    let mut tracker_ips = tr.span("ips", "from_dataset", || {
        TrackerIpSet::from_dataset(&dataset, &classification)
    });
    let (completion, _) = complete_ips(&mut tracker_ips, world, &inj, tr);
    let (ipmap_estimates, maxmind_estimates, ipapi_estimates) =
        geolocate(world, &mut rng, &tracker_ips, &inj, tr);
    let out = StudyOutputs {
        dataset,
        classification,
        easylist,
        easyprivacy,
        tracker_ips,
        completion,
        ipmap_estimates,
        maxmind_estimates,
        ipapi_estimates,
        snapshots: Vec::new(),
    };
    // The pipeline computes its headline EU28 figure before returning.
    tr.span("analyses", "confine", || {
        region_breakdown_eu28(&out, &out.ipmap_estimates)
    });

    let mut values = workloads::analyses_before_isp(world, &out, spec.seed, tr);
    let isp = isp_study(world, &out, &spec.isp_config(), tr);
    values.push(("isp", to_value(&isp)));
    values.extend(workloads::analyses_after_isp(world, &out, spec.seed, tr));
    tr.span("digest", "outputs", || paper_output(&out, &values))
}

/// What one (ISP, day) cell hands back.
struct Cell {
    stats: SnapshotStats,
    observations: Vec<xborder_dns::PdnsIdObservation>,
    generate_s: f64,
    match_s: f64,
}

/// The ISP NetFlow study (`xborder::ispstudy::run_isp_study`): per-day
/// interval sets, the 16 cells sharded over the thread budget, then the
/// canonical-order merge.
fn isp_study(
    world: &mut World,
    out: &StudyOutputs,
    cfg: &IspStudyConfig,
    tr: &mut Tracer,
) -> IspStudyResults {
    let days = snapshot_days();
    let profiles = IspProfile::all();
    let day_sets: Vec<TrackerIntervalSet> = tr.span("netflow", "interval_set_build", || {
        days.iter()
            .map(|(_, day_start)| {
                TrackerIntervalSet::build(out.tracker_ips.ips.iter().filter_map(|(ip, info)| {
                    let IpAddr::V4(v) = ip else { return None };
                    let w = cfg.use_validity_windows.then(|| {
                        let mut w = info.window;
                        w.extend_to(SimTime(day_start.0 + 2 * 86_400));
                        w
                    });
                    Some((*v, w))
                }))
            })
            .collect()
    });
    let cells: Vec<(usize, usize)> = (0..profiles.len())
        .flat_map(|p| (0..days.len()).map(move |d| (p, d)))
        .collect();
    let threads = THREADS.clamp(1, cells.len());
    let estimates = &out.ipmap_estimates;
    let outputs: Vec<Cell> = tr.span("netflow", "cells", || {
        let graph = &world.graph;
        let view = world.dns.indexed_view(graph.domains());
        let run_cell = |&(p_idx, d_idx): &(usize, usize)| -> Cell {
            let profile = &profiles[p_idx];
            let n_views = (cfg.base_page_views * profile.subscribers_m * profile.web_activity)
                .round() as usize;
            let snap_cfg = SnapshotConfig {
                day_start: days[d_idx].1,
                n_page_views: n_views.max(1),
                ..Default::default()
            };
            let cell_seed = derive_stream_seed(cfg.seed, ((p_idx as u64) << 32) | d_idx as u64);
            let set = &day_sets[d_idx];
            let mut bstats = set.new_stats();
            let mut match_s = 0.0f64;
            let (gen, total_s) = timed(|| {
                generate_snapshot_blocks(
                    profile,
                    &snap_cfg,
                    graph,
                    &view,
                    cell_seed,
                    cfg.block_len.max(1),
                    |block| {
                        let ((), s) = timed(|| set.match_block(block, &mut bstats));
                        match_s += s;
                    },
                )
            });
            let matched = bstats.to_match_stats(set);
            let mut stats = SnapshotStats {
                tracking_flows: matched.tracking_flows,
                total_flows: matched.total_flows,
                web_flows: matched.tracking_web_flows,
                encrypted_flows: matched.tracking_encrypted_flows,
                ..Default::default()
            };
            for (ip, n) in &matched.per_ip {
                if let Some(est) = estimates.get(ip) {
                    *stats.region_counts.entry(est.region()).or_insert(0) += n;
                    *stats.country_counts.entry(est.country).or_insert(0) += n;
                }
            }
            Cell {
                stats,
                observations: gen.id_observations,
                generate_s: total_s - match_s,
                match_s,
            }
        };
        let per = cells.len().div_ceil(threads);
        let run_cell = &run_cell;
        std::thread::scope(|s| {
            let handles: Vec<_> = cells
                .chunks(per)
                .map(|chunk| s.spawn(move || chunk.iter().map(run_cell).collect::<Vec<_>>()))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("ISP cell worker panicked"))
                .collect()
        })
    });
    let mut results = IspStudyResults::default();
    for c in &outputs {
        tr.count("netflow.generate_ms", c.generate_s * 1e3);
        tr.count("netflow.match_ms", c.match_s * 1e3);
        tr.count("netflow.records", c.stats.total_flows as f64);
        tr.count("netflow.matched", c.stats.tracking_flows as f64);
    }
    tr.span("netflow", "merge", || {
        for (&(p_idx, d_idx), cell) in cells.iter().zip(outputs) {
            world
                .dns
                .absorb_id_observations(&cell.observations, world.graph.domains());
            results
                .cells
                .entry(profiles[p_idx].name.to_owned())
                .or_default()
                .insert(days[d_idx].0.to_owned(), cell.stats);
        }
    });
    results
}

/// The durable chunk payload: the segment block, then the classifier's
/// delta for this chunk, each length-prefixed (the streaming pipeline's
/// format).
fn encode_chunk(block: &SegmentBlock, classifier: &mut IncrementalClassifier) -> Vec<u8> {
    let mut cw = ByteWriter::new();
    classifier.encode_delta(&mut cw);
    let cls = cw.into_bytes();
    let seg = block.encode_bytes();
    let mut w = ByteWriter::with_capacity(16 + seg.len() + cls.len());
    w.put_blob(&seg);
    w.put_blob(&cls);
    w.into_bytes()
}

fn put_ip(w: &mut ByteWriter, ip: IpAddr) {
    match ip {
        IpAddr::V4(v4) => {
            w.put_u8(4);
            w.put_bytes(&v4.octets());
        }
        IpAddr::V6(v6) => {
            w.put_u8(6);
            w.put_bytes(&v6.octets());
        }
    }
}

/// The completion-stage checkpoint blob (the streaming pipeline's format).
fn encode_completion(
    ips: &TrackerIpSet,
    stats: &xborder::ips::CompletionStats,
    delta: &DegradationReport,
) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(64 + ips.len() * 48);
    let mut sorted: Vec<(&IpAddr, &IpInfo)> = ips.ips.iter().collect();
    sorted.sort_by_key(|(ip, _)| **ip);
    w.put_usize(sorted.len());
    for (ip, info) in sorted {
        put_ip(&mut w, *ip);
        w.put_u64(info.requests);
        let mut hosts: Vec<&str> = info.hosts.iter().map(|h| h.as_str()).collect();
        hosts.sort_unstable();
        w.put_usize(hosts.len());
        for h in hosts {
            w.put_str(h);
        }
        w.put_u64(info.window.start.0);
        w.put_u64(info.window.end.0);
        w.put_u8(info.from_pdns_only as u8);
    }
    w.put_usize(stats.n_observed);
    w.put_usize(stats.n_added);
    w.put_f64(stats.v4_share);
    w.put_f64(stats.added_v4_share);
    for v in delta.counter_values() {
        w.put_u64(v);
    }
    w.into_bytes()
}

fn labels_from_bytes(bytes: &[u8]) -> Vec<Classification> {
    bytes
        .iter()
        .map(|&b| match b {
            LABEL_ABP => Classification::AbpTracking,
            LABEL_SEMI => Classification::SemiTracking,
            LABEL_CLEAN => Classification::Clean,
            tag => panic!("unknown label tag {tag}"),
        })
        .collect()
}

/// `stream-durable`: `run_extension_pipeline_streaming` with durable
/// checkpoints, chunk by chunk.
fn stream_durable(world: &mut World, scratch: &Path, tr: &mut Tracer) -> RunOutput {
    let plan = FaultPlan::none();
    let inj = FaultInjector::new(plan.clone());
    let kill = KillSwitch::none();
    let fingerprint = config_fingerprint(&world.config, &plan).expect("config fingerprint");
    let mut store = tr
        .span("checkpoint", "open", || {
            CheckpointStore::open(scratch.join("checkpoint"), fingerprint)
        })
        .expect("open checkpoint store");
    let mut rng = StdRng::seed_from_u64(world.study_rng.gen());
    let population = tr.span("browser", "generate_population", || {
        UserPopulation::generate(&world.config.study.population, &mut rng)
    });
    let study_seed: u64 = rng.gen();
    let n_users = population.users.len();
    let (easylist, easyprivacy) = tr.span("classify", "generate_lists", || {
        generate_lists(&world.graph)
    });
    let mut classifier = tr.span("classify", "new", || {
        IncrementalClassifier::new(&easylist, &easyprivacy, ClassifierStages::default())
    });
    let mut segments: SegmentStore<SegmentBlock> =
        SegmentStore::new(SegmentStoreConfig::unbounded());
    let mut report = DegradationReport::default();
    let mut pre_fault_offset = 0u64;
    let mut next_user = 0usize;
    let mut index = 0u64;
    let users = {
        let domains = world.graph.domains();
        let (view, pdns) = world.dns.indexed_view_and_pdns(domains);
        let stream = StudyStream::with_view(
            &world.config.study,
            &world.graph,
            view,
            population,
            study_seed,
        );
        while next_user < n_users {
            let end = (next_user + STREAM_CHUNK_USERS).min(n_users);
            let chunk = tr.span("browser", "simulate_chunk", || {
                stream.simulate_chunk(next_user..end, &inj, THREADS, pre_fault_offset)
            });
            count_chunk(
                tr,
                &chunk.report,
                end - next_user,
                chunk.visits.len(),
                chunk.requests.len(),
            );
            let cls = tr.span("classify", "append_chunk", || {
                classifier.append_chunk(&chunk.requests, domains)
            });
            count_labels(tr, &cls.labels, cls.stage2_rounds, cls.stage3_rounds);
            let labels = label_bytes(&cls.labels);
            let block = tr.span("segment", "from_chunk", || {
                SegmentBlock::from_chunk(
                    &chunk,
                    &labels,
                    cls.stage2_rounds as u32,
                    cls.stage3_rounds as u32,
                    (next_user as u32, end as u32),
                )
            });
            let payload = tr.span("checkpoint", "encode", || {
                encode_chunk(&block, &mut classifier)
            });
            tr.count("checkpoint.bytes", payload.len() as f64);
            tr.count("checkpoint.chunks", 1.0);
            tr.span("checkpoint", "append", || {
                store.append_chunk(index, next_user as u64, end as u64, &payload, &kill)
            })
            .expect("append chunk");
            tr.span("browser", "pdns_observe", || {
                for o in &chunk.observations {
                    pdns.observe(domains.domain(o.host), o.ip, o.time);
                }
            });
            report.absorb_counters(&chunk.report);
            pre_fault_offset += chunk.report.requests_generated;
            tr.span("segment", "push", || segments.push(block))
                .expect("push segment");
            next_user = end;
            index += 1;
        }
        stream.into_users()
    };

    // Finalize: reassemble the log in user order, as the streaming pipeline does.
    let mut visits = Vec::new();
    let mut requests: Vec<LoggedRequest> = Vec::new();
    let mut labels = Vec::new();
    let (mut stage2_depth, mut stage3_rounds) = (0usize, 0usize);
    for i in 0..segments.len() {
        let block = tr
            .span("segment", "get", || segments.take(i))
            .expect("take segment");
        tr.span("segment", "reassemble", || {
            let (chunk, label_bytes, s2, s3) = block.to_chunk();
            labels.extend(labels_from_bytes(&label_bytes));
            let offset = requests.len() as u32;
            visits.extend(chunk.visits);
            requests.extend(chunk.requests.into_iter().map(|mut r| {
                if let Referrer::Request(RequestId(p)) = r.referrer {
                    r.referrer = Referrer::Request(RequestId(p + offset));
                }
                r
            }));
            stage2_depth = stage2_depth.max((s2 as usize).saturating_sub(1));
            stage3_rounds = stage3_rounds.max(s3 as usize);
        });
    }
    count_segments(tr, &segments.stats());
    tr.span("segment", "reassemble", || visits.sort_by_key(|v| v.time));
    let dataset = ExtensionDataset {
        users,
        visits,
        requests,
        domains: world.graph.domains().clone(),
    };
    let (abp, semi) = tr.span("classify", "counts", || classifier.counts());
    let stage2_rounds = 1 + stage2_depth;
    let classification = ClassificationResult {
        labels,
        abp,
        semi,
        propagation_rounds: stage2_rounds + stage3_rounds,
        stage2_rounds,
        stage3_rounds,
    };

    let mut tracker_ips = tr.span("ips", "from_dataset", || {
        TrackerIpSet::from_dataset(&dataset, &classification)
    });
    let (completion, delta) = complete_ips(&mut tracker_ips, world, &inj, tr);
    let payload = tr.span("checkpoint", "encode", || {
        encode_completion(&tracker_ips, &completion, &delta)
    });
    tr.count("checkpoint.bytes", payload.len() as f64);
    tr.span("checkpoint", "append", || {
        store.put_stage("completion", &payload, &kill)
    })
    .expect("put completion stage");
    let (ipmap_estimates, maxmind_estimates, ipapi_estimates) =
        geolocate(world, &mut rng, &tracker_ips, &inj, tr);
    drop(classifier);
    let out = StudyOutputs {
        dataset,
        classification,
        easylist,
        easyprivacy,
        tracker_ips,
        completion,
        ipmap_estimates,
        maxmind_estimates,
        ipapi_estimates,
        snapshots: Vec::new(),
    };
    tr.span("analyses", "confine", || {
        region_breakdown_eu28(&out, &out.ipmap_estimates)
    });
    let snapshots = tr.span("analyses", "other", || {
        batch_snapshots(
            &out.dataset,
            &out.classification.labels,
            &world.infra,
            world.config.study.window,
            STREAM_SNAPSHOTS,
        )
    });
    tr.span("digest", "outputs", || stream_output(&out, &snapshots))
}

/// Digest of one visit row (`xborder::worldscale`'s fold).
fn visit_row_hash(user: u32, publisher: u32, time: u64) -> u64 {
    let mut b = [0u8; 16];
    b[..4].copy_from_slice(&user.to_le_bytes());
    b[4..8].copy_from_slice(&publisher.to_le_bytes());
    b[8..16].copy_from_slice(&time.to_le_bytes());
    stable_hash(&b)
}

/// Digest of one request row at a global row index (`xborder::worldscale`'s
/// fold).
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

/// The out-of-core pipeline's constant-size fold: distinct publishers and
/// hosts, row counts and the two row digests.
struct Fold {
    publishers: Vec<bool>,
    hosts: Vec<bool>,
    n_visits: u64,
    n_requests: u64,
    visit_hash: u64,
    request_hash: u64,
    buf: Vec<u8>,
}

impl Fold {
    fn absorb(&mut self, chunk: &StudyChunk, labels: &[u8]) {
        for v in &chunk.visits {
            self.publishers[v.publisher.0 as usize] = true;
            self.visit_hash ^= visit_row_hash(v.user.0, v.publisher.0, v.time.0);
        }
        self.n_visits += chunk.visits.len() as u64;
        let base = self.n_requests;
        for (i, r) in chunk.requests.iter().enumerate() {
            self.hosts[r.host.0 as usize] = true;
            let (parent, fp) = match r.referrer {
                Referrer::None => (None, false),
                Referrer::FirstParty => (None, true),
                Referrer::Request(RequestId(p)) => (Some(base + p as u64), false),
            };
            self.request_hash = self.request_hash.rotate_left(3)
                ^ request_row_hash(&mut self.buf, base + i as u64, r, parent, fp, labels[i]);
        }
        self.n_requests += chunk.requests.len() as u64;
    }
}

/// `worldscale-spill`: `run_worldscale_pipeline` with a resident window,
/// segment by segment, then the EU28 sweep over the (partly spilled)
/// segments.
fn worldscale_spill(spec: &Spec, world: &mut World, scratch: &Path, tr: &mut Tracer) -> RunOutput {
    let inj = FaultInjector::new(FaultPlan::none());
    let mut rng = StdRng::seed_from_u64(world.study_rng.gen());
    let pop_seed: u64 = rng.gen();
    let study_seed: u64 = rng.gen();
    let pop_cfg = world.config.study.population.clone();
    let n_users = pop_cfg.n_users;
    let mean_activity = tr.span("browser", "mean_activity_segmented", || {
        UserPopulation::mean_activity_segmented(&pop_cfg, pop_seed)
    });
    let (easylist, easyprivacy) = tr.span("classify", "generate_lists", || {
        generate_lists(&world.graph)
    });
    let mut classifier = tr.span("classify", "new", || {
        IncrementalClassifier::new(&easylist, &easyprivacy, ClassifierStages::default())
    });
    let mut segments: SegmentStore<SegmentBlock> = SegmentStore::new(SegmentStoreConfig::bounded(
        SPILL_WINDOW,
        scratch.join("spill"),
    ));
    let mut fold = Fold {
        publishers: vec![false; world.graph.publishers.len()],
        hosts: vec![false; world.graph.domains().len()],
        n_visits: 0,
        n_requests: 0,
        visit_hash: 0,
        request_hash: 0,
        buf: Vec::with_capacity(256),
    };
    let mut tracker_ips = TrackerIpSet::default();
    let (mut stage2_depth, mut stage3_rounds) = (0usize, 0usize);
    let mut pre_fault_offset = 0u64;
    let mut next_user = 0usize;
    {
        let domains = world.graph.domains();
        let (view, pdns) = world.dns.indexed_view_and_pdns(domains);
        let ctx = StudyCtx::new(
            &world.config.study,
            &world.graph,
            view,
            study_seed,
            mean_activity,
        );
        while next_user < n_users {
            let end = (next_user + spec.segment_users()).min(n_users);
            let chunk = tr.span("browser", "simulate_users", || {
                let users = UserPopulation::generate_range(
                    &pop_cfg,
                    pop_seed,
                    next_user as u32..end as u32,
                );
                ctx.simulate_users(&users, &inj, THREADS, pre_fault_offset)
            });
            count_chunk(
                tr,
                &chunk.report,
                end - next_user,
                chunk.visits.len(),
                chunk.requests.len(),
            );
            let cls = tr.span("classify", "append_chunk", || {
                classifier.append_chunk(&chunk.requests, domains)
            });
            count_labels(tr, &cls.labels, cls.stage2_rounds, cls.stage3_rounds);
            let labels = label_bytes(&cls.labels);
            let block = tr.span("segment", "from_chunk", || {
                SegmentBlock::from_chunk(
                    &chunk,
                    &labels,
                    cls.stage2_rounds as u32,
                    cls.stage3_rounds as u32,
                    (next_user as u32, end as u32),
                )
            });
            tr.span("browser", "pdns_observe", || {
                for o in &chunk.observations {
                    pdns.observe(domains.domain(o.host), o.ip, o.time);
                }
            });
            tr.span("digest", "fold", || fold.absorb(&chunk, &labels));
            tr.span("ips", "absorb_tracking_request", || {
                for (r, &label) in chunk.requests.iter().zip(&labels) {
                    if label != LABEL_CLEAN {
                        tracker_ips.absorb_tracking_request(r.ip, domains.domain(r.host), r.time);
                    }
                }
            });
            stage2_depth = stage2_depth.max(cls.stage2_rounds.saturating_sub(1));
            stage3_rounds = stage3_rounds.max(cls.stage3_rounds);
            pre_fault_offset += chunk.report.requests_generated;
            tr.span("segment", "push", || segments.push(block))
                .expect("push segment");
            next_user = end;
        }
    }
    let (abp, semi) = tr.span("classify", "counts", || classifier.counts());
    let (completion, _) = complete_ips(&mut tracker_ips, world, &inj, tr);
    let (ipmap_estimates, maxmind_estimates, ipapi_estimates) =
        geolocate(world, &mut rng, &tracker_ips, &inj, tr);

    let mut eu28 = DestBreakdown::default();
    for i in 0..segments.len() {
        let g = tr.begin();
        let block = segments.get(i).expect("get segment");
        tr.end(g, "segment", "get");
        let users = tr.span("browser", "generate_range", || {
            UserPopulation::generate_range(&pop_cfg, pop_seed, block.user_start..block.user_end)
        });
        tr.span("analyses", "confine", || {
            for row in 0..block.n_requests() {
                if block.is_tracking(row) {
                    let local = (block.request_user(row) - block.user_start) as usize;
                    eu28.absorb_eu28_flow(
                        users[local].country,
                        block.request_ip(row),
                        &ipmap_estimates,
                    );
                }
            }
        });
    }
    count_segments(tr, &segments.stats());
    let out = ScaleOutputs {
        n_segments: segments.len(),
        stats: xborder_browser::DatasetStats {
            n_users,
            n_first_party_domains: fold.publishers.iter().filter(|b| **b).count(),
            n_first_party_requests: fold.n_visits as usize,
            n_third_party_domains: fold.hosts.iter().filter(|b| **b).count(),
            n_third_party_requests: fold.n_requests as usize,
        },
        visit_hash: fold.visit_hash,
        request_hash: fold.request_hash,
        abp,
        semi,
        stage2_rounds: 1 + stage2_depth,
        stage3_rounds,
        tracker_ips,
        completion,
        ipmap_estimates,
        maxmind_estimates,
        ipapi_estimates,
        eu28,
    };
    tr.span("digest", "outputs", || scale_output(&out))
}
