//! The extension pipeline's one stage sequence — study → classify →
//! complete → geolocate, run as a sequence of user segments — and the
//! crash-safe streaming driver built on it (DESIGN.md §5g). The batch
//! driver [`crate::pipeline::run_extension_pipeline_degraded`] is this
//! module's driver run as one in-memory segment; the out-of-core driver
//! ([`crate::worldscale`], DESIGN.md §5j) runs the same loop with a
//! folding sink.
//!
//! The paper's study ran for 4.5 months; operated as a standing service
//! (the WhoTracks.Me model), ingestion must survive kills, torn writes and
//! restarts. This module cuts the extension study into append-only chunks
//! of users, classifies each chunk as it lands, and — when a checkpoint
//! directory is configured — makes every chunk durable through
//! `xborder-checkpoint` before moving on. A killed run re-opened on the
//! same directory replays the durable chunks from disk and continues from
//! the first missing one.
//!
//! ## One segment loop, two sinks
//!
//! `run_segments` is the whole study → classify → complete → geolocate
//! flow for every driver. It opens and validates the checkpoint store
//! (when there is one), replays the durable chunks, ingests the remaining
//! users chunk by chunk (simulate, classify, checkpoint, absorb pDNS),
//! folds the degradation counters, propagation depths and observed
//! tracker IP set, then runs the completion stage checkpoint and
//! geolocation. A driver supplies where users come from (a materialized
//! population, or ranges regenerated from `(pop_seed, range)`) and a sink
//! that sees every committed segment once, in user order, as owned rows
//! and labels:
//!
//! * this driver's sink appends the rows and labels to the dataset it
//!   returns (it moves them when it is still empty, so a one-segment run
//!   copies nothing) and feeds the rolling snapshots;
//! * the worldscale sink folds constant-size aggregates and keeps no
//!   segment at all.
//!
//! The columnar [`SegmentBlock`] and its label tag bytes are the
//! checkpoint chunk format and nothing else: a segment becomes a block
//! only when it is appended to a checkpoint, and a block becomes rows and
//! labels again only when it is replayed from one.
//!
//! ## The determinism contract, extended
//!
//! Chunk size, kill schedule and thread budget are all pure
//! performance/availability knobs: any chunking × any crash schedule ×
//! any budget produces the dataset, classification, tracker IP set,
//! estimates and degradation counters of the uninterrupted one-segment
//! run, bit for bit (`tests/streaming_resume.rs` pins this against the
//! batch fingerprint). The mechanisms:
//!
//! * **Per-user everything.** A user's simulation depends only on
//!   `(study_seed, user_id)` (DESIGN.md §5d), so any contiguous grouping
//!   of users reproduces the batch log after concatenation; cascade
//!   referrers never cross users, hence never chunks.
//! * **Offset-keyed log faults.** Post-hoc loss coins key on the *global
//!   pre-fault request index*; each chunk carries its offset into that
//!   sequence, so chunk-local fault application drops exactly the batch
//!   entries.
//! * **Delta-fixpoint classification.** An
//!   [`xborder_classify::IncrementalClassifier`] persists the URL/host
//!   interner, gate/keyword memos and distinct-count seen-bits across
//!   chunks, so each chunk's stage-1/2/3 labels fall out of a worklist
//!   seeded only by the chunk's frontier — and the Table-2 counts absorb
//!   per chunk, with **no** full-log rebuild at finalization. Sequential
//!   chunk order reproduces the batch first-occurrence interning order,
//!   so labels and counts are bit-identical (pinned in
//!   `crates/classify/src/incremental.rs` tests). Propagation-round
//!   telemetry reassembles as the max across chunks (disjoint BFS
//!   components). Each chunk blob carries the classifier's state *delta*
//!   for that chunk (new unique URLs/hosts plus sparse memo/seen-bit
//!   updates — O(unique values) total across the stream, not O(chunks ×
//!   state)); resume re-applies the deltas in order instead of
//!   re-deriving. A run that is one segment with no checkpoint store has
//!   no later chunk to carry that state to, so the loop classifies its
//!   segment with [`xborder_classify::classify`] instead: the same
//!   per-chunk stages without the cross-chunk tables, which keeps the
//!   one-segment run's memory at the batch classifier's.
//! * **Commutative tracker fold.** The observed tracker IP set folds
//!   chunk by chunk through [`TrackerIpSet::absorb_tracking_request`]
//!   (count, host-set union, window hull), which lands on
//!   [`TrackerIpSet::from_dataset`] over the concatenated log.
//! * **Ordered per-chunk side effects.** pDNS observations are buffered
//!   with the chunk (and checkpointed with it), then absorbed into the
//!   world's sensor as each chunk commits — chunk (= user) order, the
//!   batch replay order. The pDNS first/last-seen windows therefore
//!   advance with the sim clock as the stream runs, which is what lets
//!   rolling snapshots read a live view mid-stream.
//! * **Rolling window snapshots.** With [`StreamConfig::with_snapshots`],
//!   the study window splits into `K` equal sim-time windows and a
//!   cumulative [`crate::snapshots::RollingSnapshot`] is emitted as soon
//!   as every user a window covers is durable. Snapshot coverage is a
//!   pure function of the window boundary (see `crate::snapshots`), so
//!   each emitted snapshot equals the batch pipeline on the log truncated
//!   at that boundary, regardless of chunking, threads or kills
//!   (`tests/rolling_snapshots.rs`).
//! * **Resume replays, never re-randomizes.** A resuming run rebuilds the
//!   world, regenerates the population and re-draws `study_seed` from the
//!   same world RNG stream — leaving the RNG exactly where geolocation
//!   expects it — then loads chunk outputs from disk instead of
//!   simulating them.
//!
//! With no checkpoint directory the loop runs the same arithmetic minus
//! the IO, and never computes the config fingerprint; with
//! `chunk_users >= n_users` it is the batch pipeline: one segment,
//! classified by `classify`.

use crate::ips::{CompletionStats, IpInfo, TrackerIpSet};
use crate::pipeline::{freeze_estimates_degraded_sharded, EstimateMap, StudyOutputs};
use crate::snapshots::SnapshotAccumulator;
use crate::worldgen::{World, WorldConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::net::IpAddr;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;
use xborder_browser::{
    ExtensionDataset, LoggedRequest, Referrer, RequestId, SegmentBlock, StudyChunk, StudyCtx, User,
    UserPopulation, Visit, LABEL_ABP, LABEL_CLEAN, LABEL_SEMI,
};
use xborder_checkpoint::{ByteReader, ByteWriter, CheckpointError, CheckpointStore, DecodeError};
use xborder_classify::{
    classify, generate_lists, Classification, ClassificationResult, ClassifierStages, FilterList,
    IncrementalClassifier, MethodCounts,
};
use xborder_faults::{stable_hash, DegradationReport, FaultInjector, FaultPlan, KillSwitch};
use xborder_geo::Region;
use xborder_geoloc::{IpMap, RegistryDb, RegistryStyle};
use xborder_netsim::time::{SimTime, TimeWindow};
use xborder_netsim::Infrastructure;
use xborder_webgraph::Domain;

/// How the streaming driver chunks and checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamConfig {
    /// Users per append-only chunk (clamped to ≥ 1). A pure availability
    /// knob: every value yields bit-identical outputs.
    pub chunk_users: usize,
    /// Where to write checkpoints; `None` disables durability (the chunk
    /// loop still runs, with zero IO).
    pub checkpoint_dir: Option<PathBuf>,
    /// Number of rolling report windows to emit during the stream; `0`
    /// disables them. A pure observability knob: snapshots never feed
    /// back into the pipeline outputs, and — like chunking — the value is
    /// excluded from the checkpoint fingerprint, so a resume may change
    /// it freely.
    pub snapshot_windows: usize,
}

impl StreamConfig {
    /// In-memory streaming: chunked execution, no checkpoints.
    pub fn in_memory(chunk_users: usize) -> StreamConfig {
        StreamConfig {
            chunk_users,
            checkpoint_dir: None,
            snapshot_windows: 0,
        }
    }

    /// Durable streaming: checkpoint every chunk and stage into `dir`.
    pub fn durable(chunk_users: usize, dir: impl Into<PathBuf>) -> StreamConfig {
        StreamConfig {
            checkpoint_dir: Some(dir.into()),
            ..StreamConfig::in_memory(chunk_users)
        }
    }

    /// Emits `windows` cumulative rolling snapshots over the study window
    /// as ingestion progresses (DESIGN.md §5g).
    pub fn with_snapshots(mut self, windows: usize) -> StreamConfig {
        self.snapshot_windows = windows;
        self
    }
}

/// Why a streaming run stopped without producing outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// A seeded kill point fired — the simulated crash. Resume by calling
    /// the driver again on the same checkpoint directory.
    Killed {
        /// Kill-site counter value at which the switch fired.
        site: u64,
        /// Label of the site that fired.
        label: String,
    },
    /// The checkpoint layer refused or failed (corrupt blob, version or
    /// seed mismatch, IO error).
    Checkpoint(CheckpointError),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Killed { site, label } => {
                write!(f, "streaming run killed at site {site} ({label})")
            }
            StreamError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<CheckpointError> for StreamError {
    fn from(e: CheckpointError) -> StreamError {
        match e {
            CheckpointError::Killed { site, label } => StreamError::Killed { site, label },
            other => StreamError::Checkpoint(other),
        }
    }
}

/// Fires a driver-level kill site, turning a hit into the typed error.
fn killable(kill: &KillSwitch, label: &str) -> Result<(), StreamError> {
    if kill.fire(label) {
        let site = kill.fired().map(|(s, _)| s).unwrap_or_default();
        return Err(StreamError::Killed {
            site,
            label: label.to_string(),
        });
    }
    Ok(())
}

/// The configuration fingerprint stored in the manifest: a stable hash of
/// the world config and fault plan with the performance/availability knobs
/// canonicalised away (the thread budget never changes outputs, so a
/// checkpoint written at 8 threads legitimately resumes at 1 — while any
/// seed, scale or plan change is refused as [`CheckpointError::SeedMismatch`]).
///
/// Chunking is likewise excluded: it lives in [`StreamConfig`], not the
/// world config, so resuming with a different chunk size is legal too.
pub fn config_fingerprint(config: &WorldConfig, plan: &FaultPlan) -> Result<u64, StreamError> {
    let mut canonical = config.clone();
    canonical.parallelism = crate::par::Parallelism::sequential();
    let json = |r: Result<String, serde_json::Error>, what: &str| {
        r.map_err(|e| {
            StreamError::Checkpoint(CheckpointError::ManifestInvalid {
                detail: format!("{what} does not serialize: {e}"),
            })
        })
    };
    let cfg_json = json(serde_json::to_string(&canonical), "world config")?;
    let plan_json = json(serde_json::to_string(plan), "fault plan")?;
    let mut h = stable_hash(cfg_json.as_bytes());
    h ^= stable_hash(plan_json.as_bytes()).rotate_left(17);
    Ok(h)
}

/// A label's [`SegmentBlock`] tag byte. The tag values are part of the
/// checkpoint format (`xborder_browser::colog` documents them as matching
/// this codec), and they are also the label bytes the worldscale request
/// digest hashes.
pub(crate) fn label_tag(label: Classification) -> u8 {
    match label {
        Classification::AbpTracking => LABEL_ABP,
        Classification::SemiTracking => LABEL_SEMI,
        Classification::Clean => LABEL_CLEAN,
    }
}

/// Reverses [`label_tag`] over a replayed chunk's tag bytes; an unknown
/// tag is typed corruption of `file`.
fn labels_from_bytes(file: &str, bytes: &[u8]) -> Result<Vec<Classification>, StreamError> {
    bytes
        .iter()
        .enumerate()
        .map(|(i, &b)| match b {
            LABEL_ABP => Ok(Classification::AbpTracking),
            LABEL_SEMI => Ok(Classification::SemiTracking),
            LABEL_CLEAN => Ok(Classification::Clean),
            tag => Err(corrupt(
                file,
                DecodeError {
                    offset: 0,
                    detail: format!("request {i} has unknown classification tag {tag}"),
                },
            )),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The segment loop every driver runs.
// ---------------------------------------------------------------------------

/// One segment's rows and labels, freshly simulated and classified or
/// decoded from a checkpoint chunk.
#[derive(Debug)]
struct SegmentRows {
    chunk: StudyChunk,
    labels: Vec<Classification>,
    /// Stage-2 and stage-3 fixpoint rounds of the segment's classification.
    rounds: (usize, usize),
    /// The users the segment covers.
    users: Range<usize>,
}

/// One committed segment as the loop hands it to a [`SegmentSink`]:
/// replayed from a checkpoint or freshly ingested, always in user order.
pub(crate) struct Segment<'a> {
    /// The segment's rows (referrers chunk-local, user ids global).
    pub chunk: StudyChunk,
    /// Labels, parallel to `chunk.requests`.
    pub labels: Vec<Classification>,
    /// The segment's users, the first of them `user_start`.
    pub users: &'a [User],
    /// Global id of the segment's first user.
    pub user_start: usize,
    /// The world's server infrastructure (ground-truth geography).
    pub infra: &'a Infrastructure,
}

/// What a driver does with each committed segment.
pub(crate) trait SegmentSink {
    /// Absorbs one segment. `kill` lets the sink fire its own kill sites
    /// (the streaming sink's `snapshot-{i}:emitted`).
    fn absorb(&mut self, seg: Segment<'_>, kill: &KillSwitch) -> Result<(), StreamError>;
}

/// The segment loop's inputs besides the world, fault plan and sink:
/// where users come from, and how the run is segmented and checkpointed.
pub(crate) struct SegmentInputs<'a> {
    /// Population size.
    pub n_users: usize,
    /// The users of a range: a slice of a materialized population, or the
    /// range regenerated from `(pop_seed, range)`.
    pub users: &'a dyn Fn(Range<usize>) -> Cow<'a, [User]>,
    /// Population-wide mean activity (never a per-segment figure; see
    /// [`StudyCtx::new`]).
    pub mean_activity: f64,
    /// The study seed, drawn from the world RNG after the population.
    pub study_seed: u64,
    /// Users per segment (clamped to ≥ 1).
    pub segment_users: usize,
    /// Checkpoint directory; `None` disables durability.
    pub checkpoint_dir: Option<&'a Path>,
}

/// What the segment loop distills from a run; the drivers package it.
pub(crate) struct SegmentRun {
    pub n_segments: usize,
    pub easylist: FilterList,
    pub easyprivacy: FilterList,
    pub abp: MethodCounts,
    pub semi: MethodCounts,
    /// Stage-2 fixpoint rounds (max depth across segments + 1, the batch
    /// figure).
    pub stage2_rounds: usize,
    pub stage3_rounds: usize,
    pub tracker_ips: TrackerIpSet,
    pub completion: CompletionStats,
    pub ipmap_estimates: EstimateMap,
    pub maxmind_estimates: EstimateMap,
    pub ipapi_estimates: EstimateMap,
}

/// Runs the study as a sequence of user segments and everything after it
/// up to geolocation — see the module docs. `rng` must be the world-RNG
/// stream the driver drew its population and study seed from; it is left
/// where geolocation expects it.
///
/// Timings: `study_ms` covers replay, ingest and the tracker fold minus
/// classification and the sink's own work; `classify_ms`,
/// `completion_ms` and `geolocate_ms` are set here, and `study_allocs` /
/// `study_alloc_bytes` sum the simulation calls of every ingested
/// segment.
pub(crate) fn run_segments<S: SegmentSink>(
    world: &mut World,
    rng: &mut StdRng,
    plan: &FaultPlan,
    inputs: SegmentInputs<'_>,
    sink: &mut S,
    kill: &KillSwitch,
    report: &mut DegradationReport,
) -> Result<SegmentRun, StreamError> {
    let inj = FaultInjector::new(plan.clone());
    let threads = world.config.parallelism.threads.max(1);
    // Open (and validate) the checkpoint directory before burning any
    // simulation time: a seed/version mismatch must refuse up front.
    let mut store = match inputs.checkpoint_dir {
        Some(dir) => Some(CheckpointStore::open(
            dir,
            config_fingerprint(&world.config, plan)?,
        )?),
        None => None,
    };
    let durable = store
        .as_ref()
        .map_or_else(Vec::new, |s| s.chunks().to_vec());
    let n_users = inputs.n_users;
    let segment_users = inputs.segment_users.max(1);

    // Filter lists are a pure function of the web graph (no RNG). A run
    // that is one segment with nothing to persist classifies it with
    // `classify`; every other run carries the delta-fixpoint classifier
    // across segments. Constructing it compiles the rule engine, so the
    // compile books under classify time, as it does inside `classify`.
    let (easylist, easyprivacy) = generate_lists(&world.graph);
    let t_study = Instant::now();
    let mut incremental = (store.is_some() || n_users > segment_users)
        .then(|| IncrementalClassifier::new(&easylist, &easyprivacy, ClassifierStages::default()));
    let mut classify_ms = t_study.elapsed().as_secs_f64() * 1e3;
    let mut one_segment_counts = (MethodCounts::default(), MethodCounts::default());

    let mut tracker_ips = TrackerIpSet::default();
    let (mut stage2_depth, mut stage3_rounds) = (0usize, 0usize);
    let (mut pre_fault_offset, mut next_user, mut index) = (0u64, 0usize, 0usize);
    let mut sink_ms = 0.0f64;
    {
        // The view over the world's DNS zones is read-only; the pDNS
        // sensor is borrowed mutably alongside it (disjoint fields) so each
        // committed chunk's observations absorb immediately, in chunk
        // order. Each iteration's users and rows die with the sink call.
        let (view, pdns) = world.dns.indexed_view_and_pdns(world.graph.domains());
        let ctx = StudyCtx::new(
            &world.config.study,
            &world.graph,
            view,
            inputs.study_seed,
            inputs.mean_activity,
        );
        while index < durable.len() || next_user < n_users {
            let (rows, users) = match (durable.get(index), &store, &mut incremental) {
                // Replay: every chunk the manifest says is durable is
                // loaded, decoded and validated instead of simulated.
                // The loader never writes — a corrupt chunk surfaces as
                // a typed error with the directory untouched, before
                // anything is folded. Applying the classifier deltas in
                // chunk order reconstructs the exact live classifier,
                // so the resumed run continues without re-deriving it.
                (Some(entry), Some(store), Some(classifier)) => {
                    let payload = store.load_chunk(entry)?;
                    let (rows, cls_bytes) = decode_chunk_payload(&entry.file, &payload)?;
                    // Chunks must tile the population in order, each
                    // covering exactly the users its manifest entry
                    // names.
                    let range = &rows.users;
                    if entry.user_start != next_user as u64
                        || entry.user_end < entry.user_start
                        || entry.user_end > n_users as u64
                        || (range.start as u64, range.end as u64)
                            != (entry.user_start, entry.user_end)
                    {
                        return Err(CheckpointError::ManifestInvalid {
                            detail: format!(
                                "chunk {} covers users {}..{} (block {range:?}) but \
                                 {next_user} of {n_users} users are accounted for",
                                entry.index, entry.user_start, entry.user_end,
                            ),
                        }
                        .into());
                    }
                    let mut rd = ByteReader::new(cls_bytes);
                    classifier
                        .apply_delta(&mut rd, world.graph.domains())
                        .map_err(|e| corrupt(&entry.file, e))?;
                    rd.finish().map_err(|e| corrupt(&entry.file, e))?;
                    let users = (inputs.users)(rows.users.clone());
                    (rows, users)
                }
                // Ingest the next chunk of users.
                _ => {
                    let end = (next_user + segment_users).min(n_users);
                    killable(kill, &format!("chunk-{index}:begin"))?;
                    let users = (inputs.users)(next_user..end);
                    // With a counting-allocator probe installed (bench
                    // builds), the simulation's allocation traffic
                    // lands in the report. No probe → zeros.
                    let alloc_before = xborder_faults::alloc_snapshot();
                    let chunk = ctx.simulate_users(&users, &inj, threads, pre_fault_offset);
                    if let (Some((a0, b0)), Some((a1, b1))) =
                        (alloc_before, xborder_faults::alloc_snapshot())
                    {
                        report.timings.study_allocs += a1.saturating_sub(a0);
                        report.timings.study_alloc_bytes += b1.saturating_sub(b0);
                    }
                    // Sequential absorption is label- and
                    // count-identical to one whole-log pass (and
                    // trivially thread-invariant).
                    let t_cls = Instant::now();
                    let domains = world.graph.domains();
                    let (labels, rounds) = match incremental.as_mut() {
                        Some(classifier) => {
                            let cls = classifier.append_chunk(&chunk.requests, domains);
                            (cls.labels, (cls.stage2_rounds, cls.stage3_rounds))
                        }
                        None => {
                            let cls = classify(&chunk.requests, domains, &easylist, &easyprivacy);
                            one_segment_counts = (cls.abp, cls.semi);
                            (cls.labels, (cls.stage2_rounds, cls.stage3_rounds))
                        }
                    };
                    classify_ms += t_cls.elapsed().as_secs_f64() * 1e3;
                    let rows = SegmentRows {
                        chunk,
                        labels,
                        rounds,
                        users: next_user..end,
                    };
                    if let (Some(store), Some(classifier)) = (&mut store, incremental.as_mut()) {
                        let payload = encode_chunk_payload(&rows, classifier);
                        store.append_chunk(
                            index as u64,
                            next_user as u64,
                            end as u64,
                            &payload,
                            kill,
                        )?;
                    }
                    killable(kill, &format!("chunk-{index}:committed"))?;
                    (rows, users)
                }
            };
            let SegmentRows {
                chunk,
                labels,
                rounds: (stage2, stage3),
                users: range,
            } = rows;
            // The committed segment's side effects, in chunk (= user)
            // order, identical for replayed and ingested chunks.
            for o in &chunk.observations {
                pdns.observe(world.graph.domains().domain(o.host), o.ip, o.time);
            }
            report.absorb_counters(&chunk.report);
            // Chunk propagation rounds are BFS depths over chunk-disjoint
            // component sets, so the batch depth is the max across chunks.
            stage2_depth = stage2_depth.max(stage2.saturating_sub(1));
            stage3_rounds = stage3_rounds.max(stage3);
            for (r, label) in chunk.requests.iter().zip(&labels) {
                if label.is_tracking() {
                    let host = world.graph.domains().domain(r.host);
                    tracker_ips.absorb_tracking_request(r.ip, host, r.time);
                }
            }
            pre_fault_offset += chunk.report.requests_generated;
            next_user = range.end;
            index += 1;
            let seg = Segment {
                chunk,
                labels,
                users: &users,
                user_start: range.start,
                infra: &world.infra,
            };
            let t_sink = Instant::now();
            sink.absorb(seg, kill)?;
            sink_ms += t_sink.elapsed().as_secs_f64() * 1e3;
        }
    }
    killable(kill, "stage:study:done")?;
    report.timings.study_ms = t_study.elapsed().as_secs_f64() * 1e3 - classify_ms - sink_ms;

    // Table-2 distinct counts: the incremental classifier absorbed them
    // chunk by chunk through its persistent seen-bits — no full-log
    // recount; a one-segment run read them off `classify`. Both equal
    // `classify`'s over the concatenated log (pinned in the classify
    // crate's incremental tests). Nothing after this reads the
    // classifier, so its state is freed before completion and
    // geolocation allocate.
    let (abp, semi) = match incremental {
        Some(classifier) => classifier.counts(),
        None => one_segment_counts,
    };
    report.timings.classify_ms = classify_ms;
    killable(kill, "stage:classify:done")?;

    // pDNS completion of the folded tracker set — the stage-boundary
    // checkpoint. A resume that already has the completion blob loads it
    // (with its counter delta) instead of recomputing; both paths are
    // bit-identical because completion is a deterministic function of
    // (labels, pDNS).
    let t_stage = Instant::now();
    let durable_completion = match &store {
        Some(s) => s.load_stage("completion")?,
        None => None,
    };
    let completion = match durable_completion {
        Some(payload) => {
            let (ips, stats, delta) = decode_completion_state(&payload)?;
            report.absorb_counters(&delta);
            tracker_ips = ips;
            stats
        }
        None => {
            let mut delta = DegradationReport::default();
            let stats = tracker_ips.complete_with_pdns_degraded(world.dns.pdns(), &inj, &mut delta);
            report.absorb_counters(&delta);
            if let Some(store) = &mut store {
                let payload = encode_completion_state(&tracker_ips, &stats, &delta);
                store.put_stage("completion", &payload, kill)?;
            }
            stats
        }
    };
    report.timings.completion_ms = t_stage.elapsed().as_secs_f64() * 1e3;
    killable(kill, "stage:completion:done")?;

    // Geolocation. Nothing after this point is checkpointed: a crash here
    // re-runs geolocation deterministically from the durable completion
    // state.
    let t_stage = Instant::now();
    let (ipmap_estimates, maxmind_estimates, ipapi_estimates) =
        geolocate_providers(world, rng, &tracker_ips, &inj, report, threads);
    report.timings.geolocate_ms = t_stage.elapsed().as_secs_f64() * 1e3;
    killable(kill, "stage:geolocate:done")?;

    Ok(SegmentRun {
        n_segments: index,
        easylist,
        easyprivacy,
        abp,
        semi,
        stage2_rounds: 1 + stage2_depth,
        stage3_rounds,
        tracker_ips,
        completion,
        ipmap_estimates,
        maxmind_estimates,
        ipapi_estimates,
    })
}

/// The geolocation stage: freezes all three providers over the sorted
/// tracker IP list.
///
/// All world-RNG draws stay on the calling thread, in a fixed order: the
/// IPmap build consumes `rng`, then the registry seeds are drawn. The
/// freezes never touch `rng` (per-IP measurement RNG is seeded from the
/// address), which is what frees them to run concurrently.
fn geolocate_providers(
    world: &World,
    rng: &mut StdRng,
    tracker_ips: &TrackerIpSet,
    inj: &FaultInjector,
    report: &mut DegradationReport,
    threads: usize,
) -> (EstimateMap, EstimateMap, EstimateMap) {
    let ip_list: Vec<IpAddr> = {
        let mut v: Vec<IpAddr> = tracker_ips.ips.keys().copied().collect();
        v.sort();
        v
    };
    let ipmap = IpMap::new(world.config.ipmap, &world.infra, rng);
    // MaxMind and ip-api share their seat-vs-truth coin (correlated errors,
    // Table 3) but perturb independently.
    let seat_seed: u64 = rng.gen();
    let mm_noise_seed: u64 = rng.gen();
    let ia_noise_seed: u64 = rng.gen();
    let build_mm = || {
        let mut seat = StdRng::seed_from_u64(seat_seed);
        let mut noise = StdRng::seed_from_u64(mm_noise_seed);
        RegistryDb::build(RegistryStyle::MaxMindLike, &world.infra, &mut seat, &mut noise)
    };
    let build_ia = || {
        let mut seat = StdRng::seed_from_u64(seat_seed);
        let mut noise = StdRng::seed_from_u64(ia_noise_seed);
        RegistryDb::build(RegistryStyle::IpApiLike, &world.infra, &mut seat, &mut noise)
    };
    // The three provider freezes run concurrently (sequentially at a budget
    // of 1), each sharded over the IP list; per-provider reports merge in
    // the fixed sequential order (ipmap → mm → ia), which equals the
    // sequential totals because counter addition commutes.
    let ((a, ra), (b, rb), (c, rc)) = if threads <= 1 {
        (
            freeze_estimates_degraded_sharded(&ipmap, &ip_list, inj, 1),
            freeze_estimates_degraded_sharded(&build_mm(), &ip_list, inj, 1),
            freeze_estimates_degraded_sharded(&build_ia(), &ip_list, inj, 1),
        )
    } else {
        let per_provider = threads.div_ceil(3);
        std::thread::scope(|scope| {
            let ha = scope.spawn(|| {
                freeze_estimates_degraded_sharded(&ipmap, &ip_list, inj, per_provider)
            });
            let hb = scope.spawn(|| {
                freeze_estimates_degraded_sharded(&build_mm(), &ip_list, inj, per_provider)
            });
            let hc = scope.spawn(|| {
                freeze_estimates_degraded_sharded(&build_ia(), &ip_list, inj, per_provider)
            });
            (
                ha.join().expect("ipmap freeze panicked"),
                hb.join().expect("maxmind freeze panicked"),
                hc.join().expect("ipapi freeze panicked"),
            )
        })
    };
    report.absorb_counters(&ra);
    report.absorb_counters(&rb);
    report.absorb_counters(&rc);
    // Assignment-cache counters accumulate inside the IpMap (shared
    // read-only across the shard threads); snapshot them into the report
    // after the freeze. Budget-invariant by construction (DESIGN.md §5e).
    let cache_stats = ipmap.assign_cache_stats();
    report.geoloc_assign_cache_hits = cache_stats.hits;
    report.geoloc_assign_cache_misses = cache_stats.misses;
    report.geoloc_index_probe_visits = cache_stats.index_probe_visits;
    (a, b, c)
}

// ---------------------------------------------------------------------------
// The streaming driver.
// ---------------------------------------------------------------------------

/// Appends `src` to `dst`, moving the vector when `dst` is empty.
fn append<T>(dst: &mut Vec<T>, src: Vec<T>) {
    if dst.is_empty() {
        *dst = src;
    } else {
        dst.extend(src);
    }
}

/// The streaming driver's sink: appends every committed segment's rows
/// and labels to the dataset and feeds the rolling snapshots.
#[derive(Default)]
struct DatasetSink {
    visits: Vec<Visit>,
    requests: Vec<LoggedRequest>,
    labels: Vec<Classification>,
    snapshots: Option<SnapshotAccumulator>,
    snapshot_ms: f64,
}

impl DatasetSink {
    /// Emits every rolling snapshot whose window is fully covered now that
    /// `users_ingested` users are durable. Each emission is a kill site
    /// (`snapshot-{i}:emitted`): a crash immediately after publishing a
    /// snapshot is a scheduled scenario in the resume tests.
    fn emit_due_snapshots(
        &mut self,
        users_ingested: usize,
        kill: &KillSwitch,
    ) -> Result<(), StreamError> {
        let Some(acc) = self.snapshots.as_mut() else {
            return Ok(());
        };
        while acc.due(users_ingested) {
            let t = Instant::now();
            let i = acc.emit_next();
            self.snapshot_ms += t.elapsed().as_secs_f64() * 1e3;
            killable(kill, &format!("snapshot-{i}:emitted"))?;
        }
        Ok(())
    }
}

impl SegmentSink for DatasetSink {
    fn absorb(&mut self, seg: Segment<'_>, kill: &KillSwitch) -> Result<(), StreamError> {
        let users_ingested = seg.user_start + seg.users.len();
        let StudyChunk {
            visits,
            mut requests,
            ..
        } = seg.chunk;
        if let Some(acc) = &mut self.snapshots {
            let t = Instant::now();
            acc.absorb_chunk(&visits, &requests, &seg.labels, seg.infra);
            self.snapshot_ms += t.elapsed().as_secs_f64() * 1e3;
        }
        // Chunk-local referrers → dataset rows: referrers never cross
        // users, hence never chunks, so every row shifts by the rows
        // already kept.
        let offset = self.requests.len() as u32;
        for r in &mut requests {
            if let Referrer::Request(RequestId(p)) = &mut r.referrer {
                *p += offset;
            }
        }
        append(&mut self.visits, visits);
        append(&mut self.requests, requests);
        append(&mut self.labels, seg.labels);
        self.emit_due_snapshots(users_ingested, kill)
    }
}

/// Runs the extension pipeline as checkpointed streaming ingestion.
///
/// Identical outputs to [`crate::pipeline::run_extension_pipeline_degraded`]
/// (this driver at one in-memory segment) for every
/// `(stream, kill schedule)` — see the module docs. On
/// [`StreamError::Killed`] the process is assumed dead; call again with
/// the same world seed and checkpoint directory to resume from the last
/// durable chunk. `kill` is the fault harness's crash trigger; pass
/// [`KillSwitch::none`] in production.
pub fn run_extension_pipeline_streaming(
    world: &mut World,
    plan: &FaultPlan,
    stream_cfg: &StreamConfig,
    kill: &KillSwitch,
) -> Result<(StudyOutputs, DegradationReport), StreamError> {
    let mut report = DegradationReport::default();
    let t_total = Instant::now();

    // World-RNG draws: one study-stream draw, then population generation,
    // then the study seed. Resume runs repeat these draws (they are cheap
    // and deterministic), which leaves `rng` positioned where the
    // geolocation stage expects it.
    let mut rng = StdRng::seed_from_u64(world.study_rng.gen());
    let population = UserPopulation::generate(&world.config.study.population, &mut rng);
    let study_seed: u64 = rng.gen();

    let mut sink = DatasetSink {
        snapshots: (stream_cfg.snapshot_windows > 0).then(|| {
            SnapshotAccumulator::new(
                world.config.study.window,
                &population,
                stream_cfg.snapshot_windows,
            )
        }),
        ..DatasetSink::default()
    };
    // A zero-user stream commits no segment, and every snapshot window
    // is trivially covered from the start.
    if population.users.is_empty() {
        sink.emit_due_snapshots(0, kill)?;
    }
    let run = run_segments(
        world,
        &mut rng,
        plan,
        SegmentInputs {
            n_users: population.users.len(),
            users: &|range| Cow::Borrowed(&population.users[range]),
            mean_activity: population.mean_activity(),
            study_seed,
            segment_users: stream_cfg.chunk_users,
            checkpoint_dir: stream_cfg.checkpoint_dir.as_deref(),
        },
        &mut sink,
        kill,
        &mut report,
    )?;

    // Logs arrive at the collection server in timestamp order. The
    // pre-sort order (user-major, generation order within a user) is the
    // same at every chunking and thread budget, so this stable sort is
    // too. Requests keep generation order: cascade referrers are
    // positional.
    let t_finalize = Instant::now();
    let mut visits = sink.visits;
    visits.sort_by_key(|v| v.time);
    let dataset = ExtensionDataset {
        users: population,
        visits,
        requests: sink.requests,
        domains: world.graph.domains().clone(),
    };
    report.timings.snapshot_ms = sink.snapshot_ms;
    report.timings.study_ms += t_finalize.elapsed().as_secs_f64() * 1e3;

    let out = StudyOutputs {
        dataset,
        classification: ClassificationResult {
            labels: sink.labels,
            abp: run.abp,
            semi: run.semi,
            propagation_rounds: run.stage2_rounds + run.stage3_rounds,
            stage2_rounds: run.stage2_rounds,
            stage3_rounds: run.stage3_rounds,
        },
        easylist: run.easylist,
        easyprivacy: run.easyprivacy,
        tracker_ips: run.tracker_ips,
        completion: run.completion,
        ipmap_estimates: run.ipmap_estimates,
        maxmind_estimates: run.maxmind_estimates,
        ipapi_estimates: run.ipapi_estimates,
        snapshots: sink
            .snapshots
            .map(SnapshotAccumulator::into_snapshots)
            .unwrap_or_default(),
    };
    // Headline metric over whatever survived the faults, so drift can be
    // compared against a fault-free run of the same seed.
    report.eu28_confinement =
        crate::confine::region_breakdown_eu28(&out, &out.ipmap_estimates).share(Region::Eu28);
    report.timings.total_ms = t_total.elapsed().as_secs_f64() * 1e3;
    Ok((out, report))
}

// ---------------------------------------------------------------------------
// Blob codecs. The checkpoint crate stores opaque bytes; the typed
// encodings live here, next to the domain types they serialize. Floats are
// stored as IEEE-754 bit patterns, so round trips are bit-exact.
// ---------------------------------------------------------------------------

fn corrupt(file: &str, e: DecodeError) -> StreamError {
    StreamError::Checkpoint(CheckpointError::Corrupt {
        path: PathBuf::from(file),
        detail: e.to_string(),
    })
}

pub(crate) fn put_ip(w: &mut ByteWriter, ip: IpAddr) {
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

fn read_ip(r: &mut ByteReader<'_>) -> Result<IpAddr, DecodeError> {
    match r.u8()? {
        4 => {
            let b = r.bytes(4)?;
            Ok(IpAddr::from([b[0], b[1], b[2], b[3]]))
        }
        6 => {
            let b = r.bytes(16)?;
            let mut o = [0u8; 16];
            o.copy_from_slice(b);
            Ok(IpAddr::from(o))
        }
        tag => Err(DecodeError {
            offset: 0,
            detail: format!("unknown IP tag {tag}"),
        }),
    }
}

/// The fixed counter order of the report codec
/// ([`DegradationReport::counter_values`]). Only counters travel in
/// blobs: chunk reports carry deltas, and `eu28_confinement`/timings are
/// finalization-time observations that are never absorbed.
fn put_counters(w: &mut ByteWriter, r: &DegradationReport) {
    for v in r.counter_values() {
        w.put_u64(v);
    }
}

fn read_counters(rd: &mut ByteReader<'_>) -> Result<DegradationReport, DecodeError> {
    let mut values = [0u64; DegradationReport::N_COUNTERS];
    for slot in &mut values {
        *slot = rd.u64()?;
    }
    Ok(DegradationReport::from_counter_values(&values))
}

/// The durable chunk payload: two length-prefixed sections — the segment
/// as a columnar [`SegmentBlock`] (labels as tag bytes), then the
/// incremental-classifier *delta* for this chunk. This is the only place
/// a segment becomes a block. Encoding advances the classifier's delta
/// baseline (the only caller encodes each chunk exactly once, in order);
/// replay applies every durable chunk's delta in the same order to
/// reconstruct the state.
fn encode_chunk_payload(rows: &SegmentRows, classifier: &mut IncrementalClassifier) -> Vec<u8> {
    let mut cw = ByteWriter::new();
    classifier.encode_delta(&mut cw);
    let cls = cw.into_bytes();
    let tags: Vec<u8> = rows.labels.iter().map(|&l| label_tag(l)).collect();
    let seg = SegmentBlock::from_chunk(
        &rows.chunk,
        &tags,
        rows.rounds.0 as u32,
        rows.rounds.1 as u32,
        (rows.users.start as u32, rows.users.end as u32),
    )
    .encode_bytes();
    let mut w = ByteWriter::with_capacity(16 + seg.len() + cls.len());
    w.put_blob(&seg);
    w.put_blob(&cls);
    w.into_bytes()
}

/// Decodes a chunk payload into its rows and labels, plus the raw bytes of
/// the classifier delta section (applied by the replay loop). This is the
/// only place a block becomes rows again; every defect — framing, a block
/// that does not decode, a label count or user id that does not fit, an
/// unknown label tag — is typed corruption of `file`.
fn decode_chunk_payload<'p>(
    file: &str,
    payload: &'p [u8],
) -> Result<(SegmentRows, &'p [u8]), StreamError> {
    let mut rd = ByteReader::new(payload);
    let seg = rd.blob().map_err(|e| corrupt(file, e))?;
    let cls = rd.blob().map_err(|e| corrupt(file, e))?;
    rd.finish().map_err(|e| corrupt(file, e))?;
    let block = SegmentBlock::decode_bytes(seg).map_err(|e| corrupt(file, e))?;
    // Durable chunks are always classified (one label byte per request),
    // and every request row belongs to one of the block's users — the
    // sinks index the segment's users by it.
    let (n, users) = (block.n_requests(), block.user_start..block.user_end);
    let detail = if block.labels().len() != n {
        format!(
            "label count {} does not match request count {n}",
            block.labels().len()
        )
    } else if let Some(i) = (0..n).find(|&i| !users.contains(&block.request_user(i))) {
        format!("request {i} names a user outside {users:?}")
    } else {
        let (chunk, tags, stage2, stage3) = block.to_chunk();
        let rows = SegmentRows {
            chunk,
            labels: labels_from_bytes(file, &tags)?,
            rounds: (stage2 as usize, stage3 as usize),
            users: users.start as usize..users.end as usize,
        };
        return Ok((rows, cls));
    };
    Err(corrupt(file, DecodeError { offset: 0, detail }))
}

/// Writes a tracker set in canonical order: sorted by IP, hosts sorted
/// within each record. The in-memory maps hash-order freely; the bytes
/// (completion blob, worldscale fingerprint) do not.
pub(crate) fn put_tracker_ips(w: &mut ByteWriter, ips: &TrackerIpSet) {
    let mut sorted: Vec<(&IpAddr, &IpInfo)> = ips.ips.iter().collect();
    sorted.sort_by_key(|(ip, _)| **ip);
    w.put_usize(sorted.len());
    for (ip, info) in sorted {
        put_ip(w, *ip);
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
}

fn encode_completion_state(
    ips: &TrackerIpSet,
    stats: &CompletionStats,
    delta: &DegradationReport,
) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(64 + ips.len() * 48);
    put_tracker_ips(&mut w, ips);
    w.put_usize(stats.n_observed);
    w.put_usize(stats.n_added);
    w.put_f64(stats.v4_share);
    w.put_f64(stats.added_v4_share);
    put_counters(&mut w, delta);
    w.into_bytes()
}

fn decode_completion_state(
    payload: &[u8],
) -> Result<(TrackerIpSet, CompletionStats, DegradationReport), StreamError> {
    const FILE: &str = "stage-completion.xbc";
    let mut rd = ByteReader::new(payload);
    let inner = |rd: &mut ByteReader<'_>| -> Result<
        (TrackerIpSet, CompletionStats, DegradationReport),
        DecodeError,
    > {
        let n = rd.len_prefix()?;
        let mut ips: HashMap<IpAddr, IpInfo> = HashMap::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let ip = read_ip(rd)?;
            let requests = rd.u64()?;
            let n_hosts = rd.len_prefix()?;
            let mut hosts = HashSet::with_capacity(n_hosts.min(1 << 16));
            for _ in 0..n_hosts {
                hosts.insert(Domain::new(rd.str()?));
            }
            let window = TimeWindow::new(SimTime(rd.u64()?), SimTime(rd.u64()?));
            let from_pdns_only = rd.u8()? != 0;
            ips.insert(
                ip,
                IpInfo {
                    requests,
                    hosts,
                    window,
                    from_pdns_only,
                },
            );
        }
        let stats = CompletionStats {
            n_observed: rd.len_prefix()?,
            n_added: rd.len_prefix()?,
            v4_share: rd.f64()?,
            added_v4_share: rd.f64()?,
        };
        let delta = read_counters(rd)?;
        Ok((TrackerIpSet { ips }, stats, delta))
    };
    let out = inner(&mut rd).map_err(|e| corrupt(FILE, e))?;
    rd.finish().map_err(|e| corrupt(FILE, e))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xborder_browser::UserId;
    use xborder_dns::PdnsIdObservation;
    use xborder_webgraph::{DomainId, PublisherId};

    fn sample_chunk() -> StudyChunk {
        let report = DegradationReport {
            requests_generated: 3,
            requests_delivered: 2,
            dns_cache_hits: 7,
            ..Default::default()
        };
        StudyChunk {
            visits: vec![Visit {
                user: UserId(1),
                publisher: PublisherId(9),
                time: SimTime(100),
            }],
            requests: vec![
                LoggedRequest {
                    user: UserId(1),
                    time: SimTime(101),
                    first_party: DomainId(2),
                    publisher: PublisherId(9),
                    url: "https://t.example/px?id=1".into(),
                    host: DomainId(3),
                    referrer: Referrer::FirstParty,
                    ip: "10.1.2.3".parse().unwrap(),
                },
                LoggedRequest {
                    user: UserId(1),
                    time: SimTime(102),
                    first_party: DomainId(2),
                    publisher: PublisherId(9),
                    url: "https://u.example/js".into(),
                    host: DomainId(4),
                    referrer: Referrer::Request(RequestId(0)),
                    ip: "2001:db8::7".parse().unwrap(),
                },
            ],
            observations: vec![PdnsIdObservation {
                host: DomainId(3),
                ip: "10.1.2.3".parse().unwrap(),
                time: SimTime(101),
            }],
            report,
        }
    }

    fn sample_block() -> SegmentBlock {
        SegmentBlock::from_chunk(&sample_chunk(), &[LABEL_ABP, LABEL_SEMI], 1, 0, (0, 2))
    }

    fn payload(block: &SegmentBlock) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_blob(&block.encode_bytes());
        w.put_blob(&[]);
        w.into_bytes()
    }

    #[test]
    fn labels_round_trip_and_reject_unknown_tags() {
        let labels = vec![
            Classification::AbpTracking,
            Classification::SemiTracking,
            Classification::Clean,
        ];
        let bytes: Vec<u8> = labels.iter().map(|&l| label_tag(l)).collect();
        assert_eq!(bytes, vec![LABEL_ABP, LABEL_SEMI, LABEL_CLEAN]);
        assert_eq!(labels_from_bytes("seg", &bytes).unwrap(), labels);
        let err = labels_from_bytes("seg", &[LABEL_ABP, 9]).unwrap_err();
        assert!(matches!(
            err,
            StreamError::Checkpoint(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn chunk_payload_framing_splits_sections() {
        // The classifier section is opaque at the framing layer; framing
        // must hand it back byte-exact and reject trailing garbage.
        let block = sample_block();
        let mut w = ByteWriter::new();
        w.put_blob(&block.encode_bytes());
        w.put_blob(&[0xAB, 0xCD, 0xEF]);
        let payload = w.into_bytes();
        let (back, cls) = decode_chunk_payload("chunk-00000.xbc", &payload).unwrap();
        assert_eq!(back.chunk, sample_chunk());
        assert_eq!(
            back.labels,
            vec![Classification::AbpTracking, Classification::SemiTracking]
        );
        assert_eq!((back.rounds, back.users), ((1, 0), 0..2));
        assert_eq!(cls, &[0xAB, 0xCD, 0xEF]);

        let mut with_trailer = payload.clone();
        with_trailer.push(0);
        let err = decode_chunk_payload("chunk-00000.xbc", &with_trailer).unwrap_err();
        assert!(matches!(
            err,
            StreamError::Checkpoint(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn truncated_chunk_payload_is_typed_corruption() {
        // A torn segment blob inside valid framing must surface as typed
        // corruption, not a panic.
        let seg = sample_block().encode_bytes();
        let mut w = ByteWriter::new();
        w.put_blob(&seg[..seg.len() - 3]);
        w.put_blob(&[]);
        let err = decode_chunk_payload("chunk-00000.xbc", &w.into_bytes()).unwrap_err();
        assert!(matches!(
            err,
            StreamError::Checkpoint(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn unclassified_chunk_payload_is_rejected() {
        // The streaming format stores one label byte per request; a block
        // whose labels column is missing (or short) is corrupt.
        let (chunk, _, _, _) = sample_block().to_chunk();
        let unlabeled = SegmentBlock::from_chunk(&chunk, &[], 0, 0, (0, 2));
        let err = decode_chunk_payload("chunk-00000.xbc", &payload(&unlabeled)).unwrap_err();
        assert!(matches!(
            err,
            StreamError::Checkpoint(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn request_user_outside_the_block_is_rejected() {
        // Worldscale indexes a segment's users by each request's user id;
        // a block whose rows name users outside its range is corrupt.
        let (chunk, labels, _, _) = sample_block().to_chunk();
        let narrow = SegmentBlock::from_chunk(&chunk, &labels, 1, 0, (0, 1));
        let err = decode_chunk_payload("chunk-00000.xbc", &payload(&narrow)).unwrap_err();
        assert!(
            matches!(&err, StreamError::Checkpoint(CheckpointError::Corrupt { detail, .. })
                if detail.contains("outside")),
            "{err:?}"
        );
    }

    #[test]
    fn unknown_label_tag_is_corruption_of_the_chunk_file() {
        // A well-framed block whose label column holds a tag no codec
        // writes must refuse at decode, naming the chunk file — never
        // reach a fold that would read the tag one way or another.
        let tagged = SegmentBlock::from_chunk(&sample_chunk(), &[LABEL_ABP, 7], 1, 0, (0, 2));
        let err = decode_chunk_payload("chunk-00003.xbc", &payload(&tagged)).unwrap_err();
        assert!(
            matches!(&err, StreamError::Checkpoint(CheckpointError::Corrupt { path, detail })
                if path == Path::new("chunk-00003.xbc") && detail.contains("tag 7")),
            "{err:?}"
        );
    }

    #[test]
    fn completion_state_round_trips() {
        let mut ips = HashMap::new();
        let mut hosts = HashSet::new();
        hosts.insert(Domain::new("t.x.com"));
        hosts.insert(Domain::new("u.y.net"));
        ips.insert(
            "9.8.7.6".parse().unwrap(),
            IpInfo {
                requests: 12,
                hosts,
                window: TimeWindow::new(SimTime(5), SimTime(900)),
                from_pdns_only: false,
            },
        );
        let set = TrackerIpSet { ips };
        let stats = CompletionStats {
            n_observed: 1,
            n_added: 0,
            v4_share: 1.0,
            added_v4_share: 0.0,
        };
        let delta = DegradationReport {
            pdns_records_seen: 4,
            ..Default::default()
        };
        let bytes = encode_completion_state(&set, &stats, &delta);
        let (set2, stats2, delta2) = decode_completion_state(&bytes).unwrap();
        assert_eq!(set2.ips.len(), 1);
        let info = &set2.ips[&"9.8.7.6".parse::<IpAddr>().unwrap()];
        assert_eq!(info.requests, 12);
        assert_eq!(info.hosts.len(), 2);
        assert_eq!(info.window, TimeWindow::new(SimTime(5), SimTime(900)));
        assert_eq!(stats2, stats);
        assert_eq!(delta2, delta);
    }

    #[test]
    fn fingerprint_ignores_performance_knobs_only() {
        let base = WorldConfig::small(11);
        let plan = FaultPlan::none();
        let a = config_fingerprint(&base, &plan).unwrap();
        // Thread budget is canonicalised away.
        let b = config_fingerprint(&base.clone().with_threads(8), &plan).unwrap();
        assert_eq!(a, b);
        // A different world seed is a different run.
        let c = config_fingerprint(&WorldConfig::small(12), &plan).unwrap();
        assert_ne!(a, c);
        // A different fault plan is a different run.
        let d = config_fingerprint(&base, &FaultPlan::aggressive(11)).unwrap();
        assert_ne!(a, d);
    }
}
