//! The three workloads: their configurations, the untraced pipeline runs
//! that the end-to-end metrics time, the output digests, and the
//! references each digest is checked against.

use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::Value;
use std::path::Path;
use xborder::confine::{country_matrix_eu28, region_breakdown_eu28, region_matrix};
use xborder::dedicated::DedicatedAnalysis;
use xborder::ispstudy::{run_isp_study, IspStudyConfig};
use xborder::pipeline::run_extension_pipeline_degraded;
use xborder::regulations::Regulation;
use xborder::sensitive::{detect_sensitive_sites, trace_sensitive_flows, DetectorConfig};
use xborder::snapshots::{batch_snapshots, RollingSnapshot};
use xborder::stream::{run_extension_pipeline_streaming, StreamConfig};
use xborder::worldscale::{dataset_digests, run_worldscale_pipeline, ScaleConfig, ScaleOutputs};
use xborder::{whatif, StudyOutputs, World, WorldConfig};
use xborder_browser::{LABEL_ABP, LABEL_CLEAN, LABEL_SEMI};
use xborder_classify::Classification;
use xborder_faults::{derive_stream_seed, stable_hash, FaultPlan, KillSwitch};

/// Thread budget of every measured run.
pub const THREADS: usize = 2;

/// Users per streaming chunk on `stream-durable`.
pub const STREAM_CHUNK_USERS: usize = 10;
/// Rolling snapshots emitted on `stream-durable`.
pub const STREAM_SNAPSHOTS: usize = 6;
/// Committed segments kept resident on `worldscale-spill`.
pub const SPILL_WINDOW: usize = 2;

/// Seed of the synthetic world (web graph, infrastructure, DNS zones)
/// the measured runs are built on. The world is the benchmark's fixed
/// dataset; `--seed` seeds the traffic over it, so runs on different
/// seeds do comparable amounts of work.
pub const WORLD_SEED: u64 = 2018;
/// World seed of the tiny configs the benchmark's tests run.
pub const TINY_WORLD_SEED: u64 = 11;
/// Stream ids under which the run seed derives the study and ISP seeds.
const STUDY_STREAM: u64 = 1;
const ISP_STREAM: u64 = 2;

/// Divides the paper study's visits per user (219) on `paper-repro` and
/// `stream-durable`, so that one sample takes seconds, not tens of them.
pub const PAPER_VISIT_DIVISOR: f64 = 6.0;
/// Sampled page views per ISP size unit on `paper-repro` (the paper
/// default is 400).
pub const PAPER_ISP_PAGE_VIEWS: f64 = 100.0;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper reproduction: batch pipeline plus every experiment.
    PaperRepro,
    /// The same world through durable, checkpointed streaming.
    StreamDurable,
    /// Many light users through the out-of-core pipeline with spilling.
    WorldscaleSpill,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperRepro,
        Workload::StreamDurable,
        Workload::WorldscaleSpill,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperRepro => "paper-repro",
            Workload::StreamDurable => "stream-durable",
            Workload::WorldscaleSpill => "worldscale-spill",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Run seed used when `--seed` is not given, for every workload. The
/// held-out seed that a claimed gain must also win on is 7919 (README.md).
pub const DEFAULT_SEED: u64 = 2018;

/// Full benchmark size, or the tiny size of the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Bench,
    /// Seconds-long configs for tests.
    Tiny,
}

/// Everything a run is generated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Size.
    pub size: Size,
}

impl Spec {
    /// Users of the out-of-core world.
    pub fn worldscale_users(&self) -> usize {
        match self.size {
            Size::Bench => 12_000,
            Size::Tiny => 2_000,
        }
    }

    /// Users per segment of the measured out-of-core run.
    pub fn segment_users(&self) -> usize {
        self.worldscale_users() / 8
    }

    /// Seed of the world every run of this size is built on.
    pub fn world_seed(&self) -> u64 {
        match self.size {
            Size::Bench => WORLD_SEED,
            Size::Tiny => TINY_WORLD_SEED,
        }
    }

    /// The world this workload runs on, at a thread budget. The paper
    /// world keeps its web graph, infrastructure and 350 users; only the
    /// visits per user shrink, by [`PAPER_VISIT_DIVISOR`].
    pub fn world_config(&self, threads: usize) -> WorldConfig {
        let seed = self.world_seed();
        let cfg = match (self.workload, self.size) {
            (Workload::WorldscaleSpill, _) => WorldConfig::large(seed, self.worldscale_users()),
            (_, Size::Bench) => {
                let mut cfg = WorldConfig::paper_scale(seed);
                cfg.study.visits_per_user_mean /= PAPER_VISIT_DIVISOR;
                cfg
            }
            (_, Size::Tiny) => WorldConfig::small(seed),
        };
        cfg.with_threads(threads)
    }

    /// Builds the world, then seeds its study stream (population,
    /// browsing, resolution, measurement) from the run seed.
    pub fn build_world(&self, threads: usize) -> World {
        let mut world = World::build(self.world_config(threads));
        world.study_rng = StdRng::seed_from_u64(derive_stream_seed(self.seed, STUDY_STREAM));
        world
    }

    /// The ISP study run by `paper-repro`.
    pub fn isp_config(&self) -> IspStudyConfig {
        match self.size {
            Size::Bench => IspStudyConfig {
                base_page_views: PAPER_ISP_PAGE_VIEWS,
                seed: derive_stream_seed(self.seed, ISP_STREAM),
                ..IspStudyConfig::default()
            },
            Size::Tiny => IspStudyConfig {
                seed: derive_stream_seed(self.seed, ISP_STREAM),
                ..IspStudyConfig::small()
            },
        }
    }
}

/// What one run of a workload produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutput {
    /// Digest of every output, timings excluded.
    pub digest: u64,
    /// Simulated users.
    pub users: u64,
    /// Logged third-party requests.
    pub requests: u64,
}

/// Builds the world and prepares an empty scratch or checkpoint
/// directory: the set-up that `setup_s` times.
pub fn setup(spec: &Spec, threads: usize, dir: &Path) -> World {
    let world = spec.build_world(threads);
    fresh_dir(dir);
    world
}

/// Removes `dir` if present and creates it empty.
pub fn fresh_dir(dir: &Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("clear scratch directory");
    }
    std::fs::create_dir_all(dir).expect("create scratch directory");
}

/// Runs the workload through the public pipeline APIs: the interval that
/// `wall_s` times.
pub fn run_pipeline(spec: &Spec, world: &mut World, dir: &Path) -> RunOutput {
    let plan = FaultPlan::none();
    let kill = KillSwitch::none();
    match spec.workload {
        Workload::PaperRepro => {
            let (out, _) = run_extension_pipeline_degraded(world, &plan);
            let mut tr = Tracer::off();
            let mut values = analyses_before_isp(world, &out, spec.seed, &mut tr);
            let isp = run_isp_study(
                world,
                &out.tracker_ips,
                &out.ipmap_estimates,
                &spec.isp_config(),
            );
            values.push(("isp", to_value(&isp)));
            values.extend(analyses_after_isp(world, &out, spec.seed, &mut tr));
            paper_output(&out, &values)
        }
        Workload::StreamDurable => {
            let cfg = StreamConfig::durable(STREAM_CHUNK_USERS, dir.join("checkpoint"))
                .with_snapshots(STREAM_SNAPSHOTS);
            let (out, _) = run_extension_pipeline_streaming(world, &plan, &cfg, &kill)
                .expect("streaming run failed");
            stream_output(&out, &out.snapshots)
        }
        Workload::WorldscaleSpill => {
            let cfg = ScaleConfig::in_memory(spec.segment_users())
                .with_resident_window(SPILL_WINDOW, dir.join("spill"));
            let (out, _) =
                run_worldscale_pipeline(world, &plan, &cfg, &kill).expect("worldscale run failed");
            scale_output(&out)
        }
    }
}

/// The digest each run is checked against, computed by a different
/// route than the run under test:
/// * `paper-repro`: the same pipeline and experiments at one thread
///   (outputs are invariant to the thread budget);
/// * `stream-durable`: the batch pipeline on the same seed, with rolling
///   snapshots recomputed from its dataset (batch ≡ streaming);
/// * `worldscale-spill`: the out-of-core pipeline at a second segment size,
///   without spilling (outputs are invariant to segmentation).
pub fn reference(spec: &Spec, dir: &Path) -> RunOutput {
    match spec.workload {
        Workload::PaperRepro => {
            let mut world = setup(spec, 1, dir);
            run_pipeline(spec, &mut world, dir)
        }
        Workload::StreamDurable => {
            let mut world = spec.build_world(THREADS);
            let (out, _) = run_extension_pipeline_degraded(&mut world, &FaultPlan::none());
            let snaps = batch_snapshots(
                &out.dataset,
                &out.classification.labels,
                &world.infra,
                world.config.study.window,
                STREAM_SNAPSHOTS,
            );
            stream_output(&out, &snaps)
        }
        Workload::WorldscaleSpill => {
            let mut world = spec.build_world(THREADS);
            let cfg = ScaleConfig::in_memory(spec.segment_users() * 3 / 2 + 1);
            let (out, _) =
                run_worldscale_pipeline(&mut world, &FaultPlan::none(), &cfg, &KillSwitch::none())
                    .expect("worldscale reference failed");
            scale_output(&out)
        }
    }
}

/// Label bytes of a batch classification (the segment-block tag codec).
pub fn label_bytes(labels: &[Classification]) -> Vec<u8> {
    labels
        .iter()
        .map(|l| match l {
            Classification::AbpTracking => LABEL_ABP,
            Classification::SemiTracking => LABEL_SEMI,
            Classification::Clean => LABEL_CLEAN,
        })
        .collect()
}

/// The knob-invariant fingerprint of a materialized pipeline run: the
/// same canonical digest [`ScaleOutputs::fingerprint`] gives the
/// out-of-core pipeline, so batch, streaming and worldscale outputs share
/// one notion of equality.
pub fn study_fingerprint(out: &StudyOutputs) -> u64 {
    let (visit_hash, request_hash) = dataset_digests(
        &out.dataset.visits,
        &out.dataset.requests,
        &label_bytes(&out.classification.labels),
    );
    ScaleOutputs {
        n_segments: 0,
        stats: out.dataset.stats(),
        visit_hash,
        request_hash,
        abp: out.classification.abp,
        semi: out.classification.semi,
        stage2_rounds: out.classification.stage2_rounds,
        stage3_rounds: out.classification.stage3_rounds,
        tracker_ips: out.tracker_ips.clone(),
        completion: out.completion,
        ipmap_estimates: out.ipmap_estimates.clone(),
        maxmind_estimates: out.maxmind_estimates.clone(),
        ipapi_estimates: out.ipapi_estimates.clone(),
        eu28: region_breakdown_eu28(out, &out.ipmap_estimates),
    }
    .fingerprint()
}

/// Serializes an experiment result.
pub fn to_value<T: serde::Serialize>(v: &T) -> Value {
    serde_json::to_value(v).expect("experiment results serialize")
}

/// Drops every `timings` field and rounds floats to 12 significant
/// digits, so two identical runs digest equally even where a result sums
/// floats in hash-map order.
pub fn canonical(v: &Value) -> Value {
    match v {
        Value::Object(entries) => Value::Object(
            entries
                .iter()
                .filter(|(k, _)| k != "timings")
                .map(|(k, v)| (k.clone(), canonical(v)))
                .collect(),
        ),
        Value::Array(items) => Value::Array(items.iter().map(canonical).collect()),
        Value::F64(f) => Value::Str(format!("{f:.11e}")),
        other => other.clone(),
    }
}

/// Digest of named experiment results.
pub fn values_digest(values: &[(&str, Value)]) -> u64 {
    let doc = Value::Array(
        values
            .iter()
            .map(|(name, v)| Value::Array(vec![Value::Str(name.to_string()), canonical(v)]))
            .collect(),
    );
    stable_hash(serde_json::to_string(&doc).expect("digest JSON").as_bytes())
}

fn combine(a: u64, b: u64) -> u64 {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&a.to_le_bytes());
    bytes[8..].copy_from_slice(&b.to_le_bytes());
    stable_hash(&bytes)
}

/// Output of a `paper-repro` run.
pub fn paper_output(out: &StudyOutputs, values: &[(&str, Value)]) -> RunOutput {
    RunOutput {
        digest: combine(study_fingerprint(out), values_digest(values)),
        users: out.dataset.users.users.len() as u64,
        requests: out.dataset.requests.len() as u64,
    }
}

/// Output of a `stream-durable` run.
pub fn stream_output(out: &StudyOutputs, snapshots: &[RollingSnapshot]) -> RunOutput {
    let snaps: Vec<(&str, Value)> = snapshots
        .iter()
        .map(|s| ("snapshot", to_value(s)))
        .collect();
    RunOutput {
        digest: combine(study_fingerprint(out), values_digest(&snaps)),
        users: out.dataset.users.users.len() as u64,
        requests: out.dataset.requests.len() as u64,
    }
}

/// Output of a `worldscale-spill` run.
pub fn scale_output(out: &ScaleOutputs) -> RunOutput {
    RunOutput {
        digest: out.fingerprint(),
        users: out.stats.n_users as u64,
        requests: out.stats.n_third_party_requests as u64,
    }
}

/// The paper experiments `repro` runs before the ISP study: confinement
/// (Figs. 6–8), dedicated IPs (Figs. 4–5), what-if (Tables 5–6) and
/// sensitive flows (Figs. 9–11), in `repro`'s order.
pub fn analyses_before_isp(
    world: &World,
    out: &StudyOutputs,
    seed: u64,
    tr: &mut Tracer,
) -> Vec<(&'static str, Value)> {
    let dedicated = tr.span("analyses", "other", || {
        DedicatedAnalysis::run(out, world.dns.pdns())
    });
    let confine = tr.span("analyses", "confine", || {
        Value::Array(vec![
            to_value(&region_matrix(out, &out.ipmap_estimates)),
            to_value(&region_breakdown_eu28(out, &out.maxmind_estimates)),
            to_value(&region_breakdown_eu28(out, &out.ipmap_estimates)),
            to_value(&country_matrix_eu28(out, &out.ipmap_estimates)),
        ])
    });
    let whatif = tr.span("analyses", "whatif", || {
        whatif::run(world, out, &out.ipmap_estimates)
    });
    let sensitive = tr.span("analyses", "other", || {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5E51);
        let sites = detect_sensitive_sites(&world.graph, &DetectorConfig::default(), &mut rng);
        trace_sensitive_flows(out, &world.graph, &sites, &out.ipmap_estimates)
    });
    vec![
        ("dedicated", to_value(&dedicated)),
        ("confine", confine),
        ("whatif", to_value(&whatif)),
        ("sensitive", to_value(&sensitive)),
    ]
}

/// The experiments `repro` runs after the ISP study: collaboration,
/// compliance and the DNS-redirection rollout.
pub fn analyses_after_isp(
    world: &World,
    out: &StudyOutputs,
    seed: u64,
    tr: &mut Tracer,
) -> Vec<(&'static str, Value)> {
    let collab = tr.span("analyses", "collab", || {
        xborder::collab::CollabGraph::build(world, out, &out.ipmap_estimates)
    });
    let compliance = tr.span("analyses", "other", || {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0DE);
        let sites = detect_sensitive_sites(&world.graph, &DetectorConfig::default(), &mut rng);
        Regulation::ALL
            .iter()
            .map(|reg| {
                to_value(&xborder::regulations::audit(
                    *reg,
                    world,
                    out,
                    &out.ipmap_estimates,
                    &sites,
                ))
            })
            .collect::<Vec<_>>()
    });
    let rollout = tr.span("analyses", "whatif", || {
        whatif::redirection_rollout(world, out)
    });
    vec![
        ("collab", to_value(&collab)),
        ("compliance", Value::Array(compliance)),
        ("rollout", to_value(&rollout)),
    ]
}
