//! The out-of-core contract of the worldscale driver (DESIGN.md §5j):
//! segment size, thread budget and kill schedule are pure
//! performance/availability knobs of a pipeline that never materializes
//! the population or the concatenated log, and keeps no segment store.
//!
//! 1. **Fold equality.** Every aggregate the out-of-core fold produces —
//!    dataset stats, visit/request digests, Table-2 counts, tracker set,
//!    completion, all three estimate maps, the EU28 breakdown — equals
//!    the materialized batch pipeline on the same segmented config.
//! 2. **Knob invariance.** Segment sizes {1, 7, whole} × thread budgets
//!    {1, 8} × fault plans {none, aggressive} all land on one
//!    [`ScaleOutputs::fingerprint`].
//! 3. **Kill-anywhere resume.** Every kill site of a durable run (chunk
//!    boundaries, blob write phases, stage boundaries) is swept: kill,
//!    resume on the same directory, fingerprints bit-identical to the
//!    uninterrupted run.

use std::fs;
use std::path::PathBuf;
use xborder::confine::region_breakdown_eu28;
use xborder::pipeline::run_extension_pipeline_degraded;
use xborder::stream::StreamError;
use xborder::worldscale::{
    dataset_digests, run_worldscale_pipeline, ScaleConfig, ScaleOutputs,
};
use xborder::{World, WorldConfig};
use xborder_browser::{LABEL_ABP, LABEL_CLEAN, LABEL_SEMI};
use xborder_classify::Classification;
use xborder_faults::{FaultPlan, KillSwitch, StageTimings};

/// Small segmented world (mirrors streaming_resume.rs) so the matrix and
/// the kill-site sweep stay fast.
fn tiny_config(seed: u64) -> WorldConfig {
    let mut cfg = WorldConfig::small(seed);
    cfg.web.n_publishers = 60;
    cfg.web.n_adtech_orgs = 20;
    cfg.web.n_clean_orgs = 10;
    cfg.study.population.n_users = 10;
    cfg.study.population.segmented = true;
    cfg.study.visits_per_user_mean = 6.0;
    cfg.ipmap.total_probes = 300;
    cfg.ipmap.probes_per_target = 12;
    cfg.ipmap.samples_per_probe = 2;
    cfg.ipmap.landmarks = 12;
    cfg
}

fn run_scale(
    cfg: WorldConfig,
    plan: &FaultPlan,
    scale: &ScaleConfig,
    kill: &KillSwitch,
) -> Result<(ScaleOutputs, xborder_faults::DegradationReport), StreamError> {
    let mut world = World::build(cfg);
    let (out, mut report) = run_worldscale_pipeline(&mut world, plan, scale, kill)?;
    report.timings = StageTimings::default();
    Ok((out, report))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xborder-scale-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Folds the batch pipeline's materialized outputs into the aggregate
/// form, so equality can be pinned fingerprint-to-fingerprint.
fn batch_reference(cfg: WorldConfig, plan: &FaultPlan) -> ScaleOutputs {
    let mut world = World::build(cfg);
    let (out, _) = run_extension_pipeline_degraded(&mut world, plan);
    let labels: Vec<u8> = out
        .classification
        .labels
        .iter()
        .map(|l| match l {
            Classification::AbpTracking => LABEL_ABP,
            Classification::SemiTracking => LABEL_SEMI,
            Classification::Clean => LABEL_CLEAN,
        })
        .collect();
    let (visit_hash, request_hash) =
        dataset_digests(&out.dataset.visits, &out.dataset.requests, &labels);
    let eu28 = region_breakdown_eu28(&out, &out.ipmap_estimates);
    ScaleOutputs {
        n_segments: 0,
        stats: out.dataset.stats(),
        visit_hash,
        request_hash,
        abp: out.classification.abp,
        semi: out.classification.semi,
        stage2_rounds: out.classification.stage2_rounds,
        stage3_rounds: out.classification.stage3_rounds,
        tracker_ips: out.tracker_ips,
        completion: out.completion,
        ipmap_estimates: out.ipmap_estimates,
        maxmind_estimates: out.maxmind_estimates,
        ipapi_estimates: out.ipapi_estimates,
        eu28,
    }
}

#[test]
fn out_of_core_fold_matches_batch_pipeline() {
    let seed = 11u64;
    let plan = FaultPlan::none();
    let reference = batch_reference(tiny_config(seed).with_threads(1), &plan);

    let (scale, _) = run_scale(
        tiny_config(seed).with_threads(1),
        &plan,
        &ScaleConfig::in_memory(3),
        &KillSwitch::none(),
    )
    .expect("out-of-core run succeeds");

    // Component-wise first, for a readable failure...
    assert_eq!(scale.stats, reference.stats);
    assert_eq!(scale.visit_hash, reference.visit_hash, "visit digest drifted");
    assert_eq!(scale.request_hash, reference.request_hash, "request digest drifted");
    assert_eq!(scale.abp, reference.abp);
    assert_eq!(scale.semi, reference.semi);
    assert_eq!(scale.stage2_rounds, reference.stage2_rounds);
    assert_eq!(scale.stage3_rounds, reference.stage3_rounds);
    assert_eq!(scale.tracker_ips.weighted_ips(), reference.tracker_ips.weighted_ips());
    assert_eq!(scale.completion, reference.completion);
    assert_eq!(scale.ipmap_estimates, reference.ipmap_estimates);
    assert_eq!(scale.maxmind_estimates, reference.maxmind_estimates);
    assert_eq!(scale.ipapi_estimates, reference.ipapi_estimates);
    assert_eq!(scale.eu28.total, reference.eu28.total);
    assert_eq!(scale.eu28.counts, reference.eu28.counts);
    // ...then the single canonical digest (covers host sets and windows
    // inside the tracker records too).
    assert_eq!(scale.fingerprint(), reference.fingerprint());
}

#[test]
fn segment_knobs_are_invisible_in_fingerprint() {
    let seed = 11u64;
    for plan in [FaultPlan::none(), FaultPlan::aggressive(seed)] {
        let reference = batch_reference(tiny_config(seed).with_threads(1), &plan);
        let want = reference.fingerprint();
        let batch_report = {
            let mut world = World::build(tiny_config(seed).with_threads(1));
            let (_, mut r) = run_extension_pipeline_degraded(&mut world, &plan);
            r.timings = StageTimings::default();
            r
        };
        // n_users is 10, so 16 is a whole-stream segment.
        for segment_users in [1usize, 7, 16] {
            for threads in [1usize, 8] {
                let (out, report) = run_scale(
                    tiny_config(seed).with_threads(threads),
                    &plan,
                    &ScaleConfig::in_memory(segment_users),
                    &KillSwitch::none(),
                )
                .expect("matrix run succeeds");
                assert_eq!(
                    out.fingerprint(),
                    want,
                    "fingerprint drifted at segment {segment_users}, threads {threads}, \
                     plan {plan:?}"
                );
                // The degradation counters are knob-invariant too (report
                // equality pins them; timings were zeroed by run_scale).
                assert_eq!(report, batch_report, "report drifted at segment {segment_users}");
            }
        }
    }
}

/// Kill at every site of a durable run, resume on the same directory, and pin the fingerprint against the
/// uninterrupted run — mid-segment sites included (the blob write phases
/// fire *inside* a segment's commit).
#[test]
fn kill_anywhere_resume_matches_uninterrupted() {
    let seed = 11u64;
    let plan = FaultPlan::aggressive(seed);
    let reference = batch_reference(tiny_config(seed).with_threads(1), &plan);
    let want = reference.fingerprint();

    // Dry run to learn the kill-site count for this configuration.
    let probe = KillSwitch::none();
    let ckpt = tmp_dir("scale-sweep-dry");
    let scale_cfg = ScaleConfig::durable(3, &ckpt);
    let (out, _) = run_scale(tiny_config(seed), &plan, &scale_cfg, &probe)
        .expect("dry run succeeds");
    assert_eq!(out.fingerprint(), want, "un-killed durable run must match batch");
    let _ = fs::remove_dir_all(&ckpt);
    let n_sites = probe.sites_visited();
    assert!(n_sites > 20, "expected chunk+stage+write sites, saw {n_sites}");

    let mut site = 0u64;
    while site < n_sites {
        let ckpt = tmp_dir(&format!("scale-sweep-{site}"));
        let scale_cfg = ScaleConfig::durable(3, &ckpt);
        let kill = KillSwitch::at_site(site);
        match run_scale(tiny_config(seed), &plan, &scale_cfg, &kill) {
            Err(StreamError::Killed { .. }) => {}
            other => panic!("site {site}: expected a kill, got {other:?}"),
        }
        let (out, _) = run_scale(tiny_config(seed), &plan, &scale_cfg, &KillSwitch::none())
            .unwrap_or_else(|e| panic!("resume after kill at site {site} failed: {e}"));
        assert_eq!(
            out.fingerprint(),
            want,
            "fingerprint drifted after kill at site {site}"
        );
        let _ = fs::remove_dir_all(&ckpt);
        site += 2;
    }
}

/// `WorldConfig::large` worlds stream end to end without a segment store:
/// the no-op resident window creates no spill directory, and 100-user
/// segments land on the whole-world fingerprint.
#[test]
fn large_world_streams_without_a_segment_store() {
    let users = 600usize;
    let plan = FaultPlan::none();
    let mk = || WorldConfig::large(29, users).with_threads(1);

    let spill = tmp_dir("large-no-spill");
    let mut world = World::build(mk());
    let (segmented, _) = run_worldscale_pipeline(
        &mut world,
        &plan,
        &ScaleConfig::in_memory(100).with_resident_window(1, &spill),
        &KillSwitch::none(),
    )
    .expect("segmented run succeeds");
    assert!(!spill.exists(), "worldscale created a spill directory");
    assert_eq!(segmented.stats.n_users, users);
    assert_eq!(segmented.n_segments, 6);
    assert!(segmented.stats.n_third_party_requests > 0);

    let mut world = World::build(mk());
    let (whole, _) = run_worldscale_pipeline(
        &mut world,
        &plan,
        &ScaleConfig::in_memory(users),
        &KillSwitch::none(),
    )
    .expect("whole-world run succeeds");
    assert_eq!(whole.n_segments, 1);
    assert_eq!(segmented.fingerprint(), whole.fingerprint());
}
