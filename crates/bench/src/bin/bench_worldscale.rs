//! Worldscale bench: the out-of-core segmented driver at population scales
//! the batch pipeline cannot hold resident, written to
//! `BENCH_worldscale.json` (run from the repo root; see ci.sh).
//!
//! Sweeps users 10⁴/10⁵/10⁶ (capped by `XBORDER_WORLDSCALE_MAX_USERS` for
//! CI smoke runs) × segment sizes, and records wall time, users/sec, the
//! requests and segments ingested, the output fingerprint, and the process
//! high-water mark (`VmHWM`). Two guards make a fast-but-wrong or
//! fast-but-bloated run impossible to report:
//!
//! 1. at every scale the two segment sizes must land on the same
//!    [`ScaleOutputs::fingerprint`] (the knob-invariance contract of
//!    DESIGN.md §5j at bench scale), and
//! 2. the process `VmHWM` after each run must stay under a fixed ceiling
//!    for its scale. The doc is written either way, so a miss is recorded
//!    before the bench exits non-zero.
//!
//! [`ScaleOutputs::fingerprint`]: xborder::worldscale::ScaleOutputs::fingerprint

use std::time::Instant;
use xborder::worldscale::{run_worldscale_pipeline, ScaleConfig};
use xborder::{Parallelism, World, WorldConfig};
use xborder_faults::{FaultPlan, KillSwitch};

const MIB: u64 = 1024 * 1024;

/// `VmHWM` (peak resident set size) from `/proc/self/status`, in bytes.
/// Monotone over the process lifetime, so scales are run smallest-first
/// and each run reports the mark reached *by the end of* that run.
fn vm_hwm_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// The process high-water ceiling at each scale. The classifier's interned
/// URL state still grows with the world, so the ceiling scales too
/// (DESIGN.md §5j); it only ever tightens.
fn vm_hwm_ceiling_bytes(users: usize) -> u64 {
    match users {
        0..=10_000 => 768 * MIB,
        10_001..=100_000 => 2560 * MIB,
        _ => 13 * 1024 * MIB,
    }
}

fn main() {
    let n_threads = Parallelism::from_env().threads;
    let cap: usize = std::env::var("XBORDER_WORLDSCALE_MAX_USERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(usize::MAX);
    let scales: Vec<usize> = [10_000usize, 100_000, 1_000_000]
        .into_iter()
        .filter(|&s| s <= cap)
        .collect();
    assert!(
        !scales.is_empty(),
        "XBORDER_WORLDSCALE_MAX_USERS below the smallest scale (1e4)"
    );
    let seed = 0x5CA1Eu64;
    let plan = FaultPlan::none();

    let mut runs: Vec<serde_json::Value> = Vec::new();
    let mut over_ceiling: Vec<String> = Vec::new();
    let mut headline_users_per_sec = 0.0f64;
    for &users in &scales {
        let mut fingerprints: Vec<u64> = Vec::new();
        for &segment_users in &[5_000usize, 20_000] {
            let t = Instant::now();
            let mut world = World::build(WorldConfig::large(seed, users));
            let build_ms = t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let (out, _) = run_worldscale_pipeline(
                &mut world,
                &plan,
                &ScaleConfig::in_memory(segment_users),
                &KillSwitch::none(),
            )
            .expect("worldscale bench run succeeds");
            let run_ms = t.elapsed().as_secs_f64() * 1e3;
            assert_eq!(out.stats.n_users, users, "driver lost users");
            let fingerprint = out.fingerprint();
            fingerprints.push(fingerprint);
            let users_per_sec = users as f64 / (run_ms / 1e3).max(f64::MIN_POSITIVE);
            let hwm = vm_hwm_bytes();
            let ceiling = vm_hwm_ceiling_bytes(users);
            match hwm {
                Some(b) if b <= ceiling => {}
                _ => over_ceiling.push(format!(
                    "{users} users, segment {segment_users}: VmHWM {hwm:?} B, ceiling {ceiling} B"
                )),
            }
            println!(
                "{users} users, segment {segment_users}: {run_ms:.0} ms (+{build_ms:.0} ms world \
                 build; {users_per_sec:.2e} users/s, {} requests, {} segments, fingerprint \
                 {fingerprint:016x}, VmHWM {:.0} MiB of {} MiB)",
                out.stats.n_third_party_requests,
                out.n_segments,
                hwm.unwrap_or(0) as f64 / MIB as f64,
                ceiling / MIB,
            );
            if users == *scales.last().unwrap() && segment_users == 20_000 {
                headline_users_per_sec = users_per_sec;
            }
            runs.push(serde_json::json!({
                "users": users,
                "segment_users": segment_users,
                "build_ms": build_ms,
                "run_ms": run_ms,
                "users_per_sec": users_per_sec,
                "requests": out.stats.n_third_party_requests,
                "segments": out.n_segments,
                "fingerprint": format!("{fingerprint:016x}"),
                "vm_hwm_bytes": hwm,
                "vm_hwm_ceiling_bytes": ceiling,
            }));
        }
        assert!(
            fingerprints.windows(2).all(|w| w[0] == w[1]),
            "segment size changed the fingerprint at {users} users: {fingerprints:?}"
        );
    }

    let doc = serde_json::json!({
        "bench": "worldscale",
        "threads_available": n_threads,
        "worldscale_users_per_sec": headline_users_per_sec,
        "runs": runs,
    });
    let out = "BENCH_worldscale.json";
    let doc = match serde_json::to_string_pretty(&doc) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("bench_worldscale: FAIL — bench doc does not serialize: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = std::fs::write(out, doc) {
        eprintln!("bench_worldscale: FAIL — cannot write {out}: {e}");
        std::process::exit(1);
    }
    println!(
        "wrote {out} ({headline_users_per_sec:.2e} users/s headline at {} users / \
         segment 20000; {n_threads} threads available)",
        scales.last().unwrap()
    );
    if !over_ceiling.is_empty() {
        eprintln!(
            "bench_worldscale: FAIL — process high-water over its ceiling:\n  {}",
            over_ceiling.join("\n  ")
        );
        std::process::exit(1);
    }
}
