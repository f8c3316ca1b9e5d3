//! The benchmark's own tests, on tiny configs: `small(11)` for
//! `paper-repro` and `stream-durable`, `large(11, 2_000)` for
//! `worldscale-spill` (world seed 11, run seed 11).

use std::path::PathBuf;
use std::process::Command;
use xbench::rebuild;
use xbench::report::{E2E_JSON, END_TO_END, OVERHEAD_PCT, PER_LAYER};
use xbench::workloads::{self, Size, Spec, Workload, THREADS};

fn spec(workload: Workload) -> Spec {
    Spec {
        workload,
        seed: 11,
        size: Size::Tiny,
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    workloads::fresh_dir(&dir);
    dir
}

fn pipeline_digest(spec: &Spec, dir: &std::path::Path) -> u64 {
    let mut world = workloads::setup(spec, THREADS, dir);
    workloads::run_pipeline(spec, &mut world, dir).digest
}

#[test]
fn digest_is_stable_and_matches_reference() {
    for w in Workload::ALL {
        let s = spec(w);
        let dir = scratch(&format!("stable-{}", w.name()));
        let a = pipeline_digest(&s, &dir);
        let b = pipeline_digest(&s, &dir);
        assert_eq!(a, b, "{}: digest differs between two runs", w.name());
        let reference = workloads::reference(&s, &dir).digest;
        assert_eq!(
            a,
            reference,
            "{}: digest differs from its reference",
            w.name()
        );
    }
}

#[test]
fn traced_rebuild_equals_pipeline() {
    for w in Workload::ALL {
        let s = spec(w);
        let dir = scratch(&format!("rebuild-{}", w.name()));
        let pipeline = pipeline_digest(&s, &dir);
        let run = rebuild::run_traced(&s, &dir);
        assert_eq!(
            run.output.digest,
            pipeline,
            "{}: rebuild differs from pipeline",
            w.name()
        );
        let metrics = rebuild::layer_metrics(&run);
        for (name, _) in PER_LAYER.iter().filter(|(n, _)| !n.starts_with("process.")) {
            let v = metrics
                .get(*name)
                .unwrap_or_else(|| panic!("{}: no {name}", w.name()));
            assert!(
                v.is_finite() && *v >= 0.0 || *name == "trace.unattributed_ms",
                "{name} = {v}"
            );
        }
        assert!(metrics["browser.requests"] > 0.0 && metrics["classify.requests"] > 0.0);
    }
}

fn run_command(workload: Workload, trace: bool) -> serde_json::Value {
    let dir = scratch(&format!("cmd-{}-{}", workload.name(), trace as u8));
    let out = Command::new(env!("CARGO_BIN_EXE_xbench"))
        .current_dir(&dir)
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "11",
            "--seconds",
            "0",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", "tiny"])
        .output()
        .expect("run xbench");
    assert!(out.status.success(), "xbench exited with {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    for (name, unit) in END_TO_END {
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(name) && l.contains(&format!(" {unit} "))),
            "{name} [{unit}] missing from the table:\n{stdout}"
        );
    }
    assert!(!dir.join(".xbench_scratch").exists(), "scratch left behind");
    serde_json::from_str(stdout.lines().last().expect("result line")).expect("result JSON")
}

fn metric<'a>(result: &'a serde_json::Value, name: &str) -> (f64, &'a str) {
    let m = result
        .get("metrics")
        .and_then(|m| m.get(name))
        .unwrap_or_else(|| panic!("metric {name} missing"));
    let value = match m.get("value") {
        Some(serde_json::Value::F64(v)) => *v,
        other => panic!("{name} value {other:?}"),
    };
    (value, m.get("unit").and_then(|u| u.as_str()).expect("unit"))
}

#[test]
fn command_emits_every_metric_with_its_unit() {
    for w in Workload::ALL {
        let r = run_command(w, false);
        assert_eq!(
            r.get("correct"),
            Some(&serde_json::Value::Bool(true)),
            "{}",
            w.name()
        );
        assert_eq!(r.get("failed").and_then(|v| v.as_u64()), Some(0));
        for name in E2E_JSON {
            let unit = END_TO_END.iter().find(|(n, _)| *n == name).unwrap().1;
            let (v, u) = metric(&r, name);
            assert_eq!(u, unit);
            assert!(v > 0.0, "{}: {name} = {v}", w.name());
        }
        let r = run_command(w, true);
        assert_eq!(
            r.get("correct"),
            Some(&serde_json::Value::Bool(true)),
            "{}",
            w.name()
        );
        for (name, unit) in PER_LAYER.iter().chain([&OVERHEAD_PCT]) {
            assert_eq!(metric(&r, name).1, *unit, "{name}");
        }
    }
}
