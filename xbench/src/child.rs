//! The body of one sample process.

use crate::probe::{self, mib, Interval};
use crate::rebuild;
use crate::report::{median, Sample};
use crate::workloads::{self, Spec, THREADS};
use serde_json::Value;
use std::path::Path;

/// Where traced samples leave their span lists.
pub const SPANS_DIR: &str = ".xbench_out";

fn write_spans(path: &Path, run: &rebuild::TracedRun) -> std::io::Result<()> {
    let spans = run
        .tracer
        .spans()
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("layer".to_string(), Value::Str(s.layer.to_string())),
                ("op".to_string(), Value::Str(s.op.to_string())),
                ("wall_ns".to_string(), Value::U64(s.wall_ns)),
                ("cpu_ns".to_string(), Value::U64(s.cpu_ns)),
                ("wait_ns".to_string(), Value::U64(s.wait_ns)),
                ("allocs".to_string(), Value::U64(s.allocs)),
                ("alloc_bytes".to_string(), Value::U64(s.alloc_bytes)),
                ("live_peak_bytes".to_string(), Value::I64(s.live_peak_bytes)),
                ("read_bytes".to_string(), Value::U64(s.read_bytes)),
                ("write_bytes".to_string(), Value::U64(s.write_bytes)),
            ])
        })
        .collect();
    std::fs::create_dir_all(SPANS_DIR)?;
    std::fs::write(
        path,
        serde_json::to_string_pretty(&Value::Array(spans)).unwrap_or_default(),
    )
}

/// Runs one sample in `mode` (`reference`, `measure` or `trace`) with
/// `scratch` as its private directory, removed before returning.
pub fn run(mode: &str, spec: &Spec, scratch: &Path) -> Sample {
    let sample = match mode {
        "reference" => {
            let out = workloads::reference(spec, scratch);
            Sample {
                digest: out.digest,
                values: Default::default(),
            }
        }
        "measure" => measure(spec, scratch),
        "trace" => traced(spec, scratch),
        other => panic!("unknown sample mode {other:?}"),
    };
    let _ = std::fs::remove_dir_all(scratch);
    sample
}

/// Set-ups are repeated within a sample until they add up to this many
/// seconds, and `setup_s` is their median: a 10 ms set-up timed once is
/// mostly noise, while a 0.7 s one is timed once.
const SETUP_MIN_TOTAL_S: f64 = 0.25;

/// Untraced sample: set-up, then the workload through the public pipeline
/// APIs, digest included.
pub fn measure(spec: &Spec, scratch: &Path) -> Sample {
    let mut setups = Vec::new();
    let mut world = loop {
        let iv = Interval::start();
        let world = workloads::setup(spec, THREADS, scratch);
        setups.push(iv.stop().wall_s);
        if setups.iter().sum::<f64>() >= SETUP_MIN_TOTAL_S {
            break world;
        }
    };
    let iv = Interval::start();
    let out = workloads::run_pipeline(spec, &mut world, scratch);
    let run = iv.stop();
    let mut s = Sample {
        digest: out.digest,
        values: Default::default(),
    };
    for (k, v) in [
        ("setup_s", median(&setups)),
        ("wall_s", run.wall_s),
        ("cpu_s", run.cpu_s),
        ("io_write_mib", mib(run.write_bytes as f64)),
        ("io_read_mib", mib(run.read_bytes as f64)),
        ("peak_rss_mib", probe::vm_hwm_kib() as f64 / 1024.0),
        ("users", out.users as f64),
        ("requests", out.requests as f64),
    ] {
        s.values.insert(k.to_string(), v);
    }
    s
}

/// Traced sample: the rebuilt workload with a span around every layer
/// call; `wall_s` covers the same interval as the untraced sample's. The
/// spans, kept in memory during the run, are written to
/// [`SPANS_DIR`]`/<workload>-<seed>.json` once it ends.
pub fn traced(spec: &Spec, scratch: &Path) -> Sample {
    let run = rebuild::run_traced(spec, scratch);
    let spans = Path::new(SPANS_DIR).join(format!("{}-{}.json", spec.workload.name(), spec.seed));
    if let Err(e) = write_spans(&spans, &run) {
        eprintln!("# could not write {}: {e}", spans.display());
    }
    let mut s = Sample {
        digest: run.output.digest,
        values: rebuild::layer_metrics(&run),
    };
    s.values.insert("wall_s".to_string(), run.wall_s);
    s
}
