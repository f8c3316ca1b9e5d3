//! Samples, their summary statistics, machine context, and the printed
//! result.

use crate::probe;
use serde_json::Value;
use std::collections::BTreeMap;

/// Fewest untraced samples a run takes, whatever `--seconds` says.
pub const MIN_SAMPLES: usize = 3;

/// End-to-end metrics, in print order, with their units.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("users_per_s", "1/s"),
    ("requests_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("io_write_mib", "MiB"),
    ("io_read_mib", "MiB"),
    ("failed_ratio", "ratio"),
];

/// The end-to-end metrics of the JSON result line: every one that is
/// never 0. IO volumes are 0 on `paper-repro` and `failed_ratio` is 0 on
/// a correct build, so they are printed in the table but carried in the
/// JSON by the traced run (`process.io_*_mib`) and by `failed`.
pub const E2E_JSON: [&str; 6] = [
    "setup_s",
    "wall_s",
    "cpu_s",
    "users_per_s",
    "requests_per_s",
    "peak_rss_mib",
];

/// Per-layer metrics of the traced run, with their units.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("worldgen.wall_ms", "ms"),
    ("worldgen.cpu_ms", "ms"),
    ("worldgen.allocs", "count"),
    ("worldgen.live_peak_mib", "MiB"),
    ("browser.wall_ms", "ms"),
    ("browser.cpu_ms", "ms"),
    ("browser.wait_ms", "ms"),
    ("browser.allocs", "count"),
    ("browser.alloc_mib", "MiB"),
    ("browser.live_peak_mib", "MiB"),
    ("browser.users", "count"),
    ("browser.requests", "count"),
    ("browser.visits", "count"),
    ("dns.cache_hit_ratio", "ratio"),
    ("dns.attempts", "count"),
    ("classify.wall_ms", "ms"),
    ("classify.cpu_ms", "ms"),
    ("classify.wait_ms", "ms"),
    ("classify.allocs", "count"),
    ("classify.live_peak_mib", "MiB"),
    ("classify.requests", "count"),
    ("classify.tracking_requests", "count"),
    ("classify.stage2_rounds", "count"),
    ("classify.stage3_rounds", "count"),
    ("ips.wall_ms", "ms"),
    ("ips.tracker_ips", "count"),
    ("ips.pdns_added", "count"),
    ("geoloc.wall_ms", "ms"),
    ("geoloc.cpu_ms", "ms"),
    ("geoloc.lookups", "count"),
    ("geoloc.assign_cache_hit_ratio", "ratio"),
    ("geoloc.index_probe_visits", "count"),
    ("segment.wall_ms", "ms"),
    ("segment.push_ms", "ms"),
    ("segment.get_ms", "ms"),
    ("segment.spilled", "count"),
    ("segment.reloaded", "count"),
    ("segment.peak_resident_mib", "MiB"),
    ("segment.io_write_mib", "MiB"),
    ("segment.io_read_mib", "MiB"),
    ("checkpoint.encode_ms", "ms"),
    ("checkpoint.append_ms", "ms"),
    ("checkpoint.chunks", "count"),
    ("checkpoint.bytes_mib", "MiB"),
    ("netflow.generate_ms", "ms"),
    ("netflow.match_ms", "ms"),
    ("netflow.records", "count"),
    ("netflow.records_per_s", "1/s"),
    ("netflow.match_ratio", "ratio"),
    ("analyses.whatif_ms", "ms"),
    ("analyses.confine_ms", "ms"),
    ("analyses.collab_ms", "ms"),
    ("analyses.other_ms", "ms"),
    ("digest.wall_ms", "ms"),
    ("process.io_write_mib", "MiB"),
    ("process.io_read_mib", "MiB"),
    ("trace.unattributed_ms", "ms"),
];

/// `trace.overhead_pct` is computed across samples, not per sample.
pub const OVERHEAD_PCT: (&str, &str) = ("trace.overhead_pct", "%");

/// What one child process measured: the output digest plus named values.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Output digest.
    pub digest: u64,
    /// Named measurements.
    pub values: BTreeMap<String, f64>,
}

impl Sample {
    /// The sample as one JSON object (the digest as hex, since JSON
    /// numbers are doubles).
    pub fn to_value(&self) -> Value {
        let mut entries = vec![(
            "digest".to_string(),
            Value::Str(format!("{:016x}", self.digest)),
        )];
        entries.extend(self.values.iter().map(|(k, v)| (k.clone(), Value::F64(*v))));
        Value::Object(entries)
    }

    /// Parses [`Sample::to_value`] output.
    pub fn parse(line: &str) -> Option<Sample> {
        let v: Value = serde_json::from_str(line).ok()?;
        let Value::Object(entries) = v else {
            return None;
        };
        let mut s = Sample::default();
        for (k, v) in entries {
            match (k.as_str(), v) {
                ("digest", Value::Str(hex)) => s.digest = u64::from_str_radix(&hex, 16).ok()?,
                (_, Value::F64(f)) => {
                    s.values.insert(k, f);
                }
                (_, Value::U64(u)) => {
                    s.values.insert(k, u as f64);
                }
                (_, Value::I64(i)) => {
                    s.values.insert(k, i as f64);
                }
                _ => return None,
            }
        }
        Some(s)
    }

    /// A named value (0 when absent).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// One summarized metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Median over samples.
    pub median: f64,
    /// Highest percentile with at least ten samples beyond it, and its
    /// value; `None` below eleven samples.
    pub tail: Option<(u32, f64)>,
    /// Samples.
    pub n: usize,
}

/// Median of `values` (mean of the middle two for even counts); 0 for
/// none.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest whole percentile `p` with at least ten samples above it,
/// with its nearest-rank value.
pub fn tail_percentile(values: &[f64]) -> Option<(u32, f64)> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let p = (100 * (n - 10) / n) as u32;
    let rank = ((p as usize * n).div_ceil(100)).clamp(1, n);
    Some((p, v[rank - 1]))
}

fn summarize(name: &str, unit: &'static str, values: &[f64]) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        median: median(values),
        tail: tail_percentile(values),
        n: values.len(),
    }
}

/// End-to-end metrics over untraced samples.
pub fn end_to_end(samples: &[Sample], attempted: u64, failed: u64) -> Vec<Metric> {
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let values: Vec<f64> = match name {
                "users_per_s" => samples
                    .iter()
                    .map(|s| s.get("users") / s.get("wall_s"))
                    .collect(),
                "requests_per_s" => samples
                    .iter()
                    .map(|s| s.get("requests") / s.get("wall_s"))
                    .collect(),
                "failed_ratio" => vec![failed as f64 / attempted.max(1) as f64],
                _ => samples.iter().map(|s| s.get(name)).collect(),
            };
            summarize(name, unit, &values)
        })
        .collect()
}

/// Per-layer metrics over traced samples, plus the tracing overhead
/// against the untraced samples of the same run.
pub fn per_layer(traced: &[Sample], untraced: &[Sample]) -> Vec<Metric> {
    let mut out: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let values: Vec<f64> = match name {
                "process.io_write_mib" => untraced.iter().map(|s| s.get("io_write_mib")).collect(),
                "process.io_read_mib" => untraced.iter().map(|s| s.get("io_read_mib")).collect(),
                _ => traced.iter().map(|s| s.get(name)).collect(),
            };
            summarize(name, unit, &values)
        })
        .collect();
    let wall = |s: &[Sample]| median(&s.iter().map(|x| x.get("wall_s")).collect::<Vec<_>>());
    let overhead = (wall(traced) / wall(untraced) - 1.0) * 100.0;
    out.push(Metric {
        name: OVERHEAD_PCT.0.to_string(),
        unit: OVERHEAD_PCT.1,
        median: if overhead.is_finite() { overhead } else { 0.0 },
        tail: None,
        n: traced.len().min(untraced.len()),
    });
    out
}

/// Host facts that let a swing be blamed on the code or on the host.
#[derive(Debug, Clone)]
pub struct MachineContext {
    /// Online CPUs.
    pub nproc: usize,
    /// One-minute load average at start.
    pub loadavg_1m: Option<f64>,
    /// Source revision, when the tree is a git checkout.
    pub git_rev: String,
    /// Compiler version.
    pub rustc: String,
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

impl MachineContext {
    /// Reads the context now.
    pub fn capture() -> MachineContext {
        MachineContext {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            loadavg_1m: probe::loadavg_1m(),
            git_rev: command_line("git", &["rev-parse", "--short=12", "HEAD"]),
            rustc: command_line("rustc", &["-V"]),
        }
    }
}

/// Cumulative PSI "some" stall readings.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pressure {
    /// CPU stall, microseconds.
    pub cpu_us: Option<u64>,
    /// IO stall, microseconds.
    pub io_us: Option<u64>,
}

impl Pressure {
    /// Reads PSI now.
    pub fn now() -> Pressure {
        Pressure {
            cpu_us: probe::psi_some_us("cpu"),
            io_us: probe::psi_some_us("io"),
        }
    }

    /// Stall accumulated since `earlier`.
    pub fn since(&self, earlier: &Pressure) -> Pressure {
        let d = |a: Option<u64>, b: Option<u64>| Some(a?.saturating_sub(b?));
        Pressure {
            cpu_us: d(self.cpu_us, earlier.cpu_us),
            io_us: d(self.io_us, earlier.io_us),
        }
    }
}

fn opt<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map_or_else(|| "n/a".to_string(), |v| v.to_string())
}

/// Prints the machine context of a run.
pub fn print_context(ctx: &MachineContext, psi: &Pressure, run: &str, elapsed_s: f64) {
    println!("# xbench {run}");
    println!(
        "# nproc={} threads={} loadavg_1m={} git={} rustc=\"{}\"",
        ctx.nproc,
        crate::workloads::THREADS,
        opt(ctx.loadavg_1m),
        ctx.git_rev,
        ctx.rustc
    );
    println!(
        "# psi_some_stall_ms cpu={} io={} over {:.1} s",
        opt(psi.cpu_us.map(|u| u as f64 / 1e3)),
        opt(psi.io_us.map(|u| u as f64 / 1e3)),
        elapsed_s
    );
}

/// Prints a metric table: median, tail percentile, sample count, unit.
pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("# {title}");
    for m in metrics {
        let tail = m
            .tail
            .map_or_else(|| "p--: n/a".to_string(), |(p, v)| format!("p{p}: {v:.6}"));
        println!(
            "{:<32} median {:>16.6} {:<6} {tail}  n={}",
            m.name, m.median, m.unit, m.n
        );
    }
}

/// The final JSON line.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &BTreeMap<String, (f64, &'static str)>,
) -> String {
    let metrics = Value::Object(
        metrics
            .iter()
            .map(|(name, (value, unit))| {
                (
                    name.clone(),
                    Value::Object(vec![
                        ("value".to_string(), Value::F64(*value)),
                        ("unit".to_string(), Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    );
    let doc = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::U64(attempted)),
        ("failed".to_string(), Value::U64(failed)),
        ("metrics".to_string(), metrics),
    ]);
    serde_json::to_string(&doc).expect("result JSON")
}
