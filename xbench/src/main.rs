//! `xbench`: end-to-end and per-layer benchmark of the xborder pipelines.
//!
//! ```text
//! xbench --workload <paper-repro|stream-durable|worldscale-spill>
//!        [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each run computes a reference digest in its own process, then starts
//! one process per sample until `--seconds` have passed. With
//! `--trace 0` every sample runs the workload through the public pipeline
//! APIs and the end-to-end metrics are printed; with `--trace 1` untraced
//! samples alternate with traced rebuilds and the per-layer metrics are
//! printed. The last line of standard output is one JSON object. See
//! README.md in this directory.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;
use xbench::probe;
use xbench::report::{self, Sample};
use xbench::workloads::{Size, Spec, Workload, DEFAULT_SEED};

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

struct Args {
    spec: Spec,
    seconds: f64,
    trace: bool,
    child: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: xbench --workload <paper-repro|stream-durable|worldscale-spill> \
         [--seed N] [--seconds S] [--trace 0|1] [--size bench|tiny]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut size = Size::Bench;
    let mut child = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value()).unwrap_or_else(|| usage())),
            "--seed" => seed = Some(value().parse().unwrap_or_else(|_| usage())),
            "--seconds" => seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--size" => {
                size = match value().as_str() {
                    "bench" => Size::Bench,
                    "tiny" => Size::Tiny,
                    _ => usage(),
                }
            }
            "--child" => child = Some(value()),
            _ => usage(),
        }
    }
    let workload = workload.unwrap_or_else(|| usage());
    Args {
        spec: Spec {
            workload,
            seed: seed.unwrap_or(DEFAULT_SEED),
            size,
        },
        seconds,
        trace,
        child,
    }
}

fn main() {
    let args = parse_args();
    if let Some(mode) = &args.child {
        if mode == "trace" {
            probe::enable_alloc_counting();
        }
        let scratch = scratch_root().join(format!("{}-{}", mode, std::process::id()));
        let sample = xbench::child::run(mode, &args.spec, &scratch);
        println!(
            "{}",
            serde_json::to_string(&sample.to_value()).expect("sample JSON")
        );
        return;
    }
    run_parent(&args);
}

/// Scratch space for checkpoints and spill files, inside the working
/// directory.
fn scratch_root() -> PathBuf {
    PathBuf::from(".xbench_scratch")
}

/// Runs this binary as a child in one mode and parses its sample; `None`
/// when it failed.
fn spawn_child(mode: &str, args: &Args) -> Option<Sample> {
    let exe = std::env::current_exe().expect("own executable path");
    let size = match args.spec.size {
        Size::Bench => "bench",
        Size::Tiny => "tiny",
    };
    let output = Command::new(exe)
        .args(["--child", mode, "--workload", args.spec.workload.name()])
        .args(["--seed", &args.spec.seed.to_string(), "--size", size])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    if !output.status.success() {
        eprintln!("# {mode} sample failed: {}", output.status);
        return None;
    }
    let text = String::from_utf8_lossy(&output.stdout);
    Sample::parse(text.lines().last()?)
}

fn run_parent(args: &Args) {
    let ctx = report::MachineContext::capture();
    let psi0 = report::Pressure::now();
    let t0 = Instant::now();

    let reference = spawn_child("reference", args);
    let ref_digest = reference.as_ref().map(|s| s.digest);
    let mut untraced: Vec<Sample> = Vec::new();
    let mut traced: Vec<Sample> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let measure_start = Instant::now();
    loop {
        let modes: &[&str] = if args.trace {
            &["measure", "trace"]
        } else {
            &["measure"]
        };
        for mode in modes {
            attempted += 1;
            match spawn_child(mode, args) {
                Some(s) if Some(s.digest) == ref_digest => {
                    if *mode == "trace" {
                        traced.push(s)
                    } else {
                        untraced.push(s)
                    }
                }
                Some(s) => {
                    eprintln!(
                        "# {mode} sample digest {:016x} differs from reference {:?}",
                        s.digest,
                        ref_digest.map(|d| format!("{d:016x}"))
                    );
                    failed += 1;
                }
                None => failed += 1,
            }
        }
        let enough = untraced.len() >= report::MIN_SAMPLES || failed > 0;
        if measure_start.elapsed().as_secs_f64() >= args.seconds && enough {
            break;
        }
    }
    let psi = report::Pressure::now().since(&psi0);
    let _ = std::fs::remove_dir_all(scratch_root());

    let correct = reference.is_some() && failed == 0;
    let mut metrics: BTreeMap<String, (f64, &'static str)> = BTreeMap::new();
    let label = format!(
        "workload={} seed={} seconds={} trace={}",
        args.spec.workload.name(),
        args.spec.seed,
        args.seconds,
        args.trace as u8
    );
    report::print_context(&ctx, &psi, &label, t0.elapsed().as_secs_f64());
    let e2e = report::end_to_end(&untraced, attempted, failed);
    report::print_table("end-to-end (untraced)", &e2e);
    if args.trace {
        let layers = report::per_layer(&traced, &untraced);
        report::print_table("per-layer (traced rebuild)", &layers);
        for m in layers {
            metrics.insert(m.name, (m.median, m.unit));
        }
    } else {
        for m in e2e
            .into_iter()
            .filter(|m| report::E2E_JSON.contains(&m.name.as_str()))
        {
            metrics.insert(m.name, (m.median, m.unit));
        }
    }
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
}
