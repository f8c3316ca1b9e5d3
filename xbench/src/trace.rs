//! The span recorder of the traced run. Spans are recorded from the
//! benchmark's own code, around calls into each layer's public API; they
//! are kept in memory and turned into per-layer metrics once the run
//! ends. A disabled tracer just calls the closure, so the untraced run
//! shares the same code path at no cost.

use crate::probe::{self, mib};
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer (crate) the call belongs to.
    pub layer: &'static str,
    /// Operation within the layer.
    pub op: &'static str,
    /// Wall-clock nanoseconds.
    pub wall_ns: u64,
    /// Process on-CPU nanoseconds (worker threads included).
    pub cpu_ns: u64,
    /// Run-queue wait of the calling thread, nanoseconds.
    pub wait_ns: u64,
    /// Allocation calls.
    pub allocs: u64,
    /// Bytes allocated.
    pub alloc_bytes: u64,
    /// Live-bytes high-water mark during the span.
    pub live_peak_bytes: i64,
    /// Bytes read through syscalls.
    pub read_bytes: u64,
    /// Bytes written through syscalls.
    pub write_bytes: u64,
}

/// Readings taken when a span opens.
#[derive(Debug, Clone, Copy)]
pub struct SpanStart {
    wait_ns: u64,
    alloc: probe::AllocSnapshot,
    interval: probe::Interval,
}

/// Records spans and named counters.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::default()
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            enabled: true,
            ..Tracer::default()
        }
    }

    /// Runs `f` as one call into `layer`, recording a span when enabled.
    pub fn span<T>(&mut self, layer: &'static str, op: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.begin();
        let out = f();
        self.end(start, layer, op);
        out
    }

    /// Opens a span by hand, for calls whose result borrows from the
    /// callee; close it with [`Tracer::end`].
    pub fn begin(&self) -> Option<SpanStart> {
        self.enabled.then(|| {
            let wait_ns = probe::thread_wait_ns();
            let alloc = probe::alloc_snapshot();
            probe::reset_live_peak();
            SpanStart {
                wait_ns,
                alloc,
                interval: probe::Interval::start(),
            }
        })
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, start: Option<SpanStart>, layer: &'static str, op: &'static str) {
        let Some(start) = start else { return };
        let r = start.interval.stop();
        let a1 = probe::alloc_snapshot();
        self.spans.push(Span {
            layer,
            op,
            wall_ns: (r.wall_s * 1e9) as u64,
            cpu_ns: (r.cpu_s * 1e9) as u64,
            wait_ns: probe::thread_wait_ns().saturating_sub(start.wait_ns),
            allocs: a1.allocs - start.alloc.allocs,
            alloc_bytes: a1.bytes - start.alloc.bytes,
            live_peak_bytes: probe::live_peak(),
            read_bytes: r.read_bytes,
            write_bytes: r.write_bytes,
        });
    }

    /// Adds `v` to a named counter (kept even when spans are off, since
    /// counters cost nothing).
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counters.entry(name).or_insert(0.0) += v;
    }

    /// Raises a named counter to at least `v`.
    pub fn count_max(&mut self, name: &'static str, v: f64) {
        let c = self.counters.entry(name).or_insert(0.0);
        *c = c.max(v);
    }

    /// A counter's value (0 when never set).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Recorded spans, in call order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total wall milliseconds of the spans of `layer` (and of `op`, when
    /// given).
    pub fn wall_ms(&self, layer: &str, op: Option<&str>) -> f64 {
        self.select(layer, op)
            .fold(0.0, |acc, s| acc + s.wall_ns as f64)
            / 1e6
    }

    fn select<'a>(&'a self, layer: &'a str, op: Option<&'a str>) -> impl Iterator<Item = &'a Span> {
        self.spans
            .iter()
            .filter(move |s| s.layer == layer && op.is_none_or(|o| s.op == o))
    }

    /// Summary of every span of one layer.
    pub fn layer(&self, layer: &str) -> LayerTotals {
        let mut t = LayerTotals::default();
        for s in self.select(layer, None) {
            t.wall_ms += s.wall_ns as f64 / 1e6;
            t.cpu_ms += s.cpu_ns as f64 / 1e6;
            t.wait_ms += s.wait_ns as f64 / 1e6;
            t.allocs += s.allocs as f64;
            t.alloc_mib += mib(s.alloc_bytes as f64);
            t.live_peak_mib = t.live_peak_mib.max(mib(s.live_peak_bytes as f64));
            t.read_mib += mib(s.read_bytes as f64);
            t.write_mib += mib(s.write_bytes as f64);
        }
        t
    }

    /// Wall milliseconds covered by all spans.
    pub fn attributed_ms(&self) -> f64 {
        self.spans.iter().fold(0.0, |acc, s| acc + s.wall_ns as f64) / 1e6
    }
}

/// Per-layer sums over spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Wall ms.
    pub wall_ms: f64,
    /// Process on-CPU ms.
    pub cpu_ms: f64,
    /// Calling-thread run-queue wait ms.
    pub wait_ms: f64,
    /// Allocation calls.
    pub allocs: f64,
    /// MiB allocated.
    pub alloc_mib: f64,
    /// Highest live-bytes mark in any span, MiB.
    pub live_peak_mib: f64,
    /// MiB read.
    pub read_mib: f64,
    /// MiB written.
    pub write_mib: f64,
}

/// Times a closure on worker threads, where the tracer cannot go: returns
/// its value and wall seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}
