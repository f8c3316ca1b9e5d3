//! Process and thread measurements: clocks, `/proc` readers, and the
//! counting allocator that gives the traced run its allocation and
//! live-byte figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

/// Global allocator that counts allocations, allocated bytes and live
/// bytes (frees included) once [`enable_alloc_counting`] has been called.
/// Untraced runs never enable it, so they pay one relaxed load per call.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static LIVE_PEAK: AtomicI64 = AtomicI64::new(0);

fn on_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    LIVE_PEAK.fetch_max(live, Ordering::Relaxed);
}

fn on_free(size: usize) {
    LIVE.fetch_sub(size as i64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only read `Layout`
// sizes and never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            on_alloc(layout.size());
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            on_alloc(layout.size());
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            on_free(layout.size());
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            on_free(layout.size());
            on_alloc(new_size);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Starts counting. Call first thing in a traced process: live bytes are
/// only meaningful for memory allocated after this point.
pub fn enable_alloc_counting() {
    COUNTING.store(true, Ordering::Relaxed);
}

/// Allocation counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocSnapshot {
    /// Allocation calls so far.
    pub allocs: u64,
    /// Bytes requested so far.
    pub bytes: u64,
}

/// Reads the allocation counters.
pub fn alloc_snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: ALLOC_BYTES.load(Ordering::Relaxed),
    }
}

/// Restarts the live-bytes high-water mark at the current live bytes.
pub fn reset_live_peak() {
    LIVE_PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Live-bytes high-water mark since the last [`reset_live_peak`].
pub fn live_peak() -> i64 {
    LIVE_PEAK.load(Ordering::Relaxed)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// On-CPU time of the whole process (all threads, exited ones included),
/// in nanoseconds. The same quantity as `utime + stime` in
/// `/proc/self/stat`, at nanosecond rather than clock-tick resolution.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Run-queue wait of the calling thread in nanoseconds (second field of
/// `/proc/thread-self/schedstat`); 0 where schedstats are unavailable.
pub fn thread_wait_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0)
}

/// `rchar` / `wchar` from `/proc/self/io`: bytes the process read and
/// wrote through syscalls, page cache included.
#[derive(Debug, Clone, Copy, Default)]
pub struct IoSnapshot {
    /// Bytes read.
    pub rchar: u64,
    /// Bytes written.
    pub wchar: u64,
}

/// Reads `/proc/self/io`.
pub fn io_snapshot() -> IoSnapshot {
    let text = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    let field = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
            .unwrap_or(0)
    };
    IoSnapshot {
        rchar: field("rchar:"),
        wchar: field("wchar:"),
    }
}

/// Peak resident set size of this process (`VmHWM`), in KiB.
pub fn vm_hwm_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0)
}

/// Cumulative "some" stall time in microseconds from
/// `/proc/pressure/{cpu,io}`; `None` where PSI is unavailable.
pub fn psi_some_us(resource: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/pressure/{resource}")).ok()?;
    let line = text.lines().find(|l| l.starts_with("some"))?;
    line.split_whitespace()
        .find_map(|f| f.strip_prefix("total=")?.parse().ok())
}

/// One-minute load average; `None` where unavailable.
pub fn loadavg_1m() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Wall, process-CPU and IO readings taken together at the start of an
/// interval.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    t: Instant,
    cpu_ns: u64,
    io: IoSnapshot,
}

/// What an [`Interval`] measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntervalReading {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Process on-CPU seconds.
    pub cpu_s: f64,
    /// Bytes read (`rchar` delta).
    pub read_bytes: u64,
    /// Bytes written (`wchar` delta).
    pub write_bytes: u64,
}

impl Interval {
    /// Starts measuring.
    pub fn start() -> Interval {
        Interval {
            io: io_snapshot(),
            cpu_ns: process_cpu_ns(),
            t: Instant::now(),
        }
    }

    /// Stops measuring.
    pub fn stop(&self) -> IntervalReading {
        let wall_s = self.t.elapsed().as_secs_f64();
        let cpu_ns = process_cpu_ns();
        let io = io_snapshot();
        IntervalReading {
            wall_s,
            cpu_s: cpu_ns.saturating_sub(self.cpu_ns) as f64 / 1e9,
            read_bytes: io.rchar.saturating_sub(self.io.rchar),
            write_bytes: io.wchar.saturating_sub(self.io.wchar),
        }
    }
}

/// Bytes → MiB.
pub fn mib(bytes: f64) -> f64 {
    bytes / (1024.0 * 1024.0)
}
