//! Measurement plumbing owned by the benchmark: a counting allocator,
//! process CPU time and peak memory from `getrusage`, order statistics,
//! and the in-memory span recorder behind the traced run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus a process-wide count of allocations (fresh
/// allocations and reallocations; frees are not counted).
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a plain
// statistic and publishes no memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations made by the whole process so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// Linux `struct rusage` on 64-bit targets: two timevals, then 14 longs
/// of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// What `getrusage(RUSAGE_SELF)` reports for this process.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User plus system CPU time of every thread.
    pub cpu: Duration,
    /// Peak resident set size, MiB.
    pub peak_rss_mb: f64,
}

/// Reads the process's resource usage.
///
/// # Panics
///
/// Panics if the kernel rejects the call, which it does only for an
/// invalid `who` argument.
pub fn usage() -> Usage {
    let mut ru = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        _rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable struct laid out like the C
    // `struct rusage` of 64-bit Linux, which the kernel fills in.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let tv = |t: &Timeval| Duration::new(t.tv_sec as u64, t.tv_usec as u32 * 1_000);
    Usage {
        cpu: tv(&ru.ru_utime) + tv(&ru.ru_stime),
        peak_rss_mb: ru.ru_maxrss as f64 / 1024.0,
    }
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics (`q = 0.5` is the median). `NaN` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// One recorded span: a named interval with its parent and trace id.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

/// In-memory span recorder around the benchmark's calls into each layer.
/// Disabled (recording nothing) in untraced runs. Spans are kept until
/// the run ends and then written out with [`Tracer::to_jsonl`].
pub struct Tracer {
    enabled: bool,
    trace_id: u64,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, trace_id: u64) -> Self {
        Tracer {
            enabled,
            trace_id,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its id (`None` when disabled).
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start,
            end,
        });
        Some(self.spans.len() - 1)
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn time<T>(&mut self, name: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, start, Instant::now());
        out
    }

    /// Ends an open span (recorded with its start as its end) now, so it
    /// covers the children recorded since.
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(span) = id.and_then(|i| self.spans.get_mut(i)) {
            span.end = Instant::now();
        }
    }

    /// A span's duration minus the part of it its children cover.
    pub fn self_time(&self, id: usize) -> Duration {
        let span = &self.spans[id];
        let mut kids: Vec<(Instant, Instant)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start.max(span.start), s.end.min(span.end)))
            .filter(|(a, b)| a < b)
            .collect();
        kids.sort();
        let mut covered = Duration::ZERO;
        let mut cursor = span.start;
        for (a, b) in kids {
            let a = a.max(cursor);
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        (span.end - span.start).saturating_sub(covered)
    }

    /// Every span as one JSON object per line, times in ns since the
    /// tracer was created.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"span\":{i},\"trace\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                self.trace_id,
                sp.name,
                sp.start.saturating_duration_since(self.origin).as_nanos(),
                sp.end.saturating_duration_since(self.origin).as_nanos(),
                self.self_time(i).as_nanos()
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, 1);
        let o = Instant::now();
        let ms = Duration::from_millis;
        let root = t.record("root", None, o, o + ms(10));
        t.record("a", root, o + ms(1), o + ms(4));
        t.record("b", root, o + ms(3), o + ms(6));
        assert_eq!(t.self_time(root.unwrap()), ms(5));
        assert!(Tracer::new(false, 1).record("x", None, o, o).is_none());
    }

    #[test]
    fn usage_reports_memory_and_cpu() {
        let u = usage();
        assert!(u.peak_rss_mb > 0.0);
        let before = allocations();
        let v: Vec<u8> = Vec::with_capacity(64);
        std::hint::black_box(&v);
        assert!(allocations() > before);
    }
}
