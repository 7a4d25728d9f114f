//! The traced run's instruments: an in-memory span recorder around the
//! benchmark's own calls into the simulator, a counting allocator that
//! only counts while a traced rep has switched it on, and `/proc`
//! memory readings.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use simnet::{SimDuration, SimTime};
use telemetry::export::{chrome_trace_json, RunTrace};
use telemetry::TraceEvent;

use crate::stats::Interval;

/// Whether allocations are being counted (only during traced reps).
static COUNTING: AtomicBool = AtomicBool::new(false);
/// Allocations (including reallocations) counted so far.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus one relaxed flag load per call; counts
/// allocations while [`set_counting`] has switched counting on.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are relaxed
// statistics that publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[inline]
fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Switches allocation counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`), or 0 where
/// the file is unavailable.
pub fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Name, parent and host-time bounds.
    pub iv: Interval,
    /// Allocations counted while the span was open.
    pub allocs: u64,
    /// Extra attributes shown in the trace viewer.
    pub args: Vec<(&'static str, u64)>,
}

/// Records spans in memory; every call is a no-op while paused, so
/// untraced reps record nothing.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    paused: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder that starts paused unless `on`.
    pub fn new(on: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            paused: !on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Pauses or resumes recording.
    pub fn set_paused(&mut self, paused: bool) {
        self.paused = paused;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if self.paused {
            return None;
        }
        let start = self.now_ns();
        self.spans.push(Span {
            iv: Interval {
                name,
                parent: self.open.last().copied(),
                start,
                end: start,
            },
            allocs: allocations(),
            args: Vec::new(),
        });
        self.open.push(self.spans.len() - 1);
        Some(self.spans.len() - 1)
    }

    /// Closes the span `id` returned by [`Recorder::open`] (and any span
    /// opened inside it and left open), attaching `args`.
    pub fn close(&mut self, id: Option<usize>, args: &[(&'static str, u64)]) {
        let Some(id) = id else { return };
        let end = self.now_ns();
        let allocs = allocations();
        while let Some(top) = self.open.pop() {
            let s = &mut self.spans[top];
            s.iv.end = end;
            s.allocs = allocs - s.allocs;
            if top == id {
                s.args.extend_from_slice(args);
                break;
            }
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a Chrome-trace JSON document (loadable in Perfetto),
    /// host nanoseconds since the recorder started on the time axis.
    pub fn chrome_trace(&self, label: &str) -> String {
        let events = self
            .spans
            .iter()
            .map(|s| {
                let mut ev = TraceEvent::span(
                    s.iv.name,
                    "perfbench",
                    0,
                    SimTime::from_nanos(s.iv.start),
                    SimDuration::from_nanos(s.iv.end - s.iv.start),
                )
                .arg_u64("allocs", s.allocs);
                for &(k, v) in &s.args {
                    ev = ev.arg_u64(k, v);
                }
                ev
            })
            .collect();
        chrome_trace_json(&[RunTrace {
            label: label.to_string(),
            threads: vec![(0, "perfbench".to_string())],
            events,
            metrics: Default::default(),
        }])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paused_recorder_records_nothing_and_nesting_follows_open_order() {
        let mut r = Recorder::new(true);
        let a = r.open("rep");
        let b = r.open("setup");
        r.close(b, &[("events", 3)]);
        r.set_paused(true);
        assert_eq!(r.open("ignored"), None);
        r.close(None, &[]);
        r.set_paused(false);
        r.close(a, &[]);
        let s = r.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].iv.parent, Some(0));
        assert_eq!(s[1].args, vec![("events", 3)]);
        assert!(s[0].iv.end >= s[1].iv.end);
        let doc = telemetry::json::parse(&r.chrome_trace("t")).expect("valid JSON");
        assert_eq!(
            doc.get("traceEvents")
                .and_then(|e| e.as_array())
                .map(<[_]>::len),
            Some(4)
        );
    }

    #[test]
    fn status_fields_parse() {
        let rss = status_kb("VmRSS");
        assert!(rss > 0);
        assert!(status_kb("VmHWM") >= rss);
        assert_eq!(status_kb("NoSuchField"), 0);
    }
}
