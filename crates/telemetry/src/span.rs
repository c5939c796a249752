//! Span tracing: RAII begin/end records and instant events captured into
//! per-thread buffers.
//!
//! Recording is gated by a process-wide runtime toggle ([`set_enabled`]);
//! when off, [`span`] costs one relaxed atomic load and returns an inert
//! guard (the name is not even materialized). When on, each span costs two
//! `Instant` reads and one `Vec` push under an uncontended per-thread lock.
//!
//! Timestamps are nanoseconds since a process-wide epoch (first telemetry
//! use), so events from different threads and logical ranks share one
//! timeline — exactly what the Chrome exporter needs.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

fn collector() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static COLLECTOR: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    COLLECTOR.get_or_init(|| Mutex::new(Vec::new()))
}

/// Turn span/instant recording on or off process-wide. Off by default.
pub fn set_enabled(on: bool) {
    if on {
        // Pin the epoch before any event can be recorded.
        let _ = EPOCH.get_or_init(Instant::now);
    }
    ENABLED.store(on, Ordering::Release);
}

/// Whether recording is currently on.
#[inline]
pub(crate) fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the process-wide telemetry epoch.
pub(crate) fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One recorded event. `dur_ns: Some(_)` is a complete span (begin + end);
/// `None` is an instant event.
#[derive(Debug, Clone)]
pub struct EventRec {
    /// Telemetry thread id of the recording thread (dense, 0-based).
    pub(crate) tid: u32,
    /// Logical rank the event belongs to, if attributed.
    pub(crate) rank: Option<u32>,
    /// Category (`"task"`, `"sched"`, `"comm"`, ...).
    pub(crate) cat: &'static str,
    /// Event name.
    pub(crate) name: String,
    /// Start time, ns since the telemetry epoch.
    pub(crate) t0_ns: u64,
    /// Duration in ns, or `None` for instant events.
    pub(crate) dur_ns: Option<u64>,
    /// Up to two numeric arguments attached to the event.
    pub(crate) args: [Option<(&'static str, u64)>; 2],
}

struct ThreadBuf {
    tid: u32,
    name: Mutex<String>,
    events: Mutex<Vec<EventRec>>,
}

thread_local! {
    static LOCAL: Arc<ThreadBuf> = {
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        let name = std::thread::current()
            .name()
            .map(str::to_owned)
            .unwrap_or_else(|| format!("thread-{tid}"));
        let buf = Arc::new(ThreadBuf {
            tid,
            name: Mutex::new(name),
            events: Mutex::new(Vec::new()),
        });
        collector().lock().push(buf.clone());
        buf
    };
}

fn push(ev: EventRec) {
    LOCAL.with(|b| b.events.lock().push(ev));
}

/// Name the calling thread in exported traces (overrides the OS thread
/// name captured at first use).
pub fn name_current_thread(name: impl Into<String>) {
    LOCAL.with(|b| *b.name.lock() = name.into());
}

/// RAII span: records a begin timestamp now and a complete event (with
/// duration) when dropped. Inert when recording is disabled.
#[must_use = "a span measures the scope it is bound to; dropping it immediately records nothing useful"]
pub struct SpanGuard {
    live: Option<LiveSpan>,
}

struct LiveSpan {
    rank: Option<u32>,
    cat: &'static str,
    name: String,
    t0_ns: u64,
    args: [Option<(&'static str, u64)>; 2],
}

impl SpanGuard {
    /// Attach a numeric argument (kept if one of the two slots is free).
    pub fn arg(mut self, key: &'static str, val: u64) -> Self {
        if let Some(live) = &mut self.live {
            if let Some(slot) = live.args.iter_mut().find(|s| s.is_none()) {
                *slot = Some((key, val));
            }
        }
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            let dur = now_ns().saturating_sub(live.t0_ns);
            push(EventRec {
                tid: LOCAL.with(|b| b.tid),
                rank: live.rank,
                cat: live.cat,
                name: live.name,
                t0_ns: live.t0_ns,
                dur_ns: Some(dur),
                args: live.args,
            });
        }
    }
}

fn span_impl(rank: Option<u32>, cat: &'static str, name: impl Into<String>) -> SpanGuard {
    if !enabled() {
        return SpanGuard { live: None };
    }
    SpanGuard {
        live: Some(LiveSpan {
            rank,
            cat,
            name: name.into(),
            t0_ns: now_ns(),
            args: [None, None],
        }),
    }
}

/// Open a span on the current thread with no rank attribution.
pub fn span(cat: &'static str, name: impl Into<String>) -> SpanGuard {
    span_impl(None, cat, name)
}

/// Open a span attributed to logical rank `rank`.
pub fn span_for_rank(rank: usize, cat: &'static str, name: impl Into<String>) -> SpanGuard {
    span_impl(Some(rank as u32), cat, name)
}

/// Record an instant event (a point on the timeline, e.g. a wire transfer).
/// No-op when recording is disabled.
pub fn instant(
    rank: Option<u32>,
    cat: &'static str,
    name: impl Into<String>,
    args: &[(&'static str, u64)],
) {
    if !enabled() {
        return;
    }
    let mut slots = [None, None];
    for (slot, &a) in slots.iter_mut().zip(args.iter()) {
        *slot = Some(a);
    }
    push(EventRec {
        tid: LOCAL.with(|b| b.tid),
        rank,
        cat,
        name: name.into(),
        t0_ns: now_ns(),
        dur_ns: None,
        args: slots,
    });
}

/// Remove and return every buffered event, across all threads that ever
/// recorded one (including threads that have since exited).
pub fn drain_events() -> Vec<EventRec> {
    let bufs = collector().lock();
    let mut out = Vec::new();
    for buf in bufs.iter() {
        out.append(&mut buf.events.lock());
    }
    out
}

/// `(tid, name)` for every thread that ever touched the span layer.
pub fn thread_names() -> Vec<(u32, String)> {
    let bufs = collector().lock();
    let mut out: Vec<(u32, String)> = bufs
        .iter()
        .map(|b| (b.tid, b.name.lock().clone()))
        .collect();
    out.sort_by_key(|(tid, _)| *tid);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The enable toggle and the collector are process-global, so the span
    // tests share one #[test] body to avoid cross-test interference under
    // the parallel test runner.
    #[test]
    fn spans_instants_and_draining() {
        set_enabled(false);
        {
            let _g = span("t", "invisible");
        }
        instant(None, "t", "invisible", &[]);
        // Disabled events record nothing from this thread.
        assert!(drain_events().iter().all(|e| e.cat != "t"));

        set_enabled(true);
        name_current_thread("span-test");
        {
            let _g = span_for_rank(3, "t", "work").arg("bytes", 128);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        instant(Some(1), "t", "ping", &[("k", 7)]);

        let h = std::thread::Builder::new()
            .name("span-test-worker".into())
            .spawn(|| {
                let _g = span("t", "child");
            })
            .unwrap();
        h.join().unwrap();
        set_enabled(false);

        let evs: Vec<EventRec> = drain_events()
            .into_iter()
            .filter(|e| e.cat == "t")
            .collect();
        assert_eq!(evs.len(), 3);

        let work = evs.iter().find(|e| e.name == "work").unwrap();
        assert_eq!(work.rank, Some(3));
        assert!(work.dur_ns.unwrap() >= 1_000_000);
        assert_eq!(work.args[0], Some(("bytes", 128)));

        let ping = evs.iter().find(|e| e.name == "ping").unwrap();
        assert!(ping.dur_ns.is_none());
        assert_eq!(ping.args[0], Some(("k", 7)));

        let child = evs.iter().find(|e| e.name == "child").unwrap();
        assert_ne!(child.tid, work.tid);

        let names = thread_names();
        assert!(names.iter().any(|(_, n)| n == "span-test"));
        assert!(names.iter().any(|(_, n)| n == "span-test-worker"));

        // Drained means gone.
        assert!(drain_events().iter().all(|e| e.cat != "t"));
    }
}
