//! Span-based structured tracing with job-scoped trace IDs.
//!
//! The model is deliberately small: a *trace ID* is a nonzero integer
//! below 2^53 carried in a thread-local; a *span* is a named interval
//! recorded when its guard drops; an *instant* is a zero-duration event.
//! Events land in a bounded per-thread ring buffer, so recording contends
//! only with the dump path (a `TraceDump` request), never with other
//! worker threads. When a ring fills, the oldest events are dropped —
//! tracing must never stall or grow the process. A thread that exits
//! bequeaths its remaining events to a shared orphan ring (same bound),
//! so the spans of short-lived threads such as connection handlers
//! survive until a dump reads them.
//!
//! Timestamps are microseconds since `UNIX_EPOCH`, not a process-local
//! `Instant`, so events recorded on a router and on a backend line up on
//! one timeline when the router sorts their trace dumps together.
//!
//! Propagation across threads and processes is explicit: capture
//! [`current_trace_id`] before spawning (or serialize it into a request
//! frame), then re-establish it on the other side with [`trace_scope`].

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Events kept per thread; the oldest are dropped when full.
pub const RING_CAPACITY: usize = 4096;

/// Most recent events returned by a single [`dump`] call.
pub const DUMP_LIMIT: usize = 16384;

/// One recorded event: a completed span or an instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Trace this event belongs to (0 = recorded outside any trace).
    pub trace_id: u64,
    /// Span or event name, e.g. `pass:mc` or `frame:malformed`.
    pub span: String,
    /// Microseconds since `UNIX_EPOCH` at span start.
    pub start_us: u64,
    /// Span duration in microseconds (0 for instants).
    pub dur_us: u64,
    /// Free-form detail, e.g. `rewrites=12 cuts=4096`.
    pub detail: String,
}

/// Microseconds since `UNIX_EPOCH` now.
pub fn epoch_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

struct Ring {
    events: Mutex<VecDeque<TraceEvent>>,
}

impl Ring {
    fn push(&self, ev: TraceEvent) {
        let mut events = self.events.lock().expect("trace ring poisoned");
        if events.len() == RING_CAPACITY {
            events.pop_front();
        }
        events.push_back(ev);
    }

    fn extend(&self, incoming: impl IntoIterator<Item = TraceEvent>) {
        let mut events = self.events.lock().expect("trace ring poisoned");
        for ev in incoming {
            if events.len() == RING_CAPACITY {
                events.pop_front();
            }
            events.push_back(ev);
        }
    }
}

fn rings() -> &'static Mutex<Vec<Weak<Ring>>> {
    static RINGS: OnceLock<Mutex<Vec<Weak<Ring>>>> = OnceLock::new();
    RINGS.get_or_init(Mutex::default)
}

/// Events inherited from exited threads. Connection handlers are
/// short-lived by design; without this, their spans would die with their
/// thread-local ring before any `TraceDump` could read them. Bounded like every ring — drop-oldest.
fn orphan_ring() -> &'static Ring {
    static ORPHANS: OnceLock<Ring> = OnceLock::new();
    ORPHANS.get_or_init(|| Ring {
        events: Mutex::new(VecDeque::new()),
    })
}

/// The thread-local ring plus its exit hook: when the owning thread
/// dies, whatever it recorded moves to the shared orphan ring.
struct LocalRing {
    ring: Arc<Ring>,
}

impl LocalRing {
    fn push(&self, ev: TraceEvent) {
        self.ring.push(ev);
    }
}

impl Drop for LocalRing {
    fn drop(&mut self) {
        let drained: Vec<TraceEvent> = {
            let mut events = self.ring.events.lock().expect("trace ring poisoned");
            events.drain(..).collect()
        };
        if !drained.is_empty() {
            orphan_ring().extend(drained);
        }
    }
}

thread_local! {
    static CURRENT_TRACE: Cell<u64> = const { Cell::new(0) };
    static LOCAL_RING: LocalRing = {
        let ring = Arc::new(Ring { events: Mutex::new(VecDeque::new()) });
        let mut all = rings().lock().expect("trace registry poisoned");
        // Reap rings of exited threads while we hold the lock anyway.
        all.retain(|w| w.strong_count() > 0);
        all.push(Arc::downgrade(&ring));
        LocalRing { ring }
    };
}

/// The trace ID active on this thread, or 0 if none.
pub fn current_trace_id() -> u64 {
    CURRENT_TRACE.with(|c| c.get())
}

/// A fresh nonzero trace ID below 2^53. Seeded from the wall clock and
/// process id, then sequential — unique enough to keep concurrent jobs
/// apart, with no coordination. The bound keeps an ID exact on the
/// wire, where JSON numbers are read as `f64`.
pub fn next_trace_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    const LIMIT: u64 = 1 << 53;
    static NEXT: OnceLock<AtomicU64> = OnceLock::new();
    let next = NEXT.get_or_init(|| {
        let seed = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(1)
            ^ ((std::process::id() as u64) << 32);
        AtomicU64::new(seed)
    });
    loop {
        let id = next.fetch_add(1, Ordering::Relaxed) % LIMIT;
        if id != 0 {
            return id;
        }
    }
}

/// Sets the thread's current trace ID for the guard's lifetime,
/// restoring the previous one on drop. Scopes nest.
pub struct TraceScope {
    prev: u64,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        CURRENT_TRACE.with(|c| c.set(self.prev));
    }
}

/// Establishes `trace_id` as this thread's current trace. Use at every
/// propagation boundary: worker threads and the server side of a frame
/// carrying a trace ID.
pub fn trace_scope(trace_id: u64) -> TraceScope {
    let prev = CURRENT_TRACE.with(|c| c.replace(trace_id));
    TraceScope { prev }
}

/// Times a named interval; the event is recorded when the guard drops.
/// Call [`SpanGuard::detail`] to attach detail discovered mid-span.
pub struct SpanGuard {
    span: &'static str,
    trace_id: u64,
    start_us: u64,
    started: Instant,
    detail: String,
}

impl SpanGuard {
    /// Replaces the span's detail string.
    pub fn detail(&mut self, detail: String) {
        self.detail = detail;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let ev = TraceEvent {
            trace_id: self.trace_id,
            span: self.span.to_string(),
            start_us: self.start_us,
            dur_us: self.started.elapsed().as_micros() as u64,
            detail: std::mem::take(&mut self.detail),
        };
        LOCAL_RING.with(|r| r.push(ev));
    }
}

/// Starts a span under the thread's current trace ID.
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard {
        span: name,
        trace_id: current_trace_id(),
        start_us: epoch_us(),
        started: Instant::now(),
        detail: String::new(),
    }
}

/// Records an already-timed span under the thread's current trace ID.
/// For call sites that measured the interval themselves (e.g. a pass
/// whose `elapsed` is part of its statistics) and only want the event.
pub fn record(name: &str, start_us: u64, dur_us: u64, detail: String) {
    let ev = TraceEvent {
        trace_id: current_trace_id(),
        span: name.to_string(),
        start_us,
        dur_us,
        detail,
    };
    LOCAL_RING.with(|r| r.push(ev));
}

/// Records a zero-duration event under the thread's current trace ID.
pub fn instant(name: &str, detail: String) {
    let ev = TraceEvent {
        trace_id: current_trace_id(),
        span: name.to_string(),
        start_us: epoch_us(),
        dur_us: 0,
        detail,
    };
    LOCAL_RING.with(|r| r.push(ev));
}

/// Snapshots events from every live thread's ring, optionally filtered
/// to one trace ID, sorted by start time. Capped at [`DUMP_LIMIT`] most
/// recent events.
pub fn dump(trace_id: Option<u64>) -> Vec<TraceEvent> {
    // Touch the local ring so the dumping thread's own events appear.
    LOCAL_RING.with(|_| {});
    let all: Vec<Arc<Ring>> = {
        let mut rings = rings().lock().expect("trace registry poisoned");
        rings.retain(|w| w.strong_count() > 0);
        rings.iter().filter_map(Weak::upgrade).collect()
    };
    let mut out = Vec::new();
    let orphans = orphan_ring();
    for events in all
        .iter()
        .map(|r| r.events.lock().expect("trace ring poisoned"))
        .chain(std::iter::once(
            // lint: allow(lock-order): distinct ring objects; the orphan ring is never registered
            orphans.events.lock().expect("trace ring poisoned"),
        ))
    {
        match trace_id {
            Some(id) => out.extend(events.iter().filter(|e| e.trace_id == id).cloned()),
            None => out.extend(events.iter().cloned()),
        }
    }
    out.sort_by_key(|e| (e.start_us, e.dur_us));
    if out.len() > DUMP_LIMIT {
        out.drain(..out.len() - DUMP_LIMIT);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_nest_and_restore() {
        assert_eq!(current_trace_id(), 0);
        {
            let _outer = trace_scope(7);
            assert_eq!(current_trace_id(), 7);
            {
                let _inner = trace_scope(9);
                assert_eq!(current_trace_id(), 9);
            }
            assert_eq!(current_trace_id(), 7);
        }
        assert_eq!(current_trace_id(), 0);
    }

    #[test]
    fn spans_and_instants_are_dumped_per_trace() {
        let id = next_trace_id();
        {
            let _scope = trace_scope(id);
            {
                let mut s = span("test:work");
                s.detail("items=3".to_string());
            }
            instant("test:tick", "n=1".to_string());
        }
        let events = dump(Some(id));
        assert_eq!(events.len(), 2);
        assert!(events
            .iter()
            .any(|e| e.span == "test:work" && e.detail == "items=3"));
        assert!(events
            .iter()
            .any(|e| e.span == "test:tick" && e.dur_us == 0));
        for e in &events {
            assert_eq!(e.trace_id, id);
        }
    }

    #[test]
    fn dump_sees_other_threads() {
        let id = next_trace_id();
        std::thread::spawn(move || {
            let _scope = trace_scope(id);
            instant("test:remote", String::new());
            // Keep the thread alive until the main thread dumps, so the
            // ring's weak pointer stays upgradable.
            std::thread::sleep(std::time::Duration::from_millis(200));
        });
        let deadline = Instant::now() + std::time::Duration::from_secs(2);
        loop {
            let events = dump(Some(id));
            if events.iter().any(|e| e.span == "test:remote") {
                break;
            }
            assert!(Instant::now() < deadline, "remote event never appeared");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }

    #[test]
    fn events_survive_their_thread() {
        let id = next_trace_id();
        std::thread::spawn(move || {
            let _scope = trace_scope(id);
            instant("test:dying-thread", String::new());
        })
        .join()
        .unwrap();
        // The recording thread is gone; its ring was drained into the
        // orphan ring, so the event must still be dumpable.
        let events = dump(Some(id));
        assert!(
            events.iter().any(|e| e.span == "test:dying-thread"),
            "event lost with its thread: {events:?}"
        );
    }

    #[test]
    fn ring_drops_oldest_when_full() {
        let id = next_trace_id();
        let _scope = trace_scope(id);
        for i in 0..(RING_CAPACITY + 10) {
            instant("test:flood", format!("i={i}"));
        }
        let events = dump(Some(id));
        assert!(events.len() <= RING_CAPACITY);
        assert!(
            !events.iter().any(|e| e.detail == "i=0"),
            "oldest event should have been evicted"
        );
        assert!(events
            .iter()
            .any(|e| e.detail == format!("i={}", RING_CAPACITY + 9)));
    }

    #[test]
    fn trace_ids_are_nonzero_and_distinct() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
        assert!(a < 1 << 53 && b < 1 << 53, "{a} or {b} is not exact as f64");
    }
}
