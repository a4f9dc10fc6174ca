//! # pgmp-observe — tracing, metrics, and decision provenance
//!
//! The engine makes layered, profile-driven decisions: which `case` arm
//! goes first, which forms the incremental cache re-expands, when the
//! adaptive loop swaps a program. This crate makes those decisions
//! observable without slowing down the paths that don't care:
//!
//! - a process-global **event bus** ([`start`], [`emit`], [`stop`]) whose
//!   disabled fast path is a single relaxed atomic load ([`enabled`]) —
//!   bench E15 holds the every-expression interpreter loop to ≤ 1%
//!   overhead with tracing off;
//! - **typed events** ([`TraceEvent`], [`EventKind`]) covering every
//!   layer: per-form expansion spans, Figure-4 `profile-query` calls,
//!   incremental cache hit/miss (with the invalidation *reason*),
//!   adaptive epochs and swap latency, engine/VM run spans, and
//!   persistence byte counts — plus [`EventKind::Decision`], the
//!   optimization-decision provenance each profile-guided macro records
//!   ("this arm went first because its weight was 0.93");
//! - an in-memory **ring buffer** drained to a **JSONL sink** written
//!   with the workspace's [`write_atomic`] discipline (schema pinned at
//!   [`SCHEMA_VERSION`], see `docs/OBSERVABILITY.md`);
//! - a **metrics registry** ([`metrics`]) of counters, gauges, and
//!   log2-bucket histograms, fed automatically from emitted events and
//!   directly by boundary code (the adaptive epoch loop), exported as a
//!   JSON snapshot via `pgmp-run --metrics`;
//! - a strict/lenient **trace reader** ([`read_trace`],
//!   [`read_trace_lenient`]) with typed errors — corrupt traces never
//!   panic — backing the `pgmp-trace` CLI (`summary`, `decisions`,
//!   `explain`, `compare`).
//!
//! ## Example
//!
//! ```
//! use pgmp_observe as observe;
//! let _guard = observe::exclusive(); // serialize bus access across tests
//! observe::start(observe::TraceConfig::default()).unwrap();
//! observe::emit(observe::EventKind::CacheHit { form: 3 });
//! let events = observe::stop();
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].kind, observe::EventKind::CacheHit { form: 3 });
//! ```

mod event;
mod explain;
pub mod expose;
pub mod json;
pub mod merge;
mod metrics;
mod reader;
mod sink;
mod stream;

pub use event::{
    DecisionAlt, DecodeError, EventKind, TraceEvent, MIN_SCHEMA_VERSION, SCHEMA_VERSION,
};
pub use explain::{explain_query, matches_query};
pub use expose::{render_prometheus, MetricsServer};
pub use merge::{collapse_stacks, dedupe_events, merge_traces, MergeError, Merged};
pub use metrics::{metrics, Histogram, MetricsSnapshot, Registry};
pub use reader::{parse_trace, parse_trace_lenient, read_trace, read_trace_lenient, TraceError};
pub use sink::{to_jsonl, write_atomic, write_trace};
pub use stream::{BoundedWriter, WriterStats};

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// The one flag every instrumentation site checks before doing any work.
/// Relaxed is sufficient: recording start/stop does not need to order
/// against event payload reads, only to eventually flip the gate.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Span-id allocator: process-global and monotone, so span ids stay
/// unique across recordings. Cross-process uniqueness comes from
/// qualifying with [`instance_id`] — `(inst, span)` is the global key.
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// Bumped by every recording start so a span stack left over from a
/// previous recording (a `timer` whose `finish` never ran) can't become
/// the parent of events in the next one.
static RECORDING_EPOCH: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Open span ids on this thread, innermost last, tagged with the
    /// recording epoch they belong to.
    static SPAN_STACK: RefCell<(u64, Vec<u64>)> = const { RefCell::new((0, Vec::new())) };
}

fn with_span_stack<R>(f: impl FnOnce(&mut Vec<u64>) -> R) -> R {
    let epoch = RECORDING_EPOCH.load(Ordering::Relaxed);
    SPAN_STACK.with(|s| {
        let mut st = s.borrow_mut();
        if st.0 != epoch {
            st.0 = epoch;
            st.1.clear();
        }
        f(&mut st.1)
    })
}

/// This process's stable instance id: nonzero, unique-enough across a
/// fleet (48 bits of pid × start-time hash, so it also survives an f64
/// metrics-gauge round-trip exactly), and constant for the process
/// lifetime. Stamped on every emitted event and exchanged on the fleet
/// wire, it is the join key that lets `pgmp-trace merge` correlate
/// traces from different processes. Set `PGMP_INSTANCE_ID` (a nonzero
/// integer) to pin it for deterministic tests.
pub fn instance_id() -> u64 {
    static INSTANCE: OnceLock<u64> = OnceLock::new();
    *INSTANCE.get_or_init(|| {
        if let Some(id) = std::env::var("PGMP_INSTANCE_ID")
            .ok()
            .and_then(|s| s.trim().parse::<u64>().ok())
            .filter(|&id| id != 0)
        {
            return id;
        }
        let pid = std::process::id() as u64;
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        // splitmix64 finalizer over (pid, wall nanos), truncated to 48
        // bits so the id is exactly representable as an f64 gauge.
        let mut x = pid.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ t;
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x & 0xFFFF_FFFF_FFFF).max(1)
    })
}

struct Recording {
    start: Instant,
    next_seq: u64,
    ring: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    /// When set, events stream to this writer as they are emitted (the
    /// ring stays empty); `None` is the classic buffer-then-write mode.
    stream: Option<BoundedWriter>,
    /// Events accepted by the stream writer.
    streamed: u64,
}

fn bus() -> &'static Mutex<Option<Recording>> {
    static BUS: OnceLock<Mutex<Option<Recording>>> = OnceLock::new();
    BUS.get_or_init(|| Mutex::new(None))
}

fn lock_bus() -> MutexGuard<'static, Option<Recording>> {
    bus()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Configuration for one recording.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Ring-buffer capacity in events; once full, the oldest events are
    /// dropped (and counted — `summary` reports the gap).
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig { capacity: 1 << 16 }
    }
}

/// Starting a recording failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObserveError {
    /// A recording is already active; stop it first. The bus is
    /// process-global, so two concurrent tenants would interleave.
    AlreadyRecording,
    /// The streaming sink could not be opened.
    Io(String),
}

impl std::fmt::Display for ObserveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObserveError::AlreadyRecording => f.write_str("a trace recording is already active"),
            ObserveError::Io(e) => write!(f, "trace sink i/o error: {e}"),
        }
    }
}

impl std::error::Error for ObserveError {}

/// True while a recording is active. This is the disabled-path cost of
/// every instrumentation site: one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Begins a recording. Fails if one is already active.
pub fn start(config: TraceConfig) -> Result<(), ObserveError> {
    start_with(config, None)
}

/// Begins a recording that streams events to `path` as they are emitted,
/// through a [`BoundedWriter`] thread bounded at `config.capacity`
/// in-flight events — constant memory however long the recording runs,
/// where [`start`] buffers the whole ring and writes at [`stop`]. When
/// the writer thread falls behind, events are dropped and counted
/// ([`dropped`]), never allowed to block the emitting thread. The sink
/// file is written incrementally (no [`write_atomic`] rename): a crash
/// leaves a valid prefix, which the lenient reader accepts.
pub fn start_streaming(
    path: impl AsRef<std::path::Path>,
    config: TraceConfig,
) -> Result<(), ObserveError> {
    let file = std::fs::File::create(path.as_ref()).map_err(|e| ObserveError::Io(e.to_string()))?;
    let writer = BoundedWriter::spawn(std::io::BufWriter::new(file), config.capacity.max(1));
    start_with(config, Some(writer))
}

fn start_with(config: TraceConfig, stream: Option<BoundedWriter>) -> Result<(), ObserveError> {
    let mut g = lock_bus();
    if g.is_some() {
        return Err(ObserveError::AlreadyRecording);
    }
    RECORDING_EPOCH.fetch_add(1, Ordering::Relaxed);
    let ring_capacity = if stream.is_some() {
        0
    } else {
        config.capacity.min(1 << 20)
    };
    *g = Some(Recording {
        start: Instant::now(),
        next_seq: 0,
        ring: VecDeque::with_capacity(ring_capacity),
        capacity: config.capacity.max(1),
        dropped: 0,
        stream,
        streamed: 0,
    });
    ENABLED.store(true, Ordering::Relaxed);
    Ok(())
}

/// Records one point event (no-op when no recording is active). The bus
/// stamps the sequence number, relative timestamp, [`instance_id`], and
/// the enclosing span (the top of this thread's span stack) as `parent`,
/// appends to the ring buffer, and mirrors the event into the metrics
/// registry (`events.<type>` counter; `span.<type>_us` histogram for
/// spans).
pub fn emit(kind: EventKind) {
    if !enabled() {
        return;
    }
    let parent = with_span_stack(|s| s.last().copied());
    emit_spanned(None, parent, kind);
}

fn emit_spanned(span: Option<u64>, parent: Option<u64>, kind: EventKind) {
    if !enabled() {
        return;
    }
    let reg = metrics();
    reg.counter_add(&format!("events.{}", kind.type_tag()), 1);
    if let Some(us) = kind.duration_us() {
        reg.record(&format!("span.{}_us", kind.type_tag()), us);
    }
    let mut g = lock_bus();
    let Some(rec) = g.as_mut() else { return };
    let ev = TraceEvent {
        seq: rec.next_seq,
        t_us: rec.start.elapsed().as_micros() as u64,
        inst: instance_id(),
        span,
        parent,
        kind,
    };
    rec.next_seq += 1;
    if let Some(w) = &rec.stream {
        let mut line = ev.to_json_line().into_bytes();
        line.push(b'\n');
        // The writer counts rejected buffers itself; `dropped()` folds
        // its count in, so every emit lands in exactly one tally.
        if w.try_write(line) {
            rec.streamed += 1;
        }
        return;
    }
    if rec.ring.len() == rec.capacity {
        rec.ring.pop_front();
        rec.dropped += 1;
    }
    rec.ring.push_back(ev);
}

/// An open span: the clock started by [`timer`] plus the span id pushed
/// onto this thread's span stack. Close it with [`finish`], on the same
/// thread, to emit the span event with its `span`/`parent` links.
#[derive(Debug)]
pub struct SpanTimer {
    start: Instant,
    id: u64,
}

impl SpanTimer {
    /// The bus-assigned span id (stamped as `span` on the close event
    /// and as `parent` on everything emitted inside the span).
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Opens a span: `Some(SpanTimer)` while recording, `None` (free)
/// otherwise. The span id goes onto this thread's span stack, so events
/// emitted before the matching [`finish`] — including nested spans —
/// record it as their `parent`. Pair with [`finish`]; a span that is
/// never finished is simply absent from the trace (its children then
/// name a parent id no event carries, which readers treat as a root).
#[inline]
pub fn timer() -> Option<SpanTimer> {
    if !enabled() {
        return None;
    }
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    with_span_stack(|s| s.push(id));
    Some(SpanTimer {
        start: Instant::now(),
        id,
    })
}

/// Closes a span started with [`timer`]: pops it off the span stack
/// (discarding any nested spans that never finished), builds the event
/// from the elapsed microseconds, and emits it with `span` = its id and
/// `parent` = the enclosing span. Free when the timer was `None`.
pub fn finish(timer: Option<SpanTimer>, make: impl FnOnce(u64) -> EventKind) {
    let Some(t) = timer else { return };
    let duration_us = t.start.elapsed().as_micros() as u64;
    let parent = with_span_stack(|s| {
        if let Some(pos) = s.iter().rposition(|&id| id == t.id) {
            s.truncate(pos);
        }
        s.last().copied()
    });
    emit_spanned(Some(t.id), parent, make(duration_us));
}

/// Events dropped so far in the active recording — by the ring buffer
/// (buffered mode) or by the bounded stream writer (streaming mode).
pub fn dropped() -> u64 {
    lock_bus().as_ref().map_or(0, |r| {
        r.dropped + r.stream.as_ref().map_or(0, BoundedWriter::dropped)
    })
}

/// Ends the recording and returns every buffered event (oldest first).
/// Returns an empty vec when no recording was active. For a streaming
/// recording this closes the sink (best-effort) and returns an empty
/// vec — use [`stop_streaming`] to observe the sink accounting.
pub fn stop() -> Vec<TraceEvent> {
    ENABLED.store(false, Ordering::Relaxed);
    let mut g = lock_bus();
    g.take().map_or_else(Vec::new, |mut r| {
        if let Some(w) = r.stream.take() {
            let _ = w.close();
        }
        r.ring.into()
    })
}

/// Accounting of one streaming recording, returned by [`stop_streaming`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamSummary {
    /// Events accepted by the writer and durably written.
    pub events: u64,
    /// Bytes written to the sink.
    pub bytes: u64,
    /// Events dropped because the writer thread was behind.
    pub dropped: u64,
}

/// Ends a streaming recording started with [`start_streaming`]: closes
/// the sink, joins the writer thread, and returns the exact accounting.
/// Also accepts a buffered recording (`events`/`bytes` are then 0) so
/// callers need not track which mode they started.
pub fn stop_streaming() -> std::io::Result<StreamSummary> {
    ENABLED.store(false, Ordering::Relaxed);
    let rec = lock_bus().take();
    let Some(mut rec) = rec else {
        return Ok(StreamSummary::default());
    };
    let Some(w) = rec.stream.take() else {
        return Ok(StreamSummary {
            events: 0,
            bytes: 0,
            dropped: rec.dropped,
        });
    };
    let stats = w.close()?;
    Ok(StreamSummary {
        events: stats.written,
        bytes: stats.bytes,
        dropped: rec.dropped + stats.dropped,
    })
}

/// Ends the recording and writes the events to `path` as JSONL via
/// [`write_atomic`]. Returns `(event_count, bytes_written)`.
pub fn stop_and_write(path: impl AsRef<std::path::Path>) -> std::io::Result<(usize, u64)> {
    let events = stop();
    let bytes = write_trace(path, &events)?;
    Ok((events.len(), bytes))
}

/// Serializes tenants of the process-global bus. Tests (and any driver
/// embedding several engines) hold this guard around
/// [`start`]`..`[`stop`] so parallel test threads don't interleave
/// recordings. Poisoning is ignored: a panicking test must not take the
/// whole suite down with it.
pub fn exclusive() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest() {
        let _g = exclusive();
        start(TraceConfig { capacity: 2 }).unwrap();
        emit(EventKind::CacheHit { form: 0 });
        emit(EventKind::CacheHit { form: 1 });
        emit(EventKind::CacheHit { form: 2 });
        assert_eq!(dropped(), 1);
        let events = stop();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::CacheHit { form: 1 });
        assert_eq!(events[1].seq, 2);
    }

    #[test]
    fn emit_without_recording_is_noop() {
        let _g = exclusive();
        assert!(!enabled());
        emit(EventKind::CacheHit { form: 9 });
        assert!(stop().is_empty());
    }

    #[test]
    fn double_start_rejected() {
        let _g = exclusive();
        start(TraceConfig::default()).unwrap();
        assert_eq!(
            start(TraceConfig::default()),
            Err(ObserveError::AlreadyRecording)
        );
        stop();
    }

    #[test]
    fn streaming_writes_during_recording() {
        let _g = exclusive();
        let dir = std::env::temp_dir().join(format!("pgmp-obs-stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("live.jsonl");
        start_streaming(&path, TraceConfig { capacity: 1 << 10 }).unwrap();
        for form in 0..200 {
            emit(EventKind::CacheHit { form });
        }
        let summary = stop_streaming().unwrap();
        assert_eq!(summary.events + summary.dropped, 200);
        let events = read_trace(&path).unwrap();
        assert_eq!(events.len() as u64, summary.events);
        assert_eq!(events[0].kind, EventKind::CacheHit { form: 0 });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stop_streaming_on_buffered_recording_reports_ring_drops() {
        let _g = exclusive();
        start(TraceConfig { capacity: 1 }).unwrap();
        emit(EventKind::CacheHit { form: 0 });
        emit(EventKind::CacheHit { form: 1 });
        let summary = stop_streaming().unwrap();
        assert_eq!(summary.dropped, 1);
        assert_eq!(summary.events, 0);
    }

    #[test]
    fn spans_nest_via_thread_local_stack() {
        let _g = exclusive();
        start(TraceConfig::default()).unwrap();
        let outer = timer();
        let outer_id = outer.as_ref().unwrap().id();
        emit(EventKind::CacheHit { form: 1 });
        let inner = timer();
        let inner_id = inner.as_ref().unwrap().id();
        finish(inner, |duration_us| EventKind::SlotResolve {
            resolved: 1,
            duration_us,
        });
        finish(outer, |duration_us| EventKind::Run {
            file: "x.scm".into(),
            mode: "none".into(),
            duration_us,
        });
        let events = stop();
        assert_eq!(events.len(), 3);
        // The point event inside the outer span is parented to it.
        assert_eq!(events[0].span, None);
        assert_eq!(events[0].parent, Some(outer_id));
        // The inner span closes first and names the outer as parent.
        assert_eq!(events[1].span, Some(inner_id));
        assert_eq!(events[1].parent, Some(outer_id));
        // The outer span is a root.
        assert_eq!(events[2].span, Some(outer_id));
        assert_eq!(events[2].parent, None);
        assert!(events.iter().all(|e| e.inst == instance_id()));
        assert_ne!(instance_id(), 0);
    }

    #[test]
    fn unfinished_nested_span_does_not_leak_into_siblings() {
        let _g = exclusive();
        start(TraceConfig::default()).unwrap();
        let outer = timer();
        let outer_id = outer.as_ref().unwrap().id();
        let _ = timer(); // never finished
        finish(outer, |duration_us| EventKind::SlotResolve {
            resolved: 0,
            duration_us,
        });
        // Closing the outer span discarded the leaked child, so the next
        // top-level event is a root again.
        emit(EventKind::CacheHit { form: 2 });
        let events = stop();
        assert_eq!(events[0].span, Some(outer_id));
        assert_eq!(events[1].parent, None);
    }

    #[test]
    fn events_feed_metrics() {
        let _g = exclusive();
        metrics().reset();
        start(TraceConfig::default()).unwrap();
        emit(EventKind::Run {
            file: "x.scm".into(),
            mode: "none".into(),
            duration_us: 42,
        });
        stop();
        assert_eq!(metrics().counter("events.run"), 1);
        let snap = metrics().snapshot();
        assert_eq!(snap.histograms["span.run_us"].sum(), 42);
    }
}
