//! Lightweight span tracing: a thread-local span stack with RAII guards,
//! point events, and a pluggable [`Sink`].
//!
//! Every span records its wall-clock duration into the histogram named
//! `<span name>.us` — that always happens and costs two `Instant` reads
//! plus a few relaxed atomic adds. Everything else (field formatting,
//! enter/exit events) happens **only when a sink is installed**: the guard
//! checks one `Acquire` atomic bool, so an uninstrumented run pays near
//! nothing beyond the histogram.
//!
//! # Memory-model contracts (checked by `xtask analyze` happens-before)
//!
//! atomic-role: SINK_ACTIVE = publish — guards the sink slot: the
//! `Release` store in [`install_sink`] publishes the slot write, the
//! `Acquire` load in [`sink_active`] subscribes to it (see the comment
//! there and DESIGN.md §14)

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::metrics::Histogram;

/// What a sink is being told about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span started.
    SpanEnter,
    /// A span finished (duration attached).
    SpanExit,
    /// A point event.
    Event,
}

/// One tracing event, borrowed from the emitting site.
#[derive(Debug)]
pub struct Event<'a> {
    /// Enter, exit, or point event.
    pub kind: EventKind,
    /// Span or event name (e.g. `engine.knn`).
    pub name: &'a str,
    /// Span-stack depth at emission (0 = top level).
    pub depth: usize,
    /// Wall-clock duration; only for [`EventKind::SpanExit`].
    pub duration: Option<Duration>,
    /// Formatted `key = value` fields.
    pub fields: &'a [(&'static str, String)],
}

/// An owned copy of an [`Event`] (what [`TestSink`] stores).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedEvent {
    /// Enter, exit, or point event.
    pub kind: EventKind,
    /// Span or event name.
    pub name: String,
    /// Span-stack depth at emission.
    pub depth: usize,
    /// Wall-clock duration for span exits.
    pub duration: Option<Duration>,
    /// Formatted `key = value` fields.
    pub fields: Vec<(String, String)>,
}

impl Event<'_> {
    fn to_owned_event(&self) -> OwnedEvent {
        OwnedEvent {
            kind: self.kind,
            name: self.name.to_owned(),
            depth: self.depth,
            duration: self.duration,
            fields: self
                .fields
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect(),
        }
    }
}

/// Receives tracing events. Implementations must be cheap and re-entrant:
/// they are called from hot query paths on many threads.
pub trait Sink: Send + Sync {
    /// Handles one event.
    fn emit(&self, event: &Event<'_>);
}

static SINK_ACTIVE: AtomicBool = AtomicBool::new(false);

fn sink_slot() -> &'static RwLock<Option<Arc<dyn Sink>>> {
    static SINK: OnceLock<RwLock<Option<Arc<dyn Sink>>>> = OnceLock::new();
    SINK.get_or_init(|| RwLock::new(None))
}

/// Installs the global sink (replacing any previous one).
pub fn install_sink(sink: Arc<dyn Sink>) {
    *sink_slot().write().expect("sink lock poisoned") = Some(sink);
    SINK_ACTIVE.store(true, Ordering::Release);
}

/// Removes the global sink; spans keep recording their histograms.
pub fn clear_sink() {
    SINK_ACTIVE.store(false, Ordering::Release);
    *sink_slot().write().expect("sink lock poisoned") = None;
}

/// Whether a sink is installed (one `Acquire` atomic load — the hot-path
/// guard that keeps uninstrumented runs near-free).
#[inline]
pub fn sink_active() -> bool {
    // Happens-before edge: this `Acquire` load pairs with the `Release`
    // stores in `install_sink`/`clear_sink`, so a thread that observes
    // `true` also observes the sink written into the slot before the flag
    // was raised. The slot's `RwLock` independently synchronizes the
    // subsequent read, so `Relaxed` would not be *unsound* here — the
    // worst case is emitting against a stale slot state — but the
    // `Acquire`/`Release` pairing makes the flag self-contained instead of
    // leaning on the lock, at no measurable cost on x86 (plain load) or
    // AArch64 (`ldar`). See DESIGN.md §9 for the interleaving argument;
    // the `xtask analyze` atomics-audit lint pins this pairing.
    SINK_ACTIVE.load(Ordering::Acquire)
}

fn emit(event: &Event<'_>) {
    if let Some(sink) = sink_slot().read().expect("sink lock poisoned").as_ref() {
        sink.emit(event);
    }
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Current span-stack depth on this thread.
pub fn current_depth() -> usize {
    SPAN_STACK.with(|stack| stack.borrow().len())
}

/// Names of the spans currently open on this thread, outermost first.
pub fn current_spans() -> Vec<&'static str> {
    SPAN_STACK.with(|stack| stack.borrow().clone())
}

/// An RAII span: created by [`crate::span!`], records `<name>.us` on drop
/// and notifies the sink (if any) on enter and exit. When a trace capture
/// is live on this thread (see [`crate::trace`]), the span additionally
/// deposits a [`crate::trace::TraceSpan`] into the query's span tree.
#[must_use = "a span guard measures until it is dropped"]
pub struct SpanGuard {
    name: &'static str,
    histogram: &'static Histogram,
    start: Instant,
    fields: Vec<(&'static str, String)>,
    /// Whether this span opened a trace capture frame. Remembered at
    /// enter so a trace that starts mid-span never pops a frame this
    /// guard did not push.
    traced: bool,
}

impl SpanGuard {
    /// Opens a span. Prefer the [`crate::span!`] macro, which caches the
    /// histogram handle per call-site.
    pub fn enter(
        name: &'static str,
        histogram: &'static Histogram,
        fields: Vec<(&'static str, String)>,
    ) -> SpanGuard {
        let depth = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            stack.push(name);
            stack.len() - 1
        });
        let traced = crate::trace::on_span_enter(name);
        if sink_active() {
            emit(&Event {
                kind: EventKind::SpanEnter,
                name,
                depth,
                duration: None,
                fields: &fields,
            });
        }
        SpanGuard {
            name,
            histogram,
            start: Instant::now(),
            fields,
            traced,
        }
    }

    /// Attaches a field discovered after enter (a result count, a
    /// verdict). The value closure only runs when someone will see the
    /// field — a sink is installed or the span is being traced.
    pub fn push_field(&mut self, key: &'static str, value: impl FnOnce() -> String) {
        if self.traced || sink_active() {
            self.fields.push((key, value()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        self.histogram.record_duration(elapsed);
        let depth = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            stack.pop();
            stack.len()
        });
        let sink = sink_active();
        if self.traced {
            // The trace takes the fields; only a sink still needs a copy.
            let fields = if sink {
                self.fields.clone()
            } else {
                std::mem::take(&mut self.fields)
            };
            crate::trace::on_span_exit(self.name, fields);
        }
        if sink {
            emit(&Event {
                kind: EventKind::SpanExit,
                name: self.name,
                depth,
                duration: Some(elapsed),
                fields: &self.fields,
            });
        }
    }
}

/// Emits a point event to the sink (no-op without one). Prefer the
/// [`crate::event!`] macro, which skips field formatting when inactive.
pub fn emit_event(name: &str, fields: &[(&'static str, String)]) {
    if sink_active() {
        emit(&Event {
            kind: EventKind::Event,
            name,
            depth: current_depth(),
            duration: None,
            fields,
        });
    }
}

/// Pretty-printing stderr sink: indented `→ name` / `← name (12.3µs)`.
#[derive(Debug, Default)]
pub struct PrettySink;

impl Sink for PrettySink {
    fn emit(&self, event: &Event<'_>) {
        let indent = "  ".repeat(event.depth);
        let fields = format_fields(event.fields);
        let line = match event.kind {
            EventKind::SpanEnter => format!("[trace] {indent}→ {}{fields}", event.name),
            EventKind::SpanExit => format!(
                "[trace] {indent}← {} ({:.1?}){fields}",
                event.name,
                event.duration.unwrap_or_default()
            ),
            EventKind::Event => format!("[trace] {indent}• {}{fields}", event.name),
        };
        eprintln!("{line}");
    }
}

fn format_fields(fields: &[(&'static str, String)]) -> String {
    if fields.is_empty() {
        return String::new();
    }
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!(" {{{}}}", body.join(", "))
}

/// JSON-lines sink: one compact JSON object per event, written through a
/// shared `Write` (stderr or a file).
pub struct JsonLinesSink {
    writer: Mutex<Box<dyn Write + Send>>,
}

impl JsonLinesSink {
    /// Wraps any writer.
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        JsonLinesSink {
            writer: Mutex::new(writer),
        }
    }

    /// Writes events to stderr.
    pub fn stderr() -> Self {
        Self::new(Box::new(std::io::stderr()))
    }

    /// Writes events to (or over) the file at `path`.
    pub fn file(path: &str) -> std::io::Result<Self> {
        Ok(Self::new(Box::new(std::fs::File::create(path)?)))
    }
}

impl std::fmt::Debug for JsonLinesSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonLinesSink").finish_non_exhaustive()
    }
}

impl Sink for JsonLinesSink {
    fn emit(&self, event: &Event<'_>) {
        let mut pairs = vec![
            (
                "ev",
                Json::Str(
                    match event.kind {
                        EventKind::SpanEnter => "enter",
                        EventKind::SpanExit => "exit",
                        EventKind::Event => "event",
                    }
                    .to_owned(),
                ),
            ),
            ("name", Json::Str(event.name.to_owned())),
            ("depth", Json::U64(event.depth as u64)),
        ];
        if let Some(duration) = event.duration {
            pairs.push((
                "us",
                Json::U64(u64::try_from(duration.as_micros()).unwrap_or(u64::MAX)),
            ));
        }
        for (key, value) in event.fields {
            pairs.push((key, Json::Str(value.clone())));
        }
        let line = Json::obj(pairs).to_string_compact();
        let mut writer = self.writer.lock().expect("sink writer poisoned");
        let _ = writeln!(writer, "{line}");
    }
}

/// In-memory sink for assertions in tests.
#[derive(Debug, Default)]
pub struct TestSink {
    events: Mutex<Vec<OwnedEvent>>,
}

impl TestSink {
    /// An empty test sink.
    pub fn new() -> Arc<TestSink> {
        Arc::new(TestSink::default())
    }

    /// A copy of every event seen so far.
    pub fn events(&self) -> Vec<OwnedEvent> {
        self.events.lock().expect("test sink poisoned").clone()
    }

    /// Number of events of `kind` whose name equals `name`.
    pub fn count(&self, kind: EventKind, name: &str) -> usize {
        self.events
            .lock()
            .expect("test sink poisoned")
            .iter()
            .filter(|e| e.kind == kind && e.name == name)
            .count()
    }

    /// Drops all recorded events.
    pub fn clear(&self) {
        self.events.lock().expect("test sink poisoned").clear();
    }
}

impl Sink for TestSink {
    fn emit(&self, event: &Event<'_>) {
        self.events
            .lock()
            .expect("test sink poisoned")
            .push(event.to_owned_event());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::histogram;

    // Sink installation is global: serialize the tests that touch it.
    fn sink_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn spans_record_histograms_without_a_sink() {
        let _guard = sink_lock();
        clear_sink();
        let h = histogram("test.span.no_sink.us");
        let before = h.count();
        {
            let _span = crate::span!("test.span.no_sink");
            assert_eq!(current_spans().last(), Some(&"test.span.no_sink"));
        }
        assert_eq!(h.count(), before + 1);
        assert_eq!(current_depth(), 0);
    }

    #[test]
    fn test_sink_sees_nested_spans_and_events() {
        let _guard = sink_lock();
        let sink = TestSink::new();
        install_sink(sink.clone());
        {
            let _outer = crate::span!("test.span.outer");
            {
                let _inner = crate::span!("test.span.inner", size = 3);
                crate::event!("test.span.point", detail = "x");
            }
        }
        clear_sink();
        crate::event!("test.span.after_clear"); // swallowed

        assert_eq!(sink.count(EventKind::SpanEnter, "test.span.outer"), 1);
        assert_eq!(sink.count(EventKind::SpanExit, "test.span.inner"), 1);
        assert_eq!(sink.count(EventKind::Event, "test.span.point"), 1);
        assert_eq!(sink.count(EventKind::Event, "test.span.after_clear"), 0);

        let events = sink.events();
        let inner_enter = events
            .iter()
            .find(|e| e.kind == EventKind::SpanEnter && e.name == "test.span.inner")
            .expect("inner enter seen");
        assert_eq!(inner_enter.depth, 1);
        assert_eq!(
            inner_enter.fields,
            vec![("size".to_owned(), "3".to_owned())]
        );
        let point = events
            .iter()
            .find(|e| e.kind == EventKind::Event && e.name == "test.span.point")
            .expect("point event seen");
        assert_eq!(point.depth, 2);
        let outer_exit = events
            .iter()
            .find(|e| e.kind == EventKind::SpanExit && e.name == "test.span.outer")
            .expect("outer exit seen");
        assert!(outer_exit.duration.is_some());
        sink.clear();
        assert!(sink.events().is_empty());
    }

    #[test]
    fn json_lines_sink_writes_parseable_lines() {
        let _guard = sink_lock();
        let path = std::env::temp_dir().join("treesim-obs-jsonl-test.jsonl");
        let path_str = path.to_str().unwrap();
        install_sink(Arc::new(JsonLinesSink::file(path_str).unwrap()));
        {
            let _span = crate::span!("test.span.jsonl", k = 7);
        }
        clear_sink();
        let content = std::fs::read_to_string(&path).unwrap();
        // The sink is process-global: spans that concurrently running
        // tests open while it is installed land in the file too.
        let lines: Vec<&str> = content
            .lines()
            .filter(|l| l.contains("\"name\":\"test.span.jsonl\""))
            .collect();
        assert_eq!(lines.len(), 2, "enter + exit");
        let exit = crate::json::parse(lines[1]).unwrap();
        assert_eq!(exit.get("ev").and_then(Json::as_str), Some("exit"));
        assert_eq!(
            exit.get("name").and_then(Json::as_str),
            Some("test.span.jsonl")
        );
        assert_eq!(exit.get("k").and_then(Json::as_str), Some("7"));
        assert!(exit.get("us").and_then(Json::as_u64).is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pretty_sink_formats_without_panicking() {
        // Exercise the formatting paths directly (output goes to stderr).
        let sink = PrettySink;
        for kind in [EventKind::SpanEnter, EventKind::SpanExit, EventKind::Event] {
            sink.emit(&Event {
                kind,
                name: "test.span.pretty",
                depth: 1,
                duration: (kind == EventKind::SpanExit).then(|| Duration::from_micros(12)),
                fields: &[("k", "v".to_owned())],
            });
        }
    }
}
