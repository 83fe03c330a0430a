//! `treesim-obs` — first-party observability for the treesim workspace:
//! a global lock-free metrics registry and lightweight span tracing.
//!
//! The build environment has no network access to crates.io, so — like the
//! stand-ins under `vendor/` — this is hand-rolled on `std` alone rather
//! than an import of `tracing`/`metrics`. It provides exactly what the
//! cascade, refinement and bench pipelines need:
//!
//! * **Metrics** ([`mod@metrics`]): atomic [`Counter`]s, [`Gauge`]s and
//!   fixed-bucket log₂ [`Histogram`]s registered by name, snapshotable to
//!   a [`MetricsSnapshot`] that round-trips through JSON (the
//!   `BENCH_*.json` perf-trajectory format).
//! * **Spans** ([`mod@span`]): RAII [`span!`] guards that record
//!   wall-clock into `<name>.us` histograms and, inside a trace capture,
//!   deposit into the query's span tree. Outside a capture the only cost
//!   is the histogram update: fields are not even formatted.
//! * **Flight recorder** ([`mod@recorder`]): an always-on, bounded,
//!   sharded ring of structured per-query [`QueryRecord`]s — the
//!   query-level complement to the aggregate registry. O(capacity)
//!   memory, allocation-free recording after warm-up, drainable to JSON.
//! * **Exporter** ([`mod@server`] + [`mod@prometheus`]): a std-only
//!   `TcpListener` HTTP endpoint serving `/metrics` (Prometheus text
//!   exposition 0.0.4), `/snapshot.json`, `/recorder.json` (with a
//!   `?since=<seq>` cursor) and `/trace.json` (Chrome trace-event
//!   format). Histograms are exported as cumulative buckets; windowing
//!   them is the scraper's job.
//! * **Traces** ([`mod@trace`]): per-query span *trees* — every span
//!   entered while a [`trace::start_trace`] capture is live (including on
//!   worker threads that joined via a [`trace::TraceHandle`]) carries a
//!   parent id and is reassembled into a [`trace::Trace`] held in a
//!   bounded ring, exportable as Chrome trace-event JSON or an indented
//!   tree. This is the only span record: `/trace.json`, `treesim trace`
//!   and the CLI's `--trace pretty|json` all render finished traces.
//!   Latency histograms stamp the current trace id into the bucket each
//!   sample lands in (**exemplars**), linking `/metrics` tails back to a
//!   concrete recorded query.
//!
//! # Naming scheme
//!
//! Dotted lowercase paths, coarse-to-fine: `engine.knn.*` /
//! `engine.range.*` for query-level measures, `cascade.<stage>.*`
//! (`size`, `bdist`, `propt`, `histo`) for per-stage funnel counters,
//! `refine.zs.*` for Zhang–Shasha refinement, `dynamic.*` for the
//! appendable index, `cluster.*`/`classify.*` for the similarity
//! applications, and `trace.*` for the trace layer itself. Histograms of
//! durations end in `.us` (microseconds).
//! The scheme is a checked contract, not a convention: [`mod@naming`]
//! holds the grammar ([`naming::KNOWN_PREFIXES`],
//! [`naming::CASCADE_STAGES`], [`naming::validate_metric_name`]), the
//! `xtask analyze` metric-name lint enforces it statically over every
//! name literal, and a cross-crate integration test validates every name
//! the engine actually emits.
//!
//! # Example
//!
//! ```
//! let queries = treesim_obs::counter!("example.queries");
//! {
//!     let _span = treesim_obs::span!("example.query", k = 5);
//!     queries.inc();
//! }
//! let snap = treesim_obs::metrics::snapshot();
//! assert!(snap.counter("example.queries").unwrap() >= 1);
//! assert!(snap.histogram("example.query.us").unwrap().count >= 1);
//! // The snapshot round-trips through JSON:
//! let text = snap.to_json_string();
//! assert_eq!(
//!     treesim_obs::MetricsSnapshot::from_json_str(&text).unwrap(),
//!     snap,
//! );
//! ```

#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod model;
pub mod naming;
pub mod prometheus;
pub mod recorder;
pub mod server;
pub mod span;
pub mod sync;
pub mod trace;

pub use json::{parse as parse_json, Json, JsonError};
pub use metrics::{
    bucket_index, bucket_upper_edge, Counter, CounterSnapshot, Gauge, GaugeSnapshot, Histogram,
    HistogramSnapshot, MetricsSnapshot, HISTOGRAM_BUCKETS,
};
pub use recorder::{BatchContext, FlightRecorder, QueryKind, QueryRecord, StageRecord};
pub use server::{MetricsServer, ServerHandle};
pub use span::SpanGuard;
pub use trace::{current_trace_id, start_trace, trace_active, Trace, TraceGuard, TraceSpan};

/// Resolves (and caches per call-site) the counter named by a string
/// literal. Expands to `&'static Counter`; the registry lookup happens
/// once, after which use is a single relaxed atomic add.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::Counter> = ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::metrics::counter($name))
    }};
}

/// Resolves (and caches per call-site) the gauge named by a string literal.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::Gauge> = ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::metrics::gauge($name))
    }};
}

/// Resolves (and caches per call-site) the histogram named by a string
/// literal.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::metrics::histogram($name))
    }};
}

/// Opens an RAII span: `let _span = span!("engine.knn");` or
/// `span!("cascade.stage", name = stage, k = 5)`.
///
/// The guard records wall-clock into the `<name>.us` histogram when
/// dropped. Field values are formatted with `Display` — and only when a
/// trace capture is live on this thread, so untraced runs never pay for
/// formatting.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::SpanGuard::enter(
            $name,
            $crate::histogram!(::std::concat!($name, ".us")),
            ::std::vec::Vec::new(),
        )
    };
    ($name:literal, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::SpanGuard::enter(
            $name,
            $crate::histogram!(::std::concat!($name, ".us")),
            if $crate::trace_active() {
                ::std::vec![$((::std::stringify!($key), ::std::format!("{}", $value))),+]
            } else {
                ::std::vec::Vec::new()
            },
        )
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn macros_cache_handles_per_call_site() {
        let a = counter!("test.lib.macro_counter");
        let b = counter!("test.lib.macro_counter");
        // Two call-sites, one registered metric.
        assert!(std::ptr::eq(a, b));
        let g = gauge!("test.lib.macro_gauge");
        g.set(1);
        let h = histogram!("test.lib.macro_hist");
        h.record(2);
        assert!(h.count() >= 1);
    }

    #[test]
    fn span_macro_records_named_histogram() {
        {
            let _span = span!("test.lib.span_macro");
        }
        let h = crate::metrics::histogram("test.lib.span_macro.us");
        assert!(h.count() >= 1);
    }
}
