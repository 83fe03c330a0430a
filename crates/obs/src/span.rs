//! Timed spans: an RAII guard that records its wall-clock duration into
//! the histogram named `<span name>.us` and, while a trace capture is
//! live on this thread, deposits itself into the query's span tree.
//!
//! The histogram update always happens and costs two `Instant` reads plus
//! a few relaxed atomic adds. The trace side is a
//! [`crate::trace::TraceSpanGuard`] — the one code path that opens and
//! closes trace frames — so a [`crate::span!`] span and a trace-only
//! [`crate::trace::span`] land in the tree identically.

use std::time::Instant;

use crate::metrics::Histogram;
use crate::trace::TraceSpanGuard;

/// An RAII span: created by [`crate::span!`], records `<name>.us` on drop.
/// When a trace capture is live on this thread (see [`crate::trace`]), the
/// span additionally deposits a [`crate::trace::TraceSpan`] into the
/// query's span tree.
#[must_use = "a span guard measures until it is dropped"]
pub struct SpanGuard {
    histogram: &'static Histogram,
    start: Instant,
    trace: TraceSpanGuard,
}

impl SpanGuard {
    /// Opens a span. Prefer the [`crate::span!`] macro, which caches the
    /// histogram handle per call-site.
    pub fn enter(
        name: &'static str,
        histogram: &'static Histogram,
        fields: Vec<(&'static str, String)>,
    ) -> SpanGuard {
        let trace = TraceSpanGuard::enter(name, fields);
        SpanGuard {
            histogram,
            start: Instant::now(),
            trace,
        }
    }

    /// Attaches a field discovered after enter (a result count, a
    /// verdict). The value closure only runs when the span is traced.
    pub fn push_field(&mut self, key: &'static str, value: impl FnOnce() -> String) {
        self.trace.push_field(key, value);
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.histogram.record_duration(self.start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use crate::metrics::histogram;
    use crate::trace;

    #[test]
    fn spans_record_histograms_outside_a_trace() {
        let h = histogram("test.span.untraced.us");
        let before = h.count();
        {
            let _span = crate::span!("test.span.untraced", k = 3);
        }
        assert_eq!(h.count(), before + 1);
    }

    #[test]
    fn traced_spans_nest_and_keep_their_fields() {
        let _lock = trace::test_lock();
        let every = trace::sample_every();
        trace::set_sample_every(1);
        let id = {
            let trace = trace::start_trace();
            {
                let mut outer = crate::span!("test.span.outer");
                {
                    let _inner = crate::span!("test.span.inner", size = 3);
                }
                outer.push_field("results", || "2".to_owned());
            }
            trace.id()
        };
        let trace = trace::find(id).expect("retained with sample_every=1");
        let outer = trace.span(1).expect("root span");
        assert_eq!(outer.name, "test.span.outer");
        assert_eq!(outer.parent, 0);
        assert_eq!(outer.fields, vec![("results", "2".to_owned())]);
        let inner = trace.span(2).expect("child span");
        assert_eq!(inner.name, "test.span.inner");
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.fields, vec![("size", "3".to_owned())]);
        assert!(histogram("test.span.inner.us").count() >= 1);
        trace::set_sample_every(every);
    }
}
