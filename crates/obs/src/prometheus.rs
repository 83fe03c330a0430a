//! Prometheus text exposition (format version 0.0.4) rendering of a
//! [`MetricsSnapshot`].
//!
//! Hand-rolled like the rest of the crate — the format is line-oriented
//! and simple: a `# TYPE` header per family, then one sample line per
//! series. Registry names are sanitized with [`prometheus_name`] (dots →
//! underscores). Histograms render as the cumulative
//! `_bucket{le="…"}` series Prometheus expects — our log₂ bucket `i`
//! covers `[2^(i−1), 2^i)`, so its inclusive upper edge
//! ([`crate::bucket_upper_edge`]) is exactly an exposition `le` bound —
//! plus `_sum` / `_count`, and the estimated p50/p90/p99 as `#` comment
//! lines (native quantile series belong to summaries, not histograms).
//! Buckets with a recorded exemplar (the last trace id that landed there,
//! see [`crate::trace`]) add one more `#` comment line mapping each
//! bucket's upper edge to the trace id — the breadcrumb from a `/metrics`
//! latency tail to the matching span tree in `/trace.json`. Comment lines
//! keep the document inside the 0.0.4 grammar (scrapers skip them; the
//! richer OpenMetrics `# {trace_id=…}` exemplar syntax is not valid
//! 0.0.4).

use crate::metrics::{bucket_upper_edge, MetricsSnapshot};
use crate::naming::prometheus_name;

/// The `Content-Type` a 0.0.4 exposition body should be served with.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Renders the whole snapshot as an exposition document.
pub fn render(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for c in &snapshot.counters {
        let name = prometheus_name(&c.name);
        out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.value));
    }
    for g in &snapshot.gauges {
        let name = prometheus_name(&g.name);
        out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", g.value));
    }
    for h in &snapshot.histograms {
        let name = prometheus_name(&h.name);
        out.push_str(&format!("# TYPE {name} histogram\n"));
        let mut cumulative = 0u64;
        for &(i, n) in &h.buckets {
            cumulative += n;
            let le = bucket_upper_edge(usize::from(i));
            if le == u64::MAX {
                // The overflow bucket's edge is +Inf in exposition terms;
                // the explicit +Inf line below carries its count.
                continue;
            }
            out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
        }
        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
        out.push_str(&format!("{name}_sum {}\n", h.sum));
        out.push_str(&format!("{name}_count {}\n", h.count));
        out.push_str(&format!(
            "# {name} quantiles (log2-bucket estimates): p50={} p90={} p99={}\n",
            h.p50(),
            h.p90(),
            h.p99()
        ));
        if !h.exemplars.is_empty() {
            let pairs: Vec<String> = h
                .exemplars
                .iter()
                .map(|&(i, id)| {
                    let le = bucket_upper_edge(usize::from(i));
                    if le == u64::MAX {
                        format!("le=\"+Inf\" trace={id}")
                    } else {
                        format!("le=\"{le}\" trace={id}")
                    }
                })
                .collect();
            out.push_str(&format!("# {name} exemplars: {}\n", pairs.join(" ")));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot};

    fn sample_snapshot() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![CounterSnapshot {
                name: "cascade.size.pruned".to_owned(),
                value: 42,
            }],
            gauges: vec![GaugeSnapshot {
                name: "engine.batch.pending".to_owned(),
                value: -3,
            }],
            histograms: vec![HistogramSnapshot {
                name: "engine.knn.filter.us".to_owned(),
                count: 4,
                sum: 110,
                max: 100,
                // One zero, one in [2,4), two in [64,128).
                buckets: vec![(0, 1), (2, 1), (7, 2)],
                exemplars: vec![(7, 42)],
            }],
        }
    }

    #[test]
    fn renders_counters_gauges_and_cumulative_buckets() {
        let text = render(&sample_snapshot());
        assert!(text.contains("# TYPE cascade_size_pruned counter\ncascade_size_pruned 42\n"));
        assert!(text.contains("# TYPE engine_batch_pending gauge\nengine_batch_pending -3\n"));
        assert!(text.contains("# TYPE engine_knn_filter_us histogram\n"));
        // Buckets are cumulative over the non-empty log₂ buckets.
        assert!(text.contains("engine_knn_filter_us_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("engine_knn_filter_us_bucket{le=\"3\"} 2\n"));
        assert!(text.contains("engine_knn_filter_us_bucket{le=\"127\"} 4\n"));
        assert!(text.contains("engine_knn_filter_us_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("engine_knn_filter_us_sum 110\n"));
        assert!(text.contains("engine_knn_filter_us_count 4\n"));
        assert!(text.contains("p50="));
        // The exemplar renders as a comment mapping bucket edge → trace.
        assert!(text.contains("# engine_knn_filter_us exemplars: le=\"127\" trace=42\n"));
    }

    #[test]
    fn histograms_without_exemplars_render_no_exemplar_line() {
        let mut snap = sample_snapshot();
        snap.histograms[0].exemplars.clear();
        assert!(!render(&snap).contains("exemplars"));
    }

    #[test]
    fn overflow_bucket_folds_into_inf() {
        let mut snap = sample_snapshot();
        snap.histograms[0].buckets.push((63, 1));
        snap.histograms[0].count += 1;
        let text = render(&snap);
        // No line carries the u64::MAX edge; +Inf carries the total.
        assert!(!text.contains(&u64::MAX.to_string()));
        assert!(text.contains("engine_knn_filter_us_bucket{le=\"+Inf\"} 5\n"));
    }

    #[test]
    fn every_line_parses_under_the_exposition_grammar() {
        let text = render(&sample_snapshot());
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
            let name = series.split('{').next().unwrap();
            let mut chars = name.chars();
            assert!(matches!(chars.next(), Some('a'..='z' | 'A'..='Z' | '_')));
            assert!(
                chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad name in {line:?}"
            );
        }
    }
}
