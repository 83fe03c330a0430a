//! The span-tree walks of [`Trace`] against the straightforward
//! per-span walks they replace.
//!
//! `Trace::max_depth` (the sampler's weight) and `Trace::render_tree`
//! index spans by id in one pass. The oracles below find each parent by
//! a linear search instead, which is quadratic in the span count but
//! obviously right. On well-formed traces — ids 1-based, parents below
//! their children, some spans lost so that their children are orphans —
//! both must agree exactly; on malformed traces the indexed walks must
//! still terminate.

use proptest::prelude::*;
use treesim_obs::trace::{Trace, TraceSpan, MAX_TRACE_SPANS};

/// The linear-search depth walk: each span climbs its parent chain
/// through `Trace::span`. A missing parent counts as one more level.
fn oracle_max_depth(trace: &Trace) -> usize {
    trace
        .spans
        .iter()
        .map(|s| {
            let mut depth = 1usize;
            let mut parent = s.parent;
            while parent != 0 && depth <= trace.spans.len() {
                depth += 1;
                parent = trace.span(parent).map_or(0, |p| p.parent);
            }
            depth
        })
        .max()
        .unwrap_or(0)
}

/// The linear-search rendering: each span's children are found by
/// filtering every span, and orphans render at the root level.
fn oracle_render_tree(trace: &Trace) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace {}: {} — wall {}µs, {} spans, depth {}",
        trace.id,
        trace.root(),
        trace.wall_us,
        trace.spans.len(),
        oracle_max_depth(trace)
    );
    let mut order: Vec<&TraceSpan> = trace.spans.iter().collect();
    order.sort_by_key(|s| (s.start_us, s.id));
    let children = |parent: u64| -> Vec<&TraceSpan> {
        order
            .iter()
            .copied()
            .filter(|s| {
                s.parent == parent
                    || (parent == 0 && s.parent != 0 && trace.span(s.parent).is_none())
            })
            .collect()
    };
    let mut stack: Vec<(&TraceSpan, usize)> =
        children(0).into_iter().rev().map(|s| (s, 0usize)).collect();
    while let Some((span, depth)) = stack.pop() {
        let kids = children(span.id);
        let child_total: u64 = kids.iter().map(|c| c.dur_us).sum();
        let self_us = span.dur_us.saturating_sub(child_total);
        let indent = "  ".repeat(depth);
        let label = format!("{indent}{}", span.name);
        let _ = write!(
            out,
            "  {label:<40} total {:>8}µs  self {:>8}µs",
            span.dur_us, self_us
        );
        if span.tid != 0 {
            let _ = write!(out, "  [worker {}]", span.tid);
        }
        if !span.fields.is_empty() {
            let fields: Vec<String> = span
                .fields
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            let _ = write!(out, "  {{{}}}", fields.join(", "));
        }
        let _ = writeln!(out);
        for kid in kids.into_iter().rev() {
            stack.push((kid, depth + 1));
        }
    }
    out
}

const NAMES: [&str; 4] = ["engine.knn", "cascade.size", "refine.sweep", "test.worker"];

/// One generated span: a parent choice, a draw that decides whether the
/// span was lost and sets its interval and worker, and a sort key that
/// scrambles the completion order.
type SpanSeed = (u64, u64, u64);

/// A well-formed trace: span `i` (1-based) hangs under 0 or an earlier
/// id, lost spans are removed (their children become orphans), and the
/// survivors appear in a scrambled completion order.
fn well_formed(seeds: &[SpanSeed]) -> Trace {
    let mut spans: Vec<(u64, TraceSpan)> = Vec::new();
    for (i, &(choice, draw, key)) in seeds.iter().enumerate() {
        let id = i as u64 + 1;
        // Mostly the previous span or a close ancestor, so chains get deep.
        let parent = match choice % 8 {
            0 => 0,
            _ if id == 1 => 0,
            1..=3 => id - 1,
            _ => 1 + choice % (id - 1),
        };
        if draw % 5 == 0 {
            continue; // lost: its children are orphans
        }
        let fields = if choice % 3 == 0 {
            vec![("refined", choice.to_string())]
        } else {
            Vec::new()
        };
        spans.push((
            key,
            TraceSpan {
                id,
                parent,
                name: NAMES[(choice % 4) as usize],
                start_us: (draw >> 8) % 50,
                dur_us: (draw >> 16) % 40,
                tid: ((draw >> 24) % 3) as u32,
                fields,
            },
        ));
    }
    spans.sort_by_key(|(key, span)| (*key, span.id));
    Trace {
        id: 7,
        wall_us: 1000,
        spans: spans.into_iter().map(|(_, span)| span).collect(),
    }
}

/// An id or parent for a malformed trace: mostly small (so ids repeat
/// and parents point anywhere), sometimes at or beyond the span cap.
fn wild_id(draw: u64) -> u64 {
    match draw % 10 {
        0 => MAX_TRACE_SPANS,
        1 => MAX_TRACE_SPANS + 1,
        2 => u64::MAX,
        _ => draw % 40,
    }
}

proptest! {
    #[test]
    fn indexed_walks_equal_the_linear_walks(
        seeds in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..120)
    ) {
        let trace = well_formed(&seeds);
        prop_assert_eq!(trace.max_depth(), oracle_max_depth(&trace));
        prop_assert_eq!(
            trace.weight(),
            trace.spans.len() as u64 * oracle_max_depth(&trace) as u64
        );
        prop_assert_eq!(trace.render_tree(), oracle_render_tree(&trace));
    }

    #[test]
    fn malformed_traces_still_terminate(
        raw in prop::collection::vec((any::<u64>(), any::<u64>(), 0u64..50, 0u64..40), 0..60)
    ) {
        // Repeated ids, self-parents, parents above their children, ids
        // beyond the cap: nothing a capture produces, all of it possible
        // in a hand-built trace.
        let trace = Trace {
            id: 9,
            wall_us: 1,
            spans: raw
                .iter()
                .map(|&(id, parent, start_us, dur_us)| TraceSpan {
                    id: wild_id(id),
                    parent: wild_id(parent),
                    name: "engine.knn",
                    start_us,
                    dur_us,
                    tid: 0,
                    fields: Vec::new(),
                })
                .collect(),
        };
        let depth = trace.max_depth();
        prop_assert_eq!(depth == 0, trace.spans.is_empty());
        prop_assert!(depth <= trace.spans.len() + 1);
        let rendered = trace.render_tree();
        // A header, then each span at most once.
        prop_assert!(rendered.lines().count() <= trace.spans.len() + 1);
    }
}

#[test]
fn orphans_of_a_capped_trace_render_at_the_root() {
    // Spans 2 and 3 were lost; 4 hung under 3, 5 under 4.
    let span = |id: u64, parent: u64| TraceSpan {
        id,
        parent,
        name: "cascade.size",
        start_us: id,
        dur_us: 1,
        tid: 0,
        fields: Vec::new(),
    };
    let trace = Trace {
        id: 1,
        wall_us: 10,
        spans: vec![span(5, 4), span(4, 3), span(1, 0)],
    };
    // 5 → 4 → (lost 3): three levels, as the linear walk counts them.
    assert_eq!(trace.max_depth(), 3);
    assert_eq!(trace.max_depth(), oracle_max_depth(&trace));
    assert_eq!(trace.render_tree(), oracle_render_tree(&trace));
}
