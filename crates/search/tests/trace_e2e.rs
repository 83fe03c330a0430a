//! End-to-end trace assembly: `/trace.json` must serve valid Chrome
//! trace-event JSON while real traffic runs, a range query's span tree
//! must telescope to its [`SearchStats`] funnel, a query's trace must
//! hold a fixed number of spans however many candidates it refines, and
//! every histogram exemplar must reference a flight record in the
//! recorder ring.
//!
//! Unlike `exporter_e2e.rs`, this file holds several tests, and cargo
//! runs them concurrently in ONE process: the trace ring, sampler
//! knobs, metrics registry and flight recorder are all process
//! globals, so a file-local mutex serializes the tests.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard, OnceLock};

use treesim_obs::server::MetricsServer;
use treesim_obs::trace::{Trace, TraceSpan};
use treesim_obs::{trace, Json};
use treesim_search::{BiBranchFilter, BiBranchMode, SearchEngine, SearchStats};
use treesim_tree::{Forest, Tree, TreeId};

/// Serializes the tests in this file (shared process globals). Poison
/// is ignored: a failed test must not cascade into the others.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn forest() -> Forest {
    let mut forest = Forest::new();
    for i in 0..30 {
        forest
            .parse_bracket(&format!("a(b{} c(d{} e) f{})", i % 5, i % 3, i % 7))
            .unwrap();
    }
    forest
}

fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to exporter");
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("http header split");
    (head.to_owned(), body.to_owned())
}

#[test]
fn trace_endpoint_serves_valid_chrome_trace_events() {
    let _guard = lock();
    trace::set_sample_every(1); // retain every trace for deterministic assertions

    let forest = forest();
    let engine = SearchEngine::new(
        &forest,
        BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
    );
    let query = forest.tree(TreeId(0));

    // Traffic covering single-threaded and batch-worker span deposits.
    engine.knn(query, 3);
    engine.range(query, 2);
    let queries: Vec<&Tree> = (0..8).map(|i| forest.tree(TreeId(i))).collect();
    engine.knn_batch_threads(&queries, 3, 4);

    let handle = MetricsServer::bind("127.0.0.1:0")
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server thread");
    let (head, body) = http_get(handle.addr(), "/trace.json");
    handle.shutdown();

    assert!(head.starts_with("HTTP/1.0 200"), "{head}");
    assert!(head.contains("application/json"), "{head}");
    let doc = treesim_obs::parse_json(&body).expect("trace.json parses as JSON");
    assert_eq!(
        doc.get("otherData")
            .and_then(|o| o.get("schema"))
            .and_then(Json::as_str),
        Some("treesim-trace/v1")
    );
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "no trace events after traced traffic");

    // Every event is a well-formed `ph:"X"` complete event with worker
    // placement and a span-tree back-pointer in args.
    for event in events {
        let name = event.get("name").and_then(Json::as_str).expect("name");
        assert!(!name.is_empty());
        assert_eq!(event.get("ph").and_then(Json::as_str), Some("X"));
        for field in ["ts", "dur", "pid", "tid"] {
            assert!(
                event.get(field).and_then(Json::as_u64).is_some(),
                "event {name:?} lacks numeric {field}"
            );
        }
        let args = event.get("args").expect("args object");
        assert!(
            args.get("trace")
                .and_then(Json::as_u64)
                .is_some_and(|t| t > 0),
            "event {name:?} lacks a nonzero trace id"
        );
        assert!(
            args.get("span")
                .and_then(Json::as_u64)
                .is_some_and(|s| s > 0),
            "event {name:?} lacks a nonzero span id"
        );
        assert!(
            args.get("parent").and_then(Json::as_u64).is_some(),
            "event {name:?} lacks a parent pointer"
        );
    }

    // Cross-thread reassembly made it into the export: batch workers
    // (tid ≥ 1) deposited spans.
    assert!(
        events.iter().any(|e| {
            e.get("name").and_then(Json::as_str) == Some("engine.batch.worker")
                && e.get("tid").and_then(Json::as_u64).is_some_and(|v| v >= 1)
        }),
        "no engine.batch.worker span on tid ≥ 1"
    );
}

#[test]
fn span_tree_telescopes_to_search_stats_funnel() {
    let _guard = lock();
    trace::set_sample_every(1);
    trace::clear();

    let forest = forest();
    let engine = SearchEngine::new(
        &forest,
        BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
    );
    let (_, stats) = engine.range(forest.tree(TreeId(0)), 2);

    let traced = trace::latest().expect("range query retained a trace");
    assert_eq!(traced.root(), "engine.range");
    let root = traced
        .spans
        .iter()
        .min_by_key(|s| s.id)
        .expect("root span")
        .clone();

    // One cascade child per stage, in stage order, whose evaluated /
    // pruned fields are exactly the query's `SearchStats` funnel.
    assert!(stats.stages.len() > 1, "expected a multi-stage cascade");
    let mut last_start = 0u64;
    for stage in &stats.stages {
        let span = traced
            .spans
            .iter()
            .find(|s| s.name == format!("cascade.{}", stage.name))
            .unwrap_or_else(|| panic!("no cascade.{} span in trace", stage.name));
        assert_eq!(span.parent, root.id, "stage span must nest under the query");
        let field = |key: &str| {
            span.fields
                .iter()
                .find(|(k, _)| *k == key)
                .and_then(|(_, v)| v.parse::<usize>().ok())
                .unwrap_or_else(|| panic!("cascade.{} lacks field {key}", stage.name))
        };
        assert_eq!(field("evaluated"), stage.evaluated);
        assert_eq!(field("pruned"), stage.pruned);
        // Stage intervals telescope: each child lies inside the query
        // span (±2µs: start and duration are floored independently) and
        // stages run coarsest-first.
        assert!(span.start_us >= root.start_us);
        assert!(span.end_us() <= root.end_us() + 2);
        assert!(span.start_us >= last_start, "stage spans out of order");
        last_start = span.start_us;
    }

    // The funnel itself telescopes through the spans: survivors of
    // stage s equal evaluated of stage s + 1.
    for pair in stats.stages.windows(2) {
        assert_eq!(pair[0].survivors(), pair[1].evaluated);
    }
}

/// The trace's root span (the first one entered).
fn root_span(traced: &Trace) -> &TraceSpan {
    traced.spans.iter().min_by_key(|s| s.id).expect("root span")
}

/// The root span's refinement totals equal the query's `SearchStats`.
fn assert_root_carries_refine_totals(root: &TraceSpan, stats: &SearchStats) {
    let field = |key: &str| {
        root.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
            .unwrap_or_else(|| panic!("{} lacks field {key}: {:?}", root.name, root.fields))
    };
    assert_eq!(field("refined"), stats.refined.to_string());
    assert_eq!(field("cutoffs"), stats.refine_cutoffs.to_string());
    assert_eq!(
        field("cells_skipped"),
        stats.refine_bands_skipped.to_string()
    );
    assert_eq!(
        field("refine_us"),
        stats.refine_time.as_micros().to_string()
    );
}

#[test]
fn trace_size_is_per_query_not_per_refinement() {
    let _guard = lock();
    trace::set_sample_every(1);
    trace::clear();

    let forest = forest();
    let engine = SearchEngine::new(
        &forest,
        BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
    );
    let query = forest.tree(TreeId(0));
    let dropped = || treesim_obs::metrics::counter("trace.spans.dropped").get();
    let dropped_before = dropped();

    // k = n refines every tree; the trace still holds the root alone.
    let (_, stats) = engine.knn(query, forest.len());
    assert_eq!(stats.refined, forest.len());
    let traced = trace::latest().expect("knn query retained a trace");
    assert_eq!(traced.root(), "engine.knn");
    assert_eq!(traced.spans.len(), 1, "{}", traced.render_tree());
    assert_root_carries_refine_totals(root_span(&traced), &stats);

    // A radius that covers the forest refines every tree: root, one
    // span per cascade stage, and one refinement sweep.
    let (_, stats) = engine.range(query, 20);
    assert_eq!(stats.refined, forest.len());
    let traced = trace::latest().expect("range query retained a trace");
    assert_eq!(traced.root(), "engine.range");
    assert_eq!(
        traced.spans.len(),
        stats.stages.len() + 2,
        "{}",
        traced.render_tree()
    );
    let root = root_span(&traced);
    assert_root_carries_refine_totals(root, &stats);
    let sweep = traced
        .spans
        .iter()
        .find(|s| s.name == "refine.sweep")
        .expect("refine.sweep span");
    assert_eq!(sweep.parent, root.id);
    assert!(sweep.start_us >= root.start_us);
    assert!(sweep.end_us() <= root.end_us() + 2);
    assert_eq!(traced.max_depth(), 2);

    // A range query with cutoffs: the totals still match.
    let (_, stats) = engine.range(query, 2);
    assert!(stats.refine_cutoffs > 0, "expected cutoffs at τ = 2");
    let traced = trace::latest().expect("range query retained a trace");
    assert_root_carries_refine_totals(root_span(&traced), &stats);

    assert_eq!(dropped(), dropped_before, "no span hit the per-trace cap");
}

#[test]
fn histogram_exemplars_reference_recorded_queries() {
    let _guard = lock();
    trace::set_sample_every(1);

    let forest = forest();
    let engine = SearchEngine::new(
        &forest,
        BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
    );
    // Bounded traffic (well under the recorder's 1024-record ring) over
    // several query shapes, including the cluster / classify wrappers.
    for i in 0..10 {
        let query = forest.tree(TreeId(i));
        engine.knn(query, 3);
        engine.range(query, 2);
    }
    treesim_search::threshold_clusters(&engine, 1);
    let classes: Vec<usize> = (0..forest.len()).map(|i| i % 2).collect();
    let classifier = treesim_search::KnnClassifier::new(
        SearchEngine::new(
            &forest,
            BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
        ),
        classes,
    );
    classifier.classify(forest.tree(TreeId(1)), 3);

    let recorded: std::collections::HashSet<u64> = treesim_obs::recorder::global()
        .records()
        .iter()
        .map(|r| r.trace_id)
        .filter(|&id| id != 0)
        .collect();
    assert!(
        !recorded.is_empty(),
        "traced traffic left no flight records"
    );

    // Every exemplar stamped on any histogram bucket must point at a
    // query still present in the recorder ring — that is the whole
    // point of exemplars: a tail bucket links to a replayable record.
    let snapshot = treesim_obs::metrics::snapshot();
    let mut exemplar_ids: Vec<u64> = Vec::new();
    for histogram in &snapshot.histograms {
        for &(bucket, id) in &histogram.exemplars {
            assert!(
                recorded.contains(&id),
                "{} bucket {bucket} exemplar trace {id} has no flight record",
                histogram.name
            );
            exemplar_ids.push(id);
        }
    }
    assert!(
        !exemplar_ids.is_empty(),
        "traced traffic stamped no exemplars"
    );

    // And at least the most recent exemplars resolve to full span trees
    // in the trace ring (older ones may have been evicted by design).
    assert!(
        exemplar_ids.iter().any(|&id| trace::find(id).is_some()),
        "no exemplar resolves to a retained trace"
    );
}
