//! End-to-end exporter test: a live `/metrics` endpoint scraped during
//! real multi-threaded batch traffic must serve parseable Prometheus
//! text exposition (format 0.0.4) carrying the cascade, refinement and
//! recorder metric families.
//!
//! This file deliberately holds a SINGLE test: cargo runs each
//! integration test file in its own process, so the global registry,
//! recorder and the spawned server are exclusively ours.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use treesim_obs::server::MetricsServer;
use treesim_search::{BiBranchFilter, BiBranchMode, SearchEngine};
use treesim_tree::{Forest, Tree, TreeId};

fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to exporter");
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("http header split");
    (head.to_owned(), body.to_owned())
}

/// Validates one exposition document line by line against the 0.0.4
/// grammar: comment lines start with `#`; sample lines are
/// `name[{labels}] value` with a metric-name production of
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn assert_parses_as_exposition(body: &str) {
    assert!(!body.is_empty(), "exposition body must not be empty");
    for line in body.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("sample line without value: {line:?}"));
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable sample value in {line:?}"
        );
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => (name, Some(rest)),
            None => (series, None),
        };
        let mut chars = name.chars();
        assert!(
            matches!(chars.next(), Some('a'..='z' | 'A'..='Z' | '_' | ':')),
            "bad metric-name start in {line:?}"
        );
        assert!(
            chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric-name character in {line:?}"
        );
        if let Some(labels) = labels {
            let labels = labels
                .strip_suffix('}')
                .unwrap_or_else(|| panic!("unterminated label set in {line:?}"));
            for pair in labels.split(',') {
                let (key, val) = pair
                    .split_once('=')
                    .unwrap_or_else(|| panic!("label without `=` in {line:?}"));
                assert!(
                    !key.is_empty() && key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                );
                assert!(
                    val.starts_with('"') && val.ends_with('"') && val.len() >= 2,
                    "unquoted label value in {line:?}"
                );
            }
        }
    }
}

#[test]
fn metrics_endpoint_serves_valid_exposition_during_batch_traffic() {
    let mut forest = Forest::new();
    for i in 0..40 {
        forest
            .parse_bracket(&format!("a(b{} c(d{}) e)", i % 4, i % 3))
            .unwrap();
    }

    let handle = MetricsServer::bind("127.0.0.1:0")
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server thread");
    let addr = handle.addr();

    // Drive batch traffic on a worker thread while this thread scrapes.
    let worker = std::thread::spawn({
        let forest = forest.clone();
        move || {
            let engine = SearchEngine::new(
                &forest,
                BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
            );
            for round in 0..6 {
                let queries: Vec<&Tree> = (0..20)
                    .map(|i| forest.tree(TreeId(((i + round) % forest.len()) as u32)))
                    .collect();
                engine.knn_batch_threads(&queries, 3, 4);
            }
        }
    });

    // Scrapes racing the traffic must already be well-formed.
    for _ in 0..3 {
        let (head, body) = http_get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert!(head.contains("version=0.0.4"), "{head}");
        assert_parses_as_exposition(&body);
    }
    worker.join().expect("traffic thread");

    // The settled scrape carries every advertised family, and nothing
    // from the removed SLO engine or its window ring: histograms stay
    // cumulative `_bucket` series that a scraper windows for itself.
    let (_, body) = http_get(addr, "/metrics");
    assert_parses_as_exposition(&body);
    for family in ["cascade_", "refine_", "recorder_", "engine_knn_"] {
        assert!(
            body.lines().any(|l| l.starts_with(family)),
            "missing {family}* family in exposition:\n{body}"
        );
    }
    for removed in ["slo_", "window_"] {
        assert!(
            !body
                .lines()
                .any(|l| l.trim_start_matches("# TYPE ").starts_with(removed)),
            "unexpected {removed}* family in exposition:\n{body}"
        );
    }
    assert!(
        body.lines()
            .any(|l| l.starts_with("engine_knn_us_bucket{le=\"+Inf\"}")),
        "engine.knn latency exported as cumulative buckets"
    );
    // Spot-check the funnel made it through with real traffic behind it.
    let propt_evaluated = body
        .lines()
        .find(|l| l.starts_with("cascade_propt_evaluated "))
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse::<u64>().ok())
        .expect("cascade_propt_evaluated sample");
    assert!(propt_evaluated > 0);

    // The recorder endpoint serves the same traffic as structured JSON.
    let (head, body) = http_get(addr, "/recorder.json");
    assert!(head.starts_with("HTTP/1.0 200"), "{head}");
    let doc = treesim_obs::parse_json(&body).expect("recorder.json parses");
    assert_eq!(
        doc.get("schema").and_then(treesim_obs::Json::as_str),
        Some("treesim-recorder/v1")
    );
    let records = doc
        .get("records")
        .and_then(treesim_obs::Json::as_array)
        .expect("records array");
    assert!(records.len() >= 120, "all batch queries were recorded");
    assert!(records.iter().all(|r| {
        r.get("kind").and_then(treesim_obs::Json::as_str) == Some("knn") && r.get("batch").is_some()
    }));

    // The `?since=` cursor resumes from a sequence id: re-fetching past
    // the max id we just saw returns only records newer than it (none,
    // since the traffic stopped before the first fetch).
    let max_id = records
        .iter()
        .filter_map(|r| r.get("id").and_then(treesim_obs::Json::as_u64))
        .max()
        .expect("records carry sequence ids");
    let (head, body) = http_get(addr, &format!("/recorder.json?since={max_id}"));
    assert!(head.starts_with("HTTP/1.0 200"), "{head}");
    let doc = treesim_obs::parse_json(&body).expect("cursored recorder.json parses");
    assert_eq!(
        doc.get("since").and_then(treesim_obs::Json::as_u64),
        Some(max_id)
    );
    let tail = doc
        .get("records")
        .and_then(treesim_obs::Json::as_array)
        .expect("records array");
    assert!(
        tail.iter()
            .filter_map(|r| r.get("id").and_then(treesim_obs::Json::as_u64))
            .all(|id| id > max_id),
        "cursor must only return newer records"
    );
    // A mid-stream cursor returns a strict suffix of the full fetch.
    let (_, body) = http_get(addr, &format!("/recorder.json?since={}", max_id / 2));
    let doc = treesim_obs::parse_json(&body).expect("suffix recorder.json parses");
    let suffix = doc
        .get("records")
        .and_then(treesim_obs::Json::as_array)
        .expect("records array");
    assert!(!suffix.is_empty() && suffix.len() < records.len());

    // The SLO routes are gone with the engine behind them.
    for removed in ["/slo.json", "/health"] {
        let (head, _) = http_get(addr, removed);
        assert!(head.starts_with("HTTP/1.0 404"), "{removed}: {head}");
    }

    handle.shutdown();
}
