//! A tiny std-only metrics HTTP server — the first brick of the
//! ROADMAP's service front-end.
//!
//! One [`std::net::TcpListener`], one handler thread, four routes:
//!
//! * `GET /metrics` — the registry in Prometheus text exposition format
//!   ([`crate::prometheus::render`]). Histograms are cumulative
//!   `_bucket{le=…}` series, so a scraper computes its own windows.
//! * `GET /snapshot.json` — [`crate::metrics::snapshot`] as JSON.
//! * `GET /recorder.json` — the global flight recorder's held records;
//!   `?since=<seq>` returns only records newer than that sequence id
//!   (malformed cursors get a 400).
//! * `GET /trace.json` — the retained per-query span trees in Chrome
//!   trace-event format ([`crate::trace::chrome_trace_json`]); save it
//!   and load it in `chrome://tracing` or Perfetto.
//!
//! HTTP support is deliberately minimal (HTTP/1.0-style: read the request
//! line, answer, close) — scrapers and `curl` are the only intended
//! clients. Connections are handled sequentially on the server thread
//! with short socket timeouts so a stalled client cannot wedge the
//! endpoint for long.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::prometheus;
use crate::recorder;

/// Per-connection socket timeout (read and write).
const SOCKET_TIMEOUT: Duration = Duration::from_secs(5);

/// A bound-but-not-yet-serving metrics server.
#[derive(Debug)]
pub struct MetricsServer {
    listener: TcpListener,
}

impl MetricsServer {
    /// Binds to `addr` (e.g. `"127.0.0.1:9464"`; port 0 picks an
    /// ephemeral port — read it back with [`MetricsServer::local_addr`]).
    pub fn bind(addr: &str) -> std::io::Result<MetricsServer> {
        Ok(MetricsServer {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The bound socket address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves connections on the calling thread until the process exits
    /// (the CLI's `serve-metrics` foreground mode).
    pub fn serve_forever(self) -> std::io::Result<()> {
        for stream in self.listener.incoming().flatten() {
            handle_connection(stream);
        }
        Ok(())
    }

    /// Serves connections on a background thread; the returned handle
    /// stops the server when shut down or dropped.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.listener.local_addr()?;
        let stop = Arc::new(Mutex::new(false));
        let stop_flag = Arc::clone(&stop);
        let listener = self.listener;
        let join = std::thread::Builder::new()
            .name("obs-metrics-server".to_owned())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop_flag.lock().map(|g| *g).unwrap_or(true) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        handle_connection(stream);
                    }
                }
            })?;
        Ok(ServerHandle {
            addr,
            stop,
            join: Some(join),
        })
    }
}

/// Handle to a background server; dropping it stops the server thread.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<Mutex<bool>>,
    join: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server thread and waits for it to exit.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if let Ok(mut guard) = self.stop.lock() {
            *guard = true;
        }
        // The accept loop is blocked in `incoming()`; poke it with a
        // throwaway connection so it observes the stop flag.
        drop(TcpStream::connect(self.addr));
        if let Some(join) = self.join.take() {
            drop(join.join());
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Routes one connection; I/O errors only fail that connection.
fn handle_connection(stream: TcpStream) {
    drop(stream.set_read_timeout(Some(SOCKET_TIMEOUT)));
    drop(stream.set_write_timeout(Some(SOCKET_TIMEOUT)));
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    crate::metrics::counter("server.requests").inc();
    let path = request_line.split_whitespace().nth(1).unwrap_or("");
    let (status, content_type, body) = respond(path);
    let mut stream = reader.into_inner();
    let header = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    if stream.write_all(header.as_bytes()).is_ok() {
        drop(stream.write_all(body.as_bytes()));
    }
    drop(stream.flush());
}

/// Body for `path`: `(status line, content type, body)`. The query
/// string is split off before routing; only `/recorder.json` reads it.
fn respond(path: &str) -> (&'static str, &'static str, String) {
    let (route, query) = match path.split_once('?') {
        Some((route, query)) => (route, Some(query)),
        None => (path, None),
    };
    match route {
        "/metrics" => (
            "200 OK",
            prometheus::CONTENT_TYPE,
            prometheus::render(&crate::metrics::snapshot()),
        ),
        "/snapshot.json" => (
            "200 OK",
            "application/json",
            crate::metrics::snapshot().to_json_string(),
        ),
        "/recorder.json" => {
            let since = match parse_since(query) {
                Ok(since) => since,
                Err(bad) => {
                    return (
                        "400 Bad Request",
                        "text/plain",
                        format!("400: bad query {bad:?} (expected since=<sequence id>)\n"),
                    )
                }
            };
            (
                "200 OK",
                "application/json",
                recorder::global().to_json_since(since).to_string_pretty(),
            )
        }
        "/trace.json" => (
            "200 OK",
            "application/json",
            crate::trace::chrome_trace_json().to_string_pretty(),
        ),
        _ => (
            "404 Not Found",
            "text/plain",
            "404: try /metrics, /snapshot.json, /recorder.json[?since=N] or /trace.json\n"
                .to_owned(),
        ),
    }
}

/// The `since=<u64>` cursor from a `/recorder.json` query string. No
/// query at all means 0 (everything); anything else must parse.
fn parse_since(query: Option<&str>) -> Result<u64, String> {
    let Some(query) = query else { return Ok(0) };
    match query.split_once('=') {
        Some(("since", value)) => value.parse().map_err(|_| query.to_owned()),
        _ => Err(query.to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        (head.to_owned(), body.to_owned())
    }

    #[test]
    fn routes_serve_metrics_snapshot_and_recorder() {
        crate::metrics::counter("test.server.hits").add(7);
        let handle = MetricsServer::bind("127.0.0.1:0").unwrap().spawn().unwrap();
        let addr = handle.addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert!(head.contains("version=0.0.4"), "{head}");
        assert!(body.contains("test_server_hits"), "{body}");

        let (_, body) = get(addr, "/snapshot.json");
        let snap = crate::MetricsSnapshot::from_json_str(&body).unwrap();
        assert!(snap.counter("test.server.hits").unwrap() >= 7);

        let (_, body) = get(addr, "/recorder.json");
        let doc = crate::json::parse(&body).unwrap();
        assert_eq!(
            doc.get("schema").and_then(crate::Json::as_str),
            Some("treesim-recorder/v1")
        );

        // Create one guaranteed-retained trace, then pull it back out of
        // the endpoint as Chrome trace-event JSON. The sampler knob is
        // global state shared with the trace tests — serialize.
        let _trace_lock = crate::trace::test_lock();
        crate::trace::set_sample_every(1);
        let trace_id = {
            let trace = crate::trace::start_trace();
            let _span = crate::span!("test.server.traced");
            trace.id()
        };
        let (head, body) = get(addr, "/trace.json");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        let doc = crate::json::parse(&body).unwrap();
        let events = doc
            .get("traceEvents")
            .and_then(crate::Json::as_array)
            .expect("traceEvents array");
        let mine = events
            .iter()
            .find(|e| {
                e.get("args")
                    .and_then(|a| a.get("trace"))
                    .and_then(crate::Json::as_u64)
                    == Some(trace_id)
            })
            .expect("the retained trace is served");
        assert_eq!(mine.get("ph").and_then(crate::Json::as_str), Some("X"));

        let (head, body) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.0 404"), "{head}");
        assert!(body.contains("/trace.json"), "{body}");

        handle.shutdown();
        // The listener is gone (connect may briefly succeed on some
        // platforms' backlog, but a fresh bind to the port must work).
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok());
    }

    #[test]
    fn recorder_cursor_filters_and_rejects_garbage() {
        let handle = MetricsServer::bind("127.0.0.1:0").unwrap().spawn().unwrap();
        let addr = handle.addr();

        let (head, body) = get(addr, "/recorder.json?since=18446744073709551615");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        let doc = crate::json::parse(&body).unwrap();
        assert_eq!(doc.get("held").and_then(crate::Json::as_u64), Some(0));
        assert_eq!(
            doc.get("since").and_then(crate::Json::as_u64),
            Some(u64::MAX)
        );

        for bad in ["/recorder.json?since=abc", "/recorder.json?cursor=3"] {
            let (head, body) = get(addr, bad);
            assert!(head.starts_with("HTTP/1.0 400"), "{bad}: {head}");
            assert!(body.contains("since=<sequence id>"), "{body}");
        }

        // Query strings on other routes are ignored, not 404s.
        let (head, _) = get(addr, "/snapshot.json?since=1");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");

        handle.shutdown();
    }
}
