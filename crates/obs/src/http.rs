//! A dependency-free HTTP/1.1 introspection server (DESIGN.md §16) —
//! the observability slice of the `stayaway serve` daemon ROADMAP parks.
//!
//! Std-only by design: a blocking [`TcpListener`] accept loop on one
//! background thread, a tiny request-line parser, and four read-only
//! endpoints:
//!
//! | endpoint        | payload                                         |
//! |-----------------|--------------------------------------------------|
//! | `/health`       | `ok` (text/plain)                                |
//! | `/metrics`      | Prometheus text exposition of the live registry  |
//! | `/state`        | JSON state document published by the run loop    |
//! | `/events?tail=N`| flight-recorder tail as JSON Lines               |
//!
//! Serving is read-only and decision-inert: handlers snapshot the
//! shared registry/recorder/state and never write back, so an
//! introspected run is bit-for-bit identical to an unobserved one.

use crate::event::{sort_events, EventRecord};
use crate::export::to_prometheus;
use crate::recorder::FlightRecorder;
use crate::registry::MetricsRegistry;
use crate::snapshot::MetricsSnapshot;
use serde::{Number, Value};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// One scalar field of a flat `/state` document (see
/// [`StateCell::publish`]). Renders exactly as the same Rust value would
/// through `json!`: a non-finite float becomes `null`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StateScalar {
    /// An unsigned integer field.
    U64(u64),
    /// A floating-point field.
    F64(f64),
    /// A boolean field.
    Bool(bool),
}

impl StateScalar {
    fn to_value(self) -> Value {
        match self {
            StateScalar::U64(n) => Value::Number(Number::U64(n)),
            StateScalar::F64(x) if x.is_finite() => Value::Number(Number::F64(x)),
            StateScalar::F64(_) => Value::Null,
            StateScalar::Bool(b) => Value::Bool(b),
        }
    }
}

/// What a [`StateCell`] holds: a document handed over whole, or the
/// fields of a flat object that no one has asked to see yet.
#[derive(Debug)]
enum StateDoc {
    Tree(Value),
    Flat(Vec<(&'static str, StateScalar)>),
}

/// A shareable cell holding the `/state` JSON document. The run loop
/// publishes into it (e.g. once per controller period); handlers read
/// whatever is current. Starts as JSON `null`.
///
/// Publishing is far more frequent than scraping, so the per-period path
/// ([`StateCell::publish`]) copies scalars into a reused buffer and the
/// JSON tree is built only when [`StateCell::get`] is called.
#[derive(Debug, Clone)]
pub struct StateCell {
    inner: Arc<Mutex<StateDoc>>,
}

impl Default for StateCell {
    fn default() -> Self {
        StateCell {
            inner: Arc::new(Mutex::new(StateDoc::Tree(Value::Null))),
        }
    }
}

impl StateCell {
    /// An empty (JSON `null`) cell.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the published document.
    pub fn set(&self, value: Value) {
        *crate::lock(&self.inner) = StateDoc::Tree(value);
    }

    /// Replaces the published document with a flat object of `fields`, in
    /// order. Allocation-free once the cell has held a flat document of
    /// this size.
    pub fn publish(&self, fields: &[(&'static str, StateScalar)]) {
        let mut doc = crate::lock(&self.inner);
        match &mut *doc {
            StateDoc::Flat(held) => {
                held.clear();
                held.extend_from_slice(fields);
            }
            StateDoc::Tree(_) => *doc = StateDoc::Flat(fields.to_vec()),
        }
    }

    /// The current document.
    pub fn get(&self) -> Value {
        match &*crate::lock(&self.inner) {
            StateDoc::Tree(value) => value.clone(),
            StateDoc::Flat(fields) => Value::Object(
                fields
                    .iter()
                    .map(|(key, scalar)| (key.to_string(), scalar.to_value()))
                    .collect(),
            ),
        }
    }
}

/// Where `/events` reads from.
#[derive(Debug, Clone)]
enum EventsSource {
    /// No recorder attached; `/events` serves an empty stream.
    None,
    /// A live recorder — the tail reflects events as they are recorded.
    Recorder(FlightRecorder),
    /// A frozen, already-merged stream (post-run publication).
    Frozen(Arc<Vec<EventRecord>>),
}

/// The read-only bundle of shared handles an [`HttpServer`] serves.
#[derive(Debug, Clone)]
pub struct Introspection {
    registry: Option<MetricsRegistry>,
    /// A frozen rollup published after a run completes; takes precedence
    /// over the live registry when set.
    frozen_metrics: Arc<Mutex<Option<MetricsSnapshot>>>,
    state: StateCell,
    events: Arc<Mutex<EventsSource>>,
}

impl Default for Introspection {
    fn default() -> Self {
        Self::new()
    }
}

impl Introspection {
    /// An empty bundle: `/metrics` serves an empty exposition,
    /// `/state` serves `null`, `/events` serves nothing.
    pub fn new() -> Self {
        Introspection {
            registry: None,
            frozen_metrics: Arc::new(Mutex::new(None)),
            state: StateCell::new(),
            events: Arc::new(Mutex::new(EventsSource::None)),
        }
    }

    /// Attaches the live metrics registry behind `/metrics`.
    pub fn with_registry(mut self, registry: MetricsRegistry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Attaches one live flight recorder behind `/events`.
    pub fn with_recorder(self, recorder: FlightRecorder) -> Self {
        *crate::lock(&self.events) = EventsSource::Recorder(recorder);
        self
    }

    /// The shared state cell behind `/state`; the run loop publishes
    /// into it through this handle.
    pub fn state(&self) -> StateCell {
        self.state.clone()
    }

    /// Freezes `/metrics` onto an already-aggregated rollup snapshot
    /// (published after a fleet or cluster run completes); overrides any
    /// live registry.
    pub fn set_metrics(&self, snapshot: MetricsSnapshot) {
        *crate::lock(&self.frozen_metrics) = Some(snapshot);
    }

    /// Freezes `/events` onto an already-merged stream (published after
    /// a fleet or cluster run completes).
    pub fn set_events(&self, events: Vec<EventRecord>) {
        *crate::lock(&self.events) = EventsSource::Frozen(Arc::new(events));
    }

    /// The current event stream in canonical order.
    fn events_snapshot(&self) -> Vec<EventRecord> {
        let source = crate::lock(&self.events).clone();
        match source {
            EventsSource::None => Vec::new(),
            EventsSource::Recorder(recorder) => {
                let mut events = recorder.events();
                sort_events(&mut events);
                events
            }
            EventsSource::Frozen(events) => events.as_ref().clone(),
        }
    }
}

/// One routed response: status, content type, body.
struct Response {
    status: u16,
    content_type: &'static str,
    body: String,
}

impl Response {
    fn ok(content_type: &'static str, body: String) -> Self {
        Response {
            status: 200,
            content_type,
            body,
        }
    }

    fn error(status: u16, message: &str) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: format!("{message}\n"),
        }
    }

    fn status_text(&self) -> &'static str {
        match self.status {
            200 => "OK",
            404 => "Not Found",
            405 => "Method Not Allowed",
            _ => "Bad Request",
        }
    }
}

/// Routes one request. Split from the socket plumbing so unit tests
/// can exercise every endpoint without opening ports.
fn route(intro: &Introspection, method: &str, target: &str) -> Response {
    if method != "GET" {
        return Response::error(405, "only GET is supported");
    }
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path, Some(query)),
        None => (target, None),
    };
    match path {
        "/health" => Response::ok("text/plain; charset=utf-8", "ok\n".to_string()),
        "/metrics" => {
            let frozen = crate::lock(&intro.frozen_metrics).clone();
            let snapshot = frozen
                .or_else(|| intro.registry.as_ref().map(MetricsRegistry::snapshot))
                .unwrap_or_default();
            Response::ok(
                "text/plain; version=0.0.4; charset=utf-8",
                to_prometheus(&snapshot),
            )
        }
        "/state" => {
            let mut body =
                serde_json::to_string_pretty(&intro.state.get()).expect("state serializes");
            body.push('\n');
            Response::ok("application/json; charset=utf-8", body)
        }
        "/events" => {
            let mut events = intro.events_snapshot();
            if let Some(tail) = query.and_then(parse_tail) {
                let skip = events.len().saturating_sub(tail);
                events.drain(..skip);
            }
            Response::ok(
                "application/x-ndjson; charset=utf-8",
                crate::event::events_to_jsonl(&events),
            )
        }
        _ => Response::error(404, "unknown path (try /health, /metrics, /state, /events)"),
    }
}

/// Extracts `tail=N` from a query string; other parameters are ignored.
fn parse_tail(query: &str) -> Option<usize> {
    query
        .split('&')
        .find_map(|pair| pair.strip_prefix("tail="))
        .and_then(|n| n.parse().ok())
}

/// Reads the request head (request line + headers) and answers it.
fn handle_connection(intro: &Introspection, stream: &mut TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 16 * 1024 {
            break;
        }
    }
    let text = String::from_utf8_lossy(&head);
    let mut parts = text.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("/");
    let response = route(intro, method, target);
    let payload = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        response.status,
        response.status_text(),
        response.content_type,
        response.body.len(),
        response.body,
    );
    stream.write_all(payload.as_bytes())
}

/// A running introspection server. Dropping (or calling
/// [`HttpServer::shutdown`]) stops the accept loop and joins the
/// serving thread.
#[derive(Debug)]
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (e.g. `127.0.0.1:8080`, or port `0` for an
    /// ephemeral port) and starts serving `intro` on a background
    /// thread.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn serve(addr: &str, intro: Introspection) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("stayaway-http".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop_flag.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(mut stream) = stream else { continue };
                    // Serve inline: endpoints are cheap snapshots and the
                    // introspection plane needs no concurrency.
                    let _ = handle_connection(&intro, &mut stream);
                }
            })?;
        Ok(HttpServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the serving thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.stop_and_join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Layer};

    fn demo_intro() -> Introspection {
        let registry = MetricsRegistry::new();
        registry
            .counter("stayaway_demo_events_total", "events")
            .add(7);
        let recorder = FlightRecorder::for_scope(0, "run");
        for tick in 0..5 {
            recorder.record(
                tick,
                Layer::Controller,
                EventKind::Throttle,
                None,
                Vec::new(),
            );
        }
        Introspection::new()
            .with_registry(registry)
            .with_recorder(recorder)
    }

    #[test]
    fn routes_health_metrics_state_events() {
        let intro = demo_intro();
        intro.state().set(serde_json::json!({"beta": 0.5}));
        let health = route(&intro, "GET", "/health");
        assert_eq!((health.status, health.body.as_str()), (200, "ok\n"));
        let metrics = route(&intro, "GET", "/metrics");
        assert!(metrics.body.contains("stayaway_demo_events_total 7"));
        crate::promlint::validate(&metrics.body).expect("exposition lints clean");
        let state = route(&intro, "GET", "/state");
        assert!(state.body.contains("\"beta\""));
        let events = route(&intro, "GET", "/events");
        assert_eq!(events.body.lines().count(), 5);
    }

    #[test]
    fn a_published_flat_document_renders_as_the_eager_tree_did() {
        let cell = StateCell::new();
        assert_eq!(cell.get(), Value::Null);
        let (tick, beta, throttling, gone) = (7u64, 1.0f64, true, f64::NAN);
        cell.publish(&[
            ("tick", StateScalar::U64(tick)),
            ("beta", StateScalar::F64(beta)),
            ("throttling", StateScalar::Bool(throttling)),
            ("gone", StateScalar::F64(gone)),
        ]);
        let eager = serde_json::json!({
            "tick": tick,
            "beta": beta,
            "throttling": throttling,
            "gone": gone,
        });
        assert_eq!(cell.get(), eager);
        assert_eq!(
            serde_json::to_string_pretty(&cell.get()).unwrap(),
            "{\n  \"tick\": 7,\n  \"beta\": 1.0,\n  \"throttling\": true,\n  \"gone\": null\n}"
        );
        // A second publish replaces every field; a whole document replaces
        // the flat one, and the other way round.
        cell.publish(&[("tick", StateScalar::U64(8))]);
        assert_eq!(cell.get(), serde_json::json!({"tick": 8u64}));
        cell.set(serde_json::json!({"cells": [1, 2]}));
        assert_eq!(cell.get(), serde_json::json!({"cells": [1, 2]}));
        cell.publish(&[("tick", StateScalar::U64(9))]);
        assert_eq!(cell.get(), serde_json::json!({"tick": 9u64}));
    }

    #[test]
    fn a_reader_that_panics_holding_the_cell_does_not_stop_the_publisher() {
        let cell = StateCell::new();
        cell.publish(&[("tick", StateScalar::U64(1))]);
        crate::poison(&cell.inner);
        cell.publish(&[("tick", StateScalar::U64(2))]);
        assert_eq!(cell.get(), serde_json::json!({"tick": 2u64}));
        cell.set(Value::Null);
        assert_eq!(cell.get(), Value::Null);
    }

    #[test]
    fn events_tail_limits_the_stream() {
        let intro = demo_intro();
        let tail = route(&intro, "GET", "/events?tail=2");
        assert_eq!(tail.body.lines().count(), 2);
        let back = crate::event::events_from_jsonl(&tail.body).unwrap();
        assert_eq!(back[0].tick, 3);
        // An oversized or malformed tail serves the whole stream.
        assert_eq!(
            route(&intro, "GET", "/events?tail=99").body.lines().count(),
            5
        );
        assert_eq!(
            route(&intro, "GET", "/events?tail=x").body.lines().count(),
            5
        );
    }

    #[test]
    fn frozen_metrics_replace_the_live_registry() {
        let intro = demo_intro();
        let rollup = MetricsRegistry::new();
        rollup.counter("stayaway_rollup_total", "rollup").add(3);
        intro.set_metrics(rollup.snapshot());
        let metrics = route(&intro, "GET", "/metrics");
        assert!(metrics.body.contains("stayaway_rollup_total 3"));
        assert!(!metrics.body.contains("stayaway_demo_events_total"));
    }

    #[test]
    fn frozen_streams_replace_live_recorders() {
        let intro = demo_intro();
        intro.set_events(Vec::new());
        assert!(route(&intro, "GET", "/events").body.is_empty());
    }

    #[test]
    fn unknown_paths_and_methods_are_rejected() {
        let intro = Introspection::new();
        assert_eq!(route(&intro, "GET", "/nope").status, 404);
        assert_eq!(route(&intro, "POST", "/health").status, 405);
        // Bare-bundle endpoints still answer.
        assert_eq!(route(&intro, "GET", "/metrics").status, 200);
        assert_eq!(route(&intro, "GET", "/state").body, "null\n");
    }

    #[test]
    fn serves_over_a_real_socket_and_shuts_down() {
        let server = HttpServer::serve("127.0.0.1:0", demo_intro()).unwrap();
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /health HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.ends_with("ok\n"), "{response}");
        // The live exposition fetched over the wire must lint clean.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, body)| body)
            .unwrap_or_default();
        assert!(body.contains("stayaway_demo_events_total 7"), "{body}");
        crate::promlint::validate(body).expect("socket-fetched exposition lints clean");
        server.shutdown();
        // The port is released once the thread joins.
        assert!(TcpListener::bind(addr).is_ok());
    }
}
