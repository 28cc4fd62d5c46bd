//! Minimal std-only HTTP/1.1 listener serving `/metrics` and `/health`,
//! plus an optional POST control seam for runtime reconfiguration.
//!
//! This is deliberately not a web framework: one accept loop on a
//! background thread, one short-lived connection per request,
//! `Connection: close`. It exists so a running replay/live pipeline is
//! scrapeable (Prometheus `/metrics`) and probeable (`/health` JSON)
//! without pulling in an async runtime. A [`ControlHandler`] installed
//! via [`MetricsServer::start_with_control`] receives `POST` requests
//! (path + body) so the embedding process — `upbound serve` — can wire
//! `POST /config` and `POST /drain` without this crate knowing anything
//! about filters.

use crate::recorder::ShardStatus;
use crate::registry::Registry;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Shared liveness/health state published by the pipeline and served
/// as the `/health` JSON document. Cloning shares the state.
#[derive(Clone)]
pub struct HealthState {
    started: Instant,
    inner: Arc<Mutex<HealthInner>>,
}

struct HealthInner {
    watermark_micros: u64,
    fail_mode: String,
    shards: BTreeMap<usize, ShardStatus>,
}

impl std::fmt::Debug for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("HealthState")
            .field("uptime_secs", &self.started.elapsed().as_secs())
            .field("watermark_micros", &inner.watermark_micros)
            .field("fail_mode", &inner.fail_mode)
            .field("shards", &inner.shards.len())
            .finish()
    }
}

impl Default for HealthState {
    fn default() -> Self {
        HealthState::new()
    }
}

impl HealthState {
    /// Fresh state; uptime is measured from this call.
    pub fn new() -> Self {
        HealthState {
            started: Instant::now(),
            inner: Arc::new(Mutex::new(HealthInner {
                watermark_micros: 0,
                fail_mode: "closed".to_string(),
                shards: BTreeMap::new(),
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HealthInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Publishes the trace-time high watermark (microseconds).
    pub fn set_watermark(&self, micros: u64) {
        self.lock().watermark_micros = micros;
    }

    /// Publishes the configured fail mode (`"open"` / `"closed"`).
    pub fn set_fail_mode(&self, mode: &str) {
        self.lock().fail_mode = mode.to_string();
    }

    /// Publishes per-shard supervisor state.
    pub fn update_shard(&self, status: ShardStatus) {
        self.lock().shards.insert(status.shard, status);
    }

    /// Renders the `/health` JSON document.
    pub fn render(&self) -> String {
        let inner = self.lock();
        let quarantined = inner.shards.values().filter(|s| s.quarantined).count();
        let status = if quarantined == 0 { "ok" } else { "degraded" };
        let mut shards = String::new();
        for (i, s) in inner.shards.values().enumerate() {
            if i > 0 {
                shards.push(',');
            }
            shards.push_str(&format!(
                "{{\"shard\":{},\"quarantined\":{},\"panics\":{},\"restarts\":{}}}",
                s.shard, s.quarantined, s.panics, s.restarts
            ));
        }
        format!(
            "{{\"status\":\"{status}\",\"uptime_secs\":{:.3},\"watermark_micros\":{},\"fail_mode\":\"{}\",\"shards\":[{shards}]}}",
            self.started.elapsed().as_secs_f64(),
            inner.watermark_micros,
            inner.fail_mode,
        )
    }
}

/// Outcome of a [`ControlHandler`] invocation, mapped onto the HTTP
/// response: `status` is the numeric code (200/202/400/404/409), `body`
/// the response document (served as `application/json`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlResponse {
    /// HTTP status code for the response.
    pub status: u16,
    /// Response body, served as `application/json`.
    pub body: String,
}

impl ControlResponse {
    /// A `200 OK` response with `body`.
    pub fn ok(body: impl Into<String>) -> ControlResponse {
        ControlResponse {
            status: 200,
            body: body.into(),
        }
    }

    /// A `400 Bad Request` response with `body`.
    pub fn bad_request(body: impl Into<String>) -> ControlResponse {
        ControlResponse {
            status: 400,
            body: body.into(),
        }
    }

    /// A `404 Not Found` response with `body`.
    pub fn not_found(body: impl Into<String>) -> ControlResponse {
        ControlResponse {
            status: 404,
            body: body.into(),
        }
    }
}

/// Callback invoked for each `POST` request: `(path, body) → response`.
/// Runs on the accept thread, so it must be quick and non-blocking —
/// staging an atomic config swap or flipping a drain latch, not doing
/// the work itself.
pub type ControlHandler = Arc<dyn Fn(&str, &str) -> ControlResponse + Send + Sync>;

/// A running `/metrics` + `/health` listener.
///
/// Dropping the handle signals the accept loop to stop and joins it.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for MetricsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9090`, port 0 for ephemeral) and
    /// starts serving `registry` and `health` on a background thread.
    pub fn start(
        addr: &str,
        registry: Registry,
        health: HealthState,
    ) -> std::io::Result<MetricsServer> {
        MetricsServer::launch(addr, registry, health, None)
    }

    /// Like [`start`](Self::start), but also routes `POST` requests to
    /// `control`. Without a handler every `POST` is answered `405`.
    pub fn start_with_control(
        addr: &str,
        registry: Registry,
        health: HealthState,
        control: ControlHandler,
    ) -> std::io::Result<MetricsServer> {
        MetricsServer::launch(addr, registry, health, Some(control))
    }

    fn launch(
        addr: &str,
        registry: Registry,
        health: HealthState,
        control: Option<ControlHandler>,
    ) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("upbound-metrics-http".to_string())
            .spawn(move || {
                while !stop_flag.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            // Serve inline: requests are tiny and the
                            // responses are rendered strings.
                            let _ = serve_one(stream, &registry, &health, control.as_ref());
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(20));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(20)),
                    }
                }
            })?;
        Ok(MetricsServer {
            addr: local,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Hard ceiling on the bytes accepted for one request's request line +
/// headers. Anything larger is answered with `431` and the connection
/// is closed — the two endpoints this server knows about fit in the
/// first line, so a bigger request is a client bug or abuse.
const MAX_REQUEST_BYTES: usize = 2048;

/// Hard ceiling on a `POST` body. Control documents are a handful of
/// key/value pairs; anything larger is answered with `413`.
const MAX_BODY_BYTES: usize = 8192;

/// Total wall-clock budget for reading one request. A client that
/// trickles bytes (slow-loris style) would otherwise hold the single
/// accept thread indefinitely via the per-read timeout alone.
const REQUEST_DEADLINE: Duration = Duration::from_secs(1);

/// Budget for writing the response; a client that stops reading must
/// not wedge the accept loop.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

fn serve_one(
    mut stream: TcpStream,
    registry: &Registry,
    health: &HealthState,
    control: Option<&ControlHandler>,
) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let mut buf = [0u8; MAX_REQUEST_BYTES];
    let mut read = 0;
    let mut complete = false;
    let mut timed_out = false;
    // Read until end-of-headers, the size ceiling, or the deadline.
    while read < buf.len() {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            timed_out = true;
            break;
        }
        stream.set_read_timeout(Some(remaining.min(Duration::from_millis(500))))?;
        match stream.read(&mut buf[read..]) {
            Ok(0) => break,
            Ok(n) => {
                read += n;
                if buf[..read].windows(4).any(|w| w == b"\r\n\r\n") {
                    complete = true;
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => continue,
            Err(e) if e.kind() == std::io::ErrorKind::TimedOut => continue,
            Err(e) => return Err(e),
        }
    }
    if timed_out && !complete {
        return respond(
            &mut stream,
            "408 Request Timeout",
            "text/plain; charset=utf-8",
            "request timed out\n",
        );
    }
    if !complete && read >= buf.len() {
        respond(
            &mut stream,
            "431 Request Header Fields Too Large",
            "text/plain; charset=utf-8",
            "request too large\n",
        )?;
        // Discard (a bounded amount of) whatever else the client already
        // sent: closing with unread bytes queued sends a TCP RST, which
        // can wipe the 431 out of the client's receive buffer before it
        // is read.
        drain_bounded(&mut stream);
        return Ok(());
    }
    let header_end = buf[..read]
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)
        .unwrap_or(read);
    let request = String::from_utf8_lossy(&buf[..header_end]).into_owned();
    let mut parts = request.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("");
    let path = path.split('?').next().unwrap_or(path).to_string();

    if method == "POST" {
        let content_length = request
            .lines()
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse::<usize>().ok())
            .unwrap_or(0);
        if content_length > MAX_BODY_BYTES {
            respond(
                &mut stream,
                "413 Content Too Large",
                "text/plain; charset=utf-8",
                "body too large\n",
            )?;
            // As with 431: drain what the client already sent so
            // closing doesn't RST the response out of its buffer.
            drain_bounded(&mut stream);
            return Ok(());
        }
        // Read the whole declared body, with or without a handler to
        // take it: a reply sent before the body lands would leave it
        // unread at close, and the RST that sends can wipe the reply.
        // Whatever followed the header terminator in the first reads is
        // already body; pull the rest off the socket.
        let mut body = buf[header_end..read].to_vec();
        while body.len() < content_length {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return respond(
                    &mut stream,
                    "408 Request Timeout",
                    "text/plain; charset=utf-8",
                    "request timed out\n",
                );
            }
            stream.set_read_timeout(Some(remaining.min(Duration::from_millis(500))))?;
            let mut chunk = [0u8; 1024];
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => body.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => continue,
                Err(e) if e.kind() == std::io::ErrorKind::TimedOut => continue,
                Err(e) => return Err(e),
            }
        }
        let Some(handler) = control else {
            return respond(
                &mut stream,
                "405 Method Not Allowed",
                "text/plain; charset=utf-8",
                "method not allowed\n",
            );
        };
        body.truncate(content_length);
        let body = String::from_utf8_lossy(&body);
        let reply = handler(&path, &body);
        let status = match reply.status {
            200 => "200 OK".to_string(),
            202 => "202 Accepted".to_string(),
            400 => "400 Bad Request".to_string(),
            404 => "404 Not Found".to_string(),
            409 => "409 Conflict".to_string(),
            other => format!("{other} Control"),
        };
        let mut doc = reply.body;
        if !doc.ends_with('\n') {
            doc.push('\n');
        }
        return respond(&mut stream, &status, "application/json", &doc);
    }

    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_string(),
        )
    } else {
        match path.as_str() {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                crate::export::prometheus::render(&registry.snapshot()),
            ),
            "/health" | "/healthz" => {
                let mut doc = health.render();
                doc.push('\n');
                ("200 OK", "application/json", doc)
            }
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found (try /metrics or /health)\n".to_string(),
            ),
        }
    };
    respond(&mut stream, status, content_type, &body)
}

/// Reads and discards up to 64 KiB of whatever the client already sent,
/// so closing the socket doesn't RST an error response out of the
/// client's receive buffer before it is read.
fn drain_bounded(stream: &mut TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut sink = [0u8; 1024];
    let mut drained = 0usize;
    while drained < 64 * 1024 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::ErrorKind;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let (head, body) = response
            .split_once("\r\n\r\n")
            .expect("response has headers");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_metrics_and_health() {
        let registry = Registry::new();
        registry
            .counter("upbound_test_http_hits_total", "hits")
            .add(3);
        let health = HealthState::new();
        health.set_watermark(42_000_000);
        health.set_fail_mode("open");
        health.update_shard(ShardStatus {
            shard: 0,
            quarantined: false,
            panics: 0,
            restarts: 0,
        });
        let server = MetricsServer::start("127.0.0.1:0", registry, health).expect("bind ephemeral");
        let addr = server.local_addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("upbound_test_http_hits_total 3"), "{body}");
        crate::export::prometheus::parse(&body).expect("served metrics parse");

        let (head, body) = get(addr, "/health");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        assert!(body.contains("\"watermark_micros\":42000000"), "{body}");
        assert!(body.contains("\"fail_mode\":\"open\""), "{body}");

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        server.shutdown();
    }

    fn post(addr: SocketAddr, path: &str, body: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(
            stream,
            "POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let (head, body) = response
            .split_once("\r\n\r\n")
            .expect("response has headers");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn post_without_a_handler_is_405() {
        let server = MetricsServer::start("127.0.0.1:0", Registry::new(), HealthState::new())
            .expect("bind ephemeral");
        let (head, _) = post(server.local_addr(), "/config", "batch_size=8");
        assert!(head.starts_with("HTTP/1.1 405"), "{head}");
        server.shutdown();
    }

    /// Without a handler, a `POST` still reads its declared body before
    /// the `405`: nothing comes back while the body is outstanding.
    #[test]
    fn post_without_a_handler_reads_its_body_before_the_405() {
        let server = MetricsServer::start("127.0.0.1:0", Registry::new(), HealthState::new())
            .expect("bind ephemeral");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        let body = "batch_size=8";
        write!(
            stream,
            "POST /config HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .expect("write headers");
        stream
            .set_read_timeout(Some(Duration::from_millis(30)))
            .expect("read timeout");
        let mut early = [0u8; 64];
        match stream.read(&mut early) {
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            other => panic!("replied before the body was sent: {other:?}"),
        }
        stream.write_all(body.as_bytes()).expect("write body");
        stream.set_read_timeout(None).expect("blocking read");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");
        server.shutdown();
    }

    #[test]
    fn post_routes_body_to_the_control_handler() {
        let seen: Arc<Mutex<Vec<(String, String)>>> = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        let handler: ControlHandler = Arc::new(move |path: &str, body: &str| {
            log.lock()
                .expect("lock")
                .push((path.to_string(), body.to_string()));
            match path {
                "/config" => ControlResponse::ok(format!("{{\"staged\":\"{body}\"}}")),
                "/drain" => ControlResponse {
                    status: 202,
                    body: "{\"draining\":true}".to_string(),
                },
                _ => ControlResponse::not_found("{\"error\":\"unknown endpoint\"}"),
            }
        });
        let server = MetricsServer::start_with_control(
            "127.0.0.1:0",
            Registry::new(),
            HealthState::new(),
            handler,
        )
        .expect("bind ephemeral");
        let addr = server.local_addr();

        let (head, body) = post(addr, "/config", "drop_low_bps=1e6");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("drop_low_bps=1e6"), "{body}");

        let (head, _) = post(addr, "/drain", "");
        assert!(head.starts_with("HTTP/1.1 202"), "{head}");

        let (head, _) = post(addr, "/nope", "x");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        // GETs still work alongside the control seam.
        let (head, _) = get(addr, "/health");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");

        let calls = seen.lock().expect("lock");
        assert_eq!(calls.len(), 3);
        assert_eq!(
            calls[0],
            ("/config".to_string(), "drop_low_bps=1e6".to_string())
        );
        server.shutdown();
    }

    #[test]
    fn oversized_post_body_is_rejected_with_413() {
        let handler: ControlHandler = Arc::new(|_: &str, _: &str| ControlResponse::ok("{}"));
        let server = MetricsServer::start_with_control(
            "127.0.0.1:0",
            Registry::new(),
            HealthState::new(),
            handler,
        )
        .expect("bind ephemeral");
        let big = "x".repeat(MAX_BODY_BYTES + 1);
        let (head, _) = post(server.local_addr(), "/config", &big);
        assert!(head.starts_with("HTTP/1.1 413"), "{head}");
        server.shutdown();
    }

    #[test]
    fn oversized_request_is_rejected_with_431() {
        let server = MetricsServer::start("127.0.0.1:0", Registry::new(), HealthState::new())
            .expect("bind ephemeral");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        // A header blob that overflows MAX_REQUEST_BYTES before the
        // end-of-headers terminator ever arrives.
        let filler = format!("GET /metrics HTTP/1.1\r\nX-Pad: {}\r\n", "a".repeat(4096));
        stream.write_all(filler.as_bytes()).expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(
            response.starts_with("HTTP/1.1 431"),
            "expected 431, got: {}",
            response.lines().next().unwrap_or("")
        );
        server.shutdown();
    }

    #[test]
    fn slow_request_is_rejected_with_408() {
        let server = MetricsServer::start("127.0.0.1:0", Registry::new(), HealthState::new())
            .expect("bind ephemeral");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        // Send an incomplete request and then stall; the server must cut
        // us off at the request deadline instead of waiting forever.
        stream.write_all(b"GET /metrics HT").expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(
            response.starts_with("HTTP/1.1 408"),
            "expected 408, got: {}",
            response.lines().next().unwrap_or("")
        );
        server.shutdown();
    }

    #[test]
    fn health_degrades_when_quarantined() {
        let health = HealthState::new();
        health.update_shard(ShardStatus {
            shard: 2,
            quarantined: true,
            panics: 1,
            restarts: 1,
        });
        let doc = health.render();
        assert!(doc.contains("\"status\":\"degraded\""), "{doc}");
        assert!(doc.contains("\"shard\":2"), "{doc}");
    }
}
