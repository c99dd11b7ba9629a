//! The TCP gateway: accept loop, per-connection handlers, and routing.
//!
//! The edge is a thread-per-connection design on blocking `std::net`
//! sockets with a hard connection cap — the bounded-everything philosophy
//! of `tssa-serve` extended one layer out. Backpressure composes end to
//! end: a client pipelining requests on one connection is serialized by
//! its handler thread; the handler blocks on the ticket it submitted, so
//! at most `max_connections` requests are in flight at the edge; and the
//! service's own bounded admission sheds the rest as 429s. Nothing in the
//! path queues unboundedly.
//!
//! Routes:
//!
//! | route            | behaviour |
//! |------------------|-----------|
//! | `POST /v1/infer` | JSON or binary body → [`Service::submit_with`]; `Timeout-Ms` header sets the deadline |
//! | `GET /metrics`   | consolidated Prometheus exposition, chunked at line boundaries |
//! | `GET /debug/profile` | op-level profiler snapshot — JSON by default, collapsed-stack (flamegraph) with `?format=collapsed`; 404 when the service has no profiler |
//! | `GET /healthz`   | liveness — 200 while the process accepts connections |
//! | `GET /readyz`    | readiness — 503 while shutting down |
//!
//! Shutdown is drain-first: [`Gateway::shutdown`] stops the accept loop,
//! lets every in-flight request complete, and joins all handler threads
//! before returning — the binary then drains the service itself.

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use tssa_obs::MetricsRegistry;
use tssa_serve::{ModelHandle, Service};

use crate::http::{self, HttpError, HttpRequest, Limits};
use crate::wire;

/// Gateway tuning knobs.
#[derive(Clone)]
pub struct GatewayConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Hard cap on concurrently-served connections; excess connections are
    /// refused with a 503 and closed.
    pub max_connections: usize,
    /// Socket read timeout: how often an idle keep-alive handler wakes to
    /// poll the shutdown flag (also bounds how long shutdown waits).
    pub read_timeout: Duration,
    /// Request framing limits.
    pub limits: Limits,
}

impl Default for GatewayConfig {
    fn default() -> GatewayConfig {
        GatewayConfig {
            addr: "127.0.0.1:0".into(),
            max_connections: 128,
            read_timeout: Duration::from_millis(100),
            limits: Limits::default(),
        }
    }
}

/// A callback run before each `/metrics` render to refresh registry
/// series owned by other subsystems (e.g. span-sink counters).
type MetricsRefresher = Box<dyn Fn(&MetricsRegistry) + Send>;

/// One of the gateway's tables. A lock whose holder panicked stays usable:
/// a connection thread that panics does not take the routes down with it.
fn lock<T>(table: &Mutex<T>) -> MutexGuard<'_, T> {
    table.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Everything a connection handler needs, shared by `Arc`.
struct Shared {
    service: Arc<Service>,
    models: Mutex<HashMap<String, ModelHandle>>,
    stopping: AtomicBool,
    active: AtomicUsize,
    config: GatewayConfig,
    refreshers: Mutex<Vec<MetricsRefresher>>,
}

impl Shared {
    fn registry(&self) -> &MetricsRegistry {
        self.service.registry()
    }

    fn count_request(&self, route: &str) {
        self.registry()
            .counter(
                "tssa_net_requests_total",
                "HTTP requests accepted by the gateway, by route",
                &[("route", route)],
            )
            .inc();
    }

    fn count_response(&self, status: u16) {
        self.registry()
            .counter(
                "tssa_net_responses_total",
                "HTTP responses sent by the gateway, by status code",
                &[("code", &status.to_string())],
            )
            .inc();
    }
}

/// The running gateway: owns the accept thread and all handler threads.
pub struct Gateway {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Gateway {
    /// Bind and start accepting.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(config: GatewayConfig, service: Arc<Service>) -> std::io::Result<Gateway> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            service,
            models: Mutex::new(HashMap::new()),
            stopping: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            config,
            refreshers: Mutex::new(Vec::new()),
        });
        shared.registry().gauge(
            "tssa_net_connections",
            "Connections currently being served by the gateway",
            &[],
        );
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let handlers = Arc::clone(&handlers);
            std::thread::Builder::new()
                .name("tssa-net-accept".into())
                .spawn(move || accept_loop(&listener, &shared, &handlers))
                .expect("spawn accept thread")
        };
        Ok(Gateway {
            shared,
            local_addr,
            accept: Some(accept),
            handlers,
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Make `model` routable as `name` on `/v1/infer`. Re-registering a
    /// name swaps the model for subsequent requests.
    pub fn register_model(&self, name: &str, model: ModelHandle) {
        lock(&self.shared.models).insert(name.to_string(), model);
    }

    /// Register a callback run before every `/metrics` render, for
    /// bridging counters owned by other subsystems into the registry.
    pub fn on_metrics<F: Fn(&MetricsRegistry) + Send + 'static>(&self, f: F) {
        lock(&self.shared.refreshers).push(Box::new(f));
    }

    /// Stop accepting, drain in-flight requests, join every thread.
    pub fn shutdown(mut self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *lock(&self.handlers));
        for h in handles {
            let _ = h.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    handlers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        // Connection cap: refuse beyond the limit with a 503 rather than
        // letting handler threads grow without bound.
        let active = shared.active.fetch_add(1, Ordering::SeqCst) + 1;
        if active > shared.config.max_connections {
            shared.active.fetch_sub(1, Ordering::SeqCst);
            shared.count_response(503);
            let mut stream = stream;
            let _ = http::write_response(
                &mut stream,
                503,
                "application/json",
                wire::encode_error("overloaded", "connection limit reached").as_bytes(),
                false,
            );
            continue;
        }
        shared.registry().set_gauge(
            "tssa_net_connections",
            "Connections currently being served by the gateway",
            &[],
            active as f64,
        );
        let conn_shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name("tssa-net-conn".into())
            .spawn(move || {
                handle_connection(stream, &conn_shared);
                let now = conn_shared.active.fetch_sub(1, Ordering::SeqCst) - 1;
                conn_shared.registry().set_gauge(
                    "tssa_net_connections",
                    "Connections currently being served by the gateway",
                    &[],
                    now as f64,
                );
            })
            .expect("spawn connection thread");
        let mut guard = lock(handlers);
        // Reap finished handlers opportunistically so a long-lived gateway
        // does not accumulate joinable-but-dead threads.
        guard.retain(|h| !h.is_finished());
        guard.push(handle);
    }
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    // Every response is one complete write: Nagle's algorithm has nothing to
    // coalesce and would only hold a last partial segment for the peer's ACK.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let request = match http::read_request(&mut reader, &shared.config.limits) {
            Ok(req) => req,
            // Idle keep-alive: poll the shutdown flag and wait on.
            Err(HttpError::Idle) => {
                if shared.stopping.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(HttpError::Closed) => break,
            Err(HttpError::TooLarge(what)) => {
                let status = if what == "body" { 413 } else { 431 };
                shared.count_response(status);
                let _ = http::write_response(
                    &mut writer,
                    status,
                    "application/json",
                    wire::encode_error("too_large", &format!("{what} exceeds limit")).as_bytes(),
                    false,
                );
                break;
            }
            Err(HttpError::Malformed(m)) => {
                shared.count_response(400);
                let _ = http::write_response(
                    &mut writer,
                    400,
                    "application/json",
                    wire::encode_error("malformed", &m).as_bytes(),
                    false,
                );
                break;
            }
            Err(HttpError::Io(_)) => break,
        };
        if !route(&request, &mut writer, shared) {
            break;
        }
        // Drain-first shutdown: the request we already read was served
        // (with `Connection: close` if shutdown began meanwhile); stop
        // reusing the connection now.
        if !request.keep_alive() || shared.stopping.load(Ordering::SeqCst) {
            break;
        }
    }
}

/// Dispatch one request; returns `false` when the connection must close
/// (write failure).
fn route(request: &HttpRequest, writer: &mut TcpStream, shared: &Arc<Shared>) -> bool {
    // Evaluated at write time, after any blocking work: a shutdown that
    // begins while a request executes still closes its connection.
    let keep_alive = || request.keep_alive() && !shared.stopping.load(Ordering::SeqCst);
    let respond = |writer: &mut TcpStream, status: u16, body: &[u8]| -> bool {
        shared.count_response(status);
        http::write_response(writer, status, "application/json", body, keep_alive()).is_ok()
    };
    // Routes may carry a query string (`/debug/profile?format=collapsed`);
    // match on the bare path.
    let (path, query) = request
        .path
        .split_once('?')
        .unwrap_or((request.path.as_str(), ""));
    match (request.method.as_str(), path) {
        ("POST", "/v1/infer") => {
            shared.count_request("infer");
            infer(request, writer, shared)
        }
        ("GET", "/metrics") => {
            shared.count_request("metrics");
            for refresh in lock(&shared.refreshers).iter() {
                refresh(shared.registry());
            }
            let text = shared.service.prometheus();
            shared.count_response(200);
            http::write_chunked(
                writer,
                200,
                "text/plain; version=0.0.4",
                &text,
                4096,
                keep_alive(),
            )
            .is_ok()
        }
        ("GET", "/debug/profile") => {
            shared.count_request("profile");
            let Some(profiler) = shared.service.profiler() else {
                return respond(
                    writer,
                    404,
                    wire::encode_error(
                        "profiler_disabled",
                        "service was started without an execution profiler",
                    )
                    .as_bytes(),
                );
            };
            let snapshot = profiler.snapshot();
            // Bounded either way: entries beyond the cap are the cold tail.
            const MAX_ENTRIES: usize = 500;
            let collapsed = query.split('&').any(|kv| kv == "format=collapsed");
            let (text, content_type) = if collapsed {
                (snapshot.collapsed(MAX_ENTRIES), "text/plain")
            } else {
                (snapshot.json(MAX_ENTRIES), "application/json")
            };
            shared.count_response(200);
            http::write_chunked(writer, 200, content_type, &text, 4096, keep_alive()).is_ok()
        }
        ("GET", "/healthz") => {
            shared.count_request("healthz");
            respond(writer, 200, b"{\"ok\":true,\"status\":\"alive\"}")
        }
        ("GET", "/readyz") => {
            shared.count_request("readyz");
            if shared.stopping.load(Ordering::SeqCst) {
                respond(
                    writer,
                    503,
                    wire::encode_error("shutting_down", "gateway is draining").as_bytes(),
                )
            } else {
                respond(writer, 200, b"{\"ok\":true,\"status\":\"ready\"}")
            }
        }
        ("POST" | "GET", _) => {
            shared.count_request("other");
            respond(
                writer,
                404,
                wire::encode_error("not_found", &format!("no route for {}", request.path))
                    .as_bytes(),
            )
        }
        _ => {
            shared.count_request("other");
            respond(
                writer,
                405,
                wire::encode_error("method_not_allowed", &request.method).as_bytes(),
            )
        }
    }
}

fn infer(request: &HttpRequest, writer: &mut TcpStream, shared: &Arc<Shared>) -> bool {
    // Content negotiation: `application/x-tssa-tensor` selects the binary
    // tagged encoding for both directions; anything else is JSON.
    let binary = wire::is_binary_content_type(request.header("content-type"));
    let content_type = if binary {
        wire::BINARY_CONTENT_TYPE
    } else {
        "application/json"
    };
    let respond = |writer: &mut TcpStream, status: u16, body: &[u8]| -> bool {
        let keep_alive = request.keep_alive() && !shared.stopping.load(Ordering::SeqCst);
        shared.count_response(status);
        http::write_response(writer, status, content_type, body, keep_alive).is_ok()
    };
    let error_body = |kind: &str, message: &str| -> Vec<u8> {
        if binary {
            wire::encode_error_binary(kind, message)
        } else {
            wire::encode_error(kind, message).into_bytes()
        }
    };
    let parsed = if binary {
        wire::parse_infer_binary(&request.body)
    } else {
        match std::str::from_utf8(&request.body) {
            Ok(b) => wire::parse_infer(b),
            Err(_) => Err("body is not UTF-8".to_string()),
        }
    };
    let parsed = match parsed {
        Ok(p) => p,
        Err(e) => return respond(writer, 400, &error_body("invalid_request", &e)),
    };
    // Deadline: the `Timeout-Ms` header, or none — wait without bound.
    let deadline = match request.header("timeout-ms") {
        Some(v) => match v.trim().parse::<u64>() {
            Ok(ms) => Some(Duration::from_millis(ms)),
            Err(_) => {
                return respond(
                    writer,
                    400,
                    &error_body(
                        "invalid_request",
                        &format!("Timeout-Ms header `{v}` is not an integer"),
                    ),
                )
            }
        },
        None => None,
    };
    let model = match lock(&shared.models).get(&parsed.model) {
        Some(m) => m.clone(),
        None => {
            return respond(
                writer,
                404,
                &error_body("unknown_model", &format!("no model `{}`", parsed.model)),
            )
        }
    };
    let outcome = shared
        .service
        .submit_with(&model, parsed.inputs, deadline)
        .and_then(|ticket| ticket.wait());
    match outcome {
        Ok(response) => {
            let encoded = if binary {
                wire::encode_response_binary(&response)
            } else {
                wire::encode_response(&response).map(String::into_bytes)
            };
            match encoded {
                Ok(body) => respond(writer, 200, &body),
                Err(e) => respond(writer, 500, &error_body("encode", &e)),
            }
        }
        Err(e) => {
            let (status, kind) = wire::error_parts(&e);
            respond(writer, status, &error_body(kind, &e.to_string()))
        }
    }
}

/// Client-side helper: send one request over `stream` (head and body in a
/// single write, `TCP_NODELAY` set, as `curl` does) and read the response.
/// Used by tests and embedded smoke checks; not a general HTTP client.
///
/// # Errors
///
/// [`HttpError::Io`] on connection failures, [`HttpError::Malformed`] on
/// unparseable responses.
pub fn roundtrip(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> Result<http::HttpResponse, HttpError> {
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: gateway\r\n");
    for (k, v) in headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    let mut message = head.into_bytes();
    message.extend_from_slice(body);
    stream.set_nodelay(true).map_err(HttpError::Io)?;
    stream.write_all(&message).map_err(HttpError::Io)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(HttpError::Io)?);
    http::read_response(&mut reader)
}
