//! The network front of the service: one accept thread feeding a
//! bounded connection queue, a fixed worker pool draining it, and the
//! robustness fences the ISSUE's contract demands:
//!
//! * **Admission control** — a full queue sheds load *with an answer*:
//!   HTTP 503, a typed `overloaded` body and a `Retry-After` hint, so
//!   clients back off instead of timing out blind.
//! * **Panic isolation** — each request runs inside `catch_unwind`; a
//!   panicking handler (or an injected chaos panic) costs one response
//!   (`internal_panic`), never the worker thread, never the process.
//! * **Bounded everything** — socket read/write timeouts, header/body
//!   caps, and per-request deadlines mean no connection can pin a
//!   worker forever.
//!
//! Chaos integration: the connection loop polls
//! [`chaos::hit("serve.request")`](pkgrec_trace::chaos::hit) after
//! reading each request; a `drop` directive severs the connection
//! mid-flight, which is exactly the fault the integration suite uses
//! to prove clients observe clean EOF rather than a hung socket.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pkgrec_trace::chaos;

use crate::http::{self, HttpError, Request};
use crate::service::{Metrics, RequestCtx, ServeError, Service};

/// The response header carrying each request's trace id.
pub const REQUEST_ID_HEADER: &str = "x-pkgrec-request-id";

/// Network-side knobs (the solve-side ones live in
/// [`ServiceConfig`](crate::service::ServiceConfig)).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:7878` (port 0 for ephemeral).
    pub listen: String,
    /// Worker threads draining the connection queue.
    pub workers: usize,
    /// Connection-queue capacity; beyond it, admission control sheds.
    pub queue_cap: usize,
    /// Socket read/write timeout, milliseconds.
    pub io_timeout_ms: u64,
    /// The `Retry-After` hint on shed load, milliseconds.
    pub retry_after_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_cap: 64,
            io_timeout_ms: 5_000,
            retry_after_ms: 100,
        }
    }
}

/// The bounded handoff between the accept thread and the workers.
/// Plain `Mutex` + `Condvar`; poisoning is recovered (`into_inner`)
/// because the queue state is a `VecDeque` that is valid at every
/// intermediate step.
struct ConnQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    cap: usize,
    /// Mirror of the queue length, exported as the `queue_depth`
    /// gauge so saturation is visible before load shedding starts.
    depth: AtomicU64,
}

struct QueueState {
    /// Queued connections, each stamped with its enqueue time so the
    /// first request on it can report its queue latency.
    conns: VecDeque<(TcpStream, Instant)>,
    closed: bool,
}

impl ConnQueue {
    fn new(cap: usize) -> ConnQueue {
        ConnQueue {
            state: Mutex::new(QueueState {
                conns: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            cap: cap.max(1),
            depth: AtomicU64::new(0),
        }
    }

    /// Enqueue, or hand the stream back when full/closed — the caller
    /// owes the peer a 503 in that case.
    fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.closed || state.conns.len() >= self.cap {
            return Err(stream);
        }
        state.conns.push_back((stream, Instant::now()));
        self.depth.store(state.conns.len() as u64, Ordering::Relaxed);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeue, blocking; `None` once closed and drained.
    fn pop(&self) -> Option<(TcpStream, Instant)> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(conn) = state.conns.pop_front() {
                self.depth.store(state.conns.len() as u64, Ordering::Relaxed);
                return Some(conn);
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    fn close(&self) {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .closed = true;
        self.ready.notify_all();
    }
}

/// A running server. Dropping the handle shuts it down; call
/// [`shutdown`](ServerHandle::shutdown) for an explicit, joined stop.
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<Service>,
    stop: Arc<AtomicBool>,
    queue: Arc<ConnQueue>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service, e.g. to read metrics from tests.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Stop accepting, drain the queue, join every thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.accept.is_none() {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        self.queue.close();
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        // Final flush: anything the workers logged is on disk before
        // shutdown returns.
        self.service.close_access_log();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Bind and start serving. Returns once the listener is live; the
/// accept loop and workers run on background threads until
/// [`ServerHandle::shutdown`].
pub fn start(config: ServerConfig, service: Service) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.listen)?;
    let addr = listener.local_addr()?;
    let service = Arc::new(service);
    let stop = Arc::new(AtomicBool::new(false));
    let queue = Arc::new(ConnQueue::new(config.queue_cap));
    let io_timeout = Duration::from_millis(config.io_timeout_ms.max(1));

    let mut workers = Vec::with_capacity(config.workers.max(1));
    for _ in 0..config.workers.max(1) {
        let service = Arc::clone(&service);
        let queue = Arc::clone(&queue);
        workers.push(std::thread::spawn(move || {
            while let Some((stream, enqueued)) = queue.pop() {
                service
                    .metrics
                    .queue_depth
                    .store(queue.depth.load(Ordering::Relaxed), Ordering::Relaxed);
                let _ = stream.set_read_timeout(Some(io_timeout));
                let _ = stream.set_write_timeout(Some(io_timeout));
                let _ = stream.set_nodelay(true);
                serve_connection(&service, stream, enqueued);
            }
        }));
    }

    let accept = {
        let service = Arc::clone(&service);
        let queue = Arc::clone(&queue);
        let stop = Arc::clone(&stop);
        let retry_after = config.retry_after_ms;
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                if let Err(mut shed) = queue.push(stream) {
                    // Shed load with an answer, not a silent drop.
                    Metrics::bump(&service.metrics.rejected_overload);
                    pkgrec_trace::counter!("serve.rejected.overload");
                    let err = ServeError::overloaded(retry_after);
                    let id = service.next_request_id();
                    let _ = shed.set_write_timeout(Some(Duration::from_millis(250)));
                    let retry_secs = retry_after.div_ceil(1000).max(1).to_string();
                    let _ = http::write_response(
                        &mut shed,
                        err.status,
                        &[
                            ("Retry-After", retry_secs.as_str()),
                            (REQUEST_ID_HEADER, id.as_str()),
                        ],
                        &err.body_with_id(Some(&id)),
                        false,
                    );
                } else {
                    service
                        .metrics
                        .queue_depth
                        .store(queue.depth.load(Ordering::Relaxed), Ordering::Relaxed);
                }
            }
        })
    };

    Ok(ServerHandle {
        addr,
        service,
        stop,
        queue,
        accept: Some(accept),
        workers,
    })
}

/// Serve one connection until it closes, times out, errs, or a chaos
/// directive severs it. `enqueued` is when the accept thread queued the
/// connection; the first request reports the difference as its queue
/// latency (keep-alive follow-ups report 0).
fn serve_connection(service: &Service, mut stream: TcpStream, enqueued: Instant) {
    let mut queue_us = enqueued.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    loop {
        let req = match http::read_request(&mut stream) {
            Ok(req) => req,
            Err(HttpError::Closed | HttpError::Timeout | HttpError::Io(_)) => return,
            Err(HttpError::TooLarge(what)) => {
                Metrics::bump(&service.metrics.rejected_bad_request);
                pkgrec_trace::counter!("serve.rejected.bad_request");
                let id = service.next_request_id();
                let err = ServeError::new(413, "bad_request", format!("{what} too large"));
                let _ = http::write_response(
                    &mut stream,
                    err.status,
                    &[(REQUEST_ID_HEADER, id.as_str())],
                    &err.body_with_id(Some(&id)),
                    false,
                );
                return;
            }
            Err(HttpError::Malformed(m)) => {
                Metrics::bump(&service.metrics.rejected_bad_request);
                pkgrec_trace::counter!("serve.rejected.bad_request");
                let id = service.next_request_id();
                let err = ServeError::new(400, "bad_request", m);
                // Framing is broken; answering then closing is all we
                // can do safely.
                let _ = http::write_response(
                    &mut stream,
                    err.status,
                    &[(REQUEST_ID_HEADER, id.as_str())],
                    &err.body_with_id(Some(&id)),
                    false,
                );
                return;
            }
        };
        // Fault-injection point: `drop@serve.request:N` severs here,
        // after the read, before any response — the harshest client-
        // visible failure short of a crash.
        if chaos::hit("serve.request") {
            return;
        }
        let ctx = RequestCtx {
            id: service.next_request_id(),
            queue_us,
        };
        queue_us = 0;
        let keep_alive = req.keep_alive;
        let response = route(service, &req, &ctx);
        if http::write_response_typed(
            &mut stream,
            response.status,
            response.content_type,
            &[(REQUEST_ID_HEADER, ctx.id.as_str())],
            &response.body,
            keep_alive,
        )
        .is_err()
        {
            return;
        }
        if !keep_alive {
            return;
        }
    }
}

/// A routed response: status, body, and the body's content type
/// (JSON everywhere except the Prometheus exposition).
struct Routed {
    status: u16,
    body: String,
    content_type: &'static str,
}

impl Routed {
    fn json((status, body): (u16, String)) -> Routed {
        Routed {
            status,
            body,
            content_type: "application/json",
        }
    }
}

/// The value of `key` in a raw query string (`a=1&b=2`). No percent
/// decoding: the parameters this server accepts (`format`, `db`) are
/// plain identifiers.
fn query_param<'a>(query: Option<&'a str>, key: &str) -> Option<&'a str> {
    query?.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        (k == key).then_some(v)
    })
}

/// Run `f` under a panic fence: a panic — organic or chaos-injected at
/// any `counter!` probe site — becomes a typed `internal_panic`
/// response and the worker lives on.
fn fenced(service: &Service, id: &str, f: impl FnOnce() -> (u16, String)) -> (u16, String) {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(response) => response,
        Err(payload) => {
            Metrics::bump(&service.metrics.worker_panics);
            pkgrec_trace::counter!("serve.worker_panics");
            let err = ServeError::new(
                500,
                "internal_panic",
                format!("request handler panicked: {}", panic_text(payload.as_ref())),
            );
            (err.status, err.body_with_id(Some(id)))
        }
    }
}

/// Dispatch one request.
fn route(service: &Service, req: &Request, ctx: &RequestCtx) -> Routed {
    let (path, query) = match req.path.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (req.path.as_str(), None),
    };
    match (req.method.as_str(), path) {
        ("GET", "/health") => Routed::json((200, "{\"status\":\"ok\"}".to_string())),
        ("GET", "/metrics") => match query_param(query, "format") {
            None | Some("json") => Routed::json((200, service.metrics_json())),
            Some("prometheus") => Routed {
                status: 200,
                body: service.metrics_prometheus(),
                content_type: "text/plain; version=0.0.4",
            },
            Some(other) => {
                let err = ServeError::new(
                    400,
                    "bad_request",
                    format!("unknown metrics format `{other}` (json, prometheus)"),
                );
                Routed::json((err.status, err.body_with_id(Some(&ctx.id))))
            }
        },
        ("GET", "/debug/slow") => Routed::json((200, service.debug_slow_json())),
        ("GET" | "POST", "/explain") => {
            let db = query_param(query, "db");
            Routed::json(fenced(service, &ctx.id, || {
                service.handle_explain(db, &req.body)
            }))
        }
        ("POST", "/solve") => Routed::json(fenced(service, &ctx.id, || {
            service.handle_solve_ctx(&req.body, ctx)
        })),
        ("POST", _) | ("GET", _) => {
            let err = ServeError::new(404, "not_found", format!("no route for {path}"));
            Routed::json((err.status, err.body_with_id(Some(&ctx.id))))
        }
        (method, _) => {
            let err = ServeError::new(405, "bad_request", format!("method {method} not allowed"));
            Routed::json((err.status, err.body_with_id(Some(&ctx.id))))
        }
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_sheds_when_full_and_drains_in_order() {
        let q = ConnQueue::new(1);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let b = TcpStream::connect(addr).unwrap();
        assert!(q.push(a).is_ok());
        assert!(q.push(b).is_err(), "second conn exceeds cap 1");
        assert!(q.pop().is_some());
        q.close();
        assert!(q.pop().is_none());
        let c = TcpStream::connect(addr).unwrap();
        assert!(q.push(c).is_err(), "closed queue refuses work");
    }

    #[test]
    fn panic_payload_text_is_extracted() {
        let p = catch_unwind(|| panic!("boom {}", 1)).unwrap_err();
        assert_eq!(panic_text(p.as_ref()), "boom 1");
        let p = catch_unwind(|| panic!("static boom")).unwrap_err();
        assert_eq!(panic_text(p.as_ref()), "static boom");
    }
}
