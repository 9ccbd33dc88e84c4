//! End-to-end test of the request-scoped observability contract: the
//! id the server mints for a request is returned in the
//! `x-pkgrec-request-id` response header and must correlate, for that
//! same request, the response body, the `/debug/slow` ring entry, the
//! structured access-log line, and the flight-recorder export — one
//! id, four places, zero ambiguity about which request did what.
//!
//! Every request's telemetry is armed from its `ServiceConfig` and
//! flight directory alone, on the thread that serves it, so these
//! tests share no switch and need no lock.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use pkgrec::data::text::parse_database;
use pkgrec::serve::server::REQUEST_ID_HEADER;
use pkgrec::serve::{start, AccessLog, ServerConfig, ServerHandle, Service, ServiceConfig};
use pkgrec::trace::json::{self, Json};

const DB: &str = "\
relation item(id: int, price: int)
1, 10
2, 20
3, 30
4, 40
";

const QUERY: &str = "q(x, p) :- item(x, p).";

/// A scratch directory that cleans up after itself even on panic.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("pkgrec-obs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One request on a fresh connection; returns (status, headers, body).
/// Unlike the robustness tests' reader this keeps the raw header block
/// so the `x-pkgrec-request-id` header can be inspected.
fn request(handle: &ServerHandle, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let msg = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(msg.as_bytes()).expect("write request");

    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break i;
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => panic!("connection died before a full response"),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {head}"));
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.parse().ok())
        .expect("Content-Length header");
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => panic!("connection died mid-body"),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
        }
    }
    body.truncate(content_length);
    (status, head, String::from_utf8_lossy(&body).to_string())
}

/// The value of `header` in a raw header block, case-insensitive name.
fn header_value(head: &str, header: &str) -> Option<String> {
    head.lines().find_map(|l| {
        let (name, value) = l.split_once(':')?;
        name.eq_ignore_ascii_case(header)
            .then(|| value.trim().to_string())
    })
}

#[test]
fn request_id_correlates_header_body_slow_ring_access_log_and_flight() {
    let scratch = Scratch::new("correlate");
    let log_path = scratch.join("access.jsonl");
    let flight_dir = scratch.join("flight");
    std::fs::create_dir_all(&flight_dir).unwrap();

    let mut service = Service::new(ServiceConfig {
        slow_threshold_ms: 0, // everything lands in the slow ring
        ..ServiceConfig::default()
    });
    service.add_db("shop", parse_database(DB).expect("fixture db parses"));
    service.set_access_log(AccessLog::open(&log_path).expect("open access log"));
    // The flight directory alone arms per-request recording.
    service.set_flight_dir(&flight_dir);
    let handle = start(ServerConfig::default(), service).expect("bind loopback");

    // A counting solve enumerates packages, so the flight recorder has
    // events to export for this request.
    let body = format!(r#"{{"db":"shop","problem":"count","query":"{QUERY}","max_size":4}}"#);
    let (status, head, text) = request(&handle, "POST", "/solve", &body);
    assert_eq!(status, 200, "{text}");

    // The header id and the body id are the same id.
    let id = header_value(&head, REQUEST_ID_HEADER)
        .unwrap_or_else(|| panic!("missing {REQUEST_ID_HEADER} in {head}"));
    assert!(id.starts_with("req-"), "unexpected id format `{id}`");
    let resp = json::parse(&text).expect("solve body is JSON");
    assert_eq!(resp.get("request_id").and_then(Json::as_str), Some(&*id));

    // The same id names the request's entry in the slow ring.
    let (status, _, slow_text) = request(&handle, "GET", "/debug/slow", "");
    assert_eq!(status, 200);
    let slow = json::parse(&slow_text).expect("/debug/slow is JSON");
    let entries = slow.get("slow").and_then(Json::as_array).expect("slow array");
    let entry = entries
        .iter()
        .find(|e| e.get("request_id").and_then(Json::as_str) == Some(&*id))
        .unwrap_or_else(|| panic!("id {id} not in slow ring: {slow_text}"));
    assert_eq!(entry.get("db").and_then(Json::as_str), Some("shop"));
    assert_eq!(entry.get("outcome").and_then(Json::as_str), Some("exact"));
    assert_eq!(entry.get("status").and_then(Json::as_u64), Some(200));

    // The same id names the flight-recorder export, and the export is
    // well-formed JSONL with at least one search event.
    let flight_path = flight_dir.join(format!("{id}.flight.jsonl"));
    let recording = std::fs::read_to_string(&flight_path)
        .unwrap_or_else(|e| panic!("flight export {} missing: {e}", flight_path.display()));
    let lines: Vec<&str> = recording.lines().collect();
    assert!(!lines.is_empty(), "flight export must not be empty");
    for line in &lines {
        json::parse(line).unwrap_or_else(|e| panic!("bad flight JSONL line `{line}`: {e}"));
    }

    // Shutdown flushes the access log; the same id tags its line.
    handle.shutdown();
    let log = std::fs::read_to_string(&log_path).expect("read access log");
    let line = log
        .lines()
        .find(|l| l.contains(&format!(r#""request_id":"{id}""#)))
        .unwrap_or_else(|| panic!("id {id} not in access log:\n{log}"));
    let record = json::parse(line).expect("access-log line is JSON");
    assert_eq!(record.get("db").and_then(Json::as_str), Some("shop"));
    assert_eq!(record.get("problem").and_then(Json::as_str), Some("count"));
    assert_eq!(record.get("outcome").and_then(Json::as_str), Some("exact"));
    assert_eq!(record.get("status").and_then(Json::as_u64), Some(200));
    assert!(record.get("total_us").and_then(Json::as_u64).is_some());
    assert!(record.get("solve_us").and_then(Json::as_u64).is_some());
}

#[test]
fn tail_sampled_profile_reaches_debug_slow_and_disk() {
    let scratch = Scratch::new("profile");
    let flight_dir = scratch.join("flight");
    std::fs::create_dir_all(&flight_dir).unwrap();

    let mut service = Service::new(ServiceConfig {
        profile: true,
        slow_threshold_ms: 0, // tail-sample every request
        ..ServiceConfig::default()
    });
    service.add_db("shop", parse_database(DB).expect("fixture db parses"));
    service.set_flight_dir(&flight_dir);
    let handle = start(ServerConfig::default(), service).expect("bind loopback");

    let body = format!(r#"{{"db":"shop","problem":"count","query":"{QUERY}","max_size":4}}"#);
    let (status, head, text) = request(&handle, "POST", "/solve", &body);
    assert_eq!(status, 200, "{text}");
    let id = header_value(&head, REQUEST_ID_HEADER).expect("request id header");

    // The same id names the request's entry in the slow ring, and the
    // entry carries a timeline summary with real phases.
    let (status, _, prof_text) = request(&handle, "GET", "/debug/slow", "");
    assert_eq!(status, 200);
    let prof = json::parse(&prof_text).expect("/debug/slow is JSON");
    assert_eq!(prof.get("profile").and_then(Json::as_bool), Some(true));
    let entries = prof
        .get("slow")
        .and_then(Json::as_array)
        .expect("slow array");
    let entry = entries
        .iter()
        .find(|e| e.get("request_id").and_then(Json::as_str) == Some(&*id))
        .unwrap_or_else(|| panic!("id {id} not in slow ring: {prof_text}"));
    assert_eq!(entry.get("status").and_then(Json::as_u64), Some(200));
    assert_eq!(entry.get("outcome").and_then(Json::as_str), Some("exact"));
    let timeline = entry.get("timeline").expect("timeline summary");
    let phases = timeline
        .get("phases")
        .and_then(Json::as_array)
        .expect("phase totals");
    assert!(
        phases
            .iter()
            .any(|p| p.get("name").and_then(Json::as_str) == Some("compile")),
        "no compile phase in {prof_text}"
    );

    // The same id names the on-disk Chrome trace next to the flight
    // exports, and that file is a self-identifying valid trace.
    let profile_path = flight_dir.join(format!("{id}.profile.json"));
    let trace = std::fs::read_to_string(&profile_path)
        .unwrap_or_else(|e| panic!("profile export {} missing: {e}", profile_path.display()));
    let parsed = json::parse(&trace).expect("profile export is JSON");
    assert_eq!(parsed.get("request_id").and_then(Json::as_str), Some(&*id));
    assert!(
        parsed
            .get("traceEvents")
            .and_then(Json::as_array)
            .is_some_and(|evs| !evs.is_empty()),
        "empty traceEvents in {trace}"
    );
    handle.shutdown();
}

#[test]
fn error_responses_carry_the_request_id_in_header_and_body() {
    let mut service = Service::new(ServiceConfig::default());
    service.add_db("shop", parse_database(DB).unwrap());
    let handle = start(ServerConfig::default(), service).unwrap();

    // A typed solve error still gets an id in header and body.
    let (status, head, text) = request(
        &handle,
        "POST",
        "/solve",
        r#"{"db":"void","problem":"eval","query":"q(x, p) :- item(x, p)."}"#,
    );
    assert_eq!(status, 404);
    let id = header_value(&head, REQUEST_ID_HEADER).expect("id on error response");
    let resp = json::parse(&text).unwrap();
    assert_eq!(resp.get("request_id").and_then(Json::as_str), Some(&*id));
    assert_eq!(
        resp.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
        Some("unknown_db")
    );

    // Unknown routes too: every response names its request.
    let (status, head, text) = request(&handle, "GET", "/nope", "");
    assert_eq!(status, 404);
    let id = header_value(&head, REQUEST_ID_HEADER).expect("id on 404 route");
    assert!(text.contains(&id), "{text}");

    // Distinct requests get distinct ids.
    let (_, head_a, _) = request(&handle, "GET", "/health", "");
    let (_, head_b, _) = request(&handle, "GET", "/health", "");
    let a = header_value(&head_a, REQUEST_ID_HEADER);
    let b = header_value(&head_b, REQUEST_ID_HEADER);
    assert!(a.is_some() && b.is_some() && a != b, "{a:?} vs {b:?}");
    handle.shutdown();
}

#[test]
fn prometheus_exposition_and_explain_answer_over_http() {
    let mut service = Service::new(ServiceConfig::default());
    service.add_db("shop", parse_database(DB).unwrap());
    let handle = start(ServerConfig::default(), service).unwrap();

    let body = format!(r#"{{"db":"shop","problem":"count","query":"{QUERY}","max_size":3}}"#);
    let (status, _, _) = request(&handle, "POST", "/solve", &body);
    assert_eq!(status, 200);

    // Prometheus text format on the same /metrics path, content-typed
    // as text/plain, with the serve counters present.
    let (status, head, text) = request(&handle, "GET", "/metrics?format=prometheus", "");
    assert_eq!(status, 200);
    let ctype = header_value(&head, "content-type").expect("content type");
    assert!(ctype.starts_with("text/plain"), "{ctype}");
    assert!(text.contains("# TYPE pkgrec_serve_requests_total counter"), "{text}");
    assert!(text.contains("pkgrec_serve_requests_total 1"), "{text}");
    assert!(text.contains("pkgrec_build_info{"), "{text}");
    let (status, _, _) = request(&handle, "GET", "/metrics?format=sideways", "");
    assert_eq!(status, 400, "unknown format is a typed error");

    // EXPLAIN over HTTP: the compiled plan for a query, without
    // solving anything.
    let (status, _, text) = request(&handle, "POST", "/explain?db=shop", QUERY);
    assert_eq!(status, 200, "{text}");
    let resp = json::parse(&text).unwrap();
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
    let plan = resp.get("plan").expect("plan report");
    assert_eq!(plan.get("kind").and_then(Json::as_str), Some("cq"));
    assert_eq!(plan.get("arity").and_then(Json::as_u64), Some(2));

    let (status, _, text) = request(&handle, "POST", "/explain?db=void", QUERY);
    assert_eq!(status, 404, "{text}");
    handle.shutdown();
}

/// A request's trace window spans the whole request: the request
/// counter and a malformed body's rejection both reach `/metrics`'
/// `trace` section, not just the counters bumped inside the solve.
#[test]
fn request_and_rejection_counters_reach_the_metrics_trace() {
    let mut service = Service::new(ServiceConfig::default());
    service.add_db("shop", parse_database(DB).expect("fixture db parses"));
    let solve = format!(r#"{{"db":"shop","problem":"count","query":"{QUERY}"}}"#);
    let bodies = [solve.as_bytes(), solve.as_bytes(), b"not json", solve.as_bytes()];
    let statuses: Vec<u16> = bodies.iter().map(|b| service.handle_solve(b).0).collect();
    assert_eq!(statuses, [200, 200, 400, 200]);
    let metrics = json::parse(&service.metrics_json()).expect("valid JSON");
    let counter = |name: &str| metrics.get("trace")?.get("counters")?.get(name)?.as_u64();
    assert_eq!(counter("serve.requests"), Some(4));
    assert_eq!(counter("serve.rejected.bad_request"), Some(1));
}
