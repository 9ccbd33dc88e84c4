//! The resident solve service: databases stay loaded, prepared
//! instances (compiled plans + item pools) are cached per
//! `(db, query, parameters)` key, and each request stamps out an O(1)
//! [`SearchContext`](pkgrec_core::SearchContext) and runs under its own
//! [`Budget`]. Degradation is graceful by construction: a deadline that
//! trips mid-search yields the solver's best-so-far anytime
//! [`Outcome`](pkgrec_guard::Outcome) — reported with `"exact": false`,
//! the interruption cause and the live progress estimate — never an
//! empty 5xx.
//!
//! The service owns no sockets; [`server`](crate::server) does framing,
//! admission control and panic isolation, and calls into here.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pkgrec_core::{CoreError, Ext, Interrupted, Method, Package, PreparedInstance, SearchStats};
use pkgrec_data::{Database, Tuple, Value};
use pkgrec_trace::json::write_string;
use pkgrec_trace::window::RollingWindow;
use pkgrec_trace::{flight, prom, timeline, Histogram, Telemetry, TraceReport};

use crate::access_log::AccessLog;
use crate::request::{load_query, parse_solve_request, Answer, RequestError, SolveRequest};

/// How many recent slow or failed requests `GET /debug/slow` retains.
const SLOW_RING_CAP: usize = 32;

/// Service-level limits. Every request is clamped to them, so a
/// client can tighten the deadline or parallelism but never exceed
/// what the operator configured.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Hard wall-clock cap per request, in milliseconds. Requests
    /// without a `deadline_ms` get exactly this; requests with one get
    /// `min(deadline_ms, max_deadline_ms)`. Every solve is therefore
    /// bounded — a hostile query cannot pin a worker forever.
    pub max_deadline_ms: u64,
    /// Cap on per-request worker threads.
    pub max_jobs: usize,
    /// Prepared-instance cache capacity (entries, FIFO eviction).
    pub plan_cache_cap: usize,
    /// Requests at least this slow (total, milliseconds) or answered
    /// with an error status land in the `/debug/slow` ring. 0 records
    /// everything.
    pub slow_threshold_ms: u64,
    /// Whether per-second rolling windows are maintained (the bench
    /// turns them off to measure their cost; production leaves them on).
    pub windows_enabled: bool,
    /// Tail-sampling profiler: every request records a profile
    /// timeline, kept only with its `/debug/slow` entry (as a timeline
    /// summary plus, under a flight export directory, a
    /// `<request-id>.profile.json` Chrome trace). Off: no stamps taken.
    pub profile: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_deadline_ms: 10_000,
            max_jobs: 4,
            plan_cache_cap: 64,
            slow_threshold_ms: 250,
            windows_enabled: true,
            profile: false,
        }
    }
}

/// Counters and latency telemetry, exported by `/metrics`. Plain
/// atomics: always on, no locks on the count path, readable while the
/// server is under load.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Solve requests accepted for processing.
    pub requests: AtomicU64,
    /// Solve requests answered `"status": "ok"`.
    pub ok: AtomicU64,
    /// Connections shed by admission control (queue full).
    pub rejected_overload: AtomicU64,
    /// Requests rejected as malformed (framing, JSON, validation).
    pub rejected_bad_request: AtomicU64,
    /// Request handlers that panicked and were contained.
    pub worker_panics: AtomicU64,
    /// Solves cut off by their budget that returned a partial result.
    pub deadline_partial: AtomicU64,
    /// Prepared-instance cache hits.
    pub plan_cache_hits: AtomicU64,
    /// Prepared-instance cache misses (compiles).
    pub plan_cache_misses: AtomicU64,
    /// Connections currently waiting in the accept queue (gauge:
    /// bumped on enqueue, dropped on dequeue — saturation is visible
    /// before 503s start).
    pub queue_depth: AtomicU64,
    /// Solve latency, microseconds, log₂-bucketed.
    pub latency_us: Mutex<Histogram>,
    /// Per-second rolling window of request totals (latency + errors),
    /// behind `/metrics`' 1s/10s/60s rates and windowed percentiles.
    pub window: RollingWindow,
    /// Trace reports absorbed from solves (merged across requests).
    pub trace: Mutex<TraceReport>,
}

impl Metrics {
    /// Increment one counter (relaxed; these are statistics).
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A typed service error, carrying the HTTP status and machine-readable
/// kind the server puts on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    /// HTTP status code.
    pub status: u16,
    /// Stable machine-readable kind: `bad_request`, `parse_error`,
    /// `unknown_db`, `solve_error`, `worker_panic`, `overloaded`,
    /// `internal_panic`, `not_found`.
    pub kind: &'static str,
    /// Human-readable detail.
    pub message: String,
    /// For `overloaded`: when to try again.
    pub retry_after_ms: Option<u64>,
}

impl ServeError {
    /// Build an error with no retry hint.
    pub fn new(status: u16, kind: &'static str, message: impl Into<String>) -> ServeError {
        ServeError {
            status,
            kind,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// The admission-control rejection.
    pub fn overloaded(retry_after_ms: u64) -> ServeError {
        ServeError {
            status: 503,
            kind: "overloaded",
            message: "request queue is full".to_string(),
            retry_after_ms: Some(retry_after_ms),
        }
    }

    /// The outcome label for the access log and slow ring.
    pub fn outcome(&self) -> String {
        format!("error:{}", self.kind)
    }

    /// The response body for this error.
    pub fn body(&self) -> String {
        self.body_with_id(None)
    }

    /// The response body, carrying the request id (when one was
    /// assigned before the failure) so the error correlates with the
    /// access log, `/debug/slow` and the flight export.
    pub fn body_with_id(&self, id: Option<&str>) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"status\":\"error\",");
        if let Some(id) = id {
            out.push_str("\"request_id\":");
            write_string(&mut out, id);
            out.push(',');
        }
        out.push_str("\"error\":{\"kind\":\"");
        out.push_str(self.kind);
        out.push_str("\",\"message\":");
        write_string(&mut out, &self.message);
        if let Some(ms) = self.retry_after_ms {
            out.push_str(",\"retry_after_ms\":");
            out.push_str(&ms.to_string());
        }
        out.push_str("}}");
        out
    }
}

/// Cache key: everything that shapes a [`PreparedInstance`]. Two
/// requests with the same key can share compiled plans and item pool.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    db: String,
    /// The resident database's mutation epoch
    /// ([`Database::epoch`]): a prepared instance bakes in the item
    /// pool, so a cache entry is only valid for the exact database
    /// *contents* it was compiled against, not just the name. Swapping
    /// a resident database under the same name changes the epoch and
    /// misses the cache instead of serving answers from stale data.
    db_epoch: u64,
    query: String,
    cost: String,
    val: String,
    /// `budget` as IEEE bits (`None` = unbounded).
    budget_bits: Option<u64>,
    k: usize,
    max_size: Option<usize>,
}

impl PlanKey {
    fn of(req: &SolveRequest, db_epoch: u64) -> PlanKey {
        PlanKey {
            db: req.db.clone(),
            db_epoch,
            query: req.query.clone(),
            cost: req.cost.clone(),
            val: req.val.clone(),
            budget_bits: req.budget.map(f64::to_bits),
            k: req.k,
            max_size: req.max_size,
        }
    }
}

/// FIFO-bounded cache of prepared instances.
#[derive(Debug, Default)]
struct PlanCache {
    map: HashMap<PlanKey, Arc<PreparedInstance>>,
    order: VecDeque<PlanKey>,
}

/// Per-request context the server threads into the service: the
/// assigned trace id and how long the connection waited in the accept
/// queue before a worker picked it up.
#[derive(Debug, Clone)]
pub struct RequestCtx {
    /// The request's trace id (`req-<boot>-<seq>`), echoed in the
    /// `x-pkgrec-request-id` header and every error/partial body.
    pub id: String,
    /// Microseconds the connection spent queued before this request
    /// was read (0 for keep-alive follow-ups).
    pub queue_us: u64,
}

/// One `/debug/slow` entry: the black-box pointer for a slow or failed
/// request.
#[derive(Debug, Clone)]
struct SlowEntry {
    id: String,
    db: Option<String>,
    problem: Option<String>,
    status: u16,
    outcome: String,
    queue_us: u64,
    solve_us: u64,
    total_us: u64,
    /// The rendered [`timeline::TimelineSummary`] JSON object, while
    /// the profiler is armed (the full Chrome trace, when a flight
    /// directory is set, lives in `<request-id>.profile.json`).
    timeline: Option<String>,
}

/// The resident service state shared by every worker thread.
#[derive(Debug)]
pub struct Service {
    config: ServiceConfig,
    dbs: BTreeMap<String, Arc<Database>>,
    plans: Mutex<PlanCache>,
    /// Telemetry; public so the server can stamp admission-control and
    /// panic counters on the same ledger `/metrics` reads.
    pub metrics: Metrics,
    /// Boot epoch-second, baked into request ids and `uptime_seconds`.
    boot_epoch: u64,
    started: Instant,
    req_seq: AtomicU64,
    access_log: Option<Arc<AccessLog>>,
    flight_dir: Option<PathBuf>,
    slow: Mutex<VecDeque<SlowEntry>>,
}

impl Service {
    /// An empty service with the given limits.
    pub fn new(config: ServiceConfig) -> Service {
        Service {
            config,
            dbs: BTreeMap::new(),
            plans: Mutex::new(PlanCache::default()),
            metrics: Metrics::default(),
            boot_epoch: pkgrec_trace::window::now_sec(),
            started: Instant::now(),
            req_seq: AtomicU64::new(0),
            access_log: None,
            flight_dir: None,
            slow: Mutex::new(VecDeque::new()),
        }
    }

    /// Attach an opened access log (before serving). Closed on drop.
    pub fn set_access_log(&mut self, log: Arc<AccessLog>) {
        self.access_log = Some(log);
    }

    /// Record every request's flight recording and export it to
    /// `dir/<request-id>.flight.jsonl`.
    pub fn set_flight_dir(&mut self, dir: impl Into<PathBuf>) {
        self.flight_dir = Some(dir.into());
    }

    /// Mint the next request id: `req-<boot-epoch-hex>-<seq-hex>`.
    /// Deterministic format, unique per process lifetime, cheap.
    pub fn next_request_id(&self) -> String {
        let seq = self.req_seq.fetch_add(1, Ordering::Relaxed);
        format!("req-{:08x}-{:06x}", self.boot_epoch, seq)
    }

    /// The configured limits.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Register a resident database under `name` (before serving).
    pub fn add_db(&mut self, name: impl Into<String>, db: impl Into<Arc<Database>>) {
        self.dbs.insert(name.into(), db.into());
    }

    /// Names of the resident databases.
    pub fn db_names(&self) -> Vec<&str> {
        self.dbs.keys().map(String::as_str).collect()
    }

    /// Handle one `/solve` body with a synthesized [`RequestCtx`]
    /// (direct callers and tests; the server passes its own ctx).
    pub fn handle_solve(&self, body: &[u8]) -> (u16, String) {
        let ctx = RequestCtx {
            id: self.next_request_id(),
            queue_us: 0,
        };
        self.handle_solve_ctx(body, &ctx)
    }

    /// Handle one `/solve` body end to end: decode, solve under a
    /// clamped budget, encode, and account the request on every
    /// observability surface — cumulative metrics, rolling window,
    /// access log, slow ring and (when enabled) the per-request flight
    /// export and profile. Returns `(http_status, response_body)`;
    /// every failure mode is a typed error body carrying the request
    /// id.
    pub fn handle_solve_ctx(&self, body: &[u8], ctx: &RequestCtx) -> (u16, String) {
        let started = Instant::now();
        // The request's telemetry comes from the configuration alone:
        // channels are per thread, so nothing another request or the
        // environment switches on can leak into this one. Tracing feeds
        // `/metrics`; the profiler stamps *every* request, because the
        // tail-sampling decision needs the final latency and status.
        let _telemetry = Telemetry {
            trace: true,
            flight: self.flight_dir.is_some(),
            profile: self.config.profile,
            ..Telemetry::default()
        }
        .enter();
        // This request's trace window: everything counted from here to
        // `merge_trace` — the request itself, a rejection, the solve —
        // reaches `/metrics`, on every path.
        pkgrec_trace::reset();
        pkgrec_trace::counter!("serve.requests");
        // A fresh ring per request: the flight export and the timeline
        // are this request's black box and nothing else's.
        let _ = flight::drain_all();
        let scope = timeline::begin_scope();
        let req = match parse_solve_request(body) {
            Ok(req) => req,
            Err(e) => {
                Metrics::bump(&self.metrics.rejected_bad_request);
                pkgrec_trace::counter!("serve.rejected.bad_request");
                self.merge_trace();
                let err = ServeError::new(400, "bad_request", e.message);
                self.account(ctx, started, None, err.status, &err.outcome(), None, &scope);
                return (err.status, err.body_with_id(Some(&ctx.id)));
            }
        };
        Metrics::bump(&self.metrics.requests);

        let result = self.solve_rendered(&req);
        if matches!(&result, Err(err) if err.status == 400) {
            Metrics::bump(&self.metrics.rejected_bad_request);
            pkgrec_trace::counter!("serve.rejected.bad_request");
        }
        let report = self.merge_trace();
        self.export_flight(&ctx.id);

        let (status, outcome, body) = match result {
            Ok(rendered) => {
                Metrics::bump(&self.metrics.ok);
                (
                    200,
                    rendered.outcome,
                    inject_request_id(rendered.body, &ctx.id),
                )
            }
            Err(err) => (
                err.status,
                err.outcome(),
                err.body_with_id(Some(&ctx.id)),
            ),
        };
        self.account(
            ctx,
            started,
            Some(&req),
            status,
            &outcome,
            Some(&report),
            &scope,
        );
        (status, body)
    }

    /// Close the request's trace window: take this thread's report and
    /// merge it into the one `/metrics` reports across requests.
    fn merge_trace(&self) -> TraceReport {
        let report = pkgrec_trace::take();
        self.metrics
            .trace
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .merge(&report);
        report
    }

    /// Solve and render, also labelling the outcome (`exact` /
    /// `partial:<resource>`) for the access log and slow ring.
    fn solve_rendered(&self, req: &SolveRequest) -> Result<Rendered, ServeError> {
        let prepared = self.prepared(req)?;
        let opts = req.options(Some(self.config.max_deadline_ms), self.config.max_jobs);
        Ok(match req.solve(&prepared, &opts).map_err(solve_error)? {
            Answer::Eval => render_eval(&prepared),
            Answer::TopK(out) => {
                self.note_partial(&out);
                let val = prepared.instance().val.clone();
                render_outcome(req, out.map(|v| TopkResult { found: v, val }))
            }
            Answer::Bound(out) => {
                self.note_partial(&out);
                render_outcome(req, out)
            }
            Answer::Count(out) => {
                self.note_partial(&out);
                render_outcome(req, out)
            }
        })
    }

    /// Stamp one finished request onto every passive surface: the
    /// latency histogram, the rolling window, the slow ring (with the
    /// request's profile while the profiler is armed) and the access
    /// log. `req`/`report` are `None` when parsing failed before a
    /// request existed.
    #[allow(clippy::too_many_arguments)]
    fn account(
        &self,
        ctx: &RequestCtx,
        started: Instant,
        req: Option<&SolveRequest>,
        status: u16,
        outcome: &str,
        report: Option<&TraceReport>,
        scope: &timeline::ScopeGuard,
    ) {
        let solve_us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        let total_us = ctx.queue_us.saturating_add(solve_us);
        self.metrics
            .latency_us
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record(solve_us);
        if self.config.windows_enabled {
            self.metrics.window.record(total_us, status >= 400);
        }
        // The timeline is per-request state: always drained, kept only
        // with a ring entry.
        let tl = self.config.profile.then(|| timeline::take_scope(scope.id()));
        if total_us >= self.config.slow_threshold_ms.saturating_mul(1000) || status >= 400 {
            let timeline = tl.map(|tl| {
                self.export_profile(&ctx.id, &tl);
                tl.summarize().to_json()
            });
            let mut slow = self.slow.lock().unwrap_or_else(|e| e.into_inner());
            while slow.len() >= SLOW_RING_CAP {
                slow.pop_front();
            }
            slow.push_back(SlowEntry {
                id: ctx.id.clone(),
                db: req.map(|r| r.db.clone()),
                problem: req.map(|r| r.problem.name().to_string()),
                status,
                outcome: outcome.to_string(),
                queue_us: ctx.queue_us,
                solve_us,
                total_us,
                timeline,
            });
        }
        if let Some(log) = &self.access_log {
            log.push(access_record(
                ctx, req, status, outcome, solve_us, total_us, report,
            ));
        }
    }

    /// Write this request's flight recording (if any) to the export
    /// directory. Failures are swallowed: the export is best-effort
    /// telemetry, never a request outcome.
    fn export_flight(&self, id: &str) {
        let Some(dir) = &self.flight_dir else { return };
        let recording = flight::take_recording();
        if recording.is_empty() {
            return;
        }
        let _ = std::fs::write(dir.join(format!("{id}.flight.jsonl")), recording.to_jsonl());
    }

    /// Write a retained request's timeline as a Chrome trace next to
    /// its flight export, when a flight directory is configured. One
    /// file that is both a valid Chrome trace (Perfetto opens it
    /// directly) and self-identifying: the format tolerates extra
    /// top-level keys, so the request id rides along in front of the
    /// standard `traceEvents`. Best-effort, like the flight export.
    fn export_profile(&self, id: &str, tl: &timeline::Timeline) {
        let Some(dir) = &self.flight_dir else { return };
        let chrome = tl.to_chrome_json();
        let mut body = String::with_capacity(chrome.len() + id.len() + 24);
        body.push_str("{\"request_id\":");
        write_string(&mut body, id);
        body.push(',');
        body.push_str(&chrome[1..]);
        let _ = std::fs::write(dir.join(format!("{id}.profile.json")), body);
    }

    /// Close the access log (final flush + writer join). Idempotent;
    /// called by the server on shutdown.
    pub fn close_access_log(&self) {
        if let Some(log) = &self.access_log {
            log.close();
        }
    }

    /// Fetch or build the prepared instance for a request.
    fn prepared(&self, req: &SolveRequest) -> Result<Arc<PreparedInstance>, ServeError> {
        let db = self.dbs.get(&req.db).ok_or_else(|| {
            ServeError::new(
                404,
                "unknown_db",
                format!(
                    "no resident database `{}` (have: {})",
                    req.db,
                    self.db_names().join(", ")
                ),
            )
        })?;
        let key = PlanKey::of(req, db.epoch());
        {
            let plans = self.plans.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(hit) = plans.map.get(&key) {
                Metrics::bump(&self.metrics.plan_cache_hits);
                pkgrec_trace::counter!("serve.plan_cache_hits");
                return Ok(Arc::clone(hit));
            }
        }
        // Compile outside the lock: a slow compile must not stall
        // cache hits on other workers.
        Metrics::bump(&self.metrics.plan_cache_misses);
        pkgrec_trace::counter!("serve.plan_cache_misses");
        let inst = req.instance(Arc::clone(db)).map_err(request_error)?;
        let prepared = Arc::new(PreparedInstance::new(inst).map_err(solve_error)?);
        let mut plans = self.plans.lock().unwrap_or_else(|e| e.into_inner());
        if !plans.map.contains_key(&key) {
            while plans.order.len() >= self.config.plan_cache_cap {
                if let Some(old) = plans.order.pop_front() {
                    plans.map.remove(&old);
                }
            }
            plans.order.push_back(key.clone());
            plans.map.insert(key, Arc::clone(&prepared));
        }
        Ok(prepared)
    }

    /// Number of prepared instances currently cached.
    pub fn plans_cached(&self) -> usize {
        self.plans.lock().unwrap_or_else(|e| e.into_inner()).map.len()
    }

    /// The `/metrics` response body.
    pub fn metrics_json(&self) -> String {
        let m = &self.metrics;
        let mut out = String::with_capacity(1024);
        out.push_str("{\"serve\":{");
        let counters = [
            ("requests", &m.requests),
            ("ok", &m.ok),
            ("rejected_overload", &m.rejected_overload),
            ("rejected_bad_request", &m.rejected_bad_request),
            ("worker_panics", &m.worker_panics),
            ("deadline_partial", &m.deadline_partial),
            ("plan_cache_hits", &m.plan_cache_hits),
            ("plan_cache_misses", &m.plan_cache_misses),
        ];
        for (i, (name, counter)) in counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(name);
            out.push_str("\":");
            out.push_str(&counter.load(Ordering::Relaxed).to_string());
        }
        out.push_str("},\"uptime_seconds\":");
        out.push_str(&self.started.elapsed().as_secs().to_string());
        out.push_str(",\"version\":");
        write_string(&mut out, env!("CARGO_PKG_VERSION"));
        out.push_str(",\"queue_depth\":");
        out.push_str(&m.queue_depth.load(Ordering::Relaxed).to_string());
        out.push_str(",\"latency_us\":");
        {
            let h = m.latency_us.lock().unwrap_or_else(|e| e.into_inner());
            write_latency(&mut out, &h);
        }
        out.push_str(",\"windows\":");
        if self.config.windows_enabled {
            out.push('{');
            for (i, span) in [1u64, 10, 60].iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                // Clamp the window to the seconds actually lived since
                // boot: a fresh process must report honest (and finite)
                // rates, not divide 5 requests by a 60s window it has
                // not existed for — or by zero seconds of it.
                let snap = m.window.snapshot_since(*span, self.boot_epoch);
                let _ = std::fmt::Write::write_fmt(
                    &mut out,
                    format_args!(
                        "\"{span}s\":{{\"requests\":{},\"errors\":{},\"rate\":{},\"p50_us\":{},\"p99_us\":{}}}",
                        snap.requests,
                        snap.errors,
                        format_f64(snap.rate()),
                        snap.latency.percentile(0.50),
                        snap.latency.percentile(0.99),
                    ),
                );
            }
            out.push('}');
        } else {
            out.push_str("null");
        }
        out.push_str(",\"access_log\":{\"enabled\":");
        out.push_str(if self.access_log.is_some() { "true" } else { "false" });
        out.push_str(",\"dropped\":");
        out.push_str(
            &self
                .access_log
                .as_ref()
                .map_or(0, |l| l.dropped())
                .to_string(),
        );
        out.push_str("},\"plans_cached\":");
        out.push_str(&self.plans_cached().to_string());
        out.push_str(",\"dbs\":[");
        for (i, name) in self.db_names().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_string(&mut out, name);
        }
        out.push_str("],\"flight\":{\"enabled\":");
        out.push_str(if self.flight_dir.is_some() { "true" } else { "false" });
        out.push_str(",\"capacity\":");
        out.push_str(&flight::CAPACITY.to_string());
        out.push_str("},\"trace\":");
        {
            let report = m.trace.lock().unwrap_or_else(|e| e.into_inner());
            report.write_json(&mut out);
        }
        out.push('}');
        out
    }

    /// The `/metrics?format=prometheus` response body (exposition
    /// format 0.0.4, rendered by [`pkgrec_trace::prom`]).
    pub fn metrics_prometheus(&self) -> String {
        let m = &self.metrics;
        let mut out = String::with_capacity(2048);
        let counters: [(&str, &AtomicU64, &str); 8] = [
            ("requests", &m.requests, "solve requests accepted"),
            ("ok", &m.ok, "solve requests answered ok"),
            ("rejected_overload", &m.rejected_overload, "connections shed by admission control"),
            ("rejected_bad_request", &m.rejected_bad_request, "requests rejected as malformed"),
            ("worker_panics", &m.worker_panics, "request handlers that panicked"),
            ("deadline_partial", &m.deadline_partial, "solves cut off by their budget"),
            ("plan_cache_hits", &m.plan_cache_hits, "prepared-instance cache hits"),
            ("plan_cache_misses", &m.plan_cache_misses, "prepared-instance cache misses"),
        ];
        for (name, counter, help) in counters {
            prom::write_counter(
                &mut out,
                &format!("pkgrec_serve_{name}_total"),
                help,
                counter.load(Ordering::Relaxed),
            );
        }
        prom::write_gauge(
            &mut out,
            "pkgrec_serve_uptime_seconds",
            "seconds since the service booted",
            self.started.elapsed().as_secs() as f64,
        );
        prom::write_gauge(
            &mut out,
            "pkgrec_serve_queue_depth",
            "connections waiting in the accept queue",
            m.queue_depth.load(Ordering::Relaxed) as f64,
        );
        prom::write_gauge(
            &mut out,
            "pkgrec_serve_plans_cached",
            "prepared instances currently cached",
            self.plans_cached() as f64,
        );
        prom::write_header(
            &mut out,
            "pkgrec_build_info",
            "gauge",
            "build metadata (constant 1)",
        );
        prom::write_sample(
            &mut out,
            "pkgrec_build_info",
            &[("version", env!("CARGO_PKG_VERSION"))],
            1.0,
        );
        {
            let h = m.latency_us.lock().unwrap_or_else(|e| e.into_inner());
            prom::write_histogram(
                &mut out,
                "pkgrec_serve_latency_us",
                "solve latency, microseconds",
                &[],
                &h,
            );
        }
        if self.config.windows_enabled {
            prom::write_header(
                &mut out,
                "pkgrec_serve_window_requests",
                "gauge",
                "requests in the trailing window",
            );
            // Boot-clamped like `metrics_json` (honest fresh-boot rates).
            let snaps: Vec<(&str, _)> = [("1s", 1u64), ("10s", 10), ("60s", 60)]
                .iter()
                .map(|&(label, span)| (label, m.window.snapshot_since(span, self.boot_epoch)))
                .collect();
            for (label, snap) in &snaps {
                prom::write_sample(
                    &mut out,
                    "pkgrec_serve_window_requests",
                    &[("window", label)],
                    snap.requests as f64,
                );
            }
            prom::write_header(
                &mut out,
                "pkgrec_serve_window_errors",
                "gauge",
                "error responses in the trailing window",
            );
            for (label, snap) in &snaps {
                prom::write_sample(
                    &mut out,
                    "pkgrec_serve_window_errors",
                    &[("window", label)],
                    snap.errors as f64,
                );
            }
            prom::write_histogram(
                &mut out,
                "pkgrec_serve_window_latency_us",
                "total request latency over the trailing 60s window",
                &[("window", "60s")],
                &m.window.snapshot(60).latency,
            );
        }
        // The merged trace counters, namespaced under their registry
        // names (`dpll.decisions` → `pkgrec_trace_dpll_decisions_total`).
        {
            let report = m.trace.lock().unwrap_or_else(|e| e.into_inner());
            for info in pkgrec_trace::COUNTER_REGISTRY {
                if let Some(&n) = report.counters.get(info.name) {
                    prom::write_counter(
                        &mut out,
                        &format!("pkgrec_trace_{}_total", prom::sanitize_name(info.name)),
                        info.help,
                        n,
                    );
                }
            }
        }
        out
    }

    /// The `GET /debug/slow` body: the retained ring of slow and failed
    /// requests, oldest first, each with its timeline summary while the
    /// profiler is armed. Reading does not drain the ring.
    pub fn debug_slow_json(&self) -> String {
        let slow = self.slow.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::with_capacity(64 + slow.len() * 256);
        out.push_str("{\"threshold_ms\":");
        out.push_str(&self.config.slow_threshold_ms.to_string());
        out.push_str(",\"profile\":");
        out.push_str(if self.config.profile { "true" } else { "false" });
        out.push_str(",\"slow\":[");
        for (i, e) in slow.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"request_id\":");
            write_string(&mut out, &e.id);
            out.push_str(",\"db\":");
            match &e.db {
                Some(db) => write_string(&mut out, db),
                None => out.push_str("null"),
            }
            out.push_str(",\"problem\":");
            match &e.problem {
                Some(p) => write_string(&mut out, p),
                None => out.push_str("null"),
            }
            out.push_str(",\"status\":");
            out.push_str(&e.status.to_string());
            out.push_str(",\"outcome\":");
            write_string(&mut out, &e.outcome);
            out.push_str(",\"queue_us\":");
            out.push_str(&e.queue_us.to_string());
            out.push_str(",\"solve_us\":");
            out.push_str(&e.solve_us.to_string());
            out.push_str(",\"total_us\":");
            out.push_str(&e.total_us.to_string());
            out.push_str(",\"timeline\":");
            out.push_str(e.timeline.as_deref().unwrap_or("null"));
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Handle `/explain`: compile the query against a resident database
    /// and return the plan's [`PlanReport`] as JSON. The body is either
    /// a JSON object `{"db": ..., "query": ...}` or raw query text with
    /// the database named by the `?db=` parameter.
    pub fn handle_explain(&self, db_param: Option<&str>, body: &[u8]) -> (u16, String) {
        let text = match std::str::from_utf8(body) {
            Ok(t) => t.trim(),
            Err(_) => {
                let err = ServeError::new(400, "bad_request", "body is not UTF-8");
                return (err.status, err.body());
            }
        };
        let (db_name, query_src) = match pkgrec_trace::json::parse(text) {
            Ok(v) if v.get("query").is_some() => {
                let q = v
                    .get("query")
                    .and_then(|q| q.as_str())
                    .map(str::to_string);
                let db = v
                    .get("db")
                    .and_then(|d| d.as_str())
                    .map(str::to_string)
                    .or_else(|| db_param.map(str::to_string));
                match (db, q) {
                    (Some(db), Some(q)) => (db, q),
                    _ => {
                        let err =
                            ServeError::new(400, "bad_request", "explain needs `db` and `query`");
                        return (err.status, err.body());
                    }
                }
            }
            _ => {
                // Raw query text; the database must come from `?db=`.
                let Some(db) = db_param else {
                    let err = ServeError::new(
                        400,
                        "bad_request",
                        "explain needs `?db=<name>` when the body is raw query text",
                    );
                    return (err.status, err.body());
                };
                if text.is_empty() {
                    let err = ServeError::new(400, "bad_request", "explain needs a query body");
                    return (err.status, err.body());
                }
                (db.to_string(), text.to_string())
            }
        };
        let Some(db) = self.dbs.get(&db_name) else {
            let err = ServeError::new(
                404,
                "unknown_db",
                format!(
                    "no resident database `{db_name}` (have: {})",
                    self.db_names().join(", ")
                ),
            );
            return (err.status, err.body());
        };
        let query = match load_query(&query_src).map_err(request_error) {
            Ok(q) => q,
            Err(err) => return (err.status, err.body()),
        };
        let plan = match query.compile(db) {
            Ok(p) => p,
            Err(e) => {
                let err = ServeError::new(422, "solve_error", e.to_string());
                return (err.status, err.body());
            }
        };
        let report = plan.explain();
        let mut out = String::with_capacity(256);
        out.push_str("{\"status\":\"ok\",\"db\":");
        write_string(&mut out, &db_name);
        out.push_str(",\"plan\":");
        report.write_json(&mut out);
        out.push('}');
        (200, out)
    }

    /// Note a partial (budget-cut) solve on the metrics ledger, so
    /// every problem kind counts degradations uniformly. Keyed on the
    /// interruption, not on `exact`: an uninterrupted sketch answer is
    /// non-exact *by contract*, not degraded.
    fn note_partial<T>(&self, out: &pkgrec_guard::Outcome<T, SearchStats>) {
        if out.interrupted.is_some() {
            Metrics::bump(&self.metrics.deadline_partial);
            pkgrec_trace::counter!("serve.deadline_partial");
        }
    }
}

/// Histogram summary with approximate percentiles. Buckets are log₂,
/// so p50/p99 are lower bounds of the bucket the quantile falls in —
/// good enough to see orders of magnitude, cheap enough to always keep.
fn write_latency(out: &mut String, h: &Histogram) {
    out.push_str("{\"count\":");
    out.push_str(&h.count.to_string());
    out.push_str(",\"min\":");
    out.push_str(&h.min.to_string());
    out.push_str(",\"mean\":");
    out.push_str(&h.mean().to_string());
    out.push_str(",\"max\":");
    out.push_str(&h.max.to_string());
    out.push_str(",\"p50\":");
    out.push_str(&h.percentile(0.50).to_string());
    out.push_str(",\"p99\":");
    out.push_str(&h.percentile(0.99).to_string());
    out.push('}');
}

/// A spec the shared instance builder rejected: a query that does not
/// parse is a `parse_error`, anything else a `bad_request`.
fn request_error(e: RequestError) -> ServeError {
    let kind = match e.field {
        Some("query") => "parse_error",
        _ => "bad_request",
    };
    ServeError::new(400, kind, e.message)
}

/// Map a solver error onto the wire: a contained worker panic keeps
/// its own kind (it is the robustness contract's receipt), everything
/// else is a `solve_error` with the solver's message.
fn solve_error(e: CoreError) -> ServeError {
    match e {
        CoreError::WorkerPanic { .. } => ServeError::new(500, "worker_panic", e.to_string()),
        other => ServeError::new(422, "solve_error", other.to_string()),
    }
}

// ---- response rendering ---------------------------------------------

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Str(s) => write_string(out, s),
    }
}

fn write_tuple(out: &mut String, t: &Tuple) {
    out.push('[');
    for (i, v) in t.values().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_value(out, v);
    }
    out.push(']');
}

fn write_ext(out: &mut String, e: Ext) {
    match e {
        Ext::NegInf => out.push_str("\"-inf\""),
        Ext::PosInf => out.push_str("\"+inf\""),
        Ext::Finite(x) => out.push_str(&format_f64(x)),
    }
}

/// A finite f64 as JSON. `{}` prints integral values without a dot
/// (`5`), which is still a valid JSON number and round-trips.
fn format_f64(x: f64) -> String {
    format!("{x}")
}

/// `topk`'s renderable value: packages plus the rating function to
/// label each with its `val`.
struct TopkResult {
    found: Option<Vec<Package>>,
    val: pkgrec_core::PackageFn,
}

/// How each problem's value renders into the `result` field.
trait RenderResult {
    fn render(&self, out: &mut String);
}

impl RenderResult for TopkResult {
    fn render(&self, out: &mut String) {
        let Some(packages) = &self.found else {
            out.push_str("null");
            return;
        };
        out.push('[');
        for (i, p) in packages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"items\":[");
            for (j, t) in p.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write_tuple(out, t);
            }
            out.push_str("],\"val\":");
            write_ext(out, self.val.eval(p));
            out.push('}');
        }
        out.push(']');
    }
}

impl RenderResult for Option<Ext> {
    fn render(&self, out: &mut String) {
        match self {
            None => out.push_str("null"),
            Some(e) => write_ext(out, *e),
        }
    }
}

impl RenderResult for u128 {
    fn render(&self, out: &mut String) {
        // Raw digits: u128 exceeds f64's exact range, so the count is
        // written as a JSON number verbatim, never rounded.
        out.push_str(&self.to_string());
    }
}

fn write_interrupted(out: &mut String, cut: Option<&Interrupted>, stats: &SearchStats) {
    match cut {
        None => out.push_str("null"),
        Some(cut) => {
            out.push_str("{\"resource\":");
            write_string(out, cut.resource.label());
            out.push_str(",\"steps\":");
            out.push_str(&cut.steps.to_string());
            out.push_str(",\"progress\":");
            match stats.progress_at_interrupt {
                Some(p) => out.push_str(&format_f64(p)),
                None => out.push_str("null"),
            }
            out.push('}');
        }
    }
}

/// A rendered success body plus its outcome label (`exact` or
/// `partial:<resource>`), which the access log and slow ring record.
struct Rendered {
    body: String,
    outcome: String,
}

fn render_outcome<T: RenderResult>(
    req: &SolveRequest,
    out: pkgrec_guard::Outcome<T, SearchStats>,
) -> Rendered {
    let mut body = String::with_capacity(256);
    body.push_str("{\"status\":\"ok\",\"problem\":\"");
    body.push_str(req.problem.name());
    body.push_str("\",\"exact\":");
    body.push_str(if out.exact { "true" } else { "false" });
    body.push_str(",\"method\":\"");
    body.push_str(out.method.label());
    body.push_str("\",\"interrupted\":");
    write_interrupted(&mut body, out.interrupted.as_ref(), &out.stats);
    body.push_str(",\"result\":");
    out.value.render(&mut body);
    body.push_str(",\"stats\":{\"packages_enumerated\":");
    body.push_str(&out.stats.packages_enumerated.to_string());
    body.push_str(",\"valid_packages\":");
    body.push_str(&out.stats.valid_packages.to_string());
    body.push_str("}}");
    // The access-log/slow-ring label distinguishes the degradation
    // contract (budget cut a certifying search short) from the
    // approximation contract (the sketch engine was asked for): an
    // uninterrupted sketch answer is `sketch`, not `partial`.
    let outcome = match (out.method, out.exact, &out.interrupted) {
        (Method::Exact, true, _) => "exact".to_string(),
        (Method::Exact, false, Some(cut)) => format!("partial:{}", cut.resource.label()),
        (Method::Exact, false, None) => "partial".to_string(),
        (Method::Sketch, _, None) => "sketch".to_string(),
        (Method::Sketch, _, Some(cut)) => format!("sketch:partial:{}", cut.resource.label()),
    };
    Rendered { body, outcome }
}

/// `eval` answers straight from the prepared item pool — exact by
/// construction (the pool was materialized at prepare time).
fn render_eval(prepared: &PreparedInstance) -> Rendered {
    let ctx = prepared.context();
    let items = ctx.items();
    let mut body = String::with_capacity(64 + items.len() * 16);
    body.push_str(
        "{\"status\":\"ok\",\"problem\":\"eval\",\"exact\":true,\"method\":\"exact\",\"interrupted\":null,\"result\":[",
    );
    for (i, t) in items.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        write_tuple(&mut body, t);
    }
    body.push_str("],\"stats\":{\"items\":");
    body.push_str(&items.len().to_string());
    body.push_str("}}");
    Rendered {
        body,
        outcome: "exact".to_string(),
    }
}

/// Splice `"request_id":"<id>",` into a rendered body right after the
/// opening brace, so partial and exact answers alike carry the id the
/// `x-pkgrec-request-id` header promises.
fn inject_request_id(body: String, id: &str) -> String {
    debug_assert!(body.starts_with('{'));
    let mut out = String::with_capacity(body.len() + id.len() + 16);
    out.push_str("{\"request_id\":");
    write_string(&mut out, id);
    out.push(',');
    out.push_str(&body[1..]);
    out
}

/// One access-log JSONL record. `req`/`report` are absent when the
/// request never parsed.
fn access_record(
    ctx: &RequestCtx,
    req: Option<&SolveRequest>,
    status: u16,
    outcome: &str,
    solve_us: u64,
    total_us: u64,
    report: Option<&TraceReport>,
) -> String {
    use std::fmt::Write as _;
    // This runs once per request on the worker thread: numbers are
    // written in place (no temporary strings) and the capacity covers
    // a typical record, so building the line costs one allocation.
    let mut out = String::with_capacity(320);
    out.push_str("{\"request_id\":");
    write_string(&mut out, &ctx.id);
    out.push_str(",\"db\":");
    match req {
        Some(r) => write_string(&mut out, &r.db),
        None => out.push_str("null"),
    }
    out.push_str(",\"problem\":");
    match req {
        Some(r) => write_string(&mut out, r.problem.name()),
        None => out.push_str("null"),
    }
    let _ = write!(out, ",\"status\":{status},\"outcome\":");
    write_string(&mut out, outcome);
    let _ = write!(
        out,
        ",\"queue_us\":{},\"solve_us\":{solve_us},\"total_us\":{total_us},\"dominant_counter\":",
        ctx.queue_us
    );
    match report.and_then(TraceReport::dominant_counter) {
        Some((name, value)) => {
            out.push_str("{\"name\":");
            write_string(&mut out, name);
            let _ = write!(out, ",\"value\":{value}}}");
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"pruned\":{");
    if let Some(report) = report {
        for (i, (name, n)) in report.pruned_breakdown().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_string(&mut out, name);
            let _ = write!(out, ":{n}");
        }
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkgrec_data::{AttrType, Relation, RelationSchema};
    use pkgrec_trace::json::{self, Json};

    fn shop_db(prices: &[i64]) -> Database {
        let schema =
            RelationSchema::new("item", [("id", AttrType::Int), ("price", AttrType::Int)])
                .unwrap();
        let rel = Relation::from_tuples(
            schema,
            prices
                .iter()
                .enumerate()
                .map(|(i, &p)| Tuple::new(vec![Value::Int(i as i64 + 1), Value::Int(p)])),
        )
        .unwrap();
        let mut db = Database::new();
        db.add_relation(rel).unwrap();
        db
    }

    fn service() -> Service {
        let mut svc = Service::new(ServiceConfig::default());
        svc.add_db("shop", shop_db(&[10, 20, 30]));
        svc
    }

    fn solve_body(body: &str) -> (u16, json::Json) {
        let svc = service();
        let (status, body) = svc.handle_solve(body.as_bytes());
        (status, json::parse(&body).expect("response is valid JSON"))
    }

    #[test]
    fn topk_solves_and_reports_exact() {
        let (status, resp) = solve_body(
            r#"{"db":"shop","problem":"topk","query":"q(x, p) :- item(x, p).",
                "val":"negsum:1","max_size":2,"k":1}"#,
        );
        assert_eq!(status, 200, "{resp:?}");
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(resp.get("exact").and_then(Json::as_bool), Some(true));
        let result = resp.get("result").and_then(Json::as_array).unwrap();
        assert_eq!(result.len(), 1);
        // Best package by -sum(price): the empty package (val 0).
        let items = result[0].get("items").and_then(Json::as_array).unwrap();
        assert_eq!(items.len(), 0);
        assert_eq!(result[0].get("val").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn count_renders_u128_and_bound_renders_ext() {
        let (status, resp) = solve_body(
            r#"{"db":"shop","problem":"count","query":"q(x, p) :- item(x, p).","max_size":3}"#,
        );
        assert_eq!(status, 200);
        // All subsets of 3 items, empty package included: 8.
        assert_eq!(resp.get("result").and_then(Json::as_u64), Some(8));

        let (status, resp) = solve_body(
            r#"{"db":"shop","problem":"bound","query":"q(x, p) :- item(x, p).","max_size":2}"#,
        );
        assert_eq!(status, 200);
        assert_eq!(resp.get("result").and_then(Json::as_f64), Some(2.0));
    }

    #[test]
    fn eval_returns_the_item_pool() {
        let (status, resp) =
            solve_body(r#"{"db":"shop","problem":"eval","query":"q(x, p) :- item(x, p)."}"#);
        assert_eq!(status, 200);
        let rows = resp.get("result").and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn typed_errors_for_unknown_db_bad_query_and_bad_payload() {
        let svc = service();
        let (status, body) =
            svc.handle_solve(br#"{"db":"nope","problem":"eval","query":"q(x) :- item(x, p)."}"#);
        assert_eq!(status, 404);
        let resp = json::parse(&body).unwrap();
        assert_eq!(
            resp.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
            Some("unknown_db")
        );

        let (status, body) =
            svc.handle_solve(br#"{"db":"shop","problem":"eval","query":"q(x :-"}"#);
        assert_eq!(status, 400);
        let resp = json::parse(&body).unwrap();
        assert_eq!(
            resp.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
            Some("parse_error")
        );

        let (status, body) = svc.handle_solve(b"{broken json");
        assert_eq!(status, 400);
        let resp = json::parse(&body).unwrap();
        assert_eq!(
            resp.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
            Some("bad_request")
        );
        assert_eq!(svc.metrics.rejected_bad_request.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn deadline_cut_returns_partial_not_error() {
        let svc = service();
        // A 1-step budget cannot finish 7 packages: expect a partial.
        let (status, body) = svc.handle_solve(
            br#"{"db":"shop","problem":"count","query":"q(x, p) :- item(x, p).",
                 "max_size":3,"steps":1}"#,
        );
        assert_eq!(status, 200, "{body}");
        let resp = json::parse(&body).unwrap();
        assert_eq!(resp.get("exact").and_then(Json::as_bool), Some(false));
        let cut = resp.get("interrupted").unwrap();
        assert_eq!(cut.get("resource").and_then(Json::as_str), Some("steps"));
        assert!(resp.get("result").and_then(Json::as_u64).is_some());
    }

    #[test]
    fn plan_cache_hits_on_repeat_and_is_bounded() {
        let mut svc = service();
        svc.config.plan_cache_cap = 2;
        let body = br#"{"db":"shop","problem":"count","query":"q(x, p) :- item(x, p).","max_size":2}"#;
        svc.handle_solve(body);
        svc.handle_solve(body);
        assert_eq!(svc.metrics.plan_cache_misses.load(Ordering::Relaxed), 1);
        assert_eq!(svc.metrics.plan_cache_hits.load(Ordering::Relaxed), 1);
        // Distinct max_size values are distinct keys; cap 2 evicts FIFO.
        svc.handle_solve(br#"{"db":"shop","problem":"count","query":"q(x, p) :- item(x, p).","max_size":1}"#);
        svc.handle_solve(br#"{"db":"shop","problem":"count","query":"q(x, p) :- item(x, p).","max_size":3}"#);
        assert_eq!(svc.plans_cached(), 2);
    }

    #[test]
    fn metrics_json_is_valid_json() {
        let svc = service();
        svc.handle_solve(br#"{"db":"shop","problem":"eval","query":"q(x, p) :- item(x, p)."}"#);
        let m = svc.metrics_json();
        let parsed = json::parse(&m).expect("metrics must be valid JSON");
        assert_eq!(
            parsed
                .get("serve")
                .and_then(|s| s.get("requests"))
                .and_then(Json::as_u64),
            Some(1)
        );
        assert!(parsed.get("latency_us").is_some());
        assert!(parsed.get("trace").is_some());
    }

    #[test]
    fn percentiles_come_from_buckets() {
        let mut h = Histogram::default();
        assert_eq!(h.percentile(0.5), 0);
        for v in [1u64, 2, 4, 100] {
            h.record(v);
        }
        assert!(h.percentile(0.5) <= 4);
        assert!(h.percentile(0.99) >= 64);
    }

    #[test]
    fn request_ids_are_unique_and_echoed_in_bodies() {
        let svc = service();
        let a = svc.next_request_id();
        let b = svc.next_request_id();
        assert_ne!(a, b);
        assert!(a.starts_with("req-"), "{a}");

        // Success bodies carry the id...
        let ctx = RequestCtx {
            id: "req-test-ok".to_string(),
            queue_us: 7,
        };
        let (status, body) = svc.handle_solve_ctx(
            br#"{"db":"shop","problem":"eval","query":"q(x, p) :- item(x, p)."}"#,
            &ctx,
        );
        assert_eq!(status, 200);
        let resp = json::parse(&body).unwrap();
        assert_eq!(
            resp.get("request_id").and_then(Json::as_str),
            Some("req-test-ok")
        );

        // ...and so do typed error bodies.
        let ctx = RequestCtx {
            id: "req-test-err".to_string(),
            queue_us: 0,
        };
        let (status, body) = svc.handle_solve_ctx(b"{broken", &ctx);
        assert_eq!(status, 400);
        let resp = json::parse(&body).unwrap();
        assert_eq!(
            resp.get("request_id").and_then(Json::as_str),
            Some("req-test-err")
        );
    }

    #[test]
    fn slow_ring_records_requests_over_threshold() {
        let mut svc = service();
        svc.config.slow_threshold_ms = 0; // record everything
        svc.handle_solve(br#"{"db":"shop","problem":"eval","query":"q(x, p) :- item(x, p)."}"#);
        svc.handle_solve(b"{broken");
        let parsed = json::parse(&svc.debug_slow_json()).unwrap();
        let slow = parsed.get("slow").and_then(Json::as_array).unwrap();
        assert_eq!(slow.len(), 2);
        assert_eq!(slow[0].get("outcome").and_then(Json::as_str), Some("exact"));
        assert_eq!(
            slow[1].get("outcome").and_then(Json::as_str),
            Some("error:bad_request")
        );
        assert!(slow[0]
            .get("request_id")
            .and_then(Json::as_str)
            .unwrap()
            .starts_with("req-"));
    }

    #[test]
    fn tail_sampler_retains_slow_and_error_requests_with_timelines() {
        let mut svc = service();
        svc.config.profile = true;
        svc.config.slow_threshold_ms = 0; // keep everything
        svc.handle_solve(br#"{"db":"shop","problem":"eval","query":"q(x, p) :- item(x, p)."}"#);
        svc.handle_solve(b"{broken");
        let parsed = json::parse(&svc.debug_slow_json()).unwrap();
        assert_eq!(parsed.get("profile").and_then(Json::as_bool), Some(true));
        let slow = parsed.get("slow").and_then(Json::as_array).unwrap();
        assert_eq!(slow.len(), 2);
        let ok = &slow[0];
        assert_eq!(ok.get("status").and_then(Json::as_u64), Some(200));
        // The first solve compiles its plan, so its retained timeline
        // carries at least the `compile` phase.
        let phases = ok
            .get("timeline")
            .and_then(|t| t.get("phases"))
            .and_then(Json::as_array)
            .unwrap();
        assert!(
            phases
                .iter()
                .any(|p| p.get("name").and_then(Json::as_str) == Some("compile")),
            "expected a compile phase, got {phases:?}"
        );
        assert_eq!(slow[1].get("status").and_then(Json::as_u64), Some(400));

        // Under a high threshold a fast, successful request is profiled
        // and then dropped by the tail decision; an error is still kept.
        svc.config.slow_threshold_ms = 60_000;
        svc.handle_solve(br#"{"db":"shop","problem":"eval","query":"q(x, p) :- item(x, p)."}"#);
        svc.handle_solve(b"{still broken");
        let parsed = json::parse(&svc.debug_slow_json()).unwrap();
        let slow = parsed.get("slow").and_then(Json::as_array).unwrap();
        assert_eq!(slow.len(), 3, "a fast ok request must be dropped");
        assert_eq!(slow[2].get("status").and_then(Json::as_u64), Some(400));
        assert!(slow[2].get("timeline").and_then(|t| t.get("wall_ns")).is_some());
    }

    /// Telemetry is armed per request from the configuration: a
    /// service without the profiler attaches no timeline even while the
    /// calling thread has profiling on.
    #[test]
    fn request_telemetry_comes_from_the_config_alone() {
        let mut svc = service();
        svc.config.slow_threshold_ms = 0;
        let _profiling = timeline::scoped();
        svc.handle_solve(br#"{"db":"shop","problem":"eval","query":"q(x, p) :- item(x, p)."}"#);
        let parsed = json::parse(&svc.debug_slow_json()).unwrap();
        let slow = parsed.get("slow").and_then(Json::as_array).unwrap();
        assert_eq!(slow[0].get("timeline"), Some(&Json::Null));
        assert!(timeline::is_enabled(), "the caller's state is restored");
    }

    #[test]
    fn windows_and_gauges_show_up_in_metrics_json() {
        let svc = service();
        svc.handle_solve(br#"{"db":"shop","problem":"eval","query":"q(x, p) :- item(x, p)."}"#);
        let parsed = json::parse(&svc.metrics_json()).unwrap();
        assert!(parsed.get("uptime_seconds").and_then(Json::as_u64).is_some());
        assert_eq!(
            parsed.get("version").and_then(Json::as_str),
            Some(env!("CARGO_PKG_VERSION"))
        );
        assert_eq!(parsed.get("queue_depth").and_then(Json::as_u64), Some(0));
        let windows = parsed.get("windows").unwrap();
        for span in ["1s", "10s", "60s"] {
            assert!(windows.get(span).and_then(|w| w.get("rate")).is_some(), "{span}");
        }
        let al = parsed.get("access_log").unwrap();
        assert_eq!(al.get("enabled").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn prometheus_exposition_has_expected_series() {
        let svc = service();
        svc.handle_solve(br#"{"db":"shop","problem":"eval","query":"q(x, p) :- item(x, p)."}"#);
        let text = svc.metrics_prometheus();
        assert!(text.contains("# TYPE pkgrec_serve_requests_total counter"), "{text}");
        assert!(text.contains("pkgrec_serve_requests_total 1"), "{text}");
        assert!(text.contains("# TYPE pkgrec_serve_latency_us histogram"), "{text}");
        assert!(text.contains("pkgrec_serve_latency_us_bucket{le=\"+Inf\"} 1"), "{text}");
        assert!(text.contains("pkgrec_build_info{version=\""), "{text}");
        assert!(text.contains("pkgrec_serve_window_requests{window=\"10s\"}"), "{text}");
        // Trace counters from the solve surface under their registry names.
        assert!(text.contains("pkgrec_trace_query_plan_compiles_total"), "{text}");
    }

    #[test]
    fn explain_endpoint_compiles_and_reports_errors_typed() {
        let svc = service();
        // JSON body form.
        let (status, body) =
            svc.handle_explain(None, br#"{"db":"shop","query":"q(x, p) :- item(x, p)."}"#);
        assert_eq!(status, 200, "{body}");
        let resp = json::parse(&body).unwrap();
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
        let plan = resp.get("plan").unwrap();
        assert_eq!(plan.get("kind").and_then(Json::as_str), Some("cq"));

        // Raw query text + ?db= form.
        let (status, body) = svc.handle_explain(Some("shop"), b"q(x, p) :- item(x, p).");
        assert_eq!(status, 200, "{body}");

        // Typed errors: unknown db, missing db, parse failure.
        let (status, _) = svc.handle_explain(Some("nope"), b"q(x, p) :- item(x, p).");
        assert_eq!(status, 404);
        let (status, _) = svc.handle_explain(None, b"q(x, p) :- item(x, p).");
        assert_eq!(status, 400);
        let (status, body) = svc.handle_explain(Some("shop"), b"q(x :-");
        assert_eq!(status, 400);
        let resp = json::parse(&body).unwrap();
        assert_eq!(
            resp.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
            Some("parse_error")
        );
    }

    #[test]
    fn access_log_gets_one_record_per_request() {
        let dir = std::env::temp_dir().join(format!("pkgrec-svc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("svc-access.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut svc = service();
        svc.set_access_log(AccessLog::open(&path).unwrap());
        svc.handle_solve(br#"{"db":"shop","problem":"eval","query":"q(x, p) :- item(x, p)."}"#);
        svc.handle_solve(b"{broken");
        svc.close_access_log();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        let ok = json::parse(lines[0]).unwrap();
        assert_eq!(ok.get("db").and_then(Json::as_str), Some("shop"));
        assert_eq!(ok.get("outcome").and_then(Json::as_str), Some("exact"));
        assert_eq!(ok.get("status").and_then(Json::as_u64), Some(200));
        assert!(ok.get("dominant_counter").is_some());
        let bad = json::parse(lines[1]).unwrap();
        assert!(bad.get("db").unwrap().as_str().is_none());
        assert_eq!(
            bad.get("outcome").and_then(Json::as_str),
            Some("error:bad_request")
        );
        let _ = std::fs::remove_file(&path);
    }

    /// Regression: the plan cache must not serve plans compiled against
    /// a database that has since been swapped out. Before `PlanKey`
    /// carried the database epoch, this test answered `50` from the
    /// stale compiled plan after the swap.
    #[test]
    fn swapping_a_db_invalidates_its_cached_plans() {
        let mut svc = service();
        let body = br#"{"db":"shop","problem":"bound","query":"q(x, p) :- item(x, p).",
                        "val":"sum:1","max_size":2}"#;
        let (status, resp) = svc.handle_solve(body);
        assert_eq!(status, 200, "{resp}");
        let resp = json::parse(&resp).unwrap();
        // Best 2-item package by sum(price): 20 + 30.
        assert_eq!(resp.get("result").and_then(Json::as_f64), Some(50.0));
        assert_eq!(svc.metrics.plan_cache_misses.load(Ordering::Relaxed), 1);

        // Same name, new data: the resident db is replaced wholesale.
        svc.add_db("shop", shop_db(&[100, 200, 300]));
        let (status, resp) = svc.handle_solve(body);
        assert_eq!(status, 200, "{resp}");
        let resp = json::parse(&resp).unwrap();
        assert_eq!(
            resp.get("result").and_then(Json::as_f64),
            Some(500.0),
            "answer must come from the new data, not a stale plan"
        );
        // The swap is a fresh epoch, so the old plan cannot be reused.
        assert_eq!(svc.metrics.plan_cache_misses.load(Ordering::Relaxed), 2);
        assert_eq!(svc.metrics.plan_cache_hits.load(Ordering::Relaxed), 0);
    }

    /// Golden shape for `/metrics` on a fresh boot: less than one
    /// complete second has elapsed, so every windowed rate must be an
    /// honest finite zero — never NaN or infinity from a zero-second
    /// division.
    #[test]
    fn fresh_boot_metrics_have_finite_window_rates() {
        let svc = service();
        let parsed = json::parse(&svc.metrics_json()).expect("valid JSON on fresh boot");
        let windows = parsed.get("windows").unwrap();
        for span in ["1s", "10s", "60s"] {
            let rate = windows
                .get(span)
                .and_then(|w| w.get("rate"))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("missing rate for {span}"));
            assert!(rate.is_finite(), "{span} rate {rate} is not finite");
            assert_eq!(rate, 0.0, "no requests yet, so the {span} rate is zero");
        }

        let text = svc.metrics_prometheus();
        assert!(!text.contains("NaN"), "{text}");
        for line in text.lines() {
            if let Some(v) = line.rsplit(' ').next() {
                if let Ok(x) = v.parse::<f64>() {
                    assert!(x.is_finite(), "non-finite sample: {line}");
                }
            }
        }
        assert!(text.contains("pkgrec_serve_window_requests{window=\"10s\"} 0"), "{text}");
    }

    /// The `approx` knob routes topk/bound through the sketch engine,
    /// and the degradation contract shows in the body: `exact` is
    /// false and `method` is `"sketch"` — while the default path stays
    /// labeled `"exact"`.
    #[test]
    fn approx_requests_are_labeled_sketch_and_never_exact() {
        let (status, resp) = solve_body(
            r#"{"db":"shop","problem":"topk","query":"q(x, p) :- item(x, p).",
                "val":"sum:1","cost":"sum:1","budget":60,"max_size":2,"k":1,"approx":true}"#,
        );
        assert_eq!(status, 200, "{resp:?}");
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(resp.get("exact").and_then(Json::as_bool), Some(false));
        assert_eq!(resp.get("method").and_then(Json::as_str), Some("sketch"));
        let result = resp.get("result").and_then(Json::as_array).unwrap();
        assert_eq!(result.len(), 1);
        // Soundness survives the transport: the package respects the
        // budget 60 (prices 10, 20, 30 — any two fit).
        assert!(result[0].get("val").and_then(Json::as_f64).unwrap() <= 60.0);

        let (_, resp) = solve_body(
            r#"{"db":"shop","problem":"bound","query":"q(x, p) :- item(x, p).",
                "val":"sum:1","max_size":2,"approx":true}"#,
        );
        assert_eq!(resp.get("exact").and_then(Json::as_bool), Some(false));
        assert_eq!(resp.get("method").and_then(Json::as_str), Some("sketch"));

        // The exact path is still labeled exact.
        let (_, resp) = solve_body(
            r#"{"db":"shop","problem":"bound","query":"q(x, p) :- item(x, p).","max_size":2}"#,
        );
        assert_eq!(resp.get("exact").and_then(Json::as_bool), Some(true));
        assert_eq!(resp.get("method").and_then(Json::as_str), Some("exact"));
    }
}
