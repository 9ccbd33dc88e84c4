//! `serve_hot` and `serve_cold`: the resident service over real TCP.
//!
//! The server runs in this process, configured as production runs it:
//! `pkgrec_serve::start` with two workers, the default
//! `ServiceConfig` (rolling windows on, plan cache of 64) and a JSONL
//! access log. The load comes from two client threads with one
//! keep-alive connection each, in three phases: a warm-up, a closed
//! loop (each client waits for its reply; gives capacity) and an open
//! loop at a fixed rate (each request is due on a schedule and timed
//! from its due time, so a stall is charged to every request queued
//! behind it).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pkgrec_core::problems::{cpp, frp, mbp};
use pkgrec_core::{Ext, PreparedInstance, RecInstance, SizeBound, SolveOptions};
use pkgrec_data::{Database, Tuple, Value};
use pkgrec_perf_ledger::gen::{group_slices, grouped_catalog, shuffle, Zipf};
use pkgrec_perf_ledger::report::RunReport;
use pkgrec_perf_ledger::spans::{now_ns, SpanLog};
use pkgrec_perf_ledger::stats::{block_percentile, block_values, median, micros as us, percentile};
use pkgrec_query::parser::parse_query;
use pkgrec_serve::request::parse_fn_spec;
use pkgrec_serve::{start, AccessLog, ServerConfig, ServerHandle, Service, ServiceConfig};
use pkgrec_trace::TraceReport;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Args, LedgerError, SETUPS};

/// Which key distribution a serve workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// A few groups, every request a plan-cache hit.
    Hot,
    /// Zipf over every group: most requests insert or evict a plan.
    Cold,
}

/// The fixed sizes and rates of one serve workload.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// Catalog rows.
    rows: usize,
    /// Catalog groups (rows per group = rows / groups).
    groups: usize,
    /// `Hot`: how many groups are requested. `Cold` requests all.
    hot_groups: usize,
    /// Open-loop offered rate, requests per second.
    rate: f64,
    /// Requests per open-loop latency block.
    block: usize,
    /// Closed-loop requests sent before each phase.
    warm: usize,
}

impl Shape {
    fn of(traffic: Traffic, smoke: bool) -> Shape {
        match (traffic, smoke) {
            (Traffic::Hot, false) => Shape {
                rows: 20_000,
                groups: 500,
                hot_groups: 8,
                rate: 2000.0,
                block: 1000,
                warm: 500,
            },
            (Traffic::Cold, false) => Shape {
                rows: 20_000,
                groups: 500,
                hot_groups: 500,
                rate: COLD_RATE,
                block: 50,
                warm: 64,
            },
            (Traffic::Hot, true) => Shape {
                rows: 2_000,
                groups: 50,
                hot_groups: 8,
                rate: 400.0,
                block: 50,
                warm: 40,
            },
            (Traffic::Cold, true) => Shape {
                rows: 2_000,
                groups: 50,
                hot_groups: 50,
                rate: 100.0,
                block: 20,
                warm: 16,
            },
        }
    }
}

/// `serve_cold`'s fixed open-loop rate: about 40% of the closed-loop
/// capacity measured when the benchmark was defined (see
/// `ledger.json`). Fixed, not measured per run, so both sides of a
/// comparison offer the same load.
const COLD_RATE: f64 = 80.0;

/// The four request kinds, one plan key each per group.
const KINDS: [&str; 4] = ["topk", "bound", "count", "eval"];

/// Share of a phase budget given to the closed loop; the open loop
/// gets the rest.
const CLOSED_SHARE: f64 = 0.4;

/// Closed-loop completions are counted per window of this length; the
/// median window is the capacity.
const WINDOW: Duration = Duration::from_millis(500);

/// The smallest block-median lateness that [`check_backlog`] can call
/// a growing backlog.
const BACKLOG_FLOOR_US: u64 = 1000;

fn query_text(grp: usize) -> String {
    format!("q(i, p, s) :- item(i, {grp}, p, s).")
}

/// The `/solve` body for `(grp, kind)`. Topk, bound and count share
/// the instance parameters but differ in `k`, and eval carries none,
/// so each kind is a plan key of its own.
fn body(grp: usize, kind: usize) -> String {
    let q = query_text(grp);
    let params = r#""max_size":2,"cost":"sum:1","budget":150,"val":"sum:2""#;
    match KINDS[kind] {
        "topk" => format!(r#"{{"db":"shop","problem":"topk","query":"{q}","k":3,{params}}}"#),
        "bound" => format!(r#"{{"db":"shop","problem":"bound","query":"{q}","k":2,{params}}}"#),
        "count" => {
            format!(r#"{{"db":"shop","problem":"count","query":"{q}","min_val":100,{params}}}"#)
        }
        _ => format!(r#"{{"db":"shop","problem":"eval","query":"{q}"}}"#),
    }
}

/// The instance `pkgrec serve` builds for `(grp, kind)`, over `db`.
fn instance(db: Arc<Database>, grp: usize, kind: usize) -> RecInstance {
    let q = parse_query(&query_text(grp)).expect("the workload query parses");
    let inst = RecInstance::new(db, q);
    if KINDS[kind] == "eval" {
        let count = parse_fn_spec("count").expect("valid spec");
        return inst.with_cost(count.clone()).with_val(count);
    }
    inst.with_cost(parse_fn_spec("sum:1").expect("valid spec"))
        .with_val(parse_fn_spec("sum:2").expect("valid spec"))
        .with_budget(150.0)
        .with_size_bound(SizeBound::Constant(2))
        .with_k(match KINDS[kind] {
            "topk" => 3,
            "bound" => 2,
            _ => 1,
        })
}

/// Solve one key on a prepared instance, as the service would, and
/// render the `result` field the response must carry. The rendering is
/// the bench's own, so a service that renders an answer wrongly fails
/// the check too.
fn solve_rendered(prepared: &PreparedInstance, kind: usize) -> String {
    let ctx = prepared.context();
    let opts = SolveOptions::default().with_jobs(1);
    let mut out = String::new();
    match KINDS[kind] {
        "topk" => {
            let found = frp::top_k_in(&ctx, &opts).expect("reference solve").value;
            let val = &prepared.instance().val;
            match found {
                None => out.push_str("null"),
                Some(pkgs) => {
                    out.push('[');
                    for (i, p) in pkgs.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str("{\"items\":");
                        write_tuples(&mut out, p.iter());
                        out.push_str(",\"val\":");
                        write_ext(&mut out, val.eval(p));
                        out.push('}');
                    }
                    out.push(']');
                }
            }
        }
        "bound" => match mbp::maximum_bound_in(&ctx, &opts)
            .expect("reference solve")
            .value
        {
            None => out.push_str("null"),
            Some(e) => write_ext(&mut out, e),
        },
        "count" => {
            let n = cpp::count_valid_in(&ctx, Ext::from(100.0), &opts)
                .expect("reference solve")
                .value;
            out.push_str(&n.to_string());
        }
        _ => write_tuples(&mut out, ctx.items().iter()),
    }
    out
}

fn write_tuples<'a>(out: &mut String, tuples: impl Iterator<Item = &'a Tuple>) {
    out.push('[');
    for (i, t) in tuples.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, v) in t.values().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            match v {
                Value::Int(x) => out.push_str(&x.to_string()),
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Value::Str(s) => pkgrec_trace::json::write_string(out, s),
            }
        }
        out.push(']');
    }
    out.push(']');
}

fn write_ext(out: &mut String, e: Ext) {
    match e {
        Ext::NegInf => out.push_str("\"-inf\""),
        Ext::PosInf => out.push_str("\"+inf\""),
        Ext::Finite(x) => out.push_str(&format!("{x}")),
    }
}

/// Everything the clients send and check: per key, the HTTP request
/// bytes and the expected `result`.
struct Plan {
    requests: Vec<Vec<u8>>,
    expected: Vec<String>,
}

/// The keys of a workload: `(group, kind)` pairs indexed
/// `group_slot * 4 + kind`, where `groups[group_slot]` is the group.
struct Keys {
    groups: Vec<usize>,
}

impl Keys {
    fn len(&self) -> usize {
        self.groups.len() * KINDS.len()
    }

    fn key(&self, idx: usize) -> (usize, usize) {
        (self.groups[idx / KINDS.len()], idx % KINDS.len())
    }
}

/// Request key sequences, generated from the seed: which key the
/// `i`-th request of each phase sends.
struct Sequences {
    warm: Vec<usize>,
    closed: Vec<usize>,
    open: Vec<usize>,
}

fn sequences(
    traffic: Traffic,
    shape: &Shape,
    keys: &Keys,
    seed: u64,
    open_len: usize,
) -> Sequences {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E0_7E9);
    let zipf = Zipf::new(keys.groups.len(), 1.0);
    let mut draw = |n: usize| -> Vec<usize> {
        (0..n)
            .map(|_| {
                let slot = match traffic {
                    Traffic::Hot => rng.gen_range(0..keys.groups.len()),
                    Traffic::Cold => zipf.sample(&mut rng),
                };
                slot * KINDS.len() + rng.gen_range(0..KINDS.len())
            })
            .collect()
    };
    let mut warm = draw(shape.warm);
    if traffic == Traffic::Hot {
        // Every hot key compiles during the warm-up, so every timed
        // request is a plan-cache hit.
        warm.extend(0..keys.len());
    }
    Sequences {
        warm,
        closed: draw(1 << 16),
        open: draw(open_len),
    }
}

/// One keep-alive client connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

/// One parsed response.
struct Reply {
    status: u16,
    request_id: String,
    body: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            line: String::new(),
        })
    }

    fn call(&mut self, request: &[u8]) -> std::io::Result<Reply> {
        self.writer.write_all(request)?;
        self.line.clear();
        self.reader.read_line(&mut self.line)?;
        let status = self
            .line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line {:?}", self.line)))?;
        let mut content_length = 0usize;
        let mut request_id = String::new();
        loop {
            self.line.clear();
            self.reader.read_line(&mut self.line)?;
            let line = self.line.trim_end();
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| std::io::Error::other("bad content-length"))?;
            } else if name.eq_ignore_ascii_case("x-pkgrec-request-id") {
                request_id = value.trim().to_string();
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| std::io::Error::other("non-UTF-8 body"))?;
        Ok(Reply {
            status,
            request_id,
            body,
        })
    }
}

/// Whether a response answers its key exactly as the library does.
fn answer_matches(body: &str, expected: &str) -> bool {
    let result = body.find("\"result\":").and_then(|start| {
        let rest = &body[start + 9..];
        rest.find(",\"stats\":").map(|end| &rest[..end])
    });
    body.contains("\"exact\":true") && result == Some(expected)
}

/// One client request as measured.
#[derive(Debug, Clone)]
struct Sample {
    /// Index in the phase's sequence (the open loop's schedule slot).
    idx: usize,
    /// When the request was due (open loop) or sent (closed loop).
    due_ns: u64,
    send_ns: u64,
    recv_ns: u64,
    /// 200, `"exact":true` and the expected answer.
    ok: bool,
    /// The server's request id, when the phase keeps them.
    request_id: Option<String>,
}

/// How a client phase is paced.
#[derive(Debug, Clone, Copy)]
enum Pace {
    /// Closed loop until the deadline.
    Until(Instant),
    /// Closed loop for exactly this many requests.
    Count(usize),
    /// Open loop: request `i` due at `start + i / rate`, `n` requests.
    Open { start_ns: u64, rate: f64, n: usize },
}

/// Run one client phase on two connections and return its samples in
/// sequence order. Spans go to `logs` (one per client thread) when
/// they record; `keep_ids` keeps each reply's request id.
fn drive(
    addr: SocketAddr,
    plan: &Plan,
    seq: &[usize],
    pace: Pace,
    logs: &mut [SpanLog],
    keep_ids: bool,
) -> Result<Vec<Sample>, LedgerError> {
    let next = AtomicUsize::new(0);
    let per_thread: Vec<Result<Vec<Sample>, LedgerError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = logs
            .iter_mut()
            .map(|log| {
                let next = &next;
                scope.spawn(move || -> Result<Vec<Sample>, LedgerError> {
                    let mut client = Client::connect(addr)?;
                    let mut samples = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let due_ns = match pace {
                            Pace::Until(deadline) if Instant::now() >= deadline => break,
                            Pace::Count(n) if idx >= n => break,
                            Pace::Open { n, .. } if idx >= n => break,
                            Pace::Open { start_ns, rate, .. } => {
                                let due = start_ns + (idx as f64 * 1e9 / rate) as u64;
                                let now = now_ns();
                                if due > now {
                                    std::thread::sleep(Duration::from_nanos(due - now));
                                }
                                due
                            }
                            _ => now_ns(),
                        };
                        let key = seq[idx % seq.len()];
                        let send_ns = now_ns();
                        let reply = client.call(&plan.requests[key])?;
                        let recv_ns = now_ns();
                        let ok =
                            reply.status == 200 && answer_matches(&reply.body, &plan.expected[key]);
                        if log.enabled {
                            let op = idx as u64;
                            let id = log.open();
                            if due_ns < send_ns {
                                log.record("loadgen.wait", due_ns, send_ns, Some(id), op);
                            }
                            log.record("http.roundtrip", send_ns, recv_ns, Some(id), op);
                            log.close(id, "request", (due_ns, recv_ns), None, op);
                            log.annotate(id, "request_id", format!("\"{}\"", reply.request_id));
                        }
                        samples.push(Sample {
                            idx,
                            due_ns,
                            send_ns,
                            recv_ns,
                            ok,
                            request_id: keep_ids.then_some(reply.request_id),
                        });
                    }
                    Ok(samples)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(LedgerError::from("client thread panicked")))
            })
            .collect()
    });
    let mut all = Vec::new();
    for part in per_thread {
        all.extend(part?);
    }
    all.sort_by_key(|s| s.idx);
    Ok(all)
}

/// The server under test plus its access log.
struct Running {
    server: ServerHandle,
    access_log: Arc<AccessLog>,
    access_log_path: PathBuf,
}

/// Set-up, as `setup_s` times it: generate the catalog, start the
/// server with its access log, and run the warm-up that compiles the
/// first plans. Returns the server and the catalog.
fn set_up(
    shape: &Shape,
    seed: u64,
    plan: &Plan,
    warm: &[usize],
    log_path: PathBuf,
) -> Result<(Running, Arc<Database>), LedgerError> {
    let catalog = Arc::new(grouped_catalog(seed, shape.rows, shape.groups));
    let mut service = Service::new(ServiceConfig::default());
    service.add_db("shop", Arc::clone(&catalog));
    let _ = std::fs::remove_file(&log_path);
    let access_log = AccessLog::open(&log_path)?;
    service.set_access_log(Arc::clone(&access_log));
    let server = start(
        ServerConfig {
            listen: "127.0.0.1:0".to_string(),
            workers: 2,
            ..ServerConfig::default()
        },
        service,
    )?;
    let mut quiet = [SpanLog::new(0, false), SpanLog::new(1, false)];
    let samples = drive(
        server.addr(),
        plan,
        warm,
        Pace::Count(warm.len()),
        &mut quiet,
        false,
    )?;
    if let Some(bad) = samples.iter().find(|s| !s.ok) {
        return Err(format!("warm-up request {} got a wrong or failed answer", bad.idx).into());
    }
    Ok((
        Running {
            server,
            access_log,
            access_log_path: log_path,
        },
        catalog,
    ))
}

/// What one measured half (closed + open loop) produced.
struct Measured {
    /// 200-OK completions per second, median over closed-loop windows.
    ops_per_s: f64,
    closed: Vec<Sample>,
    open: Vec<Sample>,
    /// Warm-up requests sent before the two loops.
    warm: u64,
    /// Plan-cache hits and misses over the warm-ups and both loops.
    hits: u64,
    misses: u64,
    /// Trace counters the service merged over the same requests.
    trace: TraceReport,
}

impl Measured {
    /// Requests the hit, miss and trace counts cover.
    fn requests(&self) -> u64 {
        self.warm + (self.closed.len() + self.open.len()) as u64
    }

    fn latencies_ns(&self) -> Vec<u64> {
        self.open.iter().map(|s| s.recv_ns - s.due_ns).collect()
    }

    fn lateness_ns(&self) -> Vec<u64> {
        self.open
            .iter()
            .map(|s| s.send_ns.saturating_sub(s.due_ns))
            .collect()
    }
}

/// Warm-up, closed loop, warm-up, open loop, within `seconds`.
/// `keep_ids` keeps the request ids of the open loop's replies.
fn measure(
    running: &Running,
    shape: &Shape,
    plan: &Plan,
    seqs: &Sequences,
    seconds: f64,
    logs: &mut [SpanLog],
    keep_ids: bool,
) -> Result<Measured, LedgerError> {
    let addr = running.server.addr();
    let service = running.server.service();
    let hits0 = service.metrics.plan_cache_hits.load(Ordering::Relaxed);
    let misses0 = service.metrics.plan_cache_misses.load(Ordering::Relaxed);
    let trace0 = service
        .metrics
        .trace
        .lock()
        .map_err(|_| "trace lock poisoned")?
        .clone();
    let mut quiet = [SpanLog::new(0, false), SpanLog::new(1, false)];

    drive(
        addr,
        plan,
        &seqs.warm,
        Pace::Count(shape.warm),
        &mut quiet,
        false,
    )?;
    let closed_for = Duration::from_secs_f64(seconds * CLOSED_SHARE);
    let t0 = now_ns();
    let closed = drive(
        addr,
        plan,
        &seqs.closed,
        Pace::Until(Instant::now() + closed_for),
        logs,
        false,
    )?;
    let windows = (closed_for.as_nanos() / WINDOW.as_nanos()).max(1) as u64;
    let width = WINDOW.as_nanos() as u64;
    let mut per_window = vec![0u64; windows as usize];
    for s in closed.iter().filter(|s| s.ok) {
        if let Some(w) = per_window.get_mut(((s.recv_ns - t0) / width) as usize) {
            *w += 1;
        }
    }
    let counts: Vec<f64> = per_window.iter().map(|&c| c as f64).collect();
    let ops_per_s = median(&counts).unwrap_or(0.0) * 1e9 / width as f64;

    drive(
        addr,
        plan,
        &seqs.warm,
        Pace::Count(shape.warm),
        &mut quiet,
        false,
    )?;
    let n = ((seconds * (1.0 - CLOSED_SHARE)) * shape.rate) as usize;
    let start_ns = now_ns() + 1_000_000;
    let open = drive(
        addr,
        plan,
        &seqs.open,
        Pace::Open {
            start_ns,
            rate: shape.rate,
            n,
        },
        logs,
        keep_ids,
    )?;

    let mut trace = service
        .metrics
        .trace
        .lock()
        .map_err(|_| "trace lock poisoned")?
        .clone();
    for (name, before) in &trace0.counters {
        if let Some(now) = trace.counters.get_mut(name) {
            *now -= before;
        }
    }
    Ok(Measured {
        ops_per_s,
        closed,
        open,
        warm: 2 * shape.warm as u64,
        hits: service.metrics.plan_cache_hits.load(Ordering::Relaxed) - hits0,
        misses: service.metrics.plan_cache_misses.load(Ordering::Relaxed) - misses0,
        trace,
    })
}

/// Fail the run when the open loop built a backlog: the median
/// lateness of its last block is both above [`BACKLOG_FLOOR_US`] and
/// ten times the first block's. A queue that grows moves every request
/// behind it, and so the block median; one stall on a shared host
/// moves only a block's tail.
fn check_backlog(m: &Measured, block: usize) -> Result<(), LedgerError> {
    let late = block_values(&m.lateness_ns(), block, 0.5);
    if let (Some(&first), Some(&last)) = (late.first(), late.last()) {
        if last > 10 * first.max(BACKLOG_FLOOR_US * 1000) {
            return Err(format!(
                "growing backlog: open-loop median lateness went from {} us to {} us",
                first / 1000,
                last / 1000
            )
            .into());
        }
    }
    Ok(())
}

/// Run `serve_hot` or `serve_cold`.
pub fn run(traffic: Traffic, args: &Args) -> Result<(RunReport, Vec<SpanLog>), LedgerError> {
    let shape = Shape::of(traffic, args.smoke);
    let mut order: Vec<usize> = (0..shape.groups).collect();
    shuffle(&mut StdRng::seed_from_u64(args.seed), &mut order);
    order.truncate(shape.hot_groups);
    let keys = Keys { groups: order };
    let open_len = ((args.seconds * (1.0 - CLOSED_SHARE)) * shape.rate) as usize + 1;
    let seqs = sequences(traffic, &shape, &keys, args.seed, open_len);

    // The reference answers, computed untimed by the library on each
    // group's own rows: the query selects exactly those rows, so Q(D)
    // — and with it every answer — is the one the server computes
    // over the whole catalog, without compiling every key against
    // 20k rows.
    let catalog = grouped_catalog(args.seed, shape.rows, shape.groups);
    let slices = group_slices(&catalog, shape.groups);
    let mut plan = Plan {
        requests: Vec::with_capacity(keys.len()),
        expected: Vec::with_capacity(keys.len()),
    };
    for idx in 0..keys.len() {
        let (grp, kind) = keys.key(idx);
        let b = body(grp, kind);
        plan.requests.push(
            format!(
                "POST /solve HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{b}",
                b.len()
            )
            .into_bytes(),
        );
        let prepared = PreparedInstance::new(instance(Arc::new(slices[grp].clone()), grp, kind))?;
        plan.expected.push(solve_rendered(&prepared, kind));
    }
    drop((catalog, slices));

    let name = match traffic {
        Traffic::Hot => "serve_hot",
        Traffic::Cold => "serve_cold",
    };
    let log_path = |i: usize| {
        args.out
            .join(format!("{name}-{}-{i}.access.jsonl", std::process::id()))
    };
    let mut setups = Vec::new();
    let timed_set_up = |i: usize, setups: &mut Vec<f64>| {
        let t = Instant::now();
        let up = set_up(&shape, args.seed, &plan, &seqs.warm, log_path(i));
        setups.push(t.elapsed().as_secs_f64());
        up
    };
    let (running, catalog) = timed_set_up(0, &mut setups)?;

    let mut report = RunReport::default();
    let mut logs = vec![SpanLog::new(0, false), SpanLog::new(1, false)];
    let result = if args.trace {
        traced(
            &running,
            &shape,
            &plan,
            &seqs,
            &keys,
            &catalog,
            args,
            &mut report,
            &mut logs,
        )
        .map(Some)
    } else {
        untraced(&running, &shape, &plan, &seqs, args, &mut report).map(|()| None)
    };
    report.set_peak_rss()?;
    report.set(
        "serve.access_log_dropped",
        running.access_log.dropped() as f64,
    );
    report.set(
        "serve.deadline_partials",
        running
            .server
            .service()
            .metrics
            .deadline_partial
            .load(Ordering::Relaxed) as f64,
    );
    drop(catalog);
    let access_log = retire(running);
    let joined = match result {
        Ok(Some(roundtrips)) => join_access_log(&access_log, &roundtrips, &mut report),
        Ok(None) => Ok(()),
        Err(e) => Err(e),
    };
    let _ = std::fs::remove_file(&access_log);
    joined?;

    // The other set-ups come after the peak memory was read, so their
    // allocations cannot inflate it.
    for i in 1..SETUPS {
        let (up, _) = timed_set_up(i, &mut setups)?;
        let _ = std::fs::remove_file(retire(up));
    }
    report.set("setup_s", median(&setups).unwrap_or(0.0));
    Ok((report, logs))
}

/// The end-to-end measurement: capacity from the closed loop, the
/// block-median p50 from the open loop.
fn untraced(
    running: &Running,
    shape: &Shape,
    plan: &Plan,
    seqs: &Sequences,
    args: &Args,
    report: &mut RunReport,
) -> Result<(), LedgerError> {
    let mut quiet = [SpanLog::new(0, false), SpanLog::new(1, false)];
    let m = measure(running, shape, plan, seqs, args.seconds, &mut quiet, false)?;
    check_backlog(&m, shape.block)?;
    for s in m.closed.iter().chain(&m.open) {
        report.attempt(s.ok);
    }
    report.set("ops_per_s", m.ops_per_s);
    let p50 = block_percentile(&m.latencies_ns(), shape.block, 0.5)
        .ok_or("too few open-loop requests for one latency block")?;
    report.set("latency_p50_us", p50 as f64 / 1000.0);
    Ok(())
}

/// Shut a server down, flushing its access log, and return the log's
/// path.
fn retire(running: Running) -> PathBuf {
    running.server.shutdown();
    running.access_log_path
}

/// The trace run: an untraced half and a traced half of the same
/// phases (their capacity ratio is `trace.overhead_pct`), then a
/// replay of each layer's public functions on the workload's keys.
///
/// The serve layer times come from telemetry that is always on — the
/// access log and `Service::metrics` — so they are read from the
/// untraced half: the timeline stamps every search unit under one
/// global lock (821 units for a 40-item pool), which costs the service
/// most of its capacity and would distort the attribution. The traced
/// half records the bench's spans. Returns the client send→receive
/// time of each untraced open-loop request by request id, for the
/// access-log join after shutdown.
#[allow(clippy::too_many_arguments)]
fn traced(
    running: &Running,
    shape: &Shape,
    plan: &Plan,
    seqs: &Sequences,
    keys: &Keys,
    catalog: &Arc<Database>,
    args: &Args,
    report: &mut RunReport,
    logs: &mut [SpanLog],
) -> Result<HashMap<String, u64>, LedgerError> {
    let half = args.seconds / 2.0;
    let mut quiet = [SpanLog::new(0, false), SpanLog::new(1, false)];
    let plain = measure(running, shape, plan, seqs, half, &mut quiet, true)?;
    check_backlog(&plain, shape.block)?;
    for log in logs.iter_mut() {
        log.enabled = true;
    }
    let m = {
        let _trace = pkgrec_trace::scoped();
        let _timeline = pkgrec_trace::timeline::scoped();
        measure(running, shape, plan, seqs, half, logs, false)?
    };
    pkgrec_trace::timeline::reset();
    // Under that cost the traced open loop may queue behind its
    // schedule; it is measured for its spans, not its latency.
    for s in plain
        .closed
        .iter()
        .chain(&plain.open)
        .chain(&m.closed)
        .chain(&m.open)
    {
        report.attempt(s.ok);
    }
    report.set(
        "trace.overhead_pct",
        (plain.ops_per_s - m.ops_per_s) / plain.ops_per_s * 100.0,
    );
    report.set(
        "serve.latency_p99_us",
        us(block_percentile(&plain.latencies_ns(), shape.block, 0.99)),
    );
    let late = plain.lateness_ns();
    report.set("loadgen.late_p50_us", us(percentile(&late, 0.5)));
    report.set("loadgen.late_p99_us", us(percentile(&late, 0.99)));
    report.set(
        "serve.plan_cache_hit_ratio",
        plain.hits as f64 / (plain.hits + plain.misses).max(1) as f64,
    );
    report.set_counters(&plain.trace, plain.requests());
    replay(keys, catalog, report, &mut logs[0])?;
    Ok(plain
        .open
        .iter()
        .filter_map(|s| Some((s.request_id.clone()?, s.recv_ns - s.send_ns)))
        .collect())
}

/// Join the access log with the untraced open loop on the request id:
/// `serve.service_us_*` from the log's `solve_us`, and
/// `serve.http_us_p50` as client send→receive minus the log's
/// `total_us` (what framing, sockets and the worker hand-off cost).
fn join_access_log(
    path: &Path,
    roundtrips: &HashMap<String, u64>,
    report: &mut RunReport,
) -> Result<(), LedgerError> {
    let text = std::fs::read_to_string(path)?;
    let mut service_ns = Vec::new();
    let mut http_ns = Vec::new();
    for line in text.lines() {
        let rec = pkgrec_trace::json::parse(line).map_err(|e| format!("access log: {e}"))?;
        let Some(rt) = rec
            .get("request_id")
            .and_then(|v| v.as_str())
            .and_then(|id| roundtrips.get(id))
        else {
            continue;
        };
        let field = |k: &str| rec.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
        service_ns.push(field("solve_us") * 1000);
        http_ns.push(rt.saturating_sub(field("total_us") * 1000));
    }
    if service_ns.len() < roundtrips.len() {
        return Err(format!(
            "access log covers {} of {} open-loop requests",
            service_ns.len(),
            roundtrips.len()
        )
        .into());
    }
    report.set("serve.service_us_p50", us(percentile(&service_ns, 0.5)));
    report.set("serve.service_us_p99", us(percentile(&service_ns, 0.99)));
    report.set("serve.http_us_p50", us(percentile(&http_ns, 0.5)));
    Ok(())
}

/// Call each layer's public function directly on up to 32 of the
/// workload's keys: `Query::compile` against the whole catalog,
/// `PreparedInstance::new`, and the solver per kind on a prepared
/// context.
fn replay(
    keys: &Keys,
    catalog: &Arc<Database>,
    report: &mut RunReport,
    log: &mut SpanLog,
) -> Result<(), LedgerError> {
    let mut compile = Vec::new();
    let mut prepare = Vec::new();
    let mut solve: [Vec<u64>; 4] = Default::default();
    let (mut busy, mut wall) = (0u64, 0u64);
    for idx in 0..keys.len().min(32) {
        let (grp, kind) = keys.key(idx);
        let op = 1_000_000 + idx as u64;
        let parent = log.open();
        let t0 = now_ns();
        let q = parse_query(&query_text(grp))?;
        let (plan, ns) = log.time("replay.compile", Some(parent), op, || q.compile(catalog));
        plan?;
        compile.push(ns);
        let inst = instance(Arc::clone(catalog), grp, kind);
        let (prepared, ns) = log.time("replay.prepare", Some(parent), op, || {
            PreparedInstance::new(inst)
        });
        let prepared = prepared?;
        prepare.push(ns);
        // Five timed solves, then one with the timeline on for the
        // busy share (the timeline's stamps would inflate the times).
        for round in 0..6 {
            let _tl = (round == 5).then(pkgrec_trace::timeline::scoped);
            let ctx = prepared.context();
            let opts = SolveOptions::default().with_jobs(1);
            let name = format!("replay.solve.{}", KINDS[kind]);
            let (workers, ns) = log.time(&name, Some(parent), op, || match KINDS[kind] {
                "topk" => frp::top_k_in(&ctx, &opts).map(|o| o.stats.workers),
                "bound" => mbp::maximum_bound_in(&ctx, &opts).map(|o| o.stats.workers),
                "count" => {
                    cpp::count_valid_in(&ctx, Ext::from(100.0), &opts).map(|o| o.stats.workers)
                }
                _ => Ok(std::hint::black_box(ctx.items().len())).map(|_| Vec::new()),
            });
            let workers = workers?;
            if round == 5 {
                if !workers.is_empty() {
                    busy += workers.iter().map(|w| w.busy_ns).sum::<u64>();
                    wall += ns;
                }
            } else {
                solve[kind].push(ns);
            }
        }
        log.close(
            parent,
            format!("replay.{}", KINDS[kind]),
            (t0, now_ns()),
            None,
            op,
        );
    }
    pkgrec_trace::timeline::reset();
    let p50 = |v: &[u64]| us(percentile(v, 0.5));
    report.set("query.compile_us_p50", p50(&compile));
    report.set("core.prepare_us_p50", p50(&prepare));
    for (kind, name) in KINDS.iter().enumerate() {
        let metric = match *name {
            "topk" => "core.solve_topk_us_p50",
            "bound" => "core.solve_bound_us_p50",
            "count" => "core.solve_count_us_p50",
            _ => "core.solve_eval_us_p50",
        };
        report.set(metric, p50(&solve[kind]));
    }
    report.set(
        "enumerate.busy_share",
        if wall > 0 {
            busy as f64 / wall as f64
        } else {
            0.0
        },
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_slice_reference_equals_whole_catalog_answer() {
        let catalog = Arc::new(grouped_catalog(11, 400, 10));
        let slices = group_slices(&catalog, 10);
        for grp in [0usize, 7] {
            for kind in 0..KINDS.len() {
                let whole =
                    PreparedInstance::new(instance(Arc::clone(&catalog), grp, kind)).unwrap();
                let part =
                    PreparedInstance::new(instance(Arc::new(slices[grp].clone()), grp, kind))
                        .unwrap();
                assert_eq!(solve_rendered(&whole, kind), solve_rendered(&part, kind));
            }
        }
    }

    #[test]
    fn rendered_reference_matches_the_service_body() {
        let catalog = grouped_catalog(3, 200, 5);
        let mut service = Service::new(ServiceConfig::default());
        service.add_db("shop", catalog.clone());
        let slices = group_slices(&catalog, 5);
        for kind in 0..KINDS.len() {
            let (status, reply) = service.handle_solve(body(2, kind).as_bytes());
            assert_eq!(status, 200, "{reply}");
            let prepared =
                PreparedInstance::new(instance(Arc::new(slices[2].clone()), 2, kind)).unwrap();
            let expected = solve_rendered(&prepared, kind);
            assert!(answer_matches(&reply, &expected), "{} vs {expected}", reply);
            assert!(!answer_matches(&reply, "[]"));
        }
    }

    #[test]
    fn every_kind_is_its_own_plan_key() {
        let catalog = grouped_catalog(3, 200, 5);
        let mut service = Service::new(ServiceConfig::default());
        service.add_db("shop", catalog);
        for kind in 0..KINDS.len() {
            service.handle_solve(body(1, kind).as_bytes());
        }
        assert_eq!(service.plans_cached(), KINDS.len());
    }
}
