//! `pkgrec` — run package recommendation problems from the command
//! line, no Rust required.
//!
//! ```text
//! pkgrec eval  <db-file> <query>                  evaluate Q(D)
//! pkgrec topk  <db-file> <query> [options]        FRP: top-k packages
//! pkgrec bound <db-file> <query> [options]        MBP: maximum rating bound
//! pkgrec count <db-file> <query> --min-val B ...  CPP: count valid packages
//! pkgrec items <db-file> <query> --val sum:COL --k K    top-k items
//! pkgrec explain <db-file> <query> [--json]       show the compiled query plan
//! pkgrec profile <db-file> <query> [options]      profile a topk solve
//! pkgrec chaos-sites                              list PKGREC_CHAOS fault sites
//! pkgrec qbf   <qdimacs-file> [options]           check Theorem 4.1 encodings
//! pkgrec serve --db NAME=PATH [...]               resident solve service
//!
//! options:
//!   --k N              number of packages/items (default 1)
//!   --budget C         cost budget (default unbounded)
//!   --cost SPEC        count | sum:COL            (default count)
//!   --val SPEC         count | sum:COL | negsum:COL (default count)
//!   --min-val B        rating bound for `count`
//!   --max-size N       constant package-size bound (default |D|)
//!   --steps N          search budget: stop after N enumeration steps
//!   --timeout-ms T     search budget: stop after T milliseconds
//!   --jobs N           worker threads for the package search
//!                      (default 1; 0 = $PKGREC_JOBS or 1)
//!   --trace[=human|json]   collect solver metrics; print them after the
//!                      answer (human) or as one JSONL record (json)
//!   --trace-out PATH   append the JSONL trace record to PATH instead
//!                      of stdout (implies --trace=json)
//!   --flight-out PATH  keep a flight recorder (bounded ring of
//!                      structured search events) during the solve and
//!                      write it to PATH as JSONL — on completion *and*
//!                      on interruption, so a budget cut comes with its
//!                      last-N-events black box
//!   --progress         print a throttled live progress line (percent,
//!                      units, ETA) to stderr while the search runs
//!   --approx           solve `topk`/`bound` with the SketchRefine
//!                      approximate engine (partition, sketch over
//!                      representatives, refine): scales to item pools
//!                      the exact search cannot touch, but the answer
//!                      is never certified optimal and is printed with
//!                      an explicit `approximate` marker
//!
//! profile options (plus all solve options above):
//!   --chrome-out PATH  also write the solve's profile timeline as a
//!                      Chrome Trace Event Format JSON file (open in
//!                      Perfetto / chrome://tracing): one duration
//!                      track per worker, one per phase
//!
//! `profile` runs a `topk` solve (`--approx` for the sketch engine)
//! with tracing and the profile timeline forced on, then prints an
//! attribution report: wall time per phase,
//! per-worker utilization (busy time, units, steps), per-span-path
//! share of the wall, and the plan-probe and sketch/refine counter
//! breakdowns.
//!
//! serve options:
//!   --listen ADDR         bind address (default 127.0.0.1:7878; port 0
//!                         picks an ephemeral port, printed on startup)
//!   --db NAME=PATH        load PATH (text format) as resident db NAME;
//!                         repeatable, at least one required
//!   --workers N           request worker threads (default 4)
//!   --queue N             connection-queue capacity; beyond it requests
//!                         are shed with HTTP 503 `overloaded` (default 64)
//!   --max-deadline-ms T   hard per-request wall-clock cap (default 10000);
//!                         requests can tighten it, never exceed it
//!   --max-jobs N          cap on per-request solver threads (default 4)
//!   --access-log PATH     append one JSONL record per request to PATH
//!                         (bounded + lossy: logging never blocks workers;
//!                         drops are counted in /metrics)
//!   --flight-dir DIR      record each request's flight recording and
//!                         export it to DIR/<request-id>.flight.jsonl
//!   --slow-threshold-ms T requests that took at least T ms, and every
//!                         error, land in the GET /debug/slow ring
//!                         (last 32; default 250)
//!   --profile             tail-sampling profiler: every request records
//!                         a profile timeline, kept only with its
//!                         /debug/slow entry — a summary inline and,
//!                         with --flight-dir, a Chrome-trace
//!                         DIR/<request-id>.profile.json
//! ```
//!
//! `serve` keeps databases resident, caches compiled plans per
//! `(db, query, parameters)` key, and answers `POST /solve`
//! (JSON), `GET /metrics` (add `?format=prometheus` for exposition
//! text), `GET /debug/slow`, `GET|POST /explain`
//! and `GET /health` until killed. Every response carries an `x-pkgrec-request-id`
//! header that correlates the access-log record, the `/debug/slow`
//! entry and the flight export for the same request. Deadlines
//! that trip mid-search return the best-so-far partial answer
//! (`"exact": false`), overload is shed with a typed `overloaded`
//! error plus `Retry-After`, and panicking requests are contained
//! per-request. Set `PKGREC_CHAOS` (see `pkgrec::trace::chaos`) to
//! inject deterministic faults for robustness testing; `chaos-sites`
//! lists the valid site names.
//!
//! With `--steps`/`--timeout-ms`, `topk`, `bound` and `count` are
//! *anytime*: when the budget runs out they print the best result found
//! so far, marked as a partial (lower-bound) answer.
//!
//! The database file uses the `pkgrec::data::text` format; the query is
//! inline text (rule form `q(x) :- r(x, y).` or FO form
//! `q(x) = exists y. r(x, y)`) or `@path` to read it from a file.
//!
//! `qbf` reads a QDIMACS file (`p cnf V C`, `e`/`a` quantifier lines,
//! DIMACS clauses), evaluates the sentence with the QBF solver, then
//! machine-checks the paper's Theorem 4.1 membership encodings against
//! it: the DATALOGnr and FO rewritings evaluated by the query engine,
//! and the RPP top-1 wrapping decided by the package enumerator. With
//! `--trace` this exercises — and meters — all three solver layers.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pkgrec::core::{
    problems::cpp, problems::frp, problems::mbp, problems::rpp, Budget, Ext, Method, PackageFn,
    Progress, RecInstance, SizeBound, SketchParams, SolveOptions,
};
use pkgrec::data::text::parse_database;
use pkgrec::data::{tuple, Database};
use pkgrec::logic::{parse_qdimacs, QbfFormula};
use pkgrec::query::parser::{parse_fo, parse_query};
use pkgrec::query::Query;
use pkgrec::reductions::membership;
use pkgrec::serve::request::parse_fn_spec;

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("pkgrec: {msg}");
            ExitCode::FAILURE
        }
    }
}

struct Options {
    k: usize,
    budget: Ext,
    cost: PackageFn,
    val: PackageFn,
    min_val: Option<f64>,
    max_size: Option<usize>,
    steps: Option<u64>,
    timeout_ms: Option<u64>,
    jobs: Option<usize>,
    trace: Option<TraceFormat>,
    trace_out: Option<String>,
    flight_out: Option<String>,
    progress: bool,
    approx: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    Human,
    Json,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        k: 1,
        budget: Ext::PosInf,
        cost: PackageFn::count(),
        val: PackageFn::cardinality(),
        min_val: None,
        max_size: None,
        steps: None,
        timeout_ms: None,
        jobs: None,
        trace: None,
        trace_out: None,
        flight_out: None,
        progress: false,
        approx: false,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = &args[i];
        // `--trace` variants are single-token flags (no separate value).
        if flag == "--trace" || flag == "--trace=human" {
            opts.trace = Some(TraceFormat::Human);
            i += 1;
            continue;
        }
        if flag == "--trace=json" {
            opts.trace = Some(TraceFormat::Json);
            i += 1;
            continue;
        }
        if flag == "--progress" {
            opts.progress = true;
            i += 1;
            continue;
        }
        if flag == "--approx" {
            opts.approx = true;
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        match flag.as_str() {
            "--k" => opts.k = value.parse().map_err(|_| "bad --k value".to_string())?,
            "--budget" => {
                opts.budget = Ext::Finite(
                    value.parse().map_err(|_| "bad --budget value".to_string())?,
                )
            }
            "--cost" => opts.cost = parse_fn_spec(value).map_err(|e| e.message)?,
            "--val" => opts.val = parse_fn_spec(value).map_err(|e| e.message)?,
            "--min-val" => {
                opts.min_val =
                    Some(value.parse().map_err(|_| "bad --min-val value".to_string())?)
            }
            "--max-size" => {
                opts.max_size =
                    Some(value.parse().map_err(|_| "bad --max-size value".to_string())?)
            }
            "--steps" => {
                opts.steps =
                    Some(value.parse().map_err(|_| "bad --steps value".to_string())?)
            }
            "--timeout-ms" => {
                opts.timeout_ms = Some(
                    value
                        .parse()
                        .map_err(|_| "bad --timeout-ms value".to_string())?,
                )
            }
            "--jobs" => {
                opts.jobs = Some(value.parse().map_err(|_| "bad --jobs value".to_string())?)
            }
            "--trace-out" => {
                opts.trace_out = Some(value.clone());
                // Writing to a file only makes sense as JSONL; a prior
                // explicit `--trace=human` still prints to stdout too.
                opts.trace.get_or_insert(TraceFormat::Json);
            }
            "--flight-out" => opts.flight_out = Some(value.clone()),
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 2;
    }
    Ok(opts)
}

fn load_db(path: &str) -> Result<Database, String> {
    let src =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    parse_database(&src).map_err(|e| format!("in `{path}`: {e}"))
}

fn load_query(arg: &str) -> Result<Query, String> {
    let text = match arg.strip_prefix('@') {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?
        }
        None => arg.to_string(),
    };
    // Rule form first, FO form second; report the rule-form error when
    // both fail and the text looks like a rule.
    match parse_query(&text) {
        Ok(q) => Ok(q),
        Err(rule_err) => match parse_fo(&text) {
            Ok(q) => Ok(q),
            Err(fo_err) => Err(if text.contains(":-") {
                format!("query parse error: {rule_err}")
            } else {
                format!("query parse error: {fo_err}")
            }),
        },
    }
}

fn build_instance(db: Database, query: Query, opts: &Options) -> RecInstance {
    let mut inst = RecInstance::new(db, query)
        .with_cost(opts.cost.clone())
        .with_val(opts.val.clone())
        .with_budget(opts.budget)
        .with_k(opts.k);
    if let Some(n) = opts.max_size {
        inst = inst.with_size_bound(SizeBound::Constant(n));
    }
    inst
}

/// Load a QDIMACS file via [`pkgrec::logic::parse_qdimacs`], prefixing
/// errors with the path (and line, for syntax errors).
fn load_qbf(path: &str) -> Result<QbfFormula, String> {
    let src =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    parse_qdimacs(&src).map_err(|e| format!("{path}:{e}"))
}

/// The `qbf` command: evaluate a closed QBF sentence directly, then
/// machine-check the Theorem 4.1 membership encodings against it —
/// DATALOGnr and FO via the query engine, RPP top-1 membership via the
/// package enumerator. Exercises the logic, query and core layers in
/// one run, so `--trace` surfaces counters from all three.
fn cmd_qbf(qbf_path: &str, opts: &Options, solver_opts: &SolveOptions) -> Result<(), String> {
    let qbf = load_qbf(qbf_path)?;
    let mut budget = Budget::unlimited();
    if let Some(n) = opts.steps {
        budget = budget.steps(n);
    }
    if let Some(ms) = opts.timeout_ms {
        budget = budget.timeout(std::time::Duration::from_millis(ms));
    }
    let direct = qbf
        .is_true_budgeted(&budget.meter())
        .map_err(|e| e.to_string())?;
    println!(
        "qbf: {} vars, {} clauses: {}",
        qbf.matrix.num_vars,
        qbf.matrix.clauses.len(),
        if direct { "TRUE" } else { "FALSE" }
    );

    let (db, q) = membership::qbf_to_datalognr(&qbf);
    let via_datalog = !q.eval(&db).map_err(|e| e.to_string())?.is_empty();
    let (db, q) = membership::qbf_to_fo(&qbf);
    let via_fo = !q.eval(&db).map_err(|e| e.to_string())?.is_empty();
    // Wrap the FO encoding as an RPP instance: {()} is a top-1
    // selection iff the empty tuple is an answer, i.e. iff the QBF
    // holds.
    let (inst, sel) = membership::rpp_from_membership(db, q, tuple![]);
    let via_rpp = rpp::is_top_k(&inst, &sel, solver_opts).map_err(|e| e.to_string())?;

    for (name, got) in [
        ("datalognr", via_datalog),
        ("fo", via_fo),
        ("rpp top-1 membership", via_rpp),
    ] {
        if got != direct {
            return Err(format!(
                "{name} encoding disagrees with the QBF solver \
                 ({got} vs {direct}) — reduction bug"
            ));
        }
    }
    println!("encodings agree: datalognr, fo, rpp top-1 membership");
    Ok(())
}

/// Emit the collected trace report per `--trace`/`--trace-out`.
fn emit_trace(opts: &Options) -> Result<(), String> {
    let Some(format) = opts.trace else {
        return Ok(());
    };
    let report = pkgrec_trace::take();
    match format {
        TraceFormat::Human => print!("{}", report.render_human()),
        TraceFormat::Json => {
            if opts.trace_out.is_none() {
                println!("{}", report.to_json());
            }
        }
    }
    if let Some(path) = &opts.trace_out {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open `{path}`: {e}"))?;
        writeln!(file, "{}", report.to_json())
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    Ok(())
}

/// Write the flight recording to `--flight-out` as JSONL. Called on
/// success *and* error paths so an interrupted or failed solve still
/// leaves its black box behind.
fn emit_flight(opts: &Options) -> Result<(), String> {
    let Some(path) = &opts.flight_out else {
        return Ok(());
    };
    let recording = pkgrec_trace::flight::take_recording();
    std::fs::write(path, recording.to_jsonl())
        .map_err(|e| format!("cannot write `{path}`: {e}"))
}

/// Live reporting for `--progress`: a monitor thread polls the shared
/// [`Progress`] estimate the enumeration engines feed and prints a
/// throttled stderr line with percent, unit counts and an ETA
/// extrapolated from the elapsed wall time.
struct ProgressMonitor {
    progress: Arc<Progress>,
    stop: Arc<AtomicBool>,
    started: Instant,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ProgressMonitor {
    const PRINT_EVERY: Duration = Duration::from_millis(200);

    fn spawn(progress: Arc<Progress>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let started = Instant::now();
        let handle = {
            let (progress, stop) = (Arc::clone(&progress), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut last_print = Instant::now();
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(25));
                    if last_print.elapsed() < Self::PRINT_EVERY {
                        continue;
                    }
                    last_print = Instant::now();
                    Self::print_line(&progress, started);
                }
            })
        };
        ProgressMonitor { progress, stop, started, handle: Some(handle) }
    }

    /// One throttled stderr line; silent until a search announces its
    /// unit count (so `eval` runs print nothing).
    fn print_line(progress: &Progress, started: Instant) {
        let (done, total) = progress.units();
        if total == 0 {
            return;
        }
        let f = progress.fraction();
        let elapsed = started.elapsed().as_secs_f64();
        if f > 0.0 && f < 1.0 {
            let eta = elapsed * (1.0 - f) / f;
            eprintln!(
                "progress: {:5.1}%  {done}/{total} units  elapsed {elapsed:.1}s  eta {eta:.1}s",
                f * 100.0
            );
        } else {
            eprintln!("progress: {:5.1}%  {done}/{total} units  elapsed {elapsed:.1}s", f * 100.0);
        }
    }

    /// Stop the monitor and print the final state — short runs that
    /// never crossed a print interval still get one line.
    fn finish(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        Self::print_line(&self.progress, self.started);
    }
}

/// `pkgrec serve`: load the named databases, start the resident
/// service, print the bound address, and serve until the process is
/// killed. All solve-side limits are clamps — requests can tighten
/// them but never exceed them.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    use pkgrec::serve::{self, ServerConfig, Service, ServiceConfig};

    let mut server_cfg = ServerConfig {
        listen: "127.0.0.1:7878".to_string(),
        ..ServerConfig::default()
    };
    let mut service_cfg = ServiceConfig::default();
    let mut dbs: Vec<(String, String)> = Vec::new();
    let mut access_log: Option<String> = None;
    let mut flight_dir: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--listen" => server_cfg.listen = value("--listen")?,
            "--db" => {
                let spec = value("--db")?;
                let (name, path) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--db expects NAME=PATH, got `{spec}`"))?;
                dbs.push((name.to_string(), path.to_string()));
            }
            "--workers" => {
                server_cfg.workers = value("--workers")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--workers must be a positive integer")?;
            }
            "--queue" => {
                server_cfg.queue_cap = value("--queue")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--queue must be a positive integer")?;
            }
            "--max-deadline-ms" => {
                service_cfg.max_deadline_ms = value("--max-deadline-ms")?
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--max-deadline-ms must be a positive integer")?;
            }
            "--max-jobs" => {
                service_cfg.max_jobs = value("--max-jobs")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--max-jobs must be a positive integer")?;
            }
            "--access-log" => access_log = Some(value("--access-log")?),
            "--flight-dir" => flight_dir = Some(value("--flight-dir")?),
            "--slow-threshold-ms" => {
                service_cfg.slow_threshold_ms = value("--slow-threshold-ms")?
                    .parse::<u64>()
                    .map_err(|_| "--slow-threshold-ms must be an integer")?;
            }
            "--profile" => service_cfg.profile = true,
            other => return Err(format!("unknown serve option `{other}`")),
        }
    }
    if dbs.is_empty() {
        return Err("serve needs at least one --db NAME=PATH".to_string());
    }
    let mut service = Service::new(service_cfg);
    for (name, path) in dbs {
        service.add_db(name, load_db(&path)?);
    }
    if let Some(path) = access_log {
        let log = pkgrec::serve::AccessLog::open(std::path::Path::new(&path))
            .map_err(|e| format!("cannot open access log `{path}`: {e}"))?;
        service.set_access_log(log);
    }
    if let Some(dir) = flight_dir {
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create flight dir `{dir}`: {e}"))?;
        service.set_flight_dir(&dir);
    }
    let names = service.db_names().join(", ");
    let handle = serve::start(server_cfg, service).map_err(|e| format!("cannot bind: {e}"))?;
    // The address line goes out first and flushed so wrappers (CI
    // smoke scripts, tests) can scrape the ephemeral port.
    println!("pkgrec serve: listening on {} (dbs: {names})", handle.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    loop {
        std::thread::park();
    }
}

/// `pkgrec explain`: compile the query against the database and print
/// the plan's static story — join orders, cardinalities, index probes,
/// builtin schedule — human-readable or as JSON with `--json`.
fn cmd_explain(db_path: &str, query_arg: &str, json: bool) -> Result<(), String> {
    let db = Arc::new(load_db(db_path)?);
    let query = load_query(query_arg)?;
    let plan = query.compile(&db).map_err(|e| e.to_string())?;
    let report = plan.explain();
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_human());
    }
    Ok(())
}

/// Adaptive duration formatting for the profile report (mirrors the
/// trace crate's human rendering).
fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

/// `pkgrec profile`: run one `topk` solve with tracing and the profile
/// timeline forced on, then print the
/// attribution report — where the wall time went by phase, worker,
/// and span path, plus the plan-probe and sketch/refine breakdowns.
/// `--chrome-out PATH` additionally writes the timeline as a Chrome
/// Trace Event Format file for Perfetto / `chrome://tracing`.
fn cmd_profile(db_path: &str, query_arg: &str, rest: &[String]) -> Result<(), String> {
    use pkgrec_trace::timeline;

    // `--chrome-out` is profile-specific; everything else is the
    // shared solve-option vocabulary.
    let mut chrome_out: Option<String> = None;
    let mut args: Vec<String> = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        if rest[i] == "--chrome-out" {
            chrome_out = Some(
                rest.get(i + 1)
                    .ok_or("--chrome-out needs a value")?
                    .clone(),
            );
            i += 2;
        } else {
            args.push(rest[i].clone());
            i += 1;
        }
    }
    let opts = parse_options(&args)?;
    let db = load_db(db_path)?;
    let query = load_query(query_arg)?;
    let mut budget = Budget::unlimited();
    if let Some(n) = opts.steps {
        budget = budget.steps(n);
    }
    if let Some(ms) = opts.timeout_ms {
        budget = budget.timeout(Duration::from_millis(ms));
    }
    let solver_opts = SolveOptions::with_budget(budget).with_jobs(opts.jobs.unwrap_or(1));
    let solver_opts = approx_opts(&solver_opts, &opts);

    // Force the spans/counters (trace) and the timed records (profile)
    // on for this thread; the solve's workers inherit both.
    pkgrec_trace::reset();
    let _tracing = pkgrec_trace::scoped();
    let _profiling = timeline::scoped();
    let scope = timeline::begin_scope();

    let inst = build_instance(db, query, &opts);
    let started = Instant::now();
    let out = frp::top_k(&inst, &solver_opts).map_err(|e| e.to_string())?;
    let wall = started.elapsed();

    let tl = timeline::take_scope(scope.id());
    let report = pkgrec_trace::take();

    if out.method == Method::Sketch {
        println!("approximate result (sketch engine; not certified optimal):");
    }
    if let Some(cut) = out.interrupted {
        println!("partial result ({cut}):");
    }
    match &out.value {
        None => println!("no top-{} selection exists", opts.k),
        Some(sel) => {
            for (rank, pkg) in sel.iter().enumerate() {
                println!(
                    "#{} val={} cost={} {}",
                    rank + 1,
                    inst.val.eval(pkg),
                    inst.cost.eval(pkg),
                    pkg
                );
            }
        }
    }
    println!();

    if let Some(path) = &chrome_out {
        std::fs::write(path, tl.to_chrome_json())
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        println!("chrome trace written to {path}");
    }

    print!("{}", tl.summarize().render_human());

    // Span paths as a share of the solve wall time. Span totals are
    // per-path (self+children wall), so shares can legitimately sum
    // past 100% — the table reads per row, not as a partition.
    let wall_ns = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
    if !report.spans.is_empty() {
        println!("spans (path, calls, total, % of wall, steps):");
        for (path, stat) in &report.spans {
            let pct = if wall_ns == 0 {
                0.0
            } else {
                stat.total_ns as f64 * 100.0 / wall_ns as f64
            };
            println!(
                "  {:<44} {:>5}  {:>9}  {:>5.1}%  steps={}",
                path,
                stat.count,
                fmt_ns(stat.total_ns),
                pct,
                stat.steps
            );
        }
    }
    let c = |name: &str| report.counters.get(name).copied().unwrap_or(0);
    println!(
        "plan: {} compiles, {} probes, {} index builds",
        c("query.plan_compiles"),
        c("query.plan_probes"),
        c("query.index_builds")
    );
    if out.method == Method::Sketch {
        println!(
            "sketch: {} partition builds, {} sub-solves, {} refines \
             ({} improved, {} no gain), {} partitions pruned",
            c("sketch.partition_builds"),
            c("sketch.sub_solves"),
            c("sketch.refines"),
            c("sketch.refines.improved"),
            c("sketch.refines.no_gain"),
            c("sketch.partitions_pruned")
        );
    }
    Ok(())
}

/// `pkgrec chaos-sites`: enumerate the valid `PKGREC_CHAOS` fault-site
/// names (every trace counter plus the extra serve-loop sites), so
/// directives are discoverable instead of guessed.
fn cmd_chaos_sites() {
    println!("{:<28} {:<10} description", "site", "layer");
    for info in pkgrec_trace::COUNTER_REGISTRY
        .iter()
        .chain(pkgrec_trace::EXTRA_FAULT_SITES)
    {
        println!("{:<28} {:<10} {}", info.name, info.layer, info.help);
    }
}

fn run(args: Vec<String>) -> Result<(), String> {
    let usage = "usage: pkgrec <eval|topk|bound|count|items> <db-file> <query> [options] \
                 | pkgrec explain <db-file> <query> [--json] \
                 | pkgrec profile <db-file> <query> [options] [--chrome-out PATH] \
                 | pkgrec chaos-sites \
                 | pkgrec qbf <qdimacs-file> [options] \
                 | pkgrec serve --db NAME=PATH [options] \
                 (see --help in the source header)";
    let mut it = args.iter();
    let cmd = it.next().ok_or(usage)?.as_str();
    if cmd == "--help" || cmd == "-h" {
        println!("{usage}");
        return Ok(());
    }
    if cmd == "serve" {
        let rest: Vec<String> = it.cloned().collect();
        return cmd_serve(&rest);
    }
    if cmd == "chaos-sites" {
        cmd_chaos_sites();
        return Ok(());
    }
    if cmd == "profile" {
        let db_path = it.next().ok_or(usage)?;
        let query_arg = it.next().ok_or(usage)?;
        let rest: Vec<String> = it.cloned().collect();
        return cmd_profile(db_path, query_arg, &rest);
    }
    if cmd == "explain" {
        let db_path = it.next().ok_or(usage)?;
        let query_arg = it.next().ok_or(usage)?;
        let rest: Vec<String> = it.cloned().collect();
        let json = match rest.as_slice() {
            [] => false,
            [flag] if flag == "--json" => true,
            other => return Err(format!("unknown explain option `{}`", other[0])),
        };
        return cmd_explain(db_path, query_arg, json);
    }
    if cmd == "qbf" {
        let qbf_path = it.next().ok_or(usage)?;
        let rest: Vec<String> = it.cloned().collect();
        let opts = parse_options(&rest)?;
        if opts.approx {
            return Err("--approx is only supported for `topk` and `bound`".to_string());
        }
        let mut budget = Budget::unlimited();
        if let Some(n) = opts.steps {
            budget = budget.steps(n);
        }
        if let Some(ms) = opts.timeout_ms {
            budget = budget.timeout(std::time::Duration::from_millis(ms));
        }
        // Default 1 (not env) so traced runs stay reproducible unless
        // the user opts in with --jobs 0.
        let mut solver_opts =
            SolveOptions::with_budget(budget).with_jobs(opts.jobs.unwrap_or(1));
        let monitor = if opts.progress {
            let progress = Arc::new(Progress::new());
            solver_opts = solver_opts.with_progress(Arc::clone(&progress));
            Some(ProgressMonitor::spawn(progress))
        } else {
            None
        };
        let _tracing = opts.trace.map(|_| {
            pkgrec_trace::reset();
            pkgrec_trace::scoped()
        });
        let _flight = opts.flight_out.as_ref().map(|_| {
            pkgrec_trace::flight::reset();
            pkgrec_trace::flight::scoped()
        });
        let result = cmd_qbf(qbf_path, &opts, &solver_opts);
        if let Some(monitor) = monitor {
            monitor.finish();
        }
        emit_flight(&opts)?;
        result?;
        return emit_trace(&opts);
    }
    let db_path = it.next().ok_or(usage)?;
    let query_arg = it.next().ok_or(usage)?;
    let rest: Vec<String> = it.cloned().collect();
    let opts = parse_options(&rest)?;

    let db = load_db(db_path)?;
    let query = load_query(query_arg)?;
    let mut budget = Budget::unlimited();
    if let Some(n) = opts.steps {
        budget = budget.steps(n);
    }
    if let Some(ms) = opts.timeout_ms {
        budget = budget.timeout(std::time::Duration::from_millis(ms));
    }
    let mut solver_opts = SolveOptions::with_budget(budget).with_jobs(opts.jobs.unwrap_or(1));
    let monitor = if opts.progress {
        let progress = Arc::new(Progress::new());
        solver_opts = solver_opts.with_progress(Arc::clone(&progress));
        Some(ProgressMonitor::spawn(progress))
    } else {
        None
    };

    // Collect solver metrics for this solve when asked to.
    let _tracing = opts.trace.map(|_| {
        pkgrec_trace::reset();
        pkgrec_trace::scoped()
    });
    let _flight = opts.flight_out.as_ref().map(|_| {
        pkgrec_trace::flight::reset();
        pkgrec_trace::flight::scoped()
    });

    let result = run_command(cmd, db, query, &opts, &solver_opts, usage);
    if let Some(monitor) = monitor {
        monitor.finish();
    }
    emit_flight(&opts)?;
    result?;
    emit_trace(&opts)
}

/// Dispatch the non-qbf commands. Split out of [`run`] so the flight
/// recording can be dumped on both the success and the error path.
/// The solver options for one command, with the SketchRefine engine
/// switched on when `--approx` was passed.
fn approx_opts(solver_opts: &SolveOptions, opts: &Options) -> SolveOptions {
    let mut solver_opts = solver_opts.clone();
    if opts.approx {
        solver_opts = solver_opts.with_approx(SketchParams::default());
    }
    solver_opts
}

fn run_command(
    cmd: &str,
    db: Database,
    query: Query,
    opts: &Options,
    solver_opts: &SolveOptions,
    usage: &str,
) -> Result<(), String> {
    if opts.approx && !matches!(cmd, "topk" | "bound") {
        return Err(format!(
            "--approx is only supported for `topk` and `bound`, not `{cmd}`"
        ));
    }
    match cmd {
        "eval" => {
            let answers = query.eval(&db).map_err(|e| e.to_string())?;
            println!("{} answers [{}]", answers.len(), query.language());
            for t in &answers {
                println!("{t}");
            }
        }
        "topk" => {
            let inst = build_instance(db, query, opts);
            let solver_opts = approx_opts(solver_opts, opts);
            let out = frp::top_k(&inst, &solver_opts).map_err(|e| e.to_string())?;
            if out.method == Method::Sketch {
                println!("approximate result (sketch engine; not certified optimal):");
            }
            if let Some(cut) = out.interrupted {
                println!("partial result ({cut}):");
            }
            match out.value {
                None => println!("no top-{} selection exists", opts.k),
                Some(sel) => {
                    for (rank, pkg) in sel.iter().enumerate() {
                        println!(
                            "#{} val={} cost={} {}",
                            rank + 1,
                            inst.val.eval(pkg),
                            inst.cost.eval(pkg),
                            pkg
                        );
                    }
                }
            }
        }
        "bound" => {
            let inst = build_instance(db, query, opts);
            let solver_opts = approx_opts(solver_opts, opts);
            let out = mbp::maximum_bound(&inst, &solver_opts).map_err(|e| e.to_string())?;
            let qualifier = match (out.method, out.exact, out.interrupted) {
                (Method::Exact, true, _) => "",
                (Method::Exact, false, _) => " (lower bound; budget ran out)",
                (Method::Sketch, _, None) => " (approximate; sketch engine)",
                (Method::Sketch, _, Some(_)) => {
                    " (approximate; sketch engine, budget ran out)"
                }
            };
            match out.value {
                None => println!("no top-{} selection exists", opts.k),
                Some(b) => println!("maximum bound: {b}{qualifier}"),
            }
        }
        "count" => {
            let bound = Ext::Finite(
                opts.min_val
                    .ok_or("`count` requires --min-val B".to_string())?,
            );
            let inst = build_instance(db, query, opts);
            let out =
                cpp::count_valid(&inst, bound, solver_opts).map_err(|e| e.to_string())?;
            let prefix = if out.exact { "" } else { "at least " };
            let suffix = if out.exact { "" } else { " (budget ran out)" };
            println!("{prefix}{} valid packages with val >= {bound}{suffix}", out.value);
        }
        "items" => {
            let inst = build_instance(db, query, opts)
                .with_cost(PackageFn::count())
                .with_budget(1.0)
                .with_size_bound(SizeBound::Constant(1));
            let out = frp::top_k(&inst, solver_opts).map_err(|e| e.to_string())?;
            if let Some(cut) = out.interrupted {
                println!("partial result ({cut}):");
            }
            match out.value {
                None => println!("fewer than {} items", opts.k),
                Some(sel) => {
                    for (rank, pkg) in sel.iter().enumerate() {
                        let t = pkg.iter().next().expect("singleton");
                        println!("#{} val={} {}", rank + 1, inst.val.eval(pkg), t);
                    }
                }
            }
        }
        other => return Err(format!("unknown command `{other}`; {usage}")),
    }
    Ok(())
}
