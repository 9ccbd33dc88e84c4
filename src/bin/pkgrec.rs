//! `pkgrec` — run package recommendation problems from the command
//! line, no Rust required.
//!
//! ```text
//! pkgrec eval  <db-file> <query> [options]        evaluate Q(D)
//! pkgrec topk  <db-file> <query> [options]        FRP: top-k packages
//! pkgrec bound <db-file> <query> [options]        MBP: maximum rating bound
//! pkgrec count <db-file> <query> [options]        CPP: count valid packages
//! pkgrec items <db-file> <query> [options]        top-k items
//! pkgrec explain <db-file> <query> [--json]       show the compiled query plan
//! pkgrec profile <db-file> <query> [options]      profile a topk solve
//! pkgrec chaos-sites                              list PKGREC_CHAOS fault sites
//! pkgrec qbf   <qdimacs-file> [options]           check Theorem 4.1 encodings
//! pkgrec serve --db NAME=PATH [...]               resident solve service
//! ```
//!
//! The solve commands are a front end to `/solve`: the flags fill a
//! `pkgrec::serve::request::SolveRequest`, which is validated, turned
//! into an instance and solved by the same code that answers a request
//! to `pkgrec serve`. Each flag is a `/solve` field:
//!
//! | flag             | `/solve` field | default   | rule                              |
//! |------------------|----------------|-----------|-----------------------------------|
//! | `--k N`          | `k`            | 1         | at least 1                        |
//! | `--budget C`     | `budget`       | unbounded | finite number                     |
//! | `--cost SPEC`    | `cost`         | `count`   | `count`, `sum:COL`, `negsum:COL`  |
//! | `--val SPEC`     | `val`          | `count`   | `count`, `sum:COL`, `negsum:COL`  |
//! | `--min-val B`    | `min_val`      | `-inf`    | finite number (`count` only)      |
//! | `--max-size N`   | `max_size`     | `|D|`     | at least 1                        |
//! | `--steps N`      | `steps`        | none      | at least 1                        |
//! | `--timeout-ms T` | `deadline_ms`  | none      | at least 1                        |
//! | `--jobs N`       | `jobs`         | 1         | at least 1; `0` = `$PKGREC_JOBS`  |
//! | `--approx`       | `approx`       | off       | `topk` and `bound` only           |
//!
//! As a cost, `count` is `cost(N) = |N|` with `cost(∅) = ∞`, so the
//! empty package never fits a finite budget; as a rating it is `|N|`
//! with `val(∅) = 0`. `--approx` runs the SketchRefine engine, whose
//! answers are never certified optimal and print with an
//! `approximate` marker. Only four things are the CLI's own:
//! `--jobs 0`, `@path` queries, the `items` command (a `topk` with cost
//! `count`, budget 1 and max size 1, whatever `--cost`, `--budget` and
//! `--max-size` say), and the absent deadline cap — a server clamps
//! `deadline_ms` to its `--max-deadline-ms`, the CLI applies none.
//!
//! telemetry options (solve commands except `profile`, and `qbf`):
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
//!
//! profile options (plus the solve options above):
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
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pkgrec::core::{problems::rpp, Ext, Method, PreparedInstance, Progress, SolveOptions};
use pkgrec::data::text::parse_database;
use pkgrec::data::{tuple, Database};
use pkgrec::logic::{parse_qdimacs, QbfFormula};
use pkgrec::reductions::membership;
use pkgrec::serve::request::{load_query, Answer, ProblemKind, RequestError, SolveRequest};

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("pkgrec: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The CLI's own flags: telemetry and output, everything that is not
/// part of the solve spec.
#[derive(Default)]
struct CliFlags {
    trace: Option<TraceFormat>,
    trace_out: Option<String>,
    flight_out: Option<String>,
    progress: bool,
    chrome_out: Option<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    Human,
    Json,
}

/// Each solve flag with the `/solve` field it fills.
const SOLVE_FLAGS: [(&str, &str); 10] = [
    ("--k", "k"),
    ("--budget", "budget"),
    ("--cost", "cost"),
    ("--val", "val"),
    ("--min-val", "min_val"),
    ("--max-size", "max_size"),
    ("--steps", "steps"),
    ("--timeout-ms", "deadline_ms"),
    ("--jobs", "jobs"),
    ("--approx", "approx"),
];

/// The telemetry flags `profile` does not take.
const PROFILE_REJECTS: [&str; 6] = [
    "--trace",
    "--trace=human",
    "--trace=json",
    "--trace-out",
    "--flight-out",
    "--progress",
];

/// A rejected spec, reported under the flag that set the field.
fn flag_error(e: RequestError) -> String {
    match SOLVE_FLAGS
        .iter()
        .find(|(_, field)| e.field == Some(*field))
    {
        Some((flag, _)) => format!("bad {flag}: {}", e.message),
        None => e.message,
    }
}

fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad {flag} value `{value}`"))
}

/// Read `cmd`'s flags into a validated solve spec for `problem` over
/// `query`, plus the CLI's own flags.
fn parse_args(
    cmd: &str,
    problem: ProblemKind,
    query: String,
    args: &[String],
) -> Result<(SolveRequest, CliFlags), String> {
    let mut req = SolveRequest::new(String::new(), problem, query);
    let mut cli = CliFlags::default();
    let mut i = 0;
    while i < args.len() {
        // `profile` forces its own trace and writes no flight file or
        // progress line, so these flags would do nothing there.
        if cmd == "profile" && PROFILE_REJECTS.contains(&args[i].as_str()) {
            return Err(format!("`{}` does not apply to `profile`", args[i]));
        }
        // Single-token flags first.
        match args[i].as_str() {
            "--trace" | "--trace=human" => cli.trace = Some(TraceFormat::Human),
            "--trace=json" => cli.trace = Some(TraceFormat::Json),
            "--progress" => cli.progress = true,
            "--approx" => req.approx = true,
            flag => {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
                match flag {
                    "--k" => req.k = number(flag, value)?,
                    "--budget" => req.budget = Some(number(flag, value)?),
                    "--cost" => req.cost = value.clone(),
                    "--val" => req.val = value.clone(),
                    "--min-val" => req.min_val = Some(number(flag, value)?),
                    "--max-size" => req.max_size = Some(number(flag, value)?),
                    "--steps" => req.steps = Some(number(flag, value)?),
                    "--timeout-ms" => req.deadline_ms = Some(number(flag, value)?),
                    "--jobs" => {
                        req.jobs = match number(flag, value)? {
                            0 => SolveOptions::unbounded().effective_jobs(),
                            n => n,
                        }
                    }
                    "--trace-out" => {
                        cli.trace_out = Some(value.clone());
                        // Writing to a file only makes sense as JSONL; a
                        // prior explicit `--trace=human` still prints to
                        // stdout too.
                        cli.trace.get_or_insert(TraceFormat::Json);
                    }
                    "--flight-out" => cli.flight_out = Some(value.clone()),
                    "--chrome-out" if cmd == "profile" => cli.chrome_out = Some(value.clone()),
                    other => return Err(format!("unknown flag `{other}`")),
                }
                i += 1;
            }
        }
        i += 1;
    }
    req.validate().map_err(flag_error)?;
    Ok((req, cli))
}

fn load_db(path: &str) -> Result<Database, String> {
    let src =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    parse_database(&src).map_err(|e| format!("in `{path}`: {e}"))
}

/// The query text of a `<query>` argument: inline, or `@path` to read
/// it from a file.
fn read_query(arg: &str) -> Result<String, String> {
    match arg.strip_prefix('@') {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
        }
        None => Ok(arg.to_string()),
    }
}

/// The spec's instance over `db`, prepared for solving.
fn prepare(req: &SolveRequest, db: Arc<Database>) -> Result<PreparedInstance, String> {
    let inst = req.instance(db).map_err(flag_error)?;
    PreparedInstance::new(inst).map_err(|e| e.to_string())
}

/// The text rendering of a solved spec. `items` lists singleton
/// packages as their item.
fn render(cmd: &str, req: &SolveRequest, prepared: &PreparedInstance, answer: &Answer) -> String {
    use std::fmt::Write as _;
    let inst = prepared.instance();
    let mut out = String::new();
    match answer {
        Answer::Eval => {
            let ctx = prepared.context();
            let _ = writeln!(
                out,
                "{} answers [{}]",
                ctx.items().len(),
                inst.query.language()
            );
            for t in ctx.items() {
                let _ = writeln!(out, "{t}");
            }
        }
        Answer::TopK(top) => {
            if top.method == Method::Sketch {
                out.push_str("approximate result (sketch engine; not certified optimal):\n");
            }
            if let Some(cut) = &top.interrupted {
                let _ = writeln!(out, "partial result ({cut}):");
            }
            match &top.value {
                None if cmd == "items" => {
                    let _ = writeln!(out, "fewer than {} items", inst.k);
                }
                None => {
                    let _ = writeln!(out, "no top-{} selection exists", inst.k);
                }
                Some(sel) => {
                    for (rank, pkg) in sel.iter().enumerate() {
                        let (rank, val) = (rank + 1, inst.val.eval(pkg));
                        let _ = match pkg.iter().next() {
                            Some(t) if cmd == "items" => writeln!(out, "#{rank} val={val} {t}"),
                            _ => writeln!(
                                out,
                                "#{rank} val={val} cost={} {pkg}",
                                inst.cost.eval(pkg)
                            ),
                        };
                    }
                }
            }
        }
        Answer::Bound(bound) => {
            let qualifier = match (bound.method, bound.exact, bound.interrupted) {
                (Method::Exact, true, _) => "",
                (Method::Exact, false, _) => " (lower bound; budget ran out)",
                (Method::Sketch, _, None) => " (approximate; sketch engine)",
                (Method::Sketch, _, Some(_)) => " (approximate; sketch engine, budget ran out)",
            };
            let _ = match bound.value {
                None => writeln!(out, "no top-{} selection exists", inst.k),
                Some(b) => writeln!(out, "maximum bound: {b}{qualifier}"),
            };
        }
        Answer::Count(count) => {
            let b = req.min_val.map_or(Ext::NegInf, Ext::from);
            let (prefix, suffix) = match count.exact {
                true => ("", ""),
                false => ("at least ", " (budget ran out)"),
            };
            let _ = writeln!(
                out,
                "{prefix}{} valid packages with val >= {b}{suffix}",
                count.value
            );
        }
    }
    out
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
fn cmd_qbf(qbf_path: &str, solver_opts: &SolveOptions) -> Result<(), String> {
    let qbf = load_qbf(qbf_path)?;
    let direct = qbf
        .is_true_budgeted(&solver_opts.budget.meter())
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

/// Run `f` under the telemetry `cli` asks for: a `--progress` monitor
/// fed by the solve, and trace and flight channels scoped to it. The
/// flight recording is written on the success *and* the error path;
/// the trace report after `f` has printed its answer.
fn with_telemetry(
    cli: &CliFlags,
    mut opts: SolveOptions,
    f: impl FnOnce(&SolveOptions) -> Result<(), String>,
) -> Result<(), String> {
    let monitor = cli.progress.then(|| {
        let progress = Arc::new(Progress::new());
        opts.progress = Some(Arc::clone(&progress));
        ProgressMonitor::spawn(progress)
    });
    let _tracing = cli.trace.map(|_| {
        pkgrec_trace::reset();
        pkgrec_trace::scoped()
    });
    let _flight = cli.flight_out.as_ref().map(|_| {
        pkgrec_trace::flight::reset();
        pkgrec_trace::flight::scoped()
    });
    let result = f(&opts);
    if let Some(monitor) = monitor {
        monitor.finish();
    }
    emit_flight(cli)?;
    result?;
    emit_trace(cli)
}

/// Emit the collected trace report per `--trace`/`--trace-out`.
fn emit_trace(cli: &CliFlags) -> Result<(), String> {
    let Some(format) = cli.trace else {
        return Ok(());
    };
    let report = pkgrec_trace::take();
    match format {
        TraceFormat::Human => print!("{}", report.render_human()),
        TraceFormat::Json => {
            if cli.trace_out.is_none() {
                println!("{}", report.to_json());
            }
        }
    }
    if let Some(path) = &cli.trace_out {
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
fn emit_flight(cli: &CliFlags) -> Result<(), String> {
    let Some(path) = &cli.flight_out else {
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
    let query = load_query(&read_query(query_arg)?).map_err(|e| e.message)?;
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
fn cmd_profile(req: &SolveRequest, db: Arc<Database>, cli: &CliFlags) -> Result<(), String> {
    use pkgrec_trace::timeline;

    // Force the spans/counters (trace) and the timed records (profile)
    // on for this thread; the solve's workers inherit both.
    pkgrec_trace::reset();
    let _tracing = pkgrec_trace::scoped();
    let _profiling = timeline::scoped();
    let scope = timeline::begin_scope();

    let started = Instant::now();
    let prepared = prepare(req, db)?;
    let answer = req
        .solve(&prepared, &req.options(None, usize::MAX))
        .map_err(|e| e.to_string())?;
    let wall = started.elapsed();

    let tl = timeline::take_scope(scope.id());
    let report = pkgrec_trace::take();

    println!("{}", render("topk", req, &prepared, &answer));

    if let Some(path) = &cli.chrome_out {
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
    if req.approx {
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
    let (cmd, rest) = args.split_first().ok_or(usage)?;
    let cmd = cmd.as_str();
    let problem = match cmd {
        "--help" | "-h" => {
            println!("{usage}");
            return Ok(());
        }
        "serve" => return cmd_serve(rest),
        "chaos-sites" => {
            cmd_chaos_sites();
            return Ok(());
        }
        "explain" => {
            let [db_path, query_arg, opts @ ..] = rest else {
                return Err(usage.into());
            };
            let json = match opts {
                [] => false,
                [flag] if flag == "--json" => true,
                other => return Err(format!("unknown explain option `{}`", other[0])),
            };
            return cmd_explain(db_path, query_arg, json);
        }
        "qbf" => {
            let [qbf_path, opts @ ..] = rest else {
                return Err(usage.into());
            };
            // `qbf` runs no solve spec, only its budget, jobs and
            // telemetry; as an `eval` spec it rejects `--approx`.
            let (req, cli) = parse_args(cmd, ProblemKind::Eval, String::new(), opts)?;
            let opts = req.options(None, usize::MAX);
            return with_telemetry(&cli, opts, |opts| cmd_qbf(qbf_path, opts));
        }
        "eval" => ProblemKind::Eval,
        "topk" | "items" | "profile" => ProblemKind::TopK,
        "bound" => ProblemKind::Bound,
        "count" => ProblemKind::Count,
        other => return Err(format!("unknown command `{other}`; {usage}")),
    };
    let [db_path, query_arg, opts @ ..] = rest else {
        return Err(usage.into());
    };
    let (mut req, cli) = parse_args(cmd, problem, read_query(query_arg)?, opts)?;
    if cmd == "items" {
        req.cost = "count".to_string();
        req.budget = Some(1.0);
        req.max_size = Some(1);
    }
    let db = Arc::new(load_db(db_path)?);
    if cmd == "profile" {
        return cmd_profile(&req, db, &cli);
    }
    with_telemetry(&cli, req.options(None, usize::MAX), |opts| {
        let prepared = prepare(&req, db)?;
        let answer = req.solve(&prepared, opts).map_err(|e| e.to_string())?;
        print!("{}", render(cmd, &req, &prepared, &answer));
        Ok(())
    })
}
