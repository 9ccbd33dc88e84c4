//! `exact_batch` and `sketch_catalog`: the library surface, no serve
//! layers.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use pkgrec_core::problems::{cpp, frp, mbp, rpp};
use pkgrec_core::{
    Budget, Ext, Method, Package, PackageFn, PreparedInstance, RecInstance, SearchStats, SizeBound,
    SketchParams, SolveOptions,
};
use pkgrec_data::{
    tuple, AttrType, Database, PartitionIndex, PartitionParams, Relation, RelationSchema,
};
use pkgrec_logic::gen::random_sigma2;
use pkgrec_perf_ledger::gen::{flat_catalog, shuffle, stratified};
use pkgrec_perf_ledger::report::RunReport;
use pkgrec_perf_ledger::spans::{now_ns, SpanLog};
use pkgrec_perf_ledger::stats::{median, micros as us, percentile};
use pkgrec_query::{ConjunctiveQuery, Query};
use pkgrec_reductions::thm4_1;
use pkgrec_trace::{timeline, TraceReport};
use pkgrec_workloads::random::{distinct_groups_qc, fixed_sp_query, item_schema};
use pkgrec_workloads::travel::{
    flight_schema, max_two_museums, poi_schema, travel_query, travel_rating, visit_time_cost,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Args, LedgerError, SETUPS};

// ---- exact_batch -----------------------------------------------------

/// The batch classes: each is one instance, solved by the problems
/// listed in [`batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    /// A `workloads::random` sweep instance with the CQ
    /// distinct-groups `Qc`.
    QcCq,
    /// The same instance without `Qc`.
    QcNone,
    /// Example 1.1 (travel) with the at-most-two-museums CQ `Qc`.
    Travel,
    /// The Theorem 4.1 reduction of a false Σ₂ 3DNF sentence, decided
    /// by RPP.
    Thm41,
    /// CPP over a pruning-free 2^20 package space at `jobs = 2`.
    ParCount,
}

impl Class {
    const ALL: [Class; 5] = [
        Class::QcCq,
        Class::QcNone,
        Class::Travel,
        Class::Thm41,
        Class::ParCount,
    ];

    fn name(self) -> &'static str {
        match self {
            Class::QcCq => "qc_cq",
            Class::QcNone => "qc_none",
            Class::Travel => "travel",
            Class::Thm41 => "thm41",
            Class::ParCount => "par_count",
        }
    }

    fn metric(self) -> &'static str {
        match self {
            Class::QcCq => "core.solve_qc_cq_us_p50",
            Class::QcNone => "core.solve_qc_none_us_p50",
            Class::Travel => "core.solve_travel_us_p50",
            Class::Thm41 => "core.solve_thm41_us_p50",
            Class::ParCount => "core.solve_par_count_us_p50",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Problem {
    /// FRP top-k.
    Frp,
    /// MBP maximum bound.
    Mbp,
    /// CPP count of valid packages (no rating bound).
    Cpp,
    /// RPP: is the candidate selection a top-k selection?
    Rpp,
}

/// One solve of the batch.
#[derive(Debug, Clone, Copy)]
struct Task {
    class: Class,
    problem: Problem,
    jobs: usize,
}

/// A solve's answer, compared against the untimed reference pass.
#[derive(Debug, Clone, PartialEq)]
enum Answer {
    Top(Option<Vec<Package>>),
    Bound(Option<Ext>),
    Count(u128),
    IsTopK(bool),
}

/// The batch's instances, generated from the seed with fixed sizes.
struct Batch {
    instances: BTreeMap<Class, RecInstance>,
    /// The Theorem 4.1 candidate selection `{∅}`.
    selection: Vec<Package>,
}

/// Fixed sizes of the batch.
struct BatchShape {
    /// Rows of the sweep instance's `item` table.
    sweep_rows: usize,
    /// `|Q(D)|` of the sweep instance: the rows priced under the
    /// query's cut-off.
    sweep_pool: usize,
    /// Flights on the travel route; × POIs per city = `|Q(D)|`.
    route_flights: usize,
    /// POIs in every city.
    pois_per_city: usize,
    /// `(∃ vars, ∀ vars, conjuncts)` of the Σ₂ sentence.
    sigma2: (usize, usize, usize),
    /// log2 of the parallel count's package space.
    par_items: usize,
}

impl BatchShape {
    fn of(smoke: bool) -> BatchShape {
        if smoke {
            BatchShape {
                sweep_rows: 16,
                sweep_pool: 12,
                route_flights: 2,
                pois_per_city: 5,
                sigma2: (2, 2, 3),
                par_items: 12,
            }
        } else {
            BatchShape {
                sweep_rows: 40,
                sweep_pool: 32,
                route_flights: 3,
                pois_per_city: 8,
                sigma2: (3, 3, 6),
                par_items: 20,
            }
        }
    }
}

/// The problems each class is solved by, in cycle order. Everything
/// runs at `jobs = 1` except the parallel count.
fn batch() -> Vec<Task> {
    let mut tasks = Vec::new();
    for class in [Class::QcCq, Class::QcNone, Class::Travel] {
        for problem in [Problem::Frp, Problem::Mbp, Problem::Cpp] {
            tasks.push(Task {
                class,
                problem,
                jobs: 1,
            });
        }
    }
    tasks.push(Task {
        class: Class::Thm41,
        problem: Problem::Rpp,
        jobs: 1,
    });
    tasks.push(Task {
        class: Class::ParCount,
        problem: Problem::Cpp,
        jobs: 2,
    });
    tasks
}

fn generate_batch(seed: u64, shape: &BatchShape) -> Batch {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C4);
    let mut instances = BTreeMap::new();

    // The sweep instance: `workloads::random`'s schema, fixed SP query
    // (`price < 80`), cost, budget and size bound, over an item table
    // whose values are stratified so that every seed selects exactly
    // `sweep_pool` items spread evenly over the five groups.
    let expensive = shape.sweep_rows - shape.sweep_pool;
    let mut prices = stratified(&mut rng, shape.sweep_pool, 1, 79);
    prices.extend(stratified(&mut rng, expensive, 80, 99));
    let scores = stratified(&mut rng, shape.sweep_rows, 1, 99);
    let mut ids: Vec<i64> = (0..shape.sweep_rows as i64).collect();
    shuffle(&mut rng, &mut ids);
    let mut items = Relation::empty(item_schema());
    for (row, &id) in ids.iter().enumerate() {
        let grp = (row % 5) as i64;
        items
            .insert(tuple![id, grp, prices[row], scores[row]])
            .expect("schema-conformant");
    }
    let mut db = Database::new();
    db.add_relation(items).expect("fresh db");
    let sweep = RecInstance::new(db, fixed_sp_query())
        .with_cost(PackageFn::count())
        .with_budget(4.0)
        .with_val(PackageFn::sum_col(3, true))
        .with_size_bound(SizeBound::Constant(4))
        .with_k(3);
    instances.insert(Class::QcCq, sweep.clone().with_qc(distinct_groups_qc()));
    instances.insert(Class::QcNone, sweep);

    // Example 1.1 on one route, `city0 → city1` on day 1, with exactly
    // `route_flights` flights, among decoy flights on other routes.
    // Every city has the same mix of POI types (three museums, so the
    // cap can bind) with stratified tickets and visit times.
    let cities: Vec<String> = (0..4).map(|c| format!("city{c}")).collect();
    let mut flights = Relation::empty(flight_schema());
    let fares = stratified(&mut rng, shape.route_flights, 80, 799);
    for (f, &fare) in fares.iter().enumerate() {
        flights
            .insert(tuple![f as i64, "city0", "city1", 1, fare])
            .expect("schema-conformant");
    }
    for f in shape.route_flights..shape.route_flights + 20 {
        let from = rng.gen_range(1..4usize);
        let to = (from + rng.gen_range(1..4usize)) % 4;
        flights
            .insert(tuple![
                f as i64,
                cities[from].as_str(),
                cities[to].as_str(),
                rng.gen_range(1..=2i64),
                rng.gen_range(80..800i64)
            ])
            .expect("schema-conformant");
    }
    let mut pois = Relation::empty(poi_schema());
    let kinds = [
        "museum", "museum", "museum", "theater", "theater", "park", "park", "gallery",
    ];
    for city in &cities {
        let mut types: Vec<&str> = (0..shape.pois_per_city)
            .map(|i| kinds[i % kinds.len()])
            .collect();
        shuffle(&mut rng, &mut types);
        let tickets = stratified(&mut rng, shape.pois_per_city, 0, 59);
        let times = stratified(&mut rng, shape.pois_per_city, 30, 239);
        for (p, ty) in types.iter().enumerate() {
            pois.insert(tuple![
                format!("poi_{city}_{p}").as_str(),
                city.as_str(),
                *ty,
                tickets[p],
                times[p]
            ])
            .expect("schema-conformant");
        }
    }
    let mut db = Database::new();
    db.add_relation(flights).expect("fresh db");
    db.add_relation(pois).expect("fresh db");
    instances.insert(
        Class::Travel,
        RecInstance::new(db, travel_query("city0", "city1", 1))
            .with_qc(max_two_museums())
            .with_cost(visit_time_cost())
            .with_budget(360.0)
            .with_val(travel_rating())
            .with_size_bound(SizeBound::Constant(4))
            .with_k(3),
    );

    // A false sentence: `{∅}` is then a top-1 selection and deciding
    // it takes the whole dominator search, not a lucky early hit.
    let (x, y, c) = shape.sigma2;
    let phi = loop {
        let phi = random_sigma2(&mut rng, x, y, c);
        if !phi.is_true() {
            break phi;
        }
    };
    let reduction = thm4_1::reduce(&phi);
    instances.insert(Class::Thm41, reduction.instance);

    // Values change with the seed; with no cost budget nothing prunes,
    // so the count visits every one of the 2^n packages.
    let schema = RelationSchema::new("item", [("id", AttrType::Int), ("w", AttrType::Int)])
        .expect("valid schema");
    let rel = Relation::from_tuples(
        schema,
        (0..shape.par_items as i64).map(|i| tuple![i, rng.gen_range(1..100i64)]),
    )
    .expect("schema-conformant");
    let mut par_db = Database::new();
    par_db.add_relation(rel).expect("fresh db");
    instances.insert(
        Class::ParCount,
        RecInstance::new(par_db, Query::Cq(ConjunctiveQuery::identity("item", 2)))
            .with_val(PackageFn::sum_col(1, true)),
    );

    Batch {
        instances,
        selection: reduction.selection,
    }
}

/// Run one task; returns the answer and the search statistics.
fn solve(batch: &Batch, task: Task) -> Result<(Answer, SearchStats), LedgerError> {
    let inst = &batch.instances[&task.class];
    let opts = SolveOptions::default().with_jobs(task.jobs);
    let not_exact = || {
        format!(
            "{}: an unbudgeted solve came back inexact",
            task.class.name()
        )
    };
    Ok(match task.problem {
        Problem::Frp => {
            let out = frp::top_k(inst, &opts)?;
            if !out.exact {
                return Err(not_exact().into());
            }
            (Answer::Top(out.value), out.stats)
        }
        Problem::Mbp => {
            let out = mbp::maximum_bound(inst, &opts)?;
            if !out.exact {
                return Err(not_exact().into());
            }
            (Answer::Bound(out.value), out.stats)
        }
        Problem::Cpp => {
            let out = cpp::count_valid(inst, Ext::NegInf, &opts)?;
            if !out.exact {
                return Err(not_exact().into());
            }
            (Answer::Count(out.value), out.stats)
        }
        Problem::Rpp => (
            Answer::IsTopK(rpp::is_top_k(inst, &batch.selection, &opts)?),
            SearchStats::default(),
        ),
    })
}

/// What the timed cycles of one phase measured.
#[derive(Default)]
struct Cycles {
    /// Wall time of each whole cycle, ns.
    cycle_ns: Vec<u64>,
    /// Per-solve wall time by class, ns.
    solve_ns: BTreeMap<Class, Vec<u64>>,
    /// Solves attempted and failed (error or answer mismatch).
    attempted: u64,
    failed: u64,
    /// Merged trace counters (traced phases only).
    trace: TraceReport,
    /// Worker busy time and `jobs × wall` of the parallel count.
    busy_ns: u64,
    capacity_ns: u64,
}

impl Cycles {
    /// Add the attempts to `report`; returns cycles per second.
    fn account(&self, report: &mut RunReport) -> f64 {
        report.attempted += self.attempted;
        report.failed += self.failed;
        self.cycle_ns.len() as f64 / (self.cycle_ns.iter().sum::<u64>() as f64 / 1e9)
    }
}

/// Run whole cycles until `seconds` have passed; every answer is
/// checked against `reference`.
fn run_cycles(
    batch: &Batch,
    tasks: &[Task],
    reference: &[Answer],
    seconds: f64,
    log: &mut SpanLog,
) -> Cycles {
    let mut c = Cycles::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let traced = pkgrec_trace::is_enabled();
    while Instant::now() < deadline || c.cycle_ns.is_empty() {
        let op = c.cycle_ns.len() as u64;
        if traced {
            pkgrec_trace::reset();
        }
        let cycle = log.open();
        let t0 = now_ns();
        for (task, expected) in tasks.iter().zip(reference) {
            let name = format!("solve.{}.{:?}", task.class.name(), task.problem);
            let (out, ns) = log.time(&name, Some(cycle), op, || solve(batch, *task));
            c.attempted += 1;
            match out {
                Ok((answer, stats)) => {
                    if answer != *expected {
                        c.failed += 1;
                    }
                    if task.jobs > 1 && !stats.workers.is_empty() {
                        c.busy_ns += stats.workers.iter().map(|w| w.busy_ns).sum::<u64>();
                        c.capacity_ns += ns * task.jobs as u64;
                    }
                }
                Err(e) => {
                    eprintln!("exact_batch: {name}: {e}");
                    c.failed += 1;
                }
            }
            c.solve_ns.entry(task.class).or_default().push(ns);
        }
        let t1 = now_ns();
        log.close(cycle, "cycle", (t0, t1), None, op);
        c.cycle_ns.push(t1 - t0);
        if traced {
            c.trace.merge(&pkgrec_trace::take());
        }
    }
    c
}

/// Set-up, as `setup_s` times it: generate the batch and compile each
/// instance once (the first compile builds the relations' lazy
/// indexes).
fn set_up_batch(
    seed: u64,
    shape: &BatchShape,
    setups: &mut Vec<f64>,
) -> Result<Batch, LedgerError> {
    let t = Instant::now();
    let batch = generate_batch(seed, shape);
    for inst in batch.instances.values() {
        std::hint::black_box(inst.search_context()?.items().len());
    }
    setups.push(t.elapsed().as_secs_f64());
    Ok(batch)
}

/// Run `exact_batch`.
pub fn exact_batch(args: &Args) -> Result<(RunReport, Vec<SpanLog>), LedgerError> {
    let shape = BatchShape::of(args.smoke);
    let tasks = batch();
    let mut setups = Vec::new();
    let batch = set_up_batch(args.seed, &shape, &mut setups)?;

    // The untimed reference pass, all at jobs = 1.
    let reference = tasks
        .iter()
        .map(|t| solve(&batch, Task { jobs: 1, ..*t }).map(|(a, _)| a))
        .collect::<Result<Vec<_>, _>>()?;
    if !reference.contains(&Answer::IsTopK(true)) {
        return Err("Theorem 4.1: {∅} must be top-1 for a false sentence".into());
    }

    let mut report = RunReport::default();
    let mut log = SpanLog::new(0, false);
    if args.trace {
        traced_batch(&batch, &tasks, &reference, args, &mut report, &mut log)?;
    } else {
        let c = run_cycles(&batch, &tasks, &reference, args.seconds, &mut log);
        let ops = c.account(&mut report);
        report.set("ops_per_s", ops);
        report.set("latency_p50_us", us(percentile(&c.cycle_ns, 0.5)));
    }
    report.set_peak_rss()?;
    drop(batch);
    for _ in 1..SETUPS {
        set_up_batch(args.seed, &shape, &mut setups)?;
    }
    report.set("setup_s", median(&setups).unwrap_or(0.0));
    Ok((report, vec![log]))
}

/// The traced run of `exact_batch`: untraced and traced halves, then a
/// replay of the compile, the prepare and the compiled `Qc` probe.
fn traced_batch(
    batch: &Batch,
    tasks: &[Task],
    reference: &[Answer],
    args: &Args,
    report: &mut RunReport,
    log: &mut SpanLog,
) -> Result<(), LedgerError> {
    let plain = run_cycles(batch, tasks, reference, args.seconds / 2.0, log);
    let plain_ops = plain.account(report);
    log.enabled = true;
    let traced = {
        let _trace = pkgrec_trace::scoped();
        let _timeline = timeline::scoped();
        run_cycles(batch, tasks, reference, args.seconds / 2.0, log)
    };
    timeline::reset();
    let traced_ops = traced.account(report);
    report.set(
        "trace.overhead_pct",
        (plain_ops - traced_ops) / plain_ops * 100.0,
    );
    for class in Class::ALL {
        report.set(class.metric(), us(percentile(&plain.solve_ns[&class], 0.5)));
    }
    let all: Vec<u64> = plain.solve_ns.values().flatten().copied().collect();
    report.set("core.solve_p95_us", us(percentile(&all, 0.95)));
    report.set_counters(&traced.trace, traced.cycle_ns.len() as u64);
    report.set(
        "enumerate.busy_share",
        traced.busy_ns as f64 / traced.capacity_ns.max(1) as f64,
    );

    let inst = &batch.instances[&Class::QcCq];
    let op = 1_000_000;
    let mut compile = Vec::new();
    let mut prepare = Vec::new();
    for _ in 0..20 {
        let (plan, ns) = log.time("replay.compile", None, op, || inst.query.compile(&inst.db));
        plan?;
        compile.push(ns);
        let (p, ns) = log.time("replay.prepare", None, op, || {
            PreparedInstance::new(inst.clone())
        });
        p?;
        prepare.push(ns);
    }
    report.set("query.compile_us_p50", us(percentile(&compile, 0.5)));
    report.set("core.prepare_us_p50", us(percentile(&prepare, 0.5)));
    let ctx = inst.search_context()?;
    let mut rng = StdRng::seed_from_u64(args.seed);
    let items = ctx.items();
    let sample: Vec<Package> = (0..10_000)
        .map(|_| {
            let size = rng.gen_range(2..=4usize);
            Package::new((0..size).map(|_| items[rng.gen_range(0..items.len())].clone()))
        })
        .collect();
    let (probes, ns) = log.time("replay.qc_probe", None, op, || {
        sample
            .iter()
            .map(|p| ctx.qc_satisfied(p).map(usize::from))
            .sum::<Result<usize, _>>()
    });
    probes?;
    report.set("query.qc_probe_ns", ns as f64 / sample.len() as f64);
    Ok(())
}

// ---- sketch_catalog --------------------------------------------------

/// Packages per FRP answer.
const SKETCH_K: usize = 3;
/// Items per package. Under the default linear bound the best
/// packages hold dozens of cheap items and every sub-solve runs into
/// its step cap, which makes an op's time swing twofold from seed to
/// seed; at four items the sub-solves finish and the op time follows
/// the catalog size.
const SKETCH_MAX_SIZE: usize = 4;
/// The cost budget `C` (sum of prices).
const SKETCH_BUDGET: f64 = 2500.0;
/// A safety net far above an op's time (under a tenth of a second): the
/// anytime contract still answers if it trips, and the run then fails
/// the `interrupted` check.
const SKETCH_DEADLINE: Duration = Duration::from_secs(60);

fn sketch_items(smoke: bool) -> usize {
    if smoke {
        5_000
    } else {
        SKETCH_ITEMS
    }
}

/// Catalog size of `sketch_catalog`. Compiling a query over a
/// relation builds a dense bitset per distinct value per column, which
/// is quadratic in memory for the key column: 1.4 GB at 100 000 rows,
/// 50 MB at 20 000. The ledger stays at 20 000 so a run fits beside
/// other work; `peak_rss_mb` makes the quadratic term visible.
const SKETCH_ITEMS: usize = 20_000;

fn sketch_instance(db: Database) -> RecInstance {
    RecInstance::new(db, Query::Cq(ConjunctiveQuery::identity("item", 3)))
        .with_budget(SKETCH_BUDGET)
        .with_cost(PackageFn::sum_col(1, true))
        .with_val(PackageFn::sum_col(2, true))
        .with_size_bound(SizeBound::Constant(SKETCH_MAX_SIZE))
        .with_k(SKETCH_K)
}

/// An upper bound on any valid package's `val`: the smaller of the
/// fractional-knapsack bound under the budget (items by score/price,
/// the last one fractionally) and the sum of the
/// [`SKETCH_MAX_SIZE`] best scores. No package can beat either, so
/// `val ÷ bound` certifies a quality floor.
fn quality_bound(items: &[pkgrec_data::Tuple]) -> f64 {
    let mut scores: Vec<f64> = items
        .iter()
        .filter_map(|t| Some(t[2].as_int()? as f64))
        .collect();
    scores.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
    let top: f64 = scores.iter().take(SKETCH_MAX_SIZE).sum();
    knapsack_bound(items).min(top)
}

/// The fractional-knapsack bound of [`quality_bound`].
fn knapsack_bound(items: &[pkgrec_data::Tuple]) -> f64 {
    let mut by_density: Vec<(f64, f64)> = items
        .iter()
        .filter_map(|t| Some((t[1].as_int()? as f64, t[2].as_int()? as f64)))
        .collect();
    by_density.sort_by(|a, b| (b.1 / b.0).partial_cmp(&(a.1 / a.0)).expect("finite"));
    let mut room = SKETCH_BUDGET;
    let mut bound = 0.0;
    for (price, score) in by_density {
        if room <= 0.0 {
            break;
        }
        let take = (room / price).min(1.0);
        bound += take * score;
        room -= take * price;
    }
    bound
}

/// An FRP answer from the sketch engine.
type SketchOutcome = pkgrec_core::Outcome<Option<Vec<Package>>, SearchStats>;

/// One sketch op: FRP top-k, then MBP, both through the SketchRefine
/// engine as a library caller runs them (each builds its own search
/// context), recorded as `solve.frp` and `solve.mbp` spans under
/// `parent`.
fn sketch_op(
    inst: &RecInstance,
    log: &mut SpanLog,
    parent: u64,
    op: u64,
) -> Result<(SketchOutcome, Option<Ext>), LedgerError> {
    let opts = SolveOptions::with_budget(Budget::with_timeout(SKETCH_DEADLINE))
        .with_approx(SketchParams::default());
    let (top, _) = log.time("solve.frp", Some(parent), op, || frp::top_k(inst, &opts));
    let (bound, _) = log.time("solve.mbp", Some(parent), op, || {
        mbp::maximum_bound(inst, &opts)
    });
    let bound = bound?;
    if bound.method != Method::Sketch || bound.exact || bound.interrupted.is_some() {
        return Err("MBP did not come back as an uninterrupted sketch answer".into());
    }
    Ok((top?, bound.value))
}

/// Check one op's answers; returns the quality ratio.
fn check_sketch(
    verify: &PreparedInstance,
    top: &SketchOutcome,
    bound: Option<Ext>,
    ub: f64,
) -> Result<f64, String> {
    if top.method != Method::Sketch || top.exact || top.interrupted.is_some() {
        return Err("FRP did not come back as an uninterrupted sketch answer".into());
    }
    let sel = top.value.as_deref().unwrap_or(&[]);
    if sel.len() != SKETCH_K {
        return Err(format!(
            "FRP returned {} packages, wanted {SKETCH_K}",
            sel.len()
        ));
    }
    let ctx = verify.context();
    for p in sel {
        if !ctx.is_valid_package(p, None).map_err(|e| e.to_string())? {
            return Err(format!("invalid package returned: {p}"));
        }
    }
    let val = &verify.instance().val;
    if bound != Some(val.eval(&sel[SKETCH_K - 1])) {
        return Err("MBP bound is not the k-th FRP package's rating".into());
    }
    let Ext::Finite(top_val) = val.eval(&sel[0]) else {
        return Err("top package has no finite rating".into());
    };
    let ratio = top_val / ub;
    if !(0.0..=1.0 + 1e-9).contains(&ratio) {
        return Err(format!("quality ratio {ratio} outside [0, 1]"));
    }
    Ok(ratio)
}

/// A `sketch_catalog` run: the instance, its verifier (the prepared
/// full instance), the quality bound, and the first op's answer, which
/// every later op must repeat.
struct SketchRun {
    inst: RecInstance,
    verify: PreparedInstance,
    bound: f64,
    first: Option<Vec<Package>>,
    quality: f64,
}

impl SketchRun {
    /// Set-up, as `setup_s` times it: generate the catalog and prepare
    /// it once (compile plus `Q(D)`).
    fn set_up(seed: u64, n: usize, setups: &mut Vec<f64>) -> Result<SketchRun, LedgerError> {
        let t = Instant::now();
        let inst = sketch_instance(flat_catalog(seed, n));
        let verify = PreparedInstance::new(inst.clone())?;
        setups.push(t.elapsed().as_secs_f64());
        let bound = quality_bound(verify.context().items());
        Ok(SketchRun {
            inst,
            verify,
            bound,
            first: None,
            quality: 0.0,
        })
    }

    /// Ops until `seconds` pass (at least one), each checked; returns
    /// their wall times. Timeline phase totals are added to `phases`
    /// while the timeline records.
    fn ops(
        &mut self,
        seconds: f64,
        log: &mut SpanLog,
        report: &mut RunReport,
        phases: &mut BTreeMap<String, u64>,
    ) -> Vec<u64> {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut op_ns = Vec::new();
        while Instant::now() < deadline || op_ns.is_empty() {
            let scope = timeline::begin_scope();
            let op = op_ns.len() as u64;
            let span = log.open();
            let t0 = now_ns();
            let out = sketch_op(&self.inst, log, span, op);
            let ns = now_ns() - t0;
            log.close(span, "op", (t0, t0 + ns), None, op);
            if scope.id() != 0 {
                for p in timeline::take_scope(scope.id()).summarize().phases {
                    *phases.entry(p.name).or_insert(0) += p.total_ns;
                }
            }
            match out
                .map_err(|e| e.to_string())
                .and_then(|(top, b)| self.check(top, b))
            {
                Ok(()) => report.attempt(true),
                Err(e) => {
                    eprintln!("sketch_catalog: {e}");
                    report.attempt(false);
                }
            }
            op_ns.push(ns);
        }
        op_ns
    }

    /// Check one op's answers and record its quality ratio.
    fn check(&mut self, top: SketchOutcome, bound: Option<Ext>) -> Result<(), String> {
        self.quality = check_sketch(&self.verify, &top, bound, self.bound)?;
        match &self.first {
            Some(f) if top.value.as_ref() != Some(f) => {
                Err("the same instance gave a different answer".to_string())
            }
            _ => {
                self.first = top.value;
                Ok(())
            }
        }
    }
}

fn ops_per_s(op_ns: &[u64]) -> f64 {
    op_ns.len() as f64 / (op_ns.iter().sum::<u64>() as f64 / 1e9)
}

/// Run `sketch_catalog`.
pub fn sketch_catalog(args: &Args) -> Result<(RunReport, Vec<SpanLog>), LedgerError> {
    let n = sketch_items(args.smoke);
    let mut setups = Vec::new();
    let mut run = SketchRun::set_up(args.seed, n, &mut setups)?;
    let mut report = RunReport::default();
    let mut log = SpanLog::new(0, false);
    let mut phases = BTreeMap::new();
    if args.trace {
        let plain = run.ops(args.seconds / 2.0, &mut log, &mut report, &mut phases);
        log.enabled = true;
        let (traced, trace) = {
            let _trace = pkgrec_trace::scoped();
            let _timeline = timeline::scoped();
            pkgrec_trace::reset();
            let op_ns = run.ops(args.seconds / 2.0, &mut log, &mut report, &mut phases);
            (op_ns, pkgrec_trace::take())
        };
        timeline::reset();
        report.set(
            "trace.overhead_pct",
            (ops_per_s(&plain) - ops_per_s(&traced)) / ops_per_s(&plain) * 100.0,
        );
        report.set_counters(&trace, traced.len() as u64);
        report.set("sketch.quality_ratio", run.quality);
        let wall: u64 = traced.iter().sum();
        for (metric, phase) in [
            ("sketch.phase_share.compile", "compile"),
            ("sketch.phase_share.sketch", "sketch"),
            ("sketch.phase_share.refine", "refine"),
            ("sketch.phase_share.verify", "verify"),
        ] {
            let ns = phases.get(phase).copied().unwrap_or(0);
            report.set(metric, ns as f64 / wall.max(1) as f64);
        }
        replay_sketch(&run, &mut report, &mut log)?;
    } else {
        let op_ns = run.ops(args.seconds, &mut log, &mut report, &mut phases);
        report.set("ops_per_s", ops_per_s(&op_ns));
        report.set("latency_p50_us", us(percentile(&op_ns, 0.5)));
    }
    report.set_peak_rss()?;
    drop(run);
    for _ in 1..SETUPS {
        SketchRun::set_up(args.seed, n, &mut setups)?;
    }
    report.set("setup_s", median(&setups).unwrap_or(0.0));
    Ok((report, vec![log]))
}

/// Replay: the offline partitioner with the engine's default knobs
/// over the cost/val columns, the compile, and the prepare.
fn replay_sketch(
    run: &SketchRun,
    report: &mut RunReport,
    log: &mut SpanLog,
) -> Result<(), LedgerError> {
    let items = run.verify.context().items().to_vec();
    let defaults = SketchParams::default();
    let params = PartitionParams {
        fanout: defaults.fanout,
        leaf_cap: defaults.leaf_cap,
        seed: defaults.seed,
        columns: vec![1, 2],
    };
    let inst = &run.inst;
    let op = 1_000_000;
    let (mut part, mut compile, mut prepare) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        let (idx, ns) = log.time("replay.partition", None, op, || {
            PartitionIndex::build(&items, &params)
        });
        std::hint::black_box(idx.len());
        part.push(ns);
        let (plan, ns) = log.time("replay.compile", None, op, || inst.query.compile(&inst.db));
        plan?;
        compile.push(ns);
        let (p, ns) = log.time("replay.prepare", None, op, || {
            PreparedInstance::new(inst.clone())
        });
        p?;
        prepare.push(ns);
    }
    report.set("data.partition_ms", us(percentile(&part, 0.5)) / 1000.0);
    report.set("query.compile_us_p50", us(percentile(&compile, 0.5)));
    report.set("core.prepare_us_p50", us(percentile(&prepare, 0.5)));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knapsack_bound_is_fractional_greedy() {
        // Densities 10, 5, 1; budget 2500 takes the first two whole
        // (cost 1500) and 1000/2000 of the third.
        let items = vec![
            tuple![0, 500, 5000],
            tuple![1, 1000, 5000],
            tuple![2, 2000, 2000],
        ];
        assert_eq!(knapsack_bound(&items), 5000.0 + 5000.0 + 1000.0);
        assert_eq!(quality_bound(&items), knapsack_bound(&items));
        // Five cheap items fit the budget, but a package holds four.
        let cheap: Vec<_> = (0..5).map(|i| tuple![i, 1, 9000]).collect();
        assert_eq!(knapsack_bound(&cheap), 45_000.0);
        assert_eq!(quality_bound(&cheap), 36_000.0);
    }

    #[test]
    fn smoke_batch_has_fixed_shape_and_agrees_across_jobs() {
        let shape = BatchShape::of(true);
        let a = generate_batch(1, &shape);
        let b = generate_batch(2, &shape);
        for batch in [&a, &b] {
            let sweep = &batch.instances[&Class::QcNone];
            assert_eq!(sweep.items().unwrap().len(), shape.sweep_pool);
            let travel = &batch.instances[&Class::Travel];
            assert_eq!(
                travel.items().unwrap().len(),
                shape.route_flights * shape.pois_per_city
            );
        }
        let par = Task {
            class: Class::ParCount,
            problem: Problem::Cpp,
            jobs: 2,
        };
        let (two, _) = solve(&a, par).unwrap();
        let (one, _) = solve(&a, Task { jobs: 1, ..par }).unwrap();
        assert_eq!(two, one);
        assert_eq!(
            solve(
                &a,
                Task {
                    class: Class::Thm41,
                    problem: Problem::Rpp,
                    jobs: 1
                }
            )
            .unwrap()
            .0,
            Answer::IsTopK(true)
        );
    }
}
