//! The one solve spec. A [`SolveRequest`] is the tuple
//! `(Q, D, cost, val, C, k)` plus the search's budget; both front ends
//! fill it — `/solve` by decoding a JSON body ([`parse_solve_request`]),
//! the `pkgrec` CLI from its flags — and from there share everything:
//! [`SolveRequest::validate`] holds every field to one set of rules,
//! [`SolveRequest::instance`] turns the spec into a [`RecInstance`],
//! [`SolveRequest::options`] into solver options, and
//! [`SolveRequest::solve`] runs the solver.
//!
//! Decoding uses the stack's own [`pkgrec_trace::json`] parser (depth
//! capped, total on arbitrary bytes) and **rejects unknown keys**, so a
//! malformed or hostile payload is a typed [`RequestError`], never a
//! panic and never a silently-ignored field that makes the server
//! answer a different question than asked.

use std::sync::Arc;
use std::time::Duration;

use pkgrec_core::problems::{cpp, frp, mbp};
use pkgrec_core::{
    Budget, CoreError, Ext, Outcome, Package, PackageFn, PreparedInstance, RecInstance,
    SearchStats, SizeBound, SketchParams, SolveOptions,
};
use pkgrec_data::Database;
use pkgrec_query::parser::{parse_fo, parse_query};
use pkgrec_query::Query;
use pkgrec_trace::json::{self, Json};

/// Which problem a request asks the service to solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProblemKind {
    /// Evaluate `Q(D)` — the item pool itself.
    Eval,
    /// FRP: the top-`k` packages by rating.
    TopK,
    /// MBP: the maximum rating bound `B` admitting `k` packages.
    Bound,
    /// CPP: count the valid packages rated at least `min_val`.
    Count,
}

impl ProblemKind {
    /// The wire name, as accepted in the `problem` field.
    pub fn name(self) -> &'static str {
        match self {
            ProblemKind::Eval => "eval",
            ProblemKind::TopK => "topk",
            ProblemKind::Bound => "bound",
            ProblemKind::Count => "count",
        }
    }
}

/// A solve spec. Build one with [`SolveRequest::new`] or
/// [`parse_solve_request`]; a front end that fills the fields itself
/// runs [`SolveRequest::validate`] before solving.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRequest {
    /// Name of a resident database.
    pub db: String,
    /// What to solve.
    pub problem: ProblemKind,
    /// The selection query `Q` (rule form or FO form).
    pub query: String,
    /// How many packages (`k ≥ 1`); defaults to 1.
    pub k: usize,
    /// Cost budget `C`; `None` means unbounded.
    pub budget: Option<f64>,
    /// Cost function spec (`count`, `sum:COL`, `negsum:COL`).
    pub cost: String,
    /// Rating function spec (same grammar).
    pub val: String,
    /// Rating bound for `count`; `None` means `-inf` (count everything
    /// within budget).
    pub min_val: Option<f64>,
    /// Package-size cap; `None` keeps the default linear bound.
    pub max_size: Option<usize>,
    /// Wall-clock deadline for this request, in milliseconds. A server
    /// applies its maximum when this is `None` and otherwise the
    /// smaller of the two: a request can tighten the cap, never exceed
    /// it.
    pub deadline_ms: Option<u64>,
    /// Step budget, if the client wants one on top of the deadline.
    pub steps: Option<u64>,
    /// Worker threads for this solve (clamped by the server).
    pub jobs: usize,
    /// Run the SketchRefine approximate engine (`topk` and `bound`
    /// only). The response is then always `"exact": false` with
    /// `"method": "sketch"` — scale traded for the exactness
    /// certificate, never silently.
    pub approx: bool,
}

/// A rejected request, with a message naming the offending field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// What was wrong.
    pub message: String,
    /// The wire field at fault, when one is (a front end with its own
    /// names for the fields, such as the CLI's flags, maps it back).
    pub field: Option<&'static str>,
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for RequestError {}

fn bad(message: impl Into<String>) -> RequestError {
    RequestError {
        message: message.into(),
        field: None,
    }
}

fn bad_field(field: &'static str, message: impl Into<String>) -> RequestError {
    RequestError {
        message: message.into(),
        field: Some(field),
    }
}

const KNOWN_KEYS: &[&str] = &[
    "db", "problem", "query", "k", "budget", "cost", "val", "min_val", "max_size", "deadline_ms",
    "steps", "jobs", "approx",
];

/// Parse a package-function spec: `count`, `sum:COL` or `negsum:COL`.
/// `count` is `|N|` here; [`SolveRequest::instance`] reads it as
/// [`PackageFn::count`] in the cost position.
pub fn parse_fn_spec(spec: &str) -> Result<PackageFn, RequestError> {
    if spec == "count" {
        return Ok(PackageFn::cardinality());
    }
    if let Some(col) = spec.strip_prefix("sum:") {
        let col: usize = col
            .parse()
            .map_err(|_| bad(format!("bad column in `{spec}`")))?;
        return Ok(PackageFn::sum_col(col, true));
    }
    if let Some(col) = spec.strip_prefix("negsum:") {
        let col: usize = col
            .parse()
            .map_err(|_| bad(format!("bad column in `{spec}`")))?;
        return Ok(PackageFn::neg_sum_col(col));
    }
    Err(bad(format!(
        "unknown function spec `{spec}` (expected count, sum:COL or negsum:COL)"
    )))
}

/// Parse the selection query `Q`: rule form first, FO form second.
/// `/solve`, `/explain` and the CLI all read queries with this.
pub fn load_query(src: &str) -> Result<Query, RequestError> {
    parse_query(src).or_else(|rule_err| {
        parse_fo(src).map_err(|fo_err| {
            bad_field(
                "query",
                format!("query parses neither as rules ({rule_err}) nor as FO ({fo_err})"),
            )
        })
    })
}

/// A solved request: the problem's answer with its search outcome.
#[derive(Debug)]
pub enum Answer {
    /// `eval`: the item pool, which the prepared instance already holds.
    Eval,
    /// FRP: the top-`k` packages, best first.
    TopK(Outcome<Option<Vec<Package>>, SearchStats>),
    /// MBP: the maximum rating bound.
    Bound(Outcome<Option<Ext>, SearchStats>),
    /// CPP: the number of valid packages rated at least `min_val`.
    Count(Outcome<u128, SearchStats>),
}

impl SolveRequest {
    /// A request for `problem` with every optional field at its
    /// default: `k = 1`, cost and rating `count`, no budget, rating
    /// bound, size cap, deadline or step limit, one job, exact engine.
    pub fn new(db: impl Into<String>, problem: ProblemKind, query: impl Into<String>) -> Self {
        SolveRequest {
            db: db.into(),
            problem,
            query: query.into(),
            k: 1,
            budget: None,
            cost: "count".to_string(),
            val: "count".to_string(),
            min_val: None,
            max_size: None,
            deadline_ms: None,
            steps: None,
            jobs: 1,
            approx: false,
        }
    }

    /// Hold every field to the wire's rules: counts at least 1, numbers
    /// finite, specs well-formed, `approx` only on `topk`/`bound`.
    pub fn validate(&self) -> Result<(), RequestError> {
        let counts = [
            ("k", Some(self.k as u64)),
            ("max_size", self.max_size.map(|n| n as u64)),
            ("deadline_ms", self.deadline_ms),
            ("steps", self.steps),
            ("jobs", Some(self.jobs as u64)),
        ];
        for (field, n) in counts {
            if n == Some(0) {
                return Err(bad_field(
                    field,
                    format!("field `{field}` must be at least 1"),
                ));
            }
        }
        for (field, x) in [("budget", self.budget), ("min_val", self.min_val)] {
            if x.is_some_and(|x| !x.is_finite()) {
                return Err(bad_field(
                    field,
                    format!("field `{field}` must be a finite number"),
                ));
            }
        }
        for (field, spec) in [("cost", &self.cost), ("val", &self.val)] {
            parse_fn_spec(spec).map_err(|e| bad_field(field, e.message))?;
        }
        if self.approx && !matches!(self.problem, ProblemKind::TopK | ProblemKind::Bound) {
            return Err(bad_field(
                "approx",
                format!(
                    "field `approx` is only supported for topk and bound (got `{}`)",
                    self.problem.name()
                ),
            ));
        }
        Ok(())
    }

    /// The instance this request asks about, over `db`: `/solve` builds
    /// it on a plan-cache miss, the CLI on every run. The spec `count`
    /// reads as [`RecInstance::new`]'s defaults do: as a cost it is
    /// [`PackageFn::count`] (`cost(∅) = ∞`, so `∅` never fits a finite
    /// budget), as a rating [`PackageFn::cardinality`] (`val(∅) = 0`).
    pub fn instance(&self, db: Arc<Database>) -> Result<RecInstance, RequestError> {
        self.validate()?;
        let cost = match self.cost.as_str() {
            "count" => PackageFn::count(),
            spec => parse_fn_spec(spec)?,
        };
        let mut inst = RecInstance::new(db, load_query(&self.query)?)
            .with_cost(cost)
            .with_val(parse_fn_spec(&self.val)?)
            .with_k(self.k);
        if let Some(budget) = self.budget {
            inst = inst.with_budget(budget);
        }
        if let Some(cap) = self.max_size {
            inst = inst.with_size_bound(SizeBound::Constant(cap));
        }
        Ok(inst)
    }

    /// The solver options this request runs under: its deadline,
    /// tightened to `max_deadline_ms` when there is a cap (a server
    /// always has one, the CLI none), its step limit, its jobs clamped
    /// to `max_jobs`, and the SketchRefine engine when `approx` is set.
    pub fn options(&self, max_deadline_ms: Option<u64>, max_jobs: usize) -> SolveOptions {
        let deadline_ms = match (self.deadline_ms, max_deadline_ms) {
            (Some(ms), Some(cap)) => Some(ms.min(cap)),
            (ms, cap) => ms.or(cap),
        };
        let mut budget = Budget::unlimited();
        if let Some(ms) = deadline_ms {
            budget = budget.timeout(Duration::from_millis(ms));
        }
        if let Some(steps) = self.steps {
            budget = budget.steps(steps);
        }
        let opts = SolveOptions::with_budget(budget).with_jobs(self.jobs.min(max_jobs).max(1));
        match self.approx {
            true => opts.with_approx(SketchParams::default()),
            false => opts,
        }
    }

    /// Solve this request on `prepared`, the [`PreparedInstance`] of
    /// [`SolveRequest::instance`].
    pub fn solve(
        &self,
        prepared: &PreparedInstance,
        opts: &SolveOptions,
    ) -> Result<Answer, CoreError> {
        Ok(match self.problem {
            ProblemKind::Eval => Answer::Eval,
            ProblemKind::TopK => Answer::TopK(frp::top_k_in(&prepared.context(), opts)?),
            ProblemKind::Bound => Answer::Bound(mbp::maximum_bound_in(&prepared.context(), opts)?),
            ProblemKind::Count => {
                let bound = self.min_val.map_or(Ext::NegInf, Ext::from);
                Answer::Count(cpp::count_valid_in(&prepared.context(), bound, opts)?)
            }
        })
    }
}

fn required_str(obj: &Json, key: &'static str) -> Result<String, RequestError> {
    obj.get(key)
        .ok_or_else(|| bad_field(key, format!("missing required field `{key}`")))?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| bad_field(key, format!("field `{key}` must be a string")))
}

fn optional_str(obj: &Json, key: &'static str) -> Result<Option<String>, RequestError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| bad_field(key, format!("field `{key}` must be a string"))),
    }
}

fn optional_u64(obj: &Json, key: &'static str) -> Result<Option<u64>, RequestError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad_field(key, format!("field `{key}` must be a non-negative integer"))),
    }
}

fn optional_usize(obj: &Json, key: &'static str) -> Result<Option<usize>, RequestError> {
    optional_u64(obj, key)?
        .map(|n| {
            usize::try_from(n).map_err(|_| bad_field(key, format!("field `{key}` is too large")))
        })
        .transpose()
}

fn optional_f64(obj: &Json, key: &'static str) -> Result<Option<f64>, RequestError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| bad_field(key, format!("field `{key}` must be a finite number"))),
    }
}

/// Decode and validate a `/solve` body.
pub fn parse_solve_request(body: &[u8]) -> Result<SolveRequest, RequestError> {
    let text = std::str::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?;
    let root = json::parse(text).map_err(|e| bad(format!("body is not valid JSON: {e}")))?;
    let Json::Obj(ref fields) = root else {
        return Err(bad("body must be a JSON object"));
    };
    for (key, _) in fields {
        if !KNOWN_KEYS.contains(&key.as_str()) {
            return Err(bad(format!(
                "unknown field `{key}` (accepted: {})",
                KNOWN_KEYS.join(", ")
            )));
        }
    }
    let db = required_str(&root, "db")?;
    let query = required_str(&root, "query")?;
    let problem = match required_str(&root, "problem")?.as_str() {
        "eval" => ProblemKind::Eval,
        "topk" => ProblemKind::TopK,
        "bound" => ProblemKind::Bound,
        "count" => ProblemKind::Count,
        other => {
            return Err(bad_field(
                "problem",
                format!("unknown problem `{other}` (expected eval, topk, bound or count)"),
            ))
        }
    };
    let mut req = SolveRequest::new(db, problem, query);
    if let Some(k) = optional_usize(&root, "k")? {
        req.k = k;
    }
    if let Some(cost) = optional_str(&root, "cost")? {
        req.cost = cost;
    }
    if let Some(val) = optional_str(&root, "val")? {
        req.val = val;
    }
    req.budget = optional_f64(&root, "budget")?;
    req.min_val = optional_f64(&root, "min_val")?;
    req.max_size = optional_usize(&root, "max_size")?;
    req.deadline_ms = optional_u64(&root, "deadline_ms")?;
    req.steps = optional_u64(&root, "steps")?;
    if let Some(jobs) = optional_usize(&root, "jobs")? {
        req.jobs = jobs;
    }
    req.approx = match root.get("approx") {
        None | Some(Json::Null) => false,
        Some(v) => v
            .as_bool()
            .ok_or_else(|| bad_field("approx", "field `approx` must be a boolean"))?,
    };
    req.validate()?;
    Ok(req)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_request_gets_defaults() {
        let req = parse_solve_request(
            br#"{"db":"travel","problem":"topk","query":"q(x) :- item(x)"}"#,
        )
        .unwrap();
        assert_eq!(req.db, "travel");
        assert_eq!(req.problem, ProblemKind::TopK);
        assert_eq!(req.k, 1);
        assert_eq!(req.cost, "count");
        assert_eq!(req.val, "count");
        assert_eq!(req.jobs, 1);
        assert_eq!(req.budget, None);
        assert_eq!(req.deadline_ms, None);
        assert!(!req.approx);
    }

    #[test]
    fn approx_is_a_topk_and_bound_knob() {
        for problem in ["topk", "bound"] {
            let body = format!(
                r#"{{"db":"d","problem":"{problem}","query":"q(x) :- item(x)","approx":true}}"#
            );
            assert!(parse_solve_request(body.as_bytes()).unwrap().approx);
        }
        for problem in ["count", "eval"] {
            let body = format!(
                r#"{{"db":"d","problem":"{problem}","query":"q(x) :- item(x)","approx":true}}"#
            );
            let e = parse_solve_request(body.as_bytes()).unwrap_err();
            assert!(e.message.contains("`approx`"), "{e}");
        }
        // Non-boolean values are rejected; explicit false is fine.
        let e = parse_solve_request(
            br#"{"db":"d","problem":"topk","query":"q(x) :- item(x)","approx":1}"#,
        )
        .unwrap_err();
        assert!(e.message.contains("boolean"), "{e}");
        let req = parse_solve_request(
            br#"{"db":"d","problem":"count","query":"q(x) :- item(x)","approx":false}"#,
        )
        .unwrap();
        assert!(!req.approx);
    }

    #[test]
    fn full_request_round_trips() {
        let req = parse_solve_request(
            br#"{"db":"d","problem":"count","query":"q(x) :- item(x)","k":3,
                 "budget":10.5,"cost":"sum:1","val":"negsum:2","min_val":-4,
                 "max_size":5,"deadline_ms":250,"steps":1000,"jobs":2}"#,
        )
        .unwrap();
        assert_eq!(req.problem, ProblemKind::Count);
        assert_eq!(req.k, 3);
        assert_eq!(req.budget, Some(10.5));
        assert_eq!(req.cost, "sum:1");
        assert_eq!(req.val, "negsum:2");
        assert_eq!(req.min_val, Some(-4.0));
        assert_eq!(req.max_size, Some(5));
        assert_eq!(req.deadline_ms, Some(250));
        assert_eq!(req.steps, Some(1000));
        assert_eq!(req.jobs, 2);
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        for (body, needle) in [
            (&b"\xff\xfe"[..], "UTF-8"),
            (b"not json", "valid JSON"),
            (b"[1,2]", "JSON object"),
            (br#"{"problem":"topk","query":"q"}"#, "`db`"),
            (br#"{"db":"d","query":"q"}"#, "`problem`"),
            (br#"{"db":"d","problem":"topk"}"#, "`query`"),
            (br#"{"db":"d","problem":"fix","query":"q"}"#, "unknown problem"),
            (br#"{"db":"d","problem":"topk","query":"q","k":0}"#, "`k`"),
            (br#"{"db":"d","problem":"topk","query":"q","k":-1}"#, "`k`"),
            (
                br#"{"db":"d","problem":"topk","query":"q","cost":"max:1"}"#,
                "function spec",
            ),
            (
                br#"{"db":"d","problem":"topk","query":"q","budget":"ten"}"#,
                "`budget`",
            ),
            (
                br#"{"db":"d","problem":"topk","query":"q","deadline_ms":0}"#,
                "`deadline_ms`",
            ),
            (
                br#"{"db":"d","problem":"topk","query":"q","surprise":1}"#,
                "unknown field `surprise`",
            ),
        ] {
            let e = parse_solve_request(body).expect_err(&format!("{body:?} must be rejected"));
            assert!(e.message.contains(needle), "{e} should mention {needle}");
        }
    }

    /// `count` reads as `RecInstance::new`'s defaults: `cost(∅) = ∞`
    /// as a cost, `val(∅) = 0` as a rating.
    #[test]
    fn count_spec_reads_as_the_instance_defaults() {
        let req = SolveRequest::new("d", ProblemKind::TopK, "q(x) :- item(x).");
        let inst = req.instance(Arc::new(Database::new())).unwrap();
        assert_eq!(inst.cost.eval(&Package::empty()), Ext::PosInf);
        assert_eq!(inst.val.eval(&Package::empty()), Ext::Finite(0.0));
    }

    /// A hand-filled spec is held to the wire's rules before any
    /// instance is built, so `k = 0` is an error, not a panic.
    #[test]
    fn hand_filled_specs_are_validated() {
        let mut req = SolveRequest::new("d", ProblemKind::Count, "q(x) :- item(x).");
        req.k = 0;
        let e = req.instance(Arc::new(Database::new())).unwrap_err();
        assert_eq!(e.field, Some("k"));
        req.k = 1;
        req.budget = Some(f64::NAN);
        assert_eq!(req.validate().unwrap_err().field, Some("budget"));
        req.budget = None;
        req.approx = true;
        assert_eq!(req.validate().unwrap_err().field, Some("approx"));
    }

    #[test]
    fn options_tighten_to_the_callers_caps() {
        let mut req = SolveRequest::new("d", ProblemKind::TopK, "q(x) :- item(x).");
        req.jobs = 8;
        req.steps = Some(7);
        let unbounded = req.options(None, usize::MAX);
        assert_eq!((unbounded.budget.timeout, unbounded.jobs), (None, 8));
        assert_eq!(unbounded.budget.steps, Some(7));
        let capped = req.options(Some(100), 4);
        assert_eq!(capped.budget.timeout, Some(Duration::from_millis(100)));
        assert_eq!(capped.jobs, 4);
        req.deadline_ms = Some(50);
        assert_eq!(req.options(Some(100), 4).budget.timeout, Some(Duration::from_millis(50)));
        assert_eq!(req.options(None, 4).budget.timeout, Some(Duration::from_millis(50)));
    }

    #[test]
    fn fn_spec_grammar_matches_the_cli() {
        assert!(parse_fn_spec("count").is_ok());
        assert!(parse_fn_spec("sum:0").is_ok());
        assert!(parse_fn_spec("negsum:3").is_ok());
        assert!(parse_fn_spec("sum:x").is_err());
        assert!(parse_fn_spec("prod:1").is_err());
    }
}
