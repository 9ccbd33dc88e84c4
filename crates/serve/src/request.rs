//! Typed decoding of `/solve` request payloads. The body is JSON,
//! parsed with the stack's own [`pkgrec_trace::json`] parser (depth
//! capped, total on arbitrary bytes); this module then validates every
//! field — required keys present, numbers in range, specs well-formed,
//! **unknown keys rejected** — so a malformed or hostile payload is a
//! typed [`RequestError`], never a panic and never a silently-ignored
//! field that makes the server answer a different question than asked.

use pkgrec_core::PackageFn;
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

/// A validated `/solve` request.
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
    /// Wall-clock deadline for this request, in milliseconds. `None`
    /// lets the server apply its maximum; a request can only tighten
    /// the server's cap, never exceed it.
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
    }
}

const KNOWN_KEYS: &[&str] = &[
    "db", "problem", "query", "k", "budget", "cost", "val", "min_val", "max_size", "deadline_ms",
    "steps", "jobs", "approx",
];

/// Parse a package-function spec: `count`, `sum:COL` or `negsum:COL`.
/// The CLI parses `--cost` / `--val` with this function too.
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

fn required_str(obj: &Json, key: &str) -> Result<String, RequestError> {
    obj.get(key)
        .ok_or_else(|| bad(format!("missing required field `{key}`")))?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| bad(format!("field `{key}` must be a string")))
}

fn optional_u64(obj: &Json, key: &str) -> Result<Option<u64>, RequestError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad(format!("field `{key}` must be a non-negative integer"))),
    }
}

fn optional_f64(obj: &Json, key: &str) -> Result<Option<f64>, RequestError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => match v.as_f64() {
            Some(x) if x.is_finite() => Ok(Some(x)),
            _ => Err(bad(format!("field `{key}` must be a finite number"))),
        },
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
            return Err(bad(format!(
                "unknown problem `{other}` (expected eval, topk, bound or count)"
            )))
        }
    };
    let k = match optional_u64(&root, "k")? {
        None => 1,
        Some(0) => return Err(bad("field `k` must be at least 1")),
        Some(k) => usize::try_from(k).map_err(|_| bad("field `k` is too large"))?,
    };
    let cost = match root.get("cost") {
        None | Some(Json::Null) => "count".to_string(),
        Some(v) => v
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| bad("field `cost` must be a string"))?,
    };
    let val = match root.get("val") {
        None | Some(Json::Null) => "count".to_string(),
        Some(v) => v
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| bad("field `val` must be a string"))?,
    };
    // Validate the specs now so a bad spec is a 400 with a precise
    // message, not a failure deep inside instance preparation.
    parse_fn_spec(&cost)?;
    parse_fn_spec(&val)?;
    let budget = optional_f64(&root, "budget")?;
    let min_val = optional_f64(&root, "min_val")?;
    let max_size = match optional_u64(&root, "max_size")? {
        Some(0) => return Err(bad("field `max_size` must be at least 1")),
        other => other.map(|n| n as usize),
    };
    let deadline_ms = match optional_u64(&root, "deadline_ms")? {
        Some(0) => return Err(bad("field `deadline_ms` must be at least 1")),
        other => other,
    };
    let steps = match optional_u64(&root, "steps")? {
        Some(0) => return Err(bad("field `steps` must be at least 1")),
        other => other,
    };
    let jobs = match optional_u64(&root, "jobs")? {
        None => 1,
        Some(0) => return Err(bad("field `jobs` must be at least 1")),
        Some(j) => usize::try_from(j).map_err(|_| bad("field `jobs` is too large"))?,
    };
    let approx = match root.get("approx") {
        None | Some(Json::Null) => false,
        Some(v) => v
            .as_bool()
            .ok_or_else(|| bad("field `approx` must be a boolean"))?,
    };
    if approx && !matches!(problem, ProblemKind::TopK | ProblemKind::Bound) {
        return Err(bad(format!(
            "field `approx` is only supported for topk and bound (got `{}`)",
            problem.name()
        )));
    }
    Ok(SolveRequest {
        db,
        problem,
        query,
        k,
        budget,
        cost,
        val,
        min_val,
        max_size,
        deadline_ms,
        steps,
        jobs,
        approx,
    })
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

    #[test]
    fn fn_spec_grammar_matches_the_cli() {
        assert!(parse_fn_spec("count").is_ok());
        assert!(parse_fn_spec("sum:0").is_ok());
        assert!(parse_fn_spec("negsum:3").is_ok());
        assert!(parse_fn_spec("sum:x").is_err());
        assert!(parse_fn_spec("prod:1").is_err());
    }
}
