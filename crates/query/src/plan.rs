//! Compiled query plans and the one conjunctive executor.
//!
//! Every conjunctive body in the system runs on [`ConjSet`]: CQ/UCQ
//! answers and membership tests (the "guess a tableau" step behind the
//! paper's upper bounds), Datalog rule firings, and conjunctive `Qc`
//! checks. All of them read the database's interned [`Snapshot`]
//! (`Database::snapshot`, built once per epoch and shared): row-major
//! `u32` cells over one interner for all of `D`, and per-column
//! postings built on first touch, at most once. A plan keeps the
//! snapshot's `Arc` plus what depends on the query alone:
//!
//! * query constants absent from `D`, interned above the snapshot's
//!   ids (each probe's [`ProbeSyms`] layers its own ids above those);
//! * the greedy atom order, builtin schedule and probe column of each
//!   disjunct in both modes (evaluation vs membership), and which
//!   steps are fully-bound existence probes;
//! * a dynamic answer relation, bound per probe as a zero-copy overlay
//!   instead of `Database::with_relation`'s full clone.
//!
//! Compiling therefore costs O(|query|), so a one-shot call
//! (`Query::eval`, `Query::contains`, `Query::has_answer_with`) is one
//! compile and one run, and [`Query::compile`] builds the same plan for
//! reuse. The join reads a posting's rows in ascending order and
//! charges one budget tick per candidate row, so the same query makes
//! the same charges on every path; an unmetered existence step instead
//! intersects its postings ([`Posting::intersects_all`]). Once the
//! head is bound, the join stops at the first witness. A Datalog
//! fixpoint plans each rule firing against the snapshot and the
//! round's IDB facts ([`RuleRunner`]).
//!
//! A [`CompiledPlan`] pairs its [`Executor`] with a shared handle
//! (`Arc`) to the database it was compiled against, so plans have no
//! borrow lifetime and can be cached across solves (the `pkgrec serve`
//! plan cache keys them by `(query, database)`); replace the database
//! and you must recompile.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

use pkgrec_data::{
    AttrType, Database, Posting, Relation, RelationSchema, Snapshot, Table, Tuple, Value,
    ValueInterner,
};
use pkgrec_guard::Meter;

use crate::cq::ConjunctiveQuery;
use crate::datalog::{BodyLiteral, DatalogProgram};
use crate::eval::{datalog as dl_eval, fo as fo_eval, EvalContext, OverlayProvider};
use crate::fo::FoQuery;
use crate::metric::MetricSet;
use crate::query::Query;
use crate::term::{Builtin, RelAtom, Term};
use crate::{QueryError, Result};

impl Query {
    /// Compile this query against `db` into a reusable [`CompiledPlan`].
    ///
    /// The plan snapshots the database contents: answers are those of
    /// `Q(D)` as of compile time, and mutating `D` afterwards requires
    /// recompiling. Compilation performs the query's safety and arity
    /// checks up front, so they surface once here rather than per probe.
    pub fn compile(&self, db: &Arc<Database>) -> Result<CompiledPlan> {
        CompiledPlan::build(self, db, None)
    }

    /// Compile with one *dynamic* relation left open: atoms over
    /// `name` (arity `arity`) resolve, per probe, to tuples supplied to
    /// [`CompiledPlan::eval_dynamic`] / [`CompiledPlan::has_answer_dynamic`].
    /// Like [`Database::set_relation`], the dynamic relation shadows any
    /// base relation of the same name.
    pub fn compile_with_dynamic(
        &self,
        db: &Arc<Database>,
        name: &str,
        arity: usize,
    ) -> Result<CompiledPlan> {
        CompiledPlan::build(self, db, Some((name, arity)))
    }

    /// Whether the query has an answer over `ctx.db` once the relation
    /// `name` (arity `arity`) is bound to `items` — the one-shot form
    /// of [`CompiledPlan::has_answer_dynamic`], and the zero-copy
    /// equivalent of evaluating over `Database::with_relation`. This is
    /// the compatibility check `Qc(N, D) ≠ ∅` for a single package;
    /// callers probing many packages should compile once instead.
    /// Items must have arity `arity`.
    pub fn has_answer_with<'t>(
        &self,
        ctx: EvalContext<'_>,
        name: &str,
        arity: usize,
        items: impl IntoIterator<Item = &'t Tuple>,
    ) -> Result<bool> {
        let exec = Executor::build(self, ctx.db, Some((name, arity)))?;
        Ok(!exec.run_dynamic(ctx, items, true)?.is_empty())
    }
}

/// Run conjunctive bodies once over `ctx.db` (membership when
/// `pre_bound` is given): the per-call CQ/UCQ API.
pub(crate) fn eval_conj_once(
    ctx: EvalContext<'_>,
    disjuncts: &[ConjunctiveQuery],
    pre_bound: Option<&Tuple>,
    stop_on_first: bool,
) -> Result<BTreeSet<Tuple>> {
    let set = ConjSet::compile(disjuncts, ctx.db.snapshot(), None)?;
    set.eval_impl(ctx, pre_bound, None, &mut set.probe_syms(), stop_on_first)
}

/// The two static modes of a conjunctive plan.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Plain evaluation: nothing pre-bound.
    Eval = 0,
    /// Membership: the head pre-bound to a candidate tuple.
    Membership = 1,
}

/// A query compiled against one database. See the module docs.
pub struct CompiledPlan {
    db: Arc<Database>,
    exec: Executor,
}

/// What compilation derived from a query and a database, without the
/// database itself: [`CompiledPlan`] pairs one with the `Arc` of the
/// database it caches, while one-shot calls build one against a
/// borrowed database and run it once.
struct Executor {
    dynamic: Option<DynSpec>,
    arity: usize,
    kind: PlanKind,
}

struct DynSpec {
    name: String,
    arity: usize,
    schema: RelationSchema,
}

enum PlanKind {
    Conj(ConjSet),
    Fo(FoPlan),
    Dl(DlPlan),
}

impl fmt::Debug for CompiledPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledPlan")
            .field("arity", &self.exec.arity)
            .field(
                "kind",
                &match self.exec.kind {
                    PlanKind::Conj(_) => "conj",
                    PlanKind::Fo(_) => "fo",
                    PlanKind::Dl(_) => "datalog",
                },
            )
            .field("dynamic", &self.exec.dynamic.as_ref().map(|d| &d.name))
            .finish()
    }
}

/// The untyped schema used to materialize the dynamic relation for the
/// FO and Datalog engines (the same one `Constraint` checks bind).
fn answer_schema(name: &str, arity: usize) -> RelationSchema {
    RelationSchema::new(name, (0..arity).map(|i| (format!("c{i}"), AttrType::Int)))
        .expect("generated attribute names are distinct")
}

impl Executor {
    fn build(q: &Query, db: &Database, dynamic: Option<(&str, usize)>) -> Result<Executor> {
        let arity = q.arity()?;
        let kind = match q {
            Query::Cq(c) => PlanKind::Conj(ConjSet::compile(
                std::slice::from_ref(c),
                db.snapshot(),
                dynamic,
            )?),
            Query::Ucq(u) => {
                PlanKind::Conj(ConjSet::compile(&u.disjuncts, db.snapshot(), dynamic)?)
            }
            Query::Fo(f) => PlanKind::Fo(FoPlan::compile(f, db, dynamic.map(|(n, _)| n))?),
            Query::Datalog(p) => PlanKind::Dl(DlPlan::compile(p, db, dynamic.map(|(n, _)| n))?),
        };
        Ok(Executor {
            dynamic: dynamic.map(|(n, a)| DynSpec {
                name: n.to_string(),
                arity: a,
                schema: answer_schema(n, a),
            }),
            arity,
            kind,
        })
    }

    /// Answers over the base database `ctx.db`, restricted to
    /// `pre_bound` when given; conjunctive plans with `stop_on_first`
    /// return at the first witness.
    fn run(
        &self,
        ctx: EvalContext<'_>,
        pre_bound: Option<&Tuple>,
        stop_on_first: bool,
    ) -> Result<BTreeSet<Tuple>> {
        match &self.kind {
            PlanKind::Conj(set) => set.eval_impl(
                ctx,
                pre_bound,
                None,
                &mut set.probe_syms(),
                stop_on_first,
            ),
            PlanKind::Fo(fp) => fp.eval(ctx, pre_bound),
            PlanKind::Dl(dp) => {
                // A dynamic plan run without items binds nothing, like a
                // conjunctive plan's empty dynamic scan.
                let no_items = self.dynamic.as_ref().map(|spec| (spec, std::iter::empty()));
                let mut ans = dp.eval(ctx, no_items)?;
                if let Some(t) = pre_bound {
                    ans.retain(|a| a == t);
                }
                Ok(ans)
            }
        }
    }

    /// Answers with the dynamic relation bound to `items`.
    fn run_dynamic<'t>(
        &self,
        ctx: EvalContext<'_>,
        items: impl IntoIterator<Item = &'t Tuple>,
        stop_on_first: bool,
    ) -> Result<BTreeSet<Tuple>> {
        let spec = self
            .dynamic
            .as_ref()
            .ok_or_else(|| QueryError::Internal("plan compiled without a dynamic relation".into()))?;
        match &self.kind {
            PlanKind::Conj(set) => {
                let mut syms = set.probe_syms();
                let mut found = None;
                let items = items.into_iter().filter(|t| {
                    let fits = t.arity() == spec.arity;
                    if !fits {
                        found.get_or_insert(t.arity());
                    }
                    fits
                });
                let rel = intern_table(spec.arity, items, &mut syms);
                if let Some(found) = found {
                    return Err(QueryError::AtomArityMismatch {
                        relation: spec.name.clone(),
                        expected: spec.arity,
                        found,
                    });
                }
                set.eval_impl(ctx, None, Some(&rel), &mut syms, stop_on_first)
            }
            PlanKind::Fo(fp) => {
                let rel = spec.materialize(items);
                let mut dom = fp.base_dom.clone();
                for t in rel.iter() {
                    dom.extend(t.values().iter().cloned());
                }
                let domain: Vec<Value> = dom.into_iter().collect();
                let provider = OverlayProvider {
                    base: ctx.db,
                    name: &spec.name,
                    rel: &rel,
                };
                let _span = pkgrec_trace::span!("fo.eval");
                fo_eval::eval_fo_with(ctx, &provider, &fp.query, &domain, None)
            }
            PlanKind::Dl(dp) => dp.eval(ctx, Some((spec, items))),
        }
    }
}

impl CompiledPlan {
    fn build(q: &Query, db: &Arc<Database>, dynamic: Option<(&str, usize)>) -> Result<Self> {
        pkgrec_trace::counter!("query.plan_compiles");
        Ok(CompiledPlan {
            exec: Executor::build(q, db, dynamic)?,
            db: Arc::clone(db),
        })
    }

    /// Answer arity.
    pub fn arity(&self) -> usize {
        self.exec.arity
    }

    /// The database this plan was compiled against.
    pub(crate) fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// The dynamic relation's name and arity, when it has one.
    pub(crate) fn dynamic(&self) -> Option<(&str, usize)> {
        self.exec.dynamic.as_ref().map(|d| (d.name.as_str(), d.arity))
    }

    /// Enable or disable the posting-intersection fast path for
    /// fully-bound existence steps (conjunctive plans only; on by
    /// default). With it off — or whenever a budget meter is attached —
    /// every probe takes the row path, which is what benchmarks and
    /// equivalence tests compare against.
    pub fn with_bitsets(mut self, enabled: bool) -> Self {
        if let PlanKind::Conj(set) = &mut self.exec.kind {
            set.use_bitsets = enabled;
        }
        self
    }

    fn ctx<'c>(&'c self, metrics: Option<&'c MetricSet>, meter: Option<&'c Meter>) -> EvalContext<'c> {
        EvalContext {
            db: self.db.as_ref(),
            metrics,
            meter,
        }
    }

    /// Evaluate `Q(D)`: the answers, trace spans and budget charges of
    /// [`Query::eval_ctx`], without recompiling.
    pub fn eval(
        &self,
        metrics: Option<&MetricSet>,
        meter: Option<&Meter>,
    ) -> Result<BTreeSet<Tuple>> {
        pkgrec_trace::counter!("query.plan_probes");
        self.exec.run(self.ctx(metrics, meter), None, false)
    }

    /// Evaluate with the head pre-bound to `t`: the answers restricted
    /// to `{t}`.
    pub fn eval_pre_bound(
        &self,
        t: &Tuple,
        metrics: Option<&MetricSet>,
        meter: Option<&Meter>,
    ) -> Result<BTreeSet<Tuple>> {
        pkgrec_trace::counter!("query.plan_probes");
        self.exec.run(self.ctx(metrics, meter), Some(t), false)
    }

    /// The membership test `t ∈ Q(D)` — [`Query::contains_ctx`] without
    /// recompiling. Conjunctive plans stop at the first witness.
    pub fn contains(
        &self,
        t: &Tuple,
        metrics: Option<&MetricSet>,
        meter: Option<&Meter>,
    ) -> Result<bool> {
        pkgrec_trace::counter!("query.plan_probes");
        Ok(!self.exec.run(self.ctx(metrics, meter), Some(t), true)?.is_empty())
    }

    /// Evaluate with the dynamic relation bound to `items` — the
    /// zero-copy equivalent of `Query::eval_ctx` over
    /// `db.with_relation(R_Q)`.
    pub fn eval_dynamic<'t>(
        &self,
        items: impl IntoIterator<Item = &'t Tuple>,
        metrics: Option<&MetricSet>,
        meter: Option<&Meter>,
    ) -> Result<BTreeSet<Tuple>> {
        pkgrec_trace::counter!("query.plan_probes");
        self.exec.run_dynamic(self.ctx(metrics, meter), items, false)
    }

    /// Whether the dynamic-bound query has any answer; conjunctive
    /// plans stop at the first witness. This is the full check
    /// `Qc(N, D) = ∅`? for one package: its items are interned per
    /// call.
    pub fn has_answer_dynamic<'t>(
        &self,
        items: impl IntoIterator<Item = &'t Tuple>,
        metrics: Option<&MetricSet>,
        meter: Option<&Meter>,
    ) -> Result<bool> {
        pkgrec_trace::counter!("query.plan_probes");
        Ok(!self
            .exec
            .run_dynamic(self.ctx(metrics, meter), items, true)?
            .is_empty())
    }
}

impl DynSpec {
    fn materialize<'t>(&self, items: impl IntoIterator<Item = &'t Tuple>) -> Relation {
        Relation::from_tuples_unchecked(self.schema.clone(), items.into_iter().cloned())
    }
}

// ---------------------------------------------------------------------
// Conjunctive plans (CQ / UCQ / rule bodies): the u32 executor.
// ---------------------------------------------------------------------

/// A compiled union of conjunctions over one database snapshot.
struct ConjSet {
    snap: Arc<Snapshot>,
    /// Query constants absent from the snapshot, with ids above its.
    consts: ExtSyms,
    plans: Vec<ConjPlan>,
    /// Whether fully-bound existence steps may intersect postings (on
    /// unmetered probes). Benchmarks and equivalence tests clear it to
    /// exercise the row path.
    use_bitsets: bool,
}

/// Intern tuples bound for one run — IDB facts, a plan's dynamic
/// relation — through the run's interner extension.
fn intern_table<'t>(
    arity: usize,
    tuples: impl IntoIterator<Item = &'t Tuple>,
    syms: &mut ProbeSyms<'_>,
) -> Table {
    let mut cells = Vec::new();
    let mut rows = 0;
    for t in tuples {
        debug_assert_eq!(t.arity(), arity, "caller checks tuple arity");
        cells.extend(t.values().iter().map(|v| syms.intern(v)));
        rows += 1;
    }
    Table::new(arity, rows, cells)
}

/// A term with constants interned and variables densified.
#[derive(Clone, Copy)]
enum PTerm {
    Var(usize),
    Sym(u32),
}

impl PTerm {
    fn id(self, bindings: &[Option<u32>]) -> Option<u32> {
        match self {
            PTerm::Sym(id) => Some(id),
            PTerm::Var(v) => bindings[v],
        }
    }

    /// The static-planning view: the variable, or `None` for a
    /// constant (always determined).
    fn shape(self) -> Option<usize> {
        match self {
            PTerm::Var(v) => Some(v),
            PTerm::Sym(_) => None,
        }
    }
}

#[derive(Clone, Copy)]
enum Source {
    /// A snapshot relation, by its index in the snapshot.
    Base(usize),
    /// A relation a rule firing's run bound: IDB facts, a delta, or
    /// the dynamic relation.
    Local(usize),
    /// The dynamic relation of a probe.
    Dyn,
}

struct PAtom {
    src: Source,
    terms: Vec<PTerm>,
}

struct PBuiltin {
    original: Builtin,
    left: PTerm,
    right: PTerm,
}

/// The shape of an atom for static planning: one entry per position,
/// `Some(var)` for a variable, `None` for a constant.
type AtomShape = Vec<Option<usize>>;

/// The shape of a builtin's two sides, as in [`AtomShape`].
type BuiltinShape = (Option<usize>, Option<usize>);

fn shape_determined(s: &Option<usize>, bound: &[bool]) -> bool {
    match s {
        None => true,
        Some(v) => bound[*v],
    }
}

/// Greedy static atom order: repeatedly pick the atom with the most
/// already-determined positions (constants or bound variables),
/// breaking ties toward smaller relations (and, among equals, toward
/// the last such atom — `max_by_key` keeps the last maximum).
fn greedy_order(shapes: &[AtomShape], sizes: &[usize], initially_bound: &[bool]) -> Vec<usize> {
    let mut bound = initially_bound.to_vec();
    let mut remaining: Vec<usize> = (0..shapes.len()).collect();
    let mut order = Vec::with_capacity(shapes.len());
    while !remaining.is_empty() {
        let (pos, &best) = remaining
            .iter()
            .enumerate()
            .max_by_key(|(_, &i)| {
                let det = shapes[i]
                    .iter()
                    .filter(|s| shape_determined(s, &bound))
                    .count();
                (det, std::cmp::Reverse(sizes[i]))
            })
            .expect("remaining non-empty");
        order.push(best);
        remaining.remove(pos);
        for &v in shapes[best].iter().flatten() {
            bound[v] = true;
        }
    }
    order
}

/// Schedule each builtin at the earliest depth where both sides are
/// determined; depth = number of atoms already joined. `Err(i)` names
/// the first builtin that can never be scheduled (unsafe query).
fn schedule_builtins(
    shapes: &[AtomShape],
    order: &[usize],
    builtin_shapes: &[(Option<usize>, Option<usize>)],
    initially_bound: &[bool],
) -> std::result::Result<Vec<Vec<usize>>, usize> {
    let mut bound = initially_bound.to_vec();
    let mut builtin_at: Vec<Vec<usize>> = vec![Vec::new(); order.len() + 1];
    let mut scheduled = vec![false; builtin_shapes.len()];
    for (depth, at) in builtin_at.iter_mut().enumerate() {
        if depth > 0 {
            for &v in shapes[order[depth - 1]].iter().flatten() {
                bound[v] = true;
            }
        }
        for (bi, (l, r)) in builtin_shapes.iter().enumerate() {
            if !scheduled[bi] && shape_determined(l, &bound) && shape_determined(r, &bound) {
                scheduled[bi] = true;
                at.push(bi);
            }
        }
    }
    match scheduled.iter().position(|s| !s) {
        Some(i) => Err(i),
        None => Ok(builtin_at),
    }
}

/// The access path at each join depth: the probe column is the first
/// atom position holding a constant or a variable bound by the atoms
/// ordered before it (`None` = full scan), so the compiler knows which
/// column indexes to build.
fn probe_columns(shapes: &[AtomShape], order: &[usize], initially_bound: &[bool]) -> Vec<Option<usize>> {
    let mut bound = initially_bound.to_vec();
    let mut probes = Vec::with_capacity(order.len());
    for &ai in order {
        probes.push(shapes[ai].iter().position(|s| shape_determined(s, &bound)));
        for &v in shapes[ai].iter().flatten() {
            bound[v] = true;
        }
    }
    probes
}

/// Static planning for one evaluation mode: the greedy atom order, the
/// builtin schedule, and the probe column at each depth.
struct ModePlan {
    order: Vec<usize>,
    builtin_at: Vec<Vec<usize>>,
    probe: Vec<Option<usize>>,
    /// Per depth: the step is a fully-bound *existence* probe — a base
    /// atom whose every term is a constant or an already-bound
    /// variable, with no builtin scheduled after it. Such a step binds
    /// nothing; the only question is whether a matching row exists,
    /// which the fast path answers by intersecting the columns'
    /// postings instead of enumerating candidates.
    exist: Vec<bool>,
    /// The variables the steps bind, in join order, each unbound
    /// before its step (the bound set entering a depth is static):
    /// step `d` binds `bound_vars[bound_end[d - 1]..bound_end[d]]`
    /// (from 0 at `d = 0`). A candidate unbinds exactly its step's.
    bound_vars: Vec<usize>,
    bound_end: Vec<usize>,
    /// The first depth at which every head variable is bound: from
    /// there one completion settles the answer, so a run takes the
    /// first and backtracks.
    head_at: usize,
}

impl ModePlan {
    /// The variables step `depth` binds.
    fn binds(&self, depth: usize) -> &[usize] {
        let from = if depth == 0 { 0 } else { self.bound_end[depth - 1] };
        &self.bound_vars[from..self.bound_end[depth]]
    }
}

/// One compiled disjunct.
struct ConjPlan {
    head: Vec<PTerm>,
    atoms: Vec<PAtom>,
    builtins: Vec<PBuiltin>,
    nvars: usize,
    /// The static plan per [`Mode`] (indexed by `Mode as usize`); a
    /// rule firing plans only [`Mode::Eval`].
    modes: [Option<ModePlan>; 2],
}

/// What planning a disjunct needs from its surroundings: value
/// interning, and the source and row count of each atom's relation.
trait PlanEnv {
    fn intern(&mut self, v: &Value) -> u32;
    /// Resolve `atom` to its source and row count, checking its arity.
    fn resolve(&mut self, atom: &RelAtom) -> Result<(Source, usize)>;
}

fn check_arity(atom: &RelAtom, expected: usize) -> Result<()> {
    if atom.terms.len() == expected {
        Ok(())
    } else {
        Err(QueryError::AtomArityMismatch {
            relation: atom.relation.to_string(),
            expected,
            found: atom.terms.len(),
        })
    }
}

/// Plan one disjunct: intern its terms, resolve its atoms, and fix the
/// static plan of each mode in `modes`. Builds no index: postings are
/// built when a run first probes them.
fn plan_disjunct(d: &ConjunctiveQuery, env: &mut dyn PlanEnv, modes: &[Mode]) -> Result<ConjPlan> {
    d.check_safe()?;

    // Dense variable interning in traversal order (head, atoms,
    // builtins).
    let mut var_ids: HashMap<crate::term::Var, usize> = HashMap::new();
    let mut pterm = |t: &Term, env: &mut dyn PlanEnv| match t {
        Term::Var(v) => {
            let next = var_ids.len();
            PTerm::Var(*var_ids.entry(v.clone()).or_insert(next))
        }
        Term::Const(c) => PTerm::Sym(env.intern(c)),
    };
    let head: Vec<PTerm> = d.head.iter().map(|t| pterm(t, env)).collect();
    let mut sizes = Vec::with_capacity(d.atoms.len());
    let mut atoms = Vec::with_capacity(d.atoms.len());
    for a in &d.atoms {
        let terms: Vec<PTerm> = a.terms.iter().map(|t| pterm(t, env)).collect();
        let (src, rows) = env.resolve(a)?;
        sizes.push(rows);
        atoms.push(PAtom { src, terms });
    }
    let builtins: Vec<PBuiltin> = d
        .builtins
        .iter()
        .map(|b| {
            let (l, r) = match b {
                Builtin::Cmp(c) => (&c.left, &c.right),
                Builtin::DistLe { left, right, .. } => (left, right),
            };
            PBuiltin {
                original: b.clone(),
                left: pterm(l, env),
                right: pterm(r, env),
            }
        })
        .collect();
    let nvars = var_ids.len();

    let shapes: Vec<AtomShape> = atoms
        .iter()
        .map(|a| a.terms.iter().map(|t| t.shape()).collect())
        .collect();
    let builtin_shapes: Vec<BuiltinShape> = builtins
        .iter()
        .map(|b| (b.left.shape(), b.right.shape()))
        .collect();
    let mut planned = [None, None];
    for &mode in modes {
        let mut initially_bound = vec![false; nvars];
        if mode == Mode::Membership {
            for v in head.iter().filter_map(|t| t.shape()) {
                initially_bound[v] = true;
            }
        }
        let plan = plan_mode(&shapes, &builtin_shapes, &sizes, &atoms, &head, initially_bound)
            .map_err(|unscheduled| {
                let v = d.builtins[unscheduled]
                    .variables()
                    .into_iter()
                    .next()
                    .map(|v| v.to_string())
                    .unwrap_or_default();
                QueryError::UnsafeVariable(v)
            })?;
        planned[mode as usize] = Some(plan);
    }
    Ok(ConjPlan {
        head,
        atoms,
        builtins,
        nvars,
        modes: planned,
    })
}

/// Fix one static plan: the greedy order, the builtin schedule and
/// probe columns, and which steps are existence probes and what each
/// binds, and where the head is bound, given the variables bound
/// before the join. `Err(i)` names a builtin that can never be
/// scheduled (an unsafe query).
fn plan_mode(
    shapes: &[AtomShape],
    builtin_shapes: &[BuiltinShape],
    sizes: &[usize],
    atoms: &[PAtom],
    head: &[PTerm],
    initially_bound: Vec<bool>,
) -> std::result::Result<ModePlan, usize> {
    let order = greedy_order(shapes, sizes, &initially_bound);
    let builtin_at = schedule_builtins(shapes, &order, builtin_shapes, &initially_bound)?;
    let probe = probe_columns(shapes, &order, &initially_bound);
    // Classify fully-bound existence steps and collect what each step
    // binds by replaying the binding order the join will follow.
    let mut bound = initially_bound;
    let mut exist = Vec::with_capacity(order.len());
    let mut bound_vars = Vec::with_capacity(bound.len());
    let mut bound_end = Vec::with_capacity(order.len());
    let head_bound = |bound: &[bool]| head.iter().filter_map(|t| t.shape()).all(|v| bound[v]);
    let mut head_at = order.len();
    for (depth, &ai) in order.iter().enumerate() {
        if head_at == order.len() && head_bound(&bound) {
            head_at = depth;
        }
        let all_bound = shapes[ai].iter().all(|s| s.is_none_or(|v| bound[v]));
        let base = matches!(atoms[ai].src, Source::Base(_));
        exist.push(base && all_bound && builtin_at[depth + 1].is_empty());
        for &v in shapes[ai].iter().flatten() {
            if !bound[v] {
                bound[v] = true;
                bound_vars.push(v);
            }
        }
        bound_end.push(bound_vars.len());
    }
    Ok(ModePlan {
        order,
        builtin_at,
        probe,
        exist,
        bound_vars,
        bound_end,
        head_at,
    })
}

/// The planning environment of [`ConjSet::compile`]: atoms resolve to
/// snapshot relations, constants to snapshot ids or plan-owned ones.
struct CompileEnv<'a> {
    snap: &'a Snapshot,
    dynamic: Option<(&'a str, usize)>,
    consts: ExtSyms,
}

impl PlanEnv for CompileEnv<'_> {
    fn intern(&mut self, v: &Value) -> u32 {
        match self.snap.symbols().get(v) {
            Some(id) => id,
            None => self.consts.intern(v),
        }
    }

    fn resolve(&mut self, a: &RelAtom) -> Result<(Source, usize)> {
        match self.dynamic {
            // The dynamic relation shadows any same-named base
            // relation, matching `Database::set_relation`.
            Some((name, arity)) if *a.relation == *name => {
                check_arity(a, arity)?;
                Ok((Source::Dyn, 0))
            }
            _ => resolve_base(self.snap, a),
        }
    }
}

/// Resolve `a` to a snapshot relation, checking its arity.
fn resolve_base(snap: &Snapshot, a: &RelAtom) -> Result<(Source, usize)> {
    let ri = snap
        .find(&a.relation)
        .ok_or_else(|| QueryError::UnknownRelation(a.relation.to_string()))?;
    let table = &snap.tables()[ri];
    check_arity(a, table.arity())?;
    Ok((Source::Base(ri), table.rows()))
}

impl ConjSet {
    fn compile(
        disjuncts: &[ConjunctiveQuery],
        snap: &Arc<Snapshot>,
        dynamic: Option<(&str, usize)>,
    ) -> Result<ConjSet> {
        let mut env = CompileEnv {
            snap,
            dynamic,
            consts: ExtSyms::above(snap.symbols().len()),
        };
        let plans = disjuncts
            .iter()
            .map(|d| plan_disjunct(d, &mut env, &[Mode::Eval, Mode::Membership]))
            .collect::<Result<_>>()?;
        Ok(ConjSet {
            snap: Arc::clone(snap),
            consts: env.consts,
            plans,
            use_bitsets: true,
        })
    }

    /// A fresh per-probe interner over the snapshot and the plan's
    /// constants.
    fn probe_syms(&self) -> ProbeSyms<'_> {
        ProbeSyms::new(self.snap.symbols(), Some(&self.consts))
    }

    /// Evaluate all disjuncts. With `stop_on_first`, returns as soon as
    /// one answer is found (a singleton set).
    fn eval_impl(
        &self,
        ctx: EvalContext<'_>,
        pre_bound: Option<&Tuple>,
        dyn_rel: Option<&Table>,
        syms: &mut ProbeSyms<'_>,
        stop_on_first: bool,
    ) -> Result<BTreeSet<Tuple>> {
        let mode = if pre_bound.is_some() {
            Mode::Membership
        } else {
            Mode::Eval
        };
        let mut out = Answers::default();
        for plan in &self.plans {
            let _span = pkgrec_trace::span!("cq.eval");
            let run = ConjRun {
                ctx,
                rels: self.snap.tables(),
                local: &[],
                use_bitsets: self.use_bitsets,
                plan,
                mode: plan.modes[mode as usize]
                    .as_ref()
                    .ok_or_else(|| QueryError::Internal("plan mode was not compiled".into()))?,
                dyn_rel,
                stop_on_first,
            };
            if run.start(pre_bound, syms, &mut out)? && stop_on_first {
                break;
            }
        }
        Ok(out.into_set())
    }
}

// ---------------------------------------------------------------------
// Datalog rule firing: the same executor over relations compiled once
// per fixpoint.
// ---------------------------------------------------------------------

/// Check that every relation `prog`'s rule bodies read from the
/// database — all but its IDB predicates and `dynamic`, which each run
/// binds itself — exists in `snap`.
pub(crate) fn check_edb(
    prog: &DatalogProgram,
    snap: &Snapshot,
    dynamic: Option<&str>,
) -> Result<()> {
    let idb = prog.idb_predicates();
    let mut atoms = prog.rules.iter().flat_map(|r| &r.body).filter_map(|l| match l {
        BodyLiteral::Rel(a) => Some(a),
        BodyLiteral::Builtin(_) => None,
    });
    let bound_per_run = |a: &RelAtom| idb.contains(&a.relation) || dynamic == Some(&*a.relation);
    match atoms.find(|a| !bound_per_run(a) && snap.find(&a.relation).is_none()) {
        Some(a) => Err(QueryError::UnknownRelation(a.relation.to_string())),
        None => Ok(()),
    }
}

/// One fixpoint's rule executor: the snapshot's relations, plus the
/// relations each run binds — IDB facts and deltas per round, the
/// dynamic relation once — interned as a per-run extension.
pub(crate) struct RuleRunner<'e> {
    snap: &'e Snapshot,
    syms: ProbeSyms<'e>,
    local: Vec<Table>,
    local_ids: HashMap<String, usize>,
}

impl<'e> RuleRunner<'e> {
    pub(crate) fn new(snap: &'e Snapshot) -> Self {
        RuleRunner {
            snap,
            syms: ProbeSyms::new(snap.symbols(), None),
            local: Vec::new(),
            local_ids: HashMap::new(),
        }
    }

    /// Bind `name` to `tuples` (each of arity `arity`), replacing any
    /// earlier binding. Bound names shadow the snapshot.
    pub(crate) fn bind<'t>(
        &mut self,
        name: &str,
        arity: usize,
        tuples: impl IntoIterator<Item = &'t Tuple>,
    ) {
        let rel = intern_table(arity, tuples, &mut self.syms);
        match self.local_ids.get(name) {
            Some(&li) => self.local[li] = rel,
            None => {
                self.local_ids.insert(name.to_string(), self.local.len());
                self.local.push(rel);
            }
        }
    }

    /// Run one rule body (a conjunction, planned against the current
    /// bindings' sizes) and return its head tuples.
    pub(crate) fn fire(
        &mut self,
        ctx: EvalContext<'_>,
        body: &ConjunctiveQuery,
    ) -> Result<BTreeSet<Tuple>> {
        let plan = plan_disjunct(body, self, &[Mode::Eval])?;
        let run = ConjRun {
            ctx,
            rels: self.snap.tables(),
            local: &self.local,
            use_bitsets: false,
            plan: &plan,
            mode: plan.modes[Mode::Eval as usize]
                .as_ref()
                .expect("planned above"),
            dyn_rel: None,
            stop_on_first: false,
        };
        let mut out = Answers::default();
        run.start(None, &mut self.syms, &mut out)?;
        Ok(out.into_set())
    }
}

impl PlanEnv for RuleRunner<'_> {
    fn intern(&mut self, v: &Value) -> u32 {
        self.syms.intern(v)
    }

    fn resolve(&mut self, a: &RelAtom) -> Result<(Source, usize)> {
        match self.local_ids.get(&*a.relation) {
            Some(&li) => {
                check_arity(a, self.local[li].arity())?;
                Ok((Source::Local(li), self.local[li].rows()))
            }
            None => resolve_base(self.snap, a),
        }
    }
}

/// Resolve both sides of a scheduled builtin to cell ids.
fn resolved_ids(b: &PBuiltin, bindings: &[Option<u32>]) -> Result<(u32, u32)> {
    match (b.left.id(bindings), b.right.id(bindings)) {
        (Some(l), Some(r)) => Ok((l, r)),
        _ => Err(QueryError::Internal(format!(
            "builtin `{}` scheduled before its operands were bound",
            b.original
        ))),
    }
}

/// A [`ValueInterner`] whose ids start at `offset`, above another
/// interner's.
struct ExtSyms {
    offset: u32,
    syms: ValueInterner,
}

impl ExtSyms {
    fn above(offset: usize) -> Self {
        ExtSyms {
            offset: u32::try_from(offset).expect("fewer than 2^32 distinct values"),
            syms: ValueInterner::new(),
        }
    }

    /// One past the largest id handed out so far.
    fn end(&self) -> usize {
        self.offset as usize + self.syms.len()
    }

    fn get(&self, v: &Value) -> Option<u32> {
        self.syms.get(v).map(|id| self.offset + id)
    }

    fn intern(&mut self, v: &Value) -> u32 {
        let id = self.syms.intern(v);
        self.offset.checked_add(id).expect("fewer than 2^32 distinct values")
    }

    fn resolve(&self, id: u32) -> &Value {
        self.syms.resolve(id - self.offset)
    }
}

/// Per-probe interner: the snapshot's ids, then the plan's constants,
/// then values foreign to both (pre-bound tuples, dynamic package
/// items), so a foreign value can never spuriously equal a base cell.
struct ProbeSyms<'a> {
    base: &'a ValueInterner,
    consts: Option<&'a ExtSyms>,
    extra: ExtSyms,
}

impl<'a> ProbeSyms<'a> {
    fn new(base: &'a ValueInterner, consts: Option<&'a ExtSyms>) -> Self {
        let offset = consts.map_or(base.len(), ExtSyms::end);
        ProbeSyms {
            base,
            consts,
            extra: ExtSyms::above(offset),
        }
    }

    fn intern(&mut self, v: &Value) -> u32 {
        let known = self.base.get(v);
        match known.or_else(|| self.consts.and_then(|c| c.get(v))) {
            Some(id) => id,
            None => match self.extra.get(v) {
                Some(id) => id,
                None => self.extra.intern(v),
            },
        }
    }

    fn resolve(&self, id: u32) -> &Value {
        if (id as usize) < self.base.len() {
            self.base.resolve(id)
        } else if id < self.extra.offset {
            self.consts.expect("ids below the extension are the plan's").resolve(id)
        } else {
            self.extra.resolve(id)
        }
    }
}

/// Below this many buffered answers, [`Answers`] never compacts.
const ANSWERS_FLOOR: usize = 1024;

/// The answers a run emits, appended unsorted. Once the buffer doubles
/// past its length after the last compaction, it is sorted and
/// deduplicated in place, so it never holds more than twice the
/// distinct answers plus [`ANSWERS_FLOOR`]. The set is bulk-built last.
/// The compaction sort is stable: like the bulk build's own sort, it
/// merges the run the last compaction left sorted with the new tail
/// instead of sorting that run again.
#[derive(Default)]
struct Answers {
    buf: Vec<Tuple>,
    compacted: usize,
}

impl Answers {
    fn push(&mut self, t: Tuple) {
        self.buf.push(t);
        if self.buf.len() >= (2 * self.compacted).max(ANSWERS_FLOOR) {
            self.buf.sort();
            self.buf.dedup();
            self.compacted = self.buf.len();
        }
    }

    fn into_set(self) -> BTreeSet<Tuple> {
        self.buf.into_iter().collect()
    }
}

/// One depth-first join over a compiled disjunct.
struct ConjRun<'r> {
    ctx: EvalContext<'r>,
    /// The relations [`Source::Base`] atoms read: the snapshot's.
    rels: &'r [Table],
    /// The relations [`Source::Local`] atoms read.
    local: &'r [Table],
    use_bitsets: bool,
    plan: &'r ConjPlan,
    mode: &'r ModePlan,
    /// The rows [`Source::Dyn`] atoms range over; `None` matches no row.
    dyn_rel: Option<&'r Table>,
    stop_on_first: bool,
}

impl ConjRun<'_> {
    /// Bind the head to `pre_bound` (when given), check the builtins
    /// determined before any join, and run the join. Returns `true`
    /// when an answer was found and the caller asked to stop at the
    /// first one.
    fn start(
        &self,
        pre_bound: Option<&Tuple>,
        syms: &mut ProbeSyms<'_>,
        out: &mut Answers,
    ) -> Result<bool> {
        let mut bindings: Vec<Option<u32>> = vec![None; self.plan.nvars];
        if let Some(t) = pre_bound {
            if t.arity() != self.plan.head.len() {
                return Ok(false); // wrong arity can never match
            }
            for (term, val) in self.plan.head.iter().zip(t.values()) {
                let vid = syms.intern(val);
                match term {
                    PTerm::Sym(id) => {
                        if *id != vid {
                            return Ok(false);
                        }
                    }
                    PTerm::Var(v) => match bindings[*v] {
                        Some(existing) if existing != vid => return Ok(false),
                        Some(_) => {}
                        None => bindings[*v] = Some(vid),
                    },
                }
            }
        }
        if !self.builtins_hold(0, &bindings, syms)? {
            return Ok(false);
        }
        self.search(0, &mut bindings, syms, out)
    }

    /// Whether the builtins scheduled at `slot` (`builtin_at`) hold.
    fn builtins_hold(
        &self,
        slot: usize,
        bindings: &[Option<u32>],
        syms: &ProbeSyms<'_>,
    ) -> Result<bool> {
        for &bi in &self.mode.builtin_at[slot] {
            let b = &self.plan.builtins[bi];
            let (l, r) = resolved_ids(b, bindings)?;
            if !self.ctx.eval_builtin(&b.original, syms.resolve(l), syms.resolve(r))? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Returns `true` when an answer was found and the caller asked to
    /// stop at the first one.
    fn search(
        &self,
        depth: usize,
        bindings: &mut [Option<u32>],
        syms: &ProbeSyms<'_>,
        out: &mut Answers,
    ) -> Result<bool> {
        if depth == self.mode.order.len() {
            let mut values = Vec::with_capacity(self.plan.head.len());
            for t in &self.plan.head {
                let id = t
                    .id(bindings)
                    .expect("checked safe: head vars bound at emit depth");
                values.push(syms.resolve(id).clone());
            }
            out.push(Tuple::new(values));
            return Ok(self.stop_on_first);
        }
        if depth == self.mode.head_at && !self.stop_on_first {
            // The head is bound: the rest only decides whether it is an
            // answer, so stop at its first witness.
            let first = ConjRun { stop_on_first: true, ..*self };
            first.search(depth, bindings, syms, out)?;
            return Ok(false);
        }

        let ai = self.mode.order[depth];
        let atom = &self.plan.atoms[ai];
        let rel = match atom.src {
            Source::Base(ri) => &self.rels[ri],
            Source::Local(li) => &self.local[li],
            Source::Dyn => {
                // Scanned linearly: no per-run index construction.
                if let Some(rel) = self.dyn_rel {
                    for row in 0..rel.rows() as u32 {
                        if self.candidate(depth, rel.row(row), bindings, syms, out)? {
                            return Ok(true);
                        }
                    }
                }
                return Ok(false);
            }
        };
        // Fully-bound existence steps collapse to a posting
        // intersection: no bindings change, so a single recursion
        // replaces the whole candidate loop. Only on unmetered probes —
        // the row path charges one budget tick per candidate, and a
        // metered run must charge the same ticks whichever plan runs it.
        if self.mode.exist[depth] && self.use_bitsets && self.ctx.meter.is_none() {
            pkgrec_trace::counter!("query.bitset_probes");
            return if self.exist_probe(rel, atom, bindings) {
                self.search(depth + 1, bindings, syms, out)
            } else {
                Ok(false)
            };
        }
        match self.mode.probe[depth] {
            Some(col) => {
                let pid = atom.terms[col]
                    .id(bindings)
                    .expect("probe column statically determined");
                if let Some(posting) = rel.postings(col).get(pid) {
                    for &row in posting.rows {
                        if self.candidate(depth, rel.row(row), bindings, syms, out)? {
                            return Ok(true);
                        }
                    }
                }
            }
            None => {
                for row in 0..rel.rows() as u32 {
                    if self.candidate(depth, rel.row(row), bindings, syms, out)? {
                        return Ok(true);
                    }
                }
            }
        }
        Ok(false)
    }

    /// Decide a fully-bound existence step: does some row of `rel`
    /// match `atom` under `bindings`? Each term resolves to a cell id
    /// whose column posting lists the rows carrying it; the atom
    /// matches iff the postings intersect. Ids foreign to the column —
    /// including plan constants and per-probe [`ProbeSyms`] ids past
    /// the snapshot's — simply miss.
    fn exist_probe(&self, rel: &Table, atom: &PAtom, bindings: &[Option<u32>]) -> bool {
        let mut postings = Vec::with_capacity(atom.terms.len());
        for (col, term) in atom.terms.iter().enumerate() {
            let id = term
                .id(bindings)
                .expect("existence step: statically all-bound");
            match rel.postings(col).get(id) {
                Some(p) => postings.push(p),
                None => return false,
            }
        }
        rel.rows() > 0 && Posting::intersects_all(&postings)
    }

    /// Try one candidate row at `depth`: bind, check builtins, recurse,
    /// unbind, charging exactly one tick per candidate.
    fn candidate(
        &self,
        depth: usize,
        cells: &[u32],
        bindings: &mut [Option<u32>],
        syms: &ProbeSyms<'_>,
        out: &mut Answers,
    ) -> Result<bool> {
        self.ctx.tick()?;
        pkgrec_trace::counter!("cq.join_candidates");
        let result = self.bind_and_descend(depth, cells, bindings, syms, out);
        // Every variable this step may have bound was unbound on entry.
        for &v in self.mode.binds(depth) {
            bindings[v] = None;
        }
        result
    }

    /// The body of [`ConjRun::candidate`]: match `cells` against the
    /// step's atom, binding its unbound variables, check the builtins
    /// scheduled here, and recurse. Leaves the bindings for the caller
    /// to undo.
    fn bind_and_descend(
        &self,
        depth: usize,
        cells: &[u32],
        bindings: &mut [Option<u32>],
        syms: &ProbeSyms<'_>,
        out: &mut Answers,
    ) -> Result<bool> {
        let atom = &self.plan.atoms[self.mode.order[depth]];
        for (term, &cell) in atom.terms.iter().zip(cells) {
            match term {
                PTerm::Sym(id) => {
                    if *id != cell {
                        return Ok(false);
                    }
                }
                PTerm::Var(v) => match bindings[*v] {
                    Some(existing) => {
                        if existing != cell {
                            return Ok(false);
                        }
                    }
                    None => bindings[*v] = Some(cell),
                },
            }
        }
        if !self.builtins_hold(depth + 1, bindings, syms)? {
            return Ok(false);
        }
        self.search(depth + 1, bindings, syms, out)
    }
}

// ---------------------------------------------------------------------
// FO plans: cached evaluation domain + overlay provider.
// ---------------------------------------------------------------------

struct FoPlan {
    query: FoQuery,
    /// Static evaluation domain: `adom(D)` ∪ the query's constants,
    /// cached at compile time (one-shot FO evaluation recomputes it
    /// per call).
    domain: Vec<Value>,
    /// The domain contribution of everything *except* the dynamic
    /// relation (which `set_relation` semantics would replace), plus
    /// the query's constants. Dynamic probes extend this with the
    /// package items' values.
    base_dom: BTreeSet<Value>,
}

impl FoPlan {
    fn compile(q: &FoQuery, db: &Database, dynamic: Option<&str>) -> Result<FoPlan> {
        q.check_safe()?;
        let ctx = EvalContext::new(db);
        let domain = fo_eval::eval_domain(ctx, &q.body);
        let mut base_dom: BTreeSet<Value> = db
            .relations()
            .filter(|r| dynamic != Some(r.schema().name()))
            .flat_map(|r| r.iter().flat_map(|t| t.values().iter().cloned()))
            .collect();
        base_dom.extend(q.body.constants());
        Ok(FoPlan {
            query: q.clone(),
            domain,
            base_dom,
        })
    }

    fn eval(&self, ctx: EvalContext<'_>, pre_bound: Option<&Tuple>) -> Result<BTreeSet<Tuple>> {
        let _span = pkgrec_trace::span!("fo.eval");
        fo_eval::eval_fo_with(ctx, ctx.db, &self.query, &self.domain, pre_bound)
    }
}

// ---------------------------------------------------------------------
// Datalog plans: checked program + provider-threaded fixpoint.
// ---------------------------------------------------------------------

struct DlPlan {
    prog: DatalogProgram,
    /// The snapshot every probe's fixpoint reads its EDB from.
    snap: Arc<Snapshot>,
}

// ---------------------------------------------------------------------
// EXPLAIN: structured introspection of a compiled plan.
// ---------------------------------------------------------------------

/// A structured description of a [`CompiledPlan`]: what `compile`
/// decided, rendered either as JSON (for the `/explain` endpoint) or
/// human-readable text (for `pkgrec explain`). Conjunctive plans
/// expose the full static story — interned symbol count, the greedy
/// join order per mode with each atom's relation cardinality and the
/// index column it probes, and the builtin schedule; FO and Datalog
/// plans report what their plans cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanReport {
    /// Plan family: `cq`, `ucq`, `fo` or `datalog`.
    pub kind: &'static str,
    /// Answer arity.
    pub arity: usize,
    /// Distinct values a conjunctive plan can name: the snapshot's
    /// symbols plus the query constants absent from `D` (0 for
    /// FO/Datalog plans).
    pub interned_symbols: usize,
    /// Name of the dynamic (per-probe) relation, if one was left open.
    pub dynamic: Option<String>,
    /// Per-disjunct static plans (conjunctive plans only).
    pub disjuncts: Vec<DisjunctReport>,
    /// FO plans: size of the cached evaluation domain.
    pub fo_domain: Option<usize>,
    /// Datalog plans: number of rules in the checked program.
    pub datalog_rules: Option<usize>,
}

/// The static plan of one conjunctive disjunct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DisjunctReport {
    /// Number of relational atoms.
    pub atoms: usize,
    /// Number of builtin constraints.
    pub builtins: usize,
    /// Number of distinct variables.
    pub variables: usize,
    /// The two static modes: plain evaluation and membership
    /// (head pre-bound).
    pub modes: Vec<ModeReport>,
}

/// One evaluation mode's join schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModeReport {
    /// `eval` (nothing pre-bound) or `membership` (head pre-bound).
    pub mode: &'static str,
    /// Builtins checked before the first join step.
    pub pre_builtins: usize,
    /// The join steps, in execution order.
    pub steps: Vec<JoinStepReport>,
}

/// One step of a mode's greedy join order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinStepReport {
    /// The relation the atom joins against.
    pub relation: String,
    /// Snapshot cardinality (`None` for the dynamic relation, whose
    /// rows are supplied per probe).
    pub rows: Option<usize>,
    /// Access path: `index` (probe a column's postings), `scan`
    /// (full scan of a base relation) or `dynamic-scan` (linear scan
    /// of the per-probe dynamic rows).
    pub access: &'static str,
    /// The column probed when `access` is `index`.
    pub probe_column: Option<usize>,
    /// Whether this step is a fully-bound existence probe that
    /// unmetered runs answer by intersecting postings (metered runs
    /// fall back to the `access` path above).
    pub bitset: bool,
    /// Builtins scheduled immediately after this step binds its
    /// variables.
    pub builtins_after: usize,
}

impl CompiledPlan {
    /// Describe this plan's static decisions. See [`PlanReport`].
    pub fn explain(&self) -> PlanReport {
        let dynamic = self.exec.dynamic.as_ref().map(|d| d.name.clone());
        let mut report = PlanReport {
            kind: match &self.exec.kind {
                PlanKind::Conj(set) if set.plans.len() > 1 => "ucq",
                PlanKind::Conj(_) => "cq",
                PlanKind::Fo(_) => "fo",
                PlanKind::Dl(_) => "datalog",
            },
            arity: self.exec.arity,
            interned_symbols: 0,
            dynamic: dynamic.clone(),
            disjuncts: Vec::new(),
            fo_domain: None,
            datalog_rules: None,
        };
        match &self.exec.kind {
            PlanKind::Conj(set) => {
                report.interned_symbols = set.consts.end();
                for plan in &set.plans {
                    let mode_report = |name: &'static str, mode: &ModePlan| ModeReport {
                        mode: name,
                        pre_builtins: mode.builtin_at[0].len(),
                        steps: mode
                            .order
                            .iter()
                            .enumerate()
                            .map(|(depth, &ai)| {
                                let atom = &plan.atoms[ai];
                                let probe = mode.probe[depth];
                                match atom.src {
                                    Source::Base(ri) => JoinStepReport {
                                        relation: set.snap.name(ri).to_string(),
                                        rows: Some(set.snap.tables()[ri].rows()),
                                        access: if probe.is_some() { "index" } else { "scan" },
                                        probe_column: probe,
                                        bitset: mode.exist[depth],
                                        builtins_after: mode.builtin_at[depth + 1].len(),
                                    },
                                    Source::Local(_) => {
                                        unreachable!("only rule firings bind per-run relations")
                                    }
                                    Source::Dyn => JoinStepReport {
                                        relation: dynamic.clone().unwrap_or_default(),
                                        rows: None,
                                        access: "dynamic-scan",
                                        probe_column: None,
                                        bitset: false,
                                        builtins_after: mode.builtin_at[depth + 1].len(),
                                    },
                                }
                            })
                            .collect(),
                    };
                    report.disjuncts.push(DisjunctReport {
                        atoms: plan.atoms.len(),
                        builtins: plan.builtins.len(),
                        variables: plan.nvars,
                        modes: [(Mode::Eval, "eval"), (Mode::Membership, "membership")]
                            .into_iter()
                            .filter_map(|(m, name)| {
                                plan.modes[m as usize].as_ref().map(|mp| mode_report(name, mp))
                            })
                            .collect(),
                    });
                }
            }
            PlanKind::Fo(fp) => report.fo_domain = Some(fp.domain.len()),
            PlanKind::Dl(dp) => report.datalog_rules = Some(dp.prog.rules.len()),
        }
        report
    }
}

impl PlanReport {
    /// The report as one JSON object (stable field order).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        self.write_json(&mut out);
        out
    }

    /// Write the JSON rendering into `out`.
    pub fn write_json(&self, out: &mut String) {
        use pkgrec_trace::json::write_string;
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"kind\":\"{}\",\"arity\":{},\"interned_symbols\":{},\"dynamic\":",
            self.kind, self.arity, self.interned_symbols
        );
        match &self.dynamic {
            Some(name) => write_string(out, name),
            None => out.push_str("null"),
        }
        out.push_str(",\"disjuncts\":[");
        for (i, d) in self.disjuncts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"atoms\":{},\"builtins\":{},\"variables\":{},\"modes\":[",
                d.atoms, d.builtins, d.variables
            );
            for (j, m) in d.modes.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"mode\":\"{}\",\"pre_builtins\":{},\"steps\":[",
                    m.mode, m.pre_builtins
                );
                for (k, s) in m.steps.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"relation\":");
                    write_string(out, &s.relation);
                    out.push_str(",\"rows\":");
                    match s.rows {
                        Some(n) => {
                            let _ = write!(out, "{n}");
                        }
                        None => out.push_str("null"),
                    }
                    let _ = write!(out, ",\"access\":\"{}\",\"probe_column\":", s.access);
                    match s.probe_column {
                        Some(c) => {
                            let _ = write!(out, "{c}");
                        }
                        None => out.push_str("null"),
                    }
                    let _ = write!(
                        out,
                        ",\"bitset\":{},\"builtins_after\":{}}}",
                        s.bitset, s.builtins_after
                    );
                }
                out.push_str("]}");
            }
            out.push_str("]}");
        }
        out.push_str("],\"fo_domain\":");
        match self.fo_domain {
            Some(n) => {
                let _ = write!(out, "{n}");
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"datalog_rules\":");
        match self.datalog_rules {
            Some(n) => {
                let _ = write!(out, "{n}");
            }
            None => out.push_str("null"),
        }
        out.push('}');
    }

    /// A human-readable rendering (what `pkgrec explain` prints).
    pub fn render_human(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(256);
        let _ = write!(out, "plan {} (arity {}", self.kind, self.arity);
        if self.interned_symbols > 0 {
            let _ = write!(out, ", {} interned symbols", self.interned_symbols);
        }
        if let Some(name) = &self.dynamic {
            let _ = write!(out, ", dynamic relation `{name}`");
        }
        out.push_str(")\n");
        for (i, d) in self.disjuncts.iter().enumerate() {
            let _ = writeln!(
                out,
                "  disjunct {}/{}: {} atoms, {} builtins, {} variables",
                i + 1,
                self.disjuncts.len(),
                d.atoms,
                d.builtins,
                d.variables
            );
            for m in &d.modes {
                let _ = write!(out, "    {} order:", m.mode);
                if m.pre_builtins > 0 {
                    let _ = write!(out, " ({} builtins before the join)", m.pre_builtins);
                }
                out.push('\n');
                for (k, s) in m.steps.iter().enumerate() {
                    let _ = write!(out, "      {}. {}", k + 1, s.relation);
                    match s.rows {
                        Some(n) => {
                            let _ = write!(out, " [{n} rows]");
                        }
                        None => out.push_str(" [dynamic]"),
                    }
                    match (s.access, s.probe_column) {
                        ("index", Some(c)) => {
                            let _ = write!(out, " index probe on column {c}");
                        }
                        (access, _) => {
                            let _ = write!(out, " {access}");
                        }
                    }
                    if s.bitset {
                        out.push_str(" (bitset existence)");
                    }
                    if s.builtins_after > 0 {
                        let _ = write!(out, ", then {} builtins", s.builtins_after);
                    }
                    out.push('\n');
                }
            }
        }
        if let Some(n) = self.fo_domain {
            let _ = writeln!(out, "  cached evaluation domain: {n} values");
        }
        if let Some(n) = self.datalog_rules {
            let _ = writeln!(out, "  checked program: {n} rules");
        }
        out
    }
}

impl DlPlan {
    fn compile(p: &DatalogProgram, db: &Database, dynamic: Option<&str>) -> Result<DlPlan> {
        p.check()?;
        let snap = db.snapshot();
        check_edb(p, snap, dynamic)?;
        Ok(DlPlan {
            prog: p.clone(),
            snap: Arc::clone(snap),
        })
    }

    /// Run the fixpoint, with the dynamic relation bound to the given
    /// items when the plan has one.
    fn eval<'t>(
        &self,
        ctx: EvalContext<'_>,
        dynamic: Option<(&DynSpec, impl IntoIterator<Item = &'t Tuple>)>,
    ) -> Result<BTreeSet<Tuple>> {
        let _span = pkgrec_trace::span!("datalog.fixpoint");
        let mut runner = RuleRunner::new(&self.snap);
        if let Some((spec, items)) = dynamic {
            runner.bind(&spec.name, spec.arity, items);
        }
        dl_eval::fixpoint(ctx, &self.prog, runner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datalog::{BodyLiteral, Rule};
    use crate::fo::Formula;
    use crate::metric::Discrete;
    use crate::term::{var, CmpOp, RelAtom};
    use crate::UnionQuery;
    use pkgrec_data::{tuple, Database};
    use pkgrec_guard::Budget;

    fn db() -> Arc<Database> {
        let mut db = Database::new();
        let e = RelationSchema::new("e", [("s", AttrType::Int), ("d", AttrType::Int)]).unwrap();
        db.add_relation(
            Relation::from_tuples(
                e,
                [tuple![1, 2], tuple![2, 3], tuple![3, 4], tuple![1, 3]],
            )
            .unwrap(),
        )
        .unwrap();
        Arc::new(db)
    }

    fn path2() -> Query {
        Query::Cq(ConjunctiveQuery::new(
            vec![Term::v("x"), Term::v("z")],
            vec![
                RelAtom::new("e", vec![Term::v("x"), Term::v("y")]),
                RelAtom::new("e", vec![Term::v("y"), Term::v("z")]),
            ],
            vec![],
        ))
    }

    /// The FO embedding, evaluated by the active-domain engine: the
    /// reference conjunctive plans are checked against.
    fn fo_reference(q: &Query) -> Query {
        match q {
            Query::Cq(c) => Query::Fo(crate::rewrite::cq_to_fo(c)),
            Query::Ucq(u) => Query::Fo(crate::rewrite::ucq_to_fo(u)),
            other => other.clone(),
        }
    }

    /// `r(x, y)` over `rows` rows `(i % xs, i % ys)`.
    fn pairs(rows: i64, xs: i64, ys: i64) -> Arc<Database> {
        let r = RelationSchema::new("r", [("x", AttrType::Int), ("y", AttrType::Int)]).unwrap();
        let rel = Relation::from_tuples(r, (0..rows).map(|i| tuple![i % xs, i % ys])).unwrap();
        let mut db = Database::new();
        db.add_relation(rel).unwrap();
        Arc::new(db)
    }

    fn project(head: &str, body: [&str; 2]) -> ConjunctiveQuery {
        ConjunctiveQuery::new(
            vec![Term::v(head)],
            vec![RelAtom::new("r", vec![Term::v(body[0]), Term::v(body[1])])],
            vec![],
        )
    }

    #[test]
    fn answer_buffer_stays_within_twice_the_distinct_answers() {
        let mut out = Answers::default();
        let mut model = BTreeSet::new();
        for i in 0..20_000i64 {
            // Distinct answers grow slowly while duplicates pour in.
            let t = tuple![(i * 7919) % (1 + i / 4)];
            model.insert(t.clone());
            out.push(t);
            assert!(out.buf.len() <= 2 * model.len() + ANSWERS_FLOOR);
        }
        assert!(out.compacted > 0, "the buffer compacted along the way");
        assert_eq!(out.into_set(), model);
    }

    #[test]
    fn projection_duplicates_collapse_to_the_distinct_answers() {
        // 9000 emissions of `q(x) :- r(x, y)`: 7 and 3000 distinct heads.
        for xs in [7, 3000] {
            let db = pairs(9000, xs, 1700);
            let plan = Query::Cq(project("x", ["x", "y"])).compile(&db).unwrap();
            let want: BTreeSet<Tuple> = (0..xs).map(|x| tuple![x]).collect();
            assert_eq!(plan.eval(None, None).unwrap(), want);
            for x in [0, xs - 1, xs, -1] {
                let t = tuple![x];
                let member = want.contains(&t);
                assert_eq!(plan.contains(&t, None, None).unwrap(), member);
                let pre = plan.eval_pre_bound(&t, None, None).unwrap();
                assert_eq!(pre, want.iter().filter(|&a| *a == t).cloned().collect());
            }
        }
    }

    #[test]
    fn overlapping_disjuncts_union_once() {
        // Both columns project to heads: 0..3000 and 0..1700 overlap.
        let db = pairs(9000, 3000, 1700);
        let u = UnionQuery::new(vec![project("x", ["x", "y"]), project("y", ["x", "y"])]);
        let plan = Query::Ucq(u.unwrap()).compile(&db).unwrap();
        let want: BTreeSet<Tuple> = (0..3000).map(|x| tuple![x]).collect();
        assert_eq!(plan.eval(None, None).unwrap(), want);
        for t in [tuple![0], tuple![1699], tuple![2999], tuple![3000]] {
            assert_eq!(plan.contains(&t, None, None).unwrap(), want.contains(&t));
            let pre = plan.eval_pre_bound(&t, None, None).unwrap();
            assert_eq!(pre.len(), usize::from(want.contains(&t)));
        }
    }

    #[test]
    fn cq_plan_matches_fo_embedding() {
        let db = db();
        let q = path2();
        let reference = fo_reference(&q);
        let plan = q.compile(&db).unwrap();
        assert_eq!(plan.arity(), 2);
        assert_eq!(plan.eval(None, None).unwrap(), reference.eval(&db).unwrap());
        for t in [tuple![1, 3], tuple![4, 1], tuple![1, 4]] {
            let member = reference.contains(&db, &t).unwrap();
            assert_eq!(plan.contains(&t, None, None).unwrap(), member, "membership of {t}");
            assert_eq!(!plan.eval_pre_bound(&t, None, None).unwrap().is_empty(), member);
            assert_eq!(q.contains(&db, &t).unwrap(), member, "one-shot membership of {t}");
        }
        // Wrong arity never matches.
        assert!(!plan.contains(&tuple![1], None, None).unwrap());
    }

    #[test]
    fn ucq_plan_matches_fo_embedding() {
        let db = db();
        let q1 = ConjunctiveQuery::new(
            vec![Term::v("y")],
            vec![RelAtom::new("e", vec![Term::c(1), Term::v("y")])],
            vec![],
        );
        let q2 = ConjunctiveQuery::new(
            vec![Term::v("y")],
            vec![RelAtom::new("e", vec![Term::v("y"), Term::v("z")])],
            vec![Builtin::cmp(Term::v("z"), CmpOp::Geq, Term::c(4))],
        );
        let q = Query::Ucq(UnionQuery::new(vec![q1, q2]).unwrap());
        let plan = q.compile(&db).unwrap();
        let want = fo_reference(&q).eval(&db).unwrap();
        assert_eq!(plan.eval(None, None).unwrap(), want);
        assert_eq!(q.eval(&db).unwrap(), want);
    }

    #[test]
    fn fo_plan_matches_one_shot_eval() {
        let db = db();
        let q = Query::Fo(FoQuery::new(
            vec![Term::v("x"), Term::v("y")],
            Formula::and(vec![
                Formula::Atom(RelAtom::new("e", vec![Term::v("x"), Term::v("y")])),
                Formula::not(Formula::Atom(RelAtom::new(
                    "e",
                    vec![Term::v("y"), Term::v("x")],
                ))),
            ]),
        ));
        let plan = q.compile(&db).unwrap();
        assert_eq!(plan.eval(None, None).unwrap(), q.eval(&db).unwrap());
        assert!(plan.contains(&tuple![1, 2], None, None).unwrap());
    }

    #[test]
    fn datalog_plan_matches_one_shot_eval() {
        let db = db();
        let q = Query::Datalog(DatalogProgram::new(
            vec![
                Rule::new(
                    RelAtom::new("tc", vec![Term::v("x"), Term::v("y")]),
                    vec![BodyLiteral::Rel(RelAtom::new(
                        "e",
                        vec![Term::v("x"), Term::v("y")],
                    ))],
                ),
                Rule::new(
                    RelAtom::new("tc", vec![Term::v("x"), Term::v("z")]),
                    vec![
                        BodyLiteral::Rel(RelAtom::new("tc", vec![Term::v("x"), Term::v("y")])),
                        BodyLiteral::Rel(RelAtom::new("e", vec![Term::v("y"), Term::v("z")])),
                    ],
                ),
            ],
            "tc",
        ));
        let plan = q.compile(&db).unwrap();
        assert_eq!(plan.eval(None, None).unwrap(), q.eval(&db).unwrap());
        assert!(plan.contains(&tuple![1, 4], None, None).unwrap());
        assert!(!plan.contains(&tuple![4, 1], None, None).unwrap());

        // e's postings live in the database's snapshot, built by the
        // calls above, so a probe indexes only what its fixpoint binds:
        // round 1 (a size tie, so e is scanned) indexes its delta;
        // round 2 scans its smaller delta and probes e's postings.
        let _scope = pkgrec_trace::scoped();
        pkgrec_trace::reset();
        assert!(plan.contains(&tuple![1, 4], None, None).unwrap());
        let report = pkgrec_trace::take();
        assert_eq!(report.counters["datalog.fixpoint_rounds"], 2);
        assert_eq!(report.counters["query.index_builds"], 1);
    }

    /// The dynamic overlay must agree with materializing the relation
    /// via `db.with_relation(R_Q)` — for every language family, cached
    /// and one-shot.
    #[test]
    fn dynamic_overlay_matches_with_relation() {
        let db = db();
        let items = [tuple![2, 9], tuple![3, 4]];
        let rq = Relation::from_tuples_unchecked(
            answer_schema("RQ", 2),
            items.iter().cloned(),
        );
        let overlaid = db.with_relation(rq);

        // Qc joins the answer relation against the base data.
        let queries = [
            Query::Cq(ConjunctiveQuery::new(
                vec![Term::v("x"), Term::v("y")],
                vec![
                    RelAtom::new("RQ", vec![Term::v("x"), Term::v("y")]),
                    RelAtom::new("e", vec![Term::v("x"), Term::v("z")]),
                ],
                vec![],
            )),
            Query::Fo(FoQuery::new(
                vec![Term::v("x")],
                Formula::exists(
                    vec![var("y")],
                    Formula::and(vec![
                        Formula::Atom(RelAtom::new("RQ", vec![Term::v("x"), Term::v("y")])),
                        Formula::not(Formula::Atom(RelAtom::new(
                            "e",
                            vec![Term::v("x"), Term::v("y")],
                        ))),
                    ]),
                ),
            )),
            Query::Datalog(DatalogProgram::new(
                vec![Rule::new(
                    RelAtom::new("out", vec![Term::v("x")]),
                    vec![
                        BodyLiteral::Rel(RelAtom::new("RQ", vec![Term::v("x"), Term::v("y")])),
                        BodyLiteral::Rel(RelAtom::new("e", vec![Term::v("x"), Term::v("y")])),
                    ],
                )],
                "out",
            )),
        ];
        for q in queries {
            let plan = q.compile_with_dynamic(&db, "RQ", 2).unwrap();
            let compiled = plan.eval_dynamic(items.iter(), None, None).unwrap();
            let materialized = q.eval(&overlaid).unwrap();
            assert_eq!(compiled, materialized, "query {q}");
            assert_eq!(
                plan.has_answer_dynamic(items.iter(), None, None).unwrap(),
                !materialized.is_empty()
            );
            assert_eq!(
                q.has_answer_with(EvalContext::new(&db), "RQ", 2, items.iter())
                    .unwrap(),
                !materialized.is_empty()
            );
            // The empty package binds an empty dynamic relation.
            assert!(!plan.has_answer_dynamic([], None, None).unwrap());
        }
    }

    /// Regression: a relaxed query's `DistLe` constants must enter the
    /// cached FO evaluation domain, exactly as they enter the one-shot
    /// engine's per-call domain.
    #[test]
    fn relaxed_query_constants_enter_cached_domain() {
        let db = db();
        // Q(x) = dist(x, 99) ≤ 0 under the discrete metric: only x = 99
        // satisfies it, and 99 is reachable only via the query-constant
        // rule of the domain computation.
        let q = Query::Fo(FoQuery::new(
            vec![Term::v("x")],
            Formula::Builtin(Builtin::DistLe {
                metric: "d".into(),
                left: Term::v("x"),
                right: Term::c(99),
                bound: 0,
            }),
        ));
        let metrics = MetricSet::new().with("d", Discrete);
        let plan = q.compile(&db).unwrap();
        let compiled = plan.eval(Some(&metrics), None).unwrap();
        assert_eq!(compiled, [tuple![99]].into_iter().collect());
        assert_eq!(compiled, q.eval_with_metrics(&db, &metrics).unwrap());
    }

    /// A cached plan and a per-call compile charge the same ticks.
    #[test]
    fn budget_interruption_matches_one_shot() {
        let db = db();
        let q = path2();
        let plan = q.compile(&db).unwrap();
        // Find the exact tick cost, then pin budgets on both sides of it.
        let meter = Budget::with_steps(u64::MAX).meter();
        plan.eval(None, Some(&meter)).unwrap();
        let used = meter.spent();
        for budget in [used.saturating_sub(1), used] {
            let m1 = Budget::with_steps(budget).meter();
            let m2 = Budget::with_steps(budget).meter();
            let cached = plan.eval(None, Some(&m1));
            let one_shot = q.eval_budgeted(&db, &m2);
            assert_eq!(m1.spent(), m2.spent());
            match (cached, one_shot) {
                (Ok(a), Ok(b)) => assert_eq!(a, b),
                (Err(QueryError::Interrupted(_)), Err(QueryError::Interrupted(_))) => {}
                (a, b) => panic!("divergent budget outcomes: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn plan_counters_are_emitted() {
        let _scope = pkgrec_trace::scoped();
        pkgrec_trace::reset();
        let db = db();
        let q = path2();
        let plan = q.compile(&db).unwrap();
        plan.eval(None, None).unwrap();
        plan.contains(&tuple![1, 3], None, None).unwrap();
        let report = pkgrec_trace::take();
        assert_eq!(report.counters.get("query.plan_compiles").copied(), Some(1));
        assert_eq!(report.counters.get("query.plan_probes").copied(), Some(2));
        // The join probes e on each column once across the two modes.
        assert!(report.counters.get("query.index_builds").copied() >= Some(1));
    }

    /// Once the head is bound, the join stops at the first witness:
    /// `q(a) :- RQ(a), e(a, d)` binds `a` from `RQ` (the dynamic atom
    /// goes first) and then needs one row of `e` per `a`, though
    /// `a = 1` has two.
    #[test]
    fn joins_stop_at_the_first_witness_once_the_head_is_bound() {
        let q = Query::Cq(ConjunctiveQuery::new(
            vec![Term::v("a")],
            vec![
                RelAtom::new("RQ", vec![Term::v("a")]),
                RelAtom::new("e", vec![Term::v("a"), Term::v("d")]),
            ],
            vec![],
        ));
        let plan = q.compile_with_dynamic(&db(), "RQ", 1).unwrap();
        let meter = Meter::unlimited();
        let items = [tuple![1], tuple![2]];
        let answers = plan.eval_dynamic(&items, None, Some(&meter)).unwrap();
        assert_eq!(answers, BTreeSet::from([tuple![1], tuple![2]]));
        // Two `RQ` rows, then one `e` row for each.
        assert_eq!(meter.spent(), 4);
    }

    #[test]
    fn dynamic_plan_without_items_api_misuse() {
        let db = db();
        let q = path2();
        let plan = q.compile(&db).unwrap();
        assert!(matches!(
            plan.eval_dynamic([], None, None),
            Err(QueryError::Internal(_))
        ));
    }

    #[test]
    fn explain_reports_cq_join_order_and_access_paths() {
        let db = db();
        let plan = path2().compile(&db).unwrap();
        let report = plan.explain();
        assert_eq!(report.kind, "cq");
        assert_eq!(report.arity, 2);
        assert_eq!(report.dynamic, None);
        assert_eq!(report.fo_domain, None);
        assert_eq!(report.datalog_rules, None);
        assert_eq!(report.disjuncts.len(), 1);
        let d = &report.disjuncts[0];
        assert_eq!((d.atoms, d.builtins, d.variables), (2, 0, 3));
        assert_eq!(d.modes.len(), 2);
        assert_eq!(d.modes[0].mode, "eval");
        assert_eq!(d.modes[1].mode, "membership");
        for m in &d.modes {
            assert_eq!(m.steps.len(), 2);
            for s in &m.steps {
                assert_eq!(s.relation, "e");
                assert_eq!(s.rows, Some(4));
            }
        }
        // Plain eval: the first atom has nothing bound (full scan), the
        // second joins on the shared variable through an index.
        let eval = &d.modes[0];
        assert_eq!(eval.steps[0].access, "scan");
        assert_eq!(eval.steps[0].probe_column, None);
        assert_eq!(eval.steps[1].access, "index");
        assert!(eval.steps[1].probe_column.is_some());
        // Membership: the head is pre-bound, so every step can probe.
        let member = &d.modes[1];
        assert!(member.steps.iter().all(|s| s.access == "index"));
        // Neither eval step is fully bound when reached; the second
        // membership step is (x, z pre-bound, y bound by the first),
        // so it alone is a bitset existence probe.
        assert!(eval.steps.iter().all(|s| !s.bitset));
        assert!(!member.steps[0].bitset);
        assert!(member.steps[1].bitset);
    }

    #[test]
    fn bitset_existence_probes_match_the_row_path() {
        let _scope = pkgrec_trace::scoped();
        pkgrec_trace::reset();
        let db = db();
        let q = path2();
        let fast = q.compile(&db).unwrap();
        let slow = q.compile(&db).unwrap().with_bitsets(false);
        for t in [tuple![1, 3], tuple![1, 4], tuple![4, 1], tuple![2, 4]] {
            assert_eq!(
                fast.contains(&t, None, None).unwrap(),
                slow.contains(&t, None, None).unwrap(),
                "membership of {t}"
            );
            assert_eq!(
                fast.eval_pre_bound(&t, None, None).unwrap(),
                slow.eval_pre_bound(&t, None, None).unwrap()
            );
        }
        let report = pkgrec_trace::take();
        // The fast plan took the bitset path; a meter forces even the
        // fast plan back onto the (tick-charging) row path.
        assert!(report.counters.get("query.bitset_probes").copied() >= Some(1));
        pkgrec_trace::reset();
        let meter = Budget::with_steps(1_000_000).meter();
        assert!(fast.contains(&tuple![1, 3], None, Some(&meter)).unwrap());
        let metered = pkgrec_trace::take();
        assert_eq!(metered.counters.get("query.bitset_probes"), None);
    }

    #[test]
    fn explain_reports_fo_datalog_and_dynamic_plans() {
        let db = db();

        let fo = Query::Fo(FoQuery::new(
            vec![Term::v("x")],
            Formula::Atom(RelAtom::new("e", vec![Term::v("x"), Term::v("y")])),
        ));
        let report = fo.compile(&db).unwrap().explain();
        assert_eq!(report.kind, "fo");
        assert_eq!(report.interned_symbols, 0);
        assert!(report.disjuncts.is_empty());
        // Domain of e: the distinct values 1..=4.
        assert_eq!(report.fo_domain, Some(4));

        let dl = Query::Datalog(DatalogProgram::new(
            vec![Rule::new(
                RelAtom::new("p", vec![Term::v("x")]),
                vec![BodyLiteral::Rel(RelAtom::new(
                    "e",
                    vec![Term::v("x"), Term::v("y")],
                ))],
            )],
            "p",
        ));
        let report = dl.compile(&db).unwrap().explain();
        assert_eq!(report.kind, "datalog");
        assert_eq!(report.datalog_rules, Some(1));

        // A dynamic atom shows up as a per-probe scan with unknown rows.
        let q = Query::Cq(ConjunctiveQuery::new(
            vec![Term::v("x")],
            vec![
                RelAtom::new("e", vec![Term::v("x"), Term::v("y")]),
                RelAtom::new("picked", vec![Term::v("x")]),
            ],
            vec![],
        ));
        let plan = q.compile_with_dynamic(&db, "picked", 1).unwrap();
        let report = plan.explain();
        assert_eq!(report.dynamic.as_deref(), Some("picked"));
        let dyn_steps: Vec<_> = report.disjuncts[0]
            .modes
            .iter()
            .flat_map(|m| &m.steps)
            .filter(|s| s.relation == "picked")
            .collect();
        assert!(!dyn_steps.is_empty());
        for s in dyn_steps {
            assert_eq!(s.access, "dynamic-scan");
            assert_eq!(s.rows, None);
            assert_eq!(s.probe_column, None);
        }
    }

    #[test]
    fn explain_json_is_valid_and_human_text_is_stable() {
        let db = db();
        let q = Query::Cq(ConjunctiveQuery::new(
            vec![Term::v("x")],
            vec![RelAtom::new("e", vec![Term::v("x"), Term::v("y")])],
            vec![Builtin::cmp(Term::v("y"), CmpOp::Geq, Term::c(3))],
        ));
        let report = q.compile(&db).unwrap().explain();
        let json = report.to_json();
        let parsed = pkgrec_trace::json::parse(&json).expect("explain JSON parses");
        assert_eq!(parsed.get("kind").and_then(|v| v.as_str()), Some("cq"));
        assert_eq!(parsed.get("arity").and_then(|v| v.as_u64()), Some(1));
        let disjuncts = parsed.get("disjuncts").and_then(|v| v.as_array()).unwrap();
        assert_eq!(disjuncts.len(), 1);
        let human = report.render_human();
        assert!(human.starts_with("plan cq (arity 1"), "{human}");
        assert!(human.contains("eval order"), "{human}");
        assert!(human.contains("membership order"), "{human}");
        assert!(human.contains("[4 rows]"), "{human}");
    }
}
