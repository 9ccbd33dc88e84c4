//! A CQ/UCQ compatibility constraint compiled to a conflict hypergraph
//! over a fixed item pool (DESIGN.md §11). A CQ disjunct with `m` atoms
//! over the dynamic relation `RQ` has an answer over a package `N` iff
//! `N` contains the at most `m` pool rows of one valuation, so with the
//! minimal such row sets as edges, `Qc(N, D) = ∅` iff `N` contains no
//! edge. That needs `Qc` monotone in `RQ` with bounded witnesses: CQ
//! and UCQ, not FO or recursive Datalog. The witness query can have up
//! to `|pool|^m` answers, so the build is capped.

use pkgrec_data::{Tuple, Value};
use pkgrec_guard::Budget;

use crate::metric::MetricSet;
use crate::{CompiledPlan, ConjunctiveQuery, Query, RelAtom, Term, UnionQuery};

/// The most `RQ` atoms one disjunct may have.
const MAX_RQ_ATOMS: usize = 4;
/// The join candidates the witness evaluation may try.
const BUILD_STEPS: u64 = 1 << 18;
/// The largest pairwise conflict matrix, in 64-bit words (512 KiB).
const MAX_PAIR_WORDS: usize = 1 << 16;
/// The head value of a padded position: no row.
const NO_ROW: i64 = -1;

/// The minimal witnesses of a CQ/UCQ `Qc` over a pool, by pool row.
/// Read-only after the build, so every search worker shares one.
#[derive(Debug)]
pub struct ConflictHypergraph {
    /// A size-0 edge: `Qc` has an answer over every package.
    reject_all: bool,
    /// Size-1 edges, one bit per pool row.
    banned: Vec<u64>,
    /// 64-bit words per row of `pairs`.
    words: usize,
    /// Size-2 edges: row `a`'s conflict set is `pairs[a * words..][..words]`.
    /// Empty when there is none.
    pairs: Vec<u64>,
    /// Edges of size 3 and up, each listed under its largest row
    /// without that row. Empty when there is none.
    wide: Vec<Vec<Box<[u32]>>>,
    /// Edges by size: 0, 1, 2, and 3 and up.
    counts: [usize; 4],
}

fn bit(words: &[u64], row: u32) -> bool {
    words[row as usize / 64] >> (row % 64) & 1 == 1
}

fn set_bit(words: &mut [u64], row: u32) {
    words[row as usize / 64] |= 1 << (row % 64);
}

impl Query {
    /// This CQ/UCQ `Qc`'s conflict hypergraph over `items`, the rows of
    /// the dynamic relation of `plan` (this query compiled by
    /// [`Query::compile_with_dynamic`]), by their index in `items`.
    /// `None` for FO and Datalog; also over the build's cap and when a
    /// probe fails, counted as `query.hypergraph_fallbacks` (a
    /// per-package probe of `Qc` then reports any genuine error). With
    /// at most one `RQ` atom per disjunct, `plan` probes `∅` and each
    /// row alone; otherwise one witness query is compiled and run once.
    pub fn conflict_hypergraph(
        &self,
        plan: &CompiledPlan,
        items: &[Tuple],
        metrics: Option<&MetricSet>,
    ) -> Option<ConflictHypergraph> {
        let disjuncts = match self {
            Query::Cq(c) => std::slice::from_ref(c),
            Query::Ucq(u) => &u.disjuncts[..],
            Query::Fo(_) | Query::Datalog(_) => return None,
        };
        let fallback = || {
            pkgrec_trace::counter!("query.hypergraph_fallbacks");
            None
        };
        let (name, _) = plan.dynamic()?;
        let width = disjuncts
            .iter()
            .map(|d| d.atoms.iter().filter(|a| *a.relation == *name).count());
        let edges = match width.max().unwrap_or(0) {
            0 | 1 => row_edges(plan, items, metrics),
            width @ 2..=MAX_RQ_ATOMS => witness_edges(disjuncts, plan, width, items, metrics),
            _ => None,
        };
        let Some(mut edges) = edges else {
            return fallback();
        };
        // Smallest first, so that every proper subset of an edge comes
        // before it.
        edges.sort_unstable_by(|a, b| (a.len(), a).cmp(&(b.len(), b)));
        edges.dedup();
        let Some(graph) = ConflictHypergraph::minimal(items.len(), &edges) else {
            return fallback();
        };
        let sizes = [
            "query.hypergraph_edges.size0",
            "query.hypergraph_edges.size1",
            "query.hypergraph_edges.size2",
            "query.hypergraph_edges.size3plus",
        ];
        for (name, &count) in sizes.into_iter().zip(&graph.counts).filter(|(_, &n)| n > 0) {
            pkgrec_trace::add_counter(name, count as u64);
        }
        Some(graph)
    }
}

/// The edges of a `Qc` with at most one `RQ` atom per disjunct: `∅`
/// when `plan` has an answer with no row, else each row it has an
/// answer over alone.
fn row_edges(
    plan: &CompiledPlan,
    items: &[Tuple],
    metrics: Option<&MetricSet>,
) -> Option<Vec<Vec<u32>>> {
    if plan.has_answer_dynamic(std::iter::empty(), metrics, None).ok()? {
        return Some(vec![Vec::new()]);
    }
    let mut edges = Vec::new();
    for (row, t) in (0..).zip(items) {
        if plan.has_answer_dynamic([t], metrics, None).ok()? {
            edges.push(vec![row]);
        }
    }
    Some(edges)
}

/// The row sets of the witness query's answers, each sorted: every
/// `RQ` atom of `disjuncts` gains a leading row column bound to a fresh
/// variable, the head becomes those variables (padded with [`NO_ROW`]
/// to `width`), and the rewrite runs once over `items` with their row
/// ids prepended, within [`BUILD_STEPS`] join candidates.
fn witness_edges(
    disjuncts: &[ConjunctiveQuery],
    plan: &CompiledPlan,
    width: usize,
    items: &[Tuple],
    metrics: Option<&MetricSet>,
) -> Option<Vec<Vec<u32>>> {
    let (name, arity) = plan.dynamic()?;
    let witness = disjuncts.iter().map(|d| {
        let mut head = Vec::with_capacity(width);
        let atoms: Vec<RelAtom> = d
            .atoms
            .iter()
            .map(|a| match *a.relation == *name {
                false => a.clone(),
                true => {
                    let row = Term::v(format!("#row{}", head.len()));
                    head.push(row.clone());
                    let terms: Vec<Term> = std::iter::once(row).chain(a.terms.clone()).collect();
                    RelAtom::new(name, terms)
                }
            })
            .collect();
        head.resize(width, Term::c(NO_ROW));
        ConjunctiveQuery::new(head, atoms, d.builtins.clone())
    });
    let witness = UnionQuery::new(witness.collect::<Vec<_>>()).ok()?;
    let witness = Query::Ucq(witness).compile_with_dynamic(plan.db(), name, arity + 1).ok()?;
    let rows: Vec<Tuple> = (0i64..)
        .zip(items)
        .map(|(i, t)| {
            std::iter::once(Value::Int(i))
                .chain(t.values().iter().cloned())
                .collect()
        })
        .collect();
    let meter = Budget::with_steps(BUILD_STEPS).unobserved_meter();
    let answers = witness.eval_dynamic(&rows, metrics, Some(&meter)).ok()?;
    let row = |v: &Value| v.as_int()?.try_into().ok();
    let edges = answers.iter().map(|t| {
        let mut e: Vec<u32> = t.values().iter().filter_map(row).collect();
        e.sort_unstable();
        e.dedup();
        e
    });
    Some(edges.collect())
}

impl ConflictHypergraph {
    /// The hypergraph of the minimal sets among `edges`, sorted so that
    /// every proper subset of an edge comes before it. `None` when the
    /// pairwise matrix would exceed [`MAX_PAIR_WORDS`].
    fn minimal(rows: usize, edges: &[Vec<u32>]) -> Option<ConflictHypergraph> {
        let words = rows.div_ceil(64);
        let mut graph = ConflictHypergraph {
            reject_all: false,
            banned: vec![0; words],
            words,
            pairs: Vec::new(),
            wide: Vec::new(),
            counts: [0; 4],
        };
        for e in edges {
            // An edge that contains a kept one is not minimal.
            if graph.hits(e) {
                continue;
            }
            match e[..] {
                [] => graph.reject_all = true,
                [a] => set_bit(&mut graph.banned, a),
                [a, b] => {
                    if graph.pairs.is_empty() {
                        if rows * words > MAX_PAIR_WORDS {
                            return None;
                        }
                        graph.pairs = vec![0; rows * words];
                    }
                    set_bit(&mut graph.pairs[a as usize * words..], b);
                    set_bit(&mut graph.pairs[b as usize * words..], a);
                }
                [ref rest @ .., top] => {
                    if graph.wide.is_empty() {
                        graph.wide = vec![Vec::new(); rows];
                    }
                    graph.wide[top as usize].push(rest.into());
                }
            }
            graph.counts[e.len().min(3)] += 1;
        }
        Some(graph)
    }

    /// Whether the package of pool rows `rows` (distinct, any order)
    /// contains an edge, that is, whether `Qc` has an answer over it.
    pub fn hits(&self, rows: &[u32]) -> bool {
        self.reject_all
            || rows.iter().enumerate().any(|(j, &b)| {
                bit(&self.banned, b)
                    || (!self.pairs.is_empty()
                        && rows[..j]
                            .iter()
                            .any(|&a| bit(&self.pairs[b as usize * self.words..], a)))
                    || self.wide.get(b as usize).is_some_and(|edges| {
                        edges.iter().any(|e| e.iter().all(|r| rows.contains(r)))
                    })
            })
    }

    /// The number of edges of size 0, 1, 2, and 3 and up.
    pub fn edge_counts(&self) -> [usize; 4] {
        self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use pkgrec_data::{tuple, AttrType, Database, Relation, RelationSchema};
    use std::sync::Arc;

    fn db() -> Arc<Database> {
        let mut db = Database::new();
        let r = RelationSchema::new("r", [("a", AttrType::Int)]).unwrap();
        db.add_relation(Relation::from_tuples(r, [tuple![0]]).unwrap())
            .unwrap();
        Arc::new(db)
    }

    /// The two caps a query within the `RQ`-atom limit can still hit:
    /// the witness evaluation's step meter, and the pair matrix of a
    /// large pool. Both fall back, counted once each.
    #[test]
    fn builds_over_the_step_or_matrix_cap_fall_back() {
        let _scope = pkgrec_trace::scoped();
        pkgrec_trace::reset();
        let db = db();
        // Over 24^4 join candidates > BUILD_STEPS.
        let any4 = parse_query("q() :- RQ(a, b), RQ(c, d), RQ(e, f), RQ(g, h).").unwrap();
        let plan = any4.compile_with_dynamic(&db, "RQ", 2).unwrap();
        let items: Vec<Tuple> = (0..24).map(|i| tuple![i, i]).collect();
        assert!(any4.conflict_hypergraph(&plan, &items, None).is_none());
        // One pair edge over 2,100 rows: 2,100 × 33 words > MAX_PAIR_WORDS.
        let pair = parse_query("q() :- RQ(0, x), RQ(1, x).").unwrap();
        let plan = pair.compile_with_dynamic(&db, "RQ", 2).unwrap();
        let items: Vec<Tuple> = (0..2_100).map(|i| tuple![i, 5]).collect();
        assert!(pair.conflict_hypergraph(&plan, &items, None).is_none());
        let graph = pair.conflict_hypergraph(&plan, &items[..64], None).unwrap();
        assert_eq!(graph.edge_counts(), [0, 0, 1, 0]);
        assert!(graph.hits(&[1, 7, 0]) && !graph.hits(&[0, 2]));
        let report = pkgrec_trace::take();
        assert_eq!(report.counters["query.hypergraph_fallbacks"], 2);
        assert_eq!(report.counters["query.hypergraph_edges.size2"], 1);
    }
}
