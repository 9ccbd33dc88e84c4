use std::fmt;
use std::sync::Arc;

use pkgrec_data::Database;
use pkgrec_query::{EvalContext, MetricSet, Query};

use crate::package::Package;
use crate::{CoreError, Result};

/// The default name under which a package is exposed to compatibility
/// constraints: the answer schema `R_Q` of Section 2.
pub const ANSWER_RELATION: &str = "RQ";

/// A PTIME compatibility predicate over `(N, D)`.
pub type PTimePredicate = Arc<dyn Fn(&Package, &Database) -> bool + Send + Sync>;

/// A compatibility constraint on packages (Section 2).
///
/// * [`Constraint::Empty`] — the "absent `Qc`" case: every package is
///   compatible (the paper's *empty query*).
/// * [`Constraint::Query`] — a query `Qc` such that `N` satisfies the
///   constraint iff `Qc(N, D) = ∅`; the package is bound to the
///   relation named [`ANSWER_RELATION`] (the answer schema `R_Q`), and
///   `Qc` may also read the rest of `D` (course prerequisites, etc.).
/// * [`Constraint::PTime`] — an arbitrary PTIME predicate, the setting
///   of Corollary 6.3.
#[derive(Clone)]
pub enum Constraint {
    /// No constraint (the empty query).
    Empty,
    /// A query constraint `Qc(N, D) = ∅`.
    Query(Query),
    /// A PTIME predicate `f(N, D)`; `true` means compatible.
    PTime {
        /// Human-readable description.
        description: Arc<str>,
        /// The predicate.
        f: PTimePredicate,
        /// Whether satisfaction is declared *anti-monotone* under item
        /// addition (see [`Constraint::is_antimonotone`]). Declared by
        /// the caller via [`Constraint::ptime_antimonotone`]; the
        /// engine prunes on it, so a false declaration is unsound.
        antimonotone: bool,
    },
}

impl Constraint {
    /// Build a PTIME constraint (no monotonicity declared — the engine
    /// will re-check it on every package).
    pub fn ptime(
        description: impl AsRef<str>,
        f: impl Fn(&Package, &Database) -> bool + Send + Sync + 'static,
    ) -> Constraint {
        Constraint::PTime {
            description: Arc::from(description.as_ref()),
            f: Arc::new(f),
            antimonotone: false,
        }
    }

    /// Build a PTIME constraint whose satisfaction the caller
    /// guarantees to be anti-monotone: once a package violates it,
    /// every superset does too. The search engine uses this to prune
    /// whole subtrees (`enumerate.pruned.compat`); declaring it for a
    /// predicate that is not anti-monotone silently drops packages.
    pub fn ptime_antimonotone(
        description: impl AsRef<str>,
        f: impl Fn(&Package, &Database) -> bool + Send + Sync + 'static,
    ) -> Constraint {
        Constraint::PTime {
            description: Arc::from(description.as_ref()),
            f: Arc::new(f),
            antimonotone: true,
        }
    }

    /// Whether this is the absent-`Qc` case.
    pub fn is_empty(&self) -> bool {
        matches!(self, Constraint::Empty)
    }

    /// Whether satisfaction is *anti-monotone* under item addition: if
    /// `Qc` rejects `N`, it rejects every `N' ⊇ N`. When true, the
    /// search soundly skips the supersets of an incompatible package.
    ///
    /// * CQ / UCQ constraints are positive queries, so `Qc(N, D)` only
    ///   grows as `N` (and with it the `R_Q` relation) grows — a
    ///   nonempty answer stays nonempty. Always anti-monotone.
    /// * FO / Datalog constraints may use negation; conservatively not
    ///   anti-monotone.
    /// * PTIME constraints are anti-monotone only when declared so via
    ///   [`Constraint::ptime_antimonotone`].
    /// * The empty constraint rejects nothing, so the question never
    ///   arises.
    pub fn is_antimonotone(&self) -> bool {
        match self {
            Constraint::Empty => false,
            Constraint::Query(Query::Cq(_) | Query::Ucq(_)) => true,
            Constraint::Query(_) => false,
            Constraint::PTime { antimonotone, .. } => *antimonotone,
        }
    }

    /// Evaluate the constraint: is the package compatible?
    ///
    /// `answer_arity` is the arity of `Q`'s answer schema (needed to
    /// materialize the `R_Q` relation even for the empty package).
    pub fn satisfied(
        &self,
        pkg: &Package,
        db: &Database,
        answer_arity: usize,
        metrics: Option<&MetricSet>,
    ) -> Result<bool> {
        match self {
            Constraint::Empty => Ok(true),
            Constraint::Query(qc) => {
                for t in pkg.iter() {
                    if t.arity() != answer_arity {
                        return Err(CoreError::Invalid(format!(
                            "package item arity {} does not match answer arity {answer_arity}",
                            t.arity()
                        )));
                    }
                }
                // `R_Q` binds as an overlay on `D` (no database clone),
                // through the same dynamic relation compiled `Qc` plans
                // use.
                let ctx = match metrics {
                    Some(m) => EvalContext::with_metrics(db, m),
                    None => EvalContext::new(db),
                };
                Ok(!qc.has_answer_with(ctx, ANSWER_RELATION, answer_arity, pkg.iter())?)
            }
            Constraint::PTime { f, .. } => Ok(f(pkg, db)),
        }
    }
}

impl fmt::Debug for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constraint::Empty => write!(f, "Constraint::Empty"),
            Constraint::Query(q) => write!(f, "Constraint::Query({q})"),
            Constraint::PTime { description, .. } => {
                write!(f, "Constraint::PTime({description})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkgrec_data::{tuple, AttrType, Relation, RelationSchema};
    use pkgrec_query::{Builtin, CmpOp, ConjunctiveQuery, RelAtom, Term};

    fn db() -> Database {
        let mut db = Database::new();
        let banned = RelationSchema::new("banned", [("v", AttrType::Int)]).unwrap();
        db.add_relation(Relation::from_tuples(banned, [tuple![3]]).unwrap())
            .unwrap();
        db
    }

    #[test]
    fn empty_constraint_accepts_everything() {
        let c = Constraint::Empty;
        assert!(c
            .satisfied(&Package::new([tuple![1]]), &db(), 1, None)
            .unwrap());
        assert!(c.is_empty());
    }

    #[test]
    fn query_constraint_detects_conflicts_within_package() {
        // Qc() :- RQ(x), RQ(y), x != y  — "no two distinct items".
        let qc = Query::Cq(ConjunctiveQuery::new(
            Vec::<Term>::new(),
            vec![
                RelAtom::new(ANSWER_RELATION, vec![Term::v("x")]),
                RelAtom::new(ANSWER_RELATION, vec![Term::v("y")]),
            ],
            vec![Builtin::cmp(Term::v("x"), CmpOp::Neq, Term::v("y"))],
        ));
        let c = Constraint::Query(qc);
        let db = db();
        assert!(c.satisfied(&Package::new([tuple![1]]), &db, 1, None).unwrap());
        assert!(!c
            .satisfied(&Package::new([tuple![1], tuple![2]]), &db, 1, None)
            .unwrap());
        // Empty package is trivially compatible.
        assert!(c.satisfied(&Package::empty(), &db, 1, None).unwrap());
    }

    #[test]
    fn query_constraint_reads_database_too() {
        // Qc() :- RQ(x), banned(x) — package items must avoid `banned`.
        let qc = Query::Cq(ConjunctiveQuery::new(
            Vec::<Term>::new(),
            vec![
                RelAtom::new(ANSWER_RELATION, vec![Term::v("x")]),
                RelAtom::new("banned", vec![Term::v("x")]),
            ],
            vec![],
        ));
        let c = Constraint::Query(qc);
        let db = db();
        assert!(c.satisfied(&Package::new([tuple![1]]), &db, 1, None).unwrap());
        assert!(!c.satisfied(&Package::new([tuple![3]]), &db, 1, None).unwrap());
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        let qc = Query::Cq(ConjunctiveQuery::new(
            Vec::<Term>::new(),
            vec![RelAtom::new(ANSWER_RELATION, vec![Term::v("x")])],
            vec![],
        ));
        let c = Constraint::Query(qc);
        let r = c.satisfied(&Package::new([tuple![1, 2]]), &db(), 1, None);
        assert!(matches!(r, Err(CoreError::Invalid(_))));
    }

    #[test]
    fn antimonotonicity_is_classified_per_constraint_kind() {
        let cq = Query::Cq(ConjunctiveQuery::new(
            Vec::<Term>::new(),
            vec![RelAtom::new(ANSWER_RELATION, vec![Term::v("x")])],
            vec![],
        ));
        assert!(Constraint::Query(cq).is_antimonotone());
        assert!(!Constraint::Empty.is_antimonotone());
        assert!(!Constraint::ptime("opaque", |_, _| true).is_antimonotone());
        assert!(Constraint::ptime_antimonotone("size cap", |p, _| p.len() <= 2).is_antimonotone());
    }

    #[test]
    fn ptime_constraint() {
        let c = Constraint::ptime("at most 2 items", |p, _| p.len() <= 2);
        let db = db();
        assert!(c
            .satisfied(&Package::new([tuple![1], tuple![2]]), &db, 1, None)
            .unwrap());
        assert!(!c
            .satisfied(
                &Package::new([tuple![1], tuple![2], tuple![3]]),
                &db,
                1,
                None
            )
            .unwrap());
    }
}
