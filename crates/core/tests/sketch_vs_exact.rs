//! Property tests for the SketchRefine engine against the exact
//! solvers on small random FRP/MBP instances.
//!
//! The approximate contract has two halves, and both are checked on
//! every generated instance:
//!
//! * **soundness** — every package the sketch engine returns satisfies
//!   all constraints of the *full* instance (re-checked through
//!   `SearchContext::is_valid_package`, not trusted from the engine),
//!   and the outcome is always labeled `exact: false` with
//!   `Method::Sketch`;
//! * **bounded quality** — the sketch answer can never beat the
//!   certified optimum: the top rating is at most the exact top rating
//!   and the MBP bound is at most the exact maximum bound.
//!
//! A third property pins the offline partitioner: building the index
//! twice over the same items yields the identical tree.

use proptest::prelude::*;

use pkgrec_core::{
    problems::frp, problems::mbp, Method, PackageFn, RecInstance, SketchParams, SolveOptions,
};
use pkgrec_data::{tuple, AttrType, Database, PartitionIndex, PartitionParams, Relation,
    RelationSchema, Tuple};
use pkgrec_query::{ConjunctiveQuery, Query};

/// A random instance: `n` items `(id, price, score)` with small
/// positive columns, cost = total price against a random budget,
/// val = total score, and a random `k`.
#[derive(Debug, Clone)]
struct SmallInstance {
    rows: Vec<(i64, i64)>,
    budget: i64,
    k: usize,
    count_val: bool,
}

fn small_instance() -> impl Strategy<Value = SmallInstance> {
    (
        prop::collection::vec((1i64..10, 1i64..10), 4..11),
        5i64..41,
        1usize..4,
        any::<bool>(),
    )
        .prop_map(|(rows, budget, k, count_val)| SmallInstance {
            rows,
            budget,
            k,
            count_val,
        })
}

impl SmallInstance {
    fn build(&self) -> RecInstance {
        let schema = RelationSchema::new(
            "item",
            [
                ("id", AttrType::Int),
                ("price", AttrType::Int),
                ("score", AttrType::Int),
            ],
        )
        .expect("valid schema");
        let rel = Relation::from_tuples(
            schema,
            self.rows
                .iter()
                .enumerate()
                .map(|(i, &(price, score))| tuple![i as i64, price, score]),
        )
        .expect("schema-conformant");
        let mut db = Database::new();
        db.add_relation(rel).expect("fresh db");
        let val = if self.count_val {
            PackageFn::count()
        } else {
            PackageFn::sum_col(2, true)
        };
        RecInstance::new(db, Query::Cq(ConjunctiveQuery::identity("item", 3)))
            .with_budget(self.budget as f64)
            .with_cost(PackageFn::sum_col(1, true))
            .with_val(val)
            .with_k(self.k)
    }
}

/// Tiny fanout/leaf caps so even 4-11 item pools exercise the
/// partition tree rather than the direct small-pool path.
fn approx_opts() -> SolveOptions {
    SolveOptions::unbounded().with_approx(SketchParams {
        fanout: 3,
        leaf_cap: 3,
        ..SketchParams::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sketch_packages_satisfy_constraints_and_never_beat_exact(si in small_instance()) {
        let inst = si.build();
        let sketch = frp::top_k(&inst, &approx_opts()).expect("sketch solve");
        prop_assert!(!sketch.exact, "the sketch engine must never claim exactness");
        prop_assert_eq!(sketch.method, Method::Sketch);

        // Soundness: every returned package re-verifies on the full
        // instance, whatever the engine did internally.
        if let Some(sel) = &sketch.value {
            let ctx = inst.search_context().expect("instance prepares");
            for pkg in sel {
                prop_assert!(
                    ctx.is_valid_package(pkg, None).expect("validity probes run"),
                    "sketch returned an invalid package {} on {:?}", pkg, si
                );
            }
            // Sorted by descending rating, as the exact engine's is.
            for w in sel.windows(2) {
                prop_assert!(inst.val.eval(&w[0]) >= inst.val.eval(&w[1]));
            }
        }

        // Bounded quality: the certified optimum is an upper bound.
        let exact = frp::top_k(&inst, &SolveOptions::unbounded()).expect("exact solve");
        prop_assert!(exact.exact, "unbounded exact solve must certify");
        if let (Some(ssel), Some(esel)) = (&sketch.value, &exact.value) {
            if let (Some(sp), Some(ep)) = (ssel.first(), esel.first()) {
                prop_assert!(
                    inst.val.eval(sp) <= inst.val.eval(ep),
                    "sketch top {} beat certified optimum {} on {:?}", sp, ep, si
                );
            }
        }
    }

    #[test]
    fn sketch_mbp_is_a_lower_bound_on_the_exact_maximum(si in small_instance()) {
        let inst = si.build();
        let sketch = mbp::maximum_bound(&inst, &approx_opts()).expect("sketch solve");
        prop_assert!(!sketch.exact);
        prop_assert_eq!(sketch.method, Method::Sketch);
        let exact = mbp::maximum_bound(&inst, &SolveOptions::unbounded()).expect("exact solve");
        prop_assert!(exact.exact);
        if let (Some(sb), Some(eb)) = (sketch.value, exact.value) {
            prop_assert!(sb <= eb, "sketch bound {sb} above exact maximum {eb} on {si:?}");
        }
    }

    #[test]
    fn pruning_never_changes_the_returned_package_set(si in small_instance()) {
        // The aggregate-bound prune must be invisible in the result:
        // with caps generous enough that no refinement or step limit
        // ever binds, the prune-on run returns exactly the package set
        // of the prune-off run — skipped partitions are those whose
        // expansion could only have ended in `no_gain` rounds.
        let inst = si.build();
        let on = frp::top_k(&inst, &approx_opts()).expect("prune-on solve");
        let off = frp::top_k(
            &inst,
            &SolveOptions::unbounded().with_approx(SketchParams {
                fanout: 3,
                leaf_cap: 3,
                prune: false,
                ..SketchParams::default()
            }),
        )
        .expect("prune-off solve");
        prop_assert_eq!(&on.value, &off.value, "pruning changed the answer on {:?}", si);
    }

    #[test]
    fn partitioner_is_deterministic(rows in prop::collection::vec((0i64..50, 0i64..50), 0..40)) {
        let items: Vec<Tuple> = rows
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| tuple![i as i64, a, b])
            .collect();
        let params = PartitionParams {
            fanout: 3,
            leaf_cap: 3,
            columns: vec![1, 2],
            ..PartitionParams::default()
        };
        let once = PartitionIndex::build(&items, &params);
        let again = PartitionIndex::build(&items, &params);
        prop_assert_eq!(once, again);
    }
}
