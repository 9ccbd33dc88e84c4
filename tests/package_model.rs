//! `Package` against a `BTreeSet<Tuple>` model: random insert/remove
//! sequences — out of order and with duplicates, not only the search's
//! push-past-the-end pattern — must leave the sorted-vector package and
//! the set reading back identically through every accessor, comparison
//! and rendering.

use std::collections::BTreeSet;

use proptest::prelude::*;

use pkgrec::core::Package;
use pkgrec::data::{Tuple, Value};

#[derive(Debug, Clone)]
enum Op {
    Insert(Tuple),
    Remove(Tuple),
}

/// Tuples over a small mixed domain, so sequences repeat items and
/// compare across arities and value types.
fn tuple_strategy() -> impl Strategy<Value = Tuple> {
    (0i64..6, 0usize..3).prop_map(|(n, shape)| match shape {
        0 => Tuple::new(vec![Value::Int(n)]),
        1 => Tuple::new(vec![Value::Int(n), Value::str(format!("s{}", n % 3))]),
        _ => Tuple::new(vec![Value::Bool(n % 2 == 0), Value::Int(n)]),
    })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        tuple_strategy().prop_map(Op::Insert),
        tuple_strategy().prop_map(Op::Insert),
        tuple_strategy().prop_map(Op::Remove),
    ]
}

/// Apply `ops` to a fresh package and model, checking each step's
/// return value.
fn build(ops: &[Op]) -> Result<(Package, BTreeSet<Tuple>), TestCaseError> {
    let mut pkg = Package::empty();
    let mut model = BTreeSet::new();
    for op in ops {
        match op {
            Op::Insert(t) => prop_assert_eq!(pkg.insert(t.clone()), model.insert(t.clone())),
            Op::Remove(t) => prop_assert_eq!(pkg.remove(t), model.remove(t)),
        }
    }
    Ok((pkg, model))
}

/// The package reads back as the model through every accessor.
fn agree(pkg: &Package, model: &BTreeSet<Tuple>) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        pkg.iter().collect::<Vec<_>>(),
        model.iter().collect::<Vec<_>>()
    );
    prop_assert_eq!(pkg.to_vec(), model.iter().cloned().collect::<Vec<_>>());
    prop_assert_eq!(pkg.len(), model.len());
    prop_assert_eq!(pkg.is_empty(), model.is_empty());
    for n in 0..6 {
        let t = Tuple::new(vec![Value::Int(n)]);
        prop_assert_eq!(pkg.contains(&t), model.contains(&t));
    }
    let shown: Vec<String> = model.iter().map(ToString::to_string).collect();
    prop_assert_eq!(pkg.to_string(), format!("{{{}}}", shown.join(", ")));
    prop_assert_eq!(
        format!("{pkg:?}"),
        format!("Package {{ items: {model:?} }}")
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn package_ops_match_btreeset_model(
        ops_a in prop::collection::vec(op_strategy(), 0..40),
        ops_b in prop::collection::vec(op_strategy(), 0..40),
    ) {
        let (a, ma) = build(&ops_a)?;
        let (b, mb) = build(&ops_b)?;
        agree(&a, &ma)?;
        agree(&b, &mb)?;
        prop_assert_eq!(a.cmp(&b), ma.cmp(&mb));
        prop_assert_eq!(a == b, ma == mb);
        prop_assert_eq!(a.is_subset(&b), ma.is_subset(&mb));
        prop_assert_eq!(b.is_subset(&a), mb.is_subset(&ma));

        // Construction from an unsorted list with duplicates.
        let raw: Vec<Tuple> = ops_a
            .iter()
            .map(|op| match op {
                Op::Insert(t) | Op::Remove(t) => t.clone(),
            })
            .collect();
        let built = Package::new(raw.iter().cloned());
        let model: BTreeSet<Tuple> = raw.into_iter().collect();
        agree(&built, &model)?;
        prop_assert_eq!(built.iter().cloned().collect::<Package>(), built);
    }
}
