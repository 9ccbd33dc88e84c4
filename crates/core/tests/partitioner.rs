//! The offline partitioner behind the SketchRefine engine is
//! deterministic: building the index twice over the same items yields
//! the identical tree. The engine's answers are checked against the
//! oracle in the root `tests/oracle_matrix.rs`.

use proptest::prelude::*;

use pkgrec_data::{tuple, PartitionIndex, PartitionParams, Tuple};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

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
