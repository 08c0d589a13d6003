//! Property-based tests for the PRAM primitives: every parallel primitive
//! must agree with its obvious sequential specification, for any input.

use pram::primitives::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn map_is_elementwise(v in prop::collection::vec(0i64..1000, 0..5000)) {
        let out = par_map(&v, |&x| x * x - 1);
        prop_assert_eq!(out.len(), v.len());
        for (i, &x) in v.iter().enumerate() {
            prop_assert_eq!(out[i], x * x - 1);
        }
    }
}
