//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access, so the workspace vendors a
//! minimal, API-compatible subset of proptest: the [`Strategy`](strategy::Strategy) trait with
//! `prop_map`/`prop_recursive`/`boxed`, strategies for ranges, tuples,
//! string patterns, `Just`, `any`, `collection::vec`, `option::of`, the
//! `prop_oneof!`/`proptest!`/`prop_assert!`/`prop_assert_eq!` macros, and a
//! deterministic [`test_runner::TestRng`]. No shrinking: a failing case
//! panics with the generated inputs in the assertion message.

pub mod strategy;
pub mod test_runner;

/// String-pattern generation (subset of regex syntax).
pub mod string_pattern;

/// `proptest::collection` — collection strategies.
pub mod collection {
    use crate::strategy::{BoxedStrategy, Strategy};
    use std::ops::Range;

    /// Strategy for `Vec`s with a length drawn from `len` and elements drawn
    /// from `element`.
    pub fn vec<S>(element: S, len: Range<usize>) -> BoxedStrategy<Vec<S::Value>>
    where
        S: Strategy + 'static,
        S::Value: 'static,
    {
        BoxedStrategy::from_fn(move |rng| {
            let span = (len.end - len.start).max(1) as u64;
            let n = len.start + (rng.next_u64() % span) as usize;
            (0..n).map(|_| element.generate(rng)).collect()
        })
    }
}

/// `proptest::option` — strategies for `Option`.
pub mod option {
    use crate::strategy::{BoxedStrategy, Strategy};

    /// Strategy producing `Some` three times out of four.
    pub fn of<S>(inner: S) -> BoxedStrategy<Option<S::Value>>
    where
        S: Strategy + 'static,
        S::Value: 'static,
    {
        BoxedStrategy::from_fn(move |rng| {
            if rng.next_u64() % 4 == 0 {
                None
            } else {
                Some(inner.generate(rng))
            }
        })
    }
}

/// Everything a test file needs, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// `prop_assert!` — assertion inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// `prop_assert_eq!` — equality assertion inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// `prop_oneof!` — uniform choice between strategies of a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// `proptest!` — declares property test functions whose arguments are drawn
/// from strategies for a configurable number of cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ cfg = ($crate::test_runner::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = ($cfg:expr); $(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            let mut __rng = $crate::test_runner::TestRng::for_test(stringify!($name));
            $(let $arg = $crate::strategy::Strategy::boxed($strat);)*
            for __case in 0..__config.cases {
                let _ = __case;
                $(let $arg = $crate::strategy::Strategy::generate(&$arg, &mut __rng);)*
                // The closure gives property bodies a `?`-capturing scope
                // (real proptest bodies return Result<(), TestCaseError>).
                #[allow(clippy::redundant_closure_call)]
                let __outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(e) = __outcome {
                    panic!("property {} failed: {e}", stringify!($name));
                }
            }
        }
        $crate::__proptest_impl!{ cfg = ($cfg); $($rest)* }
    };
    (cfg = ($cfg:expr);) => {};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u32..17, y in -50i64..50) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-50..50).contains(&y));
        }

        #[test]
        fn vec_lengths_respect_range(v in crate::collection::vec(0u32..10, 2..5)) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
            prop_assert!(v.iter().all(|&x| x < 10));
        }

        #[test]
        fn string_patterns_match_class(s in "[a-c]{2,4}") {
            prop_assert!(s.len() >= 2 && s.len() <= 4);
            prop_assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
        }

        #[test]
        fn oneof_and_map(v in prop_oneof![Just(1u8), Just(2u8)].prop_map(|x| x * 10)) {
            prop_assert!(v == 10 || v == 20);
        }

        #[test]
        fn option_of_produces_both(o in crate::option::of(Just(7u8))) {
            prop_assert!(o.is_none() || o == Some(7));
        }
    }

    #[test]
    fn recursive_strategies_terminate() {
        use crate::strategy::Strategy;
        #[derive(Debug, Clone)]
        enum Tree {
            Leaf(#[allow(dead_code)] u8),
            Node(Box<Tree>, Box<Tree>),
        }
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(_) => 1,
                Tree::Node(l, r) => 1 + depth(l).max(depth(r)),
            }
        }
        let strat = (0u8..10)
            .prop_map(Tree::Leaf)
            .prop_recursive(3, 16, 2, |inner| {
                (inner.clone(), inner).prop_map(|(l, r)| Tree::Node(Box::new(l), Box::new(r)))
            });
        let mut rng = crate::test_runner::TestRng::for_test("recursive");
        for _ in 0..100 {
            let t = strat.generate(&mut rng);
            assert!(depth(&t) <= 16);
        }
    }
}
