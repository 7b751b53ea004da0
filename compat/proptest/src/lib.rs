//! Offline drop-in subset of the `proptest` crate: deterministic
//! pseudo-random case generation without shrinking.
//!
//! Each `proptest!` test runs `ProptestConfig::cases` iterations. Case
//! seeds are derived from the test's name, so streams are stable across
//! runs and independent between tests. Failures report the case number
//! so a failing input can be regenerated deterministically.

pub mod strategy;

pub mod test_runner {
    /// Runner configuration; only `cases` is honoured.
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` iterations.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 256 }
        }
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Number-of-elements specification: a fixed size or a half-open range.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            Self {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    /// Strategy producing `Vec`s of values drawn from an element strategy.
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `Vec` strategy with the given element strategy and size spec.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = if self.size.lo + 1 >= self.size.hi {
                self.size.lo
            } else {
                rng.gen_range(self.size.lo..self.size.hi)
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Boolean strategies (`proptest::bool::ANY`).
pub mod bool {
    use crate::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Strategy producing uniformly random booleans.
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    /// A fair coin flip.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;

        fn generate(&self, rng: &mut StdRng) -> bool {
            rng.gen()
        }
    }
}

/// Everything a property test module usually imports.
pub mod prelude {
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};
}

/// FNV-1a over the test name: a stable per-test base seed.
#[doc(hidden)]
pub fn __seed_for(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Defines property tests. Matches the upstream surface used here:
/// an optional `#![proptest_config(..)]`, then `fn name(pat in strategy, ..)`
/// items that expand to functions looping over generated cases. As
/// upstream, the items carry their own `#[test]` attribute; the macro adds
/// none, so each property is registered exactly once.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            use ::rand::SeedableRng as _;
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            let __strats = ($($strat,)+);
            let __base = $crate::__seed_for(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__config.cases {
                let mut __rng = ::rand::rngs::StdRng::seed_from_u64(
                    __base ^ (__case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                );
                let ($($arg,)+) =
                    $crate::strategy::Strategy::generate(&__strats, &mut __rng);
                let __outcome: ::std::result::Result<(), ::std::string::String> =
                    (move || {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(__msg) = __outcome {
                    panic!("property {} failed at case {}: {}",
                        stringify!($name), __case, __msg);
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// Asserts a condition inside a `proptest!` body, failing the case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err(
                ::std::format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// Asserts equality inside a `proptest!` body, failing the case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let __l = $left;
        let __r = $right;
        if !(__l == __r) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), __l, __r));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let __l = $left;
        let __r = $right;
        if !(__l == __r) {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    }};
}

/// Skips the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Ok(());
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_vecs_respect_bounds(
            x in 1usize..20,
            f in -2.0f32..2.0,
            v in crate::collection::vec(0.0f64..1.0, 3..7),
            b in crate::bool::ANY,
        ) {
            prop_assert!((1..20).contains(&x));
            prop_assert!((-2.0..2.0).contains(&f));
            prop_assert!((3..7).contains(&v.len()));
            prop_assert!(v.iter().all(|y| (0.0..1.0).contains(y)));
            let _ = b;
        }

        #[test]
        fn prop_map_and_tuples_compose(
            (flag, n) in (crate::bool::ANY, 2usize..6),
            doubled in (1usize..10).prop_map(|x| x * 2),
        ) {
            prop_assert!(doubled % 2 == 0);
            prop_assume!(n > 2 || flag);
            prop_assert_eq!(n.min(6), n);
        }
    }

    #[test]
    fn seeds_differ_per_name() {
        assert_ne!(crate::__seed_for("a::t1"), crate::__seed_for("a::t2"));
    }
}
