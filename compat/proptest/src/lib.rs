//! Offline stand-in for the `proptest` crate.
//!
//! Supports the subset of the proptest API used by this workspace's
//! property tests:
//!
//! * the [`proptest!`] macro with `name in strategy` and `name: Type`
//!   parameter forms,
//! * range strategies (`0u16..1024`, `0u8..=255`, `-1e3f64..1e3`),
//!   tuples of strategies, [`any`], and [`collection::vec`],
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assert_ne!`] and
//!   [`prop_assume!`].
//!
//! Differences from real proptest: no shrinking (a failing case prints
//! its inputs via the assertion message and the case seed), and the
//! case count defaults to 64 (override with the `PROPTEST_CASES`
//! environment variable). Each test's RNG is seeded from the test name
//! so runs are deterministic.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

pub use rand::rngs::StdRng as TestRng;
use rand::{Rng as _, SeedableRng as _};

/// Why a test case did not complete.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; draw new ones.
    Reject,
    /// The property failed with a message.
    Fail(String),
}

impl TestCaseError {
    /// A failed test case, as `TestCaseError::fail("reason")` upstream.
    #[must_use]
    pub fn fail(reason: impl Into<String>) -> Self {
        Self::Fail(reason.into())
    }
}

/// Number of cases each property runs (`PROPTEST_CASES`, default 64).
#[must_use]
pub fn cases() -> usize {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// Deterministic per-test RNG, seeded from the test's name.
#[must_use]
pub fn rng_for(test_name: &str) -> TestRng {
    // FNV-1a over the name: stable across runs and platforms.
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for byte in test_name.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    TestRng::seed_from_u64(hash)
}

/// A source of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case, reason = "the type parameters double as the binding names")]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);

/// String strategy from a regex-like pattern, as in real proptest
/// (`name in "[a-z]{0,16}"`). Supports the subset used in this
/// workspace: literal characters, character classes with ranges
/// (`[a-zA-Z0-9 _-]`), and `{n}` / `{n,m}` quantifiers.
impl Strategy for &str {
    type Value = String;
    fn sample(&self, rng: &mut TestRng) -> String {
        sample_pattern(self, rng)
    }
}

fn sample_pattern(pattern: &str, rng: &mut TestRng) -> String {
    let mut out = String::new();
    let mut chars = pattern.chars().peekable();
    while let Some(c) = chars.next() {
        // One atom: a character class or a literal character.
        let alternatives: Vec<char> = if c == '[' {
            let mut class = Vec::new();
            let mut prev: Option<char> = None;
            loop {
                match chars.next() {
                    Some(']') => break,
                    Some('-') if prev.is_some() && chars.peek().is_some_and(|&n| n != ']') => {
                        let lo = prev.take().expect("range start");
                        let hi = chars.next().expect("range end");
                        class.extend((lo..=hi).filter(|ch| ch.is_ascii()));
                    }
                    Some(ch) => {
                        if let Some(p) = prev.replace(ch) {
                            class.push(p);
                        }
                    }
                    None => panic!("unterminated character class in pattern {pattern:?}"),
                }
            }
            class.extend(prev);
            class
        } else {
            vec![c]
        };
        // Optional {n} / {n,m} quantifier; both bounds inclusive, as
        // in regex semantics.
        let (min, max) = if chars.peek() == Some(&'{') {
            chars.next();
            let spec: String = chars.by_ref().take_while(|&ch| ch != '}').collect();
            match spec.split_once(',') {
                Some((lo, hi)) => (
                    lo.trim().parse().expect("quantifier min"),
                    hi.trim().parse().expect("quantifier max"),
                ),
                None => {
                    let n: usize = spec.trim().parse().expect("quantifier count");
                    (n, n)
                }
            }
        } else {
            (1, 1)
        };
        let count = rng.gen_range(min..=max);
        for _ in 0..count {
            let idx = rng.gen_range(0..alternatives.len());
            out.push(alternatives[idx]);
        }
    }
    out
}

/// Types with a canonical whole-domain strategy (see [`any`]).
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_std {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.gen()
            }
        }
    )*};
}

impl_arbitrary_std!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool, f32, f64);

/// Strategy over a type's whole domain. Construct with [`any`].
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

/// The whole-domain strategy for `T` (`any::<u8>()` etc.).
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};
    use rand::Rng as _;
    use std::ops::{Range, RangeInclusive};

    /// Length bounds for [`vec`], as in `proptest::collection::SizeRange`
    /// (so `2..200`, `0..=8` and bare `5` all work as the size argument).
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        /// Inclusive lower bound.
        pub min: usize,
        /// Exclusive upper bound.
        pub end: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            Self {
                min: r.start,
                end: r.end,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            Self {
                min: *r.start(),
                end: r.end() + 1,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(len: usize) -> Self {
            Self {
                min: len,
                end: len + 1,
            }
        }
    }

    /// Strategy for `Vec<T>` with length drawn from `size` and
    /// elements from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `proptest::collection::vec(element, size)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let len = rng.gen_range(self.size.min..self.size.end);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude`.
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Arbitrary,
        Strategy, TestCaseError,
    };
}

/// Defines property tests. See the crate docs for the supported forms.
#[macro_export]
macro_rules! proptest {
    () => {};
    ($(#[$meta:meta])* fn $name:ident($($params:tt)*) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let mut rng = $crate::rng_for(concat!(module_path!(), "::", stringify!($name)));
            let mut completed = 0usize;
            let mut rejected = 0usize;
            while completed < $crate::cases() {
                // An immediately-called closure so `prop_assume!` can
                // early-return out of the case body via `?`-style flow.
                #[allow(
                    clippy::redundant_closure_call,
                    reason = "the closure gives the case body an early return"
                )]
                let outcome: ::core::result::Result<(), $crate::TestCaseError> = (|| {
                    $crate::__proptest_bind!(rng; $($params)*);
                    $body
                    #[allow(
                        unreachable_code,
                        reason = "a body that always returns early leaves this unreached"
                    )]
                    Ok(())
                })();
                match outcome {
                    Ok(()) => completed += 1,
                    Err($crate::TestCaseError::Reject) => {
                        rejected += 1;
                        assert!(
                            rejected < 10_000,
                            "prop_assume! rejected 10000 candidate inputs"
                        );
                    }
                    Err($crate::TestCaseError::Fail(reason)) => {
                        panic!("property failed: {reason}");
                    }
                }
            }
        }
        $crate::proptest! { $($rest)* }
    };
}

/// Internal: binds one `proptest!` parameter list entry at a time.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident;) => {};
    ($rng:ident; $name:ident in $strategy:expr) => {
        let $name = $crate::Strategy::sample(&($strategy), &mut $rng);
    };
    ($rng:ident; $name:ident in $strategy:expr, $($rest:tt)*) => {
        let $name = $crate::Strategy::sample(&($strategy), &mut $rng);
        $crate::__proptest_bind!($rng; $($rest)*);
    };
    ($rng:ident; $name:ident : $ty:ty) => {
        let $name = <$ty as $crate::Arbitrary>::arbitrary(&mut $rng);
    };
    ($rng:ident; $name:ident : $ty:ty, $($rest:tt)*) => {
        let $name = <$ty as $crate::Arbitrary>::arbitrary(&mut $rng);
        $crate::__proptest_bind!($rng; $($rest)*);
    };
}

/// `assert!` inside a property (no shrinking; panics with the message).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// `assert_eq!` inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// `assert_ne!` inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Rejects the current inputs and redraws (bounded at 10 000 rejects).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 0u16..1024, f in -2.0f64..2.0, b: bool) {
            prop_assert!(x < 1024);
            prop_assert!((-2.0..2.0).contains(&f));
            let _ = b;
        }

        #[test]
        fn assume_filters(x in 0u32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }

        #[test]
        fn vec_strategy_sizes(v in crate::collection::vec(any::<u8>(), 3..7)) {
            prop_assert!((3..7).contains(&v.len()));
        }

        #[test]
        fn tuple_strategies(pair in (0u8..=6, 0u16..1024)) {
            prop_assert!(pair.0 <= 6 && pair.1 < 1024);
        }

        #[test]
        fn pattern_strategy(s in "[a-c]{2,5}", t in "x[0-9]") {
            prop_assert!((2..=5).contains(&s.len()));
            prop_assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
            prop_assert_eq!(t.len(), 2);
            prop_assert!(t.starts_with('x') && t.ends_with(|c: char| c.is_ascii_digit()));
        }
    }

    #[test]
    fn deterministic_rng_per_name() {
        use rand::RngCore as _;
        let mut a = crate::rng_for("x");
        let mut b = crate::rng_for("x");
        let mut c = crate::rng_for("y");
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(b.next_u64(), c.next_u64());
    }
}
