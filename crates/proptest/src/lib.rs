//! Vendored std-only stand-in for the `proptest` crate.
//!
//! The build environment has no network access (DESIGN.md §6: no external
//! dependencies), so the subset of the proptest API this workspace's
//! property tests use is reimplemented here: the [`Strategy`](strategy::Strategy) trait with
//! `prop_map`/`prop_flat_map`, range and tuple strategies, [`Just`](strategy::Just),
//! `any::<T>()`, weighted `prop_oneof!`, `proptest::collection::vec`, and
//! the `proptest!`/`prop_assert*`/`prop_assume!` macros.
//!
//! Differences from the real crate, deliberate for this repo:
//!
//! * **No shrinking.** A failing case reports the generated inputs via the
//!   assertion message; with deterministic seeds the case is re-runnable.
//! * **Deterministic seeds.** Each test derives its RNG seed from the test
//!   function's name (FNV-1a), so every run of the suite explores the same
//!   cases — the same byte-reproducibility discipline `simkit` promises for
//!   experiments. Set `PROPTEST_SEED=<u64>` to explore a different stream.

#![forbid(unsafe_code)]

use std::fmt;

pub mod strategy;

pub mod collection {
    //! Strategies for collections.

    use crate::strategy::Strategy;
    use crate::TestRng;
    use std::ops::Range;

    /// Strategy for `Vec<T>` with a length drawn from `len` and elements
    /// drawn from `element`.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// `proptest::collection::vec(element, len_range)`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start).max(1) as u64;
            let n = self.len.start + (rng.next_u64() % span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Deterministic RNG driving all strategies (splitmix64).
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed from a test name (FNV-1a over the name, mixed with the optional
    /// `PROPTEST_SEED` environment override).
    pub fn for_test(name: &str) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        if let Ok(s) = std::env::var("PROPTEST_SEED") {
            if let Ok(extra) = s.trim().parse::<u64>() {
                h ^= extra.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            }
        }
        TestRng { state: h }
    }

    /// Next raw 64-bit value (splitmix64 step).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Why a test-case body did not complete successfully.
pub enum TestCaseError {
    /// `prop_assume!` failed: the case does not count, try another.
    Reject,
    /// `prop_assert*` failed with this message.
    Fail(String),
}

impl TestCaseError {
    /// Construct a failure.
    pub fn fail(msg: String) -> TestCaseError {
        TestCaseError::Fail(msg)
    }
}

impl fmt::Debug for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Reject => write!(f, "Reject"),
            TestCaseError::Fail(m) => write!(f, "Fail({m})"),
        }
    }
}

/// Per-block configuration (`#![proptest_config(...)]`).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of successful cases required.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` successful cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 256 }
    }
}

/// Values generatable "from anywhere" (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// Produce one value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            #[allow(clippy::cast_possible_truncation)]
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy producing arbitrary values of `T`.
pub struct Any<T>(std::marker::PhantomData<T>);

/// `any::<T>()` — strategy over the whole of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> strategy::Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `prop_assume!(cond)` — reject the case (without failing) if `cond` is
/// false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// `prop_assert!(cond, ...)` — fail the case if `cond` is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// `prop_assert_eq!(left, right, ...)` — fail the case if `left != right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` != `{:?}`",
                l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` != `{:?}`: {}",
                l, r, format!($($fmt)+)
            )));
        }
    }};
}

/// `prop_oneof![...]` — union of strategies, optionally weighted
/// (`weight => strategy`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::weighted(vec![
            $( (($weight) as u32, $crate::strategy::boxed($strat)) ),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::weighted(vec![
            $( (1u32, $crate::strategy::boxed($strat)) ),+
        ])
    };
}

/// The `proptest! { ... }` block: one or more `fn name(pat in strategy, ...)`
/// test functions, optionally preceded by `#![proptest_config(...)]`.
///
/// Each function runs `config.cases` generated cases; `prop_assume!`
/// rejections do not count toward the total (bounded at 20× the case count
/// to guarantee termination).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@blk ($cfg) $($rest)*);
    };
    (@blk ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:pat_param in $strat:expr),+ $(,)? ) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::for_test(stringify!($name));
                let mut done: u32 = 0;
                let mut attempts: u32 = 0;
                let max_attempts = config.cases.saturating_mul(20).max(20);
                while done < config.cases {
                    attempts += 1;
                    assert!(
                        attempts <= max_attempts,
                        "proptest: too many rejected cases in {} ({} rejects for {} cases)",
                        stringify!($name), attempts - done, done,
                    );
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                    let outcome = (|| -> ::core::result::Result<(), $crate::TestCaseError> {
                        $body
                        ::core::result::Result::Ok(())
                    })();
                    match outcome {
                        ::core::result::Result::Ok(()) => done += 1,
                        ::core::result::Result::Err($crate::TestCaseError::Reject) => {}
                        ::core::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                            panic!("proptest case {} failed after {} cases: {}",
                                stringify!($name), done, msg);
                        }
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@blk ($crate::ProptestConfig::default()) $($rest)*);
    };
}

pub mod prelude {
    //! One-stop import for property tests.

    pub use crate::strategy::{Just, Strategy};
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
    pub use crate::{Arbitrary, ProptestConfig, TestCaseError, TestRng};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic_per_name() {
        let a: Vec<u64> = {
            let mut r = crate::TestRng::for_test("alpha");
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = crate::TestRng::for_test("alpha");
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut other = crate::TestRng::for_test("beta");
        assert_ne!(a[0], other.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::TestRng::for_test("ranges");
        for _ in 0..1000 {
            let v = (3u64..17).generate(&mut rng);
            assert!((3..17).contains(&v));
            let w = (0u8..=255).generate(&mut rng);
            let _ = w; // full range: any value valid
            let s = (-50i32..50).generate(&mut rng);
            assert!((-50..50).contains(&s));
        }
    }

    #[test]
    fn vec_strategy_respects_length() {
        let mut rng = crate::TestRng::for_test("vecs");
        for _ in 0..200 {
            let v = crate::collection::vec(0u32..10, 2..5).generate(&mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|x| *x < 10));
        }
    }

    #[test]
    fn oneof_weights_cover_all_arms() {
        let mut rng = crate::TestRng::for_test("oneof");
        let strat = prop_oneof![2 => Just(1u8), 1 => Just(2u8), 1 => Just(3u8)];
        let mut seen = [0u32; 4];
        for _ in 0..400 {
            seen[strat.generate(&mut rng) as usize] += 1;
        }
        assert!(seen[1] > 0 && seen[2] > 0 && seen[3] > 0);
        assert!(seen[1] > seen[2], "weight 2 arm should dominate weight 1");
    }

    #[test]
    fn flat_map_threads_dependent_values() {
        let mut rng = crate::TestRng::for_test("flatmap");
        let strat = (1u32..10).prop_flat_map(|y| (0..=y).prop_map(move |x| (x, y)));
        for _ in 0..500 {
            let (x, y) = strat.generate(&mut rng);
            assert!(x <= y && (1..10).contains(&y));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_end_to_end(v in crate::collection::vec(0u64..100, 1..5), flag in any::<bool>()) {
            prop_assume!(!v.is_empty());
            let total: u64 = v.iter().sum();
            prop_assert!(total < 500, "sum {total} out of range");
            if flag {
                prop_assert_eq!(v.len() as u64, v.iter().map(|_| 1).sum::<u64>());
            }
        }
    }
}
