//! The [`Strategy`] trait and combinators.

use crate::TestRng;
use std::ops::{Range, RangeInclusive};

/// A recipe for generating values of `Self::Value`.
///
/// Object-safe core (`generate`) plus sized combinators, mirroring the real
/// proptest's `Strategy`/`ValueTree` split collapsed into one generation
/// step (no shrinking).
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Produce one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Build a dependent strategy from each generated value.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }

    /// Keep only values satisfying `pred` (bounded retries; falls back to
    /// the last generated value if the predicate never holds).
    fn prop_filter<F>(self, reason: &'static str, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            pred,
            reason,
        }
    }
}

/// Always produces a clone of the given value.
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;

    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    pred: F,
    reason: &'static str,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.generate(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!("prop_filter: predicate never satisfied: {}", self.reason);
    }
}

/// Box a strategy for storage in heterogeneous unions ([`prop_oneof!`](crate::prop_oneof)).
pub fn boxed<S>(s: S) -> Box<dyn Strategy<Value = S::Value>>
where
    S: Strategy + 'static,
{
    Box::new(s)
}

impl<T> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

/// Weighted union of strategies over the same value type (`prop_oneof!`).
pub struct Union<T> {
    arms: Vec<(u32, Box<dyn Strategy<Value = T>>)>,
    total: u64,
}

impl<T> Union<T> {
    /// Build from `(weight, strategy)` arms; weights must not all be zero.
    pub fn weighted(arms: Vec<(u32, Box<dyn Strategy<Value = T>>)>) -> Union<T> {
        let total: u64 = arms.iter().map(|(w, _)| u64::from(*w)).sum();
        assert!(total > 0, "prop_oneof! needs at least one non-zero weight");
        Union { arms, total }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.below(self.total);
        for (w, s) in &self.arms {
            let w = u64::from(*w);
            if pick < w {
                return s.generate(rng);
            }
            pick -= w;
        }
        // Unreachable by construction (pick < total = Σw); satisfy the
        // type checker by using the last arm.
        self.arms[self.arms.len() - 1].1.generate(rng)
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                // Width in the unsigned domain; exclusive ranges never span
                // the full domain, so width fits and is non-zero.
                let width = (self.end as i128 - self.start as i128) as u128;
                let off = (u128::from(rng.next_u64()) % width) as i128;
                (self.start as i128 + off) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty inclusive range strategy");
                let width = (hi as i128 - lo as i128) as u128 + 1;
                let off = (u128::from(rng.next_u64()) % width) as i128;
                (lo as i128 + off) as $t
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty float range strategy");
                // 53 uniform mantissa bits mapped into [0, 1).
                let unit = (rng.next_u64() >> 11) as $t / (1u64 << 53) as $t;
                self.start + unit * (self.end - self.start)
            }
        }
    )*};
}
float_range_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($(($($name:ident),+);)*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A);
    (A, B);
    (A, B, C);
    (A, B, C, D);
    (A, B, C, D, E);
    (A, B, C, D, E, F);
}
