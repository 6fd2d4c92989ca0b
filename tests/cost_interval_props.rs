//! Properties of the WCET cycle-interval domain (`nistream-analysis`).
//!
//! The cost analyzer composes `dataflow::Interval`s of cycle counts with
//! saturating `add` / `mul` and the `join` hull; `hi == Bound::PInf` is
//! *unbounded*. Soundness of the whole analysis rests on three algebraic
//! facts checked here over random intervals:
//!
//! * no composition ever panics or wraps — overflow saturates, and an
//!   unbounded operand makes the result unbounded;
//! * `join` is a monotone upper bound (widening never shrinks either
//!   argument's range), commutative and idempotent;
//! * `add` and `mul` are monotone in both arguments, so replacing any
//!   sub-cost with a larger interval can only grow a summary — the
//!   property that makes bottom-up summarization with opaque fallbacks
//!   conservative.

use nistream_analysis::dataflow::{bound_le, Bound, Interval};
use proptest::prelude::*;

/// `[min, max]` of two cycle counts; `u64::MAX` as the upper end stands
/// for an unbounded cost.
fn iv(lo: u64, hi: u64) -> Interval {
    let (lo, hi) = (lo.min(hi), lo.max(hi));
    Interval {
        lo: Bound::Int(i128::from(lo)),
        hi: if hi == u64::MAX {
            Bound::PInf
        } else {
            Bound::Int(i128::from(hi))
        },
    }
}

fn le(a: Bound, b: Bound) -> bool {
    bound_le(a, b) == Some(true)
}

/// `a` covers at least everything `b` covers.
fn contains(a: Interval, b: Interval) -> bool {
    le(a.lo, b.lo) && le(b.hi, a.hi)
}

proptest! {
    #[test]
    fn add_and_scale_never_wrap(a in 0u64..=u64::MAX, b in 0u64..=u64::MAX, c in 0u64..=u64::MAX, d in 0u64..=u64::MAX, unb in any::<bool>()) {
        // Any combination — including u64::MAX operands — must saturate,
        // not panic or wrap below the operands.
        let x = iv(a, if unb { u64::MAX } else { b });
        let y = iv(c, d);
        let s = x.add(y);
        prop_assert!(le(x.lo, s.lo) && le(y.lo, s.lo));
        prop_assert!(le(x.hi, s.hi) && le(y.hi, s.hi));
        let p = x.mul(y);
        prop_assert!(le(p.lo, p.hi));
        if x.hi == Bound::PInf && le(Bound::Int(1), y.hi) {
            prop_assert_eq!(p.hi, Bound::PInf, "unbounded absorbs through mul");
        }
        if x.hi == Bound::PInf || y.hi == Bound::PInf {
            prop_assert_eq!(s.hi, Bound::PInf, "unbounded absorbs through add");
        }
    }

    #[test]
    fn join_is_a_commutative_idempotent_upper_bound(a in 0u64..=u64::MAX, b in 0u64..=u64::MAX, c in 0u64..=u64::MAX, d in 0u64..=u64::MAX) {
        let x = iv(a, b);
        let y = iv(c, d);
        let j = x.join(y);
        prop_assert!(contains(j, x), "join covers lhs");
        prop_assert!(contains(j, y), "join covers rhs");
        prop_assert_eq!(y.join(x), j, "commutative");
        prop_assert_eq!(j.join(x), j, "idempotent on covered args");
        prop_assert_eq!(x.join(x), x);
    }

    #[test]
    fn add_and_scale_are_monotone(
        a in 0u64..1 << 40, b in 0u64..1 << 40,
        c in 0u64..1 << 40, d in 0u64..1 << 40,
        wider in 0u64..1 << 40,
    ) {
        let x = iv(a, b);
        let y = iv(c, d);
        // Widen x on both ends; every composition must only grow.
        let xw = iv(a.min(b).saturating_sub(wider), a.max(b).saturating_add(wider));
        prop_assert!(contains(xw.add(y), x.add(y)), "add monotone in lhs");
        prop_assert!(contains(y.add(xw), y.add(x)), "add monotone in rhs");
        prop_assert!(contains(xw.mul(y), x.mul(y)), "mul monotone in lhs");
        prop_assert!(contains(y.mul(xw), y.mul(x)), "mul monotone in rhs");
        prop_assert!(contains(xw.join(y), x.join(y)), "join monotone");
    }

    #[test]
    fn exact_intervals_compose_like_scalars(n in 0u64..1 << 30, m in 0u64..1 << 30, k in 1u64..1 << 3) {
        let (n, m, k) = (i128::from(n), i128::from(m), i128::from(k));
        let s = Interval::of(n).add(Interval::of(m));
        prop_assert_eq!(s, Interval::of(n + m));
        let p = Interval::of(n).mul(Interval::of(k));
        prop_assert_eq!(p, Interval::of(n * k));
        prop_assert!(s.hi != Bound::PInf && p.hi != Bound::PInf);
    }
}
