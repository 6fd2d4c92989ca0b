//! Property: the DWCS guarantee. For a *feasible* stream set (mandatory
//! utilization ≤ 1) with synchronous periodic arrivals and unit service,
//! the scheduler violates no window constraint; infeasible sets violate
//! under sustained overload but still bound per-window drops by x/y.
//!
//! The admission fold itself is checked too: a [`DemandFold`] stepped one
//! stream at a time agrees with `feasible`/`utilization` over every prefix
//! and with an independent whole-set reference fold, including sets whose
//! huge coprime periods force the fold's overflow downscale.

use nistream::dwcs::admission::DemandFold;
use nistream::dwcs::types::MILLISECOND;
use nistream::dwcs::{admission, DualHeap, DwcsScheduler, FrameDesc, FrameKind, StreamQos};
use nistream::fixedpt::Frac;
use proptest::prelude::*;

const SERVICE: u64 = MILLISECOND; // unit service slot

fn qos_strategy() -> impl Strategy<Value = StreamQos> {
    // Periods 4-40 ms, tolerance x/y with y in 2..9.
    (4u64..40, 1u32..9)
        .prop_flat_map(|(period_ms, y)| (0..=y).prop_map(move |x| StreamQos::new(period_ms * MILLISECOND, x, y)))
}

/// Huge periods (2⁴⁰–2⁴² ns): three or four such demands exhaust `u128`.
fn huge_qos_strategy() -> impl Strategy<Value = StreamQos> {
    (1u64 << 40..1u64 << 42, 1u32..9)
        .prop_flat_map(|(period, y)| (0..=y).prop_map(move |x| StreamQos::new(period, x, y)))
}

/// The whole-set fold written out independently of [`DemandFold`]: `Σ nᵢ/dᵢ`
/// accumulated left to right as one gcd-reduced `u128` fraction, both
/// operands halved while a step overflows. Returns the parts and whether
/// any step downscaled.
fn reference_fold(set: &[StreamQos], service: u64) -> (u128, u128, bool) {
    fn gcd(mut a: u128, mut b: u128) -> u128 {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a.max(1)
    }
    let (mut acc_n, mut acc_d, mut downscaled) = (0u128, 1u128, false);
    for q in set {
        let mut n = u128::from(q.loss_den - q.loss_num) * u128::from(service);
        let mut d = u128::from(q.loss_den) * u128::from(q.period);
        loop {
            let step = acc_n
                .checked_mul(d)
                .zip(n.checked_mul(acc_d))
                .and_then(|(a, b)| a.checked_add(b))
                .zip(acc_d.checked_mul(d));
            if let Some((num, den)) = step {
                let g = gcd(num, den);
                (acc_n, acc_d) = (num / g, den / g);
                break;
            }
            downscaled = true;
            if acc_d > d {
                acc_n >>= 1;
                acc_d = (acc_d >> 1).max(1);
            } else {
                n >>= 1;
                d = (d >> 1).max(1);
            }
        }
    }
    (acc_n, acc_d, downscaled)
}

/// `num/den` as a [`Frac`], by a common right shift down to 32 bits.
fn reference_frac(num: u128, den: u128) -> Frac {
    let shift = (128 - num.max(den).leading_zeros()).saturating_sub(32);
    Frac::new((num >> shift) as u32, (den >> shift) as u32)
}

/// Step a fold through `set`, checking after every stream that it matches
/// the whole-prefix tests and the reference; returns whether the reference
/// downscaled anywhere.
fn check_fold_step_for_step(set: &[StreamQos], service: u64) -> Result<bool, TestCaseError> {
    let mut fold = DemandFold::new(service);
    let mut downscaled = false;
    for k in 0..set.len() {
        fold.fold_in(&set[k]);
        let prefix = &set[..=k];
        let (n, d, down) = reference_fold(prefix, service);
        downscaled |= down;
        prop_assert_eq!(fold, DemandFold::folded(prefix, service), "prefix {}", k + 1);
        prop_assert_eq!(fold.fits(), admission::feasible(prefix, service));
        prop_assert_eq!(fold.fits(), n <= d, "prefix {} against the reference", k + 1);
        prop_assert_eq!(fold.utilization(), admission::utilization(prefix, service));
        prop_assert_eq!(
            fold.utilization(),
            reference_frac(n, d),
            "prefix {} against the reference",
            k + 1
        );
    }
    Ok(downscaled)
}

/// Drive synchronous periodic arrivals for `horizon_ms`, serving one
/// packet per SERVICE slot (work-conserving), and return total violations.
fn run_system(set: &[StreamQos], horizon_ms: u64) -> u64 {
    let mut s = DwcsScheduler::new(DualHeap::new(set.len()));
    let sids: Vec<_> = set.iter().map(|q| s.add_stream(*q)).collect();
    let horizon = horizon_ms * MILLISECOND;
    let mut next_arrival: Vec<u64> = vec![0; set.len()];
    let mut seqs = vec![0u64; set.len()];
    let mut now = 0u64;
    while now < horizon {
        for (i, q) in set.iter().enumerate() {
            while next_arrival[i] <= now {
                s.enqueue(
                    sids[i],
                    FrameDesc::new(sids[i], seqs[i], 1000, FrameKind::P),
                    next_arrival[i],
                );
                seqs[i] += 1;
                next_arrival[i] += q.period;
            }
        }
        let _ = s.schedule_next(now);
        now += SERVICE;
    }
    sids.iter().map(|&sid| s.stats(sid).violations).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn feasible_sets_never_violate(set in proptest::collection::vec(qos_strategy(), 1..6)) {
        prop_assume!(admission::feasible(&set, SERVICE));
        let violations = run_system(&set, 2_000);
        prop_assert_eq!(violations, 0, "feasible set must meet every window");
    }

    #[test]
    fn overload_sheds_but_never_drops_beyond_budget(set in proptest::collection::vec(qos_strategy(), 2..7)) {
        // Whatever the load, per-stream drops never exceed the x/y share
        // of departures (drop-within-budget policy).
        let mut s = DwcsScheduler::new(DualHeap::new(set.len()));
        let sids: Vec<_> = set.iter().map(|q| s.add_stream(*q)).collect();
        for (i, q) in set.iter().enumerate() {
            for seq in 0..200u64 {
                s.enqueue(sids[i], FrameDesc::new(sids[i], seq, 1000, FrameKind::P), seq * q.period / 4);
            }
        }
        let mut now = 0u64;
        while s.has_pending() {
            let _ = s.schedule_next(now);
            now += SERVICE * 2;
        }
        for (i, q) in set.iter().enumerate() {
            let st = s.stats(sids[i]);
            let departures = st.sent() + st.dropped;
            prop_assert_eq!(departures, 200);
            // x of every y may drop; allow the final partial window.
            let bound = departures * u64::from(q.loss_num) / u64::from(q.loss_den) + u64::from(q.loss_num);
            prop_assert!(st.dropped <= bound, "stream {i}: {} dropped > bound {bound} (tolerance {}/{})",
                st.dropped, q.loss_num, q.loss_den);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fold_matches_feasible_and_utilization_step_for_step(
        set in proptest::collection::vec(qos_strategy(), 0..24),
        service in 10_000u64..5_000_000,
    ) {
        check_fold_step_for_step(&set, service)?;
    }

    #[test]
    fn admit_is_feasible_with_the_candidate_appended(
        existing in proptest::collection::vec(qos_strategy(), 0..16),
        candidate in qos_strategy(),
        service in 10_000u64..5_000_000,
    ) {
        let mut all = existing.clone();
        all.push(candidate);
        prop_assert_eq!(admission::admit(&existing, candidate, service), admission::feasible(&all, service));
        prop_assert_eq!(DemandFold::folded(&existing, service).admits(&candidate), admission::feasible(&all, service));
    }

    #[test]
    fn fold_matches_reference_on_huge_periods(
        set in proptest::collection::vec(huge_qos_strategy(), 1..10),
        service in 1u64..1 << 40,
    ) {
        check_fold_step_for_step(&set, service)?;
    }
}

#[test]
fn huge_coprime_periods_reach_the_downscale_exactly() {
    // Consecutive odd periods just above 2⁴⁰ are pairwise coprime with
    // their neighbours, so the reduced denominator gains ~43 bits per
    // stream and the fourth step no longer fits in u128.
    let set: Vec<StreamQos> = (0..8u64)
        .map(|i| StreamQos::new((1 << 40) + 2 * i + 1, (i % 3) as u32, 7))
        .collect();
    let downscaled = check_fold_step_for_step(&set, 1_000_003).unwrap();
    assert!(downscaled, "the set must exercise the overflow downscale");
}
