//! DWCS feasibility / admission control.
//!
//! For unit-capacity service (one packet transmitted per slot of length
//! `C`), a set of window-constrained streams is schedulable by DWCS when
//! the *mandatory* utilization does not exceed the link:
//!
//! ```text
//! Σᵢ (1 − xᵢ/yᵢ) · C / Tᵢ ≤ 1
//! ```
//!
//! i.e. each stream demands service for the fraction of its packets that
//! *must* go out on time (`1 − x/y`), one packet per period `T`, each
//! costing `C` of link time. West & Schwan prove violation-freedom for
//! feasible sets of unit-sized packets; our property tests use this as the
//! oracle (`tests/dwcs_properties.rs`).
//!
//! The server crates use [`admit`] as an admission controller: "as stream
//! requests to a server are increased, the server must be able to process
//! these requests with a pre-negotiated bound on service degradation"
//! (§3.1). A caller that admits streams one at a time keeps a
//! [`DemandFold`] per link instead of refolding the set for every request.

use crate::qos::StreamQos;
use crate::types::Time;
use fixedpt::Frac;

/// Mandatory utilization of one stream given fixed per-packet service time
/// `service` (both in ns). Exact rational arithmetic in u128.
fn demand_num_den(qos: &StreamQos, service: Time) -> (u128, u128) {
    // (1 - x/y) * service / period = ((y - x) * service) / (y * period)
    let num = u128::from(qos.loss_den - qos.loss_num) * u128::from(service);
    let den = u128::from(qos.loss_den) * u128::from(qos.period);
    (num, den)
}

/// Running state of the admission fold `Σ nᵢ/dᵢ` over a stream set, every
/// demand priced at one per-packet service time. The fold keeps one
/// fraction `a/b` and adds each demand `n/d` as `(a·d + n·b) / (b·d)`,
/// reducing by gcd each step. Should `u128` be exhausted even after
/// reduction (adversarially huge coprime periods, far from the feasibility
/// boundary), both operands are downscaled by right shifts until the step
/// fits — still integer-only, losing at most the low bits shifted out.
///
/// The fraction is the fold's only state, so a caller that keeps a
/// `DemandFold` across admissions and folds in one stream at a time gets
/// exactly the verdicts of refolding the whole set each time, downscale
/// path included. Removing a stream means refolding the rest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DemandFold {
    service: Time,
    num: u128,
    den: u128,
}

impl DemandFold {
    /// The empty set, priced at `service` ns per packet.
    pub fn new(service: Time) -> DemandFold {
        DemandFold {
            service,
            num: 0,
            den: 1,
        }
    }

    /// `streams` folded left to right from the empty set.
    pub fn folded<'a>(streams: impl IntoIterator<Item = &'a StreamQos>, service: Time) -> DemandFold {
        let mut fold = DemandFold::new(service);
        for q in streams {
            fold.fold_in(q);
        }
        fold
    }

    /// The per-packet service time every folded demand is priced at.
    pub fn service(&self) -> Time {
        self.service
    }

    /// Add one stream's mandatory utilization to the running sum.
    pub fn fold_in(&mut self, qos: &StreamQos) {
        let (mut n, mut d) = demand_num_den(qos, self.service);
        loop {
            let step = (|| {
                let a = self.num.checked_mul(d)?;
                let b = n.checked_mul(self.den)?;
                let den = self.den.checked_mul(d)?;
                Some((a.checked_add(b)?, den))
            })();
            if let Some((num, den)) = step {
                let g = gcd_u128(num, den);
                self.num = num / g;
                self.den = den / g;
                return;
            }
            // Halve whichever side carries more denominator bits.
            if self.den > d {
                self.num >>= 1;
                self.den = (self.den >> 1).max(1);
            } else {
                n >>= 1;
                d = (d >> 1).max(1);
            }
        }
    }

    /// Whether the folded set is schedulable: `Σ (1 − xᵢ/yᵢ)·C/Tᵢ ≤ 1`.
    pub fn fits(&self) -> bool {
        self.num <= self.den
    }

    /// Whether the folded set stays schedulable with `candidate` added.
    pub fn admits(&self, candidate: &StreamQos) -> bool {
        let mut with = *self;
        with.fold_in(candidate);
        with.fits()
    }

    /// Total mandatory utilization of the folded set, as an exact
    /// (downscaled on overflow) [`Frac`].
    pub fn utilization(&self) -> Frac {
        frac_from_u128(self.num, self.den)
    }
}

/// Fit exact `u128` parts into a [`Frac`] by a common right-shift (precision
/// loss only when components exceed 32 bits).
fn frac_from_u128(mut num: u128, mut den: u128) -> Frac {
    debug_assert!(den != 0);
    let bits = 128 - num.max(den).leading_zeros();
    if bits > 32 {
        let shift = bits - 32;
        num >>= shift;
        den >>= shift;
        if den == 0 {
            // Denominator underflowed to zero: the value is effectively huge.
            return Frac::INF;
        }
    }
    Frac::new(num as u32, den as u32)
}

/// Total mandatory utilization of a stream set, as an exact (downscaled on
/// overflow) [`Frac`]. Host-side reporting that wants a float goes through
/// [`Frac::to_f64`]; NI-resident callers compare against [`Frac::ONE`].
pub fn utilization(streams: &[StreamQos], service: Time) -> Frac {
    DemandFold::folded(streams, service).utilization()
}

/// Exact feasibility test: `Σ (1 − xᵢ/yᵢ)·C/Tᵢ ≤ 1`, computed without
/// floating point (common-denominator accumulation in `u128`).
pub fn feasible(streams: &[StreamQos], service: Time) -> bool {
    DemandFold::folded(streams, service).fits()
}

/// Admission decision for adding `candidate` to `existing`.
pub fn admit(existing: &[StreamQos], candidate: StreamQos, service: Time) -> bool {
    DemandFold::folded(existing, service).admits(&candidate)
}

fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::MILLISECOND;

    #[test]
    fn single_stream_within_capacity() {
        // Period 10 ms, service 1 ms, no losses allowed: U = 0.1.
        let q = StreamQos::new(10 * MILLISECOND, 0, 1);
        assert!(feasible(&[q], MILLISECOND));
        assert_eq!(utilization(&[q], MILLISECOND), Frac::new(1, 10));
    }

    #[test]
    fn loss_tolerance_buys_capacity() {
        // 20 streams, period 10 ms, service 1 ms, lossless: U = 2.0 → infeasible.
        let lossless = vec![StreamQos::new(10 * MILLISECOND, 0, 1); 20];
        assert!(!feasible(&lossless, MILLISECOND));
        // Same streams tolerating half their packets late: U = 1.0 → feasible.
        let lossy = vec![StreamQos::new(10 * MILLISECOND, 1, 2); 20];
        assert!(feasible(&lossy, MILLISECOND));
        assert_eq!(utilization(&lossy, MILLISECOND), Frac::ONE);
    }

    #[test]
    fn boundary_is_inclusive() {
        // Exactly U = 1: 10 lossless streams, period 10 ms, service 1 ms.
        let set = vec![StreamQos::new(10 * MILLISECOND, 0, 1); 10];
        assert!(feasible(&set, MILLISECOND));
        // One more tips it over.
        assert!(!admit(&set, StreamQos::new(10 * MILLISECOND, 0, 1), MILLISECOND));
    }

    #[test]
    fn admit_matches_feasible() {
        let existing = vec![
            StreamQos::new(5 * MILLISECOND, 1, 4),
            StreamQos::new(8 * MILLISECOND, 2, 8),
        ];
        let c = StreamQos::new(3 * MILLISECOND, 0, 1);
        let mut all = existing.clone();
        all.push(c);
        assert_eq!(admit(&existing, c, MILLISECOND), feasible(&all, MILLISECOND));
    }

    #[test]
    fn fully_lossy_streams_cost_nothing() {
        let free = vec![StreamQos::new(MILLISECOND, 4, 4); 1000];
        assert!(feasible(&free, MILLISECOND));
        assert!(utilization(&free, MILLISECOND).is_zero());
    }

    #[test]
    fn many_heterogeneous_streams_no_overflow() {
        let mut set = Vec::new();
        for i in 1..=64u32 {
            set.push(StreamQos::new(Time::from(i) * MILLISECOND + 7, i % 3, (i % 3) + 3));
        }
        // Must terminate, and the reported utilization must agree with the
        // feasibility verdict (the set is far from the boundary).
        let u = utilization(&set, 100_000);
        assert_eq!(feasible(&set, 100_000), u <= Frac::ONE);
    }
}
