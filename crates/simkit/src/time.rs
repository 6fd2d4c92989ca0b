//! Virtual time: nanosecond-resolution instants and durations.
//!
//! A `u64` nanosecond clock runs for ~584 simulated years, far beyond any
//! experiment here, so the clock never wraps.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock (nanoseconds since sim start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> SimTime {
        SimTime(ns)
    }

    /// Raw nanoseconds since sim start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since sim start.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds since sim start.
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since sim start as `f64` (reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration since an earlier instant; saturates at zero if `earlier` is
    /// actually later (callers comparing out-of-order stamps get 0, never a
    /// wrap to ~584 years).
    #[inline]
    pub const fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> SimDuration {
        SimDuration(ns)
    }

    /// From microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us * 1_000)
    }

    /// From milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000_000)
    }

    /// From seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000_000)
    }

    /// From fractional seconds (workload generators; rounds to ns).
    pub fn from_secs_f64(s: f64) -> SimDuration {
        debug_assert!(s >= 0.0 && s.is_finite());
        SimDuration((s * 1e9).round() as u64)
    }

    /// From fractional microseconds (cost-model calibration constants).
    pub fn from_micros_f64(us: f64) -> SimDuration {
        debug_assert!(us >= 0.0 && us.is_finite());
        SimDuration((us * 1e3).round() as u64)
    }

    /// Time to move `bytes` at `bits_per_sec` line rate (exact integer math,
    /// rounded up — a partial bit still occupies the wire slot).
    pub fn for_bytes_at_bps(bytes: u64, bits_per_sec: u64) -> SimDuration {
        debug_assert!(bits_per_sec > 0);
        let bits = bytes * 8;
        SimDuration((bits.saturating_mul(1_000_000_000)).div_ceil(bits_per_sec))
    }

    /// Time for `cycles` on a clock of `hz` (rounded up).
    pub fn for_cycles_at_hz(cycles: u64, hz: u64) -> SimDuration {
        debug_assert!(hz > 0);
        SimDuration(cycles.saturating_mul(1_000_000_000).div_ceil(hz))
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Fractional microseconds (reporting).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Whole milliseconds.
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional milliseconds (reporting).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Fractional seconds (reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    #[inline]
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Integer-scaled duration.
    #[inline]
    pub const fn times(self, n: u64) -> SimDuration {
        SimDuration(self.0 * n)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, n: u64) -> SimDuration {
        SimDuration(self.0 * n)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, n: u64) -> SimDuration {
        SimDuration(self.0 / n)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}ns", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimDuration::from_micros(65).as_nanos(), 65_000);
        assert_eq!(SimDuration::from_millis(4).as_micros(), 4_000);
        assert_eq!(SimDuration::from_secs(2).as_millis(), 2_000);
        assert_eq!(SimDuration::from_micros_f64(65.5).as_nanos(), 65_500);
    }

    #[test]
    fn wire_time_is_exact_and_rounds_up() {
        // 1500-byte Ethernet frame at 100 Mb/s = 120 µs exactly.
        let t = SimDuration::for_bytes_at_bps(1500, 100_000_000);
        assert_eq!(t.as_micros(), 120);
        // 1 byte at 3 bits/s: 8/3 s rounds up.
        let t = SimDuration::for_bytes_at_bps(1, 3);
        assert_eq!(t.as_nanos(), 2_666_666_667);
    }

    #[test]
    fn cycle_time_matches_clock() {
        // 66 MHz i960RD: one cycle ≈ 15.15 ns.
        let t = SimDuration::for_cycles_at_hz(66, 66_000_000);
        assert_eq!(t.as_nanos(), 1_000);
        assert_eq!(SimDuration::for_cycles_at_hz(1, 1_000_000_000).as_nanos(), 1);
    }

    #[test]
    fn time_arithmetic_saturates_down() {
        let a = SimTime::from_nanos(100);
        let b = SimTime::from_nanos(300);
        assert_eq!((b - a).as_nanos(), 200);
        assert_eq!((a - b).as_nanos(), 0);
        assert_eq!(a.since(b), SimDuration::ZERO);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_micros(65)), "65.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(4)), "4.000ms");
    }
}
