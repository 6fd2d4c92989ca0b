//! Stream QoS attributes and window-constraint state.
//!
//! A stream's *loss-tolerance* `x/y` says: of every `y` consecutive packets,
//! at most `x` may be lost or transmitted late. DWCS maintains a current
//! window `x'/y'` per stream; the adjustment rules below tighten it as the
//! window is consumed and reset it when a window completes. The current
//! *window-constraint* `W' = x'/y'` feeds the precedence rules — a stream
//! that has exhausted its loss budget (`W' = 0`) outranks equal-deadline
//! streams with slack.

use crate::types::Time;
use fixedpt::Frac;

/// Whether packets that miss their deadline may be discarded.
///
/// The paper (§3.1.2): late packets are "either dropped or transmitted
/// late, depending on whether or not the attribute-based QoS for the stream
/// allows some packets to be lost".
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LossPolicy {
    /// Lossy stream: late packets are dropped without transmission,
    /// "avoiding unnecessary bandwidth consumption".
    #[default]
    Droppable,
    /// Loss-intolerant stream: late packets must still be transmitted.
    SendLate,
}

/// Static QoS attributes a stream is admitted with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamQos {
    /// Request period `T`: deadline spacing between consecutive packets
    /// (nanoseconds). The head packet's deadline is its predecessor's
    /// deadline plus `T`.
    pub period: Time,
    /// Loss numerator `x`: packets losable per window.
    pub loss_num: u32,
    /// Loss denominator `y`: the window length in packets. Must be ≥ 1 and
    /// ≥ `loss_num`.
    pub loss_den: u32,
    /// Late-packet policy.
    pub policy: LossPolicy,
}

impl StreamQos {
    /// Build a QoS spec; panics on a malformed tolerance (`y == 0` or
    /// `x > y`), which would make the window state meaningless.
    pub fn new(period: Time, loss_num: u32, loss_den: u32) -> StreamQos {
        assert!(loss_den >= 1, "loss window must contain at least one packet");
        assert!(loss_num <= loss_den, "cannot lose more packets than the window holds");
        assert!(period > 0, "period must be positive");
        StreamQos {
            period,
            loss_num,
            loss_den,
            policy: LossPolicy::Droppable,
        }
    }

    /// Same spec with late packets transmitted rather than dropped.
    pub fn send_late(mut self) -> StreamQos {
        self.policy = LossPolicy::SendLate;
        self
    }

    /// The nominal window-constraint `W = x/y`.
    pub fn tolerance(&self) -> Frac {
        Frac::new(self.loss_num, self.loss_den)
    }

    /// Fraction of packets that *must* be serviced on time: `1 - x/y`.
    pub fn required_fraction(&self) -> Frac {
        Frac::new(self.loss_den - self.loss_num, self.loss_den)
    }
}

/// Outcome of a deadline miss, from [`Window::on_miss`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MissOutcome {
    /// The miss fit inside the loss budget.
    Tolerated,
    /// The window-constraint was violated (budget already exhausted).
    Violation,
}

/// Dynamic window state `x'/y'` for one stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Window {
    /// Original numerator `x`.
    x0: u32,
    /// Original denominator `y`.
    y0: u32,
    /// Current numerator `x'` (losses still tolerable in this window).
    x: u32,
    /// Current denominator `y'` (packets left in this window).
    y: u32,
    /// Cumulative constraint violations.
    violations: u64,
}

impl Window {
    /// Fresh window state from a QoS spec.
    pub fn new(qos: &StreamQos) -> Window {
        Window {
            x0: qos.loss_num,
            y0: qos.loss_den,
            x: qos.loss_num,
            y: qos.loss_den,
            violations: 0,
        }
    }

    /// Current numerator `x'`.
    pub fn x(&self) -> u32 {
        self.x
    }

    /// Current denominator `y'`.
    pub fn y(&self) -> u32 {
        self.y
    }

    /// Current window-constraint `W' = x'/y'`.
    pub fn constraint(&self) -> Frac {
        Frac::new(self.x, self.y)
    }

    /// Violations recorded so far.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Adjustment after a packet of this stream is serviced **before its
    /// deadline** (West & Schwan): one on-time slot of the window is
    /// consumed (`y' -= 1` while `y' > x'`); when only losable slots remain
    /// (`y' == x'`) the constraint is trivially satisfied for the rest of
    /// the window, so the window resets to the original `x/y`.
    pub fn on_timely_service(&mut self) {
        if self.y > self.x {
            self.y -= 1;
        }
        if self.y == self.x {
            self.reset();
        }
    }

    /// Adjustment after a packet **misses its deadline** (dropped or sent
    /// late). A tolerable miss consumes one loss slot (`x' -= 1, y' -= 1`,
    /// resetting when the window completes). A miss with `x' == 0` is a
    /// **violation**: we record it and stretch the current window by one
    /// original denominator (`y' += y`), which keeps `W' = 0` while raising
    /// `y'` — under precedence rule 3 (equal zero constraints → highest `y'`
    /// first) this pushes the violated stream toward the head of the line,
    /// the same corrective pressure the DWCS papers describe.
    pub fn on_miss(&mut self) -> MissOutcome {
        if self.x > 0 {
            self.x -= 1;
            self.y -= 1;
            if self.y == self.x {
                self.reset();
            }
            MissOutcome::Tolerated
        } else {
            self.violations += 1;
            self.y = self.y.saturating_add(self.y0);
            MissOutcome::Violation
        }
    }

    /// Restore the original window (start of a new window of `y` packets).
    fn reset(&mut self) {
        self.x = self.x0;
        self.y = self.y0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qos(x: u32, y: u32) -> StreamQos {
        StreamQos::new(1_000_000, x, y)
    }

    #[test]
    fn tolerance_fractions() {
        let q = qos(2, 8);
        assert_eq!(q.tolerance(), Frac::new(2, 8));
        assert_eq!(q.required_fraction().reduced(), Frac::new(3, 4));
    }

    #[test]
    #[should_panic(expected = "cannot lose more")]
    fn rejects_x_greater_than_y() {
        let _ = qos(9, 8);
    }

    #[test]
    #[should_panic(expected = "at least one packet")]
    fn rejects_zero_window() {
        let _ = qos(0, 0);
    }

    #[test]
    fn timely_service_consumes_window_and_resets() {
        let q = qos(1, 3);
        let mut w = Window::new(&q);
        assert_eq!((w.x(), w.y()), (1, 3));
        w.on_timely_service(); // y' 3→2
        assert_eq!((w.x(), w.y()), (1, 2));
        w.on_timely_service(); // y' 2→1 == x' → reset
        assert_eq!((w.x(), w.y()), (1, 3));
    }

    #[test]
    fn zero_tolerance_window_cycles() {
        let q = qos(0, 2);
        let mut w = Window::new(&q);
        w.on_timely_service(); // y' 2→1
        assert_eq!((w.x(), w.y()), (0, 1));
        w.on_timely_service(); // y' 1→0 == x' → reset
        assert_eq!((w.x(), w.y()), (0, 2));
        assert_eq!(w.violations(), 0);
    }

    #[test]
    fn tolerated_miss_spends_loss_budget() {
        let q = qos(2, 4);
        let mut w = Window::new(&q);
        assert_eq!(w.on_miss(), MissOutcome::Tolerated);
        assert_eq!((w.x(), w.y()), (1, 3));
        assert_eq!(w.on_miss(), MissOutcome::Tolerated);
        // x'=0, y'=2 — not equal, window continues with no budget.
        assert_eq!((w.x(), w.y()), (0, 2));
        assert_eq!(w.violations(), 0);
    }

    #[test]
    fn miss_to_window_completion_resets() {
        let q = qos(1, 2);
        let mut w = Window::new(&q);
        assert_eq!(w.on_miss(), MissOutcome::Tolerated);
        // x' 1→0, y' 2→1; not equal... 0 != 1, continues.
        assert_eq!((w.x(), w.y()), (0, 1));
        w.on_timely_service(); // y' 1→0 == x' → reset
        assert_eq!((w.x(), w.y()), (1, 2));
    }

    #[test]
    fn violation_recorded_and_window_stretched() {
        let q = qos(0, 3);
        let mut w = Window::new(&q);
        assert_eq!(w.on_miss(), MissOutcome::Violation);
        assert_eq!(w.violations(), 1);
        assert_eq!((w.x(), w.y()), (0, 6)); // y' stretched by y0
        assert!(w.constraint().is_zero());
        assert_eq!(w.on_miss(), MissOutcome::Violation);
        assert_eq!(w.violations(), 2);
    }

    #[test]
    fn constraint_tracks_state() {
        let q = qos(3, 6);
        let mut w = Window::new(&q);
        assert_eq!(w.constraint().reduced(), Frac::new(1, 2));
        w.on_timely_service(); // 3/5
        assert_eq!(w.constraint(), Frac::new(3, 5));
        w.on_miss(); // 2/4
        assert_eq!(w.constraint().reduced(), Frac::new(1, 2));
    }

    #[test]
    fn fully_lossy_stream_never_violates() {
        let q = qos(4, 4);
        let mut w = Window::new(&q);
        for _ in 0..100 {
            assert_eq!(w.on_miss(), MissOutcome::Tolerated);
        }
        assert_eq!(w.violations(), 0);
    }
}
