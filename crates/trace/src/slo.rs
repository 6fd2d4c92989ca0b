//! Integer service-level objectives over folded traces.
//!
//! The soak harness (`nistream-bench`) runs hours of virtual time and
//! needs a stable, regression-gateable summary of "did the scheduler hold
//! its service level". This module defines that summary: an [`Slo`]
//! computed from an [`Aggregate`] (or a chassis total), absolute
//! objectives ([`SloObjective`]), and a baseline comparator
//! ([`regressions`]) with explicit integer tolerances.
//!
//! Everything is integer arithmetic — ratios are parts-per-million, the
//! p99 is a log₂ bucket upper bound — so an SLO serializes
//! byte-deterministically and a gate can compare with `==`-grade
//! stability across thread counts, machines, and reruns.

use crate::aggregate::Aggregate;
use crate::chassis::ChassisAggregate;

/// Parts-per-million scale for the ratio metrics.
pub const PPM: u64 = 1_000_000;

/// One run's service-level summary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Slo {
    /// Frames dispatched.
    pub dispatches: u64,
    /// Frames dropped (late beyond their window, within loss budget).
    pub drops: u64,
    /// Frames dispatched past their deadline.
    pub late: u64,
    /// Drops per million attempted frames (attempted = dispatches + drops).
    pub drop_ppm: u64,
    /// Deadline misses (drops + late dispatches) per million attempted.
    pub miss_ppm: u64,
    /// p99 lateness past deadline, ns (log₂ bucket upper bound).
    pub p99_late_ns: u64,
    /// Worst single lateness past deadline, ns.
    pub max_late_ns: u64,
    /// Largest backlog observed.
    pub max_backlog: u64,
}

impl Slo {
    /// Fold an aggregate into its SLO summary.
    pub fn from_aggregate(a: &Aggregate) -> Slo {
        let (dispatches, drops, late) = a.streams().fold((0, 0, 0), |(d, x, l), (_, s)| {
            (d + s.sent(), x + s.dropped, l + s.sent_late)
        });
        let attempted = dispatches + drops;
        let ratio_ppm = |n: u64| {
            if attempted == 0 {
                0
            } else {
                (u128::from(n) * u128::from(PPM) / u128::from(attempted)) as u64
            }
        };
        Slo {
            dispatches,
            drops,
            late,
            drop_ppm: ratio_ppm(drops),
            miss_ppm: ratio_ppm(drops + late),
            p99_late_ns: a.latency.percentile_upper(99, 100),
            max_late_ns: a.latency.max(),
            max_backlog: a.max_backlog,
        }
    }

    /// SLO of a whole chassis (the cross-card total).
    pub fn from_chassis(c: &ChassisAggregate) -> Slo {
        Slo::from_aggregate(&c.total)
    }
}

/// Absolute objectives a scenario must meet regardless of baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SloObjective {
    /// Ceiling on p99 lateness, ns.
    pub max_p99_late_ns: u64,
    /// Ceiling on the drop ratio, ppm.
    pub max_drop_ppm: u64,
    /// Ceiling on the deadline-miss ratio, ppm.
    pub max_miss_ppm: u64,
}

impl SloObjective {
    /// Violations of this objective by `slo`, one message per breached
    /// metric (empty means the objective holds).
    pub fn check(&self, name: &str, slo: &Slo) -> Vec<String> {
        let mut out = Vec::new();
        if slo.p99_late_ns > self.max_p99_late_ns {
            out.push(format!(
                "{name}: p99 lateness {} ns exceeds objective {} ns",
                slo.p99_late_ns, self.max_p99_late_ns
            ));
        }
        if slo.drop_ppm > self.max_drop_ppm {
            out.push(format!(
                "{name}: drop ratio {} ppm exceeds objective {} ppm",
                slo.drop_ppm, self.max_drop_ppm
            ));
        }
        if slo.miss_ppm > self.max_miss_ppm {
            out.push(format!(
                "{name}: miss ratio {} ppm exceeds objective {} ppm",
                slo.miss_ppm, self.max_miss_ppm
            ));
        }
        out
    }
}

/// Tolerances for baseline comparison: a metric regresses only if it
/// worsens by more than `base × rel_ppm / 1e6` plus the metric's absolute
/// slack. Integer slack absorbs bucket-granularity wobble without hiding
/// real drift.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SloMargin {
    /// Relative tolerance applied to every metric, ppm of the baseline.
    pub rel_ppm: u64,
    /// Absolute slack for `p99_late_ns` (one small log₂ bucket).
    pub p99_slack_ns: u64,
    /// Absolute slack for the ppm ratio metrics.
    pub ratio_slack_ppm: u64,
}

impl Default for SloMargin {
    fn default() -> SloMargin {
        SloMargin {
            rel_ppm: 100_000, // 10 %
            p99_slack_ns: 4_096,
            ratio_slack_ppm: 500,
        }
    }
}

impl SloMargin {
    fn ceiling(&self, base: u64, abs_slack: u64) -> u64 {
        let rel = (u128::from(base) * u128::from(self.rel_ppm) / u128::from(PPM)) as u64;
        base.saturating_add(rel).saturating_add(abs_slack)
    }
}

/// Regressions of `new` against `base` under `margin`, one message per
/// regressed metric (empty means no regression). Only "worse" directions
/// gate: an improvement never fails, and `dispatches`/`drops` raw counts
/// are informational, not gated (the ratios gate instead — a soak that
/// legitimately runs longer moves every raw count).
pub fn regressions(name: &str, new: &Slo, base: &Slo, margin: &SloMargin) -> Vec<String> {
    let mut out = Vec::new();
    let mut gate = |metric: &str, new_v: u64, base_v: u64, abs_slack: u64| {
        let ceiling = margin.ceiling(base_v, abs_slack);
        if new_v > ceiling {
            out.push(format!(
                "{name}: {metric} regressed to {new_v} (baseline {base_v}, ceiling {ceiling})"
            ));
        }
    };
    gate("drop_ppm", new.drop_ppm, base.drop_ppm, margin.ratio_slack_ppm);
    gate("miss_ppm", new.miss_ppm, base.miss_ppm, margin.ratio_slack_ppm);
    gate("p99_late_ns", new.p99_late_ns, base.p99_late_ns, margin.p99_slack_ns);
    gate("max_backlog", new.max_backlog, base.max_backlog, 4);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    fn dispatch(at: u64, deadline: u64, on_time: bool) -> TraceEvent {
        TraceEvent::Dispatch {
            at,
            stream: 1,
            seq: 0,
            len: 1_000,
            deadline,
            on_time,
        }
    }

    #[test]
    fn slo_ratios_are_ppm_of_attempted() {
        let mut a = Aggregate::new();
        // 3 dispatches (1 late by 5000 ns) + 1 drop = 4 attempted.
        a.fold_all(&[
            dispatch(10, 10, true),
            dispatch(20, 20, true),
            dispatch(25_000, 20_000, false),
            TraceEvent::Drop {
                at: 30,
                stream: 1,
                seq: 3,
            },
        ]);
        let s = Slo::from_aggregate(&a);
        assert_eq!((s.dispatches, s.drops, s.late), (3, 1, 1));
        assert_eq!(s.drop_ppm, 250_000); // 1 / 4
        assert_eq!(s.miss_ppm, 500_000); // 2 / 4
        assert_eq!(s.max_late_ns, 5_000);
        // p99 over latencies {0, 0, 5000}: rank 3 → the 5000 bucket.
        assert_eq!(s.p99_late_ns, 8_191);
    }

    #[test]
    fn empty_aggregate_is_a_zero_slo() {
        assert_eq!(Slo::from_aggregate(&Aggregate::new()), Slo::default());
    }

    #[test]
    fn objective_reports_each_breach() {
        let obj = SloObjective {
            max_p99_late_ns: 1_000,
            max_drop_ppm: 100_000,
            max_miss_ppm: 100_000,
        };
        let ok = Slo {
            p99_late_ns: 1_000,
            ..Slo::default()
        };
        assert!(obj.check("ok", &ok).is_empty());
        let bad = Slo {
            p99_late_ns: 2_000,
            drop_ppm: 200_000,
            miss_ppm: 300_000,
            ..Slo::default()
        };
        let v = obj.check("bad", &bad);
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v[0].contains("p99 lateness"));
    }

    #[test]
    fn regression_gate_allows_margin_but_catches_drift() {
        let base = Slo {
            drop_ppm: 10_000,
            miss_ppm: 20_000,
            p99_late_ns: 100_000,
            max_backlog: 50,
            ..Slo::default()
        };
        let margin = SloMargin::default();
        // Identical run: clean.
        assert!(regressions("x", &base, &base, &margin).is_empty());
        // Within 10 % + slack: clean.
        let wobble = Slo {
            drop_ppm: 11_000,
            p99_late_ns: 110_000,
            ..base
        };
        assert!(regressions("x", &wobble, &base, &margin).is_empty());
        // Past the ceiling: caught, with the metric named.
        let drifted = Slo {
            drop_ppm: 12_000,
            ..base
        };
        let v = regressions("x", &drifted, &base, &margin);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("drop_ppm"), "{v:?}");
        // Improvements never gate.
        let better = Slo {
            drop_ppm: 0,
            miss_ppm: 0,
            p99_late_ns: 0,
            max_backlog: 0,
            ..base
        };
        assert!(regressions("x", &better, &base, &margin).is_empty());
    }

    #[test]
    fn regression_from_zero_baseline_uses_absolute_slack() {
        let base = Slo::default();
        let margin = SloMargin::default();
        let small = Slo {
            drop_ppm: 400,
            p99_late_ns: 4_000,
            ..Slo::default()
        };
        assert!(regressions("x", &small, &base, &margin).is_empty());
        let big = Slo {
            drop_ppm: 1_000,
            ..Slo::default()
        };
        assert_eq!(regressions("x", &big, &base, &margin).len(), 1);
    }
}
