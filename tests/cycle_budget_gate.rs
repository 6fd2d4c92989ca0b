//! Static-vs-dynamic cycle-budget gate.
//!
//! The `ni-cycle-budget` lint derives a *static* worst-case cycle interval
//! for `SchedService::service_once` by abstract interpretation over the
//! `analysis.toml` file set. This gate validates that bound against the
//! *dynamic* model: a scheduler run whose decisions are priced one by one
//! by `hwsim::I960Core::decision_cycles`, the price the NI placement
//! charges, built on the same `hwsim::calib` tables the analyzer mirrors.
//!
//! Three properties tie the two models together:
//!
//! 1. **Soundness** — the static worst case dominates every dynamically
//!    priced decision of every representation the NI runs (a WCET bound below an observed cost would be a
//!    bug in the analyzer, the calibration, or an annotation).
//! 2. **Sanity** — the static bound is not uselessly loose: it stays
//!    within a fixed factor of the observed worst decision. The factor is
//!    generous by design — the interval analysis takes every branch and
//!    every annotated loop bound (16 streams, 16 drops) at once, while
//!    the dynamic run services 3 short streams — but it is a hard ceiling
//!    that catches multiplicative blow-ups in the cost walk.
//! 3. **Calibration** — the constants the analyzer mirrors from
//!    `hwsim::calib` actually match, by name, so the two models cannot
//!    silently drift apart.
//!
//! A fourth test ratchets the static worst case of every hot root the
//! budget prices: each may stay or fall, never rise.

use nistream::dwcs::types::MILLISECOND;
use nistream::dwcs::{DualHeap, DwcsScheduler, FrameDesc, FrameKind, LinearScan, ScheduleRepr, StreamQos};
use nistream::hwsim::{calib, I960Core};
use nistream_analysis::dataflow::Bound;
use nistream_analysis::{costmodel, Config};
use std::path::Path;

/// Static worst-case reports for every hot root, straight from the repo's
/// own `analysis.toml`.
fn budget_report() -> (Vec<costmodel::RootReport>, costmodel::CostModel) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("analysis.toml")).expect("analysis.toml");
    let cfg = Config::parse(&text).expect("analysis.toml parses");
    nistream_analysis::budget_report(root, &cfg).expect("budget report")
}

/// Static worst-case report for `SchedService::service_once`.
fn static_report() -> (costmodel::RootReport, costmodel::CostModel) {
    let (roots, model) = budget_report();
    let svc = roots
        .into_iter()
        .find(|r| r.root == "SchedService::service_once")
        .expect("service_once is a hot root");
    (svc, model)
}

/// Run the NI-placement scheduler over `repr` (`LinearScan` is what the
/// i960 firmware does, `DualHeap` what every placement runs) and price each
/// decision the way `NiWirePlatform::on_decision` does: fixed-point build,
/// cache off so every touch is a miss, ring scan of the remaining backlog
/// capped at 64. Returns per-decision cycle costs.
fn priced_decision_cycles(repr: impl ScheduleRepr) -> Vec<u64> {
    let mut s = DwcsScheduler::new(repr);
    let sids: Vec<_> = (0..3)
        .map(|i| s.add_stream(StreamQos::new((10 + i) * MILLISECOND, 2, 8)))
        .collect();
    for seq in 0..40u64 {
        for &sid in &sids {
            s.enqueue(sid, FrameDesc::new(sid, seq, 1000, FrameKind::P), 0);
        }
    }

    let mut core = I960Core::new();
    let mut out = Vec::new();
    let mut t = 0;
    while s.has_pending() {
        let d = s.schedule_next(t);
        t += MILLISECOND;
        out.push(core.decision_cycles(d.work, s.total_backlog().min(64)));
    }
    assert!(out.len() >= 120, "3 streams x 40 frames of decisions");
    out
}

#[test]
fn static_bound_dominates_every_metered_decision() {
    let (svc, model) = static_report();
    let (Bound::Int(lo), Bound::Int(hi)) = (svc.cycles.lo, svc.cycles.hi) else {
        panic!("service_once must have a static bound: {:?}", svc.cycles)
    };
    assert!(
        hi <= i128::from(model.budget_cycles),
        "static worst case {hi} exceeds the configured budget {}",
        model.budget_cycles
    );

    for (name, decisions) in [
        ("LinearScan", priced_decision_cycles(LinearScan::new(4))),
        ("DualHeap", priced_decision_cycles(DualHeap::new(4))),
    ] {
        let worst = *decisions.iter().max().expect("at least one decision");
        for (i, &d) in decisions.iter().enumerate() {
            assert!(
                i128::from(d) <= hi,
                "{name}: decision {i} cost {d} cycles, above the static worst case {hi}"
            );
        }

        // The static ceiling is pessimistic, not absurd: every annotated
        // loop bound (16-stream scans, 16 drops per decision) multiplied
        // together against a 3-stream run justifies a wide but *fixed* gap.
        assert!(
            hi <= i128::from(worst.saturating_mul(1024)),
            "{name}: static bound {hi} is more than 1024x the observed worst decision {worst}"
        );
    }
    // And the best case can never undercut the decision baseline.
    assert!(lo >= i128::from(calib::NI_DECISION_BASE_CYCLES));
}

#[test]
fn analyzer_mirror_constants_match_hwsim_calibration() {
    let lookup = |name: &str| -> u64 {
        calib::TABLE
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} missing from hwsim::calib::TABLE"))
            .1
    };
    assert_eq!(costmodel::I960_HZ, lookup("I960_HZ"));
    assert_eq!(costmodel::NI_DECISION_BASE_CYCLES, lookup("NI_DECISION_BASE_CYCLES"));
    assert_eq!(costmodel::FIXED_RATIO_CYCLES, lookup("FIXED_RATIO_CYCLES"));
    assert_eq!(costmodel::SOFT_FP_RATIO_CYCLES, lookup("SOFT_FP_RATIO_CYCLES"));
    assert_eq!(costmodel::TOUCH_HIT_CYCLES, lookup("TOUCH_HIT_CYCLES"));
    assert_eq!(costmodel::TOUCH_MISS_CYCLES, lookup("TOUCH_MISS_CYCLES"));
}

/// The static worst case of each hot root `budget` prices may only stay
/// or fall. The ceilings are the analyzer's values for the current code; a
/// change that tightens a bound lowers it here. A root in the report but
/// not in the table, or in the table but not in the report, fails.
#[test]
fn hot_root_static_budgets_do_not_grow() {
    let (roots, _) = budget_report();
    let ceilings = [
        ("SchedService::service_once", 834_067),
        ("SchedService::service_batch", 834_723),
        ("DwcsScheduler::enqueue", 7_760),
        ("TraceRing::push", 4_532),
        ("BatchSoa::flush", 12_053),
        ("BatchSoa::pop_min", 4_671),
    ];
    for report in &roots {
        assert!(
            ceilings.iter().any(|(name, _)| *name == report.root),
            "{} is a priced hot root with no ceiling here",
            report.root
        );
    }
    for (name, ceiling) in ceilings {
        let report = roots
            .iter()
            .find(|r| r.root == name)
            .unwrap_or_else(|| panic!("{name} is a hot root"));
        let Bound::Int(hi) = report.cycles.hi else {
            panic!("{name} must have a static bound: {:?}", report.cycles)
        };
        assert!(
            hi <= ceiling,
            "{name}: static worst case {hi} cycles rose above {ceiling}"
        );
    }
}
