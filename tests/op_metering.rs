//! The fixed-point story, end to end: one scheduler execution's decisions,
//! each carrying the [`Work`] its representation did, priced by the i960
//! model under the two arithmetic builds. The soft-float build costs ~20 µs
//! more per decision — Tables 1–2's mechanism, verifiable in isolation.

use nistream::dwcs::types::MILLISECOND;
use nistream::dwcs::{DualHeap, DwcsScheduler, FrameDesc, FrameKind, StreamQos, Work};
use nistream::fixedpt::ops::MathMode;
use nistream::hwsim::{calib, I960Core};

/// 3 streams × 40 frames through `DualHeap`; returns each decision's work
/// and the backlog left after it (the ring scan the NI placement prices).
fn decisions() -> Vec<(Work, u64)> {
    let mut s = DwcsScheduler::new(DualHeap::new(4));
    let sids: Vec<_> = (0..3)
        .map(|i| s.add_stream(StreamQos::new((10 + i) * MILLISECOND, 2, 8)))
        .collect();
    for seq in 0..40u64 {
        for &sid in &sids {
            s.enqueue(sid, FrameDesc::new(sid, seq, 1000, FrameKind::P), 0);
        }
    }
    let mut out = Vec::new();
    let mut t = 0;
    while s.has_pending() {
        let d = s.schedule_next(t);
        out.push((d.work, s.total_backlog().min(64)));
        t += MILLISECOND;
    }
    out
}

#[test]
fn pricing_the_profiles_reproduces_the_fp_penalty() {
    let decisions = decisions();
    assert_eq!(decisions.len(), 120, "3 streams × 40 frames");

    let price = |math: MathMode| -> u64 {
        let mut core = I960Core::new().with_math(math);
        decisions.iter().map(|&(w, scan)| core.decision_cycles(w, scan)).sum()
    };
    let fixed_cycles = price(MathMode::FixedPoint);
    let float_cycles = price(MathMode::SoftFloat);

    // Per decision, the difference lands in Tables 1-2's ~20 µs at 66 MHz.
    let cycles_per_us = (calib::I960_HZ / 1_000_000) as f64;
    let delta_us = (float_cycles - fixed_cycles) as f64 / decisions.len() as f64 / cycles_per_us;
    assert!(
        (15.0..=30.0).contains(&delta_us),
        "per-decision FP penalty {delta_us:.1} µs"
    );
}
