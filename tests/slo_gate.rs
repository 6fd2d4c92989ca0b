//! SLO semantics of the soak scenarios and the regression gate's teeth.
//!
//! Three claims ride here: (1) the unloaded NI scenario's SLO is pinned
//! golden — byte-stable dispatch count, zero drops, zero lateness — so
//! any scheduler change that perturbs the clean path is caught at the
//! value level, not just the margin level; (2) the ABR ladder, reacting
//! only to `Congestion` probes (backlog, plus the drops and late sends
//! the trace fold gained since the previous probe), never posts a worse
//! deadline-miss ratio than the same population pinned to the top rung; (3) the gate
//! demonstrably fails on a deliberate regression and on an absolute
//! objective breach, and passes a self-comparison.

use nistream_bench::soak::{self, SoakMode};
use nistream_trace::Slo;

#[test]
fn unloaded_ni_slo_is_pinned_golden() {
    let row = soak::run_scenario("ni-cbr", SoakMode::Quick);
    // 4 streams × 30 fps × 30 s, minus the phase-spread tail the run-end
    // cutoff clips. Every frame on time, nothing dropped, backlog never
    // above one frame per stream.
    assert_eq!(
        row.slo,
        Slo {
            dispatches: 3_597,
            drops: 0,
            late: 0,
            drop_ppm: 0,
            miss_ppm: 0,
            p99_late_ns: 0,
            max_late_ns: 0,
            max_backlog: 4,
        }
    );
    assert_eq!(row.abr_switches, 0);
}

#[test]
fn abr_is_never_worse_than_the_fixed_top_rung() {
    let fixed = soak::run_scenario("ni-fixed-hi", SoakMode::Quick);
    let abr = soak::run_scenario("ni-abr", SoakMode::Quick);

    assert!(
        fixed.slo.miss_ppm > 500_000,
        "top rung must overload the NI (got {})",
        fixed.slo.miss_ppm
    );
    assert!(abr.abr_switches > 0, "congestion must trigger rung switches");
    assert!(
        abr.slo.miss_ppm <= fixed.slo.miss_ppm,
        "ABR miss ratio {} worse than fixed-rung {}",
        abr.slo.miss_ppm,
        fixed.slo.miss_ppm
    );
    assert!(
        abr.slo.max_backlog < fixed.slo.max_backlog,
        "stepping down must shed backlog ({} vs {})",
        abr.slo.max_backlog,
        fixed.slo.max_backlog
    );
}

#[test]
fn gate_fails_on_deliberate_regression_and_passes_self_comparison() {
    // Cheap real rows so the documents exercise the true render path.
    let rows = vec![
        soak::run_scenario("ni-cbr", SoakMode::Quick),
        soak::run_scenario("chassis-failover", SoakMode::Quick),
    ];
    let doc = soak::render_doc(SoakMode::Quick, &rows);
    assert_eq!(soak::gate_against(&doc, &doc).unwrap(), Vec::<String>::new());

    // Deliberate regression: claim the failover scenario used to run with
    // a fraction of today's drops — today's run must read as regressed.
    let mut base = rows.clone();
    base[1].slo.drop_ppm /= 10;
    let base_doc = soak::render_doc(SoakMode::Quick, &base);
    let v = soak::gate_against(&doc, &base_doc).unwrap();
    assert!(
        v.iter()
            .any(|m| m.contains("chassis-failover") && m.contains("drop_ppm")),
        "{v:?}"
    );

    // Absolute objective breach: a clean scenario reporting drops fails
    // even when the baseline agrees with it.
    let mut broken = rows.clone();
    broken[0].slo.drop_ppm = 50;
    broken[0].slo.drops = 1;
    let broken_doc = soak::render_doc(SoakMode::Quick, &broken);
    let v = soak::gate_against(&broken_doc, &broken_doc).unwrap();
    assert!(
        v.iter().any(|m| m.contains("ni-cbr") && m.contains("drop ratio")),
        "{v:?}"
    );
}
