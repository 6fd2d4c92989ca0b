//! Chassis conformance.
//!
//! The degenerate 1-card, preloaded-sourcing chassis is the single-NI
//! experiment of Figures 9–10 (`niload` runs exactly that configuration),
//! so the repro golden files pin its bytes. These tests gate the
//! chassis-side accounting of that configuration — every frame arrives,
//! the backlog identity holds, the bus is never touched — plus the
//! chassis trace-tagging invariant: a 1-card tagged export is the card's
//! untagged export with a constant `card=0 ` prefix.

use nistream::serversim::chassis::{self, ChassisConfig, Sourcing};
use nistream::serversim::cluster::{node_capacity, NodeConfig};
use nistream::trace::{tagged_lines, to_lines, ChassisAggregate};
use nistream::workload::mpegclient::ClientPlan;
use simkit::SimDuration;

fn chassis_quick(trace_capacity: usize) -> ChassisConfig {
    ChassisConfig {
        cards: 1,
        plan: ClientPlan::two_streams(),
        frames_per_stream: 900,
        run: SimDuration::from_secs(30),
        ni_cache: true,
        trace_capacity,
        sourcing: Sourcing::Preloaded,
        failure: None,
        batch_budget: 1,
    }
}

#[test]
fn one_card_preloaded_chassis_accounts_every_frame() {
    let ch = chassis::run(chassis_quick(1 << 16));

    assert_eq!(ch.streams.len(), 2);
    for c in &ch.streams {
        assert_eq!(c.series.name, c.name);
        assert!(c.series.sent > 0, "{} dispatched nothing", c.name);
        assert!(c.admitted && c.alive);
        assert_eq!(c.card, Some(0));
        assert_eq!(c.arrived, 900);
        assert_eq!(c.backlog_at_end, c.arrived - c.series.sent - c.series.dropped);
        assert_eq!(c.produced, c.arrived);
    }
    assert_eq!(ch.cards.len(), 1);
    assert_eq!(ch.cards[0].trace.card, 0);

    // Nothing chassis-specific happened in the degenerate configuration.
    assert_eq!(ch.lost_frames, 0);
    assert!(ch.migrations.is_empty());
    assert_eq!(ch.bus.grants, 0, "preloaded sourcing never touches the bus");
}

#[test]
fn one_card_tagged_trace_is_prefixed_single_card_trace() {
    let ch = chassis::run(chassis_quick(1 << 16));
    let card = &ch.cards[0].trace;

    let tagged = tagged_lines(std::slice::from_ref(card));
    let plain = to_lines(&card.capture.events);
    assert!(!tagged.is_empty());
    let stripped: String = tagged
        .lines()
        .map(|l| {
            format!(
                "{}\n",
                l.strip_prefix("card=0 ")
                    .expect("every chassis line carries its card id")
            )
        })
        .collect();
    assert_eq!(stripped, plain, "tagged export = `card=0 ` + single-card export");

    // And the chassis aggregation of that capture equals the single-card
    // fold: per-card tier for card 0 and the total tier agree.
    let agg = ChassisAggregate::from_captures(std::slice::from_ref(card));
    let mut single = nistream::trace::Aggregate::new();
    single.fold_all(&card.capture.events);
    assert_eq!(agg.per_card.len(), 1);
    assert_eq!(agg.per_card[&0].total_dispatches(), single.total_dispatches());
    assert_eq!(agg.per_card[&0].total_drops(), single.total_drops());
    assert_eq!(agg.total.decisions, single.decisions);
    assert_eq!(agg.total.latency, single.latency);
    assert_eq!(agg.total.jitter, single.jitter);
}

#[test]
fn chassis_runs_are_deterministic() {
    let a = chassis::run(chassis_quick(1 << 14));
    let b = chassis::run(chassis_quick(1 << 14));
    for (x, y) in a.streams.iter().zip(&b.streams) {
        assert_eq!(x.series.qdelay, y.series.qdelay);
        assert_eq!(x.series.bandwidth.points(), y.series.bandwidth.points());
        assert_eq!(x.series.sent, y.series.sent);
    }
    assert_eq!(a.cards[0].trace, b.cards[0].trace);
    assert_eq!(a.mean_decision_us.to_bits(), b.mean_decision_us.to_bits());
}

#[test]
fn measured_capacity_cross_checks_analytic_cluster_model() {
    // One card, Path-B sourcing, offered well past service capacity: the
    // measured sustained-stream count must land near the closed-form
    // `cluster::node_capacity` prediction (≈47 streams/scheduler-NI).
    let run_for = SimDuration::from_secs(2);
    let rows = chassis::sweep_cards(&[1], 60, run_for);
    let measured = rows[0].sustained_streams;
    let cap = node_capacity(&NodeConfig::default());
    let analytic = cap.streams_per_scheduler_ni as f64;
    let ratio = measured / analytic;
    assert!(
        (0.7..=1.3).contains(&ratio),
        "measured {measured:.1} vs analytic {analytic:.0} streams (ratio {ratio:.2})"
    );

    // Bus case: past saturation (12 and 16 cards at 40 streams each) the
    // chassis sustains what the analytic PCI limit predicts, within ±5 %.
    let pci_limit = cap.pci_stream_limit as f64;
    for row in chassis::sweep_cards(&[12, 16], 40, run_for) {
        let ratio = row.sustained_streams / pci_limit;
        assert!(
            (0.95..=1.05).contains(&ratio),
            "{} cards: measured {:.1} vs analytic PCI limit {pci_limit:.0} streams (ratio {ratio:.3})",
            row.cards,
            row.sustained_streams
        );
    }
}
