//! Chassis conformance.
//!
//! The degenerate 1-card, preloaded-sourcing chassis is the single-NI
//! experiment of Figures 9–10 (`niload` runs exactly that configuration),
//! so the repro golden files pin its bytes. These tests gate the
//! chassis-side accounting of that configuration — every frame arrives,
//! the backlog identity holds, the bus is never touched — plus the
//! chassis trace-tagging invariant: a 1-card tagged export is the card's
//! untagged export with a constant `card=0 ` prefix.
//!
//! The `bus_order_*` tests pin three Path-B runs bit for bit: the bus
//! report, the lost frames, every migration and every stream's counts.
//! Their plans put a card death and productions of several streams on one
//! instant, ties that no repro golden reaches, so they gate the order in
//! which the shared bus serves requests made at the same time.

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

// ---------------------------------------------------------------------------
// Bus-order oracle: pinned Path-B runs whose same-instant ties (first
// productions, a card death, run-time productions, two period classes)
// the repro goldens and `BENCH_cluster.json` never exercise.
// ---------------------------------------------------------------------------

use nistream::serversim::chassis::{CardFailure, ChassisResult};
use nistream::workload::mpegclient::MpegClient;
use simkit::SimTime;

const NTSC_NS: u64 = 33_333_333;
const CADENCE_40MS_NS: u64 = 40_000_000;

/// `n` clients at 260 kb/s; client `i` has period `period(i)` and connects
/// at `i × spread_ns / n`.
fn spread_plan(n: usize, spread_ns: u64, period: impl Fn(usize) -> u64) -> ClientPlan {
    let clients = (0..n)
        .map(|i| MpegClient {
            name: format!("s{i}"),
            connect_at: SimTime::from_nanos(spread_ns * i as u64 / n as u64),
            period: period(i),
            loss_num: 2,
            loss_den: 8,
            bitrate: 260_000,
            vbr: None,
        })
        .collect();
    ClientPlan { clients }
}

fn path_b(cards: usize, plan: ClientPlan, run_ms: u64, failure: Option<CardFailure>) -> ChassisConfig {
    let run = SimDuration::from_millis(run_ms);
    ChassisConfig {
        cards,
        plan,
        frames_per_stream: (run.as_nanos() / NTSC_NS) as usize + 2,
        run,
        ni_cache: true,
        trace_capacity: 0,
        sourcing: Sourcing::PathB,
        failure,
        batch_budget: 1,
    }
}

/// FNV-1a over `s`: pins a long listing in one number.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What a bus-order change could move: the bus report, the lost frames,
/// the migrations in order, and every stream's counts. Returns the bus
/// line and digests of the migration and stream listings.
fn bus_record(r: &ChassisResult) -> (String, u64, u64) {
    let bus = format!(
        "grants={} max_queue={} util={:#018x} wait={:#018x} lost={} migrations={}",
        r.bus.grants,
        r.bus.max_queue,
        r.bus.utilization.to_bits(),
        r.bus.mean_wait_ms.to_bits(),
        r.lost_frames,
        r.migrations.len()
    );
    let migrations: String = r
        .migrations
        .iter()
        .map(|m| {
            format!(
                "{} {}->{:?} frames={} bytes={} at={}\n",
                m.stream, m.from, m.to, m.frames_moved, m.bytes_moved, m.completed_at_ns
            )
        })
        .collect();
    let streams: String = r
        .streams
        .iter()
        .map(|s| {
            format!(
                "{} {} {} {} {}\n",
                s.global, s.produced, s.arrived, s.series.sent, s.series.dropped
            )
        })
        .collect();
    (bus, fnv1a(&migrations), fnv1a(&streams))
}

/// (a) A saturated bus under two period classes: 16 cards, 640 clients
/// alternating NTSC and a 40 ms cadence, connecting over three NTSC
/// periods, so first productions interleave with run-time ones of both
/// classes.
#[test]
fn bus_order_with_two_period_classes_is_pinned() {
    let plan = spread_plan(640, 3 * NTSC_NS, |i| if i % 2 == 0 { NTSC_NS } else { CADENCE_40MS_NS });
    let r = chassis::run(path_b(16, plan, 250, None));
    assert!(r.bus.max_queue > 100, "the bus must saturate");
    let bus = "grants=3842 max_queue=743 util=0x3fedcf01fb357f1a wait=0x4036e4657a2c8b8a lost=0 migrations=0";
    assert_eq!(
        bus_record(&r),
        (bus.to_string(), 0xcbf2_9ce4_8422_2325, 12_865_627_466_720_474_864)
    );
}

/// (b) Card 1 dies at exactly the first production instant of stream 13,
/// which it owns: that frame was produced before the death, crosses the
/// bus first and reaches the stream's new card, and the eight state
/// transfers queue behind it.
#[test]
fn bus_order_with_a_death_at_a_first_production_is_pinned() {
    let plan = spread_plan(24, 2 * NTSC_NS, |_| NTSC_NS);
    let at = plan.clients[13].connect_at.as_nanos();
    assert!(at > NTSC_NS, "stream 13 connects after other streams' second frames");
    let failure = CardFailure {
        card: 1,
        at: SimDuration::from_nanos(at),
    };
    let r = chassis::run(path_b(3, plan, 250, Some(failure)));
    assert_eq!(r.streams[13].card, Some(0));
    assert!(r.migrations.iter().all(|m| m.to.is_some()));
    let bus = "grants=178 max_queue=9 util=0x3faa607c05c97643 wait=0x3fa9e6eca42bae1b lost=0 migrations=8";
    assert_eq!(
        bus_record(&r),
        (bus.to_string(), 264_405_515_420_744_465, 8_893_834_355_052_171_985)
    );
}

/// (c) Twelve full cards on a saturated bus; card 1 dies at the fourth
/// production instant of its last stream. Survivors have room for a few of
/// its streams, the rest (that one included) are torn down: frames they
/// produced before the death still cross the bus and count as lost, and
/// none is produced after it.
#[test]
fn bus_order_with_a_death_at_a_later_production_is_pinned() {
    let plan = spread_plan(744, 2 * NTSC_NS, |_| NTSC_NS);
    let probe = chassis::run(path_b(12, plan.clone(), 1, None));
    let last = probe.streams.iter().rposition(|s| s.card == Some(1)).unwrap();
    let at = plan.clients[last].connect_at.as_nanos() + 3 * NTSC_NS;
    let failure = CardFailure {
        card: 1,
        at: SimDuration::from_nanos(at),
    };
    let r = chassis::run(path_b(12, plan, 250, Some(failure)));
    assert!(r.migrations.iter().any(|m| m.to.is_some()));
    assert!(r.migrations.iter().any(|m| m.stream == last && m.to.is_none()));
    assert_eq!(
        r.streams[last].produced, 3,
        "the frame due at the death is never produced"
    );
    assert!(r.lost_frames > 0 && r.bus.max_queue > 100);
    let bus = "grants=5096 max_queue=1734 util=0x3fef74c33cf97e35 wait=0x404de24a36dc4801 lost=110 migrations=62";
    assert_eq!(
        bus_record(&r),
        (bus.to_string(), 10_727_868_034_519_582_261, 14_207_613_903_477_085_625)
    );
}
