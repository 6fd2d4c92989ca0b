//! Rebalancer and placement invariants for the multi-NI chassis.
//!
//! The fault-injection acceptance bar: a deterministic mid-run card death
//! completes with **zero lost frames** and with every stream's frame
//! accounting intact — each produced frame is either dispatched, dropped
//! by DWCS policy, queued, or still crossing the bus, and no frame is
//! dispatched twice (checked against the per-card trace rings through the
//! card→global stream maps). Placement must also be a pure function of
//! the load set, independent of card iteration order.

use nistream::dwcs::StreamQos;
use nistream::serversim::chassis::{self, place, service_estimate_ns, CardFailure, CardLoad, ChassisConfig, Sourcing};
use nistream::trace::TraceEvent;
use nistream::workload::mpegclient::ClientPlan;
use proptest::prelude::*;
use simkit::SimDuration;
use std::collections::HashSet;

/// A 4-card Path-B chassis that loses card 1 halfway through a 2 s run,
/// with per-card tracing on so dispatches can be audited.
fn fault_run() -> chassis::ChassisResult {
    chassis::run(fault_cfg())
}

fn fault_cfg() -> ChassisConfig {
    let run_for = SimDuration::from_secs(2);
    let period = 33_333_333u64;
    ChassisConfig {
        cards: 4,
        plan: chassis::uniform_plan(32, run_for),
        frames_per_stream: (run_for.as_nanos() / period) as usize + 2,
        run: run_for,
        ni_cache: true,
        trace_capacity: 1 << 16,
        sourcing: Sourcing::PathB,
        failure: Some(CardFailure {
            card: 1,
            at: SimDuration::from_secs(1),
        }),
        batch_budget: 1,
    }
}

/// Replay every placement of a finished run with [`place`] over
/// [`CardLoad`]s rebuilt from each card's admitted list, and check each
/// choice equals the one the chassis made from its cached folds: the plan
/// in order, then the dead card's streams in global order, the order the
/// rebalancer re-places them. Returns the distinct service times priced.
fn assert_placements_replay(cfg: &ChassisConfig, r: &chassis::ChassisResult) -> HashSet<u64> {
    let dead = cfg.failure.expect("a run with a card death").card;
    let mut lists: Vec<Vec<(usize, StreamQos)>> = vec![Vec::new(); cfg.cards];
    let loads = |lists: &[Vec<(usize, StreamQos)>], dead: Option<usize>| -> Vec<CardLoad> {
        lists
            .iter()
            .enumerate()
            .map(|(card, list)| CardLoad {
                card,
                dead: Some(card) == dead,
                admitted: list.iter().map(|&(_, q)| q).collect(),
            })
            .collect()
    };
    let spec = |g: usize| {
        let c = &cfg.plan.clients[g];
        let service = service_estimate_ns(ClientPlan::frame_bytes(c), cfg.ni_cache);
        (StreamQos::new(c.period, c.loss_num, c.loss_den), service)
    };
    let mut services = HashSet::new();
    for g in 0..cfg.plan.clients.len() {
        let (qos, service) = spec(g);
        services.insert(service);
        let first = r.migrations.iter().find(|m| m.stream == g).map(|m| m.from);
        let made = first.or(r.streams[g].card);
        assert_eq!(
            place(&loads(&lists, None), qos, service),
            made,
            "initial placement of stream {g}"
        );
        if let Some(card) = made {
            lists[card].push((g, qos));
        }
    }
    let mut migrations = r.migrations.clone();
    migrations.sort_by_key(|m| m.stream);
    for m in &migrations {
        assert_eq!(m.from, dead);
        let (qos, service) = spec(m.stream);
        lists[dead].retain(|&(g, _)| g != m.stream);
        assert_eq!(
            place(&loads(&lists, Some(dead)), qos, service),
            m.to,
            "re-placement of stream {}",
            m.stream
        );
        if let Some(card) = m.to {
            lists[card].push((m.stream, qos));
        }
    }
    assert!(lists[dead].is_empty(), "every stream on the dead card was re-placed");
    services
}

#[test]
fn cached_fold_placement_matches_place_over_rebuilt_loads() {
    let cfg = fault_cfg();
    let r = chassis::run(cfg.clone());
    assert!(!r.migrations.is_empty());
    assert_placements_replay(&cfg, &r);

    // Mixed periods, tolerances and frame sizes: consecutive placements
    // price different service times, so the cards' folds keep missing and
    // refolding.
    let mut mixed = fault_cfg();
    let run_for = mixed.run;
    mixed.plan = chassis::uniform_plan(96, run_for);
    let periods = [33_333_333u64, 40_000_000, 25_000_000];
    for (i, c) in mixed.plan.clients.iter_mut().enumerate() {
        c.period = periods[i % 3];
        (c.loss_num, c.loss_den) = [(2, 8), (0, 1), (1, 4), (3, 8)][i % 4];
        c.bitrate = [260_000, 2_000_000, 800_000, 4_000_000, 1_500_000][i % 5];
    }
    mixed.frames_per_stream = (run_for.as_nanos() / periods[2]) as usize + 2;
    let r = chassis::run(mixed.clone());
    let services = assert_placements_replay(&mixed, &r);
    assert!(services.len() > 1, "placements price more than one service time");
    // The load overruns the chassis: some streams are refused, and card 1's
    // death both re-homes and tears down streams.
    assert!(r.streams.iter().any(|s| !s.admitted));
    assert!(r.migrations.iter().any(|m| m.to.is_some()));
    assert!(r.migrations.iter().any(|m| m.to.is_none()));
}

#[test]
fn card_death_loses_no_frames_and_preserves_accounting() {
    let r = fault_run();

    assert_eq!(r.lost_frames, 0, "survivors must absorb every stream");
    assert!(r.cards[1].dead);
    let migrated: Vec<_> = r.migrations.iter().collect();
    assert!(!migrated.is_empty(), "card 1 owned streams before dying");
    assert!(migrated.iter().all(|m| m.to.is_some()), "every migration re-homed");
    assert!(migrated.iter().all(|m| m.to != Some(1) && m.from == 1));

    for s in &r.streams {
        assert!(s.admitted && s.alive, "{}", s.name);
        // Conservation: the bus and the migration holding area drain
        // before the run returns, so everything produced arrived.
        assert_eq!(s.produced, s.arrived, "{}: produced = arrived", s.name);
        assert_eq!(
            s.arrived,
            s.series.sent + s.series.dropped + s.backlog_at_end,
            "{}: arrived = sent + dropped + queued",
            s.name
        );
        assert!(s.series.sent > 0, "{}: kept streaming across the failure", s.name);
    }

    // Migrated streams kept their accounting across two cards: the series
    // merge means sent counts include pre-failure dispatches on card 1.
    let migrated_globals: HashSet<usize> = r.migrations.iter().map(|m| m.stream).collect();
    for g in &migrated_globals {
        let s = &r.streams[*g];
        assert_eq!(s.card, r.migrations.iter().find(|m| m.stream == *g).unwrap().to);
        // The migration pause can push a frame past its deadline, which
        // DWCS then *drops by policy* — that is accounted QoS behaviour
        // (within the 2/8 loss tolerance), not frame loss. It must stay a
        // blip, not a stall.
        assert!(
            s.series.dropped <= 2,
            "{}: migration blip exceeded loss tolerance ({} drops)",
            s.name,
            s.series.dropped
        );
    }
}

#[test]
fn no_frame_is_double_dispatched_across_cards() {
    let r = fault_run();

    // Audit every Dispatch trace event, mapping each card's local stream
    // id back to the chassis-global stream through the card's stream map.
    let mut seen: HashSet<(usize, u64)> = HashSet::new();
    let mut dispatches = 0u64;
    for card in &r.cards {
        for ev in &card.trace.capture.events {
            if let TraceEvent::Dispatch { stream, seq, .. } = *ev {
                let global = card.stream_map[stream as usize];
                dispatches += 1;
                assert!(
                    seen.insert((global, seq)),
                    "stream {global} frame {seq} dispatched twice (card {})",
                    card.card
                );
            }
        }
        assert_eq!(card.trace.capture.overflow, 0, "ring large enough to audit");
    }
    let sent: u64 = r.streams.iter().map(|s| s.series.sent).sum();
    assert_eq!(dispatches, sent, "every dispatch traced exactly once");
}

#[test]
fn fault_run_is_deterministic() {
    let a = fault_run();
    let b = fault_run();
    assert_eq!(a.lost_frames, b.lost_frames);
    assert_eq!(a.migrations.len(), b.migrations.len());
    for (x, y) in a.migrations.iter().zip(&b.migrations) {
        assert_eq!((x.stream, x.from, x.to), (y.stream, y.from, y.to));
        assert_eq!(x.completed_at_ns, y.completed_at_ns);
        assert_eq!(x.frames_moved, y.frames_moved);
    }
    for (x, y) in a.streams.iter().zip(&b.streams) {
        assert_eq!(x.series.sent, y.series.sent);
        assert_eq!(x.series.qdelay, y.series.qdelay);
    }
}

#[test]
fn capacity_scales_monotonically_to_bus_saturation() {
    let rows = chassis::sweep_cards(&[1, 2, 4, 6, 12, 16], 40, SimDuration::from_secs(1));
    for w in rows.windows(2) {
        assert!(
            w[1].sustained_streams >= w[0].sustained_streams * 0.98,
            "capacity regressed: {} cards -> {:.1}, {} cards -> {:.1}",
            w[0].cards,
            w[0].sustained_streams,
            w[1].cards,
            w[1].sustained_streams
        );
        assert!(w[1].bus_utilization >= w[0].bus_utilization);
    }
    assert_eq!(rows.iter().map(|r| r.lost_frames).sum::<u64>(), 0);
    // From 12 cards on the shared bus is the bottleneck: it is held the
    // whole run and adding cards adds no sustained streams.
    let saturated: Vec<_> = rows.iter().filter(|r| r.cards >= 12).collect();
    for r in &saturated {
        assert!(
            r.bus_utilization >= 0.99,
            "{} cards: bus {:.3}",
            r.cards,
            r.bus_utilization
        );
    }
    let (first, last) = (saturated[0], saturated[saturated.len() - 1]);
    assert!(
        (last.sustained_streams - first.sustained_streams).abs() <= first.sustained_streams * 0.01,
        "no plateau past bus saturation: {} cards -> {:.1}, {} cards -> {:.1}",
        first.cards,
        first.sustained_streams,
        last.cards,
        last.sustained_streams
    );
}

/// One scheduler card under rising offered load: delivery tracks the
/// offered rate until the card's CPU and wire saturate, then holds flat,
/// while the shared bus stays far from full — the card, not the bus, is
/// the one-card bottleneck.
#[test]
fn one_card_saturates_on_cpu_and_wire_not_the_bus() {
    let run_for = SimDuration::from_secs(5);
    let rows: Vec<_> = [8, 16, 32, 64, 128]
        .into_iter()
        .flat_map(|offered| chassis::sweep_cards(&[1], offered, run_for))
        .collect();
    for r in &rows {
        assert!(
            r.bus_utilization < 0.20,
            "{} offered: bus {:.3}",
            r.offered_streams,
            r.bus_utilization
        );
        assert_eq!(r.lost_frames, 0);
    }
    // Below saturation every offered stream is served at full rate.
    for r in rows.iter().filter(|r| r.offered_streams <= 32) {
        assert_eq!(r.admitted_streams, r.offered_streams);
        assert!(
            r.sustained_streams >= r.offered_streams as f64 * 0.95,
            "{} offered: sustained {:.1}",
            r.offered_streams,
            r.sustained_streams
        );
    }
    for w in rows.windows(2) {
        assert!(
            w[1].delivered_frames as f64 >= w[0].delivered_frames as f64 * 0.99,
            "delivery fell: {} offered -> {}, {} offered -> {}",
            w[0].offered_streams,
            w[0].delivered_frames,
            w[1].offered_streams,
            w[1].delivered_frames
        );
    }
    // Saturated: doubling the offered load moves delivery by under 1 %,
    // and the card delivers well under what was offered.
    let (sat, over) = (&rows[3], &rows[4]);
    let drift = (over.delivered_frames as f64 - sat.delivered_frames as f64).abs();
    assert!(drift <= sat.delivered_frames as f64 * 0.01, "{sat:?} vs {over:?}");
    assert!(over.sustained_streams < over.offered_streams as f64 * 0.5, "{over:?}");
}

proptest! {
    /// Placement is independent of card iteration order: permuting the
    /// load slice never changes which card id is chosen.
    #[test]
    fn placement_is_order_independent(
        admitted_counts in proptest::collection::vec(0usize..40, 2..8),
        dead_mask in proptest::collection::vec(any::<bool>(), 2..8),
        shuffle in proptest::collection::vec(any::<u64>(), 2..8),
    ) {
        let qos = StreamQos::new(33_333_333, 2, 8);
        let service = service_estimate_ns(1_083, true);
        let n = admitted_counts.len().min(dead_mask.len()).min(shuffle.len());
        let loads: Vec<CardLoad> = (0..n)
            .map(|i| CardLoad {
                card: i,
                dead: dead_mask[i],
                admitted: vec![qos; admitted_counts[i]],
            })
            .collect();
        let baseline = place(&loads, qos, service);

        // Deterministic permutation driven by the generated keys.
        let mut permuted: Vec<(u64, CardLoad)> =
            shuffle[..n].iter().copied().zip(loads.iter().cloned()).collect();
        permuted.sort_by_key(|&(k, _)| k);
        let permuted: Vec<CardLoad> = permuted.into_iter().map(|(_, l)| l).collect();

        prop_assert_eq!(place(&permuted, qos, service), baseline);

        // And reversing is a permutation too.
        let mut rev = loads.clone();
        rev.reverse();
        prop_assert_eq!(place(&rev, qos, service), baseline);
    }
}

/// SLO view of the fault run: folding the per-card rings into a chassis
/// aggregate, a mid-soak card death must read as a *bounded* disturbance
/// — a brief lateness spike and a small drop ratio while the rebalancer
/// re-homes card 1's streams, not a service collapse. This is the same
/// fold the soak harness's `chassis-failover` scenario gates in CI.
#[test]
fn card_death_slo_spike_is_bounded() {
    use nistream::trace::{ChassisAggregate, Slo};

    let r = fault_run();
    let captures: Vec<_> = r.cards.iter().map(|c| c.trace.clone()).collect();
    let slo = Slo::from_chassis(&ChassisAggregate::from_captures(&captures));

    assert!(
        slo.dispatches > 1_000,
        "fault run serves most frames ({} sent)",
        slo.dispatches
    );
    // The migration window costs a handful of frames, bounded well below
    // the streams' 2/8 loss tolerance.
    assert!(slo.drop_ppm < 50_000, "drop ratio {} ppm", slo.drop_ppm);
    assert!(slo.miss_ppm < 50_000, "miss ratio {} ppm", slo.miss_ppm);
    // Lateness spike during re-homing stays under a frame period.
    assert!(
        slo.max_late_ns < 33_333_333,
        "worst lateness {} ns exceeds one frame period",
        slo.max_late_ns
    );
    assert!(slo.p99_late_ns < 33_333_333, "p99 lateness {} ns", slo.p99_late_ns);
}
