//! The `BENCH_cluster.json` document: multi-NI chassis capacity —
//! aggregate scheduling throughput and sustained streams vs card count —
//! measured on the event-driven `serversim::chassis` simulation (Path-B
//! sourcing over the shared, FIFO-arbitrated PCI bus), plus one
//! fault-injected run exercising the stream rebalancer.
//!
//! These are *simulated-time* rates — decisions per simulated second and
//! full-rate stream-equivalents actually dispatched — so the document is
//! deterministic run to run; it replaces the closed-form `cluster` module
//! numbers with measured ones. The `bench_cluster` binary writes it to the
//! repository root, and `tests/repro_golden.rs` pins it byte for byte.

use serversim::chassis::{self, CardFailure, ChassisConfig, Sourcing};
use simkit::SimDuration;
use std::fmt::Write as _;

/// File name at the repository root.
pub const FILE: &str = "BENCH_cluster.json";
/// Schema tag.
pub const SCHEMA: &str = "nistream-bench/cluster/v1";
/// Streams offered per card: comfortably above one card's ≈47-stream
/// service capacity but inside its ≈63-stream admission cap, so capacity
/// (not admission) is what the sweep measures.
const PER_CARD: usize = 40;
/// Card counts swept: past the ≈12-card point where the bus saturates.
const CARD_COUNTS: [usize; 6] = [1, 2, 4, 8, 12, 16];
/// Simulated seconds per run.
const RUN_SECS: u64 = 2;

/// The measured benchmark: the table `bench_cluster` prints and the JSON
/// document it writes.
pub struct ClusterBench {
    /// Human-readable table, one row per card count, then the fault run.
    pub table: String,
    /// The `BENCH_cluster.json` body.
    pub doc: String,
}

/// Run the card sweep and the fault scenario and render both outputs.
pub fn render() -> ClusterBench {
    let run_for = SimDuration::from_secs(RUN_SECS);
    let mut table = format!("bench_cluster: {PER_CARD} streams/card offered, {RUN_SECS} s simulated\n\n");
    let _ = writeln!(
        table,
        "{:<6} {:>8} {:>9} {:>10} {:>11} {:>15} {:>9} {:>13} {:>6}",
        "cards", "offered", "admitted", "delivered", "sustained", "decisions/sec", "bus util", "dma wait ms", "lost"
    );

    let mut rows = String::new();
    for row in chassis::sweep_cards(&CARD_COUNTS, PER_CARD, run_for) {
        let _ = writeln!(
            table,
            "{:<6} {:>8} {:>9} {:>10} {:>11.1} {:>15.0} {:>9.3} {:>13.3} {:>6}",
            row.cards,
            row.offered_streams,
            row.admitted_streams,
            row.delivered_frames,
            row.sustained_streams,
            row.decisions_per_sec,
            row.bus_utilization,
            row.mean_dma_wait_ms,
            row.lost_frames
        );
        let _ = write!(
            rows,
            "{}    {{ \"cards\": {}, \"offered_streams\": {}, \"admitted_streams\": {}, \
             \"delivered_frames\": {}, \"sustained_streams\": {:.3}, \"decisions_per_sec\": {:.1}, \
             \"bus_utilization\": {:.6}, \"mean_dma_wait_ms\": {:.6}, \"lost_frames\": {} }}",
            if rows.is_empty() { "" } else { ",\n" },
            row.cards,
            row.offered_streams,
            row.admitted_streams,
            row.delivered_frames,
            row.sustained_streams,
            row.decisions_per_sec,
            row.bus_utilization,
            row.mean_dma_wait_ms,
            row.lost_frames
        );
    }

    // Fault-injection scenario: a 4-card chassis loses card 1 mid-run; the
    // rebalancer must migrate its streams with zero lost frames.
    let fault_cards = 4;
    let plan = chassis::uniform_plan(fault_cards * 8, run_for);
    let period = 33_333_333u64;
    let frames = (run_for.as_nanos() / period) as usize + 2;
    let r = chassis::run(ChassisConfig {
        cards: fault_cards,
        plan,
        frames_per_stream: frames,
        run: run_for,
        ni_cache: true,
        trace_capacity: 0,
        sourcing: Sourcing::PathB,
        failure: Some(CardFailure {
            card: 1,
            at: SimDuration::from_nanos(run_for.as_nanos() / 2),
        }),
        batch_budget: 1,
    });
    let migrated = r.migrations.iter().filter(|m| m.to.is_some()).count();
    let _ = writeln!(
        table,
        "\nfault run: {fault_cards} cards, card 1 dies at {:.1} s -> {migrated} stream(s) migrated, {} frame(s) lost",
        run_for.as_secs_f64() / 2.0,
        r.lost_frames
    );
    let fault = format!(
        "{{ \"cards\": {fault_cards}, \"failed_card\": 1, \"migrated_streams\": {migrated}, \"lost_frames\": {} }}",
        r.lost_frames
    );

    let doc = format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"mode\": \"full\",\n  \"per_card\": {PER_CARD},\n  \"run_secs\": {RUN_SECS},\n  \"results\": [\n{rows}\n  ],\n  \"fault\": {fault}\n}}\n"
    );
    ClusterBench { table, doc }
}
