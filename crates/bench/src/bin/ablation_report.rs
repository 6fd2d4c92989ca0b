//! Design-space ablations beyond the paper's tables:
//!
//! 1. Offload-target comparison — the same DWCS decision priced on the
//!    DVCM lineage's co-processors and hosts.
//! 2. Scheduler/producer NI split for a 6-slot node (§6's "careful
//!    balance").
//! 3. Shared-PCI-bus contention: a one-card Path-B chassis
//!    (`serversim::chassis`) under rising offered load. Admitted and
//!    sustained streams show the card saturating on CPU and wire while
//!    bus utilization and DMA wait show the bus far from full.
//!
//! The three sections are independent: each renders to a string in its own
//! sweep cell and the strings print in section order.
//!
//! Run: `cargo run --release -p nistream-bench --bin ablation_report`

use fixedpt::ops::MathMode;
use hwsim::profiles::{decision_us, ALL};
use nistream_bench::{format_table, par_sweep, trace_path, write_trace, Cell, TraceCapture};
use serversim::chassis;
use serversim::cluster::{node_capacity, sweep_ni_split, NodeConfig};
use simkit::SimDuration;
use std::fmt::Write as _;

/// Ablation 1: offload targets.
fn offload_targets() -> String {
    let rows: Vec<Vec<String>> = ALL
        .iter()
        .map(|p| {
            vec![
                p.name.to_string(),
                format!("{:.1}", decision_us(p, MathMode::FixedPoint, 40)),
                format!("{:.1}", decision_us(p, MathMode::SoftFloat, 40)),
                if p.has_fpu { "yes" } else { "no" }.into(),
            ]
        })
        .collect();
    let mut out = format_table(
        "Ablation 1: DWCS decision cost across offload targets (40 descriptor touches)",
        &["Target", "fixed-point (us)", "float (us)", "FPU"],
        &rows,
    );
    let _ = writeln!(
        out,
        "paper: host ~50 us vs i960RD ~65 us — \"comparable, although the i960RD"
    );
    let _ = writeln!(
        out,
        "is a much slower processor\"; fixed-point is what closes the gap.\n"
    );
    out
}

/// Ablation 2: scheduler/producer NI split.
fn ni_split() -> String {
    let node = NodeConfig::default();
    let cap = node_capacity(&node);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation 2: scheduler/producer NI balance (6-slot node, 260 kb/s streams)"
    );
    let _ = writeln!(
        out,
        "  per-NI limits: scheduler {} | producer {} | PCI {}",
        cap.streams_per_scheduler_ni, cap.streams_per_producer_ni, cap.pci_stream_limit
    );
    for (sched, streams) in sweep_ni_split(6, &node).expect("6-slot node sweeps cleanly") {
        let _ = writeln!(
            out,
            "  {sched} scheduler / {} producer NIs -> {streams:>4} streams",
            6 - sched
        );
    }
    let _ = writeln!(out);
    out
}

/// Ablation 3: shared-PCI contention on a one-card Path-B chassis.
fn bus_contention() -> String {
    let run_for = SimDuration::from_secs(5);
    let rows: Vec<Vec<String>> = [8, 16, 32, 64, 128]
        .into_iter()
        .flat_map(|offered| chassis::sweep_cards(&[1], offered, run_for))
        .map(|r| {
            vec![
                r.offered_streams.to_string(),
                r.admitted_streams.to_string(),
                r.delivered_frames.to_string(),
                format!("{:.1}", r.sustained_streams),
                format!("{:.1}", r.bus_utilization * 100.0),
                format!("{:.3}", r.mean_dma_wait_ms),
            ]
        })
        .collect();
    let mut out = format_table(
        "Ablation 3: shared-PCI contention, one-card Path-B chassis, 5 s runs (30 fps streams)",
        &[
            "offered",
            "admitted",
            "delivered",
            "sustained",
            "bus util %",
            "DMA wait ms",
        ],
        &rows,
    );
    let _ = writeln!(
        out,
        "one scheduler card saturates its CPU+wire budget at ~47 streams with the bus"
    );
    let _ = writeln!(
        out,
        "under 14 % busy; the bus itself saturates only at ~460 streams (~12 cards,"
    );
    let _ = writeln!(
        out,
        "BENCH_cluster.json), which is why peer-to-peer offload scales (§4.2.2)."
    );
    out
}

fn main() {
    let sections: Vec<Cell<'static, String>> =
        vec![Box::new(offload_targets), Box::new(ni_split), Box::new(bus_contention)];
    for section in par_sweep(sections) {
        print!("{section}");
    }
    if let Some(p) = trace_path() {
        // Ablations 1-2 are analytic and Ablation 3's chassis runs with
        // tracing off, so the document carries a labeled run with no events.
        write_trace(&p, &[("ablations", &TraceCapture::default())]);
    }
}
