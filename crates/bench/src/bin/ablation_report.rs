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
//! 4. Schedule representation (§3.1.1): the three `dwcs::repr` structures
//!    run the same steady-state decision kernel, and each decision's
//!    comparisons and touches are priced on the i960RD with its data
//!    cache on. Host wall-clock of the same structures is `perfbench`'s
//!    `dwcs.repr.*` rows.
//!
//! The four sections are independent: each renders to a string in its own
//! sweep cell and the strings print in section order.
//!
//! Run: `cargo run --release -p nistream-bench --bin ablation_report`

use dwcs::{BatchSoa, DualHeap, HeadKey, LinearScan, ScheduleRepr, StreamId, Work};
use fixedpt::ops::MathMode;
use hwsim::i960::I960Core;
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

/// Decisions priced per `(repr, streams)` cell of Ablation 4.
const REPR_DECISIONS: u64 = 4_096;

/// Request period of stream `i` (ns): ~1–2 ms, staggered so deadlines
/// interleave rather than march in lockstep.
fn period(i: u32) -> u64 {
    1_000_000 + u64::from(i) * 7_919
}

/// Admit `streams` periodic heads, then run [`REPR_DECISIONS`] decisions of
/// winner selection + re-key (`pop_min`, then `update` with the deadline
/// advanced by one period), so the structure stays full throughout.
/// Returns the summed work and i960RD decision time of those decisions.
fn price_decisions(r: &mut dyn ScheduleRepr, streams: u32) -> (Work, SimDuration) {
    for i in 0..streams {
        let key = HeadKey {
            deadline: period(i),
            x: 2,
            y: 8,
            arrival: u64::from(i),
        };
        r.update(StreamId(i), key);
    }
    let _ = r.peek_min();
    let _ = r.take_work();
    let mut core = I960Core::new().with_cache(true);
    let (mut total, mut time) = (Work::default(), SimDuration::ZERO);
    let first = u64::from(streams) + 1;
    for arrival in first..first + REPR_DECISIONS {
        let (sid, key) = r.pop_min().expect("every decision re-inserts its winner");
        let next = HeadKey {
            deadline: key.deadline + period(sid.0),
            arrival,
            ..key
        };
        r.update(sid, next);
        let work = r.take_work();
        total.add(work);
        time += core.decision_time(work, 0);
    }
    (total, time)
}

/// Ablation 4: schedule representation priced on the i960RD.
fn repr_cost() -> String {
    let per = |x: f64| format!("{:.1}", x / REPR_DECISIONS as f64);
    let mut rows = Vec::new();
    for n in [4u32, 16, 40, 1024] {
        let cap = n as usize;
        let reprs: [Box<dyn ScheduleRepr>; 3] = [
            Box::new(LinearScan::new(cap)),
            Box::new(DualHeap::new(cap)),
            Box::new(BatchSoa::new(cap)),
        ];
        for mut r in reprs {
            let (work, time) = price_decisions(r.as_mut(), n);
            rows.push(vec![
                n.to_string(),
                r.name().to_string(),
                per(work.compares as f64),
                per(work.touches as f64),
                per(time.as_micros_f64()),
            ]);
        }
    }
    // Leading newline: Ablation 3, printed before this one, ends without one.
    let mut out = String::from("\n");
    out += &format_table(
        &format!(
            "Ablation 4: schedule representation on the i960RD (cache on, fixed-point, {REPR_DECISIONS} decisions)"
        ),
        &["streams", "repr", "compares/dec", "touches/dec", "us/dec"],
        &rows,
    );
    let _ = writeln!(
        out,
        "at the tens of streams one NI holds, the fixed spine and ratio evaluations"
    );
    let _ = writeln!(
        out,
        "dominate: the structure moves a decision by under 5 %. Only at 1024 streams"
    );
    let _ = writeln!(
        out,
        "does the firmware's linear scan cost ~2.4x the dual heap (§3.1.1's trade-off)."
    );
    out
}

fn main() {
    let sections: Vec<Cell<'static, String>> = vec![
        Box::new(offload_targets),
        Box::new(ni_split),
        Box::new(bus_contention),
        Box::new(repr_cost),
    ];
    for section in par_sweep(sections) {
        print!("{section}");
    }
    if let Some(p) = trace_path() {
        // Ablations 1-2 are analytic, Ablation 4 prices a bare structure
        // and Ablation 3's chassis runs with tracing off, so the document
        // carries a labeled run with no events.
        write_trace(&p, &[("ablations", &TraceCapture::default())]);
    }
}
