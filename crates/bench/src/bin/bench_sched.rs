//! Scheduling-decision throughput across the six `dwcs::repr` schedule
//! representations (§3.1.1's data-structure experimentation), at stream
//! populations from 64 to 131,072.
//!
//! ## What a cell measures
//!
//! Each `(repr, streams)` cell times the **steady-state decision kernel**:
//! `n` periodic streams are admitted with staggered periods, the head key
//! of every stream is indexed, and then the harness clocks `rounds × n`
//! iterations of *winner selection + re-key* — `pop_min` followed by an
//! `update` re-inserting the winner's next head (deadline advanced by its
//! period, fresh FCFS stamp). That is exactly the work a DWCS decision asks
//! of its schedule representation, and every decision re-inserts, so the
//! structure stays at its full population for the whole measurement.
//!
//! ## Why not drive the full scheduler loop (the v1 harness bug)
//!
//! The previous harness drained a `DwcsScheduler` with a per-stream frame
//! budget of `(total / n).max(1)` and a wall clock advanced 10µs per
//! decision. That had two degenerate regimes at large `n`:
//!
//! * At `n ≥ total` the budget clamped to **one frame per stream**, so the
//!   drain never re-inserted: the sorted list collapsed to O(1) tail pops
//!   and reported an anomalous 11.4M decisions/s at 16,384 streams —
//!   faster than its 4,096-stream cell — measuring array pops, not
//!   schedule maintenance.
//! * The advancing clock overtook the staggered deadlines at large `n`,
//!   so a growing fraction of passes were multi-drop storms whose cost has
//!   nothing to do with the representation under test.
//!
//! The churn kernel has neither regime, and the scheduler's fixed
//! per-pass costs (window accounting, op metering, queue bookkeeping —
//! identical for every repr) no longer flatten the comparison.
//!
//! Cells report the **best of `reps` repetitions** (minimum wall time):
//! the representation's capability, insulated from scheduler noise.
//! O(n)-per-decision structures (linear scan, sorted list) are measured
//! through 16,384 streams; the sub-linear structures extend to 65,536 and
//! 131,072. Before timing, the harness replays one identical op sequence
//! — deliberately including equal-deadline ties — through all six
//! representations and asserts the winner sequences match.
//!
//! Emits `BENCH_sched.json` (schema `nistream-bench/sched/v2`) at the
//! repository root.
//!
//! Flags: `--quick` (CI smoke: fewer ops/reps, same schema and row set),
//! `--check` (validate the existing document and exit).

use dwcs::{BTreeRepr, BatchSoa, CalendarQueue, DualHeap, HeadKey, LinearScan, ScheduleRepr, SortedList, StreamId};
use nistream_bench::benchout::{check_flag, quick_flag, run_check, write_doc};
use std::fmt::Write as _;
use std::time::Instant;

const FILE: &str = "BENCH_sched.json";
const SCHEMA: &str = "nistream-bench/sched/v2";
const REQUIRED_KEYS: [&str; 8] = [
    "schema",
    "mode",
    "reps",
    "workload",
    "results",
    "repr",
    "streams",
    "decisions_per_sec",
];

/// Stream populations every representation is measured at (the paper's NI
/// holds tens of streams; the upper sizes probe asymptotics).
const DENSE_SIZES: [u32; 5] = [64, 256, 1024, 4096, 16384];
/// Populations only the sub-linear structures extend to.
const LARGE_SIZES: [u32; 2] = [65_536, 131_072];

/// Request period of stream `i` (ns): ~1–2ms, staggered so deadlines
/// interleave rather than march in lockstep.
fn period(i: u32) -> u64 {
    1_000_000 + u64::from(i) * 7_919
}

/// Admit `streams` heads into the representation and flush the bulk load.
fn fill<R: ScheduleRepr>(r: &mut R, streams: u32, arrival: &mut u64) {
    for i in 0..streams {
        r.update(
            StreamId(i),
            HeadKey {
                deadline: period(i),
                x: 2,
                y: 8,
                arrival: *arrival,
            },
        );
        *arrival += 1;
    }
    let _ = r.peek_min();
}

/// One timed rep of the decision kernel: `rounds × streams` iterations of
/// winner selection + re-key. Returns decisions per second.
fn churn<R: ScheduleRepr>(r: &mut R, streams: u32, rounds: u64) -> f64 {
    let ops = rounds * u64::from(streams);
    // analysis: allow(sim-determinism) reason="wall clock is the quantity being measured"
    let t0 = Instant::now();
    for arrival in u64::from(streams) + 1..u64::from(streams) + ops + 1 {
        let (sid, key) = r.pop_min().expect("churn keeps the schedule full");
        r.update(
            sid,
            HeadKey {
                deadline: key.deadline + period(sid.0),
                arrival,
                ..key
            },
        );
    }
    ops as f64 / t0.elapsed().as_secs_f64()
}

/// Best-of-reps measurement for one `(repr, streams)` cell.
fn measure<R: ScheduleRepr>(make: impl Fn() -> R, streams: u32, rounds: u64, reps: usize) -> f64 {
    (0..reps)
        .map(|_| {
            let mut r = make();
            let mut arrival = 0u64;
            fill(&mut r, streams, &mut arrival);
            let _ = r.take_work();
            churn(&mut r, streams, rounds)
        })
        .fold(0.0f64, f64::max)
}

/// Replay one op sequence — with deliberate equal-deadline ties — through
/// every representation and require identical winner orders. Guards the
/// harness itself: a cell is only comparable if the decisions agree.
fn cross_check() {
    fn winners<R: ScheduleRepr>(mut r: R) -> Vec<u32> {
        let n = 64u32;
        for i in 0..n {
            // i % 7 collides deadlines across streams: the tie rules run.
            r.update(
                StreamId(i),
                HeadKey {
                    deadline: 1_000 + u64::from(i % 7) * 100,
                    x: i % 3,
                    y: 4 + (i % 5),
                    arrival: u64::from(i),
                },
            );
        }
        let mut order = Vec::new();
        for (step, arrival) in (0..u64::from(n) * 4).zip(u64::from(n) + 1..) {
            let (sid, key) = r.pop_min().expect("cross-check keeps the schedule full");
            order.push(sid.0);
            if step % 5 == 4 {
                // Periodically leave the popped stream out for a step and
                // re-admit later, exercising remove/re-insert paths.
                r.remove(sid);
            }
            r.update(
                sid,
                HeadKey {
                    deadline: key.deadline + 1_000 + u64::from(sid.0 % 7) * 100,
                    arrival,
                    ..key
                },
            );
        }
        order
    }
    let reference = winners(LinearScan::new(64));
    assert_eq!(reference, winners(SortedList::new()), "sorted-list diverged");
    assert_eq!(reference, winners(DualHeap::new(64)), "dual-heap diverged");
    assert_eq!(reference, winners(BTreeRepr::new()), "btree diverged");
    assert_eq!(
        reference,
        winners(CalendarQueue::new(1_000_000, 32)),
        "calendar-queue diverged"
    );
    assert_eq!(reference, winners(BatchSoa::new(64)), "batch-soa diverged");
}

fn cells_for(n: u32, rounds: u64, reps: usize, large: bool) -> Vec<(&'static str, f64)> {
    let mut cells = Vec::new();
    if !large {
        cells.push(("linear-scan", measure(|| LinearScan::new(n as usize), n, rounds, reps)));
        cells.push(("sorted-list", measure(SortedList::new, n, rounds, reps)));
    }
    cells.push(("dual-heap", measure(|| DualHeap::new(n as usize), n, rounds, reps)));
    cells.push(("btree", measure(BTreeRepr::new, n, rounds, reps)));
    cells.push((
        "calendar-queue",
        measure(|| CalendarQueue::new(1_000_000, 32), n, rounds, reps),
    ));
    cells.push(("batch-soa", measure(|| BatchSoa::new(n as usize), n, rounds, reps)));
    cells
}

fn main() {
    if check_flag() {
        run_check(FILE, SCHEMA, &REQUIRED_KEYS);
    }
    cross_check();
    let quick = quick_flag();
    let (target_ops, reps) = if quick { (16_384u64, 2usize) } else { (65_536, 5) };
    let mode = if quick { "quick" } else { "full" };

    println!("bench_sched: {mode} mode, ~{target_ops} kernel ops/rep, {reps} reps, best-of-reps decisions/sec");
    println!("(winner-order cross-check across all six representations: ok)\n");
    println!("{:<10} {:>14}  {:>16}", "streams", "repr", "decisions/sec");

    let mut rows = String::new();
    let mut emit = |repr: &str, streams: u32, dps: f64| {
        let _ = write!(
            rows,
            "{}    {{ \"repr\": \"{repr}\", \"streams\": {streams}, \"decisions_per_sec\": {dps:.0} }}",
            if rows.is_empty() { "" } else { ",\n" },
        );
    };
    for &n in &DENSE_SIZES {
        let rounds = (target_ops / u64::from(n)).max(2);
        for (repr, dps) in cells_for(n, rounds, reps, false) {
            println!("{:<10} {:>14}  {:>16.0}", n, repr, dps);
            emit(repr, n, dps);
        }
    }
    for &n in &LARGE_SIZES {
        let rounds = (target_ops / u64::from(n)).max(2);
        for (repr, dps) in cells_for(n, rounds, reps, true) {
            println!("{:<10} {:>14}  {:>16.0}", n, repr, dps);
            emit(repr, n, dps);
        }
    }

    let body = format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"mode\": \"{mode}\",\n  \"reps\": {reps},\n  \"workload\": \"steady-state churn (winner selection + re-key), best-of-reps\",\n  \"results\": [\n{rows}\n  ]\n}}\n"
    );
    let path = write_doc(FILE, &body);
    println!("\nwrote {}", path.display());
}
