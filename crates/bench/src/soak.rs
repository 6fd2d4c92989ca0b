//! Long-run soak harness with integer SLO regression gates.
//!
//! Where the `repro_*` binaries regenerate one figure each, the soak
//! suite runs *hours of simulated time* across every placement the repo
//! models — single NI, host CPU, multi-card chassis — under the VBR /
//! ABR / churn workloads of `workload::{vbr, abr, churn}`, folds each
//! run's trace into an integer [`Slo`], and emits a stable-schema
//! `BENCH_slo.json` document. The checked-in quick-mode document is a
//! baseline: `soak --check` recomputes the quick suite and fails on any
//! SLO regression past [`SloMargin`] tolerances or any absolute
//! [`SloObjective`] breach.
//!
//! Every scenario is a pure function of its configuration — seeded
//! integer workload generators, the deterministic service cores, and a
//! drain-at-probe trace fold — so the emitted document is byte-identical
//! across reruns and across `par_sweep` thread counts. That is what makes
//! `==`-grade gating possible at all.

use crate::{host_config, par_sweep_with, sweep_threads, Cell, LoadLevel};
use dvcm::instr::{StreamSpec, VcmInstruction};
use dvcm::{ExtensionModule, MediaSchedExt};
use dwcs::scheduler::{Pacing, SchedDecision};
use dwcs::svc::{DispatchRecord, Platform};
use dwcs::{FrameKind, SchedulerConfig, StreamId};
use hwsim::{Ethernet, I960Core};
use mpeg1::Cadence;
use nistream_trace::{regressions, Aggregate, ChassisAggregate, Slo, SloMargin, SloObjective};
use serversim::chassis::{self, CardFailure, ChassisConfig, Sourcing};
use serversim::hostload;
use simkit::SimDuration;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use workload::abr::{AbrController, AbrLadder, AbrPolicy, Congestion};
use workload::churn::{ChurnConfig, ChurnGen};
use workload::vbr::{self, mean_frame_bytes, VbrSpec, VbrTraceGen};

/// Schema tag of the emitted document.
pub const SCHEMA: &str = "nistream-bench/slo/v1";
/// Quick-mode document (checked in as the regression baseline).
pub const FILE: &str = "BENCH_slo.json";
/// Full-mode document (checked in; CI pins its bytes).
pub const FULL_FILE: &str = "BENCH_slo_full.json";
/// Keys `benchout::validate_doc` requires in the emitted document.
pub const REQUIRED_KEYS: &[&str] = &[
    "mode",
    "rows",
    "scenario",
    "virtual_secs",
    "streams",
    "abr_switches",
    "dispatches",
    "drops",
    "late",
    "drop_ppm",
    "miss_ppm",
    "p99_late_ns",
    "max_late_ns",
    "max_backlog",
];

/// Scenario names, document order.
pub const SCENARIOS: [&str; 8] = [
    "ni-cbr",
    "ni-vbr",
    "ni-fixed-hi",
    "ni-abr",
    "ni-churn",
    "host-vbr",
    "chassis-vbr",
    "chassis-failover",
];

const NS_PER_SEC: u64 = 1_000_000_000;
/// Host-side probe cadence: drain and fold the trace ring, and derive
/// congestion from the fold, once per simulated second.
const PROBE_NS: u64 = NS_PER_SEC;
/// NI soak trace ring: must hold one probe interval of events (a 48-stream
/// overload emits ≈10 k events/s; 32 Ki leaves 3× headroom).
const RING_CAP: usize = 1 << 15;

/// Suite size.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SoakMode {
    /// CI smoke / baseline mode: minutes of virtual time, same scenarios.
    Quick,
    /// The soak proper: hours of virtual time in total.
    Full,
}

impl SoakMode {
    /// Label used in the document.
    pub fn label(self) -> &'static str {
        match self {
            SoakMode::Quick => "quick",
            SoakMode::Full => "full",
        }
    }
}

/// Virtual run length of one scenario, seconds.
pub fn duration_secs(scenario: &str, mode: SoakMode) -> u64 {
    let quick = matches!(mode, SoakMode::Quick);
    match scenario {
        // Sustainable loads soak longest — drift (counter wrap, address
        // cursor creep, heap decay) needs time to surface.
        "ni-cbr" | "ni-vbr" => {
            if quick {
                30
            } else {
                3_600
            }
        }
        // Overload scenarios grow backlog linearly; bounded so the heap
        // stays within the modelled NI memory.
        "ni-fixed-hi" | "ni-abr" => {
            if quick {
                20
            } else {
                300
            }
        }
        "ni-churn" => {
            if quick {
                30
            } else {
                600
            }
        }
        "host-vbr" => {
            if quick {
                30
            } else {
                600
            }
        }
        "chassis-vbr" | "chassis-failover" => {
            if quick {
                2
            } else {
                30
            }
        }
        _ => panic!("unknown soak scenario {scenario}"),
    }
}

/// One scenario's soak outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SoakRow {
    /// Scenario name (one of [`SCENARIOS`]).
    pub scenario: String,
    /// Virtual seconds simulated.
    pub virtual_secs: u64,
    /// Streams (or churn sessions) offered.
    pub streams: u64,
    /// ABR rung switches the controller performed.
    pub abr_switches: u64,
    /// Folded service-level summary.
    pub slo: Slo,
}

// ---------------------------------------------------------------------------
// NI soak world
// ---------------------------------------------------------------------------

/// The NI cost-model binding used by the soak loop: i960 decision and
/// dispatch pricing plus Ethernet wire occupancy. (The chassis cards, and with them the single-NI
/// experiment, run the richer `serversim::niload::NiWirePlatform`; this
/// one holds only what the SLO fold needs.)
struct SoakPlatform {
    now_ns: u64,
    core: I960Core,
    eth: Ethernet,
}

impl SoakPlatform {
    fn new() -> SoakPlatform {
        SoakPlatform {
            now_ns: 0,
            core: I960Core::new().with_cache(true),
            eth: Ethernet::new(),
        }
    }
}

impl Platform for SoakPlatform {
    fn now(&mut self) -> u64 {
        self.now_ns
    }

    fn set_now(&mut self, t: u64) {
        self.now_ns = t;
    }

    fn on_decision(&mut self, decision: &SchedDecision, backlog: u64) {
        self.now_ns += self.core.decision_time(decision.work, backlog.min(64)).as_nanos();
    }

    fn dispatch(&mut self, rec: &DispatchRecord) {
        self.now_ns += self.core.dispatch_time().as_nanos();
        self.now_ns += self.eth.send_occupancy(u64::from(rec.frame.desc.len)).as_nanos();
    }
}

/// One offered client session on the NI.
struct NiSession {
    connect_ns: u64,
    /// `u64::MAX` = plays to end of run.
    depart_ns: u64,
    bitrate: u64,
    vbr: Option<VbrSpec>,
}

struct AbrSetup {
    ladder: AbrLadder,
    policy: AbrPolicy,
    start: usize,
}

struct NiScenario {
    name: &'static str,
    run_secs: u64,
    /// Concurrent-session admission cap (churn); `usize::MAX` = unbounded.
    live_cap: usize,
    sessions: Vec<NiSession>,
    /// One chassis-wide controller steering every session's bitrate.
    abr: Option<AbrSetup>,
}

/// Per-session runtime state.
struct Slot {
    sid: StreamId,
    period_ns: u64,
    next_seq: u64,
    next_addr: u64,
    mean: u32,
    gen: Option<VbrTraceGen>,
    open: bool,
}

// Discrete event kinds, tie-break order: a session must open before it
// produces, departures beat same-instant production, production beats the
// service pass that would consume it, and the probe observes last.
const EV_OPEN: u8 = 0;
const EV_CLOSE: u8 = 1;
const EV_PROD: u8 = 2;
const EV_SVC: u8 = 3;
const EV_PROBE: u8 = 4;

/// One pending event: `(t, kind, session)`, ordered as a tuple, so ties on
/// `t` break by kind and then by session index.
type Event = (u64, u8, usize);

/// The session's next frame production, if it falls before both the end of
/// the run and the session's departure.
fn next_production(s: &NiSession, slot: &Slot, end: u64, i: usize) -> Option<Event> {
    let tp = s.connect_ns + slot.next_seq * slot.period_ns;
    (tp < end.min(s.depart_ns)).then_some((tp, EV_PROD, i))
}

fn consider(best: &mut Option<Event>, cand: Event) {
    if best.is_none_or(|b| cand < b) {
        *best = Some(cand);
    }
}

/// What the event picker did over one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct PickerStats {
    /// Events handed out, every kind counted.
    pub(crate) events: u64,
    /// Most session events (open sessions' productions and departures,
    /// plus the next arrival) competing at once.
    pub(crate) max_pending: usize,
}

/// The ABR probe: `agg`'s drop and late totals minus `seen` (the totals
/// at the previous probe, advanced here), plus the live `backlog`.
fn congestion_since(seen: &mut (u64, u64), agg: &Aggregate, backlog: u64) -> Congestion {
    let now = (agg.total_drops(), agg.total_late());
    let c = Congestion {
        backlog,
        drops: now.0 - seen.0,
        late: now.1 - seen.1,
    };
    *seen = now;
    c
}

/// Drive one NI scenario to `run_secs` of virtual time, folding the trace
/// at every probe tick, and summarize.
///
/// The picker costs O(log live) per event, however many sessions came and
/// went before: a min-heap holds each open session's next production and
/// its departure, arrivals are walked by a cursor (sessions are sorted by
/// connect time), and the service pass and probe are single candidates
/// compared against the heap top.
fn run_ni(sc: NiScenario) -> (SoakRow, PickerStats) {
    let end = sc.run_secs * NS_PER_SEC;
    let period = Cadence::NTSC.period_ns();
    let n = sc.sessions.len();
    assert!(
        sc.sessions.windows(2).all(|w| w[0].connect_ns <= w[1].connect_ns),
        "{}: sessions must be sorted by connect time",
        sc.name
    );

    let sched_cfg = SchedulerConfig {
        pacing: Pacing::DeadlinePaced,
        ..SchedulerConfig::default()
    };
    // Closed streams' ids are reused, so every id stays below the live cap.
    let live_max = n.min(sc.live_cap);
    let mut ext = MediaSchedExt::with_platform(live_max.max(1), sched_cfg, SoakPlatform::new());
    ext.enable_trace(RING_CAP);

    let mut slots: Vec<Slot> = sc
        .sessions
        .iter()
        .map(|s| {
            let mean = mean_frame_bytes(s.bitrate, period);
            Slot {
                sid: StreamId(0),
                period_ns: period,
                next_seq: 0,
                next_addr: 0xA000_0000,
                mean,
                gen: s.vbr.clone().map(|spec| VbrTraceGen::new(spec, mean)),
                open: false,
            }
        })
        .collect();
    let mut abr = sc.abr.map(|a| AbrController::new(a.ladder, a.policy, a.start));
    let mut pending: BinaryHeap<Reverse<Event>> = BinaryHeap::with_capacity(2 * live_max);
    let mut arrivals = 0usize;
    let mut stats = PickerStats::default();
    let mut live = 0usize;
    let mut clock = 0u64;
    let mut next_probe = PROBE_NS;
    let mut agg = Aggregate::new();
    // The fold's (drops, late) totals at the previous probe.
    let mut seen = (0u64, 0u64);
    let mut switches = 0u64;

    loop {
        let mut best = pending.peek().map(|&Reverse(e)| e);
        let arrival = sc.sessions.get(arrivals).filter(|s| s.connect_ns < end);
        stats.max_pending = stats.max_pending.max(pending.len() + usize::from(arrival.is_some()));
        if let Some(s) = arrival {
            consider(&mut best, (s.connect_ns, EV_OPEN, arrivals));
        }
        if let Some(t) = ext.scheduler_mut().next_eligible() {
            if t < end {
                consider(&mut best, (t, EV_SVC, usize::MAX));
            }
        }
        if next_probe <= end {
            consider(&mut best, (next_probe, EV_PROBE, usize::MAX));
        }

        let Some((t, kind, i)) = best else { break };
        stats.events += 1;
        match kind {
            EV_OPEN => {
                arrivals += 1;
                if live >= sc.live_cap {
                    // Admission-capped arrival: the session never starts.
                    continue;
                }
                let (s, slot) = (&sc.sessions[i], &mut slots[i]);
                let reply = ext.on_instruction(
                    VcmInstruction::OpenStream(StreamSpec {
                        period: slot.period_ns,
                        loss_num: 2,
                        loss_den: 8,
                        droppable: true,
                    }),
                    t,
                );
                assert_eq!(reply.status, 0, "soak stream admission");
                slot.sid = StreamId(reply.payload[0]);
                slot.open = true;
                live += 1;
                if s.depart_ns < end {
                    pending.push(Reverse((s.depart_ns, EV_CLOSE, i)));
                }
                pending.extend(next_production(s, slot, end, i).map(Reverse));
            }
            EV_CLOSE => {
                // Productions are pushed only before the departure, so a
                // closing session leaves nothing else in the heap.
                pending.pop();
                let slot = &mut slots[i];
                ext.on_instruction(VcmInstruction::CloseStream(slot.sid), t);
                slot.open = false;
                live -= 1;
            }
            EV_PROD => {
                let slot = &mut slots[i];
                let (len, fkind) = match slot.gen.as_mut() {
                    Some(g) => {
                        let f = g.frame(slot.next_seq);
                        (f.len, vbr::frame_kind(f.kind))
                    }
                    None => (slot.mean, FrameKind::P),
                };
                // Frames DMA into NI memory without consuming NI CPU:
                // production stamps arrival time but never moves `clock`.
                ext.on_instruction(
                    VcmInstruction::EnqueueFrame {
                        stream: slot.sid,
                        addr: slot.next_addr,
                        len,
                        kind: fkind,
                    },
                    t,
                );
                slot.next_seq += 1;
                slot.next_addr += u64::from(len);
                // The session's next production takes this one's place.
                let mut top = pending.peek_mut().expect("production comes from the heap");
                match next_production(&sc.sessions[i], slot, end, i) {
                    Some(e) => *top = Reverse(e),
                    None => {
                        PeekMut::pop(top);
                    }
                }
            }
            EV_SVC => {
                clock = clock.max(t);
                let _ = ext.poll_decision(clock);
                clock = ext.platform().now_ns;
            }
            EV_PROBE => {
                let cap = ext.drain_trace();
                assert_eq!(cap.overflow, 0, "{}: soak ring overflowed", sc.name);
                agg.fold_all(&cap.events);
                if let Some(ctrl) = abr.as_mut() {
                    let c = congestion_since(&mut seen, &agg, ext.scheduler().total_backlog());
                    if let Some(rate) = ctrl.on_probe(&c) {
                        switches += 1;
                        for slot in slots.iter_mut().filter(|s| s.open) {
                            slot.mean = mean_frame_bytes(rate, slot.period_ns);
                            // A VBR generator is seekable: rebuilding it
                            // at the new mean continues mid-stream.
                            if let Some(g) = &slot.gen {
                                slot.gen = Some(VbrTraceGen::new(g.spec().clone(), slot.mean));
                            }
                        }
                    }
                }
                next_probe += PROBE_NS;
            }
            _ => unreachable!(),
        }
    }

    let cap = ext.drain_trace();
    assert_eq!(cap.overflow, 0, "{}: soak ring overflowed at drain", sc.name);
    agg.fold_all(&cap.events);

    let row = SoakRow {
        scenario: sc.name.to_string(),
        virtual_secs: sc.run_secs,
        streams: n as u64,
        abr_switches: switches,
        slo: Slo::from_aggregate(&agg),
    };
    (row, stats)
}

/// `n` identical sessions phase-spread across one period, playing to the
/// end of the run.
fn fixed_sessions(n: usize, bitrate: u64, vbr_of: impl Fn(usize) -> Option<VbrSpec>) -> Vec<NiSession> {
    let period = Cadence::NTSC.period_ns();
    (0..n)
        .map(|i| NiSession {
            connect_ns: period * i as u64 / n.max(1) as u64,
            depart_ns: u64::MAX,
            bitrate,
            vbr: vbr_of(i),
        })
        .collect()
}

/// Heavy-tailed churn schedule: bounded-Pareto interarrivals and session
/// lengths (most sessions short, a few marathons), VBR payloads.
fn churn_sessions(run_secs: u64) -> Vec<NiSession> {
    let end = run_secs * NS_PER_SEC;
    let cfg = ChurnConfig {
        interarrival_lo_ns: 100_000_000, // 100 ms
        interarrival_hi_ns: 10 * NS_PER_SEC,
        session_lo_ns: 2 * NS_PER_SEC,
        session_hi_ns: 60 * NS_PER_SEC,
        seed: 7,
    };
    ChurnGen::new(cfg)
        .take_while(|s| s.arrive_ns < end)
        .map(|s| NiSession {
            connect_ns: s.arrive_ns,
            depart_ns: s.arrive_ns.saturating_add(s.duration_ns),
            bitrate: 260_000,
            vbr: Some(VbrSpec::classic(u64::from(s.index))),
        })
        .collect()
}

/// The churn scenario: heavy-tailed sessions behind a 32-session live cap.
fn churn_scenario(run_secs: u64) -> NiScenario {
    NiScenario {
        name: "ni-churn",
        run_secs,
        live_cap: 32,
        sessions: churn_sessions(run_secs),
        abr: None,
    }
}

/// The overload population: one 10 Mb/s NI sustains ≈39 such streams;
/// offering 48 keeps the wire saturated for the whole run.
const OVERLOAD_STREAMS: usize = 48;

fn abr_setup() -> AbrSetup {
    let ladder = AbrLadder::new(vec![65_000, 130_000, 260_000]);
    let start = ladder.top();
    AbrSetup {
        ladder,
        policy: AbrPolicy {
            backlog_high: 64,
            upswitch_after: 8,
        },
        start,
    }
}

// ---------------------------------------------------------------------------
// Host and chassis scenarios
// ---------------------------------------------------------------------------

/// Host-CPU placement under the 45 %-level web load with VBR streams —
/// the contended placement the paper's Figures 7–8 degrade under.
fn run_host(run_secs: u64) -> SoakRow {
    let mut cfg = host_config(LoadLevel::Avg45, run_secs);
    for (i, c) in cfg.plan.clients.iter_mut().enumerate() {
        c.vbr = Some(VbrSpec::classic(i as u64));
    }
    let streams = cfg.plan.clients.len() as u64;
    // A full-mode host soak emits more events than the figure runs'
    // 64 Ki rings hold; size by duration.
    cfg.trace_capacity = 1 << 18;
    let r = hostload::run(cfg);
    assert_eq!(r.trace.overflow, 0, "host-vbr: trace ring overflowed");
    let mut agg = Aggregate::new();
    agg.fold_all(&r.trace.events);
    SoakRow {
        scenario: "host-vbr".to_string(),
        virtual_secs: run_secs,
        streams,
        abr_switches: 0,
        slo: Slo::from_aggregate(&agg),
    }
}

/// A Path-B chassis soak; `failover` kills card 1 mid-run and rides the
/// rebalancer (the SLO then includes the migration disturbance).
fn run_chassis(name: &'static str, run_secs: u64, failover: bool) -> SoakRow {
    let run_for = SimDuration::from_secs(run_secs);
    let period = Cadence::NTSC.period_ns();
    let (cards, streams) = if failover { (4, 32) } else { (3, 24) };
    let mut plan = chassis::uniform_plan(streams, run_for);
    if !failover {
        for (i, c) in plan.clients.iter_mut().enumerate() {
            c.vbr = Some(VbrSpec::classic(i as u64));
        }
    }
    let r = chassis::run(ChassisConfig {
        cards,
        plan,
        frames_per_stream: (run_for.as_nanos() / period) as usize + 2,
        run: run_for,
        ni_cache: true,
        trace_capacity: 1 << 16,
        sourcing: Sourcing::PathB,
        failure: failover.then(|| CardFailure {
            card: 1,
            at: SimDuration::from_secs(run_secs / 2),
        }),
        batch_budget: 1,
    });
    assert_eq!(r.lost_frames, 0, "{name}: chassis soak lost frames");
    let captures: Vec<_> = r.cards.iter().map(|c| c.trace.clone()).collect();
    let ca = ChassisAggregate::from_captures(&captures);
    SoakRow {
        scenario: name.to_string(),
        virtual_secs: run_secs,
        streams: streams as u64,
        abr_switches: 0,
        slo: Slo::from_chassis(&ca),
    }
}

// ---------------------------------------------------------------------------
// Suite
// ---------------------------------------------------------------------------

/// Run one scenario by name.
pub fn run_scenario(name: &str, mode: SoakMode) -> SoakRow {
    let secs = duration_secs(name, mode);
    let sc = match name {
        "ni-cbr" => NiScenario {
            name: "ni-cbr",
            run_secs: secs,
            live_cap: usize::MAX,
            sessions: fixed_sessions(4, 260_000, |_| None),
            abr: None,
        },
        "ni-vbr" => NiScenario {
            name: "ni-vbr",
            run_secs: secs,
            live_cap: usize::MAX,
            sessions: fixed_sessions(4, 260_000, |i| Some(VbrSpec::classic(i as u64))),
            abr: None,
        },
        "ni-fixed-hi" => NiScenario {
            name: "ni-fixed-hi",
            run_secs: secs,
            live_cap: usize::MAX,
            sessions: fixed_sessions(OVERLOAD_STREAMS, 260_000, |_| None),
            abr: None,
        },
        "ni-abr" => NiScenario {
            name: "ni-abr",
            run_secs: secs,
            live_cap: usize::MAX,
            sessions: fixed_sessions(OVERLOAD_STREAMS, 260_000, |_| None),
            abr: Some(abr_setup()),
        },
        "ni-churn" => churn_scenario(secs),
        "host-vbr" => return run_host(secs),
        "chassis-vbr" => return run_chassis("chassis-vbr", secs, false),
        "chassis-failover" => return run_chassis("chassis-failover", secs, true),
        _ => panic!("unknown soak scenario {name}"),
    };
    run_ni(sc).0
}

/// Run the whole suite across `threads` sweep workers. Results come back
/// in [`SCENARIOS`] order regardless of thread count, and each scenario is
/// deterministic, so the rendered document is byte-identical for any
/// `threads`.
pub fn rows_with(mode: SoakMode, threads: usize) -> Vec<SoakRow> {
    let cells: Vec<Cell<'static, SoakRow>> = SCENARIOS
        .iter()
        .map(|&name| -> Cell<'static, SoakRow> { Box::new(move || run_scenario(name, mode)) })
        .collect();
    par_sweep_with(threads, cells)
}

/// Run the whole suite at the ambient sweep width.
pub fn rows(mode: SoakMode) -> Vec<SoakRow> {
    rows_with(mode, sweep_threads())
}

// ---------------------------------------------------------------------------
// Document
// ---------------------------------------------------------------------------

/// Render the stable-schema JSON document (fixed key order, one row per
/// line — diffs stay row-aligned across commits).
pub fn render_doc(mode: SoakMode, rows: &[SoakRow]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(s, "  \"mode\": \"{}\",", mode.label());
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"scenario\": \"{}\", \"virtual_secs\": {}, \"streams\": {}, \
             \"abr_switches\": {}, \"dispatches\": {}, \"drops\": {}, \"late\": {}, \
             \"drop_ppm\": {}, \"miss_ppm\": {}, \"p99_late_ns\": {}, \
             \"max_late_ns\": {}, \"max_backlog\": {}}}{sep}",
            r.scenario,
            r.virtual_secs,
            r.streams,
            r.abr_switches,
            r.slo.dispatches,
            r.slo.drops,
            r.slo.late,
            r.slo.drop_ppm,
            r.slo.miss_ppm,
            r.slo.p99_late_ns,
            r.slo.max_late_ns,
            r.slo.max_backlog,
        );
    }
    s.push_str("  ]\n}\n");
    s
}

fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\": \"");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    Some(&rest[..rest.find('"')?])
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let digits: String = line[start..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Parse a document produced by [`render_doc`] (or hand-edited to the
/// same shape) back into rows.
pub fn parse_doc(doc: &str) -> Result<Vec<SoakRow>, String> {
    let tag = format!("\"schema\": \"{SCHEMA}\"");
    if !doc.contains(&tag) {
        return Err(format!("missing or wrong schema tag (want {SCHEMA})"));
    }
    let mut rows = Vec::new();
    for line in doc.lines().filter(|l| l.contains("\"scenario\":")) {
        let get = |key: &str| field_u64(line, key).ok_or_else(|| format!("row line missing \"{key}\": {line}"));
        rows.push(SoakRow {
            scenario: field_str(line, "scenario")
                .ok_or_else(|| format!("row line missing scenario: {line}"))?
                .to_string(),
            virtual_secs: get("virtual_secs")?,
            streams: get("streams")?,
            abr_switches: get("abr_switches")?,
            slo: Slo {
                dispatches: get("dispatches")?,
                drops: get("drops")?,
                late: get("late")?,
                drop_ppm: get("drop_ppm")?,
                miss_ppm: get("miss_ppm")?,
                p99_late_ns: get("p99_late_ns")?,
                max_late_ns: get("max_late_ns")?,
                max_backlog: get("max_backlog")?,
            },
        });
    }
    if rows.is_empty() {
        return Err("document has no rows".to_string());
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Gates
// ---------------------------------------------------------------------------

/// Absolute objective for a scenario, where one is meaningful.
/// Ceilings are set ≳4× above the measured quick-mode baseline so they
/// catch order-of-magnitude breakage, not run-length wobble; the tighter
/// baseline comparison in [`gate_against`] catches drift. Deliberately
/// overloaded scenarios (`ni-fixed-hi`) carry no absolute objective —
/// their job is to be the degraded contrast.
pub fn objective(scenario: &str) -> Option<SloObjective> {
    match scenario {
        // An unloaded NI never drops and never dispatches late.
        "ni-cbr" | "ni-vbr" => Some(SloObjective {
            max_p99_late_ns: 0,
            max_drop_ppm: 0,
            max_miss_ppm: 0,
        }),
        "ni-fixed-hi" => None,
        // ABR must pull the overload back into a serviceable regime.
        "ni-abr" => Some(SloObjective {
            max_p99_late_ns: 2 * NS_PER_SEC,
            max_drop_ppm: 250_000,
            max_miss_ppm: 500_000,
        }),
        // Churn teardown discards whatever a departing client queued.
        "ni-churn" => Some(SloObjective {
            max_p99_late_ns: 2 * NS_PER_SEC,
            max_drop_ppm: 250_000,
            max_miss_ppm: 500_000,
        }),
        "host-vbr" => Some(SloObjective {
            max_p99_late_ns: 4 * NS_PER_SEC,
            max_drop_ppm: 300_000,
            max_miss_ppm: 600_000,
        }),
        "chassis-vbr" => Some(SloObjective {
            max_p99_late_ns: NS_PER_SEC,
            max_drop_ppm: 100_000,
            max_miss_ppm: 200_000,
        }),
        // Failover rides a mid-run card death: lateness spikes during
        // migration but must stay bounded.
        "chassis-failover" => Some(SloObjective {
            max_p99_late_ns: 4 * NS_PER_SEC,
            max_drop_ppm: 200_000,
            max_miss_ppm: 500_000,
        }),
        _ => None,
    }
}

/// Absolute-objective violations across a row set.
pub fn objective_violations(rows: &[SoakRow]) -> Vec<String> {
    rows.iter()
        .filter_map(|r| objective(&r.scenario).map(|o| o.check(&r.scenario, &r.slo)))
        .flatten()
        .collect()
}

/// The full gate: parse both documents, check every absolute objective on
/// the new rows, and compare each baseline scenario against its new run
/// under the default [`SloMargin`]. Returns the violation list (empty =
/// gate passes); `Err` on unparseable documents.
pub fn gate_against(new_doc: &str, base_doc: &str) -> Result<Vec<String>, String> {
    let new = parse_doc(new_doc)?;
    let base = parse_doc(base_doc)?;
    let margin = SloMargin::default();
    let mut v = objective_violations(&new);
    for b in &base {
        match new.iter().find(|r| r.scenario == b.scenario) {
            None => v.push(format!("{}: scenario missing from new run", b.scenario)),
            Some(n) => v.extend(regressions(&b.scenario, &n.slo, &b.slo, &margin)),
        }
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_rows() -> Vec<SoakRow> {
        vec![
            SoakRow {
                scenario: "ni-cbr".to_string(),
                virtual_secs: 30,
                streams: 4,
                abr_switches: 0,
                slo: Slo {
                    dispatches: 3_600,
                    ..Slo::default()
                },
            },
            SoakRow {
                scenario: "ni-churn".to_string(),
                virtual_secs: 30,
                streams: 60,
                abr_switches: 0,
                slo: Slo {
                    dispatches: 10_000,
                    drops: 100,
                    late: 50,
                    drop_ppm: 9_900,
                    miss_ppm: 14_851,
                    p99_late_ns: 8_191,
                    max_late_ns: 6_000,
                    max_backlog: 40,
                },
            },
        ]
    }

    #[test]
    fn document_roundtrips() {
        let rows = synthetic_rows();
        let doc = render_doc(SoakMode::Quick, &rows);
        assert!(doc.contains("\"schema\": \"nistream-bench/slo/v1\""));
        assert_eq!(parse_doc(&doc).unwrap(), rows);
    }

    #[test]
    fn parse_rejects_foreign_documents() {
        assert!(parse_doc("{}").is_err());
        let doc = render_doc(SoakMode::Quick, &synthetic_rows());
        let stripped = doc.replace("nistream-bench/slo/v1", "other/v9");
        assert!(parse_doc(&stripped).is_err());
    }

    #[test]
    fn gate_passes_self_and_catches_doctored_regression() {
        let rows = synthetic_rows();
        let doc = render_doc(SoakMode::Quick, &rows);
        assert_eq!(gate_against(&doc, &doc).unwrap(), Vec::<String>::new());

        // Doctor the baseline: pretend churn used to have far fewer
        // drops, so today's run reads as a regression.
        let mut base = rows.clone();
        base[1].slo.drop_ppm = 1_000;
        let base_doc = render_doc(SoakMode::Quick, &base);
        let v = gate_against(&doc, &base_doc).unwrap();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("drop_ppm"), "{v:?}");
    }

    #[test]
    fn gate_flags_missing_scenarios() {
        let rows = synthetic_rows();
        let base_doc = render_doc(SoakMode::Quick, &rows);
        let new_doc = render_doc(SoakMode::Quick, &rows[..1]);
        let v = gate_against(&new_doc, &base_doc).unwrap();
        assert!(v.iter().any(|m| m.contains("missing")), "{v:?}");
    }

    #[test]
    fn objectives_catch_a_broken_clean_scenario() {
        let mut rows = synthetic_rows();
        rows[0].slo.drop_ppm = 5;
        let v = objective_violations(&rows);
        assert!(v.iter().any(|m| m.contains("ni-cbr")), "{v:?}");
    }

    #[test]
    fn quick_durations_are_shorter_than_full() {
        for name in SCENARIOS {
            assert!(duration_secs(name, SoakMode::Quick) < duration_secs(name, SoakMode::Full));
        }
    }

    #[test]
    fn churn_picker_cost_tracks_live_sessions_not_history() {
        let scenario = churn_scenario(30);
        let cap = scenario.live_cap;
        let (short, short_picks) = run_ni(scenario);
        let (long, long_picks) = run_ni(churn_scenario(600));
        assert_eq!((short.streams, long.streams), (77, 1_346));
        for picks in [short_picks, long_picks] {
            assert!(picks.max_pending <= 2 * cap + 1, "{picks:?}");
        }
        // Each event costs O(log live) in the picker, so a flat event count
        // per dispatch keeps the cost per dispatch flat as history grows.
        let per_dispatch = |row: &SoakRow, picks: PickerStats| picks.events as f64 / row.slo.dispatches as f64;
        let (a, b) = (per_dispatch(&short, short_picks), per_dispatch(&long, long_picks));
        assert!(
            (a - b).abs() <= 0.1 * a.min(b),
            "events per dispatch {a:.3} at 30 s vs {b:.3} at 600 s"
        );
    }

    #[test]
    fn churn_schedule_is_heavy_tailed_and_deterministic() {
        let a = churn_sessions(30);
        let b = churn_sessions(30);
        assert!(a.len() > 10, "expected dozens of arrivals, got {}", a.len());
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.connect_ns == y.connect_ns));
        let longest = a.iter().map(|s| s.depart_ns - s.connect_ns).max().unwrap();
        let shortest = a.iter().map(|s| s.depart_ns - s.connect_ns).min().unwrap();
        assert!(longest >= 4 * shortest, "heavy tail: {shortest}..{longest}");
    }

    /// The ABR probe is the difference of two fold snapshots: each probe
    /// reports the drops and late sends since the previous one, both kinds
    /// driven here, and the scheduler's live backlog.
    #[test]
    fn congestion_is_the_fold_difference_between_probes() {
        const MS: u64 = 1_000_000;
        let mut ext = MediaSchedExt::with_config(4, SchedulerConfig::default());
        ext.enable_trace(256);
        let mut open = |droppable: bool, loss_num: u32| {
            let spec = StreamSpec {
                period: MS,
                loss_num,
                loss_den: 2,
                droppable,
            };
            StreamId(ext.on_instruction(VcmInstruction::OpenStream(spec), 0).payload[0])
        };
        // Loss 1/2, droppable: a stale head drops. Loss 0, send-late: a
        // stale head goes out late.
        let (lossy, strict) = (open(true, 1), open(false, 0));
        for sid in [lossy, strict, lossy, strict, lossy] {
            let frame = VcmInstruction::EnqueueFrame {
                stream: sid,
                addr: 0,
                len: 100,
                kind: FrameKind::P,
            };
            assert_eq!(ext.on_instruction(frame, 0).status, 0);
        }
        let (mut agg, mut seen) = (Aggregate::new(), (0, 0));
        let mut probe = |ext: &mut MediaSchedExt| {
            agg.fold_all(&ext.drain_trace().events);
            congestion_since(&mut seen, &agg, ext.scheduler().total_backlog())
        };
        // The scheduler's own (drops, late) totals over both streams.
        let totals = |ext: &MediaSchedExt| {
            let s = ext.scheduler();
            let (a, b) = (s.stats(lossy), s.stats(strict));
            (a.dropped + b.dropped, a.sent_late + b.sent_late)
        };

        // Far past every deadline: two passes drop and send late.
        ext.poll_decision(100 * MS);
        ext.poll_decision(100 * MS);
        let first = probe(&mut ext);
        assert!(first.drops > 0 && first.late > 0, "{first:?}");
        assert_eq!(first.backlog, ext.scheduler().total_backlog());
        let before = totals(&ext);
        assert_eq!((first.drops, first.late), before);

        // Nothing happened since: the next probe is clean, backlog kept.
        let second = probe(&mut ext);
        assert_eq!((second.drops, second.late, second.backlog), (0, 0, first.backlog));

        // Drain the rest: the third probe counts only what came after the
        // second.
        while ext.has_pending() {
            ext.poll_decision(200 * MS);
        }
        let third = probe(&mut ext);
        let after = totals(&ext);
        assert_eq!((third.drops, third.late), (after.0 - before.0, after.1 - before.1));
        assert!(third.drops + third.late > 0, "{third:?}");
        assert_eq!(third.backlog, 0);
    }
}
