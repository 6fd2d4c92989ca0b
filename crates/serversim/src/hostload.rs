//! Host-based scheduling under web-server load — Figures 6, 7 and 8.
//!
//! The experiment (§4.2.3): a Quad Pentium Pro with two CPUs online runs
//! Apache (pool of 5–10 processes) loaded by remote httperf clients, while
//! the host-resident DWCS scheduler streams MPEG to two clients (s1, s2).
//! Load is applied at the 45 % and 60 % average-utilization operating
//! points; bandwidth and queuing delay degrade badly because "the
//! (frame/packet) scheduler receives CPU at lower rates … leading to
//! back-logged frames in scheduler input queues that result in missed
//! deadlines and loss-tolerance violations".
//!
//! Model: a quantum-driven round-robin multiprocessor (Solaris TS
//! coarsened to RR — what matters is that the DWCS process shares the run
//! queue with web workers and daemons), with every work item priced by
//! `hwsim::HostCpu`. Producers burst the segmented MPEG file into the
//! scheduler queues at connect time (matching the linear queuing-delay
//! growth of Figure 8's *unloaded* curve); the DWCS process wakes at frame
//! deadlines, pays its ~50 µs decision plus the Path-A per-frame host send
//! tax, and drops frames that have aged past the grace window.

use crate::report::{average_traces, RateWindow};
use dwcs::scheduler::Pacing;
use dwcs::svc::{DispatchRecord, Platform, SchedService};
use dwcs::{DualHeap, FrameDesc, FrameKind, SchedulerConfig, StreamId, StreamQos};
use hwsim::HostCpu;
use mpeg1::GopPattern;
use nistream_trace::TraceCapture;
use simkit::{Engine, Event, Pcg32, SimDuration, SimTime, Trace, UtilizationSampler};
use std::collections::VecDeque;
use workload::apache::ApachePool;
use workload::mpegclient::ClientPlan;
use workload::profile::LoadProfile;
use workload::vbr::{self, VbrTraceGen};

/// Round-robin quantum of the host's run queue.
const QUANTUM: SimDuration = SimDuration::from_millis(20);

/// Web response CPU cycles per response byte (tuning for utilization
/// calibration).
const WEB_CYCLES_PER_BYTE: u64 = 2;

/// Experiment configuration.
#[derive(Clone, Debug)]
pub struct HostLoadConfig {
    /// CPUs online (the paper brings two online for this experiment).
    pub cpus: usize,
    /// Web load profile (none / 45 % / 60 %).
    pub web: LoadProfile,
    /// Streaming clients.
    pub plan: ClientPlan,
    /// Frames pre-loaded per stream.
    pub frames_per_stream: usize,
    /// Total simulated time.
    pub run: SimDuration,
    /// RNG seed.
    pub seed: u64,
    /// Scheduler trace ring capacity in events (0 disables tracing).
    pub trace_capacity: usize,
}

impl Default for HostLoadConfig {
    fn default() -> HostLoadConfig {
        HostLoadConfig {
            cpus: 2,
            web: LoadProfile::none(),
            plan: ClientPlan::two_streams(),
            frames_per_stream: 3_000, // 30 fps × 100 s: the file outlasts the run
            run: SimDuration::from_secs(100),
            seed: 0x686f_7374, // "host"
            trace_capacity: 0,
        }
    }
}

/// Per-stream outcome series.
#[derive(Clone, Debug)]
pub struct StreamSeries {
    /// Stream name ("s1", "s2").
    pub name: String,
    /// Windowed bandwidth (bps), 1 s windows — Figure 7/9 material.
    pub bandwidth: Trace,
    /// `(frame#, queuing delay ms)` per transmitted frame — Figure 8/10.
    pub qdelay: Vec<(u64, f64)>,
    /// Frames transmitted.
    pub sent: u64,
    /// Frames dropped late.
    pub dropped: u64,
    /// Window-constraint violations.
    pub violations: u64,
    /// Mean inter-departure jitter (ms) — §4.2.3's delay-jitter metric.
    pub mean_jitter_ms: f64,
}

/// Whole-experiment outcome.
#[derive(Clone, Debug)]
pub struct HostLoadResult {
    /// Total CPU utilization (%), 1 s windows — Figure 6 material.
    pub cpu_util: Trace,
    /// Mean of `cpu_util`.
    pub avg_util: f64,
    /// Max of `cpu_util`.
    pub peak_util: f64,
    /// Per-stream series.
    pub streams: Vec<StreamSeries>,
    /// Web requests completed.
    pub web_completed: u64,
    /// Worst observed wake-to-run latency of the DWCS process (ms) — the
    /// direct measure of CPU contention the paper blames for degradation.
    pub max_dwcs_wait_ms: f64,
    /// Scheduler event trace (empty unless
    /// [`HostLoadConfig::trace_capacity`] is set).
    pub trace: TraceCapture,
}

// ---------------------------------------------------------------------
// World
// ---------------------------------------------------------------------

enum Kind {
    /// Periodic system daemon (Solaris base load).
    Daemon { work: SimDuration, period: SimDuration },
    /// Apache worker currently serving a request.
    Web { remaining_cycles: u64 },
    /// MPEG producer: segments + injects its file in a burst.
    Producer {
        stream_idx: usize,
        next_frame: usize,
        per_frame_cycles: u64,
    },
    /// The host DWCS scheduler process.
    Dwcs,
}

struct Proc {
    kind: Kind,
    runnable: bool,
    alive: bool,
    /// Which spawn this is: a dead process's slot is reused by a later
    /// spawn, so the pid alone does not name a process.
    spawn: u64,
}

struct Cpu {
    running: Option<usize>,
    /// The [`Proc::spawn`] of the last process this CPU ran.
    last_proc: Option<u64>,
    sampler: UtilizationSampler,
    model: HostCpu,
}

/// The host-placement binding of [`dwcs::svc::Platform`] for this
/// simulation: simulated time advances as the DWCS process pays the
/// Path-A per-frame host send tax, and every dispatch lands in the
/// bandwidth / queuing-delay series. Send pricing is cache-independent
/// (`HostCpu::frame_send_time` never touches the cache model), so the
/// platform owns its own `HostCpu` instance without perturbing the
/// per-CPU decision-cost state.
///
/// Public so the cross-placement trace-conformance suite can drive this
/// binding directly on a scripted schedule.
pub struct HostSendPlatform {
    now_ns: u64,
    send_model: HostCpu,
    frames_sent: Vec<u64>,
    bw: Vec<RateWindow>,
    qdelay: Vec<Vec<(u64, f64)>>,
}

impl HostSendPlatform {
    /// A platform serving `nstreams` streams.
    pub fn new(nstreams: usize) -> HostSendPlatform {
        HostSendPlatform {
            now_ns: 0,
            send_model: HostCpu::new(),
            frames_sent: vec![0; nstreams],
            bw: (0..nstreams)
                .map(|_| RateWindow::new(SimDuration::from_secs(1)))
                .collect(),
            qdelay: vec![Vec::new(); nstreams],
        }
    }
}

impl Platform for HostSendPlatform {
    fn now(&mut self) -> u64 {
        self.now_ns
    }

    fn set_now(&mut self, t: u64) {
        self.now_ns = t;
    }

    fn dispatch(&mut self, rec: &DispatchRecord) {
        let len = u64::from(rec.frame.desc.len);
        self.now_ns += self.send_model.frame_send_time(len).as_nanos();
        let done_at = SimTime::from_nanos(self.now_ns);
        let si = rec.frame.desc.stream.index();
        self.bw[si].record(done_at, len);
        self.frames_sent[si] += 1;
        let delay_ms = self.now_ns.saturating_sub(rec.frame.desc.enqueued_at) as f64 / 1e6;
        let n = self.frames_sent[si];
        self.qdelay[si].push((n, delay_ms));
    }
}

struct World {
    cfg: HostLoadConfig,
    procs: Vec<Proc>,
    /// Pids of dead processes, whose slots [`spawn`] reuses.
    dead: Vec<usize>,
    /// Processes spawned so far.
    spawned: u64,
    run_q: VecDeque<usize>,
    /// Low-priority queue: the DWCS process. Solaris TS demotes it below
    /// the frequently-sleeping web workers and daemons (it is the
    /// CPU-consuming class), so it runs only when no higher-priority
    /// process wants a CPU — §1's "the time-critical execution of device
    /// interactions is easily jeopardized by the CPU's need to also run
    /// higher-level application services".
    lo_q: VecDeque<usize>,
    cpus: Vec<Cpu>,
    pool: ApachePool,
    rng: Pcg32,
    svc: SchedService<DualHeap, HostSendPlatform>,
    sids: Vec<StreamId>,
    frame_bytes: Vec<u32>,
    /// Per-stream VBR generators (`None` = constant frames at the mean).
    vbr: Vec<Option<VbrTraceGen>>,
    /// Display-order picture kinds of the CBR producers' GOP (derived
    /// from `GopPattern::classic()`, the single source of the cadence —
    /// this used to be a hardcoded `seq % 9` match mirroring it).
    gop_kinds: Vec<FrameKind>,
    dwcs_pid: usize,
    dwcs_woke_at: Option<SimTime>,
    max_dwcs_wait: SimDuration,
}

/// How a slice ends for the process that ran it.
#[derive(Clone, Copy)]
enum After {
    Requeue,
    Block,
    Die,
}

/// A host-load event. The engine holds it inline, so posting one
/// allocates nothing.
#[derive(Clone, Copy)]
enum HostEv {
    /// Process `pid` wakes ([`make_runnable`]).
    MakeRunnable(usize),
    /// Idle CPUs take the next runnable processes ([`try_dispatch`]).
    TryDispatch,
    /// Process `pid`'s slice on CPU `ci` ends ([`end_slice`]).
    EndSlice { ci: usize, pid: usize, after: After },
    /// Daemon `pid`'s periodic wake ([`daemon_tick`]).
    DaemonTick(usize),
    /// Re-check the web load after a quiet phase ([`schedule_web_arrivals`]).
    WebCheck,
    /// A web request arrives ([`web_arrival`]).
    WebArrival,
}

impl Event<World> for HostEv {
    fn fire(self, w: &mut World, eng: &mut Eng) {
        match self {
            HostEv::MakeRunnable(pid) => make_runnable(w, eng, pid),
            HostEv::TryDispatch => try_dispatch(w, eng),
            HostEv::EndSlice { ci, pid, after } => end_slice(w, eng, ci, pid, after),
            HostEv::DaemonTick(pid) => daemon_tick(w, eng, pid),
            HostEv::WebCheck => schedule_web_arrivals(w, eng),
            HostEv::WebArrival => web_arrival(w, eng),
        }
    }
}

type Eng = Engine<World, HostEv>;

/// Start a process of `kind`, not yet runnable, in a dead process's slot
/// if there is one. Returns its pid.
fn spawn(w: &mut World, kind: Kind) -> usize {
    w.spawned += 1;
    let p = Proc {
        kind,
        runnable: false,
        alive: true,
        spawn: w.spawned,
    };
    match w.dead.pop() {
        Some(pid) => {
            debug_assert!(
                !w.procs[pid].alive && !w.procs[pid].runnable,
                "pid {pid} reused while live"
            );
            w.procs[pid] = p;
            pid
        }
        None => {
            w.procs.push(p);
            w.procs.len() - 1
        }
    }
}

fn make_runnable(w: &mut World, eng: &mut Eng, pid: usize) {
    let p = &mut w.procs[pid];
    if p.alive && !p.runnable {
        p.runnable = true;
        if pid == w.dwcs_pid {
            w.lo_q.push_back(pid);
            w.dwcs_woke_at = Some(eng.now());
        } else {
            w.run_q.push_back(pid);
        }
        eng.post_at(eng.now(), HostEv::TryDispatch);
    }
}

fn try_dispatch(w: &mut World, eng: &mut Eng) {
    for ci in 0..w.cpus.len() {
        if w.cpus[ci].running.is_some() {
            continue;
        }
        let Some(pid) = w.run_q.pop_front().or_else(|| w.lo_q.pop_front()) else {
            break;
        };
        start_slice(w, eng, ci, pid);
    }
}

fn start_slice(w: &mut World, eng: &mut Eng, ci: usize, pid: usize) {
    let now = eng.now();
    if pid == w.dwcs_pid {
        if let Some(woke) = w.dwcs_woke_at.take() {
            w.max_dwcs_wait = w.max_dwcs_wait.max(now.since(woke));
        }
    }
    w.cpus[ci].running = Some(pid);
    w.cpus[ci].sampler.busy(now);

    // Context switch cost when the CPU changes processes.
    let mut used = SimDuration::ZERO;
    let spawn = w.procs[pid].spawn;
    if w.cpus[ci].last_proc != Some(spawn) {
        used += w.cpus[ci].model.context_switch();
        w.cpus[ci].last_proc = Some(spawn);
    }

    // Simulate the proc's activity for this slice; effects carry their
    // own sub-slice timestamps.
    let after;
    match &mut w.procs[pid].kind {
        Kind::Daemon { work, .. } => {
            used += *work;
            after = After::Block; // re-armed by its periodic wake event
        }
        Kind::Web { remaining_cycles } => {
            // A busy Apache worker does not yield between requests: it
            // chains queued connections until its quantum expires. Under
            // backlog this concentrates CPU into full-quantum slices —
            // exactly the contention pattern that starves the DWCS
            // process.
            let mut rem = *remaining_cycles;
            let mut dead = false;
            loop {
                let budget = QUANTUM.saturating_sub(used);
                let need = w.cpus[ci].model.cycles_time(rem);
                if need <= budget {
                    used += need;
                    match w.pool.complete() {
                        Some(next) => {
                            rem = w.pool.work_of(&next).cpu_cycles + next.response_bytes * (WEB_CYCLES_PER_BYTE - 1);
                        }
                        None => {
                            dead = true;
                            break;
                        }
                    }
                } else {
                    let burned = (budget.as_nanos() as u128 * w.cpus[ci].model.hz as u128 / 1_000_000_000) as u64;
                    rem = rem.saturating_sub(burned.max(1));
                    used = QUANTUM;
                    break;
                }
            }
            if let Kind::Web { remaining_cycles } = &mut w.procs[pid].kind {
                *remaining_cycles = rem;
            }
            after = if dead { After::Die } else { After::Requeue };
        }
        Kind::Producer {
            stream_idx,
            next_frame,
            per_frame_cycles,
        } => {
            let stream_idx = *stream_idx;
            let per = w.cpus[ci].model.cycles_time(*per_frame_cycles);
            let total = w.cfg.frames_per_stream;
            let mut produced_any = false;
            while *next_frame < total && used + per <= QUANTUM {
                used += per;
                let t = now + used;
                let seq = *next_frame as u64;
                *next_frame += 1;
                produced_any = true;
                let sid = w.sids[stream_idx];
                let (len, kind) = match w.vbr[stream_idx].as_mut() {
                    Some(g) => {
                        let f = g.frame(seq);
                        (f.len, vbr::frame_kind(f.kind))
                    }
                    None => (
                        w.frame_bytes[stream_idx],
                        w.gop_kinds[(seq % w.gop_kinds.len() as u64) as usize],
                    ),
                };
                let desc = FrameDesc::new(sid, seq, len, kind);
                w.svc.ingest_at(sid, desc, t.as_nanos());
            }
            let done = {
                let Kind::Producer { next_frame, .. } = &w.procs[pid].kind else {
                    unreachable!()
                };
                *next_frame >= total
            };
            after = if done { After::Die } else { After::Requeue };
            if produced_any {
                // Wake the scheduler for the new work.
                eng.post_in(used, HostEv::MakeRunnable(w.dwcs_pid));
            }
        }
        Kind::Dwcs => {
            // Process every eligible frame within the quantum. Decision
            // cost is priced on *this CPU's* cache-stateful model; the
            // service core then runs one decide/reclaim/dispatch pass on
            // the platform clock, which advances by the per-frame send
            // tax whenever a frame goes out.
            loop {
                let t_cur = now + used;
                match w.svc.next_eligible() {
                    Some(d) if d <= t_cur.as_nanos() => {
                        let decision_cost = w.cpus[ci].model.decision_time(16);
                        if used + decision_cost > QUANTUM {
                            break;
                        }
                        used += decision_cost;
                        let decide_at = now + used;
                        w.svc.platform_mut().now_ns = decide_at.as_nanos();
                        if w.svc.service_once().frame.is_some() {
                            used = SimDuration::from_nanos(w.svc.platform_mut().now_ns.saturating_sub(now.as_nanos()));
                        }
                        if used >= QUANTUM {
                            break;
                        }
                    }
                    _ => break,
                }
            }
            // More eligible work right now? requeue; else block + wake at
            // the next deadline.
            let t_end = (now + used).as_nanos();
            match w.svc.next_eligible() {
                Some(d) if d <= t_end => after = After::Requeue,
                Some(d) => {
                    after = After::Block;
                    let at = SimTime::from_nanos(d);
                    eng.post_at(at.max(now + used), HostEv::MakeRunnable(w.dwcs_pid));
                }
                None => after = After::Block,
            }
        }
    }

    // Daemons consumed `work`; everyone else computed `used` above.
    eng.post_in(
        used.max(SimDuration::from_nanos(1)),
        HostEv::EndSlice { ci, pid, after },
    );
}

/// Process `pid`'s slice on CPU `ci` ended: free the CPU, settle the
/// process as `after` says, and dispatch the next one.
fn end_slice(w: &mut World, eng: &mut Eng, ci: usize, pid: usize, after: After) {
    let t = eng.now();
    w.cpus[ci].sampler.idle(t);
    w.cpus[ci].running = None;
    match after {
        After::Requeue => {
            if pid == w.dwcs_pid {
                w.lo_q.push_back(pid);
            } else {
                w.run_q.push_back(pid);
            }
        }
        After::Block => {
            w.procs[pid].runnable = false;
        }
        After::Die => {
            w.procs[pid].runnable = false;
            w.procs[pid].alive = false;
            w.dead.push(pid);
        }
    }
    try_dispatch(w, eng);
}

fn spawn_daemons(w: &mut World, eng: &mut Eng) {
    // Four Solaris-ish daemons: cron/perfmeter/nscd/inetd-style periodic
    // work. ~12 % of two 200 MHz CPUs in aggregate, which together with
    // streaming overhead reproduces Figure 6's ~15 % no-load average.
    for i in 0..4u64 {
        let pid = spawn(
            w,
            Kind::Daemon {
                work: SimDuration::from_micros(2_400),
                period: SimDuration::from_millis(40),
            },
        );
        // Stagger their periods.
        eng.post_in(SimDuration::from_millis(10 * i), HostEv::DaemonTick(pid));
    }
}

fn daemon_tick(w: &mut World, eng: &mut Eng, pid: usize) {
    if !w.procs[pid].alive {
        return;
    }
    let Kind::Daemon { period, .. } = w.procs[pid].kind else {
        return;
    };
    make_runnable(w, eng, pid);
    eng.post_in(period, HostEv::DaemonTick(pid));
}

fn schedule_web_arrivals(w: &mut World, eng: &mut Eng) {
    let now = eng.now();
    let rate = w.cfg.web.rate_at(now);
    if rate <= 0.0 {
        // Quiet phase: re-check at the next phase boundary (or every
        // second if none upcoming).
        let next_check = w
            .cfg
            .web
            .phases
            .iter()
            .map(|&(s, _, _)| s)
            .find(|&s| s > now)
            .unwrap_or(now + SimDuration::from_secs(1));
        if next_check <= now + w.cfg.run {
            eng.post_at(next_check.max(now + SimDuration::from_millis(100)), HostEv::WebCheck);
        }
        return;
    }
    let gap = SimDuration::from_secs_f64(w.rng.exp(1.0 / rate));
    eng.post_in(gap, HostEv::WebArrival);
}

/// One web request arrives: a worker that picks it up at once starts as a
/// new process (queued requests are chained by a busy worker); then the
/// next arrival is drawn.
fn web_arrival(w: &mut World, eng: &mut Eng) {
    let bytes = w.rng.bounded_pareto(1.2, 1_024.0, 512_000.0).round() as u64;
    let req = workload::httperf::WebRequest {
        id: w.pool.accepted,
        response_bytes: bytes,
        connection: 0,
    };
    let mut demand = w.pool.work_of(&req);
    demand.cpu_cycles += bytes * (WEB_CYCLES_PER_BYTE - 1);
    if w.pool.arrive(req).is_some() {
        let pid = spawn(
            w,
            Kind::Web {
                remaining_cycles: demand.cpu_cycles,
            },
        );
        make_runnable(w, eng, pid);
    }
    schedule_web_arrivals(w, eng);
}

/// Run the experiment.
pub fn run(cfg: HostLoadConfig) -> HostLoadResult {
    let mut w = simulate(cfg);
    let run_t = SimTime::ZERO + w.cfg.run;

    // Collect results.
    let util_traces: Vec<Trace> = w.cpus.drain(..).map(|c| c.sampler.finish(run_t)).collect();
    let cpu_util = average_traces(&util_traces);
    let avg_util = cpu_util.mean_between(SimTime::ZERO, run_t).unwrap_or(0.0);
    let peak_util = cpu_util.min_max().map(|(_, hi)| hi).unwrap_or(0.0);

    let platform = w.svc.platform_mut();
    let series = std::mem::take(&mut platform.bw)
        .into_iter()
        .zip(std::mem::take(&mut platform.qdelay));
    let mut streams = Vec::new();
    for ((i, c), (bw, qdelay)) in w.cfg.plan.clients.iter().enumerate().zip(series) {
        let stats = w.svc.scheduler().stats(w.sids[i]);
        streams.push(StreamSeries {
            name: c.name.clone(),
            bandwidth: bw.finish(run_t),
            qdelay,
            sent: stats.sent(),
            dropped: stats.dropped,
            violations: stats.violations,
            mean_jitter_ms: stats.mean_jitter() as f64 / 1e6,
        });
    }
    HostLoadResult {
        cpu_util,
        avg_util,
        peak_util,
        streams,
        web_completed: w.pool.completed,
        max_dwcs_wait_ms: w.max_dwcs_wait.as_millis_f64(),
        trace: w.svc.drain_trace(),
    }
}

/// Build the world and run it to the configured run end.
fn simulate(cfg: HostLoadConfig) -> World {
    let mut eng = Eng::new();
    let nstreams = cfg.plan.clients.len();

    // Scheduler: deadline-paced, one-period grace (see module docs).
    let grace = cfg.plan.clients.first().map(|c| c.period).unwrap_or(0);
    let sched_cfg = SchedulerConfig {
        pacing: Pacing::DeadlinePaced,
        late_grace: grace,
        ..SchedulerConfig::default()
    };
    let platform = HostSendPlatform::new(nstreams);
    let mut svc = SchedService::new(DualHeap::new(nstreams.max(1)), sched_cfg, platform);
    svc.set_trace(cfg.trace_capacity);
    let mut sids = Vec::new();
    let mut frame_bytes = Vec::new();
    let mut vbr_gens = Vec::new();
    for c in &cfg.plan.clients {
        sids.push(svc.open(StreamQos::new(c.period, c.loss_num, c.loss_den)));
        let mean = ClientPlan::frame_bytes(c);
        frame_bytes.push(mean);
        vbr_gens.push(c.vbr.clone().map(|spec| VbrTraceGen::new(spec, mean)));
    }
    let gop_kinds: Vec<FrameKind> = GopPattern::classic()
        .kinds()
        .iter()
        .map(|&k| vbr::frame_kind(k))
        .collect();

    let seed = cfg.seed;
    let run_t = SimTime::ZERO + cfg.run;
    let mut w = World {
        cpus: (0..cfg.cpus)
            .map(|_| Cpu {
                running: None,
                last_proc: None,
                sampler: UtilizationSampler::new(SimDuration::from_secs(1)),
                model: HostCpu::new(),
            })
            .collect(),
        procs: Vec::new(),
        dead: Vec::new(),
        spawned: 0,
        run_q: VecDeque::new(),
        lo_q: VecDeque::new(),
        pool: ApachePool::new(),
        rng: Pcg32::new(seed, 77),
        svc,
        sids,
        frame_bytes,
        vbr: vbr_gens,
        gop_kinds,
        dwcs_pid: 0,
        dwcs_woke_at: None,
        max_dwcs_wait: SimDuration::ZERO,
        cfg,
    };

    // The DWCS process.
    w.dwcs_pid = spawn(&mut w, Kind::Dwcs);

    // Producers: burst the segmented file in at connect time.
    for (i, c) in w.cfg.plan.clients.clone().iter().enumerate() {
        let pid = spawn(
            &mut w,
            Kind::Producer {
                stream_idx: i,
                next_frame: 0,
                per_frame_cycles: 10_000, // 50 µs segment+inject per frame
            },
        );
        eng.post_at(c.connect_at, HostEv::MakeRunnable(pid));
    }

    spawn_daemons(&mut w, &mut eng);
    schedule_web_arrivals(&mut w, &mut eng);

    eng.run_until(&mut w, run_t);
    w
}

/// Web request rate whose *sustained phase* produces roughly
/// `target_total` (0..1) total utilization, accounting for the streaming
/// baseline. The paper's "45 %"/"60 %" labels are whole-run averages whose
/// sustained plateaus sit noticeably higher (Figure 6's 60 % run exceeds
/// 80 % during the loaded window) — callers pass the plateau target.
pub fn web_rate_for(target_total: f64, cfg: &HostLoadConfig) -> f64 {
    let baseline = 0.14;
    let web_target = (target_total - baseline).max(0.0);
    // Mean response ≈ 6.1 KB (bounded Pareto 1.2 over [1 KB, 512 KB]);
    // cycles = base + bytes × cycles_per_byte.
    let mean_cycles = 500_000.0 + 6_100.0 * WEB_CYCLES_PER_BYTE as f64;
    workload::profile::calibrate_rate(web_target, cfg.cpus as u32, mean_cycles as u64, hwsim::calib::HOST_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> HostLoadConfig {
        HostLoadConfig {
            run: SimDuration::from_secs(30),
            frames_per_stream: 900, // 30 fps × 30 s
            plan: ClientPlan::two_streams(),
            ..HostLoadConfig::default()
        }
    }

    #[test]
    fn unloaded_run_settles_at_stream_rate() {
        let r = run(quick_cfg());
        assert_eq!(r.streams.len(), 2);
        for s in &r.streams {
            // 30 fps × ~1083 B ≈ 260 kb/s settling bandwidth.
            let settle = s.bandwidth.settling_value(0.5).unwrap();
            assert!((200_000.0..=300_000.0).contains(&settle), "{}: {settle:.0} bps", s.name);
            assert_eq!(s.dropped, 0, "no drops without load");
        }
    }

    #[test]
    fn unloaded_queuing_delay_grows_linearly() {
        let r = run(quick_cfg());
        let q = &r.streams[0].qdelay;
        assert!(q.len() > 100);
        // Frame k waits ≈ k × 33 ms: delay at frame 90 ≈ 3 s.
        let (n, d) = q[89];
        assert_eq!(n, 90);
        assert!((2_000.0..=4_000.0).contains(&d), "delay at frame 90 = {d:.0} ms");
        // Monotone growth.
        assert!(q.windows(2).all(|w| w[1].1 >= w[0].1 - 100.0));
    }

    #[test]
    fn unloaded_utilization_is_low_with_early_peak() {
        let r = run(quick_cfg());
        assert!((5.0..=25.0).contains(&r.avg_util), "avg {:.1} %", r.avg_util);
        assert!(r.peak_util >= r.avg_util);
        assert!(r.peak_util < 70.0, "peak {:.1} %", r.peak_util);
    }

    #[test]
    fn heavy_load_degrades_bandwidth_and_delay() {
        let mut cfg = quick_cfg();
        let rate = web_rate_for(0.85, &cfg);
        cfg.web = LoadProfile::experiment(5, 2, 30, rate);
        let loaded = run(cfg);
        let unloaded = run(quick_cfg());

        let bw_loaded: f64 = loaded
            .streams
            .iter()
            .map(|s| s.bandwidth.settling_value(0.5).unwrap())
            .sum();
        let bw_unloaded: f64 = unloaded
            .streams
            .iter()
            .map(|s| s.bandwidth.settling_value(0.5).unwrap())
            .sum();
        assert!(
            bw_loaded < bw_unloaded * 0.9,
            "load must cost bandwidth: {bw_loaded:.0} vs {bw_unloaded:.0}"
        );
        let drops: u64 = loaded.streams.iter().map(|s| s.dropped).sum();
        assert!(drops > 0, "60 % load must shed frames");
        assert!(loaded.avg_util > unloaded.avg_util + 20.0);
    }

    /// A finished web worker's slot is reused by the next one, so the
    /// process table of a loaded run stays at the pool's size however many
    /// requests it serves: the DWCS process, two producers and four
    /// daemons, at most `max_servers` busy workers, and one worker per CPU
    /// whose last slice is still ending.
    #[test]
    fn loaded_run_reuses_finished_worker_slots() {
        let mut cfg = quick_cfg();
        cfg.web = LoadProfile::experiment(5, 2, 30, web_rate_for(0.85, &cfg));
        let w = simulate(cfg);
        let max_servers = workload::apache::ApacheConfig::default().max_servers as usize;
        assert!(w.spawned > 1_000, "only {} processes spawned", w.spawned);
        assert!(
            w.procs.len() <= 7 + max_servers + w.cpus.len(),
            "{} process slots for {} spawns",
            w.procs.len(),
            w.spawned
        );
    }

    #[test]
    fn deterministic() {
        let a = run(quick_cfg());
        let b = run(quick_cfg());
        assert_eq!(a.avg_util, b.avg_util);
        assert_eq!(a.streams[0].sent, b.streams[0].sent);
    }

    #[test]
    fn tracing_captures_the_run_without_perturbing_it() {
        let plain = run(quick_cfg());
        let mut cfg = quick_cfg();
        cfg.trace_capacity = 1 << 16;
        let traced = run(cfg);

        assert!(plain.trace.is_empty(), "tracing off by default");
        assert!(!traced.trace.is_empty(), "traced run captures events");
        assert_eq!(traced.trace.overflow, 0, "64 Ki ring holds a 30 s run");
        let admits = traced
            .trace
            .events
            .iter()
            .filter(|e| matches!(e, nistream_trace::TraceEvent::Admit { .. }))
            .count();
        assert_eq!(admits, 2, "one admit per stream");
        let dispatches = traced
            .trace
            .events
            .iter()
            .filter(|e| matches!(e, nistream_trace::TraceEvent::Dispatch { .. }))
            .count() as u64;
        let sent: u64 = traced.streams.iter().map(|s| s.sent).sum();
        assert_eq!(dispatches, sent, "every send is traced");

        // The observer effect is zero: all published series match.
        assert_eq!(plain.avg_util, traced.avg_util);
        for (a, b) in plain.streams.iter().zip(&traced.streams) {
            assert_eq!(a.sent, b.sent);
            assert_eq!(a.qdelay, b.qdelay);
        }
    }

    #[test]
    fn more_cpus_mitigate_but_do_not_cure() {
        // The quad with all four CPUs online absorbs the same web load
        // far better than the paper's two-CPU configuration — but the
        // DWCS process still rides the low-priority queue, so heavy
        // enough load reproduces the pathology on any CPU count. (The
        // paper took CPUs *off-line* to make the effect measurable.)
        let loaded = |cpus: usize| {
            let mut cfg = quick_cfg();
            cfg.cpus = cpus;
            let rate = web_rate_for(0.85, &quick_cfg());
            cfg.web = LoadProfile::experiment(5, 2, 30, rate);
            run(cfg)
        };
        let two = loaded(2);
        let four = loaded(4);
        let sent2: u64 = two.streams.iter().map(|s| s.sent).sum();
        let sent4: u64 = four.streams.iter().map(|s| s.sent).sum();
        assert!(sent4 > sent2, "four CPUs deliver more: {sent4} vs {sent2}");
        assert!(four.avg_util < two.avg_util, "same load spread thinner");
    }
}
