//! Multi-NI chassis — N co-processor cards behind one host.
//!
//! The paper's conclusion argues scalability comes from *adding NIs*, not
//! faster hosts: "careful balance between NIs dedicated for scheduling and
//! stream sourcing is required, given the limited I/O slot real-estate."
//! [`cluster`](crate::cluster) prices that balance analytically; this
//! module *runs* it. A [`ChassisConfig`] instantiates N independent NI
//! instances — each owning its own `dwcs::svc::SchedService` core (with
//! that core's `nistream-trace` ring, drained per card into a
//! `TaggedCapture`) and i960 + Ethernet cost models — behind one host,
//! all sharing a single arbitrated PCI bus (granted in production order
//! here, `hwsim::PciBus` for cycle pricing) so cross-card Path-B DMA
//! transfers genuinely contend.
//!
//! Three layers sit on top of the per-card stacks:
//!
//! * **Placement/admission** — [`place`] chooses the least-utilized alive
//!   card whose link passes the real DWCS feasibility test
//!   (`dwcs::admission::DemandFold`) for the candidate stream. Placement
//!   is a pure function of the card load set, independent of card
//!   iteration order (property-tested). Each card keeps its running fold,
//!   so a placement costs one fold step per alive card; a card refolds
//!   only after losing a stream or when asked at another service time.
//! * **Path-B sourcing** ([`Sourcing::PathB`]) — producers DMA each frame
//!   descriptor across the shared bus to the owning scheduler card as an
//!   I2O `PeerFrameWrite` (PIO message post + payload DMA + completion
//!   read, priced once by `path_b_frame_hold`). The bus serializes them
//!   in production order, pulling each frame from a calendar of every
//!   stream's next production when it is free, so a frame costs no
//!   engine event of its own.
//! * **Rebalancer** — a deterministic card-death event
//!   ([`CardFailure`]) drains every stream the dead card owned, re-admits
//!   each on a surviving card, and transfers its state as an I2O
//!   `PeerStreamMigrate` (QoS + drained backlog) over the same contended
//!   bus. Frames in flight during the migration window are parked and
//!   flushed to the new owner, so no frame is lost or double-dispatched.
//!
//! A 1-card chassis with [`Sourcing::Preloaded`] *is* the single-NI
//! experiment of Figures 9–10: [`niload`](crate::niload) runs exactly that
//! configuration next to its host web-load world, so the repro golden
//! files pin the single-card bytes.

use crate::hostload::StreamSeries;
use crate::niload::NiWirePlatform;
use crate::report::RateWindow;
use dvcm::instr::{StreamSpec, VcmInstruction};
use dvcm::{ExtensionModule, MediaSchedExt};
use dwcs::admission::DemandFold;
use dwcs::metrics::StreamStats;
use dwcs::scheduler::Pacing;
use dwcs::{FrameDesc, FrameKind, SchedulerConfig, StreamId, StreamQos};
use hwsim::PciBus;
use i2o::message::HEADER_WORDS;
use i2o::{I2oFunction, MessageFrame, PeerFrameXfer, PeerMigrate, Tid};
use mpeg1::Cadence;
use nistream_trace::chassis::TaggedCapture;
use simkit::{Engine, Event, EventId, SimDuration, SimTime, Summary, Trace};
use std::collections::VecDeque;
use workload::mpegclient::{ClientPlan, MpegClient};
use workload::vbr::{self, VbrTraceGen};

/// How frames reach the scheduler cards.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Sourcing {
    /// Every frame descriptor is injected at stream connect time through
    /// the DVCM instruction path — the single-NI experiment
    /// ([`niload`](crate::niload)) runs a 1-card chassis in this mode.
    Preloaded,
    /// Producers DMA each frame across the shared PCI bus to the owning
    /// card on its production period (Path B of the paper's Figure 3);
    /// transfers contend for the bus in production order.
    PathB,
}

/// Deterministic card-death injection: card `card` dies at `at`.
#[derive(Clone, Copy, Debug)]
pub struct CardFailure {
    /// Which card dies.
    pub card: usize,
    /// When it dies (simulated time).
    pub at: SimDuration,
}

/// Chassis experiment configuration.
#[derive(Clone, Debug)]
pub struct ChassisConfig {
    /// Number of NI cards in the chassis.
    pub cards: usize,
    /// Streaming clients offered to the placement layer (plan order).
    pub plan: ClientPlan,
    /// Frames per stream.
    pub frames_per_stream: usize,
    /// Simulated run length.
    pub run: SimDuration,
    /// Data cache on each NI (scheduler-only cards enable it).
    pub ni_cache: bool,
    /// Per-card trace-ring capacity in events; 0 disables tracing.
    pub trace_capacity: usize,
    /// Frame sourcing mode.
    pub sourcing: Sourcing,
    /// Optional deterministic card-death injection.
    pub failure: Option<CardFailure>,
    /// Service passes a card may run per engine event
    /// ([`MediaSchedExt::poll_batch`]). `1` (the default) is the classic
    /// one-decision-per-event cadence; larger budgets deliver the
    /// identical dispatch sequence at the same NI timestamps in fewer
    /// engine events.
    pub batch_budget: u32,
}

impl Default for ChassisConfig {
    fn default() -> ChassisConfig {
        ChassisConfig {
            cards: 1,
            plan: ClientPlan::two_streams(),
            frames_per_stream: 3_000,
            run: SimDuration::from_secs(100),
            ni_cache: true,
            trace_capacity: 0,
            sourcing: Sourcing::Preloaded,
            failure: None,
            batch_budget: 1,
        }
    }
}

/// One card's admission-relevant load, as seen by [`place`].
#[derive(Clone, Debug)]
pub struct CardLoad {
    /// Stable card identity — the value [`place`] returns. Carried
    /// explicitly so placement is invariant under permutation of the
    /// slice.
    pub card: usize,
    /// Dead cards accept nothing.
    pub dead: bool,
    /// QoS of every stream currently admitted on the card.
    pub admitted: Vec<StreamQos>,
}

/// Estimated per-frame service time (ns) on one scheduler card: one
/// decision, one dispatch, and send-side wire occupancy, evaluated on
/// fresh cost models so the estimate is a pure function of the frame
/// size. Placement admits against it and `cluster::node_capacity` derives
/// its per-card CPU limit from it.
pub fn service_estimate_ns(frame_bytes: u32, ni_cache: bool) -> u64 {
    let mut core = hwsim::I960Core::new().with_cache(ni_cache);
    let mut eth = hwsim::Ethernet::new();
    let per_frame = core.decision_time(
        fixedpt::ops::Work {
            compares: 8,
            touches: 8,
        },
        16,
    ) + core.dispatch_time()
        + eth.send_occupancy(u64::from(frame_bytes));
    per_frame.as_nanos()
}

/// Shared-bus hold of one Path-B frame of `len` bytes: the producer posts
/// an I2O `PeerFrameWrite` message by PIO, DMAs the payload, and reads the
/// 6-word completion back, all at Table 5's PCI costs. This is the only
/// price of a Path-B frame on the bus: the chassis holds the arbitrated
/// bus for it per frame, and `cluster::node_capacity` divides a stream
/// period by it. (Table 4's `pci_ms` is the paper's bare payload DMA, a
/// transfer latency rather than a bus hold.)
pub(crate) fn path_b_frame_hold(bus: &mut PciBus, len: u64) -> SimDuration {
    let msg_words = (HEADER_WORDS + PeerFrameXfer::WORDS) as u64;
    bus.pio_write_time(msg_words) + bus.dma_time(len) + bus.pio_read_time(6)
}

/// Choose a card for `qos`: the least-utilized alive card that passes the
/// DWCS admission test, ties broken by card id. Pure and order-independent:
/// permuting `loads` never changes the chosen *card id* (property-tested).
pub fn place(loads: &[CardLoad], qos: StreamQos, service_ns: u64) -> Option<usize> {
    let alive = loads.iter().filter(|l| !l.dead);
    choose(
        alive.map(|l| (l.card, DemandFold::folded(&l.admitted, service_ns))),
        &qos,
    )
}

/// The placement rule behind [`place`] and the chassis's own placements:
/// among alive `(card id, admission fold)` candidates, the least-utilized
/// card whose fold admits `qos`, ties broken by card id.
fn choose(alive: impl Iterator<Item = (usize, DemandFold)>, qos: &StreamQos) -> Option<usize> {
    alive
        .filter(|(_, fold)| fold.admits(qos))
        .map(|(card, fold)| (fold.utilization(), card))
        .min()
        .map(|(_, card)| card)
}

/// Record of one stream migration performed by the rebalancer.
#[derive(Clone, Copy, Debug)]
pub struct MigrationRecord {
    /// Chassis-global stream index.
    pub stream: usize,
    /// Card the stream left (the dead card).
    pub from: usize,
    /// Card the stream landed on; `None` if no surviving card could admit
    /// it (the stream is torn down and its frames count as lost).
    pub to: Option<usize>,
    /// Backlog frames carried by the state transfer.
    pub frames_moved: u64,
    /// Backlog payload bytes moved by DMA.
    pub bytes_moved: u64,
    /// When the migration completed (ns).
    pub completed_at_ns: u64,
}

/// Per-stream chassis outcome.
#[derive(Clone, Debug)]
pub struct ChassisStream {
    /// Client name from the plan.
    pub name: String,
    /// Chassis-global stream index (plan order).
    pub global: usize,
    /// Final owning card (`None` if never admitted).
    pub card: Option<usize>,
    /// Whether the placement layer admitted the stream.
    pub admitted: bool,
    /// Whether the stream was still serviceable at run end (false only
    /// after a failed migration).
    pub alive: bool,
    /// Merged per-stream series (bandwidth, queuing delay, counts) across
    /// every card that served the stream.
    pub series: StreamSeries,
    /// Frames the producer generated.
    pub produced: u64,
    /// Frames that reached a scheduler card's queue. The run drains the
    /// bus after the run end, so an alive stream's `arrived` equals
    /// `produced`.
    pub arrived: u64,
    /// Frames still queued on the owning card at run end.
    pub backlog_at_end: u64,
}

/// Per-card chassis outcome.
#[derive(Clone, Debug)]
pub struct CardReport {
    /// Card index.
    pub card: usize,
    /// Whether the card was fault-injected dead.
    pub dead: bool,
    /// Scheduling decisions the card made.
    pub decisions: u64,
    /// Mean decision time on the card (µs).
    pub mean_decision_us: f64,
    /// Streams admitted on the card at run end.
    pub admitted_streams: usize,
    /// Local stream slot → chassis-global stream index.
    pub stream_map: Vec<usize>,
    /// The card's drained trace ring, tagged with its card id.
    pub trace: TaggedCapture,
}

/// Shared-bus outcome. The bus queue drains after the run end, so every
/// figure here covers that drain too.
#[derive(Clone, Copy, Debug, Default)]
pub struct BusReport {
    /// Fraction of the time until the bus drained that it was held.
    pub utilization: f64,
    /// Mean wait from a request (a frame's production) to its bus grant
    /// (ms).
    pub mean_wait_ms: f64,
    /// Most requests ever waiting for the bus at once.
    pub max_queue: usize,
    /// Total grants.
    pub grants: u64,
    /// DMA bytes priced by the `hwsim::PciBus` model.
    pub dma_bytes: u64,
    /// PCI transactions priced by the model.
    pub transactions: u64,
}

/// Whole-chassis outcome.
#[derive(Clone, Debug)]
pub struct ChassisResult {
    /// Per-stream outcomes, plan order.
    pub streams: Vec<ChassisStream>,
    /// Per-card outcomes.
    pub cards: Vec<CardReport>,
    /// Shared-bus statistics.
    pub bus: BusReport,
    /// Every migration the rebalancer performed.
    pub migrations: Vec<MigrationRecord>,
    /// Frames destroyed by card death without re-homing (acceptance:
    /// zero in a survivable fault run).
    pub lost_frames: u64,
    /// Mean decision time across every card (µs).
    pub mean_decision_us: f64,
    /// Engine events fired: one per bus transfer and per service pass,
    /// one per wake of an idle bus (plus the card-death event of a failure
    /// run). A frame's production fires none: the bus pulls it.
    pub events: u64,
}

// ---------------------------------------------------------------------------
// Event-driven world
// ---------------------------------------------------------------------------

struct Card {
    ext: MediaSchedExt<NiWirePlatform>,
    dead: bool,
    /// Bumped on death so stale pass events self-cancel.
    epoch: u64,
    /// Pending service-pass event: (time it fires at, engine handle).
    pass_ev: Option<(u64, EventId)>,
    /// Local stream slot → chassis-global stream index.
    locals: Vec<usize>,
    /// (global, qos) of every stream currently admitted here.
    admitted: Vec<(usize, StreamQos)>,
    /// `admitted`'s admission fold, priced at the service time of the
    /// last placement that read it; `None` once a stream leaves.
    fold: Option<DemandFold>,
}

impl Card {
    /// The admission fold of this card's streams at `service` ns per
    /// frame: the cached one, or a refold of `admitted` (then cached) when
    /// there is none or it was priced at another service time.
    fn fold_at(&mut self, service: u64) -> DemandFold {
        match self.fold {
            Some(fold) if fold.service() == service => fold,
            _ => {
                let fold = DemandFold::folded(self.admitted.iter().map(|(_, q)| q), service);
                self.fold = Some(fold);
                fold
            }
        }
    }

    /// Admit global stream `g`, stepping the cached fold by its demand.
    fn admit(&mut self, g: usize, qos: StreamQos) {
        self.admitted.push((g, qos));
        if let Some(fold) = &mut self.fold {
            fold.fold_in(&qos);
        }
    }
}

/// Place `qos` on the alive `cards` by [`place`]'s rule, reading each
/// card's cached admission fold.
fn place_on(cards: &mut [Card], qos: StreamQos, service: u64) -> Option<usize> {
    let alive = cards.iter_mut().enumerate().filter(|(_, card)| !card.dead);
    choose(alive.map(|(i, card)| (i, card.fold_at(service))), &qos)
}

struct StreamState {
    qos: StreamQos,
    /// Mean frame length — what admission and migration estimates price
    /// (a VBR stream's long-run rate is exactly its mean by GOP-byte
    /// conservation).
    len: u32,
    /// Per-frame VBR generator (`None` = every frame is the mean).
    gen: Option<VbrTraceGen>,
    /// Next frame's NI memory address: frames pack back to back, so a
    /// running cursor replaces the old `base + seq × len` arithmetic
    /// (identical addresses when every frame is the mean).
    next_addr: u64,
    /// The bus calendar's lane for this stream's period.
    class: usize,
    owner: usize,
    local: StreamId,
    admitted: bool,
    /// The card-death key at which the stream was torn down, if it was:
    /// a production keyed after it never happens.
    stop: Option<Key>,
    migrating: bool,
    produced: u64,
    arrived: u64,
    /// Frames delivered while the stream was mid-migration, flushed to the
    /// new owner when the state transfer completes.
    held: VecDeque<FrameDesc>,
    // Accounting snapshotted off cards the stream has left.
    prior: StreamStats,
    prior_qdelay: Vec<(u64, f64)>,
    prior_bw: Vec<Trace>,
}

impl StreamState {
    /// Admitted and not torn down: its frames reach a card.
    fn alive(&self) -> bool {
        self.admitted && self.stop.is_none()
    }
}

/// A bus request's place in the engine's `(time, seq)` order: the instant
/// it is made, then its rank among the requests made at that instant.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Key {
    at: u64,
    rank: u64,
}

/// The bus requests not yet granted, in the order the engine would have
/// fired one production event per frame. Each lane is sorted by key, so
/// the earliest request is the least of the lanes' heads:
///
/// * the first production of every stream, ranked by plan order (`run`
///   posted them first);
/// * state transfers off a dead card, ranked next (the card-death event
///   was posted after the first productions and before any run-time
///   event);
/// * one lane per distinct period for every later production. A frame's
///   successor is due one period after it and ranks by when the frame was
///   pulled, as the production event that posted it fired; pulls go in key
///   order, so a lane only ever appends.
struct Calendar<R> {
    /// `[first productions, state transfers, period classes…]`.
    lanes: Vec<VecDeque<(Key, R)>>,
    /// The card-death rank: after every first production.
    failure_rank: u64,
    /// Rank of the next run-time request.
    next_rank: u64,
}

/// The state-transfer lane; the first productions are lane 0.
const FAILURE: usize = 1;

impl<R> Calendar<R> {
    /// A calendar of `first`, each stream's first `(instant, request)` in
    /// plan order, and one lane per period class, sized by `class_sizes`
    /// (a class's stream count: its lane holds one request per stream at
    /// most).
    fn new(first: impl IntoIterator<Item = (u64, R)>, class_sizes: &[usize]) -> Calendar<R> {
        let mut first: Vec<(Key, R)> = (0..).zip(first).map(|(rank, (at, r))| (Key { at, rank }, r)).collect();
        let failure_rank = first.len() as u64;
        first.sort_by_key(|&(key, _)| key);
        let mut lanes = vec![VecDeque::from(first), VecDeque::new()];
        lanes.extend(class_sizes.iter().map(|&n| VecDeque::with_capacity(n)));
        Calendar {
            lanes,
            failure_rank,
            next_rank: failure_rank + 1,
        }
    }

    /// The key of a card death at `at`.
    fn failure_key(&self, at: u64) -> Key {
        Key {
            at,
            rank: self.failure_rank,
        }
    }

    /// A request made by the card death at `at`.
    fn push_failure(&mut self, at: u64, r: R) {
        let key = self.failure_key(at);
        self.push(FAILURE, key, r);
    }

    /// A run-time request due at `at` in period class `class`, ranked
    /// after every request already made.
    fn push_next(&mut self, class: usize, at: u64, r: R) {
        let key = Key {
            at,
            rank: self.next_rank,
        };
        self.next_rank += 1;
        self.push(2 + class, key, r);
    }

    fn push(&mut self, lane: usize, key: Key, r: R) {
        let lane = &mut self.lanes[lane];
        debug_assert!(lane.back().is_none_or(|&(last, _)| last <= key), "lane out of order");
        lane.push_back((key, r));
    }

    /// The earliest request's key, and its lane.
    fn head(&self) -> Option<(Key, usize)> {
        self.lanes
            .iter()
            .enumerate()
            .filter_map(|(i, lane)| lane.front().map(|&(key, _)| (key, i)))
            .min()
    }

    /// Take the earliest request if it is due by `now`.
    fn pop_ready(&mut self, now: u64) -> Option<(Key, R)> {
        let (key, lane) = self.head()?;
        if key.at > now {
            return None;
        }
        self.lanes[lane].pop_front()
    }
}

/// A bus request: what the calendar holds until the bus pulls it.
enum Request {
    /// The next Path-B frame of chassis-global stream `g`, built when the
    /// bus pulls it ([`produce`]).
    Frame(u32),
    /// A stream's state transfer off a dead card.
    Migrate(Box<Migration>),
}

/// What one bus transfer carries to the handler that runs when it
/// completes.
enum Transfer {
    /// A Path-B frame, `stream` holding its chassis-global index.
    Frame(FrameDesc),
    /// A stream's state transfer off a dead card.
    Migrate(Box<Migration>),
}

/// A migration's state while it crosses the bus.
struct Migration {
    g: usize,
    from: usize,
    target: usize,
    hold: SimDuration,
    backlog: Vec<FrameDesc>,
    frames_moved: u64,
    bytes_moved: u64,
}

/// The shared PCI bus: one transfer holds it, and the requests that wait
/// for it are the calendar's, granted in key order. Production is
/// time-driven, so the waiting requests are not materialized: when the
/// holder's hold ends, or an idle bus wakes, the caller pulls the earliest
/// due request from the calendar and [`Bus::grant`]s it. Only the holder
/// (or the wake of an idle bus) ever has a pending event.
struct Bus<R, T> {
    calendar: Calendar<R>,
    /// The transfer holding the bus, with its hold.
    current: Option<(SimDuration, T)>,
    /// When the pending wake of the idle bus fires.
    wake: Option<SimTime>,
    /// Instants of the grants made as a hold ended, oldest first, reaching
    /// back to the oldest request still waiting: the queue a request
    /// joined is the handovers since its instant, its own included.
    handovers: VecDeque<SimTime>,
    total_busy: SimDuration,
    grants: u64,
    /// Wait from request to grant (ms), one sample per grant.
    wait: Summary,
    max_queue: usize,
}

impl<R, T> Bus<R, T> {
    fn new(calendar: Calendar<R>) -> Bus<R, T> {
        Bus {
            calendar,
            current: None,
            wake: None,
            handovers: VecDeque::new(),
            total_busy: SimDuration::ZERO,
            grants: 0,
            wait: Summary::new(),
            max_queue: 0,
        }
    }

    fn is_free(&self) -> bool {
        self.current.is_none()
    }

    /// The bus went idle: when to post its wake — at the calendar head,
    /// unless a wake is already pending no later (or nothing is left).
    fn arm_wake(&mut self) -> Option<SimTime> {
        let (head, _) = self.calendar.head()?;
        let at = SimTime::from_nanos(head.at);
        if self.wake.is_some_and(|t| t <= at) {
            return None;
        }
        self.wake = Some(at);
        Some(at)
    }

    /// A wake fired at `now`: whether the bus is free to take a request.
    fn wake(&mut self, now: SimTime) -> bool {
        if self.wake == Some(now) {
            self.wake = None;
        }
        self.is_free()
    }

    /// The holder's hold ended: take its transfer off the bus.
    fn complete(&mut self) -> T {
        let (hold, done) = self.current.take().expect("bus completion with no holder");
        self.total_busy += hold;
        done
    }

    /// Give the free bus at `now` to `t`, requested at `at`, for `hold`.
    /// A `handover` grant follows a hold that ended at `now`, and the
    /// request was made before that end (a production period outlasts a
    /// hold, and the card death fires before any hold that ends at its
    /// instant): the handovers since `at`, this one included, are the
    /// queue it joined. Otherwise the bus was idle, and the request is
    /// granted at its own instant, before any other request made then.
    fn grant(&mut self, now: SimTime, at: SimTime, hold: SimDuration, t: T, handover: bool) {
        debug_assert!(self.is_free());
        if handover {
            while self.handovers.front().is_some_and(|&g| g < at) {
                self.handovers.pop_front();
            }
            self.max_queue = self.max_queue.max(self.handovers.len() + 1);
            self.handovers.push_back(now);
        } else {
            debug_assert_eq!(at, now, "an idle bus waits for a request's instant");
        }
        self.grants += 1;
        self.wait.add(now.since(at).as_millis_f64());
        self.current = Some((hold, t));
    }

    /// Fraction of `[0, now]` the bus was held, through the last completion.
    fn utilization(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        self.total_busy.as_nanos() as f64 / now.as_nanos() as f64
    }
}

struct World {
    cards: Vec<Card>,
    streams: Vec<StreamState>,
    bus: Bus<Request, Transfer>,
    bus_model: PciBus,
    end: SimTime,
    run_end_ns: u64,
    frames_per_stream: u64,
    ni_cache: bool,
    batch_budget: u32,
    migrations: Vec<MigrationRecord>,
    lost_frames: u64,
}

/// A chassis event. The engine holds it inline, so posting one allocates
/// nothing.
#[derive(Clone, Copy)]
enum Ev {
    /// The bus holder's hold ended ([`bus_done`]).
    BusDone,
    /// The idle bus's earliest request is due ([`bus_wake`]).
    BusWake,
    /// Card `c`'s service pass, armed for `at_ns` in card epoch `epoch`
    /// ([`run_pass`]).
    Pass { c: usize, epoch: u64, at_ns: u64 },
    /// Card `c` dies ([`fail_card`]).
    FailCard(usize),
}

impl Event<World> for Ev {
    fn fire(self, w: &mut World, eng: &mut Eng) {
        match self {
            Ev::BusDone => bus_done(w, eng),
            Ev::BusWake => bus_wake(w, eng),
            Ev::Pass { c, epoch, at_ns } => run_pass(w, eng, c, epoch, at_ns),
            Ev::FailCard(c) => fail_card(w, eng, c),
        }
    }
}

type Eng = Engine<World, Ev>;

/// Grant the free bus at `now` to the earliest request due by then,
/// skipping productions that never happen; returns the grant's hold.
fn pull(w: &mut World, now: SimTime, handover: bool) -> Option<SimDuration> {
    while let Some((key, request)) = w.bus.calendar.pop_ready(now.as_nanos()) {
        let (hold, t) = match request {
            Request::Frame(g) => match produce(w, key, g as usize) {
                Some(frame) => frame,
                None => continue,
            },
            Request::Migrate(m) => (m.hold, Transfer::Migrate(m)),
        };
        w.bus.grant(now, SimTime::from_nanos(key.at), hold, t, handover);
        return Some(hold);
    }
    None
}

/// The bus is idle: post its wake, if it needs one.
fn arm_wake(w: &mut World, eng: &mut Eng) {
    if let Some(at) = w.bus.arm_wake() {
        eng.post_at(at, Ev::BusWake);
    }
}

/// Grant the idle bus to a request made now, or wait for the next one.
fn start_bus(w: &mut World, eng: &mut Eng) {
    match pull(w, eng.now(), false) {
        Some(hold) => {
            eng.post_in(hold, Ev::BusDone);
        }
        None => arm_wake(w, eng),
    }
}

/// The idle bus's wake: a wake that finds the bus busy (a state transfer
/// took it) does nothing.
fn bus_wake(w: &mut World, eng: &mut Eng) {
    if w.bus.wake(eng.now()) {
        start_bus(w, eng);
    }
}

/// The bus holder's hold ended: hand the bus on, run the finished
/// transfer's handler, then post the new holder's completion.
fn bus_done(w: &mut World, eng: &mut Eng) {
    let done = w.bus.complete();
    let next = pull(w, eng.now(), true);
    if next.is_none() {
        arm_wake(w, eng);
    }
    match done {
        Transfer::Frame(d) => deliver(w, eng, d),
        Transfer::Migrate(m) => finish_migration(w, eng, *m),
    }
    if let Some(hold) = next {
        eng.post_in(hold, Ev::BusDone);
    }
}

/// I2O device id we give card `c`'s message unit on the chassis bus.
fn card_tid(c: usize) -> Tid {
    Tid((0x100 + c) as u16)
}

/// Schedule (or tighten) card `c`'s next service pass: the pass fires at
/// `max(card clock, next eligible deadline)`, and none is armed once either
/// passes the run end.
fn schedule_pass(w: &mut World, eng: &mut Eng, c: usize) {
    let run_end = w.run_end_ns;
    let (at_ns, epoch) = {
        let card = &mut w.cards[c];
        if card.dead {
            return;
        }
        let Some(next) = card.ext.scheduler_mut().next_eligible() else {
            return;
        };
        let card_now = card.ext.platform().now_ns;
        if next >= run_end || card_now >= run_end {
            return;
        }
        let at_ns = card_now.max(next);
        if let Some((t, ev)) = card.pass_ev {
            if t <= at_ns {
                return; // an earlier (or equal) pass is already pending
            }
            eng.cancel(ev);
            card.pass_ev = None;
        }
        (at_ns, card.epoch)
    };
    // The card clock can run ahead of engine time (decision/dispatch costs
    // advance it inside a pass); clamp so the event is never in the past.
    let at = SimTime::from_nanos(at_ns).max(eng.now());
    let ev = eng.post_at(at, Ev::Pass { c, epoch, at_ns });
    w.cards[c].pass_ev = Some((at_ns, ev));
}

/// One service event on card `c`: a `poll_batch` of up to
/// [`ChassisConfig::batch_budget`] passes (one pass at the default budget
/// of 1) at the time [`schedule_pass`] computed, then re-arm. The event
/// does *not* re-probe `next_eligible` — the probe happens once per event,
/// when it is armed (the probe is work-metered, so an extra one would
/// perturb decision pricing).
fn run_pass(w: &mut World, eng: &mut Eng, c: usize, epoch: u64, at_ns: u64) {
    let run_end = w.run_end_ns;
    let budget = w.batch_budget;
    {
        let card = &mut w.cards[c];
        if card.dead || card.epoch != epoch {
            return;
        }
        card.pass_ev = None;
        // The card clock may have advanced past the armed time (a
        // migration re-open latches it forward); never poll backwards.
        let card_now = card.ext.platform().now_ns;
        if card_now >= run_end {
            return;
        }
        let _ = card.ext.poll_batch(card_now.max(at_ns), budget);
    }
    schedule_pass(w, eng, c);
}

/// Produce stream `g`'s frame due at `key`, which the bus has just pulled,
/// and queue its successor one period after that instant. Returns the
/// frame's hold and transfer, or `None` for a production that never
/// happens: past the run end or the stream's frame count, or after the
/// stream was torn down. Production is time-driven — bus congestion
/// delays *delivery*, not generation: however late the pull, the frame
/// keeps its production instant as the start of its bus wait, and its
/// successor is due one period after that instant. A saturated bus shows
/// up as arrival lag, exactly like a real producer card filling its
/// outbound queue.
fn produce(w: &mut World, key: Key, g: usize) -> Option<(SimDuration, Transfer)> {
    let (run_end, cap) = (w.run_end_ns, w.frames_per_stream);
    let s = &mut w.streams[g];
    if key.at >= run_end || s.produced >= cap || s.stop.is_some_and(|stop| key > stop) {
        return None;
    }
    let seq = s.produced;
    s.produced += 1;
    let (len, kind) = match s.gen.as_mut() {
        Some(gen) => {
            let f = gen.frame(seq);
            (f.len, vbr::frame_kind(f.kind))
        }
        None => (s.len, FrameKind::P),
    };
    let addr = s.next_addr;
    s.next_addr += u64::from(len);
    let next = key.at + s.qos.period;
    if next < run_end && seq + 1 < cap {
        w.bus.calendar.push_next(s.class, next, Request::Frame(g as u32));
    }
    let hold = path_b_frame_hold(&mut w.bus_model, u64::from(len));
    let frame = FrameDesc {
        stream: StreamId(g as u32),
        seq,
        len,
        kind,
        enqueued_at: 0,
        addr,
    };
    Some((hold, Transfer::Frame(frame)))
}

/// A Path-B frame finished crossing the bus: hand it to the owning card's
/// scheduler (or park it if the stream is mid-migration), stamped with the
/// arrival time. The frame's `(len, kind, addr)` travel with it from
/// [`produce`] — delivery never re-derives them, so VBR frames arrive
/// exactly as generated.
fn deliver(w: &mut World, eng: &mut Eng, d: FrameDesc) {
    let now_ns = eng.now().as_nanos();
    let d = FrameDesc {
        enqueued_at: now_ns,
        ..d
    };
    let s = &mut w.streams[d.stream.index()];
    if !s.alive() {
        w.lost_frames += 1;
    } else if s.migrating {
        s.held.push_back(d);
    } else {
        s.arrived += 1;
        let (owner, local) = (s.owner, s.local);
        w.cards[owner]
            .ext
            .scheduler_mut()
            .enqueue(local, FrameDesc { stream: local, ..d }, now_ns);
        schedule_pass(w, eng, owner);
    }
}

/// Deterministic card death: mark the card dead, cancel its pass, and
/// migrate every stream it owned (ascending global order) to surviving
/// cards via Path-B state transfers.
fn fail_card(w: &mut World, eng: &mut Eng, c: usize) {
    {
        let card = &mut w.cards[c];
        if card.dead {
            return;
        }
        card.dead = true;
        card.epoch += 1;
        if let Some((_, ev)) = card.pass_ev.take() {
            eng.cancel(ev);
        }
    }
    let owned: Vec<usize> = w
        .streams
        .iter()
        .enumerate()
        .filter(|(_, s)| s.alive() && s.owner == c)
        .map(|(g, _)| g)
        .collect();
    for g in owned {
        start_migration(w, eng, c, g);
    }
}

/// Drain stream `g` off dead card `c`, snapshot its accounting, and either
/// start a bus-priced state transfer to a surviving card or tear the
/// stream down if nowhere can admit it.
fn start_migration(w: &mut World, eng: &mut Eng, c: usize, g: usize) {
    let end = w.end;
    let now_ns = eng.now().as_nanos();
    let (local, qos, len) = {
        let s = &mut w.streams[g];
        s.migrating = true;
        (s.local, s.qos, s.len)
    };
    // Snapshot everything the dying card knows about the stream.
    let backlog = {
        let (card, s) = (&mut w.cards[c], &mut w.streams[g]);
        let offset = s.prior.sent();
        s.prior.absorb(card.ext.scheduler().stats(local));
        let li = local.index();
        let p = card.ext.platform_mut();
        let bw = std::mem::replace(&mut p.bw[li], RateWindow::new(SimDuration::from_secs(1))).finish(end);
        s.prior_bw.push(bw);
        s.prior_qdelay
            .extend(p.qdelay[li].drain(..).map(|(n, d)| (n + offset, d)));
        let mut backlog = Vec::new();
        card.ext.scheduler_mut().remove_stream_with(local, |d| backlog.push(d));
        card.admitted.retain(|&(gg, _)| gg != g);
        card.fold = None;
        backlog
    };
    // Re-place on the survivors using the same admission test as initial
    // placement.
    let service = service_estimate_ns(len, w.ni_cache);
    match place_on(&mut w.cards, qos, service) {
        None => {
            // Nowhere to go: the stream dies with the card. Its drained
            // backlog, and any frame still in flight, is lost.
            w.lost_frames += backlog.len() as u64;
            let s = &mut w.streams[g];
            s.stop = Some(w.bus.calendar.failure_key(now_ns));
            s.migrating = false;
            w.migrations.push(MigrationRecord {
                stream: g,
                from: c,
                to: None,
                frames_moved: 0,
                bytes_moved: 0,
                completed_at_ns: now_ns,
            });
        }
        Some(target) => {
            // Reserve admission on the target immediately so subsequent
            // placements in this failure see the load.
            w.cards[target].admit(g, qos);
            let bytes_moved: u64 = backlog.iter().map(|d| u64::from(d.len)).sum();
            let frames_moved = backlog.len() as u64;
            let migrate = PeerMigrate {
                stream: g as u32,
                period: qos.period,
                loss_num: qos.loss_num,
                loss_den: qos.loss_den,
                backlog: frames_moved as u32,
                bytes: bytes_moved,
            };
            let msg = MessageFrame::new(
                I2oFunction::PeerStreamMigrate,
                card_tid(target),
                card_tid(c),
                g as u32,
                migrate.to_payload(),
            );
            // State transfer: message PIO, then DMA of 64 B of scheduler
            // state plus the drained backlog payload, then completion read.
            let hold = w.bus_model.pio_write_time(msg.words() as u64)
                + w.bus_model.dma_time(64 + bytes_moved)
                + w.bus_model.pio_read_time(6);
            let m = Migration {
                g,
                from: c,
                target,
                hold,
                backlog,
                frames_moved,
                bytes_moved,
            };
            w.bus.calendar.push_failure(now_ns, Request::Migrate(Box::new(m)));
            if w.bus.is_free() {
                start_bus(w, eng);
            }
        }
    }
}

/// The state transfer for stream `m.g` reached card `m.target`: re-open
/// the stream there, re-enqueue the drained backlog, flush any frames
/// parked during the migration window, and resume service.
fn finish_migration(w: &mut World, eng: &mut Eng, m: Migration) {
    let (g, target) = (m.g, m.target);
    let done_ns = eng.now().as_nanos();
    let qos = w.streams[g].qos;
    let new_local = {
        let card = &mut w.cards[target];
        // Never rewind the target card's clock: opening latches `now`.
        let t_open = done_ns.max(card.ext.platform().now_ns);
        let reply = card.ext.on_instruction(
            VcmInstruction::OpenStream(StreamSpec {
                period: qos.period,
                loss_num: qos.loss_num,
                loss_den: qos.loss_den,
                droppable: true,
            }),
            t_open,
        );
        assert_eq!(reply.status, 0, "re-admission on migration target");
        let new_local = StreamId(reply.payload[0]);
        if new_local.index() == card.locals.len() {
            card.locals.push(g);
        } else {
            card.locals[new_local.index()] = g;
        }
        for d in m.backlog {
            card.ext
                .scheduler_mut()
                .enqueue(new_local, FrameDesc { stream: new_local, ..d }, t_open);
        }
        new_local
    };
    let held: Vec<FrameDesc> = {
        let s = &mut w.streams[g];
        s.owner = target;
        s.local = new_local;
        s.migrating = false;
        s.held.drain(..).collect()
    };
    for d in held {
        w.streams[g].arrived += 1;
        w.cards[target]
            .ext
            .scheduler_mut()
            .enqueue(new_local, FrameDesc { stream: new_local, ..d }, done_ns);
    }
    w.migrations.push(MigrationRecord {
        stream: g,
        from: m.from,
        to: Some(target),
        frames_moved: m.frames_moved,
        bytes_moved: m.bytes_moved,
        completed_at_ns: done_ns,
    });
    schedule_pass(w, eng, target);
}

/// Pointwise-sum bandwidth traces from every card that served a stream.
/// All inputs are 1 s windows anchored at t=0 and rolled to run end, so
/// sampling instants align; a stream that never migrated returns its sole
/// trace untouched (bit-exact with the single-card path).
fn merge_bandwidth(prior: &[Trace], current: Trace) -> Trace {
    if prior.is_empty() {
        return current;
    }
    let mut all: Vec<&Trace> = prior.iter().collect();
    all.push(&current);
    let len = all.iter().map(|t| t.points().len()).max().unwrap_or(0);
    let mut out = Trace::new();
    for i in 0..len {
        let mut at = None;
        let mut sum = 0.0;
        for t in &all {
            if let Some(&(ts, v)) = t.points().get(i) {
                at = Some(ts);
                sum += v;
            }
        }
        if let Some(ts) = at {
            out.push(ts, sum);
        }
    }
    out
}

/// Run the chassis experiment.
pub fn run(cfg: ChassisConfig) -> ChassisResult {
    let ncards = cfg.cards.max(1);
    let total = cfg.plan.clients.len();
    let sched_cfg = SchedulerConfig {
        pacing: Pacing::DeadlinePaced,
        ..SchedulerConfig::default()
    };

    // --- Per-card NI stacks. ---
    let mut cards: Vec<Card> = (0..ncards)
        .map(|_| {
            let platform = NiWirePlatform::new(total, cfg.ni_cache);
            let mut ext = MediaSchedExt::with_platform(total.max(1), sched_cfg.clone(), platform);
            ext.enable_trace(cfg.trace_capacity);
            Card {
                ext,
                dead: false,
                epoch: 0,
                pass_ev: None,
                locals: Vec::new(),
                admitted: Vec::new(),
                fold: None,
            }
        })
        .collect();

    // --- Placement + admission, plan order. ---
    let mut streams: Vec<StreamState> = Vec::with_capacity(total);
    let mut periods: Vec<u64> = Vec::new();
    for (g, c) in cfg.plan.clients.iter().enumerate() {
        let class = periods.iter().position(|&p| p == c.period).unwrap_or_else(|| {
            periods.push(c.period);
            periods.len() - 1
        });
        let qos = StreamQos::new(c.period, c.loss_num, c.loss_den);
        let len = ClientPlan::frame_bytes(c);
        let service = service_estimate_ns(len, cfg.ni_cache);
        let target = place_on(&mut cards, qos, service);
        let (owner, local, admitted) = match target {
            Some(t) => {
                let reply = cards[t].ext.on_instruction(
                    VcmInstruction::OpenStream(StreamSpec {
                        period: c.period,
                        loss_num: c.loss_num,
                        loss_den: c.loss_den,
                        droppable: true,
                    }),
                    0,
                );
                assert_eq!(reply.status, 0, "stream admission");
                let local = StreamId(reply.payload[0]);
                debug_assert_eq!(local.index(), cards[t].locals.len());
                cards[t].locals.push(g);
                cards[t].admit(g, qos);
                (t, local, true)
            }
            None => (0, StreamId(0), false),
        };
        streams.push(StreamState {
            qos,
            len,
            gen: c.vbr.clone().map(|spec| VbrTraceGen::new(spec, len)),
            next_addr: 0xA000_0000,
            class,
            owner,
            local,
            admitted,
            stop: None,
            migrating: false,
            produced: 0,
            arrived: 0,
            held: VecDeque::new(),
            prior: StreamStats::default(),
            prior_qdelay: Vec::new(),
            prior_bw: Vec::new(),
        });
    }

    // --- Preloaded sourcing: inject every descriptor now. ---
    if cfg.sourcing == Sourcing::Preloaded {
        for (g, c) in cfg.plan.clients.iter().enumerate() {
            if !streams[g].admitted {
                continue;
            }
            let mean = ClientPlan::frame_bytes(c);
            let t0 = c.connect_at.as_nanos();
            let (owner, local) = (streams[g].owner, streams[g].local);
            for k in 0..cfg.frames_per_stream {
                let (len, kind) = match streams[g].gen.as_mut() {
                    Some(gen) => {
                        let f = gen.frame(k as u64);
                        (f.len, vbr::frame_kind(f.kind))
                    }
                    None => (mean, FrameKind::P),
                };
                let addr = streams[g].next_addr;
                streams[g].next_addr += u64::from(len);
                cards[owner].ext.on_instruction(
                    VcmInstruction::EnqueueFrame {
                        stream: local,
                        addr,
                        len,
                        kind,
                    },
                    t0,
                );
            }
            streams[g].produced = cfg.frames_per_stream as u64;
            streams[g].arrived = cfg.frames_per_stream as u64;
        }
    }

    // --- Path-B sourcing: every admitted stream's first production. ---
    let mut first = Vec::new();
    let mut class_sizes = vec![0; periods.len()];
    if cfg.sourcing == Sourcing::PathB {
        for (g, c) in cfg.plan.clients.iter().enumerate() {
            if streams[g].admitted {
                first.push((c.connect_at.as_nanos(), Request::Frame(g as u32)));
                class_sizes[streams[g].class] += 1;
            }
        }
    }

    // --- Event-driven chassis run. ---
    let end = SimTime::ZERO + cfg.run;
    let mut eng = Eng::new();
    let mut w = World {
        cards,
        streams,
        bus: Bus::new(Calendar::new(first, &class_sizes)),
        bus_model: PciBus::new(),
        end,
        run_end_ns: end.as_nanos(),
        frames_per_stream: cfg.frames_per_stream as u64,
        ni_cache: cfg.ni_cache,
        batch_budget: cfg.batch_budget.max(1),
        migrations: Vec::new(),
        lost_frames: 0,
    };
    // The idle bus wakes for the first production before the card death
    // can fire, as the first productions' events came before it.
    arm_wake(&mut w, &mut eng);
    if let Some(f) = cfg.failure {
        eng.post_at(SimTime::ZERO + f.at, Ev::FailCard(f.card));
    }
    for c in 0..ncards {
        schedule_pass(&mut w, &mut eng, c);
    }
    eng.run(&mut w);

    // --- Results. ---
    let mut streams_out = Vec::with_capacity(total);
    for (g, c) in cfg.plan.clients.iter().enumerate() {
        let s = &w.streams[g];
        let (admitted, alive, owner) = (s.admitted, s.alive(), s.owner);
        // Every card's account of the stream: the ones it left, then the
        // serving card's.
        let mut acct = s.prior.clone();
        let (cur_bw, cur_qd) = if alive {
            let card = &mut w.cards[owner];
            acct.absorb(card.ext.scheduler().stats(s.local));
            let li = s.local.index();
            let p = card.ext.platform_mut();
            let bw = std::mem::replace(&mut p.bw[li], RateWindow::new(SimDuration::from_secs(1))).finish(end);
            (bw, std::mem::take(&mut p.qdelay[li]))
        } else {
            (Trace::new(), Vec::new())
        };
        let (sent, dropped) = (acct.sent(), acct.dropped);
        let mut qdelay = s.prior_qdelay.clone();
        qdelay.extend(cur_qd.into_iter().map(|(n, d)| (n + s.prior.sent(), d)));
        let bandwidth = merge_bandwidth(&s.prior_bw, cur_bw);
        streams_out.push(ChassisStream {
            name: c.name.clone(),
            global: g,
            card: if admitted { Some(owner) } else { None },
            admitted,
            alive,
            series: StreamSeries {
                name: c.name.clone(),
                bandwidth,
                qdelay,
                sent,
                dropped,
                violations: acct.violations,
                mean_jitter_ms: acct.mean_jitter() as f64 / 1e6,
            },
            produced: s.produced,
            arrived: s.arrived,
            backlog_at_end: s.arrived - sent - dropped,
        });
    }

    let mut total_decision = SimDuration::ZERO;
    let mut total_decisions = 0u64;
    let mut cards_out = Vec::with_capacity(ncards);
    for (c, card) in w.cards.iter_mut().enumerate() {
        let trace = TaggedCapture {
            card: c as u32,
            capture: card.ext.drain_trace(),
        };
        let p = card.ext.platform();
        total_decision += p.decision_total;
        total_decisions += p.decisions;
        let mean = if p.decisions == 0 {
            0.0
        } else {
            p.decision_total.as_micros_f64() / p.decisions as f64
        };
        let decisions = p.decisions;
        cards_out.push(CardReport {
            card: c,
            dead: card.dead,
            decisions,
            mean_decision_us: mean,
            admitted_streams: card.admitted.len(),
            stream_map: card.locals.clone(),
            trace,
        });
    }

    let bus = BusReport {
        utilization: w.bus.utilization(eng.now()),
        mean_wait_ms: w.bus.wait.mean(),
        max_queue: w.bus.max_queue,
        grants: w.bus.grants,
        dma_bytes: w.bus_model.dma_bytes,
        transactions: w.bus_model.transactions,
    };

    ChassisResult {
        streams: streams_out,
        cards: cards_out,
        bus,
        migrations: w.migrations,
        lost_frames: w.lost_frames,
        mean_decision_us: if total_decisions == 0 {
            0.0
        } else {
            total_decision.as_micros_f64() / total_decisions as f64
        },
        events: eng.events_fired(),
    }
}

// ---------------------------------------------------------------------------
// Capacity sweep
// ---------------------------------------------------------------------------

/// One row of [`sweep_cards`].
#[derive(Clone, Copy, Debug)]
pub struct SweepRow {
    /// Cards in the chassis.
    pub cards: usize,
    /// Streams offered to the placement layer.
    pub offered_streams: usize,
    /// Streams admission accepted.
    pub admitted_streams: usize,
    /// Frames dispatched onto the wire across all cards.
    pub delivered_frames: u64,
    /// Full-rate stream-equivalents sustained (delivered ÷ frames one
    /// stream needs over the run).
    pub sustained_streams: f64,
    /// Aggregate scheduling decisions per simulated second.
    pub decisions_per_sec: f64,
    /// Shared-bus utilization.
    pub bus_utilization: f64,
    /// Mean wait for a bus grant (ms).
    pub mean_dma_wait_ms: f64,
    /// Frames destroyed (always 0 without fault injection).
    pub lost_frames: u64,
}

/// A uniform Path-B plan: `n` identical 30 fps / 260 kb/s clients with
/// connect times phase-spread across one period so arrivals don't align.
/// Every client plays until the run ends, so the plan does not depend on
/// the run length `_run_for`; the parameter stays because the external
/// `perfbench` harness calls this signature.
pub fn uniform_plan(n: usize, _run_for: SimDuration) -> ClientPlan {
    let period: u64 = Cadence::NTSC.period_ns();
    let clients = (0..n)
        .map(|i| MpegClient {
            name: format!("s{i}"),
            connect_at: SimTime::from_nanos(period * i as u64 / n.max(1) as u64),
            period,
            loss_num: 2,
            loss_den: 8,
            bitrate: 260_000,
            vbr: None,
        })
        .collect();
    ClientPlan { clients }
}

/// Measure aggregate capacity vs card count: each row runs a Path-B
/// chassis offered `per_card` uniform streams per card and reports what it
/// actually sustained. Replaces the analytic `cluster` numbers with
/// event-driven measurements (the closed form stays as a cross-check).
pub fn sweep_cards(card_counts: &[usize], per_card: usize, run_for: SimDuration) -> Vec<SweepRow> {
    card_counts
        .iter()
        .map(|&n| {
            let offered = n * per_card;
            let plan = uniform_plan(offered, run_for);
            let period = Cadence::NTSC.period_ns();
            let frames = (run_for.as_nanos() / period) as usize + 2;
            let r = run(ChassisConfig {
                cards: n,
                plan,
                frames_per_stream: frames,
                run: run_for,
                ni_cache: true,
                trace_capacity: 0,
                sourcing: Sourcing::PathB,
                failure: None,
                batch_budget: 1,
            });
            let delivered: u64 = r.streams.iter().map(|s| s.series.sent).sum();
            let admitted = r.streams.iter().filter(|s| s.admitted).count();
            let run_s = run_for.as_secs_f64();
            SweepRow {
                cards: n,
                offered_streams: offered,
                admitted_streams: admitted,
                delivered_frames: delivered,
                sustained_streams: delivered as f64 * (period as f64 / 1e9) / run_s,
                decisions_per_sec: r.cards.iter().map(|c| c.decisions).sum::<u64>() as f64 / run_s,
                bus_utilization: r.bus.utilization,
                mean_dma_wait_ms: r.bus.mean_wait_ms,
                lost_frames: r.lost_frames,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A world whose bus carries labels: a request is `(hold ms, label)`,
    /// each completion logs the label and its completion time (ms), and
    /// the first completion may make one more request from inside its
    /// handler.
    struct BusWorld {
        bus: Bus<(u64, &'static str), &'static str>,
        done: Vec<(&'static str, u64)>,
        follow_up: Option<&'static str>,
    }

    fn ms(n: u64) -> u64 {
        n * 1_000_000
    }

    /// A bus whose first requests are `first`, `(ms, hold ms, label)` in
    /// posting order, with one period class.
    fn bus_world(first: &[(u64, u64, &'static str)]) -> BusWorld {
        let requests = first.iter().map(|&(at, hold, t)| (ms(at), (hold, t)));
        BusWorld {
            bus: Bus::new(Calendar::new(requests, &[first.len()])),
            done: Vec::new(),
            follow_up: None,
        }
    }

    /// `pull`'s loop over labels, where every request is granted.
    fn pull_label(w: &mut BusWorld, now: SimTime, handover: bool) -> Option<SimDuration> {
        let (key, (hold_ms, t)) = w.bus.calendar.pop_ready(now.as_nanos())?;
        let hold = SimDuration::from_millis(hold_ms);
        w.bus.grant(now, SimTime::from_nanos(key.at), hold, t, handover);
        Some(hold)
    }

    fn arm(w: &mut BusWorld, eng: &mut Engine<BusWorld>) {
        if let Some(at) = w.bus.arm_wake() {
            eng.schedule_at(at, |w, eng| {
                if w.bus.wake(eng.now()) {
                    start(w, eng);
                }
            });
        }
    }

    /// `start_bus` over labels.
    fn start(w: &mut BusWorld, eng: &mut Engine<BusWorld>) {
        match pull_label(w, eng.now(), false) {
            Some(hold) => {
                eng.schedule_in(hold, finished);
            }
            None => arm(w, eng),
        }
    }

    /// `bus_done`'s order: hand over, run the handler, then schedule.
    fn finished(w: &mut BusWorld, eng: &mut Engine<BusWorld>) {
        let t = w.bus.complete();
        let next = pull_label(w, eng.now(), true);
        if next.is_none() {
            arm(w, eng);
        }
        w.done.push((t, eng.now().as_nanos() / 1_000_000));
        if let Some(f) = w.follow_up.take() {
            w.bus.calendar.push_next(0, eng.now().as_nanos(), (1, f));
        }
        if let Some(hold) = next {
            eng.schedule_in(hold, finished);
        }
    }

    /// Run a bus world from an idle bus at t = 0.
    fn run_bus(w: &mut BusWorld) -> Engine<BusWorld> {
        let mut eng = Engine::new();
        arm(w, &mut eng);
        eng.run(w);
        eng
    }

    #[test]
    fn bus_grants_in_fifo_order() {
        let mut w = bus_world(&[(0, 1, "a"), (0, 1, "b"), (0, 1, "c")]);
        let mut eng = Engine::new();
        arm(&mut w, &mut eng);
        eng.step(&mut w);
        // Only the holder has an event; the waiters have none.
        assert_eq!(eng.pending(), 1);
        eng.run(&mut w);
        assert_eq!(w.done, vec![("a", 1), ("b", 2), ("c", 3)]);
        assert_eq!(w.bus.grants, 3);
        // One wake, then one completion per grant.
        assert_eq!(eng.events_fired(), 4);
    }

    #[test]
    fn free_bus_grants_with_zero_wait() {
        let mut w = bus_world(&[(0, 1, "a"), (5, 1, "b")]);
        let eng = run_bus(&mut w);
        assert!(w.bus.is_free());
        // Idle since 1 ms: the request at 5 ms is granted at once too.
        assert_eq!(w.done, vec![("a", 1), ("b", 6)]);
        assert_eq!((w.bus.wait.count(), w.bus.wait.max()), (2, 0.0));
        assert_eq!((w.bus.max_queue, eng.events_fired()), (0, 4));
    }

    #[test]
    fn bus_busy_time_counts_every_hold() {
        let mut w = bus_world(&[(0, 1, "a"), (0, 3, "b")]);
        run_bus(&mut w);
        assert_eq!(w.bus.total_busy, SimDuration::from_millis(4));
        assert_eq!(w.bus.utilization(SimTime::from_nanos(ms(8))), 0.5);
        assert_eq!(w.bus.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn bus_wait_is_request_to_grant() {
        // Holds of 1, 2 and 3 ms requested at 0: waits 0, 1 and 3 ms.
        let mut w = bus_world(&[(0, 1, "a"), (0, 2, "b"), (0, 3, "c")]);
        run_bus(&mut w);
        assert_eq!(w.bus.wait.count(), 3);
        assert!((w.bus.wait.mean() - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!((w.bus.wait.min(), w.bus.wait.max()), (0.0, 3.0));
    }

    /// The queue depth a request joined is read back when it is granted:
    /// six requests at 0 leave five waiting.
    #[test]
    fn bus_queue_depth_is_tracked() {
        let mut w = bus_world(&[(0, 1, "x"); 6]);
        run_bus(&mut w);
        assert_eq!(w.bus.max_queue, 5);
    }

    /// Staggered requests, against the FIFO depths they joined: `b` (1 ms)
    /// and `c` (2 ms) wait behind `a`'s 10 ms hold, one then two deep; at
    /// 12 ms `b` has the bus and `d` joins `c`, two deep. Grants older
    /// than the oldest waiting request drop out of the handover log.
    #[test]
    fn bus_queue_depth_counts_grants_since_the_request() {
        let mut w = bus_world(&[(0, 10, "a"), (1, 10, "b"), (2, 10, "c"), (12, 10, "d")]);
        run_bus(&mut w);
        assert_eq!(w.done, vec![("a", 10), ("b", 20), ("c", 30), ("d", 40)]);
        assert_eq!(w.bus.max_queue, 2);
        assert_eq!(
            w.bus.handovers,
            [SimTime::from_nanos(ms(20)), SimTime::from_nanos(ms(30))]
        );
    }

    /// A request made while a completion is handled queues behind every
    /// request that was already waiting: the bus was handed on first.
    #[test]
    fn request_from_a_completion_handler_queues_behind_waiters() {
        let mut w = bus_world(&[(0, 1, "a"), (0, 1, "b"), (0, 1, "c")]);
        w.follow_up = Some("d");
        run_bus(&mut w);
        assert_eq!(w.done, vec![("a", 1), ("b", 2), ("c", 3), ("d", 4)]);
    }

    /// At one instant the calendar yields the engine's order: first
    /// productions by plan order, then the card death's state transfers
    /// in the order it made them, then run-time productions in the order
    /// they were queued, whatever their period class.
    #[test]
    fn calendar_ranks_first_productions_then_the_death_then_run_time_requests() {
        let mut cal = Calendar::new([(5, "f0"), (0, "early"), (5, "f2")], &[1, 1]);
        cal.push_next(0, 3, "r2");
        cal.push_next(1, 5, "r0");
        cal.push_failure(5, "m0");
        cal.push_next(0, 5, "r1");
        cal.push_failure(5, "m1");
        assert_eq!(cal.failure_key(5), Key { at: 5, rank: 3 });
        assert_eq!(cal.pop_ready(0).map(|(_, r)| r), Some("early"));
        assert_eq!(cal.pop_ready(2).map(|(_, r)| r), None, "nothing else is due by 2");
        let order: Vec<_> = std::iter::from_fn(|| cal.pop_ready(5).map(|(_, r)| r)).collect();
        assert_eq!(order, ["r2", "f0", "f2", "m0", "m1", "r0", "r1"]);
        assert_eq!(cal.head(), None);
    }

    /// An idle bus has at most one wake pending, at its calendar head; a
    /// wake that finds the bus taken does nothing.
    #[test]
    fn idle_bus_arms_one_wake_at_its_head() {
        let mut bus: Bus<&str, &str> = Bus::new(Calendar::new([(7, "a"), (9, "b")], &[]));
        let t7 = SimTime::from_nanos(7);
        assert_eq!(bus.arm_wake(), Some(t7));
        assert_eq!(bus.arm_wake(), None, "already pending at the head");
        bus.grant(t7, t7, SimDuration::from_nanos(1), "a", false);
        assert!(!bus.wake(t7), "the bus is taken");
        assert_eq!(bus.wake, None);
        let _ = bus.complete();
        let _ = bus.calendar.pop_ready(7);
        assert_eq!(bus.arm_wake(), Some(SimTime::from_nanos(9)));
    }

    /// A one-card chassis whose card dies one period in, the instant
    /// stream 0's second frame and stream 1's first frame are both due.
    /// The first production ranks before the death, so that frame is made,
    /// crosses the bus and is lost; the run-time one ranks after it and is
    /// never made.
    #[test]
    fn a_death_stops_the_productions_ranked_after_it() {
        let period = Cadence::NTSC.period_ns();
        let mut plan = uniform_plan(2, SimDuration::from_secs(1));
        plan.clients[1].connect_at = SimTime::from_nanos(period);
        let r = run(ChassisConfig {
            plan,
            frames_per_stream: 10,
            run: SimDuration::from_secs(1),
            sourcing: Sourcing::PathB,
            failure: Some(CardFailure {
                card: 0,
                at: SimDuration::from_nanos(period),
            }),
            ..ChassisConfig::default()
        });
        assert!(r.migrations.iter().all(|m| m.to.is_none()));
        let counts: Vec<_> = r.streams.iter().map(|s| (s.produced, s.arrived, s.alive)).collect();
        assert_eq!(counts, [(1, 1, false), (1, 0, false)]);
        assert_eq!(r.bus.grants, 2);
        assert!(r.lost_frames >= 1);
    }

    #[test]
    fn placement_spreads_identical_streams_round_robin() {
        let plan = uniform_plan(8, SimDuration::from_secs(1));
        let r = run(ChassisConfig {
            cards: 4,
            plan,
            frames_per_stream: 10,
            run: SimDuration::from_secs(1),
            sourcing: Sourcing::PathB,
            ..ChassisConfig::default()
        });
        // Least-utilized-first over identical streams = round-robin.
        let owners: Vec<usize> = r.streams.iter().map(|s| s.card.unwrap()).collect();
        assert_eq!(owners, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn path_b_frames_all_arrive_on_an_idle_bus() {
        let plan = uniform_plan(4, SimDuration::from_secs(2));
        let r = run(ChassisConfig {
            cards: 2,
            plan,
            frames_per_stream: 30,
            run: SimDuration::from_secs(2),
            sourcing: Sourcing::PathB,
            ..ChassisConfig::default()
        });
        assert_eq!(r.lost_frames, 0);
        for s in &r.streams {
            assert!(s.admitted);
            // The bus drains after the run end.
            assert_eq!(s.produced, s.arrived);
            assert!(s.series.sent > 0, "{} dispatched nothing", s.name);
        }
        assert!(r.bus.utilization > 0.0 && r.bus.utilization < 0.1);
    }

    /// A card that opts into the fused batch pass must put the same
    /// frames on the wire at the same times as the one-decision-per-pass
    /// cadence — only the engine-event count (and the idle terminating
    /// pass each sweep runs) may differ.
    #[test]
    fn batch_budget_delivers_identical_frames() {
        let base = ChassisConfig {
            cards: 2,
            plan: uniform_plan(6, SimDuration::from_secs(2)),
            frames_per_stream: 40,
            run: SimDuration::from_secs(2),
            sourcing: Sourcing::PathB,
            ..ChassisConfig::default()
        };
        let one = run(base.clone());
        let batched = run(ChassisConfig {
            batch_budget: 8,
            ..base
        });
        assert_eq!(one.lost_frames, batched.lost_frames);
        assert_eq!(one.streams.len(), batched.streams.len());
        for (a, b) in one.streams.iter().zip(&batched.streams) {
            assert_eq!(a.card, b.card, "{}", a.name);
            assert_eq!(a.series.sent, b.series.sent, "{}", a.name);
            assert_eq!(a.series.dropped, b.series.dropped, "{}", a.name);
            assert_eq!(a.series.qdelay, b.series.qdelay, "{}", a.name);
            assert_eq!(a.series.bandwidth.points(), b.series.bandwidth.points(), "{}", a.name);
        }
    }

    #[test]
    fn service_estimate_matches_cluster_primitives() {
        // ≈ 65 µs decision + 28 µs dispatch + ~612 µs wire at 1083 B.
        let ns = service_estimate_ns(1_083, true);
        assert!((600_000..=800_000).contains(&ns), "{ns}");
    }

    #[test]
    fn place_prefers_least_utilized_and_respects_admission() {
        let qos = StreamQos::new(33_333_333, 2, 8);
        let service = service_estimate_ns(1_083, true);
        let loads = vec![
            CardLoad {
                card: 0,
                dead: false,
                admitted: vec![qos; 3],
            },
            CardLoad {
                card: 1,
                dead: true,
                admitted: vec![],
            },
            CardLoad {
                card: 2,
                dead: false,
                admitted: vec![qos; 1],
            },
        ];
        assert_eq!(place(&loads, qos, service), Some(2));
        // Saturate card 2 past feasibility: falls back to card 0.
        let mut sat = loads.clone();
        sat[2].admitted = vec![qos; 100];
        assert_eq!(place(&sat, qos, service), Some(0));
        // Everything full or dead: no placement.
        sat[0].admitted = vec![qos; 100];
        assert_eq!(place(&sat, qos, service), None);
    }

    /// A small saturated Path-B chassis: 12 cards × 40 uniform streams
    /// offer 1.04 times the bus for 0.25 s. Its `BusReport` is pinned bit
    /// for bit, and so is the engine's event count: one per bus transfer,
    /// one per service pass and one wake of the idle bus at the first
    /// production. With an event per frame produced as well it was
    /// 10,192, and at two events per transfer (a grant event, then the
    /// hold) 13,793.
    #[test]
    fn saturated_bus_report_and_event_count_are_pinned() {
        let run_for = SimDuration::from_millis(250);
        let r = run(ChassisConfig {
            cards: 12,
            plan: uniform_plan(480, run_for),
            frames_per_stream: 10,
            run: run_for,
            sourcing: Sourcing::PathB,
            ..ChassisConfig::default()
        });
        assert_eq!((r.bus.grants, r.bus.max_queue), (3_601, 150));
        assert_eq!(r.bus.utilization.to_bits(), 1f64.to_bits());
        assert_eq!(
            r.bus.mean_wait_ms.to_bits(),
            0x4015_96f0_7bcf_fa10,
            "{}",
            r.bus.mean_wait_ms
        );
        let produced: u64 = r.streams.iter().map(|s| s.produced).sum();
        let passes: u64 = r.cards.iter().map(|c| c.decisions).sum();
        assert_eq!((produced, passes), (3_601, 2_990));
        assert_eq!(r.events, 6_592);
        assert_eq!(r.events, r.bus.grants + passes + 1);
    }
}
