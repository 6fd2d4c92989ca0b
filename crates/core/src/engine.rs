//! The real multithreaded streaming engine.
//!
//! Architecture mirrors the paper's NI firmware, with OS threads standing
//! in for the co-processor:
//!
//! * **Producers** (any thread holding a [`StreamHandle`]) copy a frame
//!   into the preallocated [`FramePool`] and push its descriptor through a
//!   synchronization-free SPSC ring — Figure 4(b)'s "circular queue for
//!   each stream eliminates the need for synchronization between the
//!   scheduler … and the server that queues packets".
//! * **The doorbell.** Like the host posting to the I2O inbound queue and
//!   ringing the NI's doorbell (§3), a producer that posts a descriptor
//!   sets its stream's bit in a ready bitmap (one `AtomicU64` per 64
//!   stream slots) and unparks the scheduler thread. Commands unpark it
//!   too. The scheduler runs when work arrives, not on a timer.
//! * **The scheduler thread** swaps the ready words out, drains only the
//!   rings whose bits were set into the shared service core
//!   ([`dwcs::svc::SchedService`], dual-heap representation,
//!   deadline-paced by default) bound to an [`EnginePlatform`]: decisions,
//!   drop-reclaim ordering and dispatch accounting live in the core; the
//!   platform resolves descriptors to pooled payloads and hands frames to
//!   the configured [`FrameSink`]. Dropped frames' pool slots are
//!   reclaimed by the platform. With nothing eligible it parks with no
//!   timeout; with a deadline pending it parks until that deadline.
//! * **Control** flows over a command channel (open/close/stats/shutdown)
//!   — the moral equivalent of DVCM instructions through the I2O unit.

use crate::pool::{FramePool, SlotId};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TryRecvError};
use dwcs::metrics::StreamStats;
use dwcs::ring::{Consumer, Producer, SpscRing};
use dwcs::scheduler::Pacing;
use dwcs::svc::{DispatchRecord, Platform, SchedService};
use dwcs::{DualHeap, FrameDesc, FrameKind, SchedulerConfig, StreamId, StreamQos};
use nistream_trace::TraceCapture;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Errors from the server API.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerError {
    /// The scheduler thread is gone (shutdown or panicked).
    Stopped,
    /// The frame pool is exhausted (producer outran the scheduler).
    PoolExhausted,
    /// Per-stream ring is full (burst larger than ring capacity).
    RingFull,
    /// Payload exceeds the pool slot size.
    FrameTooLarge,
    /// Unknown stream.
    NoSuchStream,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Stopped => write!(f, "scheduler thread has stopped"),
            ServerError::PoolExhausted => write!(f, "frame pool exhausted (producer outran the scheduler)"),
            ServerError::RingFull => write!(f, "per-stream descriptor ring full"),
            ServerError::FrameTooLarge => write!(f, "payload exceeds the pool slot size"),
            ServerError::NoSuchStream => write!(f, "unknown stream id"),
        }
    }
}

impl std::error::Error for ServerError {}

/// Record of one frame delivered to a collecting sink.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SentRecord {
    /// Stream id.
    pub stream: StreamId,
    /// Producer sequence number.
    pub seq: u64,
    /// Payload length.
    pub len: u32,
    /// Whether it met its deadline.
    pub on_time: bool,
    /// Engine-clock nanoseconds at dispatch.
    pub at_ns: u64,
}

/// Where dispatched frames go.
pub enum SinkKind {
    /// Drop payloads (pure scheduling benchmark).
    Discard,
    /// Keep [`SentRecord`]s retrievable via [`MediaServer::collected`].
    Collect,
    /// Datagram per frame to the given address (best-effort).
    Udp(std::net::SocketAddr),
}

/// The clock the engine's service core reads: wall time in production,
/// a shared settable counter when a test drives the core synchronously.
#[derive(Clone)]
pub enum EngineClock {
    /// Nanoseconds elapsed since the server epoch.
    Wall(Instant),
    /// Virtual nanoseconds, set by the driver.
    Virtual(Arc<AtomicU64>),
}

impl EngineClock {
    /// A wall clock starting now.
    pub fn wall() -> EngineClock {
        EngineClock::Wall(Instant::now())
    }

    /// A virtual clock starting at zero; clones share the counter.
    pub fn virtual_clock() -> EngineClock {
        EngineClock::Virtual(Arc::new(AtomicU64::new(0)))
    }

    /// Current reading in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        match self {
            EngineClock::Wall(epoch) => epoch.elapsed().as_nanos() as u64,
            EngineClock::Virtual(ns) => ns.load(Ordering::Relaxed),
        }
    }

    /// Set a virtual clock; a wall clock ignores this (time passes by
    /// itself).
    pub fn set_ns(&self, t: u64) {
        if let EngineClock::Virtual(ns) = self {
            ns.store(t, Ordering::Relaxed);
        }
    }
}

/// A sink for dispatched frames. Implement to bridge into your transport.
pub trait FrameSink: Send {
    /// Deliver one frame.
    fn deliver(&mut self, desc: &FrameDesc, on_time: bool, payload: &[u8]);

    /// Observe a frame the scheduler dropped (late, within loss budget)
    /// or discarded on stream close. Its pool slot is already reclaimed.
    fn dropped(&mut self, desc: &FrameDesc) {
        let _ = desc;
    }
}

/// Discards frames.
pub struct DiscardSink;

impl FrameSink for DiscardSink {
    fn deliver(&mut self, _desc: &FrameDesc, _on_time: bool, _payload: &[u8]) {}
}

/// Collects [`SentRecord`]s (and drop notices) behind shared handles.
pub struct CollectSink {
    records: Arc<parking_lot::Mutex<Vec<SentRecord>>>,
    drops: Arc<parking_lot::Mutex<Vec<FrameDesc>>>,
    clock: EngineClock,
}

impl CollectSink {
    /// A collector reading timestamps from `clock`; returns the sink and
    /// shared handles to its dispatch and drop logs.
    #[allow(clippy::type_complexity)]
    pub fn shared(
        clock: EngineClock,
    ) -> (
        CollectSink,
        Arc<parking_lot::Mutex<Vec<SentRecord>>>,
        Arc<parking_lot::Mutex<Vec<FrameDesc>>>,
    ) {
        let records = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let drops = Arc::new(parking_lot::Mutex::new(Vec::new()));
        (
            CollectSink {
                records: Arc::clone(&records),
                drops: Arc::clone(&drops),
                clock,
            },
            records,
            drops,
        )
    }
}

impl FrameSink for CollectSink {
    fn deliver(&mut self, desc: &FrameDesc, on_time: bool, payload: &[u8]) {
        self.records.lock().push(SentRecord {
            stream: desc.stream,
            seq: desc.seq,
            len: payload.len() as u32,
            on_time,
            at_ns: self.clock.now_ns(),
        });
    }

    fn dropped(&mut self, desc: &FrameDesc) {
        self.drops.lock().push(*desc);
    }
}

/// Sends each frame as a UDP datagram.
pub struct UdpSink {
    socket: UdpSocket,
}

impl FrameSink for UdpSink {
    fn deliver(&mut self, _desc: &FrameDesc, _on_time: bool, payload: &[u8]) {
        // Best-effort, like the firmware's raw port: errors are dropped.
        let _ = self.socket.send(&payload[..payload.len().min(65_000)]);
    }
}

/// The host engine's binding of [`dwcs::svc::Platform`]: descriptors
/// resolve against the [`FramePool`], dispatches deliver the pooled
/// payload to a [`FrameSink`], dropped frames release their slot back to
/// the pool, and time comes from an [`EngineClock`].
pub struct EnginePlatform {
    clock: EngineClock,
    pool: FramePool,
    sink: Box<dyn FrameSink>,
}

impl EnginePlatform {
    /// Bind a clock, payload pool and sink into a platform.
    pub fn new(clock: EngineClock, pool: FramePool, sink: Box<dyn FrameSink>) -> EnginePlatform {
        EnginePlatform { clock, pool, sink }
    }
}

impl Platform for EnginePlatform {
    fn now(&mut self) -> u64 {
        self.clock.now_ns()
    }

    fn set_now(&mut self, t: u64) {
        self.clock.set_ns(t);
    }

    fn dispatch(&mut self, rec: &DispatchRecord) {
        let sink = &mut self.sink;
        self.pool.take(rec.frame.desc.addr as SlotId, |payload| {
            sink.deliver(&rec.frame.desc, rec.frame.on_time, payload);
        });
    }

    fn reclaim(&mut self, desc: &FrameDesc) {
        self.pool.release(desc.addr as SlotId);
        self.sink.dropped(desc);
    }
}

/// The engine's service core: the shared scheduler service bound to the
/// host-thread platform. The scheduler thread drives one of these; tests
/// (notably the cross-placement conformance suite) drive one
/// synchronously on a virtual clock.
pub type HostSchedCore = SchedService<DualHeap, EnginePlatform>;

/// Build the engine's service core directly.
pub fn host_sched_core(
    cfg: SchedulerConfig,
    clock: EngineClock,
    pool: FramePool,
    sink: Box<dyn FrameSink>,
) -> HostSchedCore {
    SchedService::new(DualHeap::new(16), cfg, EnginePlatform::new(clock, pool, sink))
}

enum Command {
    Open(
        StreamQos,
        Consumer<FrameDesc>,
        Arc<StreamLink>,
        Sender<(StreamId, Arc<AtomicU64>)>,
    ),
    Close(StreamId, Sender<()>),
    Stats(StreamId, Sender<Option<StreamStats>>),
    StatsAll(Sender<Vec<(StreamId, StreamStats)>>),
    DrainTrace(Sender<TraceCapture>),
    Shutdown,
}

/// Whether a stream still takes frames, shared by its [`StreamHandle`] and
/// the scheduler thread: `Ok` while open, else the error a send gets
/// ([`ServerError::NoSuchStream`] once closed, [`ServerError::Stopped`]
/// once the scheduler thread has exited). A producer holds the lock while
/// it stores and posts a frame; the scheduler takes it to close the stream
/// before draining the ring. So a frame either lands in the ring before
/// the close drains it, or is refused without taking a pool slot.
type StreamLink = parking_lot::Mutex<Result<(), ServerError>>;

/// The producer's half of the doorbell: its stream's bit in one ready
/// word, and the scheduler thread to wake.
struct Doorbell {
    word: Arc<AtomicU64>,
    bit: u64,
    scheduler: Thread,
}

impl Doorbell {
    /// Flag the stream ready and wake the scheduler. A bit already set
    /// means a wake for it is already owed, since only the scheduler's
    /// swap clears it.
    fn ring(&self) {
        if self.word.fetch_or(self.bit, Ordering::AcqRel) & self.bit == 0 {
            self.scheduler.unpark();
        }
    }
}

/// One open stream as the scheduler thread sees it.
struct StreamRing {
    cons: Consumer<FrameDesc>,
    link: Arc<StreamLink>,
}

/// The scheduler thread's stream table: rings indexed by stream slot and
/// the ready bitmap the producers ring, one word per 64 slots.
#[derive(Default)]
struct Streams {
    rings: Vec<Option<StreamRing>>,
    ready: Vec<Arc<AtomicU64>>,
}

impl Streams {
    /// Install a newly opened stream's ring; returns its ready word.
    fn insert(&mut self, sid: StreamId, ring: StreamRing) -> Arc<AtomicU64> {
        let i = sid.index();
        if self.rings.len() <= i {
            self.rings.resize_with(i + 1, || None);
        }
        self.rings[i] = Some(ring);
        while self.ready.len() <= i / 64 {
            self.ready.push(Arc::new(AtomicU64::new(0)));
        }
        Arc::clone(&self.ready[i / 64])
    }

    fn is_open(&self, sid: StreamId) -> bool {
        self.rings.get(sid.index()).is_some_and(Option::is_some)
    }

    /// Refuse the stream's further frames, then hand back the ring with
    /// whatever was posted before the refusal.
    fn remove(&mut self, sid: StreamId) -> Option<Consumer<FrameDesc>> {
        let ring = self.rings.get_mut(sid.index())?.take()?;
        *ring.link.lock() = Err(ServerError::NoSuchStream);
        Some(ring.cons)
    }

    /// Drain the rings whose ready bits are set into the service core.
    fn drain_ready(&mut self, svc: &mut HostSchedCore, t: u64) {
        for (w, word) in self.ready.iter().enumerate() {
            if word.load(Ordering::Relaxed) == 0 {
                continue;
            }
            let mut bits = word.swap(0, Ordering::AcqRel);
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                // A bit can outlive its stream (rung just before a close).
                if let Some(Some(ring)) = self.rings.get_mut(i) {
                    let sid = StreamId(i as u32);
                    while let Some(desc) = ring.cons.pop() {
                        svc.ingest_at(sid, desc, t);
                    }
                }
            }
        }
    }
}

impl Drop for Streams {
    /// The scheduler thread is exiting (shutdown, a dropped server or a
    /// panic): nothing drains the rings any more, so refuse every open
    /// stream's further frames.
    fn drop(&mut self) {
        for ring in self.rings.iter().flatten() {
            *ring.link.lock() = Err(ServerError::Stopped);
        }
    }
}

/// Builder for [`MediaServer`].
pub struct MediaServerBuilder {
    pool_slots: usize,
    slot_size: usize,
    ring_capacity: usize,
    pacing: Pacing,
    late_grace: u64,
    sink: SinkKind,
    trace_capacity: usize,
}

impl Default for MediaServerBuilder {
    fn default() -> Self {
        MediaServerBuilder {
            pool_slots: 1024,
            slot_size: 64 * 1024,
            ring_capacity: 256,
            pacing: Pacing::DeadlinePaced,
            // A real clock always overshoots a deadline by wakeup jitter;
            // tolerate OS-scheduler noise before declaring frames late
            // (tighten for hard pacing experiments).
            late_grace: 5 * dwcs::types::MILLISECOND,
            sink: SinkKind::Discard,
            trace_capacity: 0,
        }
    }
}

impl MediaServerBuilder {
    /// Frame pool geometry (slots × slot bytes). Allocated once at start.
    pub fn pool(mut self, slots: usize, slot_size: usize) -> Self {
        self.pool_slots = slots;
        self.slot_size = slot_size;
        self
    }

    /// Per-stream descriptor ring capacity.
    pub fn ring_capacity(mut self, cap: usize) -> Self {
        self.ring_capacity = cap;
        self
    }

    /// Dispatch pacing (deadline-paced by default: output at stream rate).
    pub fn pacing(mut self, p: Pacing) -> Self {
        self.pacing = p;
        self
    }

    /// Lateness grace in nanoseconds (see `dwcs::SchedulerConfig`).
    pub fn late_grace(mut self, ns: u64) -> Self {
        self.late_grace = ns;
        self
    }

    /// Frame destination.
    pub fn sink(mut self, sink: SinkKind) -> Self {
        self.sink = sink;
        self
    }

    /// Attach an event trace ring of `capacity` events to the scheduler
    /// thread (0 — the default — disables tracing). Drain with
    /// [`MediaServer::drain_trace`].
    pub fn trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Spawn the scheduler thread and return the server.
    pub fn start(self) -> std::io::Result<MediaServer> {
        let pool = FramePool::new(self.pool_slots, self.slot_size);
        let epoch = Instant::now();
        let clock = EngineClock::Wall(epoch);
        let mut records = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mut drops = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let sink: Box<dyn FrameSink> = match self.sink {
            SinkKind::Discard => Box::new(DiscardSink),
            SinkKind::Collect => {
                let (sink, recs, drps) = CollectSink::shared(clock.clone());
                records = recs;
                drops = drps;
                Box::new(sink)
            }
            SinkKind::Udp(addr) => {
                let socket = UdpSocket::bind("0.0.0.0:0")?;
                socket.connect(addr)?;
                Box::new(UdpSink { socket })
            }
        };

        let (cmd_tx, cmd_rx) = unbounded::<Command>();
        let cfg = SchedulerConfig {
            pacing: self.pacing,
            late_grace: self.late_grace,
            ..SchedulerConfig::default()
        };
        let thread_pool = pool.clone();
        let trace_capacity = self.trace_capacity;
        let handle = std::thread::Builder::new()
            .name("dwcs-scheduler".into())
            .spawn(move || scheduler_loop(cfg, cmd_rx, thread_pool, sink, clock, trace_capacity))?;

        Ok(MediaServer {
            cmd_tx,
            scheduler: handle.thread().clone(),
            pool,
            epoch,
            ring_capacity: self.ring_capacity,
            records,
            drops,
            handle: parking_lot::Mutex::new(Some(handle)),
        })
    }
}

/// Apply one control command to the service core. Returns `true` on
/// shutdown.
fn handle_command(svc: &mut HostSchedCore, streams: &mut Streams, pool: &FramePool, cmd: Command) -> bool {
    match cmd {
        Command::Open(qos, cons, link, reply) => {
            let sid = svc.open(qos);
            let word = streams.insert(sid, StreamRing { cons, link });
            let _ = reply.send((sid, word));
        }
        Command::Close(sid, reply) => {
            // Reclaim anything still queued in the ring; the service core
            // routes frames already drained into the scheduler through
            // the platform's reclaimer.
            if let Some(mut cons) = streams.remove(sid) {
                while let Some(desc) = cons.pop() {
                    pool.release(desc.addr as SlotId);
                }
                svc.close(sid);
            }
            let _ = reply.send(());
        }
        Command::Stats(sid, reply) => {
            let _ = reply.send(streams.is_open(sid).then(|| svc.scheduler().stats(sid).clone()));
        }
        Command::StatsAll(reply) => {
            let all: Vec<_> = svc
                .scheduler()
                .stream_ids()
                .collect::<Vec<_>>()
                .into_iter()
                .map(|sid| (sid, svc.scheduler().stats(sid).clone()))
                .collect();
            let _ = reply.send(all);
        }
        Command::DrainTrace(reply) => {
            let _ = reply.send(svc.drain_trace());
        }
        Command::Shutdown => return true,
    }
    false
}

fn scheduler_loop(
    cfg: SchedulerConfig,
    cmd_rx: Receiver<Command>,
    pool: FramePool,
    sink: Box<dyn FrameSink>,
    clock: EngineClock,
    trace_capacity: usize,
) {
    let mut svc = host_sched_core(cfg, clock.clone(), pool.clone(), sink);
    svc.set_trace(trace_capacity);
    let mut streams = Streams::default();

    loop {
        // 1. Control commands.
        loop {
            match cmd_rx.try_recv() {
                Ok(cmd) => {
                    if handle_command(&mut svc, &mut streams, &pool, cmd) {
                        return;
                    }
                }
                Err(TryRecvError::Disconnected) => return,
                Err(TryRecvError::Empty) => break,
            }
        }

        // 2. Drain the rings whose doorbell rang into the service core.
        streams.drain_ready(&mut svc, clock.now_ns());

        // 3. One service pass: decide, reclaim drops, dispatch.
        let d = svc.service_once();
        if d.frame.is_some() || d.dropped > 0 {
            continue; // stay hot while frames flow
        }

        // 4. Idle: park until a doorbell or command, or until the next
        // deadline. An unpark that lands before the park leaves a token,
        // so the park returns at once and no wake is lost.
        match svc.next_eligible() {
            None => std::thread::park(),
            Some(at) => {
                let t = clock.now_ns();
                if at > t {
                    std::thread::park_timeout(Duration::from_nanos(at - t));
                }
            }
        }
    }
}

/// Handle for producing frames into one stream. Single producer: the ring
/// is SPSC; clone-free by design.
pub struct StreamHandle {
    id: StreamId,
    producer: Producer<FrameDesc>,
    link: Arc<StreamLink>,
    doorbell: Doorbell,
    pool: FramePool,
    epoch: Instant,
    seq: u64,
    kind_cycle: [FrameKind; 9],
}

impl StreamHandle {
    /// This stream's id.
    pub fn id(&self) -> StreamId {
        self.id
    }

    /// Queue one frame for scheduling (copies the payload into the pool).
    pub fn send(&mut self, payload: &[u8]) -> Result<(), ServerError> {
        self.send_kind(payload, self.kind_cycle[(self.seq % 9) as usize])
    }

    /// Queue one frame with an explicit picture kind. A closed stream
    /// refuses it with [`ServerError::NoSuchStream`], a stopped server
    /// with [`ServerError::Stopped`].
    pub fn send_kind(&mut self, payload: &[u8], kind: FrameKind) -> Result<(), ServerError> {
        if payload.len() > self.pool.slot_size() {
            return Err(ServerError::FrameTooLarge);
        }
        let open = self.link.lock();
        (*open)?;
        let slot = self.pool.store(payload).ok_or(ServerError::PoolExhausted)?;
        let desc = FrameDesc {
            stream: self.id,
            seq: self.seq,
            len: payload.len() as u32,
            kind,
            enqueued_at: self.epoch.elapsed().as_nanos() as u64,
            addr: u64::from(slot),
        };
        match self.producer.push(desc) {
            Ok(()) => {
                drop(open);
                self.seq += 1;
                self.doorbell.ring();
                Ok(())
            }
            Err(_) => {
                self.pool.release(slot);
                Err(ServerError::RingFull)
            }
        }
    }

    /// Frames queued so far.
    pub fn produced(&self) -> u64 {
        self.seq
    }
}

/// The media server: a DWCS scheduler thread plus producer-facing API.
pub struct MediaServer {
    cmd_tx: Sender<Command>,
    scheduler: Thread,
    pool: FramePool,
    epoch: Instant,
    ring_capacity: usize,
    records: Arc<parking_lot::Mutex<Vec<SentRecord>>>,
    drops: Arc<parking_lot::Mutex<Vec<FrameDesc>>>,
    handle: parking_lot::Mutex<Option<JoinHandle<()>>>,
}

impl MediaServer {
    /// Start building a server.
    pub fn builder() -> MediaServerBuilder {
        MediaServerBuilder::default()
    }

    /// Post a command and ring the scheduler's doorbell.
    fn command(&self, cmd: Command) -> Result<(), ServerError> {
        self.cmd_tx.send(cmd).map_err(|_| ServerError::Stopped)?;
        self.scheduler.unpark();
        Ok(())
    }

    /// Post a command carrying a reply sender and wait for the reply.
    fn request<T>(&self, cmd: impl FnOnce(Sender<T>) -> Command) -> Result<T, ServerError> {
        let (tx, rx) = bounded(1);
        self.command(cmd(tx))?;
        rx.recv().map_err(|_| ServerError::Stopped)
    }

    /// Open a stream with the given QoS; returns its producer handle.
    pub fn open_stream(&self, qos: StreamQos) -> Result<StreamHandle, ServerError> {
        let (producer, consumer) = SpscRing::with_capacity(self.ring_capacity);
        let link = Arc::new(parking_lot::Mutex::new(Ok(())));
        let (id, word) = self.request(|reply| Command::Open(qos, consumer, Arc::clone(&link), reply))?;
        Ok(StreamHandle {
            id,
            producer,
            link,
            doorbell: Doorbell {
                word,
                bit: 1 << (id.index() % 64),
                scheduler: self.scheduler.clone(),
            },
            pool: self.pool.clone(),
            epoch: self.epoch,
            seq: 0,
            kind_cycle: [
                FrameKind::I,
                FrameKind::B,
                FrameKind::B,
                FrameKind::P,
                FrameKind::B,
                FrameKind::B,
                FrameKind::P,
                FrameKind::B,
                FrameKind::B,
            ],
        })
    }

    /// Close a stream and wait until the scheduler has: its backlog is
    /// discarded, its pool slots reclaimed, and its handle's further sends
    /// refused with [`ServerError::NoSuchStream`].
    pub fn close_stream(&self, sid: StreamId) -> Result<(), ServerError> {
        self.request(|reply| Command::Close(sid, reply))
    }

    /// Fetch a stream's service statistics.
    pub fn stats(&self, sid: StreamId) -> Result<StreamStats, ServerError> {
        self.request(|reply| Command::Stats(sid, reply))?
            .ok_or(ServerError::NoSuchStream)
    }

    /// Fetch statistics for every open stream.
    pub fn stats_all(&self) -> Result<Vec<(StreamId, StreamStats)>, ServerError> {
        self.request(Command::StatsAll)
    }

    /// Records accumulated by a [`SinkKind::Collect`] sink.
    pub fn collected(&self) -> Vec<SentRecord> {
        self.records.lock().clone()
    }

    /// How many records [`MediaServer::collected`] would return, without
    /// copying them.
    pub fn collected_len(&self) -> usize {
        self.records.lock().len()
    }

    /// Descriptors of frames dropped by the scheduler (late within loss
    /// budget, or discarded on close) — populated by a
    /// [`SinkKind::Collect`] sink.
    pub fn dropped_frames(&self) -> Vec<FrameDesc> {
        self.drops.lock().clone()
    }

    /// Drain the scheduler thread's trace ring (empty capture when the
    /// server was built without [`MediaServerBuilder::trace`]).
    pub fn drain_trace(&self) -> Result<TraceCapture, ServerError> {
        self.request(Command::DrainTrace)
    }

    /// Nanoseconds since the server started (the scheduler's clock).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Stop the scheduler thread and wait for it.
    pub fn shutdown(&self) {
        let _ = self.command(Command::Shutdown);
        if let Some(h) = self.handle.lock().take() {
            let _ = h.join();
        }
    }
}

impl Drop for MediaServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwcs::types::MILLISECOND;

    fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
        let start = Instant::now();
        while start.elapsed() < timeout {
            if cond() {
                return true;
            }
            std::thread::yield_now();
        }
        cond()
    }

    #[test]
    fn frames_flow_end_to_end() {
        let server = MediaServer::builder()
            .sink(SinkKind::Collect)
            .pacing(Pacing::WorkConserving)
            .start()
            .unwrap();
        let mut s = server.open_stream(StreamQos::new(MILLISECOND, 1, 2)).unwrap();
        for i in 0..20u8 {
            s.send(&[i; 100]).unwrap();
        }
        assert!(
            wait_until(Duration::from_secs(5), || server.collected().len() == 20),
            "collected {}",
            server.collected().len()
        );
        let recs = server.collected();
        let seqs: Vec<u64> = recs.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..20).collect::<Vec<_>>(), "FIFO per stream");
        let stats = server.stats(s.id()).unwrap();
        assert_eq!(stats.enqueued, 20);
        assert_eq!(stats.sent(), 20);
        server.shutdown();
    }

    #[test]
    fn deadline_pacing_spreads_dispatches() {
        // The scheduler thread's core on a virtual clock, driven the way
        // `scheduler_loop` drives it: serve while frames flow, otherwise
        // advance to the next eligible deadline.
        let pool = FramePool::new(16, 64);
        let clock = EngineClock::virtual_clock();
        let (sink, records, _) = CollectSink::shared(clock.clone());
        let cfg = SchedulerConfig {
            pacing: Pacing::DeadlinePaced,
            ..SchedulerConfig::default()
        };
        let mut svc = host_sched_core(cfg, clock.clone(), pool.clone(), Box::new(sink));
        // 5 ms period: 10 frames queued at once must take 45 ms to drain.
        let sid = svc.open(StreamQos::new(5 * MILLISECOND, 1, 2));
        for seq in 0..10u64 {
            let slot = pool.store(&[0u8; 64]).unwrap();
            let desc = FrameDesc {
                stream: sid,
                seq,
                len: 64,
                kind: FrameKind::P,
                enqueued_at: 0,
                addr: u64::from(slot),
            };
            svc.ingest_at(sid, desc, 0);
        }
        while svc.has_pending() {
            let d = svc.service_once();
            if d.frame.is_none() && d.dropped == 0 {
                let at = svc.next_eligible().expect("queued frames have a deadline");
                assert!(at > clock.now_ns(), "an idle pass leaves nothing eligible");
                clock.set_ns(at);
            }
        }
        let recs = records.lock();
        assert_eq!(recs.len(), 10, "every paced frame dispatched, none dropped");
        let span_ns = recs.last().unwrap().at_ns - recs.first().unwrap().at_ns;
        assert_eq!(span_ns, 45 * MILLISECOND, "paced one period apart");
    }

    #[test]
    fn two_streams_share_fairly() {
        let server = MediaServer::builder()
            .sink(SinkKind::Collect)
            .pacing(Pacing::WorkConserving)
            .start()
            .unwrap();
        let mut a = server.open_stream(StreamQos::new(MILLISECOND, 1, 2)).unwrap();
        let mut b = server.open_stream(StreamQos::new(MILLISECOND, 1, 2)).unwrap();
        for _ in 0..15 {
            a.send(&[1u8; 50]).unwrap();
            b.send(&[2u8; 50]).unwrap();
        }
        assert!(wait_until(Duration::from_secs(5), || server.collected().len() == 30));
        let recs = server.collected();
        let a_count = recs.iter().filter(|r| r.stream == a.id()).count();
        assert_eq!(a_count, 15);
        server.shutdown();
    }

    #[test]
    fn stats_all_reports_every_stream() {
        let server = MediaServer::builder().pacing(Pacing::WorkConserving).start().unwrap();
        let mut a = server.open_stream(StreamQos::new(MILLISECOND, 1, 2)).unwrap();
        let _b = server.open_stream(StreamQos::new(MILLISECOND, 0, 1)).unwrap();
        a.send(&[0u8; 8]).unwrap();
        // Wait for the scheduler thread to drain the ring, not merely for
        // both streams to exist — the enqueued counter lags stream creation.
        assert!(wait_until(Duration::from_secs(5), || {
            server
                .stats_all()
                .map(|v| v.len() == 2 && v.iter().any(|(sid, st)| *sid == a.id() && st.enqueued == 1))
                .unwrap_or(false)
        }));
        let all = server.stats_all().unwrap();
        assert_eq!(all.len(), 2);
        assert!(all.iter().any(|(sid, st)| *sid == a.id() && st.enqueued == 1));
        server.shutdown();
        assert!(matches!(server.stats_all(), Err(ServerError::Stopped)));
        assert_eq!(ServerError::RingFull.to_string(), "per-stream descriptor ring full");
    }

    #[test]
    fn stats_for_unknown_stream_errors() {
        let server = MediaServer::builder().start().unwrap();
        assert_eq!(server.stats(StreamId(42)).unwrap_err(), ServerError::NoSuchStream);
        // Closing an id that was never opened is a no-op, not a dead server.
        server.close_stream(StreamId(42)).unwrap();
        assert_eq!(server.stats(StreamId(42)).unwrap_err(), ServerError::NoSuchStream);
        server.shutdown();
    }

    #[test]
    fn close_reclaims_pool_slots() {
        let server = MediaServer::builder()
            .pool(8, 1024)
            .pacing(Pacing::DeadlinePaced)
            .start()
            .unwrap();
        // Long period so nothing dispatches quickly.
        let mut s = server.open_stream(StreamQos::new(10_000 * MILLISECOND, 1, 2)).unwrap();
        for _ in 0..8 {
            s.send(&[0u8; 16]).unwrap();
        }
        assert_eq!(s.send(&[0u8; 16]).unwrap_err(), ServerError::PoolExhausted);
        server.close_stream(s.id()).unwrap();
        assert_eq!(s.pool.free_slots(), 8, "close returns once the backlog is reclaimed");
        server.shutdown();
    }

    #[test]
    fn send_on_closed_stream_is_refused_without_taking_a_slot() {
        let server = MediaServer::builder().pool(8, 1024).start().unwrap();
        let mut s = server.open_stream(StreamQos::new(10_000 * MILLISECOND, 1, 2)).unwrap();
        server.close_stream(s.id()).unwrap();
        // A closed stream's ring is orphaned: a frame posted there would
        // hold its pool slot for good.
        for _ in 0..8 {
            assert_eq!(s.send(&[0u8; 16]).unwrap_err(), ServerError::NoSuchStream);
        }
        assert_eq!(s.pool.free_slots(), 8);
        let mut next = server.open_stream(StreamQos::new(10_000 * MILLISECOND, 1, 2)).unwrap();
        assert_eq!(next.id(), s.id(), "the closed slot is reused");
        next.send(&[0u8; 16]).unwrap();
        server.shutdown();
    }

    #[test]
    fn frames_racing_a_close_do_not_leak() {
        // Long period: nothing dispatches, so every accepted frame is still
        // queued when the close lands and must be reclaimed by it.
        let server = MediaServer::builder().pool(8, 64).start().unwrap();
        let pool = server.pool.clone();
        for _ in 0..200 {
            let mut s = server.open_stream(StreamQos::new(10_000 * MILLISECOND, 1, 2)).unwrap();
            let sid = s.id();
            let producer = std::thread::spawn(move || loop {
                match s.send(&[0u8; 64]) {
                    Err(ServerError::NoSuchStream) => break,
                    Ok(()) | Err(_) => std::thread::yield_now(),
                }
            });
            std::thread::yield_now();
            server.close_stream(sid).unwrap();
            producer.join().unwrap();
            assert_eq!(pool.free_slots(), 8, "a frame raced the close and kept its slot");
        }
        server.shutdown();
    }

    #[test]
    fn oversized_frame_rejected() {
        let server = MediaServer::builder().pool(4, 128).start().unwrap();
        let mut s = server.open_stream(StreamQos::new(MILLISECOND, 1, 2)).unwrap();
        assert_eq!(s.send(&[0u8; 129]).unwrap_err(), ServerError::FrameTooLarge);
        server.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let server = MediaServer::builder().start().unwrap();
        server.shutdown();
        server.shutdown();
        // API after shutdown errors cleanly.
        assert!(server.open_stream(StreamQos::new(MILLISECOND, 1, 2)).is_err());
    }

    #[test]
    fn send_after_shutdown_is_refused_without_taking_a_slot() {
        let server = MediaServer::builder().pool(8, 1024).start().unwrap();
        let mut s = server.open_stream(StreamQos::new(10_000 * MILLISECOND, 1, 2)).unwrap();
        server.shutdown();
        // Nothing drains the ring once the scheduler is gone: a frame
        // posted there would hold its pool slot for good.
        for _ in 0..9 {
            assert_eq!(s.send(&[0u8; 16]).unwrap_err(), ServerError::Stopped);
        }
        assert_eq!(s.pool.free_slots(), 8);
    }

    #[test]
    fn udp_sink_delivers_datagrams() {
        let receiver = UdpSocket::bind("127.0.0.1:0").unwrap();
        receiver.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let addr = receiver.local_addr().unwrap();
        let server = MediaServer::builder()
            .sink(SinkKind::Udp(addr))
            .pacing(Pacing::WorkConserving)
            .start()
            .unwrap();
        let mut s = server.open_stream(StreamQos::new(MILLISECOND, 1, 2)).unwrap();
        s.send(b"frame-payload-over-udp").unwrap();
        let mut buf = [0u8; 64];
        let (n, _) = receiver.recv_from(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"frame-payload-over-udp");
        server.shutdown();
    }

    #[test]
    fn traced_server_captures_the_event_stream() {
        let server = MediaServer::builder()
            .sink(SinkKind::Collect)
            .pacing(Pacing::WorkConserving)
            .trace(1024)
            .start()
            .unwrap();
        let mut s = server.open_stream(StreamQos::new(MILLISECOND, 1, 2)).unwrap();
        for i in 0..5u8 {
            s.send(&[i; 64]).unwrap();
        }
        assert!(wait_until(Duration::from_secs(5), || server.collected().len() == 5));
        let cap = server.drain_trace().unwrap();
        use nistream_trace::TraceEvent;
        let admits = cap
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Admit { .. }))
            .count();
        let dispatches = cap
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Dispatch { .. }))
            .count();
        assert_eq!(admits, 1, "one stream admitted");
        assert_eq!(dispatches, 5, "every delivered frame traced");
        // Untraced server yields an empty capture.
        let untraced = MediaServer::builder().start().unwrap();
        assert!(untraced.drain_trace().unwrap().is_empty());
        untraced.shutdown();
        server.shutdown();
    }

    #[test]
    fn virtual_clock_core_runs_synchronously() {
        // The same binding the scheduler thread uses, driven inline on a
        // virtual clock: this is the conformance-test harness surface.
        let pool = FramePool::new(8, 256);
        let clock = EngineClock::virtual_clock();
        let (sink, records, drops) = CollectSink::shared(clock.clone());
        let mut svc = host_sched_core(SchedulerConfig::default(), clock.clone(), pool.clone(), Box::new(sink));
        // Tolerance 1/2: the first late head drops within budget.
        let sid = svc.open(StreamQos::new(MILLISECOND, 1, 2));
        for seq in 0..2u64 {
            let slot = pool.store(&[seq as u8; 32]).unwrap();
            let desc = FrameDesc {
                stream: sid,
                seq,
                len: 32,
                kind: FrameKind::P,
                enqueued_at: 0,
                addr: u64::from(slot),
            };
            svc.ingest_at(sid, desc, 0);
        }
        // Far past the first deadline: seq 0 drops (slot reclaimed), the
        // re-anchored seq 1 dispatches on time.
        clock.set_ns(100 * MILLISECOND);
        let d = svc.service_once();
        assert_eq!(d.dropped, 1);
        assert!(d.frame.is_some());
        assert_eq!(drops.lock().len(), 1);
        let recs = records.lock();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].seq, 1);
        assert_eq!(recs[0].at_ns, 100 * MILLISECOND, "virtual timestamps");
        drop(recs);
        assert_eq!(pool.free_slots(), 8, "dropped and sent slots both recovered");
    }
}
