//! The event-scheduling executive.
//!
//! A hierarchical timing wheel of `(time, sequence)` entries (see the
//! private `wheel` module for the layout) over a slab arena that holds the
//! events themselves. The sequence number makes simultaneous events fire in
//! scheduling order (FIFO-stable), which the hardware models rely on for
//! determinism (e.g. two DMA completions in the same nanosecond); the
//! wheel preserves that order *exactly*, bit-for-bit against the original
//! binary-heap executive (kept as [`crate::reference::HeapEngine`] and
//! pinned by a differential property test).
//!
//! An event is any value of a type `E: Event<W>`, stored inline in its
//! arena slot and consumed by [`Event::fire`], which gets the *world* `W`
//! and the engine mutably so it can post follow-ups. The world is
//! whatever struct the caller composes out of hardware models; keeping it
//! outside the engine avoids interior mutability entirely. A model that
//! names its events as a plain `Copy` enum posts them with
//! [`Engine::post_at`] / [`Engine::post_in`], and an event then costs no
//! heap allocation and no indirect call. The default event type is
//! [`Thunk`], a boxed `FnOnce(&mut W, &mut Engine<W>)` closure, which is
//! what the closure methods ([`Engine::schedule_at`] and friends) post:
//! one queue, one arena and one step loop serve both.
//!
//! # Why a wheel
//!
//! The heap executive paid `O(log n)` sift work per schedule and per pop,
//! plus an ordered-set membership probe per pop for cancellation. Here a
//! schedule is a bitmap update and a push onto a recycled slot vector, a
//! pop is a bitmap scan amortised over a whole tick's worth of events,
//! and cancellation is an `O(1)` arena mark — the `EventId` carries its
//! arena index and a generation counter, so cancelling a fired, unknown
//! or doubly-cancelled id is a true no-op and [`Engine::pending`] stays
//! exact (the old executive leaked a tombstone per stale cancel).

use std::marker::PhantomData;

use crate::time::{SimDuration, SimTime};
use crate::wheel::{TimerEntry, TimerWheel};

/// A value the engine can hold as a pending event: fired once, at its
/// time, with the world and the engine (so it can post follow-ups).
pub trait Event<W>: Sized {
    /// Run the event.
    fn fire(self, w: &mut W, eng: &mut Engine<W, Self>);
}

/// A scheduled closure: one-shot over the world and the engine.
pub type EventFn<W> = Box<dyn FnOnce(&mut W, &mut Engine<W>)>;

/// The closure event, and the engine's default event type: a boxed
/// [`EventFn`], posted by [`Engine::schedule_at`] and friends.
pub struct Thunk<W>(EventFn<W>);

impl<W> Event<W> for Thunk<W> {
    #[inline]
    fn fire(self, w: &mut W, eng: &mut Engine<W>) {
        (self.0)(w, eng)
    }
}

/// Identifier of a scheduled event, usable with [`Engine::cancel`].
///
/// Packs the arena slot index with the slot's generation at scheduling
/// time; the generation advances when the slot is recycled, so a stale id
/// can never cancel a later event that happens to reuse the slot.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId(u64);

impl EventId {
    fn new(generation: u32, index: u32) -> EventId {
        EventId((u64::from(generation) << 32) | u64::from(index))
    }

    fn index(self) -> usize {
        (self.0 & 0xffff_ffff) as usize
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Arena slot payload states. `Free` slots sit on the free list;
/// `Cancelled` slots wait for their wheel entry to surface and be
/// discarded (lazy cancellation keeps the wheel remove-free).
enum SlotState<E> {
    Free,
    Pending(E),
    Cancelled,
}

struct ArenaSlot<E> {
    generation: u32,
    state: SlotState<E>,
}

/// The discrete-event engine for worlds of type `W` and events of type
/// `E` (boxed closures unless the model names its own).
pub struct Engine<W, E = Thunk<W>> {
    now: SimTime,
    wheel: TimerWheel,
    /// Event storage, by value; slots recycle through `free`, so once the
    /// arena has grown to the peak number of pending events, posting an
    /// event allocates nothing.
    arena: Vec<ArenaSlot<E>>,
    free: Vec<u32>,
    seq: u64,
    fired: u64,
    pending: usize,
    world: PhantomData<fn(&mut W)>,
}

impl<W, E: Event<W>> Default for Engine<W, E> {
    fn default() -> Self {
        Engine::new()
    }
}

impl<W, E: Event<W>> Engine<W, E> {
    /// A fresh engine at t = 0 with an empty calendar.
    pub fn new() -> Engine<W, E> {
        Engine {
            now: SimTime::ZERO,
            wheel: TimerWheel::new(),
            arena: Vec::new(),
            free: Vec::new(),
            seq: 0,
            fired: 0,
            pending: 0,
            world: PhantomData,
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events fired so far (diagnostics).
    pub fn events_fired(&self) -> u64 {
        self.fired
    }

    /// Number of pending (non-cancelled) events. Exact: cancels of
    /// already-fired or unknown ids do not distort the count.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Post `ev` at absolute time `at`. Posting in the past is a logic
    /// error in a model; it fires immediately at `now` instead (clamped)
    /// and is flagged in debug builds.
    pub fn post_at(&mut self, at: SimTime, ev: E) -> EventId {
        debug_assert!(at >= self.now, "event scheduled in the past: {at:?} < {:?}", self.now);
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        let idx = match self.free.pop() {
            Some(i) => {
                self.arena[i as usize].state = SlotState::Pending(ev);
                i
            }
            None => {
                self.arena.push(ArenaSlot {
                    generation: 0,
                    state: SlotState::Pending(ev),
                });
                (self.arena.len() - 1) as u32
            }
        };
        self.wheel.insert(TimerEntry {
            at: at.as_nanos(),
            seq,
            idx,
        });
        self.pending += 1;
        // The wheel also holds cancelled-but-not-yet-surfaced entries.
        debug_assert!(self.pending <= self.wheel.len());
        EventId::new(self.arena[idx as usize].generation, idx)
    }

    /// Post `ev` after a delay from now.
    pub fn post_in(&mut self, dt: SimDuration, ev: E) -> EventId {
        self.post_at(self.now + dt, ev)
    }

    /// Cancel a pending event. Cancelling an already-fired, unknown or
    /// already-cancelled id is a true no-op (timers race with their own
    /// expiry; that is normal): the generation check rejects stale ids
    /// outright, so no bookkeeping leaks.
    pub fn cancel(&mut self, id: EventId) {
        if let Some(slot) = self.arena.get_mut(id.index()) {
            if slot.generation == id.generation() && matches!(slot.state, SlotState::Pending(_)) {
                slot.state = SlotState::Cancelled;
                self.pending -= 1;
            }
        }
    }

    /// Retire an arena slot whose wheel entry has surfaced: bump the
    /// generation (invalidating outstanding ids) and recycle the index.
    fn release(&mut self, idx: u32) -> SlotState<E> {
        let slot = &mut self.arena[idx as usize];
        let state = std::mem::replace(&mut slot.state, SlotState::Free);
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(idx);
        state
    }

    /// Fire the next event, if any. Returns `false` when the calendar is
    /// exhausted.
    pub fn step(&mut self, world: &mut W) -> bool {
        while let Some(entry) = self.wheel.pop_next() {
            match self.release(entry.idx) {
                SlotState::Pending(ev) => {
                    let at = SimTime::from_nanos(entry.at);
                    debug_assert!(at >= self.now);
                    self.now = at;
                    self.fired += 1;
                    self.pending -= 1;
                    ev.fire(world, self);
                    return true;
                }
                // Cancelled (already uncounted) or stale: keep draining.
                SlotState::Cancelled | SlotState::Free => continue,
            }
        }
        false
    }

    /// Run until the calendar is empty.
    pub fn run(&mut self, world: &mut W) {
        while self.step(world) {}
    }

    /// Run while events exist at or before `t`; then advance the clock to
    /// exactly `t` (even if the calendar goes quiet earlier).
    pub fn run_until(&mut self, world: &mut W, t: SimTime) {
        while let Some(next) = self.peek_time() {
            if next > t {
                break;
            }
            self.step(world);
        }
        if self.now < t {
            self.now = t;
        }
    }

    /// Run at most `n` events (watchdog for potentially livelocked models).
    /// Returns the number actually fired.
    pub fn run_steps(&mut self, world: &mut W, n: u64) -> u64 {
        let mut fired = 0;
        while fired < n && self.step(world) {
            fired += 1;
        }
        fired
    }

    /// Time of the next pending event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            let entry = self.wheel.peek_next()?;
            if matches!(self.arena[entry.idx as usize].state, SlotState::Pending(_)) {
                return Some(SimTime::from_nanos(entry.at));
            }
            // Cancelled or stale: retire it eagerly so peek is O(live).
            let _ = self.wheel.pop_next();
            let _ = self.release(entry.idx);
        }
    }
}

/// The closure API: each method boxes `f` as a [`Thunk`] and posts it.
impl<W> Engine<W> {
    /// Schedule `f` at absolute time `at` (see [`Engine::post_at`]).
    pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut W, &mut Engine<W>) + 'static) -> EventId {
        self.post_at(at, Thunk(Box::new(f)))
    }

    /// Schedule `f` after a delay from now.
    pub fn schedule_in(&mut self, dt: SimDuration, f: impl FnOnce(&mut W, &mut Engine<W>) + 'static) -> EventId {
        self.schedule_at(self.now + dt, f)
    }

    /// Schedule `f` at the current instant, after all already-queued events
    /// for this instant (FIFO ordering by sequence).
    pub fn schedule_now(&mut self, f: impl FnOnce(&mut W, &mut Engine<W>) + 'static) -> EventId {
        self.schedule_at(self.now, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct World {
        log: Vec<(u64, &'static str)>,
    }

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn fires_in_time_order() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        eng.schedule_at(at(30), |w: &mut World, e| w.log.push((e.now().as_nanos(), "c")));
        eng.schedule_at(at(10), |w: &mut World, e| w.log.push((e.now().as_nanos(), "a")));
        eng.schedule_at(at(20), |w: &mut World, e| w.log.push((e.now().as_nanos(), "b")));
        eng.run(&mut w);
        assert_eq!(w.log, vec![(10, "a"), (20, "b"), (30, "c")]);
        assert_eq!(eng.events_fired(), 3);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        for name in ["first", "second", "third"] {
            eng.schedule_at(at(5), move |w: &mut World, _| w.log.push((5, name)));
        }
        eng.run(&mut w);
        assert_eq!(
            w.log.iter().map(|&(_, n)| n).collect::<Vec<_>>(),
            ["first", "second", "third"]
        );
    }

    #[test]
    fn events_can_schedule_events() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        eng.schedule_at(at(1), |_w: &mut World, e| {
            e.schedule_in(SimDuration::from_nanos(9), |w: &mut World, e| {
                w.log.push((e.now().as_nanos(), "chained"));
            });
        });
        eng.run(&mut w);
        assert_eq!(w.log, vec![(10, "chained")]);
    }

    #[test]
    fn cancel_prevents_firing() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        let id = eng.schedule_at(at(10), |w: &mut World, _| w.log.push((10, "no")));
        eng.schedule_at(at(20), |w: &mut World, _| w.log.push((20, "yes")));
        eng.cancel(id);
        eng.run(&mut w);
        assert_eq!(w.log, vec![(20, "yes")]);
        assert_eq!(eng.pending(), 0);
    }

    /// Regression test for the cancel leak: cancelling a fired, unknown
    /// or already-cancelled id must leave `pending()` exact (the heap
    /// executive recorded a tombstone per stale cancel, so `pending()` —
    /// computed as `heap.len() - cancelled.len()` — undercounted and
    /// could underflow once the tombstones outnumbered live entries).
    #[test]
    fn cancel_of_nonpending_id_is_a_true_noop() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        let fired = eng.schedule_at(at(1), |w: &mut World, _| w.log.push((1, "fired")));
        assert!(eng.step(&mut w));
        assert_eq!(eng.pending(), 0);
        // Fired id, cancelled repeatedly: nothing changes.
        eng.cancel(fired);
        eng.cancel(fired);
        assert_eq!(eng.pending(), 0);
        // A live event cancelled twice decrements exactly once…
        let live = eng.schedule_at(at(10), |w: &mut World, _| w.log.push((10, "never")));
        assert_eq!(eng.pending(), 1);
        eng.cancel(live);
        eng.cancel(live);
        assert_eq!(eng.pending(), 0);
        // …and the calendar still drains without underflow or ghosts.
        eng.schedule_at(at(20), |w: &mut World, _| w.log.push((20, "live")));
        assert_eq!(eng.pending(), 1);
        eng.run(&mut w);
        assert_eq!(w.log, vec![(1, "fired"), (20, "live")]);
        assert_eq!(eng.pending(), 0);
    }

    /// A stale id must not cancel a later event that recycled its slot.
    #[test]
    fn stale_id_cannot_cancel_slot_reuser() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        let first = eng.schedule_at(at(1), |w: &mut World, _| w.log.push((1, "first")));
        assert!(eng.step(&mut w));
        // The next schedule reuses the arena slot `first` occupied.
        eng.schedule_at(at(5), |w: &mut World, _| w.log.push((5, "reuser")));
        eng.cancel(first);
        eng.run(&mut w);
        assert_eq!(w.log, vec![(1, "first"), (5, "reuser")]);
    }

    #[test]
    fn run_until_stops_and_advances_clock() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        eng.schedule_at(at(10), |w: &mut World, _| w.log.push((10, "in")));
        eng.schedule_at(at(100), |w: &mut World, _| w.log.push((100, "out")));
        eng.run_until(&mut w, at(50));
        assert_eq!(w.log, vec![(10, "in")]);
        assert_eq!(eng.now(), at(50));
        eng.run(&mut w);
        assert_eq!(w.log.len(), 2);
    }

    #[test]
    fn run_until_advances_even_when_quiet() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        eng.run_until(&mut w, at(1_000));
        assert_eq!(eng.now(), at(1_000));
    }

    /// `run_until` peeks ahead; a subsequent schedule *between* `now` and
    /// the peeked event must still fire first (the wheel files it into
    /// the ready queue even though its tick is behind the wheel cursor).
    #[test]
    fn schedule_between_now_and_peeked_event_fires_first() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        eng.schedule_at(at(10_000_000), |w: &mut World, _| w.log.push((10_000_000, "far")));
        eng.run_until(&mut w, at(1_000));
        assert_eq!(eng.now(), at(1_000));
        eng.schedule_at(at(2_000), |w: &mut World, _| w.log.push((2_000, "near")));
        eng.run(&mut w);
        assert_eq!(w.log, vec![(2_000, "near"), (10_000_000, "far")]);
    }

    /// Events beyond the wheel horizon (> ~68 s) take the overflow path
    /// and still interleave exactly with near-horizon events.
    #[test]
    fn far_future_events_cross_the_overflow_horizon() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        let far = 100_000_000_000; // 100 s
        eng.schedule_at(at(far), move |w: &mut World, _| w.log.push((far, "far")));
        eng.schedule_at(at(5), |w: &mut World, _| w.log.push((5, "near")));
        eng.run(&mut w);
        assert_eq!(w.log, vec![(5, "near"), (far, "far")]);
        assert_eq!(eng.events_fired(), 2);
    }

    #[test]
    fn step_returns_false_on_empty() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        assert!(!eng.step(&mut w));
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut eng: Engine<World> = Engine::new();
        let id = eng.schedule_at(at(5), |_: &mut World, _| {});
        eng.schedule_at(at(7), |_: &mut World, _| {});
        eng.cancel(id);
        assert_eq!(eng.peek_time(), Some(at(7)));
    }

    #[test]
    fn run_steps_bounds_execution() {
        // A self-rescheduling event would otherwise run forever.
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        fn tick(w: &mut World, e: &mut Engine<World>) {
            w.log.push((e.now().as_nanos(), "tick"));
            e.schedule_in(SimDuration::from_nanos(1), tick);
        }
        eng.schedule_at(at(0), tick);
        let fired = eng.run_steps(&mut w, 5);
        assert_eq!(fired, 5);
        assert_eq!(w.log.len(), 5);
    }

    /// The arena must recycle slots: a long self-rescheduling run keeps a
    /// bounded arena no matter how many events fire.
    #[test]
    fn arena_recycles_slots_under_churn() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        fn tick(_w: &mut World, e: &mut Engine<World>) {
            e.schedule_in(SimDuration::from_nanos(100), tick);
        }
        for _ in 0..4 {
            eng.schedule_at(at(0), tick);
        }
        eng.run_steps(&mut w, 10_000);
        assert_eq!(eng.pending(), 4);
        assert!(eng.arena.len() <= 8, "arena grew to {} slots", eng.arena.len());
    }

    /// A typed event: logs its name, and `Chain` posts a `Log` 9 ns later.
    #[derive(Clone, Copy)]
    enum Ev {
        Log(&'static str),
        Chain,
    }

    impl Event<World> for Ev {
        fn fire(self, w: &mut World, e: &mut Engine<World, Ev>) {
            match self {
                Ev::Log(name) => w.log.push((e.now().as_nanos(), name)),
                Ev::Chain => {
                    e.post_in(SimDuration::from_nanos(9), Ev::Log("chained"));
                }
            }
        }
    }

    /// Typed events keep the closure engine's contract: time order, FIFO
    /// among simultaneous events, nested posts, exact cancellation.
    #[test]
    fn typed_events_fire_in_time_then_post_order() {
        let mut eng: Engine<World, Ev> = Engine::new();
        let mut w = World::default();
        eng.post_at(at(5), Ev::Log("second"));
        eng.post_at(at(1), Ev::Chain);
        let id = eng.post_at(at(3), Ev::Log("cancelled"));
        eng.post_at(at(5), Ev::Log("third"));
        eng.post_at(at(2), Ev::Log("first"));
        eng.cancel(id);
        eng.cancel(id);
        assert_eq!(eng.pending(), 4);
        eng.run(&mut w);
        assert_eq!(w.log, vec![(2, "first"), (5, "second"), (5, "third"), (10, "chained")]);
        assert_eq!((eng.events_fired(), eng.pending()), (5, 0));
    }
}
