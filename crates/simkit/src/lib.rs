//! # simkit — a deterministic discrete-event simulation kernel
//!
//! The paper's evaluation ran on hardware that no longer exists (Intel i960RD
//! I2O network interfaces in a Quad Pentium Pro Solaris x86 host). Every
//! experiment in this repository therefore runs on a *calibrated model* of
//! that hardware, and this crate is the kernel those models are built on:
//!
//! * [`SimTime`] / [`SimDuration`] — a nanosecond-resolution virtual clock.
//!   All paper quantities (µs scheduling overheads, ms disk accesses, Mb/s
//!   links) are exactly representable.
//! * [`Engine`] — the event-scheduling executive: a hierarchical timing
//!   wheel of `(time, seq)` entries over a slab arena that recycles event
//!   storage, FIFO-stable among simultaneous events, with O(1) cancellable
//!   timers and an overflow heap for far-future events. The engine is
//!   generic over the *world* type so hardware models compose as plain
//!   Rust structs with no `Rc<RefCell<…>>` plumbing, and over the *event*
//!   type: a model that names its events as a `Copy` enum implementing
//!   [`Event`] has them held inline in the arena, so posting one allocates
//!   nothing; the default event, [`Thunk`], is a boxed closure. The original
//!   binary-heap executive survives as [`reference::HeapEngine`], the
//!   differential oracle for the wheel.
//! * [`rng`] — a self-contained PCG32 RNG plus the distributions the
//!   workload models need (uniform, exponential, bounded Pareto, normal).
//!   Determinism across runs and platforms is a requirement: every
//!   experiment binary seeds explicitly and reproduces byte-identical
//!   output.
//! * [`stats`] — time-series traces, windowed utilization sampling, and
//!   summary reducers used to regenerate the paper's figures.
//!
//! The kernel is deliberately single-threaded: experiment *sweeps* are
//! parallelised across OS processes/threads by the harness, while each
//! simulated world stays sequential and deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod reference;
pub mod rng;
pub mod stats;
pub mod time;
mod wheel;

pub use engine::{Engine, Event, EventFn, EventId, Thunk};
pub use reference::{HeapEngine, HeapEventFn, HeapEventId};
pub use rng::Pcg32;
pub use stats::{Summary, Trace, UtilizationSampler};
pub use time::{SimDuration, SimTime};
