//! # dwcs — Dynamic Window-Constrained Scheduling
//!
//! The packet/frame scheduling algorithm at the heart of the paper
//! (Krishnamurthy, Schwan, West, Rosu, ICPP 2000), as defined in West &
//! Schwan's DWCS papers (\[32\], \[33\] in the paper's bibliography) and
//! summarised in the paper's §3.1.2:
//!
//! Each stream `i` carries two QoS attributes:
//!
//! * **Deadline** — the latest time its head packet may *commence* service.
//!   Successive packets' deadlines are offset by the stream's request period
//!   `T_i` from their predecessor's.
//! * **Loss-tolerance** `x_i / y_i` — at most `x_i` of every `y_i`
//!   consecutive packets may be lost or sent late. The scheduler maintains
//!   *current* window state `x'_i / y'_i` that tightens as packets are
//!   serviced or lost and resets when a window completes.
//!
//! The scheduler always serves the head packet that is minimal under the
//! DWCS precedence rules (see [`key::HeadKey`]): earliest deadline first,
//! then lowest current window-constraint, then the zero/non-zero
//! tie-breakers, then FCFS.
//!
//! ## What this crate provides
//!
//! * [`scheduler::DwcsScheduler`] — the scheduler proper: per-stream queues,
//!   window-state maintenance, late-packet dropping for lossy streams,
//!   violation accounting, coupled dispatch.
//! * [`repr`] — pluggable *schedule representations* (the paper's §3.1.1
//!   explicitly decouples "scheduling analysis" from "schedule
//!   representation" so that FCFS circular buffers, sorted lists, heaps or
//!   calendar queues can be compared): [`repr::LinearScan`] (what the i960
//!   firmware actually did — loop over descriptors), [`repr::DualHeap`]
//!   (the paper's Figure 4 heap pair, priced as two heaps but built as
//!   the one deadline heap decisions read; every placement runs it) and
//!   [`repr::BatchSoa`] (a struct-of-arrays table under an 8-ary winner
//!   pyramid, sized for 100k+ streams host-side). All representations are observationally identical;
//!   property tests cross-check them against `LinearScan`.
//! * [`ring::SpscRing`] — the synchronization-free single-producer /
//!   single-consumer circular buffer of Figure 4(b) ("using a circular queue
//!   for each stream eliminates the need for synchronization between the
//!   scheduler … and the server that queues packets").
//! * [`admission`] — the DWCS feasibility test used for admission control.
//! * [`metrics::StreamStats`] — per-stream service accounting (on-time /
//!   late / dropped / violations / bytes, queuing-delay and jitter
//!   moments): `nistream_trace::StreamAccount`, the type the trace fold
//!   keeps per stream too.
//!
//! ## Time
//!
//! The algorithm is pure: time is a `u64` nanosecond count ([`Time`]), which
//! both the discrete-event simulator (`simkit::SimTime`) and the real
//! threaded engine (`nistream-core`) map onto trivially.
//!
//! ## Example
//!
//! ```
//! use dwcs::{DwcsScheduler, DualHeap, FrameDesc, FrameKind, StreamQos, StreamId};
//!
//! let mut sched = DwcsScheduler::new(DualHeap::new(8));
//! // 30 fps stream tolerating 2 late frames per window of 8.
//! let video = sched.add_stream(StreamQos::new(33_333_333, 2, 8));
//! // 50 Hz telemetry that must never be late (sent late if it is).
//! let telemetry = sched.add_stream(StreamQos::new(20_000_000, 0, 1).send_late());
//!
//! sched.enqueue(video, FrameDesc::new(video, 0, 1_400, FrameKind::I), 0);
//! sched.enqueue(telemetry, FrameDesc::new(telemetry, 0, 64, FrameKind::Other), 0);
//!
//! // Telemetry's deadline (t=20ms) precedes video's (t=33.3ms): EDF wins.
//! let decision = sched.schedule_next(0);
//! let frame = decision.frame.expect("work-conserving default");
//! assert_eq!(frame.desc.stream, telemetry);
//! assert!(frame.on_time);
//! ```
//!
//! ## Fixed-point arithmetic
//!
//! Window-constraints are exact [`fixedpt::Frac`] ratios compared by
//! cross-multiplication — the paper's fixed-point build. Each decision reports
//! the [`Work`] its representation did, which the i960 cost model prices
//! under either build, so a software-float build of the same decisions costs
//! what Tables 1–2 measure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod key;
pub mod metrics;
pub mod qos;
pub mod repr;
pub mod ring;
pub mod scheduler;
pub mod svc;
pub mod types;

pub use key::HeadKey;
pub use qos::{LossPolicy, MissOutcome, StreamQos, Window};
pub use repr::{BatchSoa, DualHeap, LinearScan, ScheduleRepr, Work};
pub use ring::SpscRing;
pub use scheduler::{DeadlineAnchor, DwcsScheduler, SchedDecision, SchedulerConfig};
pub use svc::{BatchSummary, DispatchRecord, Platform, SchedService};
pub use types::{FrameDesc, FrameKind, StreamId, Time};
