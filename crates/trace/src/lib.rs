//! Two-tier deterministic tracing for the NI streaming stack.
//!
//! The paper's measurements (per-decision latency in Tables 1–3, queuing
//! delay and bandwidth under host load in Figures 6–10) all hinge on
//! *observing* scheduler behaviour without perturbing it. This crate
//! splits that concern the way the hardware does:
//!
//! * **NI tier** ([`event`], [`ring`]) — code that runs beside the
//!   scheduler on the co-processor. [`TraceEvent`] is a compact,
//!   integer-only record; [`TraceRing`] is a fixed-capacity drop-oldest
//!   buffer sized against the i960RD's 4 MB RAM budget. No floating
//!   point, no panicking constructs, no allocation after construction —
//!   the same `nistream-analysis` lint families that police the
//!   scheduler itself apply here.
//! * **Host tier** ([`aggregate`], [`export`], [`chassis`]) — the host drains the
//!   ring over the (simulated) PCI bus and folds events into per-stream
//!   accounts and log₂ latency/jitter histograms, then renders canonical
//!   text lines, JSON, or CSV. Serialization is byte-deterministic: the
//!   golden-trace and determinism test suites compare serialized traces
//!   with `assert_eq!` on the raw bytes.
//!
//! [`StreamAccount`] ([`account`]) spans both tiers: the scheduler keeps
//! it per stream on the NI and the host fold rebuilds it from the trace.
//!
//! The event stream is emitted centrally by `dwcs::svc::SchedService`
//! into the one ring it owns, so every placement — host engine, DVCM
//! extension, both simulators — produces the *same* events for the same
//! schedule.

#![forbid(unsafe_code)]

pub mod account;
pub mod aggregate;
pub mod chassis;
pub mod event;
pub mod export;
pub mod ring;
pub mod slo;

pub use account::StreamAccount;
pub use aggregate::{Aggregate, Histogram};
pub use chassis::{tagged_event_line, tagged_lines, ChassisAggregate, TaggedCapture, TaggedEvent};
pub use event::TraceEvent;
pub use export::{event_json, event_line, is_schema_valid, to_csv, to_json, to_lines, TraceCapture};
pub use ring::TraceRing;
pub use slo::{regressions, Slo, SloMargin, SloObjective};
