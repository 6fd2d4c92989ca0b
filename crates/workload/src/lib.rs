//! # workload — web load and media client workload models
//!
//! The load experiments (Figures 6–10) stress the host with Apache 1.3.12
//! web traffic generated by `httperf` 0.6 from remote clients: "web pages
//! may be requested at a certain rate by a number of connections with a
//! user-specified ceiling on the total number of calls" (§4.2.3), applied
//! at two levels — 45 % and 60 % average CPU utilization — while MPEG
//! clients stream simultaneously.
//!
//! This crate rebuilds that tooling as deterministic generators:
//!
//! * [`httperf::HttperfGen`] — open-loop request arrivals at a configured
//!   rate (exponential inter-arrivals), heavy-tailed response sizes
//!   (bounded Pareto, the standard web-object model), call ceilings.
//! * [`apache::ApachePool`] — the Apache process-pool model: a start pool
//!   of 5 servers growing to `MaxClients` 10 (the paper's configuration),
//!   a listen backlog, and per-request CPU/disk/net demand.
//! * [`profile::LoadProfile`] — time-varying request-rate profiles shaped
//!   like Figure 6 (idle → ramp → sustained load → idle), with
//!   [`profile::calibrate_rate`] solving for the rate that produces a
//!   target average CPU utilization.
//! * [`mpegclient`] — the two MPEG clients (s1, s2) of Figures 7–10:
//!   connect times, stream QoS, and play durations.
//! * [`vbr`] — deterministic seeded GOP-structured VBR frame sizes
//!   (integer-only; conserves bytes per GOP exactly), [`abr`] — a
//!   bitrate-ladder controller driven by congestion probes taken from
//!   the trace fold, and [`churn`] — heavy-tailed session
//!   arrival/departure schedules.
//!   These drive the long-run soak harness in `nistream-bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abr;
pub mod apache;
pub mod churn;
pub mod httperf;
pub mod mpegclient;
pub mod profile;
pub mod vbr;

pub use abr::{AbrController, AbrLadder, AbrPolicy};
pub use apache::{ApachePool, RequestWork};
pub use churn::{ChurnConfig, ChurnGen, Session};
pub use httperf::{HttperfConfig, HttperfGen, WebRequest};
pub use mpegclient::{ClientPlan, MpegClient};
pub use profile::{calibrate_rate, LoadProfile};
pub use vbr::{mean_frame_bytes, VbrFrame, VbrSpec, VbrTraceGen};
