//! # serversim — whole-server experiments
//!
//! Composes the substrates (`hwsim` cost models, `i2o` messaging, `dvcm`
//! extensions, `dwcs` scheduling, `workload` generators) into the paper's
//! experiments. One module per experiment family:
//!
//! * [`micro`] — the scheduler microbenchmarks of **Tables 1–3**: a
//!   pre-loaded MPEG sequence scheduled on the modelled i960, sweeping
//!   arithmetic build (software-FP vs fixed-point), data cache (off/on),
//!   and descriptor store (pinned memory vs hardware-queue registers).
//! * [`paths`] — the critical-path benchmarks of **Table 4** (frame
//!   transfer Paths A, B, C of Figure 3) and the raw PCI numbers of
//!   **Table 5**.
//! * [`hostload`] — the host-based scheduler under web load
//!   (**Figures 6–8**): a quantum-scheduled multi-CPU host running the
//!   Apache pool, daemons, MPEG producers and the DWCS process, with CPU
//!   utilization, per-stream bandwidth and queuing-delay traces.
//! * [`niload`] — the NI-based scheduler (**Figures 9–10**): the same
//!   streams served by the i960 model, structurally immune to host load.
//! * [`cluster`] — the multi-node topology of the paper's Figure 1, for
//!   capacity exploration beyond the single-node evaluation.
//! * [`chassis`] — the multi-NI chassis and the only shared-bus model:
//!   N independent scheduler cards behind one host sharing an arbitrated
//!   PCI bus, with DWCS-feasibility placement, Path-B cross-card frame
//!   sourcing (one `chassis::path_b_frame_hold` per frame), and a
//!   deterministic rebalancer that migrates streams off a fault-injected
//!   card. A one-card Path-B chassis under rising offered load is the
//!   shared-bus contention ablation.
//! * [`report`] — windowed-rate collectors and table formatting shared by
//!   the `repro_*` binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chassis;
pub mod cluster;
pub mod hostload;
pub mod micro;
pub mod niload;
pub mod paths;
pub mod report;
