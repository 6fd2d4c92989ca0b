//! # dvcm — the Distributed Virtual Communication Machine
//!
//! The paper's architectural frame (§2): a cluster-wide *virtual
//! communication machine* executing "close to the network" on NI
//! co-processors, whose services appear to host applications as
//! **communication instructions**, and which applications may extend with
//! new instructions at run time — "extended and specialized much like
//! extensible OS kernels … like SPIN and Exokernel".
//!
//! Three function sets, mirrored here:
//!
//! 1. **The DVCM API** ([`instr`], [`host::VcmHandle`]) — the host-side
//!    facade. Instructions encode into I2O *private-class* messages and
//!    travel through the messaging unit exactly like any other I2O traffic
//!    (the paper's implementation is "device drivers interacting with the
//!    I2O boards via PCI interfaces").
//! 2. **Low-level NI runtime** ([`runtime::NiRuntime`]) — drains the
//!    inbound FIFO, routes instructions to extension modules, posts
//!    replies; the NI's bounded service handler.
//! 3. **Extensions** ([`extension`]) — run-time-registered modules. The
//!    flagship is [`media_sched::MediaSchedExt`]: the DWCS frame scheduler
//!    as a DVCM extension, the paper's §3 contribution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod extension;
pub mod host;
pub mod instr;
pub mod media_sched;
pub mod runtime;

pub use extension::{ExtReply, ExtensionModule, ExtensionRegistry};
pub use host::VcmHandle;
pub use instr::{StreamSpec, VcmInstruction};
pub use media_sched::{DispatchRecord, MediaSchedExt};
pub use runtime::NiRuntime;

/// The private-class organisation id DVCM traffic uses (ASCII "GT" —
/// Georgia Tech).
pub const DVCM_ORG: u16 = 0x4754;
