//! # nistream — NI co-processor media streaming
//!
//! Umbrella crate for the whole system: re-exports every workspace crate
//! under one roof so examples and integration tests read naturally.
//! See `nistream_core` for the public API and the repository README for
//! the map.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dvcm;
pub use dwcs;
pub use fixedpt;
pub use hwsim;
pub use i2o;
pub use mpeg1;
pub use nistream_core as core;
pub use nistream_core::engine;
pub use nistream_core::pool;
pub use nistream_trace as trace;
pub use serversim;
pub use simkit;
pub use workload;
