//! # nistream-core — the public API of the `nistream` system
//!
//! Reproduction of *"A Network Co-Processor-Based Approach to Scalable
//! Media Streaming in Servers"* (Krishnamurthy, Schwan, West, Rosu, ICPP
//! 2000): Dynamic Window-Constrained Scheduling of media frames, offloaded
//! to network-interface co-processors, inside the DVCM extensible
//! communication architecture.
//!
//! Two ways to use the system:
//!
//! * **For real** — [`engine::MediaServer`] runs the genuine DWCS
//!   scheduler on a dedicated thread: producers push frames through
//!   synchronization-free SPSC rings into per-stream queues backed by a
//!   preallocated [`pool::FramePool`] (the paper's pinned-NI-memory
//!   discipline), and dispatched frames flow to a pluggable
//!   [`engine::FrameSink`] (in-memory, discard, or UDP). This is the
//!   library a media server would embed today.
//! * **As the paper's testbed** — the simulation crates re-exported below
//!   reproduce every table and figure on calibrated models of the 2000-era
//!   hardware: `serversim::micro` (Tables 1–3), `serversim::paths`
//!   (Tables 4–5), `serversim::hostload` / `serversim::niload`
//!   (Figures 6–10), `serversim::cluster` (the Figure 1 topology).
//!
//! ## Quick start
//!
//! ```
//! use nistream_core::engine::{MediaServer, SinkKind};
//! use nistream_core::qos::StreamQos;
//!
//! let server = MediaServer::builder()
//!     .sink(SinkKind::Collect)
//!     .start()
//!     .expect("spawn scheduler thread");
//!
//! // 30 fps stream tolerating 2 late frames in every 8.
//! let mut stream = server.open_stream(StreamQos::new(33_333_333, 2, 8)).unwrap();
//! for seq in 0..10u64 {
//!     stream.send(&vec![0u8; 1000]).unwrap();
//!     let _ = seq;
//! }
//! assert_eq!(stream.produced(), 10);
//! // Service statistics are available once the scheduler thread has
//! // drained the ring: `server.stats(stream.id())`.
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod pool;
pub mod report;

/// QoS attribute types (re-exported from the scheduler crate).
pub mod qos {
    pub use dwcs::{LossPolicy, StreamQos, Window};
}

pub use dvcm;
pub use dwcs;
pub use engine::{MediaServer, MediaServerBuilder, ServerError, SinkKind, StreamHandle};
pub use fixedpt;
pub use hwsim;
pub use i2o;
pub use mpeg1;
pub use pool::FramePool;
pub use serversim;
pub use simkit;
pub use workload;
