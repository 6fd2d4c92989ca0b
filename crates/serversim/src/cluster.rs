//! Cluster topology — the paper's Figure 1 architecture.
//!
//! "A server configured as 16 quad Pentium Pro nodes connected via
//! I2O-based NIs, each of which has two 100 Mbps Ethernet links, a PCI
//! interface to the host CPU, and two SCSI interfaces directly attached to
//! disk devices." The paper's *evaluation* is single-node; this module
//! provides the cluster-level capacity model the conclusions gesture at
//! ("careful balance between NIs dedicated for scheduling and stream
//! sourcing is required, given the limited I/O slot real-estate") and an
//! example binary explores it.
//!
//! The model is analytic, not event-driven: per-NI and per-node stream
//! capacities derive from the calibrated primitives (decision + dispatch +
//! wire occupancy per frame; disk service per frame; PCI budget) and
//! admission control uses the real DWCS feasibility test.
//!
//! The *measured* counterpart is [`crate::chassis`]: an event-driven
//! multi-card run whose sustained-stream counts replace these closed-form
//! numbers in the capacity benchmarks; the analytic figures remain as the
//! cross-check the conformance suite compares against. Both models price
//! a scheduler card's frame with [`service_estimate_ns`] and a
//! Path-B frame's bus hold with `chassis::path_b_frame_hold`, so the
//! closed-form card and bus limits are the chassis's own saturation
//! points.

use crate::chassis::{path_b_frame_hold, service_estimate_ns};
use dwcs::admission::DemandFold;
use dwcs::StreamQos;
use hwsim::calib;
use simkit::SimDuration;
use std::fmt;

/// An invalid NI-split request.
///
/// Before this type existed, `sweep_ni_split` silently produced an empty
/// or zero-capacity table for impossible configurations (more scheduler
/// NIs than slots, or too few slots to hold a mix at all), which example
/// binaries then rendered as "capacity: 0" — indistinguishable from a
/// real bottleneck.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SplitError {
    /// Fewer than 2 slots: a node cannot hold both a scheduler NI and a
    /// producer NI, so no split exists to sweep.
    InsufficientSlots {
        /// The offending slot count.
        slots: usize,
    },
    /// More scheduler NIs requested than the node has slots.
    SchedulersExceedSlots {
        /// Requested scheduler-NI count.
        scheduler_nis: usize,
        /// Available slots.
        slots: usize,
    },
}

impl fmt::Display for SplitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SplitError::InsufficientSlots { slots } => {
                write!(f, "{slots} slot(s) cannot hold a scheduler/producer mix (need >= 2)")
            }
            SplitError::SchedulersExceedSlots { scheduler_nis, slots } => {
                write!(f, "{scheduler_nis} scheduler NI(s) exceed the node's {slots} slot(s)")
            }
        }
    }
}

impl std::error::Error for SplitError {}

/// Role of one I2O NI in a node (§3.1: "One or more NIs in a system may be
/// dedicated to running the NI-based scheduler and other disk-attached NIs
/// may serve as stream producers").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NiRole {
    /// Runs the DWCS scheduler; no disks so the data cache stays on.
    Scheduler,
    /// Disks attached; sources frames over the PCI bus to scheduler NIs.
    Producer,
}

/// One node's I/O configuration.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// PCI slots available for I2O NIs ("limited I/O slot real-estate").
    pub slots: usize,
    /// How many of those slots hold scheduler NIs (rest are producers).
    pub scheduler_nis: usize,
    /// Per-stream QoS used for capacity accounting.
    pub stream_qos: StreamQos,
    /// Frame size in bytes.
    pub frame_bytes: u64,
}

impl Default for NodeConfig {
    fn default() -> NodeConfig {
        NodeConfig {
            slots: 3, // the paper's experimental node holds three I2O cards
            scheduler_nis: 1,
            stream_qos: StreamQos::new(33_333_333, 2, 8),
            frame_bytes: 1_083,
        }
    }
}

impl NodeConfig {
    /// Check the NI mix is physically realisable.
    pub fn validate(&self) -> Result<(), SplitError> {
        if self.scheduler_nis > self.slots {
            return Err(SplitError::SchedulersExceedSlots {
                scheduler_nis: self.scheduler_nis,
                slots: self.slots,
            });
        }
        Ok(())
    }
}

/// Capacity report for one node.
#[derive(Clone, Copy, Debug)]
pub struct NodeCapacity {
    /// Streams one scheduler NI sustains (CPU-side: decision + dispatch +
    /// wire occupancy per frame period).
    pub streams_per_scheduler_ni: u32,
    /// Streams one producer NI's disks can source (disk service per frame
    /// period, two SCSI ports).
    pub streams_per_producer_ni: u32,
    /// PCI-bus-limited stream count (one Path-B frame exchange per stream
    /// period on the shared bus).
    pub pci_stream_limit: u32,
    /// The node's bottleneck stream count given its NI mix.
    pub node_streams: u32,
}

/// Compute a node's stream capacity from the calibrated primitives.
pub fn node_capacity(cfg: &NodeConfig) -> NodeCapacity {
    let period = SimDuration::from_nanos(cfg.stream_qos.period);

    // Scheduler NI: per frame it pays one decision, one dispatch, and the
    // send-side wire occupancy of its 100 Mb/s port (two ports per card).
    let per_frame = service_estimate_ns(cfg.frame_bytes as u32, true);
    let cpu_limit = (period.as_nanos() / per_frame.max(1)) as u32;
    // Wire limit across both ports.
    let wire = hwsim::Ethernet::new().wire_time(cfg.frame_bytes);
    let wire_limit = 2 * (period.as_nanos() / wire.as_nanos().max(1)) as u32;
    let streams_per_scheduler_ni = cpu_limit.min(wire_limit);

    // Producer NI: each frame costs one dosFs disk access; two SCSI ports
    // work in parallel.
    let disk = hwsim::ScsiDisk::new();
    let fs = hwsim::Filesystem::dosfs();
    let per_disk_frame = fs.mean_read_frame(&disk, cfg.frame_bytes);
    let streams_per_producer_ni = 2 * (period.as_nanos() / per_disk_frame.as_nanos().max(1)) as u32;

    // PCI: each producer frame holds the shared bus for one Path-B
    // exchange, priced exactly as the chassis prices it.
    let per_frame_hold = path_b_frame_hold(&mut hwsim::PciBus::new(), cfg.frame_bytes);
    let pci_stream_limit = (period.as_nanos() / per_frame_hold.as_nanos().max(1)) as u32;

    let producers = cfg.slots.saturating_sub(cfg.scheduler_nis) as u32;
    let sched = cfg.scheduler_nis as u32;
    let node_streams = (sched * streams_per_scheduler_ni)
        .min(producers * streams_per_producer_ni)
        .min(pci_stream_limit);

    NodeCapacity {
        streams_per_scheduler_ni,
        streams_per_producer_ni,
        pci_stream_limit,
        node_streams,
    }
}

/// A whole cluster (Figure 1): `nodes` × the node capacity, with the DWCS
/// admission test cross-checking that the per-NI stream count is actually
/// schedulable at the link.
#[derive(Clone, Debug)]
pub struct Cluster {
    /// Number of nodes (the paper's testbed: 16).
    pub nodes: usize,
    /// Per-node configuration.
    pub node: NodeConfig,
}

impl Cluster {
    /// The paper's 16-node testbed shape.
    pub fn paper_testbed() -> Cluster {
        Cluster {
            nodes: 16,
            node: NodeConfig::default(),
        }
    }

    /// Aggregate stream capacity.
    pub fn total_streams(&self) -> u32 {
        node_capacity(&self.node).node_streams * self.nodes as u32
    }

    /// Check a uniform stream set against DWCS feasibility on one
    /// scheduler NI's link (service time = wire time of one frame).
    pub fn admissible_per_ni(&self, streams: u32) -> bool {
        let eth = hwsim::Ethernet::new();
        let service = eth.wire_time(self.node.frame_bytes).as_nanos();
        let set = std::iter::repeat_n(&self.node.stream_qos, streams as usize);
        DemandFold::folded(set, service).fits()
    }
}

/// Sweep scheduler/producer NI splits for a node — the "careful balance"
/// the conclusion calls for. Returns `(scheduler_nis, node_streams)` for
/// every split that keeps at least one NI of each role, or a
/// [`SplitError`] when no such split exists (previously this silently
/// returned an empty/zero-capacity table).
pub fn sweep_ni_split(slots: usize, base: &NodeConfig) -> Result<Vec<(usize, u32)>, SplitError> {
    if slots < 2 {
        return Err(SplitError::InsufficientSlots { slots });
    }
    (1..slots)
        .map(|s| {
            let mut cfg = base.clone();
            cfg.slots = slots;
            cfg.scheduler_nis = s;
            cfg.validate()?;
            Ok((s, node_capacity(&cfg).node_streams))
        })
        .collect()
}

/// Host clock sanity constant re-exported for capacity math callers.
pub const HOST_HZ: u64 = calib::HOST_HZ;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_ni_sustains_hundreds_of_low_rate_streams() {
        let cap = node_capacity(&NodeConfig::default());
        // Per frame ≈ 65 µs + 28 µs + ~610 µs wire-side at 1083 B; a 33 ms
        // period admits ~47 such frames per port-pair CPU.
        assert!((20..=100).contains(&cap.streams_per_scheduler_ni), "{cap:?}");
    }

    #[test]
    fn producer_disks_are_the_scarce_resource() {
        let cap = node_capacity(&NodeConfig::default());
        // 4.2 ms per frame on dosFs: a 33 ms period admits ~7 streams per
        // disk, 15 per card — producers bottleneck the node.
        assert!(cap.streams_per_producer_ni < cap.streams_per_scheduler_ni, "{cap:?}");
        assert!(cap.node_streams <= cap.streams_per_producer_ni * 2);
    }

    #[test]
    fn split_sweep_shows_a_balance_point() {
        let sweep = sweep_ni_split(6, &NodeConfig::default()).unwrap();
        assert_eq!(sweep.len(), 5);
        // Capacity must rise then fall (or plateau): all-schedulers or
        // all-producers are both worse than a mix.
        let best = sweep.iter().map(|&(_, c)| c).max().unwrap();
        let first = sweep.first().unwrap().1;
        let last = sweep.last().unwrap().1;
        assert!(best >= first && best >= last);
        assert!(best > 0);
    }

    #[test]
    fn split_sweep_rejects_impossible_configurations() {
        assert_eq!(
            sweep_ni_split(1, &NodeConfig::default()),
            Err(SplitError::InsufficientSlots { slots: 1 })
        );
        assert_eq!(
            sweep_ni_split(0, &NodeConfig::default()),
            Err(SplitError::InsufficientSlots { slots: 0 })
        );
        let bad = NodeConfig {
            scheduler_nis: 5,
            slots: 3,
            ..NodeConfig::default()
        };
        assert_eq!(
            bad.validate(),
            Err(SplitError::SchedulersExceedSlots {
                scheduler_nis: 5,
                slots: 3
            })
        );
        assert!(NodeConfig::default().validate().is_ok());
        // Errors render actionably.
        let msg = SplitError::InsufficientSlots { slots: 1 }.to_string();
        assert!(msg.contains("1 slot"), "{msg}");
    }

    #[test]
    fn cluster_scales_linearly_with_nodes() {
        let one = Cluster {
            nodes: 1,
            node: NodeConfig::default(),
        };
        let sixteen = Cluster::paper_testbed();
        assert_eq!(sixteen.total_streams(), one.total_streams() * 16);
    }

    #[test]
    fn admission_agrees_with_capacity_order_of_magnitude() {
        let c = Cluster::paper_testbed();
        let cap = node_capacity(&c.node);
        assert!(c.admissible_per_ni(cap.streams_per_scheduler_ni));
        // Far beyond capacity must be rejected by the exact test too.
        assert!(!c.admissible_per_ni(cap.streams_per_scheduler_ni * 50));
    }
}
