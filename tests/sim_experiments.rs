//! Integration: the simulated experiments hold their paper-shape
//! invariants when driven through the public crate surface.

use nistream::serversim::{cluster, micro, niload, paths};
use nistream::simkit::SimDuration;
use nistream::workload::mpegclient::ClientPlan;

#[test]
fn microbenchmark_orderings_hold_across_all_cells() {
    let (t1_float, t1_fixed) = micro::table1();
    let (t2_float, t2_fixed) = micro::table2();
    let t3 = micro::table3();

    // Fixed beats float in both cache settings.
    assert!(t1_fixed.avg_sched_us < t1_float.avg_sched_us);
    assert!(t2_fixed.avg_sched_us < t2_float.avg_sched_us);
    // Cache-on beats cache-off for both builds.
    assert!(t2_fixed.avg_sched_us < t1_fixed.avg_sched_us);
    assert!(t2_float.avg_sched_us < t1_float.avg_sched_us);
    // Hardware queues ≈ cached pinned memory (within 10 µs).
    assert!((t3.avg_sched_us - t2_fixed.avg_sched_us).abs() < 10.0);
    // The dispatch-only loop is always far cheaper than scheduling.
    for r in [&t1_float, &t1_fixed, &t2_float, &t2_fixed, &t3] {
        assert!(r.avg_nosched_us * 2.0 < r.avg_sched_us);
    }
}

#[test]
fn path_ordering_matches_table4() {
    let cfg = paths::PathConfig::default();
    let ufs = paths::path_a_ufs(&cfg).total_ms;
    let vxfs = paths::path_a_vxfs(&cfg).total_ms;
    let b = paths::path_b(&cfg).total_ms;
    let c = paths::path_c(&cfg).total_ms;
    assert!(ufs < c, "cached host filesystem wins");
    assert!(c < b, "peer-to-peer adds the PCI hop");
    assert!(b < vxfs, "NI paths beat the uncached host filesystem");
    assert!((b - c) * 1000.0 < 25.0, "PCI hop is tens of microseconds");
}

#[test]
fn ni_pipeline_is_deterministic_and_load_blind() {
    let cfg = || niload::NiLoadConfig {
        plan: ClientPlan::two_streams(),
        frames_per_stream: 300,
        run: SimDuration::from_secs(10),
        ..niload::NiLoadConfig::default()
    };
    let a = niload::run(cfg());
    let b = niload::run(cfg());
    assert_eq!(a.streams[0].sent, b.streams[0].sent);
    assert_eq!(a.streams[0].qdelay, b.streams[0].qdelay);
    assert!(a.mean_decision_us > 40.0 && a.mean_decision_us < 90.0);
}

#[test]
fn cluster_capacity_is_positive_and_bounded() {
    let node = cluster::NodeConfig::default();
    let cap = cluster::node_capacity(&node);
    assert!(cap.node_streams > 0);
    assert!(cap.node_streams <= cap.pci_stream_limit);
    let c = cluster::Cluster::paper_testbed();
    assert_eq!(c.total_streams(), cap.node_streams * 16);
}
