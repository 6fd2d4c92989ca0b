//! The paper's headline comparison, condensed: host-based vs NI-based
//! DWCS under web-server load (30 s simulations of the Figure 6-10
//! experiments).
//!
//! Run: `cargo run --release --example loaded_server`

use nistream::serversim::hostload::{self, HostLoadConfig};
use nistream::serversim::niload::{self, NiLoadConfig};
use nistream::simkit::SimDuration;
use nistream::workload::mpegclient::ClientPlan;
use nistream::workload::profile::LoadProfile;

fn main() {
    let run = 30u64;
    let base = || HostLoadConfig {
        run: SimDuration::from_secs(run),
        frames_per_stream: (run * 30) as usize,
        plan: ClientPlan::two_streams(),
        ..HostLoadConfig::default()
    };

    println!("=== host-based DWCS (two 260 kb/s streams) ===");
    for (label, target) in [("no load", 0.0), ("moderate load", 0.72), ("heavy load", 0.94)] {
        let mut cfg = base();
        if target > 0.0 {
            let rate = hostload::web_rate_for(target, &cfg);
            cfg.web = LoadProfile::experiment(5, 2, run, rate);
        }
        let r = hostload::run(cfg);
        let bw: f64 = r
            .streams
            .iter()
            .filter_map(|s| s.bandwidth.settling_value(0.5))
            .sum::<f64>()
            / r.streams.len() as f64;
        let drops: u64 = r.streams.iter().map(|s| s.dropped).sum();
        let viol: u64 = r.streams.iter().map(|s| s.violations).sum();
        println!(
            "  {label:<14} cpu {:>5.1}% (peak {:>5.1}%)  per-stream bw {:>8.0} bps  drops {:>3}  violations {:>3}",
            r.avg_util, r.peak_util, bw, drops, viol
        );
    }

    println!("\n=== NI-based DWCS (same streams, scheduler on the i960 model) ===");
    for (label, target) in [("no host load", 0.0), ("heavy host load", 0.94)] {
        let mut cfg = NiLoadConfig {
            run: SimDuration::from_secs(run),
            frames_per_stream: (run * 30) as usize,
            plan: ClientPlan::two_streams(),
            ..NiLoadConfig::default()
        };
        if target > 0.0 {
            let host_cfg = base();
            let rate = hostload::web_rate_for(target, &host_cfg);
            cfg.host_web = LoadProfile::experiment(5, 2, run, rate);
        }
        let r = niload::run(cfg);
        let bw: f64 = r
            .streams
            .iter()
            .filter_map(|s| s.bandwidth.settling_value(0.5))
            .sum::<f64>()
            / r.streams.len() as f64;
        let drops: u64 = r.streams.iter().map(|s| s.dropped).sum();
        let host = r
            .host
            .as_ref()
            .map(|h| format!("host cpu {:>5.1}%", h.avg_util))
            .unwrap_or_else(|| "host idle".into());
        println!(
            "  {label:<16} {host}  per-stream bw {:>8.0} bps  drops {drops}  NI decision {:.1} us",
            bw, r.mean_decision_us
        );
    }
    println!("\nThe NI rows do not move: \"packet schedulers running directly on NIs are");
    println!("immune to host-CPU loading\" — the paper's central claim.");
}
