//! §4.2.3's jitter claims, asserted:
//!
//! * "Frames are serviced at a rate with lower variability" on the NI —
//!   NI-based streams show near-zero inter-departure jitter regardless of
//!   host load.
//! * On the loaded host, "variation in the rate at which the scheduler
//!   receives CPU may increase delay-jitter … leading to jitter in frame
//!   inter-arrival times" — host-based jitter grows by orders of
//!   magnitude under load.

use nistream::serversim::hostload::{self, HostLoadConfig};
use nistream::serversim::niload::{self, NiLoadConfig};
use nistream::simkit::SimDuration;
use nistream::workload::mpegclient::ClientPlan;
use nistream::workload::profile::LoadProfile;

fn host_cfg(loaded: bool) -> HostLoadConfig {
    let mut cfg = HostLoadConfig {
        run: SimDuration::from_secs(30),
        frames_per_stream: 900,
        plan: ClientPlan::two_streams(),
        ..HostLoadConfig::default()
    };
    if loaded {
        let rate = hostload::web_rate_for(0.9, &cfg);
        cfg.web = LoadProfile::experiment(5, 2, 30, rate);
    }
    cfg
}

#[test]
fn unloaded_host_scheduler_paces_with_low_jitter() {
    let r = hostload::run(host_cfg(false));
    for s in &r.streams {
        assert!(
            s.mean_jitter_ms < 2.0,
            "{}: unloaded jitter {:.3} ms should be small",
            s.name,
            s.mean_jitter_ms
        );
    }
}

#[test]
fn loaded_host_scheduler_jitter_explodes() {
    let quiet = hostload::run(host_cfg(false));
    let loaded = hostload::run(host_cfg(true));
    for (q, l) in quiet.streams.iter().zip(&loaded.streams) {
        assert!(
            l.mean_jitter_ms > q.mean_jitter_ms * 5.0,
            "{}: loaded {:.3} ms vs quiet {:.3} ms",
            l.name,
            l.mean_jitter_ms,
            q.mean_jitter_ms
        );
        assert!(l.mean_jitter_ms > 5.0, "{}: {:.3} ms", l.name, l.mean_jitter_ms);
    }
}

#[test]
fn ni_scheduler_jitter_is_load_independent_and_tiny() {
    let mk = |loaded: bool| {
        let mut cfg = NiLoadConfig {
            run: SimDuration::from_secs(30),
            frames_per_stream: 900,
            plan: ClientPlan::two_streams(),
            ..NiLoadConfig::default()
        };
        if loaded {
            cfg.host_web = LoadProfile::experiment(5, 2, 30, 500.0);
        }
        niload::run(cfg)
    };
    let quiet = mk(false);
    let loaded = mk(true);
    for (q, l) in quiet.streams.iter().zip(&loaded.streams) {
        assert_eq!(
            q.mean_jitter_ms, l.mean_jitter_ms,
            "{}: NI jitter must be identical under host load",
            q.name
        );
        assert!(
            q.mean_jitter_ms < 1.0,
            "{}: NI jitter {:.3} ms",
            q.name,
            q.mean_jitter_ms
        );
    }
    // And far below the loaded host's.
    let host_loaded = hostload::run(host_cfg(true));
    assert!(
        loaded.streams[0].mean_jitter_ms * 5.0 < host_loaded.streams[0].mean_jitter_ms,
        "NI {:.3} ms ≪ host-under-load {:.3} ms",
        loaded.streams[0].mean_jitter_ms,
        host_loaded.streams[0].mean_jitter_ms
    );
}
