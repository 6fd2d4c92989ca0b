//! NI-based scheduling — Figures 9 and 10.
//!
//! The counterpart experiment (§4.2.3): one CPU online, web load on one
//! NI, and the i960 NI running the DWCS scheduler serving the MPEG
//! clients directly. "The NI based scheduler is completely immune to web
//! server loading": the NI kernel runs only the scheduler task and network
//! services; frame producers DMA descriptors in without consuming NI-CPU
//! at service time; and the dispatch path never crosses the host bus.
//!
//! The NI side is a one-card [`chassis`] with every frame descriptor
//! preloaded ([`Sourcing::Preloaded`]): descriptors injected through the
//! DVCM media-scheduler extension, decisions priced by the `hwsim` i960
//! model, transmissions priced by the NI Ethernet model (the
//! [`NiWirePlatform`] below, which every chassis card runs on). It
//! (structurally) takes no input from the host load at all. The experiment
//! still *runs* the host web-load world in parallel to produce Figure
//! 6-style utilization evidence that the host was indeed busy while the NI
//! streams stayed flat.

use crate::chassis::{self, ChassisConfig, Sourcing};
use crate::hostload::{self, HostLoadConfig, HostLoadResult, StreamSeries};
use crate::report::RateWindow;
use dwcs::scheduler::SchedDecision;
use dwcs::svc::{DispatchRecord, Platform};
use hwsim::{Ethernet, I960Core};
use nistream_trace::TraceCapture;
use simkit::{SimDuration, SimTime};
use workload::mpegclient::ClientPlan;
use workload::profile::LoadProfile;

/// The NI-placement binding of [`dwcs::svc::Platform`] for this
/// simulation: every decision the service core takes is priced on the
/// i960 model (cache-stateful, so the single core instance sees the same
/// access sequence the firmware would), and every dispatch pays the NI
/// dispatch cost plus wire occupancy on the NI's own Ethernet port —
/// the path that never crosses the host bus.
///
/// Public so the cross-placement trace-conformance suite can drive this
/// binding directly on a scripted schedule.
pub struct NiWirePlatform {
    pub(crate) now_ns: u64,
    pub(crate) core: I960Core,
    pub(crate) eth: Ethernet,
    pub(crate) sent: Vec<u64>,
    pub(crate) bw: Vec<RateWindow>,
    pub(crate) qdelay: Vec<Vec<(u64, f64)>>,
    pub(crate) decision_total: SimDuration,
    pub(crate) decisions: u64,
}

impl NiWirePlatform {
    /// A platform serving `nstreams` streams, with the cache policy of the
    /// modelled i960.
    pub fn new(nstreams: usize, ni_cache: bool) -> NiWirePlatform {
        let n = nstreams.max(1);
        NiWirePlatform {
            now_ns: 0,
            core: I960Core::new().with_cache(ni_cache),
            eth: Ethernet::new(),
            sent: vec![0; n],
            bw: (0..n).map(|_| RateWindow::new(SimDuration::from_secs(1))).collect(),
            qdelay: vec![Vec::new(); n],
            decision_total: SimDuration::ZERO,
            decisions: 0,
        }
    }
}

impl Platform for NiWirePlatform {
    fn now(&mut self) -> u64 {
        self.now_ns
    }

    fn set_now(&mut self, t: u64) {
        self.now_ns = t;
    }

    fn on_decision(&mut self, decision: &SchedDecision, backlog: u64) {
        let cost = self.core.decision_time(decision.work, backlog.min(64));
        self.decision_total += cost;
        self.decisions += 1;
        self.now_ns += cost.as_nanos();
    }

    fn dispatch(&mut self, rec: &DispatchRecord) {
        let len = u64::from(rec.frame.desc.len);
        self.now_ns += self.core.dispatch_time().as_nanos();
        self.now_ns += self.eth.send_occupancy(len).as_nanos();
        let si = rec.frame.desc.stream.index();
        self.sent[si] += 1;
        self.bw[si].record(SimTime::from_nanos(self.now_ns), len);
        let delay_ms = self.now_ns.saturating_sub(rec.frame.desc.enqueued_at) as f64 / 1e6;
        self.qdelay[si].push((self.sent[si], delay_ms));
    }
}

/// Data cache on the NI (scheduler-only NIs enable it: "exclusively
/// running the scheduler thread, with no disks attached allowing data
/// caching").
const NI_CACHE: bool = true;

/// Experiment configuration.
#[derive(Clone, Debug)]
pub struct NiLoadConfig {
    /// Streaming clients.
    pub plan: ClientPlan,
    /// Frames per stream.
    pub frames_per_stream: usize,
    /// Simulated run length.
    pub run: SimDuration,
    /// Web load applied to the *host* (shown alongside; cannot affect the
    /// NI pipeline).
    pub host_web: LoadProfile,
    /// Capacity of the NI trace ring in events; 0 (the default) disables
    /// tracing entirely.
    pub trace_capacity: usize,
}

impl Default for NiLoadConfig {
    fn default() -> NiLoadConfig {
        NiLoadConfig {
            plan: ClientPlan::two_streams(),
            frames_per_stream: 3_000,
            run: SimDuration::from_secs(100),
            host_web: LoadProfile::none(),
            trace_capacity: 0,
        }
    }
}

/// Outcome: per-stream series from the NI plus the host-side utilization
/// evidence.
#[derive(Clone, Debug)]
pub struct NiLoadResult {
    /// Per-stream bandwidth/queuing-delay series (Figures 9/10), plan
    /// order. A stream the card's DWCS admission test refuses reports an
    /// empty series.
    pub streams: Vec<StreamSeries>,
    /// The host world running the web load concurrently (Figure 6-style
    /// evidence). `None` when `host_web` is empty.
    pub host: Option<HostLoadResult>,
    /// Mean NI scheduling decision time observed (µs).
    pub mean_decision_us: f64,
    /// Events drained from the NI trace ring (empty when tracing is off).
    pub trace: TraceCapture,
}

/// Run the NI experiment.
pub fn run(cfg: NiLoadConfig) -> NiLoadResult {
    // --- The NI pipeline (host load cannot reach it by construction). ---
    let ni = chassis::run(ChassisConfig {
        cards: 1,
        plan: cfg.plan.clone(),
        frames_per_stream: cfg.frames_per_stream,
        run: cfg.run,
        ni_cache: NI_CACHE,
        trace_capacity: cfg.trace_capacity,
        sourcing: Sourcing::Preloaded,
        failure: None,
        batch_budget: 1,
    });

    // --- Host-side web load, for the utilization evidence only. ---
    let host = if cfg.host_web.starts_at().is_some() {
        let host_cfg = HostLoadConfig {
            cpus: 1, // "one CPU is brought off-line for a total of one on-line CPU"
            web: cfg.host_web.clone(),
            plan: ClientPlan { clients: Vec::new() }, // streams are on the NI
            frames_per_stream: 0,
            run: cfg.run,
            ..HostLoadConfig::default()
        };
        Some(hostload::run(host_cfg))
    } else {
        None
    };

    NiLoadResult {
        streams: ni.streams.into_iter().map(|s| s.series).collect(),
        host,
        mean_decision_us: ni.mean_decision_us,
        trace: ni.cards.into_iter().next().map(|c| c.trace.capture).unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::profile::LoadProfile;

    fn quick() -> NiLoadConfig {
        NiLoadConfig {
            plan: ClientPlan::two_streams(),
            frames_per_stream: 900,
            run: SimDuration::from_secs(30),
            ..NiLoadConfig::default()
        }
    }

    #[test]
    fn ni_streams_settle_at_stream_rate() {
        let r = run(quick());
        assert_eq!(r.streams.len(), 2);
        for s in &r.streams {
            let settle = s.bandwidth.settling_value(0.5).unwrap();
            assert!((220_000.0..=300_000.0).contains(&settle), "{}: {settle:.0}", s.name);
            assert_eq!(s.dropped, 0, "NI never falls behind");
            assert_eq!(s.violations, 0);
        }
    }

    #[test]
    fn ni_is_immune_to_host_load() {
        let unloaded = run(quick());
        let mut cfg = quick();
        cfg.host_web = LoadProfile::experiment(5, 2, 30, 400.0);
        let loaded = run(cfg);
        // Identical NI-side series, bit for bit.
        for (a, b) in unloaded.streams.iter().zip(&loaded.streams) {
            assert_eq!(a.sent, b.sent);
            assert_eq!(
                a.qdelay, b.qdelay,
                "{} series must be identical under host load",
                a.name
            );
        }
        // ...while the host really was loaded.
        let host = loaded.host.expect("host world ran");
        assert!(host.avg_util > 30.0, "host avg {:.1} %", host.avg_util);
    }

    #[test]
    fn tracing_captures_the_ni_run_without_perturbing_it() {
        let plain = run(quick());
        let mut cfg = quick();
        cfg.trace_capacity = 1 << 16;
        let traced = run(cfg);

        assert!(plain.trace.is_empty(), "tracing off by default");
        assert!(!traced.trace.is_empty(), "traced run captures events");
        assert_eq!(traced.trace.overflow, 0, "64 Ki ring holds a 30 s run");
        let dispatches = traced
            .trace
            .events
            .iter()
            .filter(|e| matches!(e, nistream_trace::TraceEvent::Dispatch { .. }))
            .count() as u64;
        let sent: u64 = traced.streams.iter().map(|s| s.sent).sum();
        assert_eq!(dispatches, sent, "every NI send is traced");

        // The observer effect is zero: all published series match.
        assert_eq!(plain.mean_decision_us, traced.mean_decision_us);
        for (a, b) in plain.streams.iter().zip(&traced.streams) {
            assert_eq!(a.sent, b.sent);
            assert_eq!(a.qdelay, b.qdelay);
        }
    }

    #[test]
    fn vbr_plan_conserves_bytes_against_cbr() {
        use workload::vbr::VbrSpec;
        let totals = |cfg: NiLoadConfig| {
            let r = run(cfg);
            let bytes = r
                .trace
                .events
                .iter()
                .filter_map(|e| match e {
                    nistream_trace::TraceEvent::Dispatch { len, .. } => Some(u64::from(*len)),
                    _ => None,
                })
                .sum::<u64>();
            let sent: u64 = r.streams.iter().map(|s| s.sent).sum();
            (bytes, sent)
        };
        // 630 frames = 70 whole GOPs, finishing ~21 s into the 30 s run
        // so the end-of-run cutoff clips neither schedule.
        let mut cbr = quick();
        cbr.frames_per_stream = 630;
        cbr.trace_capacity = 1 << 16;
        let mut vbr_cfg = cbr.clone();
        for (i, c) in vbr_cfg.plan.clients.iter_mut().enumerate() {
            c.vbr = Some(VbrSpec::classic(i as u64));
        }
        let (cbr_bytes, cbr_sent) = totals(cbr);
        let (vbr_bytes, vbr_sent) = totals(vbr_cfg);
        assert_eq!(cbr_sent, vbr_sent, "every frame dispatched in both runs");
        assert_eq!(cbr_bytes, vbr_bytes, "VBR must conserve total bytes");
        assert!(cbr_bytes > 0);
    }

    #[test]
    fn ni_decision_time_matches_paper_65us() {
        let r = run(quick());
        assert!(
            (55.0..=80.0).contains(&r.mean_decision_us),
            "i960 decision ≈65 µs, got {:.1}",
            r.mean_decision_us
        );
    }

    #[test]
    fn ni_queuing_delay_grows_linearly_like_figure10() {
        let r = run(quick());
        let q = &r.streams[0].qdelay;
        let (n, d) = q[89];
        assert_eq!(n, 90);
        // Frame 90 waited ≈ 90 periods ≈ 3 s.
        assert!((2_500.0..=3_500.0).contains(&d), "delay at frame 90 = {d:.0} ms");
        assert!(q.windows(2).all(|w| w[1].1 >= w[0].1 - 1.0), "monotone");
    }
}
