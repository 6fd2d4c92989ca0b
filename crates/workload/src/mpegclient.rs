//! MPEG client request patterns.
//!
//! The figures' streaming workload: "Two MPEG clients shown as streams s1
//! and s2 connect to the system" and play for the duration of the run.
//! A [`ClientPlan`] describes when each client connects and the QoS it
//! negotiates (frame period and loss-tolerance); every client plays until
//! the run ends. The experiment harness turns plans into
//! `OpenStream`/producer schedules.

use crate::vbr::VbrSpec;
use dwcs::types::Time;
use mpeg1::Cadence;
use simkit::SimTime;

/// One MPEG client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MpegClient {
    /// Display name in figures ("s1", "s2", …).
    pub name: String,
    /// Connect time.
    pub connect_at: SimTime,
    /// Frame period `T` (ns) — deadline spacing the client requests.
    pub period: Time,
    /// Loss-tolerance numerator.
    pub loss_num: u32,
    /// Loss-tolerance denominator.
    pub loss_den: u32,
    /// Stream bitrate (bits/s) the producer feeds at.
    pub bitrate: u64,
    /// VBR shape of the stream's frames. `None` is constant-bitrate — the
    /// figure experiments' historical behavior, byte-for-byte.
    pub vbr: Option<VbrSpec>,
}

/// A set of clients forming one experiment's streaming load.
#[derive(Clone, Debug, Default)]
pub struct ClientPlan {
    /// The clients.
    pub clients: Vec<MpegClient>,
}

impl ClientPlan {
    /// The paper's two-stream plan: s1 and s2 connect at the start and
    /// play for the whole run. The settling bandwidth per stream in
    /// Figures 7/9 is ~250–260 kb/s — low-rate MPEG-1 (quarter-size
    /// video); a frame period of 33.37 ms (30 fps) with a 2-of-8
    /// loss window matches the traces.
    pub fn two_streams() -> ClientPlan {
        let client = |name: &str, offset_ms: u64| MpegClient {
            name: name.to_string(),
            connect_at: SimTime::from_nanos(offset_ms * 1_000_000),
            period: Cadence::NTSC.period_ns(), // 33.33 ms: 30 fps
            loss_num: 2,
            loss_den: 8,
            bitrate: 260_000,
            vbr: None,
        };
        ClientPlan {
            clients: vec![client("s1", 0), client("s2", 40)],
        }
    }

    /// Mean frame size in bytes implied by a client's bitrate and period.
    pub fn frame_bytes(c: &MpegClient) -> u32 {
        ((c.bitrate as f64 / 8.0) * (c.period as f64 / 1e9)).round() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_streams_matches_figures() {
        let p = ClientPlan::two_streams();
        assert_eq!(p.clients.len(), 2);
        assert_eq!(p.clients[0].name, "s1");
        assert_eq!(p.clients[1].name, "s2");
        // 30 fps → period ≈ 33.3 ms.
        assert!((33.0..34.0).contains(&(p.clients[0].period as f64 / 1e6)));
        // ~260 kb/s at 30 fps → ~1 083-byte frames: near the 1000-byte
        // frames of Table 4.
        let fb = ClientPlan::frame_bytes(&p.clients[0]);
        assert!((1_000..1_200).contains(&fb), "frame bytes {fb}");
    }

    #[test]
    fn cadence_reproduces_the_historic_period_constants() {
        use dwcs::types::MILLISECOND;
        // The figure plans historically hardcoded these; Cadence is now
        // the single source of truth and must reproduce them exactly.
        assert_eq!(Cadence::NTSC.period_ns(), (100 * MILLISECOND) / 3);
        assert_eq!(Cadence::NTSC.period_ns(), 33_333_333);
        assert_eq!(Cadence::PAL.period_ns(), 40_000_000);
        assert_eq!(Cadence::NTSC.frames_in_secs(100), 3_000);
    }

    #[test]
    fn mean_frame_bytes_matches_frame_bytes() {
        // The integer path used by NI-side generators agrees with the
        // float path of the figure harness for every plan we build.
        let pal = MpegClient {
            name: "pal".to_string(),
            period: Cadence::PAL.period_ns(), // 25 fps
            bitrate: 1_500_000,
            ..ClientPlan::two_streams().clients[0].clone()
        };
        for c in ClientPlan::two_streams().clients.iter().chain([pal].iter()) {
            assert_eq!(
                crate::vbr::mean_frame_bytes(c.bitrate, c.period),
                ClientPlan::frame_bytes(c),
                "client {}",
                c.name
            );
        }
    }
}
