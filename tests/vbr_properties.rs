//! Properties of the seeded VBR trace generator (`workload::vbr`).
//!
//! The soak SLO gates are only as trustworthy as the workload under them,
//! so the generator's contract is pinned property-style across random
//! specs: (1) the same spec and mean reproduce the same bytes, whether
//! frames are read sequentially or by random access; (2) every whole GOP
//! conserves bytes exactly (`gop_len × mean`), so VBR shaping never
//! changes a stream's long-run rate; (3) GOP structure survives shaping —
//! exactly one I picture per GOP, in display position 0; (4) the integer
//! mean-frame-size used on the NI path agrees with the float planner it
//! mirrors.

use nistream::mpeg1::{Cadence, GopPattern, IntGopWeights, PictureKind};
use nistream::workload::mpegclient::{ClientPlan, MpegClient};
use nistream::workload::vbr::{mean_frame_bytes, VbrSpec, VbrTraceGen};
use proptest::prelude::*;
use simkit::SimTime;

const Q16: u32 = 1 << 16;

/// Random GOP pattern: `I` followed by 2..=14 P/B pictures.
fn pattern_strategy() -> impl Strategy<Value = GopPattern> {
    proptest::collection::vec(prop_oneof![Just('P'), Just('B')], 2..15).prop_map(|tail| {
        let s: String = std::iter::once('I').chain(tail).collect();
        s.parse().expect("generated pattern is valid")
    })
}

fn spec_strategy() -> impl Strategy<Value = VbrSpec> {
    (
        pattern_strategy(),
        (1u32..8, 1u32..8, 1u32..8),
        0u32..(Q16 / 4),
        0u32..6,
        (Q16 / 2)..(4 * Q16),
        any::<u64>(),
    )
        .prop_map(
            |(pattern, (w_i, w_p, w_b), jitter_q16, burst_every_gops, burst_gain_q16, seed)| VbrSpec {
                pattern,
                weights: IntGopWeights { w_i, w_p, w_b },
                jitter_q16,
                burst_every_gops,
                burst_gain_q16,
                seed,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn same_spec_reproduces_the_same_bytes(spec in spec_strategy(), mean in 200u32..4_000) {
        let frames = 3 * spec.pattern.len() as u64 + 1;
        let mut a = VbrTraceGen::new(spec.clone(), mean);
        let mut b = VbrTraceGen::new(spec, mean);
        for seq in 0..frames {
            let fa = a.frame(seq);
            let fb = b.frame(seq);
            prop_assert_eq!(fa.len, fb.len, "seq {}", seq);
            prop_assert_eq!(fa.kind, fb.kind, "seq {}", seq);
        }
    }

    #[test]
    fn random_access_equals_sequential(spec in spec_strategy(), mean in 200u32..4_000) {
        let frames = 2 * spec.pattern.len() as u64;
        let mut seq_gen = VbrTraceGen::new(spec.clone(), mean);
        let forward: Vec<u32> = (0..frames).map(|s| seq_gen.frame(s).len).collect();
        // Read the same range backwards through a fresh generator: the
        // per-GOP derivation makes every frame a pure function of (spec,
        // mean, seq), so mid-stream seeks (ABR rung switches) are exact.
        let mut rev_gen = VbrTraceGen::new(spec, mean);
        for seq in (0..frames).rev() {
            prop_assert_eq!(rev_gen.frame(seq).len, forward[seq as usize], "seq {}", seq);
        }
    }

    #[test]
    fn every_whole_gop_conserves_bytes(spec in spec_strategy(), mean in 200u32..4_000) {
        let gop_len = spec.pattern.len() as u64;
        let mut gen = VbrTraceGen::new(spec, mean);
        for gop in 0..5u64 {
            let total: u64 = (0..gop_len)
                .map(|k| u64::from(gen.frame(gop * gop_len + k).len))
                .sum();
            prop_assert_eq!(total, u64::from(mean) * gop_len, "gop {}", gop);
        }
    }

    #[test]
    fn exactly_one_i_frame_per_gop_at_position_zero(spec in spec_strategy(), mean in 200u32..4_000) {
        let gop_len = spec.pattern.len() as u64;
        let mut gen = VbrTraceGen::new(spec, mean);
        for gop in 0..4u64 {
            let kinds: Vec<PictureKind> =
                (0..gop_len).map(|k| gen.frame(gop * gop_len + k).kind).collect();
            prop_assert_eq!(kinds.iter().filter(|&&k| k == PictureKind::I).count(), 1, "gop {}", gop);
            prop_assert_eq!(kinds[0], PictureKind::I, "gop {}", gop);
        }
    }

    #[test]
    fn integer_mean_matches_the_float_planner(bitrate in 16_000u64..4_000_000, fps in 10u32..61) {
        let period = Cadence { fps }.period_ns();
        let client = MpegClient {
            name: "p".to_string(),
            connect_at: SimTime::ZERO,
            period,
            loss_num: 2,
            loss_den: 8,
            bitrate,
            vbr: None,
        };
        prop_assert_eq!(mean_frame_bytes(bitrate, period), ClientPlan::frame_bytes(&client));
    }
}
