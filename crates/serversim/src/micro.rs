//! Scheduler microbenchmarks — Tables 1, 2 and 3.
//!
//! Method, per §4.2 of the paper: *"we start the scheduler after all frame
//! descriptors have been written into the circular buffer"*, then measure
//!
//! * **Total Sched time** — time to schedule every frame out onto the
//!   network;
//! * **Avg frame Sched time** — the above per frame;
//! * **Total / Avg time w/o Scheduler** — the same transmission loop with
//!   execution "re-routed … to a point where the address of the frame to
//!   be dispatched is readily available" (dispatch only, no DWCS rules).
//!
//! The harness segments a synthetic MPEG-1 file (the paper's 151-frame
//! sequence length is the default), pre-loads the descriptors, then drives
//! the real DWCS scheduler while charging each decision's cost to the
//! [`hwsim::I960Core`] model — so the *algorithm execution* (window
//! adjustments, heap operations, drop handling) is genuine, and only the
//! per-operation timing is modelled.

use dwcs::{DualHeap, DwcsScheduler, FrameDesc, FrameKind, StreamQos};
use fixedpt::ops::MathMode;
use hwsim::i960::{DescriptorStore, I960Core};
use mpeg1::{EncoderConfig, Segmenter, SyntheticEncoder};
use nistream_trace::{TraceEvent, TraceRing};
use simkit::SimDuration;

/// One microbenchmark configuration cell.
#[derive(Clone, Debug)]
pub struct MicroConfig {
    /// Arithmetic build.
    pub math: MathMode,
    /// i960 data cache enabled?
    pub cache: bool,
    /// Descriptor storage.
    pub store: DescriptorStore,
    /// Frames in the pre-loaded sequence (the paper's run divides to 151).
    pub frames: usize,
    /// Streams the frames are spread across (the paper's microbenchmark
    /// streams one file).
    pub streams: usize,
}

impl Default for MicroConfig {
    fn default() -> MicroConfig {
        MicroConfig {
            math: MathMode::FixedPoint,
            cache: false,
            store: DescriptorStore::PinnedMemory,
            frames: 151,
            streams: 1,
        }
    }
}

/// Microbenchmark outcome (one column of Tables 1–3).
#[derive(Clone, Copy, Debug)]
pub struct MicroResult {
    /// Time to schedule + transmit every frame (µs).
    pub total_sched_us: f64,
    /// Per frame (µs).
    pub avg_sched_us: f64,
    /// Transmit-only loop (µs).
    pub total_nosched_us: f64,
    /// Per frame (µs).
    pub avg_nosched_us: f64,
    /// Frames processed.
    pub frames: usize,
}

impl MicroResult {
    /// The scheduler overhead the paper quotes: avg with − avg without.
    pub fn overhead_us(&self) -> f64 {
        self.avg_sched_us - self.avg_nosched_us
    }
}

/// Build the frame descriptors by actually encoding and segmenting a
/// synthetic MPEG-1 stream (the unit of scheduling is the MPEG-I frame).
fn segmented_frames(frames: usize) -> Vec<(FrameKind, u32, u64)> {
    let mut enc = SyntheticEncoder::new(EncoderConfig::default());
    let (bytes, _) = enc.encode(frames);
    Segmenter::new(&bytes)
        .segment_all()
        .expect("synthetic stream segments cleanly")
        .into_iter()
        .map(|f| {
            let kind = match f.kind {
                mpeg1::PictureKind::I => FrameKind::I,
                mpeg1::PictureKind::P => FrameKind::P,
                mpeg1::PictureKind::B => FrameKind::B,
            };
            (kind, f.len, f.offset as u64)
        })
        .collect()
}

/// Run one microbenchmark cell.
pub fn run(cfg: &MicroConfig) -> MicroResult {
    run_inner(cfg, None)
}

/// Run one microbenchmark cell with the scheduled pass narrated into an
/// NI trace ring: one `Admit` per stream, then per service pass any
/// `Drop`s, the `Decision`, and the `Dispatch` if a frame went out, all
/// stamped with the pass's deadline-query time (the same pass-start
/// convention the service core uses). The measurement itself is
/// untouched — [`run`] and `run_traced` return identical numbers.
pub fn run_traced(cfg: &MicroConfig, ring: &mut TraceRing) -> MicroResult {
    run_inner(cfg, Some(ring))
}

fn run_inner(cfg: &MicroConfig, mut trace: Option<&mut TraceRing>) -> MicroResult {
    let mut core = I960Core::new()
        .with_math(cfg.math)
        .with_cache(cfg.cache)
        .with_store(cfg.store);

    // Pre-load every descriptor (paper: scheduler starts after the ring is
    // full). One stream per cfg; a 30 fps deadline chain.
    let mut sched: DwcsScheduler<DualHeap> = DwcsScheduler::new(DualHeap::new(cfg.streams));
    let period = 33_333_333u64 / cfg.streams as u64; // keep aggregate rate
    let sids: Vec<_> = (0..cfg.streams)
        .map(|_| sched.add_stream(StreamQos::new(period, 2, 8)))
        .collect();
    if let Some(ring) = trace.as_deref_mut() {
        for sid in &sids {
            ring.push(TraceEvent::Admit {
                at: 0,
                stream: sid.0,
                period,
                loss_num: 2,
                loss_den: 8,
            });
        }
    }
    let frames = segmented_frames(cfg.frames);
    for (i, &(kind, len, addr)) in frames.iter().enumerate() {
        let sid = sids[i % sids.len()];
        let desc = FrameDesc::new(sid, (i / sids.len()) as u64, len, kind).at_addr(addr);
        sched.enqueue(sid, desc, 0);
    }

    // Scheduled pass: decide + dispatch per frame, charging the core model.
    // Ring occupancy decays from `frames` to 0 as the paper's run drains.
    let mut now = SimDuration::ZERO;
    let mut occupancy = frames.len() as u64;
    let mut sent = 0usize;
    while sent < frames.len() {
        // Run the scheduler far enough in its own virtual time that every
        // pre-loaded deadline has passed is wrong — we want on-time
        // service, so query at each head deadline like the firmware's
        // paced loop.
        let t = sched.next_eligible().expect("frames remain");
        let d = sched.schedule_next_with(t, |desc| {
            if let Some(ring) = trace.as_deref_mut() {
                ring.push(TraceEvent::Drop {
                    at: t,
                    stream: desc.stream.0,
                    seq: desc.seq,
                });
            }
        });
        if let Some(ring) = trace.as_deref_mut() {
            ring.push(TraceEvent::Decision {
                at: t,
                stream: d.frame.map(|f| f.desc.stream.0),
                dropped: d.dropped,
                backlog: sched.total_backlog(),
                compares: d.work.compares,
                touches: d.work.touches,
            });
            if let Some(f) = d.frame {
                ring.push(TraceEvent::Dispatch {
                    at: t,
                    stream: f.desc.stream.0,
                    seq: f.desc.seq,
                    len: f.desc.len,
                    deadline: f.deadline,
                    on_time: f.on_time,
                });
            }
        }
        now += core.decision_time(d.work, occupancy);
        if let Some(_f) = d.frame {
            now += core.dispatch_time();
            sent += 1;
            occupancy -= 1;
        } else {
            // Paced idle or drops; drops shrink occupancy too.
            occupancy = occupancy.saturating_sub(u64::from(d.dropped));
            sent += d.dropped as usize;
        }
    }
    let total_sched_us = now.as_micros_f64();

    // Transmit-only pass: address is "readily available"; only the
    // dispatch path runs.
    let mut core2 = I960Core::new()
        .with_math(cfg.math)
        .with_cache(cfg.cache)
        .with_store(cfg.store);
    let mut nosched = SimDuration::ZERO;
    for _ in &frames {
        nosched += core2.dispatch_time();
        // The float build still converts rate counters per frame even in
        // the transmit loop (the paper's w/o-scheduler times differ by
        // build: 34.6 vs 30.35 µs) — one ratio bookkeeping op per frame.
        let per_frame_ratio = match cfg.math {
            MathMode::FixedPoint => hwsim::calib::FIXED_RATIO_CYCLES,
            MathMode::SoftFloat => hwsim::calib::SOFT_FP_RATIO_CYCLES / 2,
        };
        nosched += core2.cycles_time(per_frame_ratio);
    }
    let total_nosched_us = nosched.as_micros_f64();

    let n = frames.len() as f64;
    MicroResult {
        total_sched_us,
        avg_sched_us: total_sched_us / n,
        total_nosched_us,
        avg_nosched_us: total_nosched_us / n,
        frames: frames.len(),
    }
}

/// Table 1: data cache disabled, software-FP and fixed-point columns.
pub fn table1() -> (MicroResult, MicroResult) {
    let float = run(&MicroConfig {
        math: MathMode::SoftFloat,
        ..MicroConfig::default()
    });
    let fixed = run(&MicroConfig::default());
    (float, fixed)
}

/// Table 2: data cache enabled.
pub fn table2() -> (MicroResult, MicroResult) {
    let float = run(&MicroConfig {
        math: MathMode::SoftFloat,
        cache: true,
        ..MicroConfig::default()
    });
    let fixed = run(&MicroConfig {
        cache: true,
        ..MicroConfig::default()
    });
    (float, fixed)
}

/// Table 3: fixed point, cache enabled, descriptors in the hardware-queue
/// registers.
pub fn table3() -> MicroResult {
    run(&MicroConfig {
        cache: true,
        store: DescriptorStore::HwQueueRegs,
        ..MicroConfig::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_holds() {
        let (float, fixed) = table1();
        assert_eq!(fixed.frames, 151);
        // Paper: avg sched 129.67 (FP) vs 108.48 (fixed); w/o 34.6 / 30.35.
        assert!(
            (100.0..=120.0).contains(&fixed.avg_sched_us),
            "fixed avg {:.2}",
            fixed.avg_sched_us
        );
        assert!(
            (120.0..=140.0).contains(&float.avg_sched_us),
            "float avg {:.2}",
            float.avg_sched_us
        );
        assert!(
            (28.0..=33.0).contains(&fixed.avg_nosched_us),
            "fixed w/o {:.2}",
            fixed.avg_nosched_us
        );
        assert!(
            (33.0..=37.0).contains(&float.avg_nosched_us),
            "float w/o {:.2}",
            float.avg_nosched_us
        );
        // Fixed point wins by ~20 µs per decision.
        let delta = float.avg_sched_us - fixed.avg_sched_us;
        assert!((15.0..=26.0).contains(&delta), "FP penalty {delta:.1}");
    }

    #[test]
    fn table2_cache_saves_over_table1() {
        let (_, fixed_off) = table1();
        let (float_on, fixed_on) = table2();
        let save = fixed_off.avg_sched_us - fixed_on.avg_sched_us;
        assert!((10.0..=18.0).contains(&save), "cache saving {save:.1} µs");
        // Paper Table 2: fixed 94.60, float 115.20.
        assert!(
            (85.0..=105.0).contains(&fixed_on.avg_sched_us),
            "{:.2}",
            fixed_on.avg_sched_us
        );
        assert!(
            (105.0..=125.0).contains(&float_on.avg_sched_us),
            "{:.2}",
            float_on.avg_sched_us
        );
    }

    #[test]
    fn table3_hwqueue_comparable_to_cached_memory() {
        let (_, fixed_on) = table2();
        let hw = table3();
        let diff = (hw.avg_sched_us - fixed_on.avg_sched_us).abs();
        assert!(
            diff < 10.0,
            "hwqueue {:.2} vs pinned {:.2}",
            hw.avg_sched_us,
            fixed_on.avg_sched_us
        );
    }

    #[test]
    fn overhead_matches_paper_65_to_78us() {
        let (_, fixed_off) = table1();
        let (_, fixed_on) = table2();
        assert!(
            (70.0..=85.0).contains(&fixed_off.overhead_us()),
            "{:.1}",
            fixed_off.overhead_us()
        );
        assert!(
            (60.0..=72.0).contains(&fixed_on.overhead_us()),
            "{:.1}",
            fixed_on.overhead_us()
        );
    }

    #[test]
    fn traced_cell_matches_untraced_and_narrates_every_frame() {
        let cfg = MicroConfig::default();
        let plain = run(&cfg);
        let mut ring = TraceRing::with_capacity(4096);
        let traced = run_traced(&cfg, &mut ring);

        assert_eq!(plain.total_sched_us, traced.total_sched_us);
        assert_eq!(plain.total_nosched_us, traced.total_nosched_us);

        let events = ring.drain();
        assert_eq!(ring.overflow(), 0);
        let admits = events.iter().filter(|e| matches!(e, TraceEvent::Admit { .. })).count();
        assert_eq!(admits, 1, "single-stream cell");
        let dispatches = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Dispatch { .. }))
            .count();
        let drops = events.iter().filter(|e| matches!(e, TraceEvent::Drop { .. })).count();
        assert_eq!(dispatches + drops, plain.frames, "every frame leaves a trace");
    }

    #[test]
    fn multi_stream_configs_also_run() {
        let r = run(&MicroConfig {
            streams: 8,
            frames: 160,
            ..MicroConfig::default()
        });
        assert_eq!(r.frames, 160);
        assert!(r.avg_sched_us > r.avg_nosched_us);
    }
}
