//! The threaded engine's doorbell: a producer's send wakes the parked
//! scheduler thread.
//!
//! With nothing eligible the scheduler parks with no timeout, so a send
//! whose wake were lost would sit in its ring until some other wake came
//! along. Each round trip below posts one frame and then polls the sink
//! (never the command channel, whose requests wake the scheduler too)
//! until the frame arrives, so a single lost wake fails the test at its
//! deadline. A stats round trip between bursts interleaves command wakes
//! with the frame wakes.

use nistream::core::engine::{MediaServer, SinkKind};
use nistream::core::qos::StreamQos;
use nistream::dwcs::scheduler::Pacing;
use nistream::dwcs::types::MILLISECOND;
use std::time::{Duration, Instant};

const ROUND_TRIPS: usize = 20_000;
const BURST: usize = 500;
const DEADLINE: Duration = Duration::from_secs(10);

#[test]
fn every_send_wakes_the_parked_scheduler() {
    let server = MediaServer::builder()
        .pool(16, 64)
        .sink(SinkKind::Collect)
        .pacing(Pacing::WorkConserving)
        .start()
        .unwrap();
    // Loss-intolerant, so a frame a busy host made late is still delivered
    // rather than dropped, and every round trip ends in the sink.
    let mut s = server
        .open_stream(StreamQos::new(MILLISECOND, 1, 2).send_late())
        .unwrap();
    for i in 0..ROUND_TRIPS {
        s.send(&[i as u8; 32]).unwrap();
        let started = Instant::now();
        while server.collected_len() <= i {
            assert!(
                started.elapsed() < DEADLINE,
                "frame {i} never delivered: the scheduler slept through its doorbell"
            );
            std::thread::yield_now();
        }
        if (i + 1) % BURST == 0 {
            let stats = server.stats(s.id()).unwrap();
            assert_eq!(stats.sent(), i as u64 + 1, "stats after burst ending at frame {i}");
        }
    }
    let recs = server.collected();
    assert!(
        recs.iter().map(|r| r.seq).eq(0..ROUND_TRIPS as u64),
        "every frame delivered once, in order"
    );
    server.shutdown();
}
