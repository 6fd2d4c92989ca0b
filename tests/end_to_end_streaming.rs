//! Integration: the real threaded engine end to end — multiple producer
//! threads, the DWCS scheduler thread, pool-backed payloads, collect sink.

use nistream::core::engine::{MediaServer, SinkKind};
use nistream::core::qos::StreamQos;
use nistream::dwcs::scheduler::Pacing;
use nistream::dwcs::types::MILLISECOND;
use std::time::{Duration, Instant};

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < timeout {
        if cond() {
            return true;
        }
        std::thread::yield_now();
    }
    cond()
}

#[test]
fn concurrent_producers_from_multiple_threads() {
    let server = MediaServer::builder()
        .pool(2048, 2048)
        .sink(SinkKind::Collect)
        .pacing(Pacing::WorkConserving)
        .start()
        .unwrap();

    const STREAMS: usize = 4;
    const FRAMES: u64 = 200;
    let mut threads = Vec::new();
    let mut ids = Vec::new();
    for t in 0..STREAMS {
        let mut handle = server.open_stream(StreamQos::new(MILLISECOND, 2, 8)).unwrap();
        ids.push(handle.id());
        threads.push(std::thread::spawn(move || {
            let payload = vec![t as u8; 700];
            let mut pushed = 0u64;
            while pushed < FRAMES {
                match handle.send(&payload) {
                    Ok(()) => pushed += 1,
                    Err(_) => std::thread::yield_now(),
                }
            }
        }));
    }
    for th in threads {
        th.join().unwrap();
    }
    assert!(
        wait_until(Duration::from_secs(10), || server.collected().len() as u64
            == STREAMS as u64 * FRAMES),
        "delivered {} of {}",
        server.collected().len(),
        STREAMS as u64 * FRAMES
    );

    // Per-stream FIFO and payload integrity markers.
    let recs = server.collected();
    for (t, id) in ids.iter().enumerate() {
        let seqs: Vec<u64> = recs.iter().filter(|r| r.stream == *id).map(|r| r.seq).collect();
        assert_eq!(seqs.len() as u64, FRAMES, "stream {t}");
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "stream {t} FIFO");
    }
    for id in &ids {
        let stats = server.stats(*id).unwrap();
        assert_eq!(stats.enqueued, FRAMES);
        assert_eq!(stats.sent(), FRAMES);
        assert_eq!(stats.violations, 0);
    }
    server.shutdown();
}

#[test]
fn paced_engine_tracks_stream_rate_under_saturation() {
    // Feed far more than real-time; paced output must hold ~1/period.
    let server = MediaServer::builder()
        .pool(1024, 512)
        .sink(SinkKind::Collect)
        .pacing(Pacing::DeadlinePaced)
        .start()
        .unwrap();
    let period = 4 * MILLISECOND;
    // Loss-intolerant: on a loaded box the scheduler thread can be starved
    // past the late grace, and a droppable stream would shed those frames —
    // the collected count would then never reach 100. Send-late keeps every
    // frame observable while still exercising deadline pacing.
    let mut s = server.open_stream(StreamQos::new(period, 2, 8).send_late()).unwrap();
    for _ in 0..100 {
        while s.send(&[7u8; 128]).is_err() {
            std::thread::yield_now();
        }
    }
    assert!(wait_until(Duration::from_secs(10), || server.collected().len() >= 100));
    let recs = server.collected();
    let span = recs.last().unwrap().at_ns - recs.first().unwrap().at_ns;
    let per_frame = span / (recs.len() as u64 - 1);
    assert!(
        (3 * MILLISECOND..6 * MILLISECOND).contains(&per_frame),
        "paced inter-dispatch {} us",
        per_frame / 1_000
    );
    server.shutdown();
}

#[test]
fn pool_slots_fully_recovered_after_run() {
    let server = MediaServer::builder()
        .pool(64, 256)
        .sink(SinkKind::Discard)
        .pacing(Pacing::WorkConserving)
        .start()
        .unwrap();
    let mut s = server.open_stream(StreamQos::new(MILLISECOND, 2, 8)).unwrap();
    let pool = {
        // send everything, wait for drain
        for _ in 0..500u32 {
            while s.send(&[1u8; 64]).is_err() {
                std::thread::yield_now();
            }
        }
        s
    };
    assert!(wait_until(Duration::from_secs(10), || {
        server
            .stats(pool.id())
            .map(|st| st.sent() + st.dropped == 500)
            .unwrap_or(false)
    }));
    server.shutdown();
}
