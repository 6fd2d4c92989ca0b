//! Property suite for the NI trace ring (ISSUE 3 satellite).
//!
//! Arbitrary operation sequences — pushes of arbitrary events
//! interleaved with drains, over arbitrary capacities including the
//! disabled capacity 0 — must never panic, must preserve push order
//! through drains, must never exceed capacity, and must keep the exact
//! accounting identity `pushed == drained + retained + overflow`.

use nistream_trace::{TraceEvent, TraceRing};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::VecDeque;

/// Compact encodable op: Some(tag) = push an event derived from `tag`,
/// None = drain.
fn decode_event(tag: u64) -> TraceEvent {
    let at = tag.wrapping_mul(0x9e37_79b9);
    let stream = (tag % 7) as u32;
    let seq = tag;
    match tag % 6 {
        0 => TraceEvent::Admit {
            at,
            stream,
            period: 1 + tag % 50_000,
            loss_num: (tag % 3) as u32,
            loss_den: 1 + (tag % 4) as u32,
        },
        1 => TraceEvent::Reject {
            at,
            reason: (tag % 5) as u32,
        },
        2 => TraceEvent::Decision {
            at,
            stream: if tag & 1 == 0 { Some(stream) } else { None },
            dropped: (tag % 4) as u32,
            backlog: tag % 100,
            compares: tag % 64,
            touches: tag % 64,
        },
        3 => TraceEvent::Dispatch {
            at,
            stream,
            seq,
            len: (tag % 1500) as u32,
            deadline: at.wrapping_add(tag % 1000),
            on_time: tag & 1 == 0,
        },
        4 => TraceEvent::Drop { at, stream, seq },
        _ => TraceEvent::QueueDepth { at, depth: tag % 200 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn accounting_identity_holds_under_arbitrary_ops(
        cap in 0usize..12,
        ops in vec(0u64..2000, 0..200),
    ) {
        let mut ring = TraceRing::with_capacity(cap);
        // Drop-oldest model: each drain must hand out exactly its events,
        // including after the ring's deque has wrapped.
        let mut model = VecDeque::new();
        let mut drained_total = 0u64;
        for &op in &ops {
            if op % 11 == 0 {
                let out = ring.drain();
                prop_assert_eq!(&out, &model.drain(..).collect::<Vec<_>>(), "drain hands out the model's events");
                drained_total += out.len() as u64;
                prop_assert_eq!(ring.len(), 0, "drain empties the ring");
            } else {
                ring.push(decode_event(op));
                if cap > 0 {
                    if model.len() == cap {
                        model.pop_front();
                    }
                    model.push_back(decode_event(op));
                }
            }
            prop_assert!(ring.len() <= ring.capacity(), "capacity never exceeded");
            prop_assert_eq!(
                ring.pushed(),
                ring.drained() + ring.len() as u64 + ring.overflow(),
                "pushed == drained + retained + overflow"
            );
        }
        prop_assert_eq!(ring.drained(), drained_total);
    }

    #[test]
    fn drain_preserves_push_order_and_keeps_newest(
        cap in 1usize..16,
        tags in vec(0u64..10_000, 0..64),
    ) {
        let mut ring = TraceRing::with_capacity(cap);
        for &t in &tags {
            ring.push(decode_event(t));
        }
        let expect_overflow = tags.len().saturating_sub(cap) as u64;
        prop_assert_eq!(ring.overflow(), expect_overflow, "exact overflow == pushed - retained");
        let kept: Vec<TraceEvent> = tags
            .iter()
            .skip(tags.len().saturating_sub(cap))
            .map(|&t| decode_event(t))
            .collect();
        prop_assert_eq!(ring.drain(), kept, "oldest evicted first, order preserved");
    }

    #[test]
    fn serialization_of_any_event_is_stable(tag in 0u64..1_000_000) {
        let ev = decode_event(tag);
        let line = nistream_trace::event_line(&ev);
        let json = nistream_trace::event_json(&ev);
        prop_assert_eq!(&line, &nistream_trace::event_line(&ev));
        prop_assert_eq!(&json, &nistream_trace::event_json(&ev));
        prop_assert!(!line.contains('\n'));
        prop_assert!(json.starts_with("{\"ev\":\"") && json.ends_with('}'));
    }
}
