//! `Aggregate` folds each stream's counters and dispatch history through
//! one map entry. This suite folds random event streams both with it and
//! with a reference fold that keeps counters, last dispatch time and last
//! gap in three separate maps, and requires every observable result to
//! agree: per-stream counters, totals, both histograms and the exported
//! summary bytes.

use nistream_trace::{to_json, Aggregate, Histogram, StreamAccount, TraceCapture, TraceEvent};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One stream's counters as the reference keeps them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Counts {
    dispatches: u64,
    on_time: u64,
    late: u64,
    drops: u64,
    bytes: u64,
}

impl Counts {
    fn of(s: &StreamAccount) -> Counts {
        Counts {
            dispatches: s.sent(),
            on_time: s.sent_on_time,
            late: s.sent_late,
            drops: s.dropped,
            bytes: s.bytes_sent,
        }
    }
}

/// The three-map fold, kept here as the reference.
#[derive(Default)]
struct Reference {
    admits: u64,
    rejects: u64,
    decisions: u64,
    idle_decisions: u64,
    compares: u64,
    touches: u64,
    max_backlog: u64,
    latency: Histogram,
    jitter: Histogram,
    streams: BTreeMap<u32, Counts>,
    last_at: BTreeMap<u32, u64>,
    last_gap: BTreeMap<u32, u64>,
}

impl Reference {
    fn fold(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Admit { .. } => self.admits += 1,
            TraceEvent::Reject { .. } => self.rejects += 1,
            TraceEvent::Decision {
                stream,
                backlog,
                compares,
                touches,
                ..
            } => {
                self.decisions += 1;
                if stream.is_none() {
                    self.idle_decisions += 1;
                }
                self.compares += compares;
                self.touches += touches;
                self.max_backlog = self.max_backlog.max(backlog);
            }
            TraceEvent::Dispatch {
                at,
                stream,
                len,
                deadline,
                on_time,
                ..
            } => {
                let s = self.streams.entry(stream).or_default();
                s.dispatches += 1;
                if on_time {
                    s.on_time += 1;
                } else {
                    s.late += 1;
                }
                s.bytes += u64::from(len);
                self.latency.record(at.saturating_sub(deadline));
                if let Some(&prev) = self.last_at.get(&stream) {
                    let gap = at.saturating_sub(prev);
                    if let Some(&pg) = self.last_gap.get(&stream) {
                        self.jitter.record(gap.abs_diff(pg));
                    }
                    self.last_gap.insert(stream, gap);
                }
                self.last_at.insert(stream, at);
            }
            TraceEvent::Drop { stream, .. } => {
                self.streams.entry(stream).or_default().drops += 1;
            }
            TraceEvent::QueueDepth { depth, .. } => {
                self.max_backlog = self.max_backlog.max(depth);
            }
        }
    }

    fn total(&self, f: impl Fn(&Counts) -> u64) -> u64 {
        self.streams.values().map(f).sum()
    }

    /// The `summary` object `to_json` writes, rendered from the reference.
    fn summary_json(&self) -> String {
        let mut s = format!(
            r#"{{"admits":{},"rejects":{},"decisions":{},"idle_decisions":{},"compares":{},"touches":{},"max_backlog":{},"dispatches":{},"drops":{},"latency_sum_ns":{},"latency_max_ns":{},"jitter_sum_ns":{},"jitter_count":{},"streams":["#,
            self.admits,
            self.rejects,
            self.decisions,
            self.idle_decisions,
            self.compares,
            self.touches,
            self.max_backlog,
            self.total(|s| s.dispatches),
            self.total(|s| s.drops),
            self.latency.sum(),
            self.latency.max(),
            self.jitter.sum(),
            self.jitter.count(),
        );
        let rows: Vec<String> = self
            .streams
            .iter()
            .map(|(sid, st)| {
                format!(
                    r#"{{"stream":{},"dispatches":{},"on_time":{},"late":{},"drops":{},"bytes":{}}}"#,
                    sid, st.dispatches, st.on_time, st.late, st.drops, st.bytes
                )
            })
            .collect();
        s.push_str(&rows.join(","));
        s.push_str("]}");
        s
    }
}

/// Stream ids: a few small ones that recur, plus one near `u32::MAX`.
const IDS: [u32; 5] = [0, 1, 2, 7, u32::MAX - 1];

/// One event of `kind` for stream `IDS[id]` at time `at`; `x` seeds the
/// remaining fields.
fn event(kind: u8, id: usize, at: u64, x: u64) -> TraceEvent {
    let stream = IDS[id % IDS.len()];
    match kind % 4 {
        0 => TraceEvent::Dispatch {
            at,
            stream,
            seq: x,
            len: (x % 1500) as u32,
            deadline: at.saturating_sub(x % 3_000).saturating_add(x % 1_000),
            on_time: !x.is_multiple_of(3),
        },
        1 => TraceEvent::Drop { at, stream, seq: x },
        2 => TraceEvent::Decision {
            at,
            stream: x.is_multiple_of(2).then_some(stream),
            dropped: (x % 4) as u32,
            backlog: x % 100,
            compares: x % 64,
            touches: x % 32,
        },
        _ => TraceEvent::QueueDepth { at, depth: x % 200 },
    }
}

/// Events from drawn `(kind, id, dt, x)` tuples; `dt` advances the clock,
/// so dispatch gaps (and so jitter) vary.
fn events_from(draws: &[(u8, usize, u64, u64)]) -> Vec<TraceEvent> {
    let mut at = 0u64;
    draws
        .iter()
        .map(|&(kind, id, dt, x)| {
            at += dt;
            event(kind, id, at, x)
        })
        .collect()
}

/// The `summary` object of the one run `to_json` writes.
fn exported_summary(events: &[TraceEvent]) -> String {
    let cap = TraceCapture {
        events: events.to_vec(),
        overflow: 0,
    };
    let doc = to_json(&[("run", &cap)]);
    let start = doc.find(r#""summary":"#).expect("summary present") + r#""summary":"#.len();
    doc[start..doc.len() - "}]}".len()].to_string()
}

fn assert_folds_agree(events: &[TraceEvent]) -> Result<(), TestCaseError> {
    let mut agg = Aggregate::new();
    agg.fold_all(events);
    let mut reference = Reference::default();
    for ev in events {
        reference.fold(ev);
    }
    let streams: Vec<(u32, Counts)> = agg.streams().map(|(sid, s)| (sid, Counts::of(s))).collect();
    let expect: Vec<(u32, Counts)> = reference.streams.iter().map(|(&sid, &s)| (sid, s)).collect();
    prop_assert_eq!(&streams, &expect);
    for &(sid, s) in &expect {
        prop_assert_eq!(agg.stream(sid).map(Counts::of), Some(s));
    }
    prop_assert_eq!(agg.total_dispatches(), reference.total(|s| s.dispatches));
    prop_assert_eq!(agg.total_drops(), reference.total(|s| s.drops));
    prop_assert_eq!(agg.total_late(), reference.total(|s| s.late));
    prop_assert_eq!(agg.total_on_time(), reference.total(|s| s.on_time));
    prop_assert_eq!(&agg.latency, &reference.latency);
    prop_assert_eq!(&agg.jitter, &reference.jitter);
    prop_assert_eq!(exported_summary(events), reference.summary_json());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn single_map_fold_matches_three_map_reference(
        draws in vec((0u8..4, 0usize..IDS.len(), 0u64..40_000, 0u64..1_000_000), 0..300),
    ) {
        assert_folds_agree(&events_from(&draws))?;
    }
}

/// A drop before a stream's first dispatch creates the stream's entry
/// with no dispatch history: its first dispatch then records no gap, and
/// the second records a gap but no jitter.
#[test]
fn drop_before_first_dispatch_starts_no_gap() {
    let dispatch = |at: u64| TraceEvent::Dispatch {
        at,
        stream: u32::MAX - 1,
        seq: at,
        len: 100,
        deadline: at,
        on_time: true,
    };
    let events = [
        TraceEvent::Drop {
            at: 5,
            stream: u32::MAX - 1,
            seq: 0,
        },
        dispatch(10),
        dispatch(30),
        dispatch(45),
    ];
    let mut agg = Aggregate::new();
    agg.fold_all(&events);
    // Gaps 20 then 15: exactly one jitter sample of 5.
    assert_eq!((agg.jitter.count(), agg.jitter.sum()), (1, 5));
    let s = agg.stream(u32::MAX - 1).cloned().unwrap_or_default();
    assert_eq!((s.sent(), s.dropped), (3, 1));
    assert_folds_agree(&events).unwrap();
}
