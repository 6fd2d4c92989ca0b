//! Canonical serialization of drained traces: text lines, JSON, CSV.
//!
//! All three renderings are **byte-deterministic**: the same event
//! sequence always serializes to the same bytes (integer formatting
//! only, `BTreeMap`-ordered summaries, no timestamps of our own). The
//! golden-trace and determinism suites rely on this by comparing raw
//! serialized bytes across placements and across same-seed runs.
//!
//! The JSON layout (`schema = "nistream-trace/v1"`):
//!
//! ```json
//! {"schema":"nistream-trace/v1",
//!  "runs":[{"label":"...","overflow":0,
//!           "events":[{"ev":"dispatch","at":1000,...},...],
//!           "summary":{...,"streams":[...]}}]}
//! ```

use crate::aggregate::Aggregate;
use crate::event::TraceEvent;
use crate::ring::TraceRing;
use std::fmt::Write as _;

/// One drained trace: the retained events plus how many the ring lost.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceCapture {
    /// Retained events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events the ring evicted before this drain (exact count).
    pub overflow: u64,
}

impl TraceCapture {
    /// Drain `ring` into a capture.
    pub fn from_ring(ring: &mut TraceRing) -> TraceCapture {
        TraceCapture {
            events: ring.drain(),
            overflow: ring.overflow(),
        }
    }

    /// Whether the capture holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// One event as a canonical text line (stable across releases; the
/// golden-trace tests byte-compare these).
pub fn event_line(ev: &TraceEvent) -> String {
    match *ev {
        TraceEvent::Admit {
            at,
            stream,
            period,
            loss_num,
            loss_den,
        } => format!("admit at={at} stream={stream} period={period} loss={loss_num}/{loss_den}"),
        TraceEvent::Reject { at, reason } => format!("reject at={at} reason={reason}"),
        TraceEvent::Decision {
            at,
            stream,
            dropped,
            backlog,
            compares,
            touches,
        } => {
            let sid = stream.map_or_else(|| "-".to_string(), |s| s.to_string());
            format!("decision at={at} stream={sid} dropped={dropped} backlog={backlog} compares={compares} touches={touches}")
        }
        TraceEvent::Dispatch {
            at,
            stream,
            seq,
            len,
            deadline,
            on_time,
        } => format!(
            "dispatch at={at} stream={stream} seq={seq} len={len} deadline={deadline} on_time={}",
            u8::from(on_time)
        ),
        TraceEvent::Drop { at, stream, seq } => format!("drop at={at} stream={stream} seq={seq}"),
        TraceEvent::QueueDepth { at, depth } => format!("qdepth at={at} depth={depth}"),
    }
}

/// A whole event sequence as newline-terminated canonical lines.
pub fn to_lines(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&event_line(ev));
        out.push('\n');
    }
    out
}

/// One event as a JSON object.
pub fn event_json(ev: &TraceEvent) -> String {
    match *ev {
        TraceEvent::Admit {
            at,
            stream,
            period,
            loss_num,
            loss_den,
        } => format!(
            r#"{{"ev":"admit","at":{at},"stream":{stream},"period":{period},"loss_num":{loss_num},"loss_den":{loss_den}}}"#
        ),
        TraceEvent::Reject { at, reason } => format!(r#"{{"ev":"reject","at":{at},"reason":{reason}}}"#),
        TraceEvent::Decision {
            at,
            stream,
            dropped,
            backlog,
            compares,
            touches,
        } => {
            let sid = stream.map_or_else(|| "null".to_string(), |s| s.to_string());
            format!(
                r#"{{"ev":"decision","at":{at},"stream":{sid},"dropped":{dropped},"backlog":{backlog},"compares":{compares},"touches":{touches}}}"#
            )
        }
        TraceEvent::Dispatch {
            at,
            stream,
            seq,
            len,
            deadline,
            on_time,
        } => format!(
            r#"{{"ev":"dispatch","at":{at},"stream":{stream},"seq":{seq},"len":{len},"deadline":{deadline},"on_time":{on_time}}}"#
        ),
        TraceEvent::Drop { at, stream, seq } => {
            format!(r#"{{"ev":"drop","at":{at},"stream":{stream},"seq":{seq}}}"#)
        }
        TraceEvent::QueueDepth { at, depth } => format!(r#"{{"ev":"qdepth","at":{at},"depth":{depth}}}"#),
    }
}

fn escape(label: &str) -> String {
    label.replace('\\', "\\\\").replace('"', "\\\"")
}

fn summary_json(agg: &Aggregate) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        r#"{{"admits":{},"rejects":{},"decisions":{},"idle_decisions":{},"compares":{},"touches":{},"max_backlog":{},"dispatches":{},"drops":{},"latency_sum_ns":{},"latency_max_ns":{},"jitter_sum_ns":{},"jitter_count":{},"streams":["#,
        agg.admits,
        agg.rejects,
        agg.decisions,
        agg.idle_decisions,
        agg.compares,
        agg.touches,
        agg.max_backlog,
        agg.total_dispatches(),
        agg.total_drops(),
        agg.latency.sum(),
        agg.latency.max(),
        agg.jitter.sum(),
        agg.jitter.count(),
    );
    for (i, (sid, st)) in agg.streams().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            r#"{{"stream":{sid},"dispatches":{},"on_time":{},"late":{},"drops":{},"bytes":{}}}"#,
            st.sent(),
            st.sent_on_time,
            st.sent_late,
            st.dropped,
            st.bytes_sent
        );
    }
    s.push_str("]}");
    s
}

/// Serialize labelled runs to the `nistream-trace/v1` JSON document.
pub fn to_json(runs: &[(&str, &TraceCapture)]) -> String {
    let mut out = String::from(r#"{"schema":"nistream-trace/v1","runs":["#);
    for (i, (label, cap)) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut agg = Aggregate::new();
        agg.fold_all(&cap.events);
        let _ = write!(
            out,
            r#"{{"label":"{}","overflow":{},"events":["#,
            escape(label),
            cap.overflow
        );
        for (j, ev) in cap.events.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&event_json(ev));
        }
        let _ = write!(out, r#"],"summary":{}}}"#, summary_json(&agg));
    }
    out.push_str("]}");
    out
}

/// Serialize labelled runs to per-stream summary CSV (one `all` row per
/// run, then one row per stream).
pub fn to_csv(runs: &[(&str, &TraceCapture)]) -> String {
    let mut out = String::from("label,stream,dispatches,on_time,late,drops,bytes,overflow\n");
    for (label, cap) in runs {
        let mut agg = Aggregate::new();
        agg.fold_all(&cap.events);
        let _ = writeln!(
            out,
            "{label},all,{},{},{},{},{},{}",
            agg.total_dispatches(),
            agg.total_on_time(),
            agg.total_late(),
            agg.total_drops(),
            agg.streams().map(|(_, s)| s.bytes_sent).sum::<u64>(),
            cap.overflow,
        );
        for (sid, st) in agg.streams() {
            let _ = writeln!(
                out,
                "{label},{sid},{},{},{},{},{},",
                st.sent(),
                st.sent_on_time,
                st.sent_late,
                st.dropped,
                st.bytes_sent
            );
        }
    }
    out
}

/// Cheap structural check used by tests and tools: is `json` shaped
/// like a `nistream-trace/v1` document? (Prefix, a `runs` array, and
/// balanced braces/brackets — not a full JSON parse.)
pub fn is_schema_valid(json: &str) -> bool {
    let t = json.trim();
    if !t.starts_with(r#"{"schema":"nistream-trace/v1""#) || !t.contains(r#""runs":["#) || !t.ends_with('}') {
        return false;
    }
    let mut braces = 0i64;
    let mut brackets = 0i64;
    for c in t.chars() {
        match c {
            '{' => braces += 1,
            '}' => braces -= 1,
            '[' => brackets += 1,
            ']' => brackets -= 1,
            _ => {}
        }
        if braces < 0 || brackets < 0 {
            return false;
        }
    }
    braces == 0 && brackets == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceCapture {
        TraceCapture {
            events: vec![
                TraceEvent::Admit {
                    at: 0,
                    stream: 0,
                    period: 1000,
                    loss_num: 1,
                    loss_den: 2,
                },
                TraceEvent::Decision {
                    at: 1000,
                    stream: Some(0),
                    dropped: 0,
                    backlog: 1,
                    compares: 2,
                    touches: 3,
                },
                TraceEvent::Dispatch {
                    at: 1000,
                    stream: 0,
                    seq: 0,
                    len: 64,
                    deadline: 1000,
                    on_time: true,
                },
                TraceEvent::QueueDepth { at: 1000, depth: 1 },
            ],
            overflow: 0,
        }
    }

    #[test]
    fn json_is_schema_valid_and_deterministic() {
        let cap = sample();
        let a = to_json(&[("run", &cap)]);
        let b = to_json(&[("run", &cap)]);
        assert_eq!(a, b);
        assert!(is_schema_valid(&a), "{a}");
        assert!(a.contains(r#""ev":"dispatch""#));
        assert!(a.contains(r#""summary":{"admits":1"#));
    }

    #[test]
    fn schema_check_rejects_other_documents() {
        assert!(!is_schema_valid("{}"));
        assert!(!is_schema_valid(r#"{"schema":"nistream-trace/v1","runs":["#));
        assert!(!is_schema_valid(r#"{"schema":"other","runs":[]}"#));
    }

    #[test]
    fn lines_round_every_variant() {
        let cap = sample();
        let text = to_lines(&cap.events);
        assert_eq!(text.lines().count(), cap.events.len());
        assert!(text.starts_with("admit at=0 stream=0 period=1000 loss=1/2\n"));
        assert!(text.ends_with("qdepth at=1000 depth=1\n"));
    }

    #[test]
    fn csv_has_totals_and_stream_rows() {
        let cap = sample();
        let csv = to_csv(&[("r", &cap)]);
        assert!(csv.starts_with("label,stream,"));
        assert!(csv.contains("r,all,1,1,0,0,64,0"));
        assert!(csv.contains("r,0,1,1,0,0,64,"));
    }
}
