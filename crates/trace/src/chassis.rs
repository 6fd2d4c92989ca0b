//! Chassis-level trace tagging and aggregation.
//!
//! A multi-NI chassis drains one [`TraceCapture`] per card. This module
//! keeps the per-card streams intact — each wrapped in a
//! [`TaggedCapture`] carrying its card id — and folds them into a
//! [`ChassisAggregate`]: one [`Aggregate`] per card plus a chassis-wide
//! total, all integer arithmetic, all byte-deterministic on export.
//!
//! Tagged serialization is a strict prefix extension of the single-card
//! format: [`tagged_event_line`] renders `card=<id> ` followed by the
//! unchanged [`event_line`] text, so a 1-card chassis trace is the
//! single-card trace with a constant prefix — the conformance suite
//! gates on exactly that.

use crate::aggregate::Aggregate;
use crate::event::TraceEvent;
use crate::export::{event_line, TraceCapture};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One event with the card it was observed on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TaggedEvent {
    /// Card the event was traced on.
    pub card: u32,
    /// The event itself, unchanged from the per-card ring.
    pub event: TraceEvent,
}

/// One card's drained ring, tagged with the card id.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TaggedCapture {
    /// Card the capture was drained from.
    pub card: u32,
    /// The drained ring contents.
    pub capture: TraceCapture,
}

impl TaggedCapture {
    /// Iterate the capture's events as [`TaggedEvent`]s.
    pub fn tagged(&self) -> impl Iterator<Item = TaggedEvent> + '_ {
        let card = self.card;
        self.capture
            .events
            .iter()
            .map(move |&event| TaggedEvent { card, event })
    }
}

/// Canonical text line for a tagged event: `card=<id> ` + the unchanged
/// single-card [`event_line`].
pub fn tagged_event_line(card: u32, ev: &TraceEvent) -> String {
    format!("card={card} {}", event_line(ev))
}

/// Newline-terminated canonical lines for a set of per-card captures, in
/// slice order (cards are not interleaved: each card's events stay in
/// ring order, which is the only per-card total order that exists).
pub fn tagged_lines(captures: &[TaggedCapture]) -> String {
    let mut out = String::new();
    for cap in captures {
        for ev in &cap.capture.events {
            let _ = writeln!(out, "{}", tagged_event_line(cap.card, ev));
        }
    }
    out
}

/// Per-card and chassis-total aggregation of tagged captures.
#[derive(Clone, Debug, Default)]
pub struct ChassisAggregate {
    /// One aggregate per card, keyed by card id (ascending iteration).
    pub per_card: BTreeMap<u32, Aggregate>,
    /// The per-card aggregates merged: counters and histograms summed,
    /// each stream id's accounts absorbed into one.
    pub total: Aggregate,
}

impl ChassisAggregate {
    /// Build from a set of per-card captures: each card's events fold
    /// into that card's aggregate (a card listed twice continues its own
    /// fold), and the total merges the per-card aggregates
    /// ([`Aggregate::absorb`]). Stream ids are card-local, so folding
    /// every card's events into one aggregate would chain one card's
    /// dispatch gaps onto another's stream of the same id.
    pub fn from_captures(captures: &[TaggedCapture]) -> ChassisAggregate {
        let mut per_card: BTreeMap<u32, Aggregate> = BTreeMap::new();
        for cap in captures {
            per_card.entry(cap.card).or_default().fold_all(&cap.capture.events);
        }
        let mut total = Aggregate::new();
        for agg in per_card.values() {
            total.absorb(agg);
        }
        ChassisAggregate { per_card, total }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::to_lines;

    fn capture(card: u32, events: Vec<TraceEvent>) -> TaggedCapture {
        TaggedCapture {
            card,
            capture: TraceCapture { events, overflow: 0 },
        }
    }

    fn dispatch(at: u64, stream: u32) -> TraceEvent {
        TraceEvent::Dispatch {
            at,
            stream,
            seq: 0,
            len: 100,
            deadline: at,
            on_time: true,
        }
    }

    #[test]
    fn tagged_line_is_prefix_extension_of_event_line() {
        let ev = dispatch(10, 1);
        assert_eq!(tagged_event_line(3, &ev), format!("card=3 {}", event_line(&ev)));
    }

    #[test]
    fn one_card_tagged_lines_match_single_card_lines_modulo_prefix() {
        let events = vec![
            TraceEvent::Admit {
                at: 0,
                stream: 1,
                period: 10,
                loss_num: 1,
                loss_den: 2,
            },
            dispatch(10, 1),
            TraceEvent::Drop {
                at: 20,
                stream: 1,
                seq: 1,
            },
        ];
        let tagged = tagged_lines(&[capture(0, events.clone())]);
        let plain = to_lines(&events);
        let stripped: String = tagged
            .lines()
            .map(|l| format!("{}\n", l.strip_prefix("card=0 ").expect("prefix")))
            .collect();
        assert_eq!(stripped, plain);
    }

    #[test]
    fn aggregate_splits_per_card_and_totals() {
        let caps = vec![
            capture(0, vec![dispatch(10, 1), dispatch(20, 1)]),
            capture(2, vec![dispatch(15, 7)]),
        ];
        let agg = ChassisAggregate::from_captures(&caps);
        assert_eq!(agg.per_card.len(), 2);
        assert_eq!(agg.per_card[&0].total_dispatches(), 2);
        assert_eq!(agg.per_card[&2].total_dispatches(), 1);
        assert_eq!(agg.total.total_dispatches(), 3);
        assert!(agg.per_card.keys().copied().eq([0, 2]), "ascending card order");
    }

    /// Stream ids are card-local: card 1's stream 0 is not a continuation
    /// of card 0's, so the total holds exactly the per-card jitter samples
    /// and each card's own dispatches.
    #[test]
    fn total_merges_per_card_aggregates_without_chaining_cards() {
        let caps = vec![
            capture(0, vec![dispatch(0, 0), dispatch(10, 0), dispatch(20, 0)]),
            capture(1, vec![dispatch(0, 0), dispatch(10, 0), dispatch(20, 0)]),
        ];
        let agg = ChassisAggregate::from_captures(&caps);
        let per_card_jitter: u64 = agg.per_card.values().map(|a| a.jitter.count()).sum();
        assert_eq!(per_card_jitter, 2);
        assert_eq!(agg.total.jitter.count(), per_card_jitter);
        assert_eq!(agg.total.stream(0).map(|s| s.sent()), Some(6));
        assert_eq!(agg.total.stream(0).map(|s| s.jitter_samples), Some(2));
        assert_eq!(agg.total.latency.count(), 6);
    }

    #[test]
    fn tagged_lines_are_deterministic_bytes() {
        let caps = vec![capture(1, vec![dispatch(10, 1)]), capture(0, vec![dispatch(5, 2)])];
        assert_eq!(tagged_lines(&caps), tagged_lines(&caps));
        // Slice order is preserved, not re-sorted: the caller owns ordering.
        assert!(tagged_lines(&caps).starts_with("card=1 "));
    }
}
