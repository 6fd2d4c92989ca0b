//! Batched struct-of-arrays representation: an 8-ary winner pyramid over
//! dense per-stream columns, refreshed incrementally from a dirty list.
//!
//! The five earlier representations pay their full data-structure cost on
//! *every* operation. At 100k+ streams that is what collapses throughput
//! (host wall-clock per decision grows with stream count for every
//! pointer-chasing structure). `BatchSoa` borrows the data-layout and
//! branch-elimination idioms of SIMD-pipeline schedulers instead:
//!
//! * **Struct-of-arrays stream table.** Deadlines, loss-tolerance windows
//!   (`x'`, `y'` — compared exactly, the Q16/[`fixedpt::Frac`]
//!   cross-multiply), FCFS arrival stamps and per-stream state tags live in
//!   separate dense `Vec`s indexed by the stream's slot
//!   ([`StreamId::index`] is already a dense, reused slot map). A winner
//!   probe touches only the 8-byte deadline column until a tie forces the
//!   full key to be reconstructed.
//! * **8-ary winner pyramid.** Above the leaf deadline column sit
//!   `⌈log₈ cap⌉` levels, each storing its groups' winning `(key, slot)`
//!   pairs in two parallel arrays. The root is the DWCS winner. An 8-ary
//!   group's keys are eight contiguous `u64`s — one cache line — reduced
//!   by a branch-light integer min scan; a binary tree of the same
//!   capacity is ~3× deeper and touches ~3× the lines per repair. Equal
//!   keys (including a real `deadline == u64::MAX` against the vacant
//!   sentinel) fall back to the exact five-rule [`HeadKey::precedence`]
//!   over the reconstructed column keys, so the order is *identical* to
//!   every other representation.
//! * **Dirty-tracked incremental refresh.** Mutations only write their
//!   columns/leaf and append the slot to a dirty list (deduplicated by a
//!   dirty bit in the tag column). The pyramid refreshes lazily at the next
//!   `peek`/`pop`: each dirty slot walks its root-ward group path, stopping
//!   early once a recomputed group is unchanged (bulk admissions fall back
//!   to one level-synchronized sweep instead) — never a per-decision full
//!   re-heapify. Crucially a `pop_min` immediately followed by `update` of
//!   the *same* stream — the scheduler's steady-state pattern — coalesces
//!   into **one** path walk.
//!
//! Steady-state operation performs no allocation: every buffer (columns,
//! pyramid levels, dirty list) is sized for the slot range at construction
//! or admission-time growth. `tests/no_alloc_gate.rs` holds this with a
//! counting global allocator.

use super::{ScheduleRepr, Work};
use crate::key::HeadKey;
use crate::types::StreamId;

/// Pyramid fan-out: one group's keys are eight contiguous `u64`s — a
/// single 64-byte cache line.
const ARITY: usize = 8;

/// Sentinel slot marking an empty group.
const NONE: u32 = u32::MAX;

/// Tag column bit: head entry present and indexed by the pyramid.
const QUEUED: u8 = 1;
/// Tag column bit: slot is on the dirty list awaiting a pyramid refresh.
/// Living in the tag byte — a line every mutation touches anyway — makes
/// dirty-list dedup free of its own column (and its own cache miss).
const DIRTY: u8 = 2;

/// Non-deadline precedence fields, packed so one re-key writes one line:
/// the loss-tolerance pair (`x'` high 32 bits, `y'` low) and the FCFS
/// arrival stamp.
#[derive(Clone, Copy)]
struct Qual {
    xy: u64,
    arrival: u64,
}

/// One pyramid level: per-group winning key and slot, in parallel arrays
/// (keys stay contiguous so the parent's scan reads one line). Allocation
/// is padded to a multiple of [`ARITY`] with vacant sentinels so parent
/// scans never range-check.
struct Level {
    key: Vec<u64>,
    slot: Vec<u32>,
    /// Live group count (≤ allocation).
    size: usize,
}

impl Level {
    fn new(size: usize, alloc: usize) -> Level {
        Level {
            key: vec![u64::MAX; alloc],
            slot: vec![NONE; alloc],
            size,
        }
    }
}

/// Struct-of-arrays winner pyramid with dirty-tracked incremental refresh.
pub struct BatchSoa {
    // --- stream table: one dense column per field, indexed by slot ---
    /// Doubles as the pyramid's leaf key column: the deadline for queued
    /// slots, `u64::MAX` for vacant ones (real `MAX` deadlines
    /// disambiguate via the tie path, which consults the tag column).
    deadline: Vec<u64>,
    /// Packed loss-tolerance pair and arrival stamp.
    qual: Vec<Qual>,
    /// Per-slot [`QUEUED`]/[`DIRTY`] bits.
    tag: Vec<u8>,
    /// Pyramid levels, bottom-up; the last has a single root group.
    levels: Vec<Level>,
    /// Leaf count; power of two, at least [`ARITY`]; the column length.
    cap: usize,
    // --- dirty tracking ---
    /// Slots mutated since the last refresh (deduplicated by the tag
    /// column's [`DIRTY`] bit).
    dirty: Vec<u32>,
    len: usize,
    work: Work,
}

impl BatchSoa {
    /// Table sized for stream slots `0..capacity` (grows on admission).
    pub fn new(capacity: usize) -> BatchSoa {
        let cap = capacity.next_power_of_two().max(ARITY);
        BatchSoa {
            deadline: vec![u64::MAX; cap],
            qual: vec![Qual { xy: 0, arrival: 0 }; cap],
            tag: vec![0; cap],
            levels: Self::build_levels(cap),
            cap,
            dirty: Vec::with_capacity(cap),
            len: 0,
            work: Work::default(),
        }
    }

    /// Empty pyramid over `cap` leaves (`cap` a power of two ≥ [`ARITY`]).
    fn build_levels(cap: usize) -> Vec<Level> {
        let mut levels = Vec::new();
        let mut child_alloc = cap;
        // analysis: bound 11
        loop {
            let size = child_alloc / ARITY;
            if size <= 1 {
                levels.push(Level::new(1, 1));
                break;
            }
            let alloc = size.next_multiple_of(ARITY);
            levels.push(Level::new(size, alloc));
            child_alloc = alloc;
        }
        levels
    }

    /// Number of leaf slots currently allocated (pyramid capacity).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Slots awaiting a pyramid refresh (drains to zero at the next
    /// peek/pop).
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// Reconstruct the full precedence key from the columns.
    #[inline(always)]
    fn head_key(&self, slot: usize) -> HeadKey {
        // Compiled out in release; the interval domain assumes each
        // assert and discharges the matching column index for every
        // caller. (A value carries one symbolic length bound at a time,
        // so the asserts are interleaved per column.)
        debug_assert!(slot < self.qual.len());
        let q = self.qual[slot];
        debug_assert!(slot < self.deadline.len());
        HeadKey {
            deadline: self.deadline[slot],
            x: (q.xy >> 32) as u32,
            y: q.xy as u32,
            arrival: q.arrival,
        }
    }

    /// Exact DWCS order between two *present* slots whose integer keys tied:
    /// the five-rule precedence over the reconstructed column keys.
    fn tie_break(&self, a: u32, b: u32) -> u32 {
        let ka = self.head_key(a as usize);
        let kb = self.head_key(b as usize);
        if ka.precedence(&kb).is_le() {
            a
        } else {
            b
        }
    }

    /// Winner of the eight leaves starting at `base`: branch-light integer
    /// min over one line of the leaf key column; ties (always including the
    /// all-vacant `MAX` case) resolve by tag and full precedence.
    #[inline(always)]
    fn scan_leaves(&self, base: usize) -> (u64, u32) {
        // The `K <= len && base <= len - K` form keeps the subtraction
        // wrap-free under the left conjunct, so the interval domain
        // proves the one-line slice and the tie loop's tag indexes.
        debug_assert!(ARITY <= self.deadline.len() && base <= self.deadline.len() - ARITY);
        let keys = &self.deadline[base..base + ARITY];
        let mut bk = keys[0];
        let mut bj = 0usize;
        let mut tie = false;
        // analysis: bound 8
        for (j, &k) in keys.iter().enumerate().skip(1) {
            // Branchless: `tie` survives only while no strictly smaller key
            // arrives, and is (re)armed by an exact duplicate of the
            // running minimum — compare + conditional moves, no jumps.
            let lt = k < bk;
            tie = !lt & (tie | (k == bk));
            if lt {
                bk = k;
                bj = j;
            }
        }
        if !tie {
            // A unique minimum below MAX is necessarily a queued slot
            // (vacant leaves are all MAX, and an all-MAX group ties).
            return (bk, (base + bj) as u32);
        }
        let mut best = NONE;
        debug_assert!(ARITY <= self.tag.len() && base <= self.tag.len() - ARITY);
        let tags = &self.tag[base..base + ARITY];
        // analysis: bound 8
        for (j, (&k, &t)) in keys.iter().zip(tags.iter()).enumerate() {
            if k == bk && t & QUEUED != 0 {
                let s = (base + j) as u32;
                best = if best == NONE { s } else { self.tie_break(best, s) };
            }
        }
        (bk, best)
    }

    /// Winner of the eight child groups starting at `base` on level
    /// `child`: same min scan over the child level's key array.
    #[inline(always)]
    fn scan_level(&self, lv: &Level, base: usize) -> (u64, u32) {
        debug_assert!(ARITY <= lv.key.len() && base <= lv.key.len() - ARITY);
        let keys = &lv.key[base..base + ARITY];
        let mut bk = keys[0];
        let mut bj = 0usize;
        let mut tie = false;
        // analysis: bound 8
        for (j, &k) in keys.iter().enumerate().skip(1) {
            let lt = k < bk;
            tie = !lt & (tie | (k == bk));
            if lt {
                bk = k;
                bj = j;
            }
        }
        debug_assert!(ARITY <= lv.slot.len() && base <= lv.slot.len() - ARITY);
        let slots = &lv.slot[base..base + ARITY];
        if !tie {
            debug_assert!(bj < slots.len());
            return (bk, slots[bj]);
        }
        let mut best = NONE;
        // analysis: bound 8
        for (&k, &s) in keys.iter().zip(slots.iter()) {
            if k == bk && s != NONE {
                best = if best == NONE { s } else { self.tie_break(best, s) };
            }
        }
        (bk, best)
    }

    /// Recompute group `g` of level `lvl` from its children. Returns
    /// whether its stored `(key, slot)` changed. Work is tallied by the
    /// caller (one add per flush/rebuild, not per group). Note an
    /// *unchanged* group is not always ancestor-inert — see the stale
    /// tie-break caveat on [`BatchSoa::flush`].
    #[inline(always)]
    fn refresh(&mut self, lvl: usize, g: usize) -> bool {
        debug_assert!(lvl < self.levels.len());
        let base = g * ARITY;
        let (bk, bs) = if lvl == 0 {
            self.scan_leaves(base)
        } else {
            debug_assert!(1 <= lvl);
            self.scan_level(&self.levels[lvl - 1], base)
        };
        let lv = &mut self.levels[lvl];
        // A value carries one symbolic length bound at a time, so each
        // column access gets its own (release-compiled-out) assert.
        debug_assert!(g < lv.key.len());
        let same_key = lv.key[g] == bk;
        debug_assert!(g < lv.slot.len());
        if same_key && lv.slot[g] == bs {
            false
        } else {
            debug_assert!(g < lv.key.len());
            lv.key[g] = bk;
            debug_assert!(g < lv.slot.len());
            lv.slot[g] = bs;
            true
        }
    }

    /// Append `slot` to the dirty list unless its [`DIRTY`] bit is set.
    #[inline(always)]
    fn mark_dirty(&mut self, slot: usize) {
        debug_assert!(slot < self.tag.len());
        if self.tag[slot] & DIRTY == 0 {
            self.tag[slot] |= DIRTY;
            // analysis: allow(ni-no-alloc) reason="dirty list reserves one entry per slot at construction/growth; the DIRTY-bit dedup bounds it at cap, so push never reallocates"
            self.dirty.push(slot as u32);
        }
    }

    /// Bring the pyramid up to date with all dirty slots. Each dirty slot
    /// walks its root-ward group path, stopping as soon as a recomputed
    /// group is unchanged **and** its stored winner is some other slot.
    /// The second condition matters: a superseding update can re-key a
    /// group's winner with the *same deadline* (the stored `(key, slot)`
    /// pair does not move) but different qualifiers `(x', y', arrival)` —
    /// and ancestor tie-breaks compare full keys, so they must re-run
    /// against the fresh columns. When the winner is a different slot,
    /// the dirtied slot lost its group under fresh data and nothing above
    /// references it, so stopping is sound.
    /// A walk may recompute a shared ancestor before
    /// a sibling's later walk has refreshed its child — but that later walk
    /// *changed* the child, so it continues upward and recomputes the
    /// ancestor again from final values; the last walk through any group
    /// therefore leaves it exact. When most groups are dirty anyway (bulk
    /// admission), a level-synchronized full rebuild is cheaper than the
    /// redundant ancestor recomputations.
    // analysis: hot
    fn flush(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        if self.dirty.len() >= self.cap / ARITY {
            self.rebuild();
            let dirty = core::mem::take(&mut self.dirty);
            // analysis: allow(ni-cycle-budget) reason="dirty list is DIRTY-bit deduped, so this runs at most cap times per flush and amortizes to O(1) per update; BatchSoa runs in no placement, and a static bound is ROADMAP item 7"
            for &slot in &dirty {
                // analysis: allow(ni-bounds) reason="dirty entries are in-range by construction: mark_dirty indexes self.tag[slot] before pushing and the table never shrinks"
                self.tag[slot as usize] &= !DIRTY;
            }
            self.dirty = dirty;
        } else {
            let dirty = core::mem::take(&mut self.dirty);
            let mut groups = 0u64;
            // analysis: allow(ni-cycle-budget) reason="dirty list is DIRTY-bit deduped, so this runs at most cap times per flush and amortizes to O(1) per update; BatchSoa runs in no placement, and a static bound is ROADMAP item 7"
            for &slot in &dirty {
                // analysis: allow(ni-bounds) reason="dirty entries are in-range by construction: mark_dirty indexes self.tag[slot] before pushing and the table never shrinks"
                self.tag[slot as usize] &= !DIRTY;
                let mut g = slot as usize / ARITY;
                // analysis: allow(ni-cycle-budget) reason="one group per pyramid level, so the path is log8(cap) long; BatchSoa runs in no placement, and a static bound is ROADMAP item 7"
                for lvl in 0..self.levels.len() {
                    groups += 1;
                    let changed = self.refresh(lvl, g);
                    // The group path g = slot/8, /8, ... stays inside each
                    // level's allocation; that divisibility argument is
                    // beyond the interval domain, so assume it on a named
                    // borrow whose length symbol the domain can track.
                    let lvslot = &self.levels[lvl].slot;
                    debug_assert!(g < lvslot.len());
                    // analysis: allow(ni-bounds) reason="level k is sized ceil(cap/8^(k+1)) groups and g = slot/8^(k+1) with slot < cap — a divisibility relation beyond the interval domain; dynamically checked by the debug_assert above"
                    if !changed && lvslot[g] != slot {
                        break;
                    }
                    g /= ARITY;
                }
            }
            self.work.compares += (ARITY as u64 - 1) * groups;
            self.work.touches += groups;
            self.dirty = dirty;
        }
        self.dirty.clear();
    }

    /// Grow the slot range to cover `min_slots`, then rebuild the pyramid.
    /// Admission-time only; never reached by the steady-state service path.
    fn grow(&mut self, min_slots: usize) {
        let cap = min_slots.next_power_of_two().max(ARITY);
        // analysis: allow(ni-no-alloc) reason="grows only when a new stream id is admitted, bounded by stream count"
        self.deadline.resize(cap, u64::MAX);
        // analysis: allow(ni-no-alloc) reason="grows only when a new stream id is admitted, bounded by stream count"
        self.qual.resize(cap, Qual { xy: 0, arrival: 0 });
        // analysis: allow(ni-no-alloc) reason="grows only when a new stream id is admitted, bounded by stream count"
        self.tag.resize(cap, 0);
        // analysis: allow(ni-no-alloc) reason="grows only when a new stream id is admitted, bounded by stream count"
        self.dirty.reserve(cap);
        // analysis: allow(ni-no-alloc) reason="grows only when a new stream id is admitted, bounded by stream count"
        self.levels = Self::build_levels(cap);
        self.cap = cap;
        self.rebuild();
        // The rebuild supersedes any pending dirt.
        let dirty = core::mem::take(&mut self.dirty);
        // analysis: allow(ni-cycle-budget) reason="admission-time growth path, bounded by stream count; never reached by the steady-state service pass"
        for &slot in &dirty {
            // analysis: allow(ni-bounds) reason="dirty entries are in-range by construction, and the table just grew: mark_dirty indexed self.tag[slot] before pushing"
            self.tag[slot as usize] &= !DIRTY;
        }
        self.dirty = dirty;
        self.dirty.clear();
    }

    /// Recompute every pyramid group bottom-up from the columns. Used after
    /// growth (construction starts empty, which the levels already encode).
    fn rebuild(&mut self) {
        let mut groups = 0u64;
        // analysis: allow(ni-cycle-budget) reason="bulk path: O(cap/7) groups, cheaper than the per-slot walks it replaces; BatchSoa runs in no placement, and a static bound is ROADMAP item 7"
        for lvl in 0..self.levels.len() {
            // analysis: allow(ni-cycle-budget) reason="bulk path: O(cap/7) groups, cheaper than the per-slot walks it replaces"
            for g in 0..self.levels[lvl].size {
                self.refresh(lvl, g);
            }
            groups += self.levels[lvl].size as u64;
        }
        self.work.compares += (ARITY as u64 - 1) * groups;
        self.work.touches += groups;
    }
}

impl ScheduleRepr for BatchSoa {
    fn name(&self) -> &'static str {
        "batch-soa"
    }

    // analysis: hot
    // analysis: allow(ni-cycle-budget) reason="only admission of a new stream id triggers growth + rebuild, bounded by stream count; BatchSoa runs in no placement, and a static bound is ROADMAP item 7"
    fn update(&mut self, sid: StreamId, key: HeadKey) {
        let slot = sid.index();
        if slot >= self.cap {
            self.grow(slot + 1);
        }
        // grow() re-sizes every column to cover `slot`; the cap==len
        // relation is a struct invariant the interval domain cannot see,
        // so assert it per column (compiled out in release).
        debug_assert!(slot < self.tag.len());
        if self.tag[slot] & QUEUED == 0 {
            self.tag[slot] |= QUEUED;
            self.len += 1;
        }
        debug_assert!(slot < self.deadline.len());
        self.deadline[slot] = key.deadline;
        debug_assert!(slot < self.qual.len());
        self.qual[slot] = Qual {
            xy: (u64::from(key.x) << 32) | u64::from(key.y),
            arrival: key.arrival,
        };
        self.mark_dirty(slot);
        self.work.touches += 2;
    }

    fn remove(&mut self, sid: StreamId) {
        let slot = sid.index();
        if slot < self.cap && self.tag[slot] & QUEUED != 0 {
            self.tag[slot] &= !QUEUED;
            self.len -= 1;
            self.deadline[slot] = u64::MAX;
            self.mark_dirty(slot);
            self.work.touches += 1;
        }
    }

    // analysis: allow(ni-cycle-budget) reason="flush cost is dirty-count-dependent, amortized O(log8 n) per decision; BatchSoa runs in no placement, and a static bound is ROADMAP item 7"
    fn peek_min(&mut self) -> Option<(StreamId, HeadKey)> {
        self.flush();
        // `build_levels` always pushes a root level with one group; the
        // method forms carry that invariant without a panicking index.
        let slot = match self.levels.last() {
            Some(root) => root.slot.first().copied().unwrap_or(NONE),
            None => NONE,
        };
        self.work.touches += 1;
        if slot == NONE {
            return None;
        }
        Some((StreamId(slot), self.head_key(slot as usize)))
    }

    // analysis: hot
    fn pop_min(&mut self) -> Option<(StreamId, HeadKey)> {
        let (sid, key) = self.peek_min()?;
        let slot: usize = sid.index();
        // peek_min returned a present slot, so it is inside the columns
        // and counted in `len`.
        debug_assert!(slot < self.tag.len());
        self.tag[slot] &= !QUEUED;
        debug_assert!(1 <= self.len);
        self.len -= 1;
        debug_assert!(slot < self.deadline.len());
        self.deadline[slot] = u64::MAX;
        // Deferred: if the scheduler re-queues this stream's next frame
        // before the next peek — the steady-state pattern — the pop and the
        // update coalesce into a single path walk.
        self.mark_dirty(slot);
        self.work.touches += 1;
        Some((sid, key))
    }

    fn len(&self) -> usize {
        self.len
    }

    fn take_work(&mut self) -> Work {
        core::mem::take(&mut self.work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(deadline: u64, x: u32, y: u32, arrival: u64) -> HeadKey {
        HeadKey {
            deadline,
            x,
            y,
            arrival,
        }
    }

    #[test]
    fn pops_by_precedence() {
        let mut r = BatchSoa::new(8);
        r.update(StreamId(0), key(100, 1, 2, 0));
        r.update(StreamId(1), key(100, 0, 4, 1));
        r.update(StreamId(2), key(50, 3, 3, 2));
        assert_eq!(r.pop_min().unwrap().0, StreamId(2), "earliest deadline");
        assert_eq!(r.pop_min().unwrap().0, StreamId(1), "W'=0 beats W'=1/2");
        assert_eq!(r.pop_min().unwrap().0, StreamId(0));
        assert!(r.pop_min().is_none());
    }

    #[test]
    fn update_replaces_in_place() {
        let mut r = BatchSoa::new(4);
        r.update(StreamId(0), key(10, 1, 2, 0));
        r.update(StreamId(0), key(99, 1, 2, 1));
        r.update(StreamId(1), key(50, 1, 2, 2));
        assert_eq!(r.len(), 2);
        assert_eq!(r.pop_min().unwrap().0, StreamId(1));
        let (sid, k) = r.pop_min().unwrap();
        assert_eq!(sid, StreamId(0));
        assert_eq!(k.deadline, 99, "superseded deadline must not surface");
        assert!(r.pop_min().is_none());
    }

    #[test]
    fn removed_streams_never_surface() {
        let mut r = BatchSoa::new(4);
        r.update(StreamId(0), key(10, 1, 2, 0));
        r.update(StreamId(1), key(20, 1, 2, 1));
        r.remove(StreamId(0));
        assert_eq!(r.len(), 1);
        assert_eq!(r.pop_min().unwrap().0, StreamId(1));
        assert!(r.pop_min().is_none());
    }

    #[test]
    fn grows_beyond_initial_capacity() {
        let mut r = BatchSoa::new(2);
        for sid in 0..37u32 {
            r.update(StreamId(sid), key(1_000 + u64::from(sid), 1, 2, u64::from(sid)));
        }
        assert_eq!(r.len(), 37);
        assert!(r.capacity() >= 37);
        for expect in 0..37u32 {
            assert_eq!(r.pop_min().unwrap().0, StreamId(expect));
        }
        assert!(r.is_empty());
    }

    #[test]
    fn equal_deadline_ties_use_full_precedence() {
        let mut r = BatchSoa::new(8);
        // All share deadline 100: W'=0 deepest window first, then lowest
        // ratio, then FCFS.
        r.update(StreamId(0), key(100, 1, 2, 0));
        r.update(StreamId(1), key(100, 0, 3, 1));
        r.update(StreamId(2), key(100, 0, 12, 2));
        r.update(StreamId(3), key(100, 1, 2, 3));
        let order: Vec<StreamId> = core::iter::from_fn(|| r.pop_min().map(|(s, _)| s)).collect();
        assert_eq!(order, vec![StreamId(2), StreamId(1), StreamId(0), StreamId(3)]);
    }

    #[test]
    fn equal_deadline_ties_across_groups() {
        let mut r = BatchSoa::new(64);
        // Same deadline in different 8-slot groups: the tie must resolve by
        // precedence at an upper pyramid level, not within one leaf scan.
        r.update(StreamId(3), key(100, 1, 2, 7));
        r.update(StreamId(60), key(100, 1, 2, 2));
        r.update(StreamId(33), key(100, 0, 5, 9));
        assert_eq!(r.pop_min().unwrap().0, StreamId(33), "W'=0 wins across groups");
        assert_eq!(r.pop_min().unwrap().0, StreamId(60), "then FCFS by arrival");
        assert_eq!(r.pop_min().unwrap().0, StreamId(3));
        assert!(r.pop_min().is_none());
    }

    /// A superseding update that keeps the winner's deadline (so its leaf
    /// group's stored `(key, slot)` pair does not move) but changes its
    /// qualifiers must still re-run ancestor tie-breaks: here stream 0's
    /// re-key pushes its FCFS stamp past stream 9's, flipping the
    /// cross-group tie. Caught by the differential proptest before the
    /// flush walk learned to keep climbing while the dirtied slot is
    /// still its group's winner.
    #[test]
    fn requalified_winner_same_deadline_reruns_ancestor_tie_breaks() {
        let mut r = BatchSoa::new(16);
        r.update(StreamId(0), key(5_000, 2, 8, 0));
        r.update(StreamId(9), key(5_000, 2, 8, 1));
        assert_eq!(r.peek_min().unwrap().0, StreamId(0), "FCFS: arrival 0 first");
        r.update(StreamId(0), key(5_000, 2, 8, 2));
        assert_eq!(r.pop_min().unwrap().0, StreamId(9), "re-key moved stream 0 behind 9");
        assert_eq!(r.pop_min().unwrap().0, StreamId(0));
        assert!(r.pop_min().is_none());
    }

    #[test]
    fn max_deadline_entry_still_pops() {
        let mut r = BatchSoa::new(4);
        r.update(StreamId(0), key(u64::MAX, 1, 2, 0));
        r.update(StreamId(1), key(5, 1, 2, 1));
        assert_eq!(r.pop_min().unwrap().0, StreamId(1));
        let (sid, k) = r.pop_min().unwrap();
        assert_eq!(
            sid,
            StreamId(0),
            "deadline == u64::MAX is a real entry, not the sentinel"
        );
        assert_eq!(k.deadline, u64::MAX);
        assert!(r.pop_min().is_none());
    }

    #[test]
    fn pop_then_update_coalesces_dirt() {
        let mut r = BatchSoa::new(1024);
        for sid in 0..1024u32 {
            r.update(StreamId(sid), key(u64::from(sid) + 1, 1, 2, u64::from(sid)));
        }
        let _ = r.peek_min(); // flush the bulk insert
        assert_eq!(r.dirty_len(), 0);
        let (sid, _) = r.pop_min().unwrap();
        assert_eq!(r.dirty_len(), 1, "pop defers its pyramid repair");
        r.update(sid, key(10_000, 1, 2, 9_999));
        assert_eq!(r.dirty_len(), 1, "re-queue of the popped slot adds no new dirt");
        assert_eq!(r.peek_min().unwrap().0, StreamId(1));
        assert_eq!(r.dirty_len(), 0);
    }

    #[test]
    fn dirty_flush_handles_many_slots() {
        let mut r = BatchSoa::new(64);
        for sid in 0..64u32 {
            r.update(StreamId(sid), key(1_000 - u64::from(sid), 1, 2, u64::from(sid)));
        }
        // 64 dirty slots → every group path walks once, winner is the
        // highest sid.
        assert_eq!(r.peek_min().unwrap().0, StreamId(63));
        // Re-dirty a scattered subset and verify the refresh is exact.
        for sid in [3u32, 17, 40, 63] {
            r.update(StreamId(sid), key(2_000 + u64::from(sid), 1, 2, 100 + u64::from(sid)));
        }
        assert_eq!(
            r.peek_min().unwrap().0,
            StreamId(62),
            "new minimum after subset moved back"
        );
    }

    #[test]
    fn peek_matches_pop_and_work_is_reported() {
        let mut r = BatchSoa::new(16);
        for sid in 0..8u32 {
            r.update(StreamId(sid), key(1_000_000 * u64::from(8 - sid), 1, 2, u64::from(sid)));
        }
        while let Some(peeked) = r.peek_min() {
            let popped = r.pop_min().unwrap();
            assert_eq!(peeked.0, popped.0);
        }
        assert!(r.is_empty());
        let w = r.take_work();
        assert!(w.touches > 0);
        assert_eq!(r.take_work(), Work::default(), "take drains");
    }
}
