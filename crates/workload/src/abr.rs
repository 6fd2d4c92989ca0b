//! Adaptive-bitrate ladder control driven by scheduler congestion.
//!
//! Models the server-side half of an ABR loop: a periodic [`Congestion`]
//! probe feeds [`AbrController`], which maps it onto a ladder of bitrate
//! rungs — stepping down immediately under congestion, stepping back up
//! only after a configurable run of clean probes. Integer-only
//! (`ni-no-float` family): this logic is priced to run on the NI itself.

/// One congestion probe. The scheduler keeps no counters for it: the
/// host folds the drained trace (`nistream_trace::Aggregate`) and takes
/// `drops` and `late` as the change in the fold's totals since the
/// previous probe, as `nistream-bench`'s soak loop does.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Congestion {
    /// Frames still queued across active streams at probe time.
    pub backlog: u64,
    /// Frames dropped since the last probe.
    pub drops: u64,
    /// Frames dispatched after their deadline since the last probe.
    pub late: u64,
}

/// An ascending ladder of bitrate rungs (bits per second).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AbrLadder {
    rungs: Vec<u64>,
}

impl AbrLadder {
    /// A ladder from ascending rungs. Empty or unsorted input is
    /// normalised (sorted, deduplicated); an empty ladder gets a single
    /// zero rung so indexing is always valid.
    pub fn new(mut rungs: Vec<u64>) -> AbrLadder {
        rungs.sort_unstable();
        rungs.dedup();
        if rungs.is_empty() {
            rungs.push(0);
        }
        AbrLadder { rungs }
    }

    /// Number of rungs.
    pub fn len(&self) -> usize {
        self.rungs.len()
    }

    /// Whether the ladder has a single rung (never truly empty).
    pub fn is_empty(&self) -> bool {
        self.rungs.len() <= 1
    }

    /// Bitrate of rung `i` (clamped to the top rung).
    pub fn rung(&self, i: usize) -> u64 {
        self.rungs[i.min(self.rungs.len() - 1)]
    }

    /// Index of the top rung.
    pub fn top(&self) -> usize {
        self.rungs.len() - 1
    }
}

/// When to switch rungs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AbrPolicy {
    /// Backlog (queued frames across the card) above which a probe counts
    /// as congested even without drops or late dispatches.
    pub backlog_high: u64,
    /// Consecutive clean probes required before stepping one rung up.
    pub upswitch_after: u32,
}

impl Default for AbrPolicy {
    fn default() -> AbrPolicy {
        AbrPolicy {
            backlog_high: 64,
            upswitch_after: 4,
        }
    }
}

/// Rung selection state machine.
#[derive(Clone, Debug)]
pub struct AbrController {
    ladder: AbrLadder,
    policy: AbrPolicy,
    rung: usize,
    clean: u32,
}

impl AbrController {
    /// A controller starting at rung `start` (clamped to the ladder).
    pub fn new(ladder: AbrLadder, policy: AbrPolicy, start: usize) -> AbrController {
        let rung = start.min(ladder.top());
        AbrController {
            ladder,
            policy,
            rung,
            clean: 0,
        }
    }

    /// Current rung index.
    pub fn rung(&self) -> usize {
        self.rung
    }

    /// Current bitrate (bits per second).
    pub fn bitrate(&self) -> u64 {
        self.ladder.rung(self.rung)
    }

    /// Whether a probe reading counts as congested under this policy.
    pub fn congested(&self, c: &Congestion) -> bool {
        c.drops > 0 || c.late > 0 || c.backlog > self.policy.backlog_high
    }

    /// Feed one congestion probe. Returns the new bitrate if the rung
    /// changed, `None` if it stayed put.
    pub fn on_probe(&mut self, c: &Congestion) -> Option<u64> {
        if self.congested(c) {
            self.clean = 0;
            if self.rung > 0 {
                self.rung -= 1;
                return Some(self.bitrate());
            }
            return None;
        }
        self.clean = self.clean.saturating_add(1);
        if self.clean >= self.policy.upswitch_after && self.rung < self.ladder.top() {
            self.clean = 0;
            self.rung += 1;
            return Some(self.bitrate());
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn congested() -> Congestion {
        Congestion {
            backlog: 10,
            drops: 3,
            late: 0,
        }
    }

    fn clean() -> Congestion {
        Congestion {
            backlog: 0,
            drops: 0,
            late: 0,
        }
    }

    fn ladder() -> AbrLadder {
        AbrLadder::new(vec![65_000, 130_000, 260_000])
    }

    #[test]
    fn ladder_normalises() {
        let l = AbrLadder::new(vec![260_000, 65_000, 130_000, 130_000]);
        assert_eq!(l.len(), 3);
        assert_eq!(l.rung(0), 65_000);
        assert_eq!(l.rung(2), 260_000);
        assert_eq!(l.rung(99), 260_000);
        let empty = AbrLadder::new(vec![]);
        assert_eq!(empty.rung(0), 0);
    }

    #[test]
    fn steps_down_under_congestion_and_pins_at_floor() {
        let mut c = AbrController::new(ladder(), AbrPolicy::default(), 2);
        assert_eq!(c.bitrate(), 260_000);
        assert_eq!(c.on_probe(&congested()), Some(130_000));
        assert_eq!(c.on_probe(&congested()), Some(65_000));
        assert_eq!(c.on_probe(&congested()), None); // floor
        assert_eq!(c.bitrate(), 65_000);
    }

    #[test]
    fn steps_up_only_after_sustained_clean_probes() {
        let policy = AbrPolicy {
            backlog_high: 64,
            upswitch_after: 3,
        };
        let mut c = AbrController::new(ladder(), policy, 0);
        assert_eq!(c.on_probe(&clean()), None);
        assert_eq!(c.on_probe(&clean()), None);
        assert_eq!(c.on_probe(&clean()), Some(130_000));
        // A congested probe resets the clean streak.
        assert_eq!(c.on_probe(&clean()), None);
        assert_eq!(c.on_probe(&congested()), Some(65_000));
        assert_eq!(c.on_probe(&clean()), None);
        assert_eq!(c.on_probe(&clean()), None);
        assert_eq!(c.on_probe(&clean()), Some(130_000));
    }

    #[test]
    fn backlog_alone_counts_as_congestion() {
        let mut c = AbrController::new(ladder(), AbrPolicy::default(), 2);
        let probe = Congestion {
            backlog: 65,
            drops: 0,
            late: 0,
        };
        assert_eq!(c.on_probe(&probe), Some(130_000));
    }
}
