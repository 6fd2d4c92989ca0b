//! The i960RD I/O co-processor cost model.
//!
//! Prices the two code paths the microbenchmarks measure:
//!
//! * **Scheduling decision** ([`I960Core::decision_time`]): fixed spine +
//!   ratio arithmetic (fixed-point vs software-FP build) + descriptor
//!   touches through the data cache (and the descriptor-ring scan the
//!   embedded firmware performs — §4.2.1 "the scheduler loops through the
//!   frame descriptors").
//! * **Dispatch without scheduler** ([`I960Core::dispatch_time`]): Table 1's
//!   "re-route execution in the code to a point where the address of the
//!   frame to be dispatched is readily available".
//!
//! The build flavour is [`MathMode`]; descriptor storage is either pinned
//! NI memory (cache-priced) or the MMIO hardware queues (fixed on-chip
//! cost, Table 3).

use crate::cache::DataCache;
use crate::calib;
use fixedpt::ops::{MathMode, Work};
use simkit::SimDuration;

/// Where frame descriptors live (Table 2 vs Table 3).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum DescriptorStore {
    /// Pinned NI memory, priced through the data cache.
    #[default]
    PinnedMemory,
    /// The 1004 memory-mapped hardware-queue registers: no external bus
    /// cycles, cache-independent.
    HwQueueRegs,
}

/// The co-processor model.
#[derive(Clone, Debug)]
pub struct I960Core {
    /// Core clock.
    pub hz: u64,
    /// Arithmetic build of the scheduler.
    pub math: MathMode,
    /// Data cache state.
    pub cache: DataCache,
    /// Descriptor storage.
    pub store: DescriptorStore,
}

impl I960Core {
    /// The paper's reference configuration: fixed-point build, cache
    /// disabled (the disk driver's constraint), descriptors in pinned
    /// memory.
    pub fn new() -> I960Core {
        I960Core {
            hz: calib::I960_HZ,
            math: MathMode::FixedPoint,
            cache: DataCache::i960(false),
            store: DescriptorStore::PinnedMemory,
        }
    }

    /// Builder: arithmetic mode.
    pub fn with_math(mut self, math: MathMode) -> I960Core {
        self.math = math;
        self
    }

    /// Builder: data cache enabled?
    pub fn with_cache(mut self, enabled: bool) -> I960Core {
        self.cache = DataCache::i960(enabled);
        self
    }

    /// Builder: descriptor store.
    pub fn with_store(mut self, store: DescriptorStore) -> I960Core {
        self.store = store;
        self
    }

    /// Cycles for one ratio operation under the current build.
    fn ratio_cycles(&self) -> u64 {
        match self.math {
            MathMode::FixedPoint => calib::FIXED_RATIO_CYCLES,
            MathMode::SoftFloat => calib::SOFT_FP_RATIO_CYCLES,
        }
    }

    /// Cycles for `n` descriptor touches under the current store/cache.
    fn touch_cycles(&mut self, n: u64) -> u64 {
        match self.store {
            DescriptorStore::PinnedMemory => self.cache.touch_cycles(n),
            DescriptorStore::HwQueueRegs => n * calib::HWQUEUE_TOUCH_CYCLES,
        }
    }

    /// Cycles for one scheduling decision.
    ///
    /// `work` — comparisons/touches the schedule representation reported;
    /// `ring_scan` — descriptors walked in the per-stream circular buffers
    /// (the firmware's linear descriptor loop; the microbenchmark's mean
    /// occupancy). Touches advance the data-cache state.
    pub fn decision_cycles(&mut self, work: Work, ring_scan: u64) -> u64 {
        let mut cycles = calib::NI_DECISION_BASE_CYCLES;
        cycles += calib::RATIO_EVALS_PER_DECISION * self.ratio_cycles();
        // Representation comparisons are ratio-flavoured too (priority
        // tests): priced per build.
        cycles += work.compares * self.ratio_cycles() / 4;
        cycles += self.touch_cycles(work.touches + ring_scan);
        cycles
    }

    /// Time for one scheduling decision: [`I960Core::decision_cycles`] at
    /// the core clock.
    pub fn decision_time(&mut self, work: Work, ring_scan: u64) -> SimDuration {
        let cycles = self.decision_cycles(work, ring_scan);
        SimDuration::for_cycles_at_hz(cycles, self.hz)
    }

    /// Time for the dispatch-only path (no scheduler rules).
    pub fn dispatch_time(&mut self) -> SimDuration {
        let cycles = if self.cache.is_enabled() || self.store == DescriptorStore::HwQueueRegs {
            calib::NI_DISPATCH_CACHED_CYCLES
        } else {
            calib::NI_DISPATCH_CYCLES
        };
        SimDuration::for_cycles_at_hz(cycles, self.hz)
    }

    /// Time for arbitrary task work measured in cycles (producer loops,
    /// protocol handling).
    pub fn cycles_time(&self, cycles: u64) -> SimDuration {
        SimDuration::for_cycles_at_hz(cycles, self.hz)
    }
}

impl Default for I960Core {
    fn default() -> Self {
        I960Core::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn work(touches: u64) -> Work {
        Work { compares: 2, touches }
    }

    #[test]
    fn fixed_point_cache_off_near_78us() {
        let mut c = I960Core::new(); // fixed, cache off
        let t = c.decision_time(work(3), 75);
        let us = t.as_micros_f64();
        assert!((70.0..=85.0).contains(&us), "got {us:.1} µs");
    }

    #[test]
    fn soft_float_costs_about_20us_more() {
        let mut fixed = I960Core::new();
        let mut float = I960Core::new().with_math(MathMode::SoftFloat);
        let a = fixed.decision_time(work(3), 75).as_micros_f64();
        let b = float.decision_time(work(3), 75).as_micros_f64();
        assert!((15.0..=25.0).contains(&(b - a)), "Δ = {:.1} µs", b - a);
    }

    #[test]
    fn cache_on_saves_about_14us() {
        let mut off = I960Core::new();
        let mut on = I960Core::new().with_cache(true);
        let a = off.decision_time(work(3), 75).as_micros_f64();
        let b = on.decision_time(work(3), 75).as_micros_f64();
        assert!((10.0..=18.0).contains(&(a - b)), "Δ = {:.1} µs", a - b);
    }

    #[test]
    fn hwqueue_store_is_cache_independent_and_fast() {
        let mut hw_off = I960Core::new().with_store(DescriptorStore::HwQueueRegs);
        let mut hw_on = I960Core::new()
            .with_cache(true)
            .with_store(DescriptorStore::HwQueueRegs);
        let a = hw_off.decision_time(work(3), 75).as_micros_f64();
        let b = hw_on.decision_time(work(3), 75).as_micros_f64();
        assert!(
            (a - b).abs() < 0.5,
            "register store ignores the cache: {a:.1} vs {b:.1}"
        );
        // And comparable to pinned memory with cache on (Table 3 ≈ Table 2).
        let mut pinned_on = I960Core::new().with_cache(true);
        let c = pinned_on.decision_time(work(3), 75).as_micros_f64();
        assert!((b - c).abs() < 5.0, "hwqueue ≈ cached memory: {b:.1} vs {c:.1}");
    }

    #[test]
    fn dispatch_times_match_tables() {
        let mut off = I960Core::new();
        let mut on = I960Core::new().with_cache(true);
        assert!((29.0..=32.0).contains(&off.dispatch_time().as_micros_f64()));
        assert!((26.0..=29.0).contains(&on.dispatch_time().as_micros_f64()));
    }

    #[test]
    fn decision_scales_with_ring_occupancy() {
        let mut c = I960Core::new();
        let small = c.decision_time(work(3), 5);
        let big = c.decision_time(work(3), 150);
        assert!(big > small);
    }
}
