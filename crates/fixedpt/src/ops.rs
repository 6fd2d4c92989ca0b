//! The arithmetic build and the work a scheduling decision performs.
//!
//! The paper compares two builds of the embedded scheduler: one using the
//! VxWorks **software floating-point library** and one using the authors'
//! **fixed-point** fraction representation. On the i960RD the difference is
//! ~20 µs per scheduling decision (Tables 1–2). To reproduce that on a
//! simulated i960, each decision reports the [`Work`] its schedule
//! representation did, and `hwsim::I960Core` prices that work at a per-op
//! cycle cost that depends on the selected [`MathMode`].

/// Which arithmetic build of the scheduler is being modelled.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MathMode {
    /// The authors' fraction/shift representation (fast on the i960RD).
    #[default]
    FixedPoint,
    /// `float` code through the VxWorks software floating-point library.
    SoftFloat,
}

/// Data-structure work performed by one scheduling decision, for the
/// co-processor cost model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Work {
    /// Key comparisons executed (each is a couple of integer multiplies in
    /// the fixed-point build, or software-FP ops in the float build).
    pub compares: u64,
    /// Descriptor/node memory touches (priced by the cache model).
    pub touches: u64,
}

impl Work {
    /// Accumulate another tally.
    pub fn add(&mut self, other: Work) {
        self.compares += other.compares;
        self.touches += other.touches;
    }
}
