//! `ni-bounds` fixture: interval-domain proof obligations on the hot
//! path — provable sites stay silent, unprovable ones report their
//! offending interval, and the allow waiver is demonstrated once.

// analysis: hot
pub fn service(xs: &[u64], i: usize, d: u64, k: u32) -> u64 {
    // Proven: the guard dominates the index, so this line is silent.
    let guarded = if i < xs.len() { xs[i] } else { 0 };
    // Index with no dominating guard: reported with the interval.
    let raw = xs[i];
    // Unsigned subtraction that can wrap at d == 0.
    let diff = d - 1;
    // Divisor never proven nonzero.
    let q = raw / d;
    // Shift count never proven below the 64-bit width.
    let s = raw >> k;
    // Compound assignment obligations are checked from the operator token.
    let mut acc = 0u64;
    acc -= d;
    // analysis: allow(ni-bounds) reason="fixture: demonstrates the waiver path"
    let waived = xs[i + 1];
    guarded + diff + q + s + acc + waived + helper(xs)
}

/// Reached from the hot root through the call graph: obligations inside
/// helpers are checked too.
fn helper(v: &[u64]) -> u64 {
    v[0]
}

/// Not reachable from any hot root: the unguarded index here must stay
/// silent.
pub fn cold(v: &[u64]) -> u64 {
    v[9]
}

/// A field first observed in a `len()` guard keeps its declared type, so
/// the unsigned subtraction after the guard is still an obligation.
pub struct Keys {
    keys: Vec<u64>,
    cap: usize,
}

impl Keys {
    // analysis: hot
    pub fn excess(&mut self, k: usize) -> usize {
        if self.keys.len() > self.cap {
            self.cap += 1;
        }
        self.keys.len() - k
    }
}
