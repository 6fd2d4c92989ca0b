//! Host-side reporting bridge: fixed-point → `f64`.
//!
//! The NI-resident crates (`dwcs`, `fixedpt`, `dvcm`, …) are FPU-free by
//! policy — the i960RD has no floating-point unit, and the
//! `nistream-analysis` `ni-no-float` lint enforces the ban mechanically.
//! Their report quantities are therefore fixed-point ([`fixedpt::Q16`],
//! [`fixedpt::Frac`]); the conversions to `f64` that displays and plots
//! want live *here*, on the host side, where an FPU exists.

use dwcs::admission;
use dwcs::{StreamQos, Time};

// The trace exporters are integer-only by construction (they run on the
// NI-drained event stream); they are re-exported here because this module
// is the host-side gateway every display path already imports.
pub use nistream_trace::{to_csv as trace_to_csv, to_json as trace_to_json};

/// Total mandatory utilization of a stream set as a plain `f64`, for
/// printing and plotting. Delegates to [`dwcs::admission::utilization`]
/// (exact rational arithmetic) and converts at the very end.
pub fn utilization_f64(streams: &[StreamQos], service: Time) -> f64 {
    admission::utilization(streams, service).to_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwcs::types::MILLISECOND;

    #[test]
    fn utilization_converts_exactly_for_dyadic_values() {
        // 1 ms service every 4 ms, lossless: U = 1/4, exact in both Frac
        // and f64.
        let q = StreamQos::new(4 * MILLISECOND, 0, 1);
        assert_eq!(utilization_f64(&[q], MILLISECOND), 0.25);
    }
}
