//! # fixedpt — fixed-point arithmetic for FPU-less co-processors
//!
//! The Intel i960RD I/O co-processor evaluated in the paper has **no floating
//! point unit**. The VxWorks software floating-point library makes `float`
//! code run, but each emulated operation costs tens of microseconds of 66 MHz
//! CPU time; the paper measures a ~20 µs penalty *per scheduling decision*
//! (Tables 1–2). The authors' remedy — reproduced by this crate — is to store
//! scheduler quantities as **fractions with explicit numerator and
//! denominator, with divisions implemented as shifts** (§4.2 of the paper).
//!
//! This crate provides:
//!
//! * [`Frac`] — an exact unsigned rational, compared by cross-multiplication
//!   (no division at all on the comparison fast path, which is the operation
//!   the DWCS scheduler performs per pairwise priority test).
//! * [`Q16`] — a Q16.16 fixed-point scalar for rate/bandwidth style
//!   arithmetic, with shift-based scaling.
//! * [`ops`] — the arithmetic build ([`ops::MathMode`]) and the [`ops::Work`] a
//!   scheduling decision reports, which the `hwsim` i960 model prices for
//!   either the software-FP or the fixed-point build of the scheduler.
//!
//! Everything here is plain integer arithmetic (no allocation; the only
//! panicking paths are explicit zero-denominator constructions), suitable for
//! a hot scheduler loop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frac;
pub mod ops;
pub mod q16;

pub use frac::Frac;
pub use q16::Q16;
