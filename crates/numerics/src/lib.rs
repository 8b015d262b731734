//! Arbitrary-precision and "astronomical magnitude" arithmetic for the
//! state-complexity bounds of population protocols.
//!
//! The bounds in the paper (Czerner, Esparza, Leroux, PODC 2021) involve
//! constants such as the *small basis constant* `β = 2^(2(2n+1)!+1)`, the
//! bound `ϑ(n) = 2^((2n+2)!)` on the number of basis elements, the *Pottier
//! constant* `ξ = 2(2|T|+1)^|Q|` and the final bound `η ≤ ξ·n·β·3^n ≤ 2^((2n+2)!)`
//! of Theorem 5.9, as well as Fast-Growing-Hierarchy values for Theorem 4.5.
//! Some of these are small enough to materialise exactly; others are not even
//! representable with a floating-point exponent.  This crate provides the
//! three numeric tiers used throughout the workspace:
//!
//! * [`BigNat`] — an exact arbitrary-precision natural number (no external
//!   dependency), sufficient for constants with up to a few million bits;
//! * [`Magnitude`] — a `log₂`-based representation with an exponent-tower
//!   fallback, used to *report* bounds that cannot be materialised;
//! * [`fgh`] — exact evaluation of Fast-Growing-Hierarchy functions for the
//!   tiny arguments where exact evaluation is possible.
//!
//! # Examples
//!
//! ```
//! use popproto_numerics::{BigNat, factorial};
//!
//! let f = factorial(10);
//! assert_eq!(f.to_string(), "3628800");
//! assert_eq!(BigNat::from(6u64) * BigNat::from(7u64), BigNat::from(42u64));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bignat;
pub mod checked;
pub mod factorial;
pub mod fgh;
pub mod magnitude;

pub use bignat::BigNat;
pub use checked::saturating_pow_u64;
pub use factorial::{binomial, factorial};
pub use fgh::{fast_growing, FghError};
pub use magnitude::Magnitude;
