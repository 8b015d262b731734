//! Vector-addition-system substrate for the state-complexity analysis of
//! population protocols.
//!
//! Population protocols are a subclass of vector addition systems (VAS): a
//! transition `p,q ↦ p',q'` has a *displacement* vector `Δt = p'+q'-p-q`, the
//! effect of a multiset `π` of transitions is `Δπ = Σ_t π(t)·Δt`, and many of
//! the paper's arguments are phrased purely in terms of these vectors:
//!
//! * **Parikh images and potential reachability** (`C =π⇒ C'`, Section 5.1)
//!   — module [`parikh`];
//! * **Dickson's lemma** and ordered pairs in configuration sequences
//!   (Section 4) — module [`dickson`];
//! * **Controlled bad sequences** and their maximal lengths (Lemma 4.4)
//!   — module [`controlled`];
//! * **Downward-closed sets** and their `(B, S)` bases (Section 3)
//!   — module [`dclosed`];
//! * **Hilbert bases** of homogeneous Diophantine systems (Pottier's theorem,
//!   Section 5.4) — modules [`hilbert`] and [`pottier`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controlled;
pub mod dclosed;
pub mod dickson;
pub mod hilbert;
pub mod parikh;
pub mod pottier;
pub mod vector;

pub use controlled::{longest_bad_sequence, ControlledSearch};
pub use dclosed::{BasisElement, DownwardClosedSet, Ideal};
pub use dickson::find_increasing_pair;
pub use hilbert::{hilbert_basis_equalities, hilbert_basis_inequalities, HilbertOptions};
pub use parikh::ParikhImage;
pub use pottier::{pottier_constant, pottier_constant_deterministic, RealisabilitySystem};
pub use vector::ZVec;
