//! Symbolic ω-reachability for population protocols: reasoning about **all**
//! population sizes at once.
//!
//! The `reach` crate is enumerative — it decides properties of one bounded
//! slice at a time, so "the protocol decides `x ≥ η` correctly" is only ever
//! checked for finitely many `n`.  This crate works instead with
//! ω-configurations `(N ∪ {ω})^Q` and downward-closed sets represented by
//! finite ideal bases (`popproto_vas::{Ideal, DownwardClosedSet}`), the
//! representation that Lemma 3.1 guarantees is closed under the operations
//! the paper's lower-bound machinery needs:
//!
//! * [`omega`] — ω-rows as flat `u32` rows with the sentinel [`OMEGA`],
//!   interned in `popproto_reach::ConfigArena`, so subsumption checks
//!   allocate nothing;
//! * [`cover`] — Karp–Miller forward acceleration: a finite downward-closed
//!   over-approximation of everything reachable from every population size;
//! * [`backward`] — backward coverability with antichain-minimised
//!   frontiers, and [`symbolic_stable_sets`]: `SC_b` as the complement of
//!   the least backward fixpoint, one finite basis valid for every `n`;
//! * [`rays`] — double-description generators of weight cones;
//! * [`termination`] — silencing certificates by iterated linear ranking;
//! * [`invariants`] — linear invariant cones and an exact Fourier–Motzkin
//!   bound on wrong-consensus silent configurations;
//! * [`verifier`] — the [`SymbolicVerifier`], which combines all of the
//!   above into sound all-`n` verdicts for threshold predicates, and the
//!   [`threshold_prefilter`] and [`eta_floor_prefilter`] that reject
//!   busy-beaver candidates before any concrete slice is explored, on the
//!   reusable [`Prefilter`] that keeps their flat rows and one
//!   Karp–Miller cover between calls.
//!
//! See `crates/symbolic/README.md` for the acceleration/antichain design
//! notes and the full soundness argument.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backward;
pub mod cover;
pub mod invariants;
pub mod omega;
pub mod rays;
pub mod termination;
pub mod verifier;

pub use backward::{
    backward_coverability, complement_of_upward, symbolic_stable_sets, CoverabilityBasis,
    SymbolicStableSet,
};
pub use cover::{karp_miller, KarpMillerCover};
pub use omega::{row_leq, row_to_ideal, OMEGA};
pub use verifier::{
    eta_floor_prefilter, threshold_prefilter, Prefilter, SymbolicVerifier, ThresholdVerdict,
};

use popproto_reach::ExploreLimits;
use serde::{Deserialize, Serialize};

/// Resource caps for the symbolic computations.
///
/// Every cap degrades gracefully: hitting one makes the affected artifact
/// report itself incomplete (or unavailable), and all downstream consumers
/// treat that conservatively — certifications are withheld, refutations are
/// only issued from artifacts whose soundness direction tolerates the
/// truncation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SymbolicLimits {
    /// Maximum number of Karp–Miller labels.
    pub max_cover_labels: usize,
    /// Maximum size of a backward-coverability antichain.
    pub max_backward_basis: usize,
    /// Maximum number of ideals in any downward-closed intermediate.
    pub max_ideals: usize,
    /// Maximum number of rows in a Fourier–Motzkin elimination step.
    pub max_fm_rows: usize,
    /// Maximum rays in a double-description cone computation.
    pub max_rays: usize,
    /// Largest enumerative cutoff input the verifier will fall back to.
    pub max_cutoff_input: u64,
    /// Limits for the per-slice enumerative checks below the cutoff.
    pub explore: ExploreLimits,
}

impl Default for SymbolicLimits {
    fn default() -> Self {
        SymbolicLimits {
            max_cover_labels: 50_000,
            max_backward_basis: 4_096,
            max_ideals: 4_096,
            max_fm_rows: 20_000,
            max_rays: 4_096,
            max_cutoff_input: 24,
            explore: ExploreLimits::default(),
        }
    }
}

impl SymbolicLimits {
    /// Tight caps for the per-candidate busy-beaver pre-filter: the filter
    /// must stay far cheaper than profiling a candidate, and every cap hit
    /// simply passes the candidate through to concrete verification.
    pub fn prefilter() -> Self {
        SymbolicLimits {
            max_cover_labels: 512,
            max_backward_basis: 256,
            max_ideals: 256,
            max_fm_rows: 2_048,
            max_rays: 512,
            max_cutoff_input: 8,
            explore: ExploreLimits::default(),
        }
    }
}
