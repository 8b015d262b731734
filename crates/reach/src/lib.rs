//! Exhaustive reachability analysis of population protocols on bounded
//! population slices.
//!
//! Because interactions preserve the number of agents, the set of
//! configurations reachable from an initial configuration of size `n` is
//! finite (at most `C(n+|Q|-1, |Q|-1)` configurations).  This crate explores
//! that space exactly and derives from it the notions the paper reasons
//! about:
//!
//! * the interning configuration arena and the bitsets the exploration is
//!   built on — modules [`arena`] and [`bitset`];
//! * the reachability graph itself (CSR adjacency over arena identifiers) —
//!   module [`graph`];
//! * the sets `SC_0`, `SC_1`, `SC` of b-stable configurations (Definition 2)
//!   — module [`stable`];
//! * *correctness*: does the protocol compute a given predicate?  The paper's
//!   characterisation — for every input `v` and every `C` reachable from
//!   `IC(v)`, `C` can reach `SC_{φ(v)}` — is decidable on each slice and is
//!   implemented in [`verify`];
//! * the threshold profile with a cache of explored slices — module
//!   [`profiler`]: the slices of one transition structure are explored once
//!   for all of its output patterns.  Its input, [`FlatProtocol`], is also
//!   what the symbolic pre-filters read;
//! * frontier-compressed exploration — module [`frontier`]: the same exact
//!   semantics with no stored adjacency, bounding peak memory by the arena
//!   plus the live frontier instead of the full edge structure;
//! * reachability of `j`-saturated configurations (Lemmas 5.3/5.4) — module
//!   [`saturation`];
//! * empirical extraction of small bases of stable sets (Lemma 3.2) — module
//!   [`basis_extract`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod basis_extract;
pub mod bitset;
pub mod frontier;
pub mod graph;
pub mod profiler;
pub mod saturation;
pub mod stable;
pub mod verify;

pub use arena::ConfigArena;
pub use basis_extract::extract_stable_basis;
pub use bitset::BitSet;
pub use frontier::{frontier_threshold_profile, FrontierGraph};
pub use graph::{transition_deltas, ExploreLimits, ReachabilityGraph};
pub use profiler::{FlatProtocol, SliceProfiler};
pub use saturation::{min_input_for_saturation, SaturationWitness};
pub use stable::{is_stable_config, StableSets};
pub use verify::{
    unary_threshold_profile, verify_predicate, verify_unary_threshold, ThresholdProfile,
};
