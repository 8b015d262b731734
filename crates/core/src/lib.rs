//! State complexity of population protocols — an executable reproduction of
//! *"Lower Bounds on the State Complexity of Population Protocols"*
//! (Philipp Czerner, Javier Esparza, Jérôme Leroux; PODC 2021,
//! arXiv:2102.11619).
//!
//! The paper studies the number of states needed by population protocols to
//! decide the counting predicates `x ≥ η`, through the *busy beaver*
//! functions `BB(n)` (leaderless) and `BBL(n)` (with leaders): the largest
//! `η` decidable with `n` states.  Its results are
//!
//! * `BB(n), BBL(n) ∈ Ω(2^n)` resp. `Ω(2^(2^n))` (prior work, Theorem 2.2),
//! * `BBL(n)` is bounded by a function at level `F_ω` of the Fast-Growing
//!   Hierarchy (Theorem 4.5), and
//! * `BB(n) ≤ ξ·n·β·3^n ≤ 2^((2n+2)!)` for leaderless protocols
//!   (Theorem 5.9), i.e. the state complexity of `x ≥ η` is `Ω(log log η)`.
//!
//! This crate turns the paper's definitions, constants and proof pipeline
//! into executable artefacts:
//!
//! * [`constants`] — the small-basis constant `β`, the basis-size bound
//!   `ϑ(n)` and the Theorem 5.9 bound, computed exactly or as magnitudes;
//! * [`ackermann_bound`] — the Theorem 4.5 bound for protocols with leaders;
//! * [`busy_beaver`] — the busy-beaver framing and the witness families for
//!   the lower bounds;
//! * [`certificate`] — the pumping certificates of Lemma 4.1, with exact
//!   verification on bounded slices and a Dickson-style search procedure;
//! * [`saturation`] — the Lemma 5.3/5.4 analysis (reaching 1-saturated
//!   configurations) compared against the `3^n` bound;
//! * [`concentration`] — ε-concentration and the Lemma 5.8 search for
//!   0-concentrated potentially realisable multisets;
//! * [`pipeline`] — the end-to-end Section 5 analysis of a leaderless
//!   protocol (Lemma 5.2 certificate assembly, Theorem 5.9 comparison);
//! * [`orbit_stream`] — the streaming generator of canonical busy-beaver
//!   candidates: lazy and splittable into deterministic work ranges;
//! * [`candidate_pipeline`] — the staged triage funnel (symbolic
//!   pre-filter, η-floor filter, concrete slices) with cross-candidate
//!   memoization;
//! * [`segmented`] — the busy-beaver search: parallel segmented
//!   streaming: deterministic `u128` segments on the [`popproto_exec`]
//!   worker pool, one transposition table per segment, ordered segment
//!   merges and checkpoints of finished segments that resume on any worker
//!   count;
//! * [`enumeration`] — exact busy-beaver values for tiny state counts by
//!   exhaustive protocol enumeration (under documented restrictions),
//!   driving the generator + pipeline over the segmented search;
//! * [`experiments`] — the E1–E10 experiment drivers behind EXPERIMENTS.md
//!   and the benchmark harness;
//! * [`report`] — plain-text/markdown rendering of experiment results.
//!
//! # Quick start
//!
//! ```
//! use popproto::prelude::*;
//!
//! // The succinct protocol P'_3 decides x ≥ 8 with 5 states.
//! let protocol = popproto_zoo::binary_counter(3);
//! let report = verify_unary_threshold(&protocol, 8, 12, &ExploreLimits::default());
//! assert!(report.all_correct());
//!
//! // The paper's Theorem 5.9 bound for 5 states, as an order of magnitude.
//! let bound = constants::theorem_5_9_simple_bound(5);
//! assert!(bound.log2_approx().unwrap() > 1e8); // 2^(12!) is gigantic
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ackermann_bound;
pub mod busy_beaver;
pub mod candidate_pipeline;
pub mod certificate;
pub mod concentration;
pub mod constants;
pub mod enumeration;
pub mod experiments;
pub mod orbit_stream;
pub mod pipeline;
pub mod report;
pub mod saturation;
pub mod segmented;

/// Convenience re-exports of the most commonly used items across the
/// workspace crates.
pub mod prelude {
    pub use crate::busy_beaver::{BusyBeaverRecord, WitnessFamily};
    pub use crate::certificate::{search_pumping_certificate, PumpingCertificate};
    pub use crate::constants;
    pub use crate::pipeline::{analyze_leaderless_protocol, LeaderlessAnalysis};
    pub use popproto_model::{
        Config, Input, Output, Predicate, Protocol, ProtocolBuilder, StateId,
    };
    pub use popproto_reach::{verify_unary_threshold, ExploreLimits};
    pub use popproto_sim::Simulator;
}
