//! The busy beaver framing (Definition 1) and the witness families for the
//! lower bounds of Theorem 2.2.
//!
//! `BB(n)` is the largest `η` such that some leaderless protocol with at most
//! `n` states computes `x ≥ η`; `BBL(n)` allows leaders.  Blondin et al.
//! showed `BB(n) ∈ Ω(2^n)` and `BBL(n) ∈ Ω(2^(2^n))`.  The binary-counter
//! family `P'_k` realises the leaderless bound; this module produces and
//! (optionally) verifies the witness records that experiment E1 tabulates.
//!
//! The doubly-exponential `BBL` witness of Blondin et al. is not reproduced
//! (see DESIGN.md); the leader-assisted counter documents what the
//! protocols-with-leaders code path achieves in this repository.

use popproto_reach::{verify_unary_threshold, ExploreLimits};
use popproto_zoo::{
    binary_counter, binary_counter::binary_counter_threshold, flock, leader_counter,
    leader_counter::leader_counter_threshold,
};
use serde::{Deserialize, Serialize};

/// The protocol family a busy-beaver record belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WitnessFamily {
    /// The flock protocol `P_η` (Example 2.1): `η + 1` states.
    Flock,
    /// The succinct counter `P'_k` (Example 2.1): `k + 2` states for `η = 2^k`.
    BinaryCounter,
    /// The leader-assisted counter: `3k + 2` states and `k` leaders for `η = 2^k`.
    LeaderCounter,
}

/// A lower-bound record: "a protocol with this many states decides `x ≥ η`".
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BusyBeaverRecord {
    /// The family the witness protocol belongs to.
    pub family: WitnessFamily,
    /// The family parameter (`η` for flock, `k` for the counters).
    pub parameter: u64,
    /// Number of states of the witness protocol.
    pub states: usize,
    /// Number of leader agents.
    pub leaders: u64,
    /// The threshold `η` decided by the protocol.
    pub eta: u64,
    /// `Some(true)` if the protocol was verified correct on all inputs up to
    /// the verification bound, `Some(false)` if a failure was found, `None`
    /// if verification was skipped (e.g. the slice would be too large).
    pub verified: Option<bool>,
}

impl BusyBeaverRecord {
    /// The base-2 logarithm of the threshold per state — the "succinctness
    /// rate" that experiment E1 tabulates (`≈ 1` for an optimal `Ω(2^n)` witness).
    pub fn log2_eta_per_state(&self) -> f64 {
        (self.eta as f64).log2() / self.states as f64
    }
}

/// Produces (and optionally verifies) one record of the given family.
///
/// Verification checks all inputs `2 ≤ i ≤ η + margin` exhaustively and is
/// skipped (`verified = None`) when `η` exceeds `verify_up_to_eta`.
pub(crate) fn witness_record(
    family: WitnessFamily,
    parameter: u64,
    verify_up_to_eta: u64,
    limits: &ExploreLimits,
) -> BusyBeaverRecord {
    let (protocol, eta) = match family {
        WitnessFamily::Flock => (flock(parameter), parameter),
        WitnessFamily::BinaryCounter => (
            binary_counter(parameter as u32),
            binary_counter_threshold(parameter as u32),
        ),
        WitnessFamily::LeaderCounter => (
            leader_counter(parameter as u32),
            leader_counter_threshold(parameter as u32),
        ),
    };
    let verified = if eta <= verify_up_to_eta {
        let report = verify_unary_threshold(&protocol, eta, eta + 3, limits);
        Some(report.all_correct() && report.all_exhaustive())
    } else {
        None
    };
    BusyBeaverRecord {
        family,
        parameter,
        states: protocol.num_states(),
        leaders: protocol.leaders().size(),
        eta,
        verified,
    }
}

/// The witness table of experiment E1: flock and binary-counter records up to
/// the given parameters, plus leader-counter records.
pub(crate) fn lower_bound_witnesses(
    max_flock_eta: u64,
    max_counter_k: u64,
    max_leader_k: u64,
    verify_up_to_eta: u64,
    limits: &ExploreLimits,
) -> Vec<BusyBeaverRecord> {
    let mut records = Vec::new();
    for eta in 2..=max_flock_eta {
        records.push(witness_record(
            WitnessFamily::Flock,
            eta,
            verify_up_to_eta,
            limits,
        ));
    }
    for k in 1..=max_counter_k {
        records.push(witness_record(
            WitnessFamily::BinaryCounter,
            k,
            verify_up_to_eta,
            limits,
        ));
    }
    for k in 1..=max_leader_k {
        records.push(witness_record(
            WitnessFamily::LeaderCounter,
            k,
            verify_up_to_eta,
            limits,
        ));
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_counter_records_are_verified_and_exponential() {
        let limits = ExploreLimits::default();
        for k in 1..=3u64 {
            let r = witness_record(WitnessFamily::BinaryCounter, k, 16, &limits);
            assert_eq!(r.states as u64, k + 2);
            assert_eq!(r.eta, 1 << k);
            assert_eq!(r.verified, Some(true), "P'_{k} must verify");
            assert_eq!(r.leaders, 0);
        }
    }

    #[test]
    fn flock_records_are_verified_but_not_succinct() {
        let limits = ExploreLimits::default();
        let r = witness_record(WitnessFamily::Flock, 4, 16, &limits);
        assert_eq!(r.states, 5);
        assert_eq!(r.eta, 4);
        assert_eq!(r.verified, Some(true));
        // The binary counter for the same threshold uses fewer states and
        // therefore has a better succinctness rate.
        let counter = witness_record(WitnessFamily::BinaryCounter, 2, 16, &limits);
        assert!(counter.log2_eta_per_state() > r.log2_eta_per_state());
    }

    #[test]
    fn leader_counter_records_report_leaders() {
        let limits = ExploreLimits::default();
        let r = witness_record(WitnessFamily::LeaderCounter, 2, 8, &limits);
        assert_eq!(r.leaders, 2);
        assert_eq!(r.eta, 4);
        assert_eq!(
            r.verified,
            Some(true),
            "the leader counter must verify for k = 2"
        );
    }

    #[test]
    fn verification_is_skipped_above_the_cap() {
        let limits = ExploreLimits::default();
        let r = witness_record(WitnessFamily::BinaryCounter, 6, 16, &limits);
        assert_eq!(r.eta, 64);
        assert_eq!(r.verified, None);
    }

    #[test]
    fn witness_table_shape() {
        let limits = ExploreLimits::default();
        let table = lower_bound_witnesses(4, 3, 2, 8, &limits);
        assert_eq!(table.len(), 3 + 3 + 2);
        assert!(table.iter().all(|r| r.eta >= 2));
    }
}
