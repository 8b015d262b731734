//! Silencing certificates: a proof that every execution can always be
//! extended to a *silent* configuration, for **every** population size.
//!
//! The certificate is an iterated linear-ranking argument ("layered
//! termination light").  A weight vector `w ∈ N^Q` with `w·δ_t ≤ 0` for
//! every remaining non-silent transition `t` makes `w·C` a non-increasing,
//! non-negative quantity along every execution; the transitions with
//! `w·δ_t < 0` can then fire only finitely often in any run.  Removing them
//! and repeating until no transition remains proves that every sequence of
//! non-silent interactions is finite — so from any configuration, firing
//! non-silent transitions greedily must reach a silent configuration.
//!
//! The weight vector of each round is found *exactly*: the feasible weights
//! form the rational cone `{w ≥ 0 : w·δ_t ≤ 0 ∀t}`, generated by the
//! double-description rays of [`crate::rays`].  The sum of all generators
//! eliminates every transition that *any* cone member can eliminate, so each
//! round removes the maximal eliminable set; if a round eliminates nothing,
//! no iterated linear ranking exists and the search gives up.  An
//! unavailable cone (ray cap exceeded) only ever *shrinks* the eliminated
//! set — soundness never depends on the generators being complete.

use crate::rays::nonneg_cone_generators;
use crate::SymbolicLimits;
use popproto_model::Protocol;
use serde::{Deserialize, Serialize};

/// One elimination round: a weight vector and the transitions it retires.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EliminationRound {
    /// The certified weights `w` (indices parallel to the protocol states).
    pub weights: Vec<u64>,
    /// Indices into [`Protocol::transitions`] of the eliminated transitions.
    pub eliminated: Vec<usize>,
}

/// A complete silencing certificate: every non-silent transition is
/// eliminated by some round.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SilencingCertificate {
    /// The elimination rounds, in order.
    pub rounds: Vec<EliminationRound>,
}

impl SilencingCertificate {
    /// Number of elimination rounds.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Re-checks the certificate against the protocol by pure arithmetic:
    /// each round's weights must be non-increasing on every transition still
    /// alive at that round and strictly decreasing on the ones it
    /// eliminates, and no non-silent transition may survive all rounds.
    pub fn verify(&self, protocol: &Protocol) -> bool {
        let n = protocol.num_states();
        let mut remaining: Vec<usize> = protocol
            .transitions()
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_silent())
            .map(|(i, _)| i)
            .collect();
        for round in &self.rounds {
            if round.weights.len() != n {
                return false;
            }
            let score = |idx: usize| -> i128 {
                protocol.transitions()[idx]
                    .displacement(n)
                    .iter()
                    .zip(&round.weights)
                    .map(|(&d, &w)| d as i128 * w as i128)
                    .sum()
            };
            if remaining.iter().any(|&t| score(t) > 0) {
                return false;
            }
            if round.eliminated.is_empty()
                || round
                    .eliminated
                    .iter()
                    .any(|t| !remaining.contains(t) || score(*t) >= 0)
            {
                return false;
            }
            remaining.retain(|t| !round.eliminated.contains(t));
        }
        remaining.is_empty()
    }
}

/// Searches for a silencing certificate by maximal-elimination rounds.
///
/// Returns `None` if some round eliminates nothing (within the ray cap):
/// the protocol admits no iterated linear ranking, or the cap was too small
/// to find one.
pub(crate) fn find_silencing_certificate(
    protocol: &Protocol,
    limits: &SymbolicLimits,
) -> Option<SilencingCertificate> {
    let n = protocol.num_states();
    let mut remaining: Vec<(usize, Vec<i64>)> = protocol
        .transitions()
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_silent())
        .map(|(i, t)| (i, t.displacement(n)))
        .collect();

    let mut rounds = Vec::new();
    while !remaining.is_empty() {
        // The cone {w ≥ 0 : w·δ_t ≤ 0} as the inequality system (−δ)·w ≥ 0.
        let matrix: Vec<Vec<i64>> = remaining
            .iter()
            .map(|(_, delta)| delta.iter().map(|&d| -d).collect())
            .collect();
        let generators = nonneg_cone_generators(&matrix, n, limits.max_rays)?;
        let mut weights = vec![0u64; n];
        for g in &generators {
            for (w, &gq) in weights.iter_mut().zip(g) {
                *w = w.saturating_add(u64::try_from(gq).expect("negative cone ray"));
            }
        }
        let score = |delta: &[i64]| -> i128 {
            delta
                .iter()
                .zip(&weights)
                .map(|(&d, &w)| d as i128 * w as i128)
                .sum()
        };
        // Guard against the (theoretical) saturating-sum overflow above: a
        // clamped coordinate could push the summed vector outside the cone,
        // and an invalid ranking vector must never emit a round.
        if remaining.iter().any(|(_, delta)| score(delta) > 0) {
            return None;
        }
        let eliminated: Vec<usize> = remaining
            .iter()
            .filter(|(_, delta)| score(delta) < 0)
            .map(|(i, _)| *i)
            .collect();
        if eliminated.is_empty() {
            return None;
        }
        remaining.retain(|(i, _)| !eliminated.contains(i));
        rounds.push(EliminationRound {
            weights,
            eliminated,
        });
    }
    Some(SilencingCertificate { rounds })
}

#[cfg(test)]
mod tests {
    use super::*;
    use popproto_model::{Output, ProtocolBuilder};

    fn threshold2_protocol() -> Protocol {
        let mut b = ProtocolBuilder::new("x >= 2");
        let zero = b.add_state("0", Output::False);
        let one = b.add_state("1", Output::False);
        let two = b.add_state("2", Output::True);
        b.add_transition((one, one), (zero, two)).unwrap();
        b.add_transition((zero, two), (two, two)).unwrap();
        b.add_transition((one, two), (two, two)).unwrap();
        b.set_input_state("x", one);
        b.build().unwrap()
    }

    #[test]
    fn threshold_protocol_is_certified_silencing() {
        let p = threshold2_protocol();
        let cert = find_silencing_certificate(&p, &SymbolicLimits::default())
            .expect("the threshold protocol silences");
        assert!(cert.verify(&p));
        assert!(cert.num_rounds() >= 1);
        let eliminated: usize = cert.rounds.iter().map(|r| r.eliminated.len()).sum();
        assert_eq!(eliminated, p.num_transitions());
    }

    #[test]
    fn cycling_protocol_has_no_certificate() {
        // a, b ↦ b, a on distinct states cycles forever: no linear ranking.
        let mut b = ProtocolBuilder::new("swap");
        let qa = b.add_state("a", Output::False);
        let qb = b.add_state("b", Output::True);
        let qc = b.add_state("c", Output::False);
        b.add_transition((qa, qb), (qa, qc)).unwrap();
        b.add_transition((qa, qc), (qa, qb)).unwrap();
        b.set_input_state("x", qa);
        let p = b.build().unwrap();
        assert!(find_silencing_certificate(&p, &SymbolicLimits::default()).is_none());
    }

    #[test]
    fn tampered_certificates_fail_verification() {
        let p = threshold2_protocol();
        let cert = find_silencing_certificate(&p, &SymbolicLimits::default()).unwrap();
        // Dropping a round leaves transitions alive.
        let mut truncated = cert.clone();
        truncated.rounds.pop();
        if !truncated.rounds.is_empty() {
            assert!(!truncated.verify(&p));
        }
        // An empty certificate proves nothing for a protocol with transitions.
        assert!(!SilencingCertificate { rounds: vec![] }.verify(&p));
        // Wrong-dimension weights are rejected.
        let mut bad = cert.clone();
        bad.rounds[0].weights = vec![1];
        assert!(!bad.verify(&p));
    }

    #[test]
    fn transitionless_protocol_is_trivially_silent() {
        let mut b = ProtocolBuilder::new("inert");
        let s = b.add_state("s", Output::True);
        b.set_input_state("x", s);
        let p = b.build().unwrap();
        let cert = find_silencing_certificate(&p, &SymbolicLimits::default()).unwrap();
        assert_eq!(cert.num_rounds(), 0);
        assert!(cert.verify(&p));
    }
}
