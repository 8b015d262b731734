//! Pumping certificates in the style of Lemma 4.1, with exact verification on
//! bounded slices and a Dickson-style search procedure (Lemma 4.2 + 4.3).
//!
//! Lemma 4.1 gives a sufficient condition for `η ≤ a`: if `IC(a)` reaches a
//! configuration `C` lying in a basis element `(B, S)` of `SC`, and some
//! additional agents `b·x` can reach a configuration `D_b ∈ N^S`, then
//! pumping shows that the protocol treats `a`, `a+b`, `a+2b`, … alike, so a
//! protocol for `x ≥ η` must already accept at `a`.
//!
//! An executable certificate replaces the two ingredients that quantify over
//! infinitely many configurations with checks of increasing strength:
//!
//! * the reachability conditions are verified **exactly** on their slices;
//! * the condition `B + N^S ⊆ SC_b` cannot be checked exhaustively; the
//!   verifier instead checks b-stability of `C`, of `C + D_b` and of
//!   `C + λ·D_b` for `λ ≤ pump_depth` (each check being itself exact on its
//!   slice) and records how deep it went.
//!
//! The search procedure mirrors Lemma 4.2: it builds the chain
//! `C_2, C_3, C_4, …` of stable configurations with `IC(i) →* C_i` and
//! `C_i + x →* C_{i+1}`, and applies Dickson's lemma to find the ordered pair
//! that yields the certificate.

use popproto_model::{Config, Output, Protocol};
use popproto_reach::{is_stable_config, ExploreLimits, ReachabilityGraph, StableSets};
use serde::{Deserialize, Serialize};

/// A pumping certificate for "any threshold computed by this protocol is at
/// most `a`" (Lemma 4.1, executable form).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PumpingCertificate {
    /// The anchor input `a`, which is also the bound the certificate
    /// implies: if the protocol computes `x ≥ η` and the certificate
    /// verifies with output 0, then `η ≤ a`; with output 1 the protocol
    /// already accepts at `a`, so `η ≤ a` as well.
    pub a: u64,
    /// The pumping increment `b ≥ 1`.
    pub b: u64,
    /// The stable configuration reached from `IC(a)` (the `B + D_a` of the lemma).
    pub anchor: Config,
    /// The pumping difference `D_b` (support contained in the `ω`-set `S`).
    pub increment: Config,
    /// The common output of the anchor and its pumped variants.
    pub output: Output,
}

/// The result of verifying a [`PumpingCertificate`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CertificateCheck {
    /// `IC(a) →* anchor`, verified exactly.
    pub reach_anchor: bool,
    /// `anchor + b·x →* anchor + increment`, verified exactly.
    pub reach_increment: bool,
    /// b-stability of `anchor + λ·increment` for `λ = 0, 1, …, pump_depth`,
    /// each verified exactly on its slice.
    pub stability_depth_checked: u64,
    /// `true` if all stability checks up to the requested depth passed.
    pub stable: bool,
}

impl CertificateCheck {
    /// `true` if every performed check passed.
    pub fn all_passed(&self) -> bool {
        self.reach_anchor && self.reach_increment && self.stable
    }
}

impl PumpingCertificate {
    /// Verifies the certificate against the protocol.
    ///
    /// `pump_depth` controls how many pumped configurations
    /// `anchor + λ·increment` are checked for stability (λ up to this value).
    pub fn verify(
        &self,
        protocol: &Protocol,
        pump_depth: u64,
        limits: &ExploreLimits,
    ) -> CertificateCheck {
        // (1) IC(a) →* anchor.
        let ic = protocol.initial_config_unary(self.a);
        let graph = ReachabilityGraph::explore(protocol, &[ic], limits);
        let reach_anchor = graph.id_of(&self.anchor).is_some();

        // (2) anchor + b·x →* anchor + increment.
        let x_state = protocol.input_state(0);
        let mut source = self.anchor.clone();
        source.add(x_state, self.b);
        let target = self.anchor.plus(&self.increment);
        let graph2 = ReachabilityGraph::explore(protocol, &[source], limits);
        let reach_increment = graph2.id_of(&target).is_some();

        // (3) stability of the pumped configurations.
        let mut stable = true;
        let mut depth_checked = 0;
        for lambda in 0..=pump_depth {
            let pumped = self.anchor.plus(&self.increment.scaled(lambda));
            match is_stable_config(protocol, &pumped, self.output, limits) {
                Some(true) => depth_checked = lambda,
                _ => {
                    stable = false;
                    break;
                }
            }
        }
        CertificateCheck {
            reach_anchor,
            reach_increment,
            stability_depth_checked: depth_checked,
            stable,
        }
    }
}

/// The Lemma 4.2 chain: stable configurations `C_i` with `IC(i) →* C_i` and
/// `C_i + x →* C_{i+1}`.
pub fn stable_chain(
    protocol: &Protocol,
    max_input: u64,
    limits: &ExploreLimits,
) -> Vec<(u64, Config, Output)> {
    let mut chain: Vec<(u64, Config, Output)> = Vec::new();
    let mut previous: Option<Config> = None;
    for i in 2..=max_input {
        let start = match &previous {
            None => protocol.initial_config_unary(i),
            Some(c) => {
                let mut next = c.clone();
                next.add(protocol.input_state(0), 1);
                next
            }
        };
        let graph = ReachabilityGraph::explore(protocol, &[start], limits);
        if !graph.is_complete() {
            break;
        }
        let stable = StableSets::compute(protocol, &graph);
        // Pick a stable configuration reachable from the start.  Terminal
        // (silent) configurations are preferred: they are the most
        // "concentrated" stable configurations and give the best chance that
        // the Dickson pair found later is pump-stable.
        let classify = |id: u32| {
            if stable.is_stable(id, Output::False) {
                Some((id, Output::False))
            } else if stable.is_stable(id, Output::True) {
                Some((id, Output::True))
            } else {
                None
            }
        };
        let pick = graph
            .terminal_ids()
            .into_iter()
            .find_map(classify)
            .or_else(|| graph.ids().find_map(classify));
        match pick {
            Some((id, output)) => {
                let c = graph.config(id);
                previous = Some(c.clone());
                chain.push((i, c, output));
            }
            None => break,
        }
    }
    chain
}

/// Searches for a pumping certificate by the Lemma 4.2/4.3 recipe: build the
/// stable chain, look for Dickson pairs `C_k ≤ C_ℓ` *with the same output*,
/// and keep the first pair whose pumped configurations pass the stability
/// checks (the executable stand-in for "both lie in a common basis element
/// `(B, S)` of `SC`").
///
/// Returns `None` if no such pair exists within `max_input` (or the chain
/// could not be built).
pub fn search_pumping_certificate(
    protocol: &Protocol,
    max_input: u64,
    limits: &ExploreLimits,
) -> Option<PumpingCertificate> {
    let chain = stable_chain(protocol, max_input, limits);
    if chain.len() < 2 {
        return None;
    }
    // Group by output: a pumping pair must stay within one output class.
    for target_output in [Output::False, Output::True] {
        let filtered: Vec<&(u64, Config, Output)> = chain
            .iter()
            .filter(|(_, _, o)| *o == target_output)
            .collect();
        for l in 1..filtered.len() {
            for k in 0..l {
                let (a, anchor, _) = filtered[k];
                let (a2, bigger, _) = filtered[l];
                if !anchor.le(bigger) {
                    continue;
                }
                let increment = bigger
                    .checked_minus(anchor)
                    .expect("the pair is ordered, so the difference exists");
                if increment.is_empty() {
                    continue;
                }
                let candidate = PumpingCertificate {
                    a: *a,
                    b: a2 - a,
                    anchor: anchor.clone(),
                    increment,
                    output: target_output,
                };
                // Reject pairs whose pumped configurations leave the stable
                // class — those are ordered pairs that do not lie in a common
                // basis element of SC.
                if candidate.pump_stable(protocol, 3, limits) {
                    return Some(candidate);
                }
            }
        }
    }
    None
}

impl PumpingCertificate {
    /// Checks b-stability of `anchor + λ·increment` for `λ ≤ depth` (a
    /// lightweight subset of [`PumpingCertificate::verify`]).
    pub(crate) fn pump_stable(
        &self,
        protocol: &Protocol,
        depth: u64,
        limits: &ExploreLimits,
    ) -> bool {
        (0..=depth).all(|lambda| {
            let pumped = self.anchor.plus(&self.increment.scaled(lambda));
            is_stable_config(protocol, &pumped, self.output, limits) == Some(true)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popproto_zoo::{binary_counter, flock};

    #[test]
    fn stable_chain_of_flock() {
        let p = flock(3);
        let chain = stable_chain(&p, 8, &ExploreLimits::default());
        assert!(chain.len() >= 6);
        // Inputs below the threshold yield 0-stable configurations, inputs
        // above yield 1-stable ones.
        for (i, _, output) in &chain {
            if *i >= 3 {
                assert_eq!(*output, Output::True, "input {i} must stabilise to 1");
            } else {
                assert_eq!(*output, Output::False, "input {i} must stabilise to 0");
            }
        }
    }

    #[test]
    fn certificate_found_for_binary_counter() {
        let p = binary_counter(2); // x ≥ 4
        let limits = ExploreLimits::default();
        let cert = search_pumping_certificate(&p, 12, &limits).expect("certificate exists");
        // The pumping anchor must be at least the true threshold when the
        // pair lies in the accepting class, or witness the rejecting class;
        // in both cases it bounds η from above.
        assert!(cert.a >= 2);
        assert!(cert.b >= 1);
        let check = cert.verify(&p, 3, &limits);
        assert!(check.reach_anchor, "IC(a) must reach the anchor");
        assert!(
            check.reach_increment,
            "anchor + b·x must reach anchor + increment"
        );
        assert!(check.stable, "pumped configurations must stay stable");
        assert!(check.all_passed());
    }

    #[test]
    fn certificate_bound_dominates_true_threshold() {
        // For a correct protocol computing x ≥ η, any *accepting* pumping
        // anchor is ≥ η; here η = 4.
        let p = binary_counter(2);
        let limits = ExploreLimits::default();
        let cert = search_pumping_certificate(&p, 12, &limits).unwrap();
        if cert.output == Output::True {
            assert!(cert.a >= 4);
        } else {
            assert!(cert.a < 4);
        }
    }

    #[test]
    fn verification_rejects_bogus_certificates() {
        let p = binary_counter(2);
        let limits = ExploreLimits::default();
        // A bogus anchor that is not reachable from IC(2).
        let bogus = PumpingCertificate {
            a: 2,
            b: 1,
            anchor: Config::from_counts(vec![0, 0, 0, 2]),
            increment: Config::from_counts(vec![1, 0, 0, 0]),
            output: Output::True,
        };
        let check = bogus.verify(&p, 2, &limits);
        assert!(!check.reach_anchor);
        assert!(!check.all_passed());
    }

    #[test]
    fn flock_certificates_verify_too() {
        let p = flock(3);
        let limits = ExploreLimits::default();
        let cert = search_pumping_certificate(&p, 10, &limits).expect("certificate exists");
        let check = cert.verify(&p, 2, &limits);
        assert!(check.all_passed());
    }
}
