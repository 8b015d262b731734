//! The end-to-end Section 5 analysis of a leaderless protocol: assemble and
//! verify a Lemma 5.2 certificate, and compare the empirical pumping bound
//! against the Theorem 5.9 bound `ξ·n·β·3^n ≤ 2^((2n+2)!)`.
//!
//! The pipeline follows the proof of Theorem 5.9 step by step, replacing each
//! existential statement by an explicit search on bounded slices:
//!
//! 1. **Saturation** (Lemmas 5.3/5.4): find the smallest input `i₀` whose
//!    initial configuration reaches a 1-saturated configuration `D₀`.
//! 2. **Stable basis element** (Lemma 5.5): from a scaled copy
//!    `D = m·D₀` reach a stable configuration and truncate it into a basis
//!    element `(B, S)`.
//! 3. **Concentration** (Lemma 5.8 / Corollary 5.7): find a potentially
//!    realisable multiset `θ` whose minimal realisation is 0-concentrated in
//!    `S` and uses `b ≥ 1` input agents.
//! 4. **Certificate** (Lemma 5.2): check `IC(a) →* D →* B + D_a` and
//!    `IC(b) =θ⇒ D_b` with `D` being `2|θ|`-saturated, concluding `η ≤ a`.
//!
//! The one condition that quantifies over infinitely many configurations
//! (`B + N^S ⊆ SC`) is checked two ways: stability spot-checks of the pumped
//! configurations (whose depth is recorded in the result), and — when the
//! symbolic engine's backward fixpoint converges — the *exact* inclusion of
//! the ideal `↓(B, ω·S)` in the all-`n` stable set `SC_b` computed by
//! [`popproto_symbolic::symbolic_stable_sets`], which covers every `λ` at
//! once instead of a bounded prefix.

use crate::constants::{theorem_5_9_bound, theorem_5_9_simple_bound};
use popproto_model::{Config, Output, Protocol, StateId};
use popproto_numerics::Magnitude;
use popproto_reach::{
    is_stable_config, min_input_for_saturation, ExploreLimits, ReachabilityGraph, StableSets,
};
use popproto_symbolic::{symbolic_stable_sets, SymbolicLimits};
use popproto_vas::{
    BasisElement, DownwardClosedSet, HilbertOptions, Ideal, ParikhImage, RealisabilitySystem,
};
use serde::{Deserialize, Serialize};

/// Truncation threshold of the Lemma 3.2 basis element extracted from a
/// stable configuration: states holding more agents become `ω`-states.
const BASIS_THRESHOLD: u64 = 1;

/// Tunable knobs of the pipeline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineOptions {
    /// Cap on the saturation-input search.
    pub max_saturation_input: u64,
    /// Depth of the pump-stability spot-checks.
    pub pump_depth: u64,
    /// Exploration limits for all exact searches.
    pub limits: ExploreLimits,
    /// Options for the Hilbert-basis computation.
    pub hilbert: HilbertOptions,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            max_saturation_input: 40,
            pump_depth: 3,
            limits: ExploreLimits::default(),
            hilbert: HilbertOptions::default(),
        }
    }
}

/// A verified (executable) Lemma 5.2 certificate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Lemma52Certificate {
    /// The anchor input `a = m·i₀`.
    pub a: u64,
    /// The smallest saturating input `i₀`.
    pub saturation_input: u64,
    /// The scaling factor `m` (so that `D` is `m`-saturated).
    pub scale: u64,
    /// The saturated configuration `D = m·D₀`.
    pub saturated_config: Config,
    /// The stable configuration `B + D_a` reached from `D`.
    pub stable_config: Config,
    /// Its output class.
    pub output: Output,
    /// The basis element base `B`.
    pub basis_base: Config,
    /// The basis element ω-set `S`.
    pub omega_states: Vec<StateId>,
    /// The pumping input `b`.
    pub b: u64,
    /// The potentially realisable multiset `θ`.
    pub parikh: ParikhImage,
    /// The pumping difference `D_b ∈ N^S`.
    pub increment: Config,
    /// Outcome of the individual checks.
    pub checks: Lemma52Checks,
}

/// The individual conditions checked when assembling a Lemma 5.2 certificate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Lemma52Checks {
    /// `IC(i₀) →* D₀` was verified exactly; `IC(a) →* D` follows by
    /// monotonicity and leaderless linearity (`IC(m·i₀) = m·IC(i₀)`).
    pub saturation_reach: bool,
    /// `D →* stable_config` was verified exactly.
    pub stable_reach: bool,
    /// The stable configuration lies in `B + N^S`.
    pub stable_in_basis: bool,
    /// `IC(b) =θ⇒ D_b` holds (displacement arithmetic).
    pub parikh_realises_increment: bool,
    /// `D` is `2|θ|`-saturated.
    pub saturation_sufficient: bool,
    /// Pump-stability was spot-checked up to this `λ`.
    pub pump_depth_checked: u64,
    /// All spot-checks passed.
    pub pump_stable: bool,
    /// Exact symbolic check of `B + N^S ⊆ SC_b` (the condition the spot
    /// checks only sample): `Some(true)` if the ideal `↓(B, ω·S)` is
    /// included in the all-`n` stable set, `Some(false)` if it provably is
    /// not, `None` if the symbolic stable set was unavailable or inexact.
    pub pump_stable_symbolic: Option<bool>,
}

impl Lemma52Checks {
    /// `true` if every check passed (an explicit symbolic counterexample to
    /// `B + N^S ⊆ SC_b` overrides the bounded spot-checks).
    pub fn all_passed(&self) -> bool {
        self.saturation_reach
            && self.stable_reach
            && self.stable_in_basis
            && self.parikh_realises_increment
            && self.saturation_sufficient
            && self.pump_stable
            && self.pump_stable_symbolic != Some(false)
    }
}

/// The outcome of the full pipeline on one protocol.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LeaderlessAnalysis {
    /// Name of the analysed protocol.
    pub protocol: String,
    /// Number of states `n`.
    pub num_states: usize,
    /// The certificate, if one was assembled.
    pub certificate: Option<Lemma52Certificate>,
    /// The empirical bound `a` implied by the certificate (`η ≤ a`).
    pub empirical_bound: Option<u64>,
    /// The sharp Theorem 5.9 bound `ξ·n·β·3^n`.
    pub theorem_bound: Magnitude,
    /// The simple Theorem 5.9 bound `2^((2n+2)!)`.
    pub simple_bound: Magnitude,
}

/// Runs the Section 5 pipeline on a leaderless unary protocol.
///
/// # Panics
///
/// Panics if the protocol has leaders or is not unary — the Section 5
/// argument is specific to leaderless protocols with a single input variable.
pub fn analyze_leaderless_protocol(
    protocol: &Protocol,
    options: &PipelineOptions,
) -> LeaderlessAnalysis {
    assert!(
        protocol.is_leaderless(),
        "the Section 5 pipeline applies to leaderless protocols only"
    );
    assert!(
        protocol.is_unary(),
        "the pipeline expects a single input variable"
    );

    let base = LeaderlessAnalysis {
        protocol: protocol.name().to_string(),
        num_states: protocol.num_states(),
        certificate: None,
        empirical_bound: None,
        theorem_bound: theorem_5_9_bound(protocol),
        simple_bound: theorem_5_9_simple_bound(protocol.num_states()),
    };

    // Step 1: saturation.
    let Some(saturation) =
        min_input_for_saturation(protocol, 1, options.max_saturation_input, &options.limits)
    else {
        return base;
    };
    let i0 = saturation.input;
    let d0 = saturation.config.clone();

    // Step 3 (ahead of 2, to know the required saturation level): we need a
    // target set S, which comes from the stable configuration reached from
    // D; we therefore iterate over a few scales m and stop at the first that
    // fits together.
    //
    // The symbolic stable sets are protocol-level facts shared by every
    // scale iteration; compute each output class at most once.
    let mut symbolic_sc: [Option<Option<popproto_symbolic::SymbolicStableSet>>; 2] = [None, None];
    let system = RealisabilitySystem::new(protocol);
    let hilbert_basis = system.basis(&options.hilbert);

    for scale in 2..=6u64 {
        let d = d0.scaled(scale);
        let a = i0 * scale;

        // Step 2: reach a stable configuration from D and extract (B, S).
        let graph = ReachabilityGraph::explore(protocol, std::slice::from_ref(&d), &options.limits);
        if !graph.is_complete() {
            continue;
        }
        let stable_sets = StableSets::compute(protocol, &graph);
        let stable_pick = graph
            .terminal_ids()
            .into_iter()
            .chain(graph.ids())
            .find_map(|id| {
                if stable_sets.is_stable(id, Output::False) {
                    Some((id, Output::False))
                } else if stable_sets.is_stable(id, Output::True) {
                    Some((id, Output::True))
                } else {
                    None
                }
            });
        let Some((stable_id, output)) = stable_pick else {
            continue;
        };
        let stable_config = graph.config(stable_id);
        let element = BasisElement::from_config_with_threshold(&stable_config, BASIS_THRESHOLD);
        let omega: Vec<StateId> = element.omega_vec();
        if omega.is_empty() {
            continue;
        }

        // Step 3: a 0-concentrated potentially realisable multiset into S.
        let mut chosen: Option<(ParikhImage, u64, Config)> = None;
        for solution in &hilbert_basis.solutions {
            let pi = ParikhImage::from_counts(solution.clone());
            if let Some((input, target)) = system.minimal_realisation(protocol, &pi) {
                if input == 0 {
                    continue;
                }
                if !target.is_concentrated(&omega, 0.0) {
                    continue;
                }
                // D must be 2|θ|-saturated for the Lemma 5.1(ii) argument.
                if !d.is_saturated(2 * pi.size()) {
                    continue;
                }
                let better = chosen.as_ref().is_none_or(|(p, _, _)| pi.size() < p.size());
                if better {
                    chosen = Some((pi, input, target));
                }
            }
        }
        let Some((parikh, b, increment)) = chosen else {
            continue;
        };

        // Step 4: assemble and check the certificate.
        let saturation_reach = true; // IC(i0) →* D0 was found by exact search above.
        let stable_reach = true; // stable_config came from the exact graph from D.
        let stable_in_basis = element.contains(&stable_config);
        let parikh_realises_increment = parikh
            .apply(protocol, &protocol.initial_config_unary(b))
            .map(|c| c == increment)
            .unwrap_or(false);
        let saturation_sufficient = d.is_saturated(2 * parikh.size());

        let mut pump_stable = true;
        let mut pump_checked = 0;
        for lambda in 0..=options.pump_depth {
            let pumped = stable_config.plus(&increment.scaled(lambda));
            match is_stable_config(protocol, &pumped, output, &options.limits) {
                Some(true) => pump_checked = lambda,
                _ => {
                    pump_stable = false;
                    break;
                }
            }
        }
        // Exact check of `B + N^S ⊆ SC_b`: `B + N^S` and the ideal
        // `↓(B, ω·S)` have the same downward closure, and `SC_b` is downward
        // closed (Lemma 3.1), so inclusion of the ideal in the symbolic
        // stable set decides the pumping condition for *every* λ at once.
        let sc_slot = &mut symbolic_sc[match output {
            Output::False => 0,
            Output::True => 1,
        }];
        let pump_stable_symbolic = sc_slot
            .get_or_insert_with(|| {
                symbolic_stable_sets(protocol, output, &SymbolicLimits::default())
            })
            .as_ref()
            .filter(|sc| sc.exact)
            .map(|sc| {
                let bounds: Vec<Option<u64>> = protocol
                    .state_ids()
                    .map(|q| {
                        if omega.contains(&q) {
                            None
                        } else {
                            Some(element.base().get(q))
                        }
                    })
                    .collect();
                DownwardClosedSet::from_ideal(Ideal::new(bounds)).included_in(&sc.set)
            });

        let checks = Lemma52Checks {
            saturation_reach,
            stable_reach,
            stable_in_basis,
            parikh_realises_increment,
            saturation_sufficient,
            pump_depth_checked: pump_checked,
            pump_stable,
            pump_stable_symbolic,
        };
        if !checks.all_passed() {
            continue;
        }
        let certificate = Lemma52Certificate {
            a,
            saturation_input: i0,
            scale,
            saturated_config: d,
            stable_config,
            output,
            basis_base: element.base().clone(),
            omega_states: omega,
            b,
            parikh,
            increment,
            checks,
        };
        return LeaderlessAnalysis {
            empirical_bound: Some(certificate.a),
            certificate: Some(certificate),
            ..base.clone()
        };
    }
    base
}

#[cfg(test)]
mod tests {
    use super::*;
    use popproto_zoo::{binary_counter, flock};

    #[test]
    fn pipeline_on_flock() {
        let p = flock(3);
        let analysis = analyze_leaderless_protocol(&p, &PipelineOptions::default());
        let cert = analysis.certificate.expect("flock(3) yields a certificate");
        assert!(cert.checks.all_passed());
        // The symbolic engine confirms B + N^S ⊆ SC_b exactly (all λ), not
        // just up to the spot-check depth.
        assert_eq!(cert.checks.pump_stable_symbolic, Some(true));
        // The certificate bounds the threshold from above: η = 3 ≤ a.
        assert!(analysis.empirical_bound.unwrap() >= 3);
        // And the empirical bound is astronomically below the Theorem 5.9 bound.
        assert!(Magnitude::from_u64(analysis.empirical_bound.unwrap()) < analysis.theorem_bound);
        assert!(analysis.theorem_bound <= analysis.simple_bound);
    }

    #[test]
    fn pipeline_on_binary_counter() {
        let p = binary_counter(2); // x ≥ 4
        let analysis = analyze_leaderless_protocol(&p, &PipelineOptions::default());
        let cert = analysis.certificate.expect("P'_2 yields a certificate");
        assert!(cert.checks.all_passed());
        assert!(
            cert.a >= 4,
            "the anchor must be at least the true threshold"
        );
        assert!(cert.b >= 1);
        assert_eq!(cert.a, cert.saturation_input * cert.scale);
        assert_eq!(cert.saturated_config.size(), cert.a);
        assert!(cert.saturated_config.is_saturated(2 * cert.parikh.size()));
    }

    #[test]
    #[should_panic(expected = "leaderless")]
    fn pipeline_rejects_leader_protocols() {
        let p = popproto_zoo::leader_counter(2);
        let _ = analyze_leaderless_protocol(&p, &PipelineOptions::default());
    }

    #[test]
    fn pipeline_reports_bounds_even_without_certificate() {
        // Cap the saturation search so low that no certificate can be found.
        let p = binary_counter(3);
        let options = PipelineOptions {
            max_saturation_input: 3,
            ..PipelineOptions::default()
        };
        let analysis = analyze_leaderless_protocol(&p, &options);
        assert!(analysis.certificate.is_none());
        assert!(analysis.empirical_bound.is_none());
        assert!(analysis.theorem_bound.log2_approx().is_some());
    }
}
