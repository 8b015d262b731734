//! Verification that a protocol computes a predicate, on bounded slices.
//!
//! The paper (Section 3) characterises correctness as follows: a protocol
//! computes `φ` iff for every input `v` and every configuration `C` reachable
//! from `IC(v)`, `C` can reach `SC_{φ(v)}`.  On each population slice both
//! conditions are decidable by exhaustive exploration; this module applies
//! the characterisation to all inputs up to a bound.
//!
//! Besides the per-predicate drivers, [`unary_threshold_profile`] explores
//! every slice **once** and records, per input, whether the protocol settles
//! on 0, on 1, or on neither.  A single profile answers "which threshold (if
//! any) does this protocol compute?" for *all* candidate thresholds at once —
//! the busy-beaver enumeration previously re-explored every slice for every
//! candidate `η`, a `max_input`-fold waste on its hottest path.  It runs on
//! a fresh [`SliceProfiler`], which a caller can keep instead to explore
//! each slice once for every output pattern of a transition structure.

use crate::graph::{ExploreLimits, ReachabilityGraph};
use crate::profiler::SliceProfiler;
use crate::stable::StableSets;
use popproto_model::{Config, Input, Output, Predicate, Protocol};
use serde::{Deserialize, Serialize};

/// The verdict for a single input.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InputVerdict {
    /// The input that was checked.
    pub input: Input,
    /// The expected output `φ(v)`.
    pub expected: bool,
    /// `true` if every reachable configuration can reach a `φ(v)`-stable one.
    pub correct: bool,
    /// `true` if the exploration was exhaustive (the verdict is definitive).
    pub exhaustive: bool,
    /// Number of configurations reachable from `IC(v)`.
    pub reachable_configs: usize,
    /// Number of reachable configurations that are `φ(v)`-stable.
    pub stable_configs: usize,
    /// A configuration from which the correct stable set is unreachable, if any.
    pub counterexample: Option<Config>,
}

/// The aggregated result of verifying a protocol against a predicate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VerificationReport {
    /// Name of the verified protocol.
    pub protocol: String,
    /// Rendering of the verified predicate.
    pub predicate: String,
    /// Per-input verdicts.
    pub verdicts: Vec<InputVerdict>,
}

impl VerificationReport {
    /// Returns `true` if every checked input was verified correct.
    pub fn all_correct(&self) -> bool {
        self.verdicts.iter().all(|v| v.correct)
    }

    /// Returns `true` if every verdict was reached by exhaustive exploration.
    pub fn all_exhaustive(&self) -> bool {
        self.verdicts.iter().all(|v| v.exhaustive)
    }

    /// The verdicts that failed, if any.
    pub fn failures(&self) -> Vec<&InputVerdict> {
        self.verdicts.iter().filter(|v| !v.correct).collect()
    }
}

/// Verifies one input: explores the slice, computes the stable sets and checks
/// the paper's correctness characterisation.
pub fn verify_input(
    protocol: &Protocol,
    predicate: &Predicate,
    input: &Input,
    limits: &ExploreLimits,
) -> InputVerdict {
    let expected = predicate.eval(input);
    let expected_output = Output::from_bool(expected);
    let ic = protocol.initial_config(input);
    let graph = ReachabilityGraph::explore(protocol, &[ic], limits);
    let stable = StableSets::compute(protocol, &graph);
    let targets = stable.bitset(expected_output);
    let can_reach_target = graph.backward_closure_of(targets);
    let counterexample_id = can_reach_target.first_absent();
    InputVerdict {
        input: input.clone(),
        expected,
        correct: counterexample_id.is_none() && !targets.is_clear(),
        exhaustive: graph.is_complete(),
        reachable_configs: graph.len(),
        stable_configs: targets.count(),
        counterexample: counterexample_id.map(|id| graph.config(id)),
    }
}

/// Verifies a protocol against a predicate on an explicit list of inputs.
pub fn verify_predicate(
    protocol: &Protocol,
    predicate: &Predicate,
    inputs: &[Input],
    limits: &ExploreLimits,
) -> VerificationReport {
    VerificationReport {
        protocol: protocol.name().to_string(),
        predicate: predicate.to_string(),
        verdicts: inputs
            .iter()
            .map(|input| verify_input(protocol, predicate, input, limits))
            .collect(),
    }
}

/// Verifies a unary protocol against the threshold predicate `x ≥ eta` on all
/// inputs `2 ≤ i ≤ max_input` (the model requires populations of size ≥ 2).
pub fn verify_unary_threshold(
    protocol: &Protocol,
    eta: u64,
    max_input: u64,
    limits: &ExploreLimits,
) -> VerificationReport {
    let predicate = Predicate::threshold_at_least(eta);
    let inputs: Vec<Input> = (2..=max_input).map(Input::unary).collect();
    verify_predicate(protocol, &predicate, &inputs, limits)
}

/// The settling behaviour of one unary input slice: which consensus values
/// the protocol is guaranteed to reach from `IC(i)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InputProfile {
    /// The unary input `i`.
    pub input: u64,
    /// `true` iff every configuration reachable from `IC(i)` can reach a
    /// 0-stable configuration (and at least one exists): the protocol
    /// correctly *rejects* this input.
    pub rejects: bool,
    /// The accepting counterpart of [`InputProfile::rejects`].
    pub accepts: bool,
    /// `true` if the exploration of this slice was exhaustive.
    pub exhaustive: bool,
}

/// The per-input settling profile of a unary protocol over `2..=max_input`.
///
/// One exploration and one stable-set computation per input answers the
/// verification question for *every* candidate threshold simultaneously.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThresholdProfile {
    /// The largest input profiled.
    pub max_input: u64,
    /// Per-input profiles for `2..=max_input`, in input order.  May stop
    /// early (see [`ThresholdProfile::conclusive`]).
    pub inputs: Vec<InputProfile>,
    /// `false` if profiling stopped early because no threshold can verify,
    /// whatever the remaining inputs do: some slice settled on neither
    /// output, was not exhaustively explored, or the accept/reject pattern
    /// seen so far is consistent with no `η ∈ [2, max_input]` (e.g. a
    /// rejecting input above an accepting one).
    pub conclusive: bool,
}

impl ThresholdProfile {
    /// Returns `true` if the profile is consistent with the protocol
    /// computing `x ≥ eta` on every profiled input.
    pub fn supports(&self, eta: u64) -> bool {
        self.conclusive
            && self
                .inputs
                .iter()
                .all(|p| if p.input >= eta { p.accepts } else { p.rejects })
    }

    /// The threshold `η` the protocol provably computes, confirmed on all
    /// inputs `2 ≤ i ≤ max_input` with the flip strictly below `max_input`.
    ///
    /// Matches the seed's `verified_threshold` semantics exactly: the
    /// smallest supported `η`, and `None` when the only supported `η` equals
    /// `max_input` (the flip position would not be certain).
    pub fn verified_threshold(&self) -> Option<u64> {
        if !self.conclusive {
            return None;
        }
        for eta in 2..=self.max_input {
            if self.supports(eta) {
                if eta < self.max_input {
                    return Some(eta);
                }
                return None;
            }
        }
        None
    }
}

/// Profiles a unary protocol on all inputs `2 ≤ i ≤ max_input`, exploring
/// each slice exactly once.
///
/// Profiling aborts early (marking the profile inconclusive) as soon as no
/// threshold can verify, whatever the remaining inputs do:
///
/// * a slice settles on neither output, or its exploration is truncated;
/// * the window of still-feasible thresholds becomes empty.  An accepting
///   input `i` forces `η ≤ i`, a rejecting input `i` forces `η ≥ i + 1`, so
///   the feasible window `[lo, hi]` shrinks monotonically as inputs are
///   profiled in increasing order; a reject above an accept empties it.
///
/// The busy-beaver enumeration relies on this reject-on-first-failure
/// behaviour: a candidate whose verdict flips the wrong way at input `i`
/// stops after slice `i` instead of exploring all `max_input − 1` slices.
///
/// One call on a fresh [`SliceProfiler`]; a caller that profiles many
/// output patterns of one transition structure keeps a profiler instead,
/// which explores each slice once for all of them.
pub fn unary_threshold_profile(
    protocol: &Protocol,
    max_input: u64,
    limits: &ExploreLimits,
) -> ThresholdProfile {
    SliceProfiler::default().profile(protocol, max_input, limits)
}

/// The profile loop of every engine: profiles inputs `2, 3, …, max_input`
/// in order with `slice`, and stops as soon as no threshold can verify (see
/// [`unary_threshold_profile`]).
pub(crate) fn profile_inputs(
    max_input: u64,
    mut slice: impl FnMut(u64) -> InputProfile,
) -> ThresholdProfile {
    let mut inputs = Vec::with_capacity(max_input.saturating_sub(1) as usize);
    let mut conclusive = true;
    // Feasible thresholds form a window [lo, hi] ⊆ [2, max_input].
    let mut lo = 2u64;
    let mut hi = max_input;
    for i in 2..=max_input {
        let profile = slice(i);
        inputs.push(profile);
        if !profile.exhaustive || (!profile.rejects && !profile.accepts) {
            conclusive = false;
            break;
        }
        if profile.accepts {
            hi = hi.min(i);
        } else {
            lo = lo.max(i + 1);
        }
        if lo > hi {
            conclusive = false;
            break;
        }
    }
    ThresholdProfile {
        max_input,
        inputs,
        conclusive,
    }
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

    /// A deliberately broken protocol: claims x ≥ 2 but never flips output.
    fn broken_protocol() -> Protocol {
        let mut b = ProtocolBuilder::new("broken");
        let one = b.add_state("1", Output::False);
        let _two = b.add_state("2", Output::True);
        b.set_input_state("x", one);
        b.build().unwrap()
    }

    #[test]
    fn correct_protocol_verifies() {
        let p = threshold2_protocol();
        let report = verify_unary_threshold(&p, 2, 8, &ExploreLimits::default());
        assert!(report.all_correct(), "failures: {:?}", report.failures());
        assert!(report.all_exhaustive());
        assert_eq!(report.verdicts.len(), 7);
        for v in &report.verdicts {
            assert_eq!(v.expected, v.input.total() >= 2);
            assert!(v.stable_configs >= 1);
        }
    }

    #[test]
    fn broken_protocol_fails() {
        let p = broken_protocol();
        let report = verify_unary_threshold(&p, 2, 4, &ExploreLimits::default());
        assert!(!report.all_correct());
        // Inputs ≥ 2 should accept but the protocol cannot: each such verdict fails.
        for v in &report.verdicts {
            assert!(!v.correct);
        }
        assert_eq!(report.failures().len(), 3);
    }

    #[test]
    fn wrong_threshold_is_detected() {
        // The protocol computes x ≥ 2; claiming it computes x ≥ 3 must fail at input 2.
        let p = threshold2_protocol();
        let report = verify_unary_threshold(&p, 3, 5, &ExploreLimits::default());
        assert!(!report.all_correct());
        let failing: Vec<u64> = report.failures().iter().map(|v| v.input.total()).collect();
        assert!(failing.contains(&2));
    }

    #[test]
    fn verdicts_report_counterexamples() {
        let p = broken_protocol();
        let verdict = verify_input(
            &p,
            &Predicate::threshold_at_least(2),
            &Input::unary(3),
            &ExploreLimits::default(),
        );
        assert!(!verdict.correct);
        // The initial configuration itself cannot reach a 1-stable configuration.
        assert!(verdict.counterexample.is_some() || verdict.stable_configs == 0);
    }

    #[test]
    fn multivariate_predicate_verification() {
        // A trivial 2-variable protocol computing "true": all states have output 1.
        let mut b = ProtocolBuilder::new("always true");
        let a = b.add_state("a", Output::True);
        let c = b.add_state("c", Output::True);
        b.set_input_state("x", a);
        b.set_input_state("y", c);
        let p = b.build().unwrap();
        let inputs = vec![
            Input::from_counts(vec![1, 1]),
            Input::from_counts(vec![2, 3]),
        ];
        let report = verify_predicate(
            &p,
            &Predicate::Const(true),
            &inputs,
            &ExploreLimits::default(),
        );
        assert!(report.all_correct());
    }

    #[test]
    fn profile_agrees_with_per_eta_verification() {
        let limits = ExploreLimits::default();
        let p = threshold2_protocol();
        let profile = unary_threshold_profile(&p, 8, &limits);
        assert!(profile.conclusive);
        assert_eq!(profile.verified_threshold(), Some(2));
        for eta in 2..=8u64 {
            let report = verify_unary_threshold(&p, eta, 8, &limits);
            assert_eq!(
                profile.supports(eta),
                report.all_correct() && report.all_exhaustive(),
                "profile disagrees with per-η verification at η = {eta}"
            );
        }
    }

    #[test]
    fn profile_of_broken_protocol_is_inconclusive_or_unsupported() {
        let p = broken_protocol();
        let profile = unary_threshold_profile(&p, 5, &limits_default());
        assert_eq!(profile.verified_threshold(), None);
        // The broken protocol never accepts, so no input slice accepts…
        assert!(profile.inputs.iter().all(|p| !p.accepts));
        // …and it rejects everywhere (it is constantly 0): once every input
        // up to max_input has rejected, no threshold in range remains
        // feasible and the profile reports itself inconclusive.
        for eta in 2..5 {
            assert!(!profile.supports(eta));
        }
    }

    fn limits_default() -> ExploreLimits {
        ExploreLimits::default()
    }

    #[test]
    fn profile_short_circuits_when_no_threshold_remains_feasible() {
        // A parity protocol (x ≡ 0 mod 2): accepts input 2, rejects input 3.
        // No threshold is consistent with an accept below a reject, so the
        // profile must stop right after slice 3 instead of exploring all
        // slices up to 30.
        let mut b = ProtocolBuilder::new("parity");
        let a0 = b.add_state("a0", Output::True);
        let a1 = b.add_state("a1", Output::False);
        let p1 = b.add_state("p1", Output::True);
        let p0 = b.add_state("p0", Output::False);
        b.add_transition((a1, a1), (a0, p1)).unwrap();
        b.add_transition((a0, a1), (a1, p0)).unwrap();
        b.add_transition((a0, a0), (a0, p1)).unwrap();
        b.add_transition((a0, p0), (a0, p1)).unwrap();
        b.add_transition((a1, p1), (a1, p0)).unwrap();
        b.set_input_state("x", a1);
        let p = b.build().unwrap();

        let profile = unary_threshold_profile(&p, 30, &ExploreLimits::default());
        assert!(!profile.conclusive);
        assert_eq!(
            profile.inputs.len(),
            2,
            "profiling must stop after the infeasible slice 3"
        );
        assert!(profile.inputs[0].accepts && !profile.inputs[0].rejects);
        assert!(profile.inputs[1].rejects && !profile.inputs[1].accepts);
        assert_eq!(profile.verified_threshold(), None);
    }

    #[test]
    fn profile_aborts_on_truncated_slices() {
        let p = threshold2_protocol();
        let profile = unary_threshold_profile(&p, 30, &ExploreLimits::with_max_configs(3));
        assert!(!profile.conclusive);
        assert!(profile.inputs.len() < 29);
        assert_eq!(profile.verified_threshold(), None);
    }
}
