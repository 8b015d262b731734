//! The [`SymbolicVerifier`]: all-`n` verdicts for threshold predicates, and
//! the symbolic pre-filter used by the busy-beaver enumeration.
//!
//! # Certification argument (soundness)
//!
//! To certify that a unary protocol computes `x ≥ η` for **every** input
//! `i ≥ 2` the verifier combines four symbolic artifacts:
//!
//! 1. a [`SilencingCertificate`]: every configuration can keep firing
//!    non-silent transitions only finitely often, so every reachable `C`
//!    can reach a *silent* configuration `D`;
//! 2. the silent ideals intersected with the (complete) Karp–Miller cover:
//!    a downward-closed over-approximation of all reachable silent
//!    configurations, for all population sizes;
//! 3. the invariant cones, which bound (via exact Fourier–Motzkin) the size
//!    of silent configurations *with the wrong consensus* inside that
//!    over-approximation — if that bound `M` is finite, every reachable
//!    silent configuration of size `> M` has consensus `1`;
//! 4. exhaustive per-slice verification of the finitely many inputs below
//!    the cutoff `max(η, M + 1 − |L|)` (the existing `reach` machinery).
//!
//! For `i` above the cutoff: any reachable `C` reaches a silent `D` (1),
//! which is reachable and silent, hence inside the over-approximation (2),
//! of size `|L| + i > M`, hence of consensus `1` (3); a silent consensus-`1`
//! configuration is `1`-stable, so `C` can reach `SC_1` — exactly the
//! paper's Section 3 correctness characterisation for an accepting input.
//! Below the cutoff the characterisation is checked slice by slice (4).
//!
//! Refutations are sound in the other direction: if `SC_1` (over-approximated
//! by the complement of a possibly-truncated backward fixpoint) intersected
//! with the complete cover contains no configurations of unbounded size, the
//! protocol cannot accept arbitrarily large inputs and computes no threshold
//! at all.  The same argument against a finite horizon `max_input` powers
//! [`threshold_prefilter`]: a candidate whose reachable `1`-stable
//! configurations are all smaller than `|L| + max_input` can never satisfy
//! `verified_threshold` — it is rejected before a single concrete slice is
//! explored.

use crate::backward::{symbolic_stable_sets, FlatRows, SymbolicStableSet};
use crate::cover::{karp_miller, karp_miller_labels, omega_initial_row, KarpMillerCover};
use crate::invariants::{invariant_cones, max_bad_silent_size, BadSilentBound, InvariantCones};
use crate::omega::{set_to_ideal_rows, OMEGA, OMEGA_BOUND};
use crate::termination::{find_silencing_certificate, SilencingCertificate};
use crate::{complement_of_upward, SymbolicLimits};
use popproto_model::{Output, Protocol};
use popproto_reach::{unary_threshold_profile, FlatProtocol};
use popproto_vas::DownwardClosedSet;
use serde::{Deserialize, Serialize};

/// The all-`n` verdict for one threshold `η`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ThresholdVerdict {
    /// The protocol provably computes `x ≥ η` for every input `i ≥ 2`.
    CertifiedAllN {
        /// The certified threshold.
        eta: u64,
        /// Inputs `2 ≤ i < cutoff_input` were verified slice by slice; the
        /// symbolic argument covers every `i ≥ cutoff_input`.
        cutoff_input: u64,
        /// Rounds of the silencing certificate backing the argument.
        silencing_rounds: usize,
    },
    /// The protocol provably does not compute `x ≥ η` (for this or any
    /// threshold, depending on the reason).
    Refuted {
        /// Human-readable explanation of the refutation.
        reason: String,
        /// A concrete failing input, when the refutation is per-slice.
        failing_input: Option<u64>,
    },
    /// The symbolic machinery could not decide all population sizes.
    Inconclusive {
        /// What was missing.
        reason: String,
    },
}

impl ThresholdVerdict {
    /// Returns `true` for a [`ThresholdVerdict::CertifiedAllN`] verdict.
    pub fn is_certified(&self) -> bool {
        matches!(self, ThresholdVerdict::CertifiedAllN { .. })
    }

    /// Returns `true` for a [`ThresholdVerdict::Refuted`] verdict.
    pub fn is_refuted(&self) -> bool {
        matches!(self, ThresholdVerdict::Refuted { .. })
    }

    /// A compact rendering for report tables.
    pub fn summary(&self) -> String {
        match self {
            ThresholdVerdict::CertifiedAllN { cutoff_input, .. } => {
                format!("all n (symbolic for i ≥ {cutoff_input})")
            }
            ThresholdVerdict::Refuted { failing_input, .. } => match failing_input {
                Some(i) => format!("refuted at input {i}"),
                None => "refuted for all thresholds".to_string(),
            },
            ThresholdVerdict::Inconclusive { .. } => "inconclusive".to_string(),
        }
    }
}

/// Symbolic analysis of one unary protocol, reusable across thresholds.
#[derive(Debug, Clone)]
pub struct SymbolicVerifier {
    protocol: Protocol,
    limits: SymbolicLimits,
    cover: KarpMillerCover,
    silent: Option<DownwardClosedSet>,
    cones: InvariantCones,
    stable: [Option<SymbolicStableSet>; 2],
    silencing: Option<SilencingCertificate>,
}

impl SymbolicVerifier {
    /// Computes every symbolic artifact for the protocol.
    ///
    /// # Panics
    ///
    /// Panics if the protocol is not unary (the threshold machinery and the
    /// invariant constants are specific to a single input variable).
    pub fn analyze(protocol: &Protocol, limits: &SymbolicLimits) -> Self {
        assert!(
            protocol.is_unary(),
            "the symbolic verifier handles unary protocols"
        );
        let cover = karp_miller(protocol, limits);
        let silent = silent_ideals(protocol, limits);
        let cones = invariant_cones(protocol, limits);
        let stable = [
            symbolic_stable_sets(protocol, Output::False, limits),
            symbolic_stable_sets(protocol, Output::True, limits),
        ];
        let silencing = find_silencing_certificate(protocol, limits);
        SymbolicVerifier {
            protocol: protocol.clone(),
            limits: limits.clone(),
            cover,
            silent,
            cones,
            stable,
            silencing,
        }
    }

    /// The Karp–Miller cover.
    pub fn cover(&self) -> &KarpMillerCover {
        &self.cover
    }

    /// The symbolic stable set `SC_b`, if computed.
    pub fn stable_set(&self, b: Output) -> Option<&SymbolicStableSet> {
        self.stable[match b {
            Output::False => 0,
            Output::True => 1,
        }]
        .as_ref()
    }

    /// The silencing certificate, if one was found.
    pub fn silencing_certificate(&self) -> Option<&SilencingCertificate> {
        self.silencing.as_ref()
    }

    /// The [`stable_population_bound`] of `SC_1`, if it was computed.
    fn sc1_population_bound(&self) -> Option<u64> {
        let sc1 = self.stable_set(Output::True)?;
        stable_population_bound(
            &set_to_ideal_rows(&sc1.set),
            &set_to_ideal_rows(&self.cover.set),
            self.cover.complete,
            self.protocol.num_states(),
        )
    }

    /// Decides `x ≥ eta` for every population size, as far as the symbolic
    /// machinery reaches.
    pub fn certify_threshold(&self, eta: u64) -> ThresholdVerdict {
        // Sound refutation first: no unboundedly large reachable 1-stable
        // configurations means no threshold verifies at any horizon.
        if let Some(max) = self.sc1_population_bound() {
            return ThresholdVerdict::Refuted {
                reason: format!(
                    "reachable 1-stable configurations have at most {max} agents: \
                     arbitrarily large inputs can never be accepted"
                ),
                failing_input: None,
            };
        }

        let Some(silencing) = &self.silencing else {
            return ThresholdVerdict::Inconclusive {
                reason: "no silencing certificate (iterated linear ranking not found)".into(),
            };
        };
        let Some(silent) = &self.silent else {
            return ThresholdVerdict::Inconclusive {
                reason: "silent ideals exceeded the representation cap".into(),
            };
        };
        let silent_cover = if self.cover.complete {
            let refined = silent.intersect(&self.cover.set);
            if refined.len() > self.limits.max_ideals {
                silent.clone()
            } else {
                refined
            }
        } else {
            silent.clone()
        };
        let bad = max_bad_silent_size(
            &self.protocol,
            &silent_cover,
            Output::True,
            &self.cones,
            &self.limits,
        );
        let BadSilentBound::Bounded { max_size } = bad else {
            return ThresholdVerdict::Inconclusive {
                reason: "wrong-consensus silent configurations of unbounded size survive \
                         the invariants"
                    .into(),
            };
        };

        let leaders = self.protocol.leaders().size();
        let cutoff_input = eta.max((max_size + 1).saturating_sub(leaders)).max(2);
        if cutoff_input > self.limits.max_cutoff_input {
            return ThresholdVerdict::Inconclusive {
                reason: format!(
                    "cutoff input {cutoff_input} exceeds the enumerative window \
                     ({} allowed)",
                    self.limits.max_cutoff_input
                ),
            };
        }

        // Slice-by-slice verification below the cutoff.
        if cutoff_input > 2 {
            let profile =
                unary_threshold_profile(&self.protocol, cutoff_input - 1, &self.limits.explore);
            for p in &profile.inputs {
                if !p.exhaustive {
                    return ThresholdVerdict::Inconclusive {
                        reason: format!("slice {} exceeded the exploration limits", p.input),
                    };
                }
                let ok = if p.input >= eta { p.accepts } else { p.rejects };
                if !ok {
                    return ThresholdVerdict::Refuted {
                        reason: format!(
                            "input {} does not {} as x ≥ {eta} requires",
                            p.input,
                            if p.input >= eta { "accept" } else { "reject" }
                        ),
                        failing_input: Some(p.input),
                    };
                }
            }
            if profile.inputs.len() as u64 != cutoff_input.saturating_sub(2) {
                // The profile short-circuited for a reason not caught above.
                return ThresholdVerdict::Inconclusive {
                    reason: "per-slice profile stopped early".into(),
                };
            }
        }

        ThresholdVerdict::CertifiedAllN {
            eta,
            cutoff_input,
            silencing_rounds: silencing.num_rounds(),
        }
    }
}

/// The downward-closed set of *silent* configurations.
///
/// Silence is downward closed (removing agents never enables a transition),
/// and equals the complement of the upward closure of the minimal enabling
/// configurations of the non-silent transitions — the "silent ideals".
/// Returns `None` if the ideal representation exceeds the configured cap.
pub(crate) fn silent_ideals(
    protocol: &Protocol,
    limits: &SymbolicLimits,
) -> Option<DownwardClosedSet> {
    let n = protocol.num_states();
    let minimal: Vec<Vec<u64>> = protocol
        .non_silent_transitions()
        .map(|t| {
            let mut pre = vec![0u64; n];
            pre[t.pre.lo().index()] += 1;
            pre[t.pre.hi().index()] += 1;
            pre
        })
        .collect();
    complement_of_upward(&minimal, n, limits)
}

/// Staged symbolic pre-filter for busy-beaver candidates: returns `false`
/// only when `verified_threshold(protocol, max_input, _)` provably returns
/// `None`, without exploring a single concrete slice.
///
/// Stages, cheapest first:
///
/// 1. no state has output `1` — nothing can ever be accepted;
/// 2. no state with output `1` is *coverable* (support saturation from the
///    ω-initial configuration) — same conclusion;
/// 3. the exact check: `SC_1 ∩ cover` contains no configuration of
///    `|L| + max_input` agents, so the mandatory accept at `max_input`
///    cannot happen.
///
/// One call on a fresh [`Prefilter`]; a caller that filters many candidates
/// keeps one [`Prefilter`] instead.
pub fn threshold_prefilter(protocol: &Protocol, max_input: u64, limits: &SymbolicLimits) -> bool {
    Prefilter::default().threshold(protocol, max_input, limits)
}

/// The η-aware symbolic pre-filter: returns `false` only when the protocol
/// provably cannot pass `verified_threshold` with any threshold
/// `η ≥ eta_floor`, without exploring a single concrete slice.
///
/// The argument, for any floor `≥ 3`: verifying `x ≥ η` with `η ≥ 3`
/// requires input `2` to **reject**, i.e. slice `2` must contain a reachable
/// `0`-stable configuration (of exactly `|L| + 2` agents).  Every reachable
/// `0`-stable configuration lies in `SC₀ ∩ cover` — `SC₀` is (an
/// over-approximation of) the all-`n` rejecting stable set and the complete
/// Karp–Miller cover over-approximates reachability at every size — so if
/// that intersection is bounded below `|L| + 2` agents, no input can ever
/// reject and only the all-accepting threshold `η = 2` remains possible.
///
/// With `eta_floor ≤ 2` the filter never rejects (every profile shape is
/// still admissible), so a caller that must preserve the unfloored search
/// semantics bit for bit can simply pass `2`.
///
/// One call on a fresh [`Prefilter`], like [`threshold_prefilter`].
pub fn eta_floor_prefilter(protocol: &Protocol, eta_floor: u64, limits: &SymbolicLimits) -> bool {
    Prefilter::default().eta_floor(protocol, eta_floor, limits)
}

/// The two busy-beaver pre-filters with their working memory: the flat rows
/// of the stable sets, and what they computed from the transition
/// structure of the last candidate.
///
/// A busy-beaver search offers every output pattern of one transition
/// structure in a row.  The Karp–Miller cover, and the minimal basis `B_q`
/// of `pre*(↑e_q)` for each state `q`, depend only on the state count, the
/// ω-initial row, the ordered non-silent transitions and the caps, so the
/// filter keeps them for the last such structure; each is computed the
/// first time a call needs it.  Stage 3 forms the basis of `pre*` of the
/// states with output `≠ b` as the antichain-minimised union of their
/// `B_q`, because `pre*(↑(U ∪ V)) = pre*(↑U) ∪ pre*(↑V)` and a minimal
/// antichain is unique.  When a needed `B_q` hit `max_backward_basis`, or
/// the union's complement could hit `max_ideals` in some order, the call
/// runs one backward fixpoint from all those states instead, as
/// [`symbolic_stable_sets`] does.  A verdict depends on the candidate and
/// the limits alone, whatever the sequence of calls, so
/// [`threshold_prefilter`] and [`eta_floor_prefilter`], one call each on a
/// fresh filter, agree with a reused one.
///
/// The union is the exact basis.  The single fixpoint can stop at
/// `max_backward_basis` even when every `B_q` converged, and then keeps a
/// smaller basis and so a larger `SC_b`: this filter rejects every
/// candidate that form rejects, and possibly more, soundly.  With
/// [`SymbolicLimits::prefilter`] no fixpoint of the `BB_det(3)` space or of
/// the E12 prefix stops at a cap, and the oracle suite compares the
/// verdicts with the single-fixpoint reference under tiny caps too.
///
/// # Examples
///
/// ```
/// use popproto_model::{Output, ProtocolBuilder};
/// use popproto_symbolic::{Prefilter, SymbolicLimits};
///
/// // Two accepting agents destroy each other: no large input accepts.
/// let mut b = ProtocolBuilder::new("self-destructing-accept");
/// let a = b.add_state("a", Output::False);
/// let q = b.add_state("b", Output::True);
/// b.add_transition((q, q), (a, a)).unwrap();
/// b.set_input_state("x", q);
/// let p = b.build().unwrap();
///
/// let mut filter = Prefilter::default();
/// let limits = SymbolicLimits::prefilter();
/// assert!(!filter.threshold(&p, 6, &limits));
/// assert!(filter.eta_floor(&p, 2, &limits));
/// ```
#[derive(Debug, Default)]
pub struct Prefilter {
    rows: FlatRows,
    coverable: Vec<bool>,
    /// The view of the protocol of the current [`Prefilter::threshold`] or
    /// [`Prefilter::eta_floor`] call.
    view: FlatProtocol,
    structure: StructureCache,
}

/// The artifacts of one transition structure: everything in it is a
/// function of the key fields alone.
#[derive(Debug, Default)]
struct StructureCache {
    /// The ω-initial row; its length is the state count.
    root: Vec<u32>,
    transitions: Vec<[usize; 4]>,
    max_cover_labels: usize,
    max_backward_basis: usize,
    /// The Karp–Miller cover as flat ideal rows, valid once
    /// `cover_complete` is set.
    cover_labels: Vec<u64>,
    /// Whether the cover finished below the label cap; `None` until the
    /// cover is computed.
    cover_complete: Option<bool>,
    /// Per state `q`, the minimal basis of `pre*(↑e_q)`.
    bases: Vec<UnitBasis>,
}

/// The minimal basis of `pre*(↑e_q)` for one state `q`.
#[derive(Debug, Default)]
struct UnitBasis {
    rows: Vec<u64>,
    /// Whether the fixpoint converged; `None` until it is computed.
    complete: Option<bool>,
}

impl StructureCache {
    /// Makes this the cache of the structure of `candidate` under `limits`,
    /// dropping the artifacts of any other structure.
    fn load(&mut self, candidate: &FlatProtocol, limits: &SymbolicLimits) {
        let root = omega_initial_row(candidate);
        if self.root.iter().copied().eq(root.clone())
            && self.transitions == candidate.transitions
            && self.max_cover_labels == limits.max_cover_labels
            && self.max_backward_basis == limits.max_backward_basis
        {
            return;
        }
        self.root.clear();
        self.root.extend(root);
        self.transitions.clone_from(&candidate.transitions);
        self.max_cover_labels = limits.max_cover_labels;
        self.max_backward_basis = limits.max_backward_basis;
        self.cover_complete = None;
        self.bases
            .resize_with(candidate.leaders.len(), UnitBasis::default);
        for basis in &mut self.bases {
            basis.complete = None;
        }
    }

    /// Whether `B_q` converged, computing it on `rows` if it is not known.
    fn unit_basis(&mut self, q: usize, rows: &mut FlatRows, limits: &SymbolicLimits) -> bool {
        let basis = &mut self.bases[q];
        if let Some(complete) = basis.complete {
            return complete;
        }
        let complete = rows.unit_basis(self.root.len(), &self.transitions, q, limits);
        basis.rows.clear();
        basis.rows.extend_from_slice(rows.minimal());
        basis.complete = Some(complete);
        complete
    }

    /// The cover labels and whether the cover is complete, computing them
    /// if they are not known.
    fn cover(&mut self) -> (&[u64], bool) {
        let complete = match self.cover_complete {
            Some(complete) => complete,
            None => {
                let (arena, _, complete) =
                    karp_miller_labels(&self.transitions, &self.root, self.max_cover_labels);
                self.cover_labels.clear();
                for (_, row) in arena.iter() {
                    self.cover_labels.extend(row.iter().map(|&c| {
                        if c == OMEGA {
                            OMEGA_BOUND
                        } else {
                            u64::from(c)
                        }
                    }));
                }
                self.cover_complete = Some(complete);
                complete
            }
        };
        (&self.cover_labels, complete)
    }
}

impl Prefilter {
    /// [`threshold_prefilter`] on this filter's working memory.
    pub fn threshold(
        &mut self,
        protocol: &Protocol,
        max_input: u64,
        limits: &SymbolicLimits,
    ) -> bool {
        let mut view = std::mem::take(&mut self.view);
        view.load(protocol);
        let passes = self.threshold_flat(&view, max_input, limits);
        self.view = view;
        passes
    }

    /// [`eta_floor_prefilter`] on this filter's working memory.
    pub fn eta_floor(
        &mut self,
        protocol: &Protocol,
        eta_floor: u64,
        limits: &SymbolicLimits,
    ) -> bool {
        let mut view = std::mem::take(&mut self.view);
        view.load(protocol);
        let passes = self.eta_floor_flat(&view, eta_floor, limits);
        self.view = view;
        passes
    }

    /// [`Prefilter::threshold`] on the flat view of a candidate.
    pub fn threshold_flat(
        &mut self,
        candidate: &FlatProtocol,
        max_input: u64,
        limits: &SymbolicLimits,
    ) -> bool {
        // Stage 1: an accepting consensus needs at least one 1-output state.
        if !candidate.accepts.contains(&true) {
            return false;
        }

        // Stage 2: support saturation (a Boolean abstraction of the cover).
        let coverable = &mut self.coverable;
        coverable.clear();
        coverable.extend(omega_initial_row(candidate).map(|c| c != 0));
        loop {
            let mut changed = false;
            for &[p0, p1, q0, q1] in &candidate.transitions {
                if coverable[p0] && coverable[p1] {
                    for q in [q0, q1] {
                        if !coverable[q] {
                            coverable[q] = true;
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        if !coverable
            .iter()
            .zip(&candidate.accepts)
            .any(|(&covered, &accepts)| covered && accepts)
        {
            return false;
        }

        // Stage 3: bounded accepting stable sets.
        self.stable_set_reaches(
            candidate,
            Output::True,
            leader_count(candidate) + max_input,
            limits,
        )
    }

    /// [`Prefilter::eta_floor`] on the flat view of a candidate.
    pub fn eta_floor_flat(
        &mut self,
        candidate: &FlatProtocol,
        eta_floor: u64,
        limits: &SymbolicLimits,
    ) -> bool {
        if eta_floor <= 2 {
            return true;
        }
        // No 0-output state at all: no configuration is 0-stable, nothing can
        // ever be rejected.
        if !candidate.accepts.contains(&false) {
            return false;
        }
        self.stable_set_reaches(
            candidate,
            Output::False,
            leader_count(candidate) + 2,
            limits,
        )
    }

    /// `false` only if the reachable `b`-stable configurations provably all
    /// have fewer than `size` agents.
    fn stable_set_reaches(
        &mut self,
        candidate: &FlatProtocol,
        b: Output,
        size: u64,
        limits: &SymbolicLimits,
    ) -> bool {
        self.structure.load(candidate, limits);
        if !self.stable_ideals(candidate, b == Output::True, limits) {
            return true; // representation cap hit: cannot rule the candidate out
        }
        if self.rows.ideals().is_empty() {
            return false;
        }
        let (labels, complete) = self.structure.cover();
        match stable_population_bound(
            self.rows.ideals(),
            labels,
            complete,
            candidate.leaders.len(),
        ) {
            None => true,
            Some(max) => max >= size,
        }
    }

    /// `SC_b` of `candidate` into the ideals of `self.rows`, from the
    /// cached `B_q` of the states whose output is not `accepting`, or from
    /// the combined fixpoint when those do not decide it exactly.  Returns
    /// `false` if the complement hit `max_ideals`.
    fn stable_ideals(
        &mut self,
        candidate: &FlatProtocol,
        accepting: bool,
        limits: &SymbolicLimits,
    ) -> bool {
        let n = candidate.leaders.len();
        let target = |q: &usize| candidate.accepts[*q] != accepting;
        let Prefilter {
            rows, structure, ..
        } = self;
        let converged = (0..n)
            .filter(target)
            .all(|q| structure.unit_basis(q, rows, limits));
        if converged
            && rows.complement_of_union(
                n,
                (0..n)
                    .filter(target)
                    .map(|q| structure.bases[q].rows.as_slice()),
                limits,
            )
        {
            return true;
        }
        rows.stable_set(n, &candidate.transitions, |q| target(&q), limits)
            .is_some()
    }
}

/// `|L|`, the number of leaders of `candidate`.
fn leader_count(candidate: &FlatProtocol) -> u64 {
    candidate.leaders.iter().map(|&c| u64::from(c)).sum()
}

/// The largest population of a reachable b-stable configuration, when it is
/// provably finite: `Some(max)` only if the cover is complete (a sound
/// over-approximation of reachability) and `SC_b ∩ cover` is bounded.
///
/// `sc` and `cover` are flat ideal rows of stride `n` (`OMEGA_BOUND` as
/// `ω`).  The bound is the largest `Σ_q min(sc(q), cover(q))` over every
/// pair of an `SC_b` ideal and a cover ideal, without reducing the pairwise
/// intersections to an antichain: a dropped intersection lies inside a kept
/// one, whose size bound is at least as large and which is unbounded if the
/// dropped one is.
///
/// This single bound backs all three consumers — the pre-filter stage 3,
/// [`eta_floor_prefilter`] and the all-thresholds refutation of
/// [`SymbolicVerifier::certify_threshold`] — so the soundness direction is
/// encoded exactly once.  `SC_b` itself may be an over-approximation (a
/// truncated backward fixpoint under-approximates `pre*`, so its complement
/// over-approximates the stable set); a finite bound on the
/// over-approximation bounds the true set a fortiori.
fn stable_population_bound(
    sc: &[u64],
    cover: &[u64],
    cover_complete: bool,
    n: usize,
) -> Option<u64> {
    if !cover_complete {
        return None;
    }
    let mut max = 0u64;
    for ideal in sc.chunks_exact(n) {
        for label in cover.chunks_exact(n) {
            let size = ideal.iter().zip(label).try_fold(0u64, |acc, (&a, &b)| {
                let bound = a.min(b);
                (bound != OMEGA_BOUND).then(|| acc.saturating_add(bound))
            })?;
            max = max.max(size);
        }
    }
    Some(max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use popproto_model::ProtocolBuilder;

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
    fn certifies_the_threshold_protocol_for_all_n() {
        let p = threshold2_protocol();
        let verifier = SymbolicVerifier::analyze(&p, &SymbolicLimits::default());
        let verdict = verifier.certify_threshold(2);
        assert!(verdict.is_certified(), "got {verdict:?}");
        if let ThresholdVerdict::CertifiedAllN { cutoff_input, .. } = verdict {
            assert!(cutoff_input <= 3);
        }
    }

    #[test]
    fn refutes_the_wrong_threshold_per_slice() {
        let p = threshold2_protocol();
        let verifier = SymbolicVerifier::analyze(&p, &SymbolicLimits::default());
        let verdict = verifier.certify_threshold(4);
        match verdict {
            ThresholdVerdict::Refuted { failing_input, .. } => {
                // Inputs 2 and 3 accept although x ≥ 4 must reject them.
                assert!(matches!(failing_input, Some(2) | Some(3)));
            }
            other => panic!("expected a per-slice refutation, got {other:?}"),
        }
    }

    #[test]
    fn refutes_protocols_with_no_unbounded_accepting_stable_set() {
        // Never accepts: single 0-output state.
        let mut b = ProtocolBuilder::new("never");
        let s = b.add_state("s", Output::False);
        b.set_input_state("x", s);
        let p = b.build().unwrap();
        let verifier = SymbolicVerifier::analyze(&p, &SymbolicLimits::default());
        let verdict = verifier.certify_threshold(3);
        assert!(verdict.is_refuted(), "got {verdict:?}");
    }

    #[test]
    fn prefilter_stages_reject_hopeless_candidates() {
        let limits = SymbolicLimits::default();
        // Stage 1: all outputs 0.
        let mut b = ProtocolBuilder::new("all-zero");
        let s = b.add_state("s", Output::False);
        let t = b.add_state("t", Output::False);
        b.add_transition((s, s), (t, t)).unwrap();
        b.set_input_state("x", s);
        assert!(!threshold_prefilter(&b.build().unwrap(), 6, &limits));

        // Stage 2: the only 1-output state is unreachable support-wise.
        let mut b = ProtocolBuilder::new("unreachable-accept");
        let s = b.add_state("s", Output::False);
        let t = b.add_state("t", Output::True);
        b.add_transition((s, t), (t, t)).unwrap();
        b.set_input_state("x", s);
        assert!(!threshold_prefilter(&b.build().unwrap(), 6, &limits));

        // Stage 3: the accepting state is everywhere, but two accepting
        // agents destroy each other, so 1-stable configurations have at most
        // one agent — far below the |L| + max_input agents an accept at the
        // verification horizon requires.
        let mut b = ProtocolBuilder::new("self-destructing-accept");
        let q0 = b.add_state("a", Output::False);
        let q1 = b.add_state("b", Output::True);
        b.add_transition((q1, q1), (q0, q0)).unwrap();
        b.set_input_state("x", q1);
        assert!(!threshold_prefilter(&b.build().unwrap(), 6, &limits));

        // A genuine threshold protocol passes.
        assert!(threshold_prefilter(&threshold2_protocol(), 6, &limits));
    }

    #[test]
    fn prefilter_reuses_the_cover_only_for_the_same_cover_input() {
        let limits = SymbolicLimits::default();
        let p = threshold2_protocol();
        // Same transitions, input and leaders; state 1 now accepts too.
        let mut b = ProtocolBuilder::new("x >= 2, other outputs");
        let zero = b.add_state("0", Output::False);
        let one = b.add_state("1", Output::True);
        let two = b.add_state("2", Output::True);
        b.add_transition((one, one), (zero, two)).unwrap();
        b.add_transition((zero, two), (two, two)).unwrap();
        b.add_transition((one, two), (two, two)).unwrap();
        b.set_input_state("x", one);
        let outputs_only = b.build().unwrap();
        let mut b = ProtocolBuilder::new("x >= 2, with a leader");
        let zero = b.add_state("0", Output::False);
        let one = b.add_state("1", Output::False);
        let two = b.add_state("2", Output::True);
        b.add_transition((one, one), (zero, two)).unwrap();
        b.add_transition((zero, two), (two, two)).unwrap();
        b.add_transition((one, two), (two, two)).unwrap();
        b.add_leader(two, 1);
        b.set_input_state("x", one);
        let with_leader = b.build().unwrap();
        let smaller_cap = SymbolicLimits {
            max_cover_labels: limits.max_cover_labels - 1,
            ..limits.clone()
        };
        for q in [&p, &outputs_only, &with_leader] {
            assert!(threshold_prefilter(q, 6, &limits), "{}", q.name());
        }

        // Replaces the cached cover by one bounded at zero agents: a call
        // that reuses it rejects, one that recomputes passes.
        let poison = |filter: &mut Prefilter| {
            filter.structure.cover_labels.fill(0);
            filter.structure.cover_complete = Some(true);
        };
        let mut filter = Prefilter::default();
        assert!(filter.threshold(&p, 6, &limits));
        poison(&mut filter);
        assert!(
            !filter.threshold(&outputs_only, 6, &limits),
            "outputs only: hit"
        );
        assert!(filter.threshold(&with_leader, 6, &limits), "leaders: miss");
        assert!(filter.threshold(&p, 6, &limits));
        poison(&mut filter);
        assert!(filter.threshold(&p, 6, &smaller_cap), "label cap: miss");
    }

    #[test]
    fn eta_floor_prefilter_is_inert_below_three() {
        let limits = SymbolicLimits::default();
        // With floor ≤ 2 nothing may ever be rejected, not even a protocol
        // that cannot reject any input.
        let mut b = ProtocolBuilder::new("always-true");
        let s = b.add_state("s", Output::True);
        b.set_input_state("x", s);
        let always = b.build().unwrap();
        assert!(eta_floor_prefilter(&always, 2, &limits));
        assert!(eta_floor_prefilter(&threshold2_protocol(), 2, &limits));
    }

    #[test]
    fn eta_floor_prefilter_rejects_protocols_that_cannot_reject_input_two() {
        let limits = SymbolicLimits::default();
        // All-accepting outputs: SC₀ is empty, input 2 can never reject, so
        // no η ≥ 3 is verifiable.
        let mut b = ProtocolBuilder::new("always-true");
        let s = b.add_state("s", Output::True);
        b.set_input_state("x", s);
        assert!(!eta_floor_prefilter(&b.build().unwrap(), 3, &limits));

        // Two agents annihilate into an accepting pair: the only 0-stable
        // configurations are single agents, so no slice (all of size ≥ 2)
        // contains a reachable 0-stable configuration.
        let mut b = ProtocolBuilder::new("instant-accept");
        let q0 = b.add_state("in", Output::False);
        let q1 = b.add_state("yes", Output::True);
        b.add_transition((q0, q0), (q1, q1)).unwrap();
        b.add_transition((q0, q1), (q1, q1)).unwrap();
        b.set_input_state("x", q0);
        assert!(!eta_floor_prefilter(&b.build().unwrap(), 3, &limits));
    }

    #[test]
    fn eta_floor_prefilter_keeps_genuine_high_threshold_protocols() {
        let limits = SymbolicLimits::default();
        // threshold2_protocol rejects nothing (all its inputs ≥ 2 accept),
        // so the floor-3 filter may legitimately reject it; the protocols
        // that must survive are the ones whose computed threshold is ≥ 3.
        for (p, eta) in [
            (popproto_zoo::flock(3), 3u64),
            (popproto_zoo::flock(4), 4),
            (popproto_zoo::binary_counter(2), 4),
            (popproto_zoo::binary_counter(3), 8),
        ] {
            assert!(
                eta_floor_prefilter(&p, 3, &limits),
                "{} computes x ≥ {eta} and must pass the floor-3 filter",
                p.name()
            );
        }
    }
}
