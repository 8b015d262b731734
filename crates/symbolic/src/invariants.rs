//! Linear invariants of unary protocols, and the size bound on
//! wrong-consensus silent configurations they induce.
//!
//! For a weight vector `w ∈ N^Q` with `w·δ_t ≥ 0` for every non-silent
//! transition, every configuration `C` reachable from `IC(i)` satisfies
//! `w·C ≥ w·IC(i) = w·L + i·w_x`; with `i = |C| − |L|` this is the linear
//! constraint `Σ_q (w_q − w_x)·C(q) ≥ w·L − w_x·|L|`, valid for **every**
//! population size.  Non-increasing weights (`w·δ_t ≤ 0`) give the mirrored
//! `≤` constraint.  Both cones are generated by double-description rays
//! ([`crate::rays`]), and a configuration satisfies every invariant of a
//! cone iff it satisfies the generator invariants (constants are linear in
//! `w`, so conic combinations preserve them).
//!
//! These constraints are what separates genuinely reachable configurations
//! from the junk that the downward closure of a Karp–Miller cover drags in:
//! an ideal of the cover may contain sub-configurations of *smaller* sizes
//! that no run of the corresponding size can produce, and those are exactly
//! the configurations the invariants cut away.  `max_bad_silent_size`
//! exploits this to bound, over all population sizes at once, the size of
//! silent configurations that fail a consensus — the key quantity of the
//! [`SymbolicVerifier`](crate::SymbolicVerifier) certification argument.
//! The bound is computed by exact integer Fourier–Motzkin elimination, so a
//! reported maximum is sound (the rational relaxation only over-approximates
//! the integer optimum).

use crate::rays::{gcd, nonneg_cone_generators, ray_to_weights};
use crate::SymbolicLimits;
use popproto_model::{Output, Protocol};
use popproto_vas::DownwardClosedSet;
use serde::{Deserialize, Serialize};

/// Generators of the non-decreasing and non-increasing weight cones.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct InvariantCones {
    /// Generators `w` with `w·δ_t ≥ 0` for every non-silent `t`.
    pub nondecreasing: Vec<Vec<u64>>,
    /// Generators `w` with `w·δ_t ≤ 0` for every non-silent `t`.
    pub nonincreasing: Vec<Vec<u64>>,
    /// `true` if both double-description runs stayed under the ray cap (the
    /// cones are then fully generated; a truncated cone yields fewer
    /// constraints, which is sound).
    pub complete: bool,
}

/// Computes the invariant cones of a protocol by double description
/// (see [`crate::rays`]).
pub(crate) fn invariant_cones(protocol: &Protocol, limits: &SymbolicLimits) -> InvariantCones {
    let n = protocol.num_states();
    let deltas: Vec<Vec<i64>> = protocol
        .non_silent_transitions()
        .map(|t| t.displacement(n))
        .collect();
    let negated: Vec<Vec<i64>> = deltas
        .iter()
        .map(|d| d.iter().map(|&x| -x).collect())
        .collect();
    let up = nonneg_cone_generators(&deltas, n, limits.max_rays);
    let down = nonneg_cone_generators(&negated, n, limits.max_rays);
    let weights = |rays: &Option<Vec<Vec<i128>>>| -> Vec<Vec<u64>> {
        rays.as_deref()
            .unwrap_or_default()
            .iter()
            .map(|r| ray_to_weights(r))
            .collect()
    };
    InvariantCones {
        complete: up.is_some() && down.is_some(),
        nondecreasing: weights(&up),
        nonincreasing: weights(&down),
    }
}

/// Outcome of the bad-silent-configuration analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum BadSilentBound {
    /// Every silent, invariant-consistent configuration of size above the
    /// reported value has consensus `b`; sizes `≤ max_size` must be checked
    /// slice by slice.
    Bounded {
        /// The largest size at which a wrong-consensus silent configuration
        /// may exist (0 if none exists at any size).
        max_size: u64,
    },
    /// Wrong-consensus silent configurations of unbounded size survive the
    /// invariants (or the analysis hit a resource cap): no certification.
    Unbounded,
}

/// Bounds the size of configurations in `silent_cover` that populate a state
/// of output `≠ b` while satisfying every invariant of the cones.
///
/// `silent_cover` must over-approximate the *reachable silent*
/// configurations (e.g. the silent ideals, optionally intersected with a
/// complete Karp–Miller cover).  The protocol must be unary.
pub(crate) fn max_bad_silent_size(
    protocol: &Protocol,
    silent_cover: &DownwardClosedSet,
    b: Output,
    cones: &InvariantCones,
    limits: &SymbolicLimits,
) -> BadSilentBound {
    assert!(
        protocol.is_unary(),
        "invariant constants are specific to unary protocols"
    );
    let input = protocol.input_state(0).index();
    let leaders = protocol.leaders();
    let leader_size = leaders.size() as i128;

    // Pre-compute the invariant rows in the form Σ a_q·x_q ≤ rhs.
    let mut invariant_rows: Vec<(Vec<i128>, i128)> = Vec::new();
    let constant = |g: &[u64]| -> i128 {
        let gl: i128 = g
            .iter()
            .zip(leaders.counts())
            .map(|(&w, &l)| w as i128 * l as i128)
            .sum();
        gl - g[input] as i128 * leader_size
    };
    for g in &cones.nondecreasing {
        // Σ (g_q − g_x)·x_q ≥ const  ⟺  Σ (g_x − g_q)·x_q ≤ −const.
        let coeffs: Vec<i128> = g.iter().map(|&w| g[input] as i128 - w as i128).collect();
        invariant_rows.push((coeffs, -constant(g)));
    }
    for g in &cones.nonincreasing {
        let coeffs: Vec<i128> = g.iter().map(|&w| w as i128 - g[input] as i128).collect();
        invariant_rows.push((coeffs, constant(g)));
    }

    let bad_states: Vec<usize> = protocol
        .state_ids()
        .filter(|&q| protocol.output_of(q) != b)
        .map(|q| q.index())
        .collect();

    let mut worst = 0u64;
    for ideal in silent_cover.ideals() {
        // States the ideal pins to zero are substituted away before the
        // elimination: silent ideals fix most of the state space, and the
        // substitution keeps the Fourier–Motzkin system at the handful of
        // genuinely free states.
        let free: Vec<usize> = ideal
            .bounds()
            .iter()
            .enumerate()
            .filter(|(_, b)| **b != Some(0))
            .map(|(r, _)| r)
            .collect();
        let v = free.len();
        for &q in &bad_states {
            let Some(q_free) = free.iter().position(|&r| r == q) else {
                continue; // the bad state is pinned to zero in this ideal
            };
            // Variables x_0 … x_{v−1} (free counts) and x_v (the size).
            let mut rows: Vec<(Vec<i128>, i128)> = Vec::new();
            let mut infeasible = false;
            {
                let mut row = |coeffs: Vec<i128>, rhs: i128| {
                    if coeffs.iter().all(|&a| a == 0) {
                        infeasible |= rhs < 0;
                    } else if !rows.contains(&(coeffs.clone(), rhs)) {
                        rows.push((coeffs, rhs));
                    }
                };
                for (j, &r) in free.iter().enumerate() {
                    let mut lower = vec![0i128; v + 1];
                    lower[j] = -1;
                    row(lower, 0); // x_j ≥ 0
                    if let Some(limit) = ideal.bounds()[r] {
                        let mut upper = vec![0i128; v + 1];
                        upper[j] = 1;
                        row(upper, limit as i128); // x_j ≤ bound
                    }
                }
                let mut populated = vec![0i128; v + 1];
                populated[q_free] = -1;
                row(populated, -1); // x_q ≥ 1
                for (coeffs, rhs) in &invariant_rows {
                    let mut projected: Vec<i128> = free.iter().map(|&r| coeffs[r]).collect();
                    projected.push(0);
                    row(projected, *rhs);
                }
                // x_v = Σ x_j, encoded as two inequalities.
                let mut size_lo = vec![1i128; v + 1];
                size_lo[v] = -1;
                let size_hi: Vec<i128> = size_lo.iter().map(|&a| -a).collect();
                row(size_lo, 0);
                row(size_hi, 0);
            }
            if infeasible {
                continue;
            }
            match fm_sup(rows, v + 1, v, limits.max_fm_rows) {
                FmOutcome::Infeasible => {}
                FmOutcome::Bounded(max) => {
                    if max > 0 {
                        worst = worst.max(max.min(u64::MAX as i128) as u64);
                    }
                }
                FmOutcome::Unbounded => return BadSilentBound::Unbounded,
            }
        }
    }
    BadSilentBound::Bounded { max_size: worst }
}

/// Result of a Fourier–Motzkin supremum query.
enum FmOutcome {
    /// The system has no rational solution.
    Infeasible,
    /// The supremum of the objective variable (floored to an integer).
    Bounded(i128),
    /// The objective is unbounded above (or a resource cap was hit, which is
    /// treated conservatively as unbounded).
    Unbounded,
}

/// Computes `sup x_obj` over the rational solutions of `rows` (each row is
/// `Σ a_i·x_i ≤ rhs`) by eliminating every variable except `x_obj`.
///
/// Variables are eliminated greedily (fewest upper×lower combinations
/// first), and after each step only the tightest right-hand side per
/// coefficient vector is kept — together these keep the classical
/// Fourier–Motzkin blow-up in check on the systems the verifier builds.
fn fm_sup(
    mut rows: Vec<(Vec<i128>, i128)>,
    num_vars: usize,
    obj: usize,
    max_rows: usize,
) -> FmOutcome {
    let mut pending: Vec<usize> = (0..num_vars).filter(|&v| v != obj).collect();
    while !pending.is_empty() {
        // Pick the variable whose elimination produces the fewest rows.
        let cost = |v: usize, rows: &[(Vec<i128>, i128)]| -> usize {
            let ups = rows.iter().filter(|(c, _)| c[v] > 0).count();
            let downs = rows.iter().filter(|(c, _)| c[v] < 0).count();
            ups * downs
        };
        let (best_idx, _) = pending
            .iter()
            .enumerate()
            .map(|(i, &v)| (i, cost(v, &rows)))
            .min_by_key(|&(_, c)| c)
            .expect("pending is non-empty");
        let var = pending.swap_remove(best_idx);

        let (mut uppers, mut lowers, mut rest) = (Vec::new(), Vec::new(), Vec::new());
        for r in rows.drain(..) {
            match r.0[var].signum() {
                1 => uppers.push(r),
                -1 => lowers.push(r),
                _ => rest.push(r),
            }
        }
        for (uc, ur) in &uppers {
            for (lc, lr) in &lowers {
                // Bail mid-generation: one elimination step can square the
                // row count, so waiting for the end of the double loop
                // before checking the cap would defeat it.
                if rest.len() > max_rows {
                    return FmOutcome::Unbounded;
                }
                let a = uc[var];
                let b = -lc[var];
                let coeffs: Vec<i128> = uc.iter().zip(lc).map(|(&u, &l)| b * u + a * l).collect();
                let rhs = b * ur + a * lr;
                debug_assert_eq!(coeffs[var], 0);
                rest.push(normalize(coeffs, rhs));
            }
        }
        // Keep only the tightest right-hand side per coefficient vector.
        rest.sort();
        rest.dedup_by(|next, prev| next.0 == prev.0);
        // A constant row 0 ≤ rhs with rhs < 0 is a contradiction.
        if rest
            .iter()
            .any(|(c, rhs)| c.iter().all(|&a| a == 0) && *rhs < 0)
        {
            return FmOutcome::Infeasible;
        }
        rest.retain(|(c, _)| c.iter().any(|&a| a != 0));
        if rest.len() > max_rows {
            return FmOutcome::Unbounded;
        }
        rows = rest;
    }
    // Remaining rows involve only x_obj: a·x ≤ rhs.
    let mut upper: Option<i128> = None;
    let mut lower: Option<i128> = None; // smallest admissible value, ceiled
    for (c, rhs) in &rows {
        let a = c[obj];
        if a > 0 {
            // a·x ≤ rhs ⟺ x ≤ floor(rhs / a).
            let bound = rhs.div_euclid(a);
            upper = Some(upper.map_or(bound, |u| u.min(bound)));
        } else if a < 0 {
            // a·x ≤ rhs ⟺ (−a)·x ≥ −rhs ⟺ x ≥ ceil(−rhs / −a).
            let (num, den) = (-rhs, -a);
            let ceil = num.div_euclid(den) + i128::from(num.rem_euclid(den) != 0);
            lower = Some(lower.map_or(ceil, |l| l.max(ceil)));
        }
    }
    match (lower, upper) {
        (Some(l), Some(u)) if l > u => FmOutcome::Infeasible,
        (_, Some(u)) => FmOutcome::Bounded(u),
        (_, None) => FmOutcome::Unbounded,
    }
}

/// Normalises a row by the gcd of its coefficients and right-hand side.
fn normalize(coeffs: Vec<i128>, rhs: i128) -> (Vec<i128>, i128) {
    let mut g = coeffs.iter().fold(0i128, |acc, &c| gcd(acc, c.abs()));
    g = gcd(g, rhs.abs());
    if g > 1 {
        (coeffs.iter().map(|&c| c / g).collect(), rhs / g)
    } else {
        (coeffs, rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popproto_model::{Output, ProtocolBuilder};
    use popproto_vas::Ideal;

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
    fn cones_contain_sound_invariants() {
        let p = threshold2_protocol();
        let cones = invariant_cones(&p, &SymbolicLimits::default());
        assert!(cones.complete);
        let n = p.num_states();
        let deltas: Vec<Vec<i64>> = p
            .non_silent_transitions()
            .map(|t| t.displacement(n))
            .collect();
        for g in &cones.nondecreasing {
            for d in &deltas {
                let dot: i128 = d.iter().zip(g).map(|(&x, &w)| x as i128 * w as i128).sum();
                assert!(dot >= 0, "{g:?} not non-decreasing");
            }
        }
        for g in &cones.nonincreasing {
            for d in &deltas {
                let dot: i128 = d.iter().zip(g).map(|(&x, &w)| x as i128 * w as i128).sum();
                assert!(dot <= 0, "{g:?} not non-increasing");
            }
        }
        // The count of state 2 only ever grows; conservation holds.
        assert!(!cones.nondecreasing.is_empty());
        assert!(!cones.nonincreasing.is_empty());
    }

    #[test]
    fn bad_silent_bound_of_threshold_protocol() {
        // Silent configurations of the x ≥ 2 protocol that are not all-q2:
        // ⟨k·q0, ≤1·q1⟩.  The q2-count invariant (q2 never decreases, and two
        // q1s always can make one) pins reachable ones to tiny sizes.
        let p = threshold2_protocol();
        let cones = invariant_cones(&p, &SymbolicLimits::default());
        let mut silent = DownwardClosedSet::empty();
        silent.insert(Ideal::new(vec![None, Some(1), Some(0)]));
        silent.insert(Ideal::new(vec![Some(0), Some(0), None]));
        let bound = max_bad_silent_size(
            &p,
            &silent,
            Output::True,
            &cones,
            &SymbolicLimits::default(),
        );
        // A lone q1 (size 1) is the only wrong-consensus silent survivor:
        // any q0 must have been minted together with a q2, which the first
        // ideal forbids — the invariants detect exactly that.
        assert_eq!(bound, BadSilentBound::Bounded { max_size: 1 });
    }

    #[test]
    fn unbounded_bad_configurations_are_reported() {
        // A protocol that never moves: every configuration is silent, and
        // arbitrarily large all-q0 configurations violate no invariant.
        let mut b = ProtocolBuilder::new("inert");
        let q0 = b.add_state("s", Output::False);
        let _q1 = b.add_state("t", Output::True);
        b.set_input_state("x", q0);
        let p = b.build().unwrap();
        let cones = invariant_cones(&p, &SymbolicLimits::default());
        let silent = DownwardClosedSet::from_ideal(Ideal::full(2));
        let bound = max_bad_silent_size(
            &p,
            &silent,
            Output::True,
            &cones,
            &SymbolicLimits::default(),
        );
        assert_eq!(bound, BadSilentBound::Unbounded);
    }
}
