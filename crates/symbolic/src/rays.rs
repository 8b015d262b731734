//! Generators of polyhedral cones `{w ≥ 0 : A·w ≥ 0}` by the double
//! description method (Motzkin et al.).
//!
//! The invariant and termination analyses only need a *generating* set of
//! rays: every rational cone point must be a non-negative combination of
//! them.  Extreme rays provide that, and the double description method
//! computes them directly in the `|Q|`-dimensional weight space — unlike a
//! Hilbert-basis computation on the slack-extended equality system, whose
//! search space grows with `|Q| + |T|` and dominated the analysis cost on
//! the larger zoo protocols.
//!
//! The implementation keeps the classical invariant: starting from the unit
//! rays of `w ≥ 0`, each constraint `a·w ≥ 0` splits the current rays into
//! positive, zero and negative sides; positive and zero rays survive, and
//! every *adjacent* (positive, negative) pair contributes the combination
//! `(a·p)·n − (a·n)·p` lying on the hyperplane.  Adjacency is decided by
//! the standard combinatorial test on tight-constraint sets (two rays are
//! adjacent iff no third ray is tight on every constraint both are tight
//! on), which keeps the ray set equal to the extreme rays instead of
//! growing quadratically per constraint.  The cone lives inside the pointed
//! orthant `w ≥ 0`, so extreme rays exist and generate it.

/// A ray with the bitmask of constraints it satisfies with equality
/// (the first `dim` bits are the non-negativity bounds, later bits the
/// processed rows).
#[derive(Debug, Clone)]
struct Ray {
    coords: Vec<i128>,
    tight: u64,
}

/// Computes the extreme rays of `{w ≥ 0 : row·w ≥ 0 ∀rows}` as integer
/// vectors (gcd-normalised).
///
/// Returns `None` if an intermediate ray set exceeds `max_rays` (callers
/// must then treat the cone as unavailable — never as empty), or if the
/// tight-set bookkeeping would overflow its 64-bit mask
/// (`rows.len() + dim > 64`).
pub(crate) fn nonneg_cone_generators(
    rows: &[Vec<i64>],
    dim: usize,
    max_rays: usize,
) -> Option<Vec<Vec<i128>>> {
    if rows.len() + dim > 64 {
        return None;
    }
    let mut rays: Vec<Ray> = (0..dim)
        .map(|j| {
            let mut unit = vec![0i128; dim];
            unit[j] = 1;
            // A unit ray is tight on every non-negativity bound except its own.
            let tight = ((1u64 << dim) - 1) & !(1u64 << j);
            Ray {
                coords: unit,
                tight,
            }
        })
        .collect();
    for (k, row) in rows.iter().enumerate() {
        debug_assert_eq!(row.len(), dim);
        let row_bit = 1u64 << (dim + k);
        let score = |r: &[i128]| -> i128 { r.iter().zip(row).map(|(&x, &a)| x * a as i128).sum() };
        let scored: Vec<(Ray, i128)> = rays
            .drain(..)
            .map(|r| {
                let s = score(&r.coords);
                (r, s)
            })
            .collect();
        let mut next: Vec<Ray> = Vec::new();
        for (r, s) in &scored {
            if *s >= 0 {
                let mut kept = r.clone();
                if *s == 0 {
                    kept.tight |= row_bit;
                }
                next.push(kept);
            }
        }
        for (p, sp) in scored.iter().filter(|(_, s)| *s > 0) {
            for (nr, sn) in scored.iter().filter(|(_, s)| *s < 0) {
                // Combinatorial adjacency: no third ray may be tight on
                // every constraint p and n are both tight on.
                let common = p.tight & nr.tight;
                let adjacent = !scored.iter().any(|(other, _)| {
                    !std::ptr::eq(other, p)
                        && !std::ptr::eq(other, nr)
                        && other.tight & common == common
                });
                if !adjacent {
                    continue;
                }
                let coords: Vec<i128> = p
                    .coords
                    .iter()
                    .zip(&nr.coords)
                    .map(|(&pc, &nc)| sp * nc - sn * pc)
                    .collect();
                debug_assert_eq!(score(&coords), 0);
                let coords = normalize(coords);
                if coords.iter().all(|&c| c == 0) {
                    continue;
                }
                if next.iter().any(|r| r.coords == coords) {
                    continue;
                }
                // Recompute the exact tight set of the new ray: the
                // non-negativity bounds at its zero entries plus every
                // processed row it satisfies with equality.  (Inheriting
                // the parents' intersection would under-report accidental
                // tightness and skew later adjacency tests.)
                let mut tight = 0u64;
                for (j, &c) in coords.iter().enumerate() {
                    if c == 0 {
                        tight |= 1u64 << j;
                    }
                }
                for (k2, row2) in rows.iter().take(k + 1).enumerate() {
                    let s2: i128 = coords.iter().zip(row2).map(|(&x, &a)| x * a as i128).sum();
                    if s2 == 0 {
                        tight |= 1u64 << (dim + k2);
                    }
                }
                next.push(Ray { coords, tight });
                if next.len() > max_rays {
                    return None;
                }
            }
        }
        rays = next;
    }
    Some(rays.into_iter().map(|r| r.coords).collect())
}

/// Divides a ray by the gcd of its entries.
fn normalize(ray: Vec<i128>) -> Vec<i128> {
    let g = ray.iter().fold(0i128, |acc, &c| gcd(acc, c.abs()));
    if g > 1 {
        ray.into_iter().map(|c| c / g).collect()
    } else {
        ray
    }
}

/// Euclidean gcd on absolute values (shared with the invariant module's
/// row normalisation).
pub(crate) fn gcd(a: i128, b: i128) -> i128 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Converts a non-negative ray to `u64` weights.
///
/// # Panics
///
/// Panics if an entry is negative or exceeds `u64` (double description over
/// `w ≥ 0` only ever produces non-negative rays).
pub(crate) fn ray_to_weights(ray: &[i128]) -> Vec<u64> {
    ray.iter()
        .map(|&c| u64::try_from(c).expect("cone ray entry out of range"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn satisfies(rows: &[Vec<i64>], ray: &[i128]) -> bool {
        ray.iter().all(|&c| c >= 0)
            && rows.iter().all(|row| {
                row.iter()
                    .zip(ray)
                    .map(|(&a, &x)| a as i128 * x)
                    .sum::<i128>()
                    >= 0
            })
    }

    /// Brute-force check that `target` (a cone member) is dominated by the
    /// generated rays in every constraint direction actually needed: we
    /// verify generation by solving the small non-negative combination
    /// problem greedily over rationals via repeated projection.
    fn in_conic_hull(rays: &[Vec<i128>], target: &[i128]) -> bool {
        // For the tiny systems in these tests, Fourier–Motzkin-free check:
        // brute-force rational combinations with small denominators.
        let denoms = [1i128, 2, 3, 4, 5, 6];
        fn rec(
            rays: &[Vec<i128>],
            idx: usize,
            acc: &mut Vec<i128>,
            target: &[i128],
            scale: i128,
        ) -> bool {
            if acc.iter().zip(target).all(|(&a, &t)| a == t * scale) {
                return true;
            }
            if idx == rays.len() {
                return false;
            }
            for c in 0..=12i128 {
                let over = acc
                    .iter()
                    .zip(&rays[idx])
                    .zip(target)
                    .any(|((&a, &r), &t)| a + c * r > t * scale);
                if over && c > 0 {
                    break;
                }
                for (a, &r) in acc.iter_mut().zip(&rays[idx]) {
                    *a += c * r;
                }
                if rec(rays, idx + 1, acc, target, scale) {
                    return true;
                }
                for (a, &r) in acc.iter_mut().zip(&rays[idx]) {
                    *a -= c * r;
                }
            }
            false
        }
        denoms.iter().any(|&scale| {
            let mut acc = vec![0i128; target.len()];
            rec(rays, 0, &mut acc, target, scale)
        })
    }

    #[test]
    fn rays_satisfy_their_constraints() {
        let rows = vec![vec![1, -2, 1], vec![-1, 0, 1], vec![0, -1, 1]];
        let rays = nonneg_cone_generators(&rows, 3, 1_000).unwrap();
        assert!(!rays.is_empty());
        for r in &rays {
            assert!(satisfies(&rows, r), "{r:?} violates a constraint");
        }
        // Known cone members must lie in the conic hull of the generators.
        assert!(in_conic_hull(&rays, &[1, 1, 1]));
        assert!(in_conic_hull(&rays, &[0, 1, 2]));
        assert!(in_conic_hull(&rays, &[0, 0, 1]));
    }

    #[test]
    fn empty_constraints_give_unit_rays() {
        let rays = nonneg_cone_generators(&[], 2, 10).unwrap();
        assert_eq!(rays.len(), 2);
    }

    #[test]
    fn infeasible_direction_collapses_the_cone() {
        // −w0 ≥ 0 forces w0 = 0.
        let rows = vec![vec![-1, 0]];
        let rays = nonneg_cone_generators(&rows, 2, 10).unwrap();
        for r in &rays {
            assert_eq!(r[0], 0);
        }
        assert!(rays.iter().any(|r| r[1] > 0));
    }

    #[test]
    fn ray_cap_reports_none() {
        let rows = vec![vec![1, -1, 0], vec![0, 1, -1]];
        assert_eq!(nonneg_cone_generators(&rows, 3, 0), None);
    }

    #[test]
    fn oversized_systems_report_none() {
        let rows = vec![vec![0i64; 70]; 70];
        assert_eq!(nonneg_cone_generators(&rows, 70, 10), None);
    }

    #[test]
    fn generation_property_on_a_known_cone() {
        // {w ≥ 0 : w0 ≥ w1}: extreme rays (1,0) and (1,1).
        let rows = vec![vec![1, -1]];
        let mut rays = nonneg_cone_generators(&rows, 2, 10).unwrap();
        rays.sort();
        assert_eq!(rays, vec![vec![1, 0], vec![1, 1]]);
    }
}
