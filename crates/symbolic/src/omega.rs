//! ω-configurations as flat `u32` rows.
//!
//! An ω-configuration is an element of `(N ∪ {ω})^Q`; the forward
//! acceleration of [`crate::cover`] manipulates hundreds to thousands of
//! them.  It interns them in `popproto_reach::ConfigArena`, the arena of the
//! concrete explorations, with the sentinel [`OMEGA`] marking unbounded
//! entries: the arena stores it like any other count, so subsumption checks
//! and membership tests are allocation-free slice walks.
//!
//! The backward antichains of [`crate::backward`] and the ideal bases of the
//! stable sets are flat rows too: `u64` rows of stride `|Q|` in one buffer
//! each, with `u64::MAX` as `ω` in ideal bounds.  Only the public results
//! convert them to `Vec<Vec<u64>>` and [`DownwardClosedSet`].

use popproto_vas::{DownwardClosedSet, Ideal};

/// The `ω` sentinel: a count of `u32::MAX` means "unbounded".
///
/// Finite counts must stay strictly below this value; the Karp–Miller loop
/// enforces the invariant.
pub const OMEGA: u32 = u32::MAX;

/// Pointwise order on ω-rows: `a ≤ b` with `k ≤ ω` for every finite `k`.
pub fn row_leq(a: &[u32], b: &[u32]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .all(|(&x, &y)| y == OMEGA || (x != OMEGA && x <= y))
}

/// Converts an ω-row into the [`Ideal`] of configurations below it.
pub fn row_to_ideal(row: &[u32]) -> Ideal {
    Ideal::new(
        row.iter()
            .map(|&c| if c == OMEGA { None } else { Some(c as u64) })
            .collect(),
    )
}

/// The `ω` bound of a flat `u64` ideal row.  Finite bounds of ideals are
/// `m(q) − 1` for a count `m(q)`, or Karp–Miller counts below [`OMEGA`], so
/// they never reach it; inclusion of ideal rows is then the pointwise `≤`
/// and their intersection the pointwise `min`.
pub(crate) const OMEGA_BOUND: u64 = u64::MAX;

/// The canonical [`DownwardClosedSet`] of flat ideal rows of stride `n`.
pub(crate) fn ideal_rows_to_set(rows: &[u64], n: usize) -> DownwardClosedSet {
    let mut set = DownwardClosedSet::empty();
    for row in rows.chunks_exact(n) {
        set.insert(Ideal::new(
            row.iter()
                .map(|&b| (b != OMEGA_BOUND).then_some(b))
                .collect(),
        ));
    }
    set.canonicalize();
    set
}

/// The ideals of `set` as flat rows of stride `|Q|`.
pub(crate) fn set_to_ideal_rows(set: &DownwardClosedSet) -> Vec<u64> {
    set.ideals()
        .iter()
        .flat_map(|ideal| ideal.bounds().iter().map(|b| b.unwrap_or(OMEGA_BOUND)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use popproto_reach::ConfigArena;

    #[test]
    fn intern_deduplicates_omega_rows() {
        let mut arena = ConfigArena::new(2);
        let (a, fresh_a) = arena.intern(&[OMEGA, 3]);
        let (b, fresh_b) = arena.intern(&[3, OMEGA]);
        let (a2, fresh_a2) = arena.intern(&[OMEGA, 3]);
        assert!(fresh_a && fresh_b && !fresh_a2);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.lookup(&[OMEGA, 3]), Some(a));
        assert_eq!(arena.lookup(&[0, 0]), None);
        assert!(arena.heap_bytes() > 0);
    }

    #[test]
    fn row_order_with_omega() {
        assert!(row_leq(&[1, 2], &[1, OMEGA]));
        assert!(row_leq(&[OMEGA, 0], &[OMEGA, 1]));
        assert!(!row_leq(&[OMEGA, 0], &[5, 0]));
        assert!(!row_leq(&[2, 0], &[1, OMEGA]));
    }

    #[test]
    fn ideal_conversion() {
        let ideal = row_to_ideal(&[2, OMEGA]);
        assert_eq!(ideal.bounds(), &[Some(2), None]);
    }

    #[test]
    fn survives_rehashing() {
        let mut arena = ConfigArena::new(3);
        let mut ids = Vec::new();
        for i in 0..5_000u32 {
            let row = [i, i % 7, if i % 3 == 0 { OMEGA } else { i % 5 }];
            let (id, fresh) = arena.intern(&row);
            assert!(fresh);
            ids.push((id, row));
        }
        for (id, row) in &ids {
            assert_eq!(arena.lookup(row), Some(*id));
            assert_eq!(arena.counts_of(*id), row);
        }
        let collected: Vec<u32> = arena.iter().map(|(id, _)| id).collect();
        assert_eq!(collected.len(), 5_000);
    }
}
