//! ω-configurations as flat `u32` rows, and the interning [`OmegaArena`].
//!
//! An ω-configuration is an element of `(N ∪ {ω})^Q`; the forward
//! acceleration of [`crate::cover`] manipulates hundreds to thousands of
//! them.  Mirroring `popproto_reach::ConfigArena`'s flat-buffer design, every
//! row lives inside one backing `Vec<u32>` with the sentinel [`OMEGA`]
//! marking unbounded entries, and deduplication goes through an
//! open-addressed table that hashes the raw slices — subsumption checks and
//! membership tests are allocation-free slice walks.
//!
//! The backward antichains of [`crate::backward`] and the ideal bases of the
//! stable sets are flat rows too: `u64` rows of stride `|Q|` in one buffer
//! each, with `u64::MAX` as `ω` in ideal bounds.  Only the public results
//! convert them to `Vec<Vec<u64>>` and [`DownwardClosedSet`].

use popproto_vas::{DownwardClosedSet, Ideal};

/// The `ω` sentinel: a count of `u32::MAX` means "unbounded".
///
/// Finite counts must stay strictly below this value; the arena and the
/// Karp–Miller loop enforce the invariant.
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

/// Interns ω-rows (count vectors over a fixed state set, with [`OMEGA`]
/// entries) as dense `u32` identifiers backed by a single flat buffer.
///
/// # Examples
///
/// ```
/// use popproto_symbolic::{OmegaArena, OMEGA};
///
/// let mut arena = OmegaArena::new(3);
/// let (a, fresh_a) = arena.intern(&[2, OMEGA, 1]);
/// let (b, fresh_b) = arena.intern(&[2, OMEGA, 1]);
/// assert_eq!(a, b);
/// assert!(fresh_a && !fresh_b);
/// assert_eq!(arena.row(a), &[2, OMEGA, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct OmegaArena {
    num_states: usize,
    /// Backing buffer: row `id` occupies
    /// `rows[id * num_states .. (id + 1) * num_states]`.
    rows: Vec<u32>,
    /// Open-addressed table of `id + 1` entries (`0` marks an empty slot).
    table: Vec<u32>,
    mask: usize,
    len: usize,
}

const INITIAL_TABLE: usize = 64;

impl OmegaArena {
    /// Creates an empty arena over `num_states` states.
    pub fn new(num_states: usize) -> Self {
        OmegaArena {
            num_states,
            rows: Vec::new(),
            table: vec![0; INITIAL_TABLE],
            mask: INITIAL_TABLE - 1,
            len: 0,
        }
    }

    /// The dimension (number of states) of the interned rows.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of distinct rows interned.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no row has been interned.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The raw slice of row `id`.
    pub fn row(&self, id: u32) -> &[u32] {
        let start = id as usize * self.num_states;
        &self.rows[start..start + self.num_states]
    }

    /// Iterates over all interned rows as `(id, row)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[u32])> + '_ {
        (0..self.len() as u32).map(move |id| (id, self.row(id)))
    }

    fn hash_slice(slice: &[u32]) -> u64 {
        // FNV-1a over the count words, as in `ConfigArena`.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &c in slice {
            h ^= c as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// The identifier of `slice`, if it has been interned.
    pub fn lookup(&self, slice: &[u32]) -> Option<u32> {
        debug_assert_eq!(slice.len(), self.num_states);
        let mut idx = Self::hash_slice(slice) as usize & self.mask;
        loop {
            match self.table[idx] {
                0 => return None,
                entry => {
                    let id = entry - 1;
                    if self.row(id) == slice {
                        return Some(id);
                    }
                }
            }
            idx = (idx + 1) & self.mask;
        }
    }

    /// Interns `slice`, returning its identifier and whether it was new.
    ///
    /// # Panics
    ///
    /// Panics if `slice` has the wrong dimension.
    pub fn intern(&mut self, slice: &[u32]) -> (u32, bool) {
        assert_eq!(slice.len(), self.num_states, "dimension mismatch");
        let mut idx = Self::hash_slice(slice) as usize & self.mask;
        loop {
            match self.table[idx] {
                0 => break,
                entry => {
                    let id = entry - 1;
                    if self.row(id) == slice {
                        return (id, false);
                    }
                }
            }
            idx = (idx + 1) & self.mask;
        }
        let id = self.len as u32;
        self.rows.extend_from_slice(slice);
        self.table[idx] = id + 1;
        self.len += 1;
        if (self.len + 1) * 4 >= self.table.len() * 3 {
            self.grow();
        }
        (id, true)
    }

    fn grow(&mut self) {
        let new_size = self.table.len() * 2;
        self.table.clear();
        self.table.resize(new_size, 0);
        self.mask = new_size - 1;
        for id in 0..self.len() as u32 {
            let mut idx = Self::hash_slice(self.row(id)) as usize & self.mask;
            while self.table[idx] != 0 {
                idx = (idx + 1) & self.mask;
            }
            self.table[idx] = id + 1;
        }
    }

    /// Approximate heap usage in bytes (backing buffer plus hash table).
    pub fn heap_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<u32>()
            + self.table.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_deduplicates_omega_rows() {
        let mut arena = OmegaArena::new(2);
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
        let mut arena = OmegaArena::new(3);
        let mut ids = Vec::new();
        for i in 0..5_000u32 {
            let row = [i, i % 7, if i % 3 == 0 { OMEGA } else { i % 5 }];
            let (id, fresh) = arena.intern(&row);
            assert!(fresh);
            ids.push((id, row));
        }
        for (id, row) in &ids {
            assert_eq!(arena.lookup(row), Some(*id));
            assert_eq!(arena.row(*id), row);
        }
        let collected: Vec<u32> = arena.iter().map(|(id, _)| id).collect();
        assert_eq!(collected.len(), 5_000);
    }
}
