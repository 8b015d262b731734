//! A compact interning arena for configurations of a fixed state count.
//!
//! Exhaustive exploration visits hundreds of thousands of configurations; the
//! seed implementation stored each as an owned [`Config`] *twice* (once in a
//! `Vec`, once as a `HashMap` key), paying an allocation and a full clone per
//! node.  [`ConfigArena`] instead keeps every configuration as a flat `u32`
//! count slice inside one backing buffer and deduplicates through an
//! open-addressed hash table that hashes the raw slices directly — interning
//! a known configuration allocates nothing.
//!
//! Identifiers are dense `u32` indices in insertion order, so the exploration
//! layers above can use them directly as CSR node ids and bitset positions.
//!
//! The symbolic crate interns its Karp–Miller ω-rows here too: `ω` is the
//! count `u32::MAX`, which [`ConfigArena::intern`] stores like any other.

use popproto_model::Config;

/// Interns configurations (count vectors over a fixed state set) as dense
/// `u32` identifiers backed by a single flat buffer.
///
/// Counts are stored as `u32`: exact exploration only ever handles bounded
/// slices whose populations are far below `u32::MAX` (inserting a larger
/// count panics rather than truncating).
///
/// # Examples
///
/// ```
/// use popproto_reach::ConfigArena;
///
/// let mut arena = ConfigArena::new(3);
/// let (a, fresh_a) = arena.intern(&[2, 0, 1]);
/// let (b, fresh_b) = arena.intern(&[2, 0, 1]);
/// assert_eq!(a, b);
/// assert!(fresh_a && !fresh_b);
/// assert_eq!(arena.counts_of(a), &[2, 0, 1]);
/// assert_eq!(arena.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ConfigArena {
    num_states: usize,
    /// Backing buffer: configuration `id` occupies
    /// `counts[id * num_states .. (id + 1) * num_states]`.
    counts: Vec<u32>,
    /// Open-addressed table of `id + 1` entries (`0` marks an empty slot).
    table: Vec<u32>,
    mask: usize,
    len: usize,
}

const INITIAL_TABLE: usize = 64;

impl ConfigArena {
    /// Creates an empty arena over `num_states` states.
    pub fn new(num_states: usize) -> Self {
        ConfigArena {
            num_states,
            counts: Vec::new(),
            table: vec![0; INITIAL_TABLE],
            mask: INITIAL_TABLE - 1,
            len: 0,
        }
    }

    /// Creates an empty arena with room for roughly `capacity` configurations
    /// before the first rehash.
    pub fn with_capacity(num_states: usize, capacity: usize) -> Self {
        let table = (capacity * 4 / 3 + 1)
            .next_power_of_two()
            .max(INITIAL_TABLE);
        ConfigArena {
            num_states,
            counts: Vec::with_capacity(capacity * num_states),
            table: vec![0; table],
            mask: table - 1,
            len: 0,
        }
    }

    /// Empties the arena and gives it dimension `num_states`, keeping its
    /// buffers: the next configuration interned gets id 0 again.
    pub(crate) fn clear(&mut self, num_states: usize) {
        self.num_states = num_states;
        self.counts.clear();
        self.table.fill(0);
        self.len = 0;
    }

    /// The dimension (number of states) of the interned configurations.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of distinct configurations interned.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no configuration has been interned.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The raw count slice of configuration `id`.
    pub fn counts_of(&self, id: u32) -> &[u32] {
        let start = id as usize * self.num_states;
        &self.counts[start..start + self.num_states]
    }

    /// Materialises configuration `id` as an owned [`Config`].
    pub fn config(&self, id: u32) -> Config {
        Config::from_counts(self.counts_of(id).iter().map(|&c| c as u64).collect())
    }

    /// Iterates over all interned configurations as `(id, counts)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[u32])> + '_ {
        (0..self.len() as u32).map(move |id| (id, self.counts_of(id)))
    }

    fn hash_slice(slice: &[u32]) -> u64 {
        // FNV-1a over the count words: short slices, no allocation, good
        // enough dispersion for a power-of-two table with linear probing.
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
                    if self.counts_of(id) == slice {
                        return Some(id);
                    }
                }
            }
            idx = (idx + 1) & self.mask;
        }
    }

    /// The identifier of a [`Config`], if it has been interned.
    ///
    /// Returns `None` for configurations of the wrong dimension or with
    /// counts beyond `u32::MAX` (which can never have been interned).
    pub(crate) fn lookup_config(&self, c: &Config) -> Option<u32> {
        if c.num_states() != self.num_states {
            return None;
        }
        let mut scratch = Vec::with_capacity(self.num_states);
        for &v in c.counts() {
            scratch.push(u32::try_from(v).ok()?);
        }
        self.lookup(&scratch)
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
                    if self.counts_of(id) == slice {
                        return (id, false);
                    }
                }
            }
            idx = (idx + 1) & self.mask;
        }
        let id = self.len as u32;
        self.counts.extend_from_slice(slice);
        self.table[idx] = id + 1;
        self.len += 1;
        if (self.len + 1) * 4 >= self.table.len() * 3 {
            self.grow();
        }
        (id, true)
    }

    /// Interns a [`Config`], converting its counts to `u32`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or counts beyond `u32::MAX`.
    pub(crate) fn intern_config(&mut self, c: &Config) -> (u32, bool) {
        let scratch: Vec<u32> = c
            .counts()
            .iter()
            .map(|&v| u32::try_from(v).expect("count exceeds the arena's u32 range"))
            .collect();
        self.intern(&scratch)
    }

    fn grow(&mut self) {
        let new_size = self.table.len() * 2;
        self.table.clear();
        self.table.resize(new_size, 0);
        self.mask = new_size - 1;
        for id in 0..self.len() as u32 {
            let mut idx = Self::hash_slice(self.counts_of(id)) as usize & self.mask;
            while self.table[idx] != 0 {
                idx = (idx + 1) & self.mask;
            }
            self.table[idx] = id + 1;
        }
    }

    /// Approximate heap usage in bytes (backing buffer plus hash table).
    pub fn heap_bytes(&self) -> usize {
        self.counts.capacity() * std::mem::size_of::<u32>()
            + self.table.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_deduplicates_and_preserves_ids() {
        let mut arena = ConfigArena::new(3);
        let (a, new_a) = arena.intern(&[1, 2, 3]);
        let (b, new_b) = arena.intern(&[3, 2, 1]);
        let (a2, new_a2) = arena.intern(&[1, 2, 3]);
        assert!(new_a && new_b && !new_a2);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.counts_of(a), &[1, 2, 3]);
        assert_eq!(arena.counts_of(b), &[3, 2, 1]);
    }

    #[test]
    fn lookup_roundtrip() {
        let mut arena = ConfigArena::new(2);
        assert_eq!(arena.lookup(&[5, 5]), None);
        let (id, _) = arena.intern(&[5, 5]);
        assert_eq!(arena.lookup(&[5, 5]), Some(id));
        let c = Config::from_counts(vec![5, 5]);
        assert_eq!(arena.lookup_config(&c), Some(id));
        assert_eq!(
            arena.lookup_config(&Config::from_counts(vec![5, 5, 0])),
            None
        );
        assert_eq!(arena.config(id), c);
    }

    #[test]
    fn survives_many_inserts_and_rehashes() {
        let mut arena = ConfigArena::new(4);
        let mut ids = Vec::new();
        for i in 0..10_000u32 {
            let slice = [i % 97, i / 97, i % 13, i];
            let (id, fresh) = arena.intern(&slice);
            assert!(fresh);
            ids.push((id, slice));
        }
        assert_eq!(arena.len(), 10_000);
        for (id, slice) in &ids {
            assert_eq!(arena.lookup(slice), Some(*id));
            assert_eq!(arena.counts_of(*id), slice);
        }
    }

    #[test]
    fn iter_yields_in_insertion_order() {
        let mut arena = ConfigArena::new(2);
        arena.intern(&[0, 1]);
        arena.intern(&[1, 0]);
        let collected: Vec<(u32, Vec<u32>)> =
            arena.iter().map(|(id, s)| (id, s.to_vec())).collect();
        assert_eq!(collected, vec![(0, vec![0, 1]), (1, vec![1, 0])]);
    }

    #[test]
    fn clear_forgets_every_configuration_and_reuses_the_table() {
        let mut arena = ConfigArena::new(2);
        for i in 0..100u32 {
            arena.intern(&[i, 0]);
        }
        let table = arena.table.len();
        arena.clear(3);
        assert!(arena.is_empty());
        assert_eq!(arena.num_states(), 3);
        assert_eq!(arena.table.len(), table);
        assert_eq!(arena.lookup(&[0, 0, 0]), None);
        assert_eq!(arena.intern(&[7, 0, 1]), (0, true));
        assert_eq!(arena.counts_of(0), &[7, 0, 1]);
    }

    #[test]
    fn with_capacity_avoids_immediate_growth() {
        let mut arena = ConfigArena::with_capacity(1, 1000);
        let table_before = arena.table.len();
        for i in 0..1000u32 {
            arena.intern(&[i]);
        }
        assert_eq!(arena.table.len(), table_before);
        assert!(arena.heap_bytes() > 0);
    }
}
