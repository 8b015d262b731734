//! Exhaustive forward exploration of the configuration space of a fixed
//! population size, on top of the interning [`ConfigArena`].
//!
//! The exploration never materialises a [`Config`] per node: successor
//! generation applies transition deltas to a scratch slice and interns the
//! result directly, and the adjacency structure is stored in compressed
//! sparse row (CSR) form — two flat `u32` arrays per direction instead of a
//! `Vec<Vec<usize>>` per node.  Closures over the graph are bitset fixpoints
//! (see [`BitSet`]).

use crate::arena::ConfigArena;
use crate::bitset::BitSet;
use popproto_model::{Config, Protocol};
use serde::{Deserialize, Serialize};

/// Limits for the exhaustive exploration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ExploreLimits {
    /// Maximum number of distinct configurations to explore.
    pub max_configs: usize,
}

impl Default for ExploreLimits {
    fn default() -> Self {
        // The arena stores a configuration in `4·|Q|` bytes (the seed's
        // `HashMap<Config, usize>` needed an order of magnitude more), so the
        // default cap affords 1M configurations where the seed stopped at
        // 200k: slices that previously exhausted the limits now complete.
        ExploreLimits {
            max_configs: 1_000_000,
        }
    }
}

impl ExploreLimits {
    /// Creates limits with the given configuration cap.
    pub fn with_max_configs(max_configs: usize) -> Self {
        ExploreLimits { max_configs }
    }

    /// The configuration cap the seed implementation shipped with.
    pub const SEED_DEFAULT_MAX_CONFIGS: usize = 200_000;
}

/// The reachability graph of a protocol restricted to the configurations
/// reachable from a set of initial configurations (all of the same size).
///
/// Node identifiers are dense `u32` values in BFS discovery order.
///
/// # Examples
///
/// ```
/// use popproto_model::{Output, ProtocolBuilder};
/// use popproto_reach::{ExploreLimits, ReachabilityGraph};
///
/// # fn main() -> Result<(), popproto_model::ProtocolError> {
/// let mut b = ProtocolBuilder::new("x >= 2");
/// let zero = b.add_state("0", Output::False);
/// let one = b.add_state("1", Output::False);
/// let two = b.add_state("2", Output::True);
/// b.add_transition((one, one), (zero, two))?;
/// b.add_transition((zero, two), (two, two))?;
/// b.add_transition((one, two), (two, two))?;
/// b.set_input_state("x", one);
/// let p = b.build()?;
///
/// let graph = ReachabilityGraph::explore(&p, &[p.initial_config_unary(3)], &ExploreLimits::default());
/// assert!(graph.is_complete());
/// assert_eq!(graph.len(), 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ReachabilityGraph {
    arena: ConfigArena,
    succ_off: Vec<u32>,
    succ: Vec<u32>,
    pred_off: Vec<u32>,
    pred: Vec<u32>,
    initial: Vec<u32>,
    complete: bool,
}

/// The non-silent transitions of a protocol as raw state-index deltas
/// `[pre_lo, pre_hi, post_lo, post_hi]`, in transition order.
///
/// Shared by the CSR and the frontier-compressed explorers, whose
/// bit-identity contract depends on both applying the *same* delta list in
/// the same order, and by the symbolic crate's covers and fixpoints.
pub fn transition_deltas(protocol: &Protocol) -> Vec<[usize; 4]> {
    protocol
        .transitions()
        .iter()
        .filter(|t| !t.is_silent())
        .map(|t| {
            [
                t.pre.lo().index(),
                t.pre.hi().index(),
                t.post.lo().index(),
                t.post.hi().index(),
            ]
        })
        .collect()
}

impl ReachabilityGraph {
    /// Explores the configuration space reachable from `initial` under
    /// `protocol`, up to the given limits.
    ///
    /// # Panics
    ///
    /// Panics if an initial configuration has the wrong dimension or a
    /// count beyond `u32::MAX`.
    pub fn explore(protocol: &Protocol, initial: &[Config], limits: &ExploreLimits) -> Self {
        let n = protocol.num_states();
        let mut rows: Vec<u32> = Vec::with_capacity(initial.len() * n);
        for c in initial {
            assert_eq!(c.num_states(), n, "dimension mismatch");
            rows.extend(
                c.counts()
                    .iter()
                    .map(|&v| u32::try_from(v).expect("count exceeds the arena's u32 range")),
            );
        }
        let mut graph = ReachabilityGraph::empty();
        graph.explore_into(n, &transition_deltas(protocol), &rows, limits);
        graph
    }

    /// A graph of no configuration, whose buffers
    /// [`ReachabilityGraph::explore_into`] fills.
    pub(crate) fn empty() -> Self {
        ReachabilityGraph {
            arena: ConfigArena::new(0),
            succ_off: Vec::new(),
            succ: Vec::new(),
            pred_off: Vec::new(),
            pred: Vec::new(),
            initial: Vec::new(),
            complete: true,
        }
    }

    /// Explores the configurations of dimension `num_states` reachable
    /// from the rows of `initial` (concatenated, `num_states` counts each)
    /// under the non-silent transition `deltas`, up to the given limits,
    /// into this graph's buffers.  Whatever the graph held before, the
    /// result is the graph [`ReachabilityGraph::explore`] builds.
    pub(crate) fn explore_into(
        &mut self,
        num_states: usize,
        deltas: &[[usize; 4]],
        initial: &[u32],
        limits: &ExploreLimits,
    ) {
        let n = num_states;
        let arena = &mut self.arena;
        arena.clear(n);
        self.initial.clear();
        for row in initial.chunks_exact(n) {
            let (id, _) = arena.intern(row);
            if !self.initial.contains(&id) {
                self.initial.push(id);
            }
        }

        let succ_off = &mut self.succ_off;
        let succ = &mut self.succ;
        succ_off.clear();
        succ_off.push(0);
        succ.clear();
        let mut current: Vec<u32> = vec![0; n];
        let mut scratch: Vec<u32> = vec![0; n];
        self.complete = true;

        // Identifiers are assigned in discovery order, so the BFS queue is
        // implicit: process ids `0, 1, 2, …` until the frontier is exhausted.
        let mut head: usize = 0;
        while head < arena.len() {
            if arena.len() > limits.max_configs {
                self.complete = false;
                break;
            }
            let id = head as u32;
            head += 1;
            current.copy_from_slice(arena.counts_of(id));
            let base = succ.len();
            for &[p0, p1, q0, q1] in deltas {
                let enabled = if p0 == p1 {
                    current[p0] >= 2
                } else {
                    current[p0] >= 1 && current[p1] >= 1
                };
                if !enabled {
                    continue;
                }
                // A non-silent transition always changes the configuration,
                // so the successor is a genuine move (never a self-loop).
                scratch.copy_from_slice(&current);
                scratch[p0] -= 1;
                scratch[p1] -= 1;
                scratch[q0] += 1;
                scratch[q1] += 1;
                let (next_id, _) = arena.intern(&scratch);
                if !succ[base..].contains(&next_id) {
                    succ.push(next_id);
                }
            }
            succ_off.push(succ.len() as u32);
        }
        // Nodes discovered but not expanded (truncated exploration) have no
        // outgoing edges.
        let num = arena.len();
        succ_off.resize(num + 1, succ.len() as u32);

        // Transpose into the predecessor CSR: count each node's in-edges at
        // its own offset, turn the counts into end offsets, then fill every
        // node's range from its end with the sources in descending order —
        // which leaves each range in ascending source order and each offset
        // at its range's start.
        let pred_off = &mut self.pred_off;
        pred_off.clear();
        pred_off.resize(num + 1, 0);
        for &dst in succ.iter() {
            pred_off[dst as usize] += 1;
        }
        for i in 1..num {
            pred_off[i] += pred_off[i - 1];
        }
        pred_off[num] = succ.len() as u32;
        self.pred.clear();
        self.pred.resize(succ.len(), 0);
        for src in (0..num).rev() {
            let (lo, hi) = (succ_off[src] as usize, succ_off[src + 1] as usize);
            for &dst in &succ[lo..hi] {
                pred_off[dst as usize] -= 1;
                self.pred[pred_off[dst as usize] as usize] = src as u32;
            }
        }
    }

    /// Number of configurations explored.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Returns `true` if no configuration was explored.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// Returns `true` if the exploration terminated without hitting limits.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// The underlying configuration arena.
    pub fn arena(&self) -> &ConfigArena {
        &self.arena
    }

    /// Iterates over all node identifiers.
    pub fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        0..self.len() as u32
    }

    /// The raw count slice of the configuration with identifier `id`.
    pub fn counts_of(&self, id: u32) -> &[u32] {
        self.arena.counts_of(id)
    }

    /// The configuration with identifier `id`, materialised.
    pub fn config(&self, id: u32) -> Config {
        self.arena.config(id)
    }

    /// All explored configurations, materialised (reporting only — hot paths
    /// should iterate [`ReachabilityGraph::counts_of`] instead).
    pub fn configs(&self) -> Vec<Config> {
        self.ids().map(|id| self.config(id)).collect()
    }

    /// The internal identifier of a configuration, if it was explored.
    pub fn id_of(&self, c: &Config) -> Option<u32> {
        self.arena.lookup_config(c)
    }

    /// Identifiers of the initial configurations.
    pub fn initial_ids(&self) -> &[u32] {
        &self.initial
    }

    /// Successor identifiers of a configuration.
    pub fn successors_of(&self, id: u32) -> &[u32] {
        let (lo, hi) = (
            self.succ_off[id as usize] as usize,
            self.succ_off[id as usize + 1] as usize,
        );
        &self.succ[lo..hi]
    }

    /// Predecessor identifiers of a configuration.
    pub fn predecessors_of(&self, id: u32) -> &[u32] {
        let (lo, hi) = (
            self.pred_off[id as usize] as usize,
            self.pred_off[id as usize + 1] as usize,
        );
        &self.pred[lo..hi]
    }

    /// Approximate heap usage of the graph: the arena plus both CSR
    /// directions.  The comparison baseline for the frontier-compressed
    /// explorer, which stores no adjacency at all.
    pub fn heap_bytes(&self) -> usize {
        self.arena.heap_bytes()
            + (self.succ_off.capacity()
                + self.succ.capacity()
                + self.pred_off.capacity()
                + self.pred.capacity())
                * std::mem::size_of::<u32>()
    }

    /// Identifiers of terminal (silent) configurations: no outgoing edge.
    pub fn terminal_ids(&self) -> Vec<u32> {
        self.ids()
            .filter(|&id| self.successors_of(id).is_empty())
            .collect()
    }

    /// The set of identifiers backward-reachable from `targets` (including
    /// them): configurations that *can reach* a target.
    pub fn backward_closure(&self, targets: &[u32]) -> BitSet {
        let mut seen = BitSet::new(self.len());
        self.closure_into(targets.iter().copied(), &mut seen, &mut Vec::new());
        seen
    }

    /// Backward closure seeded by a bitset instead of an id list.
    pub fn backward_closure_of(&self, targets: &BitSet) -> BitSet {
        let mut seen = BitSet::new(self.len());
        self.backward_closure_into(targets, &mut seen, &mut Vec::new());
        seen
    }

    /// [`ReachabilityGraph::backward_closure_of`] into `seen`, with `stack`
    /// as the worklist: both buffers are reused, whatever they held.
    pub(crate) fn backward_closure_into(
        &self,
        targets: &BitSet,
        seen: &mut BitSet,
        stack: &mut Vec<u32>,
    ) {
        seen.reset(self.len());
        self.closure_into(targets.iter(), seen, stack);
    }

    fn closure_into(
        &self,
        seeds: impl Iterator<Item = u32>,
        seen: &mut BitSet,
        stack: &mut Vec<u32>,
    ) {
        stack.clear();
        for s in seeds {
            if seen.insert(s) {
                stack.push(s);
            }
        }
        while let Some(id) = stack.pop() {
            for &next in self.predecessors_of(id) {
                if seen.insert(next) {
                    stack.push(next);
                }
            }
        }
    }

    /// A shortest path (sequence of configuration identifiers) from some
    /// identifier in `start` to some identifier satisfying `goal`, if one exists.
    pub(crate) fn shortest_path_to(
        &self,
        start: &[u32],
        goal: impl Fn(u32) -> bool,
    ) -> Option<Vec<u32>> {
        use std::collections::VecDeque;
        let mut prev = vec![u32::MAX; self.len()];
        let mut seen = BitSet::new(self.len());
        let mut queue = VecDeque::new();
        for &s in start {
            if seen.insert(s) {
                queue.push_back(s);
            }
        }
        while let Some(id) = queue.pop_front() {
            if goal(id) {
                let mut path = vec![id];
                let mut cur = id;
                while prev[cur as usize] != u32::MAX {
                    cur = prev[cur as usize];
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
            for &next in self.successors_of(id) {
                if seen.insert(next) {
                    prev[next as usize] = id;
                    queue.push_back(next);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popproto_model::{Output, ProtocolBuilder, StateId};

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
    fn explores_small_space_completely() {
        let p = threshold2_protocol();
        let g =
            ReachabilityGraph::explore(&p, &[p.initial_config_unary(3)], &ExploreLimits::default());
        assert!(g.is_complete());
        // Reachable configurations from ⟨3·q1⟩:
        // ⟨3·1⟩, ⟨1·0,1·1,1·2⟩, ⟨1·1,2·2⟩, ⟨3·2⟩  (and ⟨1·0, 2·2⟩? let's check: from
        // ⟨1·0,1·1,1·2⟩ we can fire (0,2↦2,2) giving ⟨1·1,2·2⟩ or (1,2↦2,2) giving ⟨1·0,2·2⟩).
        assert_eq!(g.len(), 5);
        assert_eq!(g.initial_ids().len(), 1);
        // Every explored configuration has the same population size.
        for c in g.configs() {
            assert_eq!(c.size(), 3);
        }
        // The raw slices agree with the materialised configurations.
        for id in g.ids() {
            let counts: Vec<u64> = g.counts_of(id).iter().map(|&c| c as u64).collect();
            assert_eq!(g.config(id).counts(), counts.as_slice());
        }
    }

    #[test]
    fn terminal_configurations_are_silent() {
        let p = threshold2_protocol();
        let g =
            ReachabilityGraph::explore(&p, &[p.initial_config_unary(3)], &ExploreLimits::default());
        let terminals = g.terminal_ids();
        assert_eq!(terminals.len(), 1);
        let t = g.config(terminals[0]);
        assert_eq!(t.get(StateId::new(2)), 3);
        assert!(p.is_silent_config(&t));
    }

    #[test]
    fn forward_and_backward_closures() {
        let p = threshold2_protocol();
        let g =
            ReachabilityGraph::explore(&p, &[p.initial_config_unary(3)], &ExploreLimits::default());
        let terminal = g.terminal_ids();
        let bwd = g.backward_closure(&terminal);
        assert_eq!(
            bwd.count(),
            g.len(),
            "every configuration can reach the terminal one"
        );
        // Seeding by bitset agrees with seeding by id list.
        let mut seed = BitSet::new(g.len());
        for &t in &terminal {
            seed.insert(t);
        }
        assert_eq!(g.backward_closure_of(&seed), bwd);
    }

    #[test]
    fn shortest_paths() {
        let p = threshold2_protocol();
        let g =
            ReachabilityGraph::explore(&p, &[p.initial_config_unary(3)], &ExploreLimits::default());
        let terminal = g.terminal_ids()[0];
        let path = g
            .shortest_path_to(g.initial_ids(), |id| id == terminal)
            .unwrap();
        assert_eq!(path.first(), Some(&g.initial_ids()[0]));
        assert_eq!(path.last(), Some(&terminal));
        // From ⟨3·q1⟩ the fastest stabilisation takes 3 interactions.
        assert_eq!(path.len(), 4);
        // A goal that never holds yields no path.
        assert!(g.shortest_path_to(g.initial_ids(), |_| false).is_none());
    }

    #[test]
    fn limit_truncates_exploration() {
        let p = threshold2_protocol();
        let g = ReachabilityGraph::explore(
            &p,
            &[p.initial_config_unary(30)],
            &ExploreLimits::with_max_configs(3),
        );
        assert!(!g.is_complete());
        assert!(g.len() <= 5);
        // Unexpanded frontier nodes have well-defined (empty) adjacency.
        for id in g.ids() {
            let _ = g.successors_of(id);
            let _ = g.predecessors_of(id);
        }
    }

    #[test]
    fn id_lookup_roundtrip() {
        let p = threshold2_protocol();
        let ic = p.initial_config_unary(2);
        let g =
            ReachabilityGraph::explore(&p, std::slice::from_ref(&ic), &ExploreLimits::default());
        let id = g.id_of(&ic).unwrap();
        assert_eq!(g.config(id), ic);
        assert!(g.id_of(&Config::from_counts(vec![9, 9, 9])).is_none());
    }

    #[test]
    fn multiple_initial_configurations() {
        let p = threshold2_protocol();
        let g = ReachabilityGraph::explore(
            &p,
            &[p.initial_config_unary(2), p.initial_config_unary(2)],
            &ExploreLimits::default(),
        );
        // Duplicate initial configurations are collapsed.
        assert_eq!(g.initial_ids().len(), 1);
    }

    /// The 4-state binary counter (decides x ≥ 4), whose slices are larger
    /// than the 3-state protocol's.
    fn counter4_protocol() -> Protocol {
        let mut b = ProtocolBuilder::new("counter");
        let one = b.add_state("1", Output::False);
        let two = b.add_state("2", Output::False);
        let four = b.add_state("4", Output::True);
        let zero = b.add_state("0", Output::False);
        b.add_transition((one, one), (two, zero)).unwrap();
        b.add_transition((two, two), (four, zero)).unwrap();
        b.add_transition((zero, four), (four, four)).unwrap();
        b.add_transition((one, four), (four, four)).unwrap();
        b.add_transition((two, four), (four, four)).unwrap();
        b.set_input_state("x", one);
        b.build().unwrap()
    }

    #[test]
    fn exploring_into_dirty_buffers_matches_a_fresh_exploration() {
        let small = threshold2_protocol();
        let large = counter4_protocol();
        let full = ExploreLimits::default();
        let tight = ExploreLimits::with_max_configs(5);
        let mut reused = ReachabilityGraph::empty();
        // Each slice is explored into the buffers the one before left
        // behind: larger slices, another dimension and truncated ones.
        for (p, input, limits) in [
            (&large, 16, &full),
            (&small, 3, &full),
            (&large, 9, &tight),
            (&large, 5, &full),
            (&small, 12, &tight),
            (&small, 2, &full),
        ] {
            let ic = p.initial_config_unary(input);
            let row: Vec<u32> = ic.counts().iter().map(|&c| c as u32).collect();
            let fresh = ReachabilityGraph::explore(p, &[ic], limits);
            reused.explore_into(p.num_states(), &transition_deltas(p), &row, limits);
            assert_eq!(reused.len(), fresh.len(), "slice {input}");
            assert_eq!(reused.is_complete(), fresh.is_complete());
            assert_eq!(reused.initial_ids(), fresh.initial_ids());
            assert_eq!(reused.arena().num_states(), p.num_states());
            for id in fresh.ids() {
                assert_eq!(reused.counts_of(id), fresh.counts_of(id));
                assert_eq!(reused.successors_of(id), fresh.successors_of(id));
                assert_eq!(reused.predecessors_of(id), fresh.predecessors_of(id));
            }
        }
    }

    #[test]
    fn csr_edges_are_deduplicated_and_transposed() {
        let p = threshold2_protocol();
        let g =
            ReachabilityGraph::explore(&p, &[p.initial_config_unary(4)], &ExploreLimits::default());
        let mut forward = 0;
        for id in g.ids() {
            let succ = g.successors_of(id);
            let mut sorted = succ.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), succ.len(), "duplicate successor edge");
            forward += succ.len();
            for &s in succ {
                assert!(
                    g.predecessors_of(s).contains(&id),
                    "missing transposed edge {id} -> {s}"
                );
            }
        }
        assert_eq!(forward, g.succ.len());
        let backward: usize = g.ids().map(|id| g.predecessors_of(id).len()).sum();
        assert_eq!(forward, backward);
    }
}
