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
/// `(pre0, pre1, post0, post1)`, in transition order.
///
/// Shared by the CSR and the frontier-compressed explorers: their
/// bit-identity contract depends on both applying the *same* delta list in
/// the same order.
pub(crate) fn transition_deltas(protocol: &Protocol) -> Vec<[usize; 4]> {
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
    pub fn explore(protocol: &Protocol, initial: &[Config], limits: &ExploreLimits) -> Self {
        let n = protocol.num_states();
        let mut arena = ConfigArena::new(n);
        let mut initial_ids: Vec<u32> = Vec::new();
        for c in initial {
            let (id, _) = arena.intern_config(c);
            if !initial_ids.contains(&id) {
                initial_ids.push(id);
            }
        }

        let deltas = transition_deltas(protocol);

        let mut succ_off: Vec<u32> = vec![0];
        let mut succ: Vec<u32> = Vec::new();
        let mut current: Vec<u32> = vec![0; n];
        let mut scratch: Vec<u32> = vec![0; n];
        let mut complete = true;

        // Identifiers are assigned in discovery order, so the BFS queue is
        // implicit: process ids `0, 1, 2, …` until the frontier is exhausted.
        let mut head: usize = 0;
        while head < arena.len() {
            if arena.len() > limits.max_configs {
                complete = false;
                break;
            }
            let id = head as u32;
            head += 1;
            current.copy_from_slice(arena.counts_of(id));
            let base = succ.len();
            for &[p0, p1, q0, q1] in &deltas {
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
        succ_off.resize(arena.len() + 1, succ.len() as u32);

        // Transpose into the predecessor CSR.
        let num = arena.len();
        let mut pred_off = vec![0u32; num + 1];
        for &dst in &succ {
            pred_off[dst as usize + 1] += 1;
        }
        for i in 1..pred_off.len() {
            pred_off[i] += pred_off[i - 1];
        }
        let mut pred = vec![0u32; succ.len()];
        let mut cursor: Vec<u32> = pred_off[..num].to_vec();
        for src in 0..num {
            let (lo, hi) = (succ_off[src] as usize, succ_off[src + 1] as usize);
            for &dst in &succ[lo..hi] {
                pred[cursor[dst as usize] as usize] = src as u32;
                cursor[dst as usize] += 1;
            }
        }

        ReachabilityGraph {
            arena,
            succ_off,
            succ,
            pred_off,
            pred,
            initial: initial_ids,
            complete,
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
        self.closure(targets.iter().copied())
    }

    /// Backward closure seeded by a bitset instead of an id list.
    pub fn backward_closure_of(&self, targets: &BitSet) -> BitSet {
        self.closure(targets.iter())
    }

    fn closure(&self, seeds: impl Iterator<Item = u32>) -> BitSet {
        let mut seen = BitSet::new(self.len());
        let mut stack: Vec<u32> = Vec::new();
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
        seen
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
