//! Frontier-compressed exploration: exact reachability analysis without a
//! stored adjacency structure.
//!
//! [`ReachabilityGraph`](crate::graph::ReachabilityGraph) keeps two CSR
//! arrays (successors and their transpose) over the arena identifiers — `8`
//! bytes per directed edge.  On
//! large slices the edge set dwarfs the configuration set
//! (`binary_counter(3)` at input 80 has 411k configurations but ~2.55M
//! edges), so the adjacency dominates peak memory even though it is only
//! ever *derived* data: every edge is recomputable in `O(|Q|)` from the
//! transition deltas and the interned count rows.
//!
//! [`FrontierGraph`] therefore stores nothing but the arena.  Exploration
//! expands the implicit BFS frontier exactly like the CSR explorer (same
//! interning order, same identifiers, same truncation behaviour) but
//! discards each node's successor list as soon as the successors are
//! interned; the per-level adjacency is "folded" into the arena and never
//! materialised again.  The closures the verification layer needs —
//! backward bitset fixpoints towards stable sets — are computed by
//! *regenerating* predecessor edges on demand: a predecessor of `C` under
//! transition `(p₀,p₁) ↦ (q₀,q₁)` is `C − post + pre`, interned iff
//! reachable, and the regenerated edge set provably equals the CSR edge set
//! (see `crates/reach/README.md` for the argument).  Peak memory is the
//! arena plus a handful of bitsets, instead of the arena plus the full edge
//! structure.
//!
//! [`frontier_threshold_profile`] is the drop-in replacement for
//! [`unary_threshold_profile`] on this engine and produces **bit-identical**
//! [`ThresholdProfile`]s (equality is part of the test suite), so the
//! busy-beaver pipeline may run either: one `PipelineConfig::engine`
//! applies to every slice of a pipeline.
//!
//! [`unary_threshold_profile`]: crate::verify::unary_threshold_profile

use crate::arena::ConfigArena;
use crate::bitset::BitSet;
use crate::graph::ExploreLimits;
use crate::stable::StableSets;
use crate::verify::{profile_inputs, InputProfile, ThresholdProfile};
use popproto_model::{Config, Output, Protocol};

/// An exactly explored slice without stored adjacency: configurations are
/// interned in BFS discovery order (identical to [`ReachabilityGraph`]'s
/// identifiers) and every graph question is answered by regenerating edges
/// from the transition deltas.
///
/// [`ReachabilityGraph`]: crate::graph::ReachabilityGraph
#[derive(Debug, Clone)]
pub struct FrontierGraph {
    arena: ConfigArena,
    /// Non-silent transitions as raw state-index deltas
    /// `(pre0, pre1, post0, post1)`.
    deltas: Vec<[usize; 4]>,
    initial: Vec<u32>,
    /// Identifiers `< expanded` had their successors generated; a truncated
    /// exploration leaves a suffix of discovered-but-unexpanded nodes, which
    /// (as in the CSR explorer) have no outgoing edges.
    expanded: usize,
    complete: bool,
    /// Largest `arena.heap_bytes()` plus transient scratch observed while
    /// exploring (monotone in practice, recorded for the benches).
    peak_bytes: usize,
}

impl FrontierGraph {
    /// Explores the configuration space reachable from `initial` under
    /// `protocol`, up to the given limits, storing no adjacency.
    ///
    /// The interning order — and therefore every identifier — matches
    /// [`ReachabilityGraph::explore`] exactly.
    ///
    /// [`ReachabilityGraph::explore`]: crate::graph::ReachabilityGraph::explore
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

        let deltas = crate::graph::transition_deltas(protocol);

        let mut current: Vec<u32> = vec![0; n];
        let mut scratch: Vec<u32> = vec![0; n];
        let mut complete = true;
        let mut head: usize = 0;
        while head < arena.len() {
            if arena.len() > limits.max_configs {
                complete = false;
                break;
            }
            let id = head as u32;
            head += 1;
            current.copy_from_slice(arena.counts_of(id));
            for &[p0, p1, q0, q1] in &deltas {
                let enabled = if p0 == p1 {
                    current[p0] >= 2
                } else {
                    current[p0] >= 1 && current[p1] >= 1
                };
                if !enabled {
                    continue;
                }
                scratch.copy_from_slice(&current);
                scratch[p0] -= 1;
                scratch[p1] -= 1;
                scratch[q0] += 1;
                scratch[q1] += 1;
                arena.intern(&scratch);
            }
        }
        let peak_bytes = arena.heap_bytes() + 2 * n * std::mem::size_of::<u32>();
        FrontierGraph {
            arena,
            deltas,
            initial: initial_ids,
            expanded: head,
            complete,
            peak_bytes,
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

    /// Identifiers of the initial configurations.
    pub fn initial_ids(&self) -> &[u32] {
        &self.initial
    }

    /// The raw count slice of the configuration with identifier `id`.
    pub fn counts_of(&self, id: u32) -> &[u32] {
        self.arena.counts_of(id)
    }

    /// The configuration with identifier `id`, materialised.
    pub fn config(&self, id: u32) -> Config {
        self.arena.config(id)
    }

    /// Peak heap bytes observed across exploration and the closures computed
    /// so far: the arena plus transient bitsets — never an edge structure.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// The set of identifiers backward-reachable from `targets` (including
    /// them), with predecessor edges regenerated from the transition deltas
    /// instead of read from a stored transpose.
    ///
    /// Produces exactly the set [`ReachabilityGraph::backward_closure_of`]
    /// produces on the same slice: a regenerated edge `u → v` exists iff
    /// `u` was expanded, `v = u − pre + post` for a non-silent transition,
    /// and both are reachable — the CSR edge relation.
    ///
    /// [`ReachabilityGraph::backward_closure_of`]: crate::graph::ReachabilityGraph::backward_closure_of
    pub fn backward_closure_of(&mut self, targets: &BitSet) -> BitSet {
        let n = self.arena.num_states();
        let mut seen = BitSet::new(self.len());
        let mut stack: Vec<u32> = Vec::new();
        for id in targets.iter() {
            if seen.insert(id) {
                stack.push(id);
            }
        }
        let mut scratch: Vec<u32> = vec![0; n];
        let mut stack_peak = stack.len();
        while let Some(v) = stack.pop() {
            for &[p0, p1, q0, q1] in &self.deltas {
                // The predecessor candidate u = v − post + pre; valid only if
                // v actually holds the post tokens.  u then has the pre
                // tokens by construction, so the transition is enabled in u
                // and fires u → v.
                scratch.copy_from_slice(self.arena.counts_of(v));
                if q0 == q1 {
                    if scratch[q0] < 2 {
                        continue;
                    }
                    scratch[q0] -= 2;
                } else {
                    if scratch[q0] < 1 || scratch[q1] < 1 {
                        continue;
                    }
                    scratch[q0] -= 1;
                    scratch[q1] -= 1;
                }
                scratch[p0] += 1;
                scratch[p1] += 1;
                if let Some(u) = self.arena.lookup(&scratch) {
                    // Unexpanded frontier nodes of a truncated exploration
                    // have no outgoing edges (CSR semantics).
                    if (u as usize) < self.expanded && seen.insert(u) {
                        stack.push(u);
                    }
                }
            }
            stack_peak = stack_peak.max(stack.len());
        }
        self.peak_bytes = self.peak_bytes.max(
            self.arena.heap_bytes()
                + seen.heap_bytes() * 2
                + stack_peak * std::mem::size_of::<u32>(),
        );
        seen
    }

    /// The b-stable sets of the explored slice, computed with regenerated
    /// backward closures — same contract as [`StableSets::compute`], same
    /// result (the classification pass is literally shared with it).
    pub fn stable_sets(&mut self, protocol: &Protocol) -> StableSets {
        let (bad_for_0, bad_for_1) = crate::stable::classify_bad_sets(protocol, &self.arena);
        let stable0 = self.backward_closure_of(&bad_for_0).complement();
        let stable1 = self.backward_closure_of(&bad_for_1).complement();
        StableSets::from_parts(stable0, stable1)
    }
}

/// [`unary_threshold_profile`] on the frontier-compressed engine: profiles a
/// unary protocol on all inputs `2 ≤ i ≤ max_input`, exploring each slice
/// exactly once, with the same early-stop logic and a **bit-identical**
/// resulting [`ThresholdProfile`].
///
/// [`unary_threshold_profile`]: crate::verify::unary_threshold_profile
pub fn frontier_threshold_profile(
    protocol: &Protocol,
    max_input: u64,
    limits: &ExploreLimits,
) -> ThresholdProfile {
    profile_inputs(max_input, |i| {
        let ic = protocol.initial_config_unary(i);
        let mut graph = FrontierGraph::explore(protocol, std::slice::from_ref(&ic), limits);
        let stable = graph.stable_sets(protocol);
        let mut settles = |b: Output| {
            let targets = stable.bitset(b);
            !targets.is_clear() && graph.backward_closure_of(targets).first_absent().is_none()
        };
        InputProfile {
            input: i,
            rejects: settles(Output::False),
            accepts: settles(Output::True),
            exhaustive: graph.is_complete(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ReachabilityGraph;
    use crate::verify::unary_threshold_profile;
    use popproto_model::{Output, ProtocolBuilder};
    use popproto_zoo_free::*;

    /// Tiny local zoo so the reach crate needs no dev-dependency on zoo.
    mod popproto_zoo_free {
        use popproto_model::{Output, Protocol, ProtocolBuilder};

        pub fn threshold2_protocol() -> Protocol {
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

        /// The 4-state binary counter P'_2 (decides x ≥ 4): a protocol with
        /// genuinely mixed settling behaviour and larger slices.
        pub(crate) fn counter4_protocol() -> Protocol {
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
    }

    #[test]
    fn frontier_exploration_matches_csr_ids_exactly() {
        let limits = ExploreLimits::default();
        for p in [threshold2_protocol(), counter4_protocol()] {
            for input in [2u64, 5, 9] {
                let ic = p.initial_config_unary(input);
                let csr = ReachabilityGraph::explore(&p, std::slice::from_ref(&ic), &limits);
                let frontier = FrontierGraph::explore(&p, &[ic], &limits);
                assert_eq!(csr.len(), frontier.len(), "{} @ {input}", p.name());
                assert_eq!(csr.is_complete(), frontier.is_complete());
                assert_eq!(csr.initial_ids(), frontier.initial_ids());
                for id in 0..csr.len() as u32 {
                    assert_eq!(
                        csr.counts_of(id),
                        frontier.counts_of(id),
                        "{} @ {input}: config {id} differs",
                        p.name()
                    );
                }
            }
        }
    }

    #[test]
    fn regenerated_backward_closures_match_csr() {
        let limits = ExploreLimits::default();
        for p in [threshold2_protocol(), counter4_protocol()] {
            for input in [3u64, 6, 8] {
                let ic = p.initial_config_unary(input);
                let csr = ReachabilityGraph::explore(&p, std::slice::from_ref(&ic), &limits);
                let mut frontier = FrontierGraph::explore(&p, std::slice::from_ref(&ic), &limits);
                // Seed closures from every singleton and from the terminal set.
                for id in 0..csr.len() as u32 {
                    let mut seed = BitSet::new(csr.len());
                    seed.insert(id);
                    assert_eq!(
                        csr.backward_closure_of(&seed),
                        frontier.backward_closure_of(&seed),
                        "{} @ {input}: closure from {id} differs",
                        p.name()
                    );
                }
            }
        }
    }

    #[test]
    fn truncated_exploration_matches_csr_closures() {
        let p = counter4_protocol();
        for cap in [1usize, 4, 20] {
            let limits = ExploreLimits::with_max_configs(cap);
            let ic = p.initial_config_unary(12);
            let csr = ReachabilityGraph::explore(&p, std::slice::from_ref(&ic), &limits);
            let mut frontier = FrontierGraph::explore(&p, std::slice::from_ref(&ic), &limits);
            assert_eq!(csr.len(), frontier.len(), "cap {cap}");
            assert!(!frontier.is_complete());
            for id in 0..csr.len() as u32 {
                let mut seed = BitSet::new(csr.len());
                seed.insert(id);
                assert_eq!(
                    csr.backward_closure_of(&seed),
                    frontier.backward_closure_of(&seed),
                    "cap {cap}: closure from {id} differs"
                );
            }
        }
    }

    #[test]
    fn stable_sets_match_the_csr_computation() {
        let limits = ExploreLimits::default();
        for p in [threshold2_protocol(), counter4_protocol()] {
            for input in [3u64, 7] {
                let ic = p.initial_config_unary(input);
                let csr = ReachabilityGraph::explore(&p, std::slice::from_ref(&ic), &limits);
                let expected = StableSets::compute(&p, &csr);
                let mut frontier = FrontierGraph::explore(&p, std::slice::from_ref(&ic), &limits);
                let got = frontier.stable_sets(&p);
                for b in [Output::False, Output::True] {
                    assert_eq!(
                        expected.bitset(b),
                        got.bitset(b),
                        "{} @ {input}: SC_{b} differs",
                        p.name()
                    );
                }
            }
        }
    }

    #[test]
    fn threshold_profiles_are_bit_identical() {
        let limits = ExploreLimits::default();
        for (p, max_input) in [(threshold2_protocol(), 8u64), (counter4_protocol(), 9)] {
            let csr = unary_threshold_profile(&p, max_input, &limits);
            let frontier = frontier_threshold_profile(&p, max_input, &limits);
            assert_eq!(csr.max_input, frontier.max_input);
            assert_eq!(csr.conclusive, frontier.conclusive);
            assert_eq!(csr.inputs.len(), frontier.inputs.len());
            for (a, b) in csr.inputs.iter().zip(&frontier.inputs) {
                assert_eq!(a.input, b.input);
                assert_eq!(a.rejects, b.rejects, "{} @ {}", p.name(), a.input);
                assert_eq!(a.accepts, b.accepts, "{} @ {}", p.name(), a.input);
                assert_eq!(a.exhaustive, b.exhaustive);
            }
            assert_eq!(csr.verified_threshold(), frontier.verified_threshold());
        }
        // Truncated slices must stay bit-identical too.
        let p = counter4_protocol();
        let tight = ExploreLimits::with_max_configs(3);
        let csr = unary_threshold_profile(&p, 30, &tight);
        let frontier = frontier_threshold_profile(&p, 30, &tight);
        assert_eq!(csr.conclusive, frontier.conclusive);
        assert_eq!(csr.inputs.len(), frontier.inputs.len());
    }

    #[test]
    fn peak_bytes_stay_below_the_dense_graph() {
        // A slice big enough that the edge structure dominates: the frontier
        // engine must report a strictly smaller peak than arena + CSR.
        let p = counter4_protocol();
        let limits = ExploreLimits::default();
        let ic = p.initial_config_unary(60);
        let csr = ReachabilityGraph::explore(&p, std::slice::from_ref(&ic), &limits);
        let mut frontier = FrontierGraph::explore(&p, std::slice::from_ref(&ic), &limits);
        let _ = frontier.stable_sets(&p);
        assert!(csr.is_complete() && frontier.is_complete());
        assert!(
            frontier.peak_bytes() < csr.heap_bytes(),
            "frontier {} >= dense {}",
            frontier.peak_bytes(),
            csr.heap_bytes()
        );
    }

    #[test]
    fn never_accepting_protocol_profiles_identically() {
        let mut b = ProtocolBuilder::new("never");
        let s = b.add_state("s", Output::False);
        b.set_input_state("x", s);
        let p = b.build().unwrap();
        let limits = ExploreLimits::default();
        let csr = unary_threshold_profile(&p, 6, &limits);
        let frontier = frontier_threshold_profile(&p, 6, &limits);
        assert_eq!(csr.verified_threshold(), None);
        assert_eq!(frontier.verified_threshold(), None);
        assert_eq!(csr.conclusive, frontier.conclusive);
    }
}
