//! A faithful reimplementation of the *seed's* reachability, stable-set,
//! verification and busy-beaver-enumeration stack, kept as the reference
//! semantics for the old-vs-new equivalence tests.
//!
//! Characteristics reproduced on purpose (these are the costs the arena/CSR
//! refactor removed — do not "fix" them here):
//!
//! * configurations are interned by cloning each [`Config`] into both a
//!   `Vec<Config>` and a `HashMap<Config, usize>`;
//! * adjacency is `Vec<Vec<usize>>` with a linear `contains` per edge insert;
//! * closures walk `Vec<bool>` seen-arrays;
//! * `naive_verified_threshold` re-explores **every** input slice for every
//!   candidate threshold `η` (the quadratic loop the [`ThresholdProfile`]
//!   replaces);
//! * `naive_busy_beaver_search` runs strictly sequentially and, in its
//!   default full-space mode, enumerates every input-state choice (each of
//!   which is isomorphic to an input-state-0 candidate).
//!
//! [`ThresholdProfile`]: popproto_reach::ThresholdProfile

use popproto_model::{Config, Output, Protocol, ProtocolBuilder, StateId};
use popproto_reach::ExploreLimits;
use std::collections::HashMap;

/// The seed's reachability graph: `HashMap` interning, nested-`Vec` adjacency.
#[derive(Debug, Clone)]
pub struct NaiveReachabilityGraph {
    configs: Vec<Config>,
    index: HashMap<Config, usize>,
    successors: Vec<Vec<usize>>,
    predecessors: Vec<Vec<usize>>,
    initial: Vec<usize>,
    complete: bool,
}

impl NaiveReachabilityGraph {
    /// The seed's BFS exploration, verbatim.
    pub fn explore(protocol: &Protocol, initial: &[Config], limits: &ExploreLimits) -> Self {
        let mut graph = NaiveReachabilityGraph {
            configs: Vec::new(),
            index: HashMap::new(),
            successors: Vec::new(),
            predecessors: Vec::new(),
            initial: Vec::new(),
            complete: true,
        };
        let mut queue: Vec<usize> = Vec::new();
        for c in initial {
            let id = graph.intern(c.clone());
            if !graph.initial.contains(&id) {
                graph.initial.push(id);
            }
            queue.push(id);
        }
        let mut head = 0;
        while head < queue.len() {
            let id = queue[head];
            head += 1;
            if graph.configs.len() > limits.max_configs {
                graph.complete = false;
                break;
            }
            let current = graph.configs[id].clone();
            for next in protocol.successors(&current) {
                let known = graph.index.contains_key(&next);
                let next_id = graph.intern(next);
                if !graph.successors[id].contains(&next_id) {
                    graph.successors[id].push(next_id);
                    graph.predecessors[next_id].push(id);
                }
                if !known {
                    queue.push(next_id);
                }
            }
        }
        graph
    }

    fn intern(&mut self, c: Config) -> usize {
        if let Some(&id) = self.index.get(&c) {
            return id;
        }
        let id = self.configs.len();
        self.index.insert(c.clone(), id);
        self.configs.push(c);
        self.successors.push(Vec::new());
        self.predecessors.push(Vec::new());
        id
    }

    /// Number of configurations explored.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// Returns `true` if the exploration terminated without hitting limits.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// The configuration with internal identifier `id`.
    pub fn config(&self, id: usize) -> &Config {
        &self.configs[id]
    }

    /// Identifiers of the initial configurations.
    pub fn initial_ids(&self) -> &[usize] {
        &self.initial
    }

    /// Successor identifiers of a configuration.
    pub fn successors_of(&self, id: usize) -> &[usize] {
        &self.successors[id]
    }

    /// Predecessor identifiers of a configuration.
    pub fn predecessors_of(&self, id: usize) -> &[usize] {
        &self.predecessors[id]
    }

    /// Identifiers of terminal (silent) configurations.
    pub fn terminal_ids(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.successors[i].is_empty())
            .collect()
    }

    /// The set of identifiers backward-reachable from `targets`.
    pub fn backward_closure(&self, targets: &[usize]) -> Vec<bool> {
        let mut seen = vec![false; self.len()];
        let mut stack: Vec<usize> = targets.to_vec();
        for &s in targets {
            seen[s] = true;
        }
        while let Some(id) = stack.pop() {
            for &next in &self.predecessors[id] {
                if !seen[next] {
                    seen[next] = true;
                    stack.push(next);
                }
            }
        }
        seen
    }
}

/// The seed's stable sets: per-id `Vec<bool>` flags.
#[derive(Debug, Clone)]
pub struct NaiveStableSets {
    /// `stable0[id]` is `true` iff configuration `id` is 0-stable.
    pub stable0: Vec<bool>,
    /// `stable1[id]` is `true` iff configuration `id` is 1-stable.
    pub stable1: Vec<bool>,
}

impl NaiveStableSets {
    /// Computes the stable sets of all configurations in the graph.
    pub fn compute(protocol: &Protocol, graph: &NaiveReachabilityGraph) -> Self {
        NaiveStableSets {
            stable0: Self::compute_for(protocol, graph, Output::False),
            stable1: Self::compute_for(protocol, graph, Output::True),
        }
    }

    fn compute_for(protocol: &Protocol, graph: &NaiveReachabilityGraph, b: Output) -> Vec<bool> {
        let bad: Vec<usize> = (0..graph.len())
            .filter(|&id| {
                graph
                    .config(id)
                    .iter()
                    .any(|(q, _)| protocol.output_of(q) != b)
            })
            .collect();
        let can_reach_bad = graph.backward_closure(&bad);
        can_reach_bad.iter().map(|&r| !r).collect()
    }

    /// Identifiers of the b-stable configurations.
    pub fn stable_ids(&self, b: Output) -> Vec<usize> {
        let v = match b {
            Output::False => &self.stable0,
            Output::True => &self.stable1,
        };
        v.iter()
            .enumerate()
            .filter(|(_, &s)| s)
            .map(|(id, _)| id)
            .collect()
    }
}

/// The seed's per-input verification verdict (the fields the equivalence
/// tests compare).
#[derive(Debug, Clone, PartialEq)]
pub struct NaiveVerdict {
    /// The unary input checked.
    pub input: u64,
    /// The expected output `i ≥ η`.
    pub expected: bool,
    /// Seed notion of correctness on this slice.
    pub correct: bool,
    /// Whether the slice exploration was exhaustive.
    pub exhaustive: bool,
    /// Number of reachable configurations.
    pub reachable_configs: usize,
    /// Number of reachable `φ(i)`-stable configurations.
    pub stable_configs: usize,
}

/// The seed's unary-threshold verification: one exploration + stable-set
/// computation + backward closure per input.
pub fn naive_verify_unary_threshold(
    protocol: &Protocol,
    eta: u64,
    max_input: u64,
    limits: &ExploreLimits,
) -> Vec<NaiveVerdict> {
    (2..=max_input)
        .map(|i| {
            let expected = i >= eta;
            let expected_output = Output::from_bool(expected);
            let ic = protocol.initial_config_unary(i);
            let graph = NaiveReachabilityGraph::explore(protocol, &[ic], limits);
            let stable = NaiveStableSets::compute(protocol, &graph);
            let target_ids = stable.stable_ids(expected_output);
            let can_reach_target = graph.backward_closure(&target_ids);
            let counterexample = (0..graph.len()).find(|&id| !can_reach_target[id]);
            NaiveVerdict {
                input: i,
                expected,
                correct: counterexample.is_none() && !target_ids.is_empty(),
                exhaustive: graph.is_complete(),
                reachable_configs: graph.len(),
                stable_configs: target_ids.len(),
            }
        })
        .collect()
}

/// The seed's `verified_threshold`: re-explores every slice for every
/// candidate `η` (quadratic in `max_input`).
pub fn naive_verified_threshold(
    protocol: &Protocol,
    max_input: u64,
    limits: &ExploreLimits,
) -> Option<u64> {
    for eta in 2..=max_input {
        let verdicts = naive_verify_unary_threshold(protocol, eta, max_input, limits);
        if verdicts.iter().all(|v| v.correct && v.exhaustive) {
            if eta < max_input {
                return Some(eta);
            }
            return None;
        }
    }
    None
}

/// The seed's enumeration result (subset of fields).
#[derive(Debug, Clone)]
pub struct NaiveEnumerationResult {
    /// The largest verified threshold found.
    pub best_eta: Option<u64>,
    /// A protocol witnessing `best_eta`.
    pub witness: Option<Protocol>,
    /// Number of candidates examined.
    pub protocols_examined: u64,
    /// Number of candidates computing some verified threshold.
    pub threshold_protocols: u64,
}

/// The seed's sequential, unpruned busy-beaver search.
///
/// With `fix_input_state = false` this is the seed's exact candidate order:
/// transition functions outermost, then output assignments, then every
/// input-state choice.  With `fix_input_state = true` the input is pinned to
/// state 0, which makes the candidate order *identical* to the refactored
/// search's global index (function · 2ⁿ + outputs) — the mode the
/// capped-prefix equivalence tests rely on.
pub fn naive_busy_beaver_search(
    num_states: usize,
    max_input: u64,
    max_protocols: u64,
    limits: &ExploreLimits,
    fix_input_state: bool,
) -> NaiveEnumerationResult {
    let pairs: Vec<(usize, usize)> = (0..num_states)
        .flat_map(|a| (a..num_states).map(move |b| (a, b)))
        .collect();
    let posts: Vec<(usize, usize)> = pairs.clone();
    let num_pairs = pairs.len();
    let choices = posts.len() as u64;

    let mut result = NaiveEnumerationResult {
        best_eta: None,
        witness: None,
        protocols_examined: 0,
        threshold_protocols: 0,
    };

    let total_functions = (choices as u128).pow(num_pairs as u32);
    let mut function_index: u128 = 0;
    'outer: while function_index < total_functions {
        let mut assignment = Vec::with_capacity(num_pairs);
        let mut rest = function_index;
        for _ in 0..num_pairs {
            assignment.push((rest % choices as u128) as usize);
            rest /= choices as u128;
        }
        let input_states = if fix_input_state { 1 } else { num_states };
        for outputs in 0..(1u32 << num_states) {
            for input_state in 0..input_states {
                if result.protocols_examined >= max_protocols {
                    break 'outer;
                }
                result.protocols_examined += 1;
                let protocol = naive_build_candidate(
                    num_states,
                    &pairs,
                    &posts,
                    &assignment,
                    outputs,
                    input_state,
                );
                if let Some(eta) = naive_verified_threshold(&protocol, max_input, limits) {
                    result.threshold_protocols += 1;
                    if result.best_eta.is_none_or(|best| eta > best) {
                        result.best_eta = Some(eta);
                        result.witness = Some(protocol);
                    }
                }
            }
        }
        function_index += 1;
    }
    result
}

fn naive_build_candidate(
    num_states: usize,
    pairs: &[(usize, usize)],
    posts: &[(usize, usize)],
    assignment: &[usize],
    outputs: u32,
    input_state: usize,
) -> Protocol {
    let mut b = ProtocolBuilder::new(format!("enum-{num_states}"));
    let states: Vec<StateId> = (0..num_states)
        .map(|i| b.add_state(format!("s{i}"), Output::from_bool((outputs >> i) & 1 == 1)))
        .collect();
    for (pair, &post_idx) in pairs.iter().zip(assignment) {
        let post = posts[post_idx];
        if *pair == post {
            continue; // implicit no-op
        }
        b.add_transition_idempotent(
            (states[pair.0], states[pair.1]),
            (states[post.0], states[post.1]),
        )
        .expect("states were just declared");
    }
    b.set_input_state("x", states[input_state]);
    b.build().expect("candidate construction is well-formed")
}
