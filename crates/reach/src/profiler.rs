//! The concrete-slice threshold profile, with the explored slices of the
//! last transition structure kept for the next output pattern.
//!
//! A slice's reachability graph depends on the transitions alone: the
//! outputs only decide which configurations are bad for each stable set, and
//! so where the backward closures start.  A busy-beaver search offers every
//! output pattern of one transition structure in a row, so
//! [`SliceProfiler`] keeps the CSR graph of each slice it explored for the
//! last structure, with one populated-state bitmask per configuration.  A
//! further output pattern classifies the bad configurations with one mask
//! test each and runs the backward closures on reused scratch: it explores no
//! cached slice again.
//!
//! [`unary_threshold_profile`](crate::verify::unary_threshold_profile) is
//! one call on a fresh profiler, so a reused profiler gives the free
//! function's profile whatever the order of its calls.

use crate::bitset::BitSet;
use crate::graph::{transition_deltas, ExploreLimits, ReachabilityGraph};
use crate::stable::{classify, output_masks, populated_masks};
use crate::verify::{profile_inputs, InputProfile, ThresholdProfile};
use popproto_model::{Output, Protocol};

/// Cap on the heap bytes of the slices one profiler keeps.  A slice that
/// would pass it is explored into a spare buffer instead, as is every larger
/// input of that structure, so a profile of large slices holds the cap plus
/// one slice rather than all of its slices.
const CACHE_BYTES: usize = 1 << 24;

/// A protocol as the slice profiler and the symbolic pre-filters read it:
/// the leader count of every state, the input states, the output of every
/// state and the non-silent transitions.
///
/// A caller that holds its candidates in another encoding fills it directly
/// and never builds a [`Protocol`]; [`FlatProtocol::load`] writes the view
/// of a [`Protocol`].  [`SliceProfiler::profile_flat`] reads the first
/// input state; the pre-filters put `ω` agents on every input state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlatProtocol {
    /// The leader count of every state; its length is the state count.
    pub leaders: Vec<u32>,
    /// The state `I(x)` of every input variable `x`, in declaration order.
    pub inputs: Vec<usize>,
    /// `accepts[q]` iff state `q` has output `1`.
    pub accepts: Vec<bool>,
    /// The non-silent transitions in order, as written by
    /// [`transition_deltas`].
    pub transitions: Vec<[usize; 4]>,
}

impl FlatProtocol {
    /// Overwrites this view with that of `protocol`, reusing its buffers.
    ///
    /// # Panics
    ///
    /// Panics if a leader count exceeds `u32::MAX`.
    pub fn load(&mut self, protocol: &Protocol) {
        self.leaders.clear();
        self.leaders.extend(
            protocol
                .leaders()
                .counts()
                .iter()
                .map(|&c| u32::try_from(c).expect("count exceeds the arena's u32 range")),
        );
        self.inputs.clear();
        self.inputs.extend(
            protocol
                .input_variables()
                .iter()
                .map(|var| var.state.index()),
        );
        self.accepts.clear();
        self.accepts.extend(
            protocol
                .states()
                .iter()
                .map(|state| state.output == Output::True),
        );
        self.transitions = transition_deltas(protocol);
    }
}

/// The concrete-slice profile with its working memory: the explored slices
/// of the last transition structure, and the scratch of the closures.
///
/// The cached slices are a function of the leader counts, the first input
/// state, the ordered non-silent transitions and
/// [`ExploreLimits::max_configs`]; a call with another of these drops them
/// and reuses their buffers.  Each slice is explored the first time a call
/// needs it, so a profile that stops early leaves the larger inputs for a
/// later call to explore.
///
/// # Examples
///
/// ```
/// use popproto_model::{Output, ProtocolBuilder};
/// use popproto_reach::{unary_threshold_profile, ExploreLimits, SliceProfiler};
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
/// let limits = ExploreLimits::default();
/// let mut profiler = SliceProfiler::default();
/// let profile = profiler.profile(&p, 6, &limits);
/// assert_eq!(profile.verified_threshold(), Some(2));
/// assert_eq!(profile, unary_threshold_profile(&p, 6, &limits));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct SliceProfiler {
    /// The view of the protocol of the current [`SliceProfiler::profile`]
    /// call.
    view: FlatProtocol,
    /// The key of the cached slices.
    leaders: Vec<u32>,
    input: usize,
    transitions: Vec<[usize; 4]>,
    max_configs: usize,
    /// `slices[j]` holds the slice of input `j + 2` for `j < cached`; the
    /// slot after them is the spare buffer of slices past the cache.
    slices: Vec<Slice>,
    cached: usize,
    cached_bytes: usize,
    /// The initial configuration of the slice being explored.
    row: Vec<u32>,
    /// The states of output 1 and of output 0, as masks.
    accepting: Vec<u64>,
    rejecting: Vec<u64>,
    /// Closure scratch.
    seeds: BitSet,
    closure: BitSet,
    stack: Vec<u32>,
}

/// One explored slice.
#[derive(Debug)]
struct Slice {
    graph: ReachabilityGraph,
    /// The [`populated_masks`] of the graph's configurations.
    populated: Vec<u64>,
}

impl SliceProfiler {
    /// [`unary_threshold_profile`](crate::verify::unary_threshold_profile)
    /// on this profiler's working memory.
    pub fn profile(
        &mut self,
        protocol: &Protocol,
        max_input: u64,
        limits: &ExploreLimits,
    ) -> ThresholdProfile {
        let mut view = std::mem::take(&mut self.view);
        view.load(protocol);
        let profile = self.profile_flat(&view, max_input, limits);
        self.view = view;
        profile
    }

    /// The profile of the protocol `view` describes, on this profiler's
    /// working memory.
    ///
    /// # Panics
    ///
    /// Panics if the view has no input state, or if a slice's input count
    /// does not fit `u32`.
    pub fn profile_flat(
        &mut self,
        view: &FlatProtocol,
        max_input: u64,
        limits: &ExploreLimits,
    ) -> ThresholdProfile {
        let input = view.inputs[0];
        if self.leaders != view.leaders
            || self.input != input
            || self.transitions != view.transitions
            || self.max_configs != limits.max_configs
        {
            self.leaders.clone_from(&view.leaders);
            self.input = input;
            self.transitions.clone_from(&view.transitions);
            self.max_configs = limits.max_configs;
            self.cached = 0;
            self.cached_bytes = 0;
        }
        output_masks(&view.accepts, &mut self.accepting, &mut self.rejecting);
        profile_inputs(max_input, |i| self.input_profile(i, limits))
    }

    /// The profile of input `i`, exploring its slice unless it is cached.
    fn input_profile(&mut self, i: u64, limits: &ExploreLimits) -> InputProfile {
        let j = (i - 2) as usize;
        if j >= self.cached {
            let spare = self.cached;
            if self.slices.len() == spare {
                self.slices.push(Slice {
                    graph: ReachabilityGraph::empty(),
                    populated: Vec::new(),
                });
            }
            self.row.clone_from(&self.leaders);
            let count = &mut self.row[self.input];
            *count = u32::try_from(i)
                .ok()
                .and_then(|i| count.checked_add(i))
                .expect("count exceeds the arena's u32 range");
            let slice = &mut self.slices[spare];
            slice
                .graph
                .explore_into(self.leaders.len(), &self.transitions, &self.row, limits);
            populated_masks(slice.graph.arena(), &mut slice.populated);
            let bytes = slice.graph.heap_bytes() + slice.populated.capacity() * 8;
            if j == spare && self.cached_bytes + bytes <= CACHE_BYTES {
                self.cached += 1;
                self.cached_bytes += bytes;
            }
        }
        let slice = &self.slices[j.min(self.cached)];
        let mut settles = |bad_states: &[u64]| {
            settles(
                slice,
                bad_states,
                &mut self.seeds,
                &mut self.closure,
                &mut self.stack,
            )
        };
        InputProfile {
            input: i,
            rejects: settles(&self.accepting),
            accepts: settles(&self.rejecting),
            exhaustive: slice.graph.is_complete(),
        }
    }
}

/// Whether every configuration of `slice` can reach a b-stable one, and
/// one exists, where `bad_states` are the states of output `≠ b`.
fn settles(
    slice: &Slice,
    bad_states: &[u64],
    seeds: &mut BitSet,
    closure: &mut BitSet,
    stack: &mut Vec<u32>,
) -> bool {
    classify(&slice.populated, bad_states, seeds);
    slice.graph.backward_closure_into(seeds, closure, stack);
    // `SC_b`: the configurations that cannot reach a bad one.
    closure.invert();
    if closure.is_clear() {
        return false;
    }
    slice.graph.backward_closure_into(closure, seeds, stack);
    seeds.first_absent().is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stable::StableSets;
    use popproto_model::{ProtocolBuilder, StateId};

    /// The profile before the cache: every slice explored on a fresh graph,
    /// with its stable sets and closures computed from the protocol.
    fn reference(p: &Protocol, max_input: u64, limits: &ExploreLimits) -> ThresholdProfile {
        profile_inputs(max_input, |i| {
            let graph = ReachabilityGraph::explore(p, &[p.initial_config_unary(i)], limits);
            let stable = StableSets::compute(p, &graph);
            let settles = |b: Output| {
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

    /// A protocol of `num_states` states with input state 0, the outputs of
    /// the bitmask `outputs`, the given transitions and `leaders` agents in
    /// the last state.
    fn protocol(
        num_states: usize,
        outputs: u32,
        transitions: &[[usize; 4]],
        leaders: u64,
    ) -> Protocol {
        let mut b = ProtocolBuilder::new("structure");
        let states: Vec<StateId> = (0..num_states)
            .map(|q| b.add_state(format!("s{q}"), Output::from_bool((outputs >> q) & 1 == 1)))
            .collect();
        for &[p0, p1, q0, q1] in transitions {
            b.add_transition((states[p0], states[p1]), (states[q0], states[q1]))
                .unwrap();
        }
        b.set_input_state("x", states[0]);
        if leaders > 0 {
            b.add_leader(states[num_states - 1], leaders);
        }
        b.build().unwrap()
    }

    /// The binary counter deciding x ≥ 4, as state indices (1, 2, 4, 0).
    const COUNTER: [[usize; 4]; 5] = [
        [0, 0, 1, 3],
        [1, 1, 2, 3],
        [3, 2, 2, 2],
        [0, 2, 2, 2],
        [1, 2, 2, 2],
    ];
    /// The 3-state protocol deciding x ≥ 2, as state indices (1, 0, 2).
    const PAIRS: [[usize; 4]; 3] = [[0, 0, 1, 2], [1, 2, 2, 2], [0, 2, 2, 2]];

    #[test]
    fn a_reused_profiler_matches_fresh_profiles_in_any_order() {
        let counter: Vec<Protocol> = (0..16).map(|o| protocol(4, o, &COUNTER, 0)).collect();
        let pairs: Vec<Protocol> = (0..8).map(|o| protocol(3, o, &PAIRS, 0)).collect();
        let led: Vec<Protocol> = (0..16).map(|o| protocol(4, o, &COUNTER, 1)).collect();
        // Structure A, then B, then A again in reverse, then A with a
        // leader (another initial configuration, so another key).
        let order: Vec<&Protocol> = counter
            .iter()
            .chain(&pairs)
            .chain(counter.iter().rev())
            .chain(&led)
            .collect();
        for limits in [ExploreLimits::default(), ExploreLimits::with_max_configs(6)] {
            let mut profiler = SliceProfiler::default();
            for p in &order {
                assert_eq!(
                    profiler.profile(p, 9, &limits),
                    reference(p, 9, &limits),
                    "{:?} under {limits:?}",
                    p.states()
                );
            }
        }
    }

    #[test]
    fn slices_past_the_cache_budget_are_explored_into_the_spare_buffer() {
        let limits = ExploreLimits::default();
        let mut profiler = SliceProfiler::default();
        let first = protocol(4, 0b0100, &COUNTER, 0);
        assert_eq!(profiler.profile(&first, 9, &limits).inputs.len(), 8);
        // Keep the first slice and spend the whole budget: every larger
        // input now goes to the one spare buffer, for every pattern.
        profiler.cached = 1;
        profiler.cached_bytes = CACHE_BYTES;
        for outputs in 0..16 {
            let p = protocol(4, outputs, &COUNTER, 0);
            assert_eq!(profiler.profile(&p, 9, &limits), reference(&p, 9, &limits));
        }
        assert_eq!(profiler.cached, 1);
        assert_eq!(profiler.slices.len(), 8);
    }

    #[test]
    fn a_loaded_view_keeps_every_input_state_and_the_leaders() {
        // Input x converts everything to the accepting state t; input y is
        // inert.  Two leaders wait in l.
        let mut b = ProtocolBuilder::new("two inputs, leaders");
        let x = b.add_state("x", Output::False);
        let y = b.add_state("y", Output::False);
        let t = b.add_state("t", Output::True);
        let l = b.add_state("l", Output::False);
        b.add_transition((x, x), (t, t)).unwrap();
        b.add_transition((t, x), (t, t)).unwrap();
        b.add_transition((t, l), (t, t)).unwrap();
        b.set_input_state("x", x);
        b.set_input_state("y", y);
        b.add_leader(l, 2);
        let p = b.build().unwrap();

        let mut view = FlatProtocol::default();
        view.load(&p);
        // What the pre-filters read: `ω` goes on both input states and the
        // leader counts stay elsewhere.
        assert_eq!(view.leaders, [0, 0, 0, 2]);
        assert_eq!(view.inputs, [0, 1]);
        assert_eq!(view.accepts, [false, false, true, false]);
        assert_eq!(view.transitions, [[0, 0, 2, 2], [0, 2, 2, 2], [2, 3, 2, 2]]);

        // The profiler puts the input on the first input state, as
        // `initial_config_unary` does.
        let limits = ExploreLimits::default();
        let mut profiler = SliceProfiler::default();
        let profile = profiler.profile_flat(&view, 6, &limits);
        assert_eq!(profile, reference(&p, 6, &limits));
        assert_eq!(profile.verified_threshold(), Some(2));
        view.inputs.reverse();
        assert_eq!(
            profiler
                .profile_flat(&view, 6, &limits)
                .verified_threshold(),
            None
        );
    }
}
