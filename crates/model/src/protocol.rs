//! The [`Protocol`] type: an immutable, validated population protocol.

use crate::config::Config;
use crate::input::Input;
use crate::state::{Output, StateId, StateInfo};
use crate::transition::{Pair, Transition};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// An input variable together with the state its agents start in.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct InputVariable {
    /// Variable name (e.g. `"x"`).
    pub name: String,
    /// State assigned by the input mapping `I`.
    pub state: StateId,
}

/// An immutable population protocol `P = (Q, T, L, X, I, O)`.
///
/// Instances are created through the
/// [`ProtocolBuilder`](crate::ProtocolBuilder); see the crate-level example.
///
/// Pairs of states without an explicit transition behave as *no-ops*
/// (silent transitions), matching the paper's convention that every pair
/// enables at least one transition.  Only the explicit transitions belong to
/// the set `T` used for displacement and Parikh-image analysis.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Protocol {
    pub(crate) name: String,
    pub(crate) states: Vec<StateInfo>,
    pub(crate) transitions: Vec<Transition>,
    pub(crate) leaders: Config,
    pub(crate) inputs: Vec<InputVariable>,
}

impl Protocol {
    /// A descriptive name for the protocol (e.g. `"flock(8)"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The number of states `|Q|`.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// The number of explicit (non-implicit) transitions `|T|`.
    pub fn num_transitions(&self) -> usize {
        self.transitions.len()
    }

    /// Descriptions of all states in index order.
    pub fn states(&self) -> &[StateInfo] {
        &self.states
    }

    /// All state identifiers in index order.
    pub fn state_ids(&self) -> impl Iterator<Item = StateId> + '_ {
        (0..self.states.len()).map(StateId::new)
    }

    /// The description of state `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not a state of this protocol.
    pub fn state(&self, q: StateId) -> &StateInfo {
        &self.states[q.index()]
    }

    /// Looks up a state by name.
    pub fn state_by_name(&self, name: &str) -> Option<StateId> {
        self.states
            .iter()
            .position(|s| s.name == name)
            .map(StateId::new)
    }

    /// The output `O(q)` of state `q`.
    pub fn output_of(&self, q: StateId) -> Output {
        self.states[q.index()].output
    }

    /// The states with output `b`.
    pub fn states_with_output(&self, b: Output) -> Vec<StateId> {
        self.state_ids()
            .filter(|&q| self.output_of(q) == b)
            .collect()
    }

    /// The explicit transitions `T`.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// The explicit non-silent transitions (those that change configurations).
    pub fn non_silent_transitions(&self) -> impl Iterator<Item = &Transition> + '_ {
        self.transitions.iter().filter(|t| !t.is_silent())
    }

    /// Indices of the explicit transitions whose precondition is `pre`.
    pub fn transitions_from(&self, pre: Pair) -> Vec<usize> {
        self.transitions
            .iter()
            .enumerate()
            .filter(|(_, t)| t.pre == pre)
            .map(|(i, _)| i)
            .collect()
    }

    /// The leader multiset `L`.
    pub fn leaders(&self) -> &Config {
        &self.leaders
    }

    /// Returns `true` if the protocol has no leaders (`L = 0`).
    pub fn is_leaderless(&self) -> bool {
        self.leaders.is_empty()
    }

    /// The input variables `X` with their target states.
    pub fn input_variables(&self) -> &[InputVariable] {
        &self.inputs
    }

    /// The state `I(x)` of the input variable with index `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn input_state(&self, var: usize) -> StateId {
        self.inputs[var].state
    }

    /// Returns `true` if the protocol has exactly one input variable.
    pub fn is_unary(&self) -> bool {
        self.inputs.len() == 1
    }

    /// The initial configuration `IC(m) = L + Σ_x m(x)·I(x)`.
    ///
    /// # Panics
    ///
    /// Panics if the input has more variables than the protocol declares.
    pub fn initial_config(&self, input: &Input) -> Config {
        assert!(
            input.num_vars() <= self.inputs.len(),
            "input has {} variables but protocol declares {}",
            input.num_vars(),
            self.inputs.len()
        );
        let mut c = self.leaders.clone();
        for (var, &count) in input.counts().iter().enumerate() {
            c.add(self.inputs[var].state, count);
        }
        c
    }

    /// Convenience for unary protocols: `IC(i)` for the input `i·x`.
    pub fn initial_config_unary(&self, i: u64) -> Config {
        self.initial_config(&Input::unary(i))
    }

    /// The output `O(C)` of a configuration: `Some(b)` if all populated states
    /// have output `b`, `None` if outputs disagree (undefined).
    pub fn output(&self, c: &Config) -> Option<Output> {
        let mut seen: Option<Output> = None;
        for (q, _) in c.iter() {
            let o = self.output_of(q);
            match seen {
                None => seen = Some(o),
                Some(prev) if prev != o => return None,
                _ => {}
            }
        }
        seen
    }

    /// All *distinct* successor configurations of `c` under non-silent
    /// enabled transitions.  If the result is empty the configuration is
    /// *silent* (only no-ops are enabled) and therefore terminal.
    pub fn successors(&self, c: &Config) -> Vec<Config> {
        let mut out = Vec::new();
        for t in &self.transitions {
            if t.is_silent() {
                continue;
            }
            if let Some(next) = t.fire(c) {
                if next != *c && !out.contains(&next) {
                    out.push(next);
                }
            }
        }
        out
    }

    /// Like [`Protocol::successors`] but also reports which transition
    /// produced each successor (first transition found per successor).
    pub fn successors_with_transitions(&self, c: &Config) -> Vec<(usize, Config)> {
        let mut out: Vec<(usize, Config)> = Vec::new();
        for (i, t) in self.transitions.iter().enumerate() {
            if t.is_silent() {
                continue;
            }
            if let Some(next) = t.fire(c) {
                if next != *c && !out.iter().any(|(_, existing)| *existing == next) {
                    out.push((i, next));
                }
            }
        }
        out
    }

    /// Returns `true` if `c` enables no configuration-changing transition.
    ///
    /// A non-silent transition (`pre ≠ post` as multisets) always changes the
    /// configuration when it fires, so silence can be decided from
    /// enabledness alone — no successor configuration is materialised.
    pub fn is_silent_config(&self, c: &Config) -> bool {
        !self
            .transitions
            .iter()
            .any(|t| !t.is_silent() && t.is_enabled(c))
    }

    /// Returns `true` if the protocol is deterministic in the sense of
    /// Remark 1: every unordered pair of states has at most one explicit
    /// transition.
    pub fn is_deterministic(&self) -> bool {
        let mut seen = HashMap::new();
        for t in &self.transitions {
            if *seen.entry(t.pre).or_insert(0usize) >= 1 {
                return false;
            }
            *seen.get_mut(&t.pre).unwrap() += 1;
        }
        true
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "protocol {:?}: {} states, {} transitions, {} leaders",
            self.name,
            self.num_states(),
            self.num_transitions(),
            self.leaders.size()
        )?;
        for (i, s) in self.states.iter().enumerate() {
            writeln!(f, "  q{i} = {s}")?;
        }
        for t in &self.transitions {
            writeln!(f, "  {t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProtocolBuilder;

    /// The 3-state protocol of the crate-level example: x ≥ 2.
    fn example_protocol() -> Protocol {
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
    fn accessors() {
        let p = example_protocol();
        assert_eq!(p.name(), "x >= 2");
        assert_eq!(p.num_states(), 3);
        assert_eq!(p.num_transitions(), 3);
        assert!(p.is_leaderless());
        assert!(p.is_unary());
        assert!(p.is_deterministic());
        assert_eq!(p.state_by_name("2"), Some(StateId::new(2)));
        assert_eq!(p.state_by_name("missing"), None);
        assert_eq!(p.output_of(StateId::new(2)), Output::True);
        assert_eq!(p.states_with_output(Output::True), vec![StateId::new(2)]);
        assert_eq!(
            p.states_with_output(Output::False),
            vec![StateId::new(0), StateId::new(1)]
        );
    }

    #[test]
    fn initial_configurations() {
        let p = example_protocol();
        let ic = p.initial_config_unary(4);
        assert_eq!(ic.size(), 4);
        assert_eq!(ic.get(StateId::new(1)), 4);
    }

    #[test]
    fn output_of_configurations() {
        let p = example_protocol();
        let all_true = Config::from_counts(vec![0, 0, 3]);
        let all_false = Config::from_counts(vec![2, 1, 0]);
        let mixed = Config::from_counts(vec![1, 0, 1]);
        assert_eq!(p.output(&all_true), Some(Output::True));
        assert_eq!(p.output(&all_false), Some(Output::False));
        assert_eq!(p.output(&mixed), None);
    }

    #[test]
    fn successors_and_silence() {
        let p = example_protocol();
        let ic = p.initial_config_unary(2); // two agents in state 1
        let succ = p.successors(&ic);
        assert_eq!(succ.len(), 1);
        assert_eq!(succ[0].counts(), &[1, 0, 1]);
        // ⟨1·q0, 1·q2⟩ --(0,2 ↦ 2,2)--> ⟨2·q2⟩, which is silent.
        let mid = &succ[0];
        let succ2 = p.successors(mid);
        assert_eq!(succ2.len(), 1);
        assert_eq!(succ2[0].counts(), &[0, 0, 2]);
        assert!(p.is_silent_config(&succ2[0]));
        assert!(!p.is_silent_config(&ic));
    }

    #[test]
    fn successors_with_transitions_report_indices() {
        let p = example_protocol();
        let ic = p.initial_config_unary(2);
        let succ = p.successors_with_transitions(&ic);
        assert_eq!(succ.len(), 1);
        let (t_idx, _) = &succ[0];
        assert_eq!(
            p.transitions()[*t_idx].pre,
            Pair::new(StateId::new(1), StateId::new(1))
        );
    }

    #[test]
    fn enabled_transitions_listing() {
        let p = example_protocol();
        let c = Config::from_counts(vec![1, 1, 1]);
        let enabled = p.transitions().iter().filter(|t| t.is_enabled(&c)).count();
        // (1,1) not enabled (only one agent in state 1); (0,2) and (1,2) enabled.
        assert_eq!(enabled, 2);
    }

    #[test]
    fn transitions_from_pairs() {
        let p = example_protocol();
        let t = p.transitions_from(Pair::new(StateId::new(1), StateId::new(1)));
        assert_eq!(t.len(), 1);
        let none = p.transitions_from(Pair::new(StateId::new(0), StateId::new(0)));
        assert!(none.is_empty());
    }

    #[test]
    fn display_contains_name_and_transitions() {
        let p = example_protocol();
        let s = p.to_string();
        assert!(s.contains("x >= 2"));
        assert!(s.contains("↦"));
    }

    #[test]
    fn serde_roundtrip() {
        let p = example_protocol();
        let json = serde_json::to_string(&p).unwrap();
        let back: Protocol = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
