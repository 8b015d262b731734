//! Incremental construction and validation of protocols.

use crate::config::Config;
use crate::error::ProtocolError;
use crate::protocol::{InputVariable, Protocol};
use crate::state::{Output, StateId, StateInfo};
use crate::transition::{Pair, Transition};

/// A builder for [`Protocol`] values.
///
/// States are declared first ([`ProtocolBuilder::add_state`]), then
/// transitions, leaders and input variables refer to them.  [`ProtocolBuilder::build`]
/// validates the description and produces an immutable protocol.
///
/// # Examples
///
/// ```
/// use popproto_model::{Output, ProtocolBuilder};
///
/// # fn main() -> Result<(), popproto_model::ProtocolError> {
/// let mut b = ProtocolBuilder::new("demo");
/// let a = b.add_state("a", Output::False);
/// let acc = b.add_state("acc", Output::True);
/// b.add_transition((a, a), (acc, acc))?;
/// b.set_input_state("x", a);
/// b.add_leader(acc, 1);
/// let p = b.build()?;
/// assert_eq!(p.leaders().size(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ProtocolBuilder {
    name: String,
    states: Vec<StateInfo>,
    transitions: Vec<Transition>,
    leaders: Vec<(StateId, u64)>,
    inputs: Vec<InputVariable>,
}

impl ProtocolBuilder {
    /// Starts a new protocol description with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ProtocolBuilder {
            name: name.into(),
            states: Vec::new(),
            transitions: Vec::new(),
            leaders: Vec::new(),
            inputs: Vec::new(),
        }
    }

    /// Declares a state and returns its identifier.
    pub fn add_state(&mut self, name: impl Into<String>, output: Output) -> StateId {
        let id = StateId::new(self.states.len());
        self.states.push(StateInfo::new(name, output));
        id
    }

    /// Adds the transition `pre ↦ post`.
    ///
    /// Silent transitions (`pre = post`) are accepted but never need to be
    /// declared: pairs without an explicit transition behave as no-ops.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::UnknownState`] if a state has not been
    /// declared and [`ProtocolError::DuplicateTransition`] if the same
    /// transition was already added.
    pub fn add_transition(
        &mut self,
        pre: (StateId, StateId),
        post: (StateId, StateId),
    ) -> Result<(), ProtocolError> {
        let t = Transition::new(Pair::new(pre.0, pre.1), Pair::new(post.0, post.1));
        for q in [pre.0, pre.1, post.0, post.1] {
            if q.index() >= self.states.len() {
                return Err(ProtocolError::UnknownState(q));
            }
        }
        if self.transitions.contains(&t) {
            return Err(ProtocolError::DuplicateTransition(t.to_string()));
        }
        self.transitions.push(t);
        Ok(())
    }

    /// Adds the transition if it is not already present, ignoring duplicates.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::UnknownState`] if a state has not been declared.
    pub fn add_transition_idempotent(
        &mut self,
        pre: (StateId, StateId),
        post: (StateId, StateId),
    ) -> Result<(), ProtocolError> {
        match self.add_transition(pre, post) {
            Ok(()) => Ok(()),
            Err(ProtocolError::DuplicateTransition(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Adds `count` leader agents in state `q`.
    pub fn add_leader(&mut self, q: StateId, count: u64) {
        self.leaders.push((q, count));
    }

    /// Declares an input variable mapped to state `q` and returns its index.
    pub fn set_input_state(&mut self, name: impl Into<String>, q: StateId) -> usize {
        self.inputs.push(InputVariable {
            name: name.into(),
            state: q,
        });
        self.inputs.len() - 1
    }

    /// Number of states declared so far.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Validates the description and builds the protocol.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] if the description is malformed: no states,
    /// no input variables, duplicate state names or input variables, or
    /// references to undeclared states.
    pub fn build(self) -> Result<Protocol, ProtocolError> {
        if self.states.is_empty() {
            return Err(ProtocolError::NoStates);
        }
        if self.inputs.is_empty() {
            return Err(ProtocolError::NoInputVariables);
        }
        // Unique state names.
        let mut names = std::collections::HashSet::new();
        for s in &self.states {
            if !names.insert(s.name.as_str()) {
                return Err(ProtocolError::DuplicateStateName(s.name.clone()));
            }
        }
        // Unique input variable names, valid target states.
        let mut vars = std::collections::HashSet::new();
        for v in &self.inputs {
            if !vars.insert(v.name.as_str()) {
                return Err(ProtocolError::DuplicateInputVariable(v.name.clone()));
            }
            if v.state.index() >= self.states.len() {
                return Err(ProtocolError::UnknownState(v.state));
            }
        }
        // Valid leader states.
        let mut leaders = Config::empty(self.states.len());
        for (q, count) in &self.leaders {
            if q.index() >= self.states.len() {
                return Err(ProtocolError::UnknownState(*q));
            }
            leaders.add(*q, *count);
        }
        Ok(Protocol {
            name: self.name,
            states: self.states,
            transitions: self.transitions,
            leaders,
            inputs: self.inputs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_minimal_protocol() {
        let mut b = ProtocolBuilder::new("min");
        let a = b.add_state("a", Output::False);
        b.set_input_state("x", a);
        let p = b.build().unwrap();
        assert_eq!(p.num_states(), 1);
        assert_eq!(p.num_transitions(), 0);
        assert!(p.is_leaderless());
    }

    #[test]
    fn rejects_empty_protocol() {
        let b = ProtocolBuilder::new("empty");
        assert_eq!(b.build().unwrap_err(), ProtocolError::NoStates);
    }

    #[test]
    fn rejects_missing_input() {
        let mut b = ProtocolBuilder::new("no-input");
        b.add_state("a", Output::False);
        assert_eq!(b.build().unwrap_err(), ProtocolError::NoInputVariables);
    }

    #[test]
    fn rejects_duplicate_state_names() {
        let mut b = ProtocolBuilder::new("dup");
        let a = b.add_state("a", Output::False);
        b.add_state("a", Output::True);
        b.set_input_state("x", a);
        assert!(matches!(
            b.build().unwrap_err(),
            ProtocolError::DuplicateStateName(_)
        ));
    }

    #[test]
    fn rejects_duplicate_input_variables() {
        let mut b = ProtocolBuilder::new("dup-input");
        let a = b.add_state("a", Output::False);
        b.set_input_state("x", a);
        b.set_input_state("x", a);
        assert!(matches!(
            b.build().unwrap_err(),
            ProtocolError::DuplicateInputVariable(_)
        ));
    }

    #[test]
    fn rejects_unknown_states_in_transitions() {
        let mut b = ProtocolBuilder::new("unknown");
        let a = b.add_state("a", Output::False);
        let ghost = StateId::new(7);
        assert!(matches!(
            b.add_transition((a, ghost), (a, a)).unwrap_err(),
            ProtocolError::UnknownState(_)
        ));
    }

    #[test]
    fn rejects_duplicate_transitions_but_idempotent_add_is_ok() {
        let mut b = ProtocolBuilder::new("dup-t");
        let a = b.add_state("a", Output::False);
        let c = b.add_state("c", Output::True);
        b.add_transition((a, a), (c, c)).unwrap();
        assert!(matches!(
            b.add_transition((a, a), (c, c)).unwrap_err(),
            ProtocolError::DuplicateTransition(_)
        ));
        b.add_transition_idempotent((a, a), (c, c)).unwrap();
        b.set_input_state("x", a);
        let p = b.build().unwrap();
        assert_eq!(p.num_transitions(), 1);
    }

    #[test]
    fn unordered_duplicate_detection() {
        let mut b = ProtocolBuilder::new("unordered");
        let a = b.add_state("a", Output::False);
        let c = b.add_state("c", Output::True);
        b.add_transition((a, c), (c, c)).unwrap();
        // Same transition with swapped pre states is a duplicate.
        assert!(b.add_transition((c, a), (c, c)).is_err());
    }

    #[test]
    fn leaders_are_accumulated() {
        let mut b = ProtocolBuilder::new("leaders");
        let a = b.add_state("a", Output::False);
        let l = b.add_state("l", Output::False);
        b.set_input_state("x", a);
        b.add_leader(l, 2);
        b.add_leader(l, 1);
        let p = b.build().unwrap();
        assert_eq!(p.leaders().get(l), 3);
        assert!(!p.is_leaderless());
    }

    #[test]
    fn rejects_unknown_leader_state() {
        let mut b = ProtocolBuilder::new("ghost-leader");
        let a = b.add_state("a", Output::False);
        b.set_input_state("x", a);
        b.add_leader(StateId::new(9), 1);
        assert!(matches!(
            b.build().unwrap_err(),
            ProtocolError::UnknownState(_)
        ));
    }

    #[test]
    fn rejects_unknown_input_state() {
        let mut b = ProtocolBuilder::new("ghost-input");
        b.add_state("a", Output::False);
        b.set_input_state("x", StateId::new(3));
        assert!(matches!(
            b.build().unwrap_err(),
            ProtocolError::UnknownState(_)
        ));
    }
}
