//! States, their identifiers and their outputs.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a protocol state.
///
/// State identifiers are dense indices `0..protocol.num_states()`, assigned in
/// the order states were added to the [`ProtocolBuilder`](crate::ProtocolBuilder).
///
/// # Examples
///
/// ```
/// use popproto_model::StateId;
/// let q = StateId::new(3);
/// assert_eq!(q.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct StateId(u32);

impl StateId {
    /// Creates a state identifier from a dense index.
    pub fn new(index: usize) -> Self {
        StateId(u32::try_from(index).expect("state index exceeds u32 range"))
    }

    /// The dense index of the state.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

impl From<usize> for StateId {
    fn from(index: usize) -> Self {
        StateId::new(index)
    }
}

/// The boolean output assigned to a state by the output mapping `O : Q → {0,1}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Output {
    /// Output 0 ("no").
    False,
    /// Output 1 ("yes").
    True,
}

impl Output {
    /// Converts the output to a boolean.
    pub fn as_bool(self) -> bool {
        matches!(self, Output::True)
    }

    /// Converts a boolean to an output.
    pub fn from_bool(b: bool) -> Self {
        if b {
            Output::True
        } else {
            Output::False
        }
    }
}

impl fmt::Display for Output {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", if self.as_bool() { 1 } else { 0 })
    }
}

impl From<bool> for Output {
    fn from(b: bool) -> Self {
        Output::from_bool(b)
    }
}

/// Descriptive information attached to a state: its name and its output.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StateInfo {
    /// Human readable state name (unique within a protocol).
    pub name: String,
    /// Output of the state under the output mapping.
    pub output: Output,
}

impl StateInfo {
    /// Creates a new state description.
    pub fn new(name: impl Into<String>, output: Output) -> Self {
        StateInfo {
            name: name.into(),
            output,
        }
    }
}

impl fmt::Display for StateInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.name, self.output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_id_roundtrip() {
        for i in [0usize, 1, 7, 1000] {
            assert_eq!(StateId::new(i).index(), i);
            assert_eq!(StateId::from(i), StateId::new(i));
        }
    }

    #[test]
    fn state_id_display() {
        assert_eq!(StateId::new(5).to_string(), "q5");
    }

    #[test]
    fn output_conversions() {
        assert!(Output::True.as_bool());
        assert!(!Output::False.as_bool());
        assert_eq!(Output::from_bool(true), Output::True);
        assert_eq!(Output::from(false), Output::False);
        assert_eq!(Output::True.to_string(), "1");
        assert_eq!(Output::False.to_string(), "0");
    }

    #[test]
    fn state_info_display() {
        let s = StateInfo::new("acc", Output::True);
        assert_eq!(s.to_string(), "acc[1]");
    }

    #[test]
    fn state_ids_are_ordered() {
        assert!(StateId::new(1) < StateId::new(2));
    }
}
