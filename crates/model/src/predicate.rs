//! Presburger predicates: thresholds, modulo constraints and their boolean
//! combinations.
//!
//! Population protocols compute exactly the Presburger-definable predicates
//! (Angluin et al.).  Every Presburger predicate is a boolean combination of
//! *threshold* constraints `Σ aᵢ·xᵢ ≥ c` and *modulo* constraints
//! `Σ aᵢ·xᵢ ≡ r (mod m)`; this module implements that normal form.
//!
//! The paper focuses on the counting predicates `x ≥ η`
//! ([`Predicate::threshold_at_least`] with a single variable).

use crate::input::Input;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A Presburger predicate over the input variables of a protocol.
///
/// # Examples
///
/// ```
/// use popproto_model::{Input, Predicate};
///
/// // The counting predicate x ≥ 5.
/// let p = Predicate::threshold_at_least(5);
/// assert!(!p.eval(&Input::unary(4)));
/// assert!(p.eval(&Input::unary(5)));
///
/// // Majority: x₀ > x₁, i.e. x₀ - x₁ ≥ 1.
/// let maj = Predicate::majority();
/// assert!(maj.eval(&Input::from_counts(vec![4, 3])));
/// assert!(!maj.eval(&Input::from_counts(vec![3, 3])));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Predicate {
    /// A constant predicate.
    Const(bool),
    /// `Σ coeffs[i]·xᵢ ≥ constant`.
    Threshold {
        /// Coefficients of the input variables.
        coeffs: Vec<i64>,
        /// Right-hand side constant.
        constant: i64,
    },
    /// `Σ coeffs[i]·xᵢ ≡ remainder (mod modulus)`.
    Modulo {
        /// Coefficients of the input variables.
        coeffs: Vec<i64>,
        /// The modulus (must be ≥ 1).
        modulus: u64,
        /// The expected remainder in `0..modulus`.
        remainder: u64,
    },
    /// Logical negation.
    Not(Box<Predicate>),
    /// Logical conjunction.
    And(Vec<Predicate>),
    /// Logical disjunction.
    Or(Vec<Predicate>),
}

impl Predicate {
    /// The unary counting predicate `x ≥ eta`.
    pub fn threshold_at_least(eta: u64) -> Self {
        Predicate::Threshold {
            coeffs: vec![1],
            constant: i64::try_from(eta).expect("threshold too large for i64"),
        }
    }

    /// The predicate `Σ coeffs[i]·xᵢ ≥ constant`.
    pub(crate) fn linear_at_least(coeffs: Vec<i64>, constant: i64) -> Self {
        Predicate::Threshold { coeffs, constant }
    }

    /// The predicate `Σ coeffs[i]·xᵢ ≡ remainder (mod modulus)`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus == 0`.
    pub fn modulo(coeffs: Vec<i64>, modulus: u64, remainder: u64) -> Self {
        assert!(modulus >= 1, "modulus must be at least 1");
        Predicate::Modulo {
            coeffs,
            modulus,
            remainder: remainder % modulus,
        }
    }

    /// The unary predicate `x ≡ remainder (mod modulus)`.
    pub fn count_mod(modulus: u64, remainder: u64) -> Self {
        Predicate::modulo(vec![1], modulus, remainder)
    }

    /// Majority over two variables: `x₀ > x₁`.
    pub fn majority() -> Self {
        Predicate::linear_at_least(vec![1, -1], 1)
    }

    /// Evaluates the predicate on an input.
    ///
    /// Missing variables (indices beyond `input.num_vars()`) count as zero.
    pub fn eval(&self, input: &Input) -> bool {
        match self {
            Predicate::Const(b) => *b,
            Predicate::Threshold { coeffs, constant } => {
                Self::dot(coeffs, input) >= *constant as i128
            }
            Predicate::Modulo {
                coeffs,
                modulus,
                remainder,
            } => {
                let v = Self::dot(coeffs, input).rem_euclid(*modulus as i128);
                v == *remainder as i128
            }
            Predicate::Not(p) => !p.eval(input),
            Predicate::And(ps) => ps.iter().all(|p| p.eval(input)),
            Predicate::Or(ps) => ps.iter().any(|p| p.eval(input)),
        }
    }

    fn dot(coeffs: &[i64], input: &Input) -> i128 {
        coeffs
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let x = if i < input.num_vars() {
                    input.get(i)
                } else {
                    0
                };
                a as i128 * x as i128
            })
            .sum()
    }

    /// Number of input variables mentioned by the predicate.
    pub fn arity(&self) -> usize {
        match self {
            Predicate::Const(_) => 0,
            Predicate::Threshold { coeffs, .. } | Predicate::Modulo { coeffs, .. } => coeffs.len(),
            Predicate::Not(p) => p.arity(),
            Predicate::And(ps) | Predicate::Or(ps) => {
                ps.iter().map(Predicate::arity).max().unwrap_or(0)
            }
        }
    }

    /// If the predicate is syntactically of the form `x ≥ η` for a unary
    /// variable, returns `η`.
    pub fn as_unary_threshold(&self) -> Option<u64> {
        match self {
            Predicate::Threshold { coeffs, constant }
                if coeffs.len() == 1 && coeffs[0] == 1 && *constant >= 0 =>
            {
                Some(*constant as u64)
            }
            _ => None,
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Const(b) => write!(f, "{b}"),
            Predicate::Threshold { coeffs, constant } => {
                write_linear(f, coeffs)?;
                write!(f, " ≥ {constant}")
            }
            Predicate::Modulo {
                coeffs,
                modulus,
                remainder,
            } => {
                write_linear(f, coeffs)?;
                write!(f, " ≡ {remainder} (mod {modulus})")
            }
            Predicate::Not(p) => write!(f, "¬({p})"),
            Predicate::And(ps) => write_joined(f, ps, " ∧ "),
            Predicate::Or(ps) => write_joined(f, ps, " ∨ "),
        }
    }
}

fn write_linear(f: &mut fmt::Formatter<'_>, coeffs: &[i64]) -> fmt::Result {
    let mut first = true;
    for (i, &a) in coeffs.iter().enumerate() {
        if a == 0 {
            continue;
        }
        if !first {
            write!(f, " + ")?;
        }
        if a == 1 {
            write!(f, "x{i}")?;
        } else {
            write!(f, "{a}·x{i}")?;
        }
        first = false;
    }
    if first {
        write!(f, "0")?;
    }
    Ok(())
}

fn write_joined(f: &mut fmt::Formatter<'_>, ps: &[Predicate], sep: &str) -> fmt::Result {
    write!(f, "(")?;
    for (i, p) in ps.iter().enumerate() {
        if i > 0 {
            write!(f, "{sep}")?;
        }
        write!(f, "{p}")?;
    }
    write!(f, ")")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_predicates() {
        let p = Predicate::threshold_at_least(10);
        assert!(!p.eval(&Input::unary(9)));
        assert!(p.eval(&Input::unary(10)));
        assert!(p.eval(&Input::unary(11)));
        assert_eq!(p.as_unary_threshold(), Some(10));
        assert_eq!(p.arity(), 1);
    }

    #[test]
    fn threshold_less_than() {
        let p = Predicate::Not(Box::new(Predicate::threshold_at_least(3)));
        assert!(p.eval(&Input::unary(2)));
        assert!(!p.eval(&Input::unary(3)));
        assert_eq!(p.as_unary_threshold(), None);
    }

    #[test]
    fn modulo_predicates() {
        let p = Predicate::count_mod(3, 1);
        assert!(p.eval(&Input::unary(1)));
        assert!(p.eval(&Input::unary(4)));
        assert!(!p.eval(&Input::unary(3)));
        // Negative linear combinations use euclidean remainder.
        let q = Predicate::modulo(vec![1, -1], 3, 2);
        assert!(q.eval(&Input::from_counts(vec![0, 1]))); // -1 ≡ 2 (mod 3)
    }

    #[test]
    #[should_panic(expected = "modulus must be at least 1")]
    fn modulo_zero_panics() {
        let _ = Predicate::modulo(vec![1], 0, 0);
    }

    #[test]
    fn majority_predicate() {
        let p = Predicate::majority();
        assert!(p.eval(&Input::from_counts(vec![5, 4])));
        assert!(!p.eval(&Input::from_counts(vec![4, 4])));
        assert!(!p.eval(&Input::from_counts(vec![3, 4])));
        assert_eq!(p.arity(), 2);
    }

    #[test]
    fn boolean_combinations() {
        // 2 ≤ x < 5, i.e. x ≥ 2 and not x ≥ 5.
        let p = Predicate::And(vec![
            Predicate::threshold_at_least(2),
            Predicate::Not(Box::new(Predicate::threshold_at_least(5))),
        ]);
        assert!(!p.eval(&Input::unary(1)));
        assert!(p.eval(&Input::unary(2)));
        assert!(p.eval(&Input::unary(4)));
        assert!(!p.eval(&Input::unary(5)));

        let q = Predicate::Or(vec![Predicate::Const(false), Predicate::Const(true)]);
        assert!(q.eval(&Input::unary(0)));
    }

    #[test]
    fn missing_variables_count_as_zero() {
        let p = Predicate::linear_at_least(vec![1, 1, 1], 2);
        assert!(!p.eval(&Input::unary(1)));
        assert!(p.eval(&Input::unary(2)));
    }

    #[test]
    fn syntactic_size_and_display() {
        let p = Predicate::And(vec![
            Predicate::threshold_at_least(2),
            Predicate::count_mod(2, 0),
        ]);
        assert_eq!(p.to_string(), "(x0 ≥ 2 ∧ x0 ≡ 0 (mod 2))");
        assert_eq!(Predicate::majority().to_string(), "x0 + -1·x1 ≥ 1");
    }

    #[test]
    fn overflow_resistance_via_i128() {
        let p = Predicate::linear_at_least(vec![i64::MAX], i64::MAX);
        assert!(p.eval(&Input::unary(u64::MAX)));
    }
}
