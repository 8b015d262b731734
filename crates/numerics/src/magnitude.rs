//! The [`Magnitude`] type: order-of-magnitude arithmetic for bounds that are
//! too large to materialise.
//!
//! The paper's Theorem 5.9 bound `2^((2n+2)!)` already has `40320` binary
//! digits of *exponent* at `n = 3`; the Theorem 4.5 bound lives at level
//! `F_ω` of the Fast-Growing Hierarchy and cannot be written down at all for
//! `n ≥ 2`.  [`Magnitude`] represents a natural number either
//!
//! * exactly (a [`BigNat`]),
//! * as a base-2 logarithm (`2^e` with `e` an `f64`), or
//! * as a tower `2^2^…^2^e` of height `h`,
//!
//! and supports the monotone operations needed to *compare* and *report*
//! bounds: multiplication, powers, `log₂`, and ordering.

use crate::bignat::BigNat;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// Threshold (in bits) above which exact representations are abandoned.
const EXACT_BIT_LIMIT: u64 = 1 << 22; // ~4 million bits

/// An order-of-magnitude representation of a (possibly astronomically large)
/// natural number.
///
/// # Examples
///
/// ```
/// use popproto_numerics::{BigNat, Magnitude};
///
/// let exact = Magnitude::exact(BigNat::from(1024u64));
/// assert_eq!(exact.log2_approx(), Some(10.0));
///
/// let huge = Magnitude::Log2 { exponent: 1e9 }; // 2^(10^9)
/// assert!(huge > exact);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Magnitude {
    /// An exactly represented value.
    Exact(BigNat),
    /// `2^exponent` for a (possibly fractional) exponent.
    Log2 {
        /// Base-2 logarithm of the value.
        exponent: f64,
    },
    /// A tower `2^2^…^2^top` with `height` twos below the `top` exponent.
    ///
    /// `height = 0` is equivalent to [`Magnitude::Log2`] with `exponent = top`.
    Tower {
        /// Number of `2^·` applications wrapped around `top`.
        height: u32,
        /// The innermost exponent.
        top: f64,
    },
}

impl Magnitude {
    /// Creates an exact magnitude.
    pub fn exact(value: BigNat) -> Self {
        Magnitude::Exact(value)
    }

    /// Creates an exact magnitude from a `u64`.
    pub fn from_u64(value: u64) -> Self {
        Magnitude::Exact(BigNat::from(value))
    }

    /// Creates a tower of `height` twos topped by `top`: `2^2^…^2^top`.
    pub(crate) fn tower(height: u32, top: f64) -> Self {
        Magnitude::Tower { height, top }.normalized()
    }

    /// Returns the exact value if this magnitude is exact.
    pub fn as_exact(&self) -> Option<&BigNat> {
        match self {
            Magnitude::Exact(v) => Some(v),
            _ => None,
        }
    }

    /// Collapses degenerate towers and over-large exact values.
    fn normalized(self) -> Self {
        match self {
            Magnitude::Exact(v) if v.bits() > EXACT_BIT_LIMIT => {
                Magnitude::Log2 { exponent: v.log2() }
            }
            Magnitude::Tower { height: 0, top } => Magnitude::Log2 { exponent: top },
            Magnitude::Tower { height, top } if top <= 64.0 && height >= 1 => {
                // Fold one level into the exponent when it stays a sane f64.
                Magnitude::Tower {
                    height: height - 1,
                    top: top.exp2(),
                }
                .normalized()
            }
            other => other,
        }
    }

    /// The base-2 logarithm, when it fits in an `f64`.
    ///
    /// Returns `None` for towers whose logarithm still overflows `f64`.
    pub fn log2_approx(&self) -> Option<f64> {
        match self {
            Magnitude::Exact(v) => Some(v.log2()),
            Magnitude::Log2 { exponent } => Some(*exponent),
            Magnitude::Tower { height, top } => {
                if *height == 0 {
                    Some(*top)
                } else if *height == 1 && *top < 1023.0 {
                    Some(top.exp2())
                } else {
                    None
                }
            }
        }
    }

    /// Multiplies two magnitudes.
    pub fn mul(&self, other: &Magnitude) -> Magnitude {
        match (self, other) {
            (Magnitude::Exact(a), Magnitude::Exact(b)) => {
                Magnitude::Exact(a.mul_ref(b)).normalized()
            }
            _ => {
                let (la, lb) = (self.log2_approx(), other.log2_approx());
                match (la, lb) {
                    (Some(la), Some(lb)) => Magnitude::Log2 { exponent: la + lb },
                    // A tower dominates any factor we can represent.
                    _ => self.max_clone(other),
                }
            }
        }
    }

    /// Raises the magnitude to an integer power.
    pub fn pow(&self, exp: u64) -> Magnitude {
        match self {
            Magnitude::Exact(v) if v.bits().saturating_mul(exp) <= EXACT_BIT_LIMIT => {
                Magnitude::Exact(v.pow(exp)).normalized()
            }
            _ => match self.log2_approx() {
                Some(l) => Magnitude::Log2 {
                    exponent: l * exp as f64,
                },
                None => self.clone(),
            },
        }
    }

    /// Computes `2^self` (exponentiation of the *value*, not of the log).
    pub fn exp2_of(&self) -> Magnitude {
        match self {
            Magnitude::Exact(v) => {
                if let Some(e) = v.to_u64() {
                    if e <= EXACT_BIT_LIMIT {
                        return Magnitude::Exact(BigNat::pow2(e));
                    }
                }
                Magnitude::Log2 {
                    exponent: self.log2_approx().map_or(f64::INFINITY, |_| {
                        // exponent of the result is the value itself
                        v.log2().exp2()
                    }),
                }
                .promote_if_nonfinite(v.log2())
            }
            Magnitude::Log2 { exponent } => {
                if *exponent < 1023.0 {
                    Magnitude::Log2 {
                        exponent: exponent.exp2(),
                    }
                } else {
                    Magnitude::Tower {
                        height: 1,
                        top: *exponent,
                    }
                }
            }
            Magnitude::Tower { height, top } => Magnitude::Tower {
                height: height + 1,
                top: *top,
            },
        }
    }

    fn promote_if_nonfinite(self, fallback_log_exponent: f64) -> Magnitude {
        match &self {
            Magnitude::Log2 { exponent } if !exponent.is_finite() => Magnitude::Tower {
                height: 1,
                top: fallback_log_exponent,
            },
            _ => self,
        }
    }

    fn max_clone(&self, other: &Magnitude) -> Magnitude {
        if self >= other {
            self.clone()
        } else {
            other.clone()
        }
    }

    /// A human-readable rendering: exact decimal when small, `2^e` or a tower otherwise.
    pub fn describe(&self) -> String {
        match self {
            Magnitude::Exact(v) => {
                if v.bits() <= 128 {
                    v.to_decimal_string()
                } else {
                    format!("≈2^{:.2}", v.log2())
                }
            }
            Magnitude::Log2 { exponent } => format!("2^{exponent:.4}"),
            Magnitude::Tower { height, top } => {
                let mut s = String::new();
                for _ in 0..*height {
                    s.push_str("2^");
                }
                s.push_str(&format!("2^{top:.4}"));
                s
            }
        }
    }

    /// A comparison key `(h, x)` obtained by repeatedly taking `log₂` of the
    /// value until it drops below 64: `h` counts the logarithms taken after
    /// the representation's own, and `x` is the final residue.  Because
    /// `log₂` is monotone, lexicographic order on `(h, x)` matches value
    /// order (up to the f64 rounding inherent in non-exact magnitudes).
    fn key(&self) -> (u32, f64) {
        // Start from (h₀, x₀) where the value equals exp2 applied h₀ times to x₀.
        let (mut h, mut x) = match self {
            Magnitude::Exact(v) => (1u32, v.log2().max(0.0)),
            Magnitude::Log2 { exponent } => (1u32, exponent.max(0.0)),
            Magnitude::Tower { height, top } => (height + 1, top.max(0.0)),
        };
        // Canonicalise: shrink the residue below 64 by taking further logs,
        // and conversely fold down unnecessary height when the residue is tiny.
        while x >= 64.0 {
            x = x.log2();
            h += 1;
        }
        while h > 0 && x < 6.0 {
            // 2^x < 64, so one exponentiation keeps the residue below 64.
            x = x.exp2();
            h -= 1;
        }
        (h, x)
    }
}

impl PartialEq for Magnitude {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Magnitude::Exact(a), Magnitude::Exact(b)) => a == b,
            _ => self.key() == other.key(),
        }
    }
}

impl PartialOrd for Magnitude {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        match (self, other) {
            (Magnitude::Exact(a), Magnitude::Exact(b)) => Some(a.cmp(b)),
            _ => {
                let (ha, ta) = self.key();
                let (hb, tb) = other.key();
                match ha.cmp(&hb) {
                    Ordering::Equal => ta.partial_cmp(&tb),
                    o => Some(o),
                }
            }
        }
    }
}

impl fmt::Display for Magnitude {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.describe())
    }
}

impl From<u64> for Magnitude {
    fn from(v: u64) -> Self {
        Magnitude::from_u64(v)
    }
}

impl From<BigNat> for Magnitude {
    fn from(v: BigNat) -> Self {
        Magnitude::Exact(v).normalized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_roundtrip_and_log() {
        let m = Magnitude::from_u64(1024);
        assert_eq!(m.log2_approx(), Some(10.0));
        assert_eq!(m.describe(), "1024");
    }

    #[test]
    fn ordering_exact_vs_log() {
        let small = Magnitude::from_u64(1_000_000);
        let big = Magnitude::Log2 { exponent: 100.0 };
        assert!(small < big);
        assert!(big > small);
        let bigger = Magnitude::Log2 { exponent: 200.0 };
        assert!(big < bigger);
    }

    #[test]
    fn ordering_towers() {
        let a = Magnitude::Log2 { exponent: 1e300 };
        let b = Magnitude::tower(2, 10.0);
        let c = Magnitude::tower(3, 10.0);
        assert!(a < b, "a tower of height 2 dominates any single exponent");
        assert!(b < c);
    }

    #[test]
    fn multiplication() {
        let a = Magnitude::from_u64(6);
        let b = Magnitude::from_u64(7);
        assert_eq!(a.mul(&b), Magnitude::from_u64(42));

        let c = Magnitude::Log2 { exponent: 100.0 };
        let d = Magnitude::Log2 { exponent: 28.0 };
        assert_eq!(c.mul(&d).log2_approx(), Some(128.0));
    }

    #[test]
    fn pow_large() {
        let a = Magnitude::Log2 { exponent: 50.0 };
        assert_eq!(a.pow(4).log2_approx(), Some(200.0));
        let e = Magnitude::from_u64(2).pow(20);
        assert_eq!(e.as_exact().and_then(|b| b.to_u64()), Some(1 << 20));
    }

    #[test]
    fn exp2_promotes_to_towers() {
        // 2^(2^2000) cannot have an f64 log, so it becomes a tower.
        let e = Magnitude::Log2 { exponent: 2000.0 };
        let t = e.exp2_of();
        assert!(t > e);
        assert!(t.log2_approx().is_none() || t.log2_approx().unwrap().is_finite());
        let tt = t.exp2_of();
        assert!(tt > t);
    }

    #[test]
    fn exact_values_above_limit_degrade_gracefully() {
        let huge = BigNat::pow2(EXACT_BIT_LIMIT + 5);
        let m: Magnitude = huge.into();
        assert!(matches!(m, Magnitude::Log2 { .. }));
        let l = m.log2_approx().unwrap();
        assert!((l - (EXACT_BIT_LIMIT + 5) as f64).abs() < 1.0);
    }

    #[test]
    fn describe_tower() {
        let t = Magnitude::tower(2, 4096.0);
        assert_eq!(t.describe(), "2^2^2^4096.0000");
    }
}
