//! An arbitrary-precision natural number implemented on `u32` limbs.
//!
//! The implementation is deliberately simple (schoolbook multiplication,
//! binary long division) — the workspace only needs exact arithmetic on
//! numbers with at most a few million bits, produced by factorials,
//! powers and the occasional product of those.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Shl, Shr, Sub, SubAssign};

/// An arbitrary-precision natural number (unsigned).
///
/// Internally a little-endian vector of `u32` limbs with no trailing zero
/// limbs (the canonical representation of zero is the empty vector).
///
/// # Examples
///
/// ```
/// use popproto_numerics::BigNat;
///
/// let a = BigNat::from(1_000_000_007u64);
/// let b = BigNat::from(998_244_353u64);
/// let c = &a * &b;
/// assert_eq!(c.to_string(), "998244359987710471");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct BigNat {
    /// Little-endian limbs, canonical (no trailing zeros).
    limbs: Vec<u32>,
}

const BASE_BITS: u32 = 32;

impl BigNat {
    /// The number zero.
    pub fn zero() -> Self {
        BigNat { limbs: Vec::new() }
    }

    /// The number one.
    pub fn one() -> Self {
        BigNat { limbs: vec![1] }
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Constructs a value from little-endian `u32` limbs (trailing zeros allowed).
    pub(crate) fn from_limbs(limbs: Vec<u32>) -> Self {
        let mut n = BigNat { limbs };
        n.normalize();
        n
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Number of bits in the binary representation (0 for zero).
    pub fn bits(&self) -> u64 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => {
                (self.limbs.len() as u64 - 1) * BASE_BITS as u64 + (32 - top.leading_zeros()) as u64
            }
        }
    }

    /// Value of the bit at position `i` (little-endian, bit 0 is the least significant).
    pub fn bit(&self, i: u64) -> bool {
        let limb = (i / BASE_BITS as u64) as usize;
        let off = (i % BASE_BITS as u64) as u32;
        self.limbs.get(limb).is_some_and(|&l| (l >> off) & 1 == 1)
    }

    /// Converts to `u64` if the value fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u64),
            2 => Some(self.limbs[0] as u64 | ((self.limbs[1] as u64) << 32)),
            _ => None,
        }
    }

    /// Approximate base-2 logarithm as an `f64` (`f64::NEG_INFINITY` for zero).
    pub fn log2(&self) -> f64 {
        if self.is_zero() {
            return f64::NEG_INFINITY;
        }
        let bits = self.bits();
        // Use the top 64 bits for the mantissa correction.
        let top_bits = 64.min(bits);
        let mut mant: u64 = 0;
        for i in 0..top_bits {
            let bit = self.bit(bits - 1 - i);
            mant = (mant << 1) | bit as u64;
        }
        (bits - top_bits) as f64 + (mant as f64).log2()
    }

    /// Adds `other` into `self`.
    pub(crate) fn add_assign_ref(&mut self, other: &BigNat) {
        let mut carry: u64 = 0;
        let n = self.limbs.len().max(other.limbs.len());
        self.limbs.resize(n, 0);
        for i in 0..n {
            let a = self.limbs[i] as u64;
            let b = *other.limbs.get(i).unwrap_or(&0) as u64;
            let s = a + b + carry;
            self.limbs[i] = s as u32;
            carry = s >> 32;
        }
        if carry > 0 {
            self.limbs.push(carry as u32);
        }
    }

    /// Subtracts `other` from `self`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self` (naturals are not closed under subtraction).
    pub(crate) fn sub_assign_ref(&mut self, other: &BigNat) {
        assert!(
            *self >= *other,
            "BigNat subtraction underflow: minuend smaller than subtrahend"
        );
        let mut borrow: i64 = 0;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i] as i64;
            let b = *other.limbs.get(i).unwrap_or(&0) as i64;
            let mut d = a - b - borrow;
            if d < 0 {
                d += 1 << 32;
                borrow = 1;
            } else {
                borrow = 0;
            }
            self.limbs[i] = d as u32;
        }
        debug_assert_eq!(borrow, 0);
        self.normalize();
    }

    /// Multiplies by a `u32` in place.
    pub(crate) fn mul_small(&mut self, m: u32) {
        if m == 0 {
            self.limbs.clear();
            return;
        }
        let mut carry: u64 = 0;
        for limb in &mut self.limbs {
            let p = (*limb as u64) * (m as u64) + carry;
            *limb = p as u32;
            carry = p >> 32;
        }
        if carry > 0 {
            self.limbs.push(carry as u32);
        }
    }

    /// Adds a `u32` in place.
    pub(crate) fn add_small(&mut self, a: u32) {
        let mut carry = a as u64;
        let mut i = 0;
        while carry > 0 {
            if i == self.limbs.len() {
                self.limbs.push(0);
            }
            let s = self.limbs[i] as u64 + carry;
            self.limbs[i] = s as u32;
            carry = s >> 32;
            i += 1;
        }
    }

    /// Divides in place by a `u32`, returning the remainder.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub(crate) fn div_rem_small(&mut self, d: u32) -> u32 {
        assert!(d != 0, "division by zero");
        let mut rem: u64 = 0;
        for limb in self.limbs.iter_mut().rev() {
            let cur = (rem << 32) | *limb as u64;
            *limb = (cur / d as u64) as u32;
            rem = cur % d as u64;
        }
        self.normalize();
        rem as u32
    }

    /// Schoolbook multiplication.
    pub(crate) fn mul_ref(&self, other: &BigNat) -> BigNat {
        if self.is_zero() || other.is_zero() {
            return BigNat::zero();
        }
        let mut out = vec![0u32; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry: u64 = 0;
            for (j, &b) in other.limbs.iter().enumerate() {
                let idx = i + j;
                let cur = out[idx] as u64 + (a as u64) * (b as u64) + carry;
                out[idx] = cur as u32;
                carry = cur >> 32;
            }
            let mut idx = i + other.limbs.len();
            while carry > 0 {
                let cur = out[idx] as u64 + carry;
                out[idx] = cur as u32;
                carry = cur >> 32;
                idx += 1;
            }
        }
        BigNat::from_limbs(out)
    }

    /// Raises `self` to the power `exp` by binary exponentiation.
    pub fn pow(&self, mut exp: u64) -> BigNat {
        let mut base = self.clone();
        let mut acc = BigNat::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = acc.mul_ref(&base);
            }
            exp >>= 1;
            if exp > 0 {
                base = base.mul_ref(&base);
            }
        }
        acc
    }

    /// Computes `2^exp`.
    pub(crate) fn pow2(exp: u64) -> BigNat {
        let mut n = BigNat::zero();
        let limb = (exp / 32) as usize;
        let off = (exp % 32) as u32;
        n.limbs = vec![0; limb + 1];
        n.limbs[limb] = 1 << off;
        n
    }

    /// Shifts left by `bits` bits.
    pub(crate) fn shl_bits(&self, bits: u64) -> BigNat {
        if self.is_zero() {
            return BigNat::zero();
        }
        let limb_shift = (bits / 32) as usize;
        let bit_shift = (bits % 32) as u32;
        let mut out = vec![0u32; limb_shift];
        let mut carry: u32 = 0;
        for &l in &self.limbs {
            if bit_shift == 0 {
                out.push(l);
            } else {
                out.push((l << bit_shift) | carry);
                carry = l >> (32 - bit_shift);
            }
        }
        if bit_shift != 0 && carry != 0 {
            out.push(carry);
        }
        BigNat::from_limbs(out)
    }

    /// Shifts right by `bits` bits.
    pub(crate) fn shr_bits(&self, bits: u64) -> BigNat {
        let limb_shift = (bits / 32) as usize;
        if limb_shift >= self.limbs.len() {
            return BigNat::zero();
        }
        let bit_shift = (bits % 32) as u32;
        let mut out = Vec::with_capacity(self.limbs.len() - limb_shift);
        for i in limb_shift..self.limbs.len() {
            let mut v = self.limbs[i] >> bit_shift;
            if bit_shift != 0 {
                if let Some(&next) = self.limbs.get(i + 1) {
                    v |= next << (32 - bit_shift);
                }
            }
            out.push(v);
        }
        BigNat::from_limbs(out)
    }

    /// Long division, returning `(quotient, remainder)`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub(crate) fn div_rem(&self, divisor: &BigNat) -> (BigNat, BigNat) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (BigNat::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            let mut q = self.clone();
            let r = q.div_rem_small(divisor.limbs[0]);
            return (q, BigNat::from(r as u64));
        }
        // Binary long division: O(bits * limbs); fine for our sizes.
        let mut quotient = BigNat::zero();
        let mut remainder = BigNat::zero();
        let bits = self.bits();
        quotient.limbs = vec![0; self.limbs.len()];
        for i in (0..bits).rev() {
            remainder = remainder.shl_bits(1);
            if self.bit(i) {
                remainder.add_small(1);
            }
            if remainder >= *divisor {
                remainder.sub_assign_ref(divisor);
                let limb = (i / 32) as usize;
                let off = (i % 32) as u32;
                quotient.limbs[limb] |= 1 << off;
            }
        }
        quotient.normalize();
        (quotient, remainder)
    }

    /// Parses a decimal string into a `BigNat`.
    ///
    /// # Errors
    ///
    /// Returns [`ParseBigNatError`] if the string is empty or contains a
    /// non-digit character.
    pub(crate) fn from_decimal_str(s: &str) -> Result<Self, ParseBigNatError> {
        if s.is_empty() {
            return Err(ParseBigNatError::Empty);
        }
        let mut n = BigNat::zero();
        for c in s.chars() {
            let d = c.to_digit(10).ok_or(ParseBigNatError::InvalidDigit(c))?;
            n.mul_small(10);
            n.add_small(d);
        }
        Ok(n)
    }

    /// Renders the value in decimal.
    pub(crate) fn to_decimal_string(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut digits = Vec::new();
        let mut n = self.clone();
        while !n.is_zero() {
            let r = n.div_rem_small(1_000_000_000);
            digits.push(r);
        }
        let mut s = String::new();
        for (i, d) in digits.iter().rev().enumerate() {
            if i == 0 {
                s.push_str(&d.to_string());
            } else {
                s.push_str(&format!("{d:09}"));
            }
        }
        s
    }
}

/// Error returned when parsing a decimal string into a [`BigNat`] fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseBigNatError {
    /// The input string was empty.
    Empty,
    /// The input contained a character that is not a decimal digit.
    InvalidDigit(char),
}

impl fmt::Display for ParseBigNatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseBigNatError::Empty => write!(f, "empty string"),
            ParseBigNatError::InvalidDigit(c) => write!(f, "invalid decimal digit {c:?}"),
        }
    }
}

impl std::error::Error for ParseBigNatError {}

impl std::str::FromStr for BigNat {
    type Err = ParseBigNatError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        BigNat::from_decimal_str(s)
    }
}

impl fmt::Debug for BigNat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigNat({})", self.to_decimal_string())
    }
}

impl fmt::Display for BigNat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_decimal_string())
    }
}

impl From<u32> for BigNat {
    fn from(v: u32) -> Self {
        BigNat::from(v as u64)
    }
}

impl From<u64> for BigNat {
    fn from(v: u64) -> Self {
        BigNat::from_limbs(vec![v as u32, (v >> 32) as u32])
    }
}

impl From<u128> for BigNat {
    fn from(v: u128) -> Self {
        BigNat::from_limbs(vec![
            v as u32,
            (v >> 32) as u32,
            (v >> 64) as u32,
            (v >> 96) as u32,
        ])
    }
}

impl From<usize> for BigNat {
    fn from(v: usize) -> Self {
        BigNat::from(v as u64)
    }
}

impl Ord for BigNat {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        o => return o,
                    }
                }
                Ordering::Equal
            }
            o => o,
        }
    }
}

impl PartialOrd for BigNat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add for BigNat {
    type Output = BigNat;
    fn add(mut self, rhs: BigNat) -> BigNat {
        self.add_assign_ref(&rhs);
        self
    }
}

impl Add<&BigNat> for &BigNat {
    type Output = BigNat;
    fn add(self, rhs: &BigNat) -> BigNat {
        let mut out = self.clone();
        out.add_assign_ref(rhs);
        out
    }
}

impl AddAssign for BigNat {
    fn add_assign(&mut self, rhs: BigNat) {
        self.add_assign_ref(&rhs);
    }
}

impl Sub for BigNat {
    type Output = BigNat;
    fn sub(mut self, rhs: BigNat) -> BigNat {
        self.sub_assign_ref(&rhs);
        self
    }
}

impl Sub<&BigNat> for &BigNat {
    type Output = BigNat;
    fn sub(self, rhs: &BigNat) -> BigNat {
        let mut out = self.clone();
        out.sub_assign_ref(rhs);
        out
    }
}

impl SubAssign for BigNat {
    fn sub_assign(&mut self, rhs: BigNat) {
        self.sub_assign_ref(&rhs);
    }
}

impl Mul for BigNat {
    type Output = BigNat;
    fn mul(self, rhs: BigNat) -> BigNat {
        self.mul_ref(&rhs)
    }
}

impl Mul<&BigNat> for &BigNat {
    type Output = BigNat;
    fn mul(self, rhs: &BigNat) -> BigNat {
        self.mul_ref(rhs)
    }
}

impl MulAssign for BigNat {
    fn mul_assign(&mut self, rhs: BigNat) {
        *self = self.mul_ref(&rhs);
    }
}

impl Shl<u64> for &BigNat {
    type Output = BigNat;
    fn shl(self, rhs: u64) -> BigNat {
        self.shl_bits(rhs)
    }
}

impl Shr<u64> for &BigNat {
    type Output = BigNat;
    fn shr(self, rhs: u64) -> BigNat {
        self.shr_bits(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Converts to `u128` if the value fits: the oracle the arithmetic
    /// tests compare against.
    fn to_u128(n: &BigNat) -> Option<u128> {
        if n.limbs.len() > 4 {
            return None;
        }
        let mut v: u128 = 0;
        for (i, &l) in n.limbs.iter().enumerate() {
            v |= (l as u128) << (32 * i);
        }
        Some(v)
    }

    #[test]
    fn zero_and_one() {
        assert!(BigNat::zero().is_zero());
        assert_eq!(BigNat::one().to_u64(), Some(1));
        assert_eq!(BigNat::zero().to_decimal_string(), "0");
        assert_eq!(BigNat::one().to_decimal_string(), "1");
        assert_eq!(BigNat::zero().bits(), 0);
        assert_eq!(BigNat::one().bits(), 1);
    }

    #[test]
    fn from_u64_roundtrip() {
        for v in [0u64, 1, 42, u32::MAX as u64, u32::MAX as u64 + 1, u64::MAX] {
            assert_eq!(BigNat::from(v).to_u64(), Some(v));
            assert_eq!(BigNat::from(v).to_decimal_string(), v.to_string());
        }
    }

    #[test]
    fn from_u128_roundtrip() {
        let v = 340_282_366_920_938_463_463_374_607_431_768_211_455u128; // u128::MAX
        assert_eq!(to_u128(&BigNat::from(v)), Some(v));
        assert_eq!(BigNat::from(v).to_u64(), None);
    }

    #[test]
    fn addition_with_carry() {
        let a = BigNat::from(u64::MAX);
        let b = BigNat::from(1u64);
        let c = &a + &b;
        assert_eq!(to_u128(&c), Some(u64::MAX as u128 + 1));
    }

    #[test]
    fn subtraction() {
        let a = BigNat::from(1u128 << 80);
        let b = BigNat::from(1u64);
        let c = &a - &b;
        assert_eq!(to_u128(&c), Some((1u128 << 80) - 1));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        let _ = BigNat::from(1u64) - BigNat::from(2u64);
    }

    #[test]
    fn multiplication_matches_u128() {
        let a = 123_456_789_012_345u64;
        let b = 987_654_321_098u64;
        let big = BigNat::from(a) * BigNat::from(b);
        assert_eq!(to_u128(&big), Some(a as u128 * b as u128));
    }

    #[test]
    fn pow_and_pow2() {
        assert_eq!(BigNat::from(2u64).pow(10).to_u64(), Some(1024));
        assert_eq!(BigNat::pow2(100).bits(), 101);
        assert_eq!(BigNat::from(3u64).pow(0), BigNat::one());
        let p = BigNat::from(7u64).pow(20);
        assert_eq!(to_u128(&p), Some(7u128.pow(20)));
    }

    #[test]
    fn div_rem_small_cases() {
        let mut n = BigNat::from(1_000_000_007u64);
        let r = n.div_rem_small(10);
        assert_eq!(r, 7);
        assert_eq!(n.to_u64(), Some(100_000_000));
    }

    #[test]
    fn div_rem_long_division() {
        let a = BigNat::from(2u64).pow(130);
        let b = BigNat::from(3u64).pow(40);
        let (q, r) = a.div_rem(&b);
        // Verify a == q*b + r and r < b.
        let back = &(&q * &b) + &r;
        assert_eq!(back, a);
        assert!(r < b);
    }

    #[test]
    fn shifts() {
        let a = BigNat::from(0xDEADBEEFu64);
        assert_eq!(a.shl_bits(40).shr_bits(40), a);
        assert_eq!(a.shl_bits(3).to_u64(), Some(0xDEADBEEFu64 << 3));
        assert_eq!(BigNat::zero().shl_bits(100), BigNat::zero());
    }

    #[test]
    fn decimal_parse_and_display() {
        let s = "123456789012345678901234567890123456789";
        let n = BigNat::from_decimal_str(s).unwrap();
        assert_eq!(n.to_decimal_string(), s);
        assert!(BigNat::from_decimal_str("").is_err());
        assert!(BigNat::from_decimal_str("12a").is_err());
        assert_eq!("42".parse::<BigNat>().unwrap(), BigNat::from(42u64));
    }

    #[test]
    fn ordering() {
        let a = BigNat::from(5u64);
        let b = BigNat::from(7u64);
        let c = BigNat::pow2(64);
        assert!(a < b);
        assert!(b < c);
        assert!(c > a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn log2_accuracy() {
        assert!((BigNat::from(1024u64).log2() - 10.0).abs() < 1e-9);
        let big = BigNat::pow2(1000);
        assert!((big.log2() - 1000.0).abs() < 1e-6);
        assert_eq!(BigNat::zero().log2(), f64::NEG_INFINITY);
        let three = BigNat::from(3u64);
        assert!((three.log2() - 3f64.log2()).abs() < 1e-9);
    }

    #[test]
    fn bit_access() {
        let n = BigNat::from(0b1011u64);
        assert!(n.bit(0));
        assert!(n.bit(1));
        assert!(!n.bit(2));
        assert!(n.bit(3));
        assert!(!n.bit(64));
    }

    #[test]
    fn mul_small_and_add_small() {
        let mut n = BigNat::from(u32::MAX as u64);
        n.mul_small(u32::MAX);
        n.add_small(u32::MAX);
        // (2^32-1)^2 + (2^32-1) = (2^32-1) * 2^32
        let expect = (u32::MAX as u128) * (1u128 << 32);
        assert_eq!(to_u128(&n), Some(expect));
    }
}
