//! Small overflow-aware helpers on machine integers.
//!
//! Population sizes and interaction counts are held in `u64`; thresholds and
//! bound computations occasionally exceed that, so callers saturate.

/// Saturating integer power `base^exp` on `u64`.
///
/// # Examples
///
/// ```
/// use popproto_numerics::saturating_pow_u64;
/// assert_eq!(saturating_pow_u64(3, 4), 81);
/// assert_eq!(saturating_pow_u64(2, 100), u64::MAX);
/// ```
pub fn saturating_pow_u64(base: u64, exp: u32) -> u64 {
    let mut acc: u64 = 1;
    for _ in 0..exp {
        acc = acc.saturating_mul(base);
        if acc == u64::MAX {
            return u64::MAX;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturating_pow_behaviour() {
        assert_eq!(saturating_pow_u64(2, 0), 1);
        assert_eq!(saturating_pow_u64(2, 10), 1024);
        assert_eq!(saturating_pow_u64(0, 5), 0);
        assert_eq!(saturating_pow_u64(u64::MAX, 2), u64::MAX);
        assert_eq!(saturating_pow_u64(3, 41), u64::MAX);
    }
}
