//! Order statistics and seed derivation.

/// The `q`-quantile of `values`, interpolating linearly between the order
/// statistics around position `q · (len − 1)`; `0.0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values` (mean of the middle pair for even counts);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `max / mean − 1`: how far the slowest (or busiest) part sits above the
/// average one.  `0.0` when there is nothing to compare.
pub fn imbalance(values: &[f64]) -> f64 {
    let mean = values.iter().sum::<f64>() / values.len().max(1) as f64;
    let max = values.iter().copied().fold(0.0, f64::max);
    if mean > 0.0 {
        max / mean - 1.0
    } else {
        0.0
    }
}

/// `a / b`, or `0.0` when `b` is zero (a layer that did no work).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// SplitMix64 finaliser: a bijective mix of one 64-bit word.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The trajectory seed of lane `lane` in repetition `rep` of a run started
/// with `--seed seed`: distinct for every `(seed, rep, lane)` in practice
/// and a pure function of them.
pub fn trajectory_seed(seed: u64, rep: u64, lane: u64) -> u64 {
    mix(mix(seed) ^ mix((rep << 32) ^ lane ^ 0xD1B5_4A32_D192_ED03))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        let values = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&values, 0.25), 2.0);
        assert_eq!(quantile(&values, 0.75), 4.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
    }

    #[test]
    fn imbalance_is_zero_when_balanced() {
        assert_eq!(imbalance(&[2.0, 2.0]), 0.0);
        assert!((imbalance(&[1.0, 3.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn seeds_differ_across_lanes_reps_and_runs() {
        let a = trajectory_seed(1, 0, 0);
        assert_ne!(a, trajectory_seed(1, 0, 1));
        assert_ne!(a, trajectory_seed(1, 1, 0));
        assert_ne!(a, trajectory_seed(2, 0, 0));
        assert_eq!(a, trajectory_seed(1, 0, 0));
    }
}
