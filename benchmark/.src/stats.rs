//! Reducers over timing samples.
//!
//! Interference on the measuring host is bursty and only ever adds time
//! (README, "Noise study"), so the headline reducer is a floor: the mean
//! of the few fastest samples. Median and p90 travel beside it as
//! information about how noisy the run was.

/// How many of the fastest samples the floor averages.
pub const FLOOR_K: usize = 5;

/// Mean of the `FLOOR_K` smallest samples (of all of them when fewer).
/// Returns 0.0 for an empty slice.
pub fn floor(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let k = FLOOR_K.min(sorted.len());
    sorted[..k].iter().sum::<f64>() / k as f64
}

/// Nearest-rank percentile, `p` in `[0, 100]`. Returns 0.0 for an empty
/// slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 100.0) / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median with the two middle samples averaged. Returns 0.0 for an empty
/// slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_is_the_mean_of_the_five_fastest() {
        let s = [9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 100.0, 7.0];
        assert_eq!(floor(&s), 3.0);
    }

    #[test]
    fn floor_ignores_slow_outliers_entirely() {
        let mut s = vec![10.0; 5];
        s.extend([1e9; 50]);
        assert_eq!(floor(&s), 10.0);
    }

    #[test]
    fn floor_of_fewer_than_k_samples_is_their_mean() {
        assert_eq!(floor(&[4.0, 2.0]), 3.0);
        assert_eq!(floor(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 50.0), 3.0);
        assert_eq!(percentile(&s, 90.0), 5.0);
        assert_eq!(percentile(&s, 100.0), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_of_even_count_takes_the_lower_middle() {
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }
}
