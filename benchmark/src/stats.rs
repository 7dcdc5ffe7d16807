//! Order statistics shared by the workloads, the probes and `compare`.

/// The `p`-th percentile (0..=100) of `values`, nearest-rank: the smallest
/// sample with at least `p` % of the samples at or below it. Sorts in place.
/// `None` for an empty slice.
pub fn percentile<T: Copy + Ord>(values: &mut [T], p: f64) -> Option<T> {
    if values.is_empty() {
        return None;
    }
    values.sort_unstable();
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    Some(values[rank.clamp(1, values.len()) - 1])
}

/// Median of floating-point samples (mean of the two middle ones for an even
/// count). `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// First and third quartile by the "exclusive" method Python's
/// `statistics.quantiles(values, n=4)` uses, so `compare` and the driver
/// agree on what a spread is. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |quarter: usize| {
        // Position quarter*(n+1)/4 in 1-based ranks, clamped to the sample.
        let scaled = quarter * (n + 1);
        let j = (scaled / 4).clamp(1, n - 1);
        let delta = scaled as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 50.0), Some(50));
        assert_eq!(percentile(&mut v, 99.0), Some(99));
        assert_eq!(percentile(&mut v, 100.0), Some(100));
        assert_eq!(percentile(&mut v, 0.0), Some(1));
        let mut one = [7u32];
        assert_eq!(percentile(&mut one, 50.0), Some(7));
        assert_eq!(percentile(&mut one, 99.0), Some(7));
        let mut odd = [5u32, 1, 3];
        assert_eq!(percentile(&mut odd, 50.0), Some(3));
        assert_eq!(percentile::<u32>(&mut [], 50.0), None);
    }

    #[test]
    fn median_of_windows() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        // One outlier window does not move the median.
        assert_eq!(median(&[2.0, 2.1, 0.1, 2.2, 1.9]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
    }
}
