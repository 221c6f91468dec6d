//! Exact order statistics over raw samples. Nothing here buckets: every
//! latency the benchmark reports is a sorted-sample percentile with its
//! sample count.

/// Median of `values` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p` of the samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Mean of the samples from the `lo` rank up to (not including) the `hi`
/// rank of an ascending-sorted sample: a tail latency that moves smoothly.
///
/// A single percentile does not. On this host a timer interrupt costs an
/// operation 20–40 µs every millisecond or so, which makes roughly 1 % of
/// 5 µs operations slow: the 99th percentile then sits on the edge of that
/// cliff and reads 6.5 µs or 12 µs from one run to the next, while the
/// mean of the p99–p99.9 band stays within a few percent. Leaving out the
/// last 0.1 % keeps one millisecond-long stall from moving it.
pub fn band_mean(sorted: &[u64], lo: f64, hi: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let a = ((lo * sorted.len() as f64).ceil() as usize).min(sorted.len() - 1);
    let b = ((hi * sorted.len() as f64).ceil() as usize).clamp(a + 1, sorted.len());
    sorted[a..b].iter().sum::<u64>() as f64 / (b - a) as f64
}

/// The highest of p50/p90/p99/p99.9/p99.99 that still has at least ten
/// samples beyond it, or `None` below twenty samples.
pub fn highest_supported(n: usize) -> Option<f64> {
    [0.9999, 0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|p| samples_beyond(n, *p) >= 10)
}

/// How many of `n` sorted samples lie strictly beyond the `p` rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).min(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_a_known_distribution_are_exact() {
        // 1..=1000 shuffled by a fixed stride, then sorted as the
        // benchmark does: pK of this sample is exactly 10*K.
        let mut v: Vec<u64> = (0..1000u64).map(|i| (i * 7919) % 1000 + 1).collect();
        v.sort_unstable();
        assert_eq!(percentile(&v, 0.50), 500);
        assert_eq!(percentile(&v, 0.90), 900);
        assert_eq!(percentile(&v, 0.99), 990);
        assert_eq!(percentile(&v, 1.0), 1000);
        assert_eq!(samples_beyond(v.len(), 0.99), 10);
        assert_eq!(highest_supported(v.len()), Some(0.99));
        // One sample fewer and p99 no longer has ten samples beyond it.
        assert_eq!(highest_supported(999), Some(0.9));
        assert_eq!(highest_supported(19), None);
    }

    #[test]
    fn a_heavy_tail_is_not_flattened_into_a_bucket() {
        // 990 fast samples and 10 slow ones: p50 and p99 must differ by
        // the real factor, which a 2x-bucket histogram cannot show.
        let mut v = vec![262u64; 990];
        v.extend([40_000u64; 10]);
        v.sort_unstable();
        assert_eq!(percentile(&v, 0.50), 262);
        assert_eq!(percentile(&v, 0.99), 262);
        assert_eq!(percentile(&v, 0.991), 40_000);
    }

    #[test]
    fn band_mean_averages_the_ranks_between_two_percentiles() {
        let v: Vec<u64> = (1..=1000).collect();
        // Ranks 991..=999: the samples beyond p99, without the last 0.1 %.
        assert_eq!(band_mean(&v, 0.99, 0.999), 995.0);
        assert_eq!(band_mean(&v, 0.0, 1.0), 500.5);
        assert_eq!(band_mean(&[7], 0.99, 0.999), 7.0);
        assert_eq!(band_mean(&[], 0.99, 0.999), 0.0);
        // A cliff that moves from just under to just over 1 % of the
        // samples flips p99 between the two modes but moves the band mean
        // by a tenth.
        let with_slow = |slow: usize| {
            let mut v = vec![5u64; 10_000 - slow];
            v.extend(vec![30u64; slow]);
            v
        };
        let (under, over) = (with_slow(90), with_slow(110));
        assert_eq!((percentile(&under, 0.99), percentile(&over, 0.99)), (5, 30));
        assert_eq!(band_mean(&over, 0.99, 0.999), 30.0);
        assert!(band_mean(&under, 0.99, 0.999) > 27.0);
    }

    #[test]
    fn median_handles_even_odd_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
