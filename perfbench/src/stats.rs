//! Order statistics over per-op samples.
//!
//! Percentiles use the nearest-rank definition: the `p`-th percentile of
//! `n` sorted samples is the one at 1-based rank `ceil(p/100 · n)`.

use std::collections::BTreeMap;

/// 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n` samples.
pub fn rank(p: f64, n: usize) -> usize {
    assert!(n > 0 && p > 0.0 && p <= 100.0, "percentile {p} of {n} samples");
    // Multiply before dividing: p90 of 100 samples is rank 9000/100 = 90
    // exactly, where 0.9 · 100 would round up to rank 91.
    (((p * n as f64) / 100.0).ceil() as usize).clamp(1, n)
}

/// The sample at percentile `p` of samples sorted in ascending order.
pub fn at<T>(sorted: &[T], p: f64) -> &T {
    &sorted[rank(p, sorted.len()) - 1]
}

/// The median as the mean of the two middle values (even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The class percentile [`rotation_ns`] reads each job class at.
pub const CLASS_PERCENTILE: f64 = 10.0;

/// Time of one rotation of a fixed job mix, with every op read at the
/// `p`-th percentile of its own class: the sum over all `(class, ns)` ops
/// of their class's percentile, divided by the number of whole rotations.
///
/// A low `p` reads each class where the host let it run at full speed, so
/// the value holds still while the host's slow share of the run stays below
/// `1 - p/100`, and it still moves with the cost of every class in the mix.
pub fn rotation_ns<'a>(
    ops: impl IntoIterator<Item = (&'a str, u64)>,
    rotations: usize,
    p: f64,
) -> f64 {
    assert!(rotations > 0, "no whole rotation");
    let mut classes: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for (class, ns) in ops {
        classes.entry(class).or_default().push(ns);
    }
    let total: f64 = classes
        .values_mut()
        .map(|v| {
            v.sort_unstable();
            *at(v, p) as f64 * v.len() as f64
        })
        .sum();
    total / rotations as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_inputs() {
        assert_eq!(rank(50.0, 1), 1);
        assert_eq!(rank(90.0, 100), 90);
        assert_eq!(rank(90.0, 101), 91);
        assert_eq!(rank(50.0, 100), 50);
        assert_eq!(rank(50.0, 7), 4);
        assert_eq!(rank(100.0, 7), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(*at(&v, 50.0), 50);
        assert_eq!(*at(&v, 90.0), 90);
        assert_eq!(*at(&[1, 2, 3], 50.0), 2);
        assert_eq!(*at(&[5], 90.0), 5);
        // p90 of 100 samples leaves exactly ten samples above it.
        let above = v.iter().filter(|&&x| x > *at(&v, 90.0)).count();
        assert_eq!(above, 10);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn rotation_of_known_inputs() {
        // Two rotations of {a, b, b}: a at 10 and 30, b at 1, 2, 3, 4.
        let ops = [("a", 10), ("b", 1), ("b", 2), ("a", 30), ("b", 3), ("b", 4)];
        // Nearest-rank p50: a = 10, b = 2; one rotation is a + 2 · b.
        assert_eq!(rotation_ns(ops, 2, 50.0), 14.0);
        // p100 reads every class at its slowest: 30 + 2 · 4.
        assert_eq!(rotation_ns(ops, 2, 100.0), 38.0);
    }

    /// The serve mix, two hits and five misses per rotation, on a host that
    /// runs a stretch of the run 1.7 times slower: the rotation read at the
    /// class p10 does not move for any slow share up to 85 %, wherever the
    /// slow stretch lies.
    #[test]
    fn rotation_holds_still_while_the_host_is_slow_part_of_the_run() {
        let mix = [
            ("hit", 40),
            ("hit", 40),
            ("m1", 700),
            ("m2", 850),
            ("m3", 950),
            ("m4", 1250),
            ("m5", 1650),
        ];
        let fast: u64 = mix.iter().map(|&(_, ns)| ns).sum();
        let rotations = 200;
        for slow_pct in [0, 30, 50, 70, 85] {
            for offset in [0, 30, 60] {
                let slow = rotations * slow_pct / 100;
                let ops = (0..rotations).flat_map(|r| {
                    let factor = if (r + offset) % rotations < slow { 17 } else { 10 };
                    mix.iter().map(move |&(c, ns)| (c, ns * factor / 10))
                });
                let got = rotation_ns(ops, rotations, CLASS_PERCENTILE);
                assert_eq!(got, fast as f64, "slow share {slow_pct} %, offset {offset}");
            }
        }
    }
}
