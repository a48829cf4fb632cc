//! Order statistics for the end-to-end metrics.

/// Samples a tail estimate must leave above it.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs`; the mean of the middle pair for an even count.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// A tail latency by the benchmark's rule: the highest percentile that still
/// has at least [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// The percentile the value sits at, `100 · (rank + 1) / samples`.
    pub percentile: f64,
}

/// The tail of `xs`, or `None` when fewer than `TAIL_BEYOND + 1` samples
/// exist and no percentile qualifies.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - 1 - TAIL_BEYOND;
    Some(Tail {
        value: sorted(xs)[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_is_the_highest_rank_with_ten_beyond_for_every_size() {
        for n in 1..300usize {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            match tail(&xs) {
                None => assert!(n <= TAIL_BEYOND, "n={n}"),
                Some(t) => {
                    let beyond = xs.iter().filter(|&&x| x > t.value).count();
                    assert_eq!(beyond, TAIL_BEYOND, "n={n}");
                    assert!(t.percentile > 0.0 && t.percentile < 100.0);
                }
            }
        }
        // with eleven samples only the minimum has ten beyond it
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&eleven).unwrap().value, 0.0);
        assert!(tail(&eleven[..10]).is_none());
    }
}
