//! Order statistics over per-pass and per-operation samples.

/// The median of `v` by nearest rank: the lower middle value for an
/// even count, so that it is always a measured sample and never above
/// [`tail`]. 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    sorted(v)[(v.len() - 1) / 2]
}

/// The tail of `v`: the highest percentile that still has at least ten
/// samples beyond it, i.e. the 11th-largest sample, together with that
/// percentile (share of samples at or below it, in %). With 94 samples
/// that is p89; with 20 it is the median itself (p50). Fewer
/// than 11 samples fall back to the largest one, reported as p100.
pub fn tail(v: &[f64]) -> (f64, f64) {
    if v.is_empty() {
        return (0.0, 100.0);
    }
    let s = sorted(v);
    let n = s.len();
    if n <= 10 {
        return (s[n - 1], 100.0);
    }
    let i = n - 11;
    (s[i], 100.0 * (i + 1) as f64 / n as f64)
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=94).map(f64::from).collect();
        let (t, pct) = tail(&v);
        assert_eq!(t, 84.0);
        assert_eq!(v.iter().filter(|&&x| x > t).count(), 10);
        assert!((pct - 89.36).abs() < 0.01);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), (10.0, 50.0));
        assert_eq!(median(&v), 10.0);
        assert_eq!(tail(&[5.0, 7.0]), (7.0, 100.0));
    }
}
