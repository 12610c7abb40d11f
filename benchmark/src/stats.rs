//! Order statistics over timing samples, and the process's peak memory.

/// Median of `samples` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice — every caller times at least one rep.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The smallest of `samples`: the estimator behind every host-time figure.
///
/// Each rep does identical, deterministic work, and on the shared 2-core
/// box interference only ever *adds* time — in bursts and in phases minutes
/// long that hit memory-bound code hardest (a fixed integer loop stayed
/// within 5 % while `gemv_warm` reps drifted by 50 %). The median rep moves
/// with the neighbours; the fastest rep is the least-disturbed observation of
/// what the code costs and repeats several times better from run to run.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().min_by(f64::total_cmp).expect("fastest of no samples")
}

/// Zero-based index of the nearest-rank percentile `p` (0..=100) among
/// `len` sorted samples.
fn nearest_rank(len: usize, p: usize) -> usize {
    (p * len).div_ceil(100).clamp(1, len) - 1
}

/// Nearest-rank percentile `p` (0..=100) of `samples`.
pub fn percentile(samples: &[f64], p: usize) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[nearest_rank(s.len(), p)]
}

/// Nearest-rank percentile of integer samples (simulated cycles).
pub fn percentile_u64(samples: &[u64], p: usize) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut s = samples.to_vec();
    s.sort_unstable();
    s[nearest_rank(s.len(), p)]
}

/// The process's peak resident set (`VmHWM`) in MiB; `None` where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(fastest(&[4.0, 1.0, 2.0, 3.0]), 1.0);
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 90), 90.0);
        assert_eq!(percentile(&s, 100), 100.0);
        assert_eq!(percentile_u64(&[5, 1, 9], 50), 5);
        assert_eq!(percentile_u64(&[], 99), 0);
    }
}
