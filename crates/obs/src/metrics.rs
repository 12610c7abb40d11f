//! Named counters, gauges, and fixed-bucket histograms.

use std::collections::BTreeMap;

/// A fixed-bucket histogram over `u64` samples.
///
/// Buckets are defined by a sorted list of inclusive upper bounds; a final
/// overflow bucket catches everything above the last bound. The histogram
/// also tracks count, sum, min, and max exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates a histogram with the given inclusive upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &[u64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean sample value, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Iterates `(label, count)` per bucket, including the overflow bucket.
    ///
    /// Labels are `<=N` for bounded buckets and `>N` for the overflow
    /// bucket.
    pub fn buckets(&self) -> impl Iterator<Item = (String, u64)> + '_ {
        self.bounds
            .iter()
            .map(|b| format!("<={b}"))
            .chain(std::iter::once(format!(">{}", self.bounds[self.bounds.len() - 1])))
            .zip(self.counts.iter().copied())
    }

    /// The inclusive bucket upper bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Raw per-bucket counts: one entry per bound, plus the overflow
    /// bucket last.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }
}

/// Exact quantiles over a retained, sorted sample set.
///
/// Complements [`Histogram`] (which trades exactness for bounded memory):
/// where a report must reproduce a percentile exactly — e.g. the serving
/// campaign's committed p50/p99 latencies — keep the samples and use the
/// nearest-rank definition `sorted[(len - 1) * p / 100]`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Quantiles {
    sorted: Vec<u64>,
}

impl Quantiles {
    /// Builds from an arbitrary-order sample vector.
    pub fn from_samples(mut samples: Vec<u64>) -> Quantiles {
        samples.sort_unstable();
        Quantiles { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The exact nearest-rank `p`-th percentile (`p` in `0..=100`,
    /// clamped), defined as `sorted[(len - 1) * p / 100]`. Returns 0 when
    /// empty, matching the serving campaign's historical convention.
    pub fn percentile(&self, p: usize) -> u64 {
        if self.sorted.is_empty() {
            0
        } else {
            self.sorted[(self.sorted.len() - 1) * p.min(100) / 100]
        }
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        self.sorted.first().copied()
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        self.sorted.last().copied()
    }

    /// The sorted samples.
    pub fn samples(&self) -> &[u64] {
        &self.sorted
    }
}

/// A registry of named metrics.
///
/// Names are dotted paths (see [`crate::names`]); `BTreeMap` keeps exports
/// deterministically ordered.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `delta` to the named counter, creating it at zero if absent.
    pub fn add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets the named gauge.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Records a sample into the named histogram, creating it with `bounds`
    /// if absent.
    pub fn observe(&mut self, name: &str, bounds: &[u64], value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .record(value);
    }

    /// Reads a counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Reads a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Reads a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterates gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterates histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Merges another registry into this one (counters add, gauges take the
    /// other's value, histogram bucket counts add when bounds match).
    ///
    /// # Panics
    ///
    /// Panics if a histogram of the same name has different bounds.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
                Some(mine) => {
                    assert_eq!(mine.bounds, h.bounds, "histogram {k} bounds mismatch in merge");
                    for (a, b) in mine.counts.iter_mut().zip(&h.counts) {
                        *a += b;
                    }
                    mine.count += h.count;
                    mine.sum += h.sum;
                    mine.min = mine.min.min(h.min);
                    mine.max = mine.max.max(h.max);
                }
            }
        }
    }

    /// Takes an owned snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot { registry: self.clone() }
    }
}

/// A point-in-time copy of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// The copied registry.
    pub registry: MetricsRegistry,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_inclusive_upper_bounds() {
        let mut h = Histogram::new(&[0, 1, 4, 8]);
        // Exactly on each bound lands in that bound's bucket.
        h.record(0);
        h.record(1);
        h.record(4);
        h.record(8);
        // One above a bound lands in the next bucket.
        h.record(2);
        h.record(5);
        // Above the last bound lands in overflow.
        h.record(9);
        h.record(1000);
        let b: Vec<(String, u64)> = h.buckets().collect();
        assert_eq!(
            b,
            vec![
                ("<=0".to_string(), 1),
                ("<=1".to_string(), 1),
                ("<=4".to_string(), 2),
                ("<=8".to_string(), 2),
                (">8".to_string(), 2),
            ]
        );
        assert_eq!(h.count(), 8);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
    }

    #[test]
    fn histogram_mean_and_empty_behaviour() {
        let mut h = Histogram::new(&[10]);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        h.record(4);
        h.record(8);
        assert_eq!(h.mean(), 6.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_panic() {
        Histogram::new(&[4, 2]);
    }

    #[test]
    fn quantiles_match_nearest_rank_formula() {
        let samples = vec![9, 1, 7, 3, 5];
        let q = Quantiles::from_samples(samples.clone());
        let mut sorted = samples;
        sorted.sort_unstable();
        for p in [0, 10, 25, 50, 75, 90, 99, 100] {
            assert_eq!(q.percentile(p), sorted[(sorted.len() - 1) * p / 100], "p{p}");
        }
        assert_eq!(q.min(), Some(1));
        assert_eq!(q.max(), Some(9));
        assert_eq!(Quantiles::from_samples(vec![]).percentile(50), 0);
        assert!(Quantiles::from_samples(vec![]).is_empty());
    }

    #[test]
    fn registry_counters_and_merge() {
        let mut a = MetricsRegistry::new();
        a.add("x", 2);
        a.observe("h", &[1, 2], 1);
        let mut b = MetricsRegistry::new();
        b.add("x", 3);
        b.add("y", 1);
        b.observe("h", &[1, 2], 5);
        a.merge(&b);
        assert_eq!(a.counter("x"), 5);
        assert_eq!(a.counter("y"), 1);
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), Some(5));
    }
}
