//! The process-global metric registry: named counters and histograms.
//!
//! Metrics are registered on first use (`counter("...")` /
//! `histogram("...", bounds)`) and live for the life of the process; the
//! returned `Arc` can be cached in a `OnceLock` at a hot call site so the
//! registry mutex is touched once, not per operation. Reads for export go
//! through [`Registry::snapshot`], which copies the current values and
//! never blocks writers for longer than a map traversal.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram of `f64` observations.
///
/// Buckets are defined by ascending upper bounds; one implicit `+Inf`
/// bucket catches everything above the last bound. Internally each bucket
/// count is *non*-cumulative (so an observation touches exactly one
/// bucket); [`Histogram::snapshot`] produces the cumulative form the
/// Prometheus exposition wants. The running sum is kept as `f64` bits in
/// an `AtomicU64` updated by a CAS loop — lock-free without `unsafe`.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    sum_bits: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Histogram {
        let mut bounds: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
        bounds.sort_by(f64::total_cmp);
        bounds.dedup_by(|a, b| a.total_cmp(b).is_eq());
        let buckets = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram { bounds, buckets, sum_bits: AtomicU64::new(0.0_f64.to_bits()) }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self.bounds.iter().position(|&b| v <= b).unwrap_or(self.bounds.len());
        if let Some(bucket) = self.buckets.get(idx) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total observation count.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// A point-in-time copy with cumulative bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut cumulative = Vec::with_capacity(self.buckets.len());
        let mut running = 0u64;
        for bucket in &self.buckets {
            running += bucket.load(Ordering::Relaxed);
            cumulative.push(running);
        }
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            cumulative,
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
        }
    }
}

/// A copied histogram state. `cumulative` has one entry per bound plus a
/// final entry for the implicit `+Inf` bucket; entries are nondecreasing
/// by construction and the last one is the total count.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Ascending finite upper bounds.
    pub bounds: Vec<f64>,
    /// Cumulative counts per bucket (`bounds.len() + 1` entries).
    pub cumulative: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Total number of observations (the `+Inf` cumulative count).
    pub fn count(&self) -> u64 {
        self.cumulative.last().copied().unwrap_or(0)
    }
}

#[derive(Default)]
struct Metrics {
    counters: BTreeMap<String, Arc<Counter>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// A set of named metrics. Most code uses the process-global instance via
/// [`counter`] / [`histogram`] / [`global`]; a separate instance holds
/// metrics owned by one component (each `adec serve` server keeps its
/// counters in its own) or isolates a test.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<Metrics>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn lock(&self) -> MutexGuard<'_, Metrics> {
        // Metric state is all atomics and Arcs, structurally valid even if
        // a holder panicked mid-update, so a poisoned lock is recoverable.
        match self.metrics.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Returns the counter registered under `name`, creating it on first
    /// use. Names are sanitized to the Prometheus charset.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let name = sanitize_metric_name(name);
        Arc::clone(self.lock().counters.entry(name).or_default())
    }

    /// Returns the histogram registered under `name`, creating it with
    /// `bounds` on first use (later registrations reuse the first bounds).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        let name = sanitize_metric_name(name);
        Arc::clone(
            self.lock().histograms.entry(name).or_insert_with(|| Arc::new(Histogram::new(bounds))),
        )
    }

    /// A point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.lock();
        Snapshot {
            counters: metrics.counters.iter().map(|(n, c)| (n.clone(), c.get())).collect(),
            histograms: metrics.histograms.iter().map(|(n, h)| (n.clone(), h.snapshot())).collect(),
        }
    }
}

/// A copied registry state, ready for encoding.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// `(name, value)` per counter, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, state)` per histogram, name-sorted.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// The process-global registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Get-or-register a counter on the global registry.
pub fn counter(name: &str) -> Arc<Counter> {
    global().counter(name)
}

/// Get-or-register a histogram on the global registry.
pub fn histogram(name: &str, bounds: &[f64]) -> Arc<Histogram> {
    global().histogram(name, bounds)
}

/// Maps an arbitrary string onto the metric-name charset
/// `[a-z_:][a-z0-9_:]*`: uppercase folds to lowercase, anything else
/// becomes `_`, and a leading digit gains a `_` prefix.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            'a'..='z' | '0'..='9' | '_' | ':' => out.push(c),
            'A'..='Z' => out.push(c.to_ascii_lowercase()),
            _ => out.push('_'),
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    if out.starts_with(|c: char| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::float_cmp, clippy::indexing_slicing)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_across_clones() {
        let reg = Registry::new();
        let a = reg.counter("requests_total");
        let b = reg.counter("requests_total");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("requests_total").get(), 3);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_monotone() {
        let reg = Registry::new();
        let h = reg.histogram("latency", &[0.1, 1.0, 10.0]);
        for v in [0.05, 0.5, 0.5, 5.0, 50.0] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.bounds, vec![0.1, 1.0, 10.0]);
        assert_eq!(snap.cumulative, vec![1, 3, 4, 5]);
        assert_eq!(snap.count(), 5);
        assert!((snap.sum - 56.05).abs() < 1e-9);
        for w in snap.cumulative.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn histogram_boundary_lands_in_le_bucket() {
        let reg = Registry::new();
        let h = reg.histogram("edges", &[1.0]);
        h.observe(1.0); // le="1" is inclusive
        let snap = h.snapshot();
        assert_eq!(snap.cumulative, vec![1, 1]);
    }

    #[test]
    fn histogram_bounds_are_sorted_and_deduped() {
        let reg = Registry::new();
        let h = reg.histogram("weird", &[5.0, 1.0, 5.0, f64::INFINITY]);
        assert_eq!(h.snapshot().bounds, vec![1.0, 5.0]);
    }

    #[test]
    fn snapshot_lists_metrics_sorted() {
        let reg = Registry::new();
        reg.counter("zeta");
        reg.counter("alpha");
        reg.histogram("mid", &[1.0]);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
        assert_eq!(snap.histograms.len(), 1);
    }

    #[test]
    fn names_are_sanitized() {
        assert_eq!(sanitize_metric_name("Serve.Requests-Total"), "serve_requests_total");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name(""), "_");
        assert_eq!(sanitize_metric_name("ok_name:sub"), "ok_name:sub");
    }
}
