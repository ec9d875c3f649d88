//! Lock-free counters, gauges, and mergeable log-scale histograms.
//!
//! Registration (name → instrument) takes a short mutex; every mutation
//! after that is a single atomic RMW on an `Arc`-shared instrument, so the
//! parallel engine's worker threads record without contention on any
//! shared lock. Snapshots are plain data: histogram snapshots merge by
//! element-wise addition, which makes merging associative and commutative
//! by construction — the property suite pins this.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Number of histogram buckets: one for zero plus one per power of two
/// (`u64` has 64 bit positions).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins `f64` value (stored as IEEE-754 bits).
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(AtomicU64::new(0f64.to_bits()))
    }
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A log₂-bucketed histogram of `u64` samples (typically nanoseconds or
/// iteration counts). Bucket `0` holds zeros; bucket `k ≥ 1` holds values
/// whose highest set bit is `k - 1`, i.e. the range `[2^(k-1), 2^k)`.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// The bucket a value falls in. Exposed for tests and table rendering.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bucket `index`.
pub fn bucket_floor(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        1u64 << (index - 1)
    }
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// A point-in-time copy. Concurrent recording may make `count`/`sum`
    /// momentarily inconsistent with the buckets; quiescent snapshots
    /// (after joins) are exact.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of a [`Histogram`]; merging is element-wise addition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Sample count per log₂ bucket (see [`bucket_index`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all sample values (wrapping on overflow, like recording).
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Element-wise sum of two snapshots. Addition commutes and
    /// associates, so any merge tree over the same set of per-thread
    /// snapshots yields the same result.
    #[must_use]
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].wrapping_add(other.buckets[i])),
            count: self.count.wrapping_add(other.count),
            sum: self.sum.wrapping_add(other.sum),
        }
    }

    /// Mean sample value, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Lower bound of the highest non-empty bucket (a cheap max estimate).
    pub fn max_bucket_floor(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&c| c > 0)
            .map(bucket_floor)
            .unwrap_or(0)
    }
}

/// Named instruments, created on first use and shared by name.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

/// Never poisoned in practice (no instrument op panics); recover the
/// guard rather than propagating a panic from an unrelated thread.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The instrument named `name` in `map`, created if absent. Only a name
/// seen for the first time allocates its key.
fn named<T: Default>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut map = lock(map);
    if let Some(found) = map.get(name) {
        return Arc::clone(found);
    }
    Arc::clone(map.entry(name.to_owned()).or_default())
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created if absent. Hot paths should hold
    /// on to the returned `Arc` — lookups take the registration lock.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        named(&self.counters, name)
    }

    /// The gauge named `name`, created if absent.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        named(&self.gauges, name)
    }

    /// The histogram named `name`, created if absent.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        named(&self.histograms, name)
    }

    /// Drops every instrument. Outstanding `Arc`s keep recording into
    /// detached instruments that no snapshot will see.
    pub fn reset(&self) {
        lock(&self.counters).clear();
        lock(&self.gauges).clear();
        lock(&self.histograms).clear();
    }

    /// A sorted plain-data copy of every instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: lock(&self.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: lock(&self.gauges)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: lock(&self.histograms)
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Sorted plain-data copy of a [`MetricsRegistry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter name → value, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → value, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram name → snapshot, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Renders the snapshot as an aligned text table (the CLI's
    /// `--metrics` section).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<44} {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, v) in &self.gauges {
                out.push_str(&format!("  {name:<44} {v}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "  {name:<44} n={} mean={:.1} max≈{}\n",
                    h.count,
                    h.mean(),
                    h.max_bucket_floor()
                ));
            }
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_counts() {
        let r = MetricsRegistry::new();
        r.counter("x").add(3);
        r.counter("x").incr();
        assert_eq!(r.counter("x").get(), 4);
        assert_eq!(r.counter("fresh").get(), 0);
    }

    #[test]
    fn gauge_last_write_wins() {
        let g = Gauge::default();
        assert_eq!(g.get(), 0.0);
        g.set(2.5);
        g.set(-1.0);
        assert_eq!(g.get(), -1.0);
    }

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_index(bucket_floor(i)), i, "floor of bucket {i}");
        }
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = Histogram::default();
        for v in [0, 1, 1, 7, 1024] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1033);
        assert_eq!(s.buckets[bucket_index(0)], 1);
        assert_eq!(s.buckets[bucket_index(1)], 2);
        assert_eq!(s.buckets[bucket_index(7)], 1);
        assert_eq!(s.buckets[bucket_index(1024)], 1);
        assert_eq!(s.max_bucket_floor(), 1024);
        assert!((s.mean() - 1033.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn counters_exact_under_threads() {
        let r = Arc::new(MetricsRegistry::new());
        let c = r.counter("threads");
        let n_threads = 8;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..n_threads)
            .map(|_| {
                let c = Arc::clone(&c);
                thread::spawn(move || {
                    for _ in 0..per_thread {
                        c.incr();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), n_threads * per_thread);
    }

    #[test]
    fn a_name_resolves_to_one_shared_instrument() {
        let registry = MetricsRegistry::new();
        let (a, b) = (registry.counter("ticks"), registry.counter("ticks"));
        assert!(Arc::ptr_eq(&a, &b));
        a.add(2);
        b.add(3);
        let (g, h) = (registry.gauge("level"), registry.gauge("level"));
        assert!(Arc::ptr_eq(&g, &h));
        let (x, y) = (registry.histogram("ms"), registry.histogram("ms"));
        assert!(Arc::ptr_eq(&x, &y));
        x.record(4);
        y.record(8);
        let snap = registry.snapshot();
        assert_eq!(snap.counters, vec![("ticks".to_owned(), 5)]);
        assert_eq!(snap.gauges.len(), 1);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].1.count, 2);
    }

    #[test]
    fn reset_clears_instruments() {
        let r = MetricsRegistry::new();
        r.counter("a").incr();
        r.histogram("h").record(9);
        r.reset();
        let s = r.snapshot();
        assert!(s.counters.is_empty());
        assert!(s.histograms.is_empty());
    }

    #[test]
    fn render_table_lists_everything() {
        let r = MetricsRegistry::new();
        r.counter("solver.iterations").add(42);
        r.gauge("last.residual").set(0.5);
        r.histogram("span.quantum").record(1000);
        let t = r.snapshot().render_table();
        assert!(t.contains("solver.iterations"));
        assert!(t.contains("42"));
        assert!(t.contains("last.residual"));
        assert!(t.contains("span.quantum"));
    }
}
