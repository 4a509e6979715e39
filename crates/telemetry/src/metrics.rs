//! Atomic metric primitives: counters, gauges, log-linear histograms and
//! the [`Recorder`] registry that snapshots them deterministically.
//!
//! Every recording operation is a commutative integer add on a relaxed
//! atomic. Commutativity is the load-bearing property: two threads
//! recording into the same histogram in any interleaving produce the same
//! final bucket counts, so a snapshot taken after a batch of work is a
//! pure function of the work, not of the scheduler.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::prom::render_labels;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Returns the current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge holding a single `f64` (stored as its bit pattern).
///
/// Last-writer-wins: unlike counters and histograms, a gauge's final value
/// under concurrent writers depends on ordering, so gauges are only used
/// for values where that is acceptable (e.g. "most recent sims/sec").
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Self {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Returns the current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Finite histogram bucket upper bounds, in nanoseconds.
///
/// A 1-2-5 log-linear series spanning 1µs to 100s — wide enough for both
/// sub-millisecond cache probes and multi-second evaluation batches while
/// keeping relative quantile error bounded by the 1-2-5 spacing (≤ 2.5×,
/// tightened by in-bucket interpolation). Values above the last bound land
/// in an overflow bucket.
pub const BUCKET_BOUNDS_NS: [u64; 25] = [
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    20_000_000,
    50_000_000,
    100_000_000,
    200_000_000,
    500_000_000,
    1_000_000_000,
    2_000_000_000,
    5_000_000_000,
    10_000_000_000,
    20_000_000_000,
    50_000_000_000,
    100_000_000_000,
];

/// Total bucket count: the finite bounds plus one overflow bucket.
pub(crate) const BUCKET_COUNT: usize = BUCKET_BOUNDS_NS.len() + 1;

/// A fixed-bucket latency histogram with atomic, mergeable recording.
pub struct Histogram {
    counts: [AtomicU64; BUCKET_COUNT],
    sum_ns: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &snap.count())
            .field("sum_ns", &snap.sum_ns)
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of `ns` nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        let idx = BUCKET_BOUNDS_NS.partition_point(|&bound| ns > bound);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records an observation from a [`std::time::Duration`].
    pub fn record(&self, elapsed: std::time::Duration) {
        self.record_ns(elapsed.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Captures the current bucket counts and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a histogram's state, supporting merge and
/// quantile estimation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts; index `i` covers
    /// `(BUCKET_BOUNDS_NS[i-1], BUCKET_BOUNDS_NS[i]]`, with a final
    /// overflow bucket.
    pub counts: Vec<u64>,
    /// Sum of all recorded values in nanoseconds.
    pub sum_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKET_COUNT],
            sum_ns: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Folds `other` into `self` bucket-by-bucket.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        debug_assert_eq!(self.counts.len(), other.counts.len());
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum_ns += other.sum_ns;
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) in nanoseconds using a
    /// cumulative walk with linear interpolation inside the target bucket.
    /// Returns `None` for an empty histogram.
    pub fn quantile_ns(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * total as f64;
        let mut cumulative = 0u64;
        for (idx, &bucket_count) in self.counts.iter().enumerate() {
            if bucket_count == 0 {
                continue;
            }
            let next = cumulative + bucket_count;
            if (next as f64) >= rank {
                let lower = if idx == 0 {
                    0
                } else {
                    BUCKET_BOUNDS_NS[idx - 1]
                };
                let upper = if idx < BUCKET_BOUNDS_NS.len() {
                    BUCKET_BOUNDS_NS[idx]
                } else {
                    // Overflow bucket has no upper bound; report its lower
                    // edge rather than inventing one.
                    return Some(*BUCKET_BOUNDS_NS.last().unwrap() as f64);
                };
                let within = (rank - cumulative as f64) / bucket_count as f64;
                return Some(lower as f64 + within.clamp(0.0, 1.0) * (upper - lower) as f64);
            }
            cumulative = next;
        }
        Some(*BUCKET_BOUNDS_NS.last().unwrap() as f64)
    }

    /// [`Self::quantile_ns`] converted to milliseconds.
    pub fn quantile_ms(&self, q: f64) -> Option<f64> {
        self.quantile_ns(q).map(|ns| ns / 1e6)
    }
}

/// A series' label set in exposition form, `name="value",...` with the
/// values escaped; empty for a plain instrument. It is rendered once and
/// shared by reference count, so one set can key series of several
/// families, and label sets order by their text.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Labels(Arc<str>);

impl Labels {
    /// Renders `(name, value)` pairs, in the given order.
    pub fn new(labels: &[(&str, &str)]) -> Self {
        Labels(render_labels(labels).into())
    }

    /// The rendered text, as it goes between a sample's braces.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// One metric family: its help text and its series, by label set.
#[derive(Debug)]
struct Family<T> {
    help: String,
    series: BTreeMap<Labels, Arc<T>>,
}

/// Families of one instrument kind, by name.
type Families<T> = Mutex<BTreeMap<String, Family<T>>>;

/// A named-metric registry handing out shared handles and producing
/// deterministic snapshots.
///
/// Metrics are created lazily via [`Recorder::counter`] /
/// [`Recorder::labeled_counter`] / [`Recorder::gauge`] /
/// [`Recorder::histogram`]; requesting the same name (and label set)
/// twice returns the same underlying instrument. Counters and gauges are
/// keyed by `(family, label set)`, a plain instrument being the empty set,
/// so snapshot order is the `BTreeMap` order of family names and then
/// label sets, and rendered output is reproducible run to run.
#[derive(Debug, Default)]
pub struct Recorder {
    counters: Families<Counter>,
    gauges: Families<Gauge>,
    histograms: Mutex<BTreeMap<String, (String, Arc<Histogram>)>>,
}

/// Returns the instrument of family `name` under `labels`, creating it
/// (and the family, with the given help text) if absent.
fn instrument<T: Default>(
    families: &Families<T>,
    name: &str,
    help: &str,
    labels: &Labels,
) -> Arc<T> {
    let mut families = families.lock().expect("recorder poisoned");
    if let Some(family) = families.get_mut(name) {
        return Arc::clone(family.series.entry(labels.clone()).or_default());
    }
    let instrument = Arc::<T>::default();
    let family = Family {
        help: help.to_owned(),
        series: BTreeMap::from([(labels.clone(), Arc::clone(&instrument))]),
    };
    families.insert(name.to_owned(), family);
    instrument
}

/// Copies every family of an instrument kind, in name order.
fn snapshot_families<T, V>(
    families: &Families<T>,
    value: impl Fn(&T) -> V,
) -> Vec<FamilySnapshot<V>> {
    families
        .lock()
        .expect("recorder poisoned")
        .iter()
        .map(|(name, family)| {
            let series = family
                .series
                .iter()
                .map(|(labels, instrument)| (labels.clone(), value(instrument)))
                .collect();
            (name.clone(), family.help.clone(), series)
        })
        .collect()
}

impl Recorder {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter registered under `name`, creating it with the
    /// given help text if absent.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.labeled_counter(name, help, &Labels::default())
    }

    /// Returns the gauge registered under `name`, creating it with the
    /// given help text if absent.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        instrument(&self.gauges, name, help, &Labels::default())
    }

    /// Returns the histogram registered under `name`, creating it with the
    /// given help text if absent.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().unwrap();
        map.entry(name.to_owned())
            .or_insert_with(|| (help.to_owned(), Arc::new(Histogram::new())))
            .1
            .clone()
    }

    /// Returns the counter of family `name` with the given label set
    /// (e.g. `Labels::new(&[("tenant", "acme")])`), creating it if absent.
    pub fn labeled_counter(&self, name: &str, help: &str, labels: &Labels) -> Arc<Counter> {
        instrument(&self.counters, name, help, labels)
    }

    /// Captures every registered metric, in name order.
    pub fn snapshot(&self) -> RecorderSnapshot {
        RecorderSnapshot {
            counters: snapshot_families(&self.counters, Counter::get),
            gauges: snapshot_families(&self.gauges, Gauge::get),
            histograms: self
                .histograms
                .lock()
                .unwrap()
                .iter()
                .map(|(name, (help, h))| (name.clone(), help.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// One counter or gauge family: `(name, help, [(labels, value)])`. A
/// [`Recorder`] lists the series in label-set order, a plain instrument's
/// empty set first.
pub type FamilySnapshot<V> = (String, String, Vec<(Labels, V)>);

/// A point-in-time copy of every metric in a [`Recorder`], in
/// deterministic (name, then label set) order. Values read only at render
/// time can be put into one directly, one [`FamilySnapshot`] per family.
#[derive(Debug, Clone, Default)]
pub struct RecorderSnapshot {
    /// Every counter family.
    pub counters: Vec<FamilySnapshot<u64>>,
    /// Every gauge family.
    pub gauges: Vec<FamilySnapshot<f64>>,
    /// `(name, help, snapshot)` for every histogram.
    pub histograms: Vec<(String, String, HistogramSnapshot)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);

        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(1234.5);
        assert_eq!(g.get(), 1234.5);
    }

    #[test]
    fn bucket_bounds_are_strictly_increasing() {
        for pair in BUCKET_BOUNDS_NS.windows(2) {
            assert!(pair[0] < pair[1], "bounds must be strictly increasing");
        }
    }

    #[test]
    fn records_land_in_the_expected_bucket() {
        let h = Histogram::new();
        h.record_ns(0); // first bucket (<= 1µs)
        h.record_ns(1_000); // still first bucket (bounds are inclusive)
        h.record_ns(1_001); // second bucket
        h.record_ns(100_000_000_000); // last finite bucket
        h.record_ns(100_000_000_001); // overflow
        let snap = h.snapshot();
        assert_eq!(snap.counts[0], 2);
        assert_eq!(snap.counts[1], 1);
        assert_eq!(snap.counts[BUCKET_BOUNDS_NS.len() - 1], 1);
        assert_eq!(snap.counts[BUCKET_BOUNDS_NS.len()], 1);
        assert_eq!(snap.count(), 5);
        assert_eq!(
            snap.sum_ns,
            1_000 + 1_001 + 100_000_000_000 + 100_000_000_001
        );
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::new();
        // 100 observations all in the (1ms, 2ms] bucket.
        for _ in 0..100 {
            h.record_ns(1_500_000);
        }
        let snap = h.snapshot();
        let p50 = snap.quantile_ns(0.5).unwrap();
        // Interpolated through the bucket: between its bounds, around the middle.
        assert!(p50 > 1_000_000.0 && p50 <= 2_000_000.0, "p50={p50}");
        // p0 pins to the lower edge, p100 to the upper.
        assert_eq!(snap.quantile_ns(0.0).unwrap(), 1_000_000.0);
        assert_eq!(snap.quantile_ns(1.0).unwrap(), 2_000_000.0);
        assert_eq!(snap.quantile_ms(1.0).unwrap(), 2.0);
    }

    #[test]
    fn quantile_of_empty_histogram_is_none() {
        assert_eq!(HistogramSnapshot::new().quantile_ns(0.5), None);
    }

    #[test]
    fn overflow_quantile_reports_last_finite_bound() {
        let h = Histogram::new();
        h.record_ns(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.quantile_ns(0.5).unwrap(), 100_000_000_000.0);
    }

    #[test]
    fn merged_snapshots_are_independent_of_thread_interleaving() {
        // Two schedules of the same logical work: (a) all on one thread,
        // (b) split across 8 threads with deliberate contention. The merged
        // snapshot must be identical — recording is commutative.
        let values: Vec<u64> = (0..4_000)
            .map(|i| (i * 2_654_435_761u64) % 5_000_000_000)
            .collect();

        let reference = Histogram::new();
        for &v in &values {
            reference.record_ns(v);
        }
        let reference = reference.snapshot();

        for _ in 0..4 {
            let shared = Histogram::new();
            std::thread::scope(|scope| {
                let shared = &shared;
                for chunk in values.chunks(values.len() / 8) {
                    scope.spawn(move || {
                        for &v in chunk {
                            shared.record_ns(v);
                        }
                    });
                }
            });
            assert_eq!(shared.snapshot(), reference);
        }

        // Per-thread histograms merged after the fact agree too.
        let mut merged = HistogramSnapshot::new();
        let partials: Vec<HistogramSnapshot> = std::thread::scope(|scope| {
            values
                .chunks(values.len() / 8)
                .map(|chunk| {
                    scope.spawn(move || {
                        let local = Histogram::new();
                        for &v in chunk {
                            local.record_ns(v);
                        }
                        local.snapshot()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|handle| handle.join().unwrap())
                .collect()
        });
        for partial in &partials {
            merged.merge(partial);
        }
        assert_eq!(merged, reference);
    }

    #[test]
    fn recorder_reuses_instruments_and_snapshots_in_name_order() {
        let recorder = Recorder::new();
        let a = recorder.counter("b_counter", "second");
        let b = recorder.counter("a_counter", "first");
        let again = recorder.counter("b_counter", "ignored duplicate help");
        a.inc();
        again.add(2);
        b.add(10);
        recorder.gauge("z_gauge", "a gauge").set(2.5);
        recorder.histogram("m_hist", "a histogram").record_ns(5_000);

        let snap = recorder.snapshot();
        assert_eq!(
            snap.counters,
            vec![
                (
                    "a_counter".to_owned(),
                    "first".to_owned(),
                    vec![(Labels::default(), 10)]
                ),
                (
                    "b_counter".to_owned(),
                    "second".to_owned(),
                    vec![(Labels::default(), 3)]
                ),
            ]
        );
        assert_eq!(
            snap.gauges,
            vec![(
                "z_gauge".to_owned(),
                "a gauge".to_owned(),
                vec![(Labels::default(), 2.5)]
            )]
        );
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].0, "m_hist");
        assert_eq!(snap.histograms[0].2.count(), 1);
    }
}
