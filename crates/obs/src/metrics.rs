//! The metric registry: sharded atomic counters, set/max gauges and
//! quantile sketches, each declared [`Determinism::Exact`] or
//! [`Determinism::Scheduling`] when registered.
//!
//! Handles are cheap `Arc` clones registered by name; updating one is a
//! relaxed atomic on a thread-striped shard (counters, sketches) or a
//! single atomic (gauges), so instruments can stay on in production.
//! A registry built disabled hands out **no-op handles**: the update fast
//! path is then a single branch on an `Option` discriminant — no
//! allocation, no atomic access — which is what lets the pipeline keep
//! `record` calls unconditionally inline on hot paths.
//!
//! Snapshots iterate a `BTreeMap`, so exported metrics are always sorted
//! by name regardless of registration or update order.

use crate::series::Series;
use crate::sketch::{Sketch, SketchCells, SketchSnapshot};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Shard count for counters: a power of two small enough to keep
/// snapshots cheap but large enough that concurrent workers rarely
/// collide on a cache line.
pub const COUNTER_SHARDS: usize = 8;

/// One cache line per shard so two workers bumping the same counter from
/// different threads never false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedAtomic(AtomicU64);

/// Backing cells of one counter.
#[derive(Default)]
pub(crate) struct CounterCells {
    shards: [PaddedAtomic; COUNTER_SHARDS],
}

impl CounterCells {
    fn sum(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// Monotonically-assigned per-thread shard index (round-robin over
/// threads, fixed for a thread's lifetime).
///
/// Const-initialized thread-local (no lazy-init flag or destructor on
/// the access path — this sits under every counter update on the hot
/// matcher loop) with the slot assigned on first use.
fn thread_shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    }
    SHARD.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            v
        } else {
            let v = NEXT.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
            s.set(v);
            v
        }
    })
}

/// A monotonically-increasing counter.
///
/// Cloning shares the cells. The default value is a no-op handle.
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<CounterCells>>);

impl Counter {
    /// A handle that ignores every update (what disabled registries hand
    /// out). The update path is a branch on the `Option` — nothing else.
    pub fn noop() -> Counter {
        Counter(None)
    }

    /// A live counter not attached to any registry (for components that
    /// must count even without a configured registry, e.g. the abstract
    /// DFA's stats view when constructed standalone).
    pub fn detached() -> Counter {
        Counter(Some(Arc::new(CounterCells::default())))
    }

    /// Whether updates actually land anywhere.
    pub fn is_live(&self) -> bool {
        self.0.is_some()
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cells) = &self.0 {
            cells.shards[thread_shard()]
                .0
                .fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current total over all shards (0 for no-op handles).
    pub fn value(&self) -> u64 {
        self.0.as_ref().map(|c| c.sum()).unwrap_or(0)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Counter")
            .field("live", &self.is_live())
            .field("value", &self.value())
            .finish()
    }
}

/// A last-value / high-water gauge.
#[derive(Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// A handle that ignores every update.
    pub fn noop() -> Gauge {
        Gauge(None)
    }

    /// Stores `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(cell) = &self.0 {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Raises the gauge to `v` if it is higher (high-water-mark
    /// semantics).
    #[inline]
    pub fn set_max(&self, v: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value (0 for no-op handles).
    pub fn value(&self) -> u64 {
        self.0
            .as_ref()
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gauge")
            .field("value", &self.value())
            .finish()
    }
}

/// Whether an instrument's readings are a function of the analyzed
/// input alone, declared when the instrument is registered.
///
/// Determinism tests compare exactly the `Exact` instruments (see
/// [`exact_view`]), so a new scheduling-dependent instrument is declared
/// once, where it is registered, instead of on every test's exclusion
/// list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Determinism {
    /// Identical on every run over the same input, at any worker count:
    /// a counter's total, a gauge's value, a sketch's observation count.
    #[default]
    Exact,
    /// Depends on thread scheduling or on state outliving one analysis:
    /// lock contention, cache races between workers, queue depth at
    /// sampling time, the capacity of a thread-local scratch buffer.
    Scheduling,
}

/// Point-in-time reading of a whole registry, sorted by metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, total)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// Quantile sketches, sorted by name.
    pub sketches: Vec<SketchSnapshot>,
    /// Qualified names (`counter.<name>`, `gauge.<name>`,
    /// `sketch.<name>`) of the instruments registered as
    /// [`Determinism::Scheduling`], sorted. Every other instrument is
    /// [`Determinism::Exact`].
    pub scheduling: Vec<String>,
}

impl MetricsSnapshot {
    /// The counter with this exact name, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.counters[i].1)
    }

    /// The gauge with this exact name, if present.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.gauges[i].1)
    }

    /// The determinism class of the instrument with this qualified name
    /// (`counter.<name>`, `gauge.<name>` or `sketch.<name>`, the naming
    /// the plane's series use).
    pub fn determinism(&self, qualified: &str) -> Determinism {
        if self
            .scheduling
            .binary_search_by(|n| n.as_str().cmp(qualified))
            .is_ok()
        {
            Determinism::Scheduling
        } else {
            Determinism::Exact
        }
    }

    /// The sketch with this exact name, if present.
    pub fn sketch(&self, name: &str) -> Option<&SketchSnapshot> {
        self.sketches
            .binary_search_by(|s| s.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.sketches[i])
    }
}

/// The deterministic part of a telemetry capture, as plain comparable
/// data: every [`Determinism::Exact`] counter and gauge value and sketch
/// observation count in `metrics`, and the points of every `Exact` series
/// in `series`, keyed by qualified name (series under `series.`).
///
/// Two analyses of the same input produce equal views at any worker
/// count. This is the one comparison every determinism check makes;
/// instruments opt out by registering as [`Determinism::Scheduling`].
pub fn exact_view(metrics: &MetricsSnapshot, series: &[Series]) -> BTreeMap<String, Vec<u64>> {
    let readings = metrics
        .counters
        .iter()
        .map(|(n, v)| (format!("counter.{n}"), *v))
        .chain(
            metrics
                .gauges
                .iter()
                .map(|(n, v)| (format!("gauge.{n}"), *v)),
        )
        .chain(
            metrics
                .sketches
                .iter()
                .map(|s| (format!("sketch.{}", s.name), s.count)),
        );
    let mut view: BTreeMap<String, Vec<u64>> = readings
        .filter(|(name, _)| metrics.determinism(name) == Determinism::Exact)
        .map(|(name, v)| (name, vec![v]))
        .collect();
    for s in series {
        if s.determinism == Determinism::Exact {
            let points = s
                .points
                .iter()
                .flat_map(|p| [p.seq, p.ts, p.value, p.delta as u64])
                .collect();
            view.insert(format!("series.{}", s.name), points);
        }
    }
    view
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Arc<CounterCells>>,
    gauges: BTreeMap<String, Arc<AtomicU64>>,
    sketches: BTreeMap<String, Arc<SketchCells>>,
    /// Qualified names of the instruments registered as
    /// [`Determinism::Scheduling`] (see [`MetricsSnapshot::scheduling`]).
    scheduling: BTreeSet<String>,
}

impl RegistryInner {
    /// Records the class of the `kind` instrument `name`. Scheduling is
    /// sticky: once any site declares an instrument scheduling-dependent,
    /// it stays so.
    fn declare(&mut self, kind: &str, name: &str, class: Determinism) {
        if class == Determinism::Scheduling {
            self.scheduling.insert(format!("{kind}.{name}"));
        }
    }
}

/// A named collection of instruments.
///
/// Registration (`counter`/`gauge`/`sketch`, or their `_as` forms that
/// declare a [`Determinism`] class) takes a short lock and is
/// get-or-create by name; callers hold the returned handles, so hot
/// paths never touch the registry itself. A registry constructed
/// disabled registers nothing and hands out no-op handles.
///
/// # Examples
///
/// ```
/// use jportal_obs::MetricsRegistry;
///
/// let reg = MetricsRegistry::new(true);
/// let c = reg.counter("pipeline.segments");
/// c.add(3);
/// assert_eq!(reg.snapshot().counter("pipeline.segments"), Some(3));
///
/// let off = MetricsRegistry::new(false);
/// off.counter("ignored").add(1);
/// assert!(off.snapshot().counters.is_empty());
/// ```
#[derive(Debug)]
pub struct MetricsRegistry {
    enabled: bool,
    inner: Mutex<RegistryInner>,
}

impl std::fmt::Debug for RegistryInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegistryInner")
            .field("counters", &self.counters.len())
            .field("gauges", &self.gauges.len())
            .field("sketches", &self.sketches.len())
            .field("scheduling", &self.scheduling.len())
            .finish()
    }
}

impl MetricsRegistry {
    /// Creates a registry; `enabled = false` makes every handle a no-op.
    pub fn new(enabled: bool) -> MetricsRegistry {
        MetricsRegistry {
            enabled,
            inner: Mutex::new(RegistryInner::default()),
        }
    }

    /// Whether instruments record anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Get-or-create the [`Determinism::Exact`] counter with this name.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_as(name, Determinism::Exact)
    }

    /// Get-or-create the counter with this name, declaring its class.
    pub fn counter_as(&self, name: &str, class: Determinism) -> Counter {
        if !self.enabled {
            return Counter::noop();
        }
        let mut inner = self.inner.lock().unwrap();
        inner.declare("counter", name, class);
        let cells = inner
            .counters
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(CounterCells::default()));
        Counter(Some(Arc::clone(cells)))
    }

    /// Get-or-create the [`Determinism::Exact`] gauge with this name.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_as(name, Determinism::Exact)
    }

    /// Get-or-create the gauge with this name, declaring its class.
    pub fn gauge_as(&self, name: &str, class: Determinism) -> Gauge {
        if !self.enabled {
            return Gauge::noop();
        }
        let mut inner = self.inner.lock().unwrap();
        inner.declare("gauge", name, class);
        let cell = inner
            .gauges
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Gauge(Some(Arc::clone(cell)))
    }

    /// Get-or-create the [`Determinism::Exact`] quantile sketch with
    /// this name (its observation count is what is exact; the observed
    /// values are usually durations).
    pub fn sketch(&self, name: &str) -> Sketch {
        self.sketch_as(name, Determinism::Exact)
    }

    /// Get-or-create the quantile sketch with this name, declaring its
    /// class.
    pub fn sketch_as(&self, name: &str, class: Determinism) -> Sketch {
        if !self.enabled {
            return Sketch::noop();
        }
        let mut inner = self.inner.lock().unwrap();
        inner.declare("sketch", name, class);
        let cells = inner
            .sketches
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(SketchCells::default()));
        Sketch(Some(Arc::clone(cells)))
    }

    /// Reads every instrument, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(n, c)| (n.clone(), c.sum()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(n, g)| (n.clone(), g.load(Ordering::Relaxed)))
                .collect(),
            sketches: inner
                .sketches
                .iter()
                .map(|(n, s)| Sketch::snapshot_named(s, n))
                .collect(),
            scheduling: inner.scheduling.iter().cloned().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads_and_shards() {
        let reg = MetricsRegistry::new(true);
        let c = reg.counter("x");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.value(), 8000);
        assert_eq!(reg.snapshot().counter("x"), Some(8000));
    }

    #[test]
    fn counter_get_or_create_shares_cells() {
        let reg = MetricsRegistry::new(true);
        reg.counter("shared").add(2);
        reg.counter("shared").add(3);
        assert_eq!(reg.snapshot().counter("shared"), Some(5));
    }

    #[test]
    fn disabled_registry_is_a_noop() {
        let reg = MetricsRegistry::new(false);
        let c = reg.counter("c");
        let g = reg.gauge_as("g", Determinism::Scheduling);
        let s = reg.sketch("s");
        c.add(10);
        g.set(10);
        s.record(10);
        assert!(!c.is_live());
        assert_eq!(c.value(), 0);
        assert_eq!(reg.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn gauge_set_and_set_max() {
        let reg = MetricsRegistry::new(true);
        let g = reg.gauge("hw");
        g.set_max(5);
        g.set_max(3);
        assert_eq!(g.value(), 5);
        g.set(1);
        assert_eq!(g.value(), 1);
    }

    #[test]
    fn registry_sketches_snapshot_sorted() {
        let reg = MetricsRegistry::new(true);
        reg.sketch("z.lat").record(10);
        reg.sketch("a.lat").record(20);
        reg.sketch("a.lat").record(30);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.sketches.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["a.lat", "z.lat"]);
        assert_eq!(snap.sketch("a.lat").unwrap().count, 2);
        assert_eq!(snap.sketch("missing"), None);
        let off = MetricsRegistry::new(false);
        off.sketch("ignored").record(1);
        assert!(off.snapshot().sketches.is_empty());
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let reg = MetricsRegistry::new(true);
        for name in ["zeta", "alpha", "mid"] {
            reg.counter(name).incr();
        }
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
        assert_eq!(snap.counter("alpha"), Some(1));
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn determinism_is_declared_at_registration_and_sticky() {
        let reg = MetricsRegistry::new(true);
        reg.counter("exact").incr();
        reg.counter_as("racy", Determinism::Scheduling).incr();
        // A later default registration never clears the declaration.
        reg.counter("racy").incr();
        reg.gauge_as("racy", Determinism::Scheduling).set(1);
        reg.sketch("lat").record(5);
        let snap = reg.snapshot();
        assert_eq!(snap.scheduling, vec!["counter.racy", "gauge.racy"]);
        assert_eq!(snap.determinism("counter.exact"), Determinism::Exact);
        assert_eq!(snap.determinism("counter.racy"), Determinism::Scheduling);
        assert_eq!(snap.determinism("sketch.lat"), Determinism::Exact);
        let view = exact_view(&snap, &[]);
        let keys: Vec<&str> = view.keys().map(String::as_str).collect();
        assert_eq!(keys, vec!["counter.exact", "sketch.lat"]);
        assert_eq!(view["sketch.lat"], vec![1], "sketches compare by count");
    }
}
