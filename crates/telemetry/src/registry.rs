//! Named metric registry and point-in-time snapshots.
//!
//! Registration takes a short mutex hold (it happens a handful of times
//! at startup); after that, every handle is an `Arc` to a lock-free
//! instrument from [`crate::metrics`], so recording values never
//! contends on the registry. Metric names follow the workspace
//! convention `upbound_<crate>_<name>` (checked loosely at
//! registration: lowercase identifiers and underscores only).
//!
//! A series can also be *scrape-time*: [`Registry::counter_fn`] and
//! [`Registry::gauge_fn`] register a function that [`Registry::snapshot`]
//! calls to read the value, so a producer that keeps its own plain state
//! pays nothing per update for exporting it.

use crate::latency::LatencyRecorder;
use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use std::sync::{Arc, Mutex};

/// The value kinds a registry can hold.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter value.
    Counter(u64),
    /// Instantaneous gauge value.
    Gauge(f64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

/// One named metric inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Full metric name (`upbound_<crate>_<name>`).
    pub name: String,
    /// One-line description, exported as Prometheus `# HELP`.
    pub help: String,
    /// Constant label set (empty for most metrics; used by e.g.
    /// `upbound_build_info`). Exported as `name{k="v",...}`.
    pub labels: Vec<(String, String)>,
    /// The recorded value.
    pub value: MetricValue,
}

/// A point-in-time view of every registered metric, sorted by name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// All samples, ordered by metric name.
    pub samples: Vec<MetricSample>,
}

impl Snapshot {
    /// Looks up a sample by full name.
    pub fn get(&self, name: &str) -> Option<&MetricSample> {
        self.samples.iter().find(|s| s.name == name)
    }

    /// Convenience: the value of a counter metric, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)?.value {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        }
    }

    /// Convenience: the value of a gauge metric, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.get(name)?.value {
            MetricValue::Gauge(v) => Some(v),
            _ => None,
        }
    }
}

/// A scrape-time reading, called inside [`Registry::snapshot`].
type Read<T> = Box<dyn Fn() -> T + Send + Sync>;

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
    Latency(Arc<LatencyRecorder>),
    CounterFn(Read<u64>),
    GaugeFn(Read<f64>),
}

impl Instrument {
    /// The exported type: one per metric name across its label sets.
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) | Instrument::CounterFn(_) => "counter",
            Instrument::Gauge(_) | Instrument::GaugeFn(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
            Instrument::Latency(_) => "latency",
        }
    }

    fn value(&self) -> MetricValue {
        match self {
            Instrument::Counter(c) => MetricValue::Counter(c.get()),
            Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
            Instrument::Histogram(h) => MetricValue::Histogram(h.load()),
            Instrument::Latency(r) => MetricValue::Histogram(r.load().to_histogram_snapshot()),
            Instrument::CounterFn(read) => MetricValue::Counter(read()),
            Instrument::GaugeFn(read) => MetricValue::Gauge(read()),
        }
    }
}

struct Entry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    instrument: Instrument,
}

/// A named collection of metrics.
///
/// Cloning the registry (via [`Registry::clone`]) shares the underlying
/// metric set, so producers and exporters can hold it independently.
#[derive(Clone, Default)]
pub struct Registry {
    entries: Arc<Mutex<Vec<Entry>>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("Registry")
            .field("metrics", &entries.len())
            .finish()
    }
}

fn assert_valid_name(name: &str) {
    let ok = !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        && !name.starts_with(|c: char| c.is_ascii_digit());
    assert!(
        ok,
        "metric name {name:?} must be lowercase snake_case (convention: upbound_<crate>_<name>)"
    );
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn register_labeled<T, F: FnOnce() -> Instrument>(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        matching: impl Fn(&Instrument) -> Option<Arc<T>>,
        make: F,
    ) -> Arc<T> {
        assert_valid_name(name);
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(entry) = entries.iter().find(|e| {
            e.name == name
                && e.labels.len() == labels.len()
                && e.labels
                    .iter()
                    .zip(labels.iter())
                    .all(|((ek, ev), (k, v))| ek == k && ev == v)
        }) {
            return matching(&entry.instrument).unwrap_or_else(|| {
                panic!("metric {name:?} already registered with a different type")
            });
        }
        // A metric name must keep one kind across all of its label sets
        // (Prometheus requires one TYPE per family).
        let instrument = make();
        if let Some(clashing) = entries.iter().find(|e| e.name == name) {
            if clashing.instrument.kind() != instrument.kind() {
                panic!("metric {name:?} already registered with a different type");
            }
        }
        let handle = match matching(&instrument) {
            Some(handle) => handle,
            None => unreachable!("a freshly built instrument matches its own kind"),
        };
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            instrument,
        });
        handle
    }

    fn register<T, F: FnOnce() -> Instrument>(
        &self,
        name: &str,
        help: &str,
        matching: impl Fn(&Instrument) -> Option<Arc<T>>,
        make: F,
    ) -> Arc<T> {
        self.register_labeled(name, help, &[], matching, make)
    }

    /// Registers (or retrieves) a counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.register(
            name,
            help,
            |i| match i {
                Instrument::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
            || Instrument::Counter(Arc::new(Counter::new())),
        )
    }

    /// Registers (or retrieves) a gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.register(
            name,
            help,
            |i| match i {
                Instrument::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
            || Instrument::Gauge(Arc::new(Gauge::new())),
        )
    }

    /// Registers (or retrieves) a histogram with the given bucket bounds.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Arc<Histogram> {
        self.register(
            name,
            help,
            |i| match i {
                Instrument::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
            || Instrument::Histogram(Arc::new(Histogram::new(bounds))),
        )
    }

    /// Registers (or retrieves) a log-bucketed latency recorder. It
    /// snapshots as an ordinary histogram (seconds), so exporters need
    /// no special handling; the name should end in `_seconds`.
    pub fn latency(&self, name: &str, help: &str) -> Arc<LatencyRecorder> {
        self.register(
            name,
            help,
            |i| match i {
                Instrument::Latency(r) => Some(Arc::clone(r)),
                _ => None,
            },
            || Instrument::Latency(Arc::new(LatencyRecorder::new())),
        )
    }

    /// Registers (or retrieves) a gauge carrying a constant label set.
    /// Keyed by `(name, labels)` — the same name with different label
    /// values yields distinct series (e.g. one per subscriber), while
    /// re-registering an identical `(name, labels)` pair returns the
    /// original handle.
    pub fn labeled_gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.register_labeled(
            name,
            help,
            labels,
            |i| match i {
                Instrument::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
            || Instrument::Gauge(Arc::new(Gauge::new())),
        )
    }

    /// Registers (or retrieves) a counter carrying a constant label
    /// set, keyed by `(name, labels)` like
    /// [`labeled_gauge`](Self::labeled_gauge).
    pub fn labeled_counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.register_labeled(
            name,
            help,
            labels,
            |i| match i {
                Instrument::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
            || Instrument::Counter(Arc::new(Counter::new())),
        )
    }

    /// Adds or replaces an unlabeled scrape-time series.
    fn register_fn(&self, name: &str, help: &str, instrument: Instrument) {
        assert_valid_name(name);
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        match entries.iter_mut().find(|e| e.name == name) {
            Some(e) => match (&e.instrument, &instrument) {
                (Instrument::CounterFn(_), Instrument::CounterFn(_))
                | (Instrument::GaugeFn(_), Instrument::GaugeFn(_))
                    if e.labels.is_empty() =>
                {
                    e.instrument = instrument;
                }
                _ => panic!("metric {name:?} already registered with a different type"),
            },
            None => entries.push(Entry {
                name: name.to_string(),
                help: help.to_string(),
                labels: Vec::new(),
                instrument,
            }),
        }
    }

    /// Registers a counter whose value `read` computes at scrape time.
    ///
    /// `read` is called inside every [`snapshot`](Self::snapshot), with
    /// the registry locked, so it must be cheap, must not touch this
    /// registry and must not take a lock that a thread taking a snapshot
    /// may hold. It must never return less than it returned before.
    /// Registering the same name again replaces the function.
    ///
    /// # Panics
    ///
    /// Panics if `name` is invalid or already holds an instrument other
    /// than an unlabeled scrape-time series of the same type.
    pub fn counter_fn(
        &self,
        name: &str,
        help: &str,
        read: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.register_fn(name, help, Instrument::CounterFn(Box::new(read)));
    }

    /// Registers a gauge whose value `read` computes at scrape time,
    /// under the rules of [`counter_fn`](Self::counter_fn).
    ///
    /// # Panics
    ///
    /// As [`counter_fn`](Self::counter_fn).
    pub fn gauge_fn(&self, name: &str, help: &str, read: impl Fn() -> f64 + Send + Sync + 'static) {
        self.register_fn(name, help, Instrument::GaugeFn(Box::new(read)));
    }

    /// Registers the standard `upbound_build_info` gauge (constant 1,
    /// labels `version` and `revision`).
    pub fn build_info(&self, version: &str, revision: Option<&str>) -> Arc<Gauge> {
        let mut labels = vec![("version", version)];
        if let Some(rev) = revision {
            labels.push(("revision", rev));
        }
        let g = self.labeled_gauge(
            "upbound_build_info",
            "Build metadata; value is always 1",
            &labels,
        );
        g.set(1.0);
        g
    }

    /// Captures every metric's current value, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let mut samples: Vec<MetricSample> = entries
            .iter()
            .map(|e| MetricSample {
                name: e.name.clone(),
                help: e.help.clone(),
                labels: e.labels.clone(),
                value: e.instrument.value(),
            })
            .collect();
        samples.sort_by(|a, b| a.name.cmp(&b.name).then_with(|| a.labels.cmp(&b.labels)));
        Snapshot { samples }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_shared() {
        let registry = Registry::new();
        let a = registry.counter("upbound_test_events_total", "events");
        let b = registry.counter("upbound_test_events_total", "events");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(
            registry.snapshot().counter("upbound_test_events_total"),
            Some(2)
        );
    }

    #[test]
    fn snapshot_is_sorted_and_typed() {
        let registry = Registry::new();
        registry.gauge("upbound_test_z_gauge", "z").set(2.5);
        registry.counter("upbound_test_a_counter", "a").add(7);
        registry
            .histogram("upbound_test_m_hist", "m", &[1.0, 2.0])
            .observe(1.5);
        let snap = registry.snapshot();
        let names: Vec<&str> = snap.samples.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "upbound_test_a_counter",
                "upbound_test_m_hist",
                "upbound_test_z_gauge"
            ]
        );
        assert_eq!(snap.counter("upbound_test_a_counter"), Some(7));
        assert_eq!(snap.gauge("upbound_test_z_gauge"), Some(2.5));
        assert_eq!(
            snap.counter("upbound_test_z_gauge"),
            None,
            "type-checked access"
        );
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn kind_mismatch_panics() {
        let registry = Registry::new();
        registry.counter("upbound_test_dup", "x");
        registry.gauge("upbound_test_dup", "x");
    }

    #[test]
    #[should_panic(expected = "snake_case")]
    fn bad_name_panics() {
        Registry::new().counter("Upbound-Bad", "x");
    }

    #[test]
    fn labeled_series_are_keyed_by_name_and_labels() {
        let registry = Registry::new();
        let a = registry.labeled_counter("upbound_test_tenant_total", "t", &[("subscriber", "a")]);
        let b = registry.labeled_counter("upbound_test_tenant_total", "t", &[("subscriber", "b")]);
        let a_again =
            registry.labeled_counter("upbound_test_tenant_total", "t", &[("subscriber", "a")]);
        a.inc();
        a_again.inc();
        b.add(5);
        let snap = registry.snapshot();
        let series: Vec<_> = snap
            .samples
            .iter()
            .filter(|s| s.name == "upbound_test_tenant_total")
            .collect();
        assert_eq!(series.len(), 2, "one sample per label set");
        assert_eq!(series[0].labels[0].1, "a");
        assert_eq!(series[0].value, MetricValue::Counter(2));
        assert_eq!(series[1].labels[0].1, "b");
        assert_eq!(series[1].value, MetricValue::Counter(5));
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn labeled_kind_mismatch_across_label_sets_panics() {
        let registry = Registry::new();
        registry.labeled_counter("upbound_test_mixed", "x", &[("a", "1")]);
        registry.labeled_gauge("upbound_test_mixed", "x", &[("a", "2")]);
    }

    #[test]
    fn scrape_time_series_are_read_at_snapshot_across_threads() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let registry = Registry::new();
        let live = Arc::new(AtomicU64::new(0));
        let read = Arc::clone(&live);
        registry.counter_fn("upbound_test_live_total", "live", move || {
            read.load(Ordering::Relaxed)
        });
        let read = Arc::clone(&live);
        registry.gauge_fn("upbound_test_live_half", "half", move || {
            read.load(Ordering::Relaxed) as f64 / 2.0
        });
        let writer = {
            let live = Arc::clone(&live);
            std::thread::spawn(move || {
                for n in 1..=20_000 {
                    live.store(n, Ordering::Relaxed);
                }
            })
        };
        let mut last = 0;
        while !writer.is_finished() {
            let seen = registry
                .snapshot()
                .counter("upbound_test_live_total")
                .expect("registered");
            assert!(seen >= last, "counter went back from {last} to {seen}");
            last = seen;
        }
        writer.join().expect("writer");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("upbound_test_live_total"), Some(20_000));
        assert_eq!(snap.gauge("upbound_test_live_half"), Some(10_000.0));

        // Registering again replaces the function.
        registry.counter_fn("upbound_test_live_total", "live", || 7);
        assert_eq!(
            registry.snapshot().counter("upbound_test_live_total"),
            Some(7)
        );
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn scrape_time_series_cannot_shadow_a_plain_instrument() {
        let registry = Registry::new();
        registry.counter("upbound_test_plain_total", "x");
        registry.counter_fn("upbound_test_plain_total", "x", || 1);
    }

    #[test]
    fn clones_share_metrics() {
        let registry = Registry::new();
        let cloned = registry.clone();
        registry.counter("upbound_test_shared_total", "s").inc();
        assert_eq!(
            cloned.snapshot().counter("upbound_test_shared_total"),
            Some(1)
        );
    }
}
