//! Lock-free metric primitives.
//!
//! Both instruments are plain atomics: hot-path updates are a single
//! `fetch_add` / `store` (plus one CAS loop for [`Gauge::add`]), so they
//! can sit inside the per-packet filter path without locks. Reads
//! (`get`) are relaxed point-in-time views; exact cross-metric
//! consistency is not promised, which is the usual contract for
//! scrape-style telemetry. The one histogram is
//! [`LatencyRecorder`](crate::LatencyRecorder); it exports as a
//! [`HistogramSnapshot`].

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing `u64` counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter starting at zero.
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A settable `f64` gauge (stored as IEEE-754 bits in an atomic).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

impl Gauge {
    /// A gauge starting at `0.0`.
    pub const fn new() -> Self {
        Gauge {
            bits: AtomicU64::new(0), // 0u64 is the bit pattern of 0.0f64
        }
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Sets the gauge from an integer quantity (e.g. a queue depth).
    #[inline]
    pub fn set_u64(&self, v: u64) {
        self.set(v as f64);
    }

    /// Adds `delta` (CAS loop; still lock-free).
    #[inline]
    pub fn add(&self, delta: f64) {
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self.bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Plain-data copy of a histogram at one instant: the form
/// [`LatencyRecorder`](crate::LatencyRecorder) exports in and
/// [`prometheus::parse`](crate::export::prometheus::parse) returns.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Upper bucket bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) observation counts.
    pub counts: Vec<u64>,
    /// Total observations, including values above the last bound.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Cumulative counts per bound, Prometheus `le` style (the final
    /// `+Inf` bucket equals [`HistogramSnapshot::count`]).
    pub fn cumulative(&self) -> Vec<u64> {
        let mut acc = 0;
        self.counts
            .iter()
            .map(|c| {
                acc += c;
                acc
            })
            .collect()
    }

    /// Approximate quantile (`0.0 ..= 1.0`): the upper bound of the
    /// first bucket whose cumulative count reaches `ceil(q * count)`,
    /// or `+Inf` when the rank falls above the last finite bound.
    /// `None` when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (bound, c) in self.bounds.iter().zip(&self.counts) {
            seen += c;
            if seen >= rank {
                return Some(*bound);
            }
        }
        Some(f64::INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_sets_and_adds() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(1.5);
        g.add(0.25);
        assert_eq!(g.get(), 1.75);
        g.set_u64(7);
        assert_eq!(g.get(), 7.0);
    }

    #[test]
    fn concurrent_updates_lose_nothing() {
        let c = Arc::new(Counter::new());
        let g = Arc::new(Gauge::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            let g = Arc::clone(&g);
            handles.push(std::thread::spawn(move || {
                for i in 0..10_000 {
                    c.inc();
                    g.add((i % 2) as f64);
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(c.get(), 40_000);
        assert_eq!(g.get(), 20_000.0);
    }
}
