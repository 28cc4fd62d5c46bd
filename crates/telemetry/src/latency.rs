//! Low-overhead hot-path latency tracing.
//!
//! [`LatencyRecorder`] is an HDR-style log-bucketed histogram over
//! nanosecond durations: 64 power-of-two buckets indexed with a single
//! `leading_zeros` (no search, no float math), so recording costs two
//! relaxed `fetch_add`s. That keeps it cheap enough to sit around the
//! per-batch (and even per-packet) filter path.
//!
//! [`StageTracer`] bundles one recorder per pipeline [`Stage`]
//! (ingest → decide → emit) and hands out
//! [`ScopeTimer`] drop-guards that time a lexical scope.
//!
//! Recorders registered through [`crate::Registry::latency`] export as
//! ordinary Prometheus histograms in seconds (bounds are a trimmed
//! power-of-two ladder), so the existing exporters and the validating
//! parser handle them unchanged.

use crate::metrics::HistogramSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of power-of-two buckets (covers the full `u64` nanosecond range).
pub const BUCKETS: usize = 64;

// Exported Prometheus bounds: 2^7 ns (128 ns) up to 2^38 ns (~4.6 min).
// Everything below folds into the first bucket; everything at or above
// 2^38 ns only lands in `+Inf`, which is standard histogram semantics.
const MIN_EXPORT_EXP: u32 = 7;
const MAX_EXPORT_EXP: u32 = 38;

#[inline]
fn bucket_index(nanos: u64) -> usize {
    // floor(log2(nanos)) for nanos >= 1; zero maps to bucket 0.
    (63 - (nanos | 1).leading_zeros()) as usize
}

/// Lock-free log-bucketed latency histogram (nanosecond domain). The
/// observation count is the sum of the buckets, never stored apart, so
/// a snapshot's count always matches its buckets.
#[derive(Debug)]
pub struct LatencyRecorder {
    buckets: [AtomicU64; BUCKETS],
    sum_nanos: AtomicU64,
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        LatencyRecorder::new()
    }
}

impl LatencyRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        LatencyRecorder {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            sum_nanos: AtomicU64::new(0),
        }
    }

    /// Records one duration in nanoseconds.
    #[inline]
    pub fn record_nanos(&self, nanos: u64) {
        self.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Records one [`std::time::Duration`].
    #[inline]
    pub fn record(&self, d: std::time::Duration) {
        self.record_nanos(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Total recorded observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// A point-in-time copy of the recorder state.
    pub fn load(&self) -> LatencySnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        LatencySnapshot {
            count: counts.iter().sum(),
            counts,
            sum_nanos: self.sum_nanos.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of a [`LatencyRecorder`] at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Per-bucket counts; bucket `i` holds durations in
    /// `[2^i, 2^(i+1))` nanoseconds (bucket 0 also holds zero).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed durations, nanoseconds.
    pub sum_nanos: u64,
}

impl LatencySnapshot {
    /// An empty snapshot (useful as a merge accumulator).
    pub fn empty() -> Self {
        LatencySnapshot {
            counts: vec![0; BUCKETS],
            count: 0,
            sum_nanos: 0,
        }
    }

    /// Upper bound (exclusive), in nanoseconds, of bucket `i`.
    pub fn bucket_upper_nanos(i: usize) -> u64 {
        if i + 1 >= BUCKETS {
            u64::MAX
        } else {
            1u64 << (i + 1)
        }
    }

    /// Folds another snapshot into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &LatencySnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_nanos = self.sum_nanos.saturating_add(other.sum_nanos);
    }

    /// Mean duration in nanoseconds (zero when empty).
    pub fn mean_nanos(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_nanos as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`0.0 ..= 1.0`) in nanoseconds: the upper
    /// bound of the first bucket whose cumulative count reaches
    /// `ceil(q * count)`. Zero when empty.
    pub fn quantile_nanos(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return LatencySnapshot::bucket_upper_nanos(i);
            }
        }
        LatencySnapshot::bucket_upper_nanos(BUCKETS - 1)
    }

    /// Converts to a Prometheus-style [`HistogramSnapshot`] in seconds,
    /// over a trimmed power-of-two bound ladder (128 ns .. ~4.6 min).
    pub fn to_histogram_snapshot(&self) -> HistogramSnapshot {
        let mut bounds = Vec::new();
        let mut counts = Vec::new();
        for exp in MIN_EXPORT_EXP..=MAX_EXPORT_EXP {
            bounds.push((1u64 << exp) as f64 * 1e-9);
            // Bound 2^exp covers raw bucket exp-1; the first exported
            // bound additionally absorbs all smaller buckets.
            let hi = (exp - 1) as usize;
            let lo = if exp == MIN_EXPORT_EXP { 0 } else { hi };
            counts.push(self.counts[lo..=hi].iter().sum());
        }
        HistogramSnapshot {
            bounds,
            counts,
            count: self.count,
            sum: self.sum_nanos as f64 * 1e-9,
        }
    }
}

/// A pipeline stage that can be traced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Reading/decoding trace records.
    Ingest,
    /// The filter decision itself (`decide` / `decide_batch`).
    Decide,
    /// Writing verdicts/records out.
    Emit,
}

impl Stage {
    /// All stages, pipeline order.
    pub const ALL: [Stage; 3] = [Stage::Ingest, Stage::Decide, Stage::Emit];

    /// Short machine-friendly label (used in metric names).
    pub fn label(self) -> &'static str {
        match self {
            Stage::Ingest => "ingest",
            Stage::Decide => "decide",
            Stage::Emit => "emit",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Ingest => 0,
            Stage::Decide => 1,
            Stage::Emit => 2,
        }
    }
}

/// One latency recorder per pipeline [`Stage`], registered as
/// `upbound_<scope>_stage_<stage>_latency_seconds`.
///
/// Cloning shares the underlying recorders, so pipeline workers on
/// different threads can each hold a tracer.
#[derive(Debug, Clone)]
pub struct StageTracer {
    recorders: [Arc<LatencyRecorder>; 3],
}

impl StageTracer {
    /// Registers the three per-stage recorders under `scope`
    /// (e.g. `sim` → `upbound_sim_stage_decide_latency_seconds`).
    pub fn new(registry: &crate::Registry, scope: &str) -> Self {
        let recorders = Stage::ALL.map(|stage| {
            registry.latency(
                &format!("upbound_{scope}_stage_{}_latency_seconds", stage.label()),
                &format!("Wall-clock latency of the {} stage", stage.label()),
            )
        });
        StageTracer { recorders }
    }

    /// A tracer with private (unregistered) recorders, for tests and
    /// overhead benchmarks that do not want a registry.
    pub fn detached() -> Self {
        StageTracer {
            recorders: [(); 3].map(|()| Arc::new(LatencyRecorder::new())),
        }
    }

    /// The recorder behind one stage.
    pub fn recorder(&self, stage: Stage) -> &Arc<LatencyRecorder> {
        &self.recorders[stage.index()]
    }

    /// Records a measured duration directly.
    #[inline]
    pub fn record_nanos(&self, stage: Stage, nanos: u64) {
        self.recorders[stage.index()].record_nanos(nanos);
    }

    /// Starts a drop-guard timer for `stage`; elapsed wall-clock time
    /// is recorded when the guard drops.
    #[inline]
    pub fn scope(&self, stage: Stage) -> ScopeTimer<'_> {
        ScopeTimer {
            recorder: &self.recorders[stage.index()],
            start: Instant::now(),
        }
    }
}

/// Times a lexical scope; records into its recorder on drop.
#[derive(Debug)]
pub struct ScopeTimer<'a> {
    recorder: &'a LatencyRecorder,
    start: Instant,
}

impl Drop for ScopeTimer<'_> {
    fn drop(&mut self) {
        self.recorder.record(self.start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_floor_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn records_and_snapshots() {
        let r = LatencyRecorder::new();
        r.record_nanos(100); // bucket 6
        r.record_nanos(100);
        r.record_nanos(1_000_000); // bucket 19
        let s = r.load();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum_nanos, 1_000_200);
        assert_eq!(s.counts[6], 2);
        assert_eq!(s.counts[19], 1);
    }

    #[test]
    fn concurrent_snapshots_count_exactly_their_buckets() {
        const THREADS: u64 = 4;
        const EACH: u64 = 10_000;
        let r = LatencyRecorder::new();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let r = &r;
                scope.spawn(move || {
                    for i in 0..EACH {
                        r.record_nanos((t * EACH + i) % 5_000);
                        if i % 1_000 == 0 {
                            let s = r.load();
                            assert_eq!(s.count, s.counts.iter().sum::<u64>());
                        }
                    }
                });
            }
        });
        let s = r.load();
        assert_eq!(s.count, s.counts.iter().sum::<u64>());
        assert_eq!(s.count, THREADS * EACH);
        assert_eq!(r.count(), THREADS * EACH);
    }

    #[test]
    fn quantiles_hit_bucket_upper_bounds() {
        let r = LatencyRecorder::new();
        for _ in 0..90 {
            r.record_nanos(100); // bucket 6, upper bound 128
        }
        for _ in 0..10 {
            r.record_nanos(10_000); // bucket 13, upper bound 16384
        }
        let s = r.load();
        assert_eq!(s.quantile_nanos(0.5), 128);
        assert_eq!(s.quantile_nanos(0.9), 128);
        assert_eq!(s.quantile_nanos(0.95), 16_384);
        assert_eq!(s.quantile_nanos(1.0), 16_384);
        assert_eq!(LatencySnapshot::empty().quantile_nanos(0.5), 0);
    }

    #[test]
    fn merge_adds_bucketwise() {
        let a = LatencyRecorder::new();
        let b = LatencyRecorder::new();
        a.record_nanos(100);
        b.record_nanos(100);
        b.record_nanos(1_000_000);
        let mut m = a.load();
        m.merge(&b.load());
        assert_eq!(m.count, 3);
        assert_eq!(m.counts[6], 2);
        assert_eq!(m.counts[19], 1);
        assert_eq!(m.sum_nanos, 1_000_200);
    }

    #[test]
    fn histogram_export_covers_all_small_buckets() {
        let r = LatencyRecorder::new();
        r.record_nanos(1); // far below the first exported bound
        r.record_nanos(200); // bucket 7, first exported bound is 2^7 ns... (200 > 128)
        let s = r.load().to_histogram_snapshot();
        assert_eq!(s.count, 2);
        // First bound is 128 ns = 1.28e-7 s and absorbs buckets 0..=6.
        assert!((s.bounds[0] - 128e-9).abs() < 1e-15);
        assert_eq!(s.counts[0], 1);
        // 200 ns lands under the 256 ns bound.
        assert_eq!(s.counts[1], 1);
        // Bounds are strictly ascending and the bucket sum never
        // exceeds the total (Prometheus invariants).
        assert!(s.bounds.windows(2).all(|w| w[0] < w[1]));
        assert!(s.counts.iter().sum::<u64>() <= s.count);
        assert!((s.sum - 201e-9).abs() < 1e-15);
    }

    #[test]
    fn histogram_export_huge_values_only_in_inf() {
        let r = LatencyRecorder::new();
        r.record_nanos(u64::MAX); // bucket 63, above every exported bound
        let s = r.load().to_histogram_snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.counts.iter().sum::<u64>(), 0);
    }

    #[test]
    fn scope_timer_records_on_drop() {
        let tracer = StageTracer::detached();
        {
            let _t = tracer.scope(Stage::Decide);
        }
        assert_eq!(tracer.recorder(Stage::Decide).count(), 1);
        assert_eq!(tracer.recorder(Stage::Emit).count(), 0);
        assert_eq!(tracer.recorder(Stage::Ingest).count(), 0);
    }
}
