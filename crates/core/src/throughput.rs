//! Windowed uplink-throughput measurement.

use std::sync::atomic::{AtomicU64, Ordering};
use upbound_net::{TimeDelta, Timestamp};

/// Sentinel slot id for "never written".
const EMPTY_SLOT: u64 = u64::MAX;

/// Measures throughput over a sliding window of fixed-width slots.
///
/// "Computing the P_d requires only the knowledge of current bandwidth
/// throughput, which is an essential component in off-the-shelf network
/// devices" (paper §5.2). This monitor is that component: bytes are
/// recorded per slot; the rate is the byte total over the most recent
/// full slots divided by the window span. Storage is O(#slots).
///
/// The counters are interior-mutable atomics, so one monitor can be
/// shared (behind an [`Arc`](std::sync::Arc)) by the shards of a
/// [`ShardedFilter`](crate::ShardedFilter) to measure the *aggregate*
/// uplink rate of a client network. Single-threaded use is exact; under
/// concurrent recording, a slot that is being recycled may briefly
/// absorb or shed a racing record, which is acceptable for a windowed
/// rate estimate.
///
/// # Examples
///
/// ```
/// use upbound_core::ThroughputMonitor;
/// use upbound_net::{TimeDelta, Timestamp};
///
/// let mon = ThroughputMonitor::new(TimeDelta::from_secs(1.0), 4);
/// mon.record(Timestamp::from_secs(0.5), 125_000); // 1 Mbit in slot 0
/// let rate = mon.rate_bps(Timestamp::from_secs(1.5));
/// assert!(rate > 0.0);
/// ```
#[derive(Debug)]
pub struct ThroughputMonitor {
    slot_width: TimeDelta,
    /// Ring of byte counters; `slots[i]` holds bytes of the absolute
    /// slot number currently stored in `slot_ids[i]`.
    slots: Vec<AtomicU64>,
    /// Absolute slot number each ring entry currently represents.
    slot_ids: Vec<AtomicU64>,
    /// Smallest absolute slot number ever recorded ([`EMPTY_SLOT`] until
    /// the first record). Bounds the measurement span during warm-up so
    /// the first seconds of a trace are not averaged over slots that
    /// never existed.
    first_slot: AtomicU64,
    total_bytes: AtomicU64,
}

impl Clone for ThroughputMonitor {
    fn clone(&self) -> Self {
        Self {
            slot_width: self.slot_width,
            slots: self
                .slots
                .iter()
                .map(|s| AtomicU64::new(s.load(Ordering::Relaxed)))
                .collect(),
            slot_ids: self
                .slot_ids
                .iter()
                .map(|s| AtomicU64::new(s.load(Ordering::Relaxed)))
                .collect(),
            first_slot: AtomicU64::new(self.first_slot.load(Ordering::Relaxed)),
            total_bytes: AtomicU64::new(self.total_bytes.load(Ordering::Relaxed)),
        }
    }
}

impl PartialEq for ThroughputMonitor {
    fn eq(&self, other: &Self) -> bool {
        let load =
            |v: &[AtomicU64]| -> Vec<u64> { v.iter().map(|s| s.load(Ordering::Relaxed)).collect() };
        self.slot_width == other.slot_width
            && load(&self.slots) == load(&other.slots)
            && load(&self.slot_ids) == load(&other.slot_ids)
            && self.first_slot.load(Ordering::Relaxed) == other.first_slot.load(Ordering::Relaxed)
            && self.total_bytes.load(Ordering::Relaxed) == other.total_bytes.load(Ordering::Relaxed)
    }
}

impl ThroughputMonitor {
    /// Creates a monitor with `n_slots` slots of `slot_width` each.
    ///
    /// # Panics
    ///
    /// Panics if `slot_width` is zero or `n_slots == 0`.
    pub fn new(slot_width: TimeDelta, n_slots: usize) -> Self {
        assert!(!slot_width.is_zero(), "slot width must be positive");
        assert!(n_slots > 0, "need at least one slot");
        Self {
            slot_width,
            slots: (0..n_slots).map(|_| AtomicU64::new(0)).collect(),
            slot_ids: (0..n_slots).map(|_| AtomicU64::new(EMPTY_SLOT)).collect(),
            first_slot: AtomicU64::new(EMPTY_SLOT),
            total_bytes: AtomicU64::new(0),
        }
    }

    fn slot_number(&self, ts: Timestamp) -> u64 {
        ts.as_micros() / self.slot_width.as_micros()
    }

    /// Records `bytes` sent at time `ts`.
    pub fn record(&self, ts: Timestamp, bytes: u64) {
        let slot = self.slot_number(ts);
        let idx = (slot % self.slots.len() as u64) as usize;
        let id = self.slot_ids[idx].load(Ordering::Acquire);
        if id != slot
            && self.slot_ids[idx]
                .compare_exchange(id, slot, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        {
            // This thread won the recycling race: clear the stale count.
            self.slots[idx].store(0, Ordering::Release);
        }
        self.slots[idx].fetch_add(bytes, Ordering::AcqRel);
        // Outside `reset` and snapshot restore `first_slot` only falls,
        // so a load at or below `slot` proves the `fetch_min` would
        // change nothing: only a session's first record (or a backward
        // timestamp) pays for it.
        if slot < self.first_slot.load(Ordering::Relaxed) {
            self.first_slot.fetch_min(slot, Ordering::AcqRel);
        }
        self.total_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// The measured throughput in bits per second at time `now`: the sum
    /// of bytes in the window's still-valid slots (excluding slots that
    /// have aged out) over the measurement span.
    ///
    /// During warm-up — before a full window has elapsed since the first
    /// record — the span is the slots elapsed so far, not the whole
    /// window, so early-trace rates are not diluted by slots that never
    /// existed. Far-future or backward `now` values are safe: stale slots
    /// age out (the validity test is overflow-free) and the span never
    /// collapses below one slot.
    pub fn rate_bps(&self, now: Timestamp) -> f64 {
        let current = self.slot_number(now);
        let n = self.slots.len() as u64;
        let window_bytes: u64 = self
            .slot_ids
            .iter()
            .zip(&self.slots)
            .filter(|(id, _)| {
                let id = id.load(Ordering::Acquire);
                id != EMPTY_SLOT && id <= current && current - id < n
            })
            .map(|(_, b)| b.load(Ordering::Acquire))
            .sum();
        let first = self.first_slot.load(Ordering::Acquire);
        let span_slots = if first == EMPTY_SLOT || first >= current {
            1
        } else {
            (current - first + 1).min(n)
        };
        let window_secs = self.slot_width.as_secs_f64() * span_slots as f64;
        (window_bytes as f64 * 8.0) / window_secs
    }

    /// Total bytes ever recorded.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes.load(Ordering::Relaxed)
    }

    /// The window span covered by the monitor.
    pub fn window(&self) -> TimeDelta {
        self.slot_width.times(self.slots.len() as u64)
    }

    /// Exports the full counter state for snapshot encoding:
    /// `(slot_width, slots, slot_ids, first_slot, total_bytes)`.
    pub(crate) fn snapshot_fields(&self) -> (TimeDelta, Vec<u64>, Vec<u64>, u64, u64) {
        let load =
            |v: &[AtomicU64]| -> Vec<u64> { v.iter().map(|s| s.load(Ordering::Acquire)).collect() };
        (
            self.slot_width,
            load(&self.slots),
            load(&self.slot_ids),
            self.first_slot.load(Ordering::Acquire),
            self.total_bytes.load(Ordering::Acquire),
        )
    }

    /// Overwrites the counter state from snapshot fields. Interior
    /// mutability means a monitor shared behind an `Arc` restores in
    /// place for every holder. Callers must have validated that the slot
    /// vectors match this monitor's geometry.
    pub(crate) fn restore_fields(
        &self,
        slots: &[u64],
        slot_ids: &[u64],
        first_slot: u64,
        total_bytes: u64,
    ) {
        debug_assert_eq!(slots.len(), self.slots.len());
        debug_assert_eq!(slot_ids.len(), self.slot_ids.len());
        for (dst, src) in self.slots.iter().zip(slots) {
            dst.store(*src, Ordering::Release);
        }
        for (dst, src) in self.slot_ids.iter().zip(slot_ids) {
            dst.store(*src, Ordering::Release);
        }
        self.first_slot.store(first_slot, Ordering::Release);
        self.total_bytes.store(total_bytes, Ordering::Release);
    }

    /// Clears all recorded history.
    pub fn reset(&self) {
        for slot in &self.slots {
            slot.store(0, Ordering::Release);
        }
        for id in &self.slot_ids {
            id.store(EMPTY_SLOT, Ordering::Release);
        }
        self.first_slot.store(EMPTY_SLOT, Ordering::Release);
        self.total_bytes.store(0, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor() -> ThroughputMonitor {
        ThroughputMonitor::new(TimeDelta::from_secs(1.0), 4)
    }

    #[test]
    fn rate_reflects_recent_bytes() {
        let m = monitor();
        // 4 Mbit spread over the window → 1 Mbps over 4 s.
        for s in 0..4 {
            m.record(Timestamp::from_secs(s as f64 + 0.5), 125_000);
        }
        let rate = m.rate_bps(Timestamp::from_secs(3.9));
        assert!((rate - 1e6).abs() < 1e-6, "rate {rate}");
    }

    #[test]
    fn old_slots_age_out() {
        let m = monitor();
        m.record(Timestamp::from_secs(0.5), 1_000_000);
        // Much later, the burst has left the window entirely.
        assert_eq!(m.rate_bps(Timestamp::from_secs(100.0)), 0.0);
    }

    #[test]
    fn slot_reuse_overwrites_stale_counts() {
        let m = monitor();
        m.record(Timestamp::from_secs(0.5), 1000);
        // Slot index 0 is reused at t≈4–5 s; stale data must not leak.
        m.record(Timestamp::from_secs(4.5), 500);
        let current = m.rate_bps(Timestamp::from_secs(4.6));
        let expected = 500.0 * 8.0 / 4.0;
        assert!((current - expected).abs() < 1e-9, "rate {current}");
    }

    #[test]
    fn empty_monitor_reports_zero() {
        let m = monitor();
        assert_eq!(m.rate_bps(Timestamp::from_secs(10.0)), 0.0);
        assert_eq!(m.total_bytes(), 0);
    }

    #[test]
    fn total_bytes_accumulates() {
        let m = monitor();
        m.record(Timestamp::from_secs(0.0), 100);
        m.record(Timestamp::from_secs(9.0), 200);
        assert_eq!(m.total_bytes(), 300);
    }

    #[test]
    fn window_span_is_slots_times_width() {
        assert_eq!(monitor().window(), TimeDelta::from_secs(4.0));
    }

    #[test]
    fn reset_clears_state() {
        let m = monitor();
        m.record(Timestamp::from_secs(0.5), 1000);
        m.reset();
        assert_eq!(m.rate_bps(Timestamp::from_secs(0.6)), 0.0);
        assert_eq!(m.total_bytes(), 0);
    }

    #[test]
    fn clone_snapshots_state() {
        let m = monitor();
        m.record(Timestamp::from_secs(0.5), 1000);
        let snap = m.clone();
        assert_eq!(snap, m);
        m.record(Timestamp::from_secs(0.6), 1000);
        assert_ne!(snap, m);
        assert_eq!(snap.total_bytes(), 1000);
    }

    #[test]
    fn shared_monitor_aggregates_across_threads() {
        use std::sync::Arc;
        let m = Arc::new(ThroughputMonitor::new(TimeDelta::from_secs(1.0), 8));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let m = Arc::clone(&m);
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        m.record(Timestamp::from_secs((i % 4) as f64 + 0.1), 10);
                    }
                });
            }
        });
        assert_eq!(m.total_bytes(), 4 * 1000 * 10);
        // All records landed in slots 0..4; at t = 4.0 only five slots
        // have elapsed, so the warm-up span is 5 s, not the full 8 s.
        let rate = m.rate_bps(Timestamp::from_secs(4.0));
        assert!((rate - (40_000.0 * 8.0 / 5.0)).abs() < 1e-6, "rate {rate}");
    }

    #[test]
    fn warm_up_rate_is_not_diluted_by_unelapsed_slots() {
        let m = monitor();
        // 1 Mbit in the first second of a 4 s window.
        m.record(Timestamp::from_secs(0.5), 125_000);
        // Still inside slot 0: the span is one slot, so the rate is the
        // full 1 Mbps, not 1/4 of it.
        let rate = m.rate_bps(Timestamp::from_secs(0.9));
        assert!((rate - 1e6).abs() < 1e-6, "rate {rate}");
        // One more second elapsed: averaged over 2 s.
        let rate = m.rate_bps(Timestamp::from_secs(1.5));
        assert!((rate - 5e5).abs() < 1e-6, "rate {rate}");
    }

    #[test]
    fn far_future_now_is_overflow_safe() {
        // One-microsecond slots make absolute slot numbers huge, so a
        // far-future timestamp exercises the `id + n` overflow that the
        // old validity check performed.
        let m = ThroughputMonitor::new(TimeDelta::from_micros(1), 4);
        let late = Timestamp::from_micros(u64::MAX - 10);
        m.record(late, 1000);
        assert!(m.rate_bps(late) > 0.0);
        // A later probe ages the slot out without panicking.
        assert_eq!(m.rate_bps(Timestamp::from_micros(u64::MAX)), 0.0);
    }

    #[test]
    fn backward_now_does_not_poison_rate() {
        let m = monitor();
        m.record(Timestamp::from_secs(2.5), 125_000);
        // A probe earlier than every record sees no valid slots and a
        // floor span of one slot: zero rate, no panic, no division hazard.
        assert_eq!(m.rate_bps(Timestamp::from_secs(0.5)), 0.0);
        // Probing at the recorded time still works afterwards.
        assert!(m.rate_bps(Timestamp::from_secs(2.9)) > 0.0);
    }

    #[test]
    #[should_panic(expected = "slot width must be positive")]
    fn zero_slot_width_panics() {
        let _ = ThroughputMonitor::new(TimeDelta::ZERO, 4);
    }
}
