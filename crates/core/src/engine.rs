//! The timestamp-driven machinery behind the production filters.
//!
//! [`BitmapFilter`](crate::BitmapFilter) and the SPI baseline share the
//! same loop around their data structures: a tick timer driven by packet
//! timestamps (bitmap rotation / flow-table purge), a windowed uplink
//! [`ThroughputMonitor`], the [`DropPolicy`] → `P_d` derivation of the
//! paper's Equation 1, per-packet drop draws, and [`FilterObserver`]
//! dispatch. [`FilterEngine`] is that loop; both filters embed one.
//!
//! # Deterministic, order-independent drop draws
//!
//! Drop decisions are not drawn from a sequential RNG stream; they are a
//! pure function of `(seed, filter key, packet timestamp, draw index)`
//! hashed through FNV-1a and a splitmix64 finalizer. Two consequences:
//!
//! * replays with the same seed are bit-for-bit reproducible, and
//! * the draw a packet receives does not depend on how traffic from
//!   other flows is interleaved around it — which is what lets a
//!   [`ShardedFilter`](crate::ShardedFilter) partition the five-tuple
//!   space over N shards and still produce verdicts identical to a
//!   sequential run with the same seed.
//!
//! Statistically the draws remain independent uniform variates per
//! `(key, timestamp, index)` triple, matching the per-packet
//! independence the paper's Algorithm 2 assumes.

use crate::hash::{fnv1a, splitmix64};
use crate::observe::{FilterObserver, InboundDecision, RotationEvent};
use crate::red::DropPolicy;
use crate::{ThroughputMonitor, Verdict};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use upbound_net::{TimeDelta, Timestamp};

/// Domain separator so drop draws never alias the bitmap's bit indexes,
/// which are derived from the same FNV-1a base hash.
const DRAW_DOMAIN: u64 = 0xd509_7cc9_44a5_1a27;
/// Per-index offset of successive drop draws (the golden-ratio gamma).
const DRAW_STEP: u64 = 0x9e37_79b9_7f4a_7c15;

/// Where the engine's uplink measurement lives: owned by this filter, or
/// shared with sibling shards that together bound one client network.
#[derive(Debug, Clone)]
enum Uplink {
    Local(ThroughputMonitor),
    Shared(Arc<ThroughputMonitor>),
}

impl Uplink {
    fn monitor(&self) -> &ThroughputMonitor {
        match self {
            Uplink::Local(m) => m,
            Uplink::Shared(m) => m,
        }
    }
}

/// The engine loop shared by [`BitmapFilter`](crate::BitmapFilter) and
/// the SPI baseline: tick scheduling, uplink throughput bookkeeping,
/// `P_d` derivation, deterministic drop draws, and observer dispatch.
///
/// The filter that embeds an engine keeps only its data structure (the
/// rotating bitmap, the flow table) and passes a closure to
/// [`advance`](Self::advance) describing what one tick does to it.
///
/// # Concurrency
///
/// Everything but the observer is usable through `&self`. The tick
/// phase lives in two atomics (`ticks`, `next_tick`) guarded by a mutex
/// that only the thread *performing* a due tick takes; the packet-rate
/// fast path ([`tick_due`](Self::tick_due)) is a single `Acquire` load.
/// Ticks come once per `Δt` (seconds) while packets come millions per
/// second, so the lock is uncontended in any sane configuration and
/// absent from the hot path entirely. Observer hooks take `&mut self`
/// and run only on the exclusive paths
/// ([`advance_observed`](Self::advance_observed), the `notify_*`
/// methods), so observers never need to be `Sync`.
#[derive(Debug)]
pub struct FilterEngine<O: FilterObserver> {
    drop_policy: DropPolicy,
    seed: u64,
    tick_every: TimeDelta,
    /// Microseconds of the next due tick.
    next_tick: AtomicU64,
    /// Ticks performed (the rotation epoch reported to observers).
    ticks: AtomicU64,
    /// Serializes tick execution; never taken between ticks.
    tick_lock: Mutex<()>,
    uplink: Uplink,
    observer: O,
}

impl<O: FilterObserver> FilterEngine<O> {
    /// Creates an engine ticking every `tick_every`, measuring uplink
    /// throughput with `monitor`, deriving `P_d` from `drop_policy`,
    /// seeding drop draws with `seed`, and reporting to `observer`.
    pub fn new(
        tick_every: TimeDelta,
        monitor: ThroughputMonitor,
        drop_policy: DropPolicy,
        seed: u64,
        observer: O,
    ) -> Self {
        Self {
            drop_policy,
            seed,
            tick_every,
            next_tick: AtomicU64::new((Timestamp::ZERO + tick_every).as_micros()),
            ticks: AtomicU64::new(0),
            tick_lock: Mutex::new(()),
            uplink: Uplink::Local(monitor),
            observer,
        }
    }

    /// Rebinds the uplink measurement to a monitor shared with sibling
    /// shards, so `P_d` derives from the *aggregate* upload rate of the
    /// whole client network rather than this shard's slice of it.
    pub fn share_uplink(&mut self, uplink: Arc<ThroughputMonitor>) {
        self.uplink = Uplink::Shared(uplink);
    }

    /// The uplink throughput monitor (owned or shared).
    pub fn monitor(&self) -> &ThroughputMonitor {
        self.uplink.monitor()
    }

    /// The installed observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// The installed observer, mutably.
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.observer
    }

    /// Ticks performed so far (rotations or purge sweeps).
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Acquire)
    }

    /// The drop policy in force.
    pub fn drop_policy(&self) -> DropPolicy {
        self.drop_policy
    }

    /// Replaces the drop policy (runtime reconfiguration). Exclusive
    /// access guarantees no decider reads a half-swapped policy; the
    /// dataplane applies this between batches at a rotation boundary.
    pub(crate) fn set_drop_policy(&mut self, policy: DropPolicy) {
        self.drop_policy = policy;
    }

    /// `true` when at least one tick is due at or before `now` — the
    /// single-load guard the per-packet path pays between ticks.
    #[inline]
    pub fn tick_due(&self, now: Timestamp) -> bool {
        now.as_micros() >= self.next_tick.load(Ordering::Acquire)
    }

    /// Records `bytes` of uplink traffic at time `now`.
    pub fn record_uplink(&self, now: Timestamp, bytes: u64) {
        self.uplink.monitor().record(now, bytes);
    }

    /// The drop probability Equation 1 yields for the currently measured
    /// uplink throughput. The monitor is read only when the policy's
    /// curve can depend on it ([`DropPolicy::drop_probability_lazy`]):
    /// a drop-all filter's inbound misses skip the window scan.
    pub fn drop_probability(&self, now: Timestamp) -> f64 {
        self.drop_policy
            .drop_probability_lazy(|| self.uplink.monitor().rate_bps(now))
    }

    /// The most ticks one [`advance`](Self::advance) call will
    /// *execute*. A far-future timestamp (clock glitch, corrupt trace
    /// record) can put millions of ticks in arrears; executing each one
    /// would stall the filter for minutes. After `k` consecutive
    /// rotations every bitmap vector has been cleared once, so any state
    /// the skipped ticks would have produced is already all-zero — the
    /// engine jumps the tick counter and runs only the trailing
    /// `MAX_TICK_CATCHUP` ticks (enough for every practical `k`).
    pub const MAX_TICK_CATCHUP: u64 = 64;

    /// Applies every tick due at or before `now` through `&self`,
    /// calling `on_tick` with each tick's scheduled timestamp (the
    /// `b.rotate` timer of paper Algorithm 1, or the SPI purge sweep).
    /// The observer is not told; see
    /// [`advance_observed`](Self::advance_observed).
    ///
    /// Concurrent callers race benignly: one thread takes the tick lock
    /// and performs the due ticks, the rest re-check under the lock and
    /// find nothing due. `next_tick` moves only after `on_tick` returns,
    /// so a caller that sees no tick due also sees its effects. Backward
    /// timestamps never tick, and far-future arrears beyond
    /// [`MAX_TICK_CATCHUP`](Self::MAX_TICK_CATCHUP) are skipped in O(1).
    #[inline]
    pub fn advance(&self, now: Timestamp, mut on_tick: impl FnMut(Timestamp)) {
        if self.tick_due(now) {
            Self::run_due_ticks(
                &self.next_tick,
                &self.ticks,
                &self.tick_lock,
                self.tick_every,
                now,
                |at, _| on_tick(at),
            );
        }
    }

    /// [`advance`](Self::advance) with observer dispatch: each due tick
    /// is first reported to the observer as a [`RotationEvent`], then
    /// `on_tick` runs with the observer in hand, so events the tick
    /// triggers (an overload transition) follow it in any journal.
    #[inline]
    pub fn advance_observed(&mut self, now: Timestamp, mut on_tick: impl FnMut(Timestamp, &mut O)) {
        if !self.tick_due(now) {
            return;
        }
        let Self {
            drop_policy,
            tick_every,
            next_tick,
            ticks,
            tick_lock,
            uplink,
            observer,
            ..
        } = self;
        Self::run_due_ticks(
            next_tick,
            ticks,
            tick_lock,
            *tick_every,
            now,
            |at, rotations| {
                // Ticks are rare (once per Δt), so the operating point is
                // computed eagerly for the observer.
                let monitor = uplink.monitor();
                let p_d = drop_policy.drop_probability(monitor.rate_bps(at));
                observer.on_rotation(&RotationEvent {
                    now: at,
                    rotations,
                    monitor,
                    p_d,
                });
                on_tick(at, observer);
            },
        );
    }

    /// One deterministic drop draw for the packet identified by
    /// `key_bytes` at time `now`: returns `true` (drop) with probability
    /// `p_d`, independently per `draw` index.
    ///
    /// The draw is a pure function of `(seed, key, now, draw)` — see the
    /// module docs for why that makes sharded and sequential runs
    /// verdict-identical.
    pub fn drop_draw(&self, key_bytes: &[u8], now: Timestamp, draw: u32, p_d: f64) -> bool {
        if p_d <= 0.0 {
            return false;
        }
        if p_d >= 1.0 {
            return true;
        }
        self.unit_draw(key_bytes, now, draw) < p_d
    }

    /// The uniform variate in `[0, 1)` behind
    /// [`drop_draw`](Self::drop_draw): the byte-slice definition of a
    /// draw, hashing the key bytes and the timestamp on every call.
    pub fn unit_draw(&self, key_bytes: &[u8], now: Timestamp, draw: u32) -> f64 {
        let mut h = fnv1a(self.seed ^ DRAW_DOMAIN, key_bytes);
        h = splitmix64(h ^ now.as_micros());
        h = splitmix64(h.wrapping_add(u64::from(draw).wrapping_mul(DRAW_STEP)));
        unit_interval(h)
    }

    /// Every drop draw of one packet, with the key bytes and timestamp
    /// hashed once: `draws(key, now).unit(i)` equals
    /// [`unit_draw`](Self::unit_draw)`(key, now, i)` for every `i`, so a
    /// miss with several unmarked bits pays one hash pass, not one per
    /// draw.
    #[inline]
    pub fn draws(&self, key_bytes: &[u8], now: Timestamp) -> DropDraws {
        DropDraws(splitmix64(
            fnv1a(self.seed ^ DRAW_DOMAIN, key_bytes) ^ now.as_micros(),
        ))
    }

    /// Reports an inbound decision to the observer. `fail_open` marks a
    /// would-be drop that passed because the filter was still in its
    /// warm-up grace period; `warming` marks any decision taken inside
    /// the warm-up window (forensics context); `key` is the filter key
    /// the decision hashed (borrowed, hashed only by forensic
    /// observers).
    #[allow(clippy::too_many_arguments)]
    pub fn notify_inbound(
        &mut self,
        now: Timestamp,
        verdict: Verdict,
        p_d: f64,
        known: bool,
        drop_draws: usize,
        fail_open: bool,
        warming: bool,
        key: &[u8],
    ) {
        self.observer.on_inbound(&InboundDecision {
            now,
            verdict,
            p_d,
            known,
            drop_draws,
            fail_open,
            warming,
            key,
            rotation_epoch: *self.ticks.get_mut(),
            monitor: self.uplink.monitor(),
        });
    }

    /// Exports the tick phase `(ticks, next_tick)` for snapshot encoding.
    pub fn tick_phase(&self) -> (u64, Timestamp) {
        let _guard = self.tick_lock.lock();
        (
            self.ticks.load(Ordering::Relaxed),
            Timestamp::from_micros(self.next_tick.load(Ordering::Relaxed)),
        )
    }

    /// Restores a tick phase captured by [`tick_phase`](Self::tick_phase).
    /// A restored `next_tick` far behind the next packet is harmless:
    /// [`advance`](Self::advance) catches up in O(1) past
    /// [`MAX_TICK_CATCHUP`](Self::MAX_TICK_CATCHUP).
    pub fn restore_tick_phase(&mut self, ticks: u64, next_tick: Timestamp) {
        *self.ticks.get_mut() = ticks;
        *self.next_tick.get_mut() = next_tick.as_micros();
    }

    /// Clears tick phase and the uplink monitor.
    ///
    /// Note that with a [shared](Self::share_uplink) uplink this resets
    /// the aggregate measurement for every sibling shard as well.
    pub fn reset(&mut self) {
        *self.ticks.get_mut() = 0;
        *self.next_tick.get_mut() = (Timestamp::ZERO + self.tick_every).as_micros();
        self.uplink.monitor().reset();
    }

    /// The one tick loop behind [`advance`](Self::advance) and
    /// [`advance_observed`](Self::advance_observed), calling `on_tick(at, ticks)` with
    /// each due tick's timestamp and the tick count *including* it. It takes
    /// the clock fields rather than the engine so `advance_observed` can
    /// lend the observer out mutably at the same time.
    fn run_due_ticks(
        next_tick: &AtomicU64,
        ticks: &AtomicU64,
        tick_lock: &Mutex<()>,
        tick_every: TimeDelta,
        now: Timestamp,
        mut on_tick: impl FnMut(Timestamp, u64),
    ) {
        let _guard = tick_lock.lock();
        let every = tick_every.as_micros();
        let mut next = next_tick.load(Ordering::Acquire);
        if now.as_micros() >= next {
            let due = (now.as_micros() - next) / every + 1;
            if due > Self::MAX_TICK_CATCHUP {
                let skipped = due - Self::MAX_TICK_CATCHUP;
                ticks.fetch_add(skipped, Ordering::Relaxed);
                next += every * skipped;
            }
        }
        while now.as_micros() >= next {
            let at = Timestamp::from_micros(next);
            let ticks_after = ticks.load(Ordering::Relaxed) + 1;
            on_tick(at, ticks_after);
            ticks.store(ticks_after, Ordering::Release);
            next += every;
            next_tick.store(next, Ordering::Release);
        }
    }
}

impl<O: FilterObserver + Clone> Clone for FilterEngine<O> {
    fn clone(&self) -> Self {
        let (ticks, next_tick) = self.tick_phase();
        Self {
            drop_policy: self.drop_policy,
            seed: self.seed,
            tick_every: self.tick_every,
            next_tick: AtomicU64::new(next_tick.as_micros()),
            ticks: AtomicU64::new(ticks),
            tick_lock: Mutex::new(()),
            uplink: self.uplink.clone(),
            observer: self.observer.clone(),
        }
    }
}

/// The drop draws of one packet: `(seed, key, timestamp)` already
/// hashed, so each draw applies only its per-index finalizer (see
/// [`FilterEngine::draws`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DropDraws(u64);

impl DropDraws {
    /// Draw `draw`'s uniform variate in `[0, 1)`.
    #[inline]
    pub fn unit(&self, draw: u32) -> f64 {
        unit_interval(splitmix64(
            self.0.wrapping_add(u64::from(draw).wrapping_mul(DRAW_STEP)),
        ))
    }
}

/// Maps a 64-bit hash to `[0, 1)` by its top 53 bits, which an `f64`
/// represents exactly.
fn unit_interval(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::NoopObserver;

    const MAX_TICK_CATCHUP: u64 = FilterEngine::<NoopObserver>::MAX_TICK_CATCHUP;

    fn engine(seed: u64) -> FilterEngine<NoopObserver> {
        FilterEngine::new(
            TimeDelta::from_secs(5.0),
            ThroughputMonitor::new(TimeDelta::from_secs(1.0), 20),
            DropPolicy::drop_all(),
            seed,
            NoopObserver,
        )
    }

    #[test]
    fn advance_catches_up_all_due_ticks() {
        let e = engine(0);
        let mut fired = Vec::new();
        e.advance(Timestamp::from_secs(17.0), |at| fired.push(at));
        assert_eq!(e.ticks(), 3); // at 5, 10, 15 s
        assert_eq!(
            fired,
            vec![
                Timestamp::from_secs(5.0),
                Timestamp::from_secs(10.0),
                Timestamp::from_secs(15.0)
            ]
        );
        e.advance(Timestamp::from_secs(17.0), |_| panic!("no tick due"));
        assert_eq!(e.ticks(), 3);
    }

    #[test]
    fn far_future_advance_is_bounded() {
        let e = engine(0); // ticks every 5 s
        let mut fired = 0u64;
        // 20 million ticks in arrears; only the trailing window executes.
        e.advance(Timestamp::from_secs(1e8), |_| fired += 1);
        assert_eq!(fired, MAX_TICK_CATCHUP);
        // The tick counter still reflects every due tick.
        assert_eq!(e.ticks(), 20_000_000);
        // The phase is fully caught up afterwards.
        e.advance(Timestamp::from_secs(1e8), |_| panic!("no tick due"));
        let mut later = Vec::new();
        e.advance(Timestamp::from_secs(1e8 + 5.0), |at| later.push(at));
        assert_eq!(later, vec![Timestamp::from_secs(1e8 + 5.0)]);
    }

    #[test]
    fn backward_now_never_ticks() {
        let e = engine(0);
        e.advance(Timestamp::from_secs(12.0), |_| {});
        assert_eq!(e.ticks(), 2);
        e.advance(Timestamp::from_secs(3.0), |_| {
            panic!("backward time must not tick")
        });
        assert_eq!(e.ticks(), 2);
    }

    #[test]
    fn advance_observed_reports_each_tick_before_running_it() {
        #[derive(Debug, Default)]
        struct Log(Vec<String>);
        impl FilterObserver for Log {
            fn on_rotation(&mut self, rotation: &RotationEvent<'_>) {
                self.0.push(format!("event {}", rotation.rotations));
            }
        }
        let mut e = FilterEngine::new(
            TimeDelta::from_secs(5.0),
            ThroughputMonitor::new(TimeDelta::from_secs(1.0), 20),
            DropPolicy::drop_all(),
            0,
            Log::default(),
        );
        e.advance_observed(Timestamp::from_secs(11.0), |at, log| {
            log.0.push(format!("tick {}", at.as_micros() / 1_000_000));
        });
        assert_eq!(e.observer().0, ["event 1", "tick 5", "event 2", "tick 10"]);
        e.advance_observed(Timestamp::from_secs(11.0), |_, _| panic!("no tick due"));
    }

    #[test]
    fn concurrent_advance_ticks_exactly_once() {
        let e = engine(0);
        let fired = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (e, fired) = (&e, &fired);
                scope.spawn(move || {
                    for s in 1..=40u64 {
                        e.advance(Timestamp::from_secs(s as f64), |_| {
                            fired.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        // 40 s / 5 s = 8 due ticks, each performed by exactly one thread.
        assert_eq!(fired.load(Ordering::Relaxed), 8);
        assert_eq!(e.ticks(), 8);
    }

    #[test]
    fn draws_are_deterministic_and_seed_sensitive() {
        let a = engine(1);
        let b = engine(1);
        let c = engine(2);
        let now = Timestamp::from_secs(3.0);
        let mut diverged = false;
        for i in 0..256u32 {
            let key = [i as u8, (i >> 8) as u8, 0xaa];
            assert_eq!(
                a.drop_draw(&key, now, 0, 0.5),
                b.drop_draw(&key, now, 0, 0.5)
            );
            diverged |= a.drop_draw(&key, now, 0, 0.5) != c.drop_draw(&key, now, 0, 0.5);
        }
        assert!(diverged, "seeds 1 and 2 never disagreed over 256 keys");
    }

    #[test]
    fn draw_indexes_are_independent() {
        let e = engine(7);
        let now = Timestamp::from_secs(1.0);
        let mut drops = 0usize;
        let trials = 20_000u32;
        for i in 0..trials {
            let key = i.to_le_bytes();
            if e.drop_draw(&key, now, i % 3, 0.3) {
                drops += 1;
            }
        }
        let rate = drops as f64 / trials as f64;
        assert!((rate - 0.3).abs() < 0.02, "draw rate {rate}");
    }

    #[test]
    fn pd_edges_shortcut() {
        let e = engine(0);
        let now = Timestamp::from_secs(0.0);
        for i in 0..64u32 {
            assert!(!e.drop_draw(&i.to_le_bytes(), now, 0, 0.0));
            assert!(e.drop_draw(&i.to_le_bytes(), now, 0, 1.0));
        }
    }

    #[test]
    fn shared_uplink_feeds_aggregate_rate() {
        let shared = Arc::new(ThroughputMonitor::new(TimeDelta::from_secs(1.0), 4));
        let mut a = engine(0);
        let mut b = engine(0);
        a.share_uplink(Arc::clone(&shared));
        b.share_uplink(Arc::clone(&shared));
        let now = Timestamp::from_secs(0.5);
        a.record_uplink(now, 1000);
        b.record_uplink(now, 500);
        assert_eq!(shared.total_bytes(), 1500);
        assert_eq!(a.monitor().total_bytes(), 1500);
        assert!((a.monitor().rate_bps(now) - b.monitor().rate_bps(now)).abs() < 1e-12);
    }

    #[test]
    fn tick_phase_roundtrips() {
        let e = engine(0);
        e.advance(Timestamp::from_secs(12.0), |_| {});
        let (ticks, next) = e.tick_phase();
        assert_eq!(ticks, 2);
        let mut restored = engine(0);
        restored.restore_tick_phase(ticks, next);
        assert_eq!(restored.ticks(), 2);
        restored.advance(Timestamp::from_secs(12.0), |_| panic!("caught up"));
    }

    #[test]
    fn reset_restores_tick_phase() {
        let mut e = engine(0);
        e.advance(Timestamp::from_secs(12.0), |_| {});
        assert_eq!(e.ticks(), 2);
        e.reset();
        assert_eq!(e.ticks(), 0);
        let mut fired = 0;
        e.advance(Timestamp::from_secs(5.0), |_| fired += 1);
        assert_eq!(fired, 1);
    }
}
