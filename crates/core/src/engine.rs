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
/// [`advance_observed`](Self::advance_observed) describing what one
/// tick does to it.
///
/// The tick phase and the observer are written through `&mut self`:
/// the embedding filter decides exclusively (a
/// [`ShardedFilter`](crate::ShardedFilter) shard under its write
/// guard), so observers never need to be `Sync`. Only the uplink
/// monitor is shared, by sibling shards.
#[derive(Debug, Clone)]
pub struct FilterEngine<O: FilterObserver> {
    drop_policy: DropPolicy,
    seed: u64,
    tick_every: TimeDelta,
    /// Microseconds of the next due tick.
    next_tick: u64,
    /// Ticks performed (the rotation epoch reported to observers).
    ticks: u64,
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
            next_tick: (Timestamp::ZERO + tick_every).as_micros(),
            ticks: 0,
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
        self.ticks
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
    /// one comparison the per-packet path pays between ticks.
    #[inline]
    pub fn tick_due(&self, now: Timestamp) -> bool {
        now.as_micros() >= self.next_tick
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

    /// The most ticks one [`advance_observed`](Self::advance_observed)
    /// call will *execute*. A far-future timestamp (clock glitch,
    /// corrupt trace record) can put millions of ticks in arrears;
    /// executing each one would stall the filter for minutes. After `k`
    /// consecutive rotations every bitmap vector has been cleared once,
    /// so any state the skipped ticks would have produced is already
    /// all-zero — the engine jumps the tick counter and runs only the
    /// trailing `MAX_TICK_CATCHUP` ticks (enough for every practical
    /// `k`).
    pub const MAX_TICK_CATCHUP: u64 = 64;

    /// Applies every tick due at or before `now`, calling `on_tick` with
    /// each tick's scheduled timestamp (the `b.rotate` timer of paper
    /// Algorithm 1, or the SPI purge sweep). Each due tick is first
    /// reported to the observer as a [`RotationEvent`], then `on_tick`
    /// runs with the observer in hand, so events the tick triggers (an
    /// overload transition) follow it in any journal.
    ///
    /// Backward timestamps never tick, and far-future arrears beyond
    /// [`MAX_TICK_CATCHUP`](Self::MAX_TICK_CATCHUP) are skipped in O(1).
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
            uplink,
            observer,
            ..
        } = self;
        Self::run_due_ticks(next_tick, ticks, *tick_every, now, |at, rotations| {
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
        });
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
            rotation_epoch: self.ticks,
            monitor: self.uplink.monitor(),
        });
    }

    /// Exports the tick phase `(ticks, next_tick)` for snapshot encoding.
    pub fn tick_phase(&self) -> (u64, Timestamp) {
        (self.ticks, Timestamp::from_micros(self.next_tick))
    }

    /// Restores a tick phase captured by [`tick_phase`](Self::tick_phase).
    /// A restored `next_tick` far behind the next packet is harmless:
    /// [`advance_observed`](Self::advance_observed) catches up in O(1) past
    /// [`MAX_TICK_CATCHUP`](Self::MAX_TICK_CATCHUP).
    pub fn restore_tick_phase(&mut self, ticks: u64, next_tick: Timestamp) {
        self.ticks = ticks;
        self.next_tick = next_tick.as_micros();
    }

    /// Clears tick phase and the uplink monitor.
    ///
    /// Note that with a [shared](Self::share_uplink) uplink this resets
    /// the aggregate measurement for every sibling shard as well.
    pub fn reset(&mut self) {
        self.ticks = 0;
        self.next_tick = (Timestamp::ZERO + self.tick_every).as_micros();
        self.uplink.monitor().reset();
    }

    /// The tick loop of [`advance_observed`](Self::advance_observed),
    /// calling `on_tick(at, ticks)` with each due tick's timestamp and
    /// the tick count *including* it. It takes the clock fields rather
    /// than the engine so the caller can lend the observer out mutably at
    /// the same time.
    fn run_due_ticks(
        next_tick: &mut u64,
        ticks: &mut u64,
        tick_every: TimeDelta,
        now: Timestamp,
        mut on_tick: impl FnMut(Timestamp, u64),
    ) {
        let every = tick_every.as_micros();
        let now = now.as_micros();
        if now >= *next_tick {
            let due = (now - *next_tick) / every + 1;
            if due > Self::MAX_TICK_CATCHUP {
                let skipped = due - Self::MAX_TICK_CATCHUP;
                *ticks += skipped;
                *next_tick += every * skipped;
            }
        }
        while now >= *next_tick {
            let ticks_after = *ticks + 1;
            on_tick(Timestamp::from_micros(*next_tick), ticks_after);
            *ticks = ticks_after;
            *next_tick += every;
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
        let mut e = engine(0);
        let mut fired = Vec::new();
        e.advance_observed(Timestamp::from_secs(17.0), |at, _| fired.push(at));
        assert_eq!(e.ticks(), 3); // at 5, 10, 15 s
        assert_eq!(
            fired,
            vec![
                Timestamp::from_secs(5.0),
                Timestamp::from_secs(10.0),
                Timestamp::from_secs(15.0)
            ]
        );
        e.advance_observed(Timestamp::from_secs(17.0), |_, _| panic!("no tick due"));
        assert_eq!(e.ticks(), 3);
    }

    #[test]
    fn far_future_advance_is_bounded() {
        let mut e = engine(0); // ticks every 5 s
        let mut fired = 0u64;
        // 20 million ticks in arrears; only the trailing window executes.
        e.advance_observed(Timestamp::from_secs(1e8), |_, _| fired += 1);
        assert_eq!(fired, MAX_TICK_CATCHUP);
        // The tick counter still reflects every due tick.
        assert_eq!(e.ticks(), 20_000_000);
        // The phase is fully caught up afterwards.
        e.advance_observed(Timestamp::from_secs(1e8), |_, _| panic!("no tick due"));
        let mut later = Vec::new();
        e.advance_observed(Timestamp::from_secs(1e8 + 5.0), |at, _| later.push(at));
        assert_eq!(later, vec![Timestamp::from_secs(1e8 + 5.0)]);
    }

    #[test]
    fn backward_now_never_ticks() {
        let mut e = engine(0);
        e.advance_observed(Timestamp::from_secs(12.0), |_, _| {});
        assert_eq!(e.ticks(), 2);
        e.advance_observed(Timestamp::from_secs(3.0), |_, _| {
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
        let mut e = engine(0);
        e.advance_observed(Timestamp::from_secs(12.0), |_, _| {});
        let (ticks, next) = e.tick_phase();
        assert_eq!(ticks, 2);
        let mut restored = engine(0);
        restored.restore_tick_phase(ticks, next);
        assert_eq!(restored.ticks(), 2);
        restored.advance_observed(Timestamp::from_secs(12.0), |_, _| panic!("caught up"));
    }

    #[test]
    fn reset_restores_tick_phase() {
        let mut e = engine(0);
        e.advance_observed(Timestamp::from_secs(12.0), |_, _| {});
        assert_eq!(e.ticks(), 2);
        e.reset();
        assert_eq!(e.ticks(), 0);
        let mut fired = 0;
        e.advance_observed(Timestamp::from_secs(5.0), |_, _| fired += 1);
        assert_eq!(fired, 1);
    }
}
