//! The complete bitmap filter: bitmap + timer + throughput-driven `P_d`.

use crate::config::FailMode;
use crate::observe::{FilterObserver, NoopObserver};
use crate::overload::{OverloadEvent, OverloadLadder, OverloadPolicy, OverloadState};
use crate::pfilter::{MergeStats, PacketFilter};
use crate::runtime::RuntimeOverrides;
use crate::snapshot::{self, ByteReader, ByteWriter, RestoreMode, SnapshotError, Snapshottable};
use crate::{
    AtomicBitVec, AtomicBitmap, BitmapFilterConfig, DropPolicy, FilterEngine, HashedKey,
    ThroughputMonitor,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use upbound_net::{Direction, FiveTuple, Packet, Timestamp};

/// The decision of a filter for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Verdict {
    /// Forward the packet.
    Pass,
    /// Discard the packet.
    Drop,
}

/// Running counters of a [`BitmapFilter`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterStats {
    /// Outbound packets observed (always passed).
    pub outbound_packets: u64,
    /// Inbound packets checked.
    pub inbound_packets: u64,
    /// Inbound packets whose key was found in the current vector.
    pub inbound_hits: u64,
    /// Inbound packets whose key was not (fully) found.
    pub inbound_misses: u64,
    /// Inbound packets dropped.
    pub dropped: u64,
    /// Would-be drops passed because the filter was inside its warm-up
    /// grace period ([`FailMode::Open`], not yet armed).
    pub fail_open_passes: u64,
    /// Bitmap rotations performed by the timer.
    pub rotations: u64,
}

impl FilterStats {
    /// Folds the counters of `other` into `self`.
    ///
    /// Packet counters are additive; `rotations` merges as the
    /// **maximum**, because the shards of a
    /// [`ShardedFilter`](crate::ShardedFilter) each advance lazily to
    /// the last timestamp they saw — the furthest-advanced shard has
    /// performed exactly the rotations a single sequential filter would
    /// have.
    pub fn merge(&mut self, other: &FilterStats) {
        self.outbound_packets += other.outbound_packets;
        self.inbound_packets += other.inbound_packets;
        self.inbound_hits += other.inbound_hits;
        self.inbound_misses += other.inbound_misses;
        self.dropped += other.dropped;
        self.fail_open_passes += other.fail_open_passes;
        self.rotations = self.rotations.max(other.rotations);
    }
}

impl MergeStats for FilterStats {
    fn merge(&mut self, other: &Self) {
        FilterStats::merge(self, other);
    }
}

/// The warm-up clock: when drops arm, when the warm-up window ends, and
/// whether the one-shot armed notification fired.
#[derive(Debug, Clone, Copy, Default)]
struct WarmupClock {
    /// Trace time at which drops arm (fail-open), `None` until
    /// anchored.
    arm_at: Option<Timestamp>,
    /// End of the warm-up window (telemetry only), `None` until
    /// anchored.
    warm_until: Option<Timestamp>,
    /// Whether the one-shot armed notification fired (telemetry only).
    arm_notified: bool,
}

/// What [`BitmapFilter`]'s keyed decide core did with one packet,
/// handed back so the caller can report it to the observer.
#[derive(Debug)]
struct Decided {
    verdict: Verdict,
    /// The arming time, when this packet anchored the fail-open warm-up
    /// clock.
    anchored: Option<Timestamp>,
    /// The overload-ladder transition the packet's sample caused.
    overload: Option<OverloadEvent>,
    /// Inbound: every hashed bit was set in the current vector.
    known: bool,
    /// Inbound: the unmarked bits, one drop draw each.
    drop_draws: usize,
    /// Inbound: warm-up grace passed a drawn drop.
    fail_open: bool,
    /// Inbound misses: the clamped `P_d` the draws used.
    p_d: Option<f64>,
}

/// The bitmap filter of the paper's Section 4: constant-space,
/// constant-time bounding of unsolicited inbound (and therefore
/// peer-to-peer upload) traffic.
///
/// Drive it either at the packet level with
/// [`process_packet`](Self::process_packet) — which maintains the uplink
/// [`ThroughputMonitor`] and derives `P_d` from the configured
/// [`DropPolicy`] automatically — or at the tuple level with
/// [`observe_outbound`](Self::observe_outbound) /
/// [`check_inbound`](Self::check_inbound) and an explicit `P_d`.
///
/// Time is driven by packet timestamps: every entry point first applies
/// any rotations that came due, so no external timer thread is needed in
/// simulation. For live deployments,
/// [`ShardedFilter`](crate::ShardedFilter) partitions the five-tuple
/// space across independently locked shards and merges their statistics;
/// see its docs.
///
/// The filter is generic over a [`FilterObserver`] called on every
/// packet decision and rotation. The default [`NoopObserver`]
/// monomorphizes to nothing, so uninstrumented filters pay no cost;
/// [`with_observer`](Self::with_observer) installs a real one (e.g.
/// [`TelemetryObserver`](crate::TelemetryObserver)).
///
/// # Concurrency
///
/// Every decision and rotation takes `&mut self`, and the counters, the
/// warm-up clock and the bitmap are plain fields. Threads that decide
/// concurrently share filters through
/// [`ShardedFilter`](crate::ShardedFilter), which decides each packet
/// under its shard's write guard. Only the uplink monitor is shared
/// between shards.
#[derive(Debug, Clone)]
pub struct BitmapFilter<O: FilterObserver = NoopObserver> {
    config: BitmapFilterConfig,
    bitmap: AtomicBitmap,
    engine: FilterEngine<O>,
    stats: FilterStats,
    /// The warm-up clock. `arm_at`: under [`FailMode::Open`], the trace
    /// time at which drops arm (one expiry window past the cold start),
    /// unset until anchored — by
    /// [`start_cold_at`](Snapshottable::start_cold_at), a warm restore,
    /// or lazily by the first packet.
    ///
    /// Arming is a *pure function* of `(arm_at, now)` — there is no
    /// sticky armed flag — so verdicts stay independent of packet
    /// interleaving and a [`ShardedFilter`](crate::ShardedFilter) whose
    /// shards share one `arm_at` anchor matches a sequential run.
    ///
    /// `warm_until`: end of the warm-up window after a cold start,
    /// tracked for *both* fail modes (telemetry only; never affects
    /// verdicts). Under fail-closed this lets observers attribute early
    /// drops to empty post-restart state
    /// ([`ForensicReason::FailClosedWarmup`]
    /// (upbound_telemetry::ForensicReason::FailClosedWarmup)) instead
    /// of genuinely unsolicited traffic. `Some(Timestamp::ZERO)` marks
    /// a warm restore: the window is considered already elapsed.
    warmup: WarmupClock,
    /// The saturation sentinel and degradation ladder (see
    /// [`crate::overload`]). Defaults to [`OverloadPolicy::off`], which
    /// keeps every decision bit-identical to the paper's algorithm.
    /// Ladder state is derived from the bitmap fill, so it is not part
    /// of the snapshot format: a restored filter re-derives it from the
    /// restored bitmap on its first packet.
    overload: OverloadLadder,
}

impl BitmapFilter {
    /// Creates an unobserved filter from a validated configuration.
    pub fn new(config: BitmapFilterConfig) -> Self {
        BitmapFilter::with_observer(config, NoopObserver)
    }

    /// Creates a *parked* filter: engine, monitor and statistics are all
    /// live, but the bitmap has no bit storage yet. Used by
    /// [`SubscriberTable`](crate::SubscriberTable), whose arena attaches
    /// zeroed word buffers via [`unpark_storage`](Self::unpark_storage)
    /// on the tenant's first packet. Until then the filter must not
    /// decide packets; rotation ([`advance`](Self::advance)) is safe (a
    /// parked vector clears as a no-op).
    pub(crate) fn new_parked(config: BitmapFilterConfig) -> Self {
        let bitmap = AtomicBitmap::new_parked(
            config.vectors(),
            config.vector_bits(),
            config.hash_functions(),
        );
        let engine = FilterEngine::new(
            config.rotate_every(),
            config.uplink_monitor(),
            config.drop_policy(),
            config.rng_seed(),
            NoopObserver,
        );
        Self {
            bitmap,
            engine,
            config,
            stats: FilterStats::default(),
            warmup: WarmupClock::default(),
            overload: OverloadLadder::new(OverloadPolicy::off()),
        }
    }
}

impl<O: FilterObserver> BitmapFilter<O> {
    /// Creates a filter that reports decisions and rotations to
    /// `observer`.
    pub fn with_observer(config: BitmapFilterConfig, observer: O) -> Self {
        let bitmap = AtomicBitmap::new(config.vectors, config.vector_bits, config.hash_functions);
        let engine = FilterEngine::new(
            config.rotate_every,
            config.uplink_monitor(),
            config.drop_policy,
            config.rng_seed,
            observer,
        );
        Self {
            bitmap,
            engine,
            config,
            stats: FilterStats::default(),
            warmup: WarmupClock::default(),
            overload: OverloadLadder::new(OverloadPolicy::off()),
        }
    }

    /// Rebinds the uplink measurement to a monitor shared with sibling
    /// shards, so `P_d` derives from the aggregate upload rate of the
    /// whole client network. Used by
    /// [`ShardedFilter`](crate::ShardedFilter).
    pub fn with_shared_uplink(mut self, uplink: Arc<ThroughputMonitor>) -> Self {
        self.engine.share_uplink(uplink);
        self
    }

    /// Installs an overload policy (see [`crate::overload`]). The
    /// default is [`OverloadPolicy::off`]: the ladder never engages and
    /// verdicts match the paper's algorithm exactly.
    pub fn with_overload_policy(mut self, policy: OverloadPolicy) -> Self {
        self.overload = OverloadLadder::new(policy);
        self
    }

    /// Applies the filter-relevant fields of a [`RuntimeOverrides`]:
    /// the `P_d` thresholds, the fail mode, and the overload policy.
    /// `batch_size` is a dataplane-loop property and is ignored here.
    ///
    /// Exclusive access makes the swap atomic with respect to verdicts —
    /// a control plane applies this between batches, at a rotation
    /// boundary, so no packet is decided under a mixed configuration.
    /// Bitmap contents, tick phase, stats and the ladder's rung all
    /// survive: only the policy knobs change.
    pub fn apply_overrides(&mut self, overrides: &RuntimeOverrides) {
        if let Some(policy) = overrides.drop_policy {
            self.config.drop_policy = policy;
            self.engine.set_drop_policy(policy);
        }
        if let Some(mode) = overrides.fail_mode {
            self.config.fail_mode = mode;
        }
        if let Some(policy) = &overrides.overload {
            self.overload.set_policy(policy.clone());
        }
    }

    /// The saturation sentinel / degradation ladder.
    pub fn overload(&self) -> &OverloadLadder {
        &self.overload
    }

    /// The ladder's current rung ([`OverloadState::Normal`] whenever the
    /// policy is off).
    pub fn overload_state(&self) -> OverloadState {
        self.overload.state()
    }

    /// The installed observer.
    pub fn observer(&self) -> &O {
        self.engine.observer()
    }

    /// The installed observer, mutably.
    pub fn observer_mut(&mut self) -> &mut O {
        self.engine.observer_mut()
    }

    /// The configuration the filter was built with.
    pub fn config(&self) -> &BitmapFilterConfig {
        &self.config
    }

    /// The underlying `{k × N}` bitmap.
    pub fn bitmap(&self) -> &AtomicBitmap {
        &self.bitmap
    }

    /// The uplink throughput monitor (owned, or shared with sibling
    /// shards).
    pub fn monitor(&self) -> &ThroughputMonitor {
        self.engine.monitor()
    }

    /// Running counters.
    pub fn stats(&self) -> FilterStats {
        self.stats
    }

    /// Total memory of the bit storage in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.bitmap.memory_bytes()
    }

    /// Applies every rotation due at or before `now` (the `b.rotate`
    /// timer, paper Algorithm 1).
    pub fn advance(&mut self, now: Timestamp) {
        let BitmapFilter {
            engine,
            bitmap,
            stats,
            overload,
            ..
        } = self;
        engine.advance_observed(now, |at, observer| {
            // Rotations shed marks, so the ladder may de-escalate here
            // rather than waiting for the next inbound packet.
            if let Some(event) = Self::tick(bitmap, stats, overload, at) {
                observer.on_overload(&event);
            }
        });
    }

    /// One timer tick: rotates the bitmap, then lets the ladder
    /// re-evaluate the shed fill. Returns the ladder's transition, if any.
    fn tick(
        bitmap: &mut AtomicBitmap,
        stats: &mut FilterStats,
        overload: &OverloadLadder,
        at: Timestamp,
    ) -> Option<OverloadEvent> {
        bitmap.rotate();
        stats.rotations += 1;
        // Graceful degradation: a Saturated ladder sheds marks at twice
        // the configured rate — one extra rotation per tick, never more,
        // so the ⌊(k−1)/2⌋·Δt mark-survival floor the overload docs
        // promise stays intact.
        if overload.wants_early_rotation() {
            bitmap.rotate();
            stats.rotations += 1;
            overload.note_early_rotation();
        }
        overload.evaluate(bitmap, at)
    }

    /// `true` when drop verdicts apply at `now`. Always `true` under
    /// [`FailMode::Closed`]; under [`FailMode::Open`] only once the
    /// warm-up clock has been anchored *and* `now` has reached it.
    pub fn is_armed(&self, now: Timestamp) -> bool {
        match self.config.fail_mode() {
            FailMode::Closed => true,
            FailMode::Open => self.warmup.arm_at.is_some_and(|at| now >= at),
        }
    }

    /// The trace time at which drops arm, once the warm-up clock has
    /// been anchored. `None` for a fail-open filter that has seen no
    /// packet and no explicit cold start yet.
    pub fn armed_at(&self) -> Option<Timestamp> {
        self.warmup.arm_at
    }

    /// Anchors the warm-up clock lazily at the first packet a fail-open
    /// filter sees. Standalone fallback only: a sharded deployment must
    /// anchor every shard uniformly (via
    /// [`start_cold_at`](Snapshottable::start_cold_at) at the first
    /// packet's timestamp) or shard verdicts diverge from a sequential
    /// run during warm-up.
    ///
    /// Returns the arming time when this call anchored the fail-open
    /// clock (the observer's cold-start notification fires then).
    #[inline]
    fn anchor_warmup(&mut self, now: Timestamp) -> Option<Timestamp> {
        let until = || now + self.config.expiry_timer();
        // Telemetry-only warm-window anchor, kept for both fail modes.
        self.warmup.warm_until.get_or_insert_with(until);
        if self.config.fail_mode() == FailMode::Open && self.warmup.arm_at.is_none() {
            let armed_at = until();
            self.warmup.arm_at = Some(armed_at);
            self.warmup.arm_notified = false;
            return Some(armed_at);
        }
        None
    }

    /// `true` while `now` is inside the warm-up window after a cold
    /// start (telemetry only; never affects verdicts).
    pub fn is_warming(&self, now: Timestamp) -> bool {
        self.warmup.warm_until.is_some_and(|until| now < until)
    }

    /// Fires the one-shot armed notification when warm-up has elapsed.
    fn maybe_notify_armed(&mut self, now: Timestamp) {
        if !self.warmup.arm_notified
            && self.config.fail_mode() == FailMode::Open
            && self.warmup.arm_at.is_some_and(|at| now >= at)
        {
            self.warmup.arm_notified = true;
            self.engine.observer_mut().on_armed(now);
        }
    }

    /// Records an outbound packet's tuple: marks its key in all bit
    /// vectors. Outbound packets are always passed (Algorithm 2).
    pub fn observe_outbound(&mut self, tuple: &FiveTuple, now: Timestamp) {
        self.advance(now);
        let key = HashedKey::new(tuple, Direction::Outbound, self.config.hole_punching());
        let decided = self.decide_core(&key, Direction::Outbound, now, |_| 0.0);
        self.report(decided, &key, tuple, Direction::Outbound, now, |_| 0.0);
    }

    /// Checks an inbound packet's tuple against the current bit vector
    /// and decides with explicit drop probability `p_d`.
    ///
    /// Faithful to Algorithm 2: each of the `m` hashed bits that is
    /// *unmarked* gives an independent chance `p_d` to drop, so the
    /// overall drop probability of a fully unknown key is
    /// `1 − (1 − p_d)^m`. The draws are deterministic functions of
    /// `(seed, key, timestamp, draw index)` — see
    /// [`FilterEngine`](crate::FilterEngine) — so replays and sharded
    /// runs reproduce exactly.
    pub fn check_inbound(&mut self, tuple: &FiveTuple, now: Timestamp, p_d: f64) -> Verdict {
        self.advance(now);
        let key = HashedKey::new(tuple, Direction::Inbound, self.config.hole_punching());
        let decided = self.decide_core(&key, Direction::Inbound, now, |_| p_d);
        self.report(decided, &key, tuple, Direction::Inbound, now, |_| p_d)
    }

    /// The keyed decide core every path runs: the warm-up anchor, the
    /// counters, the ladder sample, and then either the outbound mark in
    /// all vectors or the inbound probe of the current vector with its
    /// per-bit drop draws (Algorithm 2, lines 9–13). Advancing the clock, recording uplink bytes and observer
    /// dispatch belong to the callers.
    ///
    /// `p_d` is called only on an inbound miss, so a path that derives
    /// it lazily pays for it only when a draw can consult it. While the
    /// ladder is engaged, unmarked inbound packets face at least the
    /// rung's `P_d` — a clamp that is structurally inert for marked
    /// (solicited) flows, which pass before any draw.
    #[inline]
    fn decide_core(
        &mut self,
        key: &HashedKey,
        direction: Direction,
        now: Timestamp,
        p_d: impl FnOnce(&Self) -> f64,
    ) -> Decided {
        let anchored = self.anchor_warmup(now);
        let indexes = key.indexes(&self.bitmap.hash_family());
        let mut decided = Decided {
            verdict: Verdict::Pass,
            anchored,
            overload: None,
            known: false,
            drop_draws: 0,
            fail_open: false,
            p_d: None,
        };
        if direction == Direction::Outbound {
            self.stats.outbound_packets += 1;
            self.bitmap.mark_indexes(indexes);
            // Outbound marks are what raise the fill (a SYN flood's
            // elicited RSTs arrive here), so the sentinel samples after
            // each mark.
            decided.overload = self.overload.evaluate(&self.bitmap, now);
            return decided;
        }
        decided.overload = self.overload.evaluate(&self.bitmap, now);
        self.stats.inbound_packets += 1;
        let probe = self.bitmap.probe_indexes(indexes);
        if probe.known {
            self.stats.inbound_hits += 1;
            decided.known = true;
            return decided;
        }
        self.stats.inbound_misses += 1;
        let p_d = p_d(self).max(self.overload.clamp(self.config.fail_mode()));
        decided.p_d = Some(p_d);
        decided.drop_draws = probe.unmarked;
        // Every unmarked bit is one draw; the draws share one hash of
        // the key and timestamp. `P_d` at 0 or 1 decides without one,
        // as `FilterEngine::drop_draw` does.
        let would_drop = if p_d <= 0.0 {
            false
        } else if p_d >= 1.0 {
            true
        } else {
            let draws = self.engine.draws(key.bytes(), now);
            (0..probe.unmarked as u32).any(|draw| draws.unit(draw) < p_d)
        };
        if would_drop && self.is_armed(now) {
            self.stats.dropped += 1;
            decided.verdict = Verdict::Drop;
        } else if would_drop {
            // Warm-up grace: the draws said drop, but the filter's
            // memory is too cold to trust — pass, and account the
            // override so degradation stays observable.
            self.stats.fail_open_passes += 1;
            decided.fail_open = true;
        }
        decided
    }

    /// Reports one [`decide_core`](Self::decide_core) result to the
    /// observer, in hook order: the cold-start and armed notifications,
    /// then the outbound hook and the ladder transition, or the ladder
    /// transition and the inbound decision. `p_d` gives the unclamped
    /// drop probability reported for an inbound hit, whose core never
    /// derived it. Returns the verdict.
    fn report(
        &mut self,
        decided: Decided,
        key: &HashedKey,
        tuple: &FiveTuple,
        direction: Direction,
        now: Timestamp,
        p_d: impl FnOnce(&Self) -> f64,
    ) -> Verdict {
        if O::IS_NOOP {
            return decided.verdict;
        }
        if let Some(armed_at) = decided.anchored {
            self.engine.observer_mut().on_cold_start(now, armed_at);
        }
        self.maybe_notify_armed(now);
        if direction == Direction::Outbound {
            self.engine.observer_mut().on_outbound(tuple, now);
        }
        if let Some(event) = &decided.overload {
            self.engine.observer_mut().on_overload(event);
        }
        if direction == Direction::Inbound {
            let p_d = decided
                .p_d
                .unwrap_or_else(|| p_d(self).max(self.overload.clamp(self.config.fail_mode())));
            let warming = self.is_warming(now);
            self.engine.notify_inbound(
                now,
                decided.verdict,
                p_d,
                decided.known,
                decided.drop_draws,
                decided.fail_open,
                warming,
                key.bytes(),
            );
        }
        decided.verdict
    }

    /// The drop probability Equation 1 yields for the current measured
    /// uplink throughput.
    pub fn drop_probability(&self, now: Timestamp) -> f64 {
        self.engine.drop_probability(now)
    }

    /// Full per-packet pipeline: outbound packets are marked, counted
    /// toward uplink throughput, and passed; inbound packets are checked
    /// with `P_d` derived from the measured throughput.
    pub fn process_packet(&mut self, packet: &Packet, direction: Direction) -> Verdict {
        self.advance(packet.ts());
        let key = HashedKey::new(&packet.tuple(), direction, self.config.hole_punching());
        self.decide_observed(&key, packet, direction)
    }

    /// [`decide_packet`](Self::decide_packet) plus observer dispatch:
    /// the per-packet path after the clock has advanced.
    fn decide_observed(
        &mut self,
        key: &HashedKey,
        packet: &Packet,
        direction: Direction,
    ) -> Verdict {
        let now = packet.ts();
        let decided = self.decide_packet(key, packet, direction);
        self.report(decided, key, &packet.tuple(), direction, now, |filter| {
            filter.drop_probability(now)
        })
    }

    /// [`decide_core`](Self::decide_core) for a whole packet: `P_d`
    /// derives from the uplink monitor, and an outbound packet's bytes
    /// count toward it. The monitor is all `P_d` reads, and neither
    /// rotations nor inbound decisions touch it, so deriving it lazily
    /// on a miss gives the value an eager read before the decision
    /// would.
    #[inline]
    fn decide_packet(&mut self, key: &HashedKey, packet: &Packet, direction: Direction) -> Decided {
        let now = packet.ts();
        let decided = self.decide_core(key, direction, now, |f| f.drop_probability(now));
        if direction == Direction::Outbound {
            self.engine.record_uplink(now, packet.wire_len() as u64);
        }
        decided
    }

    /// This filter's own key for `packet` when the handed-in `key` was
    /// derived under a different hole-punching setting (a
    /// [`ShardedFilter::from_shards`](crate::ShardedFilter::from_shards)
    /// bank may pair any [`FlowHash`](crate::FlowHash) with its shards);
    /// `None` when `key` can be trusted.
    #[inline]
    fn own_key(&self, key: &HashedKey, packet: &Packet, direction: Direction) -> Option<HashedKey> {
        let hole_punching = self.config.hole_punching();
        (key.hole_punching() != hole_punching)
            .then(|| HashedKey::new(&packet.tuple(), direction, hole_punching))
    }

    /// The drop policy in force.
    pub fn drop_policy(&self) -> DropPolicy {
        self.engine.drop_policy()
    }

    /// Detaches and returns the bitmap's word buffers, leaving the
    /// filter parked (engine, monitor and statistics stay live; rotation
    /// remains safe). The buffers are returned as-is — the arena zeroes
    /// them before reuse.
    pub(crate) fn park_storage(&mut self) -> Vec<Vec<u64>> {
        self.bitmap.park()
    }

    /// Re-attaches **zeroed** word buffers to a parked filter's bitmap.
    ///
    /// # Panics
    ///
    /// Panics if the filter is not parked or the buffer geometry does not
    /// match the configuration.
    pub(crate) fn unpark_storage(&mut self, buffers: Vec<Vec<u64>>) {
        self.bitmap.unpark(buffers);
    }

    /// `true` when the bitmap currently has no bit storage.
    pub(crate) fn is_parked(&self) -> bool {
        self.bitmap.is_parked()
    }

    /// Clears bitmap, monitor, statistics, and timer phase.
    ///
    /// With a [shared uplink](Self::with_shared_uplink) this also clears
    /// the aggregate measurement for every sibling shard.
    pub fn reset(&mut self) {
        self.bitmap.reset();
        self.stats = FilterStats::default();
        self.engine.reset();
        self.warmup = WarmupClock::default();
        self.overload.reset();
    }
}

impl<O: FilterObserver> Snapshottable for BitmapFilter<O> {
    const SNAPSHOT_KIND: u32 = 1;

    fn encode_snapshot(&self, w: &mut ByteWriter) {
        // Configuration guard: a snapshot only restores into a filter
        // whose geometry, clock, and seed produce identical behavior.
        // `fail_mode` is deliberately not guarded — an operator may
        // restart with a different --fail-mode.
        w.put_u32(self.config.vector_bits());
        w.put_u32(self.config.vectors() as u32);
        w.put_u32(self.config.hash_functions() as u32);
        w.put_u64(self.config.rotate_every().as_micros());
        w.put_bool(self.config.hole_punching());
        w.put_u64(self.config.rng_seed());
        // Engine tick phase.
        let (ticks, next_tick) = self.engine.tick_phase();
        w.put_u64(ticks);
        w.put_u64(next_tick.as_micros());
        // Uplink measurement window.
        snapshot::encode_monitor(self.engine.monitor(), w);
        // Bitmap: rotation clock plus every vector's backing words
        // (parked vectors encode zero words).
        let (vectors, idx, rotations) = self.bitmap.snapshot_words();
        w.put_u32(idx as u32);
        w.put_u64(rotations);
        for words in vectors {
            w.put_u64(words.len() as u64);
            for word in words {
                w.put_u64(word);
            }
        }
        // Running statistics.
        let stats = self.stats;
        w.put_u64(stats.outbound_packets);
        w.put_u64(stats.inbound_packets);
        w.put_u64(stats.inbound_hits);
        w.put_u64(stats.inbound_misses);
        w.put_u64(stats.dropped);
        w.put_u64(stats.fail_open_passes);
        w.put_u64(stats.rotations);
        // Warm-up clock.
        match self.warmup.arm_at {
            Some(at) => {
                w.put_bool(true);
                w.put_u64(at.as_micros());
            }
            None => {
                w.put_bool(false);
                w.put_u64(0);
            }
        }
    }

    fn restore_snapshot(
        &mut self,
        r: &mut ByteReader<'_>,
        mode: RestoreMode,
    ) -> Result<(), SnapshotError> {
        if r.u32()? != self.config.vector_bits() {
            return Err(SnapshotError::ConfigMismatch("vector_bits"));
        }
        if r.u32()? != self.config.vectors() as u32 {
            return Err(SnapshotError::ConfigMismatch("vectors"));
        }
        if r.u32()? != self.config.hash_functions() as u32 {
            return Err(SnapshotError::ConfigMismatch("hash_functions"));
        }
        if r.u64()? != self.config.rotate_every().as_micros() {
            return Err(SnapshotError::ConfigMismatch("rotate_every"));
        }
        if r.bool()? != self.config.hole_punching() {
            return Err(SnapshotError::ConfigMismatch("hole_punching"));
        }
        if r.u64()? != self.config.rng_seed() {
            return Err(SnapshotError::ConfigMismatch("rng_seed"));
        }
        let ticks = r.u64()?;
        let next_tick = Timestamp::from_micros(r.u64()?);
        self.engine.restore_tick_phase(ticks, next_tick);
        snapshot::restore_monitor(self.engine.monitor(), r)?;
        let idx = r.u32()? as usize;
        let rotations = r.u64()?;
        let k = self.config.vectors();
        let expected_words = self.bitmap.vector_len().div_ceil(64);
        let mut vectors = Vec::with_capacity(if mode == RestoreMode::Full { k } else { 0 });
        let mut parked_vectors = 0usize;
        for _ in 0..k {
            let word_count = r.u64()? as usize;
            if word_count == 0 {
                // A parked filter (storage evicted to a
                // [`SubscriberTable`](crate::SubscriberTable) arena)
                // snapshots without words; its bits are semantically
                // all-zero.
                parked_vectors += 1;
                continue;
            }
            if word_count != expected_words {
                return Err(SnapshotError::Malformed("bit-vector word count"));
            }
            if mode == RestoreMode::Full {
                let mut words = Vec::with_capacity(word_count);
                for _ in 0..word_count {
                    words.push(r.u64()?);
                }
                vectors.push(
                    AtomicBitVec::from_words(self.bitmap.vector_len(), words)
                        .ok_or(SnapshotError::Malformed("bit-vector contents"))?,
                );
            } else {
                // Stale snapshot: the bits expired with it; parse past
                // them (the layout is checksummed whole) and discard.
                for _ in 0..word_count {
                    r.u64()?;
                }
            }
        }
        if parked_vectors != 0 && parked_vectors != k {
            return Err(SnapshotError::Malformed("mixed parked bit vectors"));
        }
        if mode == RestoreMode::Full {
            if parked_vectors == k {
                // All bits were zero: clear whatever storage this filter
                // has (a no-op when it is itself parked) and adopt the
                // snapshot's rotation clock.
                self.bitmap.reset();
                if !self.bitmap.set_clock(idx, rotations) {
                    return Err(SnapshotError::Malformed("bitmap geometry"));
                }
            } else if !self.bitmap.restore_fields(vectors, idx, rotations) {
                return Err(SnapshotError::Malformed("bitmap geometry"));
            }
        }
        self.stats = FilterStats {
            outbound_packets: r.u64()?,
            inbound_packets: r.u64()?,
            inbound_hits: r.u64()?,
            inbound_misses: r.u64()?,
            dropped: r.u64()?,
            fail_open_passes: r.u64()?,
            rotations: r.u64()?,
        };
        let arm_set = r.bool()?;
        let arm_micros = r.u64()?;
        if mode == RestoreMode::Full {
            let arm_at = arm_set.then(|| Timestamp::from_micros(arm_micros));
            // Re-fire the armed notification on the restored process if
            // warm-up has not provably completed (telemetry only). A
            // warm restore carries real filter state: treat the warm
            // window as elapsed unless the restored arm clock says
            // otherwise.
            self.warmup = WarmupClock {
                arm_at,
                warm_until: Some(arm_at.unwrap_or(Timestamp::ZERO)),
                arm_notified: arm_at.is_none(),
            };
        }
        Ok(())
    }

    fn start_cold_at(&mut self, epoch: Timestamp) {
        self.bitmap.reset();
        // Derived state: an empty bitmap is by definition Normal.
        self.overload.reset();
        let armed_at = epoch + self.config.expiry_timer();
        self.warmup = WarmupClock {
            arm_at: Some(armed_at),
            warm_until: Some(armed_at),
            arm_notified: false,
        };
        self.engine.observer_mut().on_cold_start(epoch, armed_at);
    }
}

impl<O: FilterObserver> PacketFilter for BitmapFilter<O> {
    type Stats = FilterStats;

    fn decide(&mut self, packet: &Packet, direction: Direction) -> Verdict {
        self.process_packet(packet, direction)
    }

    fn decide_keyed(&mut self, key: &HashedKey, packet: &Packet, direction: Direction) -> Verdict {
        let own = self.own_key(key, packet, direction);
        self.decide_observed(own.as_ref().unwrap_or(key), packet, direction)
    }

    fn decide_batch(&mut self, packets: &[(Packet, Direction)], verdicts: &mut Vec<Verdict>) {
        // Rotation checks are amortized by `FilterEngine::tick_due`: the
        // per-packet `advance` inside `process_packet` reduces to one
        // timestamp comparison between ticks, so the batch loop carries
        // no duplicated timer arithmetic. Everything else (warm-up
        // anchoring, drop draws) is a pure function of the packet
        // timestamp and must run per packet for verdict identity.
        verdicts.reserve(packets.len());
        for (packet, direction) in packets {
            verdicts.push(self.process_packet(packet, *direction));
        }
    }

    fn advance(&mut self, now: Timestamp) {
        BitmapFilter::advance(self, now);
    }

    fn stats(&self) -> FilterStats {
        BitmapFilter::stats(self)
    }

    fn ticks(&self) -> u64 {
        self.stats.rotations
    }

    fn memory_bytes(&self) -> usize {
        BitmapFilter::memory_bytes(self)
    }

    fn drop_probability(&self, now: Timestamp) -> f64 {
        BitmapFilter::drop_probability(self, now)
    }

    fn name(&self) -> &str {
        "bitmap"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upbound_net::{Protocol, TcpFlags, TimeDelta};

    fn out_tuple(port: u16) -> FiveTuple {
        FiveTuple::new(
            Protocol::Tcp,
            format!("10.0.0.5:{port}").parse().unwrap(),
            "203.0.113.9:80".parse().unwrap(),
        )
    }

    fn unsolicited(port: u16) -> FiveTuple {
        FiveTuple::new(
            Protocol::Tcp,
            format!("198.51.100.2:{port}").parse().unwrap(),
            "10.0.0.5:6881".parse().unwrap(),
        )
    }

    fn filter() -> BitmapFilter {
        BitmapFilter::new(BitmapFilterConfig::paper_evaluation())
    }

    #[test]
    fn response_to_outbound_passes() {
        let mut f = filter();
        let t = Timestamp::from_secs(1.0);
        let conn = out_tuple(40000);
        f.observe_outbound(&conn, t);
        assert_eq!(f.check_inbound(&conn.inverse(), t, 1.0), Verdict::Pass);
        assert_eq!(f.stats().inbound_hits, 1);
    }

    #[test]
    fn unsolicited_inbound_drops_with_pd_one() {
        let mut f = filter();
        let t = Timestamp::from_secs(1.0);
        assert_eq!(f.check_inbound(&unsolicited(50000), t, 1.0), Verdict::Drop);
        assert_eq!(f.stats().dropped, 1);
        assert_eq!(f.stats().inbound_misses, 1);
    }

    #[test]
    fn unsolicited_inbound_passes_with_pd_zero() {
        let mut f = filter();
        let t = Timestamp::from_secs(1.0);
        assert_eq!(f.check_inbound(&unsolicited(50001), t, 0.0), Verdict::Pass);
        assert_eq!(f.stats().dropped, 0);
    }

    #[test]
    fn marks_expire_after_expiry_timer() {
        let mut f = filter();
        let conn = out_tuple(41000);
        f.observe_outbound(&conn, Timestamp::from_secs(0.1));
        // Within T_e − Δt the response is still recognized.
        assert_eq!(
            f.check_inbound(&conn.inverse(), Timestamp::from_secs(14.9), 1.0),
            Verdict::Pass
        );
        // Well past T_e = 20 s the mark is gone.
        assert_eq!(
            f.check_inbound(&conn.inverse(), Timestamp::from_secs(25.0), 1.0),
            Verdict::Drop
        );
    }

    #[test]
    fn rotations_follow_packet_time() {
        let mut f = filter();
        f.advance(Timestamp::from_secs(17.0));
        assert_eq!(f.stats().rotations, 3); // at 5, 10, 15 s
        f.advance(Timestamp::from_secs(17.0));
        assert_eq!(f.stats().rotations, 3); // idempotent
        f.advance(Timestamp::from_secs(20.0));
        assert_eq!(f.stats().rotations, 4);
    }

    #[test]
    fn partial_pd_drops_at_expected_rate() {
        let mut f = filter();
        let t = Timestamp::from_secs(0.0);
        let trials = 20_000;
        let mut drops = 0;
        for i in 0..trials {
            if f.check_inbound(&unsolicited(1024 + (i % 40000) as u16), t, 0.3) == Verdict::Drop {
                drops += 1;
            }
        }
        // Per Algorithm 2: P(drop) = 1 − (1 − 0.3)^3 = 0.657 for 3 fully
        // unmarked bits (bitmap is nearly empty, so misses have 3 zero bits).
        let rate = drops as f64 / trials as f64;
        assert!((rate - 0.657).abs() < 0.02, "drop rate {rate}");
    }

    #[test]
    fn process_packet_pipeline_limits_when_loaded() {
        // Build a filter with very low thresholds so modest traffic
        // saturates the policy.
        let config = BitmapFilterConfig::builder()
            .drop_policy(DropPolicy::new(1_000.0, 10_000.0).unwrap())
            .rng_seed(7)
            .build()
            .unwrap();
        let mut f = BitmapFilter::new(config);
        // Outbound chatter to drive throughput above H.
        for i in 0..200u32 {
            let t = Timestamp::from_micros(i as u64 * 10_000);
            let pkt = Packet::tcp(t, out_tuple(42000), TcpFlags::ACK, vec![0u8; 1000]);
            assert_eq!(f.process_packet(&pkt, Direction::Outbound), Verdict::Pass);
        }
        let now = Timestamp::from_secs(2.0);
        assert!(f.drop_probability(now) > 0.99, "policy should saturate");
        let pkt = Packet::tcp(now, unsolicited(51000), TcpFlags::SYN, &[][..]);
        assert_eq!(f.process_packet(&pkt, Direction::Inbound), Verdict::Drop);
    }

    #[test]
    fn deterministic_with_same_seed() {
        let run = |seed: u64| {
            let config = BitmapFilterConfig::builder()
                .rng_seed(seed)
                .build()
                .unwrap();
            let mut f = BitmapFilter::new(config);
            (0..200u16)
                .map(|i| f.check_inbound(&unsolicited(1024 + i), Timestamp::ZERO, 0.5))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2)); // different seed, different draws
    }

    #[test]
    fn draws_do_not_depend_on_interleaved_flows() {
        // The same unsolicited packet must get the same verdict whether
        // or not unrelated flows were checked before it — the property
        // that makes sharded runs equal sequential runs.
        let config = || BitmapFilterConfig::builder().rng_seed(11).build().unwrap();
        let t = Timestamp::from_secs(1.0);
        let mut alone = BitmapFilter::new(config());
        let expected: Vec<Verdict> = (0..100u16)
            .map(|i| alone.check_inbound(&unsolicited(2000 + i), t, 0.5))
            .collect();
        let mut interleaved = BitmapFilter::new(config());
        let got: Vec<Verdict> = (0..100u16)
            .map(|i| {
                // Unrelated flow checked in between must not shift draws.
                interleaved.check_inbound(&unsolicited(30000 + i), t, 0.5);
                interleaved.check_inbound(&unsolicited(2000 + i), t, 0.5)
            })
            .collect();
        assert_eq!(expected, got);
    }

    #[test]
    fn hole_punching_admits_other_remote_port() {
        let config = BitmapFilterConfig::builder()
            .hole_punching(true)
            .build()
            .unwrap();
        let mut f = BitmapFilter::new(config);
        let t = Timestamp::from_secs(0.0);
        // Client 10.0.0.5:40000 talked to 203.0.113.9:80 …
        f.observe_outbound(&out_tuple(40000), t);
        // … so an inbound packet from 203.0.113.9 from ANY source port to
        // that client endpoint is admitted.
        let from_other_port = FiveTuple::new(
            Protocol::Tcp,
            "203.0.113.9:9999".parse().unwrap(),
            "10.0.0.5:40000".parse().unwrap(),
        );
        assert_eq!(f.check_inbound(&from_other_port, t, 1.0), Verdict::Pass);

        // Without hole punching the same packet is dropped.
        let mut strict = filter();
        strict.observe_outbound(&out_tuple(40000), t);
        assert_eq!(
            strict.check_inbound(&from_other_port, t, 1.0),
            Verdict::Drop
        );
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut f = filter();
        let t = Timestamp::from_secs(1.0);
        f.observe_outbound(&out_tuple(40000), t);
        f.check_inbound(&unsolicited(50000), t, 1.0);
        f.reset();
        assert_eq!(f.stats(), FilterStats::default());
        assert_eq!(
            f.check_inbound(&out_tuple(40000).inverse(), t, 1.0),
            Verdict::Drop
        );
    }

    #[test]
    fn stats_count_each_path() {
        let mut f = filter();
        let t = Timestamp::from_secs(0.0);
        f.observe_outbound(&out_tuple(1), t);
        f.check_inbound(&out_tuple(1).inverse(), t, 1.0); // hit
        f.check_inbound(&unsolicited(2), t, 1.0); // miss + drop
        f.check_inbound(&unsolicited(3), t, 0.0); // miss + pass
        let s = f.stats();
        assert_eq!(s.outbound_packets, 1);
        assert_eq!(s.inbound_packets, 3);
        assert_eq!(s.inbound_hits, 1);
        assert_eq!(s.inbound_misses, 2);
        assert_eq!(s.dropped, 1);
    }

    #[test]
    fn merge_sums_packets_and_maxes_rotations() {
        let mut a = FilterStats {
            outbound_packets: 10,
            inbound_packets: 5,
            inbound_hits: 3,
            inbound_misses: 2,
            dropped: 1,
            fail_open_passes: 1,
            rotations: 4,
        };
        let b = FilterStats {
            outbound_packets: 1,
            inbound_packets: 7,
            inbound_hits: 4,
            inbound_misses: 3,
            dropped: 2,
            fail_open_passes: 2,
            rotations: 2,
        };
        a.merge(&b);
        assert_eq!(
            a,
            FilterStats {
                outbound_packets: 11,
                inbound_packets: 12,
                inbound_hits: 7,
                inbound_misses: 5,
                dropped: 3,
                fail_open_passes: 3,
                rotations: 4,
            }
        );
    }

    #[test]
    fn fail_open_passes_everything_until_armed() {
        let config = BitmapFilterConfig::builder()
            .fail_mode(FailMode::Open)
            .build()
            .unwrap();
        let mut f = BitmapFilter::new(config);
        // First packet at t=1 anchors warm-up: arms at 1 + T_e = 21 s.
        assert_eq!(
            f.check_inbound(&unsolicited(50000), Timestamp::from_secs(1.0), 1.0),
            Verdict::Pass
        );
        assert_eq!(f.armed_at(), Some(Timestamp::from_secs(21.0)));
        assert!(!f.is_armed(Timestamp::from_secs(20.9)));
        assert_eq!(
            f.check_inbound(&unsolicited(50001), Timestamp::from_secs(20.9), 1.0),
            Verdict::Pass
        );
        assert_eq!(f.stats().fail_open_passes, 2);
        assert_eq!(f.stats().dropped, 0);
        // Past the arming time the same traffic drops.
        assert!(f.is_armed(Timestamp::from_secs(21.0)));
        assert_eq!(
            f.check_inbound(&unsolicited(50002), Timestamp::from_secs(21.5), 1.0),
            Verdict::Drop
        );
        assert_eq!(f.stats().dropped, 1);
        assert_eq!(f.stats().fail_open_passes, 2);
    }

    #[test]
    fn fail_closed_is_armed_immediately() {
        let mut f = filter();
        assert!(f.is_armed(Timestamp::ZERO));
        assert_eq!(
            f.check_inbound(&unsolicited(50000), Timestamp::ZERO, 1.0),
            Verdict::Drop
        );
        assert_eq!(f.stats().fail_open_passes, 0);
    }

    #[test]
    fn snapshot_restores_exact_state() {
        let mut f = filter();
        let t = Timestamp::from_secs(1.0);
        f.observe_outbound(&out_tuple(40000), t);
        f.check_inbound(&unsolicited(50000), t, 1.0);
        f.advance(Timestamp::from_secs(6.0));
        let watermark = Timestamp::from_secs(6.0);
        let bytes = f.snapshot_bytes(watermark);

        let mut restored = filter();
        let outcome = restored
            .restore_bytes(&bytes, watermark, f.config().expiry_timer())
            .unwrap();
        assert_eq!(outcome, crate::RestoreOutcome::Warm);
        assert_eq!(restored.stats(), f.stats());
        assert_eq!(restored.bitmap(), f.bitmap());
        // The restored filter recognizes the pre-crash flow.
        assert_eq!(
            restored.check_inbound(&out_tuple(40000).inverse(), watermark, 1.0),
            Verdict::Pass
        );
    }

    #[test]
    fn stale_snapshot_restores_stats_but_goes_cold() {
        let config = BitmapFilterConfig::builder()
            .fail_mode(FailMode::Open)
            .build()
            .unwrap();
        let mut f = BitmapFilter::new(config.clone());
        let t = Timestamp::from_secs(1.0);
        f.observe_outbound(&out_tuple(40000), t);
        let bytes = f.snapshot_bytes(t);

        // Restore far beyond T_e = 20 s: marks would all have expired.
        let late = Timestamp::from_secs(300.0);
        let mut restored = BitmapFilter::new(config);
        let outcome = restored
            .restore_bytes(&bytes, late, restored.config().expiry_timer())
            .unwrap();
        assert_eq!(outcome, crate::RestoreOutcome::Cold);
        // Stats survived; bitmap memory did not.
        assert_eq!(restored.stats().outbound_packets, 1);
        assert_eq!(restored.bitmap().utilization(), 0.0);
        // Warm-up grace re-anchored at the restore time.
        assert_eq!(
            restored.armed_at(),
            Some(late + restored.config().expiry_timer())
        );
        assert_eq!(
            restored.check_inbound(&unsolicited(50000), late, 1.0),
            Verdict::Pass
        );
    }

    #[test]
    fn snapshot_rejects_mismatched_config() {
        let f = filter();
        let bytes = f.snapshot_bytes(Timestamp::ZERO);
        let other = BitmapFilterConfig::builder().rng_seed(1).build().unwrap();
        let mut restored = BitmapFilter::new(other);
        assert!(matches!(
            restored.restore_bytes(&bytes, Timestamp::ZERO, TimeDelta::from_secs(20.0)),
            Err(SnapshotError::ConfigMismatch("rng_seed"))
        ));
    }

    #[test]
    fn snapshot_rejects_wrong_kind_and_corruption() {
        let f = filter();
        let watermark = Timestamp::ZERO;
        let mut bytes = f.snapshot_bytes(watermark);
        // Corrupt one payload byte.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        let mut restored = filter();
        assert!(restored
            .restore_bytes(&bytes, watermark, TimeDelta::from_secs(20.0))
            .is_err());
    }

    #[test]
    fn restored_filter_produces_identical_verdicts() {
        // The bar for warm restart: post-restore verdicts must be
        // bit-for-bit the verdicts the uninterrupted filter produces.
        let mut live = filter();
        for i in 0..50u16 {
            live.observe_outbound(&out_tuple(30000 + i), Timestamp::from_secs(i as f64 * 0.1));
        }
        let watermark = Timestamp::from_secs(5.0);
        live.advance(watermark);
        let bytes = live.snapshot_bytes(watermark);
        let mut restored = filter();
        restored
            .restore_bytes(&bytes, watermark, TimeDelta::from_secs(20.0))
            .unwrap();
        for i in 0..200u16 {
            let t = Timestamp::from_secs(5.0 + i as f64 * 0.05);
            let probe = if i % 3 == 0 {
                out_tuple(30000 + (i % 50)).inverse()
            } else {
                unsolicited(1024 + i)
            };
            assert_eq!(
                live.check_inbound(&probe, t, 0.5),
                restored.check_inbound(&probe, t, 0.5),
                "diverged at probe {i}"
            );
        }
        assert_eq!(live.stats(), restored.stats());
    }

    fn tiny_overload_filter(vector_bits: u32, policy: crate::OverloadPolicy) -> BitmapFilter {
        let config = BitmapFilterConfig::builder()
            .vector_bits(vector_bits)
            .build()
            .unwrap();
        BitmapFilter::new(config).with_overload_policy(policy)
    }

    #[test]
    fn overload_ladder_escalates_from_outbound_marks() {
        use crate::{OverloadPolicy, OverloadState};
        // 2^4 = 16-bit vectors saturate after a handful of marks.
        let mut f = tiny_overload_filter(4, OverloadPolicy::balanced());
        assert_eq!(f.overload_state(), OverloadState::Normal);
        let t = Timestamp::from_secs(1.0);
        for i in 0..50u16 {
            f.observe_outbound(&out_tuple(30000 + i), t);
        }
        assert_eq!(f.overload_state(), OverloadState::Saturated);
        assert!(f.overload().transitions() >= 1);
        // A marked flow still passes while saturated (structural: the
        // probe hit returns before any drop draw).
        assert_eq!(
            f.check_inbound(&out_tuple(30000).inverse(), t, 1.0),
            Verdict::Pass
        );
    }

    #[test]
    fn saturated_ladder_doubles_rotation_rate() {
        use crate::{OverloadPolicy, OverloadState};
        let mut f = tiny_overload_filter(4, OverloadPolicy::balanced());
        let t = Timestamp::from_secs(1.0);
        for i in 0..50u16 {
            f.observe_outbound(&out_tuple(30000 + i), t);
        }
        assert_eq!(f.overload_state(), OverloadState::Saturated);
        // One scheduled tick at 5 s performs the scheduled rotation plus
        // one early rotation.
        f.advance(Timestamp::from_secs(5.5));
        assert_eq!(f.stats().rotations, 2);
        assert_eq!(f.overload().early_rotations(), 1);
    }

    #[test]
    fn pressure_clamp_drops_unmarked_at_pd_zero() {
        use crate::OverloadPolicy;
        // Raise the Saturated threshold out of reach so the ladder holds
        // at Pressure (clamp 0.5) for a ~0.9 fill.
        let policy = OverloadPolicy::parse("balanced,saturated=0.99").unwrap();
        let mut armed = tiny_overload_filter(8, policy);
        let mut off = tiny_overload_filter(8, OverloadPolicy::off());
        let t = Timestamp::from_secs(1.0);
        for i in 0..200u16 {
            armed.observe_outbound(&out_tuple(20000 + i), t);
            off.observe_outbound(&out_tuple(20000 + i), t);
        }
        assert_eq!(armed.overload_state(), crate::OverloadState::Pressure);
        let mut armed_drops = 0;
        let mut off_drops = 0;
        for i in 0..500u16 {
            // P_d = 0: absent the ladder, every miss passes.
            if armed.check_inbound(&unsolicited(1024 + i), t, 0.0) == Verdict::Drop {
                armed_drops += 1;
            }
            if off.check_inbound(&unsolicited(1024 + i), t, 0.0) == Verdict::Drop {
                off_drops += 1;
            }
        }
        assert_eq!(off_drops, 0, "no clamp without the ladder");
        assert!(armed_drops > 0, "Pressure clamp must shed unmarked flows");
    }

    #[test]
    fn reset_returns_ladder_to_normal() {
        use crate::{OverloadPolicy, OverloadState};
        let mut f = tiny_overload_filter(4, OverloadPolicy::balanced());
        let t = Timestamp::from_secs(1.0);
        for i in 0..50u16 {
            f.observe_outbound(&out_tuple(30000 + i), t);
        }
        assert_eq!(f.overload_state(), OverloadState::Saturated);
        f.reset();
        assert_eq!(f.overload_state(), OverloadState::Normal);
        assert_eq!(f.overload().transitions(), 0);
    }

    #[test]
    fn merge_with_default_is_identity() {
        let s = FilterStats {
            outbound_packets: 2,
            inbound_packets: 3,
            inbound_hits: 1,
            inbound_misses: 2,
            dropped: 1,
            fail_open_passes: 1,
            rotations: 9,
        };
        let mut merged = s;
        merged.merge(&FilterStats::default());
        assert_eq!(merged, s);
        let mut from_default = FilterStats::default();
        from_default.merge(&s);
        assert_eq!(from_default, s);
    }
}
