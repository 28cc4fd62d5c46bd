//! Flow-hash sharding: N filters bounding one client network.
//!
//! The paper's filter does O(1) work per packet. [`ShardedFilter`]
//! partitions the five-tuple space by a direction-symmetric
//! [`FlowHash`] across N shards, each with its own bitmap, counters and
//! clocks. The whole bank — every shard and the running watermark —
//! sits behind one mutex: a batch takes it once and decides through
//! `&mut`, so bitmap, counter and clock updates are plain loads and
//! stores. `serve` decides on one thread, so the lock is uncontended
//! there; concurrent callers stay correct but serialize on the bank.
//! The bank checkpoints through [`Snapshottable`] like every other
//! filter: its image is the shard count, then each shard's payload.
//!
//! Three invariants make the sharded filter behave exactly like one big
//! sequential filter:
//!
//! * **Flow-hash symmetry** — the outbound mark and the inbound lookup
//!   of the same connection hash to the same shard, because
//!   [`FlowHash::key`] hashes the direction-oriented [`FilterKey`]
//!   (`outbound_key` for outbound, `inbound_key` for inbound), and those
//!   are equal for one connection by construction.
//! * **Global `P_d`** — every shard's engine reads one shared
//!   [`ThroughputMonitor`], so the drop probability derives from the
//!   *total* upload rate of the client network, not a shard's slice.
//! * **Deterministic draws** — drop draws are a pure function of
//!   `(seed, key, timestamp, draw index)`; all shards use the same
//!   configured seed, so a packet draws identically no matter which
//!   shard (or a sequential filter) decides it.
//!
//! [`FilterKey`]: upbound_net::FilterKey

use crate::hash::{flow_hash, HashedKey};
use crate::observe::FilterObserver;
use crate::pfilter::{MergeStats, PacketFilter};
use crate::runtime::RuntimeOverrides;
use crate::snapshot::{
    ByteReader, ByteWriter, RestoreMode, SnapshotError, Snapshottable, SHARDED_KIND_FLAG,
};
use crate::{
    BitmapFilter, BitmapFilterConfig, ConfigError, OverloadPolicy, ThroughputMonitor, Verdict,
};
use parking_lot::{Mutex, MutexGuard};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use upbound_net::{Direction, FiveTuple, Packet, Timestamp};

/// The direction-symmetric flow hash that assigns packets to shards.
///
/// Both directions of one connection map to the same 64-bit key, so an
/// outbound mark and the inbound lookup for its response always land on
/// the same shard. With hole punching the remote port is omitted (as in
/// the filter keys themselves), keeping hole-punched admits on the shard
/// that holds the mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowHash {
    hole_punching: bool,
}

impl FlowHash {
    /// A flow hash matching the given hole-punching key derivation.
    pub fn new(hole_punching: bool) -> Self {
        Self { hole_punching }
    }

    /// A flow hash over exact five-tuples (no hole punching) — the
    /// right choice for SPI-style filters that track full tuples.
    pub fn exact() -> Self {
        Self::new(false)
    }

    /// Whether the hash omits the remote port.
    pub fn hole_punching(&self) -> bool {
        self.hole_punching
    }

    /// The 64-bit flow key of `tuple` seen from `direction`; equal for
    /// both directions of one connection.
    pub fn key(&self, tuple: &FiveTuple, direction: Direction) -> u64 {
        let key = match direction {
            Direction::Outbound => tuple.outbound_key(self.hole_punching),
            Direction::Inbound => tuple.inbound_key(self.hole_punching),
        };
        flow_hash(&key.to_bytes())
    }

    /// `packet`'s [`HashedKey`] under this hash's key derivation: the
    /// one key build and hash pass the sharded packet path makes.
    #[inline]
    fn hashed(&self, packet: &Packet, direction: Direction) -> HashedKey {
        HashedKey::new(&packet.tuple(), direction, self.hole_punching)
    }
}

/// Packets whose keys [`ShardedFilter::process_batch`] hashes before
/// deciding them.
const HASH_AHEAD: usize = 16;

/// Error addressing a shard index that does not exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardIndexError {
    /// The requested shard index.
    pub index: usize,
    /// The number of shards in the filter.
    pub shards: usize,
}

impl fmt::Display for ShardIndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard index {} out of range for {} shard(s)",
            self.index, self.shards
        )
    }
}

impl std::error::Error for ShardIndexError {}

/// Everything a decision mutates, behind [`Inner`]'s one lock.
struct Bank<F> {
    shards: Vec<F>,
    /// Running-max timestamp (in microseconds) over every packet this
    /// handle has batched, persisted across [`ShardedFilter::process_batch`]
    /// calls so a shard that received no packets in a high-timestamp
    /// batch still advances to the sequential clock on its next packet.
    watermark: u64,
    /// The keys of the chunk [`ShardedFilter::process_batch`] is
    /// deciding, hashed ahead; sized at assembly, so a batch never grows
    /// it.
    keys: Vec<HashedKey>,
}

/// The shard count, and the pick of a flow's shard, `flow % count`,
/// without a division: Lemire's direct remainder, exact for every 64-bit
/// flow and count. The multiplier `⌈2^128 / count⌉` is worked out once;
/// for a count of 1 it wraps to 0, which picks shard 0.
#[derive(Debug, Clone, Copy)]
struct ShardPick {
    count: usize,
    multiplier: u128,
}

impl ShardPick {
    fn new(count: usize) -> Self {
        Self {
            count,
            multiplier: (u128::MAX / count as u128).wrapping_add(1),
        }
    }

    /// `flow % count`: the high 64 bits of the fraction
    /// `multiplier · flow` (mod 2^128) times `count`.
    #[inline]
    fn of(&self, flow: u64) -> usize {
        let fraction = self.multiplier.wrapping_mul(u128::from(flow));
        let count = self.count as u128;
        let low = ((fraction & u128::from(u64::MAX)) * count) >> 64;
        let high = (fraction >> 64) * count;
        ((low + high) >> 64) as usize
    }
}

struct Inner<F> {
    bank: Mutex<Bank<F>>,
    /// `bank.shards.len()` and the shard pick, fixed at assembly and
    /// read without the lock.
    shards: ShardPick,
    flow: FlowHash,
    uplink: Arc<ThroughputMonitor>,
    name: String,
    /// The largest shard [`PacketFilter::ticks`] at the end of the last
    /// call that held the bank: what the bank's own
    /// [`PacketFilter::ticks`] returns, without the lock.
    ticks: AtomicU64,
}

impl<F: PacketFilter> Inner<F> {
    /// Takes the bank's lock for one call.
    fn hold(&self) -> Held<'_, F> {
        Held {
            bank: self.bank.lock(),
            ticks: &self.ticks,
        }
    }
}

/// The bank, held for one call. When the call ends — on return or while
/// unwinding out of a panicking decision — the largest shard tick count
/// is stored for the bank's [`PacketFilter::ticks`]. Every call that can
/// tick a shard holds the bank this way. The vendored lock recovers from
/// poisoning, so a panic never wedges the next call.
struct Held<'a, F: PacketFilter> {
    bank: MutexGuard<'a, Bank<F>>,
    ticks: &'a AtomicU64,
}

impl<F: PacketFilter> Drop for Held<'_, F> {
    fn drop(&mut self) {
        let ticks = self.bank.shards.iter().map(F::ticks).max().unwrap_or(0);
        self.ticks.store(ticks, Ordering::Relaxed);
    }
}

/// N filter shards jointly bounding one client network, behind one
/// lock — the `N = 1` case is a single filter.
///
/// The handle is `Clone + Send + Sync`; clones share the same bank, and
/// every call takes its lock once, so concurrent callers serialize.
/// Packets are routed by [`FlowHash`], statistics merge via
/// [`MergeStats`], and `P_d` derives from the shared aggregate uplink
/// monitor (see DESIGN.md's "Sharding model" section for why verdicts
/// match a sequential run exactly).
///
/// # Examples
///
/// ```
/// use upbound_core::{BitmapFilterConfig, ShardedFilter, Verdict};
/// use upbound_net::{Direction, FiveTuple, Protocol, Timestamp};
///
/// let filter = ShardedFilter::builder(BitmapFilterConfig::paper_evaluation())
///     .shards(4)
///     .build()?;
/// let conn = FiveTuple::new(
///     Protocol::Tcp,
///     "10.0.0.7:51000".parse()?,
///     "203.0.113.4:6881".parse()?,
/// );
/// // Mark and lookup land on the same shard by flow-hash symmetry.
/// assert_eq!(
///     filter.shard_of(&conn, Direction::Outbound),
///     filter.shard_of(&conn.inverse(), Direction::Inbound),
/// );
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct ShardedFilter<F: PacketFilter + Send + Sync = BitmapFilter> {
    inner: Arc<Inner<F>>,
}

impl<F: PacketFilter + Send + Sync> Clone for ShardedFilter<F> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<F: PacketFilter + Send + Sync> fmt::Debug for ShardedFilter<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedFilter")
            .field("name", &self.inner.name)
            .field("shards", &self.inner.shards.count)
            .finish()
    }
}

impl ShardedFilter<BitmapFilter> {
    /// Starts a [`ShardedFilterBuilder`] for bitmap-filter shards built
    /// from one configuration, all sharing a single aggregate uplink
    /// monitor and the configured draw seed. One shard by default.
    pub fn builder(config: BitmapFilterConfig) -> ShardedFilterBuilder {
        ShardedFilterBuilder {
            config,
            shards: 1,
            overload: OverloadPolicy::off(),
        }
    }
}

impl<O: FilterObserver + Send + Sync> ShardedFilter<BitmapFilter<O>> {
    /// Applies a [`RuntimeOverrides`] to every shard (see
    /// [`BitmapFilter::apply_overrides`]) through a shared handle. Every
    /// shard switches under one hold of the bank, so no decision runs
    /// while some shards are on the old overrides and some on the new.
    pub fn apply_overrides(&self, overrides: &RuntimeOverrides) {
        for shard in &mut self.inner.hold().bank.shards {
            shard.apply_overrides(overrides);
        }
    }
}

/// Builder for a bitmap-filter [`ShardedFilter`]; validates the shard
/// count instead of panicking.
///
/// # Examples
///
/// ```
/// use upbound_core::{BitmapFilterConfig, ShardedFilter};
///
/// let filter = ShardedFilter::builder(BitmapFilterConfig::paper_evaluation())
///     .shards(4)
///     .build()?;
/// assert_eq!(filter.shards(), 4);
/// # Ok::<(), upbound_core::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ShardedFilterBuilder {
    config: BitmapFilterConfig,
    shards: usize,
    overload: OverloadPolicy,
}

impl ShardedFilterBuilder {
    /// Sets the number of shards.
    pub fn shards(&mut self, shards: usize) -> &mut Self {
        self.shards = shards;
        self
    }

    /// Arms the overload ladder on every shard (each shard's sentinel
    /// watches its own bitmap, so a flood hashed across shards degrades
    /// each one independently). Defaults to [`OverloadPolicy::off`].
    pub fn overload_policy(&mut self, policy: OverloadPolicy) -> &mut Self {
        self.overload = policy;
        self
    }

    /// Validates and assembles the sharded filter.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroShards`] when the shard count is zero.
    pub fn build(&self) -> Result<ShardedFilter<BitmapFilter>, ConfigError> {
        if self.shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        let uplink = Arc::new(self.config.uplink_monitor());
        let flow = FlowHash::new(self.config.hole_punching());
        let filters = (0..self.shards)
            .map(|_| {
                BitmapFilter::new(self.config.clone())
                    .with_shared_uplink(Arc::clone(&uplink))
                    .with_overload_policy(self.overload.clone())
            })
            .collect();
        Ok(ShardedFilter::from_shards(flow, uplink, filters))
    }
}

impl<F: PacketFilter + Send + Sync> ShardedFilter<F> {
    /// Assembles a sharded filter from pre-built shards.
    ///
    /// Every shard should already measure uplink throughput through
    /// `uplink` (e.g. via `BitmapFilter::with_shared_uplink`) so the
    /// drop policy sees the aggregate rate, and all shards should use
    /// the same draw seed so verdicts match a sequential run.
    ///
    /// # Panics
    ///
    /// Panics if `filters` is empty.
    pub fn from_shards(flow: FlowHash, uplink: Arc<ThroughputMonitor>, filters: Vec<F>) -> Self {
        assert!(!filters.is_empty(), "need at least one shard");
        let name = format!("sharded-{}x{}", filters[0].name(), filters.len());
        let ticks = filters.iter().map(F::ticks).max().unwrap_or(0);
        Self {
            inner: Arc::new(Inner {
                shards: ShardPick::new(filters.len()),
                bank: Mutex::new(Bank {
                    shards: filters,
                    watermark: 0,
                    keys: Vec::with_capacity(HASH_AHEAD),
                }),
                flow,
                uplink,
                name,
                ticks: AtomicU64::new(ticks),
            }),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.inner.shards.count
    }

    /// The flow hash used for shard assignment.
    pub fn flow_hash(&self) -> FlowHash {
        self.inner.flow
    }

    /// The shared aggregate uplink monitor.
    pub fn uplink(&self) -> &Arc<ThroughputMonitor> {
        &self.inner.uplink
    }

    /// The shard index `tuple` maps to when seen from `direction`.
    pub fn shard_of(&self, tuple: &FiveTuple, direction: Direction) -> usize {
        self.inner.shards.of(self.inner.flow.key(tuple, direction))
    }

    /// Runs the full per-packet pipeline on the packet's shard, under the
    /// bank's lock.
    pub fn process_packet(&self, packet: &Packet, direction: Direction) -> Verdict {
        self.process_packet_at(packet, direction, packet.ts())
    }

    /// Like [`process_packet`](Self::process_packet), but first brings
    /// the packet's shard to the tick phase of `watermark` — the running
    /// *maximum* timestamp the caller has ingested so far.
    ///
    /// On a trace with non-monotonic timestamps, each shard only ever
    /// sees its own packets' clocks, so shard tick phases drift apart
    /// from what a sequential filter (whose phase tracks the running
    /// maximum across *all* packets) would hold, and verdicts diverge.
    /// Passing the ingest-side watermark pins every shard to the
    /// sequential phase: timer state is a pure function of the maximum
    /// timestamp seen, and drop draws are order-independent already.
    pub fn process_packet_at(
        &self,
        packet: &Packet,
        direction: Direction,
        watermark: Timestamp,
    ) -> Verdict {
        let key = self.inner.flow.hashed(packet, direction);
        let mut held = self.inner.hold();
        let shard = &mut held.bank.shards[self.inner.shards.of(key.flow())];
        shard.advance(watermark);
        shard.decide_keyed(&key, packet, direction)
    }

    /// Runs the full per-packet pipeline on a batch of packets,
    /// appending one verdict per packet to `verdicts` in input order.
    ///
    /// The bank's lock is taken **once per batch**, and the batch is then
    /// decided strictly in input order through `&mut`, so concurrent
    /// batches serialize. The call allocates nothing beyond growing
    /// `verdicts`. Verdicts stay byte-identical to feeding the same
    /// stream through a sequential filter one packet at a time:
    ///
    /// * packets are decided in input order, so an inbound decision
    ///   observes exactly the uplink bytes recorded by the outbound
    ///   packets that precede it — the live drop-probability read sees
    ///   the same monitor state as the sequential path;
    /// * each packet is decided at the running-*maximum* timestamp
    ///   (watermark) over everything this handle has batched so far —
    ///   persisted across batches — which pins every shard to the
    ///   sequential filter's tick phase even on non-monotonic traces
    ///   (timer state is a pure function of the max timestamp seen);
    /// * drop draws are pure functions of
    ///   `(seed, key, timestamp, draw index)`, so batching cannot
    ///   shift them.
    ///
    /// If a decision panics, the verdicts of the packets before it stay
    /// in `verdicts` and the watermark still covers the panicking packet,
    /// so a caller that catches the unwind can resume the batch after it.
    pub fn process_batch(&self, packets: &[(Packet, Direction)], verdicts: &mut Vec<Verdict>) {
        verdicts.reserve(packets.len());
        let Inner {
            flow, shards: pick, ..
        } = *self.inner;
        let mut held = self.inner.hold();
        let Bank {
            shards,
            watermark,
            keys,
        } = &mut *held.bank;
        for chunk in packets.chunks(HASH_AHEAD) {
            // Hash the chunk's keys before deciding any of it, so the
            // key hashes of consecutive packets overlap instead of each
            // waiting behind the decision before it.
            keys.clear();
            keys.extend(
                chunk
                    .iter()
                    .map(|(packet, direction)| flow.hashed(packet, *direction)),
            );
            for ((packet, direction), key) in chunk.iter().zip(keys.iter()) {
                *watermark = (*watermark).max(packet.ts().as_micros());
                let shard = &mut shards[pick.of(key.flow())];
                shard.advance(Timestamp::from_micros(*watermark));
                verdicts.push(shard.decide_keyed(key, packet, *direction));
            }
        }
    }

    /// Applies every timer event due at or before `now` on **all**
    /// shards, bringing them to a common tick phase (e.g. before reading
    /// [`stats`](Self::stats) at a trace boundary, or before a
    /// checkpoint, so that every shard's image is cut at one instant).
    pub fn advance(&self, now: Timestamp) {
        for shard in &mut self.inner.hold().bank.shards {
            shard.advance(now);
        }
    }

    /// Merged statistics across all shards (see [`MergeStats::merge`]
    /// for the fold semantics).
    pub fn stats(&self) -> F::Stats {
        let mut merged = F::Stats::default();
        for shard in &self.inner.hold().bank.shards {
            merged.merge(&shard.stats());
        }
        merged
    }

    /// Total memory of all shards' filter state in bytes.
    pub fn memory_bytes(&self) -> usize {
        let held = self.inner.hold();
        held.bank.shards.iter().map(F::memory_bytes).sum()
    }

    /// The drop probability derived from the shared aggregate uplink
    /// rate — identical for every shard by construction, so shard 0
    /// answers it, under the bank's lock.
    pub fn drop_probability(&self, now: Timestamp) -> f64 {
        self.inner.hold().bank.shards[0].drop_probability(now)
    }

    /// Runs `f` with exclusive access to shard `index`, under the bank's
    /// lock: `f` must not call back into this filter, or it deadlocks.
    ///
    /// # Errors
    ///
    /// Returns [`ShardIndexError`] when `index >= self.shards()`.
    pub fn with_shard<R>(
        &self,
        index: usize,
        f: impl FnOnce(&mut F) -> R,
    ) -> Result<R, ShardIndexError> {
        let mut held = self.inner.hold();
        let shard = held.bank.shards.get_mut(index).ok_or(ShardIndexError {
            index,
            shards: self.inner.shards.count,
        })?;
        Ok(f(shard))
    }

    /// Swaps shard `index` for `filter`, discarding the old shard state.
    ///
    /// This is the supervisor's quarantine-and-rebuild primitive: when a
    /// shard worker panics mid-decision the shard's internal state is
    /// suspect (the bank's lock does not poison), so the supervisor
    /// installs a fresh, empty replacement — typically one anchored with
    /// [`Snapshottable::start_cold_at`] so it fails open through its own
    /// warm-up while the other shards keep filtering.
    ///
    /// # Errors
    ///
    /// Returns [`ShardIndexError`] when `index >= self.shards()`.
    pub fn replace_shard(&self, index: usize, filter: F) -> Result<(), ShardIndexError> {
        let mut held = self.inner.hold();
        let shard = held.bank.shards.get_mut(index).ok_or(ShardIndexError {
            index,
            shards: self.inner.shards.count,
        })?;
        *shard = filter;
        Ok(())
    }

    /// A short display name for reports.
    pub fn name(&self) -> &str {
        &self.inner.name
    }
}

/// The bank checkpoints as one container of kind
/// `F::SNAPSHOT_KIND | SHARDED_KIND_FLAG`. A caller that wants a
/// consistent cut [`advance`](ShardedFilter::advance)s the bank to the
/// watermark first, so every shard's timer phase and bitmap state
/// correspond to the same instant, as a sequential filter's would.
impl<F: PacketFilter + Send + Sync + Snapshottable> Snapshottable for ShardedFilter<F> {
    const SNAPSHOT_KIND: u32 = F::SNAPSHOT_KIND | SHARDED_KIND_FLAG;

    /// The shard count, then each shard's payload behind its `u64`
    /// length, under one hold of the bank.
    fn encode_snapshot(&self, w: &mut ByteWriter) {
        let held = self.inner.hold();
        w.put_u32(self.inner.shards.count as u32);
        for shard in &held.bank.shards {
            let mut shard_w = ByteWriter::new();
            shard.encode_snapshot(&mut shard_w);
            let bytes = shard_w.into_bytes();
            w.put_u64(bytes.len() as u64);
            w.put_slice(&bytes);
        }
    }

    /// Restores every shard under one hold of the bank. A different
    /// shard count is a [`SnapshotError::ConfigMismatch`]; on any error
    /// some shards may already hold restored state.
    fn restore_snapshot(
        &mut self,
        r: &mut ByteReader<'_>,
        mode: RestoreMode,
    ) -> Result<(), SnapshotError> {
        if r.u32()? as usize != self.inner.shards.count {
            return Err(SnapshotError::ConfigMismatch("shard count"));
        }
        for shard in &mut self.inner.hold().bank.shards {
            let len = r.u64()? as usize;
            let mut shard_r = ByteReader::new(r.take(len)?);
            shard.restore_snapshot(&mut shard_r, mode)?;
            if !shard_r.is_empty() {
                return Err(SnapshotError::Malformed("shard payload has trailing bytes"));
            }
        }
        Ok(())
    }

    /// Restarts every shard cold at `epoch` — the uniform anchor that
    /// keeps sharded fail-open verdicts identical to a sequential
    /// filter's.
    fn start_cold_at(&mut self, epoch: Timestamp) {
        for shard in &mut self.inner.hold().bank.shards {
            shard.start_cold_at(epoch);
        }
    }
}

impl<F: PacketFilter + Send + Sync> PacketFilter for ShardedFilter<F> {
    type Stats = F::Stats;

    fn decide(&mut self, packet: &Packet, direction: Direction) -> Verdict {
        ShardedFilter::process_packet(self, packet, direction)
    }

    fn decide_batch(&mut self, packets: &[(Packet, Direction)], verdicts: &mut Vec<Verdict>) {
        ShardedFilter::process_batch(self, packets, verdicts);
    }

    fn advance(&mut self, now: Timestamp) {
        ShardedFilter::advance(self, now);
    }

    fn stats(&self) -> F::Stats {
        ShardedFilter::stats(self)
    }

    /// The largest shard tick count, as stored when the last call that
    /// held the bank let go: one relaxed load, no lock.
    fn ticks(&self) -> u64 {
        self.inner.ticks.load(Ordering::Relaxed)
    }

    fn memory_bytes(&self) -> usize {
        ShardedFilter::memory_bytes(self)
    }

    fn drop_probability(&self, now: Timestamp) -> f64 {
        ShardedFilter::drop_probability(self, now)
    }

    fn name(&self) -> &str {
        ShardedFilter::name(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{self, RestoreOutcome};
    use crate::FilterStats;
    use upbound_net::{Protocol, TcpFlags};

    fn handle(shards: usize) -> ShardedFilter {
        ShardedFilter::builder(BitmapFilterConfig::paper_evaluation())
            .shards(shards)
            .build()
            .unwrap()
    }

    fn sharded(config: BitmapFilterConfig, shards: usize) -> ShardedFilter {
        ShardedFilter::builder(config)
            .shards(shards)
            .build()
            .unwrap()
    }

    fn out_tuple(port: u16) -> FiveTuple {
        FiveTuple::new(
            Protocol::Tcp,
            format!("10.0.0.5:{port}").parse().unwrap(),
            "203.0.113.9:80".parse().unwrap(),
        )
    }

    fn outbound_packet(port: u16, t: f64) -> Packet {
        Packet::tcp(
            Timestamp::from_secs(t),
            out_tuple(port),
            TcpFlags::ACK,
            &[][..],
        )
    }

    #[test]
    fn handle_is_send_sync_clone() {
        fn assert_traits<T: Send + Sync + Clone>() {}
        assert_traits::<ShardedFilter>();
    }

    #[test]
    fn both_directions_map_to_the_same_shard() {
        let f = handle(7);
        for port in 1024..1224u16 {
            let conn = out_tuple(port);
            assert_eq!(
                f.shard_of(&conn, Direction::Outbound),
                f.shard_of(&conn.inverse(), Direction::Inbound),
                "asymmetric shard for port {port}"
            );
        }
    }

    #[test]
    fn shards_are_used_roughly_evenly() {
        let f = handle(4);
        let mut counts = [0usize; 4];
        for port in 1024..5024u16 {
            counts[f.shard_of(&out_tuple(port), Direction::Outbound)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((700..=1300).contains(&c), "shard {i} got {c} of 4000 flows");
        }
    }

    #[test]
    fn concurrent_marks_are_all_visible() {
        let f = handle(4);
        std::thread::scope(|scope| {
            for worker in 0..4u16 {
                let f = f.clone();
                scope.spawn(move || {
                    for i in 0..100u16 {
                        let port = 10_000 + worker * 1000 + i;
                        f.process_packet(&outbound_packet(port, 1.0), Direction::Outbound);
                    }
                });
            }
        });
        // Every response is recognized afterwards.
        for worker in 0..4u16 {
            for i in 0..100u16 {
                let port = 10_000 + worker * 1000 + i;
                let resp = Packet::tcp(
                    Timestamp::from_secs(1.5),
                    out_tuple(port).inverse(),
                    TcpFlags::ACK,
                    &[][..],
                );
                assert_eq!(f.process_packet(&resp, Direction::Inbound), Verdict::Pass);
            }
        }
        let stats = f.stats();
        assert_eq!(stats.outbound_packets, 400);
        assert_eq!(stats.inbound_hits, 400);
    }

    #[test]
    fn concurrent_batches_match_a_sequential_filter() {
        // Workers batch disjoint flows through the keyed path under the
        // bank's lock; a barrier starts them together. Marks land
        // before the responses are batched, so every response passes
        // and the merged counters equal one sequential filter's.
        const WORKERS: u16 = 4;
        let f = handle(4);
        let flows = |worker: u16| (0..100u16).map(move |i| 20_000 + worker * 1000 + i);
        let barrier = std::sync::Barrier::new(WORKERS as usize);
        std::thread::scope(|scope| {
            for worker in 0..WORKERS {
                let (f, barrier) = (f.clone(), &barrier);
                scope.spawn(move || {
                    let marks: Vec<_> = flows(worker)
                        .map(|port| (outbound_packet(port, 1.0), Direction::Outbound))
                        .collect();
                    let responses: Vec<_> = flows(worker)
                        .map(|port| {
                            let tuple = out_tuple(port).inverse();
                            let resp = Packet::tcp(
                                Timestamp::from_secs(1.5),
                                tuple,
                                TcpFlags::ACK,
                                &[][..],
                            );
                            (resp, Direction::Inbound)
                        })
                        .collect();
                    barrier.wait();
                    let mut verdicts = Vec::new();
                    for chunk in marks.chunks(16).chain(responses.chunks(16)) {
                        f.process_batch(chunk, &mut verdicts);
                    }
                    assert!(verdicts.iter().all(|v| *v == Verdict::Pass));
                });
            }
        });
        let mut seq = BitmapFilter::new(BitmapFilterConfig::paper_evaluation());
        for worker in 0..WORKERS {
            for port in flows(worker) {
                seq.process_packet(&outbound_packet(port, 1.0), Direction::Outbound);
            }
        }
        for worker in 0..WORKERS {
            for port in flows(worker) {
                let resp = Packet::tcp(
                    Timestamp::from_secs(1.5),
                    out_tuple(port).inverse(),
                    TcpFlags::ACK,
                    &[][..],
                );
                assert_eq!(seq.process_packet(&resp, Direction::Inbound), Verdict::Pass);
            }
        }
        assert_eq!(f.stats(), seq.stats());
    }

    #[test]
    fn timer_thread_pattern_rotates_all_shards() {
        let f = handle(3);
        let ticker = f.clone();
        let t = std::thread::spawn(move || {
            ticker.advance(Timestamp::from_secs(17.0));
        });
        t.join().unwrap();
        // Every shard rotated 3 times (5, 10, 15 s) → max-merge is 3.
        assert_eq!(f.stats().rotations, 3);
        for i in 0..3 {
            assert_eq!(f.with_shard(i, |s| s.stats().rotations).unwrap(), 3);
        }
    }

    #[test]
    fn with_shard_gives_exclusive_access() {
        let f = handle(2);
        let bytes = f.with_shard(0, |s| s.memory_bytes()).unwrap();
        assert_eq!(bytes, 512 * 1024);
        assert_eq!(f.memory_bytes(), 2 * 512 * 1024);
    }

    #[test]
    fn shared_uplink_drives_global_drop_probability() {
        use crate::DropPolicy;
        let config = BitmapFilterConfig::builder()
            .drop_policy(DropPolicy::new(1_000.0, 10_000.0).unwrap())
            .build()
            .unwrap();
        let f = sharded(config, 4);
        // Spread outbound load across many flows → many shards. Each
        // shard alone would sit below H, but the aggregate saturates.
        for port in 0..200u16 {
            let pkt = Packet::tcp(
                Timestamp::from_secs(1.0),
                out_tuple(10_000 + port),
                TcpFlags::ACK,
                vec![0u8; 1000],
            );
            f.process_packet(&pkt, Direction::Outbound);
        }
        let now = Timestamp::from_secs(2.0);
        assert!(
            f.drop_probability(now) > 0.99,
            "aggregate rate must saturate the policy"
        );
        // And every shard reports the identical global value.
        for i in 0..4 {
            let p = f.with_shard(i, |s| s.drop_probability(now)).unwrap();
            assert!((p - f.drop_probability(now)).abs() < 1e-12);
        }
    }

    #[test]
    fn overrides_reach_every_shard_and_the_bank_p_d() {
        use crate::DropPolicy;
        let config = BitmapFilterConfig::builder()
            .drop_policy(DropPolicy::new(1_000.0, 1e12).unwrap())
            .build()
            .unwrap();
        let uplink = Arc::new(config.uplink_monitor());
        let shards = (0..4)
            .map(|_| BitmapFilter::new(config.clone()).with_shared_uplink(Arc::clone(&uplink)))
            .collect();
        let banks = [
            ("builder", sharded(config.clone(), 4)),
            (
                "from_shards",
                ShardedFilter::from_shards(FlowHash::new(config.hole_punching()), uplink, shards),
            ),
        ];
        for (label, f) in banks {
            for port in 0..200u16 {
                let pkt = Packet::tcp(
                    Timestamp::from_secs(1.0),
                    out_tuple(10_000 + port),
                    TcpFlags::ACK,
                    vec![0u8; 1000],
                );
                f.process_packet(&pkt, Direction::Outbound);
            }
            let now = Timestamp::from_secs(2.0);
            let rate = f.uplink().rate_bps(now);
            let policy = DropPolicy::new(rate / 2.0, rate * 2.0).unwrap();
            let expected = policy.drop_probability(rate);
            assert!(expected > 0.0 && expected < 1.0, "{label}: {expected}");
            assert!(
                (f.drop_probability(now) - expected).abs() > 0.1,
                "{label}: the configured curve already gives {expected}"
            );
            f.apply_overrides(&RuntimeOverrides {
                drop_policy: Some(policy),
                ..RuntimeOverrides::default()
            });
            assert_eq!(f.drop_probability(now), expected, "{label}");
            for i in 0..4 {
                let p = f.with_shard(i, |s| s.drop_probability(now)).unwrap();
                assert_eq!(p, expected, "{label}: shard {i}");
            }
        }
    }

    #[test]
    fn merged_stats_equal_sequential_filter() {
        let config = BitmapFilterConfig::paper_evaluation();
        let mut seq = BitmapFilter::new(config.clone());
        let sharded = handle(4);
        let mut packets = Vec::new();
        for i in 0..300u16 {
            packets.push((
                outbound_packet(1024 + i, 0.5 + i as f64 * 0.01),
                Direction::Outbound,
            ));
        }
        for i in 0..300u16 {
            let tuple = out_tuple(1024 + i).inverse();
            packets.push((
                Packet::tcp(
                    Timestamp::from_secs(4.0 + i as f64 * 0.01),
                    tuple,
                    TcpFlags::ACK,
                    &[][..],
                ),
                Direction::Inbound,
            ));
        }
        let mut seq_verdicts = Vec::new();
        let mut sharded_verdicts = Vec::new();
        for (pkt, dir) in &packets {
            seq_verdicts.push(seq.process_packet(pkt, *dir));
            sharded_verdicts.push(sharded.process_packet(pkt, *dir));
        }
        assert_eq!(seq_verdicts, sharded_verdicts);
        let last = packets.last().unwrap().0.ts();
        seq.advance(last);
        sharded.advance(last);
        let merged: FilterStats = sharded.stats();
        assert_eq!(merged, seq.stats());
    }

    #[test]
    fn ticks_follow_the_merged_rotations_without_a_lock() {
        let sharded = handle(4);
        let ticks = |f: &ShardedFilter| PacketFilter::ticks(f);
        assert_eq!(ticks(&sharded), 0);
        // Paper timing rotates every 5 s; 40 s of outbound packets
        // rotate the shards that see them.
        let packets: Vec<_> = (0..400u16)
            .map(|i| {
                (
                    outbound_packet(1024 + i, i as f64 * 0.1),
                    Direction::Outbound,
                )
            })
            .collect();
        let mut verdicts = Vec::new();
        for batch in packets.chunks(64) {
            sharded.process_batch(batch, &mut verdicts);
            assert_eq!(ticks(&sharded), sharded.stats().rotations);
        }
        assert!(ticks(&sharded) > 0);
        sharded.advance(Timestamp::from_secs(100.0));
        assert_eq!(ticks(&sharded), sharded.stats().rotations);
    }

    #[test]
    fn watermark_keeps_nonmonotonic_verdicts_sequential() {
        let config = BitmapFilterConfig::paper_evaluation();
        // A trace whose clock jumps backward and forward: outbound marks
        // and inbound lookups interleaved in a scrambled time order,
        // plus one far-future outlier mid-stream.
        let mut packets = Vec::new();
        for i in 0..120u16 {
            let t = ((i as u64 * 37) % 29) as f64 + (i as f64) * 0.001;
            packets.push((outbound_packet(2000 + i, t), Direction::Outbound));
            let tuple = out_tuple(2000 + i).inverse();
            let t_in = ((i as u64 * 53) % 31) as f64 + 0.4;
            packets.push((
                Packet::tcp(Timestamp::from_secs(t_in), tuple, TcpFlags::ACK, &[][..]),
                Direction::Inbound,
            ));
            if i == 60 {
                packets.push((outbound_packet(9999, 5_000.0), Direction::Outbound));
            }
        }
        for shards in [1usize, 4] {
            let mut seq = BitmapFilter::new(config.clone());
            let sharded = sharded(config.clone(), shards);
            let mut watermark = Timestamp::ZERO;
            for (i, (pkt, dir)) in packets.iter().enumerate() {
                watermark = watermark.max(pkt.ts());
                let a = seq.process_packet(pkt, *dir);
                let b = sharded.process_packet_at(pkt, *dir, watermark);
                assert_eq!(a, b, "verdict diverged at packet {i} with {shards} shards");
            }
        }
    }

    #[test]
    fn process_batch_matches_sequential_on_nonmonotonic_trace() {
        let config = BitmapFilterConfig::paper_evaluation();
        let mut packets = Vec::new();
        for i in 0..120u16 {
            let t = ((i as u64 * 37) % 29) as f64 + (i as f64) * 0.001;
            packets.push((outbound_packet(2000 + i, t), Direction::Outbound));
            let tuple = out_tuple(2000 + i).inverse();
            let t_in = ((i as u64 * 53) % 31) as f64 + 0.4;
            packets.push((
                Packet::tcp(Timestamp::from_secs(t_in), tuple, TcpFlags::ACK, &[][..]),
                Direction::Inbound,
            ));
            if i == 60 {
                packets.push((outbound_packet(9999, 5_000.0), Direction::Outbound));
            }
        }
        let mut seq = BitmapFilter::new(config.clone());
        let mut seq_verdicts = Vec::new();
        seq.decide_batch(&packets, &mut seq_verdicts);
        for shards in [1usize, 4] {
            for batch in [1usize, 7, 64, 4096] {
                let sharded = sharded(config.clone(), shards);
                let mut verdicts = Vec::new();
                for chunk in packets.chunks(batch) {
                    sharded.process_batch(chunk, &mut verdicts);
                }
                assert_eq!(
                    verdicts, seq_verdicts,
                    "batch size {batch} with {shards} shards diverged"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(64))]

        /// The division-free pick is the remainder, for every shard count
        /// a bank takes in practice, at random flows and both extremes.
        #[test]
        fn shard_pick_is_the_remainder(flows in proptest::collection::vec(
            proptest::strategy::any::<u64>(),
            1..32,
        )) {
            for n in 1..=64usize {
                let pick = ShardPick::new(n);
                for flow in flows.iter().copied().chain([0, 1, u64::MAX, u64::MAX - 1]) {
                    proptest::prop_assert_eq!(pick.of(flow), (flow % n as u64) as usize);
                }
            }
        }
    }

    #[test]
    fn a_panicking_decision_leaves_its_batch_resumable() {
        /// Panics once, while deciding the outbound packet of one
        /// connection.
        struct PanicOn(Option<FiveTuple>);
        impl FilterObserver for PanicOn {
            fn on_outbound(&mut self, tuple: &FiveTuple, _: Timestamp) {
                if self.0 == Some(*tuple) {
                    self.0 = None;
                    panic!("injected decision fault");
                }
            }
        }
        let config = BitmapFilterConfig::paper_evaluation();
        let uplink = Arc::new(config.uplink_monitor());
        let fatal = out_tuple(5000);
        let shards = (0..2)
            .map(|_| {
                BitmapFilter::with_observer(config.clone(), PanicOn(Some(fatal)))
                    .with_shared_uplink(Arc::clone(&uplink))
            })
            .collect();
        let f = ShardedFilter::from_shards(FlowHash::new(config.hole_punching()), uplink, shards);
        let fatal_shard = f.shard_of(&fatal, Direction::Outbound);
        let early = (1024..)
            .map(out_tuple)
            .find(|t| f.shard_of(t, Direction::Outbound) != fatal_shard)
            .unwrap();
        let packet = |tuple: FiveTuple, t: f64| {
            Packet::tcp(Timestamp::from_secs(t), tuple, TcpFlags::ACK, &[][..])
        };

        // The fatal packet jumps the clock 100 s ahead; `early`'s shard
        // sees none of that batch after its mark.
        let batch = [
            (packet(early, 0.5), Direction::Outbound),
            (packet(out_tuple(6000).inverse(), 0.8), Direction::Inbound),
            (packet(fatal, 100.0), Direction::Outbound),
            (packet(out_tuple(7000), 100.5), Direction::Outbound),
        ];
        let mut verdicts = Vec::new();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            f.process_batch(&batch, &mut verdicts)
        }));
        assert!(unwound.is_err());
        assert_eq!(verdicts, [Verdict::Pass, Verdict::Drop]);
        let seen = PacketFilter::ticks(&f);
        let rotations = f.with_shard(fatal_shard, |s| s.ticks()).unwrap();
        assert_eq!(seen, rotations);
        assert_eq!(seen, 20, "100 s of 5 s rotations");

        // `early`'s reply is older than the fatal packet, yet decided at
        // its time: the mark has expired. A fresh connection marks and
        // passes as usual.
        let fresh = out_tuple(8000);
        let next = [
            (packet(early.inverse(), 1.0), Direction::Inbound),
            (packet(fresh, 1.1), Direction::Outbound),
            (packet(fresh.inverse(), 1.2), Direction::Inbound),
        ];
        verdicts.clear();
        f.process_batch(&next, &mut verdicts);
        assert_eq!(verdicts, [Verdict::Drop, Verdict::Pass, Verdict::Pass]);
        assert_eq!(f.stats().rotations, 20);
    }

    #[test]
    fn process_batch_appends_after_existing_verdicts() {
        let f = handle(2);
        let mut verdicts = vec![Verdict::Drop];
        let packets = vec![(outbound_packet(4000, 1.0), Direction::Outbound)];
        f.process_batch(&packets, &mut verdicts);
        assert_eq!(verdicts, vec![Verdict::Drop, Verdict::Pass]);
    }

    #[test]
    fn zero_shards_is_a_config_error() {
        let err = ShardedFilter::builder(BitmapFilterConfig::paper_evaluation())
            .shards(0)
            .build()
            .unwrap_err();
        assert_eq!(err, crate::ConfigError::ZeroShards);
        assert!(err.to_string().contains("shard"));
    }

    #[test]
    fn shard_accessors_report_out_of_range() {
        let f = handle(2);
        let err = f.with_shard(2, |s| s.memory_bytes()).unwrap_err();
        assert_eq!(
            err,
            ShardIndexError {
                index: 2,
                shards: 2
            }
        );
        assert!(err.to_string().contains("out of range"));
        let fresh = BitmapFilter::new(BitmapFilterConfig::paper_evaluation());
        assert!(f.replace_shard(9, fresh).is_err());
    }

    #[test]
    fn sharded_checkpoint_roundtrips_verdicts_and_stats() {
        let config = BitmapFilterConfig::paper_evaluation();
        let original = sharded(config.clone(), 4);
        for i in 0..200u16 {
            original.process_packet(
                &outbound_packet(1024 + i, 0.5 + i as f64 * 0.01),
                Direction::Outbound,
            );
        }
        let watermark = Timestamp::from_secs(3.0);
        original.advance(watermark);
        let bytes = original.snapshot_bytes(watermark);

        let mut restored = sharded(config.clone(), 4);
        let outcome = restored
            .restore_bytes(&bytes, watermark, config.expiry_timer())
            .unwrap();
        assert_eq!(outcome, RestoreOutcome::Warm);
        assert_eq!(restored.stats(), original.stats());
        // Identical verdicts on a mixed probe stream.
        for i in 0..200u16 {
            let tuple = out_tuple(1024 + i).inverse();
            let pkt = Packet::tcp(
                Timestamp::from_secs(4.0 + i as f64 * 0.01),
                tuple,
                TcpFlags::ACK,
                &[][..],
            );
            assert_eq!(
                original.process_packet(&pkt, Direction::Inbound),
                restored.process_packet(&pkt, Direction::Inbound),
                "diverged at probe {i}"
            );
        }
        assert_eq!(restored.stats(), original.stats());
    }

    #[test]
    fn sharded_restore_rejects_shard_count_mismatch() {
        let config = BitmapFilterConfig::paper_evaluation();
        let bytes = sharded(config.clone(), 4).snapshot_bytes(Timestamp::ZERO);
        let mut other = sharded(config.clone(), 2);
        assert!(matches!(
            other.restore_bytes(&bytes, Timestamp::ZERO, config.expiry_timer()),
            Err(SnapshotError::ConfigMismatch("shard count"))
        ));
    }

    #[test]
    fn sharded_restore_rejects_single_filter_snapshot() {
        let config = BitmapFilterConfig::paper_evaluation();
        let single = BitmapFilter::new(config.clone()).snapshot_bytes(Timestamp::ZERO);
        let mut sharded = sharded(config.clone(), 2);
        assert!(matches!(
            sharded.restore_bytes(&single, Timestamp::ZERO, config.expiry_timer()),
            Err(SnapshotError::KindMismatch { .. })
        ));
    }

    #[test]
    fn stale_sharded_checkpoint_goes_cold_uniformly() {
        let config = BitmapFilterConfig::builder()
            .fail_mode(crate::FailMode::Open)
            .build()
            .unwrap();
        let original = sharded(config.clone(), 3);
        for i in 0..60u16 {
            original.process_packet(&outbound_packet(1024 + i, 1.0), Direction::Outbound);
        }
        let bytes = original.snapshot_bytes(Timestamp::from_secs(1.0));
        let mut restored = sharded(config.clone(), 3);
        let late = Timestamp::from_secs(500.0);
        let outcome = restored
            .restore_bytes(&bytes, late, config.expiry_timer())
            .unwrap();
        assert_eq!(outcome, RestoreOutcome::Cold);
        // Stats survived, bitmap memory did not, and every shard arms at
        // the same uniform instant.
        assert_eq!(restored.stats().outbound_packets, 60);
        let expect_arm = late + config.expiry_timer();
        for i in 0..3 {
            assert_eq!(
                restored.with_shard(i, |s| s.armed_at()).unwrap(),
                Some(expect_arm)
            );
            assert_eq!(
                restored
                    .with_shard(i, |s| s.bitmap().utilization())
                    .unwrap(),
                0.0
            );
        }
    }

    #[test]
    fn checkpoint_file_roundtrip_is_atomic() {
        let dir = std::env::temp_dir().join(format!("upbound-shard-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("filter.snap");
        let config = BitmapFilterConfig::paper_evaluation();
        let original = sharded(config.clone(), 2);
        original.process_packet(&outbound_packet(2000, 1.0), Direction::Outbound);
        let watermark = Timestamp::from_secs(1.0);
        snapshot::write_atomic(&path, &original.snapshot_bytes(watermark)).unwrap();
        assert!(!dir.join("filter.snap.tmp").exists());
        let mut restored = sharded(config.clone(), 2);
        let bytes = snapshot::read_file(&path).unwrap();
        assert_eq!(
            restored
                .restore_bytes(&bytes, watermark, config.expiry_timer())
                .unwrap(),
            RestoreOutcome::Warm
        );
        assert_eq!(restored.stats(), original.stats());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replace_shard_installs_fresh_state() {
        let f = handle(3);
        for i in 0..120u16 {
            f.process_packet(&outbound_packet(1024 + i, 1.0), Direction::Outbound);
        }
        let victim = f.shard_of(&out_tuple(1030), Direction::Outbound);
        let fresh = BitmapFilter::new(BitmapFilterConfig::paper_evaluation())
            .with_shared_uplink(Arc::clone(f.uplink()));
        f.replace_shard(victim, fresh).unwrap();
        assert_eq!(
            f.with_shard(victim, |s| s.stats()).unwrap(),
            FilterStats::default()
        );
        // The replaced shard forgot its marks; other shards kept theirs.
        let resp = Packet::tcp(
            Timestamp::from_secs(1.5),
            out_tuple(1030).inverse(),
            TcpFlags::ACK,
            &[][..],
        );
        assert_eq!(f.process_packet(&resp, Direction::Inbound), Verdict::Drop);
        let survivor = (0..120u16)
            .map(|i| out_tuple(1024 + i))
            .find(|t| f.shard_of(t, Direction::Outbound) != victim)
            .unwrap();
        let resp = Packet::tcp(
            Timestamp::from_secs(1.5),
            survivor.inverse(),
            TcpFlags::ACK,
            &[][..],
        );
        assert_eq!(f.process_packet(&resp, Direction::Inbound), Verdict::Pass);
    }
}
