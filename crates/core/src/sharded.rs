//! Flow-hash sharding: the deployment surface shared between threads.
//!
//! The paper's filter does O(1) work per packet, but a single filter
//! behind a single lock serializes every packet and caps throughput at
//! one core. [`ShardedFilter`] partitions the five-tuple space by a
//! direction-symmetric [`FlowHash`] across N shards, each behind its
//! own lock. A shard decides through `&mut` under its write guard, so
//! its bitmap, counters and clocks are plain loads and stores; a batch
//! takes every guard once, so concurrent batches serialize on the whole
//! bank; only per-packet callers on different shards run in parallel.
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
    self, ByteReader, ByteWriter, RestoreMode, RestoreOutcome, SnapshotError, Snapshottable,
    SHARDED_KIND_FLAG,
};
use crate::{
    BitmapFilter, BitmapFilterConfig, ConfigError, DropPolicy, OverloadPolicy, ThroughputMonitor,
    Verdict,
};
use parking_lot::RwLock;
use std::fmt;
use std::ops::DerefMut;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use upbound_net::{Direction, FiveTuple, Packet, TimeDelta, Timestamp};

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

struct Inner<F> {
    shards: Vec<RwLock<F>>,
    flow: FlowHash,
    uplink: Arc<ThroughputMonitor>,
    /// The RED curve every shard applies, cached here so telemetry reads
    /// of the global `P_d` derive it straight from the aggregate uplink
    /// monitor without touching any shard lock. `None` for
    /// [`ShardedFilter::from_shards`] assemblies, whose shards' policies
    /// the container cannot see — those fall back to asking shard 0.
    /// Behind its own lock (never a shard lock) so runtime
    /// reconfiguration can swap the curve through a shared handle.
    drop_policy: RwLock<Option<DropPolicy>>,
    name: String,
    /// Running-max timestamp (in microseconds) over every packet this
    /// handle has batched, persisted across [`ShardedFilter::process_batch`]
    /// calls so a shard that received no packets in a high-timestamp
    /// batch still advances to the sequential clock on its next packet.
    watermark: AtomicU64,
    /// The largest shard [`PacketFilter::ticks`] at the end of the last
    /// call that held every shard (see [`ShardedFilter::ticks_seen`]),
    /// read there through the guards the call already holds.
    ticks: AtomicU64,
}

impl<F: PacketFilter> Inner<F> {
    /// Stores the largest of `shards`' tick counts for
    /// [`ShardedFilter::ticks_seen`].
    fn note_ticks<'g>(&self, shards: impl Iterator<Item = &'g F>)
    where
        F: 'g,
    {
        let ticks = shards.map(F::ticks).max().unwrap_or(0);
        self.ticks.store(ticks, Ordering::Relaxed);
    }
}

/// N independently locked filter shards jointly bounding one client
/// network — the replacement for the old single-lock shared filter,
/// which survives as the `N = 1` degenerate case.
///
/// The handle is `Clone + Send + Sync`; clones share the same shards, so
/// one handle per worker thread is the intended deployment shape.
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
            .field("shards", &self.inner.shards.len())
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
    /// [`BitmapFilter::apply_overrides`]) and to the cached telemetry
    /// `P_d` curve, through a shared handle.
    ///
    /// Shards are updated one at a time under their write locks, so a
    /// concurrent decider can observe shard `i` on the new curve while
    /// shard `j` is still on the old one for the duration of this call.
    /// The dataplane avoids even that window by applying overrides
    /// between batches at a rotation boundary, when no decider is
    /// in flight.
    pub fn apply_overrides(&self, overrides: &RuntimeOverrides) {
        if let Some(policy) = overrides.drop_policy {
            let mut cached = self.inner.drop_policy.write();
            // from_shards assemblies keep `None`: the container still
            // cannot vouch for shard construction, but each shard now
            // carries the override, so the shard-0 fallback stays right.
            if cached.is_some() {
                *cached = Some(policy);
            }
        }
        for shard in &self.inner.shards {
            shard.write().apply_overrides(overrides);
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
    /// Sets the number of independently locked shards.
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
        Ok(ShardedFilter::assemble(
            flow,
            uplink,
            Some(self.config.drop_policy()),
            filters,
        ))
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
        Self::assemble(flow, uplink, None, filters)
    }

    fn assemble(
        flow: FlowHash,
        uplink: Arc<ThroughputMonitor>,
        drop_policy: Option<DropPolicy>,
        filters: Vec<F>,
    ) -> Self {
        assert!(!filters.is_empty(), "need at least one shard");
        let name = format!("sharded-{}x{}", filters[0].name(), filters.len());
        Self {
            inner: Arc::new(Inner {
                shards: filters.into_iter().map(RwLock::new).collect(),
                flow,
                uplink,
                drop_policy: RwLock::new(drop_policy),
                name,
                watermark: AtomicU64::new(0),
                ticks: AtomicU64::new(0),
            }),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
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
        (self.inner.flow.key(tuple, direction) % self.inner.shards.len() as u64) as usize
    }

    /// Runs the full per-packet pipeline on the packet's shard, under
    /// that shard's write guard.
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
        let mut guard = self.inner.shards[self.shard_index(&key)].write();
        guard.advance(watermark);
        guard.decide_keyed(&key, packet, direction)
    }

    /// The shard a hashed key belongs to.
    #[inline]
    fn shard_index(&self, key: &HashedKey) -> usize {
        (key.flow() % self.inner.shards.len() as u64) as usize
    }

    /// Runs the full per-packet pipeline on a batch of packets,
    /// appending one verdict per packet to `verdicts` in input order.
    ///
    /// Every shard's write guard is taken **once per batch** — up front,
    /// in shard-index order (the fixed hierarchy all multi-lock paths
    /// share, so concurrent batches cannot deadlock) — and the batch is
    /// then decided strictly in input order through `&mut`, so
    /// concurrent batches serialize. The amortized lock/dispatch cost
    /// keeps verdicts byte-identical to feeding the same stream through
    /// a sequential filter one packet at a time:
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
        let flow = self.inner.flow;
        let mut batch = BatchEnd {
            inner: &self.inner,
            guards: self
                .inner
                .shards
                .iter()
                .map(|shard| shard.write())
                .collect(),
            micros: self.inner.watermark.load(Ordering::Relaxed),
        };
        for (packet, direction) in packets {
            let now = batch.witness(packet);
            let key = flow.hashed(packet, *direction);
            let guard = &mut batch.guards[self.shard_index(&key)];
            guard.advance(now);
            verdicts.push(guard.decide_keyed(&key, packet, *direction));
        }
    }

    /// Applies every timer event due at or before `now` on **all**
    /// shards, bringing them to a common tick phase (e.g. before reading
    /// [`stats`](Self::stats) at a trace boundary).
    pub fn advance(&self, now: Timestamp) {
        let mut ticks = 0;
        for shard in &self.inner.shards {
            let mut guard = shard.write();
            guard.advance(now);
            ticks = ticks.max(guard.ticks());
        }
        self.inner.ticks.store(ticks, Ordering::Relaxed);
    }

    /// The largest shard tick count (bitmap rotations) at the end of the
    /// last call that held every shard — [`process_batch`](Self::process_batch),
    /// [`advance`](Self::advance), [`checkpoint_bytes`](Self::checkpoint_bytes)
    /// or [`restore_bytes`](Self::restore_bytes) — read without a lock.
    /// A caller that owns the batching thread polls it between batches
    /// instead of merging [`stats`](Self::stats); ticks done through
    /// other methods show at the next such call.
    pub fn ticks_seen(&self) -> u64 {
        self.inner.ticks.load(Ordering::Relaxed)
    }

    /// Merged statistics across all shards (see [`MergeStats::merge`]
    /// for the fold semantics).
    pub fn stats(&self) -> F::Stats {
        let mut merged = F::Stats::default();
        for shard in &self.inner.shards {
            merged.merge(&shard.read().stats());
        }
        merged
    }

    /// Total memory of all shards' filter state in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.read().memory_bytes())
            .sum()
    }

    /// The drop probability derived from the shared aggregate uplink
    /// rate — identical for every shard by construction.
    ///
    /// Builder-assembled filters cache the RED curve and apply it to the
    /// shared monitor directly, so this telemetry read touches no shard
    /// lock, and reads the monitor only when the curve can depend on
    /// it ([`DropPolicy::drop_probability_lazy`]);
    /// [`from_shards`](Self::from_shards) assemblies (whose policies the
    /// container cannot see) fall back to asking shard 0.
    pub fn drop_probability(&self, now: Timestamp) -> f64 {
        match *self.inner.drop_policy.read() {
            Some(policy) => policy.drop_probability_lazy(|| self.inner.uplink.rate_bps(now)),
            None => self.inner.shards[0].read().drop_probability(now),
        }
    }

    /// Runs `f` with exclusive access to shard `index`.
    ///
    /// # Errors
    ///
    /// Returns [`ShardIndexError`] when `index >= self.shards()`.
    pub fn with_shard<R>(
        &self,
        index: usize,
        f: impl FnOnce(&mut F) -> R,
    ) -> Result<R, ShardIndexError> {
        let shard = self.inner.shards.get(index).ok_or(ShardIndexError {
            index,
            shards: self.inner.shards.len(),
        })?;
        Ok(f(&mut shard.write()))
    }

    /// Swaps shard `index` for `filter`, discarding the old shard state.
    ///
    /// This is the supervisor's quarantine-and-rebuild primitive: when a
    /// shard worker panics mid-decision the shard's internal state is
    /// suspect (parking_lot mutexes do not poison), so the supervisor
    /// installs a fresh, empty replacement — typically one anchored with
    /// [`Snapshottable::start_cold_at`] so it fails open through its own
    /// warm-up while the other shards keep filtering.
    ///
    /// # Errors
    ///
    /// Returns [`ShardIndexError`] when `index >= self.shards()`.
    pub fn replace_shard(&self, index: usize, filter: F) -> Result<(), ShardIndexError> {
        let shard = self.inner.shards.get(index).ok_or(ShardIndexError {
            index,
            shards: self.inner.shards.len(),
        })?;
        *shard.write() = filter;
        Ok(())
    }

    /// A short display name for reports.
    pub fn name(&self) -> &str {
        &self.inner.name
    }
}

impl<F: PacketFilter + Send + Sync + Snapshottable> ShardedFilter<F> {
    /// The container kind a sharded checkpoint of this filter type uses:
    /// the shard kind with [`SHARDED_KIND_FLAG`] set.
    pub fn snapshot_kind() -> u32 {
        F::SNAPSHOT_KIND | SHARDED_KIND_FLAG
    }

    /// Serializes every shard into one container valid at trace time
    /// `watermark`.
    ///
    /// All shard locks are held simultaneously while encoding, and each
    /// shard is first advanced to `watermark`, so the checkpoint is a
    /// *consistent cut*: every shard's timer phase and bitmap state
    /// correspond to the same instant, exactly as a sequential filter
    /// would have been at `watermark`.
    pub fn checkpoint_bytes(&self, watermark: Timestamp) -> Vec<u8> {
        let mut guards: Vec<_> = self.inner.shards.iter().map(|s| s.write()).collect();
        let mut w = ByteWriter::new();
        w.put_u32(guards.len() as u32);
        for guard in &mut guards {
            guard.advance(watermark);
            let mut shard_w = ByteWriter::new();
            guard.encode_snapshot(&mut shard_w);
            let bytes = shard_w.into_bytes();
            w.put_u64(bytes.len() as u64);
            w.put_slice(&bytes);
        }
        self.inner.note_ticks(guards.iter().map(|g| &**g));
        snapshot::encode_container(Self::snapshot_kind(), watermark, w.as_slice())
    }

    /// Writes a [`checkpoint_bytes`](Self::checkpoint_bytes) image to
    /// `path` atomically (temp file + fsync + rename).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures as [`SnapshotError::Io`].
    pub fn checkpoint_to(&self, path: &Path, watermark: Timestamp) -> Result<(), SnapshotError> {
        snapshot::write_atomic(path, &self.checkpoint_bytes(watermark))
    }

    /// Validates `bytes` and restores every shard from it, holding all
    /// shard locks for the duration. A snapshot whose watermark is more
    /// than `stale_after` behind `now` restores statistics only and
    /// restarts every shard cold at `now` (returning
    /// [`RestoreOutcome::Cold`]).
    ///
    /// # Errors
    ///
    /// Container defects, kind mismatches, shard-count mismatches, and
    /// per-shard configuration mismatches map to the corresponding
    /// [`SnapshotError`]. On error some shards may already hold restored
    /// state; callers should treat the filter as unusable and either
    /// retry with a good snapshot or [`start_cold_at`](Self::start_cold_at).
    pub fn restore_bytes(
        &self,
        bytes: &[u8],
        now: Timestamp,
        stale_after: TimeDelta,
    ) -> Result<RestoreOutcome, SnapshotError> {
        let view = snapshot::decode_container(bytes)?;
        if view.kind != Self::snapshot_kind() {
            return Err(SnapshotError::KindMismatch {
                expected: Self::snapshot_kind(),
                found: view.kind,
            });
        }
        let mut r = ByteReader::new(view.payload);
        if r.u32()? as usize != self.inner.shards.len() {
            return Err(SnapshotError::ConfigMismatch("shard count"));
        }
        let stale = now.saturating_since(view.watermark) > stale_after;
        let mode = if stale {
            RestoreMode::StatsOnly
        } else {
            RestoreMode::Full
        };
        let mut guards: Vec<_> = self.inner.shards.iter().map(|s| s.write()).collect();
        for guard in guards.iter_mut() {
            let len = r.u64()? as usize;
            let payload = r.take(len)?;
            let mut shard_r = ByteReader::new(payload);
            guard.restore_snapshot(&mut shard_r, mode)?;
            if !shard_r.is_empty() {
                return Err(SnapshotError::Malformed("shard payload has trailing bytes"));
            }
        }
        if !r.is_empty() {
            return Err(SnapshotError::Malformed("payload has trailing bytes"));
        }
        self.inner.note_ticks(guards.iter().map(|g| &**g));
        if stale {
            for guard in guards.iter_mut() {
                guard.start_cold_at(now);
            }
            Ok(RestoreOutcome::Cold)
        } else {
            Ok(RestoreOutcome::Warm)
        }
    }

    /// Reads and restores a checkpoint file written by
    /// [`checkpoint_to`](Self::checkpoint_to).
    ///
    /// # Errors
    ///
    /// See [`restore_bytes`](Self::restore_bytes); file reads fail as
    /// [`SnapshotError::Io`].
    pub fn restore_from(
        &self,
        path: &Path,
        now: Timestamp,
        stale_after: TimeDelta,
    ) -> Result<RestoreOutcome, SnapshotError> {
        self.restore_bytes(&snapshot::read_file(path)?, now, stale_after)
    }

    /// Restarts every shard cold with its warm-up clock anchored at
    /// `epoch` — the uniform anchor that keeps sharded fail-open
    /// verdicts identical to a sequential filter's.
    pub fn start_cold_at(&self, epoch: Timestamp) {
        for shard in &self.inner.shards {
            shard.write().start_cold_at(epoch);
        }
    }
}

/// One [`ShardedFilter::process_batch`] call's shard guards and running
/// watermark. When the call ends — on return or while unwinding out of a
/// panicking decision — the watermark is stored back into the handle and
/// the largest shard tick count is read through the guards still held.
struct BatchEnd<'a, F: PacketFilter, G: DerefMut<Target = F>> {
    inner: &'a Inner<F>,
    guards: Vec<G>,
    micros: u64,
}

impl<F: PacketFilter, G: DerefMut<Target = F>> BatchEnd<'_, F, G> {
    /// Advances the watermark over `packet`; returns it.
    #[inline]
    fn witness(&mut self, packet: &Packet) -> Timestamp {
        self.micros = self.micros.max(packet.ts().as_micros());
        Timestamp::from_micros(self.micros)
    }
}

impl<F: PacketFilter, G: DerefMut<Target = F>> Drop for BatchEnd<'_, F, G> {
    fn drop(&mut self) {
        let inner = self.inner;
        inner.watermark.fetch_max(self.micros, Ordering::Relaxed);
        inner.note_ticks(self.guards.iter().map(|g| &**g));
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

    fn ticks(&self) -> u64 {
        let shards = self.inner.shards.iter();
        shards.map(|s| s.read().ticks()).max().unwrap_or(0)
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
        // shard write guards; a barrier starts them together. Marks land
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
    fn ticks_seen_follows_the_merged_rotations_without_a_lock() {
        let sharded = handle(4);
        assert_eq!(sharded.ticks_seen(), 0);
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
            assert_eq!(sharded.ticks_seen(), sharded.stats().rotations);
        }
        assert!(sharded.ticks_seen() > 0);
        sharded.advance(Timestamp::from_secs(100.0));
        assert_eq!(sharded.ticks_seen(), sharded.stats().rotations);
        assert_eq!(PacketFilter::ticks(&sharded), sharded.stats().rotations);
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
        let bytes = original.checkpoint_bytes(watermark);

        let restored = sharded(config.clone(), 4);
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
        let bytes = sharded(config.clone(), 4).checkpoint_bytes(Timestamp::ZERO);
        let other = sharded(config.clone(), 2);
        assert!(matches!(
            other.restore_bytes(&bytes, Timestamp::ZERO, config.expiry_timer()),
            Err(SnapshotError::ConfigMismatch("shard count"))
        ));
    }

    #[test]
    fn sharded_restore_rejects_single_filter_snapshot() {
        let config = BitmapFilterConfig::paper_evaluation();
        let single = BitmapFilter::new(config.clone()).snapshot_bytes(Timestamp::ZERO);
        let sharded = sharded(config.clone(), 2);
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
        let bytes = original.checkpoint_bytes(Timestamp::from_secs(1.0));
        let restored = sharded(config.clone(), 3);
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
        original.checkpoint_to(&path, watermark).unwrap();
        assert!(!dir.join("filter.snap.tmp").exists());
        let restored = sharded(config.clone(), 2);
        assert_eq!(
            restored
                .restore_from(&path, watermark, config.expiry_timer())
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
