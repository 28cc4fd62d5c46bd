//! Multi-tenant subscriber engine: longest-prefix-match dispatch, a
//! shared bit-vector arena, per-tenant `P_d` controllers and
//! incremental checkpoints.
//!
//! The paper's Figure 6 installs one bitmap filter per client network.
//! An ISP aggregation point serves thousands of *subscriber* networks,
//! most of them idle at any instant. [`SubscriberTable`] scales the
//! multi-network deployment to that regime:
//!
//! * **LPM dispatch** — a binary trie ([`LpmTrie`]) maps an address to
//!   its subscriber in O(32) regardless of how many prefixes are
//!   provisioned, replacing the linear scan (and the "register
//!   more-specific prefixes first" footgun) of the since-removed
//!   `MultiNetworkFilter`.
//! * **Lazy activation + idle eviction** — a tenant's filter is
//!   materialized on its first packet and its bit storage is recycled
//!   through a shared arena once the tenant has been idle for a full
//!   expiry window, so resident memory is O(active subscribers), not
//!   O(provisioned). Eviction is *verdict-lossless*: after `T_e` of
//!   idleness every mark has expired, so a reactivated tenant behaves
//!   bit-for-bit like one that was never evicted.
//! * **Per-tenant controllers** — every subscriber carries its own
//!   [`ThroughputMonitor`](crate::ThroughputMonitor) and RED-style drop
//!   policy via its own [`BitmapFilterConfig`], so each tenant gets its
//!   own upload bound.
//! * **Incremental checkpoints** — a full snapshot (kind 3) serializes
//!   every tenant; a delta snapshot (kind 4) re-serializes only the
//!   tenants touched since the previous checkpoint, scaling checkpoint
//!   cost to thousands of tenants.

use crate::config::BitmapFilterConfig;
use crate::pfilter::{MergeStats, PacketFilter};
use crate::snapshot::{
    decode_container, encode_container, ByteReader, ByteWriter, RestoreMode, RestoreOutcome,
    SnapshotError, Snapshottable,
};
use crate::{BitmapFilter, FilterStats, Verdict};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;
use upbound_net::{Cidr, Direction, Packet, TimeDelta, Timestamp};
use upbound_telemetry::Registry;

/// Container kind of an incremental (dirty-tenants-only) subscriber
/// checkpoint produced by [`SubscriberTable::delta_bytes`].
pub const SUBSCRIBER_DELTA_KIND: u32 = 4;

const NO_NODE: u32 = u32::MAX;
const NO_VALUE: u32 = u32::MAX;

/// Errors from provisioning a [`SubscriberTable`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SubscriberError {
    /// The exact prefix is already registered to another subscriber.
    DuplicatePrefix(Cidr),
    /// The subscriber id space (`u32`) is exhausted.
    TooManySubscribers,
}

impl fmt::Display for SubscriberError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubscriberError::DuplicatePrefix(c) => {
                write!(f, "prefix {c} is already registered to another subscriber")
            }
            SubscriberError::TooManySubscribers => write!(f, "subscriber id space exhausted"),
        }
    }
}

impl std::error::Error for SubscriberError {}

/// A binary trie over IPv4 prefixes resolving an address to the
/// longest (most specific) registered prefix's value.
///
/// Lookup walks at most 32 nodes, independent of how many prefixes are
/// registered — the property that keeps [`SubscriberTable`] dispatch
/// sub-linear in provisioned tenants.
///
/// # Examples
///
/// ```
/// use upbound_core::LpmTrie;
///
/// let mut trie = LpmTrie::new();
/// trie.insert("10.0.0.0/8".parse()?, 0)?;
/// trie.insert("10.1.0.0/16".parse()?, 1)?;
/// assert_eq!(trie.lookup("10.1.2.3".parse()?), Some(1)); // most specific
/// assert_eq!(trie.lookup("10.9.0.1".parse()?), Some(0));
/// assert_eq!(trie.lookup("192.0.2.1".parse()?), None);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct LpmTrie {
    children: Vec<[u32; 2]>,
    values: Vec<u32>,
    prefixes: usize,
}

impl Default for LpmTrie {
    fn default() -> Self {
        LpmTrie::new()
    }
}

impl LpmTrie {
    /// An empty trie.
    pub fn new() -> Self {
        Self {
            children: vec![[NO_NODE; 2]],
            values: vec![NO_VALUE],
            prefixes: 0,
        }
    }

    /// Number of registered prefixes.
    pub fn len(&self) -> usize {
        self.prefixes
    }

    /// `true` when no prefix is registered.
    pub fn is_empty(&self) -> bool {
        self.prefixes == 0
    }

    /// Registers `prefix → value`. Overlapping prefixes are fine (the
    /// most specific wins at lookup); registering the *same* prefix
    /// twice is an error.
    ///
    /// # Errors
    ///
    /// [`SubscriberError::DuplicatePrefix`] when the exact prefix is
    /// already present; [`SubscriberError::TooManySubscribers`] when
    /// `value` is the reserved sentinel `u32::MAX`.
    pub fn insert(&mut self, prefix: Cidr, value: u32) -> Result<(), SubscriberError> {
        if value == NO_VALUE {
            return Err(SubscriberError::TooManySubscribers);
        }
        let bits = u32::from(prefix.base());
        let mut node = 0usize;
        for depth in 0..prefix.prefix_len() {
            let branch = ((bits >> (31 - depth)) & 1) as usize;
            let next = self.children[node][branch];
            node = if next == NO_NODE {
                let fresh = self.children.len() as u32;
                self.children.push([NO_NODE; 2]);
                self.values.push(NO_VALUE);
                self.children[node][branch] = fresh;
                fresh as usize
            } else {
                next as usize
            };
        }
        if self.values[node] != NO_VALUE {
            return Err(SubscriberError::DuplicatePrefix(prefix));
        }
        self.values[node] = value;
        self.prefixes += 1;
        Ok(())
    }

    /// The value of the longest registered prefix containing `addr`,
    /// if any.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<u32> {
        let bits = u32::from(addr);
        let mut node = 0usize;
        let mut best = self.values[0];
        for depth in 0..32 {
            let branch = ((bits >> (31 - depth)) & 1) as usize;
            let next = self.children[node][branch];
            if next == NO_NODE {
                break;
            }
            node = next as usize;
            if self.values[node] != NO_VALUE {
                best = self.values[node];
            }
        }
        (best != NO_VALUE).then_some(best)
    }
}

/// Pool of zeroed bit-vector word buffers recycled between tenants,
/// keyed by buffer size in words.
#[derive(Debug, Clone, Default)]
struct BitVecArena {
    pools: HashMap<usize, Vec<Vec<u64>>>,
    pooled_bytes: usize,
    reuses: u64,
    fresh_allocations: u64,
}

impl BitVecArena {
    fn take(&mut self, words: usize) -> Vec<u64> {
        if let Some(buf) = self.pools.get_mut(&words).and_then(Vec::pop) {
            self.pooled_bytes -= words * 8;
            self.reuses += 1;
            buf
        } else {
            self.fresh_allocations += 1;
            vec![0; words]
        }
    }

    fn put(&mut self, mut buf: Vec<u64>) {
        if buf.is_empty() {
            return;
        }
        buf.fill(0);
        self.pooled_bytes += buf.len() * 8;
        self.pools.entry(buf.len()).or_default().push(buf);
    }
}

/// Function table for parking/unparking a tenant filter's bit storage
/// through the arena. Present only for filter types that support it
/// (today: [`BitmapFilter`]); tables built from pre-constructed filters
/// run eagerly without eviction.
struct ArenaOps<F> {
    new_parked: fn(BitmapFilterConfig) -> F,
    park: fn(&mut F) -> Vec<Vec<u64>>,
    unpark: fn(&mut F, Vec<Vec<u64>>),
    is_parked: fn(&F) -> bool,
    /// `(buffer count, words per buffer)` of a filter's storage.
    geometry: fn(&F) -> (usize, usize),
}

impl<F> Clone for ArenaOps<F> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<F> Copy for ArenaOps<F> {}

impl<F> fmt::Debug for ArenaOps<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ArenaOps")
    }
}

fn bitmap_arena_ops() -> ArenaOps<BitmapFilter> {
    ArenaOps {
        new_parked: BitmapFilter::new_parked,
        park: |f| f.park_storage(),
        unpark: |f, buffers| f.unpark_storage(buffers),
        is_parked: |f| f.is_parked(),
        geometry: |f| (f.bitmap().k(), f.bitmap().vector_len().div_ceil(64)),
    }
}

/// Lifecycle state of one subscriber's filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubscriberState {
    /// Provisioned but never activated: no filter exists yet.
    Dormant,
    /// Filter exists (configuration, clock, monitor, statistics) but its
    /// bit storage was recycled into the arena after an idle expiry
    /// window.
    Parked,
    /// Filter fully materialized with bit storage attached.
    Active,
}

#[derive(Debug, Clone)]
struct Tenant<F> {
    cidr: Cidr,
    name: String,
    config: Option<BitmapFilterConfig>,
    filter: Option<F>,
    parked: bool,
    last_packet: Option<Timestamp>,
}

#[derive(Debug, Clone, Default)]
struct CheckpointCache {
    dirty: Vec<bool>,
    seq: u64,
    last_encoded: usize,
}

#[derive(Debug, Clone, Default)]
struct BatchScratch {
    tags: Vec<(u32, Direction)>,
    order: Vec<u32>,
    stage: Vec<(Packet, Direction)>,
    idxs: Vec<usize>,
    sub: Vec<Verdict>,
}

/// A multi-tenant bank of per-subscriber packet filters for an ISP
/// aggregation point.
///
/// Packets are classified to a subscriber by longest-prefix match on
/// the source address (outbound leg: mark + measure, always pass) or,
/// failing that, the destination address (inbound leg: look up +
/// RED-drop). Transit traffic touching no subscriber passes untouched —
/// the same semantics as the since-removed `MultiNetworkFilter`, minus
/// its linear scans and registration-order matching.
///
/// # Examples
///
/// ```
/// use upbound_core::{BitmapFilterConfig, SubscriberTable, Verdict};
/// use upbound_net::{FiveTuple, Packet, Protocol, TcpFlags, Timestamp};
///
/// let mut table = SubscriberTable::new();
/// table.add_subscriber("10.1.0.0/16".parse()?, BitmapFilterConfig::paper_evaluation())?;
/// table.add_subscriber("10.2.0.0/16".parse()?, BitmapFilterConfig::paper_evaluation())?;
///
/// // An unsolicited inbound SYN toward subscriber 1 is dropped there.
/// let pkt = Packet::tcp(
///     Timestamp::from_secs(1.0),
///     FiveTuple::new(
///         Protocol::Tcp,
///         "198.51.100.2:4000".parse()?,
///         "10.1.0.9:6881".parse()?,
///     ),
///     TcpFlags::SYN,
///     &[][..],
/// );
/// assert_eq!(table.process_packet(&pkt), Verdict::Drop);
/// // Only the touched subscriber is resident.
/// assert_eq!(table.active_subscribers(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct SubscriberTable<F: PacketFilter = BitmapFilter> {
    trie: LpmTrie,
    tenants: Vec<Tenant<F>>,
    arena: BitVecArena,
    ops: Option<ArenaOps<F>>,
    evict_after: Option<TimeDelta>,
    outbound_drop_anomalies: u64,
    ckpt: RefCell<CheckpointCache>,
    scratch: BatchScratch,
}

impl Default for SubscriberTable<BitmapFilter> {
    fn default() -> Self {
        SubscriberTable::new()
    }
}

impl SubscriberTable<BitmapFilter> {
    /// An empty table with lazy activation and arena-backed eviction
    /// available.
    pub fn new() -> Self {
        Self {
            trie: LpmTrie::new(),
            tenants: Vec::new(),
            arena: BitVecArena::default(),
            ops: Some(bitmap_arena_ops()),
            evict_after: None,
            outbound_drop_anomalies: 0,
            ckpt: RefCell::new(CheckpointCache::default()),
            scratch: BatchScratch::default(),
        }
    }

    /// Provisions a subscriber (dormant — no memory is allocated until
    /// its first packet) named after its prefix.
    ///
    /// # Errors
    ///
    /// See [`SubscriberError`].
    pub fn add_subscriber(
        &mut self,
        cidr: Cidr,
        config: BitmapFilterConfig,
    ) -> Result<usize, SubscriberError> {
        let name = cidr.to_string();
        self.add_named_subscriber(&name, cidr, config)
    }

    /// Provisions a dormant subscriber with an explicit display name
    /// (used as the `subscriber` telemetry label).
    ///
    /// # Errors
    ///
    /// See [`SubscriberError`].
    pub fn add_named_subscriber(
        &mut self,
        name: &str,
        cidr: Cidr,
        config: BitmapFilterConfig,
    ) -> Result<usize, SubscriberError> {
        self.push_tenant(cidr, name.to_string(), Some(config), None)
    }
}

impl<F: PacketFilter> SubscriberTable<F> {
    /// An empty table for pre-constructed filters (installed via
    /// [`add_subscriber_filter`](Self::add_subscriber_filter)). Such a
    /// table dispatches and checkpoints like any other but cannot
    /// lazily activate or evict tenants — every installed filter stays
    /// resident.
    pub fn with_filters() -> Self {
        Self {
            trie: LpmTrie::new(),
            tenants: Vec::new(),
            arena: BitVecArena::default(),
            ops: None,
            evict_after: None,
            outbound_drop_anomalies: 0,
            ckpt: RefCell::new(CheckpointCache::default()),
            scratch: BatchScratch::default(),
        }
    }

    fn push_tenant(
        &mut self,
        cidr: Cidr,
        name: String,
        config: Option<BitmapFilterConfig>,
        filter: Option<F>,
    ) -> Result<usize, SubscriberError> {
        let id =
            u32::try_from(self.tenants.len()).map_err(|_| SubscriberError::TooManySubscribers)?;
        self.trie.insert(cidr, id)?;
        let materialized = filter.is_some();
        self.tenants.push(Tenant {
            cidr,
            name,
            config,
            filter,
            parked: false,
            last_packet: None,
        });
        self.ckpt.get_mut().dirty.push(materialized);
        Ok(id as usize)
    }

    /// Installs a subscriber served by a pre-built filter (eagerly
    /// resident; exempt from arena eviction).
    ///
    /// # Errors
    ///
    /// See [`SubscriberError`].
    pub fn add_subscriber_filter(
        &mut self,
        cidr: Cidr,
        filter: F,
    ) -> Result<usize, SubscriberError> {
        let name = cidr.to_string();
        self.push_tenant(cidr, name, None, Some(filter))
    }

    /// Number of provisioned subscribers.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// `true` when no subscriber is provisioned.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Enables idle-tenant eviction: a tenant whose last packet is at
    /// least `max(after, T_e)` in the past has its bit storage recycled
    /// into the shared arena. The clamp to the tenant's expiry window
    /// `T_e` makes eviction verdict-lossless — by then every mark has
    /// expired, so the evicted (all-zero) storage and a fresh zeroed
    /// buffer are indistinguishable.
    pub fn evict_idle_after(&mut self, after: TimeDelta) -> &mut Self {
        self.evict_after = Some(after);
        self
    }

    /// The subscriber owning `addr` (longest prefix match), if any.
    pub fn subscriber_of(&self, addr: Ipv4Addr) -> Option<usize> {
        self.trie.lookup(addr).map(|id| id as usize)
    }

    /// The prefix of subscriber `id`.
    pub fn subscriber_cidr(&self, id: usize) -> Option<Cidr> {
        self.tenants.get(id).map(|t| t.cidr)
    }

    /// The display name of subscriber `id`.
    pub fn subscriber_name(&self, id: usize) -> Option<&str> {
        self.tenants.get(id).map(|t| t.name.as_str())
    }

    /// The lifecycle state of subscriber `id`'s filter.
    pub fn subscriber_state(&self, id: usize) -> Option<SubscriberState> {
        self.tenants.get(id).map(|t| match (&t.filter, t.parked) {
            (None, _) => SubscriberState::Dormant,
            (Some(_), true) => SubscriberState::Parked,
            (Some(_), false) => SubscriberState::Active,
        })
    }

    /// Statistics of subscriber `id`, if its filter is materialized.
    pub fn subscriber_stats(&self, id: usize) -> Option<F::Stats> {
        self.tenants.get(id)?.filter.as_ref().map(|f| f.stats())
    }

    /// Filter memory of subscriber `id` in bytes (zero while dormant or
    /// parked).
    pub fn subscriber_memory_bytes(&self, id: usize) -> Option<usize> {
        self.tenants
            .get(id)
            .map(|t| t.filter.as_ref().map_or(0, |f| f.memory_bytes()))
    }

    /// The timestamp of subscriber `id`'s most recent packet.
    pub fn subscriber_last_packet(&self, id: usize) -> Option<Timestamp> {
        self.tenants.get(id)?.last_packet
    }

    /// Number of subscribers whose filter is resident (active, with bit
    /// storage attached).
    pub fn active_subscribers(&self) -> usize {
        self.tenants
            .iter()
            .filter(|t| t.filter.is_some() && !t.parked)
            .count()
    }

    /// Bytes currently pooled in the arena awaiting reuse.
    pub fn arena_pooled_bytes(&self) -> usize {
        self.arena.pooled_bytes
    }

    /// `(reuses, fresh allocations)` performed by the arena.
    pub fn arena_counters(&self) -> (u64, u64) {
        (self.arena.reuses, self.arena.fresh_allocations)
    }

    /// Outbound packets for which the tenant filter anomalously voted
    /// `Drop`. The table structurally forces such packets to pass
    /// (outbound traffic is never dropped, per Algorithm 2) and counts
    /// the anomaly here instead of a release-mode-silent debug assert.
    pub fn outbound_drop_anomalies(&self) -> u64 {
        self.outbound_drop_anomalies
    }

    /// A standalone classifier (clone of the dispatch trie) usable from
    /// another thread, e.g. a pipeline ingest stage labeling directions
    /// while the table itself lives with the filter stage.
    pub fn classifier(&self) -> SubscriberClassifier {
        SubscriberClassifier {
            trie: self.trie.clone(),
        }
    }

    fn note_activity(&mut self, id: usize, now: Timestamp) {
        let t = &mut self.tenants[id];
        t.last_packet = Some(match t.last_packet {
            Some(prev) if prev.as_micros() > now.as_micros() => prev,
            _ => now,
        });
        self.ckpt.get_mut().dirty[id] = true;
    }

    /// Materializes and/or re-attaches storage to tenant `id` so its
    /// filter can decide packets.
    fn ensure_active(&mut self, id: usize) {
        if self.tenants[id].filter.is_none() {
            let Some(ops) = self.ops else {
                unreachable!("dormant tenant in a table without arena ops")
            };
            let Some(config) = self.tenants[id].config.clone() else {
                unreachable!("dormant tenant without a configuration")
            };
            self.tenants[id].filter = Some((ops.new_parked)(config));
            self.tenants[id].parked = true;
        }
        if self.tenants[id].parked {
            let Some(ops) = self.ops else {
                unreachable!("parked tenant in a table without arena ops")
            };
            let (k, words) = match self.tenants[id].filter.as_ref() {
                Some(f) => (ops.geometry)(f),
                None => unreachable!("tenant materialized above"),
            };
            let buffers: Vec<Vec<u64>> = (0..k).map(|_| self.arena.take(words)).collect();
            match self.tenants[id].filter.as_mut() {
                Some(f) => (ops.unpark)(f, buffers),
                None => unreachable!("tenant materialized above"),
            }
            self.tenants[id].parked = false;
            self.ckpt.get_mut().dirty[id] = true;
        }
    }

    fn decide_leg(&mut self, id: usize, packet: &Packet, direction: Direction) -> Verdict {
        self.ensure_active(id);
        self.note_activity(id, packet.ts());
        let Some(filter) = self.tenants[id].filter.as_mut() else {
            unreachable!("tenant activated above")
        };
        let verdict = filter.decide(packet, direction);
        if direction == Direction::Outbound && verdict == Verdict::Drop {
            self.outbound_drop_anomalies += 1;
            return Verdict::Pass;
        }
        verdict
    }

    /// Processes one packet at the aggregation point:
    ///
    /// * source inside a subscriber → outbound for that subscriber
    ///   (mark + measure; structurally always passes);
    /// * otherwise destination inside a subscriber → inbound there
    ///   (look up + RED-drop);
    /// * transit traffic passes untouched.
    pub fn process_packet(&mut self, packet: &Packet) -> Verdict {
        let tuple = packet.tuple();
        if let Some(id) = self.trie.lookup(*tuple.src().ip()) {
            return self.decide_leg(id as usize, packet, Direction::Outbound);
        }
        if let Some(id) = self.trie.lookup(*tuple.dst().ip()) {
            return self.decide_leg(id as usize, packet, Direction::Inbound);
        }
        Verdict::Pass
    }

    /// Decides a batch with subscriber-aware grouped dispatch: every
    /// packet is classified once, the batch is partitioned by
    /// subscriber, and each tenant's sub-batch goes through its
    /// filter's [`decide_batch`](PacketFilter::decide_batch) — so
    /// per-tenant overhead (activation, bookkeeping, lock amortization
    /// in sharded members) is paid once per group instead of once per
    /// packet. Verdicts land in input order and are byte-identical to
    /// calling [`process_packet`](Self::process_packet) per packet,
    /// because tenant filters are independent and drop draws are pure
    /// functions of `(seed, key, timestamp)`.
    ///
    /// The `Direction` component of `packets` is ignored — the table
    /// classifies every packet itself.
    pub fn process_batch(&mut self, packets: &[(Packet, Direction)], verdicts: &mut Vec<Verdict>) {
        const TRANSIT: u32 = u32::MAX;
        let base = verdicts.len();
        verdicts.resize(base + packets.len(), Verdict::Pass);
        let mut s = std::mem::take(&mut self.scratch);
        s.tags.clear();
        s.order.clear();
        for (slot, (packet, _)) in packets.iter().enumerate() {
            let tuple = packet.tuple();
            let tag = if let Some(id) = self.trie.lookup(*tuple.src().ip()) {
                (id, Direction::Outbound)
            } else if let Some(id) = self.trie.lookup(*tuple.dst().ip()) {
                (id, Direction::Inbound)
            } else {
                (TRANSIT, Direction::Inbound)
            };
            if tag.0 != TRANSIT {
                s.order.push(slot as u32);
            }
            s.tags.push(tag);
        }
        // Group by sorting indices by tenant (stable within a tenant, so
        // each sub-batch keeps input order); transit packets were never
        // pushed and keep their pre-filled Pass.
        s.order.sort_by_key(|&slot| s.tags[slot as usize].0);
        let mut at = 0;
        while at < s.order.len() {
            let tid = s.tags[s.order[at] as usize].0;
            s.stage.clear();
            s.idxs.clear();
            s.sub.clear();
            while at < s.order.len() && s.tags[s.order[at] as usize].0 == tid {
                let j = s.order[at] as usize;
                // Packet payloads are refcounted (`Bytes`), so staging
                // clones are cheap.
                s.stage.push((packets[j].0.clone(), s.tags[j].1));
                s.idxs.push(j);
                at += 1;
            }
            let id = tid as usize;
            self.ensure_active(id);
            if let Some((last, _)) = s.stage.last() {
                self.note_activity(id, last.ts());
            }
            let Some(filter) = self.tenants[id].filter.as_mut() else {
                unreachable!("tenant activated above")
            };
            filter.decide_batch(&s.stage, &mut s.sub);
            for (&slot, &v) in s.idxs.iter().zip(s.sub.iter()) {
                let verdict = if s.tags[slot].1 == Direction::Outbound && v == Verdict::Drop {
                    self.outbound_drop_anomalies += 1;
                    Verdict::Pass
                } else {
                    v
                };
                verdicts[base + slot] = verdict;
            }
        }
        self.scratch = s;
    }

    /// Applies due timer events on every materialized tenant (rotation
    /// of a parked tenant is a free no-op that keeps its clock and
    /// statistics aligned with a standalone filter), then sweeps for
    /// idle tenants to evict.
    pub fn advance(&mut self, now: Timestamp) {
        for t in &mut self.tenants {
            if let Some(f) = t.filter.as_mut() {
                f.advance(now);
            }
        }
        self.sweep_evictions(now);
    }

    fn sweep_evictions(&mut self, now: Timestamp) {
        let Some(after) = self.evict_after else {
            return;
        };
        let Some(ops) = self.ops else { return };
        for id in 0..self.tenants.len() {
            {
                let t = &self.tenants[id];
                if t.parked || t.filter.is_none() {
                    continue;
                }
                // Pre-built tenants (no config) have no known expiry
                // window, so they are never evicted.
                let Some(cfg) = t.config.as_ref() else {
                    continue;
                };
                let Some(last) = t.last_packet else { continue };
                let expiry = cfg.expiry_timer();
                let threshold = if after.as_micros() > expiry.as_micros() {
                    after
                } else {
                    expiry
                };
                if now.saturating_since(last).as_micros() < threshold.as_micros() {
                    continue;
                }
            }
            let buffers = match self.tenants[id].filter.as_mut() {
                Some(f) => (ops.park)(f),
                None => continue,
            };
            for buf in buffers {
                self.arena.put(buf);
            }
            self.tenants[id].parked = true;
            self.ckpt.get_mut().dirty[id] = true;
        }
    }

    /// Per-subscriber statistics in provisioning order. Dormant tenants
    /// report default (all-zero) statistics.
    pub fn per_subscriber_stats(&self) -> Vec<(Cidr, F::Stats)> {
        self.tenants
            .iter()
            .map(|t| {
                (
                    t.cidr,
                    t.filter.as_ref().map(|f| f.stats()).unwrap_or_default(),
                )
            })
            .collect()
    }

    /// All tenant statistics folded into one aggregate.
    pub fn merged_stats(&self) -> F::Stats {
        let mut merged = F::Stats::default();
        for t in &self.tenants {
            if let Some(f) = t.filter.as_ref() {
                merged.merge(&f.stats());
            }
        }
        merged
    }

    /// Total resident filter memory plus bytes pooled in the arena.
    /// O(active subscribers): dormant and parked tenants hold no bit
    /// storage.
    pub fn memory_bytes(&self) -> usize {
        let filters: usize = self
            .tenants
            .iter()
            .filter_map(|t| t.filter.as_ref().map(|f| f.memory_bytes()))
            .sum();
        filters + self.arena.pooled_bytes
    }

    /// Number of tenants currently marked dirty (touched since the last
    /// checkpoint).
    pub fn dirty_subscribers(&self) -> usize {
        self.ckpt.borrow().dirty.iter().filter(|d| **d).count()
    }

    /// The checkpoint sequence number (incremented by every full or
    /// delta snapshot taken).
    pub fn checkpoint_seq(&self) -> u64 {
        self.ckpt.borrow().seq
    }

    /// How many tenant filters the most recent snapshot (full or delta)
    /// serialized — the observable that makes incremental checkpoints
    /// testable.
    pub fn last_checkpoint_tenants(&self) -> usize {
        self.ckpt.borrow().last_encoded
    }
}

/// A thread-portable snapshot of a [`SubscriberTable`]'s dispatch trie,
/// classifying packets without access to the table.
#[derive(Debug, Clone)]
pub struct SubscriberClassifier {
    trie: LpmTrie,
}

impl SubscriberClassifier {
    /// The subscriber owning `addr`, if any.
    pub fn subscriber_of(&self, addr: Ipv4Addr) -> Option<usize> {
        self.trie.lookup(addr).map(|id| id as usize)
    }

    /// The accounting direction of `packet` at the aggregation point:
    /// outbound when its source lies in a subscriber network, inbound
    /// otherwise.
    pub fn direction_of(&self, packet: &Packet) -> Direction {
        let tuple = packet.tuple();
        if self.trie.lookup(*tuple.src().ip()).is_some() {
            Direction::Outbound
        } else {
            Direction::Inbound
        }
    }
}

impl<F: PacketFilter> PacketFilter for SubscriberTable<F> {
    type Stats = F::Stats;

    fn decide(&mut self, packet: &Packet, _direction: Direction) -> Verdict {
        // The table classifies each packet itself; the caller-supplied
        // direction is ignored.
        self.process_packet(packet)
    }

    fn decide_batch(&mut self, packets: &[(Packet, Direction)], verdicts: &mut Vec<Verdict>) {
        self.process_batch(packets, verdicts);
    }

    fn advance(&mut self, now: Timestamp) {
        SubscriberTable::advance(self, now);
    }

    fn stats(&self) -> F::Stats {
        self.merged_stats()
    }

    fn ticks(&self) -> u64 {
        self.tenants
            .iter()
            .filter_map(|t| t.filter.as_ref().map(F::ticks))
            .max()
            .unwrap_or(0)
    }

    fn memory_bytes(&self) -> usize {
        SubscriberTable::memory_bytes(self)
    }

    fn drop_probability(&self, now: Timestamp) -> f64 {
        // Most aggressive tenant: the largest P_d any subscriber's
        // policy currently yields.
        self.tenants
            .iter()
            .filter_map(|t| t.filter.as_ref().map(|f| f.drop_probability(now)))
            .fold(0.0, f64::max)
    }

    fn name(&self) -> &str {
        "subscribers"
    }
}

impl<F: PacketFilter + Snapshottable> SubscriberTable<F> {
    fn encode_tenant(t: &Tenant<F>, w: &mut ByteWriter) {
        match &t.filter {
            None => w.put_u8(0),
            Some(f) => {
                w.put_u8(1);
                w.put_bool(t.parked);
                match t.last_packet {
                    Some(ts) => {
                        w.put_bool(true);
                        w.put_u64(ts.as_micros());
                    }
                    None => {
                        w.put_bool(false);
                        w.put_u64(0);
                    }
                }
                let mut inner = ByteWriter::new();
                f.encode_snapshot(&mut inner);
                let blob = inner.into_bytes();
                w.put_u64(blob.len() as u64);
                w.put_slice(&blob);
            }
        }
    }

    fn restore_tenant(
        &mut self,
        id: usize,
        r: &mut ByteReader<'_>,
        mode: RestoreMode,
    ) -> Result<(), SnapshotError> {
        match r.u8()? {
            0 => {
                // Dormant in the snapshot: release whatever this table
                // holds for the tenant.
                if self.tenants[id].filter.is_some() && self.ops.is_none() {
                    return Err(SnapshotError::ConfigMismatch("subscriber provisioning"));
                }
                if let (Some(ops), Some(f)) = (self.ops, self.tenants[id].filter.as_mut()) {
                    if !(ops.is_parked)(f) {
                        let buffers = (ops.park)(f);
                        for buf in buffers {
                            self.arena.put(buf);
                        }
                    }
                }
                self.tenants[id].filter = None;
                self.tenants[id].parked = false;
                self.tenants[id].last_packet = None;
            }
            1 => {
                // The parked flag is a diagnostic hint; the effective
                // state is re-derived from the storage the filter ends
                // up with after the blob is applied.
                let _parked_hint = r.bool()?;
                let has_last = r.bool()?;
                let last_us = r.u64()?;
                let blob_len = r.u64()? as usize;
                let blob = r.take(blob_len)?;
                let freshly_materialized = self.tenants[id].filter.is_none();
                if freshly_materialized {
                    let Some(ops) = self.ops else {
                        return Err(SnapshotError::ConfigMismatch("subscriber filter missing"));
                    };
                    let Some(config) = self.tenants[id].config.clone() else {
                        return Err(SnapshotError::ConfigMismatch("subscriber config missing"));
                    };
                    self.tenants[id].filter = Some((ops.new_parked)(config));
                }
                {
                    let Some(filter) = self.tenants[id].filter.as_mut() else {
                        unreachable!("tenant materialized above")
                    };
                    let mut br = ByteReader::new(blob);
                    filter.restore_snapshot(&mut br, mode)?;
                    if !br.is_empty() {
                        return Err(SnapshotError::Malformed(
                            "subscriber payload trailing bytes",
                        ));
                    }
                }
                self.tenants[id].parked = match (self.ops, self.tenants[id].filter.as_ref()) {
                    (Some(ops), Some(f)) => (ops.is_parked)(f),
                    _ => false,
                };
                self.tenants[id].last_packet = has_last.then(|| Timestamp::from_micros(last_us));
            }
            _ => return Err(SnapshotError::Malformed("subscriber state tag")),
        }
        Ok(())
    }

    /// Serializes an **incremental** checkpoint: only tenants touched
    /// since the previous checkpoint (full or delta) are re-serialized,
    /// inside a kind-[`SUBSCRIBER_DELTA_KIND`] container. Restore with
    /// [`restore_delta_bytes`](Self::restore_delta_bytes) on a table
    /// whose state matches the delta's base sequence number — i.e. one
    /// restored from the previous checkpoint chain.
    pub fn delta_bytes(&self, watermark: Timestamp) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(self.tenants.len() as u32);
        let mut ckpt = self.ckpt.borrow_mut();
        w.put_u64(ckpt.seq);
        ckpt.seq += 1;
        w.put_u64(ckpt.seq);
        let dirty_ids: Vec<usize> = ckpt
            .dirty
            .iter()
            .enumerate()
            .filter_map(|(id, d)| d.then_some(id))
            .collect();
        w.put_u32(dirty_ids.len() as u32);
        for id in &dirty_ids {
            w.put_u32(*id as u32);
            Self::encode_tenant(&self.tenants[*id], &mut w);
            ckpt.dirty[*id] = false;
        }
        ckpt.last_encoded = dirty_ids.len();
        w.put_u64(self.outbound_drop_anomalies);
        encode_container(SUBSCRIBER_DELTA_KIND, watermark, w.as_slice())
    }

    /// Applies a delta produced by [`delta_bytes`](Self::delta_bytes),
    /// handling staleness like
    /// [`Snapshottable::restore_bytes`]: a delta older than
    /// `stale_after` restores statistics only and restarts every tenant
    /// cold at `now`.
    ///
    /// # Errors
    ///
    /// Container defects, a non-delta kind, a provisioning mismatch, or
    /// a base sequence number that does not match this table's current
    /// checkpoint sequence (the delta chain would have a gap) map to
    /// the corresponding [`SnapshotError`].
    pub fn restore_delta_bytes(
        &mut self,
        bytes: &[u8],
        now: Timestamp,
        stale_after: TimeDelta,
    ) -> Result<RestoreOutcome, SnapshotError> {
        let view = decode_container(bytes)?;
        if view.kind != SUBSCRIBER_DELTA_KIND {
            return Err(SnapshotError::KindMismatch {
                expected: SUBSCRIBER_DELTA_KIND,
                found: view.kind,
            });
        }
        let stale = now.saturating_since(view.watermark) > stale_after;
        let mode = if stale {
            RestoreMode::StatsOnly
        } else {
            RestoreMode::Full
        };
        let mut r = ByteReader::new(view.payload);
        if r.u32()? as usize != self.tenants.len() {
            return Err(SnapshotError::ConfigMismatch("subscriber count"));
        }
        let base_seq = r.u64()?;
        let new_seq = r.u64()?;
        if base_seq != self.ckpt.get_mut().seq {
            return Err(SnapshotError::Malformed("delta base sequence mismatch"));
        }
        let entries = r.u32()?;
        for _ in 0..entries {
            let id = r.u32()? as usize;
            if id >= self.tenants.len() {
                return Err(SnapshotError::Malformed("subscriber id out of range"));
            }
            self.restore_tenant(id, &mut r, mode)?;
        }
        self.outbound_drop_anomalies = r.u64()?;
        if !r.is_empty() {
            return Err(SnapshotError::Malformed("payload has trailing bytes"));
        }
        {
            let ckpt = self.ckpt.get_mut();
            ckpt.seq = new_seq;
            ckpt.dirty.iter_mut().for_each(|d| *d = false);
        }
        if stale {
            self.start_cold_at(now);
            Ok(RestoreOutcome::Cold)
        } else {
            Ok(RestoreOutcome::Warm)
        }
    }
}

impl<F: PacketFilter + Snapshottable> Snapshottable for SubscriberTable<F> {
    const SNAPSHOT_KIND: u32 = 3;

    fn encode_snapshot(&self, w: &mut ByteWriter) {
        w.put_u32(self.tenants.len() as u32);
        let mut ckpt = self.ckpt.borrow_mut();
        ckpt.seq += 1;
        w.put_u64(ckpt.seq);
        let mut encoded = 0usize;
        for (id, t) in self.tenants.iter().enumerate() {
            Self::encode_tenant(t, w);
            if t.filter.is_some() {
                encoded += 1;
            }
            ckpt.dirty[id] = false;
        }
        ckpt.last_encoded = encoded;
        w.put_u64(self.outbound_drop_anomalies);
    }

    fn restore_snapshot(
        &mut self,
        r: &mut ByteReader<'_>,
        mode: RestoreMode,
    ) -> Result<(), SnapshotError> {
        if r.u32()? as usize != self.tenants.len() {
            return Err(SnapshotError::ConfigMismatch("subscriber count"));
        }
        let seq = r.u64()?;
        for id in 0..self.tenants.len() {
            self.restore_tenant(id, r, mode)?;
        }
        self.outbound_drop_anomalies = r.u64()?;
        let ckpt = self.ckpt.get_mut();
        ckpt.seq = seq;
        ckpt.dirty.iter_mut().for_each(|d| *d = false);
        Ok(())
    }

    fn start_cold_at(&mut self, epoch: Timestamp) {
        for t in &mut self.tenants {
            if let Some(f) = t.filter.as_mut() {
                f.start_cold_at(epoch);
            }
        }
    }
}

/// Publishes per-subscriber labeled counters and gauges from a
/// [`SubscriberTable`] into a telemetry [`Registry`].
///
/// Counters are cumulative, so the publisher tracks the last published
/// value per tenant and adds only the delta on each
/// [`publish`](Self::publish) call. Dormant tenants export nothing
/// (keeping label cardinality proportional to tenants that have seen
/// traffic, not to provisioning).
#[derive(Debug)]
pub struct SubscriberTelemetry {
    registry: Registry,
    published: Vec<FilterStats>,
    published_anomalies: u64,
}

impl SubscriberTelemetry {
    /// A publisher writing into `registry`.
    pub fn new(registry: Registry) -> Self {
        Self {
            registry,
            published: Vec::new(),
            published_anomalies: 0,
        }
    }

    /// The registry this publisher writes into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Publishes the current per-tenant and table-level state.
    pub fn publish<F>(&mut self, table: &SubscriberTable<F>)
    where
        F: PacketFilter<Stats = FilterStats>,
    {
        self.published.resize(table.len(), FilterStats::default());
        for id in 0..table.len() {
            let Some(stats) = table.subscriber_stats(id) else {
                continue;
            };
            let Some(name) = table.subscriber_name(id) else {
                continue;
            };
            let labels: &[(&str, &str)] = &[("subscriber", name)];
            let last = self.published[id];
            self.registry
                .labeled_counter(
                    "upbound_core_subscriber_outbound_packets_total",
                    "Outbound packets observed for this subscriber",
                    labels,
                )
                .add(stats.outbound_packets.saturating_sub(last.outbound_packets));
            self.registry
                .labeled_counter(
                    "upbound_core_subscriber_inbound_packets_total",
                    "Inbound packets checked for this subscriber",
                    labels,
                )
                .add(stats.inbound_packets.saturating_sub(last.inbound_packets));
            self.registry
                .labeled_counter(
                    "upbound_core_subscriber_dropped_total",
                    "Inbound packets dropped for this subscriber",
                    labels,
                )
                .add(stats.dropped.saturating_sub(last.dropped));
            self.registry
                .labeled_counter(
                    "upbound_core_subscriber_fail_open_passes_total",
                    "Would-be drops passed during this subscriber's warm-up grace",
                    labels,
                )
                .add(stats.fail_open_passes.saturating_sub(last.fail_open_passes));
            self.registry
                .labeled_gauge(
                    "upbound_core_subscriber_memory_bytes",
                    "Resident filter memory of this subscriber",
                    labels,
                )
                .set(table.subscriber_memory_bytes(id).unwrap_or(0) as f64);
            self.registry
                .labeled_gauge(
                    "upbound_core_subscriber_resident",
                    "1 when this subscriber's filter storage is resident, 0 when parked",
                    labels,
                )
                .set(match table.subscriber_state(id) {
                    Some(SubscriberState::Active) => 1.0,
                    _ => 0.0,
                });
            self.published[id] = stats;
        }
        let anomalies = table.outbound_drop_anomalies();
        self.registry
            .counter(
                "upbound_core_outbound_drop_anomaly_total",
                "Outbound packets a tenant filter anomalously voted to drop (forced to pass)",
            )
            .add(anomalies.saturating_sub(self.published_anomalies));
        self.published_anomalies = anomalies;
        self.registry
            .gauge(
                "upbound_core_subscribers_provisioned",
                "Subscribers provisioned in the table",
            )
            .set(table.len() as f64);
        self.registry
            .gauge(
                "upbound_core_subscribers_active",
                "Subscribers with resident filter storage",
            )
            .set(table.active_subscribers() as f64);
        self.registry
            .gauge(
                "upbound_core_subscriber_arena_pooled_bytes",
                "Bytes pooled in the shared bit-vector arena awaiting reuse",
            )
            .set(table.arena_pooled_bytes() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upbound_net::{FiveTuple, Protocol, TcpFlags};
    use upbound_telemetry::MetricValue;

    fn pkt(src: &str, dst: &str, t: f64) -> Packet {
        Packet::tcp(
            Timestamp::from_secs(t),
            FiveTuple::new(Protocol::Tcp, src.parse().unwrap(), dst.parse().unwrap()),
            TcpFlags::ACK,
            &[][..],
        )
    }

    fn small_config(seed: u64) -> BitmapFilterConfig {
        // {4 × 2^10} bitmap rotated every 1 s → T_e = 4 s, 512 bytes.
        BitmapFilterConfig::builder()
            .vector_bits(10)
            .vectors(4)
            .hash_functions(3)
            .rotate_every_secs(1.0)
            .rng_seed(seed)
            .build()
            .unwrap()
    }

    fn two_tenant_table() -> SubscriberTable {
        let mut table = SubscriberTable::new();
        table
            .add_subscriber("10.1.0.0/16".parse().unwrap(), small_config(7))
            .unwrap();
        table
            .add_subscriber("10.2.0.0/16".parse().unwrap(), small_config(7))
            .unwrap();
        table
    }

    #[test]
    fn lpm_duplicate_prefix_is_an_error() {
        let mut trie = LpmTrie::new();
        trie.insert("10.0.0.0/8".parse().unwrap(), 0).unwrap();
        assert_eq!(
            trie.insert("10.0.0.0/8".parse().unwrap(), 1),
            Err(SubscriberError::DuplicatePrefix(
                "10.0.0.0/8".parse().unwrap()
            ))
        );
        // A default route catches everything not more specifically owned.
        trie.insert("0.0.0.0/0".parse().unwrap(), 2).unwrap();
        assert_eq!(trie.lookup("203.0.113.9".parse().unwrap()), Some(2));
        assert_eq!(trie.lookup("10.4.5.6".parse().unwrap()), Some(0));
        assert_eq!(trie.len(), 2);
    }

    #[test]
    fn lazy_activation_keeps_memory_o_active() {
        let mut table = SubscriberTable::new();
        for i in 0..50u32 {
            let cidr: Cidr = format!("10.{i}.0.0/16").parse().unwrap();
            table.add_subscriber(cidr, small_config(1)).unwrap();
        }
        assert_eq!(table.memory_bytes(), 0);
        assert_eq!(table.active_subscribers(), 0);
        table.process_packet(&pkt("10.3.0.5:4000", "198.51.100.9:80", 1.0));
        assert_eq!(table.active_subscribers(), 1);
        assert_eq!(table.memory_bytes(), small_config(1).memory_bytes());
        assert_eq!(table.subscriber_state(3), Some(SubscriberState::Active));
        assert_eq!(table.subscriber_state(4), Some(SubscriberState::Dormant));
    }

    #[test]
    fn idle_eviction_parks_and_reactivation_reuses_arena() {
        let mut table = two_tenant_table();
        table.evict_idle_after(TimeDelta::from_secs(5.0));
        table.process_packet(&pkt("10.1.0.5:4000", "198.51.100.9:80", 1.0));
        let resident = small_config(7).memory_bytes();
        assert_eq!(table.memory_bytes(), resident);
        // Idle for well past max(5 s, T_e = 4 s): the sweep parks it.
        table.advance(Timestamp::from_secs(60.0));
        assert_eq!(table.subscriber_state(0), Some(SubscriberState::Parked));
        assert_eq!(table.active_subscribers(), 0);
        assert_eq!(table.arena_pooled_bytes(), resident);
        // Statistics and clock survive parking.
        assert_eq!(table.subscriber_stats(0).unwrap().outbound_packets, 1);
        // Reactivation pulls the pooled buffers back out of the arena.
        table.process_packet(&pkt("10.1.0.5:4000", "198.51.100.9:80", 61.0));
        assert_eq!(table.subscriber_state(0), Some(SubscriberState::Active));
        assert_eq!(table.arena_pooled_bytes(), 0);
        let (reuses, fresh) = table.arena_counters();
        assert!(reuses >= 1, "expected arena reuse, got {reuses}/{fresh}");
    }

    #[test]
    fn arena_buffers_migrate_between_tenants() {
        let mut table = two_tenant_table();
        table.evict_idle_after(TimeDelta::ZERO);
        table.process_packet(&pkt("10.1.0.5:4000", "198.51.100.9:80", 1.0));
        table.advance(Timestamp::from_secs(60.0));
        let (_, fresh_before) = table.arena_counters();
        // Tenant 1 activates from tenant 0's recycled storage.
        table.process_packet(&pkt("10.2.0.5:4000", "198.51.100.9:80", 61.0));
        let (reuses, fresh_after) = table.arena_counters();
        assert!(reuses >= 1);
        assert_eq!(fresh_before, fresh_after);
    }

    #[test]
    fn eviction_is_verdict_lossless() {
        // A table with aggressive eviction must agree packet-for-packet
        // with a standalone filter that is never evicted.
        let mut table = SubscriberTable::new();
        table
            .add_subscriber("10.1.0.0/16".parse().unwrap(), small_config(3))
            .unwrap();
        table.evict_idle_after(TimeDelta::ZERO);
        let mut standalone = BitmapFilter::new(small_config(3));

        let script: &[(&str, &str, f64, Direction)] = &[
            ("10.1.0.5:4000", "198.51.100.9:80", 1.0, Direction::Outbound),
            ("198.51.100.9:80", "10.1.0.5:4000", 1.2, Direction::Inbound),
            // Long gap: the table parks the tenant at the advance below.
            ("198.51.100.9:80", "10.1.0.5:4000", 30.5, Direction::Inbound),
            (
                "10.1.0.5:4000",
                "198.51.100.9:80",
                30.6,
                Direction::Outbound,
            ),
            ("198.51.100.9:80", "10.1.0.5:4000", 30.7, Direction::Inbound),
        ];
        let advances = [10.0, 30.0, 31.0];
        let mut ai = 0;
        for &(src, dst, t, dir) in script {
            while ai < advances.len() && advances[ai] < t {
                let now = Timestamp::from_secs(advances[ai]);
                table.advance(now);
                standalone.advance(now);
                ai += 1;
            }
            let p = pkt(src, dst, t);
            assert_eq!(
                table.process_packet(&p),
                standalone.decide(&p, dir),
                "diverged at t={t}"
            );
        }
        assert_eq!(table.subscriber_stats(0).unwrap(), standalone.stats());
    }

    #[derive(Debug, Clone, Default)]
    struct DropAll {
        stats: FilterStats,
    }

    impl PacketFilter for DropAll {
        type Stats = FilterStats;
        fn decide(&mut self, _packet: &Packet, direction: Direction) -> Verdict {
            match direction {
                Direction::Outbound => self.stats.outbound_packets += 1,
                Direction::Inbound => self.stats.inbound_packets += 1,
            }
            Verdict::Drop
        }
        fn advance(&mut self, _now: Timestamp) {}
        fn stats(&self) -> FilterStats {
            self.stats
        }
        fn ticks(&self) -> u64 {
            0
        }
        fn memory_bytes(&self) -> usize {
            0
        }
        fn drop_probability(&self, _now: Timestamp) -> f64 {
            1.0
        }
        fn name(&self) -> &str {
            "dropall"
        }
    }

    #[test]
    fn outbound_drop_votes_are_forced_to_pass_and_counted() {
        let mut table: SubscriberTable<DropAll> = SubscriberTable::with_filters();
        table
            .add_subscriber_filter("10.1.0.0/16".parse().unwrap(), DropAll::default())
            .unwrap();
        let out = pkt("10.1.0.5:4000", "198.51.100.9:80", 1.0);
        assert_eq!(table.process_packet(&out), Verdict::Pass);
        assert_eq!(table.outbound_drop_anomalies(), 1);
        // Inbound drops are legitimate and pass through unchanged.
        let inb = pkt("198.51.100.9:80", "10.1.0.5:4000", 1.1);
        assert_eq!(table.process_packet(&inb), Verdict::Drop);
        assert_eq!(table.outbound_drop_anomalies(), 1);
        // The batched path enforces the same structural guarantee.
        let mut verdicts = Vec::new();
        table.process_batch(
            &[(out, Direction::Inbound), (inb, Direction::Inbound)],
            &mut verdicts,
        );
        assert_eq!(verdicts, vec![Verdict::Pass, Verdict::Drop]);
        assert_eq!(table.outbound_drop_anomalies(), 2);
    }

    #[test]
    fn batch_dispatch_matches_sequential() {
        let mut batched = two_tenant_table();
        let mut sequential = two_tenant_table();
        let packets: Vec<(Packet, Direction)> = [
            pkt("10.1.0.5:4000", "198.51.100.9:80", 1.00),
            pkt("10.2.0.6:4001", "198.51.100.9:80", 1.01),
            pkt("192.0.2.1:53", "198.51.100.2:53", 1.02),
            pkt("198.51.100.9:80", "10.1.0.5:4000", 1.03),
            pkt("198.51.100.9:80", "10.2.0.6:4001", 1.04),
            pkt("203.0.113.7:6881", "10.1.0.9:6881", 1.05),
            pkt("10.1.0.5:4000", "10.2.0.6:4001", 1.06),
            pkt("203.0.113.7:6881", "10.2.0.9:6881", 1.07),
        ]
        .into_iter()
        .map(|p| (p, Direction::Inbound))
        .collect();
        let mut got = Vec::new();
        batched.process_batch(&packets, &mut got);
        let want: Vec<Verdict> = packets
            .iter()
            .map(|(p, _)| sequential.process_packet(p))
            .collect();
        assert_eq!(got, want);
        assert_eq!(
            batched.per_subscriber_stats(),
            sequential.per_subscriber_stats()
        );
        assert_eq!(
            batched.outbound_drop_anomalies(),
            sequential.outbound_drop_anomalies()
        );
    }

    #[test]
    fn full_snapshot_round_trips_active_parked_and_dormant() {
        let mut table = two_tenant_table();
        table
            .add_subscriber("10.3.0.0/16".parse().unwrap(), small_config(7))
            .unwrap();
        table.evict_idle_after(TimeDelta::from_secs(5.0));
        table.process_packet(&pkt("10.1.0.5:4000", "198.51.100.9:80", 1.0));
        table.process_packet(&pkt("10.2.0.6:4001", "198.51.100.9:80", 9.0));
        table.advance(Timestamp::from_secs(10.0)); // parks tenant 0
        assert_eq!(table.subscriber_state(0), Some(SubscriberState::Parked));

        let now = Timestamp::from_secs(10.0);
        let bytes = table.snapshot_bytes(now);
        let mut restored = two_tenant_table();
        restored
            .add_subscriber("10.3.0.0/16".parse().unwrap(), small_config(7))
            .unwrap();
        restored.evict_idle_after(TimeDelta::from_secs(5.0));
        let outcome = restored
            .restore_bytes(
                &bytes,
                Timestamp::from_secs(10.5),
                TimeDelta::from_secs(60.0),
            )
            .unwrap();
        assert_eq!(outcome, RestoreOutcome::Warm);
        assert_eq!(restored.subscriber_state(0), Some(SubscriberState::Parked));
        assert_eq!(restored.subscriber_state(1), Some(SubscriberState::Active));
        assert_eq!(restored.subscriber_state(2), Some(SubscriberState::Dormant));
        assert_eq!(
            restored.per_subscriber_stats(),
            table.per_subscriber_stats()
        );
        assert_eq!(restored.checkpoint_seq(), table.checkpoint_seq());
        assert_eq!(restored.dirty_subscribers(), 0);
        // Both instances keep agreeing after the restore.
        let reply = pkt("198.51.100.9:80", "10.2.0.6:4001", 10.6);
        assert_eq!(
            restored.process_packet(&reply),
            table.process_packet(&reply)
        );
    }

    #[test]
    fn delta_checkpoint_reserializes_only_dirty_tenants() {
        let mut primary = two_tenant_table();
        primary
            .add_subscriber("10.3.0.0/16".parse().unwrap(), small_config(7))
            .unwrap();
        for i in 1..=3u32 {
            let src = format!("10.{i}.0.5:4000");
            primary.process_packet(&pkt(&src, "198.51.100.9:80", 1.0));
        }
        let full = primary.snapshot_bytes(Timestamp::from_secs(1.5));
        assert_eq!(primary.last_checkpoint_tenants(), 3);
        let mut standby = two_tenant_table();
        standby
            .add_subscriber("10.3.0.0/16".parse().unwrap(), small_config(7))
            .unwrap();
        standby
            .restore_bytes(&full, Timestamp::from_secs(2.0), TimeDelta::from_secs(60.0))
            .unwrap();

        // Only tenant 1 is touched between checkpoints.
        primary.process_packet(&pkt("10.2.0.6:4001", "198.51.100.9:80", 2.5));
        assert_eq!(primary.dirty_subscribers(), 1);
        let delta = primary.delta_bytes(Timestamp::from_secs(3.0));
        assert_eq!(primary.last_checkpoint_tenants(), 1);
        assert_eq!(primary.dirty_subscribers(), 0);
        assert!(
            delta.len() * 2 < full.len(),
            "delta ({}) should be far smaller than full ({})",
            delta.len(),
            full.len()
        );
        let outcome = standby
            .restore_delta_bytes(
                &delta,
                Timestamp::from_secs(3.5),
                TimeDelta::from_secs(60.0),
            )
            .unwrap();
        assert_eq!(outcome, RestoreOutcome::Warm);
        assert_eq!(
            standby.per_subscriber_stats(),
            primary.per_subscriber_stats()
        );
        assert_eq!(standby.checkpoint_seq(), primary.checkpoint_seq());
    }

    #[test]
    fn delta_with_mismatched_base_sequence_is_rejected() {
        let mut primary = two_tenant_table();
        primary.process_packet(&pkt("10.1.0.5:4000", "198.51.100.9:80", 1.0));
        let full = primary.snapshot_bytes(Timestamp::from_secs(1.5));
        let mut standby = two_tenant_table();
        standby
            .restore_bytes(&full, Timestamp::from_secs(2.0), TimeDelta::from_secs(60.0))
            .unwrap();
        primary.process_packet(&pkt("10.2.0.6:4001", "198.51.100.9:80", 2.5));
        let delta = primary.delta_bytes(Timestamp::from_secs(3.0));
        standby
            .restore_delta_bytes(
                &delta,
                Timestamp::from_secs(3.5),
                TimeDelta::from_secs(60.0),
            )
            .unwrap();
        // Replaying the same delta breaks the chain.
        let err = standby
            .restore_delta_bytes(
                &delta,
                Timestamp::from_secs(4.0),
                TimeDelta::from_secs(60.0),
            )
            .unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed(_)));
    }

    #[test]
    fn stale_delta_restores_cold() {
        let mut primary = two_tenant_table();
        primary.process_packet(&pkt("10.1.0.5:4000", "198.51.100.9:80", 1.0));
        let full = primary.snapshot_bytes(Timestamp::from_secs(1.5));
        let mut standby = two_tenant_table();
        standby
            .restore_bytes(&full, Timestamp::from_secs(2.0), TimeDelta::from_secs(60.0))
            .unwrap();
        primary.process_packet(&pkt("10.1.0.5:4001", "198.51.100.9:80", 2.5));
        let delta = primary.delta_bytes(Timestamp::from_secs(3.0));
        let outcome = standby
            .restore_delta_bytes(
                &delta,
                Timestamp::from_secs(500.0),
                TimeDelta::from_secs(60.0),
            )
            .unwrap();
        assert_eq!(outcome, RestoreOutcome::Cold);
        // Statistics survive a cold restore.
        assert_eq!(standby.subscriber_stats(0).unwrap().outbound_packets, 2);
    }

    #[test]
    fn telemetry_publishes_per_subscriber_series() {
        let mut table = two_tenant_table();
        table.process_packet(&pkt("10.1.0.5:4000", "198.51.100.9:80", 1.0));
        table.process_packet(&pkt("203.0.113.7:6881", "10.1.0.9:6881", 1.1));
        let mut telemetry = SubscriberTelemetry::new(Registry::new());
        telemetry.publish(&table);
        telemetry.publish(&table); // idempotent for cumulative counters
        let snapshot = telemetry.registry().snapshot();
        let sample = |name: &str, label: &str| {
            snapshot
                .samples
                .iter()
                .find(|s| s.name == name && s.labels.iter().any(|(_, v)| v == label))
                .map(|s| s.value.clone())
        };
        assert_eq!(
            sample(
                "upbound_core_subscriber_outbound_packets_total",
                "10.1.0.0/16"
            ),
            Some(MetricValue::Counter(1))
        );
        assert_eq!(
            sample(
                "upbound_core_subscriber_inbound_packets_total",
                "10.1.0.0/16"
            ),
            Some(MetricValue::Counter(1))
        );
        // The dormant tenant exports no series.
        assert_eq!(
            sample(
                "upbound_core_subscriber_outbound_packets_total",
                "10.2.0.0/16"
            ),
            None
        );
        assert_eq!(
            snapshot.gauge("upbound_core_subscribers_provisioned"),
            Some(2.0)
        );
    }
}
