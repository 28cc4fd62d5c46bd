//! The SPI filter: exact positive listing with per-flow state.

use crate::{FlowEntry, FlowTable, SpiConfig};
use serde::{Deserialize, Serialize};
use std::net::{Ipv4Addr, SocketAddrV4};
use std::sync::Arc;
use upbound_core::observe::{FilterObserver, NoopObserver};
use upbound_core::snapshot::{self, ByteReader, ByteWriter, RestoreMode, SnapshotError};
use upbound_core::{
    FilterEngine, MergeStats, PacketFilter, Snapshottable, ThroughputMonitor, Verdict,
};
use upbound_net::{Direction, FiveTuple, Packet, Protocol, TcpConnState, TcpFlags, Timestamp};

/// Running counters of an [`SpiFilter`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpiStats {
    /// Outbound packets observed (always passed).
    pub outbound_packets: u64,
    /// Inbound packets checked.
    pub inbound_packets: u64,
    /// Inbound packets matched to tracked state.
    pub inbound_hits: u64,
    /// Inbound packets with no state.
    pub inbound_misses: u64,
    /// Inbound packets dropped.
    pub dropped: u64,
    /// Entries removed by periodic purges.
    pub purged_entries: u64,
    /// Number of purge sweeps run.
    pub purge_sweeps: u64,
    /// Outbound flows that could not be tracked because the table was
    /// full (state exhaustion).
    pub untracked_flows: u64,
}

impl SpiStats {
    /// Folds the counters of `other` into `self`.
    ///
    /// Packet and entry counters are additive; `purge_sweeps` merges as
    /// the **maximum**, because shards of a sharded deployment each
    /// sweep on the same schedule, advanced lazily to the last timestamp
    /// they saw — the furthest-advanced shard has run exactly the sweeps
    /// a single sequential filter would have.
    ///
    /// Note that when shards each enforce a `max_entries` cap, the caps
    /// apply per shard, so a sharded deployment tracks up to
    /// `N × max_entries` flows in total.
    pub fn merge(&mut self, other: &SpiStats) {
        self.outbound_packets += other.outbound_packets;
        self.inbound_packets += other.inbound_packets;
        self.inbound_hits += other.inbound_hits;
        self.inbound_misses += other.inbound_misses;
        self.dropped += other.dropped;
        self.purged_entries += other.purged_entries;
        self.purge_sweeps = self.purge_sweeps.max(other.purge_sweeps);
        self.untracked_flows += other.untracked_flows;
    }
}

impl MergeStats for SpiStats {
    fn merge(&mut self, other: &Self) {
        SpiStats::merge(self, other);
    }
}

/// The exact stateful-packet-inspection filter the paper benchmarks the
/// bitmap filter against (§5.3, Figure 8).
///
/// Policy is identical to the bitmap filter — outbound always passes and
/// creates state; inbound passes only with state, else it is dropped with
/// probability `P_d` — but the memory is an exact [`FlowTable`]: no false
/// positives, precise close tracking, and O(flows) storage plus periodic
/// O(flows) purge sweeps. Timer scheduling, uplink measurement, `P_d`
/// derivation, drop draws and observer dispatch come from the same
/// [`FilterEngine`](upbound_core::FilterEngine) the bitmap filter
/// embeds; a purge sweep is one engine tick.
///
/// Like the bitmap filter, it is generic over a
/// [`FilterObserver`](upbound_core::FilterObserver) (default
/// [`NoopObserver`](upbound_core::NoopObserver), which costs nothing);
/// purge sweeps are reported through the rotation hook.
#[derive(Debug, Clone)]
pub struct SpiFilter<O: FilterObserver = NoopObserver> {
    config: SpiConfig,
    table: FlowTable,
    engine: FilterEngine<O>,
    stats: SpiStats,
}

impl SpiFilter {
    /// Creates an unobserved filter from a configuration.
    pub fn new(config: SpiConfig) -> Self {
        SpiFilter::with_observer(config, NoopObserver)
    }
}

impl<O: FilterObserver> SpiFilter<O> {
    /// Creates a filter that reports decisions and purge sweeps to
    /// `observer`.
    pub fn with_observer(config: SpiConfig, observer: O) -> Self {
        let engine = FilterEngine::new(
            config.purge_interval,
            config.uplink_monitor(),
            config.drop_policy,
            config.rng_seed,
            observer,
        );
        Self {
            table: FlowTable::new(),
            engine,
            stats: SpiStats::default(),
            config,
        }
    }

    /// Rebinds the uplink measurement to a monitor shared with sibling
    /// shards, so `P_d` derives from the aggregate upload rate of the
    /// whole client network. Used by
    /// [`ShardedFilter`](upbound_core::ShardedFilter).
    pub fn with_shared_uplink(mut self, uplink: Arc<ThroughputMonitor>) -> Self {
        self.engine.share_uplink(uplink);
        self
    }

    /// The installed observer.
    pub fn observer(&self) -> &O {
        self.engine.observer()
    }

    /// The installed observer, mutably.
    pub fn observer_mut(&mut self) -> &mut O {
        self.engine.observer_mut()
    }

    /// The configuration in force.
    pub fn config(&self) -> &SpiConfig {
        &self.config
    }

    /// The underlying flow table (for memory accounting).
    pub fn table(&self) -> &FlowTable {
        &self.table
    }

    /// Running counters.
    pub fn stats(&self) -> SpiStats {
        self.stats
    }

    /// The uplink throughput monitor (owned, or shared with sibling
    /// shards).
    pub fn monitor(&self) -> &ThroughputMonitor {
        self.engine.monitor()
    }

    /// Runs any purge sweep that came due at or before `now`.
    pub fn advance(&mut self, now: Timestamp) {
        let SpiFilter {
            engine,
            table,
            stats,
            config,
        } = self;
        engine.advance_observed(now, |at, _| {
            let removed = table.purge(at, config.idle_timeout);
            stats.purged_entries += removed as u64;
            stats.purge_sweeps += 1;
        });
    }

    /// Records an outbound packet: creates/refreshes flow state. Outbound
    /// packets always pass.
    pub fn observe_outbound(&mut self, tuple: &FiveTuple, flags: Option<TcpFlags>, now: Timestamp) {
        self.advance(now);
        self.stats.outbound_packets += 1;
        let flags = if self.config.tcp_aware { flags } else { None };
        match self.config.max_entries {
            Some(cap) => {
                if !self.table.touch_outbound_capped(*tuple, flags, now, cap) {
                    self.stats.untracked_flows += 1;
                }
            }
            None => self.table.touch_outbound(*tuple, flags, now),
        }
        self.engine.observer_mut().on_outbound(tuple, now);
    }

    /// Checks an inbound packet against the flow table with explicit drop
    /// probability `p_d`.
    ///
    /// The miss draw is a deterministic function of
    /// `(seed, key, timestamp)` — see
    /// [`FilterEngine`](upbound_core::FilterEngine) — so replays and
    /// sharded runs reproduce exactly.
    pub fn check_inbound(
        &mut self,
        tuple: &FiveTuple,
        flags: Option<TcpFlags>,
        now: Timestamp,
        p_d: f64,
    ) -> Verdict {
        self.advance(now);
        self.stats.inbound_packets += 1;
        let outbound = tuple.inverse();
        let known = self
            .table
            .lookup(&outbound, now, self.config.idle_timeout)
            .is_some();
        let key = tuple.inbound_key(false).to_bytes();
        let verdict = if known {
            self.stats.inbound_hits += 1;
            let flags = if self.config.tcp_aware { flags } else { None };
            self.table.touch_inbound(&outbound, flags, now);
            Verdict::Pass
        } else {
            self.stats.inbound_misses += 1;
            // An SPI miss is a single table lookup, hence one draw.
            if self.engine.drop_draw(&key, now, 0, p_d) {
                self.stats.dropped += 1;
                Verdict::Drop
            } else {
                Verdict::Pass
            }
        };
        self.engine.notify_inbound(
            now,
            verdict,
            p_d,
            known,
            usize::from(!known),
            false,
            false,
            &key,
        );
        verdict
    }

    /// The drop probability Equation 1 yields for the current measured
    /// uplink throughput.
    pub fn drop_probability(&self, now: Timestamp) -> f64 {
        self.engine.drop_probability(now)
    }

    /// Full per-packet pipeline mirroring
    /// [`BitmapFilter::process_packet`](upbound_core::BitmapFilter::process_packet).
    pub fn process_packet(&mut self, packet: &Packet, direction: Direction) -> Verdict {
        let now = packet.ts();
        match direction {
            Direction::Outbound => {
                self.observe_outbound(&packet.tuple(), packet.tcp_flags(), now);
                self.engine.record_uplink(now, packet.wire_len() as u64);
                Verdict::Pass
            }
            Direction::Inbound => {
                let p_d = self.drop_probability(now);
                self.check_inbound(&packet.tuple(), packet.tcp_flags(), now, p_d)
            }
        }
    }

    /// Clears table, monitor, statistics, and timers.
    ///
    /// With a [shared uplink](Self::with_shared_uplink) this also clears
    /// the aggregate measurement for every sibling shard.
    pub fn reset(&mut self) {
        self.table.clear();
        self.stats = SpiStats::default();
        self.engine.reset();
    }
}

/// Encodes an optional TCP state machine position as one byte.
fn tcp_state_byte(state: Option<TcpConnState>) -> u8 {
    match state {
        None => 0,
        Some(TcpConnState::SynSent) => 1,
        Some(TcpConnState::Established) => 2,
        Some(TcpConnState::FinWait) => 3,
        Some(TcpConnState::Closed) => 4,
    }
}

/// Decodes [`tcp_state_byte`]'s encoding.
fn tcp_state_from_byte(b: u8) -> Result<Option<TcpConnState>, SnapshotError> {
    Ok(match b {
        0 => None,
        1 => Some(TcpConnState::SynSent),
        2 => Some(TcpConnState::Established),
        3 => Some(TcpConnState::FinWait),
        4 => Some(TcpConnState::Closed),
        _ => return Err(SnapshotError::Malformed("tcp state tag")),
    })
}

fn encode_addr(w: &mut ByteWriter, addr: SocketAddrV4) {
    w.put_slice(&addr.ip().octets());
    w.put_u16(addr.port());
}

fn decode_addr(r: &mut ByteReader<'_>) -> Result<SocketAddrV4, SnapshotError> {
    let octets = r.take(4)?;
    let ip = Ipv4Addr::new(octets[0], octets[1], octets[2], octets[3]);
    Ok(SocketAddrV4::new(ip, r.u16()?))
}

impl<O: FilterObserver> Snapshottable for SpiFilter<O> {
    const SNAPSHOT_KIND: u32 = 2;

    fn encode_snapshot(&self, w: &mut ByteWriter) {
        // Configuration guard: behavioral parameters only. The drop
        // policy is not guarded — `P_d` is supplied per call and an
        // operator may restart with a different limiter curve.
        w.put_u64(self.config.idle_timeout.as_micros());
        w.put_bool(self.config.tcp_aware);
        w.put_u64(self.config.rng_seed);
        w.put_u64(self.config.purge_interval.as_micros());
        match self.config.max_entries {
            Some(cap) => {
                w.put_bool(true);
                w.put_u64(cap as u64);
            }
            None => {
                w.put_bool(false);
                w.put_u64(0);
            }
        }
        // Engine tick phase (purge sweep schedule).
        let (ticks, next_tick) = self.engine.tick_phase();
        w.put_u64(ticks);
        w.put_u64(next_tick.as_micros());
        // Uplink measurement window.
        snapshot::encode_monitor(self.engine.monitor(), w);
        // Flow table. Entries are sorted by their wire encoding so the
        // same table always produces the same snapshot bytes.
        w.put_u64(self.table.peak_entries() as u64);
        w.put_u64(self.table.len() as u64);
        let mut entries: Vec<(&FiveTuple, &FlowEntry)> = self.table.entries().collect();
        entries.sort_by_key(|(t, _)| {
            (
                t.protocol().ip_number(),
                t.src().ip().octets(),
                t.src().port(),
                t.dst().ip().octets(),
                t.dst().port(),
            )
        });
        for (tuple, entry) in entries {
            w.put_u8(tuple.protocol().ip_number());
            encode_addr(w, tuple.src());
            encode_addr(w, tuple.dst());
            w.put_u64(entry.last_seen().as_micros());
            w.put_u8(tcp_state_byte(entry.tcp_state()));
        }
        // Running statistics.
        w.put_u64(self.stats.outbound_packets);
        w.put_u64(self.stats.inbound_packets);
        w.put_u64(self.stats.inbound_hits);
        w.put_u64(self.stats.inbound_misses);
        w.put_u64(self.stats.dropped);
        w.put_u64(self.stats.purged_entries);
        w.put_u64(self.stats.purge_sweeps);
        w.put_u64(self.stats.untracked_flows);
    }

    fn restore_snapshot(
        &mut self,
        r: &mut ByteReader<'_>,
        mode: RestoreMode,
    ) -> Result<(), SnapshotError> {
        if r.u64()? != self.config.idle_timeout.as_micros() {
            return Err(SnapshotError::ConfigMismatch("idle_timeout"));
        }
        if r.bool()? != self.config.tcp_aware {
            return Err(SnapshotError::ConfigMismatch("tcp_aware"));
        }
        if r.u64()? != self.config.rng_seed {
            return Err(SnapshotError::ConfigMismatch("rng_seed"));
        }
        if r.u64()? != self.config.purge_interval.as_micros() {
            return Err(SnapshotError::ConfigMismatch("purge_interval"));
        }
        let cap_set = r.bool()?;
        let cap = r.u64()?;
        if cap_set.then_some(cap as usize) != self.config.max_entries {
            return Err(SnapshotError::ConfigMismatch("max_entries"));
        }
        let ticks = r.u64()?;
        let next_tick = Timestamp::from_micros(r.u64()?);
        self.engine.restore_tick_phase(ticks, next_tick);
        snapshot::restore_monitor(self.engine.monitor(), r)?;
        let peak = r.u64()? as usize;
        let count = r.u64()?;
        let mut entries = Vec::with_capacity(if mode == RestoreMode::Full {
            count as usize
        } else {
            0
        });
        for _ in 0..count {
            let protocol = match r.u8()? {
                6 => Protocol::Tcp,
                17 => Protocol::Udp,
                _ => return Err(SnapshotError::Malformed("protocol number")),
            };
            let src = decode_addr(r)?;
            let dst = decode_addr(r)?;
            let last_seen = Timestamp::from_micros(r.u64()?);
            let tcp_state = tcp_state_from_byte(r.u8()?)?;
            if mode == RestoreMode::Full {
                entries.push((
                    FiveTuple::new(protocol, src, dst),
                    FlowEntry::from_parts(last_seen, tcp_state),
                ));
            }
        }
        if mode == RestoreMode::Full {
            self.table.restore(entries, peak);
        }
        self.stats = SpiStats {
            outbound_packets: r.u64()?,
            inbound_packets: r.u64()?,
            inbound_hits: r.u64()?,
            inbound_misses: r.u64()?,
            dropped: r.u64()?,
            purged_entries: r.u64()?,
            purge_sweeps: r.u64()?,
            untracked_flows: r.u64()?,
        };
        Ok(())
    }

    fn start_cold_at(&mut self, epoch: Timestamp) {
        // An exact filter has no warm-up grace: a cold table simply
        // forgets pre-crash flows, and their responses are treated as
        // unsolicited — the bounded-false-drop cost of a stale snapshot.
        self.table.clear();
        self.engine.observer_mut().on_cold_start(epoch, epoch);
    }
}

impl<O: FilterObserver> PacketFilter for SpiFilter<O> {
    type Stats = SpiStats;

    fn decide(&mut self, packet: &Packet, direction: Direction) -> Verdict {
        self.process_packet(packet, direction)
    }

    fn decide_batch(&mut self, packets: &[(Packet, Direction)], verdicts: &mut Vec<Verdict>) {
        // Purge-sweep checks are amortized by `FilterEngine::tick_due`:
        // between sweeps the per-packet `advance` reduces to one
        // timestamp comparison. Table lookups and miss draws are pure
        // functions of the packet and must run per packet for verdict
        // identity with the sequential path.
        verdicts.reserve(packets.len());
        for (packet, direction) in packets {
            verdicts.push(self.process_packet(packet, *direction));
        }
    }

    fn advance(&mut self, now: Timestamp) {
        SpiFilter::advance(self, now);
    }

    fn stats(&self) -> SpiStats {
        SpiFilter::stats(self)
    }

    fn memory_bytes(&self) -> usize {
        self.table.approx_memory_bytes()
    }

    fn drop_probability(&self, now: Timestamp) -> f64 {
        SpiFilter::drop_probability(self, now)
    }

    fn name(&self) -> &str {
        "spi"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upbound_net::{Protocol, TimeDelta};

    fn conn(port: u16) -> FiveTuple {
        FiveTuple::new(
            Protocol::Tcp,
            format!("10.0.0.1:{port}").parse().unwrap(),
            "192.0.2.1:80".parse().unwrap(),
        )
    }

    fn stranger(port: u16) -> FiveTuple {
        FiveTuple::new(
            Protocol::Tcp,
            format!("198.51.100.7:{port}").parse().unwrap(),
            "10.0.0.1:6881".parse().unwrap(),
        )
    }

    fn spi() -> SpiFilter {
        SpiFilter::new(SpiConfig::default())
    }

    #[test]
    fn response_passes_and_stranger_drops() {
        let mut f = spi();
        let t = Timestamp::from_secs(0.0);
        f.observe_outbound(&conn(4000), Some(TcpFlags::SYN), t);
        assert_eq!(
            f.check_inbound(
                &conn(4000).inverse(),
                Some(TcpFlags::SYN | TcpFlags::ACK),
                t,
                1.0
            ),
            Verdict::Pass
        );
        assert_eq!(
            f.check_inbound(&stranger(5000), Some(TcpFlags::SYN), t, 1.0),
            Verdict::Drop
        );
        let s = f.stats();
        assert_eq!((s.inbound_hits, s.inbound_misses, s.dropped), (1, 1, 1));
    }

    #[test]
    fn idle_timeout_expires_state() {
        let mut f = spi();
        f.observe_outbound(&conn(4000), None, Timestamp::from_secs(0.0));
        assert_eq!(
            f.check_inbound(
                &conn(4000).inverse(),
                None,
                Timestamp::from_secs(239.0),
                1.0
            ),
            Verdict::Pass
        );
        // Refreshed by the inbound packet at 239 s; idle again until 500 s.
        assert_eq!(
            f.check_inbound(
                &conn(4000).inverse(),
                None,
                Timestamp::from_secs(500.0),
                1.0
            ),
            Verdict::Drop
        );
    }

    #[test]
    fn tcp_close_removes_state_immediately() {
        let mut f = spi();
        let c = conn(4100);
        let t = Timestamp::from_secs(0.0);
        f.observe_outbound(&c, Some(TcpFlags::SYN), t);
        f.check_inbound(&c.inverse(), Some(TcpFlags::SYN | TcpFlags::ACK), t, 1.0);
        f.observe_outbound(&c, Some(TcpFlags::ACK), t);
        // FIN exchange.
        f.observe_outbound(&c, Some(TcpFlags::FIN | TcpFlags::ACK), t);
        f.check_inbound(&c.inverse(), Some(TcpFlags::FIN | TcpFlags::ACK), t, 1.0);
        // Connection closed: a late packet finds no state.
        assert_eq!(
            f.check_inbound(
                &c.inverse(),
                Some(TcpFlags::ACK),
                Timestamp::from_secs(1.0),
                1.0
            ),
            Verdict::Drop
        );
    }

    #[test]
    fn tcp_unaware_mode_ignores_close() {
        let mut f = SpiFilter::new(SpiConfig {
            tcp_aware: false,
            ..SpiConfig::default()
        });
        let c = conn(4200);
        let t = Timestamp::from_secs(0.0);
        f.observe_outbound(&c, Some(TcpFlags::RST), t);
        assert_eq!(
            f.check_inbound(&c.inverse(), Some(TcpFlags::ACK), t, 1.0),
            Verdict::Pass
        );
    }

    #[test]
    fn purge_sweeps_run_on_schedule() {
        let mut f = spi();
        f.observe_outbound(&conn(1), None, Timestamp::from_secs(0.0));
        f.advance(Timestamp::from_secs(100.0));
        assert_eq!(f.stats().purge_sweeps, 3); // at 30, 60, 90
                                               // Entry still fresh relative to 240 s timeout.
        assert_eq!(f.table().len(), 1);
        f.advance(Timestamp::from_secs(400.0));
        assert_eq!(f.table().len(), 0);
        assert!(f.stats().purged_entries >= 1);
    }

    #[test]
    fn memory_grows_linearly_with_flows() {
        let mut f = spi();
        let t = Timestamp::from_secs(0.0);
        for p in 0..1000u16 {
            f.observe_outbound(&conn(10_000 + p), None, t);
        }
        assert_eq!(f.table().len(), 1000);
        assert_eq!(f.table().peak_entries(), 1000);
        assert!(f.table().approx_memory_bytes() >= 1000 * 32);
    }

    #[test]
    fn process_packet_counts_uplink_only_on_outbound() {
        let mut f = spi();
        let pkt = Packet::tcp(
            Timestamp::from_secs(0.5),
            conn(4300),
            TcpFlags::ACK,
            vec![0u8; 500],
        );
        f.process_packet(&pkt, Direction::Outbound);
        assert!(f.monitor().total_bytes() > 0);
        let inbound = Packet::tcp(
            Timestamp::from_secs(0.6),
            conn(4300).inverse(),
            TcpFlags::ACK,
            vec![0u8; 500],
        );
        let before = f.monitor().total_bytes();
        assert_eq!(
            f.process_packet(&inbound, Direction::Inbound),
            Verdict::Pass
        );
        assert_eq!(f.monitor().total_bytes(), before);
    }

    #[test]
    fn pd_zero_never_drops() {
        let mut f = spi();
        let t = Timestamp::from_secs(0.0);
        for p in 0..100u16 {
            assert_eq!(
                f.check_inbound(&stranger(1000 + p), None, t, 0.0),
                Verdict::Pass
            );
        }
        assert_eq!(f.stats().dropped, 0);
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut f = spi();
        let t = Timestamp::from_secs(0.0);
        f.observe_outbound(&conn(1), None, t);
        f.reset();
        assert_eq!(f.stats(), SpiStats::default());
        assert!(f.table().is_empty());
        assert_eq!(
            f.check_inbound(&conn(1).inverse(), None, t, 1.0),
            Verdict::Drop
        );
    }

    #[test]
    fn table_cap_causes_state_exhaustion() {
        let mut f = SpiFilter::new(SpiConfig {
            max_entries: Some(10),
            ..SpiConfig::default()
        });
        let t = Timestamp::from_secs(0.0);
        for p in 0..20u16 {
            f.observe_outbound(&conn(10_000 + p), None, t);
        }
        assert_eq!(f.table().len(), 10);
        assert_eq!(f.stats().untracked_flows, 10);
        // Tracked flows answer; untracked flows' responses are dropped —
        // the conntrack-full failure mode.
        assert_eq!(
            f.check_inbound(&conn(10_000).inverse(), None, t, 1.0),
            Verdict::Pass
        );
        assert_eq!(
            f.check_inbound(&conn(10_015).inverse(), None, t, 1.0),
            Verdict::Drop
        );
    }

    #[test]
    fn cap_still_refreshes_existing_flows() {
        let mut f = SpiFilter::new(SpiConfig {
            max_entries: Some(1),
            ..SpiConfig::default()
        });
        f.observe_outbound(&conn(1), None, Timestamp::from_secs(0.0));
        // Refresh of the same flow is never counted as exhaustion.
        f.observe_outbound(&conn(1), None, Timestamp::from_secs(100.0));
        assert_eq!(f.stats().untracked_flows, 0);
        assert_eq!(
            f.check_inbound(&conn(1).inverse(), None, Timestamp::from_secs(200.0), 1.0),
            Verdict::Pass
        );
    }

    #[test]
    fn deterministic_with_seed() {
        let run = |seed| {
            let mut f = SpiFilter::new(SpiConfig {
                rng_seed: seed,
                ..SpiConfig::default()
            });
            (0..100u16)
                .map(|p| f.check_inbound(&stranger(1000 + p), None, Timestamp::ZERO, 0.5))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn merge_sums_counters_and_maxes_sweeps() {
        let mut a = SpiStats {
            outbound_packets: 5,
            inbound_packets: 4,
            inbound_hits: 2,
            inbound_misses: 2,
            dropped: 1,
            purged_entries: 3,
            purge_sweeps: 6,
            untracked_flows: 1,
        };
        let b = SpiStats {
            outbound_packets: 2,
            inbound_packets: 3,
            inbound_hits: 1,
            inbound_misses: 2,
            dropped: 2,
            purged_entries: 4,
            purge_sweeps: 4,
            untracked_flows: 0,
        };
        a.merge(&b);
        assert_eq!(
            a,
            SpiStats {
                outbound_packets: 7,
                inbound_packets: 7,
                inbound_hits: 3,
                inbound_misses: 4,
                dropped: 3,
                purged_entries: 7,
                purge_sweeps: 6,
                untracked_flows: 1,
            }
        );
    }

    #[test]
    fn snapshot_roundtrips_table_and_stats() {
        let mut f = spi();
        let t0 = Timestamp::from_secs(10.0);
        for p in 0..50u16 {
            f.observe_outbound(&conn(20_000 + p), Some(TcpFlags::SYN), t0);
        }
        f.check_inbound(&conn(20_000).inverse(), Some(TcpFlags::ACK), t0, 1.0);
        f.check_inbound(&stranger(9), None, t0, 1.0);
        let bytes = f.snapshot_bytes(t0);

        let mut g = spi();
        let outcome = g
            .restore_bytes(&bytes, t0, TimeDelta::from_secs(240.0))
            .unwrap();
        assert_eq!(outcome, upbound_core::RestoreOutcome::Warm);
        assert_eq!(g.stats(), f.stats());
        assert_eq!(g.table().len(), f.table().len());
        assert_eq!(g.table().peak_entries(), f.table().peak_entries());
        // Restored state answers exactly like the original.
        for p in 0..50u16 {
            assert_eq!(
                g.check_inbound(&conn(20_000 + p).inverse(), None, t0, 1.0),
                Verdict::Pass,
            );
        }
        assert_eq!(g.check_inbound(&stranger(10), None, t0, 1.0), Verdict::Drop);
    }

    #[test]
    fn snapshot_bytes_are_deterministic() {
        let build = || {
            let mut f = spi();
            for p in 0..100u16 {
                f.observe_outbound(
                    &conn(30_000 + p),
                    Some(TcpFlags::SYN),
                    Timestamp::from_secs(1.0),
                );
            }
            f
        };
        // HashMap iteration order varies between instances; the sorted
        // encoding must not.
        assert_eq!(
            build().snapshot_bytes(Timestamp::from_secs(1.0)),
            build().snapshot_bytes(Timestamp::from_secs(1.0)),
        );
    }

    #[test]
    fn stale_snapshot_restores_stats_with_cold_table() {
        let mut f = spi();
        let t0 = Timestamp::from_secs(0.0);
        f.observe_outbound(&conn(4000), None, t0);
        let bytes = f.snapshot_bytes(t0);

        let mut g = spi();
        let late = Timestamp::from_secs(10_000.0);
        let outcome = g
            .restore_bytes(&bytes, late, TimeDelta::from_secs(240.0))
            .unwrap();
        assert_eq!(outcome, upbound_core::RestoreOutcome::Cold);
        assert_eq!(g.stats().outbound_packets, 1);
        assert!(g.table().is_empty(), "stale table must start cold");
        assert_eq!(
            g.check_inbound(&conn(4000).inverse(), None, late, 1.0),
            Verdict::Drop,
        );
    }

    #[test]
    fn snapshot_rejects_mismatched_config() {
        let f = spi();
        let bytes = f.snapshot_bytes(Timestamp::ZERO);
        let mut other = SpiFilter::new(SpiConfig {
            max_entries: Some(64),
            ..SpiConfig::default()
        });
        assert!(matches!(
            other.restore_bytes(&bytes, Timestamp::ZERO, TimeDelta::from_secs(240.0)),
            Err(upbound_core::SnapshotError::ConfigMismatch("max_entries")),
        ));
    }

    #[test]
    fn snapshot_rejects_corruption() {
        let f = spi();
        let mut bytes = f.snapshot_bytes(Timestamp::ZERO);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let mut g = spi();
        assert!(g
            .restore_bytes(&bytes, Timestamp::ZERO, TimeDelta::from_secs(240.0))
            .is_err());
    }

    #[test]
    fn merge_with_default_is_identity() {
        let s = SpiStats {
            outbound_packets: 1,
            inbound_packets: 2,
            inbound_hits: 1,
            inbound_misses: 1,
            dropped: 1,
            purged_entries: 5,
            purge_sweeps: 3,
            untracked_flows: 2,
        };
        let mut merged = s;
        merged.merge(&SpiStats::default());
        assert_eq!(merged, s);
    }
}
