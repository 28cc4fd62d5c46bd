//! Integration: the multi-tenant subscriber engine against a
//! per-tenant oracle.
//!
//! The [`SubscriberTable`] promises that multi-tenancy is purely an
//! engineering optimization — LPM dispatch, lazy activation, arena
//! eviction, and incremental checkpoints must never change what any
//! single subscriber's standalone filter would have decided. The
//! property test here scripts a random interleaving of packets
//! (including inter-tenant and transit traffic over overlapping
//! prefixes) and timer advances against both the table and a bank of
//! independently-driven [`BitmapFilter`]s, comparing every verdict and
//! every statistics counter — with a full checkpoint round-trip (which
//! must preserve parked and dormant tenants) wedged into the middle.

use std::net::Ipv4Addr;

use proptest::prelude::*;
use upbound::core::{
    BitmapFilter, BitmapFilterConfig, PacketFilter, RestoreOutcome, Snapshottable, SubscriberState,
    SubscriberTable, Verdict,
};
use upbound::net::{Cidr, Direction, FiveTuple, Packet, Protocol, TcpFlags, TimeDelta, Timestamp};

/// Overlapping prefixes: tenant 1 nests inside tenant 0, tenant 2
/// inside tenant 1 — longest prefix must win at every level.
const PREFIXES: [&str; 4] = ["10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "192.168.0.0/16"];

/// {4 × 2^10} rotated every 1 s → T_e = 4 s, 512 bytes per tenant.
fn tenant_config(seed: u64) -> BitmapFilterConfig {
    BitmapFilterConfig::builder()
        .vector_bits(10)
        .vectors(4)
        .hash_functions(3)
        .rotate_every_secs(1.0)
        .rng_seed(seed)
        .build()
        .expect("static config is valid")
}

fn cidrs() -> Vec<Cidr> {
    PREFIXES
        .iter()
        .map(|p| p.parse().expect("static prefix is valid"))
        .collect()
}

fn provisioned_table() -> SubscriberTable {
    let mut table = SubscriberTable::new();
    for (i, cidr) in cidrs().into_iter().enumerate() {
        table
            .add_subscriber(cidr, tenant_config(1_000 + i as u64))
            .expect("prefixes are distinct");
    }
    // Below T_e; the table must clamp up to T_e = 4 s so parking stays
    // verdict-lossless.
    table.evict_idle_after(TimeDelta::from_secs(2.0));
    table
}

/// The oracle: one standalone filter per tenant, materialized at the
/// tenant's first packet exactly like the table's lazy activation, and
/// advanced on the same timer ticks. No eviction, no arena, no LPM
/// trie — just the paper's single-network filter, per tenant.
struct Oracle {
    cidrs: Vec<Cidr>,
    filters: Vec<Option<BitmapFilter>>,
    anomalies: u64,
}

impl Oracle {
    fn new() -> Self {
        let cidrs = cidrs();
        let filters = (0..cidrs.len()).map(|_| None).collect();
        Self {
            cidrs,
            filters,
            anomalies: 0,
        }
    }

    fn classify(&self, addr: Ipv4Addr) -> Option<usize> {
        self.cidrs
            .iter()
            .enumerate()
            .filter(|(_, c)| c.contains(addr))
            .max_by_key(|(_, c)| c.prefix_len())
            .map(|(i, _)| i)
    }

    fn decide_leg(&mut self, id: usize, packet: &Packet, direction: Direction) -> Verdict {
        let filter = self.filters[id]
            .get_or_insert_with(|| BitmapFilter::new(tenant_config(1_000 + id as u64)));
        let verdict = filter.decide(packet, direction);
        if direction == Direction::Outbound && verdict == Verdict::Drop {
            self.anomalies += 1;
            return Verdict::Pass;
        }
        verdict
    }

    fn process(&mut self, packet: &Packet) -> Verdict {
        if let Some(id) = self.classify(*packet.tuple().src().ip()) {
            return self.decide_leg(id, packet, Direction::Outbound);
        }
        if let Some(id) = self.classify(*packet.tuple().dst().ip()) {
            return self.decide_leg(id, packet, Direction::Inbound);
        }
        Verdict::Pass
    }

    fn advance(&mut self, now: Timestamp) {
        for f in self.filters.iter_mut().flatten() {
            f.advance(now);
        }
    }
}

/// One scripted event; timestamps accumulate across events.
#[derive(Debug, Clone)]
enum Event {
    Packet {
        src: u8,
        dst: u8,
        host: u8,
        port: u16,
        dt_micros: u32,
    },
    Advance {
        dt_micros: u32,
    },
}

/// Address classes 0..=2 hit the nested tenants, 3 the disjoint one,
/// 4..=5 are transit space.
fn addr_of(class: u8, host: u8) -> Ipv4Addr {
    match class % 6 {
        0 => Ipv4Addr::new(10, 9, 9, host),
        1 => Ipv4Addr::new(10, 1, 9, host),
        2 => Ipv4Addr::new(10, 1, 2, host),
        3 => Ipv4Addr::new(192, 168, 3, host),
        4 => Ipv4Addr::new(8, 8, 8, host),
        _ => Ipv4Addr::new(172, 16, 0, host),
    }
}

fn arb_event() -> impl Strategy<Value = Event> {
    prop_oneof![
        // Packet gaps stay under a rotation; dedicated Advance events
        // supply the long idle windows that trigger eviction.
        (0u8..6, 0u8..6, any::<u8>(), any::<u16>(), 0u32..400_000).prop_map(
            |(src, dst, host, port, dt_micros)| Event::Packet {
                src,
                dst,
                host,
                port,
                dt_micros,
            }
        ),
        (400_000u32..3_000_000).prop_map(|dt_micros| Event::Advance { dt_micros }),
    ]
}

fn packet_at(ev: &Event, now: Timestamp) -> Option<Packet> {
    let Event::Packet {
        src,
        dst,
        host,
        port,
        ..
    } = ev
    else {
        return None;
    };
    let src_addr = std::net::SocketAddrV4::new(addr_of(*src, *host), 1 + *port);
    let dst_addr = std::net::SocketAddrV4::new(addr_of(dst.wrapping_add(1), *host), 6_881);
    Some(Packet::tcp(
        now,
        FiveTuple::new(Protocol::Tcp, src_addr, dst_addr),
        TcpFlags::ACK,
        &[][..],
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Verdict-for-verdict and counter-for-counter equivalence between
    /// the table (with eviction enabled and a checkpoint round-trip at
    /// the midpoint) and the per-tenant oracle.
    #[test]
    fn table_is_equivalent_to_standalone_filters(events in proptest::collection::vec(arb_event(), 1..120)) {
        let mut table = provisioned_table();
        let mut oracle = Oracle::new();
        let mut now = Timestamp::ZERO;
        let stale_after = TimeDelta::from_secs(4.0); // T_e

        let mid = events.len() / 2;
        for (i, ev) in events.iter().enumerate() {
            if i == mid {
                // Checkpoint round-trip mid-stream: active, parked, and
                // dormant tenants must all survive into a freshly
                // provisioned table with no observable difference.
                table.advance(now);
                oracle.advance(now);
                let bytes = table.snapshot_bytes(now);
                let mut restored = provisioned_table();
                let outcome = restored.restore_bytes(&bytes, now, stale_after);
                prop_assert_eq!(outcome.expect("restore succeeds"), RestoreOutcome::Warm);
                table = restored;
            }
            match ev {
                Event::Packet { dt_micros, .. } => {
                    now = Timestamp::from_micros(now.as_micros() + u64::from(*dt_micros));
                    let packet = packet_at(ev, now).expect("packet event");
                    let got = table.process_packet(&packet);
                    let want = oracle.process(&packet);
                    prop_assert_eq!(got, want, "verdict diverged at event {}", i);
                }
                Event::Advance { dt_micros } => {
                    now = Timestamp::from_micros(now.as_micros() + u64::from(*dt_micros));
                    table.advance(now);
                    oracle.advance(now);
                }
            }
        }

        for id in 0..PREFIXES.len() {
            let got = table.subscriber_stats(id);
            let want = oracle.filters[id].as_ref().map(|f| f.stats());
            prop_assert_eq!(got, want, "stats diverged for tenant {}", id);
        }
        prop_assert_eq!(table.outbound_drop_anomalies(), oracle.anomalies);
    }
}

/// Resident memory tracks the *active* tenant set, not the provisioned
/// count: 1 000 provisioned tenants cost nothing until their packets
/// arrive.
#[test]
fn resident_memory_is_o_active_not_o_provisioned() {
    let config = tenant_config(7);
    let mut table = SubscriberTable::new();
    for i in 0..1_000usize {
        let cidr = Cidr::new(Ipv4Addr::new(10, (i >> 8) as u8, (i & 255) as u8, 0), 24)
            .expect("/24 is valid");
        table
            .add_subscriber(cidr, config.clone())
            .expect("distinct");
    }
    assert_eq!(table.memory_bytes(), 0);

    for i in [3usize, 400, 999] {
        let src = std::net::SocketAddrV4::new(
            Ipv4Addr::new(10, (i >> 8) as u8, (i & 255) as u8, 9),
            5_000,
        );
        let dst = std::net::SocketAddrV4::new(Ipv4Addr::new(203, 0, 113, 9), 6_881);
        let packet = Packet::tcp(
            Timestamp::from_secs(1.0),
            FiveTuple::new(Protocol::Tcp, src, dst),
            TcpFlags::ACK,
            &[][..],
        );
        assert_eq!(table.process_packet(&packet), Verdict::Pass);
    }
    assert_eq!(table.active_subscribers(), 3);
    assert_eq!(table.memory_bytes(), 3 * config.memory_bytes());
}

/// An incremental checkpoint after touching <1% of tenants re-serializes
/// only the dirty ones — verified by the serialized tenant count and the
/// snapshot byte counts — and restores onto the previous checkpoint to
/// the exact same state a full snapshot would give.
#[test]
fn incremental_checkpoint_reserializes_only_dirty_tenants() {
    let config = tenant_config(7);
    let mut table = SubscriberTable::new();
    for i in 0..500usize {
        let cidr = Cidr::new(Ipv4Addr::new(10, (i >> 8) as u8, (i & 255) as u8, 0), 24)
            .expect("/24 is valid");
        table
            .add_subscriber(cidr, config.clone())
            .expect("distinct");
    }
    let pkt_for = |i: usize, t: f64| {
        let src = std::net::SocketAddrV4::new(
            Ipv4Addr::new(10, (i >> 8) as u8, (i & 255) as u8, 9),
            5_000,
        );
        let dst = std::net::SocketAddrV4::new(Ipv4Addr::new(203, 0, 113, 9), 6_881);
        Packet::tcp(
            Timestamp::from_secs(t),
            FiveTuple::new(Protocol::Tcp, src, dst),
            TcpFlags::ACK,
            &[][..],
        )
    };
    for i in 0..500 {
        table.process_packet(&pkt_for(i, 1.0));
    }

    // Base checkpoint: everything is dirty, so everything serializes.
    let t1 = Timestamp::from_secs(1.5);
    let full = table.snapshot_bytes(t1);
    assert_eq!(table.last_checkpoint_tenants(), 500);
    let mut follower = {
        let mut t = SubscriberTable::new();
        for i in 0..500usize {
            let cidr = Cidr::new(Ipv4Addr::new(10, (i >> 8) as u8, (i & 255) as u8, 0), 24)
                .expect("/24 is valid");
            t.add_subscriber(cidr, config.clone()).expect("distinct");
        }
        t
    };
    let stale_after = TimeDelta::from_secs(4.0);
    assert_eq!(
        follower
            .restore_bytes(&full, t1, stale_after)
            .expect("full restore succeeds"),
        RestoreOutcome::Warm
    );

    // Touch 4 of 500 tenants (<1%), then checkpoint incrementally.
    for i in [10usize, 20, 30, 40] {
        table.process_packet(&pkt_for(i, 2.0));
    }
    assert_eq!(table.dirty_subscribers(), 4);
    let t2 = Timestamp::from_secs(2.5);
    let delta = table.delta_bytes(t2);
    assert_eq!(table.last_checkpoint_tenants(), 4);
    assert!(
        delta.len() * 50 < full.len(),
        "delta of 4/500 dirty tenants should be far smaller than a full \
         snapshot: {} vs {} bytes",
        delta.len(),
        full.len()
    );

    // Applying the delta to the follower reproduces the leader exactly.
    assert_eq!(
        follower
            .restore_delta_bytes(&delta, t2, stale_after)
            .expect("delta restore succeeds"),
        RestoreOutcome::Warm
    );
    for id in 0..500 {
        assert_eq!(
            follower.subscriber_stats(id),
            table.subscriber_stats(id),
            "tenant {id} diverged after the delta"
        );
    }
    let probe = pkt_for(10, 2.6);
    assert_eq!(
        follower.process_packet(&probe),
        table.process_packet(&probe)
    );
}

/// Eviction and reactivation round-trip through a checkpoint: a tenant
/// parked before the snapshot comes back parked, reactivates from the
/// arena on its next packet, and decides exactly as if it had never
/// been evicted.
#[test]
fn eviction_survives_checkpoint_and_reactivates_losslessly() {
    let mut table = provisioned_table();
    let mut oracle = Oracle::new();
    let mk = |src: Ipv4Addr, dst: Ipv4Addr, t: f64| {
        Packet::tcp(
            Timestamp::from_secs(t),
            FiveTuple::new(
                Protocol::Tcp,
                std::net::SocketAddrV4::new(src, 5_000),
                std::net::SocketAddrV4::new(dst, 6_881),
            ),
            TcpFlags::ACK,
            &[][..],
        )
    };
    let inside = Ipv4Addr::new(10, 1, 2, 9); // tenant 2 (most specific)
    let remote = Ipv4Addr::new(8, 8, 8, 8);

    // Touch the tenant, then go idle past T_e so it parks.
    for (p, t) in [
        (mk(inside, remote, 0.5), 0.5),
        (mk(remote, inside, 0.9), 0.9),
    ] {
        assert_eq!(table.process_packet(&p), oracle.process(&p));
        let _ = t;
    }
    let idle = Timestamp::from_secs(6.0);
    table.advance(idle);
    oracle.advance(idle);
    assert_eq!(table.subscriber_state(2), Some(SubscriberState::Parked));

    // Checkpoint while parked; restore into a fresh table.
    let bytes = table.snapshot_bytes(idle);
    let mut restored = provisioned_table();
    assert_eq!(
        restored
            .restore_bytes(&bytes, idle, TimeDelta::from_secs(4.0))
            .expect("restore succeeds"),
        RestoreOutcome::Warm
    );
    assert_eq!(restored.subscriber_state(2), Some(SubscriberState::Parked));
    assert_eq!(restored.subscriber_memory_bytes(2), Some(0));

    // Reactivation: verdicts and stats match the never-evicted oracle.
    for t in [61, 62, 63, 64, 65] {
        let out = mk(inside, remote, t as f64 / 10.0 + 6.0);
        assert_eq!(restored.process_packet(&out), oracle.process(&out));
        let inb = mk(remote, inside, t as f64 / 10.0 + 6.05);
        assert_eq!(restored.process_packet(&inb), oracle.process(&inb));
    }
    assert_eq!(restored.subscriber_state(2), Some(SubscriberState::Active));
    assert_eq!(
        restored.subscriber_stats(2),
        oracle.filters[2].as_ref().map(|f| f.stats())
    );
}

/// A campus trace over two active tenants, one provisioned-but-idle
/// tenant and transit traffic, labeled with the table's classifier. The
/// second tenant falls silent from 10 s to 20 s, past its idle-eviction
/// threshold.
fn labeled_campus(table: &SubscriberTable) -> Vec<(Packet, Direction)> {
    let trace = upbound::traffic::generate(
        &upbound::traffic::TraceConfig::builder()
            .duration_secs(30.0)
            .flow_rate_per_sec(20.0)
            .seed(11)
            .build()
            .expect("valid trace config"),
    );
    let classifier = table.classifier();
    let silent = |p: &Packet| {
        let (tuple, t) = (p.tuple(), p.ts().as_secs_f64());
        let tenant = [tuple.src(), tuple.dst()].map(|a| classifier.subscriber_of(*a.ip()));
        (10.0..20.0).contains(&t) && tenant.contains(&Some(1))
    };
    trace
        .packets
        .into_iter()
        .filter(|lp| !silent(&lp.packet))
        .map(|lp| {
            let direction = classifier.direction_of(&lp.packet);
            (lp.packet, direction)
        })
        .collect()
}

/// Campus tenants with tight thresholds, so both drop classes and the
/// blocked-σ store are exercised; eviction is on, so the bank parks
/// tenants the replay never parks.
fn campus_table() -> SubscriberTable {
    let config = |low_mbps: f64, high_mbps: f64, seed: u64| {
        BitmapFilterConfig::builder()
            .vector_bits(16)
            .rotate_every_secs(2.0)
            .drop_policy(
                upbound::core::DropPolicy::new(low_mbps * 1e6, high_mbps * 1e6)
                    .expect("valid policy"),
            )
            .rng_seed(seed)
            .build()
            .expect("valid config")
    };
    let mut table = SubscriberTable::new();
    for (prefix, tenant) in [
        ("10.0.0.0/25", config(0.5, 2.0, 1)),
        ("10.0.0.128/25", config(0.2, 1.0, 2)),
        ("10.9.0.0/16", config(0.5, 2.0, 3)),
    ] {
        let cidr = prefix.parse().expect("static prefix is valid");
        table
            .add_subscriber(cidr, tenant)
            .expect("prefixes are distinct");
    }
    table.evict_idle_after(TimeDelta::from_secs(8.0));
    table
}

/// `serve_with` over a [`TenantBank`](upbound::sim::TenantBank) decides
/// exactly what the replay engine decides through the same table: the
/// same drops, blocked connections, uplink before and after filtering,
/// merged counters and per-tenant counters, with the blocked-σ store on
/// and off and at every batch size.
#[test]
fn tenant_bank_serve_matches_the_replay_engine() {
    use upbound::net::{pcap::IngestStats, BufferedSource};
    use upbound::sim::{
        PipelineConfig, PipelineRunner, ReplayConfig, ReplayEngine, ServeControl, TenantBank,
    };

    let packets = labeled_campus(&campus_table());
    let outbound = packets
        .iter()
        .filter(|(_, d)| *d == Direction::Outbound)
        .count() as u64;
    let last = packets.iter().map(|(p, _)| p.ts()).max().expect("packets");
    for block in [true, false] {
        for batch_size in [1, 7, 64] {
            let label = format!("block={block} batch={batch_size}");
            let mut replayed = campus_table();
            let replay = ReplayEngine::new(ReplayConfig {
                block_connections: block,
                batch_size,
                ..ReplayConfig::default()
            })
            .run_iter(packets.iter().map(|(p, d)| (p, *d)), &mut replayed);
            // The bank advances the table after every run; bring the
            // replayed table to the same instant.
            replayed.advance(last);

            let bank = TenantBank::new(campus_table(), TimeDelta::from_secs(8.0));
            let mut source = BufferedSource::new(packets.clone(), IngestStats::default());
            let report =
                PipelineRunner::new("10.0.0.0/16".parse().expect("cidr"), tenant_config(0))
                    .block_connections(block)
                    .pipeline_config(PipelineConfig { batch_size })
                    .serve_with(&bank, &mut source, &ServeControl::new(), |_, _| Ok(()))
                    .expect("serve");
            let served = bank.table();

            assert!(replay.total_dropped_packets > 0, "{label}: nothing dropped");
            let (reuses, _) = served.arena_counters();
            assert!(reuses > 0, "{label}: the silent tenant never parked");
            assert_eq!(report.packets, replay.total_packets, "{label}: packets");
            // `serve` also counts the suppressed outbound packets of
            // blocked connections as drops.
            let blocked_outbound = outbound - report.filter_stats.outbound_packets;
            assert_eq!(
                report.dropped - blocked_outbound,
                replay.total_dropped_packets,
                "{label}: drops"
            );
            assert_eq!(
                report.blocked_connections, replay.blocked_connections,
                "{label}: blocked connections"
            );
            assert_eq!(
                report.uplink_offered_bits as f64,
                replay.pre_uplink.total(),
                "{label}: offered uplink"
            );
            assert_eq!(
                report.uplink_kept_bits as f64,
                replay.post_uplink.total(),
                "{label}: kept uplink"
            );
            assert_eq!(
                report.filter_stats,
                replayed.merged_stats(),
                "{label}: merged stats"
            );
            assert_eq!(
                served.per_subscriber_stats(),
                replayed.per_subscriber_stats(),
                "{label}: per-tenant stats"
            );
        }
    }
}
