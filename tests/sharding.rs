//! Property tests for the sharded filter's determinism contract:
//! driven sequentially, a [`ShardedFilter`] with any shard count
//! produces the exact verdict stream and merged statistics of one
//! sequential [`BitmapFilter`] — for drop-all, RED, and hole-punching
//! configurations alike.
//!
//! [`ShardedFilter`]: upbound::core::ShardedFilter
//! [`BitmapFilter`]: upbound::core::BitmapFilter

use proptest::prelude::*;
use std::sync::Arc;
use upbound::core::{
    BitmapFilter, BitmapFilterConfig, DropPolicy, FilterStats, FlowHash, ShardedFilter, Verdict,
};
use upbound::net::{Direction, FiveTuple, Packet, Protocol, TcpFlags, Timestamp};

/// Shard counts under test: the degenerate single-lock case, powers of
/// two, and a prime that exercises uneven modulo placement.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// Client-side connections: a small pool so inbound events frequently
/// match an earlier outbound mark (both verdict branches are exercised).
fn arb_connection() -> impl Strategy<Value = FiveTuple> {
    (any::<bool>(), 0u8..8, 1024u16..1040, 0u8..8, 1u16..5).prop_map(
        |(tcp, src_host, src_port, dst_host, dst_port)| {
            FiveTuple::new(
                if tcp { Protocol::Tcp } else { Protocol::Udp },
                std::net::SocketAddrV4::new([10, 0, 0, src_host].into(), src_port),
                std::net::SocketAddrV4::new([203, 0, 113, dst_host].into(), dst_port * 1000),
            )
        },
    )
}

/// A workload: timestamp-ordered packets with explicit directions.
fn arb_workload() -> impl Strategy<Value = Vec<(Packet, Direction)>> {
    (
        proptest::collection::vec(arb_connection(), 1..12),
        proptest::collection::vec((0usize..1_000_000, any::<bool>(), 0u64..800_000), 1..120),
    )
        .prop_map(|(pool, events)| {
            let mut now_micros = 0u64;
            events
                .into_iter()
                .map(|(idx, outbound, dt)| {
                    now_micros += dt;
                    let ts = Timestamp::from_micros(now_micros);
                    let conn = pool[idx % pool.len()];
                    let tuple = if outbound { conn } else { conn.inverse() };
                    let packet = match tuple.protocol() {
                        Protocol::Tcp => Packet::tcp(ts, tuple, TcpFlags::ACK, vec![0u8; 200]),
                        Protocol::Udp => Packet::udp(ts, tuple, vec![0u8; 200]),
                    };
                    let direction = if outbound {
                        Direction::Outbound
                    } else {
                        Direction::Inbound
                    };
                    (packet, direction)
                })
                .collect()
        })
}

/// Drives `workload` through one sequential filter and through sharded
/// filters of every count in [`SHARD_COUNTS`], asserting identical
/// verdict streams and identical merged stats.
fn assert_sharding_transparent(
    config: &BitmapFilterConfig,
    workload: &[(Packet, Direction)],
) -> Result<(), String> {
    let mut sequential = BitmapFilter::new(config.clone());
    let mut seq_verdicts = Vec::with_capacity(workload.len());
    for (packet, direction) in workload {
        seq_verdicts.push(sequential.process_packet(packet, *direction));
    }
    let end = workload
        .last()
        .map(|(p, _)| p.ts())
        .unwrap_or(Timestamp::ZERO);
    sequential.advance(end);
    let seq_stats = sequential.stats();

    for shards in SHARD_COUNTS {
        let sharded = ShardedFilter::builder(config.clone())
            .shards(shards)
            .build()
            .expect("shard count is positive");
        for (i, (packet, direction)) in workload.iter().enumerate() {
            let verdict = sharded.process_packet(packet, *direction);
            prop_assert_eq!(
                verdict,
                seq_verdicts[i],
                "verdict #{} diverged at {} shards",
                i,
                shards
            );
        }
        sharded.advance(end);
        let merged: FilterStats = sharded.stats();
        prop_assert_eq!(
            merged,
            seq_stats,
            "merged stats diverged at {} shards",
            shards
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Paper defaults (`P_d ≡ 1`): sharding is invisible.
    #[test]
    fn sharded_equals_sequential_drop_all(
        workload in arb_workload(),
        seed in any::<u64>(),
    ) {
        let config = BitmapFilterConfig::builder()
            .rng_seed(seed)
            .build()
            .expect("valid");
        assert_sharding_transparent(&config, &workload)?;
    }

    /// A RED policy in its probabilistic region: the keyed drop draws
    /// must land identically on every shard layout.
    #[test]
    fn sharded_equals_sequential_red_policy(
        workload in arb_workload(),
        seed in any::<u64>(),
    ) {
        // Thresholds low enough that the workload's own uplink rate
        // lands P_d strictly inside (0, 1) at least part of the time.
        let config = BitmapFilterConfig::builder()
            .drop_policy(DropPolicy::new(1_000.0, 2_000_000.0).expect("valid"))
            .rng_seed(seed)
            .build()
            .expect("valid");
        assert_sharding_transparent(&config, &workload)?;
    }

    /// Hole punching changes the filter keys *and* the flow hash; both
    /// sides must stay consistent.
    #[test]
    fn sharded_equals_sequential_hole_punching(
        workload in arb_workload(),
        seed in any::<u64>(),
    ) {
        let config = BitmapFilterConfig::builder()
            .hole_punching(true)
            .rng_seed(seed)
            .build()
            .expect("valid");
        assert_sharding_transparent(&config, &workload)?;
    }
}

/// A verdict stream folded to one number (FNV-1a over Pass = 0,
/// Drop = 1), so a divergence anywhere shows as a digest mismatch.
fn verdict_digest(verdicts: &[Verdict]) -> u64 {
    verdicts.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ u64::from(*v == Verdict::Drop)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A [`ShardedFilter::from_shards`] bank whose [`FlowHash`] disagrees
/// with its shards' hole-punching setting must still decide like one
/// sequential filter: the bank hashes each packet once under its flow
/// hash, and the shards must rebuild their own key rather than trust
/// the handed-in one. Drop-all makes a trusted foreign key visible: a
/// hole-punched key admits inbound traffic from a remote port the
/// exact key never marked.
///
/// Exact shards accept any shard count (a hole-punched flow hash is
/// coarser, so a connection still lands on one shard); hole-punched
/// shards behind an exact flow hash are run with one shard, since an
/// exact placement can split one hole-punched key across shards.
fn assert_mismatched_flow_hash_transparent(
    hole_punching: bool,
    seed: u64,
    workload: &[(Packet, Direction)],
) -> Result<(), String> {
    // Lead with one connection's outbound packet and an inbound packet
    // from a sibling remote port of the same host: the two keys agree
    // exactly when the remote port is omitted, so every case sees a
    // packet whose verdict depends on which key the shard hashes.
    let client = std::net::SocketAddrV4::new([10, 0, 0, 1].into(), 1024);
    let remote = |port| std::net::SocketAddrV4::new([203, 0, 113, 0].into(), port);
    let sibling_ports = [
        (
            FiveTuple::new(Protocol::Tcp, client, remote(1000)),
            Direction::Outbound,
        ),
        (
            FiveTuple::new(Protocol::Tcp, remote(2000), client),
            Direction::Inbound,
        ),
    ]
    .map(|(tuple, direction)| {
        let packet = Packet::tcp(Timestamp::ZERO, tuple, TcpFlags::ACK, vec![0u8; 200]);
        (packet, direction)
    });
    let workload = [&sibling_ports[..], workload].concat();
    let workload = workload.as_slice();
    let config = BitmapFilterConfig::builder()
        .hole_punching(hole_punching)
        .rng_seed(seed)
        .build()
        .expect("valid");
    let mut sequential = BitmapFilter::new(config.clone());
    let seq_verdicts: Vec<Verdict> = workload
        .iter()
        .map(|(packet, direction)| sequential.process_packet(packet, *direction))
        .collect();
    let end = workload.last().map_or(Timestamp::ZERO, |(p, _)| p.ts());
    sequential.advance(end);
    let shard_counts: &[usize] = if hole_punching { &[1] } else { &SHARD_COUNTS };
    for &shards in shard_counts {
        for batched in [false, true] {
            let uplink = Arc::new(config.uplink_monitor());
            let filters = (0..shards)
                .map(|_| BitmapFilter::new(config.clone()).with_shared_uplink(Arc::clone(&uplink)))
                .collect();
            let bank = ShardedFilter::from_shards(FlowHash::new(!hole_punching), uplink, filters);
            let mut verdicts = Vec::with_capacity(workload.len());
            if batched {
                for chunk in workload.chunks(16) {
                    bank.process_batch(chunk, &mut verdicts);
                }
            } else {
                for (packet, direction) in workload {
                    verdicts.push(bank.process_packet(packet, *direction));
                }
            }
            bank.advance(end);
            prop_assert_eq!(
                verdict_digest(&verdicts),
                verdict_digest(&seq_verdicts),
                "verdicts diverged at {} shards (batched: {})",
                shards,
                batched
            );
            prop_assert_eq!(
                bank.stats(),
                sequential.stats(),
                "stats diverged at {} shards (batched: {})",
                shards,
                batched
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exact shards behind a hole-punching flow hash.
    #[test]
    fn mismatched_hole_punching_flow_hash_keeps_exact_keys(
        workload in arb_workload(),
        seed in any::<u64>(),
    ) {
        assert_mismatched_flow_hash_transparent(false, seed, &workload)?;
    }

    /// Hole-punched shards behind an exact flow hash.
    #[test]
    fn mismatched_exact_flow_hash_keeps_hole_punched_keys(
        workload in arb_workload(),
        seed in any::<u64>(),
    ) {
        assert_mismatched_flow_hash_transparent(true, seed, &workload)?;
    }
}

/// Rotation-vs-mark race: workers mark flows through the shard write
/// guards while a ticker drives rotations from another thread. Every
/// completed mark lives in all `k` vectors and survives the `< k − 1`
/// rotations that follow — with `P_d ≡ 1`, any mark a rotation managed
/// to eat would flip its response Pass→Drop, which is exactly what
/// this asserts cannot happen.
#[test]
fn rotation_racing_marks_never_flips_pass_to_drop() {
    const WORKERS: u16 = 4;
    const FLOWS: u16 = 200;
    // Paper evaluation config: Δt = 5 s, k = 4, P_d ≡ 1.
    let filter = ShardedFilter::builder(BitmapFilterConfig::paper_evaluation())
        .shards(4)
        .build()
        .expect("shard count is positive");
    std::thread::scope(|scope| {
        for w in 0..WORKERS {
            let f = filter.clone();
            scope.spawn(move || {
                for i in 0..FLOWS {
                    let tuple = FiveTuple::new(
                        Protocol::Tcp,
                        std::net::SocketAddrV4::new([10, 0, 9, w as u8].into(), 40_000 + i),
                        std::net::SocketAddrV4::new([203, 0, 113, 77].into(), 6881),
                    );
                    let pkt = Packet::tcp(Timestamp::from_secs(1.0), tuple, TcpFlags::ACK, &[][..]);
                    f.process_packet(&pkt, Direction::Outbound);
                }
            });
        }
        // Two rotations (t = 5 s, 10 s) racing the marks above —
        // still < k − 1 = 3, so no completed mark may expire.
        let ticker = filter.clone();
        scope.spawn(move || {
            ticker.advance(Timestamp::from_secs(6.0));
            std::thread::yield_now();
            ticker.advance(Timestamp::from_secs(11.0));
        });
    });
    filter.advance(Timestamp::from_secs(11.0));
    assert_eq!(filter.stats().rotations, 2);
    for w in 0..WORKERS {
        for i in 0..FLOWS {
            let tuple = FiveTuple::new(
                Protocol::Tcp,
                std::net::SocketAddrV4::new([10, 0, 9, w as u8].into(), 40_000 + i),
                std::net::SocketAddrV4::new([203, 0, 113, 77].into(), 6881),
            );
            let resp = Packet::tcp(
                Timestamp::from_secs(11.5),
                tuple.inverse(),
                TcpFlags::ACK,
                &[][..],
            );
            assert_eq!(
                filter.process_packet(&resp, Direction::Inbound),
                Verdict::Pass,
                "rotation ate the mark for worker {w} flow {i}"
            );
        }
    }
}
