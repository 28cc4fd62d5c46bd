//! Property tests for the batched decision path's equivalence contract:
//! for every filter kind (bitmap, SPI, sharded) and every batch size,
//! [`decide_batch`] — and [`ShardedFilter::process_batch`] underneath it
//! — produces verdicts and statistics byte-identical to deciding one
//! packet at a time, including on traces whose timestamps jump backward.
//!
//! [`decide_batch`]: upbound::core::PacketFilter::decide_batch
//! [`ShardedFilter::process_batch`]: upbound::core::ShardedFilter::process_batch

use proptest::prelude::*;
use upbound::core::{
    BitmapFilter, BitmapFilterConfig, DropPolicy, PacketFilter, ShardedFilter, Verdict,
};
use upbound::net::pcap::IngestStats;
use upbound::net::{
    BufferedSource, Direction, FiveTuple, Packet, Protocol, TcpFlags, TimeDelta, Timestamp,
};
use upbound::sim::{PipelineConfig, PipelineRunner, ReplayConfig, ReplayEngine, ServeControl};
use upbound::spi::{SpiConfig, SpiFilter};

/// Batch sizes under test: the degenerate per-packet case, a prime that
/// never divides the workload evenly, one just past the 16 packets
/// `process_batch` hashes ahead (a full chunk, then a remainder of one),
/// the CLI/pipeline default, and one larger than any generated workload
/// (a single all-in batch).
const BATCH_SIZES: [usize; 5] = [1, 7, 17, 64, 4096];

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

/// A workload with explicit directions. When `monotonic` is true the
/// per-event values are deltas and time only moves forward; otherwise
/// they are raw timestamps, so the trace jumps arbitrarily backward and
/// forward across rotation boundaries.
fn arb_workload(monotonic: bool) -> impl Strategy<Value = Vec<(Packet, Direction)>> {
    (
        proptest::collection::vec(arb_connection(), 1..12),
        proptest::collection::vec((0usize..1_000_000, any::<bool>(), 0u64..800_000), 1..160),
    )
        .prop_map(move |(pool, events)| {
            let mut now_micros = 0u64;
            events
                .into_iter()
                .map(|(idx, outbound, t)| {
                    let ts = if monotonic {
                        now_micros += t;
                        Timestamp::from_micros(now_micros)
                    } else {
                        // Spread raw values over ~10 s so rotations land
                        // between out-of-order packets too.
                        Timestamp::from_micros(t * 13)
                    };
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

/// Drives `workload` through a fresh filter one packet at a time, then
/// through fresh filters chunked at every batch size, asserting identical
/// verdict streams and identical statistics.
fn assert_batching_transparent<F>(
    make: impl Fn() -> F,
    workload: &[(Packet, Direction)],
) -> Result<(), String>
where
    F: PacketFilter,
    F::Stats: PartialEq + std::fmt::Debug,
{
    let mut reference = make();
    let mut seq_verdicts = Vec::with_capacity(workload.len());
    for (packet, direction) in workload {
        seq_verdicts.push(reference.decide(packet, *direction));
    }
    let seq_stats = reference.stats();

    for batch in BATCH_SIZES {
        let mut filter = make();
        let mut verdicts: Vec<Verdict> = Vec::with_capacity(workload.len());
        for chunk in workload.chunks(batch) {
            filter.decide_batch(chunk, &mut verdicts);
        }
        prop_assert_eq!(
            &verdicts,
            &seq_verdicts,
            "verdicts diverged at batch size {}",
            batch
        );
        prop_assert_eq!(
            filter.stats(),
            seq_stats.clone(),
            "stats diverged at batch size {}",
            batch
        );
    }
    Ok(())
}

/// A bitmap config whose RED policy sits in its probabilistic region, so
/// batching must also preserve the keyed per-packet drop draws.
fn red_config(seed: u64) -> BitmapFilterConfig {
    BitmapFilterConfig::builder()
        .drop_policy(DropPolicy::new(1_000.0, 2_000_000.0).expect("valid"))
        .rng_seed(seed)
        .build()
        .expect("valid")
}

/// An SPI config with short timers so purge sweeps fire inside the
/// generated workloads.
fn spi_config() -> SpiConfig {
    SpiConfig::builder()
        .idle_timeout(TimeDelta::from_secs(2.0))
        .purge_interval(TimeDelta::from_secs(0.5))
        .build()
        .expect("valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bitmap_batching_is_transparent(
        workload in arb_workload(true),
        seed in any::<u64>(),
    ) {
        assert_batching_transparent(|| BitmapFilter::new(red_config(seed)), &workload)?;
    }

    #[test]
    fn bitmap_batching_is_transparent_on_scrambled_time(
        workload in arb_workload(false),
        seed in any::<u64>(),
    ) {
        assert_batching_transparent(|| BitmapFilter::new(red_config(seed)), &workload)?;
    }

    #[test]
    fn spi_batching_is_transparent(workload in arb_workload(true)) {
        assert_batching_transparent(|| SpiFilter::new(spi_config()), &workload)?;
    }

    #[test]
    fn spi_batching_is_transparent_on_scrambled_time(workload in arb_workload(false)) {
        assert_batching_transparent(|| SpiFilter::new(spi_config()), &workload)?;
    }

    #[test]
    fn sharded_batching_is_transparent(
        workload in arb_workload(true),
        seed in any::<u64>(),
        shards in any::<bool>().prop_map(|four| if four { 4usize } else { 1 }),
    ) {
        assert_batching_transparent(
            || {
                ShardedFilter::builder(red_config(seed))
                    .shards(shards)
                    .build()
                    .expect("shard count is positive")
            },
            &workload,
        )?;
    }

    /// Direct `process_batch` coverage (no `&mut` trait shim): chunked
    /// batches against the per-packet sharded path, on scrambled time.
    #[test]
    fn sharded_process_batch_matches_sequential_on_scrambled_time(
        workload in arb_workload(false),
        seed in any::<u64>(),
        shards in any::<bool>().prop_map(|four| if four { 4usize } else { 1 }),
    ) {
        let make = || {
            ShardedFilter::builder(red_config(seed))
                .shards(shards)
                .build()
                .expect("shard count is positive")
        };
        let sequential = make();
        let seq_verdicts: Vec<Verdict> = workload
            .iter()
            .map(|(p, d)| sequential.process_packet(p, *d))
            .collect();

        for batch in BATCH_SIZES {
            let sharded = make();
            let mut verdicts: Vec<Verdict> = Vec::with_capacity(workload.len());
            for chunk in workload.chunks(batch) {
                sharded.process_batch(chunk, &mut verdicts);
            }
            prop_assert_eq!(
                &verdicts,
                &seq_verdicts,
                "verdicts diverged at batch size {} with {} shard(s)",
                batch,
                shards
            );
            prop_assert_eq!(
                sharded.stats(),
                sequential.stats(),
                "stats diverged at batch size {} with {} shard(s)",
                batch,
                shards
            );
        }
    }
}

/// `serve` with the blocked-σ store on must account exactly like the
/// paper-faithful replay engine at every batch size: the same blocked
/// connections, the same kept uplink bits, and the same drops once the
/// outbound packets of blocked connections (which `serve` counts as
/// dropped and the engine only suppresses) are taken out.
fn assert_serve_blocking_matches_replay(
    config: &BitmapFilterConfig,
    workload: &[(Packet, Direction)],
) -> Result<(), String> {
    let source = || BufferedSource::new(workload.to_vec(), IngestStats::default());
    let replay = ReplayEngine::new(ReplayConfig::default()).run_iter(
        workload
            .iter()
            .map(|(packet, direction)| (packet, *direction)),
        &mut BitmapFilter::new(config.clone()),
    );
    let outbound = workload
        .iter()
        .filter(|(_, d)| *d == Direction::Outbound)
        .count() as u64;
    for batch_size in BATCH_SIZES {
        let report = PipelineRunner::new("10.0.0.0/8".parse().expect("cidr"), config.clone())
            .block_connections(true)
            .pipeline_config(PipelineConfig { batch_size })
            .serve(&mut source(), &ServeControl::new())
            .expect("serve");
        let blocked_outbound = outbound - report.filter_stats.outbound_packets;
        prop_assert_eq!(
            report.dropped - blocked_outbound,
            replay.total_dropped_packets,
            "drops at batch size {}",
            batch_size
        );
        prop_assert_eq!(
            report.blocked_connections,
            replay.blocked_connections,
            "blocked connections at batch size {}",
            batch_size
        );
        prop_assert_eq!(
            report.uplink_kept_bits as f64,
            replay.post_uplink.total(),
            "kept uplink bits at batch size {}",
            batch_size
        );
        prop_assert_eq!(report.packets, replay.total_packets);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn serve_blocking_matches_replay_engine(
        workload in arb_workload(true),
        seed in any::<u64>(),
    ) {
        assert_serve_blocking_matches_replay(&red_config(seed), &workload)?;
    }
}

/// The same differential on a generated campus trace whose uplink sits
/// between the RED thresholds, so hundreds of connections end up blocked.
#[test]
fn serve_blocking_matches_replay_engine_on_a_campus_trace() {
    let trace = upbound::traffic::generate(
        &upbound::traffic::TraceConfig::builder()
            .duration_secs(40.0)
            .flow_rate_per_sec(30.0)
            .seed(7)
            .build()
            .expect("valid trace config"),
    );
    let workload: Vec<(Packet, Direction)> = trace
        .packets
        .iter()
        .map(|lp| (lp.packet.clone(), lp.direction))
        .collect();
    let config = BitmapFilterConfig::builder()
        .drop_policy(DropPolicy::new(0.5e6, 2e6).expect("valid"))
        .build()
        .expect("valid");
    let blocked = ReplayEngine::new(ReplayConfig::default())
        .run(&trace, &mut BitmapFilter::new(config.clone()))
        .blocked_connections;
    assert!(blocked > 100, "only {blocked} connections blocked");
    assert_serve_blocking_matches_replay(&config, &workload).expect("serve matches replay");
}
