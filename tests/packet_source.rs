//! Differential contract for `PipelineRunner::serve` over a pcap: serving
//! a [`PcapSource`] with the blocked-σ store on must decide exactly like
//! the paper-faithful [`ReplayEngine`] fed by a plain drain loop
//! (`PcapReader::read_packet` plus `Cidr::direction_of`, written out in
//! this file), so two genuinely distinct code paths are compared over:
//!
//! * clean captures under the strict reader;
//! * a property-tested corpus of adversarially mutated captures
//!   (truncations, bit flips, stomped ranges) under the recovering
//!   reader — verdict counts, blocked connections, uplink accounting,
//!   ingestion accounting and final filter state must all agree exactly,
//!   and under the strict reader both paths must fail on the same record;
//! * a loopback (`lo`) live-capture smoke test, gated on `CAP_NET_RAW`
//!   via structured [`LiveCaptureError`] matching, so the AF_PACKET
//!   backend is exercised wherever privileges allow and skipped cleanly
//!   (not silently broken) everywhere else.

use std::io::Cursor;

use proptest::prelude::*;
use upbound::core::{BitmapFilter, BitmapFilterConfig, DropPolicy, FilterStats};
use upbound::net::pcap::{self, IngestStats, PcapReader, RecoveryPolicy};
use upbound::net::{
    Cidr, LiveCaptureError, LiveConfig, LiveSource, Packet, PacketSource, PcapSource, SourcePoll,
};
use upbound::sim::{
    PipelineRunner, ReplayConfig, ReplayEngine, ReplayResult, RunnerError, ServeControl,
    ServeReport,
};
use upbound::traffic::{generate, TraceConfig};

fn inside() -> Cidr {
    "10.0.0.0/16".parse().expect("valid cidr")
}

fn filter_config() -> BitmapFilterConfig {
    BitmapFilterConfig::builder()
        .vector_bits(14)
        .vectors(4)
        .rotate_every_secs(2.0)
        .drop_policy(DropPolicy::new(1e6, 4e6).expect("valid policy"))
        .build()
        .expect("valid config")
}

/// A pcap byte image of a small synthetic client-network trace.
fn capture_bytes(seed: u64) -> Vec<u8> {
    let trace = generate(
        &TraceConfig::builder()
            .duration_secs(6.0)
            .flow_rate_per_sec(25.0)
            .seed(seed)
            .build()
            .expect("valid trace config"),
    );
    let packets: Vec<&Packet> = trace.packets.iter().map(|lp| &lp.packet).collect();
    pcap::to_bytes(packets, 96).expect("serialize capture")
}

/// How a path failed: the error text and the records decoded before it.
type Failure = (String, IngestStats);

/// Drains `bytes` with a plain read loop and replays the labeled packets
/// through the [`ReplayEngine`].
fn replay_reference(
    bytes: &[u8],
    policy: RecoveryPolicy,
) -> Result<(ReplayResult, IngestStats, FilterStats), Failure> {
    let mut reader = PcapReader::with_policy(Cursor::new(bytes), policy)
        .map_err(|e| (e.to_string(), IngestStats::default()))?;
    let mut packets = Vec::new();
    loop {
        match reader.read_packet() {
            Ok(Some(packet)) => {
                let direction = inside().direction_of(&packet.tuple());
                packets.push((packet, direction));
            }
            Ok(None) => break,
            Err(e) => return Err((e.to_string(), *reader.stats())),
        }
    }
    let mut filter = BitmapFilter::new(filter_config());
    let result = ReplayEngine::new(ReplayConfig::default()).run_iter(packets, &mut filter);
    Ok((result, *reader.stats(), filter.stats()))
}

/// Serves `bytes` through a [`PcapSource`] with the blocked-σ store on.
fn serve_capture(bytes: &[u8], policy: RecoveryPolicy) -> Result<ServeReport, Failure> {
    let reader = PcapReader::with_policy(Cursor::new(bytes), policy)
        .map_err(|e| (e.to_string(), IngestStats::default()))?;
    let mut source = PcapSource::new(reader, inside());
    PipelineRunner::new(inside(), filter_config())
        .block_connections(true)
        .serve(&mut source, &ServeControl::new())
        .map_err(|e| match e {
            RunnerError::Net(e) => (e.to_string(), source.stats()),
            other => panic!("serving a capture failed outside the source: {other}"),
        })
}

/// Both paths over the same bytes must agree: the same failure, or the
/// same decisions, accounting and filter state. `serve` counts the
/// outbound packets of blocked connections as dropped where the engine
/// only suppresses them, so those are taken out of its drops.
fn assert_paths_agree(bytes: &[u8], policy: RecoveryPolicy) {
    match (
        replay_reference(bytes, policy),
        serve_capture(bytes, policy),
    ) {
        (Ok((replay, ingest, filter_stats)), Ok(report)) => {
            let outbound = replay.total_packets - replay.total_inbound_packets;
            let blocked_outbound = outbound - report.filter_stats.outbound_packets;
            assert_eq!(report.packets, replay.total_packets, "packets diverged");
            assert_eq!(
                report.dropped - blocked_outbound,
                replay.total_dropped_packets,
                "drops diverged"
            );
            assert_eq!(
                report.blocked_connections, replay.blocked_connections,
                "blocked connections diverged"
            );
            assert_eq!(
                report.uplink_offered_bits as f64,
                replay.pre_uplink.total(),
                "offered uplink diverged"
            );
            assert_eq!(
                report.uplink_kept_bits as f64,
                replay.post_uplink.total(),
                "kept uplink diverged"
            );
            assert_eq!(report.ingest, ingest, "ingestion accounting diverged");
            assert_eq!(
                report.filter_stats, filter_stats,
                "final filter state diverged"
            );
        }
        (Err(reference), Err(served)) => {
            assert_eq!(reference, served, "error paths diverged");
        }
        (reference, served) => panic!(
            "one path failed where the other succeeded: reference={:?} serve={:?}",
            reference.map(|r| r.0.total_packets),
            served.map(|r| r.packets),
        ),
    }
}

#[test]
fn clean_capture_is_byte_identical_across_backends() {
    for seed in [1u64, 7, 42] {
        let bytes = capture_bytes(seed);
        assert_paths_agree(&bytes, RecoveryPolicy::Strict);
        assert_paths_agree(&bytes, RecoveryPolicy::Skip);
    }
}

/// One deterministic mutation of the capture image.
fn mutate(bytes: &[u8], op: u8, offset: usize, burst: usize) -> Vec<u8> {
    let mut b = bytes.to_vec();
    let len = b.len();
    match op % 3 {
        // Truncate mid-record (keep the pcap global header).
        0 => b.truncate(25 + offset % (len - 25)),
        // Flip bits across a burst.
        1 => {
            for i in 0..burst {
                let at = (offset + i * 37) % len;
                b[at] ^= 1 << (i % 8) as u8;
            }
        }
        // Stomp a range with a marching byte pattern.
        _ => {
            let start = offset % len;
            let end = (start + burst).min(len);
            for (i, byte) in b[start..end].iter_mut().enumerate() {
                *byte = (i as u8).wrapping_mul(31).wrapping_add(7);
            }
        }
    }
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Adversarially mutated captures: under the recovering reader both
    /// backends must skip identically; under the strict reader both
    /// must fail (or succeed) identically.
    #[test]
    fn mutated_capture_is_byte_identical_across_backends(
        seed in 0u64..8,
        op in 0u8..3,
        offset in 0usize..40_000,
        burst in 1usize..64,
    ) {
        let bytes = mutate(&capture_bytes(seed), op, offset, burst);
        assert_paths_agree(&bytes, RecoveryPolicy::Skip);
        assert_paths_agree(&bytes, RecoveryPolicy::Strict);
    }
}

/// Live-capture smoke over loopback: open `lo`, generate traffic to
/// 127.0.0.1, and require the AF_PACKET source to deliver labeled
/// packets. Skips cleanly (with a note) where raw sockets are
/// unavailable — sandboxes without `CAP_NET_RAW`, non-Linux builds.
#[test]
fn loopback_live_capture_smoke() {
    let client_net: Cidr = "127.0.0.0/8".parse().expect("valid cidr");
    let mut source = match LiveSource::open(LiveConfig::new("lo", client_net)) {
        Ok(source) => source,
        Err(LiveCaptureError::PermissionDenied { .. }) => {
            eprintln!("skipping live-capture smoke: no CAP_NET_RAW");
            return;
        }
        Err(LiveCaptureError::Unsupported { .. }) => {
            eprintln!("skipping live-capture smoke: AF_PACKET is Linux-only");
            return;
        }
        Err(LiveCaptureError::NoSuchInterface { .. }) => {
            eprintln!("skipping live-capture smoke: no `lo` interface");
            return;
        }
        Err(e) => panic!("unexpected live-capture failure: {e}"),
    };
    assert!(source.is_live(), "AF_PACKET source must report live");

    // Generate some loopback traffic for the capture to see.
    let tx = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind sender");
    let rx = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind receiver");
    let target = rx.local_addr().expect("receiver addr");

    let mut batch = Vec::new();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let mut captured = 0usize;
    while captured == 0 && std::time::Instant::now() < deadline {
        for i in 0..16u8 {
            tx.send_to(&[i; 32], target)
                .expect("send loopback datagram");
        }
        match source
            .next_batch(&mut batch, 256)
            .expect("poll live source")
        {
            SourcePoll::Batch(n) => captured += n,
            SourcePoll::Idle => std::thread::sleep(std::time::Duration::from_millis(10)),
            SourcePoll::End => panic!("a live source never ends"),
        }
    }
    assert!(
        captured > 0,
        "no packets captured from lo within the deadline"
    );
    // Everything on lo is inside 127.0.0.0/8, so every capture must be
    // labeled against the client network without panicking.
    assert_eq!(batch.len(), captured);
    assert!(source.stats().records_ok >= captured as u64);
}
