//! Expiry and concurrency tests for the `{k × N}` bitmap and the
//! sharded filter that shares it between threads.
//!
//! The invariant under attack: a completed mark lives in all `k`
//! vectors and therefore survives at least `k − 1` subsequent
//! rotations, so no verdict may flip Pass→Drop across a rotation. The
//! bitmap's writes take `&mut self`, so threads share it only through
//! [`ShardedFilter`]'s shard write guards; the concurrent tests drive
//! that path.

use upbound_core::{AtomicBitmap, BitmapFilter, BitmapFilterConfig, ShardedFilter, Verdict};
use upbound_net::{Direction, FiveTuple, Packet, Protocol, TcpFlags, Timestamp};

fn client_conn(port: u16) -> FiveTuple {
    FiveTuple::new(
        Protocol::Tcp,
        std::net::SocketAddrV4::new([10, 0, 0, 9].into(), port),
        std::net::SocketAddrV4::new([203, 0, 113, 44].into(), 6881),
    )
}

fn outbound(port: u16, t: f64) -> Packet {
    Packet::tcp(
        Timestamp::from_secs(t),
        client_conn(port),
        TcpFlags::ACK,
        &[][..],
    )
}

fn response(port: u16, t: f64) -> Packet {
    Packet::tcp(
        Timestamp::from_secs(t),
        client_conn(port).inverse(),
        TcpFlags::ACK,
        &[][..],
    )
}

/// The paper's expiry bound holds even when the rotations are
/// interleaved with fresh marks of *other* keys: a key never re-marked
/// is gone after `k` rotations, no matter what else the bitmap absorbed
/// meanwhile.
#[test]
fn unrefreshed_keys_expire_after_k_rotations_despite_churn() {
    let mut bm = AtomicBitmap::new(4, 14, 3);
    bm.mark(b"victim");
    for i in 0..4_000u32 {
        // Churn on a disjoint keyspace; never touches "victim".
        bm.mark(&(0x8000_0000 | i).to_le_bytes());
        if i % 1_000 == 999 {
            bm.rotate();
        }
    }
    assert_eq!(bm.rotations(), 4);
    assert!(
        !bm.lookup(b"victim"),
        "key survived k rotations without a re-mark"
    );
}

/// Filter-level oracle: flows marked by four threads through one shared
/// shard, with rotations coming due among the marks, must all pass on
/// their responses — exactly what a sequential filter yields for the
/// same stream. `P_d ≡ 1` makes any lost mark an immediate Pass→Drop
/// flip, so this fails loudly if a rotation can eat a mark.
#[test]
fn no_verdict_flips_pass_to_drop_across_epoch_swap() {
    const WORKERS: u16 = 4;
    const FLOWS: u16 = 120;
    let config = BitmapFilterConfig::paper_evaluation(); // Δt = 5 s, k = 4
    let shared = ShardedFilter::builder(config.clone())
        .build()
        .expect("one shard");
    let barrier = std::sync::Barrier::new(usize::from(WORKERS));
    std::thread::scope(|scope| {
        for w in 0..WORKERS {
            let (shared, barrier) = (shared.clone(), &barrier);
            scope.spawn(move || {
                barrier.wait();
                for i in 0..FLOWS {
                    let port = 20_000 + w * FLOWS + i;
                    // Timestamps crawl toward the first two rotations
                    // (t = 5 s, 10 s) so marks interleave with them.
                    let t = 0.5 + f64::from(i) * (10.0 / f64::from(FLOWS));
                    let verdict = shared.process_packet(&outbound(port, t), Direction::Outbound);
                    assert_eq!(verdict, Verdict::Pass);
                }
            });
        }
    });
    // Sequential oracle over an equivalent stream: every response inside
    // the expiry window passes; an unsolicited probe drops. The shared
    // filter must agree on both branches.
    let mut oracle = BitmapFilter::new(config);
    for port in 0..WORKERS * FLOWS {
        oracle.process_packet(&outbound(20_000 + port, 10.5), Direction::Outbound);
    }
    for port in 0..WORKERS * FLOWS {
        let resp = response(20_000 + port, 11.0);
        let expect = oracle.process_packet(&resp, Direction::Inbound);
        assert_eq!(expect, Verdict::Pass, "oracle must accept its own flows");
        assert_eq!(
            shared.process_packet(&resp, Direction::Inbound),
            expect,
            "shared filter flipped Pass→Drop for port {}",
            20_000 + port
        );
    }
    let stranger = response(61_111, 11.0);
    assert_eq!(
        shared.process_packet(&stranger, Direction::Inbound),
        oracle.process_packet(&stranger, Direction::Inbound),
    );
    assert_eq!(
        shared.stats().inbound_hits,
        u64::from(WORKERS) * u64::from(FLOWS)
    );
}

/// The sharded write-guard path under full concurrency: workers mark
/// and immediately verify their own flows while a dedicated ticker
/// advances the clock through two rotations (t = 5 s, 10 s — within
/// `k − 1`). Merged stats must account every packet exactly once.
#[test]
fn sharded_write_guard_path_is_linearizable_for_own_flows() {
    const WORKERS: u16 = 4;
    const FLOWS: u16 = 100;
    let filter = ShardedFilter::builder(BitmapFilterConfig::paper_evaluation())
        .shards(4)
        .build()
        .expect("shard count is positive");
    std::thread::scope(|scope| {
        for w in 0..WORKERS {
            let f = filter.clone();
            scope.spawn(move || {
                for i in 0..FLOWS {
                    let port = 30_000 + w * 1000 + i;
                    assert_eq!(
                        f.process_packet(&outbound(port, 1.0), Direction::Outbound),
                        Verdict::Pass
                    );
                    assert_eq!(
                        f.process_packet(&response(port, 1.1), Direction::Inbound),
                        Verdict::Pass,
                        "own mark invisible to own lookup (port {port})"
                    );
                }
            });
        }
        let ticker = filter.clone();
        scope.spawn(move || {
            ticker.advance(Timestamp::from_secs(6.0));
            std::thread::yield_now();
            ticker.advance(Timestamp::from_secs(11.0));
        });
    });
    filter.advance(Timestamp::from_secs(11.0));
    let stats = filter.stats();
    assert_eq!(
        stats.outbound_packets,
        u64::from(WORKERS) * u64::from(FLOWS)
    );
    assert_eq!(stats.inbound_packets, u64::from(WORKERS) * u64::from(FLOWS));
    assert_eq!(stats.inbound_hits, u64::from(WORKERS) * u64::from(FLOWS));
    assert_eq!(stats.dropped, 0, "a verdict flipped Pass→Drop");
    assert_eq!(stats.rotations, 2);
    // Marks from t = 1.0 survive both swaps (k − 1 = 3 > 2): every
    // response still passes after the concurrent phase.
    for w in 0..WORKERS {
        for i in 0..FLOWS {
            let port = 30_000 + w * 1000 + i;
            assert_eq!(
                filter.process_packet(&response(port, 11.2), Direction::Inbound),
                Verdict::Pass,
                "mark for port {port} lost across rotations"
            );
        }
    }
}
