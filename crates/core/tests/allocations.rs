//! Heap allocations on the sharded decide path, counted by a global
//! allocator.
//!
//! This file is its own test binary so the counting allocator sees only
//! these tests. Counts are kept per thread, so tests running in parallel
//! do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::SocketAddrV4;
use upbound_core::{BitmapFilterConfig, ConfigError, PacketFilter, ShardedFilter, Verdict};
use upbound_net::{Direction, FiveTuple, Packet, Protocol, TcpFlags, Timestamp};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, counting every allocation and
/// reallocation made on the calling thread.
struct Counting;

fn count_one() {
    // `try_with`: a thread being torn down has no counter left to bump.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const BATCH: usize = 64;

fn conn(i: u16) -> FiveTuple {
    FiveTuple::new(
        Protocol::Tcp,
        SocketAddrV4::new([10, 0, 0, 1].into(), 1024 + i),
        SocketAddrV4::new([192, 0, 2, 1].into(), 6881),
    )
}

/// 40 s of traffic, 64 packets per batch over 128 batches: every
/// connection's outbound packet, then a reply to it; every fourth
/// inbound packet is unsolicited instead. Paper timing rotates every
/// 5 s, so the stream crosses several rotations.
fn stream() -> Vec<(Packet, Direction)> {
    (0..(BATCH * 128) as u16)
        .map(|i| {
            let ts = Timestamp::from_micros(u64::from(i) * 40_000_000 / (BATCH as u64 * 128));
            let (c, stranger) = (conn(i / 2), conn(30_000 + i).inverse());
            let (tuple, flags, payload, direction) = match i % 8 {
                0 | 2 | 4 | 6 => (c, TcpFlags::ACK, 200, Direction::Outbound),
                7 => (stranger, TcpFlags::SYN, 0, Direction::Inbound),
                _ => (c.inverse(), TcpFlags::ACK, 0, Direction::Inbound),
            };
            (Packet::tcp(ts, tuple, flags, vec![1u8; payload]), direction)
        })
        .collect()
}

fn bank() -> Result<ShardedFilter, ConfigError> {
    ShardedFilter::builder(BitmapFilterConfig::paper_evaluation())
        .shards(2)
        .build()
}

#[test]
fn warm_batches_allocate_nothing() {
    let packets = stream();
    let filter = bank().unwrap();
    let mut verdicts: Vec<Verdict> = Vec::with_capacity(BATCH);
    let mut batches = packets.chunks(BATCH);
    for batch in batches.by_ref().take(8) {
        verdicts.clear();
        filter.process_batch(batch, &mut verdicts);
    }
    let warm_ticks = PacketFilter::ticks(&filter);
    for (i, batch) in batches.enumerate() {
        verdicts.clear();
        let ((), n) = allocations(|| filter.process_batch(batch, &mut verdicts));
        assert_eq!(n, 0, "batch {i} allocated");
        assert_eq!(verdicts.len(), batch.len());
    }
    assert!(
        PacketFilter::ticks(&filter) > warm_ticks,
        "no rotation was crossed"
    );
    assert!(filter.stats().inbound_hits > 0);
}

#[test]
fn per_packet_decisions_allocate_nothing() {
    let packets = stream();
    let filter = bank().unwrap();
    let mut watermark = Timestamp::ZERO;
    let mut decide = |(packet, direction): &(Packet, Direction)| {
        watermark = watermark.max(packet.ts());
        filter.process_packet_at(packet, *direction, watermark)
    };
    let (warm, rest) = packets.split_at(8 * BATCH);
    for p in warm {
        decide(p);
    }
    let warm_rotations = filter.stats().rotations;
    let (passed, n) = allocations(|| {
        let mut passed = 0;
        for p in rest {
            passed += usize::from(decide(p) == Verdict::Pass);
        }
        passed
    });
    assert_eq!(n, 0);
    assert!(passed > rest.len() / 2);
    let rotations = filter.stats().rotations;
    assert!(rotations > warm_rotations, "no rotation was crossed");
}
