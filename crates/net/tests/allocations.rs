//! Heap allocations on the decode path, counted by a global allocator.
//!
//! This file is its own test binary so the counting allocator sees only
//! these tests. Counts are kept per thread, so tests running in parallel
//! do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::SocketAddrV4;
use upbound_net::pcap::{self, PcapReader, HEADER_SNAPLEN};
use upbound_net::wire::{self, ChecksumPolicy};
use upbound_net::{
    Cidr, FiveTuple, Packet, PacketSource, PcapSource, Protocol, SourcePoll, TcpFlags, Timestamp,
};

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

fn tcp(i: u16, payload: usize) -> Packet {
    let tuple = FiveTuple::new(
        Protocol::Tcp,
        SocketAddrV4::new([10, 0, 0, 1].into(), 1000 + i),
        SocketAddrV4::new([192, 0, 2, 1].into(), 6881),
    );
    Packet::tcp(
        Timestamp::from_micros(u64::from(i) * 10),
        tuple,
        TcpFlags::ACK,
        vec![7u8; payload],
    )
}

fn udp(i: u16, payload: usize) -> Packet {
    let tuple = FiveTuple::new(
        Protocol::Udp,
        SocketAddrV4::new([198, 51, 100, 4].into(), 53),
        SocketAddrV4::new([10, 0, 0, 2].into(), 1000 + i),
    );
    Packet::udp(
        Timestamp::from_micros(u64::from(i) * 10),
        tuple,
        vec![9u8; payload],
    )
}

#[test]
fn decode_allocates_once_per_payload_and_never_for_headers() {
    for policy in [ChecksumPolicy::Ignore, ChecksumPolicy::Verify] {
        for (packet, want) in [
            (tcp(1, 0), 0),
            (udp(2, 0), 0),
            (tcp(3, 300), 1),
            (udp(4, 1), 1),
        ] {
            let frame = wire::encode(&packet);
            let (decoded, n) =
                allocations(|| wire::decode(&frame, packet.ts(), packet.wire_len(), policy));
            assert_eq!(decoded.unwrap(), packet, "{policy:?}");
            assert_eq!(n, want, "{policy:?}: {packet}");
        }
    }
}

#[test]
fn warm_pcap_batches_of_header_only_records_allocate_nothing() {
    // Payloads are cut off at the header snaplen, so no record carries a
    // payload to copy.
    let packets: Vec<Packet> = (0..20_000u16)
        .map(|i| {
            if i % 3 == 0 {
                udp(i, 0)
            } else {
                tcp(i, usize::from(i % 5) * 100)
            }
        })
        .collect();
    let bytes = pcap::to_bytes(&packets, HEADER_SNAPLEN).unwrap();
    let net: Cidr = "10.0.0.0/16".parse().unwrap();
    let mut source = PcapSource::new(PcapReader::new(&bytes[..]).unwrap(), net);
    let mut out = Vec::with_capacity(64);

    // Warm up: the reader's buffer reaches its working size.
    for _ in 0..50 {
        out.clear();
        assert_eq!(
            source.next_batch(&mut out, 64).unwrap(),
            SourcePoll::Batch(64)
        );
    }
    let mut batches = 0;
    let mut read = 50 * 64;
    loop {
        out.clear();
        let (poll, n) = allocations(|| source.next_batch(&mut out, 64).unwrap());
        match poll {
            SourcePoll::Batch(k) => read += k,
            SourcePoll::End => break,
            SourcePoll::Idle => panic!("pcap sources never idle"),
        }
        assert_eq!(n, 0, "batch {batches} allocated");
        batches += 1;
    }
    assert_eq!(read, packets.len());
    assert!(batches > 200);
}
