//! §5.2 performance: the bitmap filter's per-packet operations are O(m)
//! (constant in the number of tracked connections), and `b.rotate` is
//! O(N) but runs only once per `Δt`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use upbound_core::{AtomicBitmap, BitmapFilter, BitmapFilterConfig, TelemetryObserver};
use upbound_net::{FiveTuple, Protocol, Timestamp};
use upbound_telemetry::Registry;

fn tuple(i: u32) -> FiveTuple {
    FiveTuple::new(
        Protocol::Tcp,
        std::net::SocketAddrV4::new(
            std::net::Ipv4Addr::new(10, 0, (i >> 8) as u8, i as u8),
            10_000 + (i % 50_000) as u16,
        ),
        std::net::SocketAddrV4::new(std::net::Ipv4Addr::new(198, 51, 100, 7), 6881),
    )
}

/// Outbound mark + inbound lookup cost as the number of *already
/// tracked* connections grows: the bitmap must stay flat (O(1) in n).
fn per_packet_constant_time(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitmap_per_packet_vs_load");
    for &load in &[1_000u32, 10_000, 100_000] {
        let mut filter = BitmapFilter::new(BitmapFilterConfig::paper_evaluation());
        let t = Timestamp::from_secs(1.0);
        for i in 0..load {
            filter.observe_outbound(&tuple(i), t);
        }
        group.bench_with_input(BenchmarkId::new("mark", load), &load, |b, _| {
            let mut i = 0u32;
            b.iter(|| {
                i = i.wrapping_add(1);
                filter.observe_outbound(black_box(&tuple(i % load)), t);
            });
        });
        group.bench_with_input(BenchmarkId::new("lookup_hit", load), &load, |b, _| {
            let mut i = 0u32;
            b.iter(|| {
                i = i.wrapping_add(1);
                black_box(filter.check_inbound(black_box(&tuple(i % load).inverse()), t, 1.0));
            });
        });
        group.bench_with_input(BenchmarkId::new("lookup_miss", load), &load, |b, _| {
            let mut i = load;
            b.iter(|| {
                i = i.wrapping_add(1);
                // Pd = 0 so misses pass without consuming RNG-heavy drops.
                black_box(filter.check_inbound(black_box(&tuple(i + 1_000_000).inverse()), t, 0.0));
            });
        });
    }
    group.finish();
}

/// Lookup cost scaling in the number of hash functions m (O(m)).
fn per_packet_vs_m(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitmap_per_packet_vs_m");
    for &m in &[1usize, 3, 6, 10] {
        let config = BitmapFilterConfig::builder()
            .hash_functions(m)
            .build()
            .expect("valid");
        let mut filter = BitmapFilter::new(config);
        let t = Timestamp::from_secs(1.0);
        filter.observe_outbound(&tuple(7), t);
        group.bench_with_input(BenchmarkId::new("lookup_hit", m), &m, |b, _| {
            b.iter(|| black_box(filter.check_inbound(black_box(&tuple(7).inverse()), t, 1.0)));
        });
    }
    group.finish();
}

/// `b.rotate` is O(N): clearing one bit vector.
fn rotate_vs_n(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitmap_rotate_vs_N");
    for &n in &[16u32, 20, 24] {
        let mut bitmap = AtomicBitmap::new(4, n, 3);
        group.bench_with_input(BenchmarkId::new("rotate", format!("2^{n}")), &n, |b, _| {
            b.iter(|| black_box(bitmap.rotate()));
        });
    }
    group.finish();
}

/// Observer hook cost on the hot path. `BitmapFilter::new` installs the
/// `NoopObserver`, whose empty `#[inline]` methods must monomorphize
/// away — `noop/*` here is the uninstrumented baseline and should match
/// the pre-hook filter to within noise (<2%). `telemetry/*` shows what
/// full instrumentation (atomic counters + gauges, journal on drops)
/// costs per packet.
fn observer_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("observer_overhead");
    let t = Timestamp::from_secs(1.0);

    let mut noop = BitmapFilter::new(BitmapFilterConfig::paper_evaluation());
    group.bench_function("noop/mark", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            noop.observe_outbound(black_box(&tuple(i % 10_000)), t);
        });
    });
    group.bench_function("noop/lookup_hit", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(noop.check_inbound(black_box(&tuple(i % 10_000).inverse()), t, 1.0));
        });
    });

    let registry = Registry::new();
    let mut observed = BitmapFilter::with_observer(
        BitmapFilterConfig::paper_evaluation(),
        TelemetryObserver::with_default_journal(&registry, "core"),
    );
    group.bench_function("telemetry/mark", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            observed.observe_outbound(black_box(&tuple(i % 10_000)), t);
        });
    });
    group.bench_function("telemetry/lookup_hit", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(observed.check_inbound(black_box(&tuple(i % 10_000).inverse()), t, 1.0));
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    per_packet_constant_time,
    per_packet_vs_m,
    rotate_vs_n,
    observer_overhead
);
criterion_main!(benches);
