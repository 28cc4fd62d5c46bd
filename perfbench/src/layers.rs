//! Isolated inner layers. Each is timed as whole passes of its public
//! function over the workload's own packets, in stream order, never per
//! call: an `Instant::now` pair costs more than one `FlowHash::key`.
//! Every pass runs [`REPS`] times and reports its median.

use std::hint::black_box;
use std::time::Instant;
use upbound_core::{
    AtomicBitmap, FilterEngine, FlowHash, HashFamily, NoopObserver, OverloadLadder, ShardedFilter,
    ThroughputMonitor,
};
use upbound_net::pcap::PcapReader;
use upbound_net::Direction;

use crate::check::Miss;
use crate::inputs::{Workload, SHARDS};
use crate::stats::median;

/// Repetitions of every pass.
const REPS: usize = 3;
/// Rotations timed per repetition of the rotate pass.
const ROTATIONS: usize = 64;
/// Empty batches timed per repetition of the batch-overhead pass.
const EMPTY_BATCHES: usize = 100_000;

/// Per-call costs and counts of the inner layers.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// `PcapReader::read_packet`, per packet.
    pub decode_ns: f64,
    /// Decode errors over the whole image.
    pub pcap_errors: u64,
    /// `Cidr::direction_of`, per packet.
    pub classify_ns: f64,
    /// `FiveTuple::{outbound,inbound}_key` plus `FilterKey::to_bytes`.
    pub key_ns: f64,
    /// `FlowHash::key` plus the shard modulo, per packet.
    pub dispatch_ns: f64,
    /// `ShardedFilter::process_batch` on an empty batch: the fixed cost
    /// of one call (shard locks, watermark), per batch.
    pub batch_fixed_ns: f64,
    /// Largest shard's share of the packets.
    pub max_shard_share: f64,
    /// `HashFamily::indexes`, per key.
    pub indexes_ns: f64,
    /// `AtomicBitmap::mark`, per outbound packet.
    pub mark_ns: f64,
    /// `AtomicBitmap::probe`, per inbound packet.
    pub probe_ns: f64,
    /// `AtomicBitmap::rotate`, per rotation, in microseconds.
    pub rotate_us: f64,
    /// `FilterEngine::drop_draw`, per draw.
    pub draw_ns: f64,
    /// Draws the filter takes per inbound miss.
    pub draws_per_miss: f64,
    /// Draws per packet of the stream.
    pub draws_per_pkt: f64,
    /// `ThroughputMonitor::record`, per outbound packet.
    pub record_ns: f64,
    /// `rate_bps` plus `DropPolicy::drop_probability`, per inbound packet.
    pub p_d_ns: f64,
    /// `OverloadLadder::evaluate`, per packet.
    pub evaluate_ns: f64,
    /// Outbound share of the stream.
    pub outbound_share: f64,
}

/// Median nanoseconds of [`REPS`] runs of `pass`, divided by `per`.
/// `prepare` builds each repetition's state outside the clock.
fn timed<T>(
    per: usize,
    mut prepare: impl FnMut() -> T,
    mut pass: impl FnMut(&mut T) -> u64,
) -> f64 {
    median((0..REPS).map(|_| {
        let mut state = prepare();
        let t = Instant::now();
        black_box(pass(&mut state));
        t.elapsed().as_nanos() as f64 / per.max(1) as f64
    }))
}

/// Times every inner layer over `w`'s stream; `misses` are the
/// reference run's inbound misses, replayed by the draw pass.
pub fn measure(w: &Workload, misses: &[Miss]) -> Layers {
    let stream = &w.stream;
    let n = stream.len();
    let hp = w.config.hole_punching();
    let flow = FlowHash::new(hp);
    let mut out = Layers::default();

    if let Some(bytes) = w.pcap.as_deref() {
        let mut errors = 0;
        out.decode_ns = timed(
            n,
            || (),
            |_| {
                let mut reader = PcapReader::new(bytes).expect("benchmark pcap has a valid header");
                let mut acc = 0u64;
                while let Ok(Some(packet)) = reader.read_packet() {
                    acc = acc.wrapping_add(u64::from(black_box(packet).wire_len()));
                }
                errors = reader.stats().errors_total();
                acc
            },
        );
        out.pcap_errors = errors;
    }
    out.classify_ns = timed(
        n,
        || (),
        |_| {
            stream
                .iter()
                .map(|(p, _)| u64::from(w.inside.direction_of(&p.tuple()) == Direction::Inbound))
                .sum()
        },
    );

    let key_of = |(p, d): &(upbound_net::Packet, Direction)| match d {
        Direction::Outbound => p.tuple().outbound_key(hp),
        Direction::Inbound => p.tuple().inbound_key(hp),
    };
    out.key_ns = timed(
        n,
        || (),
        |_| {
            stream
                .iter()
                .map(|pd| u64::from(black_box(key_of(pd).to_bytes())[13]))
                .sum()
        },
    );

    let mut counts = [0u64; SHARDS];
    out.dispatch_ns = timed(
        n,
        || (),
        |_| {
            counts = [0; SHARDS];
            for (p, d) in stream {
                counts[(flow.key(&p.tuple(), *d) % SHARDS as u64) as usize] += 1;
            }
            counts[0]
        },
    );
    out.max_shard_share = counts.iter().copied().max().unwrap_or(0) as f64 / n.max(1) as f64;

    let empty_bank = || {
        let mut builder = ShardedFilter::builder(w.config.clone());
        builder.shards(SHARDS).overload_policy(w.overload.clone());
        (
            builder.build().expect("benchmark bank builds"),
            Vec::with_capacity(1),
        )
    };
    out.batch_fixed_ns = timed(EMPTY_BATCHES, empty_bank, |(bank, verdicts)| {
        for _ in 0..EMPTY_BATCHES {
            bank.process_batch(&[], verdicts);
        }
        verdicts.len() as u64
    });

    // Keys and shards once, so the bitmap passes time only the bitmap.
    let keyed: Vec<([u8; 14], usize, Direction)> = stream
        .iter()
        .map(|pd| {
            let shard = (flow.key(&pd.0.tuple(), pd.1) % SHARDS as u64) as usize;
            (key_of(pd).to_bytes(), shard, pd.1)
        })
        .collect();
    let outbound = keyed.iter().filter(|k| k.2 == Direction::Outbound).count();
    let inbound = n - outbound;
    out.outbound_share = outbound as f64 / n.max(1) as f64;

    let family = HashFamily::new(w.config.hash_functions(), w.config.vector_bits());
    out.indexes_ns = timed(
        n,
        || (),
        |_| {
            keyed
                .iter()
                .map(|(key, _, _)| family.indexes(key).map(|i| i as u64).sum::<u64>())
                .sum()
        },
    );

    let bank = || -> Vec<AtomicBitmap> {
        (0..SHARDS)
            .map(|_| {
                AtomicBitmap::new(
                    w.config.vectors(),
                    w.config.vector_bits(),
                    w.config.hash_functions(),
                )
            })
            .collect()
    };
    let mark_all = |bitmaps: &mut Vec<AtomicBitmap>| {
        for (key, shard, d) in &keyed {
            if *d == Direction::Outbound {
                bitmaps[*shard].mark(key);
            }
        }
        outbound as u64
    };
    out.mark_ns = timed(outbound, bank, mark_all);
    let marked = || {
        let mut bitmaps = bank();
        mark_all(&mut bitmaps);
        bitmaps
    };
    out.probe_ns = timed(inbound, marked, |bitmaps| {
        keyed
            .iter()
            .filter(|k| k.2 == Direction::Inbound)
            .map(|(key, shard, _)| bitmaps[*shard].probe(key).unmarked as u64)
            .sum()
    });
    out.rotate_us = timed(ROTATIONS, marked, |bitmaps| {
        (0..ROTATIONS).map(|_| bitmaps[0].rotate() as u64).sum()
    }) / 1e3;

    let ladder = || (OverloadLadder::new(w.overload.clone()), marked());
    out.evaluate_ns = timed(n, ladder, |(ladder, bitmaps)| {
        keyed
            .iter()
            .zip(stream)
            .map(|((_, shard, _), (p, _))| {
                u64::from(ladder.evaluate(&bitmaps[*shard], p.ts()).is_some())
            })
            .sum()
    });

    let mut draws = 0u64;
    let engine = FilterEngine::new(
        w.config.rotate_every(),
        w.config.uplink_monitor(),
        w.config.drop_policy(),
        w.config.rng_seed(),
        NoopObserver,
    );
    let per_draw = timed(
        1,
        || (),
        |_| {
            draws = 0;
            let mut dropped = 0u64;
            for miss in misses {
                for draw in 0..u32::from(miss.unmarked) {
                    draws += 1;
                    if engine.drop_draw(&miss.key, miss.now, draw, miss.p_d) {
                        dropped += 1;
                        break;
                    }
                }
            }
            dropped
        },
    );
    out.draw_ns = per_draw / draws.max(1) as f64;
    out.draws_per_miss = draws as f64 / misses.len().max(1) as f64;
    out.draws_per_pkt = draws as f64 / n.max(1) as f64;

    let record_all = |monitor: &mut ThroughputMonitor| {
        for (p, d) in stream {
            if *d == Direction::Outbound {
                monitor.record(p.ts(), u64::from(p.wire_len()));
            }
        }
        monitor.total_bytes()
    };
    out.record_ns = timed(outbound, || w.config.uplink_monitor(), record_all);
    let recorded = || {
        let mut monitor = w.config.uplink_monitor();
        record_all(&mut monitor);
        monitor
    };
    let policy = w.config.drop_policy();
    out.p_d_ns = timed(inbound, recorded, |monitor| {
        stream
            .iter()
            .filter(|(_, d)| *d == Direction::Inbound)
            .map(|(p, _)| policy.drop_probability(monitor.rate_bps(p.ts())))
            .sum::<f64>() as u64
    });
    out
}
