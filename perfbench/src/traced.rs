//! The traced run: the workload's stream replayed through the same
//! public calls `PipelineRunner::serve` makes per batch, in the same
//! order, with a span around each call. Nothing inside `upbound` is
//! instrumented; the spans sit in this file, around the calls.

use std::sync::Arc;
use std::time::{Duration, Instant};
use upbound_core::{BitmapFilter, ConfigCell, DropPolicy, FilterStats, ShardedFilter, Verdict};
use upbound_net::pcap::{IngestStats, PcapReader};
use upbound_net::{
    BufferedSource, Direction, Packet, PacketSource, PcapSource, SourcePoll, Timestamp,
};
use upbound_telemetry::{Counter, Gauge, Registry};

use crate::check::{Digest, Outcome};
use crate::driven::{DrivenSource, Samples};
use crate::inputs::{Truth, Workload, BATCH, SHARDS};

/// One poll or batch in this many is timed (every rotation batch is):
/// a span costs two clock reads, which at the open loop's one or two
/// packets per poll would otherwise double the work being measured.
const SPAN_SAMPLE: u64 = 8;

/// Span durations (sampled, weighted back up to the whole run) and call
/// counts of one traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    /// `PacketSource::next_batch`, minus the open loop's spin.
    pub source_ns: u64,
    /// `ShardedFilter::process_batch`.
    pub process_ns: u64,
    /// `ShardedFilter::stats`.
    pub stats_ns: u64,
    /// The counter adds and gauge sets `serve` issues per batch.
    pub publish_ns: u64,
    /// `PacketSource::stats`.
    pub source_stats_ns: u64,
    /// `next_batch` calls.
    pub polls: u64,
    /// Batches decided (`process_batch`, `stats` and publish calls).
    pub batches: u64,
}

impl Spans {
    /// Every span, summed.
    pub fn total_ns(&self) -> u64 {
        self.source_ns + self.process_ns + self.stats_ns + self.publish_ns + self.source_stats_ns
    }
}

/// Everything one traced run produced.
pub struct TracedRun {
    /// What the bank decided.
    pub outcome: Outcome,
    /// The verdict stream's digest.
    pub digest: Digest,
    /// Span totals.
    pub spans: Spans,
    /// Wall time of the loop minus open-loop spin and harness sampling.
    pub busy_ns: u64,
    /// Current-vector fill of each shard just before each rotation tick.
    pub fills: Vec<f64>,
    /// Rotations performed, summed over shards.
    pub rotations: u64,
    /// Extra rotations the ladder asked for, summed over shards.
    pub early_rotations: u64,
    /// Inbound packets the trace labels solicited, and how many dropped.
    pub solicited: (u64, u64),
    /// Inbound packets the trace labels unsolicited, and how many passed.
    pub unsolicited: (u64, u64),
}

/// The `upbound_serve_*` handles `serve` publishes into, registered
/// under the same names so every per-batch call is the same call.
struct Publish {
    packets_total: Arc<Counter>,
    passed_total: Arc<Counter>,
    dropped_total: Arc<Counter>,
    batch_size: Arc<Gauge>,
    config_generation: Arc<Gauge>,
    rotations: Arc<Gauge>,
    watermark_secs: Arc<Gauge>,
    drop_low_bps: Arc<Gauge>,
    drop_high_bps: Arc<Gauge>,
    ingest_errors: Arc<Gauge>,
    kernel_drops: Arc<Gauge>,
}

impl Publish {
    fn register(r: &Registry) -> Self {
        Self {
            packets_total: r.counter("upbound_serve_packets_total", "Packets pulled"),
            passed_total: r.counter("upbound_serve_passed_total", "Packets forwarded"),
            dropped_total: r.counter("upbound_serve_dropped_total", "Inbound dropped"),
            batch_size: r.gauge("upbound_serve_batch_size", "Batch size"),
            config_generation: r.gauge("upbound_serve_config_generation", "Generation"),
            rotations: r.gauge("upbound_serve_rotations", "Rotations"),
            watermark_secs: r.gauge("upbound_serve_watermark_secs", "Watermark"),
            drop_low_bps: r.gauge("upbound_serve_drop_low_bps", "P_d L"),
            drop_high_bps: r.gauge("upbound_serve_drop_high_bps", "P_d H"),
            ingest_errors: r.gauge("upbound_serve_ingest_errors", "Ingest errors"),
            kernel_drops: r.gauge("upbound_serve_kernel_drops", "Kernel drops"),
        }
    }

    fn batch(&self, packets: u64, passed: u64, dropped: u64) {
        self.packets_total.add(packets);
        self.passed_total.add(passed);
        self.dropped_total.add(dropped);
    }

    fn state(&self, watermark: Timestamp, stats: &FilterStats, policy: DropPolicy) {
        self.watermark_secs.set(watermark.as_secs_f64());
        self.rotations.set_u64(stats.rotations);
        self.drop_low_bps.set(policy.low_bps());
        self.drop_high_bps.set(policy.high_bps());
        self.batch_size.set_u64(BATCH as u64);
        self.config_generation.set_u64(0);
    }

    fn ingest(&self, ingest: &IngestStats) {
        self.ingest_errors.set_u64(ingest.errors_total());
        self.kernel_drops.set_u64(ingest.kernel_drops());
    }
}

/// Replays `w` once through a fresh bank, timing every call.
pub fn replay(w: &Workload, samples: &mut Samples) -> Result<TracedRun, String> {
    let mut builder = ShardedFilter::builder(w.config.clone());
    builder.shards(SHARDS).overload_policy(w.overload.clone());
    let bank = builder.build().map_err(|e| e.to_string())?;
    if w.serves_pcap() {
        let bytes = w.pcap.as_deref().ok_or("pcap workload without its image")?;
        let reader = PcapReader::new(bytes).map_err(|e| e.to_string())?;
        let inner = PcapSource::new(reader, w.inside);
        run(
            w,
            &bank,
            &mut DrivenSource::new(inner, w.rate_pps(), samples),
        )
    } else {
        let inner = BufferedSource::new(w.stream.clone(), IngestStats::default());
        run(
            w,
            &bank,
            &mut DrivenSource::new(inner, w.rate_pps(), samples),
        )
    }
}

fn since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// What one `Instant::now` costs on this host, so each span can shed
/// the clock read it contains.
fn clock_read_ns() -> u64 {
    const READS: u32 = 100_000;
    let t = Instant::now();
    for _ in 0..READS {
        std::hint::black_box(Instant::now());
    }
    since(t) / u64::from(READS)
}

/// A sampled stopwatch over consecutive spans.
struct Lap {
    /// The previous reading; `None` while the batch is not sampled.
    last: Option<Instant>,
    /// How many batches this one stands for.
    weight: u64,
    /// The cost of the clock read each span contains.
    clock_ns: u64,
}

impl Lap {
    /// Adds the time since the previous reading, minus one clock read
    /// and times the weight, to `acc`; then restarts from now.
    fn to(&mut self, acc: &mut u64) {
        if let Some(last) = &mut self.last {
            let now = Instant::now();
            let span = now.duration_since(*last).as_nanos() as u64;
            *acc += self.weight * span.saturating_sub(self.clock_ns);
            *last = now;
        }
    }

    /// Restarts from now without adding anything.
    fn restart(&mut self) {
        if self.last.is_some() {
            self.last = Some(Instant::now());
        }
    }
}

fn run<S: PacketSource>(
    w: &Workload,
    bank: &ShardedFilter<BitmapFilter>,
    source: &mut DrivenSource<'_, S>,
) -> Result<TracedRun, String> {
    let registry = Registry::new();
    let publish = Publish::register(&registry);
    let cell = ConfigCell::new();
    let policy = w.config.drop_policy();
    let tick_us = w.config.rotate_every().as_micros();
    let mut next_tick_us = tick_us;

    let clock_ns = clock_read_ns();
    let mut spans = Spans::default();
    let mut fills = Vec::new();
    let mut harness_ns = 0u64;
    let mut verdict_log: Vec<Verdict> = Vec::with_capacity(w.stream.len());
    let mut buf: Vec<(Packet, Direction)> = Vec::with_capacity(BATCH);
    let mut verdicts: Vec<Verdict> = Vec::with_capacity(BATCH);
    let (mut packets, mut passed, mut dropped) = (0u64, 0u64, 0u64);
    let mut watermark = Timestamp::ZERO;

    let start = Instant::now();
    loop {
        let _ = cell.poll(0);
        buf.clear();
        let timed = spans.polls % SPAN_SAMPLE == 0;
        let spin_before = source.spin_ns();
        let t = timed.then(Instant::now);
        let poll = source
            .next_batch(&mut buf, BATCH)
            .map_err(|e| e.to_string())?;
        if let Some(t) = t {
            let spun = source.spin_ns() - spin_before;
            spans.source_ns += SPAN_SAMPLE * since(t).saturating_sub(spun + clock_ns);
        }
        spans.polls += 1;
        match poll {
            SourcePoll::End => break,
            SourcePoll::Idle => {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            SourcePoll::Batch(_) if buf.is_empty() => continue,
            SourcePoll::Batch(_) => {}
        }
        // Harness work, outside every span: sample each shard's fill
        // just before a batch that crosses a rotation tick.
        let last_us = buf.last().map_or(0, |(p, _)| p.ts().as_micros());
        let crosses_tick = last_us >= next_tick_us;
        if crosses_tick {
            let t = Instant::now();
            while last_us >= next_tick_us {
                for shard in 0..SHARDS {
                    if let Ok(fill) = bank.with_shard(shard, |f| f.bitmap().utilization()) {
                        fills.push(fill);
                    }
                }
                next_tick_us += tick_us;
            }
            harness_ns += since(t);
        }
        // Rotation batches are rare and costly, so every one is timed;
        // the rest are sampled one in SPAN_SAMPLE and weighted up.
        let weight = if crosses_tick {
            1
        } else if spans.batches % SPAN_SAMPLE == 0 {
            SPAN_SAMPLE
        } else {
            0
        };
        spans.batches += 1;

        verdicts.clear();
        let mut lap = Lap {
            last: (weight > 0).then(Instant::now),
            weight,
            clock_ns,
        };
        bank.process_batch(&buf, &mut verdicts);
        lap.to(&mut spans.process_ns);

        let (mut batch_passed, mut batch_dropped) = (0u64, 0u64);
        for ((packet, direction), verdict) in buf.iter().zip(&verdicts) {
            match (*direction, *verdict) {
                (Direction::Inbound, Verdict::Drop) => batch_dropped += 1,
                _ => batch_passed += 1,
            }
            watermark = watermark.max(packet.ts());
        }
        packets += buf.len() as u64;
        passed += batch_passed;
        dropped += batch_dropped;
        verdict_log.extend_from_slice(&verdicts);

        lap.restart();
        let stats = bank.stats();
        lap.to(&mut spans.stats_ns);
        publish.batch(buf.len() as u64, batch_passed, batch_dropped);
        publish.state(watermark, &stats, policy);
        lap.to(&mut spans.publish_ns);
        let ingest = source.stats();
        lap.to(&mut spans.source_stats_ns);
        publish.ingest(&ingest);
        lap.to(&mut spans.publish_ns);
    }
    let stats = bank.stats();
    publish.state(watermark, &stats, policy);
    publish.ingest(&source.stats());
    let wall_ns = since(start);

    let busy_ns = wall_ns.saturating_sub(source.spin_ns() + harness_ns);

    let mut digest = Digest::default();
    let mut solicited = (0, 0);
    let mut unsolicited = (0, 0);
    for (verdict, truth) in verdict_log.iter().zip(&w.truth) {
        digest.push(*verdict);
        match truth {
            Truth::Outbound => {}
            Truth::Solicited => {
                solicited.0 += 1;
                solicited.1 += u64::from(*verdict == Verdict::Drop);
            }
            Truth::Unsolicited => {
                unsolicited.0 += 1;
                unsolicited.1 += u64::from(*verdict == Verdict::Pass);
            }
        }
    }
    let (mut rotations, mut early_rotations) = (0, 0);
    for shard in 0..SHARDS {
        if let Ok((r, e)) = bank.with_shard(shard, |f| {
            (f.stats().rotations, f.overload().early_rotations())
        }) {
            rotations += r;
            early_rotations += e;
        }
    }
    Ok(TracedRun {
        outcome: Outcome {
            packets,
            passed,
            dropped,
            stats,
        },
        digest,
        spans,
        busy_ns,
        fills,
        rotations,
        early_rotations,
        solicited,
        unsolicited,
    })
}
