//! Shard-scaling contention benchmark.
//!
//! W workers replay a trace, pre-partitioned by flow hash, through one
//! shared [`ShardedFilter`] with 1, 2, 4 and 8 shards, and we report
//! packets/second per configuration. The bank decides under one lock,
//! so the workers serialize whatever the shard count: the figures show
//! what per-packet callers on several threads cost, not a scaling win.
//!
//! Results are printed as a table and written to
//! `BENCH_shard_scaling.json` for the CI artifact.
//!
//! A run where the detected effective parallelism is below the worker
//! count cannot exhibit contention (threads merely time-slice), so such
//! runs are marked `"degraded": true` and publish **no** speedup claim —
//! the per-shard `"speedup"` fields are `null`.
//!
//! [`ShardedFilter`]: upbound_core::ShardedFilter

use std::time::Instant;
use upbound_bench::{
    detect_parallelism, is_quick, trace_from_args, write_metrics_artifact, TextTable,
};
use upbound_core::{BitmapFilterConfig, ShardedFilter};
use upbound_net::{Direction, Packet};
use upbound_telemetry::Registry;

/// One measured configuration.
struct Sample {
    shards: usize,
    secs: f64,
    pkts_per_sec: f64,
}

/// Replays every partition through `filter` from `workers` threads and
/// returns the wall-clock seconds for the whole fan-out.
fn run_once(filter: &ShardedFilter, partitions: &[Vec<(Packet, Direction)>], reps: usize) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for part in partitions {
            let handle = filter.clone();
            scope.spawn(move || {
                for _ in 0..reps {
                    for (packet, direction) in part {
                        handle.process_packet(packet, *direction);
                    }
                }
            });
        }
    });
    start.elapsed().as_secs_f64()
}

fn main() {
    let trace = trace_from_args();
    let config = BitmapFilterConfig::paper_evaluation();
    let parallelism = detect_parallelism();
    let cores = parallelism.effective;
    let workers = cores.clamp(4, 8);
    let reps = if is_quick() { 24 } else { 96 };
    let iterations = 3; // best-of-N to shave scheduler noise

    // Partition packets by the same direction-symmetric flow hash the
    // shards use, so a flow's packets stay on one worker (the NIC-queue
    // deployment shape) regardless of the shard count under test.
    let probe = ShardedFilter::builder(config.clone())
        .build()
        .expect("one shard is valid");
    let flow = probe.flow_hash();
    let mut partitions: Vec<Vec<(Packet, Direction)>> = vec![Vec::new(); workers];
    for lp in &trace.packets {
        let worker = (flow.key(&lp.packet.tuple(), lp.direction) % workers as u64) as usize;
        partitions[worker].push((lp.packet.clone(), lp.direction));
    }
    let total_pkts = (trace.packets.len() * reps) as f64;

    let degraded = parallelism.effective < workers;

    println!(
        "Shard scaling: {} workers on {} core(s), {} packets x {} reps",
        workers,
        cores,
        trace.packets.len(),
        reps
    );
    if degraded {
        // Threads time-slice on too few cores, so workers cannot truly
        // run in parallel; throughput ratios say nothing about scaling.
        println!(
            "note: degraded run — effective parallelism {} < {} workers; \
             no speedup will be published",
            parallelism.effective, workers
        );
    }
    println!();

    let mut samples = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let mut best_secs = f64::INFINITY;
        for _ in 0..iterations {
            let filter = ShardedFilter::builder(config.clone())
                .shards(shards)
                .build()
                .expect("shard count is positive");
            best_secs = best_secs.min(run_once(&filter, &partitions, reps));
        }
        samples.push(Sample {
            shards,
            secs: best_secs,
            pkts_per_sec: total_pkts / best_secs,
        });
    }

    let baseline = samples[0].pkts_per_sec;
    let mut table = TextTable::new(["shards", "secs", "pkts/sec", "speedup vs 1 shard"]);
    for s in &samples {
        table.row([
            s.shards.to_string(),
            format!("{:.3}", s.secs),
            format!("{:.0}", s.pkts_per_sec),
            if degraded {
                "n/a (degraded)".to_string()
            } else {
                format!("{:.2}x", s.pkts_per_sec / baseline)
            },
        ]);
    }
    print!("{}", table.render());

    let results = samples
        .iter()
        .map(|s| {
            let speedup = if degraded {
                "null".to_string()
            } else {
                format!("{:.4}", s.pkts_per_sec / baseline)
            };
            format!(
                "    {{\"shards\": {}, \"secs\": {:.6}, \"pkts_per_sec\": {:.1}, \"speedup\": {speedup}}}",
                s.shards, s.secs, s.pkts_per_sec,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"shard_scaling\",\n  \"workers\": {},\n  \"cores\": {},\n  \"degraded\": {},\n  \"parallelism\": {},\n  \"trace_packets\": {},\n  \"reps\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        workers,
        cores,
        degraded,
        parallelism.json_fragment(),
        trace.packets.len(),
        reps,
        results
    );
    std::fs::write("BENCH_shard_scaling.json", json).expect("write BENCH_shard_scaling.json");
    println!("\nwrote BENCH_shard_scaling.json");

    let registry = Registry::new();
    registry.build_info(
        env!("CARGO_PKG_VERSION"),
        option_env!("UPBOUND_GIT_DESCRIBE"),
    );
    for s in &samples {
        registry
            .gauge(
                &format!("upbound_bench_shards_{}_pkts_per_sec", s.shards),
                "Shard-scaling throughput for this shard count",
            )
            .set(s.pkts_per_sec);
    }
    let artifact = write_metrics_artifact("shard_scaling", &registry);
    println!("wrote {artifact}");
}
