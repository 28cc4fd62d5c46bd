//! Batched decision-path throughput benchmark.
//!
//! Quantifies the payoff of [`ShardedFilter::process_batch`] over the
//! per-packet path that takes the bank lock for every single decision:
//! W workers replay the trace concurrently through one sharded filter
//! at batch sizes 1, 4, 16, 64, and 256. Batch size 1 degenerates to a
//! lock acquisition per packet (the pre-batching hot path); larger
//! batches take the lock once and decide the whole batch in input
//! order, so both the acquisition cost and the cache-line bouncing of
//! a contended mutex are amortized across the whole batch.
//!
//! Every worker replays the *full* trace (no flow partitioning), which
//! is the worst case for the per-packet path: all workers contend on
//! the one lock. Results are printed as a table and written to
//! `BENCH_batch_throughput.json` for the CI artifact; the headline
//! number is the batch-64 speedup over batch-1.
//!
//! [`ShardedFilter::process_batch`]: upbound_core::ShardedFilter::process_batch

use std::time::Instant;
use upbound_bench::{
    detect_parallelism, is_quick, trace_from_args, write_metrics_artifact, TextTable,
};
use upbound_core::{BitmapFilterConfig, ShardedFilter, Verdict};
use upbound_net::{Direction, Packet};
use upbound_telemetry::{Registry, Stage, StageTracer};

/// One measured configuration.
struct Sample {
    batch: usize,
    secs: f64,
    pkts_per_sec: f64,
}

/// Replays the trace through `filter` from `workers` threads, `reps`
/// passes each, deciding `batch` packets per `process_batch` call, and
/// returns the wall-clock seconds for the whole fan-out.
fn run_once(
    filter: &ShardedFilter,
    packets: &[(Packet, Direction)],
    batch: usize,
    reps: usize,
    workers: usize,
) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let handle = filter.clone();
            scope.spawn(move || {
                let mut verdicts: Vec<Verdict> = Vec::with_capacity(batch);
                for _ in 0..reps {
                    for chunk in packets.chunks(batch) {
                        verdicts.clear();
                        handle.process_batch(chunk, &mut verdicts);
                    }
                }
            });
        }
    });
    start.elapsed().as_secs_f64()
}

/// Times `groups` groups of four passes over `packets` on this thread,
/// `batch` packets per `process_batch` call, after one untimed warm-up
/// pass. Each group runs untraced, traced, traced, untraced (ABBA); a
/// traced pass runs each call under a latency scope, the exact
/// instrumentation `--trace-latency` adds to the `serve` hot path.
/// Returns each group's untraced and traced seconds: the passes of one
/// group see the same host, so a slow spell on a shared machine costs
/// both arms alike.
fn time_tracer(
    filter: &ShardedFilter,
    packets: &[(Packet, Direction)],
    batch: usize,
    groups: usize,
    tracer: &StageTracer,
) -> Vec<[f64; 2]> {
    let mut verdicts: Vec<Verdict> = Vec::with_capacity(batch);
    let mut pass = |traced: bool| {
        let start = Instant::now();
        for chunk in packets.chunks(batch) {
            verdicts.clear();
            let _t = traced.then(|| tracer.scope(Stage::Decide));
            filter.process_batch(chunk, &mut verdicts);
        }
        start.elapsed().as_secs_f64()
    };
    pass(false);
    (0..groups)
        .map(|_| {
            let (a1, b1, b2, a2) = (pass(false), pass(true), pass(true), pass(false));
            [a1 + a2, b1 + b2]
        })
        .collect()
}

fn main() {
    let trace = trace_from_args();
    let config = BitmapFilterConfig::paper_evaluation();
    let parallelism = detect_parallelism();
    let cores = parallelism.effective;
    let workers = cores.clamp(4, 8);
    // Few shards relative to workers keeps the locks contended — the
    // deployment regime where batching matters most.
    let shards = 2usize;
    let reps = if is_quick() { 4 } else { 16 };
    let iterations = 3; // best-of-N to shave scheduler noise

    let packets: Vec<(Packet, Direction)> = trace
        .packets
        .iter()
        .map(|lp| (lp.packet.clone(), lp.direction))
        .collect();
    let total_pkts = (packets.len() * reps * workers) as f64;

    println!(
        "Batch throughput: {} workers on {} core(s), {} shards, {} packets x {} reps",
        workers,
        cores,
        shards,
        packets.len(),
        reps
    );
    if cores < 2 {
        println!("note: single-core host — lock contention cannot manifest here");
    }
    println!();

    let mut samples = Vec::new();
    for batch in [1usize, 4, 16, 64, 256] {
        let mut best_secs = f64::INFINITY;
        for _ in 0..iterations {
            let filter = ShardedFilter::builder(config.clone())
                .shards(shards)
                .build()
                .expect("shard count is positive");
            best_secs = best_secs.min(run_once(&filter, &packets, batch, reps, workers));
        }
        samples.push(Sample {
            batch,
            secs: best_secs,
            pkts_per_sec: total_pkts / best_secs,
        });
    }

    let baseline = samples[0].pkts_per_sec;
    let mut table = TextTable::new(["batch", "secs", "pkts/sec", "speedup vs batch 1"]);
    for s in &samples {
        table.row([
            s.batch.to_string(),
            format!("{:.3}", s.secs),
            format!("{:.0}", s.pkts_per_sec),
            format!("{:.2}x", s.pkts_per_sec / baseline),
        ]);
    }
    print!("{}", table.render());

    let speedup_64 = samples
        .iter()
        .find(|s| s.batch == 64)
        .map(|s| s.pkts_per_sec / baseline)
        .unwrap_or(0.0);
    println!("\nbatch 64 vs batch 1: {speedup_64:.2}x");

    let results = samples
        .iter()
        .map(|s| {
            format!(
                "    {{\"batch\": {}, \"secs\": {:.6}, \"pkts_per_sec\": {:.1}, \"speedup\": {:.4}}}",
                s.batch,
                s.secs,
                s.pkts_per_sec,
                s.pkts_per_sec / baseline
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"batch_throughput\",\n  \"workers\": {},\n  \"cores\": {},\n  \"parallelism\": {},\n  \"shards\": {},\n  \"trace_packets\": {},\n  \"reps\": {},\n  \"speedup_64_vs_1\": {:.4},\n  \"results\": [\n{}\n  ]\n}}\n",
        workers,
        cores,
        parallelism.json_fragment(),
        shards,
        packets.len(),
        reps,
        speedup_64,
        results
    );
    std::fs::write("BENCH_batch_throughput.json", json).expect("write BENCH_batch_throughput.json");
    println!("wrote BENCH_batch_throughput.json");

    // Observer-overhead gate: batch-64 throughput with the latency
    // tracer in the hot path vs without. The scope timer is the whole
    // cost of --trace-latency, so this bounds what observability steals
    // from the decision path. It runs on one decide thread, as `serve`
    // does: every batch takes the bank lock, so several workers would
    // time how the scheduler hands that lock around, not the tracer.
    // UPBOUND_OVERHEAD_GATE_PCT (default 5) fails the run when exceeded
    // and UPBOUND_OVERHEAD_GATE=1 is set.
    let registry = Registry::new();
    registry.build_info(
        env!("CARGO_PKG_VERSION"),
        option_env!("UPBOUND_GIT_DESCRIBE"),
    );
    let tracer = StageTracer::new(&registry, "bench");
    let overhead_batch = 64usize;
    let filter = ShardedFilter::builder(config.clone())
        .shards(shards)
        .build()
        .expect("shard count is positive");
    let groups = 8 * reps;
    let timed = time_tracer(&filter, &packets, overhead_batch, groups, &tracer);
    let arm_pkts = (packets.len() * 2 * groups) as f64;
    let off_pps = arm_pkts / timed.iter().map(|t| t[0]).sum::<f64>();
    let on_pps = arm_pkts / timed.iter().map(|t| t[1]).sum::<f64>();
    // The median group's overhead: a pass preempted on a busy host
    // skews its own group, not the figure.
    let mut overheads: Vec<f64> = timed.iter().map(|t| (1.0 - t[0] / t[1]) * 100.0).collect();
    overheads.sort_by(f64::total_cmp);
    let overhead_pct = overheads[groups / 2];
    let gate_pct: f64 = std::env::var("UPBOUND_OVERHEAD_GATE_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5.0);
    let gate_enabled = std::env::var("UPBOUND_OVERHEAD_GATE").map(|v| v == "1") == Ok(true);
    let pass = overhead_pct <= gate_pct;
    println!(
        "\nobserver overhead @ batch {overhead_batch}, 1 worker: {off_pps:.0} pkts/s off, \
         {on_pps:.0} pkts/s on -> median group {overhead_pct:.2}% (gate {gate_pct:.1}%: {})",
        if pass { "pass" } else { "FAIL" }
    );
    let overhead_json = format!(
        "{{\n  \"bench\": \"observer_overhead\",\n  \"workers\": {},\n  \"parallelism\": {},\n  \"batch\": {},\n  \"pkts_per_sec_tracing_off\": {:.1},\n  \"pkts_per_sec_tracing_on\": {:.1},\n  \"overhead_pct\": {:.4},\n  \"gate_pct\": {:.1},\n  \"pass\": {}\n}}\n",
        1,
        parallelism.json_fragment(),
        overhead_batch,
        off_pps,
        on_pps,
        overhead_pct,
        gate_pct,
        pass
    );
    std::fs::write("BENCH_observer_overhead.json", overhead_json)
        .expect("write BENCH_observer_overhead.json");
    println!("wrote BENCH_observer_overhead.json");

    let gauge = |name: &str, help: &str, v: f64| registry.gauge(name, help).set(v);
    gauge(
        "upbound_bench_overhead_pct",
        "Throughput cost of hot-path latency tracing, percent",
        overhead_pct,
    );
    gauge(
        "upbound_bench_batch64_pkts_per_sec",
        "Batch-64 one-thread throughput with tracing off",
        off_pps,
    );
    let artifact = write_metrics_artifact("batch_throughput", &registry);
    println!("wrote {artifact}");

    if gate_enabled && !pass {
        eprintln!("error: observer overhead {overhead_pct:.2}% exceeds the {gate_pct:.1}% gate");
        std::process::exit(1);
    }
}
