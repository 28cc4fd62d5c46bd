//! `perfbench`: the end-to-end and per-layer benchmark of the `upbound`
//! `serve` dataplane.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <campus_pcap|syn_flood|campus_open_loop> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run builds the workload from the seed, computes the sequential
//! reference, replays the stream once traced (correctness and ground
//! truth), then serves it untraced in back-to-back sessions for
//! `--seconds`. With `--trace 1` it also repeats the traced replay and
//! times the inner layers in isolation. It prints every metric with its
//! unit, one per line, and ends with one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! README.md lists the metrics and the layer each one belongs to.

mod check;
mod driven;
mod inputs;
mod layers;
mod session;
mod stats;
mod traced;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use driven::Samples;
use inputs::{Kind, Workload, BATCH, LATE_LIMIT_US, SHARDS};
use layers::Layers;
use session::Session;
use stats::{best, median, median_unfrozen};
use traced::TracedRun;

/// Fewest untraced sessions a run takes, however short `--seconds` is.
const MIN_SESSIONS: usize = 3;
/// Traced replays in a `--trace 1` run; spans report their median.
const TRACED_REPS: usize = 3;
/// `harness.model_gap` and `harness.trace_overhead` beyond this mean
/// the layer model is missing a layer or the spans distort the run.
const HARNESS_BOUND: f64 = 0.25;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    perturb: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut perturb = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                kind = Some(Kind::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            // Small inputs, for the harness self-test.
            "--smoke" => smoke = true,
            // Bends one session's report, to prove the check catches it.
            "--perturb-verdicts" => perturb = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| s.is_finite() && *s > 0.0)
            .ok_or("--seconds must be a positive number")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        perturb,
    })
}

/// One printed metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn ratio(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn params(args: &Args, w: &Workload) -> String {
    let c = &w.config;
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \
         \"shape\": {}, \"packets\": {}, \"bitmap\": {{\"vectors\": {}, \"vector_bits\": {}, \
         \"hash_functions\": {}, \"rotate_s\": {}, \"drop_low_bps\": {}, \"drop_high_bps\": {}, \
         \"overload\": {}}}, \"shards\": {}, \"batch\": {}, \"source\": \"{}\", \
         \"offered_rate_pps\": {}, \"late_limit_us\": {}, \"parallelism\": {}}}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke,
        w.shape,
        w.stream.len(),
        c.vectors(),
        c.vector_bits(),
        c.hash_functions(),
        c.rotate_every().as_secs_f64(),
        c.drop_policy().low_bps(),
        c.drop_policy().high_bps(),
        w.overload.enabled(),
        SHARDS,
        BATCH,
        if w.serves_pcap() { "pcap" } else { "buffered" },
        w.rate_pps().map_or("null".to_string(), |r| r.to_string()),
        LATE_LIMIT_US,
        upbound_bench::detect_parallelism().json_fragment(),
    )
}

fn run(args: &Args) -> Result<(), String> {
    let w = inputs::build(args.kind, args.seed, args.smoke, args.trace);
    println!("params {}", params(args, &w));
    let (reference, reference_digest, misses) = check::reference(&w, args.trace);

    let mut samples = Samples::with_capacity(w.stream.len());
    let mut scratch = Vec::with_capacity(w.stream.len());
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // The traced replay decides the verdicts the ratios are scored on,
    // so it must match the sequential reference exactly. A traced run
    // replays it again and pairs each replay with an untraced session
    // run right after it, so the tracing overhead compares like with
    // like on a host whose speed drifts.
    let reps = if args.trace { TRACED_REPS } else { 1 };
    let mut traced: Vec<TracedRun> = Vec::with_capacity(reps);
    let mut sessions: Vec<Session> = Vec::new();
    // The isolated layer passes run right after the traced pairs, so the
    // model gap compares passes taken a few seconds apart.
    let mut layers: Option<Layers> = None;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while traced.len() < reps || sessions.len() < MIN_SESSIONS || Instant::now() < deadline {
        if traced.len() == reps && args.trace && layers.is_none() {
            layers = Some(layers::measure(&w, &misses.misses));
        }
        if traced.len() < reps {
            let run = traced::replay(&w, &mut samples)?;
            attempted += run.outcome.packets;
            if run.outcome != reference || run.digest != reference_digest {
                eprintln!(
                    "traced replay disagrees with the sequential reference:\n  traced    {:?} {:?}\n  reference {:?} {:?}",
                    run.outcome, run.digest, reference, reference_digest
                );
                failed += run.outcome.packets;
            }
            traced.push(run);
        }
        let expected = traced[0].outcome;
        let mut s = session::run(&w, &mut samples, &mut scratch)?;
        if args.perturb && sessions.is_empty() {
            s.outcome.passed += 1;
        }
        attempted += s.outcome.packets;
        if s.outcome != expected {
            eprintln!(
                "serve session {} disagrees with the traced replay:\n  serve  {:?}\n  traced {:?}",
                sessions.len(),
                s.outcome,
                expected
            );
            failed += s.outcome.packets;
        }
        eprintln!(
            "session {}: {:.0} pkt/s, p50 {:.3} us, p99 {:.3} us, setup {:.6} s, rss {:.3} MiB",
            sessions.len(),
            s.outcome.packets as f64 * 1e9 / s.serve_ns as f64,
            s.p50_us,
            s.p99_us,
            s.setup_s,
            s.rss_mb
        );
        sessions.push(s);
    }
    // An open-loop session whose generator, not the dataplane, ran late
    // measures the harness; it is left out of every median.
    let valid: Vec<&Session> = sessions
        .iter()
        .filter(|s| w.rate_pps().is_none() || s.gen_lag_p99_us <= LATE_LIMIT_US)
        .collect();
    if valid.len() * 2 < sessions.len() {
        eprintln!(
            "only {} of {} sessions valid: the generator ran late",
            valid.len(),
            sessions.len()
        );
        failed = failed.max(1);
    }
    let med = |f: fn(&Session) -> f64| median(valid.iter().map(|s| f(s)));

    let first = &traced[0];
    let solicited_drop_ratio = ratio(first.solicited.1, first.solicited.0);
    let unsolicited_pass_ratio = ratio(first.unsolicited.1, first.unsolicited.0);
    let best_of = |f: fn(&Session) -> f64, higher: bool| best(valid.iter().map(|s| f(s)), higher);
    let throughput = best_of(|s| s.outcome.packets as f64 * 1e9 / s.serve_ns as f64, true);
    let busy_ns_per_pkt = med(|s| s.busy_ns as f64 / s.outcome.packets as f64);

    let metrics = if args.trace {
        let layers = layers.unwrap_or_else(|| layers::measure(&w, &misses.misses));
        let mut m = per_layer(
            &layers,
            &traced,
            &sessions,
            &misses,
            &valid,
            busy_ns_per_pkt,
        );
        m.extend([
            metric(
                "open_p99_us",
                median_unfrozen(valid.iter().map(|s| s.p99_us)),
                "us",
            ),
            metric("open_late_ratio", med(|s| s.late_ratio), "ratio"),
            metric("serve_rss_mb", med(|s| s.rss_mb), "MiB"),
            metric("solicited_drop_ratio", solicited_drop_ratio, "ratio"),
            metric("unsolicited_pass_ratio", unsolicited_pass_ratio, "ratio"),
        ]);
        m
    } else {
        vec![
            metric("throughput_pps", throughput, "1/s"),
            metric("open_p50_us", best_of(|s| s.p50_us, false), "us"),
            metric("setup_s", med(|s| s.setup_s), "s"),
        ]
    };
    println!(
        "sessions {} ({} valid), {} packets each; traced replays {}",
        sessions.len(),
        valid.len(),
        traced[0].outcome.packets,
        traced.len()
    );
    for m in &metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    let body = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted,
        failed,
        body
    );
    Ok(())
}

fn per_layer(
    layers: &Layers,
    traced: &[TracedRun],
    sessions: &[Session],
    misses: &check::MissLog,
    valid: &[&Session],
    busy_ns_per_pkt: f64,
) -> Vec<Metric> {
    let first = &traced[0];
    let pkts = first.outcome.packets.max(1) as f64;
    let span = |f: fn(&traced::Spans) -> u64| median(traced.iter().map(|t| f(&t.spans) as f64));
    let batches = span(|s| s.batches).max(1.0);
    let process_ns = span(|s| s.process_ns) / pkts;
    let spans_ns = span(|s| s.total_ns()) / pkts;
    let stats = &first.outcome.stats;
    let inbound_share = 1.0 - layers.outbound_share;

    // The layer model of one `process_batch` packet: what the isolated
    // passes say each layer costs, weighted by how often it runs.
    let model_ns = layers.dispatch_ns
        + layers.key_ns
        + layers.outbound_share * (layers.mark_ns + layers.record_ns)
        + inbound_share * (layers.probe_ns + layers.p_d_ns)
        + layers.draws_per_pkt * layers.draw_ns
        + layers.evaluate_ns
        + first.rotations as f64 * layers.rotate_us * 1e3 / pkts
        + layers.batch_fixed_ns * batches / pkts;
    let model_gap = ((model_ns - process_ns) / process_ns).abs();
    // Each traced replay against the untraced session right after it.
    let trace_overhead = median(
        traced
            .iter()
            .zip(sessions)
            .map(|(t, s)| t.busy_ns as f64 / s.busy_ns as f64 - 1.0),
    )
    .abs();
    if model_gap > HARNESS_BOUND || trace_overhead > HARNESS_BOUND {
        eprintln!(
            "layer budget outside ±{HARNESS_BOUND}: model gap {model_gap:.3}, trace overhead {trace_overhead:.3}"
        );
    }
    let med = |f: fn(&Session) -> f64| median(valid.iter().map(|s| f(s)));

    vec![
        metric("net.pcap.decode_ns_per_pkt", layers.decode_ns, "ns"),
        metric("net.pcap.errors", layers.pcap_errors as f64, "count"),
        metric("net.subnet.classify_ns_per_pkt", layers.classify_ns, "ns"),
        metric(
            "net.source.next_batch_ns_per_pkt",
            span(|s| s.source_ns) / pkts,
            "ns",
        ),
        metric(
            "net.source.stats_ns_per_call",
            span(|s| s.source_stats_ns) / batches,
            "ns",
        ),
        metric("net.tuple.key_ns_per_pkt", layers.key_ns, "ns"),
        metric("core.sharded.dispatch_ns_per_pkt", layers.dispatch_ns, "ns"),
        metric(
            "core.sharded.max_shard_share",
            layers.max_shard_share,
            "ratio",
        ),
        metric("core.sharded.batch_fixed_ns", layers.batch_fixed_ns, "ns"),
        metric("core.sharded.process_batch_ns_per_pkt", process_ns, "ns"),
        metric(
            "core.sharded.stats_ns_per_call",
            span(|s| s.stats_ns) / batches,
            "ns",
        ),
        metric("core.sharded.stats_calls_per_pkt", batches / pkts, "ratio"),
        metric("core.hash.indexes_ns_per_key", layers.indexes_ns, "ns"),
        metric("core.atomic_bitmap.mark_ns", layers.mark_ns, "ns"),
        metric(
            "core.atomic_bitmap.marks_per_pkt",
            layers.outbound_share,
            "ratio",
        ),
        metric("core.atomic_bitmap.probe_ns", layers.probe_ns, "ns"),
        metric(
            "core.atomic_bitmap.probe_hit_ratio",
            ratio(stats.inbound_hits, stats.inbound_packets),
            "ratio",
        ),
        metric("core.atomic_bitmap.rotate_us", layers.rotate_us, "us"),
        metric(
            "core.atomic_bitmap.fill_at_rotation",
            median(first.fills.iter().copied()),
            "ratio",
        ),
        metric("core.engine.draw_ns", layers.draw_ns, "ns"),
        metric("core.engine.draws_per_miss", layers.draws_per_miss, "ratio"),
        metric("core.throughput.record_ns", layers.record_ns, "ns"),
        metric("core.red.p_d_ns", layers.p_d_ns, "ns"),
        metric(
            "core.red.mean_p_d",
            misses.p_d_sum / misses.inbound.max(1) as f64,
            "ratio",
        ),
        metric("core.overload.evaluate_ns", layers.evaluate_ns, "ns"),
        metric(
            "core.overload.early_rotations",
            first.early_rotations as f64,
            "count",
        ),
        metric(
            "telemetry.publish_ns_per_batch",
            span(|s| s.publish_ns) / batches,
            "ns",
        ),
        metric(
            "sim.runner.pkts_per_batch",
            med(|s| s.outcome.packets as f64 / s.batches.max(1) as f64),
            "count",
        ),
        metric(
            "sim.runner.residual_ns_per_pkt",
            busy_ns_per_pkt - spans_ns,
            "ns",
        ),
        metric(
            "sim.runner.queue_wait_us_p99",
            med(|s| s.queue_wait_p99_us),
            "us",
        ),
        metric("sim.runner.service_us_p50", med(|s| s.service_p50_us), "us"),
        metric("harness.gen_lag_p99_us", med(|s| s.gen_lag_p99_us), "us"),
        metric("harness.model_gap", model_gap, "ratio"),
        metric("harness.trace_overhead", trace_overhead, "ratio"),
    ]
}
