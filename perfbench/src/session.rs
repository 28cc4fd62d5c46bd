//! Untraced `serve` sessions: the end-to-end numbers. One session is
//! one `PipelineRunner::serve` call over one pass of the stream, with a
//! fresh shard bank and a registry attached as the CLI attaches it.

use std::time::Instant;
use upbound_net::pcap::{IngestStats, PcapReader};
use upbound_net::{BufferedSource, PcapSource};
use upbound_sim::{PipelineConfig, PipelineRunner, ServeControl, ServeReport};
use upbound_telemetry::Registry;

use crate::check::Outcome;
use crate::driven::{DrivenSource, Samples};
use crate::inputs::{Workload, BATCH, LATE_LIMIT_US, SHARDS};
use crate::stats::{quantile, Rss};

/// What one untraced session measured.
#[derive(Debug, Clone)]
pub struct Session {
    /// Source construction to the first `next_batch` poll.
    pub setup_s: f64,
    /// First poll to `serve` returning.
    pub serve_ns: u64,
    /// `serve_ns` minus the open loop's spin waiting for due packets.
    pub busy_ns: u64,
    /// Polls that released packets.
    pub batches: u64,
    /// Median latency from due time.
    pub p50_us: f64,
    /// 99th-percentile latency from due time.
    pub p99_us: f64,
    /// Share of packets later than [`LATE_LIMIT_US`].
    pub late_ratio: f64,
    /// 99th percentile of release minus the later of due time and poll.
    pub gen_lag_p99_us: f64,
    /// 99th percentile of due time to release.
    pub queue_wait_p99_us: f64,
    /// Median of release to the next poll.
    pub service_p50_us: f64,
    /// Peak resident-set growth during the session.
    pub rss_mb: f64,
    /// What `serve` reported deciding.
    pub outcome: Outcome,
}

/// The runner of every session: shards, ladder and batch size as
/// `upbound serve` would be given them.
pub fn runner(w: &Workload) -> PipelineRunner {
    PipelineRunner::new(w.inside, w.config.clone())
        .shards(SHARDS)
        .overload_policy(w.overload.clone())
        .pipeline_config(PipelineConfig {
            batch_size: BATCH,
            ..PipelineConfig::default()
        })
}

fn outcome(report: &ServeReport) -> Outcome {
    Outcome {
        packets: report.packets,
        passed: report.passed,
        dropped: report.dropped,
        stats: report.filter_stats,
    }
}

/// Runs one untraced session. `scratch` must hold the stream's length.
pub fn run(w: &Workload, samples: &mut Samples, scratch: &mut Vec<u32>) -> Result<Session, String> {
    let runner = runner(w);
    let registry = Registry::new();
    let control = ServeControl::new().with_telemetry(&registry);
    // A buffered source owns its packets; copy them before the clock.
    let buffered = (!w.serves_pcap()).then(|| w.stream.clone());
    let rss = Rss::reset();

    let start = Instant::now();
    let report = match (buffered, &w.pcap) {
        (Some(stream), _) => {
            let inner = BufferedSource::new(stream, IngestStats::default());
            runner.serve(
                &mut DrivenSource::new(inner, w.rate_pps(), samples),
                &control,
            )
        }
        (None, Some(bytes)) => {
            let reader = PcapReader::new(&bytes[..]).map_err(|e| e.to_string())?;
            let inner = PcapSource::new(reader, w.inside);
            runner.serve(
                &mut DrivenSource::new(inner, w.rate_pps(), samples),
                &control,
            )
        }
        (None, None) => return Err("pcap workload built without its pcap image".into()),
    }
    .map_err(|e| e.to_string())?;
    let end = Instant::now();
    let rss_mb = rss.growth_mb();

    let first_poll = samples.first_poll.ok_or("serve never polled its source")?;
    let n = samples.released;
    if n == 0 {
        return Err("serve decided no packets".into());
    }
    let serve_ns = end.duration_since(first_poll).as_nanos() as u64;
    let us = |ns: u32| f64::from(ns) / 1e3;

    scratch.clear();
    scratch.extend_from_slice(&samples.latency_ns[..n]);
    let limit_ns = (LATE_LIMIT_US * 1e3) as u32;
    let late = scratch.iter().filter(|&&ns| ns > limit_ns).count();
    let p50_us = us(quantile(scratch, 0.5));
    let p99_us = us(quantile(scratch, 0.99));

    scratch.clear();
    scratch.extend(
        samples.latency_ns[..n]
            .iter()
            .zip(&samples.wait_ns[..n])
            .map(|(lat, wait)| lat.saturating_sub(*wait)),
    );
    let service_p50_us = us(quantile(scratch, 0.5));
    scratch.clear();
    scratch.extend_from_slice(&samples.wait_ns[..n]);
    let queue_wait_p99_us = us(quantile(scratch, 0.99));
    scratch.clear();
    scratch.extend_from_slice(&samples.gen_lag_ns[..n]);
    let gen_lag_p99_us = us(quantile(scratch, 0.99));

    Ok(Session {
        setup_s: first_poll.duration_since(start).as_secs_f64(),
        serve_ns,
        busy_ns: serve_ns.saturating_sub(samples.spin_ns),
        batches: samples.batches,
        p50_us,
        p99_us,
        late_ratio: late as f64 / n as f64,
        gen_lag_p99_us,
        queue_wait_p99_us,
        service_p50_us,
        rss_mb,
        outcome: outcome(&report),
    })
}
