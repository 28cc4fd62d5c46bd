//! The multi-threaded edge-router pipeline behind
//! [`PipelineRunner::run`](crate::PipelineRunner::run).
//!
//! The replay engine is single-threaded by design (deterministic
//! measurement); this module is the deployment-shaped variant — one
//! supervised shard pool over bounded crossbeam channels:
//!
//! ```text
//! ingest ──► worker 0 (shard 0) ──┐
//!        ──► worker 1 (shard 1) ──┼──► merge (reorder) ──► account
//!        ──► …                  ──┘
//! ```
//!
//! The ingest stage (the calling thread) classifies each packet, tags it
//! with a sequence number and the running *maximum* timestamp seen so
//! far (the watermark), and routes it by [`ShardedFilter::shard_of`], so
//! each worker only ever touches its own shard. Workers decide via
//! [`ShardedFilter::process_packet_at`], which first advances the shard
//! to the watermark: on a trace with non-monotonic timestamps this pins
//! every shard to the tick phase a sequential filter would hold. The
//! merge stage restores sequence order before accounting. One shard is
//! simply a pool of one worker.
//!
//! Every decision runs under `catch_unwind`: a panic inside a shard's
//! decision path quarantines that shard — it is rebuilt **empty and
//! fail-open** by the caller's rebuild policy — and the packet that
//! triggered it passes fail-open, so its sequence number still reaches
//! the merge stage and the other `N − 1` shards keep filtering.
//!
//! With the paper-default `P_d ≡ 1` policy the verdicts (and the merged
//! [`FilterStats`]) are identical to a sequential run — asserted by
//! tests. Under a rate-dependent RED policy, concurrent uplink recording
//! can skew individual `P_d` reads by a packet or two, so only
//! statistical — not bit-exact — equivalence is guaranteed.
//!
//! [`ShardedFilter`]: upbound_core::ShardedFilter

use crossbeam::channel::{bounded, Receiver, Sender};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::sync::Mutex;
use upbound_core::{FilterStats, PacketFilter, ShardedFilter, Verdict};
use upbound_net::{Cidr, Direction, Packet, TimeDelta, Timestamp};
use upbound_telemetry::{
    Counter, DumpTrigger, FlightRecorder, Gauge, HealthState, Registry, ShardStatus, Stage,
    StageTracer,
};

/// Unwraps a worker-thread join, re-raising the worker's panic on the
/// caller thread instead of replacing it with a generic message.
fn join_or_propagate<T>(joined: std::thread::Result<T>) -> T {
    joined.unwrap_or_else(|payload| resume_unwind(payload))
}

/// Pipeline tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Capacity of each inter-stage channel (backpressure bound).
    pub channel_capacity: usize,
    /// Maximum packets decided per batch: the poll size of
    /// [`serve`](crate::PipelineRunner::serve). The supervised shard
    /// pool decides packet by packet (each decision
    /// is its own panic boundary), so batching never changes its
    /// verdicts. `1` restores the per-packet path; `0` is treated as `1`.
    pub batch_size: usize,
}

/// The default filter-stage batch size, chosen from the
/// `batch_throughput` bench's sweet spot (see BENCH_batch_throughput.json).
fn default_batch_size() -> usize {
    64
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            channel_capacity: 1024,
            batch_size: default_batch_size(),
        }
    }
}

/// Aggregate output of a pipeline run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineResult {
    /// Packets that entered the pipeline.
    pub ingested: u64,
    /// Packets forwarded.
    pub passed: u64,
    /// Packets dropped by the filter.
    pub dropped: u64,
    /// Wire bytes forwarded upstream (outbound).
    pub uplink_bytes: u64,
    /// Wire bytes forwarded downstream (inbound).
    pub downlink_bytes: u64,
    /// The filter's own counters at shutdown.
    pub filter_stats: FilterStats,
}

/// Tallies one merged verdict into the aggregate result.
fn account(result: &mut PipelineResult, packet: &Packet, direction: Direction, verdict: Verdict) {
    result.ingested += 1;
    match verdict {
        Verdict::Pass => {
            result.passed += 1;
            match direction {
                Direction::Outbound => result.uplink_bytes += packet.wire_len() as u64,
                Direction::Inbound => result.downlink_bytes += packet.wire_len() as u64,
            }
        }
        Verdict::Drop => result.dropped += 1,
    }
}

/// One quarantine event recorded by the shard supervisor: worker
/// `shard` panicked while deciding a packet at watermark `at`, its
/// filter was rebuilt empty, and the rebuilt memory is not trustworthy
/// (still warming up) until `quarantined_until`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardIncident {
    /// Index of the shard that panicked.
    pub shard: usize,
    /// Ingest watermark when the panic was caught.
    pub at: Timestamp,
    /// End of the rebuilt shard's warm-up window (`at` + quarantine).
    pub quarantined_until: Timestamp,
}

/// Aggregate record of everything the shard supervisor had to do during
/// a [`PipelineRunner::run`](crate::PipelineRunner::run). All
/// zeros/empty on a clean run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SupervisorReport {
    /// Worker panics caught.
    pub panics: u64,
    /// Shards rebuilt empty (one per caught panic).
    pub restarts: u64,
    /// Per-event detail, in watermark order.
    pub incidents: Vec<ShardIncident>,
}

/// Registry-backed export of the shard supervisor's state
/// (`upbound_sim_shard_*`), so quarantines are visible to every
/// exporter and the `/metrics` endpoint — not just in the in-memory
/// [`SupervisorReport`].
#[derive(Debug, Clone)]
pub struct SupervisorTelemetry {
    panics_total: Arc<Counter>,
    restarts_total: Arc<Counter>,
    incidents_total: Arc<Counter>,
    quarantined: Arc<Gauge>,
    state: Arc<Mutex<BTreeMap<usize, ShardStatus>>>,
    quarantined_until: Arc<Mutex<BTreeMap<usize, Timestamp>>>,
}

impl SupervisorTelemetry {
    /// Registers the supervisor metrics in `registry`.
    pub fn new(registry: &Registry) -> Self {
        Self {
            panics_total: registry.counter(
                "upbound_sim_shard_panics_total",
                "Shard worker panics caught by the supervisor",
            ),
            restarts_total: registry.counter(
                "upbound_sim_shard_restarts_total",
                "Shards rebuilt empty after quarantine",
            ),
            incidents_total: registry.counter(
                "upbound_sim_shard_incidents_total",
                "Quarantine incidents recorded by the supervisor",
            ),
            quarantined: registry.gauge(
                "upbound_sim_shards_quarantined",
                "Shards currently inside their quarantine window",
            ),
            state: Arc::new(Mutex::new(BTreeMap::new())),
            quarantined_until: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    fn lock<'a, T>(m: &'a Arc<Mutex<T>>) -> std::sync::MutexGuard<'a, T> {
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records one quarantine incident; returns the shard's updated
    /// status (for teeing into a flight recorder / health doc).
    pub fn record_incident(&self, incident: &ShardIncident) -> ShardStatus {
        self.panics_total.inc();
        self.restarts_total.inc();
        self.incidents_total.inc();
        let status = {
            let mut state = Self::lock(&self.state);
            let entry = state.entry(incident.shard).or_insert(ShardStatus {
                shard: incident.shard,
                quarantined: false,
                panics: 0,
                restarts: 0,
            });
            entry.panics += 1;
            entry.restarts += 1;
            entry.quarantined = true;
            *entry
        };
        let live = {
            let mut until = Self::lock(&self.quarantined_until);
            until.insert(incident.shard, incident.quarantined_until);
            until.values().filter(|&&t| t > incident.at).count()
        };
        self.quarantined.set_u64(live as u64);
        status
    }

    /// Re-evaluates quarantine windows against `watermark` (typically
    /// the final ingest watermark) and returns every shard's settled
    /// status.
    pub fn settle(&self, watermark: Timestamp) -> Vec<ShardStatus> {
        let until = Self::lock(&self.quarantined_until);
        let mut state = Self::lock(&self.state);
        let mut live = 0u64;
        for (shard, entry) in state.iter_mut() {
            entry.quarantined = until.get(shard).is_some_and(|&t| t > watermark);
            if entry.quarantined {
                live += 1;
            }
        }
        self.quarantined.set_u64(live);
        state.values().copied().collect()
    }
}

/// Optional observability hooks threaded through the supervised shard
/// pool by
/// [`PipelineRunner::observability`](crate::PipelineRunner::observability):
/// per-stage latency tracing, supervisor metric export, flight-recorder
/// mirroring, and `/health` state. Every part is independent;
/// [`Default`] is fully disabled (zero overhead beyond an `Option` check
/// per hook site).
#[derive(Debug, Clone, Default)]
pub struct PipelineObservability {
    /// Shard supervisor metric export.
    pub supervisor: Option<SupervisorTelemetry>,
    /// Per-stage latency recorders (`upbound_sim_stage_*`).
    pub tracer: Option<StageTracer>,
    /// Black box mirroring shard state; dumped on worker panic.
    pub flight: Option<FlightRecorder>,
    /// Live `/health` document state.
    pub health: Option<HealthState>,
}

impl PipelineObservability {
    /// Supervisor export plus stage tracing registered in `registry`.
    pub fn new(registry: &Registry) -> Self {
        Self {
            supervisor: Some(SupervisorTelemetry::new(registry)),
            tracer: Some(StageTracer::new(registry, "sim")),
            flight: None,
            health: None,
        }
    }

    /// Mirrors shard incidents into `flight` and dumps on panic.
    pub fn with_flight_recorder(mut self, flight: FlightRecorder) -> Self {
        self.flight = Some(flight);
        self
    }

    /// Publishes watermark/shard state into `health`.
    pub fn with_health(mut self, health: HealthState) -> Self {
        self.health = Some(health);
        self
    }

    /// Drops the latency tracer (the overhead-gate bench compares this
    /// configuration against the traced one).
    pub fn without_tracing(mut self) -> Self {
        self.tracer = None;
        self
    }

    fn shard_status_for(&self, incident: &ShardIncident) -> ShardStatus {
        match &self.supervisor {
            Some(sup) => sup.record_incident(incident),
            None => ShardStatus {
                shard: incident.shard,
                quarantined: true,
                panics: 1,
                restarts: 1,
            },
        }
    }
}

/// How many packets the ingest loop admits between `/health` watermark
/// refreshes. Coarse on purpose: the watermark is diagnostic, and the
/// hot loop should not take the health lock per packet.
const HEALTH_WATERMARK_STRIDE: u64 = 1024;

/// Runs `packets` through the supervised shard pool described in the
/// [module docs](self), with one worker per shard of `sharded`.
///
/// `rebuild(shard, at)` must produce a replacement filter ready to take
/// over shard `shard` at watermark `at` — typically empty, sharing the
/// sharded filter's uplink monitor, and fail-open until it has observed
/// `quarantine` worth of traffic. The caller keeps (a clone of)
/// `sharded`, so per-shard state remains inspectable after the run.
/// Every `obs` hook is optional: per-stage latency scopes (ingest →
/// dispatch → decide → merge → emit), supervisor metric export,
/// flight-recorder mirroring (with a dump on each caught panic) and live
/// `/health` watermark + shard state.
pub(crate) fn supervised_pipeline_impl<I, F, R>(
    packets: I,
    inside: Cidr,
    sharded: ShardedFilter<F>,
    rebuild: R,
    quarantine: TimeDelta,
    pipeline_config: PipelineConfig,
    obs: &PipelineObservability,
) -> (PipelineResult, SupervisorReport)
where
    I: IntoIterator<Item = Packet>,
    F: PacketFilter<Stats = FilterStats> + Send + Sync,
    R: Fn(usize, Timestamp) -> F + Sync,
{
    let (worker_txs, worker_rxs): (Vec<_>, Vec<_>) = (0..sharded.shards())
        .map(|_| bounded::<(u64, Packet, Direction, Timestamp)>(pipeline_config.channel_capacity))
        .unzip();
    let (merge_tx, merge_rx): (Sender<(u64, Packet, Direction, Verdict)>, Receiver<_>) =
        bounded(pipeline_config.channel_capacity);
    let rebuild = &rebuild;

    let scope_result = crossbeam::thread::scope(|scope| {
        // Supervised filter workers: one per shard. A panic inside the
        // decision path unwinds out of the shard's lock guard
        // (parking_lot does not poison), so the shard stays lockable
        // but its state is suspect — quarantine it by swapping in a
        // rebuilt filter, and let the offending packet pass fail-open
        // so its sequence number still reaches the merge stage.
        let worker_handles: Vec<_> = worker_rxs
            .into_iter()
            .map(|rx: Receiver<(u64, Packet, Direction, Timestamp)>| {
                let handle = sharded.clone();
                let merge_tx = merge_tx.clone();
                scope.spawn(move |_| {
                    let mut incidents = Vec::new();
                    for (seq, packet, direction, watermark) in rx {
                        let decided = {
                            let _t = obs.tracer.as_ref().map(|t| t.scope(Stage::Decide));
                            catch_unwind(AssertUnwindSafe(|| {
                                handle.process_packet_at(&packet, direction, watermark)
                            }))
                        };
                        let verdict = match decided {
                            Ok(verdict) => verdict,
                            Err(_panic) => {
                                let shard = handle.shard_of(&packet.tuple(), direction);
                                // `shard_of` is in range, so the swap
                                // cannot fail.
                                let _ = handle.replace_shard(shard, rebuild(shard, watermark));
                                let incident = ShardIncident {
                                    shard,
                                    at: watermark,
                                    quarantined_until: watermark + quarantine,
                                };
                                let status = obs.shard_status_for(&incident);
                                if let Some(health) = &obs.health {
                                    health.update_shard(status);
                                }
                                if let Some(flight) = &obs.flight {
                                    flight.update_shard(status);
                                    flight.set_meta("last_panic_shard", &shard.to_string());
                                    flight.set_meta(
                                        "last_panic_watermark_us",
                                        &incident.at.as_micros().to_string(),
                                    );
                                    let _ = flight.dump_now(DumpTrigger::Panic);
                                }
                                incidents.push(incident);
                                Verdict::Pass
                            }
                        };
                        if merge_tx.send((seq, packet, direction, verdict)).is_err() {
                            break;
                        }
                    }
                    incidents
                })
            })
            .collect();
        drop(merge_tx); // workers hold the only remaining senders

        // Merge + account: restore sequence (= ingest) order.
        let merge_handle = scope.spawn(move |_| {
            let mut result = PipelineResult::default();
            let mut next_seq = 0u64;
            let mut pending: BTreeMap<u64, (Packet, Direction, Verdict)> = BTreeMap::new();
            for (seq, packet, direction, verdict) in merge_rx {
                {
                    let _t = obs.tracer.as_ref().map(|t| t.scope(Stage::Merge));
                    pending.insert(seq, (packet, direction, verdict));
                }
                while let Some((packet, direction, verdict)) = pending.remove(&next_seq) {
                    let _t = obs.tracer.as_ref().map(|t| t.scope(Stage::Emit));
                    account(&mut result, &packet, direction, verdict);
                    next_seq += 1;
                }
            }
            // If the ingest stage stopped early, tail sequence numbers
            // may be sparse; drain whatever arrived.
            for (_, (packet, direction, verdict)) in pending {
                let _t = obs.tracer.as_ref().map(|t| t.scope(Stage::Emit));
                account(&mut result, &packet, direction, verdict);
            }
            result
        });

        // Ingest on the calling thread: classify, tag with the running
        // max-timestamp watermark, route by flow.
        let mut watermark = Timestamp::ZERO;
        let mut admitted = 0u64;
        for (seq, packet) in packets.into_iter().enumerate() {
            let (shard, direction) = {
                let _t = obs.tracer.as_ref().map(|t| t.scope(Stage::Ingest));
                let direction = inside.direction_of(&packet.tuple());
                let shard = sharded.shard_of(&packet.tuple(), direction);
                watermark = watermark.max(packet.ts());
                (shard, direction)
            };
            let sent = {
                let _t = obs.tracer.as_ref().map(|t| t.scope(Stage::Dispatch));
                worker_txs[shard]
                    .send((seq as u64, packet, direction, watermark))
                    .is_ok()
            };
            if !sent {
                break;
            }
            admitted += 1;
            if admitted.is_multiple_of(HEALTH_WATERMARK_STRIDE) {
                if let Some(health) = &obs.health {
                    health.set_watermark(watermark.as_micros());
                }
            }
        }
        drop(worker_txs); // signal end-of-stream to every worker

        let mut incidents: Vec<ShardIncident> = Vec::new();
        for handle in worker_handles {
            incidents.extend(join_or_propagate(handle.join()));
        }
        incidents.sort_by_key(|i| (i.at, i.shard));
        let mut pipeline = join_or_propagate(merge_handle.join());
        pipeline.filter_stats = sharded.stats();
        if let Some(health) = &obs.health {
            health.set_watermark(watermark.as_micros());
        }
        if let Some(sup) = &obs.supervisor {
            for status in sup.settle(watermark) {
                if let Some(health) = &obs.health {
                    health.update_shard(status);
                }
                if let Some(flight) = &obs.flight {
                    flight.update_shard(status);
                }
            }
        }
        let supervisor = SupervisorReport {
            panics: incidents.len() as u64,
            restarts: incidents.len() as u64,
            incidents,
        };
        (pipeline, supervisor)
    });
    join_or_propagate(scope_result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::PipelineRunner;
    use upbound_core::{BitmapFilter, BitmapFilterConfig, FailMode, Snapshottable};
    use upbound_traffic::{generate, TraceConfig};

    fn trace() -> upbound_traffic::SyntheticTrace {
        generate(
            &TraceConfig::builder()
                .duration_secs(30.0)
                .flow_rate_per_sec(20.0)
                .seed(55)
                .build()
                .expect("valid"),
        )
    }

    fn inside() -> Cidr {
        "10.0.0.0/16".parse().expect("cidr")
    }

    /// The one threaded pipeline, through its public front door.
    fn run_pool(
        packets: impl IntoIterator<Item = Packet>,
        config: BitmapFilterConfig,
        shards: usize,
        pipeline_config: PipelineConfig,
    ) -> PipelineResult {
        let report = PipelineRunner::new(inside(), config)
            .shards(shards)
            .pipeline_config(pipeline_config)
            .run(packets)
            .expect("runner");
        assert_eq!(report.supervisor, SupervisorReport::default());
        report.pipeline
    }

    /// A sequential filter over the same stream, accounted the same way.
    fn sequential(packets: &[Packet], config: BitmapFilterConfig) -> PipelineResult {
        let mut reference = BitmapFilter::new(config);
        let mut result = PipelineResult::default();
        for packet in packets {
            let direction = inside().direction_of(&packet.tuple());
            let verdict = reference.process_packet(packet, direction);
            account(&mut result, packet, direction, verdict);
        }
        result.filter_stats = reference.stats();
        result
    }

    fn packets() -> Vec<Packet> {
        trace().packets.iter().map(|lp| lp.packet.clone()).collect()
    }

    #[test]
    fn pipeline_matches_sequential_run() {
        let packets = packets();
        let config = BitmapFilterConfig::paper_evaluation();
        let reference = sequential(&packets, config.clone());
        assert_eq!(reference.ingested as usize, packets.len());
        for shards in [1usize, 4] {
            let result = run_pool(
                packets.iter().cloned(),
                config.clone(),
                shards,
                PipelineConfig::default(),
            );
            assert_eq!(result, reference, "shards = {shards}");
        }
    }

    #[test]
    fn observed_filter_journal_matches_sequential() {
        use upbound_core::{FlowHash, TelemetryObserver};

        let trace = trace();
        let config = BitmapFilterConfig::paper_evaluation();

        // Sequential reference with a live observer.
        let seq_registry = Registry::new();
        let mut reference = BitmapFilter::with_observer(
            config.clone(),
            TelemetryObserver::new(&seq_registry, "core", 256),
        );
        for lp in &trace.packets {
            reference.process_packet(&lp.packet, lp.direction);
        }

        // A one-shard pool over an observed filter.
        let pool_registry = Registry::new();
        let uplink = Arc::new(config.uplink_monitor());
        let observed = BitmapFilter::with_observer(
            config.clone(),
            TelemetryObserver::new(&pool_registry, "core", 256),
        )
        .with_shared_uplink(Arc::clone(&uplink));
        let sharded = ShardedFilter::from_shards(
            FlowHash::new(config.hole_punching()),
            uplink,
            vec![observed],
        );
        let (result, supervisor) = supervised_pipeline_impl(
            trace.packets.iter().map(|lp| lp.packet.clone()),
            inside(),
            sharded.clone(),
            |_, _| unreachable!("no shard panics"),
            config.expiry_timer(),
            PipelineConfig {
                // A tiny channel forces backpressure without changing
                // verdicts.
                channel_capacity: 2,
                ..PipelineConfig::default()
            },
            &PipelineObservability::default(),
        );
        assert_eq!(supervisor, SupervisorReport::default());

        // Verdict-for-verdict determinism: same filter counters and the
        // exact same journal (events carry P_d and uplink estimates, so
        // this checks the full observed operating-point sequence too).
        assert_eq!(result.filter_stats, reference.stats());
        let seq_events: Vec<_> = reference.observer().journal().iter().copied().collect();
        let pool_events: Vec<_> = sharded
            .with_shard(0, |f| f.observer().journal().iter().copied().collect())
            .expect("shard 0");
        assert_eq!(seq_events, pool_events);
        assert!(!pool_events.is_empty(), "trace should produce events");

        let seq_snap = seq_registry.snapshot();
        let pool_snap = pool_registry.snapshot();
        for name in [
            "upbound_core_outbound_packets_total",
            "upbound_core_inbound_pass_total",
            "upbound_core_drops_unsolicited_total",
            "upbound_core_drops_red_total",
            "upbound_core_rotations_total",
        ] {
            assert_eq!(seq_snap.counter(name), pool_snap.counter(name), "{name}");
        }
    }

    #[test]
    fn tiny_channels_still_drain_everything() {
        let packets = packets();
        for shards in [1usize, 3] {
            let result = run_pool(
                packets.iter().cloned(),
                BitmapFilterConfig::paper_evaluation(),
                shards,
                PipelineConfig {
                    channel_capacity: 1,
                    ..PipelineConfig::default()
                },
            );
            assert_eq!(result.ingested as usize, packets.len(), "shards = {shards}");
            assert_eq!(result.passed + result.dropped, result.ingested);
        }
    }

    #[test]
    fn empty_input_shuts_down_cleanly() {
        for shards in [1usize, 4] {
            let result = run_pool(
                std::iter::empty(),
                BitmapFilterConfig::paper_evaluation(),
                shards,
                PipelineConfig::default(),
            );
            assert_eq!(result, PipelineResult::default(), "shards = {shards}");
        }
    }

    #[test]
    fn batch_size_does_not_change_results() {
        let packets = packets();
        let config = BitmapFilterConfig::paper_evaluation();
        let reference = sequential(&packets, config.clone());
        for batch_size in [0usize, 3, 64, 4096] {
            let pipeline_config = PipelineConfig {
                batch_size,
                ..PipelineConfig::default()
            };
            for shards in [1usize, 4] {
                let result = run_pool(
                    packets.iter().cloned(),
                    config.clone(),
                    shards,
                    pipeline_config,
                );
                assert_eq!(
                    result, reference,
                    "shards {shards}, batch_size {batch_size}"
                );
            }
        }
    }

    #[test]
    fn sharded_pipeline_matches_sequential_on_nonmonotonic_trace() {
        // Deterministically scramble the trace's timestamp order (swap
        // timestamps pairwise within a stride) and inject a far-future
        // outlier, then assert the pool still produces the sequential
        // verdict stream for shards ∈ {1, 4}.
        let config = BitmapFilterConfig::paper_evaluation();
        let mut packets = packets();
        for i in (0..packets.len().saturating_sub(7)).step_by(7) {
            let a = packets[i].ts();
            let b = packets[i + 6].ts();
            packets[i] = packets[i].clone().with_ts(b);
            packets[i + 6] = packets[i + 6].clone().with_ts(a);
        }
        let mid = packets.len() / 2;
        let far = packets[mid].ts() + upbound_net::TimeDelta::from_secs(40_000.0);
        packets[mid] = packets[mid].clone().with_ts(far);

        let reference = sequential(&packets, config.clone());
        for shards in [1usize, 4] {
            let result = run_pool(
                packets.iter().cloned(),
                config.clone(),
                shards,
                PipelineConfig::default(),
            );
            assert_eq!(result.ingested as usize, packets.len());
            assert_eq!(result.passed, reference.passed, "shards = {shards}");
            assert_eq!(result.dropped, reference.dropped, "shards = {shards}");
        }
    }

    /// A filter that delegates to an inner [`BitmapFilter`] but panics
    /// when asked to decide a packet touching `trip_port` — the fault
    /// injection for supervisor tests.
    struct Grenade {
        inner: BitmapFilter,
        trip_port: Option<u16>,
    }

    impl PacketFilter for Grenade {
        type Stats = FilterStats;

        fn decide(&mut self, packet: &Packet, direction: Direction) -> Verdict {
            let tuple = packet.tuple();
            if let Some(port) = self.trip_port {
                if tuple.src().port() == port || tuple.dst().port() == port {
                    panic!("injected shard fault");
                }
            }
            self.inner.decide(packet, direction)
        }

        fn advance(&mut self, now: Timestamp) {
            self.inner.advance(now);
        }

        fn stats(&self) -> FilterStats {
            self.inner.stats()
        }

        fn memory_bytes(&self) -> usize {
            self.inner.memory_bytes()
        }

        fn drop_probability(&self, now: Timestamp) -> f64 {
            self.inner.drop_probability(now)
        }

        fn name(&self) -> &str {
            "grenade"
        }
    }

    fn grenade_shards(
        config: &BitmapFilterConfig,
        shards: usize,
        trip_port: Option<u16>,
    ) -> ShardedFilter<Grenade> {
        let uplink = Arc::new(config.uplink_monitor());
        let filters = (0..shards)
            .map(|_| Grenade {
                inner: BitmapFilter::new(config.clone()).with_shared_uplink(Arc::clone(&uplink)),
                trip_port,
            })
            .collect();
        ShardedFilter::from_shards(
            upbound_core::FlowHash::new(config.hole_punching()),
            uplink,
            filters,
        )
    }

    #[test]
    fn shard_panic_degrades_only_that_shard() {
        let trace = trace();
        let config = BitmapFilterConfig::paper_evaluation();
        let shards = 4usize;
        let packets: Vec<Packet> = trace.packets.iter().map(|lp| lp.packet.clone()).collect();

        // Pick a trip wire: an inbound packet about two-thirds in, so
        // the victim shard has state worth poisoning.
        let trip_at = packets.len() * 2 / 3;
        let trip_packet = packets[trip_at..]
            .iter()
            .find(|p| inside().direction_of(&p.tuple()) == Direction::Inbound)
            .expect("trace has inbound packets");
        let trip_port = trip_packet.tuple().src().port();
        let victim = grenade_shards(&config, shards, Some(trip_port))
            .shard_of(&trip_packet.tuple(), Direction::Inbound);

        let rebuild_config = config.clone().with_fail_mode(FailMode::Open);
        let run = |trip: Option<u16>| {
            let sharded = grenade_shards(&config, shards, trip);
            let uplink = Arc::clone(sharded.uplink());
            let rebuild_config = rebuild_config.clone();
            let rebuild = move |_shard: usize, at: Timestamp| {
                let mut inner = BitmapFilter::new(rebuild_config.clone())
                    .with_shared_uplink(Arc::clone(&uplink));
                inner.start_cold_at(at);
                Grenade {
                    inner,
                    trip_port: None,
                }
            };
            let (pipeline, supervisor) = supervised_pipeline_impl(
                packets.iter().cloned(),
                inside(),
                sharded.clone(),
                rebuild,
                config.expiry_timer(),
                PipelineConfig::default(),
                &PipelineObservability::default(),
            );
            let shard_stats: Vec<FilterStats> = (0..shards)
                .map(|i| sharded.with_shard(i, |f| f.stats()).unwrap())
                .collect();
            (pipeline, supervisor, shard_stats)
        };

        let (_, clean, clean_stats) = run(None);
        let (pipeline, faulted, faulted_stats) = run(Some(trip_port));

        // The supervisor caught at least one panic, quarantined only
        // the victim shard, and every packet still drained through the
        // merge stage (nothing wedged, nothing lost).
        assert!(faulted.panics >= 1);
        assert_eq!(faulted.panics, faulted.restarts);
        assert!(faulted.incidents.iter().all(|i| i.shard == victim));
        assert!(faulted
            .incidents
            .iter()
            .all(|i| i.quarantined_until == i.at + config.expiry_timer()));
        assert_eq!(pipeline.ingested as usize, packets.len());
        assert_eq!(pipeline.passed + pipeline.dropped, pipeline.ingested);
        assert_eq!(clean, SupervisorReport::default());

        // Sequential-equivalence for survivors: every shard except the
        // victim ends with byte-identical counters to the clean run.
        for (i, (clean_s, faulted_s)) in clean_stats.iter().zip(&faulted_stats).enumerate() {
            if i != victim {
                assert_eq!(clean_s, faulted_s, "survivor shard {i} diverged");
            }
        }
        // The victim really was degraded (rebuilt mid-run), and its
        // rebuilt filter was armed fail-open: it never falsely dropped
        // while cold unless it had warmed back up.
        assert_ne!(clean_stats[victim], faulted_stats[victim]);
    }

    #[test]
    fn observed_pipeline_exports_supervisor_metrics_and_dumps_on_panic() {
        use upbound_telemetry::MetricValue;

        let trace = trace();
        let config = BitmapFilterConfig::paper_evaluation();
        let shards = 4usize;
        let packets: Vec<Packet> = trace.packets.iter().map(|lp| lp.packet.clone()).collect();
        let trip_packet = packets[packets.len() / 2..]
            .iter()
            .find(|p| inside().direction_of(&p.tuple()) == Direction::Inbound)
            .expect("trace has inbound packets");
        let trip_port = trip_packet.tuple().src().port();

        let registry = Registry::new();
        let flight = FlightRecorder::default();
        let dump_path =
            std::env::temp_dir().join(format!("upbound-sim-observed-{}.dump", std::process::id()));
        let _ = std::fs::remove_file(&dump_path);
        flight.set_dump_path(&dump_path);
        flight.attach_registry(registry.clone());
        let health = HealthState::new();
        let obs = PipelineObservability::new(&registry)
            .with_flight_recorder(flight.clone())
            .with_health(health.clone());

        let sharded = grenade_shards(&config, shards, Some(trip_port));
        let uplink = Arc::clone(sharded.uplink());
        let rebuild_config = config.clone().with_fail_mode(FailMode::Open);
        let rebuild = move |_shard: usize, at: Timestamp| {
            let mut inner =
                BitmapFilter::new(rebuild_config.clone()).with_shared_uplink(Arc::clone(&uplink));
            inner.start_cold_at(at);
            Grenade {
                inner,
                trip_port: None,
            }
        };
        let (_, supervisor) = supervised_pipeline_impl(
            packets.iter().cloned(),
            inside(),
            sharded,
            rebuild,
            config.expiry_timer(),
            PipelineConfig::default(),
            &obs,
        );
        assert!(supervisor.panics >= 1);

        // Supervisor counters mirror the in-memory report.
        let snapshot = registry.snapshot();
        let counter = |name: &str| match snapshot.get(name).map(|s| &s.value) {
            Some(MetricValue::Counter(v)) => *v,
            other => panic!("{name} missing or not a counter: {other:?}"),
        };
        assert_eq!(counter("upbound_sim_shard_panics_total"), supervisor.panics);
        assert_eq!(
            counter("upbound_sim_shard_restarts_total"),
            supervisor.restarts
        );
        assert_eq!(
            counter("upbound_sim_shard_incidents_total"),
            supervisor.incidents.len() as u64
        );

        // Stage tracing recorded latency for every stage that saw work.
        for stage in [Stage::Ingest, Stage::Dispatch, Stage::Decide, Stage::Emit] {
            let name = format!("upbound_sim_stage_{}_latency_seconds", stage.label());
            match snapshot.get(&name).map(|s| &s.value) {
                Some(MetricValue::Histogram(h)) => {
                    assert!(h.count > 0, "{name} recorded nothing")
                }
                other => panic!("{name} missing or not a histogram: {other:?}"),
            }
        }

        // The panic path wrote a dump that parses and names the shard.
        assert!(flight.dumps_written() >= 1, "no dump written on panic");
        let text = std::fs::read_to_string(&dump_path).expect("dump file");
        let dump = upbound_telemetry::FlightRecorder::parse(&text).expect("dump parses");
        assert_eq!(dump.trigger, upbound_telemetry::DumpTrigger::Panic);
        assert!(!dump.shards.is_empty());
        assert!(dump.shards.iter().any(|s| s.panics >= 1));
        assert!(dump.meta.iter().any(|(k, _)| k == "last_panic_shard"));
        let _ = std::fs::remove_file(&dump_path);

        // Health carries the final watermark and the quarantine record.
        let doc = health.render();
        assert!(doc.contains("\"watermark_micros\""));
        assert!(
            doc.contains("\"panics\":"),
            "health doc lacks shard state: {doc}"
        );
    }

    #[test]
    fn byte_accounting_matches_directions() {
        let trace = trace();
        let result = run_pool(
            trace.packets.iter().map(|lp| lp.packet.clone()),
            // Pd = 0 under no load (high thresholds): everything passes.
            BitmapFilterConfig::builder()
                .drop_policy(upbound_core::DropPolicy::new(1e12, 2e12).expect("valid"))
                .build()
                .expect("valid"),
            1,
            PipelineConfig::default(),
        );
        assert_eq!(result.dropped, 0);
        assert_eq!(result.uplink_bytes, trace.upload_bytes());
        assert_eq!(result.downlink_bytes, trace.download_bytes());
    }
}
