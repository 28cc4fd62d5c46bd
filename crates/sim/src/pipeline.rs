//! The dataplane's tuning knobs and its shard supervisor's records.
//!
//! [`serve`](crate::PipelineRunner::serve) decides every run of packets
//! under `catch_unwind`. A panic inside a shard's decision path
//! quarantines that shard: the packets before it keep their verdicts,
//! the panicking packet passes fail-open, the shard is rebuilt **empty
//! and fail-open** (cold at the watermark) by the constructor that built
//! it, and deciding resumes at the next packet while the other `N − 1`
//! shards keep filtering. Each quarantine is a [`ShardIncident`]; a
//! session's incidents are its [`SupervisorReport`], and the optional
//! [`PipelineObservability`] hooks export them as metrics
//! ([`SupervisorTelemetry`]), flight-recorder dumps and `/health` shard
//! state.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::sync::Mutex;
use upbound_net::Timestamp;
use upbound_telemetry::{
    Counter, DumpTrigger, FlightRecorder, Gauge, HealthState, Registry, ShardStatus, StageTracer,
};

/// Dataplane tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Maximum packets decided per batch: the poll size of
    /// [`serve`](crate::PipelineRunner::serve). `1` restores the
    /// per-packet path; `0` is treated as `1`.
    pub batch_size: usize,
}

impl Default for PipelineConfig {
    /// 64 packets per batch, the `batch_throughput` bench's sweet spot
    /// (see BENCH_batch_throughput.json).
    fn default() -> Self {
        Self { batch_size: 64 }
    }
}

/// One quarantine event recorded by the shard supervisor: shard `shard`
/// panicked while deciding a packet at watermark `at`, its filter was
/// rebuilt empty, and the rebuilt memory is not trustworthy (still
/// warming up) until `quarantined_until`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardIncident {
    /// Index of the shard that panicked.
    pub shard: usize,
    /// Watermark when the panic was caught.
    pub at: Timestamp,
    /// End of the rebuilt shard's warm-up window (`at` + `T_e`).
    pub quarantined_until: Timestamp,
}

/// Aggregate record of everything the shard supervisor had to do during
/// one [`serve`](crate::PipelineRunner::serve) session. All zeros/empty
/// on a clean run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SupervisorReport {
    /// Shard panics caught.
    pub panics: u64,
    /// Shards rebuilt empty (one per caught panic).
    pub restarts: u64,
    /// Per-event detail, in watermark order (ties by shard).
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

/// Optional observability hooks of
/// [`serve`](crate::PipelineRunner::serve), set through
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
    /// Black box mirroring shard state; dumped on a caught panic.
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

    /// Exports one quarantine: the supervisor counters, the shard's
    /// `/health` and flight-recorder state, and a flight dump.
    pub(crate) fn quarantined(&self, incident: &ShardIncident) {
        let status = match &self.supervisor {
            Some(sup) => sup.record_incident(incident),
            None => ShardStatus {
                shard: incident.shard,
                quarantined: true,
                panics: 1,
                restarts: 1,
            },
        };
        if let Some(health) = &self.health {
            health.update_shard(status);
        }
        if let Some(flight) = &self.flight {
            flight.update_shard(status);
            flight.set_meta("last_panic_shard", &incident.shard.to_string());
            flight.set_meta(
                "last_panic_watermark_us",
                &incident.at.as_micros().to_string(),
            );
            let _ = flight.dump_now(DumpTrigger::Panic);
        }
    }

    /// Settles every quarantine window against the session's final
    /// `watermark` and republishes the shard states.
    pub(crate) fn settle(&self, watermark: Timestamp) {
        let Some(sup) = &self.supervisor else {
            return;
        };
        for status in sup.settle(watermark) {
            if let Some(health) = &self.health {
                health.update_shard(status);
            }
            if let Some(flight) = &self.flight {
                flight.update_shard(status);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::runner::{PipelineRunner, ServeControl, ServeReport, ShardBank};
    use upbound_core::{
        BitmapFilter, BitmapFilterConfig, FilterObserver, FilterStats, FlowHash, InboundDecision,
        ShardedFilter,
    };
    use upbound_net::{BufferedSource, Cidr, Direction, FiveTuple, Packet};
    use upbound_telemetry::Stage;
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

    /// What one run decided, in the terms every loop reports.
    #[derive(Debug, Default, PartialEq)]
    struct Outcome {
        packets: u64,
        passed: u64,
        dropped: u64,
        uplink_kept_bits: u64,
        filter_stats: FilterStats,
    }

    impl From<&ServeReport> for Outcome {
        fn from(report: &ServeReport) -> Self {
            Outcome {
                packets: report.packets,
                passed: report.passed,
                dropped: report.dropped,
                uplink_kept_bits: report.uplink_kept_bits,
                filter_stats: report.filter_stats,
            }
        }
    }

    /// `serve` over `packets`, asserting a clean supervisor.
    fn serve(
        packets: impl IntoIterator<Item = Packet>,
        config: BitmapFilterConfig,
        shards: usize,
        pipeline_config: PipelineConfig,
    ) -> Outcome {
        let mut source = BufferedSource::labeled(packets.into_iter().collect(), inside());
        let report = PipelineRunner::new(inside(), config)
            .shards(shards)
            .pipeline_config(pipeline_config)
            .serve(&mut source, &ServeControl::new())
            .expect("serve");
        assert_eq!(report.supervisor, SupervisorReport::default());
        Outcome::from(&report)
    }

    /// A sequential filter over the same stream, accounted the same way.
    fn sequential(packets: &[Packet], config: BitmapFilterConfig) -> Outcome {
        let mut reference = BitmapFilter::new(config);
        let mut outcome = Outcome::default();
        for packet in packets {
            let direction = inside().direction_of(&packet.tuple());
            let verdict = reference.process_packet(packet, direction);
            outcome.packets += 1;
            match (direction, verdict) {
                (Direction::Inbound, upbound_core::Verdict::Drop) => outcome.dropped += 1,
                (Direction::Outbound, _) => {
                    outcome.passed += 1;
                    outcome.uplink_kept_bits += packet.wire_bits();
                }
                (Direction::Inbound, _) => outcome.passed += 1,
            }
        }
        outcome.filter_stats = reference.stats();
        outcome
    }

    fn packets() -> Vec<Packet> {
        trace().packets.iter().map(|lp| lp.packet.clone()).collect()
    }

    #[test]
    fn pipeline_matches_sequential_run() {
        let packets = packets();
        let config = BitmapFilterConfig::paper_evaluation();
        let reference = sequential(&packets, config.clone());
        assert_eq!(reference.packets as usize, packets.len());
        for shards in [1usize, 4] {
            let result = serve(
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
        use upbound_core::TelemetryObserver;

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

        // A one-shard bank of an observed filter.
        let bank_registry = Registry::new();
        let uplink = Arc::new(config.uplink_monitor());
        let shard = |config| {
            BitmapFilter::with_observer(config, TelemetryObserver::new(&bank_registry, "core", 256))
                .with_shared_uplink(Arc::clone(&uplink))
        };
        let sharded = ShardedFilter::from_shards(
            FlowHash::new(config.hole_punching()),
            Arc::clone(&uplink),
            vec![shard(config.clone())],
        );
        let mut source = BufferedSource::labeled(
            trace.packets.iter().map(|lp| lp.packet.clone()).collect(),
            inside(),
        );
        let report = PipelineRunner::new(inside(), config.clone())
            .serve_with(
                ShardBank::new(sharded.clone(), config.clone(), shard, &FaultPlan::none()),
                &mut source,
                &ServeControl::new(),
                |_, _| Ok(()),
            )
            .expect("serve");
        assert_eq!(report.supervisor, SupervisorReport::default());

        // Verdict-for-verdict determinism: same filter counters and the
        // exact same journal (events carry P_d and uplink estimates, so
        // this checks the full observed operating-point sequence too).
        assert_eq!(report.filter_stats, reference.stats());
        let seq_events: Vec<_> = reference.observer().journal().iter().copied().collect();
        let bank_events: Vec<_> = sharded
            .with_shard(0, |f| f.observer().journal().iter().copied().collect())
            .expect("shard 0");
        assert_eq!(seq_events, bank_events);
        assert!(!bank_events.is_empty(), "trace should produce events");

        let seq_snap = seq_registry.snapshot();
        let bank_snap = bank_registry.snapshot();
        for name in [
            "upbound_core_outbound_packets_total",
            "upbound_core_inbound_pass_total",
            "upbound_core_drops_unsolicited_total",
            "upbound_core_drops_red_total",
            "upbound_core_rotations_total",
        ] {
            assert_eq!(seq_snap.counter(name), bank_snap.counter(name), "{name}");
        }
    }

    #[test]
    fn empty_input_shuts_down_cleanly() {
        for shards in [1usize, 4] {
            let result = serve(
                std::iter::empty(),
                BitmapFilterConfig::paper_evaluation(),
                shards,
                PipelineConfig::default(),
            );
            assert_eq!(result, Outcome::default(), "shards = {shards}");
        }
    }

    #[test]
    fn batch_size_does_not_change_results() {
        let packets = packets();
        let config = BitmapFilterConfig::paper_evaluation();
        let reference = sequential(&packets, config.clone());
        for batch_size in [0usize, 3, 64, 4096] {
            for shards in [1usize, 4] {
                let result = serve(
                    packets.iter().cloned(),
                    config.clone(),
                    shards,
                    PipelineConfig { batch_size },
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
        // outlier, then assert `serve` still produces the sequential
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
            let result = serve(
                packets.iter().cloned(),
                config.clone(),
                shards,
                PipelineConfig::default(),
            );
            assert_eq!(result.packets as usize, packets.len());
            assert_eq!(result.passed, reference.passed, "shards = {shards}");
            assert_eq!(result.dropped, reference.dropped, "shards = {shards}");
        }
    }

    /// An observer that panics when told of a decided packet touching
    /// `port` — the fault injection for supervisor tests.
    struct TripPort {
        port: Option<u16>,
    }

    impl TripPort {
        fn check(&self, ports: [u16; 2]) {
            if self.port.is_some_and(|port| ports.contains(&port)) {
                panic!("injected shard fault");
            }
        }
    }

    impl FilterObserver for TripPort {
        fn on_outbound(&mut self, tuple: &FiveTuple, _now: Timestamp) {
            self.check([tuple.src().port(), tuple.dst().port()]);
        }

        fn on_inbound(&mut self, decision: &InboundDecision<'_>) {
            // Filter key bytes 5..7 hold the client port, 11..13 the
            // remote port.
            let port = |at: usize| u16::from_be_bytes([decision.key[at], decision.key[at + 1]]);
            self.check([port(5), port(11)]);
        }
    }

    /// A bank of `shards` trip-port shards plus the constructor that
    /// rebuilds one disarmed.
    fn trip_port_bank(
        config: &BitmapFilterConfig,
        shards: usize,
        port: Option<u16>,
    ) -> (
        ShardedFilter<BitmapFilter<TripPort>>,
        impl Fn(BitmapFilterConfig) -> BitmapFilter<TripPort>,
    ) {
        let uplink = Arc::new(config.uplink_monitor());
        let shard = {
            let uplink = Arc::clone(&uplink);
            move |config, port| {
                BitmapFilter::with_observer(config, TripPort { port })
                    .with_shared_uplink(Arc::clone(&uplink))
            }
        };
        let filters = (0..shards).map(|_| shard(config.clone(), port)).collect();
        let bank =
            ShardedFilter::from_shards(FlowHash::new(config.hole_punching()), uplink, filters);
        (bank, move |config| shard(config, None))
    }

    /// An inbound packet about `share` of the way in — one whose shard
    /// has state worth poisoning — and its remote port.
    fn trip_packet(packets: &[Packet], share: f64) -> (Packet, u16) {
        let from = (packets.len() as f64 * share) as usize;
        let packet = packets[from..]
            .iter()
            .find(|p| inside().direction_of(&p.tuple()) == Direction::Inbound)
            .expect("trace has inbound packets");
        (packet.clone(), packet.tuple().src().port())
    }

    #[test]
    fn shard_panic_degrades_only_that_shard() {
        let config = BitmapFilterConfig::paper_evaluation();
        let shards = 4usize;
        let packets = packets();
        let (trip, trip_port) = trip_packet(&packets, 2.0 / 3.0);
        let victim = trip_port_bank(&config, shards, None)
            .0
            .shard_of(&trip.tuple(), Direction::Inbound);

        let run = |port: Option<u16>| {
            let (bank, rebuild) = trip_port_bank(&config, shards, port);
            let mut source = BufferedSource::labeled(packets.clone(), inside());
            let report = PipelineRunner::new(inside(), config.clone())
                .serve_with(
                    ShardBank::new(bank.clone(), config.clone(), rebuild, &FaultPlan::none()),
                    &mut source,
                    &ServeControl::new(),
                    |_, _| Ok(()),
                )
                .expect("serve");
            let shard_stats: Vec<FilterStats> = (0..shards)
                .map(|i| bank.with_shard(i, |f| f.stats()).unwrap())
                .collect();
            (report, shard_stats)
        };

        let (clean, clean_stats) = run(None);
        let (faulted, faulted_stats) = run(Some(trip_port));
        let supervisor = &faulted.supervisor;

        // The supervisor caught at least one panic, quarantined only
        // the victim shard, and every packet still got a verdict
        // (nothing wedged, nothing lost).
        assert!(supervisor.panics >= 1);
        assert_eq!(supervisor.panics, supervisor.restarts);
        assert!(supervisor.incidents.iter().all(|i| i.shard == victim));
        assert!(supervisor
            .incidents
            .iter()
            .all(|i| i.quarantined_until == i.at + config.expiry_timer()));
        assert_eq!(faulted.packets as usize, packets.len());
        assert_eq!(faulted.passed + faulted.dropped, faulted.packets);
        assert_eq!(clean.supervisor, SupervisorReport::default());

        // Sequential-equivalence for survivors: every shard except the
        // victim ends with byte-identical counters to the clean run.
        for (i, (clean_s, faulted_s)) in clean_stats.iter().zip(&faulted_stats).enumerate() {
            if i != victim {
                assert_eq!(clean_s, faulted_s, "survivor shard {i} diverged");
            }
        }
        // The victim really was degraded (rebuilt mid-run).
        assert_ne!(clean_stats[victim], faulted_stats[victim]);
    }

    #[test]
    fn observed_pipeline_exports_supervisor_metrics_and_dumps_on_panic() {
        use upbound_telemetry::MetricValue;

        let config = BitmapFilterConfig::paper_evaluation();
        let packets = packets();
        let (_, trip_port) = trip_packet(&packets, 0.5);

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

        let (bank, rebuild) = trip_port_bank(&config, 4, Some(trip_port));
        let mut source = BufferedSource::labeled(packets, inside());
        let report = PipelineRunner::new(inside(), config.clone())
            .observability(obs)
            .serve_with(
                ShardBank::new(bank, config, rebuild, &FaultPlan::none()),
                &mut source,
                &ServeControl::new(),
                |_, _| Ok(()),
            )
            .expect("serve");
        let supervisor = &report.supervisor;
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

        // Stage tracing recorded latency for every stage `serve` times.
        for stage in [Stage::Ingest, Stage::Decide, Stage::Emit] {
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
        let dump = FlightRecorder::parse(&text).expect("dump parses");
        assert_eq!(dump.trigger, DumpTrigger::Panic);
        assert!(!dump.shards.is_empty());
        assert!(dump.shards.iter().any(|s| s.panics >= 1));
        assert!(dump.meta.iter().any(|(k, _)| k == "last_panic_shard"));
        let _ = std::fs::remove_file(&dump_path);

        // Health carries the final watermark and the quarantine record.
        let doc = health.render();
        let watermark = format!("\"watermark_micros\":{}", report.watermark.as_micros());
        assert!(
            doc.contains(&watermark),
            "health doc lacks {watermark}: {doc}"
        );
        assert!(
            doc.contains("\"panics\":"),
            "health doc lacks shard state: {doc}"
        );
    }

    #[test]
    fn byte_accounting_matches_directions() {
        let trace = trace();
        let result = serve(
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
        assert_eq!(result.passed, result.packets);
        assert_eq!(result.uplink_kept_bits, trace.upload_bytes() * 8);
    }
}
