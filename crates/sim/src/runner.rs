//! [`PipelineRunner`] — the one front door to every dataplane shape.
//!
//! Every axis (shards, overload policy, fault plans, observability,
//! checkpoints) is a builder option instead of a function of its own:
//!
//! ```text
//! PipelineRunner::new(inside, filter_config)
//!     .shards(4)                 // scale the filter stage out
//!     .overload_policy(policy)   // degradation ladder
//!     .fault_plan(plan)          // deterministic chaos
//!     .observability(obs)        // tracing / flight recorder / health
//!     .checkpoint(path, every)   // crash-safe snapshots
//!     .run(packets)              // or measure(), run_source(), serve()
//! ```
//!
//! Terminal methods pick the execution engine:
//!
//! * [`run`](PipelineRunner::run) / [`run_source`](PipelineRunner::run_source)
//!   — the threaded deployment pipeline, a supervised shard pool that
//!   quarantines a panicking shard instead of failing the run
//!   ([`PipelineResult`] semantics).
//! * [`measure`](PipelineRunner::measure) /
//!   [`measure_source`](PipelineRunner::measure_source) — the
//!   paper-faithful [`ReplayEngine`] with oracle scoring and the
//!   blocked-σ store ([`ReplayResult`] semantics).
//! * [`serve`](PipelineRunner::serve) — the long-running live loop: a
//!   [`PacketSource`] polled forever, reconfigurable at runtime through
//!   a [`ServeControl`] without restarting (see below).
//!
//! # Runtime reconfiguration
//!
//! [`serve`](PipelineRunner::serve) watches the control's
//! [`ConfigCell`]. Staged [`RuntimeOverrides`] (P_d curve, fail mode,
//! overload policy, batch size) are applied at the first batch boundary
//! **after the next bitmap rotation** — a natural quiesce point: the
//! rotation has just expired one vector of state, so a policy change
//! there never splits one vector's fill between two policies. When the
//! source is idle the overrides apply immediately (no packet is in
//! flight at all). A drain request finishes the in-flight batch, writes
//! a final checkpoint if checkpointing is configured, and returns — the
//! same graceful path end-of-stream takes.

use crate::fault::{
    AtomicCheckpointSink, CheckpointSink, DistortionReport, FaultPlan, FaultingCheckpointSink,
    FaultingFilter, PlannedInjector,
};
use crate::pipeline::{
    subscriber_pipeline_impl, supervised_pipeline_impl, PipelineConfig, PipelineObservability,
    PipelineResult, SupervisorReport,
};
use crate::replay::{ReplayConfig, ReplayEngine, ReplayResult, SourceIter};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use upbound_core::{
    BitmapFilter, BitmapFilterConfig, ConfigCell, ConfigError, DropPolicy, FailMode, FilterStats,
    FlowHash, OverloadPolicy, PacketFilter, RuntimeOverrides, ShardedFilter, SnapshotError,
    Snapshottable, SubscriberTable, ThroughputMonitor, Verdict,
};
use upbound_net::pcap::IngestStats;
use upbound_net::{
    Cidr, Direction, NetError, Packet, PacketSource, SourcePoll, TimeDelta, Timestamp,
};
use upbound_telemetry::{Counter, Gauge, Registry};
use upbound_traffic::SyntheticTrace;

/// Why a [`PipelineRunner`] terminal method failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum RunnerError {
    /// The filter configuration could not build (bad shard count, …).
    Config(ConfigError),
    /// The packet source failed unrecoverably.
    Net(NetError),
    /// A checkpoint write failed.
    Snapshot(SnapshotError),
}

impl fmt::Display for RunnerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunnerError::Config(e) => write!(f, "filter configuration rejected: {e}"),
            RunnerError::Net(e) => write!(f, "packet source failed: {e}"),
            RunnerError::Snapshot(e) => write!(f, "checkpoint failed: {e}"),
        }
    }
}

impl std::error::Error for RunnerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunnerError::Config(e) => Some(e),
            RunnerError::Net(e) => Some(e),
            RunnerError::Snapshot(e) => Some(e),
        }
    }
}

impl From<ConfigError> for RunnerError {
    fn from(e: ConfigError) -> Self {
        RunnerError::Config(e)
    }
}

impl From<NetError> for RunnerError {
    fn from(e: NetError) -> Self {
        RunnerError::Net(e)
    }
}

impl From<SnapshotError> for RunnerError {
    fn from(e: SnapshotError) -> Self {
        RunnerError::Snapshot(e)
    }
}

/// Output of [`PipelineRunner::run`]: the pipeline aggregate plus
/// whatever the optional layers produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The usual pipeline aggregate.
    pub pipeline: PipelineResult,
    /// What the supervisor caught and rebuilt. All zeros on a clean run.
    pub supervisor: SupervisorReport,
    /// What the fault plan's distortion pass touched; `None` without a
    /// fault plan.
    pub distortion: Option<DistortionReport>,
}

/// Output of [`PipelineRunner::measure`] /
/// [`measure_source`](PipelineRunner::measure_source): the replay
/// metrics plus acquisition accounting.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Oracle-scored replay metrics.
    pub replay: ReplayResult,
    /// The source's ingestion accounting (zeroed for in-memory traces,
    /// which have no acquisition layer).
    pub ingest: IngestStats,
    /// Checkpoints written (0 unless checkpointing was configured).
    pub checkpoints: u64,
}

/// Why [`PipelineRunner::serve`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeExit {
    /// The source reported end-of-stream.
    SourceEnded,
    /// A drain was requested through the [`ServeControl`].
    Drained,
}

/// Everything one [`PipelineRunner::serve`] session did.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Packets pulled from the source.
    pub packets: u64,
    /// Packets forwarded (all outbound + passed inbound).
    pub passed: u64,
    /// Inbound packets dropped by the filter.
    pub dropped: u64,
    /// Runtime reconfigurations applied (not merely staged).
    pub reconfigs_applied: u64,
    /// Checkpoints written, final drain checkpoint included.
    pub checkpoints_written: u64,
    /// Why the loop ended.
    pub exit: ServeExit,
    /// The filter's own counters at shutdown.
    pub filter_stats: FilterStats,
    /// Timestamp of the last packet processed.
    pub watermark: Timestamp,
    /// The source's final ingestion accounting.
    pub ingest: IngestStats,
}

/// The control half of a [`PipelineRunner::serve`] session: clone it,
/// hand one clone to the serving thread and keep the other wherever
/// reconfiguration requests arrive (an HTTP handler, a signal handler,
/// a test). All state is shared through the clones.
#[derive(Debug, Clone, Default)]
pub struct ServeControl {
    cell: ConfigCell,
    drain: Arc<AtomicBool>,
    telemetry: Option<ServeTelemetry>,
    idle_sleep: Duration,
}

impl ServeControl {
    /// A fresh control: nothing staged, no drain requested, 1 ms idle
    /// poll, no telemetry.
    pub fn new() -> Self {
        Self {
            cell: ConfigCell::new(),
            drain: Arc::new(AtomicBool::new(false)),
            telemetry: None,
            idle_sleep: Duration::from_millis(1),
        }
    }

    /// Publishes the serve loop's live state into `registry`
    /// (`upbound_serve_*`).
    pub fn with_telemetry(mut self, registry: &Registry) -> Self {
        self.telemetry = Some(ServeTelemetry::new(registry));
        self
    }

    /// How long the serve loop sleeps when the source reports
    /// [`SourcePoll::Idle`].
    pub fn with_idle_sleep(mut self, idle_sleep: Duration) -> Self {
        self.idle_sleep = idle_sleep;
        self
    }

    /// The configuration cell the serve loop watches; stage overrides
    /// here (or via [`stage`](Self::stage)).
    pub fn cell(&self) -> &ConfigCell {
        &self.cell
    }

    /// Stages `overrides` for the serve loop to apply at its next safe
    /// point; returns the new configuration generation.
    pub fn stage(&self, overrides: RuntimeOverrides) -> u64 {
        self.cell.stage(overrides)
    }

    /// Asks the serve loop to finish the in-flight batch, write a final
    /// checkpoint (if configured) and return. Idempotent.
    pub fn request_drain(&self) {
        self.drain.store(true, Ordering::Release);
    }

    /// Whether a drain has been requested.
    pub fn drain_requested(&self) -> bool {
        self.drain.load(Ordering::Acquire)
    }
}

/// Registry-backed export of a serve session's live state
/// (`upbound_serve_*`), so `/metrics` shows throughput, the active
/// configuration generation and the effective policy without touching
/// the dataplane thread.
#[derive(Debug, Clone)]
pub struct ServeTelemetry {
    packets_total: Arc<Counter>,
    passed_total: Arc<Counter>,
    dropped_total: Arc<Counter>,
    reconfigs_total: Arc<Counter>,
    checkpoints_total: Arc<Counter>,
    batch_size: Arc<Gauge>,
    config_generation: Arc<Gauge>,
    rotations: Arc<Gauge>,
    watermark_secs: Arc<Gauge>,
    drop_low_bps: Arc<Gauge>,
    drop_high_bps: Arc<Gauge>,
    ingest_errors: Arc<Gauge>,
    kernel_drops: Arc<Gauge>,
}

impl ServeTelemetry {
    /// Registers the serve metrics in `registry`.
    pub fn new(registry: &Registry) -> Self {
        Self {
            packets_total: registry.counter(
                "upbound_serve_packets_total",
                "Packets pulled from the source by the serve loop",
            ),
            passed_total: registry.counter(
                "upbound_serve_passed_total",
                "Packets forwarded by the serve loop",
            ),
            dropped_total: registry.counter(
                "upbound_serve_dropped_total",
                "Inbound packets dropped by the serve loop",
            ),
            reconfigs_total: registry.counter(
                "upbound_serve_reconfigs_total",
                "Runtime reconfigurations applied",
            ),
            checkpoints_total: registry.counter(
                "upbound_serve_checkpoints_total",
                "Checkpoints written by the serve loop",
            ),
            batch_size: registry.gauge(
                "upbound_serve_batch_size",
                "Effective per-poll batch size of the serve loop",
            ),
            config_generation: registry.gauge(
                "upbound_serve_config_generation",
                "Configuration generation the dataplane has applied",
            ),
            rotations: registry.gauge(
                "upbound_serve_rotations",
                "Bitmap rotations performed by the serving filter",
            ),
            watermark_secs: registry.gauge(
                "upbound_serve_watermark_secs",
                "Timestamp of the last packet processed, in seconds",
            ),
            drop_low_bps: registry.gauge(
                "upbound_serve_drop_low_bps",
                "Effective P_d low threshold (Equation 1 L), bits/s",
            ),
            drop_high_bps: registry.gauge(
                "upbound_serve_drop_high_bps",
                "Effective P_d high threshold (Equation 1 H), bits/s",
            ),
            ingest_errors: registry.gauge(
                "upbound_serve_ingest_errors",
                "Source decode/IO errors observed so far",
            ),
            kernel_drops: registry.gauge(
                "upbound_serve_kernel_drops",
                "Packets the kernel dropped before the serve loop saw them",
            ),
        }
    }

    fn record_batch(&self, packets: u64, passed: u64, dropped: u64) {
        self.packets_total.add(packets);
        self.passed_total.add(passed);
        self.dropped_total.add(dropped);
    }

    fn publish(
        &self,
        watermark: Timestamp,
        stats: &FilterStats,
        policy: DropPolicy,
        batch_size: usize,
        generation: u64,
    ) {
        self.watermark_secs.set(watermark.as_secs_f64());
        self.rotations.set_u64(stats.rotations);
        self.drop_low_bps.set(policy.low_bps());
        self.drop_high_bps.set(policy.high_bps());
        self.batch_size.set_u64(batch_size as u64);
        self.config_generation.set_u64(generation);
    }

    fn publish_ingest(&self, ingest: &IngestStats) {
        self.ingest_errors.set_u64(ingest.errors_total());
        self.kernel_drops.set_u64(ingest.kernel_drops());
    }
}

/// Builder-style front door to every dataplane shape; see the
/// [module docs](self) for the full map.
///
/// The runner is cheap to clone-by-rebuild: every terminal method
/// borrows `&self`, so one configured runner can serve, measure and
/// replay any number of times.
#[derive(Debug, Clone)]
pub struct PipelineRunner {
    inside: Cidr,
    filter: BitmapFilterConfig,
    replay: ReplayConfig,
    pipeline: PipelineConfig,
    shards: usize,
    overload: OverloadPolicy,
    fault: FaultPlan,
    obs: PipelineObservability,
    checkpoint: Option<(PathBuf, TimeDelta)>,
}

impl PipelineRunner {
    /// A runner over `filter_config`, classifying direction against the
    /// client network `inside`. Defaults: 1 shard, no overload ladder,
    /// no fault plan, no observability hooks, no checkpointing, default
    /// replay and pipeline tuning.
    pub fn new(inside: Cidr, filter_config: BitmapFilterConfig) -> Self {
        Self {
            inside,
            filter: filter_config,
            replay: ReplayConfig::default(),
            pipeline: PipelineConfig::default(),
            shards: 1,
            overload: OverloadPolicy::off(),
            fault: FaultPlan::none(),
            obs: PipelineObservability::default(),
            checkpoint: None,
        }
    }

    /// Replay-engine tuning (bin width, blocked-σ store, oracle expiry,
    /// batch size) for [`measure`](Self::measure) and friends.
    pub fn replay_config(mut self, replay: ReplayConfig) -> Self {
        self.replay = replay;
        self
    }

    /// Threaded-pipeline tuning (channel capacity, batch size) for
    /// [`run`](Self::run) and [`serve`](Self::serve).
    pub fn pipeline_config(mut self, pipeline: PipelineConfig) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Scales the filter stage to `shards` workers over a
    /// [`ShardedFilter`]. `0` is treated as `1`.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Installs an overload degradation ladder on the filter(s).
    pub fn overload_policy(mut self, policy: OverloadPolicy) -> Self {
        self.overload = policy;
        self
    }

    /// Applies a deterministic fault plan. [`run`](Self::run) distorts
    /// the stream and lets each shard panic on the plan's schedule;
    /// [`measure`](Self::measure) and
    /// [`measure_source`](Self::measure_source) fail checkpoint writes
    /// on it.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = plan;
        self
    }

    /// Observability hooks (latency tracing, supervisor export, flight
    /// recorder, `/health` state) for [`run`](Self::run).
    pub fn observability(mut self, obs: PipelineObservability) -> Self {
        self.obs = obs;
        self
    }

    /// Writes an atomic checkpoint of the filter to `path` every `every`
    /// of trace time, plus a final checkpoint at end-of-run. Honored by
    /// [`measure`](Self::measure), [`measure_source`](Self::measure_source)
    /// and [`serve`](Self::serve).
    pub fn checkpoint(mut self, path: impl Into<PathBuf>, every: TimeDelta) -> Self {
        self.checkpoint = Some((path.into(), every));
        self
    }

    /// The client network verdicts are classified against.
    pub fn inside(&self) -> Cidr {
        self.inside
    }

    /// The filter configuration the runner builds from.
    pub fn filter_config(&self) -> &BitmapFilterConfig {
        &self.filter
    }

    fn build_sharded(&self) -> Result<ShardedFilter<BitmapFilter>, RunnerError> {
        let mut builder = ShardedFilter::builder(self.filter.clone());
        builder
            .shards(self.shards)
            .overload_policy(self.overload.clone());
        builder.build().map_err(RunnerError::Config)
    }

    /// One shard filter built from the runner's full configuration —
    /// the overload policy included — measuring upload through the
    /// pool's shared `uplink` monitor.
    fn shard(&self, config: BitmapFilterConfig, uplink: &Arc<ThroughputMonitor>) -> BitmapFilter {
        BitmapFilter::new(config)
            .with_shared_uplink(Arc::clone(uplink))
            .with_overload_policy(self.overload.clone())
    }

    /// Runs `packets` through the threaded pipeline: a supervised pool
    /// with one worker per shard (see [`pipeline`](crate::pipeline)). A
    /// panic in a shard's decide path quarantines that shard — it is
    /// rebuilt empty and fail-open — while the other shards keep
    /// filtering. A non-empty fault plan first distorts the stream (which
    /// collects it) and arms every initial shard with the plan's panic
    /// budget; rebuilt shards come back disarmed.
    ///
    /// # Errors
    ///
    /// None today: the shard count is clamped to at least 1, so the
    /// pool always builds.
    pub fn run<I>(&self, packets: I) -> Result<RunReport, RunnerError>
    where
        I: IntoIterator<Item = Packet>,
    {
        if self.fault.is_none() {
            let (pipeline, supervisor) = self.pool(packets);
            return Ok(RunReport {
                pipeline,
                supervisor,
                distortion: None,
            });
        }
        let (packets, distortion) = self.fault.distort_stream(packets.into_iter().collect());
        let (pipeline, supervisor) = self.pool(packets);
        Ok(RunReport {
            pipeline,
            supervisor,
            distortion: Some(distortion),
        })
    }

    /// The supervised shard pool behind [`run`](Self::run). Initial
    /// shards and the supervisor's rebuilds both come from
    /// [`shard`](Self::shard), wrapped in a [`FaultingFilter`] armed from
    /// the fault plan (disarmed for [`FaultPlan::none`] and for rebuilds).
    fn pool<I>(&self, packets: I) -> (PipelineResult, SupervisorReport)
    where
        I: IntoIterator<Item = Packet>,
    {
        let uplink = Arc::new(self.filter.uplink_monitor());
        let shards = (0..self.shards)
            .map(|_| {
                FaultingFilter::new(
                    self.shard(self.filter.clone(), &uplink),
                    self.fault.injector(),
                )
            })
            .collect();
        let sharded = ShardedFilter::from_shards(
            FlowHash::new(self.filter.hole_punching()),
            Arc::clone(&uplink),
            shards,
        );
        let rebuild_config = self.filter.clone().with_fail_mode(FailMode::Open);
        let rebuild = |_shard: usize, at: Timestamp| {
            let mut fresh = self.shard(rebuild_config.clone(), &uplink);
            fresh.start_cold_at(at);
            FaultingFilter::new(fresh, PlannedInjector::disarmed())
        };
        supervised_pipeline_impl(
            packets,
            self.inside,
            sharded,
            rebuild,
            self.filter.expiry_timer(),
            self.pipeline,
            &self.obs,
        )
    }

    /// Streams a **finite** [`PacketSource`] through [`run`](Self::run)
    /// (a fault plan still collects it first, to distort it). For endless
    /// live sources use [`serve`](Self::serve), which can be drained on
    /// request.
    ///
    /// # Errors
    ///
    /// [`RunnerError::Net`] on the first unrecoverable source error (the
    /// packets before it have run), plus everything [`run`](Self::run)
    /// can return.
    pub fn run_source<S>(&self, source: &mut S) -> Result<(RunReport, IngestStats), RunnerError>
    where
        S: PacketSource + ?Sized,
    {
        let mut error = None;
        let report = self.run(SourceIter::new(source, &mut error).map(|(packet, _)| packet))?;
        match error {
            Some(err) => Err(RunnerError::Net(err)),
            None => Ok((report, source.stats())),
        }
    }

    /// Runs `packets` through a multi-tenant [`SubscriberTable`] on the
    /// threaded pipeline; returns the aggregate result together with the
    /// table, so per-tenant state survives the run.
    pub fn run_subscribers<I, F>(
        &self,
        packets: I,
        table: SubscriberTable<F>,
    ) -> (PipelineResult, SubscriberTable<F>)
    where
        I: IntoIterator<Item = Packet>,
        F: PacketFilter<Stats = FilterStats> + Send + Sync,
    {
        subscriber_pipeline_impl(packets, table, self.pipeline)
    }

    /// Replays `trace` through the paper-faithful [`ReplayEngine`]
    /// (oracle scoring, blocked-σ store, per-bin throughput series),
    /// writing checkpoints on the configured cadence.
    ///
    /// # Errors
    ///
    /// [`RunnerError::Snapshot`] on the first checkpoint write failure.
    pub fn measure(&self, trace: &SyntheticTrace) -> Result<Measurement, RunnerError> {
        let (replay, checkpoints) = self.replay(|engine, filter, tick| {
            let packets = trace.packets.iter().map(|lp| (&lp.packet, lp.direction));
            Ok(engine.run_iter_with(filter, packets, tick))
        })?;
        Ok(Measurement {
            replay,
            ingest: IngestStats::default(),
            checkpoints,
        })
    }

    /// [`measure`](Self::measure) over a [`PacketSource`]: pcap replay,
    /// looped replay and live capture all drive the identical batched
    /// replay loop, so the metrics depend only on the packet stream.
    ///
    /// # Errors
    ///
    /// [`RunnerError::Net`] on the first unrecoverable source error,
    /// [`RunnerError::Snapshot`] on the first checkpoint write failure.
    pub fn measure_source<S>(&self, source: &mut S) -> Result<Measurement, RunnerError>
    where
        S: PacketSource + ?Sized,
    {
        let (replay, checkpoints) =
            self.replay(|engine, filter, tick| engine.run_source_with(source, filter, tick))?;
        Ok(Measurement {
            replay,
            ingest: source.stats(),
            checkpoints,
        })
    }

    /// The replay loop behind [`measure`](Self::measure) and
    /// [`measure_source`](Self::measure_source), with the checkpoint
    /// cadence. `replay(engine, filter, tick)` feeds the packets and
    /// calls `tick(filter, last_ts)` after every decided batch. With
    /// checkpointing configured, `tick` writes a checkpoint every `every`
    /// of trace time (stopping the replay on the first failure) and a
    /// final checkpoint follows a clean end. Writes go through a
    /// [`FaultingCheckpointSink`] armed from the runner's fault plan,
    /// which is disarmed for [`FaultPlan::none`]. Returns the metrics
    /// and the number of checkpoints written.
    fn replay<R>(&self, replay: R) -> Result<(ReplayResult, u64), RunnerError>
    where
        R: FnOnce(
            &ReplayEngine,
            &mut BitmapFilter,
            &mut dyn FnMut(&mut BitmapFilter, Timestamp) -> bool,
        ) -> Result<ReplayResult, NetError>,
    {
        let engine = ReplayEngine::new(self.replay.clone());
        let mut filter =
            BitmapFilter::new(self.filter.clone()).with_overload_policy(self.overload.clone());
        let Some((path, every)) = &self.checkpoint else {
            return Ok((replay(&engine, &mut filter, &mut |_, _| true)?, 0));
        };
        let mut sink = FaultingCheckpointSink::new(AtomicCheckpointSink, self.fault.injector());
        let mut written = 0u64;
        let mut failure: Option<SnapshotError> = None;
        let mut next_due: Option<Timestamp> = None;
        let mut watermark = Timestamp::ZERO;
        let result = replay(&engine, &mut filter, &mut |f, now| {
            watermark = watermark.max(now);
            let due = *next_due.get_or_insert(watermark + *every);
            if watermark < due {
                return true;
            }
            match sink.write(path, &f.snapshot_bytes(watermark)) {
                Ok(()) => {
                    written += 1;
                    next_due = Some(due + *every);
                    true
                }
                Err(e) => {
                    failure = Some(e);
                    false
                }
            }
        })?;
        if let Some(e) = failure {
            return Err(RunnerError::Snapshot(e));
        }
        sink.write(path, &filter.snapshot_bytes(watermark))?;
        Ok((result, written + 1))
    }

    /// Replays `trace` through a multi-tenant [`SubscriberTable`] on the
    /// replay engine; per-tenant results remain available from the table
    /// afterwards.
    pub fn measure_subscribers<F: PacketFilter>(
        &self,
        trace: &SyntheticTrace,
        table: &mut SubscriberTable<F>,
    ) -> ReplayResult {
        ReplayEngine::new(self.replay.clone()).subscribers_impl(trace, table)
    }

    /// The long-running live dataplane: polls `source` until it ends or
    /// `control` requests a drain, filtering through a shard bank and
    /// applying staged [`RuntimeOverrides`] at safe points (the first
    /// batch boundary after a bitmap rotation, or immediately while
    /// idle). See the [module docs](self) for the reconfiguration
    /// contract.
    ///
    /// # Errors
    ///
    /// [`RunnerError::Config`] if the shard bank cannot build,
    /// [`RunnerError::Net`] on the first unrecoverable source error,
    /// [`RunnerError::Snapshot`] on the first checkpoint write failure.
    pub fn serve<S>(
        &self,
        source: &mut S,
        control: &ServeControl,
    ) -> Result<ServeReport, RunnerError>
    where
        S: PacketSource + ?Sized,
    {
        let sharded = self.build_sharded()?;
        let mut batch_size = self.pipeline.batch_size.max(1);
        let mut policy = self.filter.drop_policy();
        let mut seen_gen = 0u64;
        // (generation, overrides, filter rotations when staged)
        let mut pending: Option<(u64, RuntimeOverrides, u64)> = None;

        let mut packets = 0u64;
        let mut passed = 0u64;
        let mut dropped = 0u64;
        let mut reconfigs = 0u64;
        let mut checkpoints = 0u64;
        let mut watermark = Timestamp::ZERO;
        let mut next_due: Option<Timestamp> = None;

        let mut buf: Vec<(Packet, Direction)> = Vec::with_capacity(batch_size);
        let mut verdicts: Vec<Verdict> = Vec::with_capacity(batch_size);

        let mut apply = |sharded: &ShardedFilter<BitmapFilter>,
                         generation: u64,
                         overrides: &RuntimeOverrides,
                         batch_size: &mut usize,
                         policy: &mut DropPolicy,
                         seen_gen: &mut u64| {
            sharded.apply_overrides(overrides);
            if let Some(p) = overrides.drop_policy {
                *policy = p;
            }
            if let Some(bs) = overrides.batch_size {
                *batch_size = bs.max(1);
            }
            *seen_gen = generation;
            reconfigs += 1;
            if let Some(t) = &control.telemetry {
                t.reconfigs_total.inc();
            }
        };

        let exit = loop {
            if control.drain_requested() {
                break ServeExit::Drained;
            }
            if pending.is_none() {
                if let Some((generation, overrides)) = control.cell.poll(seen_gen) {
                    pending = Some((generation, overrides, sharded.stats().rotations));
                }
            }
            buf.clear();
            match source.next_batch(&mut buf, batch_size)? {
                SourcePoll::End => break ServeExit::SourceEnded,
                SourcePoll::Idle => {
                    // Idle is trivially a safe point: nothing is in
                    // flight, so staged overrides apply right away.
                    if let Some((generation, overrides, _)) = pending.take() {
                        apply(
                            &sharded,
                            generation,
                            &overrides,
                            &mut batch_size,
                            &mut policy,
                            &mut seen_gen,
                        );
                    }
                    std::thread::sleep(control.idle_sleep);
                }
                SourcePoll::Batch(_) => {
                    if buf.is_empty() {
                        continue;
                    }
                    verdicts.clear();
                    sharded.process_batch(&buf, &mut verdicts);
                    let mut batch_passed = 0u64;
                    let mut batch_dropped = 0u64;
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

                    let stats = sharded.stats();
                    // A rotation has retired a vector since the
                    // overrides were staged — the batch boundary right
                    // after it is the quiesce point.
                    if let Some((generation, overrides, _)) =
                        pending.take_if(|(_, _, staged_at)| stats.rotations > *staged_at)
                    {
                        apply(
                            &sharded,
                            generation,
                            &overrides,
                            &mut batch_size,
                            &mut policy,
                            &mut seen_gen,
                        );
                    }

                    if let Some((path, every)) = &self.checkpoint {
                        let due = *next_due.get_or_insert(watermark + *every);
                        if watermark >= due {
                            sharded
                                .checkpoint_to(path, watermark)
                                .map_err(RunnerError::Snapshot)?;
                            checkpoints += 1;
                            next_due = Some(due + *every);
                            if let Some(t) = &control.telemetry {
                                t.checkpoints_total.inc();
                            }
                        }
                    }

                    if let Some(t) = &control.telemetry {
                        t.record_batch(buf.len() as u64, batch_passed, batch_dropped);
                        t.publish(watermark, &stats, policy, batch_size, seen_gen);
                        t.publish_ingest(&source.stats());
                    }
                }
            }
        };

        if let Some((path, _)) = &self.checkpoint {
            sharded
                .checkpoint_to(path, watermark)
                .map_err(RunnerError::Snapshot)?;
            checkpoints += 1;
            if let Some(t) = &control.telemetry {
                t.checkpoints_total.inc();
            }
        }
        let filter_stats = sharded.stats();
        let ingest = source.stats();
        if let Some(t) = &control.telemetry {
            t.publish(watermark, &filter_stats, policy, batch_size, seen_gen);
            t.publish_ingest(&ingest);
        }
        Ok(ServeReport {
            packets,
            passed,
            dropped,
            reconfigs_applied: reconfigs,
            checkpoints_written: checkpoints,
            exit,
            filter_stats,
            watermark,
            ingest,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upbound_net::BufferedSource;
    use upbound_traffic::{generate, TraceConfig};

    fn trace(seed: u64) -> upbound_traffic::SyntheticTrace {
        generate(
            &TraceConfig::builder()
                .duration_secs(60.0)
                .flow_rate_per_sec(20.0)
                .seed(seed)
                .build()
                .expect("valid"),
        )
    }

    fn inside() -> Cidr {
        "10.0.0.0/16".parse().expect("cidr")
    }

    fn labeled(trace: &upbound_traffic::SyntheticTrace) -> Vec<(Packet, Direction)> {
        trace
            .packets
            .iter()
            .map(|lp| (lp.packet.clone(), lp.direction))
            .collect()
    }

    #[test]
    fn measure_matches_replay_engine() {
        let trace = trace(31);
        let runner = PipelineRunner::new(inside(), BitmapFilterConfig::paper_evaluation());
        let measured = runner.measure(&trace).expect("measure");
        let mut filter = BitmapFilter::new(BitmapFilterConfig::paper_evaluation());
        let expected = ReplayEngine::new(ReplayConfig::default()).run(&trace, &mut filter);
        assert_eq!(measured.replay, expected);
        assert_eq!(measured.checkpoints, 0);
    }

    #[test]
    fn measure_source_checkpoints_and_matches_plain_measure() {
        let trace = trace(32);
        let dir = std::env::temp_dir().join(format!("upbound-runner-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("runner.snap");

        let runner = PipelineRunner::new(inside(), BitmapFilterConfig::paper_evaluation())
            .checkpoint(&path, TimeDelta::from_secs(10.0));
        let mut source = BufferedSource::new(labeled(&trace), IngestStats::default());
        let measured = runner.measure_source(&mut source).expect("measure_source");
        assert!(
            measured.checkpoints >= 4,
            "only {} checkpoints",
            measured.checkpoints
        );
        assert!(path.exists());

        let plain = PipelineRunner::new(inside(), BitmapFilterConfig::paper_evaluation())
            .measure(&trace)
            .expect("measure");
        assert_eq!(measured.replay, plain.replay);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_source_matches_run() {
        let trace = trace(33);
        let runner = PipelineRunner::new(inside(), BitmapFilterConfig::paper_evaluation());
        let from_vec = runner
            .run(trace.packets.iter().map(|lp| lp.packet.clone()))
            .expect("run");
        let mut source = BufferedSource::new(labeled(&trace), IngestStats::default());
        let (from_source, ingest) = runner.run_source(&mut source).expect("run_source");
        assert_eq!(from_source.pipeline, from_vec.pipeline);
        assert_eq!(ingest.errors_total(), 0);
    }

    #[test]
    fn run_source_surfaces_source_errors() {
        use upbound_net::pcap::{to_bytes, PcapReader};
        use upbound_net::PcapSource;
        let trace = trace(39);
        let bytes = to_bytes(trace.packets.iter().map(|lp| &lp.packet), 65535).expect("pcap");
        // Cut into the last record's body: a strict reader fails there.
        let cut = &bytes[..bytes.len() - 9];
        let mut source = PcapSource::new(PcapReader::new(cut).expect("header"), inside());
        let runner = PipelineRunner::new(inside(), BitmapFilterConfig::paper_evaluation());
        assert!(matches!(
            runner.run_source(&mut source),
            Err(RunnerError::Net(_))
        ));
    }

    #[test]
    fn serve_drains_source_and_reports() {
        let trace = trace(34);
        let runner = PipelineRunner::new(inside(), BitmapFilterConfig::paper_evaluation());
        let control = ServeControl::new();
        let mut source = BufferedSource::new(labeled(&trace), IngestStats::default());
        let report = runner.serve(&mut source, &control).expect("serve");
        assert_eq!(report.exit, ServeExit::SourceEnded);
        assert_eq!(report.packets as usize, trace.packets.len());
        assert_eq!(report.passed + report.dropped, report.packets);
        assert_eq!(report.reconfigs_applied, 0);
        assert!(report.watermark > Timestamp::ZERO);
    }

    #[test]
    fn serve_applies_staged_overrides_after_a_rotation() {
        let trace = trace(35);
        let registry = Registry::new();
        let runner = PipelineRunner::new(inside(), BitmapFilterConfig::paper_evaluation());
        let control = ServeControl::new().with_telemetry(&registry);

        // Stage a new P_d curve and batch size before the dataplane
        // starts: it must apply at the first post-rotation batch
        // boundary, not instantly and not never.
        let policy = DropPolicy::new(123.0, 456.0).expect("policy");
        let generation = control.stage(RuntimeOverrides {
            drop_policy: Some(policy),
            batch_size: Some(7),
            ..RuntimeOverrides::default()
        });
        assert_eq!(generation, 1);

        let mut source = BufferedSource::new(labeled(&trace), IngestStats::default());
        let report = runner.serve(&mut source, &control).expect("serve");
        assert_eq!(report.reconfigs_applied, 1);
        // The paper config rotates every 5 s; a 60 s trace rotates many
        // times, so the filter really did rotate before applying.
        assert!(report.filter_stats.rotations >= 1);

        let snapshot = registry.snapshot();
        assert_eq!(snapshot.gauge("upbound_serve_drop_low_bps"), Some(123.0));
        assert_eq!(snapshot.gauge("upbound_serve_drop_high_bps"), Some(456.0));
        assert_eq!(snapshot.gauge("upbound_serve_batch_size"), Some(7.0));
        assert_eq!(snapshot.gauge("upbound_serve_config_generation"), Some(1.0));
        assert_eq!(
            snapshot.counter("upbound_serve_packets_total"),
            Some(report.packets)
        );
    }

    #[test]
    fn serve_drain_request_stops_a_looped_source() {
        let trace = trace(36);
        let runner = PipelineRunner::new(inside(), BitmapFilterConfig::paper_evaluation());
        let control = ServeControl::new();
        let handle_control = control.clone();
        let handle = std::thread::spawn(move || {
            let mut source =
                BufferedSource::new(labeled(&trace), IngestStats::default()).looped(true);
            runner.serve(&mut source, &handle_control)
        });
        // Let the dataplane chew on the looped stream, then drain.
        std::thread::sleep(Duration::from_millis(50));
        control.request_drain();
        let report = handle.join().expect("serve thread").expect("serve");
        assert_eq!(report.exit, ServeExit::Drained);
        assert!(report.packets > 0);
    }

    #[test]
    fn serve_writes_a_final_checkpoint() {
        let trace = trace(37);
        let dir = std::env::temp_dir().join(format!("upbound-serve-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.snap");
        let runner = PipelineRunner::new(inside(), BitmapFilterConfig::paper_evaluation())
            .shards(2)
            .checkpoint(&path, TimeDelta::from_secs(20.0));
        let control = ServeControl::new();
        let mut source = BufferedSource::new(labeled(&trace), IngestStats::default());
        let report = runner.serve(&mut source, &control).expect("serve");
        assert!(report.checkpoints_written >= 2, "periodic + final");
        assert!(path.exists());

        // The final checkpoint restores into an equally-sharded bank.
        let restored = ShardedFilter::builder(BitmapFilterConfig::paper_evaluation())
            .shards(2)
            .build()
            .expect("bank");
        let outcome = restored
            .restore_from(&path, report.watermark, TimeDelta::from_secs(3600.0))
            .expect("restore");
        assert_eq!(outcome, upbound_core::RestoreOutcome::Warm);
        assert_eq!(restored.stats(), report.filter_stats);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_plan_routes_through_supervised_chaos_path() {
        let trace = trace(38);
        let plan = FaultPlan::parse("seed=5,corrupt=10,panics=1").expect("plan");
        let report = PipelineRunner::new(inside(), BitmapFilterConfig::paper_evaluation())
            .shards(4)
            .fault_plan(plan)
            .run(trace.packets.iter().map(|lp| lp.packet.clone()))
            .expect("run");
        let distortion = report.distortion.expect("distortion report");
        assert!(distortion.corrupted > 0);
        // Every packet drained through the merge stage despite the
        // injected panics, and the supervisor caught each one.
        assert_eq!(report.pipeline.ingested as usize, trace.packets.len());
        assert_eq!(
            report.pipeline.passed + report.pipeline.dropped,
            report.pipeline.ingested
        );
        assert!(report.supervisor.panics >= 1);
        assert_eq!(report.supervisor.panics, report.supervisor.restarts);
    }
}
