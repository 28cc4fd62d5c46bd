//! [`PipelineRunner`] — the one front door to the dataplane.
//!
//! Every axis (shards, overload policy, fault plans, observability,
//! checkpoints, the blocked-σ store) is a builder option instead of a
//! function of its own:
//!
//! ```text
//! PipelineRunner::new(inside, filter_config)
//!     .shards(4)                 // scale the filter stage out
//!     .overload_policy(policy)   // degradation ladder
//!     .fault_plan(plan)          // deterministic chaos
//!     .observability(obs)        // tracing / flight recorder / health
//!     .checkpoint(path, every)   // crash-safe snapshots
//!     .block_connections(true)   // the paper's blocked-σ store
//!     .serve(&mut source, &control)
//! ```
//!
//! One loop per job. [`serve`](PipelineRunner::serve) /
//! [`serve_with`](PipelineRunner::serve_with) is the one loop that reads
//! a [`PacketSource`]: polled until it ends or is drained, and
//! reconfigurable at runtime through a [`ServeControl`] without
//! restarting (see below). A finite source makes it a batch run:
//! `upbound filter` is `serve` over a pcap without a listener. It decides
//! through a [`ServeBank`]: a shard bank, whose supervisor quarantines
//! and rebuilds a panicking shard while the session goes on (see
//! [`pipeline`](crate::pipeline)), or a [`TenantBank`], a subscriber
//! table with one filter per tenant (`upbound filter --subscribers`).
//! The oracle-scored, per-bin metrics of the paper's figures come from
//! the [`ReplayEngine`](crate::ReplayEngine), which decides in-memory
//! labeled packets only.
//!
//! `serve` honours every setter: the checkpoint (restore, periodic
//! writes with backoff at every multiple of `every` in trace time, final
//! write), every observability hook, the fault plan's panics and
//! checkpoint faults and the blocked-σ store. It does not distort the
//! stream: a caller that wants stream faults feeds it
//! [`FaultPlan::distort_stream`]'s output.
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

use crate::fault::{checkpoint_with_backoff, write_checkpoint, FaultPlan, PlannedInjector};
use crate::pipeline::{PipelineConfig, PipelineObservability, ShardIncident, SupervisorReport};
use crate::replay::BlockedConnections;
use std::cell::{Ref, RefCell};
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use upbound_core::{
    snapshot, BitmapFilter, BitmapFilterConfig, ConfigCell, DropPolicy, FailMode, FilterObserver,
    FilterStats, FlowHash, NoopObserver, OverloadPolicy, PacketFilter, RestoreOutcome,
    RuntimeOverrides, ShardedFilter, SnapshotError, Snapshottable, SubscriberTable, Verdict,
};
use upbound_net::pcap::IngestStats;
use upbound_net::{
    Cidr, Direction, NetError, Packet, PacketSource, SourcePoll, TimeDelta, Timestamp,
};
use upbound_telemetry::{Registry, Stage};

/// Why a [`PipelineRunner`] terminal method failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum RunnerError {
    /// The packet source failed unrecoverably.
    Net(NetError),
    /// A checkpoint write failed.
    Snapshot(SnapshotError),
}

impl fmt::Display for RunnerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunnerError::Net(e) => write!(f, "packet source failed: {e}"),
            RunnerError::Snapshot(e) => write!(f, "checkpoint failed: {e}"),
        }
    }
}

impl std::error::Error for RunnerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunnerError::Net(e) => Some(e),
            RunnerError::Snapshot(e) => Some(e),
        }
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
    /// Packets forwarded (all decided outbound + passed inbound).
    pub passed: u64,
    /// Inbound packets dropped by the filter, plus every packet of a
    /// blocked connection (either direction).
    pub dropped: u64,
    /// Packets of blocked connections, dropped without reaching the
    /// filter (0 unless blocking is on).
    pub blocked_packets: u64,
    /// Connections in the blocked store at shutdown.
    pub blocked_connections: u64,
    /// Wire bits of every outbound packet pulled from the source.
    pub uplink_offered_bits: u64,
    /// Wire bits of the outbound packets the filter passed.
    pub uplink_kept_bits: u64,
    /// Runtime reconfigurations applied (not merely staged).
    pub reconfigs_applied: u64,
    /// Checkpoints written, final drain checkpoint included.
    pub checkpoints_written: u64,
    /// How the bank was restored from the checkpoint file; `None` when
    /// no checkpoint file existed (a cold start).
    pub restored: Option<RestoreOutcome>,
    /// Why the loop ended.
    pub exit: ServeExit,
    /// The filter's own counters at shutdown.
    pub filter_stats: FilterStats,
    /// Timestamp of the last packet processed.
    pub watermark: Timestamp,
    /// The source's final ingestion accounting.
    pub ingest: IngestStats,
    /// What the shard supervisor caught and rebuilt. All zeros on a
    /// clean run.
    pub supervisor: SupervisorReport,
}

/// How long the serve loop sleeps when the source reports
/// [`SourcePoll::Idle`].
const IDLE_SLEEP: Duration = Duration::from_millis(1);

/// The control half of a [`PipelineRunner::serve`] session: clone it,
/// hand one clone to the serving thread and keep the other wherever
/// reconfiguration requests arrive (an HTTP handler, a signal handler,
/// a test). All state is shared through the clones.
#[derive(Debug, Clone, Default)]
pub struct ServeControl {
    cell: ConfigCell,
    drain: Arc<AtomicBool>,
    telemetry: Option<ServeTelemetry>,
}

impl ServeControl {
    /// A fresh control: nothing staged, no drain requested, no
    /// telemetry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Exports the serve loop's live state from `registry`
    /// (`upbound_serve_*`).
    pub fn with_telemetry(mut self, registry: &Registry) -> Self {
        self.telemetry = Some(ServeTelemetry::new(registry));
        self
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
///
/// The serving thread stores its state into one block of atomics with
/// relaxed stores — after each batch, at session start and when a
/// reconfiguration or a checkpoint lands — and every series is a
/// scrape-time reading of that block ([`Registry::counter_fn`],
/// [`Registry::gauge_fn`]). A snapshot therefore sees the state as of
/// the last finished batch and takes no lock the dataplane holds.
/// Counters carry on across sessions served through the same control;
/// serve one session at a time per control.
#[derive(Debug, Clone)]
pub struct ServeTelemetry {
    registry: Registry,
    live: Arc<Live>,
}

/// The block [`ServeTelemetry`]'s series read; written only by the
/// serving thread.
#[derive(Debug, Default)]
struct Live {
    packets: AtomicU64,
    passed: AtomicU64,
    dropped: AtomicU64,
    reconfigs: AtomicU64,
    checkpoints: AtomicU64,
    batch_size: AtomicU64,
    generation: AtomicU64,
    rotations: AtomicU64,
    watermark_micros: AtomicU64,
    drop_low_bits: AtomicU64,
    drop_high_bits: AtomicU64,
    ingest_errors: AtomicU64,
    kernel_drops: AtomicU64,
}

/// A relaxed load, the one way a scrape reads [`Live`].
fn load(cell: &AtomicU64) -> u64 {
    cell.load(Ordering::Relaxed)
}

impl ServeTelemetry {
    /// Registers the serve metrics in `registry`.
    pub fn new(registry: &Registry) -> Self {
        let live = Arc::new(Live::default());
        let counter = |name: &str, help: &str, cell: fn(&Live) -> &AtomicU64| {
            let live = Arc::clone(&live);
            registry.counter_fn(name, help, move || load(cell(&live)));
        };
        counter(
            "upbound_serve_packets_total",
            "Packets pulled from the source by the serve loop",
            |l| &l.packets,
        );
        counter(
            "upbound_serve_passed_total",
            "Packets forwarded by the serve loop",
            |l| &l.passed,
        );
        counter(
            "upbound_serve_dropped_total",
            "Inbound packets dropped by the serve loop",
            |l| &l.dropped,
        );
        counter(
            "upbound_serve_reconfigs_total",
            "Runtime reconfigurations applied",
            |l| &l.reconfigs,
        );
        counter(
            "upbound_serve_checkpoints_total",
            "Checkpoints written by the serve loop",
            |l| &l.checkpoints,
        );
        let gauge = |name: &str, help: &str, read: fn(&Live) -> f64| {
            let live = Arc::clone(&live);
            registry.gauge_fn(name, help, move || read(&live));
        };
        gauge(
            "upbound_serve_batch_size",
            "Effective per-poll batch size of the serve loop",
            |l| load(&l.batch_size) as f64,
        );
        gauge(
            "upbound_serve_config_generation",
            "Configuration generation the dataplane has applied",
            |l| load(&l.generation) as f64,
        );
        gauge(
            "upbound_serve_rotations",
            "Bitmap rotations performed by the serving filter",
            |l| load(&l.rotations) as f64,
        );
        gauge(
            "upbound_serve_watermark_secs",
            "Timestamp of the last packet processed, in seconds",
            |l| Timestamp::from_micros(load(&l.watermark_micros)).as_secs_f64(),
        );
        gauge(
            "upbound_serve_drop_low_bps",
            "Effective P_d low threshold (Equation 1 L), bits/s",
            |l| f64::from_bits(load(&l.drop_low_bits)),
        );
        gauge(
            "upbound_serve_drop_high_bps",
            "Effective P_d high threshold (Equation 1 H), bits/s",
            |l| f64::from_bits(load(&l.drop_high_bits)),
        );
        gauge(
            "upbound_serve_ingest_errors",
            "Source decode/IO errors observed so far",
            |l| load(&l.ingest_errors) as f64,
        );
        gauge(
            "upbound_serve_kernel_drops",
            "Packets the kernel dropped before the serve loop saw them",
            |l| load(&l.kernel_drops) as f64,
        );
        Self {
            registry: registry.clone(),
            live,
        }
    }

    /// The counters earlier sessions left, for a new session to count on
    /// top of.
    fn carried(&self) -> Tally {
        let live = &self.live;
        Tally {
            packets: load(&live.packets),
            passed: load(&live.passed),
            dropped: load(&live.dropped),
            reconfigs: load(&live.reconfigs),
            checkpoints: load(&live.checkpoints),
            ..Tally::default()
        }
    }
}

/// Builder-style front door to the dataplane; see the
/// [module docs](self) for the full map.
///
/// Every terminal method borrows `&self`, so one configured runner can
/// serve any number of times.
#[derive(Debug, Clone)]
pub struct PipelineRunner {
    filter: BitmapFilterConfig,
    pipeline: PipelineConfig,
    shards: usize,
    overload: OverloadPolicy,
    fault: FaultPlan,
    obs: PipelineObservability,
    checkpoint: Option<(PathBuf, TimeDelta)>,
    block: bool,
}

impl PipelineRunner {
    /// A runner over `filter_config` for the client network `inside`.
    /// Packet sources carry their own direction labels, so no terminal
    /// method reads `inside`; it stays in the signature for existing
    /// callers. Defaults: 1 shard, no overload ladder, no fault plan, no
    /// observability hooks, no checkpointing, no blocked-σ store, default
    /// pipeline tuning.
    pub fn new(_inside: Cidr, filter_config: BitmapFilterConfig) -> Self {
        Self {
            filter: filter_config,
            pipeline: PipelineConfig::default(),
            shards: 1,
            overload: OverloadPolicy::off(),
            fault: FaultPlan::none(),
            obs: PipelineObservability::default(),
            checkpoint: None,
            block: false,
        }
    }

    /// Dataplane tuning (the batch size) for [`serve`](Self::serve).
    pub fn pipeline_config(mut self, pipeline: PipelineConfig) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Splits the filter into `shards` shards of a [`ShardedFilter`].
    /// `0` is treated as `1`.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Installs an overload degradation ladder on the filter(s).
    pub fn overload_policy(mut self, policy: OverloadPolicy) -> Self {
        self.overload = policy;
        self
    }

    /// Applies a deterministic fault plan. The shard bank of
    /// [`serve`](Self::serve) and [`serve_observed`](Self::serve_observed)
    /// keeps the plan's injector per initial shard and panics on its
    /// schedule after deciding the fatal packet; the session of
    /// [`serve_with`](Self::serve_with) fails checkpoint writes on the
    /// plan's schedule, whatever the bank. Stream faults are the
    /// caller's to apply ([`FaultPlan::distort_stream`]).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = plan;
        self
    }

    /// Observability hooks of [`serve`](Self::serve): latency tracing,
    /// supervisor export, flight recorder and `/health` state.
    pub fn observability(mut self, obs: PipelineObservability) -> Self {
        self.obs = obs;
        self
    }

    /// Checkpoints [`serve`](Self::serve) to `path`: the bank is restored
    /// from it before the first packet, written atomically after the
    /// first batch whose watermark reaches each multiple of `every` in
    /// trace time (a watermark that jumps several multiples ahead, as a
    /// skewed clock does, writes once), and once more at the end of the
    /// run.
    pub fn checkpoint(mut self, path: impl Into<PathBuf>, every: TimeDelta) -> Self {
        self.checkpoint = Some((path.into(), every));
        self
    }

    /// Keeps the blocked-σ store in [`serve`](Self::serve): once an
    /// inbound packet is dropped, every later packet of its connection is
    /// dropped without reaching the filter. Off by default; the
    /// [`ReplayEngine`](crate::ReplayEngine) takes the same switch from
    /// [`ReplayConfig::block_connections`](crate::ReplayConfig::block_connections).
    pub fn block_connections(mut self, block: bool) -> Self {
        self.block = block;
        self
    }

    /// The long-running dataplane: polls `source` until it ends or
    /// `control` requests a drain, filtering through a shard bank built
    /// from the runner's configuration and applying staged
    /// [`RuntimeOverrides`] at safe points (the first batch boundary after
    /// a bitmap rotation, or immediately while idle). See the
    /// [module docs](self) for the reconfiguration contract and
    /// [`serve_with`](Self::serve_with) for checkpoints, blocking and the
    /// shard supervisor.
    ///
    /// The shards carry no observer, with or without a fault plan:
    /// `serve` is [`serve_observed`](Self::serve_observed) over
    /// [`NoopObserver`] shards.
    ///
    /// # Errors
    ///
    /// Everything [`serve_with`](Self::serve_with) can return.
    pub fn serve<S>(
        &self,
        source: &mut S,
        control: &ServeControl,
    ) -> Result<ServeReport, RunnerError>
    where
        S: PacketSource + ?Sized,
    {
        self.serve_observed(|| NoopObserver, source, control, |_, _| Ok(()))
    }

    /// [`serve_with`](Self::serve_with) through a shard bank built from
    /// the runner's full configuration, the overload policy included,
    /// whose shards share one uplink monitor and each report to a fresh
    /// `observer()`. The bank panics on the fault plan's schedule (see
    /// [`fault_plan`](Self::fault_plan)); a shard the supervisor rebuilds
    /// gets a fresh observer and no fault.
    ///
    /// # Errors
    ///
    /// Everything [`serve_with`](Self::serve_with) can return.
    pub fn serve_observed<O, S, F>(
        &self,
        observer: impl Fn() -> O,
        source: &mut S,
        control: &ServeControl,
        sink: F,
    ) -> Result<ServeReport, RunnerError>
    where
        O: FilterObserver + Send + Sync,
        S: PacketSource + ?Sized,
        F: FnMut(&[(Packet, Direction)], &[Verdict]) -> Result<(), NetError>,
    {
        let uplink = Arc::new(self.filter.uplink_monitor());
        let shard = |config| {
            BitmapFilter::with_observer(config, observer())
                .with_shared_uplink(Arc::clone(&uplink))
                .with_overload_policy(self.overload.clone())
        };
        let shards = (0..self.shards)
            .map(|_| shard(self.filter.clone()))
            .collect();
        let flow = FlowHash::new(self.filter.hole_punching());
        let bank = ShardedFilter::from_shards(flow, Arc::clone(&uplink), shards);
        let bank = ShardBank::new(bank, self.filter.clone(), shard, &self.fault);
        self.serve_with(bank, source, control, sink)
    }

    /// [`serve`](Self::serve) through `bank` (a [`TenantBank`], or the
    /// shard bank [`serve`](Self::serve) and
    /// [`serve_observed`](Self::serve_observed) build), handing every
    /// decided run of packets and its verdicts to `sink` in stream order.
    ///
    /// * **Supervision.** Every run is decided under `catch_unwind`. When
    ///   a decision panics, the packets before it keep their verdicts and
    ///   the bank quarantines the filter that panicked
    ///   ([`ServeBank::quarantine`]): the packet passes fail-open and
    ///   deciding resumes at the next packet. Each quarantine becomes a
    ///   [`ShardIncident`] in [`ServeReport::supervisor`] and goes to the
    ///   observability hooks. A bank that does not quarantine lets the
    ///   panic unwind out of `serve_with`.
    /// * **Checkpoints.** The bank is restored from the
    ///   [`checkpoint`](Self::checkpoint) file before the first packet is
    ///   decided, judging staleness against that packet's trace time; a
    ///   missing file is a cold start. A periodic checkpoint is written
    ///   after the first batch whose watermark reaches the next multiple
    ///   of `every` in trace time; the one after it is due at the first
    ///   multiple past that watermark ([`next_boundary`]). Every write
    ///   goes through one function, which fails the first writes the
    ///   fault plan's `ckpt` budget names;
    ///   periodic ones retry twice, 50 ms then 200 ms apart, after which
    ///   the session goes on without them. No final write follows a
    ///   session that processed no packet.
    /// * **Blocking.** With [`block_connections`](Self::block_connections)
    ///   on, a batch is decided as its longest runs that hold neither a
    ///   packet of a blocked connection nor one whose connection has an
    ///   inbound packet earlier in the run; packets of blocked
    ///   connections are dropped between them, unseen by bank and sink.
    /// * **Observability.** The tracer times ingest, decide and emit per
    ///   batch; the health state gets the watermark after each batch;
    ///   the supervisor metrics, flight recorder and health shard state
    ///   get every quarantine.
    ///
    /// # Errors
    ///
    /// [`RunnerError::Net`] on the first unrecoverable source or sink
    /// error, [`RunnerError::Snapshot`] if the restore or the final
    /// checkpoint fails.
    pub fn serve_with<B, S, F>(
        &self,
        bank: B,
        source: &mut S,
        control: &ServeControl,
        sink: F,
    ) -> Result<ServeReport, RunnerError>
    where
        B: ServeBank,
        S: PacketSource + ?Sized,
        F: FnMut(&[(Packet, Direction)], &[Verdict]) -> Result<(), NetError>,
    {
        let telemetry = control.telemetry.as_ref();
        let mut session = Session {
            bank,
            incidents: Vec::new(),
            live: telemetry.map(|t| (&*t.live, t.carried())),
            obs: &self.obs,
            sink,
            verdicts: Vec::new(),
            blocked: self.block.then(BlockedConnections::default),
            tally: Tally::default(),
            batch_size: self.pipeline.batch_size.max(1),
            policy: self.filter.drop_policy(),
            seen_gen: 0,
        };
        // (generation, overrides, filter rotations when staged)
        let mut pending: Option<(u64, RuntimeOverrides, u64)> = None;
        let mut restored = None;
        // Set at the first packet; `None` again once periodic
        // checkpointing gave up after its retries.
        let mut next_due = None;
        let (mut ckpt_faults, mut ckpt_writes) = (self.fault.injector(), 0);
        let mut buf: Vec<(Packet, Direction)> = Vec::with_capacity(session.batch_size);
        session.publish_config();

        let exit = loop {
            if control.drain_requested() {
                break ServeExit::Drained;
            }
            if pending.is_none() {
                if let Some((generation, overrides)) = control.cell.poll(session.seen_gen) {
                    pending = Some((generation, overrides, session.bank.rotations()));
                }
            }
            buf.clear();
            let poll = {
                let _t = session.obs.tracer.as_ref().map(|t| t.scope(Stage::Ingest));
                source.next_batch(&mut buf, session.batch_size)?
            };
            match poll {
                SourcePoll::End => break ServeExit::SourceEnded,
                SourcePoll::Idle => {
                    // Idle is trivially a safe point: nothing is in
                    // flight, so staged overrides apply right away.
                    if let Some((generation, overrides, _)) = pending.take() {
                        session.apply(generation, &overrides);
                    }
                    std::thread::sleep(IDLE_SLEEP);
                }
                SourcePoll::Batch(_) => {
                    let Some((first, _)) = buf.first() else {
                        continue;
                    };
                    if let Some((path, every)) = self.checkpoint.as_ref() {
                        if session.tally.packets == 0 {
                            if path.exists() {
                                let bytes = snapshot::read_file(path)?;
                                restored = Some(session.bank.restore(&bytes, first.ts())?);
                            }
                            next_due = Some(next_boundary(Timestamp::ZERO, first.ts(), *every));
                        }
                    }
                    session.batch(&buf)?;
                    session.tally.packets += buf.len() as u64;
                    let watermark = session.tally.watermark;

                    // A rotation has retired a vector since the
                    // overrides were staged — the batch boundary right
                    // after it is the quiesce point.
                    if let Some((generation, overrides, _)) =
                        pending.take_if(|(_, _, staged_at)| session.bank.rotations() > *staged_at)
                    {
                        session.apply(generation, &overrides);
                    }

                    if let Some((path, every)) = &self.checkpoint {
                        if let Some(due) = next_due.filter(|due| watermark >= *due) {
                            let bytes = session.bank.checkpoint_bytes(watermark);
                            let registry = telemetry.map(|t| &t.registry);
                            next_due = checkpoint_with_backoff(registry, path, || {
                                write_checkpoint(&mut ckpt_faults, &mut ckpt_writes, path, &bytes)
                            })
                            .ok()
                            .map(|()| next_boundary(due, watermark, *every));
                            if next_due.is_some() {
                                session.checkpointed();
                            }
                        }
                    }

                    if let Some(health) = &self.obs.health {
                        health.set_watermark(watermark.as_micros());
                    }
                    if session.live.is_some() {
                        session.publish(session.bank.rotations(), &source.stats());
                    }
                }
            }
        };

        if let Some((path, _)) = &self.checkpoint {
            if session.tally.packets > 0 {
                let bytes = session.bank.checkpoint_bytes(session.tally.watermark);
                write_checkpoint(&mut ckpt_faults, &mut ckpt_writes, path, &bytes)?;
                session.checkpointed();
            }
        }
        let filter_stats = session.bank.stats();
        let ingest = source.stats();
        session.publish(filter_stats.rotations, &ingest);
        let tally = session.tally;
        self.obs.settle(tally.watermark);
        let mut incidents = session.incidents;
        incidents.sort_by_key(|i| (i.at, i.shard));
        Ok(ServeReport {
            packets: tally.packets,
            passed: tally.passed,
            dropped: tally.dropped,
            blocked_packets: tally.blocked_packets,
            blocked_connections: session.blocked.map_or(0, |s| s.connections() as u64),
            uplink_offered_bits: tally.uplink_offered_bits,
            uplink_kept_bits: tally.uplink_kept_bits,
            reconfigs_applied: tally.reconfigs,
            checkpoints_written: tally.checkpoints,
            restored,
            exit,
            filter_stats,
            watermark: tally.watermark,
            ingest,
            supervisor: SupervisorReport {
                panics: incidents.len() as u64,
                restarts: incidents.len() as u64,
                incidents,
            },
        })
    }
}

/// The first multiple of `every` after trace time `t`, counting from
/// `boundary`. A far-future timestamp (a skewed clock) jumps straight
/// past every multiple it skipped instead of falling due once per each.
pub fn next_boundary(boundary: Timestamp, t: Timestamp, every: TimeDelta) -> Timestamp {
    let every = every.as_micros().max(1);
    let skipped = t.saturating_since(boundary).as_micros() / every;
    Timestamp::from_micros(boundary.as_micros().saturating_add((skipped + 1) * every))
}

/// What [`PipelineRunner::serve_with`] decides through: the shard bank of
/// [`serve`](PipelineRunner::serve) or a [`TenantBank`], dispatched
/// statically.
pub trait ServeBank {
    /// Appends a verdict for each packet of `run`, in stream order;
    /// `watermark` is the session's watermark through the run.
    fn decide(&mut self, run: &[(Packet, Direction)], watermark: Timestamp, out: &mut Vec<Verdict>);

    /// Replaces the filter whose decision of `packet` panicked by a fresh
    /// one, fail-open and cold at `at`; `None` lets the panic unwind.
    fn quarantine(
        &mut self,
        packet: &Packet,
        dir: Direction,
        at: Timestamp,
    ) -> Option<ShardIncident>;

    /// Applies staged runtime overrides.
    fn apply_overrides(&mut self, overrides: &RuntimeOverrides);

    /// The merged counters, read once a session ends.
    fn stats(&self) -> FilterStats;

    /// The bitmap rotations of [`stats`](Self::stats) without merging
    /// the rest, read on the serving thread after every batch: staged
    /// overrides wait for it to grow, and telemetry exports it.
    fn rotations(&self) -> u64;

    /// A checkpoint image valid at trace time `watermark`, taken after
    /// advancing the bank to it, so every filter is cut at that instant.
    fn checkpoint_bytes(&self, watermark: Timestamp) -> Vec<u8>;

    /// Restores from a checkpoint image, judging staleness against `now`.
    ///
    /// # Errors
    ///
    /// Whatever decoding the image reports.
    fn restore(&mut self, bytes: &[u8], now: Timestamp) -> Result<RestoreOutcome, SnapshotError>;
}

/// A [`ShardedFilter`] as a [`ServeBank`]: a run is one
/// [`ShardedFilter::process_batch`] call, and a shard whose decision
/// panics is replaced by `rebuild(config)` (the constructor that built
/// the bank), switched to fail-open under the overrides applied so far
/// and started cold.
///
/// It also runs the fault plan's decide-path panics: per shard, the
/// plan's [`PlannedInjector`] and the packets that shard has decided.
/// While any shard has panics left, a run is decided up to and including
/// the first packet whose injector fires, and then the bank panics: the
/// fatal packet's uplink bytes and timestamp reach the shared monitor and
/// the watermark, its verdict is discarded. A rebuilt shard gets no fault.
pub(crate) struct ShardBank<O: FilterObserver + Send + Sync, R> {
    bank: ShardedFilter<BitmapFilter<O>>,
    config: BitmapFilterConfig,
    rebuild: R,
    overrides: RuntimeOverrides,
    faults: Vec<(PlannedInjector, u64)>,
}

impl<O: FilterObserver + Send + Sync, R> ShardBank<O, R> {
    /// `bank`, built from `config`, every shard armed with `plan`'s
    /// panics; a checkpoint older than its `T_e` restores cold.
    pub(crate) fn new(
        bank: ShardedFilter<BitmapFilter<O>>,
        config: BitmapFilterConfig,
        rebuild: R,
        plan: &FaultPlan,
    ) -> Self {
        Self {
            faults: vec![(plan.injector(), 0); bank.shards()],
            bank,
            config,
            rebuild,
            overrides: RuntimeOverrides::default(),
        }
    }
}

impl<O, R> ServeBank for ShardBank<O, R>
where
    O: FilterObserver + Send + Sync,
    R: Fn(BitmapFilterConfig) -> BitmapFilter<O>,
{
    fn decide(&mut self, run: &[(Packet, Direction)], _: Timestamp, out: &mut Vec<Verdict>) {
        if !self.faults.iter().any(|(faults, _)| faults.armed()) {
            return self.bank.process_batch(run, out);
        }
        for (i, (packet, dir)) in run.iter().enumerate() {
            let (faults, decided) = &mut self.faults[self.bank.shard_of(&packet.tuple(), *dir)];
            let seq = *decided;
            *decided += 1;
            if faults.panic_due(seq) {
                self.bank.process_batch(&run[..=i], out);
                out.pop();
                panic!("injected shard fault (packet #{seq})");
            }
        }
        self.bank.process_batch(run, out);
    }

    fn quarantine(
        &mut self,
        packet: &Packet,
        dir: Direction,
        at: Timestamp,
    ) -> Option<ShardIncident> {
        let shard = self.bank.shard_of(&packet.tuple(), dir);
        let mut fresh = (self.rebuild)(self.config.clone());
        fresh.apply_overrides(&RuntimeOverrides {
            fail_mode: Some(FailMode::Open),
            ..self.overrides.clone()
        });
        fresh.start_cold_at(at);
        // `shard_of` is in range, so the swap cannot fail.
        let _ = self.bank.replace_shard(shard, fresh);
        self.faults[shard] = (PlannedInjector::disarmed(), 0);
        Some(ShardIncident {
            shard,
            at,
            quarantined_until: at + self.config.expiry_timer(),
        })
    }

    fn apply_overrides(&mut self, overrides: &RuntimeOverrides) {
        self.bank.apply_overrides(overrides);
        self.overrides.merge(overrides.clone());
    }

    fn stats(&self) -> FilterStats {
        self.bank.stats()
    }

    fn rotations(&self) -> u64 {
        PacketFilter::ticks(&self.bank)
    }

    fn checkpoint_bytes(&self, watermark: Timestamp) -> Vec<u8> {
        self.bank.advance(watermark);
        self.bank.snapshot_bytes(watermark)
    }

    fn restore(&mut self, bytes: &[u8], now: Timestamp) -> Result<RestoreOutcome, SnapshotError> {
        self.bank
            .restore_bytes(bytes, now, self.config.expiry_timer())
    }
}

/// A [`SubscriberTable`] as a [`ServeBank`] (passed as `&TenantBank`).
/// Each tenant decides under its own configuration, so staged overrides
/// change only the batch size, and the table classifies every packet
/// itself: label the source with its
/// [`classifier`](SubscriberTable::classifier) so the session's
/// accounting agrees. After each run the table advances to the
/// watermark, rotating idle tenants and parking evictable ones. Panics
/// are not quarantined.
#[derive(Debug)]
pub struct TenantBank {
    table: RefCell<SubscriberTable<BitmapFilter>>,
    stale_after: TimeDelta,
}

impl TenantBank {
    /// `table`; a checkpoint older than `stale_after` (its largest tenant
    /// `T_e`) restores cold.
    pub fn new(table: SubscriberTable<BitmapFilter>, stale_after: TimeDelta) -> Self {
        Self {
            table: RefCell::new(table),
            stale_after,
        }
    }

    /// The table, to read between polls.
    pub fn table(&self) -> Ref<'_, SubscriberTable<BitmapFilter>> {
        self.table.borrow()
    }
}

impl ServeBank for &TenantBank {
    fn decide(
        &mut self,
        run: &[(Packet, Direction)],
        watermark: Timestamp,
        out: &mut Vec<Verdict>,
    ) {
        let mut table = self.table.borrow_mut();
        table.process_batch(run, out);
        table.advance(watermark);
    }

    fn quarantine(&mut self, _: &Packet, _: Direction, _: Timestamp) -> Option<ShardIncident> {
        None
    }

    fn apply_overrides(&mut self, _: &RuntimeOverrides) {}

    fn stats(&self) -> FilterStats {
        self.table.borrow().merged_stats()
    }

    fn rotations(&self) -> u64 {
        PacketFilter::ticks(&*self.table.borrow())
    }

    fn checkpoint_bytes(&self, watermark: Timestamp) -> Vec<u8> {
        let mut table = self.table.borrow_mut();
        table.advance(watermark);
        table.snapshot_bytes(watermark)
    }

    fn restore(&mut self, bytes: &[u8], now: Timestamp) -> Result<RestoreOutcome, SnapshotError> {
        self.table
            .borrow_mut()
            .restore_bytes(bytes, now, self.stale_after)
    }
}

/// What one serve session has counted so far.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    packets: u64,
    passed: u64,
    dropped: u64,
    blocked_packets: u64,
    uplink_offered_bits: u64,
    uplink_kept_bits: u64,
    reconfigs: u64,
    checkpoints: u64,
    watermark: Timestamp,
}

/// The dataplane state of one [`PipelineRunner::serve_with`] session.
struct Session<'a, B, F> {
    bank: B,
    incidents: Vec<ShardIncident>,
    /// The telemetry block, and the counters earlier sessions left in it.
    live: Option<(&'a Live, Tally)>,
    obs: &'a PipelineObservability,
    sink: F,
    verdicts: Vec<Verdict>,
    blocked: Option<BlockedConnections>,
    tally: Tally,
    batch_size: usize,
    policy: DropPolicy,
    seen_gen: u64,
}

impl<B, F> Session<'_, B, F>
where
    B: ServeBank,
    F: FnMut(&[(Packet, Direction)], &[Verdict]) -> Result<(), NetError>,
{
    /// Applies staged overrides of configuration `generation`.
    fn apply(&mut self, generation: u64, overrides: &RuntimeOverrides) {
        self.bank.apply_overrides(overrides);
        if let Some(policy) = overrides.drop_policy {
            self.policy = policy;
        }
        if let Some(batch_size) = overrides.batch_size {
            self.batch_size = batch_size.max(1);
        }
        self.seen_gen = generation;
        self.tally.reconfigs += 1;
        self.publish_config();
    }

    /// Stores the configuration the session runs under, and the
    /// reconfigurations it applied, into the telemetry block.
    fn publish_config(&self) {
        if let Some((live, carried)) = &self.live {
            let store = |cell: &AtomicU64, v| cell.store(v, Ordering::Relaxed);
            store(&live.drop_low_bits, self.policy.low_bps().to_bits());
            store(&live.drop_high_bits, self.policy.high_bps().to_bits());
            store(&live.batch_size, self.batch_size as u64);
            store(&live.generation, self.seen_gen);
            store(&live.reconfigs, carried.reconfigs + self.tally.reconfigs);
        }
    }

    /// Stores the session's live state after a batch: plain relaxed
    /// stores, no read-modify-write.
    fn publish(&self, rotations: u64, ingest: &IngestStats) {
        if let Some((live, carried)) = &self.live {
            let store = |cell: &AtomicU64, v| cell.store(v, Ordering::Relaxed);
            let tally = &self.tally;
            store(&live.packets, carried.packets + tally.packets);
            store(&live.passed, carried.passed + tally.passed);
            store(&live.dropped, carried.dropped + tally.dropped);
            store(&live.watermark_micros, tally.watermark.as_micros());
            store(&live.rotations, rotations);
            store(&live.ingest_errors, ingest.errors_total());
            store(&live.kernel_drops, ingest.kernel_drops());
        }
    }

    fn checkpointed(&mut self) {
        self.tally.checkpoints += 1;
        if let Some((live, carried)) = &self.live {
            let total = carried.checkpoints + self.tally.checkpoints;
            live.checkpoints.store(total, Ordering::Relaxed);
        }
    }

    /// Decides a polled batch: whole without a blocked store, otherwise
    /// as the runs the store admits, dropping the packets of blocked
    /// connections between them.
    fn batch(&mut self, mut rest: &[(Packet, Direction)]) -> Result<(), NetError> {
        if self.blocked.is_none() {
            return self.run(rest);
        }
        while let Some((packet, direction)) = rest.first() {
            if self
                .blocked
                .as_ref()
                .is_some_and(|s| s.is_blocked(&packet.tuple()))
            {
                let tally = &mut self.tally;
                tally.blocked_packets += 1;
                tally.dropped += 1;
                tally.watermark = tally.watermark.max(packet.ts());
                if *direction == Direction::Outbound {
                    tally.uplink_offered_bits += packet.wire_bits();
                }
                rest = &rest[1..];
                continue;
            }
            let len = self
                .blocked
                .as_mut()
                .map_or(rest.len(), |s| s.admit_run(rest));
            self.run(&rest[..len])?;
            rest = &rest[len..];
        }
        Ok(())
    }

    /// Decides one run under the supervisor, blocks the connections of
    /// its inbound drops and hands it to the sink.
    fn run(&mut self, run: &[(Packet, Direction)]) -> Result<(), NetError> {
        let watermark = run
            .iter()
            .fold(self.tally.watermark, |wm, (p, _)| wm.max(p.ts()));
        self.verdicts.clear();
        {
            let _t = self.obs.tracer.as_ref().map(|t| t.scope(Stage::Decide));
            while self.verdicts.len() < run.len() {
                let (bank, verdicts) = (&mut self.bank, &mut self.verdicts);
                let rest = &run[verdicts.len()..];
                if let Err(panic) =
                    catch_unwind(AssertUnwindSafe(|| bank.decide(rest, watermark, verdicts)))
                {
                    self.quarantine(run, panic);
                }
            }
        }
        let _t = self.obs.tracer.as_ref().map(|t| t.scope(Stage::Emit));
        let mut tally = self.tally;
        tally.watermark = watermark;
        // Branch-free: only an inbound drop counts as dropped, and an
        // outbound packet's bits are offered, and kept when it passes.
        for ((packet, direction), verdict) in run.iter().zip(&self.verdicts) {
            let outbound = u64::from(*direction == Direction::Outbound);
            let passes = u64::from(*verdict == Verdict::Pass);
            let dropped = (1 - outbound) & (1 - passes);
            tally.dropped += dropped;
            tally.passed += 1 - dropped;
            let bits = packet.wire_bits() * outbound;
            tally.uplink_offered_bits += bits;
            tally.uplink_kept_bits += bits * passes;
        }
        self.tally = tally;
        if let Some(store) = self.blocked.as_mut() {
            for ((packet, direction), verdict) in run.iter().zip(&self.verdicts) {
                if (*direction, *verdict) == (Direction::Inbound, Verdict::Drop) {
                    store.block(&packet.tuple());
                }
            }
            store.flushed();
        }
        (self.sink)(run, &self.verdicts)
    }

    /// Has the bank quarantine the filter whose decision of `run`'s first
    /// undecided packet panicked with `panic`, and passes the packet; a
    /// bank that does not quarantine re-raises the panic.
    fn quarantine(&mut self, run: &[(Packet, Direction)], panic: Box<dyn std::any::Any + Send>) {
        let decided = self.verdicts.len();
        let (packet, direction) = &run[decided];
        let at = run[..=decided]
            .iter()
            .fold(self.tally.watermark, |wm, (p, _)| wm.max(p.ts()));
        let Some(incident) = self.bank.quarantine(packet, *direction, at) else {
            resume_unwind(panic)
        };
        self.obs.quarantined(&incident);
        self.incidents.push(incident);
        self.verdicts.push(Verdict::Pass);
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
    fn serve_surfaces_source_errors() {
        use upbound_net::pcap::{to_bytes, PcapReader};
        use upbound_net::PcapSource;
        let trace = trace(39);
        let bytes = to_bytes(trace.packets.iter().map(|lp| &lp.packet), 65535).expect("pcap");
        // Cut into the last record's body: a strict reader fails there.
        let cut = &bytes[..bytes.len() - 9];
        let mut source = PcapSource::new(PcapReader::new(cut).expect("header"), inside());
        let runner = PipelineRunner::new(inside(), BitmapFilterConfig::paper_evaluation());
        assert!(matches!(
            runner.serve(&mut source, &ServeControl::new()),
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
    fn shard_bank_checkpoints_a_consistent_cut() {
        // Every packet lands on shard 0, yet the image carries shard 1
        // advanced to the watermark too: two 5 s rotations by 11 s.
        let config = BitmapFilterConfig::paper_evaluation();
        let sharded = ShardedFilter::builder(config.clone())
            .shards(2)
            .build()
            .expect("bank");
        let tuple = |port: u16| {
            upbound_net::FiveTuple::new(
                upbound_net::Protocol::Tcp,
                format!("10.0.0.5:{port}").parse().expect("addr"),
                "203.0.113.9:80".parse().expect("addr"),
            )
        };
        let run: Vec<_> = (1024..)
            .map(tuple)
            .filter(|t| sharded.shard_of(t, Direction::Outbound) == 0)
            .zip(0..12u32)
            .map(|(t, i)| {
                let ts = Timestamp::from_secs(f64::from(i));
                let packet = Packet::tcp(ts, t, upbound_net::TcpFlags::ACK, &[][..]);
                (packet, Direction::Outbound)
            })
            .collect();
        let watermark = Timestamp::from_secs(11.0);
        let mut bank = ShardBank::new(
            sharded,
            config.clone(),
            BitmapFilter::new,
            &FaultPlan::none(),
        );
        bank.decide(&run, watermark, &mut Vec::new());
        let image = bank.checkpoint_bytes(watermark);

        let mut restored = ShardedFilter::builder(config.clone())
            .shards(2)
            .build()
            .expect("bank");
        restored
            .restore_bytes(&image, watermark, config.expiry_timer())
            .expect("restore");
        for i in 0..2 {
            assert_eq!(restored.with_shard(i, |s| s.ticks()), Ok(2), "shard {i}");
        }
    }

    #[test]
    fn serve_writes_a_final_checkpoint() {
        let trace = trace(37);
        let dir = std::env::temp_dir().join(format!("upbound-serve-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.snap");
        let runner = PipelineRunner::new(inside(), BitmapFilterConfig::paper_evaluation())
            .shards(2)
            .block_connections(true);
        let serve = |runner: &PipelineRunner| {
            let mut source = BufferedSource::new(labeled(&trace), IngestStats::default());
            runner
                .serve(&mut source, &ServeControl::new())
                .expect("serve")
        };
        let plain = serve(&runner);
        let report = serve(&runner.clone().checkpoint(&path, TimeDelta::from_secs(20.0)));
        assert!(report.checkpoints_written >= 2, "periodic + final");
        assert!(path.exists());
        // Checkpointing does not perturb the run.
        assert!(plain.blocked_connections > 0);
        assert_eq!(
            (report.passed, report.dropped, report.blocked_connections),
            (plain.passed, plain.dropped, plain.blocked_connections)
        );
        assert_eq!(report.filter_stats, plain.filter_stats);

        // The final checkpoint restores into an equally-sharded bank.
        let mut restored = ShardedFilter::builder(BitmapFilterConfig::paper_evaluation())
            .shards(2)
            .build()
            .expect("bank");
        let bytes = snapshot::read_file(&path).expect("read checkpoint");
        let outcome = restored
            .restore_bytes(&bytes, report.watermark, TimeDelta::from_secs(3600.0))
            .expect("restore");
        assert_eq!(outcome, upbound_core::RestoreOutcome::Warm);
        assert_eq!(restored.stats(), report.filter_stats);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_plan_routes_through_supervised_chaos_path() {
        let trace = trace(38);
        let plan = FaultPlan::parse("seed=5,corrupt=10,panics=1").expect("plan");
        let packets = trace.packets.iter().map(|lp| lp.packet.clone()).collect();
        let (packets, distortion) = plan.distort_stream(packets);
        assert!(distortion.corrupted > 0);
        let mut source = BufferedSource::labeled(packets, inside());
        let report = PipelineRunner::new(inside(), BitmapFilterConfig::paper_evaluation())
            .shards(4)
            .fault_plan(plan)
            .serve(&mut source, &ServeControl::new())
            .expect("serve");
        // Every packet got a verdict despite the injected panics, and
        // the supervisor caught each one.
        assert_eq!(report.packets as usize, trace.packets.len());
        assert_eq!(report.passed + report.dropped, report.packets);
        assert!(report.supervisor.panics >= 1);
        assert_eq!(report.supervisor.panics, report.supervisor.restarts);
    }
}
