//! Trace-replay simulation harness — the machinery behind the paper's
//! §5.3 evaluation (Figures 8 and 9).
//!
//! * [`PacketFilter`] — the common interface the [`BitmapFilter`] and the
//!   [`SpiFilter`] baseline are driven through (plus [`OracleFilter`], an
//!   exact infinite-memory reference used for false-positive/negative
//!   scoring). The trait lives in `upbound_core`; this crate re-exports
//!   it so simulation code imports one crate.
//! * [`ReplayEngine`] — replays labeled in-memory packets through a
//!   filter, maintaining the paper's blocked-connection store ("when an
//!   inbound packet is decided to be dropped …, the socket pair σ of that
//!   packet is stored and all the future packets that match any stored σ
//!   or σ̄ are all dropped without checking the bitmap") and collecting
//!   per-interval uplink/downlink throughput before and after filtering,
//!   per-interval drop rates, and exact error accounting against ground
//!   truth. It is the engine of the figure binaries.
//! * [`compare`] — paired drop-rate series for two filters over one trace
//!   (the Figure 8 scatter).
//! * [`sweep`] — a small crossbeam-based parallel runner for parameter
//!   sweeps (ablations).
//! * [`PipelineRunner`] — the builder-style front door to the dataplane:
//!   every axis (sharding, overload policy, fault plans, observability,
//!   checkpointing, the blocked-σ store) is an option of its one packet
//!   loop, [`serve`](PipelineRunner::serve), which runs live sources and
//!   finite captures alike over a
//!   [`ShardedFilter`](upbound_core::ShardedFilter) or, through
//!   [`serve_with`](PipelineRunner::serve_with), a
//!   [`SubscriberTable`](upbound_core::SubscriberTable). Every run that
//!   reads a [`PacketSource`](upbound_net::PacketSource) is `serve`.
//! * [`pipeline`] — the dataplane's tuning knobs and the records of its
//!   shard supervisor: `serve` catches a panic in a shard's decide path,
//!   quarantines that shard and rebuilds it fail-open while the
//!   surviving shards keep filtering.
//! * [`fault`] — deterministic fault injection: a seeded [`FaultPlan`]
//!   describing stream corruption, reorder bursts, clock-skew spikes,
//!   decide-path shard panics, and checkpoint I/O failures, so every
//!   chaos run is reproducible from its plan string. The caller distorts
//!   the stream ([`FaultPlan::distort_stream`]); `serve`'s shard bank
//!   panics on the plan's schedule, and its session fails checkpoint
//!   writes on it ([`PipelineRunner::fault_plan`]).
//!
//! [`BitmapFilter`]: upbound_core::BitmapFilter
//! [`SpiFilter`]: upbound_spi::SpiFilter
//!
//! # Examples
//!
//! ```
//! use upbound_core::{BitmapFilter, BitmapFilterConfig};
//! use upbound_sim::{ReplayConfig, ReplayEngine};
//! use upbound_traffic::{generate, TraceConfig};
//!
//! let trace = generate(
//!     &TraceConfig::builder()
//!         .duration_secs(20.0)
//!         .flow_rate_per_sec(10.0)
//!         .build()?,
//! );
//! let mut filter = BitmapFilter::new(BitmapFilterConfig::paper_evaluation());
//! let result = ReplayEngine::new(ReplayConfig::default()).run(&trace, &mut filter);
//! assert!(result.total_inbound_packets > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod compare;
pub mod fault;
mod oracle;
pub mod pipeline;
mod replay;
pub mod runner;
pub mod sweep;

pub use compare::{compare, ComparisonResult};
pub use fault::{DistortionReport, FaultPlan, FaultPlanError};
pub use oracle::OracleFilter;
pub use pipeline::{
    PipelineConfig, PipelineObservability, ShardIncident, SupervisorReport, SupervisorTelemetry,
};
pub use replay::{ReplayConfig, ReplayEngine, ReplayResult};
pub use runner::{
    next_boundary, PipelineRunner, RunnerError, ServeBank, ServeControl, ServeExit, ServeReport,
    ServeTelemetry, TenantBank,
};
pub use upbound_core::{MergeStats, PacketFilter};
