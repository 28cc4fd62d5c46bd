//! Telemetry for the upbound filter stack: lock-free metrics, a
//! fixed-capacity event journal, and text exporters.
//!
//! The crate is deliberately standalone (std only, no dependency on the
//! networking crates) so any layer can publish into it:
//!
//! - [`metrics`]: atomic [`Counter`] and [`Gauge`] whose hot-path
//!   updates are single atomic ops — cheap enough for per-packet
//!   instrumentation — and [`HistogramSnapshot`], the exported form of
//!   a histogram.
//! - [`registry`]: a named [`Registry`] handing out `Arc` handles and
//!   producing point-in-time [`Snapshot`]s.
//! - [`journal`]: [`EventJournal`], a fixed-capacity ring buffer that
//!   keeps the most recent structured events ([`FilterEvent`]).
//! - [`export`]: Prometheus text exposition (with a validating
//!   parser), JSON, and a human-readable interval report.
//! - [`latency`]: [`LatencyRecorder`], an HDR-style log-bucketed
//!   latency histogram, and [`StageTracer`] per-stage scope timers.
//! - [`recorder`]: [`FlightRecorder`], a fixed-size black box that
//!   dumps recent events/forensics/metrics on panic or signal.
//! - [`http`]: [`MetricsServer`], a std-only `/metrics` + `/health`
//!   HTTP listener with an optional `POST` [`ControlHandler`] seam for
//!   runtime reconfiguration (`upbound serve`'s control plane).
//!
//! Metric names follow `upbound_<crate>_<name>`, e.g.
//! `upbound_core_inbound_drops_total`.
//!
//! # Example
//!
//! ```
//! use upbound_telemetry::{export, Registry};
//!
//! let registry = Registry::new();
//! let drops = registry.counter("upbound_core_inbound_drops_total", "Dropped inbound packets");
//! drops.inc();
//! let text = export::prometheus::render(&registry.snapshot());
//! assert!(text.contains("upbound_core_inbound_drops_total 1"));
//! ```

pub mod events;
pub mod export;
pub mod http;
pub mod journal;
pub mod latency;
pub mod metrics;
pub mod recorder;
pub mod registry;

pub use events::{
    flow_hash, DropForensics, DropReason, FilterEvent, FilterEventKind, ForensicReason,
};
pub use http::{ControlHandler, ControlResponse, HealthState, MetricsServer};
pub use journal::EventJournal;
pub use latency::{LatencyRecorder, LatencySnapshot, ScopeTimer, Stage, StageTracer};
pub use metrics::{Counter, Gauge, HistogramSnapshot};
pub use recorder::{DumpTrigger, FlightDump, FlightRecorder, ShardStatus};
pub use registry::{MetricSample, MetricValue, Registry, Snapshot};
