//! The **bitmap filter** — the primary contribution of *Bounding
//! Peer-to-Peer Upload Traffic in Client Networks* (Huang & Lei,
//! DSN 2007).
//!
//! # How it works
//!
//! A client network's traffic is overwhelmingly bi-directional with short
//! out-in packet delays, and P2P upload is overwhelmingly triggered by
//! *unsolicited inbound* connection attempts. The bitmap filter therefore
//! keeps an approximate, constant-space memory of which five-tuples
//! recently sent an **outbound** packet:
//!
//! * a `{k × N}`-bitmap: `k` Bloom-filter bit vectors of `N = 2^n` bits
//!   sharing `m` hash functions ([`AtomicBitmap`]);
//! * outbound packets **mark** their [`FilterKey`] in *all* `k` vectors
//!   (paper Algorithm 2);
//! * inbound packets **look up** only the *current* vector; a miss means
//!   the packet is unsolicited and is dropped with probability `P_d`;
//! * every `Δt` seconds [`AtomicBitmap::rotate`] advances the current
//!   vector and zeroes the vector it left (paper Algorithm 1), expiring
//!   marks after `T_e ≈ k·Δt` without per-flow timers; the
//!   [`FilterEngine`] drives that timer from packet timestamps.
//!
//! `P_d` follows the RED-style rule of the paper's Equation 1
//! ([`DropPolicy`]): zero below an uplink-throughput threshold `L`,
//! rising linearly to one at `H`. The uplink estimate comes from a
//! windowed [`ThroughputMonitor`].
//!
//! [`params`] implements the paper's §5.1 analysis: penetration
//! probability (Eq. 2–3), the optimal hash count `m = N/(e·c)` (Eq. 5)
//! and the capacity bound `c/N ≤ −1/(e·ln p)` (Eq. 6).
//!
//! # Examples
//!
//! ```
//! use upbound_core::{BitmapFilter, BitmapFilterConfig, Verdict};
//! use upbound_net::{FiveTuple, Protocol, Timestamp};
//!
//! // The paper's evaluation configuration: a 512 KiB {4 × 2^20} bitmap
//! // rotated every 5 s (T_e = 20 s) with 3 hash functions.
//! let mut filter = BitmapFilter::new(BitmapFilterConfig::paper_evaluation());
//!
//! let conn = FiveTuple::new(
//!     Protocol::Tcp,
//!     "10.0.0.7:51000".parse()?,
//!     "203.0.113.4:6881".parse()?,
//! );
//! let t = Timestamp::from_secs(3.0);
//! filter.observe_outbound(&conn, t);
//!
//! // The response is recognized...
//! assert_eq!(filter.check_inbound(&conn.inverse(), t, 1.0), Verdict::Pass);
//! // ...an unsolicited inbound request is not (P_d = 1 → drop).
//! let stranger = FiveTuple::new(
//!     Protocol::Tcp,
//!     "198.51.100.9:40000".parse()?,
//!     "10.0.0.7:6881".parse()?,
//! );
//! assert_eq!(filter.check_inbound(&stranger, t, 1.0), Verdict::Drop);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod atomic_bitmap;
mod atomic_bitvec;
mod config;
mod engine;
mod filter;
mod hash;
pub mod observe;
pub mod overload;
pub mod params;
mod pfilter;
mod red;
mod runtime;
mod sharded;
pub mod snapshot;
mod subscriber;
mod throughput;

pub use atomic_bitmap::{AtomicBitmap, BitmapProbe};
pub use atomic_bitvec::AtomicBitVec;
pub use config::{BitmapFilterConfig, BitmapFilterConfigBuilder, ConfigError, FailMode};
pub use engine::{DropDraws, FilterEngine};
pub use filter::{BitmapFilter, FilterStats, Verdict};
pub use hash::{HashFamily, HashedKey};
pub use observe::{
    FilterObserver, InboundDecision, NoopObserver, RotationEvent, TelemetryObserver,
};
pub use overload::{
    OverloadEvent, OverloadLadder, OverloadPolicy, OverloadPolicyError, OverloadState,
};
pub use pfilter::{MergeStats, PacketFilter};
pub use red::DropPolicy;
pub use runtime::{ConfigCell, RuntimeOverrides};
pub use sharded::{FlowHash, ShardIndexError, ShardedFilter, ShardedFilterBuilder};
pub use snapshot::{
    ByteReader, ByteWriter, RestoreMode, RestoreOutcome, SnapshotError, Snapshottable,
};
pub use subscriber::{
    LpmTrie, SubscriberClassifier, SubscriberError, SubscriberState, SubscriberTable,
    SubscriberTelemetry, SUBSCRIBER_DELTA_KIND,
};
pub use throughput::ThroughputMonitor;

pub use upbound_net::FilterKey;

#[cfg(test)]
include!("contract_tests.rs");
