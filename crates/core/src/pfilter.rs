//! The packet-filter abstraction every deployment surface drives.
//!
//! Hoisted out of the simulator so the replay engine, the sharded
//! engine, the CLI, benches, and examples all program against one
//! interface instead of special-casing `BitmapFilter` vs the SPI
//! baseline. Every filter decides through `&mut self`; a container
//! that shares filters across threads hands out `&mut` under a lock
//! (see [`ShardedFilter`](crate::ShardedFilter)).

use crate::{HashedKey, Verdict};
use upbound_net::{Direction, Packet, Timestamp};

/// Aggregate counters that can be folded across filter instances.
///
/// Needed wherever several filters jointly cover one client network:
/// the shards of a [`ShardedFilter`](crate::ShardedFilter) and the
/// per-tenant entries of a
/// [`SubscriberTable`](crate::SubscriberTable).
pub trait MergeStats: Default + Clone {
    /// Folds `other`'s counters into `self`.
    ///
    /// Packet counters are additive. Timer counters (bitmap rotations,
    /// SPI purge sweeps) merge as the **maximum**: sibling shards each
    /// advance lazily to the last timestamp they saw, so the
    /// furthest-advanced shard has performed exactly the ticks one
    /// sequential filter would have.
    fn merge(&mut self, other: &Self);
}

/// Anything that can decide, packet by packet, whether traffic crossing
/// the client-network edge passes or drops.
///
/// Implementations must treat [`decide`](Self::decide) as the full
/// per-packet pipeline: learn from outbound packets, measure uplink
/// throughput, and judge inbound packets. Callers invoke it exactly once
/// per packet, in timestamp order.
pub trait PacketFilter {
    /// The aggregate-counter type this filter reports.
    type Stats: MergeStats;

    /// Decides the fate of one packet.
    fn decide(&mut self, packet: &Packet, direction: Direction) -> Verdict;

    /// [`decide`](Self::decide) for a packet whose key the caller has
    /// already built and hashed, after advancing the filter to at least
    /// the packet's timestamp. [`ShardedFilter`](crate::ShardedFilter)
    /// hashes each packet once to pick its shard and hands the key on
    /// here.
    ///
    /// The default ignores `key` and calls [`decide`](Self::decide); a
    /// filter that hashes the same key overrides it to skip its own key
    /// build. An override must not trust a `key` whose
    /// [`hole_punching`](HashedKey::hole_punching) differs from its own
    /// key derivation.
    fn decide_keyed(&mut self, key: &HashedKey, packet: &Packet, direction: Direction) -> Verdict {
        let _ = key;
        self.decide(packet, direction)
    }

    /// Applies every timer event (rotation, purge sweep) due at or
    /// before `now` without processing a packet.
    fn advance(&mut self, now: Timestamp);

    /// Decides a batch of packets, appending one verdict per packet to
    /// `verdicts` in input order.
    ///
    /// Semantically identical to calling [`decide`](Self::decide) once
    /// per packet in slice order — the default implementation does
    /// exactly that. Specialized implementations may amortize per-packet
    /// overhead (rotation checks, hashing, locking) but must preserve
    /// byte-identical verdicts and statistics; see
    /// [`ShardedFilter::process_batch`](crate::ShardedFilter::process_batch)
    /// for the lock-amortizing sharded variant.
    fn decide_batch(&mut self, packets: &[(Packet, Direction)], verdicts: &mut Vec<Verdict>) {
        verdicts.reserve(packets.len());
        for (packet, direction) in packets {
            verdicts.push(self.decide(packet, *direction));
        }
    }

    /// A snapshot of the running counters.
    fn stats(&self) -> Self::Stats;

    /// Timer ticks performed so far — bitmap rotations, SPI purge
    /// sweeps, 0 for a filter without a timer — without building the
    /// rest of [`stats`](Self::stats). Like the timer counter of
    /// [`MergeStats`], it merges across shards as the maximum.
    fn ticks(&self) -> u64;

    /// Memory footprint of the filter state in bytes.
    fn memory_bytes(&self) -> usize;

    /// The drop probability the filter's policy yields for its currently
    /// measured uplink throughput.
    fn drop_probability(&self, now: Timestamp) -> f64;

    /// A short display name for reports.
    fn name(&self) -> &str;
}
