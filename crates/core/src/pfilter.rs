//! The packet-filter abstraction every deployment surface drives.
//!
//! Hoisted out of the simulator so the replay engine, the sharded
//! concurrent engine, the CLI, benches, and examples all program against
//! one interface instead of special-casing `BitmapFilter` vs the SPI
//! baseline.

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

    /// `true` when [`decide_shared`](Self::decide_shared) /
    /// [`advance_shared`](Self::advance_shared) are implemented and
    /// verdict-identical to their `&mut` twins, so containers like
    /// [`ShardedFilter`](crate::ShardedFilter) may drive the filter
    /// through a shared reference from many threads at once. The
    /// constant is resolved at monomorphization, so the dispatch
    /// branches in those containers fold away.
    ///
    /// `BitmapFilter<NoopObserver>` is concurrent (atomic bitmap, atomic
    /// counters, no observer to serialize); observed filters and the SPI
    /// baseline (whose flow table needs `&mut`) are not.
    const CONCURRENT: bool = false;

    /// Decides the fate of one packet.
    fn decide(&mut self, packet: &Packet, direction: Direction) -> Verdict;

    /// Lock-free twin of [`decide`](Self::decide): the full per-packet
    /// pipeline through a shared reference.
    ///
    /// Must be verdict- and stats-identical to [`decide`](Self::decide).
    /// Only callable when [`CONCURRENT`](Self::CONCURRENT) is `true`;
    /// the default body is unreachable because callers dispatch on that
    /// constant.
    fn decide_shared(&self, packet: &Packet, direction: Direction) -> Verdict {
        let _ = (packet, direction);
        unreachable!("decide_shared called on a filter with CONCURRENT == false")
    }

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

    /// Lock-free twin of [`decide_keyed`](Self::decide_keyed); the
    /// default calls [`decide_shared`](Self::decide_shared).
    fn decide_keyed_shared(
        &self,
        key: &HashedKey,
        packet: &Packet,
        direction: Direction,
    ) -> Verdict {
        let _ = key;
        self.decide_shared(packet, direction)
    }

    /// Applies every timer event (rotation, purge sweep) due at or
    /// before `now` without processing a packet.
    fn advance(&mut self, now: Timestamp);

    /// Lock-free twin of [`advance`](Self::advance). Only callable when
    /// [`CONCURRENT`](Self::CONCURRENT) is `true`; see
    /// [`decide_shared`](Self::decide_shared).
    fn advance_shared(&self, now: Timestamp) {
        let _ = now;
        unreachable!("advance_shared called on a filter with CONCURRENT == false")
    }

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

    /// Memory footprint of the filter state in bytes.
    fn memory_bytes(&self) -> usize;

    /// The drop probability the filter's policy yields for its currently
    /// measured uplink throughput.
    fn drop_probability(&self, now: Timestamp) -> f64;

    /// A short display name for reports.
    fn name(&self) -> &str;
}
