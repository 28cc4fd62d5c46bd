//! The trace-replay engine.

use crate::{OracleFilter, PacketFilter};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::HashSet;
use upbound_core::Verdict;
use upbound_net::{Direction, FiveTuple, Packet, TimeDelta};
use upbound_stats::BinnedSeries;
use upbound_traffic::SyntheticTrace;

/// Replay configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayConfig {
    /// Width of the throughput/drop-rate bins, in seconds.
    pub bin_secs: f64,
    /// Maintain the blocked-σ store of the paper's Figure 9 setup: once
    /// an inbound packet of a connection is dropped, all future packets
    /// of that connection (both directions) are dropped without
    /// consulting the filter.
    pub block_connections: bool,
    /// Expiry window of the error-accounting oracle (should equal the
    /// filter's `T_e`).
    pub oracle_expiry: TimeDelta,
    /// Maximum packets decided per [`PacketFilter::decide_batch`] call.
    /// The engine flushes a partial batch whenever a packet's connection
    /// matches an inbound packet already pending (its verdict may block
    /// the newcomer), so results are byte-identical to the per-packet
    /// path at every batch size. `1` restores the per-packet path; `0`
    /// is treated as `1`.
    pub batch_size: usize,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        Self {
            bin_secs: 10.0,
            block_connections: true,
            oracle_expiry: TimeDelta::from_secs(20.0),
            batch_size: 64,
        }
    }
}

/// The blocked-σ store of the paper's Figure 9 setup, with the flush
/// rule that keeps batched deciding identical to deciding one packet at
/// a time.
///
/// Once an inbound packet of a connection is dropped, every later packet
/// of that connection, in either direction, is dropped without
/// consulting the filter. A caller staging packets for a batched decide
/// must decide the staged batch before admitting a packet whose
/// connection already has an inbound packet staged
/// ([`must_flush`](Self::must_flush)): that staged packet's verdict may
/// block the newcomer. Only inbound drops block, so only inbound packets
/// are hazards.
#[derive(Debug, Clone, Default)]
pub(crate) struct BlockedConnections {
    blocked: HashSet<FiveTuple>,
    staged_inbound: HashSet<FiveTuple>,
}

impl BlockedConnections {
    /// Whether an inbound packet of `tuple`'s connection is staged, so the
    /// staged batch must be decided before `tuple`'s packet is looked up.
    pub(crate) fn must_flush(&self, tuple: &FiveTuple) -> bool {
        !self.staged_inbound.is_empty() && self.staged_inbound.contains(&tuple.canonical())
    }

    /// Whether `tuple`'s connection is blocked.
    pub(crate) fn is_blocked(&self, tuple: &FiveTuple) -> bool {
        !self.blocked.is_empty() && self.blocked.contains(&tuple.canonical())
    }

    /// Stages the longest prefix of `packets` that can be decided as one
    /// batch after the packets already staged, and returns its length. It
    /// stops before the first packet that [`must_flush`](Self::must_flush)
    /// or [`is_blocked`](Self::is_blocked).
    pub(crate) fn admit_run(&mut self, packets: &[(Packet, Direction)]) -> usize {
        for (i, (packet, direction)) in packets.iter().enumerate() {
            let tuple = packet.tuple();
            if self.must_flush(&tuple) || self.is_blocked(&tuple) {
                return i;
            }
            self.stage(&tuple, *direction);
        }
        packets.len()
    }

    /// Records a packet admitted to the staged batch.
    pub(crate) fn stage(&mut self, tuple: &FiveTuple, direction: Direction) {
        if direction == Direction::Inbound {
            self.staged_inbound.insert(tuple.canonical());
        }
    }

    /// Blocks the connection of a dropped inbound packet; `true` when it
    /// was not blocked before.
    pub(crate) fn block(&mut self, tuple: &FiveTuple) -> bool {
        self.blocked.insert(tuple.canonical())
    }

    /// Marks the staged batch decided (every drop in it [`block`]ed).
    ///
    /// [`block`]: Self::block
    pub(crate) fn flushed(&mut self) {
        self.staged_inbound.clear();
    }

    /// Connections blocked so far.
    pub(crate) fn connections(&self) -> usize {
        self.blocked.len()
    }
}

/// Everything measured during one replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayResult {
    /// Display name of the filter that ran.
    pub filter_name: String,
    /// Unfiltered uplink bits per bin.
    pub pre_uplink: BinnedSeries,
    /// Unfiltered downlink bits per bin.
    pub pre_downlink: BinnedSeries,
    /// Surviving uplink bits per bin.
    pub post_uplink: BinnedSeries,
    /// Surviving downlink bits per bin.
    pub post_downlink: BinnedSeries,
    /// Inbound packets offered per bin.
    pub inbound_offered: BinnedSeries,
    /// Inbound packets dropped per bin (filter + blocked store).
    pub inbound_dropped: BinnedSeries,
    /// Total packets replayed.
    pub total_packets: u64,
    /// Total inbound packets offered.
    pub total_inbound_packets: u64,
    /// Total inbound packets dropped.
    pub total_dropped_packets: u64,
    /// Inbound packets the filter passed but the oracle would drop.
    pub false_positives: u64,
    /// Inbound packets the filter dropped but the oracle would pass.
    pub false_negatives: u64,
    /// Connections that ended up in the blocked store.
    pub blocked_connections: u64,
}

impl ReplayResult {
    /// Overall inbound drop rate (packets).
    pub fn drop_rate(&self) -> f64 {
        if self.total_inbound_packets == 0 {
            0.0
        } else {
            self.total_dropped_packets as f64 / self.total_inbound_packets as f64
        }
    }

    /// Per-bin inbound drop rates `(t, dropped/offered)`, skipping empty
    /// bins.
    pub fn drop_rate_series(&self) -> Vec<(f64, f64)> {
        (0..self.inbound_offered.n_bins())
            .filter_map(|i| {
                let offered = self.inbound_offered.bin_total(i);
                if offered <= 0.0 {
                    return None;
                }
                let t = i as f64 * self.inbound_offered.bin_secs();
                Some((t, self.inbound_dropped.bin_total(i) / offered))
            })
            .collect()
    }

    /// False-positive rate over inbound packets the oracle would drop.
    pub fn false_positive_rate(&self) -> f64 {
        let should_drop = self.false_positives
            + self
                .total_dropped_packets
                .saturating_sub(self.false_negatives);
        if should_drop == 0 {
            0.0
        } else {
            self.false_positives as f64 / should_drop as f64
        }
    }

    /// False-negative rate over inbound packets the oracle would pass.
    pub fn false_negative_rate(&self) -> f64 {
        let should_pass = self.false_negatives
            + self
                .total_inbound_packets
                .saturating_sub(self.total_dropped_packets)
                .saturating_sub(self.false_positives);
        if should_pass == 0 {
            0.0
        } else {
            self.false_negatives as f64 / should_pass as f64
        }
    }
}

/// Replays labeled packets through a [`PacketFilter`].
///
/// The engine decides in-memory packets only: a packet source (a pcap,
/// a looped buffer, a live interface) is served by
/// [`PipelineRunner::serve`](crate::PipelineRunner::serve).
#[derive(Debug, Clone)]
pub struct ReplayEngine {
    config: ReplayConfig,
}

impl ReplayEngine {
    /// Creates an engine.
    pub fn new(config: ReplayConfig) -> Self {
        Self { config }
    }

    /// Replays `trace` with its own direction labels; see
    /// [`run_iter`](Self::run_iter).
    pub fn run<F: PacketFilter>(&self, trace: &SyntheticTrace, filter: &mut F) -> ReplayResult {
        self.run_iter(
            trace.packets.iter().map(|lp| (&lp.packet, lp.direction)),
            filter,
        )
    }

    /// Replays labeled `packets` through `filter` and collects the
    /// metrics.
    ///
    /// The replay semantics follow §5.3: every packet is offered in
    /// stream order; outbound packets of blocked connections are
    /// suppressed before reaching the filter (the trace cannot
    /// "un-trigger" them, but suppressing them reproduces the bandwidth
    /// effect of the block).
    ///
    /// Packets are staged into a batch and decided via
    /// [`PacketFilter::decide_batch`]. The blocked-σ store feeds back
    /// into which packets reach the filter at all, so the batch is
    /// flushed early when a packet's connection has an inbound packet
    /// staged (its verdict may block the newcomer). That hazard
    /// rule (plus oracle scoring and pre-filter accounting at staging
    /// time, both independent of the filter) makes the batched loop
    /// byte-identical to the per-packet loop at every batch size.
    ///
    /// A [`SubscriberTable`](upbound_core::SubscriberTable) replays like
    /// any filter: label its packets with the directions of the table's
    /// [`classifier`](upbound_core::SubscriberTable::classifier), and the
    /// per-tenant results stay in the table.
    pub fn run_iter<F, P, I>(&self, packets: I, filter: &mut F) -> ReplayResult
    where
        F: PacketFilter,
        P: Borrow<Packet>,
        I: IntoIterator<Item = (P, Direction)>,
    {
        let bin = self.config.bin_secs;
        let mut result = ReplayResult {
            filter_name: filter.name().to_owned(),
            pre_uplink: BinnedSeries::new(bin),
            pre_downlink: BinnedSeries::new(bin),
            post_uplink: BinnedSeries::new(bin),
            post_downlink: BinnedSeries::new(bin),
            inbound_offered: BinnedSeries::new(bin),
            inbound_dropped: BinnedSeries::new(bin),
            total_packets: 0,
            total_inbound_packets: 0,
            total_dropped_packets: 0,
            false_positives: 0,
            false_negatives: 0,
            blocked_connections: 0,
        };
        let mut oracle = OracleFilter::new(self.config.oracle_expiry);
        let mut store = self
            .config
            .block_connections
            .then(BlockedConnections::default);

        let batch_limit = self.config.batch_size.max(1);
        let mut staged: Vec<(Packet, Direction)> = Vec::with_capacity(batch_limit);
        // The oracle's verdicts on the staged packets, in staging order.
        let mut oracles: Vec<Verdict> = Vec::with_capacity(batch_limit);
        let mut verdicts: Vec<Verdict> = Vec::with_capacity(batch_limit);

        // Decides and accounts everything staged.
        let mut flush = |filter: &mut F,
                         staged: &mut Vec<(Packet, Direction)>,
                         oracles: &mut Vec<Verdict>,
                         store: &mut Option<BlockedConnections>,
                         result: &mut ReplayResult| {
            if staged.is_empty() {
                return;
            }
            verdicts.clear();
            filter.decide_batch(staged, &mut verdicts);
            for ((packet, direction), (verdict, oracle_verdict)) in staged
                .drain(..)
                .zip(verdicts.drain(..).zip(oracles.drain(..)))
            {
                let t = packet.ts().as_secs_f64();
                let bits = packet.wire_bits() as f64;
                match (direction, verdict) {
                    (Direction::Outbound, _) => result.post_uplink.add(t, bits),
                    (Direction::Inbound, Verdict::Pass) => {
                        result.post_downlink.add(t, bits);
                        if oracle_verdict == Verdict::Drop {
                            result.false_positives += 1;
                        }
                    }
                    (Direction::Inbound, Verdict::Drop) => {
                        result.total_dropped_packets += 1;
                        result.inbound_dropped.add(t, 1.0);
                        if oracle_verdict == Verdict::Pass {
                            result.false_negatives += 1;
                        }
                        if store.as_mut().is_some_and(|s| s.block(&packet.tuple())) {
                            result.blocked_connections += 1;
                        }
                    }
                }
            }
            if let Some(store) = store {
                store.flushed();
            }
        };

        for (packet, direction) in packets {
            let packet = packet.borrow();
            let tuple = packet.tuple();

            if store.as_ref().is_some_and(|s| s.must_flush(&tuple)) {
                flush(filter, &mut staged, &mut oracles, &mut store, &mut result);
            }

            let t = packet.ts().as_secs_f64();
            let bits = packet.wire_bits() as f64;
            result.total_packets += 1;
            match direction {
                Direction::Outbound => result.pre_uplink.add(t, bits),
                Direction::Inbound => {
                    result.pre_downlink.add(t, bits);
                    result.total_inbound_packets += 1;
                    result.inbound_offered.add(t, 1.0);
                }
            }

            // The oracle scores every inbound packet, blocked or not.
            let oracle_verdict = oracle.decide(packet, direction);

            if store.as_ref().is_some_and(|s| s.is_blocked(&tuple)) {
                if direction == Direction::Inbound {
                    result.total_dropped_packets += 1;
                    result.inbound_dropped.add(t, 1.0);
                    if oracle_verdict == Verdict::Pass {
                        result.false_negatives += 1;
                    }
                }
                // Outbound packets of blocked connections are
                // suppressed: they never reach the filter.
            } else {
                if let Some(store) = store.as_mut() {
                    store.stage(&tuple, direction);
                }
                staged.push((packet.clone(), direction));
                oracles.push(oracle_verdict);
                if staged.len() >= batch_limit {
                    flush(filter, &mut staged, &mut oracles, &mut store, &mut result);
                }
            }
        }
        flush(filter, &mut staged, &mut oracles, &mut store, &mut result);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upbound_core::{BitmapFilter, BitmapFilterConfig, ShardedFilter, Snapshottable};
    use upbound_spi::{SpiConfig, SpiFilter};
    use upbound_traffic::{generate, TraceConfig};

    fn trace(seed: u64) -> SyntheticTrace {
        generate(
            &TraceConfig::builder()
                .duration_secs(60.0)
                .flow_rate_per_sec(20.0)
                .seed(seed)
                .build()
                .unwrap(),
        )
    }

    fn bitmap() -> BitmapFilter {
        BitmapFilter::new(BitmapFilterConfig::paper_evaluation())
    }

    #[test]
    fn replay_accounts_for_every_packet() {
        let trace = trace(1);
        let result = ReplayEngine::new(ReplayConfig::default()).run(&trace, &mut bitmap());
        assert_eq!(result.total_packets as usize, trace.packets.len());
        assert!(result.total_inbound_packets > 0);
        assert!(result.total_dropped_packets <= result.total_inbound_packets);
        // Post-filter traffic never exceeds pre-filter traffic.
        assert!(result.post_uplink.total() <= result.pre_uplink.total());
        assert!(result.post_downlink.total() <= result.pre_downlink.total());
    }

    #[test]
    fn drop_all_policy_blocks_unsolicited_connections() {
        let trace = trace(2);
        let result = ReplayEngine::new(ReplayConfig::default()).run(&trace, &mut bitmap());
        // The workload is dominated by outside-initiated P2P, so plenty
        // of inbound traffic must drop.
        assert!(result.drop_rate() > 0.1, "drop rate {}", result.drop_rate());
        assert!(result.blocked_connections > 0);
        // And upload must shrink (blocked connections stop uploading).
        assert!(result.post_uplink.total() < result.pre_uplink.total());
    }

    #[test]
    fn oracle_scoring_bounds_bitmap_errors() {
        let trace = trace(3);
        let result = ReplayEngine::new(ReplayConfig::default()).run(&trace, &mut bitmap());
        // The bitmap filter is hugely over-provisioned for this load
        // (2^20 bits vs a few thousand connections): false positives
        // should be essentially zero, and without connection blocking no
        // legitimate response arrives after expiry in this short trace.
        assert!(
            result.false_positive_rate() < 0.01,
            "fp rate {}",
            result.false_positive_rate()
        );
    }

    #[test]
    fn spi_and_bitmap_agree_closely() {
        let trace = trace(4);
        let engine = ReplayEngine::new(ReplayConfig::default());
        let b = engine.run(&trace, &mut bitmap());
        let s = engine.run(
            &trace,
            &mut SpiFilter::new(SpiConfig {
                idle_timeout: TimeDelta::from_secs(240.0),
                ..SpiConfig::default()
            }),
        );
        let diff = (b.drop_rate() - s.drop_rate()).abs();
        assert!(
            diff < 0.1,
            "bitmap {} vs spi {}",
            b.drop_rate(),
            s.drop_rate()
        );
    }

    #[test]
    fn drop_rate_series_is_bounded() {
        let trace = trace(5);
        let result = ReplayEngine::new(ReplayConfig::default()).run(&trace, &mut bitmap());
        let series = result.drop_rate_series();
        assert!(!series.is_empty());
        assert!(series.iter().all(|&(_, r)| (0.0..=1.0).contains(&r)));
    }

    /// `trace` as owned labeled packets, for a [`BufferedSource`].
    ///
    /// [`BufferedSource`]: upbound_net::BufferedSource
    fn labeled(trace: &SyntheticTrace) -> Vec<(Packet, Direction)> {
        trace
            .packets
            .iter()
            .map(|lp| (lp.packet.clone(), lp.direction))
            .collect()
    }

    #[test]
    fn checkpointed_replay_matches_plain_and_restores() {
        // `serve` over the trace with the blocked-σ store and a
        // checkpoint cadence accounts like the engine: the same blocked
        // connections and kept uplink, and the same drops once the
        // outbound packets of blocked connections (which `serve` counts
        // as dropped and the engine suppresses) are taken out.
        use upbound_net::pcap::IngestStats;
        use upbound_net::BufferedSource;
        let trace = trace(9);
        let expected = ReplayEngine::new(ReplayConfig::default()).run(&trace, &mut bitmap());

        let dir = std::env::temp_dir().join(format!("upbound-replay-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("filter.snap");

        let net = "10.0.0.0/16".parse().unwrap();
        let mut source = BufferedSource::new(labeled(&trace), IngestStats::default());
        let report = crate::PipelineRunner::new(net, BitmapFilterConfig::paper_evaluation())
            .block_connections(true)
            .checkpoint(&path, TimeDelta::from_secs(10.0))
            .serve(&mut source, &crate::ServeControl::new())
            .unwrap();
        let outbound = trace
            .packets
            .iter()
            .filter(|lp| lp.direction == Direction::Outbound)
            .count() as u64;
        let blocked_outbound = outbound - report.filter_stats.outbound_packets;
        assert_eq!(report.packets, expected.total_packets);
        assert_eq!(
            report.dropped - blocked_outbound,
            expected.total_dropped_packets
        );
        assert_eq!(report.blocked_connections, expected.blocked_connections);
        assert_eq!(report.uplink_kept_bits as f64, expected.post_uplink.total());
        // A 60 s trace at a 10 s cadence: several periodic checkpoints
        // plus the final one.
        assert!(
            report.checkpoints_written >= 4,
            "only {} checkpoints written",
            report.checkpoints_written
        );

        // The final checkpoint restores to the engine's end-of-trace state.
        let mut restored = ShardedFilter::builder(BitmapFilterConfig::paper_evaluation())
            .build()
            .unwrap();
        let bytes = upbound_core::snapshot::read_file(&path).unwrap();
        let outcome = restored
            .restore_bytes(&bytes, report.watermark, TimeDelta::from_secs(3600.0))
            .unwrap();
        assert_eq!(outcome, upbound_core::RestoreOutcome::Warm);
        assert_eq!(restored.stats(), bitmap_reference_stats(&trace));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_size_never_changes_replay_results() {
        let trace = trace(11);
        for block_connections in [true, false] {
            let reference = ReplayEngine::new(ReplayConfig {
                block_connections,
                batch_size: 1,
                ..ReplayConfig::default()
            })
            .run(&trace, &mut bitmap());
            for batch_size in [0usize, 7, 64, 4096] {
                let result = ReplayEngine::new(ReplayConfig {
                    block_connections,
                    batch_size,
                    ..ReplayConfig::default()
                })
                .run(&trace, &mut bitmap());
                assert_eq!(
                    result, reference,
                    "batch {batch_size}, blocking {block_connections}"
                );
            }
        }
    }

    #[test]
    fn subscriber_replay_matches_single_filter_when_one_tenant_owns_the_net() {
        // With exactly one subscriber owning the trace's client network,
        // the table's verdict stream is the standalone filter's.
        let trace = trace(12);
        let engine = ReplayEngine::new(ReplayConfig::default());
        let expected = engine.run(&trace, &mut bitmap());

        let mut table = upbound_core::SubscriberTable::new();
        table
            .add_subscriber(
                "10.0.0.0/16".parse().unwrap(),
                BitmapFilterConfig::paper_evaluation(),
            )
            .unwrap();
        let classifier = table.classifier();
        let packets = trace
            .packets
            .iter()
            .map(|lp| (&lp.packet, classifier.direction_of(&lp.packet)));
        let result = engine.run_iter(packets, &mut table);
        assert_eq!(
            result,
            ReplayResult {
                filter_name: "subscribers".to_owned(),
                ..expected
            }
        );
        assert_eq!(
            table.per_subscriber_stats()[0].1,
            bitmap_reference_stats(&trace)
        );
    }

    fn bitmap_reference_stats(trace: &SyntheticTrace) -> upbound_core::FilterStats {
        let mut filter = bitmap();
        ReplayEngine::new(ReplayConfig::default()).run(trace, &mut filter);
        filter.stats()
    }

    #[test]
    fn buffered_source_replay_matches_trace_replay() {
        // Without the blocked-σ store, `serve` over the trace and the
        // engine decide every packet identically.
        use upbound_net::pcap::IngestStats;
        use upbound_net::BufferedSource;
        let trace = trace(15);
        let mut filter = bitmap();
        let expected = ReplayEngine::new(ReplayConfig {
            block_connections: false,
            ..ReplayConfig::default()
        })
        .run(&trace, &mut filter);
        let mut source = BufferedSource::new(labeled(&trace), IngestStats::default());
        let report = crate::PipelineRunner::new(
            "10.0.0.0/16".parse().unwrap(),
            BitmapFilterConfig::paper_evaluation(),
        )
        .serve(&mut source, &crate::ServeControl::new())
        .unwrap();
        assert_eq!(report.packets, expected.total_packets);
        assert_eq!(report.dropped, expected.total_dropped_packets);
        assert_eq!(
            report.uplink_offered_bits as f64,
            expected.pre_uplink.total()
        );
        assert_eq!(report.uplink_kept_bits as f64, expected.post_uplink.total());
        assert_eq!(report.filter_stats, filter.stats());
    }

    #[test]
    fn blocking_disabled_consults_filter_every_time() {
        let trace = trace(6);
        let config = ReplayConfig {
            block_connections: false,
            ..ReplayConfig::default()
        };
        let result = ReplayEngine::new(config).run(&trace, &mut bitmap());
        assert_eq!(result.blocked_connections, 0);
        // Outbound traffic is never suppressed without blocking.
        assert_eq!(result.post_uplink.total(), result.pre_uplink.total());
    }
}
