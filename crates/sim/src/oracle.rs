//! An exact reference filter for error accounting.

use crate::PacketFilter;
use std::collections::HashMap;
use upbound_core::{FilterStats, Verdict};
use upbound_net::{Direction, FiveTuple, Packet, TimeDelta, Timestamp};

/// The idealized filter the bitmap filter approximates: exact,
/// infinite-capacity positive listing with expiry window `T_e` and
/// unconditional dropping (`P_d ≡ 1`).
///
/// An inbound packet passes iff an outbound packet of the same connection
/// was seen within the last `T_e`. Comparing a real filter's verdicts
/// against the oracle's gives exact false-positive ("should drop,
/// passed") and false-negative ("should pass, dropped") counts in the
/// sense of the paper's §5.1.
#[derive(Debug, Clone)]
pub struct OracleFilter {
    expiry: TimeDelta,
    last_outbound: HashMap<FiveTuple, Timestamp>,
    stats: FilterStats,
}

impl OracleFilter {
    /// Creates an oracle with expiry window `T_e`.
    pub fn new(expiry: TimeDelta) -> Self {
        Self {
            expiry,
            last_outbound: HashMap::new(),
            stats: FilterStats::default(),
        }
    }

    /// The expiry window.
    pub fn expiry(&self) -> TimeDelta {
        self.expiry
    }

    /// `true` when an inbound packet of `tuple` at `now` is a legitimate
    /// response to recent outbound traffic.
    pub fn is_solicited(&self, tuple: &FiveTuple, now: Timestamp) -> bool {
        match self.last_outbound.get(&tuple.inverse()) {
            Some(&t0) => now.saturating_since(t0) <= self.expiry,
            None => false,
        }
    }
}

impl PacketFilter for OracleFilter {
    type Stats = FilterStats;

    fn decide(&mut self, packet: &Packet, direction: Direction) -> Verdict {
        let now = packet.ts();
        match direction {
            Direction::Outbound => {
                self.stats.outbound_packets += 1;
                self.last_outbound.insert(packet.tuple(), now);
                Verdict::Pass
            }
            Direction::Inbound => {
                self.stats.inbound_packets += 1;
                if self.is_solicited(&packet.tuple(), now) {
                    self.stats.inbound_hits += 1;
                    Verdict::Pass
                } else {
                    self.stats.inbound_misses += 1;
                    self.stats.dropped += 1;
                    Verdict::Drop
                }
            }
        }
    }

    fn advance(&mut self, now: Timestamp) {
        // The oracle has no timer wheel; pruning expired entries here is
        // purely a memory optimization and never changes verdicts, since
        // `is_solicited` re-checks the window on every lookup.
        let expiry = self.expiry;
        self.last_outbound
            .retain(|_, &mut t0| now.saturating_since(t0) <= expiry);
    }

    fn stats(&self) -> FilterStats {
        self.stats
    }

    fn ticks(&self) -> u64 {
        0
    }

    fn memory_bytes(&self) -> usize {
        self.last_outbound.len()
            * (std::mem::size_of::<FiveTuple>() + std::mem::size_of::<Timestamp>())
    }

    fn drop_probability(&self, _now: Timestamp) -> f64 {
        1.0 // the oracle drops every unsolicited packet unconditionally
    }

    fn name(&self) -> &str {
        "oracle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upbound_net::{Protocol, TcpFlags};

    fn conn() -> FiveTuple {
        FiveTuple::new(
            Protocol::Tcp,
            "10.0.0.1:40000".parse().unwrap(),
            "198.51.100.2:80".parse().unwrap(),
        )
    }

    fn pkt(tuple: FiveTuple, t: f64) -> Packet {
        Packet::tcp(Timestamp::from_secs(t), tuple, TcpFlags::ACK, &[][..])
    }

    #[test]
    fn responses_pass_within_window() {
        let mut o = OracleFilter::new(TimeDelta::from_secs(20.0));
        assert_eq!(
            o.decide(&pkt(conn(), 0.0), Direction::Outbound),
            Verdict::Pass
        );
        assert_eq!(
            o.decide(&pkt(conn().inverse(), 19.0), Direction::Inbound),
            Verdict::Pass
        );
        assert_eq!(
            o.decide(&pkt(conn().inverse(), 30.0), Direction::Inbound),
            Verdict::Drop
        );
    }

    #[test]
    fn unsolicited_inbound_always_drops() {
        let mut o = OracleFilter::new(TimeDelta::from_secs(20.0));
        assert_eq!(
            o.decide(&pkt(conn().inverse(), 1.0), Direction::Inbound),
            Verdict::Drop
        );
    }

    #[test]
    fn outbound_refresh_extends_window() {
        let mut o = OracleFilter::new(TimeDelta::from_secs(10.0));
        o.decide(&pkt(conn(), 0.0), Direction::Outbound);
        o.decide(&pkt(conn(), 9.0), Direction::Outbound);
        assert_eq!(
            o.decide(&pkt(conn().inverse(), 15.0), Direction::Inbound),
            Verdict::Pass
        );
    }

    #[test]
    fn stats_and_memory_track_state() {
        let mut o = OracleFilter::new(TimeDelta::from_secs(10.0));
        o.decide(&pkt(conn(), 0.0), Direction::Outbound);
        o.decide(&pkt(conn().inverse(), 1.0), Direction::Inbound);
        let stranger = FiveTuple::new(
            Protocol::Tcp,
            "203.0.113.9:9999".parse().unwrap(),
            "10.0.0.1:6881".parse().unwrap(),
        );
        o.decide(&pkt(stranger, 1.0), Direction::Inbound);
        let s = o.stats();
        assert_eq!(s.outbound_packets, 1);
        assert_eq!(s.inbound_packets, 2);
        assert_eq!(s.inbound_hits, 1);
        assert_eq!(s.dropped, 1);
        assert!(o.memory_bytes() > 0);
        // Pruning far past the window empties the map.
        o.advance(Timestamp::from_secs(100.0));
        assert_eq!(o.memory_bytes(), 0);
        assert_eq!(o.drop_probability(Timestamp::from_secs(100.0)), 1.0);
    }
}
