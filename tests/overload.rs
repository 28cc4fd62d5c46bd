//! Property-based tests for the overload ladder's safety and efficacy.
//!
//! Three claims from DESIGN.md's overload model are exercised here:
//!
//! 1. **Safety** — no matter how intense an inbound SYN flood gets, the
//!    ladder never flips a *solicited* flow from Pass to Drop inside the
//!    documented rotation bound: a mark survives at least
//!    `⌊(k−1)/2⌋·Δt` of watermark time even with early rotation running
//!    at double rate (for the default `k = 4`, `Δt = 5 s`: 5 seconds).
//! 2. **Expiry** — early rotation only shortens a mark's life: a mark
//!    made while the ladder is `Saturated` is gone `k·Δt` after it was
//!    made, the paper's upper bound.
//! 3. **Efficacy** — under a seeded SYN flood sized to saturate the
//!    filter, the ladder-enabled arm admits strictly fewer probe-wave
//!    false positives than the ladder-disabled arm, for any seed.

use proptest::prelude::*;
use upbound::core::{
    BitmapFilter, BitmapFilterConfig, OverloadPolicy, OverloadState, PacketFilter, Verdict,
};
use upbound::net::{Direction, FiveTuple, Packet, Protocol, TcpFlags, TimeDelta, Timestamp};
use upbound::traffic::{attack, AttackConfig};

/// Builds a flood-sized filter: small enough that the attack saturates
/// it quickly, with the paper's default `k = 4`, `Δt = 5 s` geometry.
fn flood_config(vector_bits: u32) -> BitmapFilterConfig {
    BitmapFilterConfig::builder()
        .vector_bits(vector_bits)
        .rng_seed(7)
        .build()
        .expect("static config is valid")
}

/// The documented mark-survival floor under ladder tick-doubling.
fn rotation_bound(config: &BitmapFilterConfig) -> TimeDelta {
    let floor = (config.vectors() as u32 - 1) / 2;
    TimeDelta::from_micros(config.rotate_every().as_micros() * u64::from(floor))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A solicited inbound reply arriving within the documented rotation
    /// bound of its outbound mark passes, at any flood intensity.
    #[test]
    fn ladder_never_flips_solicited_flows_within_the_bound(
        flood_rate in 100.0f64..1500.0,
        delay_frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let config = flood_config(10);
        let bound = rotation_bound(&config);
        // Strictly inside the bound: the floor itself is inclusive, but
        // staying off the exact tick boundary keeps the test insensitive
        // to tie-breaking at rotation instants.
        let delay = TimeDelta::from_micros(
            ((bound.as_micros() as f64) * delay_frac * 0.999) as u64,
        );

        let flood = attack::syn_flood(&AttackConfig {
            seed,
            start: Timestamp::from_secs(0.0),
            duration: TimeDelta::from_secs(12.0),
            rate_per_sec: flood_rate,
            victim: "10.0.0.9:6881".parse().expect("static addr"),
        });

        // One solicited flow the flood cannot collide with by tuple.
        let tuple = FiveTuple::new(
            Protocol::Tcp,
            "10.0.0.9:7777".parse().expect("static addr"),
            "203.0.113.5:9999".parse().expect("static addr"),
        );
        let mark_ts = Timestamp::from_secs(8.0);
        let reply_ts = mark_ts + delay;
        let outbound = Packet::tcp(mark_ts, tuple, TcpFlags::from_bits(0x18), vec![1]);
        let reply = Packet::tcp(
            reply_ts,
            tuple.inverse(),
            TcpFlags::from_bits(0x18),
            vec![2],
        );

        let mut stream: Vec<(Packet, Direction)> = flood
            .packets
            .iter()
            .map(|lp| (lp.packet.clone(), lp.direction))
            .collect();
        stream.push((outbound, Direction::Outbound));
        stream.push((reply.clone(), Direction::Inbound));
        stream.sort_by_key(|(p, _)| p.ts());

        let mut filter =
            BitmapFilter::new(config).with_overload_policy(OverloadPolicy::balanced());
        let mut reply_verdict = None;
        for (packet, direction) in &stream {
            let verdict = filter.decide(packet, *direction);
            if *direction == Direction::Inbound
                && packet.ts() == reply_ts
                && packet.tuple() == reply.tuple()
            {
                reply_verdict = Some(verdict);
            }
        }
        prop_assert_eq!(
            reply_verdict,
            Some(Verdict::Pass),
            "solicited reply {}us after its mark was flipped (bound {}us, flood {}/s)",
            delay.as_micros(),
            bound.as_micros(),
            flood_rate
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A flow marked once while a flood holds the ladder at `Saturated`
    /// probes unknown `k·Δt` after its mark: the ladder's early
    /// rotations never extend a mark past the paper's expiry bound.
    #[test]
    fn saturated_ladder_never_extends_a_mark_past_k_delta_t(
        flood_rate in 1000.0f64..1500.0,
        mark_secs in 8.0f64..10.0,
        seed in any::<u64>(),
    ) {
        let config = flood_config(10);
        let lifetime = TimeDelta::from_micros(
            config.rotate_every().as_micros() * config.vectors() as u64,
        );
        // The flood ends before the mark, so by `mark + k·Δt` every bit
        // it set is as old as the mark's and a hit could only be the
        // mark itself.
        let mark_ts = Timestamp::from_secs(mark_secs);
        let flood = attack::syn_flood(&AttackConfig {
            seed,
            start: Timestamp::from_secs(0.0),
            duration: TimeDelta::from_secs(8.0),
            rate_per_sec: flood_rate,
            victim: "10.0.0.9:6881".parse().expect("static addr"),
        });
        let tuple = FiveTuple::new(
            Protocol::Tcp,
            "10.0.0.9:7777".parse().expect("static addr"),
            "203.0.113.5:9999".parse().expect("static addr"),
        );
        let mut filter =
            BitmapFilter::new(config.clone()).with_overload_policy(OverloadPolicy::balanced());
        for lp in &flood.packets {
            filter.decide(&lp.packet, lp.direction);
        }
        let outbound = Packet::tcp(mark_ts, tuple, TcpFlags::from_bits(0x18), vec![1]);
        filter.decide(&outbound, Direction::Outbound);
        prop_assert_eq!(filter.overload_state(), OverloadState::Saturated);
        let key = tuple.outbound_key(config.hole_punching()).to_bytes();
        prop_assert!(filter.bitmap().lookup(&key), "the mark itself was lost");

        let reply = Packet::tcp(
            mark_ts + lifetime,
            tuple.inverse(),
            TcpFlags::from_bits(0x18),
            vec![2],
        );
        // Drop-all: an unknown reply drops.
        prop_assert_eq!(filter.decide(&reply, Direction::Inbound), Verdict::Drop);
        prop_assert!(!filter.bitmap().lookup(&key), "mark outlived k·Δt");
        prop_assert!(filter.overload().early_rotations() > 0);
    }
}

/// Replays a seeded SYN flood plus a probe wave of fresh, never-answered
/// SYNs and returns the realized false-positive count (probes that
/// passed) for the given overload policy.
fn probe_false_positives(seed: u64, policy: OverloadPolicy) -> (u64, u64) {
    let victim = "10.0.0.9:6881".parse().expect("static addr");
    let flood = attack::syn_flood(&AttackConfig {
        seed,
        start: Timestamp::from_secs(2.0),
        duration: TimeDelta::from_secs(30.0),
        rate_per_sec: 400.0,
        victim,
    });
    let probes = attack::probe_wave(&AttackConfig {
        seed: seed ^ 0x0be5,
        start: Timestamp::from_secs(20.0),
        duration: TimeDelta::from_secs(10.0),
        rate_per_sec: 100.0,
        victim,
    });
    let probe_tuples: std::collections::HashSet<_> =
        probes.packets.iter().map(|p| p.packet.tuple()).collect();
    let trace = attack::merge(vec![flood, probes]);

    let mut filter = BitmapFilter::new(flood_config(13)).with_overload_policy(policy);
    let (mut probed, mut fp) = (0u64, 0u64);
    for lp in &trace.packets {
        let verdict = filter.decide(&lp.packet, lp.direction);
        if lp.direction == Direction::Inbound && probe_tuples.contains(&lp.packet.tuple()) {
            probed += 1;
            if verdict == Verdict::Pass {
                fp += 1;
            }
        }
    }
    (probed, fp)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// With the filter saturated by a seeded SYN flood, enabling the
    /// ladder strictly reduces realized false positives.
    #[test]
    fn ladder_strictly_reduces_flood_false_positives(seed in any::<u64>()) {
        let (probed_off, off) = probe_false_positives(seed, OverloadPolicy::off());
        let (probed_on, on) = probe_false_positives(seed, OverloadPolicy::balanced());
        prop_assert_eq!(probed_off, probed_on, "both arms replay the same probes");
        prop_assert!(probed_off > 0, "the probe wave must actually probe");
        prop_assert!(
            on < off,
            "ladder on admitted {on}/{probed_on} false positives, off admitted \
             {off}/{probed_off} — expected strictly fewer with the ladder"
        );
    }
}
