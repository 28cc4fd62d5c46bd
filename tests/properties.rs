//! Cross-crate property-based tests (proptest) on the system's core
//! invariants.

use proptest::prelude::*;
use upbound::core::{
    AtomicBitmap, BitmapFilter, BitmapFilterConfig, DropPolicy, FailMode, OverloadPolicy,
    OverloadState, Verdict,
};
use upbound::net::{wire, Direction, FiveTuple, Packet, Protocol, TcpFlags, TimeDelta, Timestamp};
use upbound::stats::EmpiricalCdf;
use upbound::traffic::{attack, generate, AttackConfig, TraceConfig};

fn arb_tuple() -> impl Strategy<Value = FiveTuple> {
    (
        any::<bool>(),
        any::<u32>(),
        any::<u16>(),
        any::<u32>(),
        any::<u16>(),
    )
        .prop_map(|(tcp, src_ip, src_port, dst_ip, dst_port)| {
            FiveTuple::new(
                if tcp { Protocol::Tcp } else { Protocol::Udp },
                std::net::SocketAddrV4::new(src_ip.into(), src_port),
                std::net::SocketAddrV4::new(dst_ip.into(), dst_port),
            )
        })
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    (
        arb_tuple(),
        0u64..10_000_000,
        proptest::collection::vec(any::<u8>(), 0..600),
        any::<u8>(),
    )
        .prop_map(|(tuple, micros, payload, flags)| {
            let ts = Timestamp::from_micros(micros);
            match tuple.protocol() {
                Protocol::Tcp => Packet::tcp(ts, tuple, TcpFlags::from_bits(flags), payload),
                Protocol::Udp => Packet::udp(ts, tuple, payload),
            }
        })
}

proptest! {
    /// Five-tuple inversion is an involution and canonicalization is
    /// direction-independent and idempotent.
    #[test]
    fn tuple_inverse_and_canonical_laws(t in arb_tuple()) {
        prop_assert_eq!(t.inverse().inverse(), t);
        prop_assert_eq!(t.canonical(), t.inverse().canonical());
        prop_assert_eq!(t.canonical().canonical(), t.canonical());
    }

    /// The filter key of an outbound packet equals the key of the
    /// matching inbound packet — the identity the whole scheme rests on.
    #[test]
    fn filter_keys_pair_up(t in arb_tuple(), hole in any::<bool>()) {
        prop_assert_eq!(t.outbound_key(hole), t.inverse().inbound_key(hole));
    }

    /// Wire encode/decode round-trips every synthesizable packet.
    #[test]
    fn wire_round_trip(p in arb_packet()) {
        let frame = wire::encode(&p);
        let q = wire::decode(&frame, p.ts(), p.wire_len(), wire::ChecksumPolicy::Verify)
            .expect("decode");
        prop_assert_eq!(q, p);
    }

    /// pcap write/read round-trips arbitrary packet sequences.
    #[test]
    fn pcap_round_trip(pkts in proptest::collection::vec(arb_packet(), 0..20)) {
        let bytes = upbound::net::pcap::to_bytes(&pkts, 65_535).expect("write");
        let restored = upbound::net::pcap::from_bytes(&bytes).expect("read");
        prop_assert_eq!(restored, pkts);
    }

    /// A corrupted frame never round-trips silently: decoding under
    /// Verify either fails or yields a different packet (it must not
    /// return the original packet from corrupted bytes).
    #[test]
    fn corruption_is_detected(p in arb_packet(), flip in 14usize..54, bit in 0u8..8) {
        let mut frame = wire::encode(&p).to_vec();
        let idx = flip % frame.len();
        frame[idx] ^= 1 << bit;
        if let Ok(q) = wire::decode(&frame, p.ts(), p.wire_len(), wire::ChecksumPolicy::Verify) {
            // Only reachable if the flip hit a field the checksum does
            // not cover (e.g. Ethernet MACs we synthesize): the packet
            // content must still be identical.
            prop_assert_eq!(q, p);
        }
    }

    /// The bitmap never false-negatives inside the safe window: a key
    /// marked after the most recent rotation is always found.
    #[test]
    fn bitmap_no_false_negative_within_window(
        keys in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..40), 1..50),
        rotations in 0usize..3,
    ) {
        let mut bitmap = AtomicBitmap::new(4, 12, 3);
        for key in &keys {
            bitmap.mark(key);
        }
        for _ in 0..rotations {
            bitmap.rotate(); // fewer than k−1 rotations
        }
        for key in &keys {
            prop_assert!(bitmap.lookup(key), "lost a key after {} rotations", rotations);
        }
    }

    /// After k rotations with no re-marking, every key is forgotten.
    #[test]
    fn bitmap_forgets_after_k_rotations(
        keys in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..40), 1..20),
    ) {
        let mut bitmap = AtomicBitmap::new(3, 14, 2);
        for key in &keys {
            bitmap.mark(key);
        }
        for _ in 0..3 {
            bitmap.rotate();
        }
        // The bitmap is now completely empty, so nothing can be found.
        for key in &keys {
            prop_assert!(!bitmap.lookup(key));
        }
    }

    /// The full filter: a response within T_e − Δt of its outbound packet
    /// always passes regardless of P_d (no false drops of solicited
    /// traffic inside the safe window).
    #[test]
    fn solicited_traffic_always_passes(
        t in arb_tuple(),
        offset_ms in 0u64..14_000,
        p_d in 0.0f64..=1.0,
    ) {
        let mut filter = BitmapFilter::new(BitmapFilterConfig::paper_evaluation());
        let t0 = Timestamp::from_secs(1.0);
        filter.observe_outbound(&t, t0);
        let arrival = t0 + TimeDelta::from_micros(offset_ms * 1000);
        prop_assert_eq!(filter.check_inbound(&t.inverse(), arrival, p_d), Verdict::Pass);
    }

    /// Mark lifetime at the filter level (paper §4.2): with `P_d ≡ 1`,
    /// fail-closed and no re-mark, a response `d` after its outbound
    /// packet passes whenever `d < (k−1)·Δt` and drops whenever
    /// `d ≥ k·Δt`, for any `k`, `Δt` and rotation phase of `t0`.
    #[test]
    fn marks_live_between_k_minus_one_and_k_rotations(
        t in arb_tuple(),
        k in 2usize..8,
        dt_ms in 1u64..10_000,
        t0_us in 0u64..100_000_000,
        below in 0.0f64..1.0,
        above_ms in 0u64..30_000,
    ) {
        let dt = TimeDelta::from_millis(dt_ms);
        let config = BitmapFilterConfig::builder()
            .vectors(k)
            .vector_bits(12)
            .rotate_every(dt)
            .drop_policy(DropPolicy::drop_all())
            .fail_mode(FailMode::Closed)
            .build()
            .expect("valid");
        let t0 = Timestamp::from_micros(t0_us);
        let verdict_after = |d_us: u64| {
            let mut filter = BitmapFilter::new(config.clone());
            filter.observe_outbound(&t, t0);
            let at = t0 + TimeDelta::from_micros(d_us);
            let reply = match t.protocol() {
                Protocol::Tcp => Packet::tcp(at, t.inverse(), TcpFlags::ACK, Vec::new()),
                Protocol::Udp => Packet::udp(at, t.inverse(), Vec::new()),
            };
            filter.process_packet(&reply, Direction::Inbound)
        };
        let dt_us = dt.as_micros();
        let last_pass = (k as u64 - 1) * dt_us - 1;
        let first_drop = k as u64 * dt_us;
        prop_assert_eq!(verdict_after((below * last_pass as f64) as u64), Verdict::Pass);
        prop_assert_eq!(verdict_after(last_pass), Verdict::Pass);
        prop_assert_eq!(verdict_after(first_drop), Verdict::Drop);
        prop_assert_eq!(verdict_after(first_drop + above_ms * 1000), Verdict::Drop);
    }

    /// Empirical CDFs are monotone with range [0, 1].
    #[test]
    fn cdf_is_monotone(samples in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let cdf = EmpiricalCdf::from_samples(samples.iter().copied());
        let mut prev = 0.0;
        for i in -10..=10 {
            let x = i as f64 * 1e5;
            let f = cdf.fraction_at(x);
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(f >= prev);
            prev = f;
        }
        prop_assert_eq!(cdf.fraction_at(1e7), 1.0);
    }

    /// Drop probability (Equation 1) is monotone in throughput and
    /// clamped to [0, 1] for arbitrary thresholds.
    #[test]
    fn drop_policy_is_monotone(
        low in 0.0f64..1e9,
        span in 1.0f64..1e9,
        samples in proptest::collection::vec(0.0f64..2e9, 2..50),
    ) {
        let policy = upbound::core::DropPolicy::new(low, low + span).expect("valid");
        let mut sorted = samples;
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mut prev = -1.0;
        for b in sorted {
            let p = policy.drop_probability(b);
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert!(p >= prev);
            prev = p;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The packet path derives `P_d` only on an inbound miss. With a live
    /// `P_d` (mean uplink between L and H) and the overload ladder
    /// clamping during a SYN flood, it must give the verdicts and
    /// counters of a filter handed `P_d` read before every inbound
    /// decision.
    #[test]
    fn lazy_pd_matches_eager_with_live_pd_and_ladder(seed in any::<u64>()) {
        let trace = generate(
            &TraceConfig::builder()
                .duration_secs(40.0)
                .flow_rate_per_sec(10.0)
                .seed(seed)
                .build()
                .expect("valid trace config"),
        );
        let flood = attack::syn_flood(&AttackConfig {
            seed,
            start: Timestamp::from_secs(10.0),
            duration: TimeDelta::from_secs(20.0),
            rate_per_sec: 400.0,
            victim: "10.0.0.9:6881".parse().expect("static addr"),
        });
        let mut stream: Vec<(Packet, Direction)> = trace
            .packets
            .iter()
            .chain(&flood.packets)
            .map(|lp| (lp.packet.clone(), lp.direction))
            .collect();
        stream.sort_by_key(|(p, _)| p.ts());

        let mean_uplink_bps = trace.upload_bytes() as f64 * 8.0 / 40.0;
        let config = BitmapFilterConfig::builder()
            .vector_bits(12)
            .drop_policy(
                DropPolicy::new(mean_uplink_bps / 2.0, mean_uplink_bps * 2.0).expect("L < H"),
            )
            .rng_seed(seed)
            .build()
            .expect("valid filter config");
        let build = || {
            BitmapFilter::new(config.clone()).with_overload_policy(OverloadPolicy::balanced())
        };

        let mut eager = build();
        let mut lazy = build();
        let mut laddered = false;
        let mut live_pd = false;
        for (packet, direction) in &stream {
            let now = packet.ts();
            let want = match direction {
                Direction::Outbound => eager.process_packet(packet, *direction),
                Direction::Inbound => {
                    let p_d = eager.drop_probability(now);
                    live_pd |= p_d > 0.0 && p_d < 1.0;
                    eager.check_inbound(&packet.tuple(), now, p_d)
                }
            };
            laddered |= eager.overload_state() != OverloadState::Normal;
            prop_assert_eq!(lazy.process_packet(packet, *direction), want);
        }
        prop_assert_eq!(lazy.stats(), eager.stats());
        prop_assert!(live_pd, "P_d never strictly between 0 and 1");
        prop_assert!(laddered, "the flood never engaged the ladder");
        prop_assert!(eager.stats().dropped > 0);
    }
}
