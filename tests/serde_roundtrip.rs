//! Serde round-trips for the public data types: configurations, packets,
//! and results must survive serialization (operators persist configs;
//! simulations persist results).

use upbound::core::{BitmapFilterConfig, DropPolicy, FilterStats, Verdict};
use upbound::net::{FiveTuple, Packet, Protocol, TcpFlags, TimeDelta, Timestamp};
use upbound::sim::{ReplayConfig, ReplayEngine};
use upbound::spi::SpiConfig;
use upbound::traffic::{generate, TraceConfig};

fn json_roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serialize");
    serde_json::from_str(&json).expect("deserialize")
}

#[test]
fn bitmap_config_roundtrips() {
    let config = BitmapFilterConfig::builder()
        .vector_bits(18)
        .vectors(6)
        .hash_functions(4)
        .rotate_every_secs(2.5)
        .hole_punching(true)
        .drop_policy(DropPolicy::new(1e6, 5e6).expect("valid"))
        .rng_seed(99)
        .build()
        .expect("valid config");
    assert_eq!(json_roundtrip(&config), config);
}

#[test]
fn spi_config_roundtrips() {
    let config = SpiConfig {
        idle_timeout: TimeDelta::from_secs(120.0),
        tcp_aware: false,
        drop_policy: DropPolicy::paper_figure9(),
        rng_seed: 7,
        purge_interval: TimeDelta::from_secs(10.0),
        max_entries: Some(65_536),
    };
    assert_eq!(json_roundtrip(&config), config);
}

#[test]
fn packets_roundtrip() {
    let tuple = FiveTuple::new(
        Protocol::Tcp,
        "10.0.0.1:1234".parse().expect("addr"),
        "192.0.2.8:80".parse().expect("addr"),
    );
    let packet = Packet::tcp(
        Timestamp::from_secs(1.5),
        tuple,
        TcpFlags::PSH | TcpFlags::ACK,
        b"GET / HTTP/1.1\r\n".to_vec(),
    )
    .with_wire_len(1514);
    assert_eq!(json_roundtrip(&packet), packet);

    let udp_tuple = FiveTuple::new(
        Protocol::Udp,
        "10.0.0.1:5353".parse().expect("addr"),
        "192.0.2.8:53".parse().expect("addr"),
    );
    let udp = Packet::udp(Timestamp::ZERO, udp_tuple, Vec::new());
    assert_eq!(json_roundtrip(&udp), udp);
}

#[test]
fn verdicts_and_stats_roundtrip() {
    assert_eq!(json_roundtrip(&Verdict::Pass), Verdict::Pass);
    assert_eq!(json_roundtrip(&Verdict::Drop), Verdict::Drop);
    let stats = FilterStats {
        outbound_packets: 1,
        inbound_packets: 2,
        inbound_hits: 3,
        inbound_misses: 4,
        dropped: 5,
        fail_open_passes: 6,
        rotations: 7,
    };
    assert_eq!(json_roundtrip(&stats), stats);
}

#[test]
fn trace_config_and_replay_results_roundtrip() {
    let trace_config = TraceConfig::builder()
        .duration_secs(10.0)
        .flow_rate_per_sec(10.0)
        .seed(3)
        .build()
        .expect("valid");
    assert_eq!(json_roundtrip(&trace_config), trace_config);

    // A small end-to-end result survives serialization byte-exactly.
    let trace = generate(&trace_config);
    let mut filter = upbound::core::BitmapFilter::new(BitmapFilterConfig::paper_evaluation());
    let result = ReplayEngine::new(ReplayConfig::default()).run(&trace, &mut filter);
    assert_eq!(json_roundtrip(&result), result);
}

#[test]
fn labeled_trace_roundtrips() {
    let config = TraceConfig::builder()
        .duration_secs(5.0)
        .flow_rate_per_sec(5.0)
        .seed(4)
        .build()
        .expect("valid");
    let trace = generate(&config);
    assert_eq!(json_roundtrip(&trace), trace);
}
