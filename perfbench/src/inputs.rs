//! Seeded workload inputs. Every trace, ground-truth label and pcap
//! image is built here, from the command-line seed, before any timer
//! starts; the dataplane only ever sees the finished packets.

use std::collections::HashMap;
use upbound_core::{BitmapFilterConfig, OverloadPolicy};
use upbound_net::{pcap, Cidr, Direction, FilterKey, Packet, TimeDelta, Timestamp};
use upbound_traffic::{attack, generate, AttackConfig, SyntheticTrace, TraceConfig};

/// Shards in every workload's bank. `serve` decides on the calling
/// thread, so shards split the data but add no threads.
pub const SHARDS: usize = 2;
/// Packets per poll: the `upbound serve` default.
pub const BATCH: usize = 64;
/// Offered rate of the open loop, packets per second.
pub const OPEN_RATE_PPS: f64 = 1.0e6;
/// A packet whose latency exceeds this counts as late.
pub const LATE_LIMIT_US: f64 = 50.0;

/// The three workloads of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Closed loop over an in-memory pcap of the benign campus mix.
    CampusPcap,
    /// Closed loop over a buffered SYN flood plus probe wave.
    SynFlood,
    /// The campus packets from memory, released at a fixed rate.
    CampusOpenLoop,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::CampusPcap, Kind::SynFlood, Kind::CampusOpenLoop];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::CampusPcap => "campus_pcap",
            Kind::SynFlood => "syn_flood",
            Kind::CampusOpenLoop => "campus_open_loop",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// What the labeled trace says about one packet, independent of any
/// filter: outbound, or inbound with or without an outbound packet of
/// the same connection within the expiry timer `T_e` before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    /// An outbound packet (always passed).
    Outbound,
    /// Inbound, and the connection sent outbound within `T_e`.
    Solicited,
    /// Inbound with no outbound packet of its connection within `T_e`.
    Unsolicited,
}

/// One workload's finished inputs.
pub struct Workload {
    /// Which workload this is.
    pub kind: Kind,
    /// The client network direction is classified against.
    pub inside: Cidr,
    /// The filter every shard is built from.
    pub config: BitmapFilterConfig,
    /// The overload ladder every shard runs.
    pub overload: OverloadPolicy,
    /// The labeled packet stream, in stream order.
    pub stream: Vec<(Packet, Direction)>,
    /// Ground truth per packet of `stream`.
    pub truth: Vec<Truth>,
    /// `stream` encoded as a pcap image, when a pass needs one.
    pub pcap: Option<Vec<u8>>,
    /// The trace shape, as a JSON object for the run's parameters.
    pub shape: String,
}

impl Workload {
    /// Whether `serve` reads this workload from its pcap image.
    pub fn serves_pcap(&self) -> bool {
        self.kind == Kind::CampusPcap
    }

    /// The open loop's offered rate; `None` for closed loops.
    pub fn rate_pps(&self) -> Option<f64> {
        (self.kind == Kind::CampusOpenLoop).then_some(OPEN_RATE_PPS)
    }
}

/// Background duration and flow rate of the campus mix.
fn campus_shape(smoke: bool) -> (f64, f64) {
    if smoke {
        (30.0, 20.0)
    } else {
        (600.0, 60.0)
    }
}

/// Background duration, SYN flood rate and probe-wave rate.
fn flood_shape(smoke: bool) -> (f64, f64, f64) {
    if smoke {
        (30.0, 800.0, 200.0)
    } else {
        (200.0, 4000.0, 500.0)
    }
}

fn campus_trace(seed: u64, secs: f64, flows_per_sec: f64) -> SyntheticTrace {
    generate(
        &TraceConfig::builder()
            .duration_secs(secs)
            .flow_rate_per_sec(flows_per_sec)
            .seed(seed)
            .build()
            .expect("static trace shape is valid"),
    )
}

/// Builds `kind`'s inputs from `seed`. `want_pcap` also encodes the
/// stream for the decode pass on workloads that serve from memory.
pub fn build(kind: Kind, seed: u64, smoke: bool, want_pcap: bool) -> Workload {
    let (trace, config, overload, shape) = match kind {
        Kind::CampusPcap | Kind::CampusOpenLoop => {
            let (secs, flows) = campus_shape(smoke);
            let shape = format!(
                "{{\"mix\": \"campus\", \"duration_s\": {secs}, \"flows_per_s\": {flows}}}"
            );
            (
                campus_trace(seed, secs, flows),
                BitmapFilterConfig::paper_limiter(),
                OverloadPolicy::off(),
                shape,
            )
        }
        Kind::SynFlood => {
            let (secs, flood_rate, probe_rate) = flood_shape(smoke);
            let victim = "10.0.0.9:6881".parse().expect("static address");
            let flood = attack::syn_flood(&AttackConfig {
                seed: seed ^ 0x5f10_0d00,
                start: Timestamp::from_secs(secs * 0.2),
                duration: TimeDelta::from_secs(secs * 0.6),
                rate_per_sec: flood_rate,
                victim,
            });
            // The probe wave rides the tail of the flood, when fill is
            // highest; every probe that passes is a false positive.
            let probes = attack::probe_wave(&AttackConfig {
                seed: seed ^ 0x9806_e000,
                start: Timestamp::from_secs(secs * 0.5),
                duration: TimeDelta::from_secs(secs * 0.3),
                rate_per_sec: probe_rate,
                victim,
            });
            let trace = attack::merge(vec![campus_trace(seed, secs, 60.0), flood, probes]);
            let config = BitmapFilterConfig::builder()
                .vector_bits(16)
                .rng_seed(2007)
                .build()
                .expect("static filter shape is valid");
            let shape = format!(
                "{{\"mix\": \"campus+syn_flood+probe_wave\", \"duration_s\": {secs}, \
                 \"flows_per_s\": 60, \"flood_syn_per_s\": {flood_rate}, \
                 \"probes_per_s\": {probe_rate}}}"
            );
            (trace, config, OverloadPolicy::balanced(), shape)
        }
    };
    let stream: Vec<(Packet, Direction)> = trace
        .packets
        .into_iter()
        .map(|lp| (lp.packet, lp.direction))
        .collect();
    let truth = ground_truth(&stream, config.expiry_timer());
    let pcap = (want_pcap || kind == Kind::CampusPcap).then(|| {
        pcap::to_bytes(stream.iter().map(|(p, _)| p), 65_535).expect("in-memory pcap encodes")
    });
    Workload {
        kind,
        inside: "10.0.0.0/16".parse().expect("static CIDR"),
        config,
        overload,
        stream,
        truth,
        pcap,
        shape,
    }
}

/// Labels every packet from the trace alone: an inbound packet is
/// solicited when its connection sent an outbound packet less than
/// `expiry` earlier.
fn ground_truth(stream: &[(Packet, Direction)], expiry: TimeDelta) -> Vec<Truth> {
    let mut last_outbound: HashMap<FilterKey, Timestamp> = HashMap::new();
    stream
        .iter()
        .map(|(packet, direction)| match direction {
            Direction::Outbound => {
                last_outbound.insert(packet.tuple().outbound_key(false), packet.ts());
                Truth::Outbound
            }
            Direction::Inbound => {
                let solicited = last_outbound
                    .get(&packet.tuple().inbound_key(false))
                    .is_some_and(|&t| packet.ts().saturating_since(t) < expiry);
                if solicited {
                    Truth::Solicited
                } else {
                    Truth::Unsolicited
                }
            }
        })
        .collect()
}
