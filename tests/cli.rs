//! Integration tests for the `upbound` command-line tool: each
//! subcommand is driven as a real process over real pcap files.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_upbound"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("upbound-cli-test-{}-{name}", std::process::id()));
    p
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("spawn upbound binary")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn help_prints_usage() {
    let out = run(&["help"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("USAGE"));
    assert!(stdout(&out).contains("generate"));
}

#[test]
fn no_command_fails_with_usage() {
    let out = run(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn unknown_command_fails() {
    let out = run(&["frobnicate"]);
    assert!(!out.status.success());
}

#[test]
fn generate_analyze_filter_round_trip() {
    let trace = tmp("trace.pcap");
    let filtered = tmp("filtered.pcap");
    let trace_s = trace.to_str().expect("utf8 path");
    let filtered_s = filtered.to_str().expect("utf8 path");

    // generate
    let out = run(&[
        "generate",
        "--out",
        trace_s,
        "--duration",
        "20",
        "--rate",
        "15",
        "--seed",
        "7",
    ]);
    assert!(
        out.status.success(),
        "generate: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("wrote"));
    assert!(trace.exists());

    // analyze
    let out = run(&["analyze", "--in", trace_s]);
    assert!(
        out.status.success(),
        "analyze: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("protocol distribution"));
    assert!(text.contains("bittorrent"));
    assert!(text.contains("upload:"));

    // filter
    let out = run(&[
        "filter",
        "--in",
        trace_s,
        "--out",
        filtered_s,
        "--low-mbps",
        "1",
        "--high-mbps",
        "2",
    ]);
    assert!(
        out.status.success(),
        "filter: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("bitmap filter"));
    assert!(text.contains("uplink:"));
    assert!(filtered.exists());

    // The filtered pcap is a valid capture with no more packets than the
    // input.
    let original =
        upbound::net::pcap::from_bytes(&std::fs::read(&trace).expect("read")).expect("valid pcap");
    let survived = upbound::net::pcap::from_bytes(&std::fs::read(&filtered).expect("read"))
        .expect("valid pcap");
    assert!(!survived.is_empty());
    assert!(survived.len() <= original.len());

    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&filtered);
}

#[test]
fn filter_validates_thresholds() {
    let trace = tmp("bad-thresholds.pcap");
    let trace_s = trace.to_str().expect("utf8 path");
    let out = run(&[
        "generate",
        "--out",
        trace_s,
        "--duration",
        "5",
        "--rate",
        "5",
    ]);
    assert!(out.status.success());
    // low >= high is a config error surfaced cleanly.
    let out = run(&[
        "filter",
        "--in",
        trace_s,
        "--low-mbps",
        "5",
        "--high-mbps",
        "2",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn unknown_flags_are_rejected_per_subcommand() {
    // A typo'd flag must fail loudly, naming the flag and the command.
    let out = run(&["filter", "--in", "/tmp/x.pcap", "--metrics-intervall", "1"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("unknown flag --metrics-intervall"), "{err}");
    assert!(err.contains("upbound filter"), "{err}");
    assert!(err.contains("--metrics-interval"), "{err}");

    // Flags valid for one subcommand are still rejected on another.
    let out = run(&["params", "--in", "/tmp/x.pcap"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --in"));

    let out = run(&["generate", "--out", "/tmp/x.pcap", "--metrics", "m.prom"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --metrics"));
}

#[test]
fn filter_metrics_exports_and_interval_reports() {
    let trace = tmp("metrics-trace.pcap");
    let prom = tmp("metrics.prom");
    let json = tmp("metrics.json");
    let trace_s = trace.to_str().expect("utf8 path");

    let out = run(&[
        "generate",
        "--out",
        trace_s,
        "--duration",
        "10",
        "--rate",
        "20",
        "--seed",
        "11",
    ]);
    assert!(out.status.success());

    // --metrics-interval 1 emits one snapshot per second of trace time,
    // carrying the live operating point and the filter counters.
    let out = run(&[
        "filter",
        "--in",
        trace_s,
        "--low-mbps",
        "0.1",
        "--high-mbps",
        "0.5",
        "--metrics-interval",
        "1",
        "--metrics",
        prom.to_str().expect("utf8 path"),
    ]);
    assert!(
        out.status.success(),
        "filter: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    let reports = text.matches("--- metrics @ t=").count();
    assert!(
        reports >= 8,
        "expected ~10 interval reports, got {reports}:\n{text}"
    );
    assert!(text.contains("upbound_core_drop_probability"));
    assert!(text.contains("upbound_core_uplink_bps"));
    assert!(text.contains("upbound_core_inbound_pass_total"));
    assert!(text.contains("upbound_core_drops_unsolicited_total"));
    assert!(text.contains("upbound_core_rotations_total"));

    // The .prom file is valid Prometheus exposition text: the validating
    // parser accepts it and the counters it carries are present.
    let prom_text = std::fs::read_to_string(&prom).expect("read prom");
    let snapshot =
        upbound::telemetry::export::prometheus::parse(&prom_text).expect("valid Prometheus text");
    assert!(
        snapshot
            .counter("upbound_core_outbound_packets_total")
            .unwrap()
            > 0
    );
    assert!(snapshot.counter("upbound_core_rotations_total").unwrap() > 0);
    assert!(snapshot.gauge("upbound_core_drop_probability").is_some());

    // Same run with a .json sink parses as JSON.
    let out = run(&[
        "filter",
        "--in",
        trace_s,
        "--metrics",
        json.to_str().expect("utf8 path"),
    ]);
    assert!(out.status.success());
    let json_text = std::fs::read_to_string(&json).expect("read json");
    let value = serde_json::from_str::<serde_json::Value>(&json_text).expect("valid JSON");
    assert!(serde_json::to_string(&value)
        .expect("serialize")
        .contains("upbound_core"));

    // An unrecognized extension is rejected up front.
    let out = run(&["filter", "--in", trace_s, "--metrics", "/tmp/out.csv"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains(".prom or .json"));

    // A valueless --metrics is an error, not a silent no-op.
    let out = run(&["filter", "--in", trace_s, "--metrics"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--metrics requires a file path"));

    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&prom);
    let _ = std::fs::remove_file(&json);
}

#[test]
fn on_corrupt_skip_recovers_truncated_capture() {
    let trace = tmp("truncated.pcap");
    let trace_s = trace.to_str().expect("utf8 path");
    let out = run(&[
        "generate",
        "--out",
        trace_s,
        "--duration",
        "10",
        "--rate",
        "10",
        "--seed",
        "3",
    ]);
    assert!(out.status.success());

    // Chop mid-record so the capture ends in a truncated body.
    let mut bytes = std::fs::read(&trace).expect("read trace");
    bytes.truncate(bytes.len() - 7);
    std::fs::write(&trace, &bytes).expect("rewrite trace");

    // Default (strict) aborts with a truncation error...
    for args in [
        vec!["filter", "--in", trace_s],
        vec!["filter", "--in", trace_s, "--on-corrupt", "strict"],
        vec!["analyze", "--in", trace_s],
    ] {
        let out = run(&args);
        assert!(!out.status.success(), "{args:?} should fail strictly");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("truncated"),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // ...while --on-corrupt skip processes the decodable prefix and says
    // what it discarded.
    for cmd in ["filter", "analyze"] {
        let out = run(&[cmd, "--in", trace_s, "--on-corrupt", "skip"]);
        assert!(
            out.status.success(),
            "{cmd}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = stdout(&out);
        assert!(text.contains("skipped 1 corrupt region"), "{text}");
    }

    // Bad values are rejected up front.
    let out = run(&["filter", "--in", trace_s, "--on-corrupt", "lenient"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("`strict` or `skip`"));
    let out = run(&["filter", "--in", trace_s, "--on-corrupt"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("`strict` or `skip`"));

    let _ = std::fs::remove_file(&trace);
}

#[test]
fn analyze_missing_file_fails_cleanly() {
    let out = run(&["analyze", "--in", "/nonexistent/never.pcap"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}

#[test]
fn params_prints_capacity_table() {
    let out = run(&["params", "--connections", "50000"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("50000"));
    assert!(text.contains("cap @5%"));
}

#[test]
fn generate_rejects_bad_config() {
    let out = run(&["generate", "--out", "/tmp/x.pcap", "--rate", "0"]);
    assert!(!out.status.success());
}

#[test]
fn header_only_snaplen_capture_analyzes() {
    let trace = tmp("headers.pcap");
    let trace_s = trace.to_str().expect("utf8 path");
    let out = run(&[
        "generate",
        "--out",
        trace_s,
        "--duration",
        "10",
        "--rate",
        "10",
        "--snaplen",
        "54",
    ]);
    assert!(out.status.success());
    let out = run(&["analyze", "--in", trace_s]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Payload identification is impossible on stripped traces, so most
    // P2P traffic shows as UNKNOWN — but the tool must still work.
    assert!(stdout(&out).contains("UNKNOWN"));
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn filter_checkpoint_writes_and_restores_through_the_binary() {
    let trace = tmp("ckpt-trace.pcap");
    let ckpt = tmp("filter.ckpt");
    let trace_s = trace.to_str().expect("utf8 path");
    let ckpt_s = ckpt.to_str().expect("utf8 path");

    let out = run(&[
        "generate",
        "--out",
        trace_s,
        "--duration",
        "30",
        "--rate",
        "15",
        "--seed",
        "5",
    ]);
    assert!(out.status.success());

    // First run writes periodic checkpoints plus a final one on exit.
    let out = run(&[
        "filter",
        "--in",
        trace_s,
        "--checkpoint",
        ckpt_s,
        "--checkpoint-interval",
        "5",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("checkpoint"));
    let bytes = std::fs::read(&ckpt).expect("checkpoint file exists");
    assert!(bytes.starts_with(b"UPBSNAP1"), "container magic missing");

    // Second run restores warm from the same file (the trace replays the
    // same time span, so the snapshot is fresh in trace time).
    let out = run(&["filter", "--in", trace_s, "--checkpoint", ckpt_s]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("restored warm filter state"));

    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn filter_corrupt_checkpoint_fails_with_runtime_exit_code() {
    let trace = tmp("bad-ckpt-trace.pcap");
    let ckpt = tmp("bad-filter.ckpt");
    let trace_s = trace.to_str().expect("utf8 path");
    let ckpt_s = ckpt.to_str().expect("utf8 path");

    let out = run(&[
        "generate",
        "--out",
        trace_s,
        "--duration",
        "5",
        "--rate",
        "10",
        "--seed",
        "6",
    ]);
    assert!(out.status.success());
    std::fs::write(&ckpt, b"UPBSNAP1 this is not a valid container").expect("write junk");

    let out = run(&["filter", "--in", trace_s, "--checkpoint", ckpt_s]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "corrupt checkpoint is a runtime error"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("checkpoint"));

    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn filter_fail_mode_flag_is_validated() {
    let out = run(&["filter", "--in", "nowhere.pcap", "--fail-mode", "sideways"]);
    assert_eq!(out.status.code(), Some(2), "bad fail-mode is a usage error");

    let out = run(&[
        "filter",
        "--in",
        "nowhere.pcap",
        "--checkpoint-interval",
        "5",
    ]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "--checkpoint-interval without --checkpoint is a usage error"
    );
}

/// FNV-1a over a file's bytes: a stable fingerprint of a written pcap.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Golden outputs of `upbound filter` over one seeded trace, recorded
/// from the dedicated per-packet loop the command ran before it became
/// `serve` over a finite source. Every case pins the summary lines, the
/// `--out` pcap's fingerprint, the core verdict counters of the
/// `--metrics` snapshot and the number of `--metrics-interval 5`
/// reports, so any change to what `filter` decides, writes or reports
/// shows up here.
#[test]
fn filter_matches_recorded_golden_outputs() {
    let trace = tmp("golden-trace.pcap");
    let out_pcap = tmp("golden-out.pcap");
    let prom = tmp("golden.prom");
    let trace_s = trace.to_str().expect("utf8 path");
    let out = run(&[
        "generate",
        "--out",
        trace_s,
        "--duration",
        "60",
        "--rate",
        "30",
        "--seed",
        "7",
    ]);
    assert!(out.status.success());

    let thresholds = ["--low-mbps", "0.5", "--high-mbps", "2"];
    let cases: Vec<(&str, Vec<&str>)> = vec![
        ("default", vec![]),
        ("thresholds", thresholds.to_vec()),
        ("no-block", [&thresholds[..], &["--no-block"]].concat()),
        ("shards-4", [&thresholds[..], &["--shards", "4"]].concat()),
        (
            "batch-1",
            [&thresholds[..], &["--batch-size", "1"]].concat(),
        ),
        (
            "balanced",
            [&thresholds[..], &["--overload-policy", "balanced"]].concat(),
        ),
        (
            "fault-plan",
            [
                &thresholds[..],
                &["--fault-plan", "seed=9,corrupt=20,reorder=2"],
            ]
            .concat(),
        ),
    ];
    let mut digests = Vec::new();
    for (label, extra) in &cases {
        let mut args = vec![
            "filter",
            "--in",
            trace_s,
            "--out",
            out_pcap.to_str().expect("utf8 path"),
            "--metrics",
            prom.to_str().expect("utf8 path"),
            "--metrics-interval",
            "5",
        ];
        args.extend(extra);
        let out = run(&args);
        assert!(
            out.status.success(),
            "{label}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = stdout(&out);
        let summary: Vec<&str> = text
            .lines()
            .filter(|l| l.contains(" packets; dropped ") || l.starts_with("uplink: "))
            .collect();
        let snapshot = upbound::telemetry::export::prometheus::parse(
            &std::fs::read_to_string(&prom).expect("read prom"),
        )
        .expect("valid Prometheus text");
        let counter = |name: &str| snapshot.counter(name).unwrap_or(0);
        digests.push(format!(
            "{label}: {} | {} | out {:016x} | pass {} red {} unsolicited {} out {} | reports {}",
            summary.first().copied().unwrap_or("?"),
            summary.get(1).copied().unwrap_or("?"),
            fnv1a(&std::fs::read(&out_pcap).expect("read out pcap")),
            counter("upbound_core_inbound_pass_total"),
            counter("upbound_core_drops_red_total"),
            counter("upbound_core_drops_unsolicited_total"),
            counter("upbound_core_outbound_packets_total"),
            text.matches("--- metrics @ t=").count(),
        ));
    }
    let expected: Vec<String> = GOLDEN_FILTER.iter().map(|s| s.to_string()).collect();
    assert_eq!(digests, expected, "actual:\n{}", digests.join("\n"));

    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&out_pcap);
    let _ = std::fs::remove_file(&prom);
}

/// Recorded from the per-packet `filter` loop (one line per case).
const GOLDEN_FILTER: &[&str] = &[
    "default: 64836 packets; dropped 40410 (62.33%); blocked 871 connections | uplink: 32.01 Mbps offered -> 4.90 Mbps after filtering | out 68de3fabbdbbda58 | pass 12010 red 0 unsolicited 871 out 12416 | reports 12",
    "thresholds: 64836 packets; dropped 39872 (61.50%); blocked 866 connections | uplink: 32.01 Mbps offered -> 5.63 Mbps after filtering | out 60cd90a3287ca785 | pass 12283 red 1 unsolicited 865 out 12681 | reports 12",
    "no-block: 64836 packets; dropped 873 (1.35%); blocked 0 connections | uplink: 32.01 Mbps offered -> 32.01 Mbps after filtering | out 81e4c81de26ecd60 | pass 31623 red 1 unsolicited 872 out 32340 | reports 12",
    "shards-4: 64836 packets; dropped 39872 (61.50%); blocked 866 connections | uplink: 32.01 Mbps offered -> 5.63 Mbps after filtering | out 60cd90a3287ca785 | pass 12283 red 1 unsolicited 865 out 12681 | reports 12",
    "batch-1: 64836 packets; dropped 39872 (61.50%); blocked 866 connections | uplink: 32.01 Mbps offered -> 5.63 Mbps after filtering | out 60cd90a3287ca785 | pass 12283 red 1 unsolicited 865 out 12681 | reports 12",
    "balanced: 64836 packets; dropped 39872 (61.50%); blocked 866 connections | uplink: 32.01 Mbps offered -> 5.63 Mbps after filtering | out 60cd90a3287ca785 | pass 12283 red 1 unsolicited 865 out 12681 | reports 12",
    "fault-plan: 64836 packets; dropped 39707 (61.24%); blocked 1520 connections | uplink: 32.01 Mbps offered -> 6.76 Mbps after filtering | out fe00c5046f73fbd7 | pass 12043 red 1 unsolicited 1519 out 13086 | reports 12",
];

/// A real capture carries epoch timestamps. Shifted by 1.7e9 s, the
/// default-configuration golden trace gives the unshifted run's summary
/// and report count: the uplink rates divide by the span from the first
/// packet, and the first report falls at the first interval boundary
/// after it. The default configuration drops every unsolicited packet,
/// so no drop draw depends on the timestamp.
#[test]
fn filter_reports_an_epoch_stamped_capture_like_one_stamped_from_zero() {
    let trace = tmp("epoch-trace.pcap");
    let shifted = tmp("epoch-shifted.pcap");
    let out = run(&[
        "generate",
        "--out",
        trace.to_str().expect("utf8 path"),
        "--duration",
        "60",
        "--rate",
        "30",
        "--seed",
        "7",
    ]);
    assert!(out.status.success());
    let shift = upbound::net::TimeDelta::from_secs(1_700_000_000.0);
    let packets: Vec<_> =
        upbound::net::pcap::from_bytes(&std::fs::read(&trace).expect("read trace"))
            .expect("valid pcap")
            .into_iter()
            .map(|p| {
                let ts = p.ts() + shift;
                p.with_ts(ts)
            })
            .collect();
    let bytes = upbound::net::pcap::to_bytes(&packets, 65_535).expect("serialize");
    std::fs::write(&shifted, bytes).expect("write shifted trace");

    let summary = |path: &PathBuf| {
        let out = run(&[
            "filter",
            "--in",
            path.to_str().expect("utf8 path"),
            "--metrics-interval",
            "5",
        ]);
        assert!(out.status.success());
        let text = stdout(&out);
        let lines: Vec<String> = text
            .lines()
            .filter(|l| l.contains(" packets; dropped ") || l.starts_with("uplink: "))
            .map(str::to_owned)
            .collect();
        (lines, text.matches("--- metrics @ t=").count())
    };
    let (lines, reports) = summary(&trace);
    assert_eq!(reports, 12);
    assert!(!lines[1].contains(" 0.00 Mbps offered"), "{lines:?}");
    assert_eq!(summary(&shifted), (lines, reports));

    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&shifted);
}

/// `filter --fault-plan panics=N` runs under the shard supervisor: each
/// injected panic is caught and its shard restarted, and every packet
/// still gets a verdict. CI's chaos smoke runs the same command.
#[test]
fn filter_survives_injected_shard_panics() {
    let trace = tmp("panics-trace.pcap");
    let prom = tmp("panics.prom");
    let trace_s = trace.to_str().expect("utf8 path");
    let out = run(&[
        "generate",
        "--out",
        trace_s,
        "--duration",
        "30",
        "--rate",
        "20",
        "--seed",
        "7",
    ]);
    assert!(out.status.success());
    let out = run(&[
        "filter",
        "--in",
        trace_s,
        "--inside",
        "10.0.0.0/16",
        "--fault-plan",
        "seed=104,panics=2",
        "--shards",
        "4",
        "--metrics",
        prom.to_str().expect("utf8 path"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix("shard supervisor: "))
        .unwrap_or_else(|| panic!("no supervisor line in:\n{text}"));
    let numbers: Vec<u64> = line
        .split_whitespace()
        .filter_map(|w| w.parse().ok())
        .collect();
    let [panics, restarts] = numbers[..] else {
        panic!("unexpected supervisor line {line:?}");
    };
    assert!(panics >= 1, "{line}");
    assert_eq!(restarts, panics, "{line}");

    let snapshot = upbound::telemetry::export::prometheus::parse(
        &std::fs::read_to_string(&prom).expect("read prom"),
    )
    .expect("valid Prometheus text");
    let counter = |name: &str| snapshot.counter(name).unwrap_or(0);
    assert_eq!(
        counter("upbound_serve_passed_total") + counter("upbound_serve_dropped_total"),
        counter("upbound_serve_packets_total")
    );
    assert!(counter("upbound_serve_packets_total") > 0);
    assert_eq!(counter("upbound_sim_shard_panics_total"), panics);
    assert_eq!(counter("upbound_sim_shard_restarts_total"), restarts);

    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&prom);
}

/// Golden outputs of `upbound filter --subscribers` over one seeded trace
/// split between two tenants (one with its own thresholds, vector size
/// and seed) plus a tenant that never sees a packet. Every case pins the
/// summary, the checkpoint line, the number of `--metrics-interval 10`
/// reports, the `--out` pcap's fingerprint, the `subscribers:` line and
/// the final per-tenant table; the `restart` case reruns `tenants` from
/// its own checkpoint and must restore warm.
#[test]
fn filter_subscribers_matches_recorded_golden_outputs() {
    let trace = tmp("tenant-golden-trace.pcap");
    let spec = tmp("tenant-golden.spec");
    let out_pcap = tmp("tenant-golden-out.pcap");
    let ckpt = tmp("tenant-golden.ckpt");
    let trace_s = trace.to_str().expect("utf8 path");
    let out = run(&[
        "generate",
        "--out",
        trace_s,
        "--duration",
        "60",
        "--rate",
        "30",
        "--seed",
        "7",
    ]);
    assert!(out.status.success());
    std::fs::write(
        &spec,
        "10.0.0.0/25 name=res-a\n\
         10.0.0.128/25 name=res-b low-mbps=0.2 high-mbps=1 vector-bits=16 seed=3\n\
         10.9.0.0/16 name=idle # provisioned, never active\n",
    )
    .expect("write spec");

    let cases: [(&str, &[&str], bool); 4] = [
        ("tenants", &["--evict-idle", "20"], true),
        (
            "batch-1",
            &["--evict-idle", "20", "--batch-size", "1"],
            true,
        ),
        ("no-block", &["--no-block"], true),
        ("restart", &["--evict-idle", "20"], false),
    ];
    let mut digests = Vec::new();
    for (label, extra, fresh) in cases {
        if fresh {
            let _ = std::fs::remove_file(&ckpt);
        }
        let mut args = vec![
            "filter",
            "--in",
            trace_s,
            "--subscribers",
            spec.to_str().expect("utf8 path"),
            "--low-mbps",
            "0.5",
            "--high-mbps",
            "2",
            "--out",
            out_pcap.to_str().expect("utf8 path"),
            "--checkpoint",
            ckpt.to_str().expect("utf8 path"),
            "--checkpoint-interval",
            "10",
            "--metrics-interval",
            "10",
        ];
        args.extend(extra);
        let out = run(&args);
        assert!(
            out.status.success(),
            "{label}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = stdout(&out);
        assert_eq!(
            text.contains("restored warm subscriber table from checkpoint"),
            !fresh,
            "{label}: {text}"
        );
        let line = |prefix: &str| {
            text.lines()
                .find(|l| l.contains(prefix))
                .unwrap_or("?")
                .replace(ckpt.to_str().expect("utf8 path"), "CKPT")
        };
        digests.push(format!(
            "{label}: {} | {} | {} | out {:016x} | reports {}",
            line(" packets; dropped "),
            line("uplink: "),
            line("wrote final checkpoint"),
            fnv1a(&std::fs::read(&out_pcap).expect("read out pcap")),
            text.matches("--- metrics @ t=").count(),
        ));
        digests.push(format!("{label}: {}", line("subscribers: ")));
        // The final tenant table follows the `subscribers:` line.
        let table = text
            .lines()
            .skip_while(|l| !l.starts_with("subscribers: "))
            .skip(2);
        for row in table {
            let row: Vec<&str> = row.split_whitespace().collect();
            digests.push(format!("{label}: {}", row.join(" ")));
        }
    }
    let expected: Vec<String> = GOLDEN_SUBSCRIBERS.iter().map(|s| s.to_string()).collect();
    assert_eq!(digests, expected, "actual:\n{}", digests.join("\n"));

    for path in [&trace, &spec, &out_pcap, &ckpt] {
        let _ = std::fs::remove_file(path);
    }
}

/// Recorded from the multi-tenant `filter` loop (header line, then the
/// `subscribers:` line and one row per tenant, per case).
const GOLDEN_SUBSCRIBERS: &[&str] = &[
    "tenants: 64836 packets; dropped 39620 (61.11%); blocked 860 connections | uplink: 32.01 Mbps offered -> 5.94 Mbps after filtering | wrote final checkpoint to CKPT (7 checkpoint(s), 2 tenant(s) serialized) | out aac9838c17a91721 | reports 6",
    "tenants: subscribers: 2 active / 3 provisioned; 557056 B resident, 0 B pooled (arena: 0 reuse(s), 8 fresh); 0 outbound drop anomaly(ies)",
    "tenants: res-a 10.0.0.0/25 active 8346 8625 545 512",
    "tenants: res-b 10.0.0.128/25 active 4458 4647 315 32",
    "tenants: idle 10.9.0.0/16 dormant 0 0 0 0",
    "batch-1: 64836 packets; dropped 39620 (61.11%); blocked 860 connections | uplink: 32.01 Mbps offered -> 5.94 Mbps after filtering | wrote final checkpoint to CKPT (7 checkpoint(s), 2 tenant(s) serialized) | out aac9838c17a91721 | reports 6",
    "batch-1: subscribers: 2 active / 3 provisioned; 557056 B resident, 0 B pooled (arena: 0 reuse(s), 8 fresh); 0 outbound drop anomaly(ies)",
    "batch-1: res-a 10.0.0.0/25 active 8346 8625 545 512",
    "batch-1: res-b 10.0.0.128/25 active 4458 4647 315 32",
    "batch-1: idle 10.9.0.0/16 dormant 0 0 0 0",
    "no-block: 64836 packets; dropped 867 (1.34%); blocked 0 connections | uplink: 32.01 Mbps offered -> 32.01 Mbps after filtering | wrote final checkpoint to CKPT (7 checkpoint(s), 2 tenant(s) serialized) | out 879fd78f59da887b | reports 6",
    "no-block: subscribers: 2 active / 3 provisioned; 557056 B resident, 0 B pooled (arena: 0 reuse(s), 8 fresh); 0 outbound drop anomaly(ies)",
    "no-block: res-a 10.0.0.0/25 active 21303 21402 550 512",
    "no-block: res-b 10.0.0.128/25 active 11037 11094 317 32",
    "no-block: idle 10.9.0.0/16 dormant 0 0 0 0",
    "restart: 64836 packets; dropped 15814 (24.39%); blocked 498 connections | uplink: 32.01 Mbps offered -> 25.66 Mbps after filtering | wrote final checkpoint to CKPT (7 checkpoint(s), 2 tenant(s) serialized) | out 0ab07112bb293d63 | reports 6",
    "restart: subscribers: 2 active / 3 provisioned; 557056 B resident, 0 B pooled (arena: 0 reuse(s), 0 fresh); 0 outbound drop anomaly(ies)",
    "restart: res-a 10.0.0.0/25 active 37768 38105 859 512",
    "restart: res-b 10.0.0.128/25 active 19140 19343 506 32",
    "restart: idle 10.9.0.0/16 dormant 0 0 0 0",
];
