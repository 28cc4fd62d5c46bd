//! Integration tests for the observability layer: the journal ring,
//! the latency histograms, the flight-recorder dump round trip through
//! `upbound debug read-dump`, the live HTTP endpoint, and the SIGUSR1
//! dump path — each driven as close to deployment shape as the test
//! harness allows.

use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::Duration;

use upbound::telemetry::{
    DropForensics, DumpTrigger, EventJournal, FilterEvent, FilterEventKind, FlightRecorder,
    ForensicReason, LatencyRecorder, Registry, ShardStatus,
};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_upbound"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("upbound-obs-test-{}-{name}", std::process::id()));
    p
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("spawn upbound binary")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

// ---------------------------------------------------------------------
// Journal ring: overflow keeps the newest entries, in order.

#[test]
fn journal_ring_overflow_keeps_newest_in_order() {
    let mut journal: EventJournal<u64> = EventJournal::with_capacity(8);
    for i in 0..20u64 {
        journal.record(i);
    }
    let kept: Vec<u64> = journal.iter().copied().collect();
    assert_eq!(kept, (12..20).collect::<Vec<u64>>());
    assert_eq!(journal.total_recorded(), 20);
    assert_eq!(journal.overwritten(), 12);
}

// ---------------------------------------------------------------------
// Latency histogram: bucket boundaries and merge behavior.

#[test]
fn latency_bucket_boundaries_are_powers_of_two() {
    let rec = LatencyRecorder::new();
    // Values at 2^k land in bucket k; 2^k - 1 lands in bucket k - 1.
    rec.record_nanos(1024); // bucket 10
    rec.record_nanos(1023); // bucket 9
    rec.record_nanos(1); // bucket 0
    let snap = rec.load();
    assert_eq!(snap.counts[10], 1);
    assert_eq!(snap.counts[9], 1);
    assert_eq!(snap.counts[0], 1);
    assert_eq!(snap.count, 3);
    assert_eq!(snap.sum_nanos, 1024 + 1023 + 1);
}

#[test]
fn latency_snapshots_merge_and_export_round_trips() {
    let a = LatencyRecorder::new();
    let b = LatencyRecorder::new();
    for _ in 0..10 {
        a.record_nanos(500);
        b.record_nanos(50_000);
    }
    let mut merged = a.load();
    merged.merge(&b.load());
    assert_eq!(merged.count, 20);
    assert_eq!(merged.sum_nanos, 10 * 500 + 10 * 50_000);
    // Quantiles bracket the two populations.
    let p25 = merged.quantile_nanos(0.25);
    let p99 = merged.quantile_nanos(0.99);
    assert!((500..50_000).contains(&p25), "p25={p25}");
    assert!(p99 >= 50_000, "p99={p99}");

    // The exported Prometheus histogram survives render -> parse.
    let registry = Registry::new();
    let rec = registry.latency(
        "upbound_test_obs_latency_seconds",
        "round-trip test histogram",
    );
    rec.record_nanos(700);
    rec.record_nanos(2_000_000);
    let text = upbound::telemetry::export::prometheus::render(&registry.snapshot());
    let parsed = upbound::telemetry::export::prometheus::parse(&text).expect("valid exposition");
    let sample = parsed
        .get("upbound_test_obs_latency_seconds")
        .expect("metric present");
    match &sample.value {
        upbound::telemetry::MetricValue::Histogram(h) => assert_eq!(h.count, 2),
        other => panic!("expected histogram, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Flight-recorder dump: write via the library, read via the CLI.

fn sample_recorder() -> FlightRecorder {
    let flight = FlightRecorder::new(4, 4);
    flight.set_meta("input", "synthetic.pcap");
    flight.set_meta("shards", "2");
    for i in 0..6u64 {
        flight.record_event(FilterEvent {
            at_micros: i * 1_000_000,
            kind: FilterEventKind::Pass,
            drop_probability: 0.25,
            uplink_bps: 1e6,
        });
    }
    flight.record_forensics(DropForensics {
        at_micros: 5_000_000,
        flow_hash: 0xdead_beef_cafe_f00d,
        inbound: true,
        reason: ForensicReason::PdDraw,
        drop_probability: 0.25,
        rotation_epoch: 3,
        uplink_bps: 1e6,
    });
    flight.update_shard(ShardStatus {
        shard: 1,
        quarantined: true,
        panics: 2,
        restarts: 2,
    });
    flight
}

#[test]
fn debug_read_dump_round_trips() {
    let dump_path = tmp("round-trip.dump");
    let flight = sample_recorder();
    flight.set_dump_path(&dump_path);
    let written = flight
        .dump_now(DumpTrigger::Manual)
        .expect("dump io")
        .expect("path configured");
    assert_eq!(written, dump_path);

    let out = run(&["debug", "read-dump", dump_path.to_str().expect("utf8")]);
    assert!(out.status.success(), "stderr: {:?}", out.stderr);
    let text = stdout(&out);
    assert!(text.contains("trigger: manual"), "{text}");
    assert!(text.contains("input = synthetic.pcap"), "{text}");
    assert!(text.contains("QUARANTINED"), "{text}");
    assert!(text.contains("p_d_draw"), "{text}");
    // The 4-entry ring kept the newest of the 6 events.
    assert!(text.contains("4 retained of 6 recorded"), "{text}");
    let _ = std::fs::remove_file(&dump_path);
}

#[test]
fn debug_read_dump_rejects_garbage() {
    let path = tmp("garbage.dump");
    std::fs::write(&path, "definitely not a dump\n").expect("write");
    let out = run(&["debug", "read-dump", path.to_str().expect("utf8")]);
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(1));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn debug_usage_errors_exit_2() {
    let out = run(&["debug"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["debug", "frobnicate", "x"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn debug_parse_metrics_validates_exposition() {
    let registry = Registry::new();
    registry.build_info("0.0.0-test", Some("deadbeef"));
    registry
        .counter("upbound_test_total", "a test counter")
        .add(7);
    let path = tmp("metrics.prom");
    std::fs::write(
        &path,
        upbound::telemetry::export::prometheus::render(&registry.snapshot()),
    )
    .expect("write");
    let out = run(&["debug", "parse-metrics", path.to_str().expect("utf8")]);
    assert!(out.status.success(), "stderr: {:?}", out.stderr);
    assert!(stdout(&out).contains("valid Prometheus exposition"));

    std::fs::write(&path, "upbound_bad{unterminated=\"oops 1\n").expect("write");
    let out = run(&["debug", "parse-metrics", path.to_str().expect("utf8")]);
    assert!(!out.status.success());
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------
// Live endpoint + SIGUSR1: a real `upbound filter` process serving
// /metrics and /health, dumped on signal, stopped with SIGINT.

#[cfg(unix)]
#[test]
fn filter_serves_http_and_dumps_on_sigusr1() {
    let trace = tmp("http-trace.pcap");
    let dump = tmp("http-flight.dump");
    let trace_s = trace.to_str().expect("utf8");
    let _ = std::fs::remove_file(&dump);

    let out = run(&[
        "generate",
        "--out",
        trace_s,
        "--duration",
        "20",
        "--rate",
        "10",
        "--seed",
        "7",
    ]);
    assert!(out.status.success(), "generate failed: {:?}", out.stderr);

    // Port 0 lets the OS pick; the CLI prints the bound address.
    let mut child = bin()
        .args([
            "filter",
            "--in",
            trace_s,
            "--metrics-addr",
            "127.0.0.1:0",
            "--serve-grace",
            "30",
            "--flight-dump",
            dump.to_str().expect("utf8"),
            "--trace-latency",
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn filter");
    let child_stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(child_stdout);
    let mut addr = None;
    let mut line = String::new();
    while reader.read_line(&mut line).expect("read child stdout") > 0 {
        if let Some(rest) = line
            .trim()
            .strip_prefix("serving /metrics and /health on http://")
        {
            addr = Some(rest.to_string());
            break;
        }
        line.clear();
    }
    let addr = addr.expect("filter printed the bound address");

    let http_get = |path: &str| -> String {
        let mut stream = TcpStream::connect(&addr).expect("connect metrics server");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\n\r\n").expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        response
    };

    // /metrics serves a valid exposition including the build-info gauge
    // and the latency histograms.
    let metrics = http_get("/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
    let body = metrics
        .split("\r\n\r\n")
        .nth(1)
        .expect("response has a body");
    let parsed = upbound::telemetry::export::prometheus::parse(body).expect("served metrics parse");
    assert!(parsed.get("upbound_build_info").is_some());

    // /health is JSON with the expected shape.
    let health = http_get("/health");
    assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
    assert!(health.contains("\"status\""), "{health}");
    assert!(health.contains("\"fail_mode\":\"closed\""), "{health}");

    // Unknown paths 404, non-GET 405.
    assert!(http_get("/nope").starts_with("HTTP/1.1 404"));

    // SIGUSR1 -> flight dump appears and parses.
    let pid = child.id().to_string();
    let kill = |sig: &str| {
        assert!(Command::new("kill")
            .args([sig, &pid])
            .status()
            .expect("run kill")
            .success());
    };
    kill("-USR1");
    let mut waited = 0;
    while !dump.exists() && waited < 100 {
        std::thread::sleep(Duration::from_millis(100));
        waited += 1;
    }
    assert!(dump.exists(), "SIGUSR1 did not produce a dump");
    // The file may still be mid-write; retry the parse briefly.
    let mut parsed_dump = None;
    for _ in 0..50 {
        let text = std::fs::read_to_string(&dump).expect("read dump");
        if let Ok(d) = FlightRecorder::parse(&text) {
            parsed_dump = Some(d);
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    let parsed_dump = parsed_dump.expect("dump parses");
    assert_eq!(parsed_dump.trigger, DumpTrigger::Signal);
    assert!(parsed_dump.metrics.is_some(), "dump embeds metrics");

    // SIGINT ends the grace period; 130 is the clean-interrupt code.
    kill("-INT");
    let status = child.wait().expect("child exits");
    assert_eq!(status.code(), Some(130));

    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&dump);
}

// ---------------------------------------------------------------------
// Flight dumps taken on the decide thread: the recorder snapshots the
// registry while the observed shards' write guards are held, so a
// scrape-time metric that took a shard lock would hang these runs.

/// Runs `upbound filter <args>` and fails if it has not exited within a
/// minute (a deadlock), killing it first.
fn filter_within_deadline(args: &[&str]) -> Output {
    let mut child = bin()
        .arg("filter")
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn filter");
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("poll filter").is_none() {
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!(
                "`upbound filter {}` did not finish: deadlocked",
                args.join(" ")
            );
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect filter output")
}

#[test]
fn flight_dumps_on_the_decide_thread_finish_and_carry_serve_metrics() {
    let trace = tmp("dump-deadline.pcap");
    let trace_s = trace.to_str().expect("utf8");
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
    assert!(out.status.success(), "generate failed: {:?}", out.stderr);
    let cases: [(&str, &[&str], DumpTrigger); 2] = [
        // Each rebuilt shard arms fail-open while the others hold marks.
        (
            "panics",
            &["--shards", "2", "--fault-plan", "seed=3,panics=2"],
            DumpTrigger::FailOpen,
        ),
        // 2^8-bit vectors saturate, and entering Saturated dumps.
        (
            "saturated",
            &[
                "--shards",
                "2",
                "--vector-bits",
                "8",
                "--overload-policy",
                "balanced",
            ],
            DumpTrigger::Overload,
        ),
    ];
    for (name, extra, trigger) in cases {
        let dump = tmp(&format!("dump-deadline-{name}.dump"));
        let _ = std::fs::remove_file(&dump);
        let mut args = vec![
            "--in",
            trace_s,
            "--inside",
            "10.0.0.0/16",
            "--flight-dump",
            dump.to_str().expect("utf8"),
        ];
        args.extend_from_slice(extra);
        let out = filter_within_deadline(&args);
        assert!(
            out.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout(&out).contains("flight recorder wrote"), "{name}");
        let text = std::fs::read_to_string(&dump).expect("read dump");
        let parsed = FlightRecorder::parse(&text).expect("dump parses");
        assert_eq!(parsed.trigger, trigger, "{name}");
        let metrics = parsed.metrics.expect("dump embeds metrics");
        assert!(
            metrics.counter("upbound_serve_packets_total").is_some(),
            "{name}: {text}"
        );
        let _ = std::fs::remove_file(&dump);
    }
    let _ = std::fs::remove_file(&trace);
}
