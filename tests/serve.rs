//! End-to-end tests for the live dataplane and its control plane:
//! `PipelineRunner::serve` driven in-process, and `upbound serve`
//! driven as a real process over HTTP — runtime reconfiguration
//! (`POST /config`), graceful drain (`POST /drain` / SIGINT) and the
//! Usage/Runtime exit-code split.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use upbound::core::{
    BitmapFilterConfig, DropPolicy, NoopObserver, RestoreOutcome, RuntimeOverrides, SnapshotError,
    Verdict,
};
use upbound::net::{BufferedSource, Cidr, Packet, TimeDelta};
use upbound::sim::{FaultPlan, PipelineRunner, RunnerError, ServeControl, ServeExit, ServeReport};
use upbound::telemetry::Registry;
use upbound::traffic::{generate, TraceConfig};

fn inside() -> Cidr {
    "10.0.0.0/16".parse().expect("valid cidr")
}

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_upbound"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("upbound-serve-test-{}-{name}", std::process::id()));
    p
}

fn trace_packets(seed: u64) -> Vec<Packet> {
    generate(
        &TraceConfig::builder()
            .duration_secs(8.0)
            .flow_rate_per_sec(30.0)
            .seed(seed)
            .build()
            .expect("valid trace config"),
    )
    .packets
    .into_iter()
    .map(|lp| lp.packet)
    .collect()
}

/// In-process: a served looped source applies staged overrides at a
/// rotation boundary and drains on request — the same contract the CLI
/// exposes over HTTP, checked without process machinery in the way.
#[test]
fn serve_applies_reconfig_and_drains_in_process() {
    let config = BitmapFilterConfig::builder()
        .vector_bits(14)
        .rotate_every_secs(1.0)
        .drop_policy(DropPolicy::new(1e6, 4e6).expect("valid policy"))
        .build()
        .expect("valid config");
    let runner = PipelineRunner::new(inside(), config);
    let control = ServeControl::new();
    control.stage(RuntimeOverrides {
        drop_policy: Some(DropPolicy::new(2e6, 8e6).expect("valid policy")),
        batch_size: Some(16),
        ..RuntimeOverrides::default()
    });

    let handle = {
        let control_for_thread = control.clone();
        let mut source = BufferedSource::labeled(trace_packets(1), inside()).looped(true);
        std::thread::spawn(move || runner.serve(&mut source, &control_for_thread))
    };
    // The looped 8 s trace rotates the 1 s bitmap almost immediately in
    // replay time; give it a moment, then drain.
    std::thread::sleep(Duration::from_millis(300));
    control.request_drain();
    let report = handle
        .join()
        .expect("serve thread")
        .expect("serve succeeds");
    assert!(matches!(report.exit, ServeExit::Drained));
    assert_eq!(report.reconfigs_applied, 1, "staged overrides must land");
    assert!(report.packets > 0);
}

/// Raw single-connection HTTP/1.1 client (the control plane speaks
/// `Connection: close`, so one request per connection is the contract).
fn http(addr: &str, method: &str, path: &str, body: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect control plane");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has headers");
    (head.to_string(), body.to_string())
}

/// Spawns `upbound serve` with stdout piped and scrapes lines until the
/// control-plane address is printed.
fn spawn_serve(
    args: &[&str],
) -> (
    Child,
    String,
    Arc<AtomicBool>,
    std::thread::JoinHandle<Vec<String>>,
) {
    let mut child = bin()
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn upbound serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let stop = Arc::new(AtomicBool::new(false));
    let reader_stop = Arc::clone(&stop);
    let (tx, rx) = std::sync::mpsc::channel::<String>();
    let reader = std::thread::spawn(move || {
        let mut lines = Vec::new();
        let mut buf = BufReader::new(stdout);
        loop {
            let mut line = String::new();
            match buf.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    let _ = tx.send(line.trim_end().to_owned());
                    lines.push(line.trim_end().to_owned());
                }
            }
            if reader_stop.load(Ordering::Relaxed) {
                break;
            }
        }
        lines
    });
    let deadline = Instant::now() + Duration::from_secs(20);
    let addr = loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        assert!(!remaining.is_zero(), "serve never printed a listen address");
        match rx.recv_timeout(remaining) {
            Ok(line) => {
                if let Some(rest) = line.strip_prefix("control plane listening on http://") {
                    break rest.trim().to_owned();
                }
            }
            Err(_) => panic!("serve exited before printing a listen address"),
        }
    };
    (child, addr, stop, reader)
}

/// The full CLI loop: serve a looped replay, swap the P_d curve and the
/// batch size over `POST /config` without restarting, watch the change
/// land in `/metrics`, then `POST /drain` and exit 0.
#[test]
fn cli_serve_reconfigures_over_http_and_drains() {
    let trace = tmp("reconfig.pcap");
    let trace_s = trace.to_str().expect("utf8 path");
    let out = bin()
        .args([
            "generate",
            "--out",
            trace_s,
            "--duration",
            "8",
            "--rate",
            "40",
            "--seed",
            "11",
        ])
        .output()
        .expect("generate trace");
    assert!(out.status.success());

    let (mut child, addr, stop, reader) = spawn_serve(&[
        "serve",
        "--in",
        trace_s,
        "--loop",
        "--low-mbps",
        "2",
        "--high-mbps",
        "10",
        "--rotate-secs",
        "1",
        "--listen",
        "127.0.0.1:0",
    ]);

    let (head, body) = http(
        &addr,
        "POST",
        "/config",
        "low-mbps=1&high-mbps=3&batch-size=16",
    );
    assert!(head.starts_with("HTTP/1.1 200"), "{head}\n{body}");
    assert!(body.contains("\"generation\":1"), "{body}");

    // The looped replay rotates every simulated second at replay speed,
    // so the staged overrides land almost immediately; poll /metrics
    // until the dataplane reports the new generation.
    let deadline = Instant::now() + Duration::from_secs(20);
    let metrics = loop {
        assert!(Instant::now() < deadline, "reconfig never applied");
        let (head, metrics) = http(&addr, "GET", "/metrics", "");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        if metrics.contains("upbound_serve_config_generation 1") {
            break metrics;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(
        metrics.contains("upbound_serve_reconfigs_total 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("upbound_serve_drop_low_bps 1000000"),
        "{metrics}"
    );
    assert!(
        metrics.contains("upbound_serve_drop_high_bps 3000000"),
        "{metrics}"
    );
    assert!(metrics.contains("upbound_serve_batch_size 16"), "{metrics}");

    // Malformed bodies are rejected without touching the dataplane.
    let (head, _) = http(&addr, "POST", "/config", "low-mbps=1");
    assert!(head.starts_with("HTTP/1.1 400"), "{head}");
    let (head, _) = http(&addr, "POST", "/config", "nonsense");
    assert!(head.starts_with("HTTP/1.1 400"), "{head}");

    let (head, body) = http(&addr, "POST", "/drain", "");
    assert!(head.starts_with("HTTP/1.1 202"), "{head}");
    assert!(body.contains("\"draining\":true"), "{body}");

    let status = child.wait().expect("wait for serve");
    assert_eq!(status.code(), Some(0), "drain is a clean exit");
    stop.store(true, Ordering::Relaxed);
    let lines = reader.join().expect("reader thread");
    assert!(
        lines.iter().any(|l| l.contains("serve finished (drained)")),
        "missing drain report in: {lines:?}"
    );
    assert!(
        lines.iter().any(|l| l.contains("1 reconfig(s) applied")),
        "missing reconfig count in: {lines:?}"
    );
    std::fs::remove_file(&trace).ok();
}

/// One line per metric family of a `/metrics` scrape: name, type, label
/// keys (a histogram's `le` excluded) and help text.
fn metric_families(exposition: &str) -> Vec<String> {
    let snapshot =
        upbound::telemetry::export::prometheus::parse(exposition).expect("valid exposition");
    snapshot
        .samples
        .iter()
        .map(|s| {
            let kind = match s.value {
                upbound::telemetry::MetricValue::Counter(_) => "counter",
                upbound::telemetry::MetricValue::Gauge(_) => "gauge",
                upbound::telemetry::MetricValue::Histogram(_) => "histogram",
            };
            let keys: Vec<&str> = s
                .labels
                .iter()
                .map(|(k, _)| k.as_str())
                // A build from a described git checkout adds a revision.
                .filter(|k| *k != "revision" || option_env!("UPBOUND_GIT_DESCRIBE").is_none())
                .collect();
            format!("{} {kind} {{{}}} {}", s.name, keys.join(","), s.help)
        })
        .collect()
}

/// The metric families a running `upbound serve` exports are pinned by
/// `tests/golden/serve_metrics.txt`: a series that is lost, renamed,
/// retyped, relabeled or re-described fails here.
#[test]
fn cli_serve_metric_names_match_the_golden() {
    let trace = tmp("names.pcap");
    let trace_s = trace.to_str().expect("utf8 path");
    generate_pcap(&trace, "11");
    let (mut child, addr, stop, reader) = spawn_serve(&[
        "serve",
        "--in",
        trace_s,
        "--loop",
        "--listen",
        "127.0.0.1:0",
    ]);
    let deadline = Instant::now() + Duration::from_secs(20);
    let metrics = loop {
        assert!(Instant::now() < deadline, "serve never counted a packet");
        let (head, metrics) = http(&addr, "GET", "/metrics", "");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let snapshot =
            upbound::telemetry::export::prometheus::parse(&metrics).expect("valid exposition");
        if snapshot
            .counter("upbound_serve_packets_total")
            .is_some_and(|n| n > 0)
        {
            break metrics;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let (head, _) = http(&addr, "POST", "/drain", "");
    assert!(head.starts_with("HTTP/1.1 202"), "{head}");
    assert_eq!(child.wait().expect("wait for serve").code(), Some(0));
    stop.store(true, Ordering::Relaxed);
    reader.join().expect("reader thread");
    std::fs::remove_file(&trace).ok();

    let golden = include_str!("golden/serve_metrics.txt");
    let expected: Vec<&str> = golden.lines().collect();
    assert_eq!(metric_families(&metrics), expected, "{metrics}");
}

/// A finite (non-looped) replay serves to end-of-stream and exits 0.
#[test]
fn cli_serve_finite_replay_runs_to_completion() {
    let trace = tmp("finite.pcap");
    let trace_s = trace.to_str().expect("utf8 path");
    let out = bin()
        .args([
            "generate",
            "--out",
            trace_s,
            "--duration",
            "5",
            "--rate",
            "30",
            "--seed",
            "3",
        ])
        .output()
        .expect("generate trace");
    assert!(out.status.success());

    let snap = tmp("finite.snap");
    let out = bin()
        .args([
            "serve",
            "--in",
            trace_s,
            "--high-mbps",
            "10",
            "--low-mbps",
            "2",
            "--checkpoint",
            snap.to_str().expect("utf8 path"),
            "--checkpoint-interval",
            "2",
        ])
        .output()
        .expect("run serve");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("serve finished (source ended)"), "{stdout}");
    assert!(snap.exists(), "final checkpoint must be written");
    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&snap).ok();
}

/// SIGINT while serving drains gracefully and exits 130.
#[cfg(unix)]
#[test]
fn cli_serve_sigint_drains_and_exits_130() {
    let trace = tmp("sigint.pcap");
    let trace_s = trace.to_str().expect("utf8 path");
    let out = bin()
        .args([
            "generate",
            "--out",
            trace_s,
            "--duration",
            "5",
            "--rate",
            "30",
            "--seed",
            "5",
        ])
        .output()
        .expect("generate trace");
    assert!(out.status.success());

    let (mut child, _addr, stop, reader) = spawn_serve(&[
        "serve",
        "--in",
        trace_s,
        "--loop",
        "--high-mbps",
        "10",
        "--low-mbps",
        "2",
        "--listen",
        "127.0.0.1:0",
    ]);
    let kill = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("send SIGINT");
    assert!(kill.success());
    let status = child.wait().expect("wait for serve");
    assert_eq!(status.code(), Some(130), "SIGINT is a clean 130 exit");
    stop.store(true, Ordering::Relaxed);
    let lines = reader.join().expect("reader thread");
    assert!(
        lines.iter().any(|l| l.contains("serve finished (drained)")),
        "missing drain report in: {lines:?}"
    );
    std::fs::remove_file(&trace).ok();
}

/// The Usage/Runtime split: flag misuse exits 2 before any dataplane
/// work; runtime failures exit 1.
#[test]
fn cli_serve_usage_and_runtime_errors_split_exit_codes() {
    let stderr_of = |args: &[&str]| {
        let out = bin().args(args).output().expect("run serve");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };

    // No source at all.
    let (code, err) = stderr_of(&["serve"]);
    assert_eq!(code, Some(2), "{err}");
    // Both sources at once.
    let (code, _) = stderr_of(&["serve", "--in", "x.pcap", "--live", "lo"]);
    assert_eq!(code, Some(2));
    // Fault injection cannot target a live interface.
    let (code, err) = stderr_of(&["serve", "--live", "lo", "--fault-plan", "seed=1,corrupt=5"]);
    assert_eq!(code, Some(2));
    assert!(err.contains("replay-only"), "{err}");
    // --loop is replay-only too.
    let (code, _) = stderr_of(&["serve", "--live", "lo", "--loop"]);
    assert_eq!(code, Some(2));
    // Unknown flags are rejected up front.
    let (code, _) = stderr_of(&["serve", "--in", "x.pcap", "--frobnicate"]);
    assert_eq!(code, Some(2));
    // A missing input file is a runtime failure, not a usage error.
    let missing = tmp("does-not-exist.pcap");
    let (code, _) = stderr_of(&["serve", "--in", missing.to_str().expect("utf8 path")]);
    assert_eq!(code, Some(1));
}

/// Writes a seeded trace to `path` through `upbound generate`.
fn generate_pcap(path: &std::path::Path, seed: &str) {
    let out = bin()
        .args([
            "generate",
            "--out",
            path.to_str().expect("utf8 path"),
            "--duration",
            "8",
            "--rate",
            "30",
            "--seed",
            seed,
        ])
        .output()
        .expect("generate trace");
    assert!(out.status.success());
}

/// Runs the binary; returns (exit code, stdout, stderr).
fn run_cli(args: &[&str]) -> (Option<i32>, String, String) {
    let out = bin().args(args).output().expect("run upbound");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// In-process: a second session restores warm from the first session's
/// final checkpoint before deciding its first packet, so its statistics
/// carry on from where the first left off.
#[test]
fn serve_restores_warm_from_its_own_checkpoint_in_process() {
    let path = tmp("restore.snap");
    let _ = std::fs::remove_file(&path);
    let runner = PipelineRunner::new(inside(), BitmapFilterConfig::paper_evaluation())
        .checkpoint(&path, TimeDelta::from_secs(2.0));
    let serve = || {
        let mut source = BufferedSource::labeled(trace_packets(21), inside());
        runner
            .serve(&mut source, &ServeControl::new())
            .expect("serve")
    };
    let first = serve();
    assert_eq!(first.restored, None, "no file yet: a cold start");
    assert!(first.checkpoints_written >= 2, "periodic + final");
    let second = serve();
    assert_eq!(second.restored, Some(RestoreOutcome::Warm));
    assert_eq!(
        second.filter_stats.outbound_packets,
        2 * first.filter_stats.outbound_packets,
        "the restored statistics carry over"
    );
    std::fs::remove_file(&path).ok();
}

/// Through the binary: `serve` restores from its own checkpoint and says
/// so as `filter` does; a corrupt checkpoint is a runtime failure.
#[test]
fn cli_serve_restores_from_its_checkpoint_and_rejects_a_corrupt_one() {
    let trace = tmp("restore.pcap");
    let ckpt = tmp("restore-cli.snap");
    let _ = std::fs::remove_file(&ckpt);
    generate_pcap(&trace, "4");
    let args = [
        "serve",
        "--in",
        trace.to_str().expect("utf8 path"),
        "--checkpoint",
        ckpt.to_str().expect("utf8 path"),
    ];
    let (code, stdout, stderr) = run_cli(&args);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(!stdout.contains("restored"), "{stdout}");
    let (code, stdout, stderr) = run_cli(&args);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(
        stdout.contains("restored warm filter state from checkpoint"),
        "{stdout}"
    );

    std::fs::write(&ckpt, b"UPBSNAP1 this is not a valid container").expect("write junk");
    let (code, _, stderr) = run_cli(&args);
    assert_eq!(code, Some(1), "a corrupt checkpoint is a runtime error");
    assert!(stderr.contains("checkpoint"), "{stderr}");
    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&ckpt).ok();
}

/// A capture with no packets leaves an existing checkpoint byte for byte
/// as it was, under `serve` and under `filter`.
#[test]
fn empty_capture_leaves_an_existing_checkpoint_untouched() {
    let trace = tmp("nonempty.pcap");
    let empty = tmp("empty.pcap");
    let ckpt = tmp("keep.snap");
    let _ = std::fs::remove_file(&ckpt);
    generate_pcap(&trace, "6");
    let header_only = upbound::net::pcap::to_bytes(std::iter::empty::<&Packet>(), 65_535)
        .expect("header-only pcap");
    std::fs::write(&empty, header_only).expect("write empty pcap");
    let ckpt_s = ckpt.to_str().expect("utf8 path");
    let (code, _, stderr) = run_cli(&[
        "serve",
        "--in",
        trace.to_str().expect("utf8 path"),
        "--checkpoint",
        ckpt_s,
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    let before = std::fs::read(&ckpt).expect("checkpoint written");
    for command in ["serve", "filter"] {
        let (code, _, stderr) = run_cli(&[
            command,
            "--in",
            empty.to_str().expect("utf8 path"),
            "--checkpoint",
            ckpt_s,
        ]);
        assert_eq!(code, Some(0), "{command}: {stderr}");
        assert_eq!(
            std::fs::read(&ckpt).expect("checkpoint still there"),
            before,
            "{command} rewrote the checkpoint"
        );
    }
    for path in [&trace, &empty, &ckpt] {
        std::fs::remove_file(path).ok();
    }
}

/// In-process: periodic checkpoint writes that the fault plan fails are
/// retried; once the retries are spent, periodic checkpointing is
/// disabled and the session finishes; a failed final write is fatal.
/// Neither a retried nor a disabled checkpoint changes what the session
/// decides.
#[test]
fn serve_retries_failed_checkpoints_then_disables_them() {
    let path = tmp("faulted.snap");
    let serve = |plan: &str| {
        let _ = std::fs::remove_file(&path);
        let registry = Registry::new();
        let control = ServeControl::new().with_telemetry(&registry);
        let mut source = BufferedSource::labeled(trace_packets(22), inside());
        let report = PipelineRunner::new(inside(), BitmapFilterConfig::paper_evaluation())
            .block_connections(true)
            .checkpoint(&path, TimeDelta::from_secs(2.0))
            .fault_plan(FaultPlan::parse(plan).expect("plan"))
            .serve(&mut source, &control);
        (report, registry.snapshot())
    };

    let (disarmed, _) = serve("none");
    let disarmed = disarmed.expect("a disarmed plan checkpoints normally");
    assert!(disarmed.blocked_connections > 0);
    let decided = |report: &ServeReport| {
        (
            report.passed,
            report.dropped,
            report.blocked_connections,
            report.filter_stats,
        )
    };

    // One failure: the retry lands and periodic writes carry on.
    let (report, metrics) = serve("ckpt=1");
    let report = report.expect("a transient failure is retried");
    assert!(report.checkpoints_written >= 3, "periodic + final");
    assert_eq!(report.checkpoints_written, disarmed.checkpoints_written);
    assert_eq!(decided(&report), decided(&disarmed));
    assert!(path.exists());
    assert_eq!(
        metrics.counter("upbound_cli_checkpoint_retries_total"),
        Some(1)
    );
    assert_ne!(
        metrics.gauge("upbound_cli_checkpointing_disabled"),
        Some(1.0)
    );

    // Three failures spend every attempt of the first periodic write:
    // periodic checkpointing stops, the final write still lands.
    let (report, metrics) = serve("ckpt=3");
    let report = report.expect("the session survives a disabled checkpoint");
    assert_eq!(report.exit, ServeExit::SourceEnded);
    assert_eq!(report.checkpoints_written, 1, "only the final write");
    assert_eq!(decided(&report), decided(&disarmed));
    assert!(path.exists());
    assert_eq!(
        metrics.gauge("upbound_cli_checkpointing_disabled"),
        Some(1.0)
    );

    // A fourth failure hits the final write, which is fatal.
    let (report, _) = serve("ckpt=4");
    assert!(
        matches!(report, Err(RunnerError::Snapshot(SnapshotError::Io(_)))),
        "got {report:?}"
    );
    std::fs::remove_file(&path).ok();
}

/// A clock-skew spike drags the watermark an hour ahead. Periodic
/// checkpoints fall due at multiples of the interval in trace time, so
/// the spike costs one write, not one full bitmap and fsync per later
/// batch: at most one periodic write per batch whose watermark enters a
/// later interval, plus the final one.
#[test]
fn a_skew_spike_writes_one_checkpoint_not_one_per_batch() {
    let path = tmp("skew.snap");
    let _ = std::fs::remove_file(&path);
    let every = TimeDelta::from_secs(10.0);
    let packets: Vec<Packet> = generate(
        &TraceConfig::builder()
            .duration_secs(40.0)
            .flow_rate_per_sec(10.0)
            .seed(23)
            .build()
            .expect("valid trace config"),
    )
    .packets
    .into_iter()
    .map(|lp| lp.packet)
    .collect();
    let plan = FaultPlan::parse("seed=1,skew=1,skew-secs=3600").expect("plan");
    let (packets, distortion) = plan.distort_stream(packets);
    assert!(distortion.skewed > 0);

    // Intervals entered, counted per packet: no batching enters more.
    let interval = |us: u64| us / every.as_micros();
    let (mut watermark, mut entered) = (0, 0u64);
    for packet in &packets {
        let next = packet.ts().as_micros().max(watermark);
        entered += u64::from(interval(next) > interval(watermark));
        watermark = next;
    }

    let config = BitmapFilterConfig::builder()
        .vector_bits(12)
        .build()
        .expect("valid config");
    let mut source = BufferedSource::labeled(packets, inside());
    let report = PipelineRunner::new(inside(), config)
        .checkpoint(&path, every)
        .serve(&mut source, &ServeControl::new())
        .expect("serve");
    assert!(report.checkpoints_written >= 2, "periodic + final");
    assert!(
        report.checkpoints_written <= entered + 1,
        "{} checkpoints for {entered} interval(s) entered",
        report.checkpoints_written
    );
    std::fs::remove_file(&path).ok();
}

/// The same failure model through `upbound serve --fault-plan ckpt=N`.
#[test]
fn cli_serve_accepts_checkpoint_faults() {
    let trace = tmp("faulted.pcap");
    let ckpt = tmp("faulted-cli.snap");
    generate_pcap(&trace, "8");
    let run = |plan: &str| {
        let _ = std::fs::remove_file(&ckpt);
        run_cli(&[
            "serve",
            "--in",
            trace.to_str().expect("utf8 path"),
            "--fault-plan",
            plan,
            "--checkpoint",
            ckpt.to_str().expect("utf8 path"),
            "--checkpoint-interval",
            "2",
        ])
    };
    let (code, _, stderr) = run("ckpt=1");
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("retrying"), "{stderr}");
    assert!(ckpt.exists());

    let (code, _, stderr) = run("ckpt=3");
    assert_eq!(code, Some(0), "{stderr}");
    assert!(
        stderr.contains("periodic checkpointing disabled"),
        "{stderr}"
    );
    assert!(ckpt.exists(), "the final checkpoint still lands");

    let (code, _, stderr) = run("ckpt=4");
    assert_eq!(code, Some(1), "a failed final checkpoint exits 1");
    assert!(stderr.contains("checkpoint"), "{stderr}");
    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&ckpt).ok();
}

/// What a serve session decided, field by field.
fn decided(report: &ServeReport) -> impl PartialEq + std::fmt::Debug {
    (
        (report.packets, report.passed, report.dropped),
        (report.blocked_packets, report.blocked_connections),
        (report.uplink_offered_bits, report.uplink_kept_bits),
        report.filter_stats,
        report.watermark,
        report.exit,
    )
}

/// `serve` exports its live state at scrape time: a thread snapshotting
/// the registry in a tight loop while a 2-shard session runs changes no
/// verdict, sees the counters and the watermark only grow, and ends on
/// the session's own totals.
#[test]
fn scraping_in_a_tight_loop_changes_no_verdict() {
    let config = BitmapFilterConfig::builder()
        .rotate_every_secs(1.0)
        .drop_policy(DropPolicy::new(0.5e6, 2e6).expect("valid policy"))
        .build()
        .expect("valid config");
    let packets: Vec<Packet> = generate(
        &TraceConfig::builder()
            .duration_secs(60.0)
            .flow_rate_per_sec(30.0)
            .seed(7)
            .build()
            .expect("valid trace config"),
    )
    .packets
    .into_iter()
    .map(|lp| lp.packet)
    .collect();
    let runner = PipelineRunner::new(inside(), config)
        .shards(2)
        .block_connections(true);

    // Each session twice over: `serve` with unobserved shards, and
    // `serve_observed` with a sink digesting every verdict.
    let session = |registry: Option<&Registry>| {
        let control = match registry {
            Some(registry) => ServeControl::new().with_telemetry(registry),
            None => ServeControl::new(),
        };
        let mut source = BufferedSource::labeled(packets.clone(), inside());
        let report = runner.serve(&mut source, &control).expect("serve");
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let sink = |_: &[(Packet, upbound::net::Direction)], verdicts: &[Verdict]| {
            for verdict in verdicts {
                digest =
                    (digest ^ u64::from(*verdict == Verdict::Drop)).wrapping_mul(0x100_0000_01b3);
            }
            Ok(())
        };
        let control = ServeControl::new();
        let mut source = BufferedSource::labeled(packets.clone(), inside());
        let observed = runner
            .serve_observed(|| NoopObserver, &mut source, &control, sink)
            .expect("serve_observed");
        (report, observed, digest)
    };
    let (plain, plain_observed, plain_digest) = session(None);
    assert!(plain.dropped > 0 && plain.filter_stats.rotations > 0);

    let registry = Registry::new();
    let done = AtomicBool::new(false);
    let scraping = std::sync::Barrier::new(2);
    let (scraped, observed, digest) = std::thread::scope(|scope| {
        let scraper = scope.spawn(|| {
            let (mut packets, mut watermark) = (0, 0.0);
            scraping.wait();
            while !done.load(Ordering::Acquire) {
                let snapshot = registry.snapshot();
                let (Some(p), Some(w)) = (
                    snapshot.counter("upbound_serve_packets_total"),
                    snapshot.gauge("upbound_serve_watermark_secs"),
                ) else {
                    continue;
                };
                assert!(p >= packets, "packets went back from {packets} to {p}");
                assert!(
                    w >= watermark,
                    "watermark went back from {watermark} to {w}"
                );
                (packets, watermark) = (p, w);
            }
        });
        scraping.wait();
        let session = session(Some(&registry));
        done.store(true, Ordering::Release);
        scraper.join().expect("scraper");
        session
    });
    assert_eq!(decided(&scraped), decided(&plain));
    assert_eq!(decided(&observed), decided(&plain_observed));
    assert_eq!(digest, plain_digest);

    let snapshot = registry.snapshot();
    let counter = |name| snapshot.counter(name).expect("registered");
    assert_eq!(counter("upbound_serve_packets_total"), scraped.packets);
    assert_eq!(
        counter("upbound_serve_passed_total") + counter("upbound_serve_dropped_total"),
        scraped.packets
    );
    assert_eq!(
        snapshot.gauge("upbound_serve_rotations"),
        Some(scraped.filter_stats.rotations as f64)
    );
    assert_eq!(
        snapshot.gauge("upbound_serve_watermark_secs"),
        Some(scraped.watermark.as_secs_f64())
    );
}
