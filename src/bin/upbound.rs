//! `upbound` — command-line front end for the bitmap-filter toolkit.
//!
//! Subcommands:
//!
//! * `generate` — synthesize a client-network workload and write a pcap.
//! * `analyze`  — run the Section 3 traffic analyzer over a pcap.
//! * `filter`   — `serve` over a pcap without a listener, writing the
//!   surviving packets to a new pcap and printing throughput/drop stats.
//! * `serve`    — the long-lived dataplane over a pcap or a live
//!   interface, reconfigurable over HTTP.
//! * `params`   — capacity planning with the §5.1 equations.
//! * `debug`    — operator tooling: pretty-print a flight-recorder dump
//!   (`read-dump`) or validate a Prometheus exposition file
//!   (`parse-metrics`).
//!
//! Run `upbound help` (or any subcommand with `--help`) for usage.
//!
//! Exit codes: `0` success, `1` runtime failure, `2` usage error,
//! `130` clean shutdown after SIGINT/SIGTERM.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use upbound::analyzer::Analyzer;
use upbound::core::params::{max_connections, optimal_hash_count, penetration_probability};
use upbound::core::{
    BitmapFilter, BitmapFilterConfig, DropPolicy, FailMode, OverloadPolicy, RestoreOutcome,
    RuntimeOverrides, SubscriberClassifier, SubscriberState, SubscriberTable, SubscriberTelemetry,
    TelemetryObserver, Verdict,
};
use upbound::net::pcap::{IngestStats, IngestTelemetry, PcapReader, PcapWriter, RecoveryPolicy};
use upbound::net::{
    BufferedSource, Cidr, Direction, LiveCaptureError, LiveConfig, LiveSource, NetError, Packet,
    PacketSource, PcapSource, SourcePoll, TimeDelta, Timestamp,
};
use upbound::sim::{
    next_boundary, FaultPlan, PipelineConfig, PipelineObservability, PipelineRunner, ServeControl,
    ServeExit, ServeReport, SupervisorTelemetry, TenantBank,
};
use upbound::telemetry::{
    export, ControlHandler, ControlResponse, DumpTrigger, FlightRecorder, HealthState,
    MetricsServer, Registry, Snapshot, StageTracer,
};
use upbound::traffic::{generate, TraceConfig};

const USAGE: &str = "\
upbound — bound peer-to-peer upload traffic without payload inspection

USAGE:
    upbound generate --out <FILE> [--duration <SECS>] [--rate <FLOWS/S>]
                     [--seed <N>] [--snaplen <BYTES>] [--inside <CIDR>]
    upbound analyze  --in <FILE> [--inside <CIDR>] [--on-corrupt strict|skip]
    upbound filter   --in <FILE> [DATAPLANE] [--out <FILE>] [--no-block]
                     [--metrics <FILE.prom|FILE.json>]
                     [--metrics-interval <SECS>]
                     [--metrics-addr <HOST:PORT>] [--flight-dump <FILE>]
                     [--trace-latency] [--serve-grace <SECS>]
                     [--subscribers <SPEC>] [--evict-idle <SECS>]
    upbound serve    (--in <FILE> [--loop] | --live <IFACE>) [DATAPLANE]
                     [--listen <HOST:PORT>]
    upbound params   [--connections <N>]
    upbound debug    read-dump <FILE> | parse-metrics <FILE>
    upbound help

DATAPLANE (filter and serve):
    [--inside <CIDR>] [--low-mbps <F>] [--high-mbps <F>]
    [--vector-bits <N>] [--vectors <K>] [--rotate-secs <F>] [--hashes <M>]
    [--hole-punching] [--fail-mode open|closed] [--shards <N>]
    [--batch-size <N>] [--overload-policy <SPEC>] [--fault-plan <SPEC>]
    [--checkpoint <FILE>] [--checkpoint-interval <SECS>]
    [--on-corrupt strict|skip]
    `filter` is `serve` without a listener over a finite capture: the
    same loop decides every packet, with the blocked-connection store
    of the paper's evaluation on (--no-block turns it off) and the
    passed packets written to --out. Both restore from --checkpoint
    before the first packet when the file exists, write one each time
    trace time reaches a multiple of --checkpoint-interval seconds (a
    clock jump past several multiples writes once), and write a final
    one unless no packet arrived.

MULTI-TENANT (filter):
    --subscribers decides through a multi-tenant subscriber table
    instead of one --inside network, in the same loop. <SPEC> is a
    text file, one subscriber per line: `CIDR [key=value ...]` (#
    comments allowed).
    Keys override the command-line filter defaults per tenant:
    name, low-mbps, high-mbps, vector-bits, vectors, rotate-secs,
    hashes, hole-punching, seed. Packets are classified by longest
    prefix match; tenant filters materialize lazily on first packet.
    --evict-idle recycles a tenant's bit storage through a shared
    arena after it has been idle that many seconds (clamped up to
    the tenant's expiry window T_e, so verdicts never change).
    Interval reports (--metrics-interval) gain per-tenant columns.
    Incompatible with --inside, --shards, --fail-mode open,
    --metrics-addr, --flight-dump, --trace-latency, --serve-grace,
    --overload-policy, --fault-plan.

OVERLOAD RESILIENCE (filter and serve):
    --overload-policy arms the saturation sentinel and graceful-
    degradation ladder (Normal -> Pressure -> Saturated on bitmap
    fill, with hysteresis). <SPEC> is `off`, `balanced`, or `strict`,
    optionally followed by comma-separated overrides: pressure,
    saturated, hysteresis, pressure-clamp, saturated-clamp,
    early-rotation (e.g. `balanced,saturated=0.8`). While degraded
    the filter clamps unsolicited-inbound P_d upward (never touching
    marked flows) and, when Saturated, rotates the bitmap at double
    rate; with --fail-mode open the Saturated clamp is capped at the
    Pressure level (emergency bypass). Transitions are exported as
    metrics/journal events; entering Saturated dumps the black box.
    --fault-plan injects deterministic faults for resilience drills:
    `none` or comma-separated `key=value` of seed, corrupt
    (per-mille packet corruption), reorder (bursts), skew (spikes),
    skew-secs, panics (decide-path panics per shard; the shard
    supervisor passes the packet, rebuilds the shard empty and
    fail-open, and the run goes on), ckpt (checkpoint write failures;
    periodic writes retry with bounded backoff, then degrade to
    checkpointing-disabled — final checkpoints stay fatal). Stream
    faults distort the replayed capture before it is served, so a
    fault plan is incompatible with --live. Same plan + same input
    => same faults. Incompatible with --subscribers.

OBSERVABILITY (filter):
    --metrics-addr serves live GET /metrics (Prometheus) and
    GET /health (JSON) over HTTP while the replay runs.
    --flight-dump names the black-box file; it is written on panic,
    on SIGUSR1, and when a fail-open filter arms while degraded.
    --trace-latency records per-stage latency histograms
    (upbound_cli_stage_*) at a small per-packet cost.
    --serve-grace keeps the HTTP endpoint up for N seconds after the
    replay finishes (SIGINT/SIGTERM ends the grace period early).

LIVE DATAPLANE (serve):
    `serve` runs the filter as a long-lived dataplane over a unified
    packet source: a pcap replay (--in; --loop restamps each pass so a
    finite capture becomes an indefinite workload) or a Linux AF_PACKET
    live capture (--live <IFACE>, needs CAP_NET_RAW or root).
    --listen starts the control plane on <HOST:PORT> (port 0 picks an
    ephemeral port, printed on startup):
      GET  /metrics   Prometheus exposition (upbound_serve_* live state)
      GET  /health    liveness JSON
      POST /config    stage runtime overrides, applied at the next
                      bitmap-rotation boundary without restart. Body is
                      `key=value` pairs separated by newlines or `&`:
                      low-mbps, high-mbps (both together swap the P_d
                      curve), fail-mode=open|closed, batch-size=N,
                      overload-policy=off|balanced|strict[,k=v...]
      POST /drain     finish the in-flight batch, write the final
                      checkpoint, exit 0
    SIGINT/SIGTERM triggers the same graceful drain, then exits 130.

EXIT CODES:
    0 success; 1 runtime failure; 2 usage error;
    130 clean shutdown after SIGINT/SIGTERM (final checkpoint and
    metrics snapshot are still written).
";

/// A CLI failure, split by who is at fault: `Usage` problems (bad flags
/// or values) exit 2, `Runtime` problems (I/O, corrupt inputs, failed
/// checkpoints) exit 1.
enum CliError {
    Usage(String),
    Runtime(String),
}

/// How a subcommand finished: normally, or cut short by a signal (exit
/// code 130 after all shutdown work — final checkpoint, metrics — has
/// been done).
#[derive(PartialEq)]
enum Outcome {
    Done,
    Interrupted,
}

/// SIGINT/SIGTERM latching. The handler only sets an atomic flag
/// (async-signal-safe); the main loops poll it between packets and run
/// an orderly shutdown.
#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static INTERRUPTED: AtomicBool = AtomicBool::new(false);
    static DUMP_REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn latch(_signum: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
    }

    extern "C" fn latch_dump(_signum: i32) {
        DUMP_REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGUSR1: i32 = 10;
        const SIGPIPE: i32 = 13;
        const SIGTERM: i32 = 15;
        const SIG_DFL: usize = 0;
        // SAFETY: both handlers are async-signal-safe (a single atomic
        // store each) and have the C ABI `signal` expects. SIGPIPE is
        // reset to the default disposition so piping into a pager that
        // exits early terminates the process quietly (the Unix
        // convention) instead of panicking on the next stdout write.
        // SIGUSR1 latches a flight-recorder dump request, which the
        // filter loop services between packets.
        unsafe {
            signal(SIGINT, latch as extern "C" fn(i32) as usize);
            signal(SIGTERM, latch as extern "C" fn(i32) as usize);
            signal(SIGUSR1, latch_dump as extern "C" fn(i32) as usize);
            signal(SIGPIPE, SIG_DFL);
        }
    }

    pub fn interrupted() -> bool {
        INTERRUPTED.load(Ordering::SeqCst)
    }

    /// Takes (and clears) a pending SIGUSR1 dump request.
    pub fn dump_requested() -> bool {
        DUMP_REQUESTED.swap(false, Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod signals {
    pub fn install() {}

    pub fn interrupted() -> bool {
        false
    }

    pub fn dump_requested() -> bool {
        false
    }
}

/// Flags each subcommand accepts; anything else is rejected up front.
const GENERATE_FLAGS: &[&str] = &["out", "duration", "rate", "seed", "snaplen", "inside"];
const ANALYZE_FLAGS: &[&str] = &["in", "inside", "on-corrupt"];
/// The flags `filter` and `serve` share (see [`Dataplane`]).
const DATAPLANE_FLAGS: &[&str] = &[
    "in",
    "inside",
    "low-mbps",
    "high-mbps",
    "vector-bits",
    "vectors",
    "rotate-secs",
    "hashes",
    "hole-punching",
    "fail-mode",
    "shards",
    "batch-size",
    "overload-policy",
    "checkpoint",
    "checkpoint-interval",
    "on-corrupt",
    "fault-plan",
];
const FILTER_FLAGS: &[&str] = &[
    "out",
    "no-block",
    "metrics",
    "metrics-interval",
    "metrics-addr",
    "flight-dump",
    "trace-latency",
    "serve-grace",
    "subscribers",
    "evict-idle",
];
const PARAMS_FLAGS: &[&str] = &["connections"];
const SERVE_FLAGS: &[&str] = &["live", "loop", "listen"];

struct Args {
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut flags = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if !a.starts_with("--") {
                return Err(format!("unexpected argument {a:?}"));
            }
            let name = a.trim_start_matches("--").to_owned();
            let value = if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                i += 1;
                Some(argv[i].clone())
            } else {
                None
            };
            flags.push((name, value));
            i += 1;
        }
        Ok(Self { flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// Rejects any flag the subcommand does not define, so typos fail
    /// loudly instead of being silently ignored.
    fn ensure_known(&self, command: &str, allowed: &[&str]) -> Result<(), String> {
        for (name, _) in &self.flags {
            if !allowed.contains(&name.as_str()) {
                return Err(format!(
                    "unknown flag --{name} for `upbound {command}` (expected one of: {})",
                    allowed
                        .iter()
                        .map(|f| format!("--{f}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
        }
        Ok(())
    }

    /// The value of a flag that must carry one: `None` when the flag is
    /// absent, the usage error `missing` when it is given bare.
    fn value(&self, name: &str, missing: &str) -> Result<Option<String>, CliError> {
        match self.get(name) {
            None if self.has(name) => Err(usage(missing)),
            other => Ok(other.map(str::to_owned)),
        }
    }

    /// A number of seconds: finite and non-negative, and also non-zero
    /// when `positive`.
    fn secs(&self, name: &str, default: f64, positive: bool) -> Result<f64, CliError> {
        let secs: f64 = self.parse_num(name, default).map_err(usage)?;
        if !secs.is_finite() || secs < 0.0 || (positive && secs == 0.0) {
            let kind = if positive { "positive" } else { "non-negative" };
            return Err(usage(format!(
                "--{name} expects a {kind} number of seconds, got {secs}"
            )));
        }
        Ok(secs)
    }

    fn parse_num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} expects a number, got {v:?}")),
        }
    }
}

/// Exit code for a clean signal-initiated shutdown (128 + SIGINT).
const EXIT_INTERRUPTED: u8 = 130;
/// Exit code for usage errors (bad flags or values).
const EXIT_USAGE: u8 = 2;

fn usage(message: impl Into<String>) -> CliError {
    CliError::Usage(message.into())
}

fn runtime(message: impl Into<String>) -> CliError {
    CliError::Runtime(message.into())
}

fn main() -> ExitCode {
    signals::install();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => {
            eprint!("{USAGE}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    if command == "help" || rest.iter().any(|a| a == "--help") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    // `debug` takes positional operands, not `--` flags.
    if command == "debug" {
        return match cmd_debug(rest) {
            Ok(()) => ExitCode::SUCCESS,
            Err(CliError::Usage(e)) => {
                eprintln!("error: {e}\n\n{USAGE}");
                ExitCode::from(EXIT_USAGE)
            }
            Err(CliError::Runtime(e)) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match Args::parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let result = match command {
        "generate" => args
            .ensure_known(command, GENERATE_FLAGS)
            .map_err(usage)
            .and_then(|()| cmd_generate(&args)),
        "analyze" => args
            .ensure_known(command, ANALYZE_FLAGS)
            .map_err(usage)
            .and_then(|()| cmd_analyze(&args)),
        "filter" => args
            .ensure_known(command, &[DATAPLANE_FLAGS, FILTER_FLAGS].concat())
            .map_err(usage)
            .and_then(|()| cmd_filter(&args)),
        "params" => args
            .ensure_known(command, PARAMS_FLAGS)
            .map_err(usage)
            .and_then(|()| cmd_params(&args)),
        "serve" => args
            .ensure_known(command, &[DATAPLANE_FLAGS, SERVE_FLAGS].concat())
            .map_err(usage)
            .and_then(|()| cmd_serve(&args)),
        other => Err(usage(format!("unknown command {other:?}"))),
    };
    match result {
        Ok(Outcome::Done) => ExitCode::SUCCESS,
        Ok(Outcome::Interrupted) => {
            eprintln!("interrupted: shut down cleanly");
            ExitCode::from(EXIT_INTERRUPTED)
        }
        Err(CliError::Usage(e)) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::from(EXIT_USAGE)
        }
        Err(CliError::Runtime(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn inside_of(args: &Args) -> Result<Cidr, String> {
    args.get("inside")
        .unwrap_or("10.0.0.0/16")
        .parse()
        .map_err(|e| format!("--inside: {e}"))
}

fn recovery_policy_of(args: &Args) -> Result<RecoveryPolicy, String> {
    match args.get("on-corrupt") {
        None if args.has("on-corrupt") => Err("--on-corrupt expects `strict` or `skip`".to_owned()),
        None | Some("strict") => Ok(RecoveryPolicy::Strict),
        Some("skip") => Ok(RecoveryPolicy::Skip),
        Some(other) => Err(format!(
            "--on-corrupt expects `strict` or `skip`, got {other:?}"
        )),
    }
}

/// Prints what the recovering reader had to discard, if anything.
fn report_skips(stats: &IngestStats) {
    if stats.records_skipped == 0 {
        return;
    }
    let by_reason: Vec<String> = stats
        .by_reason()
        .filter(|&(_, n)| n > 0)
        .map(|(r, n)| format!("{r}={n}"))
        .collect();
    println!(
        "skipped {} corrupt region(s) / {} byte(s) while reading ({})",
        stats.records_skipped,
        stats.bytes_skipped,
        by_reason.join(", ")
    );
}

fn cmd_generate(args: &Args) -> Result<Outcome, CliError> {
    let out_path = args
        .get("out")
        .ok_or_else(|| usage("generate requires --out <FILE>"))?;
    let duration: f64 = args.parse_num("duration", 60.0).map_err(usage)?;
    let rate: f64 = args.parse_num("rate", 40.0).map_err(usage)?;
    let seed: u64 = args.parse_num("seed", 42u64).map_err(usage)?;
    let snaplen: u32 = args.parse_num("snaplen", 65_535u32).map_err(usage)?;
    let inside = inside_of(args).map_err(usage)?;

    let config = TraceConfig::builder()
        .duration_secs(duration)
        .flow_rate_per_sec(rate)
        .seed(seed)
        .inside(inside)
        .build()
        .map_err(|e| usage(e.to_string()))?;
    let trace = generate(&config);

    let file = File::create(out_path).map_err(|e| runtime(format!("{out_path}: {e}")))?;
    let mut writer =
        PcapWriter::new(BufWriter::new(file), snaplen).map_err(|e| runtime(e.to_string()))?;
    for lp in &trace.packets {
        writer
            .write_packet(&lp.packet)
            .map_err(|e| runtime(e.to_string()))?;
    }
    writer.finish().map_err(|e| runtime(e.to_string()))?;
    println!(
        "wrote {} packets / {} connections ({:.1} s of traffic) to {}",
        trace.packets.len(),
        trace.connection_count(),
        duration,
        out_path
    );
    Ok(Outcome::Done)
}

fn cmd_analyze(args: &Args) -> Result<Outcome, CliError> {
    let in_path = args
        .get("in")
        .ok_or_else(|| usage("analyze requires --in <FILE>"))?;
    let inside = inside_of(args).map_err(usage)?;
    let policy = recovery_policy_of(args).map_err(usage)?;
    let file = File::open(in_path).map_err(|e| runtime(format!("{in_path}: {e}")))?;
    let mut reader = PcapReader::with_policy(BufReader::new(file), policy)
        .map_err(|e| runtime(e.to_string()))?;
    let mut analyzer = Analyzer::new(inside);
    let mut outcome = Outcome::Done;
    while let Some(p) = reader.read_packet().map_err(|e| runtime(e.to_string()))? {
        if signals::interrupted() {
            // Report on whatever was ingested before the signal.
            outcome = Outcome::Interrupted;
            break;
        }
        analyzer.process(&p);
    }
    report_skips(reader.stats());
    let report = analyzer.finish();

    println!(
        "{}: {} packets, {} connections",
        in_path,
        report.packets,
        report.connections.len()
    );
    println!("\nprotocol distribution:");
    for share in report.protocol_table() {
        println!(
            "  {:<12} {:>6.2}% of connections  {:>6.2}% of bytes",
            share.name,
            share.connection_share * 100.0,
            share.byte_share * 100.0
        );
    }
    println!(
        "\nupload: {:.1}% of bytes ({:.1}% of it on inbound-initiated connections)",
        report.upload_fraction() * 100.0,
        report.upload_on_inbound_fraction() * 100.0
    );
    let delays = report.delay_cdf();
    if !delays.is_empty() {
        println!(
            "out-in delay: median {:.3} s, p99 {:.2} s",
            delays.median(),
            delays.quantile(0.99)
        );
    }
    println!("\ntop uploaders:");
    for (host, bytes) in report.top_uploaders(5) {
        println!(
            "  {host:<15} {:.2} MiB up",
            bytes as f64 / (1024.0 * 1024.0)
        );
    }
    Ok(outcome)
}

/// Where `--metrics` wants the final snapshot written, decided by file
/// extension.
enum MetricsFormat {
    Prometheus,
    Json,
}

fn metrics_sink(args: &Args) -> Result<Option<(String, MetricsFormat)>, String> {
    let Some(path) = args.get("metrics") else {
        if args.has("metrics") {
            return Err("--metrics requires a file path (.prom or .json)".to_owned());
        }
        return Ok(None);
    };
    let format = if path.ends_with(".prom") {
        MetricsFormat::Prometheus
    } else if path.ends_with(".json") {
        MetricsFormat::Json
    } else {
        return Err(format!(
            "--metrics expects a .prom or .json path, got {path:?}"
        ));
    };
    Ok(Some((path.to_owned(), format)))
}

fn write_metrics(path: &str, format: &MetricsFormat, snapshot: &Snapshot) -> Result<(), String> {
    let text = match format {
        MetricsFormat::Prometheus => export::prometheus::render(snapshot),
        MetricsFormat::Json => export::json::render(snapshot),
    };
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    println!("wrote metrics snapshot to {path}");
    Ok(())
}

/// The filter-shape flags of `filter` and `serve`. With `--subscribers`
/// they are every tenant's defaults, which a spec line's `key=value`
/// tokens override for that subscriber only.
#[derive(Clone)]
struct FilterFlags {
    fail_mode: FailMode,
    low: f64,
    high: f64,
    vector_bits: u32,
    vectors: usize,
    rotate_secs: f64,
    hashes: usize,
    hole_punching: bool,
}

impl FilterFlags {
    fn of(args: &Args) -> Result<Self, CliError> {
        Ok(Self {
            fail_mode: match args.value("fail-mode", "--fail-mode expects `open` or `closed`")? {
                None => FailMode::Closed,
                Some(v) => FailMode::parse(&v).ok_or_else(|| {
                    usage(format!("--fail-mode expects `open` or `closed`, got {v:?}"))
                })?,
            },
            low: args.parse_num("low-mbps", 0.0).map_err(usage)?,
            high: args.parse_num("high-mbps", 0.0).map_err(usage)?,
            vector_bits: args.parse_num("vector-bits", 20u32).map_err(usage)?,
            vectors: args.parse_num("vectors", 4usize).map_err(usage)?,
            rotate_secs: args.parse_num("rotate-secs", 5.0f64).map_err(usage)?,
            hashes: args.parse_num("hashes", 3usize).map_err(usage)?,
            hole_punching: args.has("hole-punching"),
        })
    }

    fn build(&self, seed: Option<u64>) -> Result<BitmapFilterConfig, String> {
        let mut builder = BitmapFilterConfig::builder();
        builder
            .vector_bits(self.vector_bits)
            .vectors(self.vectors)
            .rotate_every_secs(self.rotate_secs)
            .hash_functions(self.hashes)
            .hole_punching(self.hole_punching)
            .fail_mode(self.fail_mode);
        if let Some(seed) = seed {
            builder.rng_seed(seed);
        }
        if self.high > 0.0 {
            builder.drop_policy(
                DropPolicy::new(self.low * 1e6, self.high * 1e6).map_err(|e| e.to_string())?,
            );
        }
        builder.build().map_err(|e| e.to_string())
    }
}

/// One parsed `--subscribers` spec line.
struct TenantSpec {
    name: String,
    cidr: Cidr,
    config: BitmapFilterConfig,
}

fn parse_spec_field<T: std::str::FromStr>(
    key: &str,
    value: &str,
    lineno: usize,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value
        .parse()
        .map_err(|e| format!("line {lineno}: {key}={value:?}: {e}"))
}

/// Parses a subscriber spec: one subscriber per line, `CIDR [key=value
/// ...]`, `#` starts a comment. Keys: `name`, `low-mbps`, `high-mbps`,
/// `vector-bits`, `vectors`, `rotate-secs`, `hashes`, `hole-punching`,
/// `seed`.
fn parse_subscriber_spec(text: &str, defaults: &FilterFlags) -> Result<Vec<TenantSpec>, String> {
    let mut specs = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let Some(cidr_token) = tokens.next() else {
            continue;
        };
        let cidr: Cidr = cidr_token
            .parse()
            .map_err(|e| format!("line {lineno}: {cidr_token:?}: {e}"))?;
        let mut tenant = defaults.clone();
        let mut name = cidr_token.to_owned();
        let mut seed = None;
        for token in tokens {
            let Some((key, value)) = token.split_once('=') else {
                return Err(format!("line {lineno}: expected key=value, got {token:?}"));
            };
            match key {
                "name" => name = value.to_owned(),
                "low-mbps" => tenant.low = parse_spec_field(key, value, lineno)?,
                "high-mbps" => tenant.high = parse_spec_field(key, value, lineno)?,
                "vector-bits" => tenant.vector_bits = parse_spec_field(key, value, lineno)?,
                "vectors" => tenant.vectors = parse_spec_field(key, value, lineno)?,
                "rotate-secs" => tenant.rotate_secs = parse_spec_field(key, value, lineno)?,
                "hashes" => tenant.hashes = parse_spec_field(key, value, lineno)?,
                "hole-punching" => tenant.hole_punching = parse_spec_field(key, value, lineno)?,
                "seed" => seed = Some(parse_spec_field::<u64>(key, value, lineno)?),
                other => return Err(format!("line {lineno}: unknown key {other:?}")),
            }
        }
        let config = tenant
            .build(seed)
            .map_err(|e| format!("line {lineno}: {e}"))?;
        specs.push(TenantSpec { name, cidr, config });
    }
    if specs.is_empty() {
        return Err("spec provisions no subscribers".to_owned());
    }
    Ok(specs)
}

/// Opens the `--out` capture, if one was asked for.
fn out_writer(args: &Args) -> Result<Option<PcapWriter<BufWriter<File>>>, CliError> {
    let Some(path) = args.get("out") else {
        return Ok(None);
    };
    let file = File::create(path).map_err(|e| runtime(format!("{path}: {e}")))?;
    let writer =
        PcapWriter::new(BufWriter::new(file), 65_535).map_err(|e| runtime(e.to_string()))?;
    Ok(Some(writer))
}

/// A registry carrying the build-info gauge.
fn new_registry() -> Registry {
    let registry = Registry::new();
    registry.build_info(
        env!("CARGO_PKG_VERSION"),
        option_env!("UPBOUND_GIT_DESCRIBE"),
    );
    registry
}

/// Prints `filter`'s end-of-run summary: `[packets, dropped, blocked
/// connections]` and the uplink bits offered and kept over the trace
/// `span`, first packet to watermark.
fn print_summary(
    [packets, dropped, blocked]: [u64; 3],
    (offered, kept): (u64, u64),
    span: TimeDelta,
) {
    let span = span.as_secs_f64().max(1e-9);
    let percent = dropped as f64 / packets.max(1) as f64 * 100.0;
    println!("{packets} packets; dropped {dropped} ({percent:.2}%); blocked {blocked} connections");
    println!(
        "uplink: {:.2} Mbps offered -> {:.2} Mbps after filtering",
        offered as f64 / span / 1e6,
        kept as f64 / span / 1e6
    );
}

/// Writes the packets the filter passed to the `--out` capture, if any.
fn write_passed(
    writer: &mut Option<PcapWriter<BufWriter<File>>>,
    packets: &[(Packet, Direction)],
    verdicts: &[Verdict],
) -> Result<(), NetError> {
    let Some(writer) = writer else {
        return Ok(());
    };
    for ((packet, _), verdict) in packets.iter().zip(verdicts) {
        if *verdict == Verdict::Pass {
            writer.write_packet(packet)?;
        }
    }
    Ok(())
}

fn tenant_state_label(state: SubscriberState) -> &'static str {
    match state {
        SubscriberState::Dormant => "dormant",
        SubscriberState::Parked => "parked",
        SubscriberState::Active => "active",
    }
}

/// Prints the per-tenant columns appended to interval reports and to the
/// end-of-run summary.
fn print_tenant_table(table: &SubscriberTable<BitmapFilter>) {
    println!(
        "    {:<16} {:<18} {:>8} {:>9} {:>9} {:>8} {:>9}",
        "subscriber", "prefix", "state", "out", "in", "dropped", "mem KiB"
    );
    for id in 0..table.len() {
        let name = table.subscriber_name(id).unwrap_or("?");
        let prefix = table
            .subscriber_cidr(id)
            .map(|c| c.to_string())
            .unwrap_or_default();
        let state = table
            .subscriber_state(id)
            .map(tenant_state_label)
            .unwrap_or("?");
        let stats = table.subscriber_stats(id).unwrap_or_default();
        let mem = table.subscriber_memory_bytes(id).unwrap_or(0);
        println!(
            "    {:<16} {:<18} {:>8} {:>9} {:>9} {:>8} {:>9}",
            name,
            prefix,
            state,
            stats.outbound_packets,
            stats.inbound_packets,
            stats.dropped,
            mem / 1024
        );
    }
}

/// `filter --subscribers <SPEC>`: a multi-tenant [`SubscriberTable`], one
/// tenant per spec line, for `serve_with` to decide through instead of a
/// shard bank. Classification is longest prefix match over the spec's
/// CIDRs; tenant filters materialize lazily on first packet and (with
/// `--evict-idle`) recycle their bit storage through the shared arena
/// while idle.
fn tenant_bank(
    args: &Args,
    spec_path: &str,
    dataplane: &Dataplane,
) -> Result<TenantBank, CliError> {
    let defaults = &dataplane.flags;
    if defaults.fail_mode == FailMode::Open {
        return Err(usage(
            "--fail-mode open cannot be combined with --subscribers \
             (idle tenants park only when their bitmaps are provably empty)",
        ));
    }
    let spec_text =
        std::fs::read_to_string(spec_path).map_err(|e| runtime(format!("{spec_path}: {e}")))?;
    let specs = parse_subscriber_spec(&spec_text, defaults)
        .map_err(|e| usage(format!("--subscribers {spec_path}: {e}")))?;

    let mut table = SubscriberTable::new();
    let mut stale_after = TimeDelta::ZERO;
    for spec in &specs {
        stale_after = stale_after.max(spec.config.expiry_timer());
        table
            .add_named_subscriber(&spec.name, spec.cidr, spec.config.clone())
            .map_err(|e| usage(format!("--subscribers {spec_path}: {}: {e}", spec.cidr)))?;
    }
    if args.has("evict-idle") {
        table.evict_idle_after(TimeDelta::from_secs(args.secs("evict-idle", 0.0, false)?));
    }
    println!(
        "subscriber table: {} provisioned, defaults {{{} x 2^{}}}, T_e = {:.0} s default{}",
        table.len(),
        defaults.vectors,
        defaults.vector_bits,
        defaults.rotate_secs * defaults.vectors as f64,
        if args.has("evict-idle") {
            ", idle eviction on"
        } else {
            ""
        }
    );
    Ok(TenantBank::new(table, stale_after))
}

/// The flags `filter` and `serve` share, parsed once: the filter shape,
/// the shard bank, batching, the overload ladder, checkpointing and the
/// fault plan.
struct Dataplane {
    inside: Cidr,
    flags: FilterFlags,
    config: BitmapFilterConfig,
    shards: usize,
    batch_size: usize,
    overload: OverloadPolicy,
    checkpoint: Option<String>,
    checkpoint_interval: f64,
    fault_plan: FaultPlan,
}

impl Dataplane {
    fn parse(args: &Args) -> Result<Self, CliError> {
        let inside = inside_of(args).map_err(usage)?;
        let flags = FilterFlags::of(args)?;
        let config = flags.build(None).map_err(usage)?;
        let shards: usize = args.parse_num("shards", 1usize).map_err(usage)?;
        if shards == 0 {
            return Err(usage("--shards expects at least 1"));
        }
        // Default matches the batch_throughput bench's sweet spot; 1
        // decides one packet at a time.
        let batch_size: usize = args.parse_num("batch-size", 64usize).map_err(usage)?;
        if batch_size == 0 {
            return Err(usage("--batch-size expects at least 1"));
        }
        let overload = match args.value(
            "overload-policy",
            "--overload-policy expects off|balanced|strict[,key=value...]",
        )? {
            None => OverloadPolicy::off(),
            Some(spec) => OverloadPolicy::parse(&spec)
                .map_err(|e| usage(format!("--overload-policy: {e}")))?,
        };
        let checkpoint = args.value("checkpoint", "--checkpoint requires a file path")?;
        let checkpoint_interval = args.secs("checkpoint-interval", 30.0, true)?;
        if args.has("checkpoint-interval") && checkpoint.is_none() {
            return Err(usage("--checkpoint-interval requires --checkpoint <FILE>"));
        }
        let fault_plan = args.value(
            "fault-plan",
            "--fault-plan expects `none` or key=value fields (seed, corrupt, reorder, skew, \
             skew-secs, panics, ckpt)",
        )?;
        let fault_plan = fault_plan
            .as_deref()
            .map(FaultPlan::parse)
            .transpose()
            .map_err(|e| usage(format!("--fault-plan: {e}")))?
            .unwrap_or_else(FaultPlan::none);
        Ok(Self {
            inside,
            flags,
            config,
            shards,
            batch_size,
            overload,
            checkpoint,
            checkpoint_interval,
            fault_plan,
        })
    }

    /// The runner these flags describe.
    fn runner(&self) -> PipelineRunner {
        let mut runner = PipelineRunner::new(self.inside, self.config.clone())
            .shards(self.shards)
            .overload_policy(self.overload.clone())
            .pipeline_config(PipelineConfig {
                batch_size: self.batch_size,
            });
        if let Some(path) = &self.checkpoint {
            runner = runner.checkpoint(path, TimeDelta::from_secs(self.checkpoint_interval));
        }
        runner.fault_plan(self.fault_plan.clone())
    }

    /// Opens the `--in` capture. A fault plan needs the whole stream to
    /// distort it, and `looped` replays it from memory, so both buffer
    /// the capture; otherwise it streams.
    fn open_capture(
        &self,
        path: &str,
        policy: RecoveryPolicy,
        looped: bool,
    ) -> Result<Box<dyn PacketSource>, CliError> {
        let file = File::open(path).map_err(|e| runtime(format!("{path}: {e}")))?;
        let mut reader = PcapReader::with_policy(BufReader::new(file), policy)
            .map_err(|e| runtime(e.to_string()))?;
        let plan = &self.fault_plan;
        if plan.is_none() {
            let mut pcap = PcapSource::new(reader, self.inside);
            if !looped {
                return Ok(Box::new(pcap));
            }
            let buffered = BufferedSource::drain(&mut pcap).map_err(|e| runtime(e.to_string()))?;
            return Ok(Box::new(buffered.looped(true)));
        }
        let packets = reader.read_all().map_err(|e| runtime(e.to_string()))?;
        let (packets, distortion) = plan.distort_stream(packets);
        println!(
            "fault plan armed (seed {}): corrupted {} packet(s), {} reorder burst(s), \
             {} skewed packet(s)",
            plan.seed(),
            distortion.corrupted,
            distortion.reorder_bursts,
            distortion.skewed
        );
        let labeled = packets
            .into_iter()
            .map(|p| {
                let direction = self.inside.direction_of(&p.tuple());
                (p, direction)
            })
            .collect();
        Ok(Box::new(
            BufferedSource::new(labeled, *reader.stats()).looped(looped),
        ))
    }

    /// Prints what the shard supervisor caught, when it caught anything.
    fn report_supervisor(report: &ServeReport) {
        let supervisor = &report.supervisor;
        if supervisor.panics > 0 {
            println!(
                "shard supervisor: {} panic(s) caught, {} shard(s) restarted",
                supervisor.panics, supervisor.restarts
            );
        }
    }

    /// Prints how `serve` restored from and wrote the checkpoint file of
    /// its shard bank, or of `tenants`.
    fn report_checkpoints(&self, report: &ServeReport, tenants: Option<&SubscriberTable>) {
        let Some(path) = &self.checkpoint else {
            return;
        };
        let (state, cold) = match tenants {
            Some(_) => ("subscriber table", "tenants start cold"),
            None => ("filter state", "bitmap started cold"),
        };
        match report.restored {
            Some(RestoreOutcome::Warm) => println!("restored warm {state} from checkpoint {path}"),
            Some(RestoreOutcome::Cold) => {
                println!("checkpoint {path} is older than T_e; restored statistics, {cold}")
            }
            None => {}
        }
        if report.packets > 0 {
            let written = report.checkpoints_written;
            match tenants {
                Some(table) => println!(
                    "wrote final checkpoint to {path} ({written} checkpoint(s), \
                     {} tenant(s) serialized)",
                    table.last_checkpoint_tenants()
                ),
                None => {
                    println!("wrote final checkpoint to {path} ({written} checkpoint(s) total)")
                }
            }
        }
    }
}

/// Writes a flight-recorder dump for SIGUSR1.
fn dump_on_signal(flight: &FlightRecorder) {
    match flight.dump_now(DumpTrigger::Signal) {
        Ok(Some(path)) => println!("SIGUSR1: wrote flight dump to {}", path.display()),
        Ok(None) => eprintln!("SIGUSR1 received, but no --flight-dump path configured"),
        Err(e) => eprintln!("SIGUSR1: flight dump failed: {e}"),
    }
}

/// `filter`'s view of its capture. Between batches it services SIGUSR1
/// dumps, and it reports end-of-stream once SIGINT/SIGTERM arrives, so
/// `serve` shuts down through its normal path (final checkpoint
/// included). With `--metrics-interval` it ends a batch before the first
/// packet at or past the next boundary and prints the report at the
/// next poll, when `serve` has decided exactly the packets before it.
/// Boundaries are multiples of the interval, the first one after the
/// first packet, as for `serve`'s checkpoints.
struct FilterSource<'a> {
    inner: Box<dyn PacketSource>,
    ahead: Vec<(Packet, Direction)>,
    /// `--metrics-interval`, when reports are on.
    interval: Option<TimeDelta>,
    /// The first packet's timestamp, once one is read.
    first: Option<Timestamp>,
    next_report: Option<Timestamp>,
    prev_snapshot: Snapshot,
    registry: &'a Registry,
    flight: &'a FlightRecorder,
    /// Set with `--trace-latency`: times every read of the capture.
    read_latency: Option<&'a IngestTelemetry>,
    /// Set with `--subscribers`.
    tenants: Option<TenantView<'a>>,
    interrupted: bool,
}

/// The subscriber table `serve` decides through, as `filter` sees it:
/// its classifier labels every packet's direction, and every report
/// publishes and lists its tenants.
struct TenantView<'a> {
    bank: &'a TenantBank,
    classifier: SubscriberClassifier,
    telemetry: SubscriberTelemetry,
}

impl TenantView<'_> {
    fn publish(&mut self) {
        self.telemetry.publish(&self.bank.table());
    }
}

impl FilterSource<'_> {
    fn report(&mut self, boundary: Timestamp, t: Timestamp, every: TimeDelta) {
        if let Some(tenants) = &mut self.tenants {
            tenants.publish();
        }
        let snapshot = self.registry.snapshot();
        println!("--- metrics @ t={:.1}s ---", boundary.as_secs_f64());
        print!(
            "{}",
            export::human::render(&snapshot, Some((&self.prev_snapshot, every.as_secs_f64())))
        );
        if let Some(tenants) = &self.tenants {
            print_tenant_table(&tenants.bank.table());
        }
        self.prev_snapshot = snapshot;
        self.next_report = Some(next_boundary(boundary, t, every));
    }
}

impl PacketSource for FilterSource<'_> {
    fn next_batch(
        &mut self,
        out: &mut Vec<(Packet, Direction)>,
        max: usize,
    ) -> Result<SourcePoll, NetError> {
        if signals::interrupted() {
            self.interrupted = true;
            return Ok(SourcePoll::End);
        }
        if signals::dump_requested() {
            dump_on_signal(self.flight);
        }
        if self.ahead.is_empty() {
            let started = self.read_latency.map(|t| (t, Instant::now()));
            let poll = self.inner.next_batch(&mut self.ahead, max)?;
            if let Some((telemetry, started)) = started {
                telemetry.record_read_latency(started.elapsed());
            }
            if let SourcePoll::End | SourcePoll::Idle = poll {
                return Ok(poll);
            }
            if let Some(tenants) = &self.tenants {
                for (packet, direction) in &mut self.ahead {
                    *direction = tenants.classifier.direction_of(packet);
                }
            }
            if self.first.is_none() {
                self.first = self.ahead.first().map(|(packet, _)| packet.ts());
                self.next_report = self
                    .first
                    .zip(self.interval)
                    .map(|(first, every)| next_boundary(Timestamp::ZERO, first, every));
            }
        }
        let mut n = 0;
        while n < self.ahead.len().min(max) {
            let t = self.ahead[n].0.ts();
            match self.next_report.zip(self.interval) {
                Some((boundary, _)) if t >= boundary && n > 0 => break,
                Some((boundary, every)) if t >= boundary => self.report(boundary, t, every),
                _ => n += 1,
            }
        }
        out.extend(self.ahead.drain(..n));
        Ok(SourcePoll::Batch(n))
    }

    fn stats(&self) -> IngestStats {
        self.inner.stats()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// `upbound filter` — `serve` without a listener over a finite capture:
/// [`PipelineRunner::serve_with`] decides every packet through a bank of
/// observed shards ([`PipelineRunner::serve_observed`]), or with
/// `--subscribers` through a subscriber table, with the
/// blocked-connection store on unless `--no-block`, and writes the
/// passed packets to `--out`. The CLI adds the shards' observers,
/// interval reports, SIGUSR1 dumps, the `/metrics` endpoint and the
/// end-of-run summary.
fn cmd_filter(args: &Args) -> Result<Outcome, CliError> {
    let subscribers = args.value("subscribers", "--subscribers requires a spec file path")?;
    if subscribers.is_some() {
        for flag in [
            "inside",
            "shards",
            "metrics-addr",
            "flight-dump",
            "trace-latency",
            "serve-grace",
            "overload-policy",
            "fault-plan",
        ] {
            if args.has(flag) {
                return Err(usage(format!(
                    "--{flag} cannot be combined with --subscribers"
                )));
            }
        }
    } else if args.has("evict-idle") {
        return Err(usage("--evict-idle requires --subscribers <SPEC>"));
    }
    let in_path = args
        .get("in")
        .ok_or_else(|| usage("filter requires --in <FILE>"))?;
    let dataplane = Dataplane::parse(args)?;
    let metrics = metrics_sink(args).map_err(usage)?;
    let metrics_interval = args.secs("metrics-interval", 0.0, false)?;
    let metrics_addr = args.value("metrics-addr", "--metrics-addr expects <HOST:PORT>")?;
    let flight_dump = args.value("flight-dump", "--flight-dump requires a file path")?;
    let serve_grace = args.secs("serve-grace", 0.0, false)?;
    if serve_grace > 0.0 && metrics_addr.is_none() {
        return Err(usage("--serve-grace requires --metrics-addr <HOST:PORT>"));
    }
    let policy = recovery_policy_of(args).map_err(usage)?;
    let tenants = subscribers
        .map(|spec| tenant_bank(args, &spec, &dataplane))
        .transpose()?;
    let (config, shards) = (&dataplane.config, dataplane.shards);
    if tenants.is_none() {
        let mut banner = format!(
            "bitmap filter: {{{} x 2^{}}} = {} KiB, T_e = {:.0} s, m = {}",
            config.vectors(),
            config.vector_bits(),
            config.memory_bytes() / 1024,
            config.expiry_timer().as_secs_f64(),
            config.hash_functions(),
        );
        if shards > 1 {
            banner += &format!(", {shards} shards");
        }
        if config.fail_mode() == FailMode::Open {
            banner += ", fail-open";
        }
        if dataplane.overload.enabled() {
            banner += ", overload ladder armed";
        }
        println!("{banner}");
    }
    let registry = new_registry();
    // The black box rides along on every run (it is just a pair of ring
    // buffers); only --flight-dump gives it somewhere to land. Dumps
    // fire on panic, on SIGUSR1, and — fail-open deployments' scariest
    // moment — when a degraded filter arms.
    let flight = FlightRecorder::default();
    flight.attach_registry(registry.clone());
    flight.set_meta("input", in_path);
    flight.set_meta("shards", &shards.to_string());
    flight.set_meta("fail_mode", dataplane.config.fail_mode().label());
    flight.set_dump_on_armed(true);
    if let Some(path) = &flight_dump {
        flight.set_dump_path(path);
        let hook_flight = flight.clone();
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let _ = hook_flight.dump_now(DumpTrigger::Panic);
            previous(info);
        }));
    }
    let health = HealthState::new();
    health.set_fail_mode(dataplane.config.fail_mode().label());

    let server = match &metrics_addr {
        Some(addr) => {
            let server = MetricsServer::start(addr, registry.clone(), health.clone())
                .map_err(|e| runtime(format!("--metrics-addr {addr}: {e}")))?;
            println!(
                "serving /metrics and /health on http://{}",
                server.local_addr()
            );
            Some(server)
        }
        None => None,
    };

    let ingest_metrics = IngestTelemetry::register(&registry);
    let trace_latency = args.has("trace-latency");
    let mut source = FilterSource {
        inner: dataplane.open_capture(in_path, policy, false)?,
        ahead: Vec::new(),
        interval: (metrics_interval > 0.0).then(|| TimeDelta::from_secs(metrics_interval)),
        first: None,
        next_report: None,
        prev_snapshot: registry.snapshot(),
        registry: &registry,
        flight: &flight,
        read_latency: trace_latency.then_some(&ingest_metrics),
        tenants: tenants.as_ref().map(|bank| TenantView {
            bank,
            classifier: bank.table().classifier(),
            telemetry: SubscriberTelemetry::new(registry.clone()),
        }),
        interrupted: false,
    };
    let mut writer = out_writer(args)?;
    let runner = dataplane
        .runner()
        .block_connections(!args.has("no-block"))
        .observability(PipelineObservability {
            supervisor: tenants
                .is_none()
                .then(|| SupervisorTelemetry::new(&registry)),
            tracer: trace_latency.then(|| StageTracer::new(&registry, "cli")),
            flight: Some(flight.clone()),
            health: Some(health.clone()),
        });
    let control = ServeControl::new().with_telemetry(&registry);
    let sink = |packets: &[(Packet, Direction)], verdicts: &[Verdict]| {
        write_passed(&mut writer, packets, verdicts)
    };
    let served = match &tenants {
        Some(bank) => runner.serve_with(bank, &mut source, &control, sink),
        // The shards' observers publish into one registry: `counter()`
        // is get-or-create, so they merge into one set of metrics.
        None => runner.serve_observed(
            || {
                TelemetryObserver::with_default_journal(&registry, "core")
                    .with_flight_recorder(flight.clone())
            },
            &mut source,
            &control,
            sink,
        ),
    };
    let report = served.map_err(|e| runtime(e.to_string()))?;
    let mut outcome = if source.interrupted {
        Outcome::Interrupted
    } else {
        Outcome::Done
    };
    if let Some(w) = writer {
        w.finish().map_err(|e| runtime(e.to_string()))?;
    }
    ingest_metrics.publish(&report.ingest);
    report_skips(&report.ingest);
    let table = tenants.as_ref().map(TenantBank::table);
    dataplane.report_checkpoints(&report, table.as_deref());
    Dataplane::report_supervisor(&report);

    print_summary(
        [report.packets, report.dropped, report.blocked_connections],
        (report.uplink_offered_bits, report.uplink_kept_bits),
        report
            .watermark
            .saturating_since(source.first.unwrap_or(report.watermark)),
    );
    if let Some(table) = &table {
        let (reuses, fresh) = table.arena_counters();
        println!(
            "subscribers: {} active / {} provisioned; {} B resident, {} B pooled \
             (arena: {} reuse(s), {} fresh); {} outbound drop anomaly(ies)",
            table.active_subscribers(),
            table.len(),
            table.memory_bytes(),
            table.arena_pooled_bytes(),
            reuses,
            fresh,
            table.outbound_drop_anomalies()
        );
        print_tenant_table(table);
    }
    if let Some((path, format)) = &metrics {
        if let Some(tenants) = &mut source.tenants {
            tenants.publish();
        }
        write_metrics(path, format, &registry.snapshot()).map_err(runtime)?;
    }

    // Keep the HTTP endpoint up through the grace window so scrapers
    // (and the CI smoke test) can read the final state of a short
    // replay; a signal ends the wait early.
    if let Some(server) = server {
        if serve_grace > 0.0 && outcome == Outcome::Done {
            let deadline = Instant::now() + Duration::from_secs_f64(serve_grace);
            while Instant::now() < deadline {
                if signals::interrupted() {
                    outcome = Outcome::Interrupted;
                    break;
                }
                if signals::dump_requested() {
                    dump_on_signal(&flight);
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        server.shutdown();
    }
    if flight.dumps_written() > 0 {
        if let Some(path) = &flight_dump {
            println!(
                "flight recorder wrote {} dump(s) to {path}",
                flight.dumps_written()
            );
        }
    }
    Ok(outcome)
}

/// `upbound debug <read-dump|parse-metrics> <FILE>` — operator tooling/// `upbound debug <read-dump|parse-metrics> <FILE>` — operator tooling
/// over the observability artifacts.
fn cmd_debug(rest: &[String]) -> Result<(), CliError> {
    let (sub, path) = match rest {
        [sub, path] => (sub.as_str(), path.as_str()),
        _ => {
            return Err(usage(
                "debug expects `read-dump <FILE>` or `parse-metrics <FILE>`",
            ))
        }
    };
    if !matches!(sub, "read-dump" | "parse-metrics") {
        return Err(usage(format!(
            "unknown debug subcommand {sub:?} (expected read-dump or parse-metrics)"
        )));
    }
    let text = std::fs::read_to_string(path).map_err(|e| runtime(format!("{path}: {e}")))?;
    match sub {
        "read-dump" => {
            let dump = FlightRecorder::parse(&text)
                .map_err(|e| runtime(format!("{path}: invalid dump: {e}")))?;
            println!("flight-recorder dump: {path}");
            println!("trigger: {}", dump.trigger.label());
            if !dump.meta.is_empty() {
                println!("\nmetadata:");
                for (k, v) in &dump.meta {
                    println!("  {k} = {v}");
                }
            }
            if !dump.shards.is_empty() {
                println!("\nshards:");
                for s in &dump.shards {
                    println!(
                        "  shard {:<3} {} panics={} restarts={}",
                        s.shard,
                        if s.quarantined {
                            "QUARANTINED"
                        } else {
                            "healthy"
                        },
                        s.panics,
                        s.restarts
                    );
                }
            }
            println!(
                "\nevents: {} retained of {} recorded ({} overwritten)",
                dump.events.len(),
                dump.events_total,
                dump.events_total - dump.events.len() as u64
            );
            for e in &dump.events {
                println!("  {e}");
            }
            println!(
                "\ndrop forensics: {} retained of {} recorded",
                dump.forensics.len(),
                dump.forensics_total
            );
            for f in &dump.forensics {
                println!("  {}", f.describe());
            }
            match &dump.metrics {
                Some(snapshot) => {
                    println!("\nmetrics at dump time:");
                    print!("{}", export::human::render(snapshot, None));
                }
                None => println!("\n(no metrics snapshot embedded)"),
            }
            Ok(())
        }
        "parse-metrics" => {
            let snapshot = export::prometheus::parse(&text)
                .map_err(|e| runtime(format!("{path}: invalid Prometheus exposition: {e}")))?;
            println!(
                "{path}: valid Prometheus exposition ({} metric(s))",
                snapshot.samples.len()
            );
            Ok(())
        }
        _ => unreachable!("subcommand validated above"),
    }
}

/// Parses a `POST /config` body into [`RuntimeOverrides`]. The format
/// mirrors the CLI flags: `key=value` pairs separated by newlines or
/// `&` (commas stay available to `overload-policy` specs). Keys:
/// `low-mbps` + `high-mbps` (both together swap the P_d curve),
/// `fail-mode`, `batch-size`, `overload-policy`.
fn parse_overrides(body: &str) -> Result<RuntimeOverrides, String> {
    let mut overrides = RuntimeOverrides::default();
    let mut low: Option<f64> = None;
    let mut high: Option<f64> = None;
    for token in body.split(['\n', '&']) {
        let token = token.trim();
        if token.is_empty() {
            continue;
        }
        let Some((key, value)) = token.split_once('=') else {
            return Err(format!("expected key=value, got {token:?}"));
        };
        let (key, value) = (key.trim(), value.trim());
        match key {
            "low-mbps" => {
                low = Some(
                    value
                        .parse()
                        .map_err(|_| format!("low-mbps expects a number, got {value:?}"))?,
                );
            }
            "high-mbps" => {
                high = Some(
                    value
                        .parse()
                        .map_err(|_| format!("high-mbps expects a number, got {value:?}"))?,
                );
            }
            "fail-mode" => {
                overrides.fail_mode = Some(FailMode::parse(value).ok_or_else(|| {
                    format!("fail-mode expects `open` or `closed`, got {value:?}")
                })?);
            }
            "batch-size" => {
                let n: usize = value
                    .parse()
                    .map_err(|_| format!("batch-size expects a number, got {value:?}"))?;
                if n == 0 {
                    return Err("batch-size expects at least 1".to_owned());
                }
                overrides.batch_size = Some(n);
            }
            "overload-policy" => {
                overrides.overload = Some(
                    OverloadPolicy::parse(value).map_err(|e| format!("overload-policy: {e}"))?,
                );
            }
            other => return Err(format!("unknown override key {other:?}")),
        }
    }
    match (low, high) {
        (None, None) => {}
        (Some(l), Some(h)) => {
            overrides.drop_policy =
                Some(DropPolicy::new(l * 1e6, h * 1e6).map_err(|e| e.to_string())?);
        }
        _ => return Err("low-mbps and high-mbps must be staged together".to_owned()),
    }
    if overrides.is_empty() {
        return Err(
            "no overrides in body (keys: low-mbps, high-mbps, fail-mode, batch-size, \
             overload-policy)"
                .to_owned(),
        );
    }
    Ok(overrides)
}

/// `upbound serve` — the long-lived dataplane: one [`PacketSource`]
/// (pcap replay, optionally looped, or AF_PACKET live capture) feeding
/// [`PipelineRunner::serve`], with the control plane (`POST /config`,
/// `POST /drain`) riding on the metrics listener.
fn cmd_serve(args: &Args) -> Result<Outcome, CliError> {
    let in_path = args.value("in", "--in requires a file path")?;
    let live_iface = args.value("live", "--live requires an interface name")?;
    match (&in_path, &live_iface) {
        (Some(_), Some(_)) => {
            return Err(usage(
                "serve takes either --in <FILE> or --live <IFACE>, not both",
            ))
        }
        (None, None) => return Err(usage("serve requires --in <FILE> or --live <IFACE>")),
        _ => {}
    }
    if args.has("loop") && in_path.is_none() {
        return Err(usage(
            "--loop requires --in <FILE> (a live capture never ends)",
        ));
    }
    if args.has("on-corrupt") && in_path.is_none() {
        return Err(usage(
            "--on-corrupt applies to pcap replay; it requires --in <FILE>",
        ));
    }
    if args.has("fault-plan") && live_iface.is_some() {
        return Err(usage(
            "--fault-plan is replay-only: faults are injected by distorting the \
             buffered stream, which is impossible on a live interface — drop \
             --live or drop --fault-plan",
        ));
    }
    let listen = args.value("listen", "--listen expects <HOST:PORT>")?;
    let dataplane = Dataplane::parse(args)?;
    let policy = recovery_policy_of(args).map_err(usage)?;

    let registry = new_registry();
    let health = HealthState::new();
    health.set_fail_mode(dataplane.config.fail_mode().label());
    let runner = dataplane.runner().observability(PipelineObservability {
        supervisor: Some(SupervisorTelemetry::new(&registry)),
        health: Some(health.clone()),
        ..PipelineObservability::default()
    });
    let control = ServeControl::new().with_telemetry(&registry);

    let server = match &listen {
        Some(addr) => {
            let handler_control = control.clone();
            let handler: ControlHandler = Arc::new(move |path: &str, body: &str| match path {
                "/config" => match parse_overrides(body) {
                    Ok(overrides) => {
                        let generation = handler_control.stage(overrides);
                        ControlResponse::ok(format!(
                            "{{\"staged\":true,\"generation\":{generation}}}"
                        ))
                    }
                    Err(e) => ControlResponse::bad_request(format!("{{\"error\":{e:?}}}")),
                },
                "/drain" => {
                    handler_control.request_drain();
                    ControlResponse {
                        status: 202,
                        body: "{\"draining\":true}".to_owned(),
                    }
                }
                other => ControlResponse::not_found(format!(
                    "{{\"error\":\"unknown control endpoint {other} (try /config or /drain)\"}}"
                )),
            });
            let server =
                MetricsServer::start_with_control(addr, registry.clone(), health.clone(), handler)
                    .map_err(|e| runtime(format!("--listen {addr}: {e}")))?;
            println!("control plane listening on http://{}", server.local_addr());
            Some(server)
        }
        None => {
            println!("no control plane (--listen not set); drain with SIGINT/SIGTERM");
            None
        }
    };

    let mut source: Box<dyn PacketSource> = match (&live_iface, &in_path) {
        (Some(iface), _) => {
            let source = LiveSource::open(LiveConfig::new(iface.clone(), dataplane.inside))
                .map_err(|e| match e {
                    // Actionable setup problems read as usage errors,
                    // per the LiveCaptureError contract.
                    LiveCaptureError::Unsupported { .. }
                    | LiveCaptureError::NoSuchInterface { .. }
                    | LiveCaptureError::PermissionDenied { .. } => usage(e.to_string()),
                    other => runtime(other.to_string()),
                })?;
            println!("serving live capture on {}", source.interface());
            Box::new(source)
        }
        (None, in_path) => {
            let in_path = in_path.as_deref().unwrap_or_default();
            let looped = args.has("loop");
            let source = dataplane.open_capture(in_path, policy, looped)?;
            println!("serving {in_path}{}", if looped { ", looped" } else { "" });
            source
        }
    };

    // serve() owns the calling thread, so a sidecar thread translates
    // the SIGINT/SIGTERM latch into a drain request.
    let watcher_control = control.clone();
    let done = Arc::new(AtomicBool::new(false));
    let watcher_done = Arc::clone(&done);
    let watcher = std::thread::spawn(move || {
        while !watcher_done.load(Ordering::Relaxed) {
            if signals::interrupted() {
                watcher_control.request_drain();
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    });
    let served = runner
        .serve(&mut *source, &control)
        .map_err(|e| runtime(e.to_string()));
    done.store(true, Ordering::Relaxed);
    let _ = watcher.join();
    let report = served?;

    report_skips(&report.ingest);
    dataplane.report_checkpoints(&report, None);
    Dataplane::report_supervisor(&report);
    println!(
        "serve finished ({}): {} packet(s), {} passed, {} dropped, {} reconfig(s) applied, \
         {} checkpoint(s) written",
        match report.exit {
            ServeExit::SourceEnded => "source ended",
            ServeExit::Drained => "drained",
        },
        report.packets,
        report.passed,
        report.dropped,
        report.reconfigs_applied,
        report.checkpoints_written,
    );
    if let Some(server) = server {
        server.shutdown();
    }
    if signals::interrupted() {
        Ok(Outcome::Interrupted)
    } else {
        Ok(Outcome::Done)
    }
}

fn cmd_params(args: &Args) -> Result<Outcome, CliError> {
    let c: f64 = args.parse_num("connections", 15_000.0).map_err(usage)?;
    println!("capacity planning for ~{c:.0} active connections per expiry window\n");
    println!(
        "{:>4} {:>10} {:>8} {:>14} {:>14}",
        "n", "memory", "m*", "penetration", "cap @5%"
    );
    for n in [16u32, 18, 20, 22, 24] {
        let size = 1usize << n;
        let m = (optimal_hash_count(c, size).round() as usize).clamp(1, 8);
        println!(
            "{:>4} {:>7}KiB {:>8} {:>14.6} {:>13.0}K",
            n,
            4 * size / 8 / 1024,
            m,
            penetration_probability(c, size, m),
            max_connections(0.05, size) / 1000.0
        );
    }
    Ok(Outcome::Done)
}
