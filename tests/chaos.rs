//! Deterministic chaos matrix over the fault-injection subsystem.
//!
//! Every run replays the same fixed-seed [`FaultPlan`] combinations —
//! stream corruption, reorder bursts, clock-skew spikes, decide-path
//! panics, checkpoint write failures — against the supervised shard
//! pool of [`PipelineRunner::run`], the live [`PipelineRunner::serve`]
//! loop and a ladder-armed sequential filter, asserting:
//!
//! * the pipeline drains every packet (nothing lost, nothing invented)
//!   and the supervisor accounts for every injected panic with a
//!   matching restart;
//! * **zero solicited Pass→Drop flips**: no inbound packet whose flow
//!   sent an outbound packet within the documented rotation bound
//!   (`⌊(k−1)/2⌋·Δt` of *watermark* time) is ever dropped, whatever the
//!   fault plan does to the stream;
//! * `serve` fed the distorted stream reaches exactly the verdict counts
//!   and filter counters `run` reaches under the same plan, with the
//!   overload ladder off and on — including on a flood heavy enough to
//!   engage the ladder (plans with decide-path panics are left out:
//!   `serve` has no supervisor);
//! * checkpoint I/O faults armed by the plan surface through
//!   [`PipelineRunner::measure`] as errors instead of corrupting state,
//!   and a disarmed plan checkpoints normally.
//!
//! The solicited check is deliberately watermark-relative rather than
//! packet-time-relative: clock-skew spikes legitimately divorce packet
//! timestamps from the filter's watermark-driven rotation schedule, so a
//! packet-time oracle would report false violations. Any plan that fails
//! is written to `target/chaos-failures/<label>.txt` for offline replay
//! (`upbound filter --fault-plan <spec> ...`).

use std::panic::catch_unwind;
use std::path::PathBuf;

use upbound::core::{
    BitmapFilter, BitmapFilterConfig, OverloadPolicy, PacketFilter, SnapshotError, Verdict,
};
use upbound::net::{BufferedSource, Cidr, Direction, FiveTuple, Packet, TimeDelta, Timestamp};
use upbound::sim::{FaultPlan, PipelineRunner, RunnerError, ServeControl, ServeExit};
use upbound::traffic::{attack, generate, AttackConfig, SyntheticTrace, TraceConfig};

/// The fixed-seed plan matrix: each axis alone, then combinations.
const PLANS: &[&str] = &[
    "seed=101,corrupt=25",
    "seed=102,reorder=6",
    "seed=103,skew=3,skew-secs=45",
    "seed=104,panics=2",
    "seed=105,corrupt=15,reorder=4,skew=2,panics=3",
    "seed=106,corrupt=40,reorder=8,skew=4,skew-secs=120,panics=4",
];

fn inside() -> Cidr {
    "10.0.0.0/16".parse().expect("valid cidr")
}

/// Benign client traffic with a mid-trace SYN flood riding on top, so
/// the faults land on a stream that also stresses the overload ladder.
fn chaos_trace() -> SyntheticTrace {
    flood_trace(300.0)
}

/// [`chaos_trace`]'s background under a SYN flood of `rate_per_sec`.
fn flood_trace(rate_per_sec: f64) -> SyntheticTrace {
    let background = generate(
        &TraceConfig::builder()
            .duration_secs(30.0)
            .flow_rate_per_sec(20.0)
            .seed(2007)
            .build()
            .expect("static config is valid"),
    );
    let flood = attack::syn_flood(&AttackConfig {
        seed: 2007,
        start: Timestamp::from_secs(8.0),
        duration: TimeDelta::from_secs(15.0),
        rate_per_sec,
        victim: "10.0.0.9:6881".parse().expect("static addr"),
    });
    attack::merge(vec![background, flood])
}

fn filter_config() -> BitmapFilterConfig {
    BitmapFilterConfig::builder()
        .vector_bits(12)
        .rng_seed(2007)
        .build()
        .expect("static config is valid")
}

fn failure_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("chaos-failures");
    std::fs::create_dir_all(&dir).expect("create failure dir");
    dir
}

/// Runs `f`; on panic, writes the failing plan spec out for offline
/// replay and re-raises with the artifact path.
fn with_plan_artifact(label: &str, spec: &str, f: impl FnOnce() + std::panic::UnwindSafe) {
    if let Err(cause) = catch_unwind(f) {
        let path = failure_dir().join(format!("{label}.txt"));
        std::fs::write(&path, format!("--fault-plan {spec}\n")).expect("write failing plan");
        panic!(
            "chaos plan {label} ({spec}) failed (plan saved to {}): {cause:?}",
            path.display()
        );
    }
}

/// The pipeline-level accounting property for one plan.
fn check_pipeline_accounting(spec: &str, stream: &[Packet]) {
    let plan = FaultPlan::parse(spec).expect("matrix plans parse");
    let result = PipelineRunner::new(inside(), filter_config())
        .shards(4)
        .fault_plan(plan.clone())
        .run(stream.iter().cloned())
        .expect("fault-plan runs never hit config/IO errors");
    // A non-empty plan yields a distortion report; an empty one does
    // not distort the stream at all.
    let report = result.distortion.unwrap_or_default();
    assert_eq!(
        result.pipeline.ingested as usize,
        stream.len(),
        "every packet must be ingested"
    );
    assert_eq!(
        result.pipeline.passed + result.pipeline.dropped,
        result.pipeline.ingested,
        "every packet must get a verdict"
    );
    assert_eq!(
        result.supervisor.panics, result.supervisor.restarts,
        "every injected panic must be caught and the shard rebuilt"
    );
    if plan.panics() > 0 {
        assert!(
            result.supervisor.panics >= 1,
            "a panic-armed plan must actually fire on a {}-packet stream",
            stream.len()
        );
    }
    if plan.is_none() {
        assert_eq!(report, Default::default());
    }
}

/// The zero-solicited-flips property for one plan: replay the distorted
/// stream through a ladder-armed sequential filter and require that no
/// inbound packet whose canonical flow sent an outbound packet within
/// the rotation bound of watermark time is dropped.
fn check_no_solicited_flips(spec: &str, stream: &[Packet]) {
    let plan = FaultPlan::parse(spec).expect("matrix plans parse");
    let (distorted, _) = plan.distort_stream(stream.to_vec());
    let config = filter_config();
    let bound = {
        let floor = (config.vectors() as u32 - 1) / 2;
        TimeDelta::from_micros(config.rotate_every().as_micros() * u64::from(floor))
    };
    let inside = inside();
    let mut filter = BitmapFilter::new(config).with_overload_policy(OverloadPolicy::balanced());
    // Marks keyed by canonical tuple, valued at the *watermark* when the
    // outbound packet was decided — the clock the rotation schedule
    // actually runs on.
    let mut mark_watermark: std::collections::HashMap<FiveTuple, Timestamp> =
        std::collections::HashMap::new();
    let mut watermark = Timestamp::ZERO;
    let mut solicited = 0u64;
    for packet in &distorted {
        let direction = inside.direction_of(&packet.tuple());
        watermark = watermark.max(packet.ts());
        let verdict = filter.decide(packet, direction);
        match direction {
            Direction::Outbound => {
                mark_watermark.insert(packet.tuple().canonical(), watermark);
            }
            Direction::Inbound => {
                let Some(&marked) = mark_watermark.get(&packet.tuple().canonical()) else {
                    continue;
                };
                if watermark.saturating_since(marked) < bound {
                    solicited += 1;
                    assert_eq!(
                        verdict,
                        Verdict::Pass,
                        "solicited flow {:?} flipped to Drop {}us after its mark \
                         (bound {}us) under plan {spec}",
                        packet.tuple(),
                        watermark.saturating_since(marked).as_micros(),
                        bound.as_micros()
                    );
                }
            }
        }
    }
    assert!(
        solicited > 0,
        "the trace must actually exercise solicited inbound traffic"
    );
}

/// The serve-equals-run property for one plan and ladder: `serve` over
/// the plan's distorted stream accounts for every packet and reaches the
/// same verdict counts and filter counters as `run` under the plan.
fn check_serve_matches_run(spec: &str, stream: &[Packet], overload: &OverloadPolicy) {
    let plan = FaultPlan::parse(spec).expect("matrix plans parse");
    let runner = PipelineRunner::new(inside(), filter_config())
        .shards(2)
        .overload_policy(overload.clone());
    let run = runner
        .clone()
        .fault_plan(plan.clone())
        .run(stream.iter().cloned())
        .expect("run never hits config/IO errors");
    let (distorted, _) = plan.distort_stream(stream.to_vec());
    let mut source = BufferedSource::labeled(distorted, inside());
    let served = runner
        .serve(&mut source, &ServeControl::new())
        .expect("serve over a buffered source");
    assert_eq!(served.exit, ServeExit::SourceEnded);
    assert_eq!(served.packets as usize, stream.len(), "every packet served");
    assert_eq!(served.passed + served.dropped, served.packets);
    assert_eq!(served.passed, run.pipeline.passed, "passed: serve vs run");
    assert_eq!(
        served.dropped, run.pipeline.dropped,
        "dropped: serve vs run"
    );
    assert_eq!(
        served.filter_stats, run.pipeline.filter_stats,
        "filter stats: serve vs run"
    );
}

/// Tentpole matrix: every plan upholds both properties, deterministically.
#[test]
fn fixed_seed_fault_matrix_holds_invariants() {
    let trace = chaos_trace();
    let stream: Vec<Packet> = trace.packets.iter().map(|lp| lp.packet.clone()).collect();
    assert!(stream.len() > 5_000, "chaos stream too small");
    for (i, spec) in PLANS.iter().enumerate() {
        with_plan_artifact(&format!("plan-{i}-pipeline"), spec, {
            let stream = stream.clone();
            move || check_pipeline_accounting(spec, &stream)
        });
        with_plan_artifact(&format!("plan-{i}-solicited"), spec, {
            let stream = stream.clone();
            move || check_no_solicited_flips(spec, &stream)
        });
    }
}

/// `serve` and `run` agree under every plan `serve` can take (no
/// decide-path panics: it has no supervisor), with the ladder off and
/// on, on the matrix trace and on a flood heavy enough to engage the
/// ladder.
#[test]
fn serve_matches_run_under_stream_faults() {
    let ladders = [OverloadPolicy::off(), OverloadPolicy::balanced()];
    for (trace_label, trace) in [("chaos", chaos_trace()), ("flood", flood_trace(3_000.0))] {
        let stream: Vec<Packet> = trace.packets.iter().map(|lp| lp.packet.clone()).collect();
        for (i, spec) in PLANS.iter().enumerate() {
            if FaultPlan::parse(spec).expect("matrix plans parse").panics() > 0 {
                continue;
            }
            for (ladder, overload) in ["off", "balanced"].into_iter().zip(&ladders) {
                let label = format!("plan-{i}-serve-{trace_label}-ladder-{ladder}");
                with_plan_artifact(&label, spec, {
                    let stream = stream.clone();
                    let overload = overload.clone();
                    move || check_serve_matches_run(spec, &stream, &overload)
                });
            }
        }
    }
}

/// Checkpoint I/O faults armed by the runner's fault plan surface as
/// [`SnapshotError`] from [`PipelineRunner::measure`], and the same
/// runner with a disarmed plan checkpoints fine.
#[test]
fn checkpoint_faults_surface_and_disarmed_sink_recovers() {
    let trace = chaos_trace();
    let dir = failure_dir().join(format!("ckpt-scratch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("chaos.snap");
    let every = TimeDelta::from_secs(5.0);
    let runner = PipelineRunner::new(inside(), filter_config()).checkpoint(&path, every);

    let armed = FaultPlan::parse("seed=9,ckpt=1").expect("plan parses");
    let err = runner
        .clone()
        .fault_plan(armed)
        .measure(&trace)
        .expect_err("the armed sink must fail the first periodic write");
    assert!(
        matches!(err, RunnerError::Snapshot(SnapshotError::Io(_))),
        "got {err:?}"
    );
    // The plan fails only the first write: had the replay gone on, a
    // later periodic or the final write would have landed.
    assert!(!path.exists(), "the replay must stop at the first failure");

    let disarmed = FaultPlan::parse("none").expect("plan parses");
    let measured = runner
        .fault_plan(disarmed)
        .measure(&trace)
        .expect("a disarmed plan checkpoints normally");
    assert!(
        measured.checkpoints >= 2,
        "a 30s trace at a 5s cadence checkpoints periodically plus once at the end"
    );
    assert!(path.exists(), "the final checkpoint image must exist");
    std::fs::remove_dir_all(&dir).ok();
}
