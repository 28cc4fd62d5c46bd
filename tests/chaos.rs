//! Deterministic chaos matrix over the fault-injection subsystem.
//!
//! Every run replays the same fixed-seed [`FaultPlan`] combinations —
//! stream corruption, reorder bursts, clock-skew spikes, decide-path
//! panics — against the supervised
//! [`PipelineRunner::serve`] loop (fed the plan's distorted stream, as
//! `upbound filter --fault-plan` feeds it) and a ladder-armed
//! sequential filter, asserting:
//!
//! * `serve` gives every packet a verdict (nothing lost, nothing
//!   invented) and its shard supervisor accounts for every injected
//!   panic with a matching restart;
//! * `serve` reproduces, line for line, the verdict counts, filter
//!   counters and supervisor incidents recorded from the threaded shard
//!   pool it replaced, with the overload ladder off and on — including
//!   on a flood heavy enough to engage the ladder, and with a panic in
//!   the middle of a batch of a timestamp-scrambled trace;
//! * **zero solicited Pass→Drop flips**: no inbound packet whose flow
//!   sent an outbound packet within the documented rotation bound
//!   (`⌊(k−1)/2⌋·Δt` of *watermark* time) is ever dropped, whatever the
//!   fault plan does to the stream.
//!
//! Checkpoint write failures (`ckpt=N`) are covered where checkpoints
//! are: `tests/serve.rs::serve_retries_failed_checkpoints_then_disables_them`.
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
    BitmapFilter, BitmapFilterConfig, OverloadPolicy, PacketFilter, TelemetryObserver, Verdict,
};
use upbound::net::{BufferedSource, Cidr, Direction, FiveTuple, Packet, TimeDelta, Timestamp};
use upbound::sim::{
    FaultPlan, PipelineConfig, PipelineRunner, ServeControl, ServeExit, ServeReport,
};
use upbound::telemetry::Registry;
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

/// What the threaded shard pool behind the former `PipelineRunner::run`
/// reported for every (plan, trace, ladder, shards) combination this
/// suite runs, recorded before the pool was deleted. Each line is
/// `label ingested passed dropped`, the merged `FilterStats` (outbound,
/// inbound, hits, misses, dropped, fail-open passes, rotations) and the
/// shard supervisor's panics, restarts and incidents (`shard@watermark`
/// in µs). Every configuration is drop-all, so the pool's output was
/// deterministic. Never re-record these: `serve` must reproduce them.
const GOLDEN: &[&str] = &[
    "plan-0-chaos-ladder-off-shards-4 ingested=27064 passed=22437 dropped=4627 stats=13521/13543/8916/4627/4627/0/6 panics=0 restarts=0 incidents=[]",
    "plan-1-chaos-ladder-off-shards-4 ingested=27064 passed=22643 dropped=4421 stats=13521/13543/9122/4421/4421/0/6 panics=0 restarts=0 incidents=[]",
    "plan-2-chaos-ladder-off-shards-4 ingested=27064 passed=22526 dropped=4538 stats=13521/13543/9005/4538/4538/0/14 panics=0 restarts=0 incidents=[]",
    "plan-3-chaos-ladder-off-shards-4 ingested=27064 passed=26853 dropped=211 stats=13282/13322/8884/4438/192/4246/6 panics=4 restarts=4 incidents=[3@1363991,0@2616925,1@3053858,2@4150882]",
    "plan-4-chaos-ladder-off-shards-4 ingested=27064 passed=26910 dropped=154 stats=13054/13106/8462/4644/119/4525/7 panics=4 restarts=4 incidents=[3@3038001,0@3604953,1@3709737,2@6239132]",
    "plan-5-chaos-ladder-off-shards-4 ingested=27064 passed=26797 dropped=267 stats=13135/13173/8439/4734/226/4508/30 panics=4 restarts=4 incidents=[3@2095150,0@3358952,1@3448086,2@5041001]",
    "plan-0-chaos-ladder-off-shards-2 ingested=27064 passed=23324 dropped=3740 stats=13521/13543/9803/3740/3740/0/6 panics=0 restarts=0 incidents=[]",
    "plan-0-chaos-ladder-balanced-shards-2 ingested=27064 passed=23167 dropped=3897 stats=13521/13543/9646/3897/3897/0/8 panics=0 restarts=0 incidents=[]",
    "plan-1-chaos-ladder-off-shards-2 ingested=27064 passed=23442 dropped=3622 stats=13521/13543/9921/3622/3622/0/6 panics=0 restarts=0 incidents=[]",
    "plan-1-chaos-ladder-balanced-shards-2 ingested=27064 passed=23335 dropped=3729 stats=13521/13543/9814/3729/3729/0/8 panics=0 restarts=0 incidents=[]",
    "plan-2-chaos-ladder-off-shards-2 ingested=27064 passed=23225 dropped=3839 stats=13521/13543/9704/3839/3839/0/14 panics=0 restarts=0 incidents=[]",
    "plan-2-chaos-ladder-balanced-shards-2 ingested=27064 passed=23163 dropped=3901 stats=13521/13543/9642/3901/3901/0/16 panics=0 restarts=0 incidents=[]",
    "plan-3-chaos-ladder-off-shards-2 ingested=27064 passed=26861 dropped=203 stats=13405/13429/9788/3641/190/3451/6 panics=2 restarts=2 incidents=[1@1243134,0@2505335]",
    "plan-3-chaos-ladder-balanced-shards-2 ingested=27064 passed=26798 dropped=266 stats=13405/13429/9679/3750/253/3497/8 panics=2 restarts=2 incidents=[1@1243134,0@2505335]",
    "plan-4-chaos-ladder-off-shards-2 ingested=27064 passed=26887 dropped=177 stats=13285/13327/9378/3949/157/3792/7 panics=2 restarts=2 incidents=[1@1917649,0@3310341]",
    "plan-4-chaos-ladder-balanced-shards-2 ingested=27064 passed=26887 dropped=177 stats=13285/13327/9378/3949/157/3792/7 panics=2 restarts=2 incidents=[1@1917649,0@3310341]",
    "plan-5-chaos-ladder-off-shards-2 ingested=27064 passed=26860 dropped=204 stats=13329/13357/9522/3835/178/3657/30 panics=2 restarts=2 incidents=[1@1624336,0@3078029]",
    "plan-5-chaos-ladder-balanced-shards-2 ingested=27064 passed=26833 dropped=231 stats=13329/13357/9495/3862/205/3657/32 panics=2 restarts=2 incidents=[1@1624336,0@3078029]",
    "plan-0-flood-ladder-off-shards-2 ingested=108064 passed=103133 dropped=4931 stats=54021/54043/49112/4931/4931/0/6 panics=0 restarts=0 incidents=[]",
    "plan-0-flood-ladder-balanced-shards-2 ingested=108064 passed=103060 dropped=5004 stats=54021/54043/49039/5004/5004/0/11 panics=0 restarts=0 incidents=[]",
    "plan-1-flood-ladder-off-shards-2 ingested=108064 passed=103120 dropped=4944 stats=54021/54043/49099/4944/4944/0/6 panics=0 restarts=0 incidents=[]",
    "plan-1-flood-ladder-balanced-shards-2 ingested=108064 passed=103061 dropped=5003 stats=54021/54043/49040/5003/5003/0/11 panics=0 restarts=0 incidents=[]",
    "plan-2-flood-ladder-off-shards-2 ingested=108064 passed=99955 dropped=8109 stats=54021/54043/45934/8109/8109/0/12 panics=0 restarts=0 incidents=[]",
    "plan-2-flood-ladder-balanced-shards-2 ingested=108064 passed=99938 dropped=8126 stats=54021/54043/45917/8126/8126/0/16 panics=0 restarts=0 incidents=[]",
    "plan-3-flood-ladder-off-shards-2 ingested=108064 passed=108051 dropped=13 stats=53905/53929/48968/4961/0/4961/6 panics=2 restarts=2 incidents=[1@1243134,0@2505335]",
    "plan-3-flood-ladder-balanced-shards-2 ingested=108064 passed=108041 dropped=23 stats=53905/53929/48909/5020/10/5010/11 panics=2 restarts=2 incidents=[1@1243134,0@2505335]",
    "plan-4-flood-ladder-off-shards-2 ingested=108064 passed=108036 dropped=28 stats=53785/53827/46883/6944/8/6936/8 panics=2 restarts=2 incidents=[1@1917649,0@3310341]",
    "plan-4-flood-ladder-balanced-shards-2 ingested=108064 passed=108036 dropped=28 stats=53785/53827/46883/6944/8/6936/9 panics=2 restarts=2 incidents=[1@1917649,0@3310341]",
    "plan-5-flood-ladder-off-shards-2 ingested=108064 passed=108022 dropped=42 stats=53829/53857/46573/7284/16/7268/27 panics=2 restarts=2 incidents=[1@1624336,0@3078029]",
    "plan-5-flood-ladder-balanced-shards-2 ingested=108064 passed=107999 dropped=65 stats=53829/53857/41606/12251/39/12212/29 panics=2 restarts=2 incidents=[1@1624336,0@3078029]",
    "scrambled-shards-1 ingested=20983 passed=20858 dropped=125 stats=10424/10444/10097/347/117/230/68 panics=1 restarts=1 incidents=[0@1167430]",
    "scrambled-shards-4 ingested=20983 passed=20887 dropped=96 stats=10232/10291/9945/346/79/267/68 panics=4 restarts=4 incidents=[1@1565391,2@4163952,0@4288144,3@4288144]",
    "scrambled-spiked-shards-1 ingested=20983 passed=20975 dropped=8 stats=10424/10444/10097/347/0/347/68 panics=1 restarts=1 incidents=[0@40001126515]",
    "scrambled-spiked-shards-4 ingested=20983 passed=20962 dropped=21 stats=10232/10291/9945/346/0/346/68 panics=4 restarts=4 incidents=[0@40001547157,1@40001547157,2@40001547157,3@40001547157]",
];

/// The golden line labelled `label`.
fn golden(label: &str) -> &'static str {
    GOLDEN
        .iter()
        .find(|line| line.split(' ').next() == Some(label))
        .unwrap_or_else(|| panic!("no golden line for {label}"))
}

/// `report` in the format of [`GOLDEN`].
fn golden_line(label: &str, report: &ServeReport) -> String {
    let s = &report.filter_stats;
    let sup = &report.supervisor;
    let incidents: Vec<String> = sup
        .incidents
        .iter()
        .map(|i| format!("{}@{}", i.shard, i.at.as_micros()))
        .collect();
    format!(
        "{label} ingested={} passed={} dropped={} stats={}/{}/{}/{}/{}/{}/{} \
         panics={} restarts={} incidents=[{}]",
        report.packets,
        report.passed,
        report.dropped,
        s.outbound_packets,
        s.inbound_packets,
        s.inbound_hits,
        s.inbound_misses,
        s.dropped,
        s.fail_open_passes,
        s.rotations,
        sup.panics,
        sup.restarts,
        incidents.join(",")
    )
}

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

/// `runner` armed with `plan`, serving the plan's distorted `stream` to
/// its end — what `upbound filter --fault-plan` does with a capture.
fn serve_plan(runner: PipelineRunner, plan: &FaultPlan, stream: &[Packet]) -> ServeReport {
    let (distorted, _) = plan.distort_stream(stream.to_vec());
    let mut source = BufferedSource::labeled(distorted, inside());
    let report = runner
        .fault_plan(plan.clone())
        .serve(&mut source, &ServeControl::new())
        .expect("fault-plan runs never hit config/IO errors");
    assert_eq!(report.exit, ServeExit::SourceEnded);
    report
}

/// The accounting property for one plan on four shards: every packet
/// gets a verdict, every injected panic is caught and its shard
/// rebuilt, and the run matches the pool's golden line.
fn check_pipeline_accounting(label: &str, spec: &str, stream: &[Packet]) {
    let plan = FaultPlan::parse(spec).expect("matrix plans parse");
    let runner = PipelineRunner::new(inside(), filter_config()).shards(4);
    let report = serve_plan(runner, &plan, stream);
    assert_eq!(
        report.packets as usize,
        stream.len(),
        "every packet must be served"
    );
    assert_eq!(
        report.passed + report.dropped,
        report.packets,
        "every packet must get a verdict"
    );
    assert_eq!(
        report.supervisor.panics, report.supervisor.restarts,
        "every injected panic must be caught and the shard rebuilt"
    );
    if plan.panics() > 0 {
        assert!(
            report.supervisor.panics >= 1,
            "a panic-armed plan must actually fire on a {}-packet stream",
            stream.len()
        );
    }
    assert_eq!(golden_line(label, &report), golden(label));
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

/// The serve-equals-run property for one plan and ladder on two shards:
/// `serve` over the plan's distorted stream accounts for every packet
/// and reaches the verdict counts, filter counters and supervisor
/// incidents the pool reached under the plan.
fn check_serve_matches_run(label: &str, spec: &str, stream: &[Packet], overload: &OverloadPolicy) {
    let plan = FaultPlan::parse(spec).expect("matrix plans parse");
    let runner = PipelineRunner::new(inside(), filter_config())
        .shards(2)
        .overload_policy(overload.clone());
    let served = serve_plan(runner, &plan, stream);
    assert_eq!(served.packets as usize, stream.len(), "every packet served");
    assert_eq!(served.passed + served.dropped, served.packets);
    assert_eq!(golden_line(label, &served), golden(label));
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
            move || {
                check_pipeline_accounting(
                    &format!("plan-{i}-chaos-ladder-off-shards-4"),
                    spec,
                    &stream,
                )
            }
        });
        with_plan_artifact(&format!("plan-{i}-solicited"), spec, {
            let stream = stream.clone();
            move || check_no_solicited_flips(spec, &stream)
        });
    }
}

/// `serve` reproduces the pool's golden lines under every plan, decide-
/// path panics included, with the ladder off and on, on the matrix
/// trace and on a flood heavy enough to engage the ladder.
#[test]
fn serve_matches_run_under_stream_faults() {
    let ladders = [OverloadPolicy::off(), OverloadPolicy::balanced()];
    for (trace_label, trace) in [("chaos", chaos_trace()), ("flood", flood_trace(3_000.0))] {
        let stream: Vec<Packet> = trace.packets.iter().map(|lp| lp.packet.clone()).collect();
        for (i, spec) in PLANS.iter().enumerate() {
            for (ladder, overload) in ["off", "balanced"].into_iter().zip(&ladders) {
                let label = format!("plan-{i}-serve-{trace_label}-ladder-{ladder}");
                with_plan_artifact(&label, spec, {
                    let stream = stream.clone();
                    let overload = overload.clone();
                    let golden = format!("plan-{i}-{trace_label}-ladder-{ladder}-shards-2");
                    move || check_serve_matches_run(&golden, spec, &stream, &overload)
                });
            }
        }
    }
}

/// The fault schedule belongs to the shard bank, not to its observers:
/// the panic plans served through observing shards (as `upbound filter`
/// serves) give the same verdicts, filter counters and incidents as
/// through `serve`'s no-op shards.
#[test]
fn observers_do_not_move_the_fault_schedule() {
    let trace = chaos_trace();
    let stream: Vec<Packet> = trace.packets.iter().map(|lp| lp.packet.clone()).collect();
    for spec in [PLANS[4], PLANS[5]] {
        let plan = FaultPlan::parse(spec).expect("matrix plans parse");
        let (distorted, _) = plan.distort_stream(stream.clone());
        let runner = PipelineRunner::new(inside(), filter_config())
            .shards(4)
            .fault_plan(plan);
        let control = ServeControl::new();
        let plain = runner
            .serve(
                &mut BufferedSource::labeled(distorted.clone(), inside()),
                &control,
            )
            .expect("serve");
        let registry = Registry::new();
        let observed = runner
            .serve_observed(
                || TelemetryObserver::new(&registry, "core", 256),
                &mut BufferedSource::labeled(distorted, inside()),
                &control,
                |_, _| Ok(()),
            )
            .expect("serve_observed");
        assert!(plain.supervisor.panics >= 1, "{spec} fired no panic");
        assert_eq!(
            (plain.packets, plain.passed, plain.dropped),
            (observed.packets, observed.passed, observed.dropped),
            "{spec}"
        );
        assert_eq!(plain.filter_stats, observed.filter_stats, "{spec}");
        assert_eq!(
            plain.supervisor.incidents, observed.supervisor.incidents,
            "{spec}"
        );
    }
}

/// A shard panic in the middle of a batch, on a trace whose timestamps
/// run backwards within every stride of 7 and jump 40 000 s ahead at the
/// midpoint, at batch sizes 1, 7 and 64. The spiked variant also jumps
/// 40 000 s ahead one packet before the first packet whose decision
/// panics (the incidents' watermark is that spike): a resumed batch that
/// decided the rest of the batch without the spike in its watermark
/// would move the golden line.
#[test]
fn panic_mid_batch_on_nonmonotonic_trace_matches_pool_golden() {
    let mut packets: Vec<Packet> = generate(
        &TraceConfig::builder()
            .duration_secs(30.0)
            .flow_rate_per_sec(20.0)
            .seed(55)
            .build()
            .expect("static config is valid"),
    )
    .packets
    .iter()
    .map(|lp| lp.packet.clone())
    .collect();
    for i in (0..packets.len().saturating_sub(7)).step_by(7) {
        let a = packets[i].ts();
        let b = packets[i + 6].ts();
        packets[i] = packets[i].clone().with_ts(b);
        packets[i + 6] = packets[i + 6].clone().with_ts(a);
    }
    let spike = |packets: &mut [Packet], at: usize| {
        let far = packets[at].ts() + TimeDelta::from_secs(40_000.0);
        packets[at] = packets[at].clone().with_ts(far);
    };
    let mid = packets.len() / 2;
    spike(&mut packets, mid);

    let plan = FaultPlan::parse("seed=104,panics=2").expect("plan parses");
    // The first panic under `plan` hits stream index 114 on one shard
    // and 171 on four.
    for (shards, first_panic) in [(1usize, 114usize), (4, 171)] {
        let mut spiked = packets.clone();
        spike(&mut spiked, first_panic - 1);
        for (trace, stream) in [("scrambled", &packets), ("scrambled-spiked", &spiked)] {
            let label = format!("{trace}-shards-{shards}");
            for batch_size in [1usize, 7, 64] {
                let runner = PipelineRunner::new(inside(), BitmapFilterConfig::paper_evaluation())
                    .shards(shards)
                    .pipeline_config(PipelineConfig { batch_size });
                let report = serve_plan(runner, &plan, stream);
                assert_eq!(
                    golden_line(&label, &report),
                    golden(&label),
                    "batch size {batch_size}"
                );
            }
        }
    }
}
