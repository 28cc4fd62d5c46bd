//! Deterministic fault injection.
//!
//! Robustness claims are only as good as the faults they were tested
//! against, and ad-hoc fault tests rot because their faults are not
//! reproducible. This module makes every injected fault a pure function
//! of a [`FaultPlan`] — a small, seeded description that can be printed,
//! re-run, and attached to a CI artifact when a combination fails.
//!
//! Three injection surfaces, matching the places a real deployment
//! breaks:
//!
//! * **Stream distortion** ([`FaultPlan::distort_stream`]) — payload/
//!   header corruption, reorder bursts, and clock-skew spikes applied to
//!   the packet stream before it reaches any filter. Pure and
//!   deterministic: same plan + same stream → byte-identical output.
//! * **Decide-path faults** ([`FaultingObserver`]) — a
//!   [`FilterObserver`] wrapper that consults a [`PlannedInjector`] per
//!   decided packet and panics on command, exercising the shard
//!   supervisor's quarantine path exactly the way a real shard bug
//!   would.
//! * **Checkpoint I/O faults** ([`CheckpointSink`]) — an injectable
//!   write layer for periodic checkpoints; [`FaultingCheckpointSink`]
//!   fails writes on the injector's schedule, and
//!   `serve` retries them with bounded backoff before giving up on
//!   periodic checkpointing.
//!
//! [`PipelineRunner::fault_plan`](crate::PipelineRunner::fault_plan)
//! arms the last two: [`serve`](crate::PipelineRunner::serve) arms
//! every initial shard with the plan's panics and writes its checkpoints
//! through a sink armed from the same plan. The caller distorts the
//! stream it feeds `serve`. That is what the CI chaos matrix drives.

use std::path::Path;
use upbound_core::{
    snapshot, FilterObserver, InboundDecision, NoopObserver, OverloadEvent, RotationEvent,
    SnapshotError,
};
use upbound_net::{FiveTuple, Packet, TimeDelta, Timestamp};
use upbound_telemetry::Registry;

/// Error parsing a [`FaultPlan`] spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultPlanError {
    /// Not a recognized `key=value` field.
    UnknownField(String),
    /// A field value failed to parse.
    BadValue(String),
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::UnknownField(s) => write!(f, "unknown fault-plan field {s:?}"),
            FaultPlanError::BadValue(s) => write!(f, "bad fault-plan value {s:?}"),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A seeded, reproducible description of every fault to inject.
///
/// All selection decisions derive from `seed` via a splitmix-style hash,
/// so the same plan applied to the same stream injects the same faults —
/// the property the CI chaos matrix and its failure artifacts rely on.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    /// Per-mille probability that any one packet is corrupted.
    corrupt_per_mille: u32,
    /// Number of reorder bursts (a contiguous span replayed reversed).
    reorder_bursts: u32,
    /// Number of clock-skew spikes (a span re-stamped into the future).
    skew_spikes: u32,
    /// Magnitude of each skew spike, seconds.
    skew_secs: f64,
    /// Decide-path panics to inject per armed injector.
    panics: u32,
    /// Checkpoint writes to fail.
    ckpt_errors: u32,
}

/// Packets covered by one reorder burst or skew spike.
const FAULT_SPAN: usize = 16;

/// One decide-path panic is armed roughly every this many packets (the
/// lottery keeps firing until the plan's budget is spent).
const PANIC_STRIDE: u64 = 199;

fn mix(seed: u64, x: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(x.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// The empty plan: nothing is injected anywhere.
    pub fn none() -> Self {
        FaultPlan {
            seed: 7,
            corrupt_per_mille: 0,
            reorder_bursts: 0,
            skew_spikes: 0,
            skew_secs: 30.0,
            panics: 0,
            ckpt_errors: 0,
        }
    }

    /// Parses a CLI spec: `none`, or comma-separated `key=value` fields.
    /// Recognized keys: `seed`, `corrupt` (per-mille), `reorder`
    /// (bursts), `skew` (spikes), `skew-secs`, `panics`, `ckpt`.
    ///
    /// ```
    /// use upbound_sim::FaultPlan;
    /// let plan = FaultPlan::parse("seed=9,corrupt=20,panics=2").unwrap();
    /// assert_eq!(plan.seed(), 9);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a [`FaultPlanError`] for unknown keys or unparsable
    /// values.
    pub fn parse(spec: &str) -> Result<Self, FaultPlanError> {
        let mut plan = FaultPlan::none();
        if spec.trim() == "none" || spec.trim().is_empty() {
            return Ok(plan);
        }
        for part in spec.split(',') {
            let part = part.trim();
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| FaultPlanError::UnknownField(part.to_string()))?;
            let int = |v: &str| -> Result<u32, FaultPlanError> {
                v.trim()
                    .parse()
                    .map_err(|_| FaultPlanError::BadValue(part.to_string()))
            };
            match key.trim() {
                "seed" => {
                    plan.seed = value
                        .trim()
                        .parse()
                        .map_err(|_| FaultPlanError::BadValue(part.to_string()))?
                }
                "corrupt" => plan.corrupt_per_mille = int(value)?.min(1000),
                "reorder" => plan.reorder_bursts = int(value)?,
                "skew" => plan.skew_spikes = int(value)?,
                "skew-secs" => {
                    plan.skew_secs = value
                        .trim()
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| FaultPlanError::BadValue(part.to_string()))?
                }
                "panics" => plan.panics = int(value)?,
                "ckpt" => plan.ckpt_errors = int(value)?,
                other => return Err(FaultPlanError::UnknownField(other.to_string())),
            }
        }
        Ok(plan)
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// `true` when the plan injects nothing at all.
    pub fn is_none(&self) -> bool {
        self.corrupt_per_mille == 0
            && self.reorder_bursts == 0
            && self.skew_spikes == 0
            && self.panics == 0
            && self.ckpt_errors == 0
    }

    /// Checkpoint writes the plan fails.
    pub fn ckpt_errors(&self) -> u32 {
        self.ckpt_errors
    }

    /// Decide-path panics each armed injector fires.
    pub fn panics(&self) -> u32 {
        self.panics
    }

    /// An armed per-instance injector for the decide-path and
    /// checkpoint faults of this plan.
    pub fn injector(&self) -> PlannedInjector {
        PlannedInjector {
            seed: self.seed,
            panics_left: self.panics,
            ckpt_left: self.ckpt_errors,
        }
    }

    /// Applies the plan's stream faults — corruption, reorder bursts,
    /// clock-skew spikes — and reports what was touched. Pure: the same
    /// plan and input always produce the same output.
    pub fn distort_stream(&self, mut packets: Vec<Packet>) -> (Vec<Packet>, DistortionReport) {
        let mut report = DistortionReport::default();
        let n = packets.len();
        if n == 0 {
            return (packets, report);
        }
        if self.corrupt_per_mille > 0 {
            for (i, packet) in packets.iter_mut().enumerate() {
                let draw = mix(self.seed ^ 0xc0_44_u64, i as u64);
                if draw % 1000 < u64::from(self.corrupt_per_mille) {
                    *packet = corrupt_packet(packet, draw);
                    report.corrupted += 1;
                }
            }
        }
        for burst in 0..self.reorder_bursts {
            let start = (mix(self.seed ^ 0x4e_04_u64, u64::from(burst)) as usize) % n;
            let end = (start + FAULT_SPAN).min(n);
            if end - start > 1 {
                packets[start..end].reverse();
                report.reorder_bursts += 1;
            }
        }
        let skew = TimeDelta::from_secs(self.skew_secs);
        for spike in 0..self.skew_spikes {
            let start = (mix(self.seed ^ 0x51_e3_u64, u64::from(spike)) as usize) % n;
            let end = (start + FAULT_SPAN).min(n);
            for packet in &mut packets[start..end] {
                *packet = packet.clone().with_ts(packet.ts() + skew);
                report.skewed += 1;
            }
        }
        (packets, report)
    }
}

/// What [`FaultPlan::distort_stream`] actually touched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistortionReport {
    /// Packets whose header/payload was corrupted.
    pub corrupted: u64,
    /// Reorder bursts applied.
    pub reorder_bursts: u64,
    /// Packets re-stamped by a clock-skew spike.
    pub skewed: u64,
}

/// A corrupted copy of `packet`: the destination port is garbled (a
/// header bit-flip, so the packet lands on a different flow) and one
/// payload byte is flipped when there is one. Wire length is preserved.
fn corrupt_packet(packet: &Packet, draw: u64) -> Packet {
    let tuple = packet.tuple();
    let mut dst = tuple.dst();
    dst.set_port(dst.port() ^ (((draw >> 16) & 0xffff) as u16 | 1));
    let garbled = upbound_net::FiveTuple::new(tuple.protocol(), tuple.src(), dst);
    let mut payload = packet.payload().to_vec();
    if let Some(byte) = payload.first_mut() {
        *byte ^= (draw & 0xff) as u8;
    }
    let rebuilt = match packet.tcp_flags() {
        Some(flags) => Packet::tcp(packet.ts(), garbled, flags, payload),
        None => Packet::udp(packet.ts(), garbled, payload),
    };
    rebuilt.with_wire_len(packet.wire_len())
}

/// Decides, per injection point, whether a fault fires. Implementations
/// must be deterministic for a fixed construction — the whole point is
/// that a failing run can be replayed byte-for-byte.
pub trait FaultInjector {
    /// `true` → the decide path panics for this packet (exercising the
    /// shard supervisor's quarantine path).
    fn inject_panic(&mut self, seq: u64, packet: &Packet) -> bool {
        let _ = (seq, packet);
        false
    }

    /// `Some(err)` → checkpoint write number `write_index` fails.
    fn inject_checkpoint_error(&mut self, write_index: u64) -> Option<std::io::Error> {
        let _ = write_index;
        None
    }
}

/// The injector derived from a [`FaultPlan`]: a seeded lottery arms
/// roughly one panic per `PANIC_STRIDE` (199) packets until the plan's
/// budget is spent, and fails the first `ckpt` checkpoint writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedInjector {
    seed: u64,
    panics_left: u32,
    ckpt_left: u32,
}

impl PlannedInjector {
    /// A spent injector: same type, no faults left — what rebuilt
    /// (post-quarantine) shards get so a replacement filter is not
    /// re-poisoned by its own medicine.
    pub fn disarmed() -> Self {
        PlannedInjector {
            seed: 0,
            panics_left: 0,
            ckpt_left: 0,
        }
    }

    /// `true` → decided packet `seq` panics, spending one panic of the
    /// budget.
    pub(crate) fn panic_due(&mut self, seq: u64) -> bool {
        if self.panics_left == 0 {
            return false;
        }
        if mix(self.seed ^ 0x9a_71_u64, seq).is_multiple_of(PANIC_STRIDE) {
            self.panics_left -= 1;
            true
        } else {
            false
        }
    }
}

impl FaultInjector for PlannedInjector {
    fn inject_panic(&mut self, seq: u64, _packet: &Packet) -> bool {
        self.panic_due(seq)
    }

    fn inject_checkpoint_error(&mut self, write_index: u64) -> Option<std::io::Error> {
        if self.ckpt_left == 0 {
            return None;
        }
        self.ckpt_left -= 1;
        Some(std::io::Error::other(format!(
            "injected checkpoint fault (write #{write_index})"
        )))
    }
}

/// A [`FilterObserver`] wrapper that panics on the injector's schedule —
/// the deliberate version of the bug the shard supervisor exists to
/// contain. The filter fires exactly one of `on_outbound`/`on_inbound`
/// per decided packet, so packet `seq` of a shard is the `seq`-th of
/// those hooks; the panic comes after the decision and before the
/// wrapped observer hears of the packet. Every hook delegates to the
/// wrapped observer.
#[derive(Debug, Clone)]
pub struct FaultingObserver<O = NoopObserver> {
    inner: O,
    injector: PlannedInjector,
    seq: u64,
}

impl<O> FaultingObserver<O> {
    /// Wraps `inner`, consulting `injector` on every decided packet.
    pub fn new(inner: O, injector: PlannedInjector) -> Self {
        FaultingObserver {
            inner,
            injector,
            seq: 0,
        }
    }

    fn decided(&mut self) {
        let seq = self.seq;
        self.seq += 1;
        if self.injector.panic_due(seq) {
            panic!("injected shard fault (packet #{seq})");
        }
    }
}

impl<O: FilterObserver> FilterObserver for FaultingObserver<O> {
    fn on_outbound(&mut self, tuple: &FiveTuple, now: Timestamp) {
        self.decided();
        self.inner.on_outbound(tuple, now);
    }

    fn on_inbound(&mut self, decision: &InboundDecision<'_>) {
        self.decided();
        self.inner.on_inbound(decision);
    }

    fn on_rotation(&mut self, rotation: &RotationEvent<'_>) {
        self.inner.on_rotation(rotation);
    }

    fn on_cold_start(&mut self, now: Timestamp, armed_at: Timestamp) {
        self.inner.on_cold_start(now, armed_at);
    }

    fn on_armed(&mut self, now: Timestamp) {
        self.inner.on_armed(now);
    }

    fn on_overload(&mut self, event: &OverloadEvent) {
        self.inner.on_overload(event);
    }
}

/// The injectable checkpoint write layer.
///
/// [`serve`](crate::PipelineRunner::serve) (and any deployment loop)
/// writes periodic checkpoints through this seam instead of calling
/// [`snapshot::write_atomic`] directly, so I/O failure behavior is
/// testable without touching the filesystem's failure modes.
pub trait CheckpointSink {
    /// Persists one checkpoint image.
    ///
    /// # Errors
    ///
    /// Returns the underlying write failure as a [`SnapshotError`].
    fn write(&mut self, path: &Path, bytes: &[u8]) -> Result<(), SnapshotError>;
}

/// The production sink: [`snapshot::write_atomic`] (temp file + fsync +
/// rename).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AtomicCheckpointSink;

impl CheckpointSink for AtomicCheckpointSink {
    fn write(&mut self, path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
        snapshot::write_atomic(path, bytes)
    }
}

/// A sink that fails writes on the injector's schedule and otherwise
/// delegates to the wrapped sink.
#[derive(Debug, Clone)]
pub struct FaultingCheckpointSink<S = AtomicCheckpointSink, J = PlannedInjector> {
    inner: S,
    injector: J,
    writes: u64,
}

impl<S, J> FaultingCheckpointSink<S, J> {
    /// Wraps `inner`, consulting `injector` before every write.
    pub fn new(inner: S, injector: J) -> Self {
        FaultingCheckpointSink {
            inner,
            injector,
            writes: 0,
        }
    }

    /// Writes attempted so far (failed ones included).
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

impl<S: CheckpointSink, J: FaultInjector> CheckpointSink for FaultingCheckpointSink<S, J> {
    fn write(&mut self, path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
        let index = self.writes;
        self.writes += 1;
        if let Some(err) = self.injector.inject_checkpoint_error(index) {
            return Err(SnapshotError::Io(err));
        }
        self.inner.write(path, bytes)
    }
}

/// Retries a *periodic* checkpoint write with bounded exponential
/// backoff: 3 attempts, 50 ms then 200 ms apart, each retry counted in
/// `upbound_cli_checkpoint_retries_total`. When all fail it sets
/// `upbound_cli_checkpointing_disabled` to 1, says so on stderr and
/// returns the last error; the caller stops periodic checkpoints and
/// carries on. Final checkpoints do not come through here: exiting
/// without durable state must never happen silently, so their failures
/// stay fatal.
///
/// # Errors
///
/// The last attempt's error, once all three attempts failed.
pub(crate) fn checkpoint_with_backoff(
    registry: Option<&Registry>,
    path: &Path,
    mut attempt: impl FnMut() -> Result<(), SnapshotError>,
) -> Result<(), SnapshotError> {
    let mut delay = std::time::Duration::from_millis(50);
    let mut retries = 0;
    loop {
        let Err(e) = attempt() else {
            return Ok(());
        };
        if retries == 2 {
            if let Some(registry) = registry {
                let help =
                    "1 when periodic checkpointing was disabled after repeated write failures";
                registry
                    .gauge("upbound_cli_checkpointing_disabled", help)
                    .set(1.0);
            }
            eprintln!(
                "{}: periodic checkpoint failed after retries ({e}); periodic checkpointing \
                 disabled for the rest of the run (the final checkpoint will still be attempted)",
                path.display()
            );
            return Err(e);
        }
        if let Some(registry) = registry {
            let help = "Periodic checkpoint writes retried after a transient failure";
            registry
                .counter("upbound_cli_checkpoint_retries_total", help)
                .inc();
        }
        eprintln!(
            "checkpoint write failed ({e}); retrying in {} ms",
            delay.as_millis()
        );
        std::thread::sleep(delay);
        delay *= 4;
        retries += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upbound_traffic::{generate, TraceConfig};

    fn packets(seed: u64) -> Vec<Packet> {
        generate(
            &TraceConfig::builder()
                .duration_secs(30.0)
                .flow_rate_per_sec(20.0)
                .seed(seed)
                .build()
                .unwrap(),
        )
        .packets
        .iter()
        .map(|lp| lp.packet.clone())
        .collect()
    }

    #[test]
    fn plan_parses_and_round_trips_fields() {
        let plan =
            FaultPlan::parse("seed=9,corrupt=20,reorder=3,skew=2,skew-secs=12.5,panics=4,ckpt=1")
                .unwrap();
        assert_eq!(plan.seed(), 9);
        assert_eq!(plan.panics(), 4);
        assert_eq!(plan.ckpt_errors(), 1);
        assert!(!plan.is_none());
        assert!(FaultPlan::parse("none").unwrap().is_none());
        assert!(FaultPlan::parse("bogus").is_err());
        assert!(FaultPlan::parse("corrupt=lots").is_err());
        assert!(FaultPlan::parse("skew-secs=-1").is_err());
    }

    #[test]
    fn distortion_is_deterministic_and_reported() {
        let stream = packets(21);
        let plan = FaultPlan::parse("seed=5,corrupt=30,reorder=2,skew=1").unwrap();
        let (a, report_a) = plan.distort_stream(stream.clone());
        let (b, report_b) = plan.distort_stream(stream.clone());
        assert_eq!(a, b);
        assert_eq!(report_a, report_b);
        assert!(report_a.corrupted > 0);
        assert_eq!(report_a.reorder_bursts, 2);
        assert_eq!(report_a.skewed, FAULT_SPAN as u64);
        assert_ne!(a, stream);
        // Nothing lost, nothing invented.
        assert_eq!(a.len(), stream.len());
        // The empty plan is the identity.
        let (same, none_report) = FaultPlan::none().distort_stream(stream.clone());
        assert_eq!(same, stream);
        assert_eq!(none_report, DistortionReport::default());
    }

    #[test]
    fn planned_injector_spends_its_budget_deterministically() {
        let plan = FaultPlan::parse("seed=3,panics=2").unwrap();
        let probe = |mut inj: PlannedInjector| -> Vec<u64> {
            let p = packets(22);
            (0..4000u64)
                .filter(|&seq| inj.inject_panic(seq, &p[seq as usize % p.len()]))
                .collect()
        };
        let first = probe(plan.injector());
        let second = probe(plan.injector());
        assert_eq!(first, second);
        assert_eq!(first.len(), 2, "budget of 2 panics: {first:?}");
        assert!(probe(PlannedInjector::disarmed()).is_empty());
    }

    #[test]
    fn faulting_checkpoint_sink_fails_on_schedule() {
        let plan = FaultPlan::parse("ckpt=2").unwrap();
        let mut sink = FaultingCheckpointSink::new(AtomicCheckpointSink, plan.injector());
        let dir = std::env::temp_dir().join(format!("upbound-fault-sink-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.snap");
        assert!(matches!(
            sink.write(&path, b"one"),
            Err(SnapshotError::Io(_))
        ));
        assert!(matches!(
            sink.write(&path, b"two"),
            Err(SnapshotError::Io(_))
        ));
        // Budget spent: the third write lands.
        sink.write(&path, b"three").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"three");
        assert_eq!(sink.writes(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}
