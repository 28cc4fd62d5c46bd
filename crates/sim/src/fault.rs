//! Deterministic fault injection.
//!
//! Robustness claims are only as good as the faults they were tested
//! against, and ad-hoc fault tests rot because their faults are not
//! reproducible. This module makes every injected fault a pure function
//! of a [`FaultPlan`] — a small, seeded description that can be printed,
//! re-run, and attached to a CI artifact when a combination fails.
//!
//! Three kinds of fault, matching the places a real deployment breaks:
//!
//! * **Stream distortion** ([`FaultPlan::distort_stream`]) — payload/
//!   header corruption, reorder bursts, and clock-skew spikes applied to
//!   the packet stream before it reaches any filter. Pure and
//!   deterministic: same plan + same stream → byte-identical output.
//!   The caller distorts the stream it feeds
//!   [`serve`](crate::PipelineRunner::serve).
//! * **Decide-path panics** (`panics=N`) — `serve`'s shard bank keeps a
//!   `PlannedInjector` and a decided-packet count per shard. When the
//!   injector's lottery picks a packet, the bank decides the run up to
//!   and including it, then panics, exercising the shard supervisor's
//!   quarantine path exactly the way a real shard bug would.
//! * **Checkpoint I/O faults** (`ckpt=N`) — `serve` writes every
//!   checkpoint through one function that fails the first `N` writes
//!   and hands the rest to [`snapshot::write_atomic`]; periodic writes
//!   retry with bounded backoff before `serve` gives up on them.
//!
//! [`PipelineRunner::fault_plan`](crate::PipelineRunner::fault_plan)
//! arms the last two. That is what the CI chaos matrix drives.

use std::path::Path;
use upbound_core::{snapshot, SnapshotError};
use upbound_net::{Packet, TimeDelta};
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
    pub(crate) fn injector(&self) -> PlannedInjector {
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

/// The injector derived from a [`FaultPlan`]: a seeded lottery arms
/// roughly one panic per `PANIC_STRIDE` (199) packets until the plan's
/// budget is spent, and fails the first `ckpt` checkpoint writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PlannedInjector {
    seed: u64,
    panics_left: u32,
    ckpt_left: u32,
}

impl PlannedInjector {
    /// A spent injector: same type, no faults left — what rebuilt
    /// (post-quarantine) shards get so a replacement filter is not
    /// re-poisoned by its own medicine.
    pub(crate) fn disarmed() -> Self {
        PlannedInjector {
            seed: 0,
            panics_left: 0,
            ckpt_left: 0,
        }
    }

    /// `true` while the injector has panics left to fire.
    pub(crate) fn armed(&self) -> bool {
        self.panics_left > 0
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

    /// `Some(err)` → checkpoint write number `write_index` fails,
    /// spending one failure of the budget.
    pub(crate) fn checkpoint_error(&mut self, write_index: u64) -> Option<std::io::Error> {
        if self.ckpt_left == 0 {
            return None;
        }
        self.ckpt_left -= 1;
        Some(std::io::Error::other(format!(
            "injected checkpoint fault (write #{write_index})"
        )))
    }
}

/// Writes one checkpoint image as the session's write number `*writes`,
/// counting it: `faults` fails it while the plan's `ckpt` budget lasts,
/// otherwise [`snapshot::write_atomic`] (temp file + fsync + rename)
/// lands it.
///
/// # Errors
///
/// The injected failure, or the real write's.
pub(crate) fn write_checkpoint(
    faults: &mut PlannedInjector,
    writes: &mut u64,
    path: &Path,
    bytes: &[u8],
) -> Result<(), SnapshotError> {
    let index = *writes;
    *writes += 1;
    if let Some(err) = faults.checkpoint_error(index) {
        return Err(SnapshotError::Io(err));
    }
    snapshot::write_atomic(path, bytes)
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

    /// The release-miscompile canary. Its `probe` closure takes the
    /// injector by value as `mut inj`, builds `packets(22)` inside, and
    /// spends the injector from a `.filter` adapter. Built with
    /// optimizations (rustc 1.95.0, `--release`), the second fresh
    /// injector reaches the closure already spent, and `second` is empty.
    /// Plain loops over `panic_due` are right at every opt level, as is
    /// this test without the `packets(22)` call. Keep its shape, so a
    /// toolchain change shows whether the bug is fixed.
    #[test]
    fn planned_injector_spends_its_budget_deterministically() {
        let plan = FaultPlan::parse("seed=3,panics=2").unwrap();
        let probe = |mut inj: PlannedInjector| -> Vec<u64> {
            let _p = packets(22);
            (0..4000u64).filter(|&seq| inj.panic_due(seq)).collect()
        };
        let first = probe(plan.injector());
        let second = probe(plan.injector());
        assert_eq!(first, second);
        assert_eq!(first.len(), 2, "budget of 2 panics: {first:?}");
        assert!(probe(PlannedInjector::disarmed()).is_empty());
    }

    #[test]
    fn faulting_checkpoint_sink_fails_on_schedule() {
        let mut faults = FaultPlan::parse("ckpt=2").unwrap().injector();
        let mut writes = 0;
        let dir = std::env::temp_dir().join(format!("upbound-fault-sink-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.snap");
        let mut write = |bytes: &[u8]| write_checkpoint(&mut faults, &mut writes, &path, bytes);
        assert!(matches!(write(b"one"), Err(SnapshotError::Io(_))));
        assert!(matches!(write(b"two"), Err(SnapshotError::Io(_))));
        // Budget spent: the third write lands.
        write(b"three").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"three");
        assert_eq!(writes, 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}
