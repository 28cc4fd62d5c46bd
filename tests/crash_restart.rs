//! Crash/restart robustness: a filter killed mid-operation and restored
//! from its last checkpoint must never panic, and the damage must be
//! *provably bounded* — only connections whose outbound marks fell in the
//! window between the last checkpoint and the crash can be falsely
//! dropped, and only in the Pass→Drop direction. Under `FailMode::Open` a
//! stale restore passes everything until the warm-up grace elapses.
//!
//! Failing inputs are written to `target/crash-restart-failures/` as pcap
//! files so they can be replayed (and uploaded as CI artifacts) exactly
//! like the adversarial-ingest corpus.

use std::collections::HashSet;
use std::panic::catch_unwind;
use std::path::PathBuf;

use proptest::prelude::*;
use upbound::core::{
    snapshot, BitmapFilter, BitmapFilterConfig, DropPolicy, FailMode, PacketFilter, RestoreOutcome,
    ShardedFilter, SnapshotError, Snapshottable, Verdict,
};
use upbound::net::{pcap, Direction, FiveTuple, Packet, Protocol, TimeDelta, Timestamp};
use upbound::traffic::{generate, TraceConfig};

/// Small but collision-safe filter: 2^16 bits per vector keeps the Bloom
/// false-positive probability negligible for these traces, so the
/// vulnerable-set bound below is exact in practice. `drop_all` pins
/// P_d = 1 so verdicts depend only on filter memory, not on the uplink
/// throughput the crashed run failed to measure.
fn config() -> BitmapFilterConfig {
    BitmapFilterConfig::builder()
        .vector_bits(16)
        .vectors(4)
        .hash_functions(3)
        .rotate_every_secs(5.0)
        .drop_policy(DropPolicy::drop_all())
        .rng_seed(0xC0FFEE)
        .build()
        .expect("valid config")
}

fn labeled_packets(seed: u64, duration_secs: f64) -> Vec<(Packet, Direction)> {
    let trace = generate(
        &TraceConfig::builder()
            .duration_secs(duration_secs)
            .flow_rate_per_sec(20.0)
            .seed(seed)
            .build()
            .expect("valid trace config"),
    );
    trace
        .packets
        .iter()
        .map(|lp| (lp.packet.clone(), lp.direction))
        .collect()
}

fn drive(filter: &mut BitmapFilter, packets: &[(Packet, Direction)]) -> Vec<Verdict> {
    packets.iter().map(|(p, d)| filter.decide(p, *d)).collect()
}

fn failure_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("crash-restart-failures");
    std::fs::create_dir_all(&dir).expect("create failure dir");
    dir
}

/// Runs `f`; if it panics, saves `packets` as a pcap artifact named
/// `<label>.pcap` and re-panics with the artifact path so CI can upload
/// the exact input that broke the invariant.
fn with_artifact_on_failure(
    label: &str,
    packets: &[(Packet, Direction)],
    f: impl FnOnce() + std::panic::UnwindSafe,
) {
    let outcome = catch_unwind(f);
    if let Err(cause) = outcome {
        let raw: Vec<Packet> = packets.iter().map(|(p, _)| p.clone()).collect();
        let path = failure_dir().join(format!("{label}.pcap"));
        match pcap::to_bytes(&raw, 65_535) {
            Ok(bytes) => {
                std::fs::write(&path, bytes).expect("write failure artifact");
            }
            Err(err) => eprintln!("could not serialize failure artifact: {err}"),
        }
        let msg = cause
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| cause.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic");
        panic!("{label}: {msg} (input saved to {})", path.display());
    }
}

// ---------------------------------------------------------------------------
// Fresh snapshot → restore round-trips verdicts exactly (property).
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any trace and any split point, snapshotting at the split and
    /// restoring into a fresh filter yields *bit-identical* verdicts and
    /// statistics over the remainder — a fresh (non-stale) snapshot loses
    /// nothing.
    #[test]
    fn fresh_snapshot_roundtrips_verdicts_exactly(seed in 0u64..500, split_pct in 5usize..95) {
        let packets = labeled_packets(seed, 30.0);
        prop_assert!(packets.len() >= 20);
        let split = packets.len() * split_pct / 100;
        let (prefix, suffix) = packets.split_at(split.max(1));

        with_artifact_on_failure("proptest-roundtrip", &packets, || {
            let mut original = BitmapFilter::new(config());
            drive(&mut original, prefix);
            let watermark = prefix.last().map_or(Timestamp::ZERO, |(p, _)| p.ts());
            let bytes = original.snapshot_bytes(watermark);

            let mut restored = BitmapFilter::new(config());
            let outcome = restored
                .restore_bytes(&bytes, watermark, config().expiry_timer())
                .expect("fresh snapshot restores");
            assert_eq!(outcome, RestoreOutcome::Warm);
            assert_eq!(restored.stats(), original.stats());

            let original_verdicts = drive(&mut original, suffix);
            let restored_verdicts = drive(&mut restored, suffix);
            assert_eq!(restored_verdicts, original_verdicts);
            assert_eq!(restored.stats(), original.stats());
        });
    }
}

// ---------------------------------------------------------------------------
// Kill -9 and restore: bounded, characterized false drops.
// ---------------------------------------------------------------------------

/// Simulates a hard kill: the filter runs with 10 s periodic checkpoints,
/// dies un-flushed at 2/3 of the trace, and a fresh process restores from
/// the *last completed* checkpoint and finishes the trace. The restored
/// run must (a) never panic, (b) never pass a packet the uninterrupted
/// run dropped, and (c) falsely drop only inbound packets of connections
/// whose outbound marks fell between the last checkpoint and the crash —
/// the provable damage bound for losing that window of filter memory.
#[test]
fn kill_and_restore_false_drops_are_bounded_to_the_lost_window() {
    let packets = labeled_packets(42, 60.0);
    assert!(packets.len() > 100, "trace too small to be meaningful");

    with_artifact_on_failure("kill-and-restore", &packets, || {
        let cfg = config();
        let checkpoint_every = TimeDelta::from_secs(10.0);

        // Uninterrupted baseline.
        let mut baseline = BitmapFilter::new(cfg.clone());
        let baseline_verdicts = drive(&mut baseline, &packets);

        // Crashed run: checkpoint on trace-time cadence, die at 2/3.
        let crash_at = packets.len() * 2 / 3;
        let mut victim = BitmapFilter::new(cfg.clone());
        let mut last_checkpoint: Option<(Vec<u8>, Timestamp)> = None;
        let mut next_due: Option<Timestamp> = None;
        for (p, d) in &packets[..crash_at] {
            victim.decide(p, *d);
            let due = *next_due.get_or_insert(p.ts() + checkpoint_every);
            if p.ts() >= due {
                last_checkpoint = Some((victim.snapshot_bytes(p.ts()), p.ts()));
                next_due = Some(due + checkpoint_every);
            }
        }
        // Also snapshot at the exact crash instant — the zero-loss control.
        let crash_ts = packets[crash_at - 1].0.ts();
        let at_crash = victim.snapshot_bytes(crash_ts);
        drop(victim); // kill -9: everything after the last checkpoint is gone.

        let (bytes, checkpoint_ts) = last_checkpoint.expect("at least one checkpoint");
        assert!(checkpoint_ts < crash_ts);

        // Control: restoring the exact-crash snapshot loses nothing.
        let mut control = BitmapFilter::new(cfg.clone());
        assert_eq!(
            control
                .restore_bytes(&at_crash, crash_ts, cfg.expiry_timer())
                .expect("crash-instant snapshot restores"),
            RestoreOutcome::Warm
        );
        let control_verdicts = drive(&mut control, &packets[crash_at..]);
        assert_eq!(control_verdicts, baseline_verdicts[crash_at..].to_vec());

        // The real restart: restore the last periodic checkpoint and
        // finish the trace. The checkpoint is at most one interval old,
        // well inside T_e, so it restores warm.
        let mut restored = BitmapFilter::new(cfg.clone());
        assert_eq!(
            restored
                .restore_bytes(&bytes, crash_ts, cfg.expiry_timer())
                .expect("periodic checkpoint restores"),
            RestoreOutcome::Warm
        );
        let restored_verdicts = drive(&mut restored, &packets[crash_at..]);

        // Connections whose outbound marks fell in the lost window
        // (checkpoint_ts, crash_ts] — the only memory the restart lacks.
        let lost_marks: HashSet<FiveTuple> = packets
            .iter()
            .filter(|(p, d)| {
                *d == Direction::Outbound && p.ts() > checkpoint_ts && p.ts() <= crash_ts
            })
            .map(|(p, _)| p.tuple())
            .collect();
        assert!(
            !lost_marks.is_empty(),
            "trace must have outbound traffic in the lost window"
        );

        let mut false_drops = 0usize;
        for (i, (p, d)) in packets[crash_at..].iter().enumerate() {
            let base = baseline_verdicts[crash_at + i];
            let restarted = restored_verdicts[i];
            if restarted == base {
                continue;
            }
            // Lost marks can only remove knowledge: divergence is
            // strictly Pass→Drop, never Drop→Pass.
            assert_eq!(
                (base, restarted),
                (Verdict::Pass, Verdict::Drop),
                "restart must never pass what the baseline dropped (packet {i})"
            );
            assert_eq!(*d, Direction::Inbound);
            assert!(
                lost_marks.contains(&p.tuple().inverse()),
                "false drop outside the lost checkpoint window: {:?}",
                p.tuple()
            );
            false_drops += 1;
        }
        // The bound: every false drop is accounted to the lost window.
        let vulnerable = packets[crash_at..]
            .iter()
            .filter(|(p, d)| *d == Direction::Inbound && lost_marks.contains(&p.tuple().inverse()))
            .count();
        assert!(
            false_drops <= vulnerable,
            "false drops ({false_drops}) exceed the vulnerable set ({vulnerable})"
        );
    });
}

// ---------------------------------------------------------------------------
// Stale restore under FailMode::Open: fail-open warm-up, then arm.
// ---------------------------------------------------------------------------

/// A checkpoint older than T_e restores statistics but restarts the
/// bitmap cold; under `FailMode::Open` the restored filter passes
/// everything (counting fail-open passes, never drops) until one full
/// expiry window elapses, then arms and drops again.
#[test]
fn stale_restore_fails_open_through_warmup_then_arms() {
    let cfg = BitmapFilterConfig::builder()
        .vector_bits(16)
        .vectors(4)
        .hash_functions(3)
        .rotate_every_secs(5.0)
        .drop_policy(DropPolicy::drop_all())
        .fail_mode(FailMode::Open)
        .rng_seed(0xC0FFEE)
        .build()
        .expect("valid config");
    let expiry = cfg.expiry_timer(); // T_e = 20 s

    let packets = labeled_packets(7, 30.0);
    let mut original = BitmapFilter::new(cfg.clone());
    drive(&mut original, &packets);
    let checkpoint_ts = packets.last().expect("non-empty trace").0.ts();
    let bytes = original.snapshot_bytes(checkpoint_ts);
    let stats_at_checkpoint = original.stats();

    // The process comes back three expiry windows later: stale.
    let now = checkpoint_ts + expiry + expiry + expiry;
    let mut restored = BitmapFilter::new(cfg.clone());
    assert_eq!(
        restored
            .restore_bytes(&bytes, now, expiry)
            .expect("stale snapshot still restores"),
        RestoreOutcome::Cold
    );
    // Statistics survived even though the bitmap did not.
    assert_eq!(restored.stats(), stats_at_checkpoint);
    assert!(
        !restored.is_armed(now),
        "cold fail-open restore must not arm"
    );

    // Unsolicited inbound during warm-up: passed, counted, not dropped.
    let unsolicited = FiveTuple::new(
        Protocol::Udp,
        "198.51.100.7:6881".parse().expect("addr"),
        "10.0.0.9:6881".parse().expect("addr"),
    );
    let during_warmup = Packet::udp(now + TimeDelta::from_secs(1.0), unsolicited, vec![0; 64]);
    let verdict = restored.decide(&during_warmup, Direction::Inbound);
    assert_eq!(verdict, Verdict::Pass);
    let stats = restored.stats();
    assert!(stats.fail_open_passes > stats_at_checkpoint.fail_open_passes);
    assert_eq!(stats.dropped, stats_at_checkpoint.dropped);

    // Past the grace window the filter arms and drops again.
    let after_warmup = now + expiry + TimeDelta::from_secs(1.0);
    assert!(restored.is_armed(after_warmup));
    let late = Packet::udp(after_warmup, unsolicited, vec![0; 64]);
    assert_eq!(restored.decide(&late, Direction::Inbound), Verdict::Drop);
    assert_eq!(restored.stats().dropped, stats_at_checkpoint.dropped + 1);
}

// ---------------------------------------------------------------------------
// Damaged checkpoints: structured errors, never a panic, always recoverable.
// ---------------------------------------------------------------------------

/// Corruption at any byte offset and truncation at any length must yield
/// a structured `SnapshotError` — never a panic — and the filter must be
/// restartable cold afterwards.
#[test]
fn damaged_checkpoints_error_cleanly_and_filter_recovers_cold() {
    let packets = labeled_packets(11, 20.0);
    let mut original = BitmapFilter::new(config());
    drive(&mut original, &packets);
    let watermark = packets.last().expect("non-empty trace").0.ts();
    let clean = original.snapshot_bytes(watermark);

    // Flip one byte at many positions across the container.
    for pos in (0..clean.len()).step_by(clean.len() / 53 + 1) {
        let mut dirty = clean.clone();
        dirty[pos] ^= 0x55;
        let mut filter = BitmapFilter::new(config());
        let err = filter
            .restore_bytes(&dirty, watermark, config().expiry_timer())
            .expect_err("corrupted snapshot must not restore");
        assert!(matches!(
            err,
            SnapshotError::ChecksumMismatch
                | SnapshotError::BadMagic
                | SnapshotError::UnsupportedVersion(_)
                | SnapshotError::KindMismatch { .. }
                | SnapshotError::Truncated
                | SnapshotError::Malformed(_)
                | SnapshotError::ConfigMismatch(_)
        ));
        // The failed restore leaves a filter we can still restart.
        filter.start_cold_at(watermark);
        let probe = Packet::udp(
            watermark + TimeDelta::from_secs(0.5),
            FiveTuple::new(
                Protocol::Udp,
                "203.0.113.5:9999".parse().expect("addr"),
                "10.0.0.4:9999".parse().expect("addr"),
            ),
            Vec::new(),
        );
        let _ = filter.decide(&probe, Direction::Inbound);
    }

    // Truncation at every interesting boundary.
    for len in [0, 1, 7, 8, 12, 16, 24, clean.len() / 2, clean.len() - 1] {
        let mut filter = BitmapFilter::new(config());
        let err = filter
            .restore_bytes(&clean[..len], watermark, config().expiry_timer())
            .expect_err("truncated snapshot must not restore");
        assert!(matches!(
            err,
            SnapshotError::Truncated | SnapshotError::BadMagic
        ));
    }
}

// ---------------------------------------------------------------------------
// Sharded checkpoint through real file I/O.
// ---------------------------------------------------------------------------

/// The sharded engine checkpoints all shards consistently to one file and
/// a fresh engine restores it warm with identical aggregate statistics.
#[test]
fn sharded_checkpoint_file_roundtrip_is_warm_and_exact() {
    let packets = labeled_packets(23, 30.0);
    let cfg = config();

    let sharded = ShardedFilter::builder(cfg.clone())
        .shards(4)
        .build()
        .expect("shard count is positive");
    for (p, d) in &packets {
        sharded.process_packet(p, *d);
    }
    let watermark = packets.last().expect("non-empty trace").0.ts();

    let dir = std::env::temp_dir().join(format!("upbound-crash-restart-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("sharded.ckpt");
    sharded.advance(watermark);
    snapshot::write_atomic(&path, &sharded.snapshot_bytes(watermark)).expect("checkpoint writes");

    let mut fresh = ShardedFilter::builder(cfg.clone())
        .shards(4)
        .build()
        .expect("shard count is positive");
    let bytes = snapshot::read_file(&path).expect("checkpoint reads");
    let outcome = fresh
        .restore_bytes(&bytes, watermark, cfg.expiry_timer())
        .expect("checkpoint restores");
    assert_eq!(outcome, RestoreOutcome::Warm);
    assert_eq!(fresh.stats(), sharded.stats());

    // Both engines keep agreeing after the restore.
    let shift = watermark.saturating_since(Timestamp::ZERO);
    let more = labeled_packets(24, 10.0);
    for (p, d) in &more {
        let shifted = p.clone().with_ts(p.ts() + shift);
        assert_eq!(
            fresh.process_packet(&shifted, *d),
            sharded.process_packet(&shifted, *d),
            "verdicts diverged after sharded restore"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// FNV-1a over a checkpoint image.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The image a 4-shard bank with a live `P_d` curve writes, pinned: the
/// bank is fed a seeded trace in 64-packet batches, advanced to a
/// watermark past its last packet and encoded. The length and digest
/// were recorded from the inherent `checkpoint_bytes` that encoded
/// sharded checkpoints before the bank became `Snapshottable`, so
/// checkpoint files written then restore now, and re-encode byte for
/// byte.
#[test]
fn sharded_checkpoint_image_is_pinned() {
    let cfg = BitmapFilterConfig::builder()
        .vector_bits(16)
        .vectors(4)
        .hash_functions(3)
        .rotate_every_secs(5.0)
        .drop_policy(DropPolicy::new(8e6, 40e6).expect("valid policy"))
        .rng_seed(0xC0FFEE)
        .build()
        .expect("valid config");
    let bank = || {
        ShardedFilter::builder(cfg.clone())
            .shards(4)
            .build()
            .expect("shard count is positive")
    };
    let original = bank();
    let packets = labeled_packets(31, 40.0);
    let mut verdicts = Vec::new();
    for chunk in packets.chunks(64) {
        original.process_batch(chunk, &mut verdicts);
    }
    let last = packets.last().expect("non-empty trace").0.ts();
    let p_d = original.drop_probability(last);
    assert!(p_d > 0.0 && p_d < 1.0, "the curve is not live: P_d = {p_d}");
    assert!(verdicts.contains(&Verdict::Drop));

    let watermark = Timestamp::from_secs(47.0);
    original.advance(watermark);
    let image = original.snapshot_bytes(watermark);
    assert_eq!(
        (image.len(), fnv1a(&image)),
        (133_172, 0xdf9e_3cd1_15a4_3758)
    );

    let mut restored = bank();
    let outcome = restored
        .restore_bytes(&image, watermark, cfg.expiry_timer())
        .expect("pinned image restores");
    assert_eq!(outcome, RestoreOutcome::Warm);
    assert_eq!(restored.stats(), original.stats());
    // `assert!`, not `assert_eq!`: a mismatch would print both images.
    assert!(restored.snapshot_bytes(watermark) == image);
}
