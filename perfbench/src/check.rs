//! Correctness: the sequential reference every dataplane run must match,
//! and the record of the reference's misses the draw pass replays.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use upbound_core::{BitmapFilter, FilterObserver, FilterStats, FlowHash, InboundDecision, Verdict};
use upbound_net::{Direction, Timestamp};

use crate::inputs::{Workload, SHARDS};

/// What one pass over a workload's stream decided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Packets decided.
    pub packets: u64,
    /// Packets forwarded (all outbound plus passed inbound).
    pub passed: u64,
    /// Inbound packets dropped.
    pub dropped: u64,
    /// The bank's merged counters.
    pub stats: FilterStats,
}

/// FNV-1a over the verdict stream, one byte per packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds the next verdict in.
    pub fn push(&mut self, verdict: Verdict) {
        self.0 ^= u64::from(verdict == Verdict::Drop);
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }
}

/// One inbound miss of the reference run: enough to replay its drop
/// draws exactly.
#[derive(Debug, Clone, Copy)]
pub struct Miss {
    /// The filter key the draws hash.
    pub key: [u8; 14],
    /// Packet time.
    pub now: Timestamp,
    /// Hashed bits not set: the most draws the packet can take.
    pub unmarked: u8,
    /// The effective drop probability (after any ladder clamp).
    pub p_d: f64,
}

/// What the reference's observer saw of inbound decisions.
#[derive(Debug, Default)]
pub struct MissLog {
    /// Every miss, in stream order (kept only when asked for).
    pub misses: Vec<Miss>,
    /// Inbound decisions seen.
    pub inbound: u64,
    /// Sum of `P_d` over inbound decisions.
    pub p_d_sum: f64,
    keep_misses: bool,
}

#[derive(Clone)]
struct Recorder(Rc<RefCell<MissLog>>);

impl FilterObserver for Recorder {
    fn on_inbound(&mut self, decision: &InboundDecision<'_>) {
        let mut log = self.0.borrow_mut();
        log.inbound += 1;
        log.p_d_sum += decision.p_d;
        if log.keep_misses && !decision.known {
            let mut key = [0u8; 14];
            key.copy_from_slice(decision.key);
            log.misses.push(Miss {
                key,
                now: decision.now,
                unmarked: decision.drop_draws as u8,
                p_d: decision.p_d,
            });
        }
    }
}

/// The sequential reference: the bank's shards as plain exclusive
/// `BitmapFilter`s sharing one uplink monitor, fed one packet at a time
/// through `process_packet` at the running-maximum timestamp. With the
/// ladder off this is verdict-identical to one single `BitmapFilter`
/// (the sharding invariants); with the ladder on each shard's sentinel
/// watches its own bitmap, so the reference keeps the shards apart.
pub fn reference(w: &Workload, keep_misses: bool) -> (Outcome, Digest, MissLog) {
    let log = Rc::new(RefCell::new(MissLog {
        keep_misses,
        ..MissLog::default()
    }));
    let uplink = Arc::new(w.config.uplink_monitor());
    let flow = FlowHash::new(w.config.hole_punching());
    let mut shards: Vec<BitmapFilter<Recorder>> = (0..SHARDS)
        .map(|_| {
            BitmapFilter::with_observer(w.config.clone(), Recorder(Rc::clone(&log)))
                .with_shared_uplink(Arc::clone(&uplink))
                .with_overload_policy(w.overload.clone())
        })
        .collect();
    let mut digest = Digest::default();
    let mut outcome = Outcome::default();
    let mut watermark = Timestamp::ZERO;
    for (packet, direction) in &w.stream {
        watermark = watermark.max(packet.ts());
        let shard = (flow.key(&packet.tuple(), *direction) % SHARDS as u64) as usize;
        shards[shard].advance(watermark);
        let verdict = shards[shard].process_packet(packet, *direction);
        digest.push(verdict);
        outcome.packets += 1;
        match (*direction, verdict) {
            (Direction::Inbound, Verdict::Drop) => outcome.dropped += 1,
            _ => outcome.passed += 1,
        }
    }
    for shard in &shards {
        outcome.stats.merge(&shard.stats());
    }
    drop(shards);
    let log = Rc::try_unwrap(log)
        .map(RefCell::into_inner)
        .unwrap_or_default();
    (outcome, digest, log)
}
