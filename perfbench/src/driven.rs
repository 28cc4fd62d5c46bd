//! The benchmark's packet-source adapter. It wraps the source `serve`
//! reads from, gives every packet a due time, and records when each
//! packet was released and when the dataplane next polled.
//!
//! * **Closed loop** (no rate): a packet is due when the dataplane asks
//!   for it, so its latency is the cycle of the poll that carried it.
//! * **Open loop** (a rate): packet `i` is due `i / rate` after the
//!   first poll. When nothing is due the adapter spins until the next
//!   packet is, so it never reports `Idle` and `serve`'s idle sleep
//!   never fires.
//!
//! Samples go into buffers sized before the session starts: the timed
//! region writes by index and never allocates.

use std::time::Instant;
use upbound_net::pcap::IngestStats;
use upbound_net::{Direction, NetError, Packet, PacketSource, SourcePoll};

/// Per-packet timings of one session, in nanoseconds (saturating at
/// `u32::MAX`, about 4.3 s).
pub struct Samples {
    /// Due time to the first poll after the packet's batch.
    pub latency_ns: Vec<u32>,
    /// Due time to release by the wrapped source.
    pub wait_ns: Vec<u32>,
    /// Release minus the later of due time and poll entry: how late the
    /// generator itself handed the packet over.
    pub gen_lag_ns: Vec<u32>,
    /// Packets released so far.
    pub released: usize,
    /// Polls that released at least one packet.
    pub batches: u64,
    /// Time spent spinning for the next due packet.
    pub spin_ns: u64,
    /// Entry of the first poll.
    pub first_poll: Option<Instant>,
}

impl Samples {
    /// Buffers for sessions of up to `packets` packets.
    pub fn with_capacity(packets: usize) -> Self {
        Self {
            latency_ns: vec![0; packets],
            wait_ns: vec![0; packets],
            gen_lag_ns: vec![0; packets],
            released: 0,
            batches: 0,
            spin_ns: 0,
            first_poll: None,
        }
    }

    fn reset(&mut self) {
        self.released = 0;
        self.batches = 0;
        self.spin_ns = 0;
        self.first_poll = None;
    }
}

fn saturate(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

/// A [`PacketSource`] that times every packet it passes through.
pub struct DrivenSource<'a, S> {
    inner: S,
    period_ns: Option<f64>,
    samples: &'a mut Samples,
    /// Packets of the last batch, still waiting for the next poll.
    pending: std::ops::Range<usize>,
    /// Due time of the pending batch in a closed loop.
    pending_due_ns: u64,
}

impl<'a, S: PacketSource> DrivenSource<'a, S> {
    /// Wraps `inner`; `rate_pps` paces an open loop, `None` is closed.
    pub fn new(inner: S, rate_pps: Option<f64>, samples: &'a mut Samples) -> Self {
        samples.reset();
        Self {
            inner,
            period_ns: rate_pps.map(|r| 1e9 / r),
            samples,
            pending: 0..0,
            pending_due_ns: 0,
        }
    }

    /// Time spent so far spinning for the next due packet.
    pub fn spin_ns(&self) -> u64 {
        self.samples.spin_ns
    }

    fn due_ns(&self, i: usize) -> u64 {
        match self.period_ns {
            Some(period) => (i as f64 * period) as u64,
            None => self.pending_due_ns,
        }
    }
}

impl<S: PacketSource> PacketSource for DrivenSource<'_, S> {
    fn next_batch(
        &mut self,
        out: &mut Vec<(Packet, Direction)>,
        max: usize,
    ) -> Result<SourcePoll, NetError> {
        let entry = Instant::now();
        let t0 = *self.samples.first_poll.get_or_insert(entry);
        let ns = |t: Instant| t.duration_since(t0).as_nanos() as u64;
        let entry_ns = ns(entry);
        for i in self.pending.clone() {
            self.samples.latency_ns[i] = saturate(entry_ns.saturating_sub(self.due_ns(i)));
        }
        self.pending = 0..0;

        let released = self.samples.released;
        let room = self.samples.latency_ns.len() - released;
        let mut want = max.max(1).min(room.max(1));
        if let Some(period) = self.period_ns.filter(|_| room > 0) {
            let next_due = self.due_ns(released);
            let mut now_ns = entry_ns;
            while now_ns < next_due {
                std::hint::spin_loop();
                now_ns = ns(Instant::now());
            }
            self.samples.spin_ns += now_ns - entry_ns;
            let due_count = ((now_ns as f64 / period) as usize + 1).max(released + 1);
            want = want.min(due_count - released);
        }

        let poll = self.inner.next_batch(out, want)?;
        let release_ns = ns(Instant::now());
        if let SourcePoll::Batch(n) = poll {
            let n = n.min(room);
            self.pending_due_ns = entry_ns;
            for i in released..released + n {
                let due = self.due_ns(i);
                self.samples.wait_ns[i] = saturate(release_ns.saturating_sub(due));
                self.samples.gen_lag_ns[i] = saturate(release_ns.saturating_sub(due.max(entry_ns)));
            }
            if n > 0 {
                self.samples.batches += 1;
            }
            self.pending = released..released + n;
            self.samples.released += n;
        }
        Ok(poll)
    }

    fn stats(&self) -> IngestStats {
        self.inner.stats()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}
