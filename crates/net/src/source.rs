//! Unified packet acquisition: the [`PacketSource`] abstraction and its
//! backends.
//!
//! Everything downstream of ingestion — the replay engine, the threaded
//! pipelines, the `upbound serve` dataplane — consumes timestamped,
//! direction-labeled packets in batches. This module is the seam that
//! lets those consumers run unchanged against either of two worlds:
//!
//! * **Deterministic replay** — [`PcapSource`] wraps the recovering
//!   [`PcapReader`] and classifies direction against the client network,
//!   byte-identical to the historical drain-then-replay path (asserted
//!   by differential tests).
//! * **Live capture** — [`LiveSource`] reads raw Ethernet frames from a
//!   Linux `AF_PACKET` socket in `recvmmsg` batches, decodes them with
//!   the same [`wire`](crate::wire) codec the pcap path uses, and folds
//!   kernel-side capture drops into the [`IngestStats`] taxonomy
//!   ([`IngestReason::KernelDrop`](crate::IngestReason)). On other
//!   platforms [`LiveSource::open`] returns a structured
//!   [`LiveCaptureError::Unsupported`] instead of failing to compile.
//!
//! [`BufferedSource`] rounds out the set: an in-memory source used for
//! tests, fault-plan distortion (which needs the whole stream up front),
//! and looped replay under `upbound serve`.

use crate::pcap::{IngestStats, PcapReader};
use crate::wire::ChecksumPolicy;
use crate::{Cidr, Direction, NetError, Packet, TimeDelta, Timestamp};
use std::fmt;
use std::io::Read;

/// What one [`PacketSource::next_batch`] call produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourcePoll {
    /// `n` packets were appended to the output buffer. Live sources may
    /// legitimately report `Batch(0)` when frames arrived but none
    /// decoded; that is progress, not end-of-stream.
    Batch(usize),
    /// No packets are available right now, but more may arrive (live
    /// sources only). Callers should check their stop conditions and
    /// poll again, typically after a short sleep.
    Idle,
    /// The stream is exhausted; no further packets will ever arrive.
    End,
}

/// A stream of timestamped, direction-labeled packets with ingestion
/// accounting — the contract between packet acquisition and everything
/// downstream.
///
/// Implementations must deliver packets in non-decreasing timestamp
/// order (replay order for trace-backed sources, arrival order stamped
/// from a monotonic clock for live sources) and keep [`stats`] current:
/// after [`SourcePoll::End`] the stats must account for every record the
/// source saw, including errors and kernel drops.
///
/// [`stats`]: PacketSource::stats
pub trait PacketSource {
    /// Appends up to `max` packets to `out` and says what happened.
    ///
    /// `out` is not cleared — callers own its lifecycle so they can
    /// accumulate across polls. `max` is a per-call ceiling (typically
    /// the pipeline batch size); implementations may return fewer.
    ///
    /// # Errors
    ///
    /// Returns the first unrecoverable error (I/O failure, or a decode
    /// error under a strict recovery policy). Recoverable decode errors
    /// are counted in [`stats`](PacketSource::stats) instead.
    fn next_batch(
        &mut self,
        out: &mut Vec<(Packet, Direction)>,
        max: usize,
    ) -> Result<SourcePoll, NetError>;

    /// Current ingestion accounting (records decoded, skipped, per-reason
    /// errors, kernel drops).
    fn stats(&self) -> IngestStats;

    /// A short display name ("pcap", "af_packet", …).
    fn name(&self) -> &str;

    /// Whether this source is clocked by the real world. Live sources
    /// return `true`; consumers use this to decide between draining to
    /// end-of-stream and polling with stop conditions.
    fn is_live(&self) -> bool {
        false
    }
}

/// The deterministic replay backend: a [`PcapReader`] plus the client
/// network used to label direction (source address inside → outbound).
///
/// Streaming through `next_batch` yields exactly the packets, order, and
/// [`IngestStats`] of the historical "drain the reader, then replay"
/// path, so replay results are byte-identical whichever way the engine
/// is driven.
///
/// `next_batch` decodes a run of records already wholly buffered in the
/// reader in one loop and labels each as it goes; a record that crosses
/// the buffer's end or fails to decode takes the reader's per-record
/// path, which applies its [`RecoveryPolicy`](crate::pcap::RecoveryPolicy).
/// A strict error mid-batch leaves the batch's earlier packets in `out`.
#[derive(Debug)]
pub struct PcapSource<R: Read> {
    reader: PcapReader<R>,
    client_net: Cidr,
    done: bool,
}

impl<R: Read> PcapSource<R> {
    /// Wraps an open reader; `client_net` labels packet direction.
    pub fn new(reader: PcapReader<R>, client_net: Cidr) -> Self {
        Self {
            reader,
            client_net,
            done: false,
        }
    }

    /// The client network used for direction labeling.
    pub fn client_net(&self) -> Cidr {
        self.client_net
    }
}

impl<R: Read> PacketSource for PcapSource<R> {
    fn next_batch(
        &mut self,
        out: &mut Vec<(Packet, Direction)>,
        max: usize,
    ) -> Result<SourcePoll, NetError> {
        if self.done {
            return Ok(SourcePoll::End);
        }
        let before = out.len();
        let client_net = self.client_net;
        self.done = self.reader.read_batch(out, max.max(1), |packet| {
            let direction = client_net.direction_of(&packet.tuple());
            (packet, direction)
        })?;
        let appended = out.len() - before;
        if appended == 0 {
            Ok(SourcePoll::End)
        } else {
            Ok(SourcePoll::Batch(appended))
        }
    }

    fn stats(&self) -> IngestStats {
        *self.reader.stats()
    }

    fn name(&self) -> &str {
        "pcap"
    }
}

/// An in-memory source over pre-labeled packets.
///
/// Three jobs: test harness, carrier for fault-plan-distorted streams
/// (distortion needs the whole stream up front), and looped replay —
/// [`looped`](Self::looped) restamps each pass so trace time keeps
/// advancing monotonically, which is how `upbound serve` turns a finite
/// capture into an indefinite traffic generator.
///
/// [`next_batch`](PacketSource::next_batch) hands packets over in runs,
/// not one at a time. A source that is not looped plays its one pass by
/// move: the first poll turns the buffer into an owning iterator, and
/// each run is moved out of it, so no packet is copied. A looped source
/// replays, so it copies: a run of the first pass is one
/// `extend_from_slice`, and a run of a later pass one `extend` that
/// restamps as it copies. A run ends at the poll's `max` or at the end
/// of a pass, so the packets, their timestamps and the `Batch`/`End`
/// sequence are those of a packet-by-packet copy.
#[derive(Debug, Clone)]
pub struct BufferedSource {
    /// The stream as buffered; emptied by the first poll of a source
    /// that is not looped, which moves it into `once`.
    packets: Vec<(Packet, Direction)>,
    /// What is left of the one pass of a source that is not looped.
    once: Option<std::vec::IntoIter<(Packet, Direction)>>,
    /// Packets per pass, kept while `packets` is moved out.
    len: usize,
    stats: IngestStats,
    pos: usize,
    cycle: u64,
    looped: bool,
    period: TimeDelta,
}

impl BufferedSource {
    /// Wraps pre-labeled packets. `stats` should carry the ingestion
    /// accounting of wherever the packets came from
    /// ([`IngestStats::default()`] for synthetic streams).
    pub fn new(packets: Vec<(Packet, Direction)>, stats: IngestStats) -> Self {
        Self {
            len: packets.len(),
            packets,
            once: None,
            stats,
            pos: 0,
            cycle: 0,
            looped: false,
            period: TimeDelta::ZERO,
        }
    }

    /// Labels `packets` against `client_net` and wraps them.
    pub fn labeled(packets: Vec<Packet>, client_net: Cidr) -> Self {
        let labeled = packets
            .into_iter()
            .map(|p| {
                let d = client_net.direction_of(&p.tuple());
                (p, d)
            })
            .collect();
        Self::new(labeled, IngestStats::default())
    }

    /// Drains `source` to end-of-stream and buffers everything it
    /// produced, carrying over its final [`IngestStats`].
    ///
    /// # Errors
    ///
    /// Propagates the first unrecoverable source error.
    pub fn drain<S: PacketSource + ?Sized>(source: &mut S) -> Result<Self, NetError> {
        let mut packets = Vec::new();
        loop {
            match source.next_batch(&mut packets, 1024)? {
                SourcePoll::End => break,
                SourcePoll::Batch(_) | SourcePoll::Idle => continue,
            }
        }
        Ok(Self::new(packets, source.stats()))
    }

    /// Replays the buffer in a loop instead of ending. Each pass is
    /// restamped one whole trace span later, the span running from the
    /// earliest timestamp to the latest, so every packet of a pass is
    /// later than every packet of the pass before it even when the
    /// capture is out of order, and rotation/expiry machinery keeps
    /// ticking forever.
    ///
    /// Choose before the first poll: a source that is not looped hands
    /// its buffer over by move on that poll.
    pub fn looped(mut self, looped: bool) -> Self {
        debug_assert!(self.once.is_none(), "looped chosen after the first poll");
        self.looped = looped;
        if looped {
            let stamps = self.packets.iter().map(|(p, _)| p.ts().as_micros());
            let span = match (stamps.clone().min(), stamps.max()) {
                (Some(earliest), Some(latest)) => latest - earliest,
                _ => 0,
            };
            // One microsecond of guard keeps restamped passes strictly
            // monotone even for single-packet streams.
            self.period = TimeDelta::from_micros(span + 1);
        }
        self
    }

    /// Number of buffered packets per cycle.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl PacketSource for BufferedSource {
    fn next_batch(
        &mut self,
        out: &mut Vec<(Packet, Direction)>,
        max: usize,
    ) -> Result<SourcePoll, NetError> {
        let want = max.max(1);
        if !self.looped {
            // The one pass: move the next run out of the buffer.
            let once = self
                .once
                .get_or_insert_with(|| std::mem::take(&mut self.packets).into_iter());
            let before = out.len();
            out.extend(once.by_ref().take(want));
            return Ok(match out.len() - before {
                0 => SourcePoll::End,
                appended => SourcePoll::Batch(appended),
            });
        }
        if self.packets.is_empty() {
            return Ok(SourcePoll::End);
        }
        let mut appended = 0;
        while appended < want {
            if self.pos >= self.packets.len() {
                self.pos = 0;
                self.cycle += 1;
            }
            // Hand over the longest run this pass and this poll allow:
            // the first pass as stored, later passes restamped.
            let take = (self.packets.len() - self.pos).min(want - appended);
            let run = &self.packets[self.pos..self.pos + take];
            let shift = self.period.as_micros() * self.cycle;
            if shift == 0 {
                out.extend_from_slice(run);
            } else {
                out.extend(run.iter().map(|(packet, direction)| {
                    let ts = Timestamp::from_micros(packet.ts().as_micros() + shift);
                    (packet.clone().with_ts(ts), *direction)
                }));
            }
            self.pos += take;
            appended += take;
        }
        Ok(SourcePoll::Batch(appended))
    }

    fn stats(&self) -> IngestStats {
        self.stats
    }

    fn name(&self) -> &str {
        "buffered"
    }
}

/// Why a live capture source could not be opened.
///
/// Structured so callers can branch without string matching: the CLI
/// maps [`Unsupported`](Self::Unsupported) and
/// [`PermissionDenied`](Self::PermissionDenied) to actionable usage
/// messages, and tests use them to skip gracefully where `CAP_NET_RAW`
/// is unavailable.
#[derive(Debug)]
#[non_exhaustive]
pub enum LiveCaptureError {
    /// Live capture requires Linux `AF_PACKET`; this build targets a
    /// platform without it.
    Unsupported {
        /// The compile-time target OS of this build.
        platform: &'static str,
    },
    /// Opening the raw socket was refused — the process lacks
    /// `CAP_NET_RAW` (or root).
    PermissionDenied {
        /// The interface that was being opened.
        interface: String,
    },
    /// The named interface does not exist.
    NoSuchInterface {
        /// The requested interface name.
        interface: String,
    },
    /// Any other socket-layer failure.
    Io(std::io::Error),
}

impl fmt::Display for LiveCaptureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiveCaptureError::Unsupported { platform } => write!(
                f,
                "live capture is unsupported on {platform}: AF_PACKET raw sockets are Linux-only"
            ),
            LiveCaptureError::PermissionDenied { interface } => write!(
                f,
                "opening {interface} for live capture was denied: needs CAP_NET_RAW (or root)"
            ),
            LiveCaptureError::NoSuchInterface { interface } => {
                write!(f, "no such capture interface: {interface}")
            }
            LiveCaptureError::Io(e) => write!(f, "live capture I/O error: {e}"),
        }
    }
}

impl std::error::Error for LiveCaptureError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LiveCaptureError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Configuration of a [`LiveSource`].
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Interface to capture on (e.g. `"lo"`, `"eth0"`).
    pub interface: String,
    /// Client network for direction labeling (source inside → outbound).
    pub client_net: Cidr,
    /// Checksum handling for decoded frames. Live interfaces commonly
    /// offload checksums (loopback never computes them), so
    /// [`ChecksumPolicy::Ignore`] is the practical default.
    pub checksum: ChecksumPolicy,
}

impl LiveConfig {
    /// A config capturing `interface` with direction classified against
    /// `client_net`, checksums ignored (offload-safe).
    pub fn new(interface: impl Into<String>, client_net: Cidr) -> Self {
        Self {
            interface: interface.into(),
            client_net,
            checksum: ChecksumPolicy::Ignore,
        }
    }
}

#[cfg(target_os = "linux")]
pub use af_packet::LiveSource;

#[cfg(not(target_os = "linux"))]
pub use unsupported::LiveSource;

/// The Linux `AF_PACKET` live backend.
///
/// The raw-socket syscalls live behind a module-scoped
/// `allow(unsafe_code)` — the only unsafe surface in this crate — and
/// everything above the recvmmsg boundary (decoding, direction labeling,
/// accounting) is shared safe code.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod af_packet {
    use super::*;
    use crate::packet::ETH_HDR_LEN;
    use crate::wire;
    use std::time::Instant;

    const AF_PACKET: i32 = 17;
    const SOCK_RAW: i32 = 3;
    const SOCK_CLOEXEC: i32 = 0x80000;
    const ETH_P_ALL: u16 = 0x0003;
    const SOL_PACKET: i32 = 263;
    const PACKET_STATISTICS: i32 = 6;
    const MSG_DONTWAIT: i32 = 0x40;

    /// Frames pulled per `recvmmsg` call.
    const FRAMES_PER_READ: usize = 32;
    /// Per-frame buffer: loopback MTU (64 KiB) plus the Ethernet header.
    const FRAME_CAP: usize = 65_536 + ETH_HDR_LEN;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct SockaddrLl {
        sll_family: u16,
        sll_protocol: u16,
        sll_ifindex: i32,
        sll_hatype: u16,
        sll_pkttype: u8,
        sll_halen: u8,
        sll_addr: [u8; 8],
    }

    #[repr(C)]
    struct IoVec {
        base: *mut u8,
        len: usize,
    }

    #[repr(C)]
    struct MsgHdr {
        name: *mut SockaddrLl,
        namelen: u32,
        iov: *mut IoVec,
        iovlen: usize,
        control: *mut u8,
        controllen: usize,
        flags: i32,
    }

    #[repr(C)]
    struct MMsgHdr {
        hdr: MsgHdr,
        len: u32,
    }

    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    struct TpacketStats {
        packets: u32,
        drops: u32,
    }

    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn bind(fd: i32, addr: *const SockaddrLl, len: u32) -> i32;
        fn close(fd: i32) -> i32;
        fn getsockopt(fd: i32, level: i32, name: i32, val: *mut TpacketStats, len: *mut u32)
            -> i32;
        fn recvmmsg(fd: i32, vec: *mut MMsgHdr, vlen: u32, flags: i32, timeout: *mut u8) -> i32;
        fn if_nametoindex(name: *const u8) -> u32;
    }

    /// A live `AF_PACKET` capture on one interface.
    ///
    /// Frames are read in `recvmmsg` batches without blocking
    /// (`MSG_DONTWAIT`); an empty queue reports [`SourcePoll::Idle`] so
    /// the caller keeps control of its stop conditions. Each batch is
    /// stamped once from a monotonic clock anchored at
    /// [`open`](Self::open) — the dataplane runs on relative time, like
    /// the replay path. Kernel-side drops (`PACKET_STATISTICS`) are
    /// harvested on every poll and folded into the
    /// [`IngestReason::KernelDrop`](crate::IngestReason) bucket.
    pub struct LiveSource {
        fd: i32,
        interface: String,
        client_net: Cidr,
        checksum: ChecksumPolicy,
        stats: IngestStats,
        epoch: Instant,
        frames: Vec<Vec<u8>>,
    }

    impl fmt::Debug for LiveSource {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("LiveSource")
                .field("interface", &self.interface)
                .field("client_net", &self.client_net)
                .field("stats", &self.stats)
                .finish()
        }
    }

    impl LiveSource {
        /// Opens a raw capture socket bound to `config.interface`.
        ///
        /// # Errors
        ///
        /// * [`LiveCaptureError::NoSuchInterface`] — unknown interface.
        /// * [`LiveCaptureError::PermissionDenied`] — no `CAP_NET_RAW`.
        /// * [`LiveCaptureError::Io`] — any other socket failure.
        pub fn open(config: LiveConfig) -> Result<LiveSource, LiveCaptureError> {
            let mut name = config.interface.clone().into_bytes();
            if name.is_empty() || name.contains(&0) {
                return Err(LiveCaptureError::NoSuchInterface {
                    interface: config.interface,
                });
            }
            name.push(0);
            // SAFETY: `name` is a NUL-terminated byte string that
            // outlives the call.
            let ifindex = unsafe { if_nametoindex(name.as_ptr()) };
            if ifindex == 0 {
                return Err(LiveCaptureError::NoSuchInterface {
                    interface: config.interface,
                });
            }
            // SAFETY: plain socket(2) call; the fd is owned below.
            let fd = unsafe {
                socket(
                    AF_PACKET,
                    SOCK_RAW | SOCK_CLOEXEC,
                    i32::from(ETH_P_ALL.to_be()),
                )
            };
            if fd < 0 {
                let err = std::io::Error::last_os_error();
                return Err(match err.kind() {
                    std::io::ErrorKind::PermissionDenied => LiveCaptureError::PermissionDenied {
                        interface: config.interface,
                    },
                    _ => LiveCaptureError::Io(err),
                });
            }
            let addr = SockaddrLl {
                sll_family: AF_PACKET as u16,
                sll_protocol: ETH_P_ALL.to_be(),
                sll_ifindex: ifindex as i32,
                sll_hatype: 0,
                sll_pkttype: 0,
                sll_halen: 0,
                sll_addr: [0; 8],
            };
            // SAFETY: `addr` is a properly initialized sockaddr_ll and
            // the length matches its size.
            let rc = unsafe { bind(fd, &addr, std::mem::size_of::<SockaddrLl>() as u32) };
            if rc != 0 {
                let err = std::io::Error::last_os_error();
                // SAFETY: fd came from socket(2) above and is not used
                // after this close.
                unsafe { close(fd) };
                return Err(LiveCaptureError::Io(err));
            }
            Ok(LiveSource {
                fd,
                interface: config.interface,
                client_net: config.client_net,
                checksum: config.checksum,
                stats: IngestStats::default(),
                epoch: Instant::now(),
                frames: (0..FRAMES_PER_READ).map(|_| vec![0u8; FRAME_CAP]).collect(),
            })
        }

        /// The interface this source captures on.
        pub fn interface(&self) -> &str {
            &self.interface
        }

        /// Reads `PACKET_STATISTICS` (which the kernel resets on read)
        /// and folds any drops into the stats taxonomy.
        fn harvest_kernel_drops(&mut self) {
            let mut raw = TpacketStats::default();
            let mut len = std::mem::size_of::<TpacketStats>() as u32;
            // SAFETY: `raw`/`len` are valid out-pointers sized for
            // PACKET_STATISTICS.
            let rc =
                unsafe { getsockopt(self.fd, SOL_PACKET, PACKET_STATISTICS, &mut raw, &mut len) };
            if rc == 0 && raw.drops > 0 {
                self.stats.record_kernel_drops(u64::from(raw.drops));
            }
        }
    }

    impl Drop for LiveSource {
        fn drop(&mut self) {
            // SAFETY: fd is owned by this struct and closed exactly once.
            unsafe { close(self.fd) };
        }
    }

    impl PacketSource for LiveSource {
        fn next_batch(
            &mut self,
            out: &mut Vec<(Packet, Direction)>,
            max: usize,
        ) -> Result<SourcePoll, NetError> {
            let want = max.clamp(1, FRAMES_PER_READ);
            let mut iovecs: Vec<IoVec> = self
                .frames
                .iter_mut()
                .take(want)
                .map(|buf| IoVec {
                    base: buf.as_mut_ptr(),
                    len: buf.len(),
                })
                .collect();
            let mut msgs: Vec<MMsgHdr> = iovecs
                .iter_mut()
                .map(|iov| MMsgHdr {
                    hdr: MsgHdr {
                        name: std::ptr::null_mut(),
                        namelen: 0,
                        iov,
                        iovlen: 1,
                        control: std::ptr::null_mut(),
                        controllen: 0,
                        flags: 0,
                    },
                    len: 0,
                })
                .collect();
            // SAFETY: every msg header points at one live iovec backed by
            // an owned frame buffer; vlen matches the array length.
            let n = unsafe {
                recvmmsg(
                    self.fd,
                    msgs.as_mut_ptr(),
                    msgs.len() as u32,
                    MSG_DONTWAIT,
                    std::ptr::null_mut(),
                )
            };
            self.harvest_kernel_drops();
            if n < 0 {
                let err = std::io::Error::last_os_error();
                return match err.kind() {
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted => {
                        Ok(SourcePoll::Idle)
                    }
                    _ => Err(NetError::Io(err)),
                };
            }
            if n == 0 {
                return Ok(SourcePoll::Idle);
            }
            // One clock read per batch: frames share an arrival stamp,
            // which keeps timestamps monotone and the hot path cheap.
            let elapsed = self.epoch.elapsed();
            let ts = Timestamp::from_micros(elapsed.as_micros().min(u64::MAX as u128) as u64);
            let mut appended = 0;
            for (i, msg) in msgs.iter().enumerate().take(n as usize) {
                let len = (msg.len as usize).min(FRAME_CAP);
                let frame = &self.frames[i][..len];
                match wire::decode(frame, ts, len as u32, self.checksum) {
                    Ok(packet) => {
                        let direction = self.client_net.direction_of(&packet.tuple());
                        out.push((packet, direction));
                        self.stats.records_ok += 1;
                        appended += 1;
                    }
                    Err(e) => {
                        self.stats.record_error(e.reason());
                        self.stats.records_skipped += 1;
                        self.stats.bytes_skipped += len as u64;
                    }
                }
            }
            Ok(SourcePoll::Batch(appended))
        }

        fn stats(&self) -> IngestStats {
            self.stats
        }

        fn name(&self) -> &str {
            "af_packet"
        }

        fn is_live(&self) -> bool {
            true
        }
    }
}

/// The stub that stands in for [`LiveSource`] on platforms without
/// `AF_PACKET`: opening always fails with the structured
/// [`LiveCaptureError::Unsupported`], and the type still implements
/// [`PacketSource`] so downstream signatures stay portable.
#[cfg(not(target_os = "linux"))]
mod unsupported {
    use super::*;

    /// Placeholder live source on non-Linux targets. Cannot be
    /// constructed: [`open`](Self::open) always returns
    /// [`LiveCaptureError::Unsupported`].
    #[derive(Debug)]
    pub struct LiveSource {
        never: std::convert::Infallible,
    }

    impl LiveSource {
        /// Always fails: live capture needs Linux `AF_PACKET`.
        ///
        /// # Errors
        ///
        /// [`LiveCaptureError::Unsupported`], always.
        pub fn open(_config: LiveConfig) -> Result<LiveSource, LiveCaptureError> {
            Err(LiveCaptureError::Unsupported {
                platform: std::env::consts::OS,
            })
        }

        /// The interface this source captures on (uninhabited).
        pub fn interface(&self) -> &str {
            match self.never {}
        }
    }

    impl PacketSource for LiveSource {
        fn next_batch(
            &mut self,
            _out: &mut Vec<(Packet, Direction)>,
            _max: usize,
        ) -> Result<SourcePoll, NetError> {
            match self.never {}
        }

        fn stats(&self) -> IngestStats {
            match self.never {}
        }

        fn name(&self) -> &str {
            match self.never {}
        }

        fn is_live(&self) -> bool {
            match self.never {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcap::{self, RecoveryPolicy};
    use crate::{FiveTuple, Protocol, TcpFlags};

    fn packet(secs: f64, src: &str, dst: &str) -> Packet {
        Packet::tcp(
            Timestamp::from_secs(secs),
            FiveTuple::new(Protocol::Tcp, src.parse().unwrap(), dst.parse().unwrap()),
            TcpFlags::SYN,
            vec![0u8; 16],
        )
    }

    fn sample_packets() -> Vec<Packet> {
        (0..10)
            .map(|i| {
                packet(
                    i as f64,
                    &format!("10.0.0.{}:4000", i + 1),
                    "198.51.100.9:6881",
                )
            })
            .collect()
    }

    #[test]
    fn pcap_source_streams_and_labels_everything() {
        let packets = sample_packets();
        let bytes = pcap::to_bytes(packets.iter(), 65535).unwrap();
        let net: Cidr = "10.0.0.0/16".parse().unwrap();
        let mut source = PcapSource::new(PcapReader::new(&bytes[..]).unwrap(), net);
        assert!(!source.is_live());

        let mut out = Vec::new();
        loop {
            match source.next_batch(&mut out, 3).unwrap() {
                SourcePoll::End => break,
                SourcePoll::Batch(n) => assert!((1..=3).contains(&n)),
                SourcePoll::Idle => panic!("pcap sources never idle"),
            }
        }
        assert_eq!(out.len(), packets.len());
        assert!(out.iter().all(|(_, d)| *d == Direction::Outbound));
        assert_eq!(source.stats().records_ok, packets.len() as u64);
        // Terminal polls stay End.
        assert_eq!(source.next_batch(&mut out, 3).unwrap(), SourcePoll::End);
    }

    #[test]
    fn buffered_source_drains_a_pcap_source_identically() {
        let packets = sample_packets();
        let bytes = pcap::to_bytes(packets.iter(), 65535).unwrap();
        let net: Cidr = "10.0.0.0/16".parse().unwrap();
        let mut pcap_source = PcapSource::new(PcapReader::new(&bytes[..]).unwrap(), net);
        let mut buffered = BufferedSource::drain(&mut pcap_source).unwrap();
        assert_eq!(buffered.len(), packets.len());
        assert_eq!(buffered.stats(), pcap_source.stats());

        let mut out = Vec::new();
        assert_eq!(
            buffered.next_batch(&mut out, usize::MAX).unwrap(),
            SourcePoll::Batch(packets.len())
        );
        assert_eq!(buffered.next_batch(&mut out, 8).unwrap(), SourcePoll::End);
    }

    #[test]
    fn looped_source_restamps_monotonically() {
        let net: Cidr = "10.0.0.0/16".parse().unwrap();
        let mut source = BufferedSource::labeled(sample_packets(), net).looped(true);
        let mut out = Vec::new();
        // Pull three full cycles worth.
        while out.len() < 30 {
            match source.next_batch(&mut out, 7).unwrap() {
                SourcePoll::Batch(_) => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        let mut last = Timestamp::ZERO;
        for (p, _) in &out {
            assert!(p.ts() >= last, "timestamps must stay monotone");
            last = p.ts();
        }
        // Cycle 2's first packet is one whole span later than cycle 1's.
        assert!(out[10].0.ts() > out[9].0.ts());
    }

    /// A capture whose last record is not its latest still loops
    /// forward: each pass is shifted by the earliest-to-latest span, so
    /// every packet of pass c+1 is later than every packet of pass c.
    #[test]
    fn looped_source_restamps_out_of_order_captures_past_the_latest() {
        let net: Cidr = "10.0.0.0/16".parse().unwrap();
        let packets: Vec<Packet> = [10, 50, 20]
            .iter()
            .map(|&us| {
                packet(0.0, "10.0.0.1:4000", "198.51.100.9:6881")
                    .with_ts(Timestamp::from_micros(us))
            })
            .collect();
        let mut source = BufferedSource::labeled(packets, net).looped(true);
        let mut out = Vec::new();
        assert_eq!(
            source.next_batch(&mut out, 9).unwrap(),
            SourcePoll::Batch(9)
        );
        let stamps: Vec<u64> = out.iter().map(|(p, _)| p.ts().as_micros()).collect();
        assert_eq!(stamps, [10, 50, 20, 51, 91, 61, 92, 132, 102]);
        for (earlier, later) in stamps.chunks(3).zip(stamps.chunks(3).skip(1)) {
            let latest = earlier.iter().max().unwrap();
            assert!(
                later.iter().all(|ts| ts > latest),
                "{earlier:?} then {later:?}"
            );
        }
    }

    /// What `polls` calls of `next_batch(out, max)` must produce: each
    /// packet cloned on its own and restamped by `cycle × period`.
    fn per_packet_reference(
        packets: &[(Packet, Direction)],
        looped: bool,
        max: usize,
        polls: usize,
    ) -> (Vec<(Packet, Direction)>, Vec<SourcePoll>) {
        let stamps = || packets.iter().map(|(p, _)| p.ts().as_micros());
        let period = match (stamps().min(), stamps().max()) {
            (Some(earliest), Some(latest)) => latest - earliest + 1,
            _ => 1,
        };
        let (mut out, mut seen) = (Vec::new(), Vec::new());
        let (mut pos, mut cycle) = (0, 0u64);
        for _ in 0..polls {
            let mut n = 0;
            while !packets.is_empty() && n < max.max(1) {
                if pos == packets.len() {
                    if !looped {
                        break;
                    }
                    pos = 0;
                    cycle += 1;
                }
                let (packet, direction) = &packets[pos];
                let ts = Timestamp::from_micros(packet.ts().as_micros() + cycle * period);
                out.push((packet.clone().with_ts(ts), *direction));
                pos += 1;
                n += 1;
            }
            seen.push(if n == 0 {
                SourcePoll::End
            } else {
                SourcePoll::Batch(n)
            });
        }
        (out, seen)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(256))]

        /// Runs handed over in bulk are exactly the packets, payloads,
        /// timestamps and poll results of a packet-by-packet copy,
        /// through several wraps of a looped source (whose first pass
        /// copies and later passes restamp) and past the end of a finite
        /// one (whose one pass moves), on streams that may run back in
        /// time.
        #[test]
        fn buffered_source_matches_a_per_packet_copy(
            gaps in proptest::collection::vec(
                (
                    0u64..3_000_000,
                    0u64..1_000_000,
                    proptest::strategy::any::<bool>(),
                    0usize..48,
                ),
                0..201,
            ),
            max in 0usize..131,
            looped in proptest::strategy::any::<bool>(),
        ) {
            let mut ts = 1_000_000;
            let packets: Vec<(Packet, Direction)> = gaps
                .iter()
                .enumerate()
                .map(|(i, &(gap, back, outbound, payload))| {
                    ts += gap;
                    let tuple = FiveTuple::new(
                        Protocol::Tcp,
                        format!("10.0.0.{}:4000", i % 200 + 1).parse().unwrap(),
                        "198.51.100.9:6881".parse().unwrap(),
                    );
                    let p = Packet::tcp(
                        Timestamp::from_micros(ts - back),
                        tuple,
                        TcpFlags::ACK,
                        vec![i as u8; payload],
                    );
                    (p, if outbound { Direction::Outbound } else { Direction::Inbound })
                })
                .collect();
            // Enough polls to wrap a looped source three times over.
            let polls = 3 * packets.len() / max.max(1) + 4;
            let (want, want_polls) = per_packet_reference(&packets, looped, max, polls);
            let mut source = BufferedSource::new(packets, IngestStats::default()).looped(looped);
            let mut got = Vec::new();
            let got_polls: Vec<SourcePoll> = (0..polls)
                .map(|_| source.next_batch(&mut got, max).unwrap())
                .collect();
            proptest::prop_assert_eq!(got_polls, want_polls);
            proptest::prop_assert!(
                got == want,
                "{} packets handed over, {} expected",
                got.len(),
                want.len()
            );
        }
    }

    /// A `Read` that hands out one byte per call, so the reader never
    /// holds more than the record it is reading and every record takes
    /// the per-record path.
    struct ByteAtATime<'a>(&'a [u8]);

    impl Read for ByteAtATime<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match (self.0.split_first(), buf.first_mut()) {
                (Some((&byte, rest)), Some(slot)) => {
                    *slot = byte;
                    self.0 = rest;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    /// The capture written with the opposite byte order: every
    /// global-header and record-header field swapped, bodies verbatim.
    fn byte_swapped(native: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(native.len());
        let swap = |out: &mut Vec<u8>, field: &[u8]| out.extend(field.iter().rev());
        for field in [0..4, 4..6, 6..8, 8..12, 12..16, 16..20, 20..24] {
            swap(&mut out, &native[field]);
        }
        let mut at = 24;
        while at < native.len() {
            let incl = u32::from_le_bytes([
                native[at + 8],
                native[at + 9],
                native[at + 10],
                native[at + 11],
            ]) as usize;
            for field in 0..4 {
                swap(&mut out, &native[at + field * 4..at + field * 4 + 4]);
            }
            out.extend_from_slice(&native[at + 16..at + 16 + incl]);
            at += 16 + incl;
        }
        out
    }

    /// The corruptions of `tests/packet_source.rs`: truncate mid-record,
    /// flip a burst of bits, or stomp a range; `op` 3 leaves it clean.
    fn mutate(bytes: &[u8], op: u8, offset: usize, burst: usize) -> Vec<u8> {
        let mut b = bytes.to_vec();
        let len = b.len();
        match op {
            0 => b.truncate(25 + offset % (len - 25)),
            1 => {
                for i in 0..burst {
                    let at = (offset + i * 37) % len;
                    b[at] ^= 1 << (i % 8) as u8;
                }
            }
            2 => {
                let start = offset % len;
                let end = (start + burst).min(len);
                for (i, byte) in b[start..end].iter_mut().enumerate() {
                    *byte = (i as u8).wrapping_mul(31).wrapping_add(7);
                }
            }
            _ => {}
        }
        b
    }

    /// What one poll said, and the accounting right after it.
    type PollLog = Vec<(Result<SourcePoll, String>, IngestStats)>;

    /// Polls `source` with `max` until it ends or fails.
    fn poll_to_the_end<S: PacketSource>(
        source: &mut S,
        max: usize,
    ) -> (Vec<(Packet, Direction)>, PollLog) {
        let (mut out, mut log) = (Vec::new(), Vec::new());
        loop {
            let poll = source.next_batch(&mut out, max);
            let last = !matches!(poll, Ok(SourcePoll::Batch(_)));
            log.push((poll.map_err(|e| format!("{e:?}")), source.stats()));
            if last {
                return (out, log);
            }
        }
    }

    /// The batches `read_packet` one record at a time makes of a byte
    /// trickle: up to `max` packets a poll, `End` at end of input, and
    /// the first error as the last poll.
    fn per_record_reference(
        mut reader: PcapReader<ByteAtATime<'_>>,
        net: Cidr,
        max: usize,
    ) -> (Vec<(Packet, Direction)>, PollLog) {
        let (mut out, mut log) = (Vec::new(), Vec::new());
        loop {
            let mut n = 0;
            let poll = loop {
                if n == max {
                    break Ok(SourcePoll::Batch(n));
                }
                match reader.read_packet() {
                    Ok(Some(packet)) => {
                        let direction = net.direction_of(&packet.tuple());
                        out.push((packet, direction));
                        n += 1;
                    }
                    Ok(None) if n == 0 => break Ok(SourcePoll::End),
                    Ok(None) => break Ok(SourcePoll::Batch(n)),
                    Err(e) => break Err(format!("{e:?}")),
                }
            };
            let last = !matches!(poll, Ok(SourcePoll::Batch(_)));
            log.push((poll, *reader.stats()));
            if last {
                // A batch cut short by the end of input ends on the next poll.
                return (out, log);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(256))]

        /// The batch loop over 8 KiB reads is a per-record `read_packet`
        /// loop over a byte trickle: same packets, directions, polls,
        /// accounting and errors, under both policies and byte orders,
        /// on clean and corrupted captures.
        #[test]
        fn pcap_batches_match_per_record_reads(
            records in proptest::collection::vec(
                (
                    0usize..200,
                    proptest::strategy::any::<bool>(),
                    proptest::strategy::any::<bool>(),
                ),
                1..60,
            ),
            snaplen in 0usize..3,
            max in 1usize..131,
            skip in proptest::strategy::any::<bool>(),
            swapped in proptest::strategy::any::<bool>(),
            op in 0u8..4,
            offset in 0usize..40_000,
            burst in 1usize..64,
        ) {
            let packets: Vec<Packet> = records
                .iter()
                .enumerate()
                .map(|(i, &(payload, outbound, udp))| {
                    let inside = format!("10.0.{}.{}:{}", i % 7, i % 250 + 1, 4000 + i);
                    let outside = format!("198.51.100.{}:6881", i % 250 + 1);
                    let (src, dst) = if outbound { (inside, outside) } else { (outside, inside) };
                    let ts = Timestamp::from_micros(1_000_000 + 997 * i as u64);
                    let (src, dst) = (src.parse().unwrap(), dst.parse().unwrap());
                    if udp {
                        Packet::udp(ts, FiveTuple::new(Protocol::Udp, src, dst), vec![i as u8; payload])
                    } else {
                        let tuple = FiveTuple::new(Protocol::Tcp, src, dst);
                        Packet::tcp(ts, tuple, TcpFlags::ACK, vec![i as u8; payload])
                    }
                })
                .collect();
            let snaplen = [pcap::HEADER_SNAPLEN, 120, 65535][snaplen];
            let native = pcap::to_bytes(packets.iter(), snaplen).unwrap();
            let bytes = if swapped { byte_swapped(&native) } else { native.clone() };
            let bytes = mutate(&bytes, op, offset, burst);
            let policy = if skip { RecoveryPolicy::Skip } else { RecoveryPolicy::Strict };
            let net: Cidr = "10.0.0.0/16".parse().unwrap();

            let batched = PcapReader::with_policy(&bytes[..], policy);
            let trickled = PcapReader::with_policy(ByteAtATime(&bytes), policy);
            let (batched, trickled) = match (batched, trickled) {
                (Ok(batched), Ok(trickled)) => (batched, trickled),
                (batched, trickled) => {
                    proptest::prop_assert_eq!(
                        format!("{:?}", batched.err()),
                        format!("{:?}", trickled.err())
                    );
                    return Ok(());
                }
            };
            let (got, got_log) = poll_to_the_end(&mut PcapSource::new(batched, net), max);
            let (want, want_log) = per_record_reference(trickled, net, max);
            proptest::prop_assert_eq!(&got_log, &want_log);
            proptest::prop_assert!(
                got == want,
                "{} packets batched, {} read one by one",
                got.len(),
                want.len()
            );
            if swapped && op == 3 {
                // Both sides share the header parser, so a byte-order slip
                // would agree with itself: a clean swapped capture must
                // also read exactly like its native twin.
                let twin = PcapReader::with_policy(&native[..], policy).unwrap();
                let (twin, twin_log) = poll_to_the_end(&mut PcapSource::new(twin, net), max);
                proptest::prop_assert_eq!(got_log, twin_log);
                proptest::prop_assert!(got == twin, "a swapped capture reads unlike its twin");
            }
        }
    }

    #[test]
    fn live_source_on_missing_interface_is_structured() {
        let net: Cidr = "10.0.0.0/16".parse().unwrap();
        let err = match LiveSource::open(LiveConfig::new("upbound-definitely-not-a-nic0", net)) {
            Ok(_) => panic!("open of a nonexistent interface must fail"),
            Err(err) => err,
        };
        match err {
            LiveCaptureError::NoSuchInterface { interface } => {
                assert_eq!(interface, "upbound-definitely-not-a-nic0");
            }
            // Without CAP_NET_RAW some kernels report the permission
            // failure first; on non-Linux the platform gate fires first.
            LiveCaptureError::PermissionDenied { .. } | LiveCaptureError::Unsupported { .. } => {}
            LiveCaptureError::Io(e) => panic!("unexpected io error: {e}"),
        }
    }

    #[test]
    fn empty_buffered_source_ends_immediately() {
        let mut source = BufferedSource::new(Vec::new(), IngestStats::default());
        let mut out = Vec::new();
        assert_eq!(source.next_batch(&mut out, 4).unwrap(), SourcePoll::End);
        assert!(source.is_empty());
    }
}
