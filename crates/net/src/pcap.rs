//! From-scratch reader/writer for the classic libpcap capture format.
//!
//! The paper's traffic monitor collects traces with tcpdump in three
//! stages: full-payload captures, then verified header-only captures
//! "stored using the same format as the tcpdump program" (§3.2). This
//! module reimplements that format:
//!
//! * 24-byte global header (magic `0xa1b2c3d4`, version 2.4, snaplen,
//!   linktype 1 = Ethernet);
//! * 16-byte per-record headers (seconds, microseconds, captured length,
//!   original length);
//! * both byte orders on read (a capture written on a foreign-endian
//!   machine has the byte-swapped magic `0xd4c3b2a1`);
//! * snaplen truncation on write — setting a snaplen of
//!   [`HEADER_SNAPLEN`] produces the paper's layer-2–4 header-only
//!   traces.
//!
//! Reading is batched: records that already sit wholly inside the
//! reader's buffer decode in one loop, and only a record that crosses
//! the buffer's end or fails to decode takes the per-record path that
//! fills, fails, skips or resynchronizes.
//!
//! # Examples
//!
//! ```
//! use upbound_net::pcap::{PcapWriter, PcapReader};
//! use upbound_net::{Packet, FiveTuple, Protocol, TcpFlags, Timestamp};
//!
//! let tuple = FiveTuple::new(
//!     Protocol::Tcp,
//!     "10.0.0.1:1000".parse()?,
//!     "192.0.2.1:80".parse()?,
//! );
//! let packet = Packet::tcp(Timestamp::from_secs(1.0), tuple, TcpFlags::SYN, &[][..]);
//!
//! let mut buf = Vec::new();
//! let mut writer = PcapWriter::new(&mut buf, 65535)?;
//! writer.write_packet(&packet)?;
//!
//! let mut reader = PcapReader::new(&buf[..])?;
//! let restored = reader.read_packet()?.expect("one record");
//! assert_eq!(restored, packet);
//! assert!(reader.read_packet()?.is_none());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::wire::{self, ChecksumPolicy};
use crate::{IngestReason, NetError, Packet, Timestamp};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::sync::Arc;
use upbound_telemetry::{Counter, LatencyRecorder, Registry};

/// Native-order pcap magic number (microsecond timestamps).
pub const MAGIC: u32 = 0xa1b2_c3d4;
/// Byte-swapped magic, indicating the file was written on a machine of
/// the opposite endianness.
pub const MAGIC_SWAPPED: u32 = 0xd4c3_b2a1;
/// Linktype for Ethernet frames.
pub const LINKTYPE_ETHERNET: u32 = 1;
/// A snaplen that keeps exactly the Ethernet + IPv4 + TCP headers —
/// the paper's "layer 2 to layer 4 packet headers" trace format.
pub const HEADER_SNAPLEN: u32 = 54;
/// The largest snaplen (and therefore per-record allocation) the reader
/// accepts — tcpdump's own `MAXIMUM_SNAPLEN`. A crafted global header
/// declaring, say, `0xFFFFFFFF` would otherwise let a single record
/// header demand a ~4 GiB buffer.
pub const MAX_SNAPLEN: u32 = 262_144;

/// Streaming pcap writer over any [`Write`].
///
/// A `&mut W` also implements `Write`, so a mutable reference can be
/// passed when the caller wants to keep the underlying writer.
#[derive(Debug)]
pub struct PcapWriter<W: Write> {
    out: W,
    snaplen: u32,
    records: u64,
}

impl<W: Write> PcapWriter<W> {
    /// Writes the global header and returns the writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn new(mut out: W, snaplen: u32) -> Result<Self, NetError> {
        out.write_all(&MAGIC.to_le_bytes())?;
        out.write_all(&2u16.to_le_bytes())?; // version major
        out.write_all(&4u16.to_le_bytes())?; // version minor
        out.write_all(&0i32.to_le_bytes())?; // thiszone
        out.write_all(&0u32.to_le_bytes())?; // sigfigs
        out.write_all(&snaplen.to_le_bytes())?;
        out.write_all(&LINKTYPE_ETHERNET.to_le_bytes())?;
        Ok(Self {
            out,
            snaplen,
            records: 0,
        })
    }

    /// Encodes `packet` to a frame and appends one record, truncating the
    /// stored bytes to the snaplen.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write_packet(&mut self, packet: &Packet) -> Result<(), NetError> {
        let frame = wire::encode(packet);
        let orig_len = frame.len().max(packet.wire_len() as usize) as u32;
        let incl_len = (frame.len() as u32).min(self.snaplen);
        let (sec, usec) = packet.ts().to_sec_usec();
        self.out.write_all(&sec.to_le_bytes())?;
        self.out.write_all(&usec.to_le_bytes())?;
        self.out.write_all(&incl_len.to_le_bytes())?;
        self.out.write_all(&orig_len.to_le_bytes())?;
        self.out.write_all(&frame[..incl_len as usize])?;
        self.records += 1;
        Ok(())
    }

    /// Number of records written so far.
    pub fn records_written(&self) -> u64 {
        self.records
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates the flush error, if any.
    pub fn finish(mut self) -> Result<W, NetError> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// What the reader does when it meets a malformed record mid-stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Surface the first malformed record as an error (classic behavior).
    #[default]
    Strict,
    /// Count the error, skip past the corrupt bytes, and resynchronize on
    /// the next decodable record. `read_packet` then never fails except
    /// for I/O errors and only returns `Ok(None)` at end of input.
    Skip,
}

/// Running ingestion accounting kept by [`PcapReader`].
///
/// `records_skipped` counts *corrupt regions*: a region opened by one
/// malformed record may swallow several original records before the
/// reader resynchronizes, and the bytes it covered are summed in
/// `bytes_skipped`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestStats {
    /// Records successfully decoded into packets.
    pub records_ok: u64,
    /// Corrupt regions skipped (only ever non-zero under
    /// [`RecoveryPolicy::Skip`]).
    pub records_skipped: u64,
    /// Bytes discarded while skipping corrupt regions.
    pub bytes_skipped: u64,
    errors: [u64; IngestReason::ALL.len()],
}

impl IngestStats {
    /// How many errors of `reason` were observed.
    pub fn errors_for(&self, reason: IngestReason) -> u64 {
        self.errors[reason.index()]
    }

    /// Total errors observed across every reason.
    pub fn errors_total(&self) -> u64 {
        self.errors.iter().sum()
    }

    /// Iterates `(reason, count)` pairs in [`IngestReason::ALL`] order.
    pub fn by_reason(&self) -> impl Iterator<Item = (IngestReason, u64)> + '_ {
        IngestReason::ALL
            .into_iter()
            .map(move |r| (r, self.errors[r.index()]))
    }

    /// Counts one error of `reason`.
    ///
    /// Public so packet sources outside the pcap reader (e.g. the live
    /// `AF_PACKET` source) can account decode failures in the same
    /// taxonomy.
    pub fn record_error(&mut self, reason: IngestReason) {
        self.errors[reason.index()] += 1;
    }

    /// Folds `n` kernel-side capture drops into the
    /// [`IngestReason::KernelDrop`] bucket. Live sources call this with
    /// the delta read from the kernel's own socket statistics.
    pub fn record_kernel_drops(&mut self, n: u64) {
        self.errors[IngestReason::KernelDrop.index()] += n;
    }

    /// Packets the kernel dropped before userspace could read them.
    pub fn kernel_drops(&self) -> u64 {
        self.errors_for(IngestReason::KernelDrop)
    }

    fn count(&mut self, reason: IngestReason) {
        self.record_error(reason);
    }
}

/// Per-reason ingestion counters backed by a telemetry [`Registry`].
///
/// Metric names follow the repo convention:
/// `upbound_net_ingest_records_ok_total`,
/// `upbound_net_ingest_records_skipped_total`,
/// `upbound_net_ingest_bytes_skipped_total`, and one
/// `upbound_net_ingest_errors_<reason>_total` per [`IngestReason`].
#[derive(Debug, Clone)]
pub struct IngestTelemetry {
    records_ok: Arc<Counter>,
    records_skipped: Arc<Counter>,
    bytes_skipped: Arc<Counter>,
    errors: [Arc<Counter>; IngestReason::ALL.len()],
    read_latency: Arc<LatencyRecorder>,
}

impl IngestTelemetry {
    /// Registers (or re-attaches to) the ingestion counters in `registry`.
    pub fn register(registry: &Registry) -> Self {
        Self {
            records_ok: registry.counter(
                "upbound_net_ingest_records_ok_total",
                "pcap records successfully decoded into packets",
            ),
            records_skipped: registry.counter(
                "upbound_net_ingest_records_skipped_total",
                "corrupt pcap regions skipped by the recovering reader",
            ),
            bytes_skipped: registry.counter(
                "upbound_net_ingest_bytes_skipped_total",
                "bytes discarded while skipping corrupt pcap regions",
            ),
            errors: IngestReason::ALL.map(|r| {
                registry.counter(
                    &format!("upbound_net_ingest_errors_{}_total", r.as_str()),
                    "ingestion errors observed, by taxonomy reason",
                )
            }),
            read_latency: registry.latency(
                "upbound_net_ingest_read_latency_seconds",
                "Wall-clock latency of reading/decoding one trace batch",
            ),
        }
    }

    /// The ingest-stage latency recorder (the pipeline's ingest scope
    /// feeds it; exported as a Prometheus histogram).
    pub fn read_latency(&self) -> &Arc<LatencyRecorder> {
        &self.read_latency
    }

    /// Records the wall-clock time one read/decode step took.
    pub fn record_read_latency(&self, elapsed: std::time::Duration) {
        self.read_latency.record(elapsed);
    }

    /// Counts one error that happened outside a reader (e.g. a failed
    /// [`PcapReader::new`], where no [`IngestStats`] exists yet).
    pub fn record_error(&self, reason: IngestReason) {
        self.errors[reason.index()].inc();
    }

    /// Adds a finished reader's [`IngestStats`] into the counters.
    ///
    /// Call once per completed ingestion pass; the counters are monotonic
    /// and publishing the same stats twice double-counts.
    pub fn publish(&self, stats: &IngestStats) {
        self.records_ok.add(stats.records_ok);
        self.records_skipped.add(stats.records_skipped);
        self.bytes_skipped.add(stats.bytes_skipped);
        for (reason, n) in stats.by_reason() {
            self.errors[reason.index()].add(n);
        }
    }
}

const GLOBAL_HDR_LEN: usize = 24;
const REC_HDR_LEN: usize = 16;
/// Consumed-prefix length above which `fill` compacts the buffer, so a
/// byte-at-a-time resync stays amortized O(1) per byte instead of
/// re-shifting the buffer on every slide.
const COMPACT_THRESHOLD: usize = 4096;
/// Spare tail `fill` keeps in the buffer before each read, so one read
/// call can bring in many records.
const READ_CHUNK: usize = 8192;

struct RecHeader {
    sec: u32,
    usec: u32,
    incl_len: usize,
    orig_len: u32,
}

/// Streaming pcap reader over any [`Read`].
///
/// Checksums are *not* verified while reading (truncated captures cannot
/// verify); pass decoded frames through [`wire::decode`] with
/// [`ChecksumPolicy::Verify`] if verification is required.
///
/// The reader buffers internally so it can look ahead without committing:
/// under [`RecoveryPolicy::Skip`] a malformed record is counted in
/// [`IngestStats`], its bytes are discarded, and reading resumes at the
/// next position that both looks like a plausible record header *and*
/// whose body actually wire-decodes.
#[derive(Debug)]
pub struct PcapReader<R: Read> {
    input: R,
    swapped: bool,
    snaplen: u32,
    records: u64,
    policy: RecoveryPolicy,
    stats: IngestStats,
    /// `buf[pos..end]` is buffered input; `buf[end..]` is spare tail the
    /// next read writes into (zeroed once, when the buffer grows).
    buf: Vec<u8>,
    pos: usize,
    end: usize,
    eof: bool,
}

impl<R: Read> PcapReader<R> {
    /// Reads and validates the global header with [`RecoveryPolicy::Strict`].
    ///
    /// # Errors
    ///
    /// See [`PcapReader::with_policy`].
    pub fn new(input: R) -> Result<Self, NetError> {
        Self::with_policy(input, RecoveryPolicy::Strict)
    }

    /// Reads and validates the global header.
    ///
    /// The recovery policy only governs per-record handling: a capture
    /// whose *global* header is unusable cannot be resynchronized and
    /// fails under either policy.
    ///
    /// # Errors
    ///
    /// * [`NetError::Truncated`] when the input ends inside the 24-byte
    ///   global header.
    /// * [`NetError::BadMagic`] for an unrecognized magic number.
    /// * [`NetError::Oversized`] for a snaplen above [`MAX_SNAPLEN`].
    /// * [`NetError::InvalidField`] for a non-Ethernet linktype.
    /// * I/O errors from the underlying reader.
    pub fn with_policy(input: R, policy: RecoveryPolicy) -> Result<Self, NetError> {
        let mut reader = Self {
            input,
            swapped: false,
            snaplen: 0,
            records: 0,
            policy,
            stats: IngestStats::default(),
            buf: Vec::new(),
            pos: 0,
            end: 0,
            eof: false,
        };
        reader.fill(GLOBAL_HDR_LEN)?;
        let avail = reader.available();
        if avail < GLOBAL_HDR_LEN {
            return Err(NetError::Truncated {
                context: "pcap global header",
                needed: GLOBAL_HDR_LEN,
                available: avail,
            });
        }
        let mut header = [0u8; GLOBAL_HDR_LEN];
        header.copy_from_slice(&reader.buf[reader.pos..reader.pos + GLOBAL_HDR_LEN]);
        let raw_magic = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        reader.swapped = match raw_magic {
            MAGIC => false,
            MAGIC_SWAPPED => true,
            other => return Err(NetError::BadMagic(other)),
        };
        let snaplen = reader.read_u32(&header[16..20]);
        let linktype = reader.read_u32(&header[20..24]);
        if snaplen > MAX_SNAPLEN {
            return Err(NetError::Oversized {
                context: "pcap snaplen",
                len: snaplen as u64,
                limit: MAX_SNAPLEN as u64,
            });
        }
        if linktype != LINKTYPE_ETHERNET {
            return Err(NetError::InvalidField {
                field: "linktype",
                value: linktype as u64,
            });
        }
        reader.snaplen = snaplen;
        reader.consume(GLOBAL_HDR_LEN);
        Ok(reader)
    }

    fn read_u32(&self, bytes: &[u8]) -> u32 {
        let arr = [bytes[0], bytes[1], bytes[2], bytes[3]];
        if self.swapped {
            u32::from_be_bytes(arr)
        } else {
            u32::from_le_bytes(arr)
        }
    }

    /// The snaplen declared in the global header.
    pub fn snaplen(&self) -> u32 {
        self.snaplen
    }

    /// Number of records decoded so far.
    pub fn records_read(&self) -> u64 {
        self.records
    }

    /// The recovery policy this reader was built with.
    pub fn policy(&self) -> RecoveryPolicy {
        self.policy
    }

    /// Ingestion accounting: decoded records, skipped regions/bytes, and
    /// per-reason error counts.
    pub fn stats(&self) -> &IngestStats {
        &self.stats
    }

    fn available(&self) -> usize {
        self.end - self.pos
    }

    /// Buffers input until at least `want` bytes are available or the
    /// input is exhausted. Callers re-check [`PcapReader::available`].
    ///
    /// Returns at once when `want` bytes are already buffered (the
    /// common case: most records sit inside the last read). Otherwise
    /// compacts the consumed prefix and reads straight into the spare
    /// tail of the buffer.
    fn fill(&mut self, want: usize) -> Result<(), NetError> {
        if self.available() >= want {
            return Ok(());
        }
        if self.pos >= COMPACT_THRESHOLD || self.pos == self.end {
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
        }
        while !self.eof && self.available() < want {
            if self.buf.len() - self.end < READ_CHUNK {
                self.buf.resize(self.end + READ_CHUNK, 0);
            }
            match self.input.read(&mut self.buf[self.end..]) {
                Ok(0) => self.eof = true,
                Ok(n) => self.end += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(NetError::Io(e)),
            }
        }
        Ok(())
    }

    fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.available());
        self.pos += n;
    }

    fn parse_rec_header(&self) -> RecHeader {
        let b = &self.buf[self.pos..self.pos + REC_HDR_LEN];
        RecHeader {
            sec: self.read_u32(&b[0..4]),
            usec: self.read_u32(&b[4..8]),
            incl_len: self.read_u32(&b[8..12]) as usize,
            orig_len: self.read_u32(&b[12..16]),
        }
    }

    /// Reads the next record, returning `Ok(None)` at end of input.
    ///
    /// Under [`RecoveryPolicy::Skip`] malformed records are counted and
    /// skipped instead of reported, so the only errors are I/O errors.
    ///
    /// # Errors
    ///
    /// (Strict mode.)
    ///
    /// * [`NetError::Truncated`] when the file ends inside a record, with
    ///   the actual byte counts observed.
    /// * [`NetError::InvalidField`] when a record's `incl_len` exceeds
    ///   the declared snaplen.
    /// * Frame decode errors from [`wire::decode`] (checksum verification
    ///   disabled).
    pub fn read_packet(&mut self) -> Result<Option<Packet>, NetError> {
        match self.policy {
            RecoveryPolicy::Strict => {
                let r = self.next_record_strict();
                if let Err(e) = &r {
                    self.stats.count(e.reason());
                }
                r
            }
            RecoveryPolicy::Skip => self.next_record_skip(),
        }
    }

    fn next_record_strict(&mut self) -> Result<Option<Packet>, NetError> {
        self.fill(REC_HDR_LEN)?;
        let avail = self.available();
        if avail == 0 {
            return Ok(None); // clean EOF
        }
        if avail < REC_HDR_LEN {
            return Err(NetError::Truncated {
                context: "pcap record header",
                needed: REC_HDR_LEN,
                available: avail,
            });
        }
        let hdr = self.parse_rec_header();
        if hdr.incl_len > self.snaplen as usize {
            return Err(NetError::InvalidField {
                field: "incl_len",
                value: hdr.incl_len as u64,
            });
        }
        self.fill(REC_HDR_LEN + hdr.incl_len)?;
        match self.decode_buffered() {
            Some(packet) => packet.map(Some),
            None => Err(NetError::Truncated {
                context: "pcap record body",
                needed: hdr.incl_len,
                available: self.available() - REC_HDR_LEN,
            }),
        }
    }

    /// Skip-mode reading: trust plausible framing, otherwise slide.
    ///
    /// Two regimes, tracked by `resync`:
    ///
    /// * **Aligned** (`resync == false`): the cursor sits where a record
    ///   header should be. A header within snaplen is trusted, so a body
    ///   that fails to decode skips exactly that record and stays
    ///   aligned.
    /// * **Resynchronizing** (`resync == true`): framing has been lost;
    ///   the reader slides one byte at a time and only accepts an offset
    ///   whose header passes *stricter* plausibility (valid microseconds,
    ///   non-empty body, `orig_len >= incl_len`) **and** whose body
    ///   actually wire-decodes.
    fn next_record_skip(&mut self) -> Result<Option<Packet>, NetError> {
        let mut resync = false;
        // Every iteration either returns or consumes at least one byte,
        // so the loop terminates on any input.
        loop {
            self.fill(REC_HDR_LEN)?;
            let avail = self.available();
            if avail == 0 {
                return Ok(None);
            }
            if avail < REC_HDR_LEN {
                // Trailing partial header: nothing further can decode.
                if !resync {
                    self.stats.count(IngestReason::Truncated);
                    self.stats.records_skipped += 1;
                }
                self.stats.bytes_skipped += avail as u64;
                self.consume(avail);
                return Ok(None);
            }
            let hdr = self.parse_rec_header();
            let plausible = hdr.incl_len <= self.snaplen as usize
                && (!resync
                    || (hdr.usec < 1_000_000
                        && hdr.incl_len > 0
                        && hdr.orig_len as usize >= hdr.incl_len));
            if !plausible {
                if !resync {
                    self.stats.count(IngestReason::InvalidField);
                    self.stats.records_skipped += 1;
                    resync = true;
                }
                self.consume(1);
                self.stats.bytes_skipped += 1;
                continue;
            }
            let total = REC_HDR_LEN + hdr.incl_len;
            self.fill(total)?;
            match self.decode_buffered() {
                Some(Ok(packet)) => return Ok(Some(packet)),
                None => {
                    // Header claims more bytes than remain. A shorter
                    // record may still start later in the tail, so keep
                    // sliding instead of discarding the tail wholesale.
                    if !resync {
                        self.stats.count(IngestReason::Truncated);
                        self.stats.records_skipped += 1;
                        resync = true;
                    }
                    self.consume(1);
                    self.stats.bytes_skipped += 1;
                }
                Some(Err(e)) => {
                    if resync {
                        self.consume(1);
                        self.stats.bytes_skipped += 1;
                    } else {
                        // Aligned header within snaplen: trust its
                        // framing and skip exactly this record.
                        self.stats.count(e.reason());
                        self.stats.records_skipped += 1;
                        self.consume(total);
                        self.stats.bytes_skipped += total as u64;
                    }
                }
            }
        }
    }

    /// Decodes the record at the cursor if its header and body are
    /// already buffered and its `incl_len` is within the snaplen: the one
    /// place a record is framed, decoded and counted.
    ///
    /// A decoded record is consumed and counted in `records` and
    /// `records_ok`. `None` (the record is not wholly buffered, or claims
    /// more than the snaplen) and a decode error leave the cursor and the
    /// accounting as they were, for the caller's policy to fill, fail,
    /// skip or slide.
    #[inline]
    fn decode_buffered(&mut self) -> Option<Result<Packet, NetError>> {
        let avail = self.available();
        if avail < REC_HDR_LEN {
            return None;
        }
        let hdr = self.parse_rec_header();
        let total = REC_HDR_LEN + hdr.incl_len;
        if hdr.incl_len > self.snaplen as usize || avail < total {
            return None;
        }
        let ts = Timestamp::from_sec_usec(hdr.sec, hdr.usec);
        let frame = &self.buf[self.pos + REC_HDR_LEN..self.pos + total];
        let packet = wire::decode(frame, ts, hdr.orig_len, ChecksumPolicy::Ignore);
        if packet.is_ok() {
            self.consume(total);
            self.records += 1;
            self.stats.records_ok += 1;
        }
        Some(packet)
    }

    /// Reads up to `max` records into `out`, each passed through `label`,
    /// and returns whether the input is exhausted.
    ///
    /// Every record already wholly buffered decodes in this loop; a
    /// record that crosses the buffer's end, exceeds the snaplen or fails
    /// to decode takes [`read_packet`](Self::read_packet)'s per-policy
    /// path, which fills, fails, skips or resynchronizes. In the aligned
    /// regime both policies accept a well-formed record the same way, so
    /// the packets, [`IngestStats`] and errors are those of `max` calls
    /// to `read_packet`. A strict error leaves the records read before it
    /// in `out`.
    pub(crate) fn read_batch<T>(
        &mut self,
        out: &mut Vec<T>,
        max: usize,
        mut label: impl FnMut(Packet) -> T,
    ) -> Result<bool, NetError> {
        let mut n = 0;
        while n < max {
            // No call to the per-policy path inside this loop: with that
            // call in its body, the loop measured about a fifth slower.
            while n < max {
                let Some(Ok(packet)) = self.decode_buffered() else {
                    break;
                };
                out.push(label(packet));
                n += 1;
            }
            if n == max {
                break;
            }
            match self.read_packet()? {
                Some(packet) => {
                    out.push(label(packet));
                    n += 1;
                }
                None => return Ok(true),
            }
        }
        Ok(false)
    }

    /// Reads every remaining record into a vector.
    ///
    /// # Errors
    ///
    /// Under [`RecoveryPolicy::Strict`], stops at the first malformed
    /// record and returns its error; under [`RecoveryPolicy::Skip`], only
    /// I/O errors are possible.
    pub fn read_all(&mut self) -> Result<Vec<Packet>, NetError> {
        let mut out = Vec::new();
        while let Some(p) = self.read_packet()? {
            out.push(p);
        }
        Ok(out)
    }
}

/// Convenience: writes `packets` to a fresh in-memory pcap byte buffer.
///
/// # Errors
///
/// Propagates writer errors (infallible for `Vec<u8>` in practice).
pub fn to_bytes<'a, I: IntoIterator<Item = &'a Packet>>(
    packets: I,
    snaplen: u32,
) -> Result<Vec<u8>, NetError> {
    let mut buf = Vec::new();
    let mut writer = PcapWriter::new(&mut buf, snaplen)?;
    for p in packets {
        writer.write_packet(p)?;
    }
    writer.finish()?;
    Ok(buf)
}

/// Convenience: parses every record of an in-memory pcap byte buffer.
///
/// # Errors
///
/// Fails on a bad global header or any malformed record.
pub fn from_bytes(bytes: &[u8]) -> Result<Vec<Packet>, NetError> {
    PcapReader::new(bytes)?.read_all()
}

/// Convenience: parses an in-memory pcap byte buffer under
/// [`RecoveryPolicy::Skip`], returning every record that survived
/// recovery together with the ingestion accounting.
///
/// # Errors
///
/// Fails only on an unusable *global* header (see
/// [`PcapReader::with_policy`]); per-record corruption is skipped and
/// counted instead.
pub fn from_bytes_recovering(bytes: &[u8]) -> Result<(Vec<Packet>, IngestStats), NetError> {
    let mut reader = PcapReader::with_policy(bytes, RecoveryPolicy::Skip)?;
    let packets = reader.read_all()?;
    Ok((packets, *reader.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FiveTuple, Protocol, TcpFlags};

    fn sample_packets() -> Vec<Packet> {
        let tcp = FiveTuple::new(
            Protocol::Tcp,
            "10.0.0.1:1000".parse().unwrap(),
            "192.0.2.1:80".parse().unwrap(),
        );
        let udp = FiveTuple::new(
            Protocol::Udp,
            "10.0.0.2:5353".parse().unwrap(),
            "192.0.2.2:53".parse().unwrap(),
        );
        vec![
            Packet::tcp(Timestamp::from_secs(0.5), tcp, TcpFlags::SYN, &[][..]),
            Packet::tcp(
                Timestamp::from_secs(1.0),
                tcp,
                TcpFlags::PSH | TcpFlags::ACK,
                b"GET / HTTP/1.1\r\n".to_vec(),
            ),
            Packet::udp(Timestamp::from_secs(2.25), udp, b"query".to_vec()),
        ]
    }

    #[test]
    fn round_trip_preserves_packets() {
        let packets = sample_packets();
        let bytes = to_bytes(&packets, 65535).unwrap();
        let restored = from_bytes(&bytes).unwrap();
        assert_eq!(restored, packets);
    }

    #[test]
    fn snaplen_truncates_but_keeps_orig_len() {
        let packets = sample_packets();
        let bytes = to_bytes(&packets, HEADER_SNAPLEN).unwrap();
        let restored = from_bytes(&bytes).unwrap();
        // Payloads are stripped but wire lengths are the originals.
        assert!(restored[1].payload().is_empty());
        assert_eq!(restored[1].wire_len(), packets[1].wire_len());
        assert_eq!(restored[1].tuple(), packets[1].tuple());
        assert_eq!(restored[1].tcp_flags(), packets[1].tcp_flags());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = to_bytes(&sample_packets(), 65535).unwrap();
        bytes[0] = 0x00;
        assert!(matches!(from_bytes(&bytes), Err(NetError::BadMagic(_))));
    }

    #[test]
    fn swapped_endianness_is_readable() {
        // Hand-build a big-endian header + one record.
        let packets = sample_packets();
        let native = to_bytes(&packets[..1], 65535).unwrap();
        let mut swapped = Vec::new();
        // Swap each u32/u16 field of the global header.
        swapped.extend_from_slice(&MAGIC.to_be_bytes());
        swapped.extend_from_slice(&2u16.to_be_bytes());
        swapped.extend_from_slice(&4u16.to_be_bytes());
        swapped.extend_from_slice(&0u32.to_be_bytes());
        swapped.extend_from_slice(&0u32.to_be_bytes());
        swapped.extend_from_slice(&65535u32.to_be_bytes());
        swapped.extend_from_slice(&LINKTYPE_ETHERNET.to_be_bytes());
        // Record header fields byte-swapped; body verbatim.
        let rec = &native[24..];
        for i in 0..4 {
            let mut field = [rec[i * 4], rec[i * 4 + 1], rec[i * 4 + 2], rec[i * 4 + 3]];
            field.reverse();
            swapped.extend_from_slice(&field);
        }
        swapped.extend_from_slice(&rec[16..]);
        let restored = from_bytes(&swapped).unwrap();
        assert_eq!(restored, packets[..1]);
    }

    #[test]
    fn truncated_record_header_errors() {
        let bytes = to_bytes(&sample_packets()[..1], 65535).unwrap();
        let cut = &bytes[..24 + 7];
        let mut reader = PcapReader::new(cut).unwrap();
        assert!(matches!(
            reader.read_packet(),
            Err(NetError::Truncated {
                context: "pcap record header",
                ..
            })
        ));
    }

    #[test]
    fn truncated_record_body_errors() {
        let bytes = to_bytes(&sample_packets()[..1], 65535).unwrap();
        let cut = &bytes[..bytes.len() - 3];
        let mut reader = PcapReader::new(cut).unwrap();
        assert!(matches!(
            reader.read_packet(),
            Err(NetError::Truncated {
                context: "pcap record body",
                ..
            })
        ));
    }

    #[test]
    fn incl_len_beyond_snaplen_is_invalid() {
        let mut bytes = to_bytes(&sample_packets()[..1], 65535).unwrap();
        // Shrink the declared snaplen below the record's incl_len.
        bytes[16..20].copy_from_slice(&10u32.to_le_bytes());
        let mut reader = PcapReader::new(&bytes[..]).unwrap();
        assert!(matches!(
            reader.read_packet(),
            Err(NetError::InvalidField {
                field: "incl_len",
                ..
            })
        ));
    }

    #[test]
    fn wrong_linktype_is_rejected() {
        let mut bytes = to_bytes(&sample_packets()[..1], 65535).unwrap();
        bytes[20..24].copy_from_slice(&101u32.to_le_bytes()); // raw IP
        assert!(matches!(
            PcapReader::new(&bytes[..]),
            Err(NetError::InvalidField {
                field: "linktype",
                ..
            })
        ));
    }

    #[test]
    fn empty_capture_yields_no_packets() {
        let bytes = to_bytes(std::iter::empty(), 65535).unwrap();
        assert!(from_bytes(&bytes).unwrap().is_empty());
    }

    /// Byte offsets of each record (and its body) inside `to_bytes`
    /// output for `sample_packets()` at snaplen 65535: records are 16
    /// bytes of header plus the full frame.
    fn record_offsets(packets: &[Packet]) -> Vec<(usize, usize)> {
        let mut offsets = Vec::new();
        let mut at = 24;
        for p in packets {
            let frame_len = wire::encode(p).len();
            offsets.push((at, 16 + frame_len));
            at += 16 + frame_len;
        }
        offsets
    }

    #[test]
    fn truncated_header_reports_real_counts() {
        let bytes = to_bytes(&sample_packets()[..1], 65535).unwrap();
        let cut = &bytes[..24 + 7];
        let mut reader = PcapReader::new(cut).unwrap();
        match reader.read_packet() {
            Err(NetError::Truncated {
                context,
                needed,
                available,
            }) => {
                assert_eq!(context, "pcap record header");
                assert_eq!(needed, 16);
                assert_eq!(available, 7);
            }
            other => panic!("expected truncation, got {other:?}"),
        }
        assert_eq!(reader.stats().errors_for(IngestReason::Truncated), 1);
    }

    #[test]
    fn truncated_body_reports_real_counts() {
        let packets = sample_packets();
        let frame_len = wire::encode(&packets[0]).len();
        let bytes = to_bytes(&packets[..1], 65535).unwrap();
        let cut = &bytes[..bytes.len() - 3];
        let mut reader = PcapReader::new(cut).unwrap();
        match reader.read_packet() {
            Err(NetError::Truncated {
                context,
                needed,
                available,
            }) => {
                assert_eq!(context, "pcap record body");
                assert_eq!(needed, frame_len);
                assert_eq!(available, frame_len - 3);
            }
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn truncated_global_header_reports_real_counts() {
        let bytes = to_bytes(&sample_packets()[..1], 65535).unwrap();
        match PcapReader::new(&bytes[..10]) {
            Err(NetError::Truncated {
                context,
                needed,
                available,
            }) => {
                assert_eq!(context, "pcap global header");
                assert_eq!(needed, 24);
                assert_eq!(available, 10);
            }
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn oversized_snaplen_is_rejected() {
        let mut bytes = to_bytes(&sample_packets()[..1], 65535).unwrap();
        bytes[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        match PcapReader::new(&bytes[..]) {
            Err(NetError::Oversized {
                context,
                len,
                limit,
            }) => {
                assert_eq!(context, "pcap snaplen");
                assert_eq!(len, u32::MAX as u64);
                assert_eq!(limit, MAX_SNAPLEN as u64);
            }
            other => panic!("expected oversized, got {other:?}"),
        }
        // The same file is rejected under Skip too: the global header is
        // not recoverable.
        assert!(matches!(
            PcapReader::with_policy(&bytes[..], RecoveryPolicy::Skip),
            Err(NetError::Oversized { .. })
        ));
    }

    #[test]
    fn max_snaplen_itself_is_accepted() {
        let packets = sample_packets();
        let bytes = to_bytes(&packets, MAX_SNAPLEN).unwrap();
        assert_eq!(from_bytes(&bytes).unwrap(), packets);
    }

    #[test]
    fn skip_mode_on_clean_capture_matches_strict() {
        let packets = sample_packets();
        let bytes = to_bytes(&packets, 65535).unwrap();
        let (restored, stats) = from_bytes_recovering(&bytes).unwrap();
        assert_eq!(restored, packets);
        assert_eq!(stats.records_ok, 3);
        assert_eq!(stats.records_skipped, 0);
        assert_eq!(stats.bytes_skipped, 0);
        assert_eq!(stats.errors_total(), 0);
    }

    #[test]
    fn skip_mode_skips_record_with_corrupt_body() {
        let packets = sample_packets();
        let mut bytes = to_bytes(&packets, 65535).unwrap();
        let offsets = record_offsets(&packets);
        // Destroy record 1's ethertype so its body no longer decodes;
        // the header stays intact, so exactly that record is skipped.
        let (rec1, rec1_len) = offsets[1];
        bytes[rec1 + 16 + 12] = 0xFF;
        bytes[rec1 + 16 + 13] = 0xFF;
        let (restored, stats) = from_bytes_recovering(&bytes).unwrap();
        assert_eq!(restored, vec![packets[0].clone(), packets[2].clone()]);
        assert_eq!(stats.records_ok, 2);
        assert_eq!(stats.records_skipped, 1);
        assert_eq!(stats.bytes_skipped, rec1_len as u64);
        assert_eq!(stats.errors_total(), 1);
    }

    #[test]
    fn skip_mode_resyncs_past_corrupt_record_header() {
        let packets = sample_packets();
        let mut bytes = to_bytes(&packets, 65535).unwrap();
        let offsets = record_offsets(&packets);
        // Claim an impossible incl_len in record 1's header: framing is
        // lost and the reader must resynchronize on record 2.
        let (rec1, rec1_len) = offsets[1];
        bytes[rec1 + 8..rec1 + 12].copy_from_slice(&0x00FF_FFFFu32.to_le_bytes());
        let (restored, stats) = from_bytes_recovering(&bytes).unwrap();
        assert_eq!(restored, vec![packets[0].clone(), packets[2].clone()]);
        assert_eq!(stats.records_ok, 2);
        assert_eq!(stats.records_skipped, 1);
        assert_eq!(stats.bytes_skipped, rec1_len as u64);
        assert_eq!(stats.errors_for(IngestReason::InvalidField), 1);
    }

    #[test]
    fn skip_mode_truncated_tail_yields_decodable_prefix() {
        let packets = sample_packets();
        let bytes = to_bytes(&packets, 65535).unwrap();
        let cut = &bytes[..bytes.len() - 5];
        let mut reader = PcapReader::with_policy(cut, RecoveryPolicy::Skip).unwrap();
        let restored = reader.read_all().unwrap();
        assert_eq!(restored, packets[..2]);
        let stats = reader.stats();
        assert_eq!(stats.records_ok, 2);
        assert_eq!(stats.records_skipped, 1);
        assert_eq!(stats.errors_for(IngestReason::Truncated), 1);
        // Everything after the decodable prefix was discarded.
        let tail = bytes.len() - 5 - record_offsets(&packets)[2].0;
        assert_eq!(stats.bytes_skipped, tail as u64);
    }

    #[test]
    fn skip_mode_garbage_between_records_is_crossed() {
        let packets = sample_packets();
        let bytes = to_bytes(&packets, 65535).unwrap();
        let offsets = record_offsets(&packets);
        // Splice 33 bytes of garbage between records 0 and 1.
        let (rec1, _) = offsets[1];
        let mut spliced = bytes[..rec1].to_vec();
        spliced.extend(std::iter::repeat_n(0xAB, 33));
        spliced.extend_from_slice(&bytes[rec1..]);
        let (restored, stats) = from_bytes_recovering(&spliced).unwrap();
        assert_eq!(restored, packets);
        assert_eq!(stats.records_ok, 3);
        assert_eq!(stats.records_skipped, 1);
        assert_eq!(stats.bytes_skipped, 33);
    }

    /// A `Read` that hands out 1–13 bytes per call and fails every fifth
    /// call with `Interrupted`, so records straddle many short reads.
    struct ChoppyReader<'a> {
        data: &'a [u8],
        calls: usize,
    }

    impl Read for ChoppyReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(5) {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            let n = (1 + self.calls * 7 % 13)
                .min(buf.len())
                .min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// `read_all` plus the final accounting; errors compared by `Debug`.
    fn read_all_with_stats<R: Read>(
        input: R,
        policy: RecoveryPolicy,
    ) -> (Result<Vec<Packet>, String>, IngestStats) {
        let mut reader = PcapReader::with_policy(input, policy).unwrap();
        let packets = reader.read_all().map_err(|e| format!("{e:?}"));
        (packets, *reader.stats())
    }

    #[test]
    fn short_interrupted_reads_match_the_slice_reader() {
        // Enough varied records to span several read chunks and
        // compactions.
        let packets: Vec<Packet> = (0..400u16)
            .map(|i| {
                let tuple = FiveTuple::new(
                    Protocol::Tcp,
                    "10.0.0.1:1000".parse().unwrap(),
                    std::net::SocketAddrV4::new([192, 0, 2, 1].into(), 1 + i),
                );
                let payload = vec![i as u8; usize::from(i % 7) * 41];
                Packet::tcp(
                    Timestamp::from_micros(u64::from(i) * 10),
                    tuple,
                    TcpFlags::ACK,
                    payload,
                )
            })
            .collect();
        let clean = to_bytes(&packets, 65535).unwrap();
        let mut corrupt_body = clean.clone();
        let (rec, _) = record_offsets(&packets)[150];
        corrupt_body[rec + 16 + 12] = 0xFF;
        corrupt_body[rec + 16 + 13] = 0xFF;
        let truncated = &clean[..clean.len() - 5];

        for input in [&clean[..], &corrupt_body[..], truncated] {
            for policy in [RecoveryPolicy::Strict, RecoveryPolicy::Skip] {
                let expected = read_all_with_stats(input, policy);
                let choppy = ChoppyReader {
                    data: input,
                    calls: 0,
                };
                assert_eq!(read_all_with_stats(choppy, policy), expected, "{policy:?}");
            }
        }
    }

    #[test]
    fn ingest_telemetry_publishes_counters() {
        let packets = sample_packets();
        let mut bytes = to_bytes(&packets, 65535).unwrap();
        let (rec1, _) = record_offsets(&packets)[1];
        bytes[rec1 + 16 + 12] = 0xFF;
        bytes[rec1 + 16 + 13] = 0xFF;
        let (_, stats) = from_bytes_recovering(&bytes).unwrap();

        let registry = Registry::new();
        let telemetry = IngestTelemetry::register(&registry);
        telemetry.publish(&stats);
        telemetry.record_error(IngestReason::BadMagic);

        let snap = registry.snapshot();
        assert_eq!(snap.counter("upbound_net_ingest_records_ok_total"), Some(2));
        assert_eq!(
            snap.counter("upbound_net_ingest_records_skipped_total"),
            Some(1)
        );
        assert_eq!(
            snap.counter("upbound_net_ingest_errors_bad_magic_total"),
            Some(1)
        );
        let skipped = snap
            .counter("upbound_net_ingest_bytes_skipped_total")
            .unwrap();
        assert!(skipped > 0);
    }

    #[test]
    fn record_counters_track() {
        let packets = sample_packets();
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf, 65535).unwrap();
        for p in &packets {
            w.write_packet(p).unwrap();
        }
        assert_eq!(w.records_written(), 3);
        w.finish().unwrap();
        let mut r = PcapReader::new(&buf[..]).unwrap();
        r.read_all().unwrap();
        assert_eq!(r.records_read(), 3);
        assert_eq!(r.snaplen(), 65535);
    }
}
