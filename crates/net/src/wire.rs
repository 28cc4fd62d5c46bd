//! Ethernet II / IPv4 / TCP / UDP wire encoding and decoding.
//!
//! The trace collector in the paper stores raw frames in tcpdump format;
//! this module is the codec between our in-memory [`Packet`] records and
//! those frames. Encoding produces a fully valid frame — correct lengths
//! and real Internet checksums (IPv4 header checksum, TCP/UDP checksum
//! over the pseudo-header) — and decoding verifies them, because the
//! paper's analyzer discards packets "with incorrect checksum values"
//! (§3.2).
//!
//! Sequence/acknowledgment numbers and windows are synthesized (the
//! reproduction does not model TCP reliability), so decode(encode(p))
//! recovers everything a [`Packet`] represents.

use crate::packet::{ETH_HDR_LEN, IPV4_HDR_LEN, TCP_HDR_LEN, UDP_HDR_LEN};
use crate::{FiveTuple, NetError, Packet, Protocol, TcpFlags, Timestamp};
use bytes::{BufMut, Bytes, BytesMut};
use std::net::{Ipv4Addr, SocketAddrV4};

const ETHERTYPE_IPV4: u16 = 0x0800;

/// Computes the Internet checksum (RFC 1071) of `data`.
///
/// The one's-complement sum of 16-bit words; odd trailing byte is padded
/// with zero. Returns the final complemented sum.
pub fn internet_checksum(data: &[u8]) -> u16 {
    fold(word_sum(data))
}

/// The plain sum of `data`'s big-endian 16-bit words, an odd trailing
/// byte padded with zero. Sums of even-length pieces add up to the sum of
/// their concatenation.
fn word_sum(data: &[u8]) -> u64 {
    let mut sum = 0u64;
    let mut chunks = data.chunks_exact(2);
    for w in &mut chunks {
        sum += u64::from(u16::from_be_bytes([w[0], w[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u64::from(u16::from_be_bytes([*last, 0]));
    }
    sum
}

/// Folds a word sum into 16 bits with end-around carry and complements it.
fn fold(mut sum: u64) -> u16 {
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// The TCP/UDP checksum of `segment` under the IPv4 pseudo-header,
/// summed in place: the 12-byte pseudo-header and the segment are folded
/// into one ones'-complement sum, with no buffer holding both.
fn transport_checksum(src: Ipv4Addr, dst: Ipv4Addr, protocol: Protocol, segment: &[u8]) -> u16 {
    let mut pseudo = [0u8; 12];
    pseudo[0..4].copy_from_slice(&src.octets());
    pseudo[4..8].copy_from_slice(&dst.octets());
    pseudo[9] = protocol.ip_number();
    pseudo[10..12].copy_from_slice(&(segment.len() as u16).to_be_bytes());
    fold(word_sum(&pseudo) + word_sum(segment))
}

/// Derives a deterministic locally-administered MAC address from an IPv4
/// address, so synthesized frames are stable across runs.
fn mac_for(addr: Ipv4Addr) -> [u8; 6] {
    let o = addr.octets();
    [0x02, 0x00, o[0], o[1], o[2], o[3]]
}

/// Encodes a [`Packet`] as a complete Ethernet II frame.
///
/// The frame length always reflects the packet's actual payload (it does
/// not attempt to re-inflate a stripped packet to its original
/// `wire_len`).
pub fn encode(packet: &Packet) -> Bytes {
    let tuple = packet.tuple();
    let payload = packet.payload();
    let transport_len = match packet.protocol() {
        Protocol::Tcp => TCP_HDR_LEN + payload.len(),
        Protocol::Udp => UDP_HDR_LEN + payload.len(),
    };
    let ip_total = IPV4_HDR_LEN + transport_len;
    let mut buf = BytesMut::with_capacity(ETH_HDR_LEN + ip_total);

    // Ethernet II.
    buf.put_slice(&mac_for(*tuple.dst().ip()));
    buf.put_slice(&mac_for(*tuple.src().ip()));
    buf.put_u16(ETHERTYPE_IPV4);

    // IPv4 header with checksum.
    let mut ip = [0u8; IPV4_HDR_LEN];
    ip[0] = 0x45; // version 4, IHL 5
    ip[1] = 0; // DSCP/ECN
    ip[2..4].copy_from_slice(&(ip_total as u16).to_be_bytes());
    // Identification: derived from the timestamp for determinism.
    ip[4..6].copy_from_slice(&((packet.ts().as_micros() & 0xFFFF) as u16).to_be_bytes());
    ip[6] = 0x40; // Don't Fragment
    ip[8] = 64; // TTL
    ip[9] = packet.protocol().ip_number();
    ip[12..16].copy_from_slice(&tuple.src().ip().octets());
    ip[16..20].copy_from_slice(&tuple.dst().ip().octets());
    let ip_ck = internet_checksum(&ip);
    ip[10..12].copy_from_slice(&ip_ck.to_be_bytes());
    buf.put_slice(&ip);

    // Transport header + payload.
    match packet.protocol() {
        Protocol::Tcp => {
            let mut tcp = vec![0u8; TCP_HDR_LEN + payload.len()];
            tcp[0..2].copy_from_slice(&tuple.src().port().to_be_bytes());
            tcp[2..4].copy_from_slice(&tuple.dst().port().to_be_bytes());
            // Sequence number derived from the timestamp (not modeled).
            let seq = (packet.ts().as_micros() as u32).to_be_bytes();
            tcp[4..8].copy_from_slice(&seq);
            tcp[12] = (5 << 4) as u8; // data offset 5 words
            tcp[13] = packet.tcp_flags().unwrap_or(TcpFlags::EMPTY).bits();
            tcp[14..16].copy_from_slice(&65535u16.to_be_bytes()); // window
            tcp[TCP_HDR_LEN..].copy_from_slice(payload);
            let ck = transport_checksum(*tuple.src().ip(), *tuple.dst().ip(), Protocol::Tcp, &tcp);
            tcp[16..18].copy_from_slice(&ck.to_be_bytes());
            buf.put_slice(&tcp);
        }
        Protocol::Udp => {
            let mut udp = vec![0u8; UDP_HDR_LEN + payload.len()];
            udp[0..2].copy_from_slice(&tuple.src().port().to_be_bytes());
            udp[2..4].copy_from_slice(&tuple.dst().port().to_be_bytes());
            udp[4..6].copy_from_slice(&((UDP_HDR_LEN + payload.len()) as u16).to_be_bytes());
            udp[UDP_HDR_LEN..].copy_from_slice(payload);
            let ck = transport_checksum(*tuple.src().ip(), *tuple.dst().ip(), Protocol::Udp, &udp);
            // RFC 768: a computed checksum of zero is transmitted as 0xFFFF.
            let ck = if ck == 0 { 0xFFFF } else { ck };
            udp[6..8].copy_from_slice(&ck.to_be_bytes());
            buf.put_slice(&udp);
        }
    }
    buf.freeze()
}

/// Controls checksum verification during [`decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChecksumPolicy {
    /// Reject frames whose IPv4 or transport checksum does not verify,
    /// like the paper's analyzer.
    Verify,
    /// Accept frames without checking (e.g. snaplen-truncated captures,
    /// whose transport checksums cannot be recomputed).
    Ignore,
}

/// Decodes an Ethernet II frame into a [`Packet`] stamped with `ts`.
///
/// `orig_len` is the original wire length from the capture record; the
/// decoded packet's `wire_len` uses it so truncated captures keep correct
/// byte accounting.
///
/// # Errors
///
/// * [`NetError::Truncated`] if any header is incomplete.
/// * [`NetError::InvalidField`] for non-IPv4 frames, IP options, or
///   fragmented packets (none of which the substrate generates).
/// * [`NetError::UnsupportedProtocol`] for transports other than TCP/UDP.
/// * [`NetError::BadChecksum`] under [`ChecksumPolicy::Verify`] when a
///   checksum fails.
///
/// A header-only frame allocates nothing; a non-empty payload is copied
/// with one allocation. Checksums are verified without a buffer. The
/// function is `#[inline]` so the pcap reader's batch loop, compiled in
/// the caller's crate, decodes without a cross-crate call.
#[inline]
pub fn decode(
    frame: &[u8],
    ts: Timestamp,
    orig_len: u32,
    policy: ChecksumPolicy,
) -> Result<Packet, NetError> {
    let need = |context: &'static str, needed: usize| NetError::Truncated {
        context,
        needed,
        available: frame.len(),
    };
    if frame.len() < ETH_HDR_LEN {
        return Err(need("Ethernet header", ETH_HDR_LEN));
    }
    let ethertype = u16::from_be_bytes([frame[12], frame[13]]);
    if ethertype != ETHERTYPE_IPV4 {
        return Err(NetError::InvalidField {
            field: "ethertype",
            value: ethertype as u64,
        });
    }
    let ip = &frame[ETH_HDR_LEN..];
    if ip.len() < IPV4_HDR_LEN {
        return Err(need("IPv4 header", ETH_HDR_LEN + IPV4_HDR_LEN));
    }
    if ip[0] != 0x45 {
        return Err(NetError::InvalidField {
            field: "ip version/ihl",
            value: ip[0] as u64,
        });
    }
    if policy == ChecksumPolicy::Verify && internet_checksum(&ip[..IPV4_HDR_LEN]) != 0 {
        return Err(NetError::BadChecksum { layer: "IPv4" });
    }
    let total_len = u16::from_be_bytes([ip[2], ip[3]]) as usize;
    if total_len < IPV4_HDR_LEN {
        // A total length shorter than the header itself is structurally
        // impossible; without this check the transport slice below would
        // panic on `[IPV4_HDR_LEN..total_len]`.
        return Err(NetError::InvalidField {
            field: "ip total length",
            value: total_len as u64,
        });
    }
    let truncated = ip.len() < total_len;
    if truncated && policy == ChecksumPolicy::Verify {
        // A snaplen-truncated frame cannot verify its transport checksum.
        return Err(need("IPv4 total length", ETH_HDR_LEN + total_len));
    }
    let protocol = Protocol::from_ip_number(ip[9])?;
    let src_ip = Ipv4Addr::new(ip[12], ip[13], ip[14], ip[15]);
    let dst_ip = Ipv4Addr::new(ip[16], ip[17], ip[18], ip[19]);
    let transport = &ip[IPV4_HDR_LEN..total_len.min(ip.len())];

    let packet = match protocol {
        Protocol::Tcp => {
            if transport.len() < TCP_HDR_LEN {
                return Err(need("TCP header", ETH_HDR_LEN + IPV4_HDR_LEN + TCP_HDR_LEN));
            }
            if policy == ChecksumPolicy::Verify
                && transport_checksum(src_ip, dst_ip, Protocol::Tcp, transport) != 0
            {
                return Err(NetError::BadChecksum { layer: "TCP" });
            }
            let sport = u16::from_be_bytes([transport[0], transport[1]]);
            let dport = u16::from_be_bytes([transport[2], transport[3]]);
            let data_off = ((transport[12] >> 4) as usize) * 4;
            if data_off < TCP_HDR_LEN || transport.len() < data_off {
                return Err(NetError::InvalidField {
                    field: "tcp data offset",
                    value: (transport[12] >> 4) as u64,
                });
            }
            let flags = TcpFlags::from_bits(transport[13]);
            let tuple = FiveTuple::new(
                Protocol::Tcp,
                SocketAddrV4::new(src_ip, sport),
                SocketAddrV4::new(dst_ip, dport),
            );
            Packet::tcp(
                ts,
                tuple,
                flags,
                Bytes::copy_from_slice(&transport[data_off..]),
            )
        }
        Protocol::Udp => {
            if transport.len() < UDP_HDR_LEN {
                return Err(need("UDP header", ETH_HDR_LEN + IPV4_HDR_LEN + UDP_HDR_LEN));
            }
            if policy == ChecksumPolicy::Verify {
                let stored = u16::from_be_bytes([transport[6], transport[7]]);
                // A zero stored checksum means "not computed" (RFC 768).
                if stored != 0 && transport_checksum(src_ip, dst_ip, Protocol::Udp, transport) != 0
                {
                    return Err(NetError::BadChecksum { layer: "UDP" });
                }
            }
            let sport = u16::from_be_bytes([transport[0], transport[1]]);
            let dport = u16::from_be_bytes([transport[2], transport[3]]);
            let udp_len = u16::from_be_bytes([transport[4], transport[5]]) as usize;
            if udp_len < UDP_HDR_LEN || (!truncated && transport.len() < udp_len) {
                return Err(NetError::InvalidField {
                    field: "udp length",
                    value: udp_len as u64,
                });
            }
            let udp_len = udp_len.min(transport.len());
            let tuple = FiveTuple::new(
                Protocol::Udp,
                SocketAddrV4::new(src_ip, sport),
                SocketAddrV4::new(dst_ip, dport),
            );
            Packet::udp(
                ts,
                tuple,
                Bytes::copy_from_slice(&transport[UDP_HDR_LEN..udp_len]),
            )
        }
    };
    Ok(packet.with_wire_len(orig_len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tcp_packet(payload: &[u8]) -> Packet {
        let tuple = FiveTuple::new(
            Protocol::Tcp,
            "10.0.0.1:4567".parse().unwrap(),
            "192.0.2.9:6881".parse().unwrap(),
        );
        Packet::tcp(
            Timestamp::from_secs(1.25),
            tuple,
            TcpFlags::PSH | TcpFlags::ACK,
            payload.to_vec(),
        )
    }

    fn udp_packet(payload: &[u8]) -> Packet {
        let tuple = FiveTuple::new(
            Protocol::Udp,
            "10.0.0.1:4567".parse().unwrap(),
            "192.0.2.9:53".parse().unwrap(),
        );
        Packet::udp(Timestamp::from_secs(2.0), tuple, payload.to_vec())
    }

    #[test]
    fn undersized_ip_total_length_is_invalid_not_a_panic() {
        // A single bit-flip in the IP total-length field of a valid frame
        // can declare fewer bytes than the IPv4 header itself; the slice
        // `[IPV4_HDR_LEN..total_len]` used to panic on that.
        let p = tcp_packet(b"data");
        let mut frame = encode(&p).to_vec();
        frame[ETH_HDR_LEN + 2] = 0;
        frame[ETH_HDR_LEN + 3] = 10; // total_len = 10 < 20
        for policy in [ChecksumPolicy::Ignore, ChecksumPolicy::Verify] {
            match decode(&frame, p.ts(), p.wire_len(), policy) {
                Err(NetError::InvalidField { field, value }) => {
                    assert_eq!(field, "ip total length");
                    assert_eq!(value, 10);
                }
                Err(NetError::BadChecksum { .. }) if policy == ChecksumPolicy::Verify => {}
                other => panic!("expected invalid field, got {other:?}"),
            }
        }
    }

    #[test]
    fn checksum_matches_rfc1071_example() {
        // Classic example: two words summing with carry.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), 0x220d);
    }

    #[test]
    fn checksum_of_odd_length_pads_zero() {
        assert_eq!(internet_checksum(&[0xFF]), !0xFF00u16);
    }

    #[test]
    fn tcp_round_trip() {
        let p = tcp_packet(b"\x13BitTorrent protocol");
        let frame = encode(&p);
        let q = decode(&frame, p.ts(), p.wire_len(), ChecksumPolicy::Verify).unwrap();
        assert_eq!(q, p);
    }

    #[test]
    fn udp_round_trip() {
        let p = udp_packet(b"dns-query");
        let frame = encode(&p);
        let q = decode(&frame, p.ts(), p.wire_len(), ChecksumPolicy::Verify).unwrap();
        assert_eq!(q, p);
    }

    #[test]
    fn empty_payload_round_trip() {
        for p in [tcp_packet(b""), udp_packet(b"")] {
            let frame = encode(&p);
            let q = decode(&frame, p.ts(), p.wire_len(), ChecksumPolicy::Verify).unwrap();
            assert_eq!(q, p);
        }
    }

    #[test]
    fn corrupted_ip_checksum_is_rejected() {
        let p = tcp_packet(b"data");
        let mut frame = encode(&p).to_vec();
        frame[ETH_HDR_LEN + 10] ^= 0xFF; // flip IPv4 checksum byte
        let err = decode(&frame, p.ts(), p.wire_len(), ChecksumPolicy::Verify).unwrap_err();
        assert!(matches!(err, NetError::BadChecksum { layer: "IPv4" }));
        // Ignore policy lets it through.
        assert!(decode(&frame, p.ts(), p.wire_len(), ChecksumPolicy::Ignore).is_ok());
    }

    #[test]
    fn corrupted_payload_fails_tcp_checksum() {
        let p = tcp_packet(b"data");
        let mut frame = encode(&p).to_vec();
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        let err = decode(&frame, p.ts(), p.wire_len(), ChecksumPolicy::Verify).unwrap_err();
        assert!(matches!(err, NetError::BadChecksum { layer: "TCP" }));
    }

    #[test]
    fn corrupted_udp_payload_fails_checksum() {
        let p = udp_packet(b"data");
        let mut frame = encode(&p).to_vec();
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        let err = decode(&frame, p.ts(), p.wire_len(), ChecksumPolicy::Verify).unwrap_err();
        assert!(matches!(err, NetError::BadChecksum { layer: "UDP" }));
    }

    #[test]
    fn truncated_frames_error_cleanly() {
        let p = tcp_packet(b"payload");
        let frame = encode(&p);
        for cut in [
            0,
            5,
            ETH_HDR_LEN - 1,
            ETH_HDR_LEN + 3,
            ETH_HDR_LEN + IPV4_HDR_LEN + 2,
        ] {
            let err = decode(&frame[..cut], p.ts(), p.wire_len(), ChecksumPolicy::Ignore);
            assert!(err.is_err(), "cut={cut} should fail");
        }
    }

    #[test]
    fn non_ipv4_frame_is_rejected() {
        let p = tcp_packet(b"");
        let mut frame = encode(&p).to_vec();
        frame[12] = 0x86; // IPv6 ethertype
        frame[13] = 0xDD;
        assert!(matches!(
            decode(&frame, p.ts(), p.wire_len(), ChecksumPolicy::Ignore),
            Err(NetError::InvalidField {
                field: "ethertype",
                ..
            })
        ));
    }

    #[test]
    fn icmp_protocol_is_unsupported() {
        let p = tcp_packet(b"");
        let mut frame = encode(&p).to_vec();
        frame[ETH_HDR_LEN + 9] = 1; // ICMP
                                    // Fix the IP checksum so we reach the protocol dispatch.
        frame[ETH_HDR_LEN + 10] = 0;
        frame[ETH_HDR_LEN + 11] = 0;
        let ck = internet_checksum(&frame[ETH_HDR_LEN..ETH_HDR_LEN + IPV4_HDR_LEN]);
        frame[ETH_HDR_LEN + 10..ETH_HDR_LEN + 12].copy_from_slice(&ck.to_be_bytes());
        assert!(matches!(
            decode(&frame, p.ts(), p.wire_len(), ChecksumPolicy::Verify),
            Err(NetError::UnsupportedProtocol(1))
        ));
    }

    #[test]
    fn orig_len_is_preserved_for_truncated_captures() {
        let p = tcp_packet(b"x");
        let frame = encode(&p);
        let q = decode(&frame, p.ts(), 9999, ChecksumPolicy::Verify).unwrap();
        assert_eq!(q.wire_len(), 9999);
    }

    /// The transport checksum as a copy of the pseudo-header and the
    /// segment into one buffer, summed whole: the reference the in-place
    /// sum must match.
    fn transport_checksum_of_a_copy(
        src: Ipv4Addr,
        dst: Ipv4Addr,
        protocol: Protocol,
        segment: &[u8],
    ) -> u16 {
        let mut pseudo = Vec::with_capacity(12 + segment.len());
        pseudo.extend_from_slice(&src.octets());
        pseudo.extend_from_slice(&dst.octets());
        pseudo.push(0);
        pseudo.push(protocol.ip_number());
        pseudo.extend_from_slice(&(segment.len() as u16).to_be_bytes());
        pseudo.extend_from_slice(segment);
        internet_checksum(&pseudo)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(512))]

        /// Folding the pseudo-header and the segment into one sum gives
        /// the checksum of their concatenation, for odd and even lengths.
        #[test]
        fn transport_checksum_matches_a_copied_pseudo_header(
            segment in proptest::collection::vec(proptest::strategy::any::<u8>(), 0..1501),
            src in proptest::strategy::any::<u32>(),
            dst in proptest::strategy::any::<u32>(),
            udp in proptest::strategy::any::<bool>(),
        ) {
            let protocol = if udp { Protocol::Udp } else { Protocol::Tcp };
            let (src, dst) = (Ipv4Addr::from(src), Ipv4Addr::from(dst));
            proptest::prop_assert_eq!(
                transport_checksum(src, dst, protocol, &segment),
                transport_checksum_of_a_copy(src, dst, protocol, &segment)
            );
        }
    }

    #[test]
    fn frame_length_matches_headers_plus_payload() {
        let p = udp_packet(b"abc");
        assert_eq!(
            encode(&p).len(),
            ETH_HDR_LEN + IPV4_HDR_LEN + UDP_HDR_LEN + 3
        );
    }
}
