//! Five-tuple socket pairs and the hash keys derived from them.

use crate::Protocol;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::SocketAddrV4;

/// A five-tuple socket pair: `{protocol, src addr, src port, dst addr,
/// dst port}`, written `{TCP, A, x, B, y}` in the paper (§3.2).
///
/// Packets of one connection flow in both directions, so a connection is
/// identified equally by a tuple `s` and by its inverse `s̄`; see
/// [`FiveTuple::inverse`] and [`FiveTuple::canonical`].
///
/// # Examples
///
/// ```
/// use upbound_net::{FiveTuple, Protocol};
///
/// let t = FiveTuple::new(
///     Protocol::Tcp,
///     "10.0.0.1:1234".parse()?,
///     "192.0.2.8:80".parse()?,
/// );
/// let back = t.inverse();
/// assert_eq!(back.src(), t.dst());
/// assert_eq!(t.canonical(), back.canonical());
/// # Ok::<(), std::net::AddrParseError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FiveTuple {
    protocol: Protocol,
    src: SocketAddrV4,
    dst: SocketAddrV4,
}

impl FiveTuple {
    /// Creates a five-tuple from a protocol, source, and destination.
    pub const fn new(protocol: Protocol, src: SocketAddrV4, dst: SocketAddrV4) -> Self {
        Self { protocol, src, dst }
    }

    /// The transport protocol.
    pub const fn protocol(self) -> Protocol {
        self.protocol
    }

    /// Source endpoint (address and port).
    pub const fn src(self) -> SocketAddrV4 {
        self.src
    }

    /// Destination endpoint (address and port).
    pub const fn dst(self) -> SocketAddrV4 {
        self.dst
    }

    /// The inverse socket pair `s̄`: source and destination swapped.
    ///
    /// An inbound packet of a connection carries the inverse of the tuple
    /// its outbound packets carry.
    pub const fn inverse(self) -> FiveTuple {
        FiveTuple {
            protocol: self.protocol,
            src: self.dst,
            dst: self.src,
        }
    }

    /// A direction-independent form: the lexicographically smaller of
    /// `self` and `self.inverse()`.
    ///
    /// Both directions of one connection share the same canonical tuple,
    /// which is what the analyzer keys its connection table on.
    pub fn canonical(self) -> FiveTuple {
        let inv = self.inverse();
        if (
            self.src.ip().octets(),
            self.src.port(),
            self.dst.ip().octets(),
            self.dst.port(),
        ) <= (
            inv.src.ip().octets(),
            inv.src.port(),
            inv.dst.ip().octets(),
            inv.dst.port(),
        ) {
            self
        } else {
            inv
        }
    }

    /// The key the bitmap filter hashes when this tuple appears on an
    /// **outbound** packet.
    ///
    /// With `hole_punching` enabled the remote (destination) port is
    /// omitted — `{protocol, src addr, src port, dst addr}` per §4.2 — so
    /// that a NAT hole punched toward a host admits that host's inbound
    /// connection from any source port.
    pub fn outbound_key(self, hole_punching: bool) -> FilterKey {
        FilterKey {
            protocol: self.protocol,
            client: self.src,
            remote_addr: *self.dst.ip(),
            remote_port: if hole_punching {
                None
            } else {
                Some(self.dst.port())
            },
        }
    }

    /// The key the bitmap filter hashes when this tuple appears on an
    /// **inbound** packet; equals the [`outbound_key`](Self::outbound_key)
    /// of the connection's outbound direction.
    ///
    /// For an inbound tuple the client is the destination, so the key is
    /// `{protocol, dst addr, dst port, src addr}` (plus the source port
    /// when hole punching is disabled).
    pub fn inbound_key(self, hole_punching: bool) -> FilterKey {
        self.inverse().outbound_key(hole_punching)
    }
}

impl fmt::Display for FiveTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{} {} -> {}}}", self.protocol, self.src, self.dst)
    }
}

/// The bytes the bitmap filter actually hashes for one packet.
///
/// `client` is always the inside endpoint's address+port and `remote_*`
/// the outside endpoint, so an outbound packet and the matching inbound
/// packet of the same connection produce **identical** keys — the property
/// that lets the filter recognize responses. The remote port is `None`
/// when hole-punching support is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FilterKey {
    protocol: Protocol,
    client: SocketAddrV4,
    remote_addr: std::net::Ipv4Addr,
    remote_port: Option<u16>,
}

impl FilterKey {
    /// Serializes the key to a fixed 14-byte buffer for hashing.
    ///
    /// Layout: protocol (1) | client addr (4) | client port (2) |
    /// remote addr (4) | remote port (2) | port-present flag (1). The
    /// trailing flag byte keeps the hole-punching encoding disjoint from
    /// every full-tuple encoding, so the two modes can never collide.
    ///
    /// Inlined so a caller that hashes the key right away (the packet
    /// path's `HashedKey`) builds the bytes in registers instead of
    /// through a call and a stack round trip.
    #[inline]
    pub fn to_bytes(self) -> [u8; 14] {
        let mut out = [0u8; 14];
        out[0] = self.protocol.ip_number();
        out[1..5].copy_from_slice(&self.client.ip().octets());
        out[5..7].copy_from_slice(&self.client.port().to_be_bytes());
        out[7..11].copy_from_slice(&self.remote_addr.octets());
        match self.remote_port {
            Some(p) => {
                out[11..13].copy_from_slice(&p.to_be_bytes());
                out[13] = 1;
            }
            None => {
                out[13] = 0;
            }
        }
        out
    }

    /// The client (inside) endpoint.
    pub const fn client(self) -> SocketAddrV4 {
        self.client
    }

    /// The remote (outside) address.
    pub const fn remote_addr(self) -> std::net::Ipv4Addr {
        self.remote_addr
    }

    /// The remote port, absent when hole punching is enabled.
    pub const fn remote_port(self) -> Option<u16> {
        self.remote_port
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple(src: &str, dst: &str) -> FiveTuple {
        FiveTuple::new(Protocol::Tcp, src.parse().unwrap(), dst.parse().unwrap())
    }

    #[test]
    fn inverse_is_involution() {
        let t = tuple("10.0.0.1:1234", "192.0.2.8:80");
        assert_eq!(t.inverse().inverse(), t);
        assert_ne!(t.inverse(), t);
    }

    #[test]
    fn canonical_is_direction_independent() {
        let t = tuple("10.0.0.1:1234", "192.0.2.8:80");
        assert_eq!(t.canonical(), t.inverse().canonical());
        // Canonical of a canonical tuple is itself.
        assert_eq!(t.canonical().canonical(), t.canonical());
    }

    #[test]
    fn canonical_differs_for_distinct_connections() {
        let a = tuple("10.0.0.1:1234", "192.0.2.8:80");
        let b = tuple("10.0.0.1:1235", "192.0.2.8:80");
        assert_ne!(a.canonical(), b.canonical());
    }

    #[test]
    fn outbound_and_inbound_keys_match_for_one_connection() {
        let out = tuple("10.0.0.1:1234", "192.0.2.8:80");
        let inbound = out.inverse();
        for hole in [false, true] {
            assert_eq!(out.outbound_key(hole), inbound.inbound_key(hole));
        }
    }

    #[test]
    fn hole_punching_ignores_remote_port_only() {
        let a = tuple("10.0.0.1:1234", "192.0.2.8:80");
        let b = tuple("10.0.0.1:1234", "192.0.2.8:8080");
        assert_eq!(a.outbound_key(true), b.outbound_key(true));
        assert_ne!(a.outbound_key(false), b.outbound_key(false));
        // Client port still matters under hole punching.
        let c = tuple("10.0.0.1:999", "192.0.2.8:80");
        assert_ne!(a.outbound_key(true), c.outbound_key(true));
    }

    #[test]
    fn key_bytes_distinguish_hole_punching_mode() {
        let t = tuple("10.0.0.1:1234", "192.0.2.8:80");
        assert_ne!(
            t.outbound_key(false).to_bytes(),
            t.outbound_key(true).to_bytes()
        );
    }

    #[test]
    fn key_bytes_are_stable_and_injective_on_fields() {
        let t = tuple("10.0.0.1:1234", "192.0.2.8:80");
        let u = FiveTuple::new(
            Protocol::Udp,
            "10.0.0.1:1234".parse().unwrap(),
            "192.0.2.8:80".parse().unwrap(),
        );
        assert_ne!(
            t.outbound_key(false).to_bytes(),
            u.outbound_key(false).to_bytes()
        );
        assert_eq!(
            t.outbound_key(false).to_bytes(),
            t.outbound_key(false).to_bytes()
        );
    }

    #[test]
    fn display_contains_endpoints() {
        let t = tuple("10.0.0.1:1234", "192.0.2.8:80");
        let s = t.to_string();
        assert!(s.contains("10.0.0.1:1234"));
        assert!(s.contains("192.0.2.8:80"));
        assert!(s.contains("TCP"));
    }

    #[test]
    fn key_accessors_expose_fields() {
        let t = tuple("10.0.0.1:1234", "192.0.2.8:80");
        let k = t.outbound_key(false);
        assert_eq!(k.client(), "10.0.0.1:1234".parse().unwrap());
        assert_eq!(
            k.remote_addr(),
            "192.0.2.8".parse::<std::net::Ipv4Addr>().unwrap()
        );
        assert_eq!(k.remote_port(), Some(80));
        assert_eq!(t.outbound_key(true).remote_port(), None);
    }
}
