//! The family of `m` hash functions shared by all bit vectors.
//!
//! The paper requires `m` independent hash functions that each "output an
//! n-bit value" (§4.2). We derive them by double hashing (Kirsch &
//! Mitzenmacher): two independent 64-bit base hashes `h1`, `h2` combine as
//! `g_i(x) = h1(x) + i·h2(x)`, truncated to `n` bits — asymptotically as
//! good as `m` independent functions for Bloom filters, and O(1) per
//! extra function.
//!
//! `h1` is FNV-1a; `h2` is FNV-1a with a different offset basis passed
//! through a splitmix64 finalizer, forced odd so it is invertible modulo
//! the power-of-two table size.
//!
//! On the packet path one [`HashedKey`] computes both base hashes and
//! the shard-selection flow hash in a single pass over the key bytes;
//! [`HashFamily::indexes`] and [`FlowHash::key`](crate::FlowHash::key)
//! remain the byte-slice definitions it must agree with.

use serde::{Deserialize, Serialize};
use upbound_net::{Direction, FiveTuple};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
/// FNV-1a offset basis of the `h1` lane.
const H1_SEED: u64 = FNV_OFFSET;
/// FNV-1a offset basis of the `h2` lane: a different seed makes the
/// second base hash independent of the first.
const H2_SEED: u64 = FNV_OFFSET ^ 0x5bd1_e995_9d1b_54a3;
/// Seed for the shard-selection hash; fixed and independent of the
/// filter's draw seed so shard placement never correlates with drop
/// draws.
const FLOW_SEED: u64 = 0x51ab_efc1_37d4_90e3;

pub(crate) fn fnv1a(seed: u64, data: &[u8]) -> u64 {
    let mut h = seed;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The shard-selection flow hash of serialized key bytes.
pub(crate) fn flow_hash(key: &[u8]) -> u64 {
    splitmix64(fnv1a(FLOW_SEED, key))
}

/// The double-hashing bases `(h1, h2)` from the raw FNV-1a lanes: both
/// finalized, `h2` forced odd.
fn index_bases(h1_lane: u64, h2_lane: u64) -> (u64, u64) {
    (splitmix64(h1_lane), splitmix64(h2_lane) | 1)
}

/// A family of `m` n-bit hash functions over byte strings.
///
/// # Examples
///
/// ```
/// use upbound_core::HashFamily;
///
/// let family = HashFamily::new(3, 20);
/// let idx: Vec<usize> = family.indexes(b"key").collect();
/// assert_eq!(idx.len(), 3);
/// assert!(idx.iter().all(|&i| i < 1 << 20));
/// // Deterministic:
/// assert_eq!(idx, family.indexes(b"key").collect::<Vec<_>>());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HashFamily {
    m: usize,
    n_bits: u32,
}

impl HashFamily {
    /// Creates a family of `m` hash functions with `n_bits`-bit outputs.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= m` and `1 <= n_bits <= 32`.
    pub fn new(m: usize, n_bits: u32) -> Self {
        assert!(m >= 1, "need at least one hash function");
        assert!(
            (1..=32).contains(&n_bits),
            "n_bits must be in 1..=32, got {n_bits}"
        );
        Self { m, n_bits }
    }

    /// Number of hash functions `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Output width in bits (`n`); indexes are below `2^n`.
    pub fn n_bits(&self) -> u32 {
        self.n_bits
    }

    /// The table size `N = 2^n` the outputs index into.
    pub fn table_size(&self) -> usize {
        1usize << self.n_bits
    }

    /// Returns the `m` bit indexes for `key`.
    pub fn indexes(&self, key: &[u8]) -> Indexes {
        let (h1, h2) = index_bases(fnv1a(H1_SEED, key), fnv1a(H2_SEED, key));
        self.indexes_from(h1, h2)
    }

    fn indexes_from(&self, h1: u64, h2: u64) -> Indexes {
        Indexes {
            h1,
            h2,
            i: 0,
            m: self.m,
            mask: (self.table_size() - 1) as u64,
        }
    }
}

/// One packet's [`FilterKey`](upbound_net::FilterKey), serialized and
/// hashed once: the key bytes plus the three FNV-1a lanes the packet
/// path needs — the flow hash that picks the shard and the two bases
/// [`HashFamily::indexes`] derives the bit indexes from.
///
/// The lanes are computed in one loop over the 14 key bytes, so their
/// three multiply chains run side by side instead of one after another.
/// Every lane equals its byte-slice definition:
///
/// * [`flow`](Self::flow) is [`FlowHash::key`](crate::FlowHash::key);
/// * [`indexes`](Self::indexes) yields [`HashFamily::indexes`] of
///   [`bytes`](Self::bytes).
///
/// # Examples
///
/// ```
/// use upbound_core::{FlowHash, HashFamily, HashedKey};
/// use upbound_net::{Direction, FiveTuple, Protocol};
///
/// let conn = FiveTuple::new(
///     Protocol::Tcp,
///     "10.0.0.7:51000".parse()?,
///     "203.0.113.4:6881".parse()?,
/// );
/// let key = HashedKey::new(&conn, Direction::Outbound, false);
/// assert_eq!(key.flow(), FlowHash::new(false).key(&conn, Direction::Outbound));
/// let family = HashFamily::new(3, 20);
/// assert!(key.indexes(&family).eq(family.indexes(key.bytes())));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashedKey {
    bytes: [u8; 14],
    hole_punching: bool,
    flow: u64,
    h1: u64,
    h2: u64,
}

impl HashedKey {
    /// The key of `tuple` seen from `direction` (the outbound key for
    /// outbound packets, the inbound key for inbound ones), with the
    /// remote port omitted under `hole_punching`.
    #[inline]
    pub fn new(tuple: &FiveTuple, direction: Direction, hole_punching: bool) -> Self {
        let key = match direction {
            Direction::Outbound => tuple.outbound_key(hole_punching),
            Direction::Inbound => tuple.inbound_key(hole_punching),
        };
        let bytes = key.to_bytes();
        let [mut flow, mut h1, mut h2] = [FLOW_SEED, H1_SEED, H2_SEED];
        for &b in &bytes {
            let b = u64::from(b);
            flow = (flow ^ b).wrapping_mul(FNV_PRIME);
            h1 = (h1 ^ b).wrapping_mul(FNV_PRIME);
            h2 = (h2 ^ b).wrapping_mul(FNV_PRIME);
        }
        let (h1, h2) = index_bases(h1, h2);
        Self {
            bytes,
            hole_punching,
            flow: splitmix64(flow),
            h1,
            h2,
        }
    }

    /// The serialized key ([`FilterKey::to_bytes`](upbound_net::FilterKey::to_bytes)).
    pub fn bytes(&self) -> &[u8; 14] {
        &self.bytes
    }

    /// Whether the key omits the remote port.
    pub fn hole_punching(&self) -> bool {
        self.hole_punching
    }

    /// The direction-symmetric flow hash that assigns the packet to a
    /// shard.
    pub fn flow(&self) -> u64 {
        self.flow
    }

    /// The `m` bit indexes of the key under `family`.
    pub fn indexes(&self, family: &HashFamily) -> Indexes {
        family.indexes_from(self.h1, self.h2)
    }
}

/// Iterator over the `m` bit indexes of one key.
#[derive(Debug, Clone)]
pub struct Indexes {
    h1: u64,
    h2: u64,
    i: u64,
    m: usize,
    mask: u64,
}

impl Iterator for Indexes {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.i as usize >= self.m {
            return None;
        }
        let g = self.h1.wrapping_add(self.i.wrapping_mul(self.h2));
        self.i += 1;
        Some((g & self.mask) as usize)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.m - self.i as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Indexes {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn outputs_are_deterministic() {
        let f = HashFamily::new(4, 16);
        let a: Vec<_> = f.indexes(b"hello").collect();
        let b: Vec<_> = f.indexes(b"hello").collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn outputs_fit_in_n_bits() {
        let f = HashFamily::new(8, 10);
        for key in [&b"a"[..], b"abc", b"\x00\xff\x13", b""] {
            for idx in f.indexes(key) {
                assert!(idx < 1024);
            }
        }
    }

    #[test]
    fn different_keys_usually_differ() {
        let f = HashFamily::new(3, 20);
        let a: Vec<_> = f.indexes(b"key-a").collect();
        let b: Vec<_> = f.indexes(b"key-b").collect();
        assert_ne!(a, b);
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        // Hash 20_000 distinct keys into 2^10 buckets with one function;
        // every bucket should land within a loose band of the mean (~19.5).
        let f = HashFamily::new(1, 10);
        let mut counts = vec![0u32; 1024];
        for i in 0..20_000u32 {
            let key = i.to_le_bytes();
            let idx = f.indexes(&key).next().unwrap();
            counts[idx] += 1;
        }
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(min >= 3, "unexpectedly empty bucket (min {min})");
        assert!(max <= 50, "unexpectedly hot bucket (max {max})");
    }

    #[test]
    fn family_members_are_distinct() {
        // For one key, the m indexes should rarely all coincide; check
        // they are not all equal over many keys.
        let f = HashFamily::new(4, 16);
        let mut all_same = 0;
        for i in 0..1000u32 {
            let idx: HashSet<_> = f.indexes(&i.to_le_bytes()).collect();
            if idx.len() == 1 {
                all_same += 1;
            }
        }
        assert!(all_same < 5, "hash family is degenerate ({all_same})");
    }

    #[test]
    fn exact_size_iterator_contract() {
        let f = HashFamily::new(5, 8);
        let mut it = f.indexes(b"x");
        assert_eq!(it.len(), 5);
        it.next();
        assert_eq!(it.len(), 4);
        assert_eq!(it.count(), 4);
    }

    #[test]
    fn accessors_report_shape() {
        let f = HashFamily::new(3, 20);
        assert_eq!(f.m(), 3);
        assert_eq!(f.n_bits(), 20);
        assert_eq!(f.table_size(), 1 << 20);
    }

    #[test]
    #[should_panic(expected = "n_bits must be in 1..=32")]
    fn oversized_output_panics() {
        let _ = HashFamily::new(1, 33);
    }

    #[test]
    #[should_panic(expected = "at least one hash function")]
    fn zero_functions_panics() {
        let _ = HashFamily::new(0, 8);
    }
}
