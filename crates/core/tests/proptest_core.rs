//! Property tests on the bitmap filter's data structures and math.

use proptest::prelude::*;
use std::collections::HashSet;
use upbound_core::params::{
    exact_false_positive, max_connections, optimal_hash_count, penetration_probability,
};
use upbound_core::{
    AtomicBitVec, AtomicBitmap, DropPolicy, FilterEngine, FlowHash, HashFamily, HashedKey,
    NoopObserver, ThroughputMonitor,
};
use upbound_net::{Direction, FiveTuple, Protocol, TimeDelta, Timestamp};

proptest! {
    /// AtomicBitVec: set/get/count coherence under arbitrary index sequences.
    #[test]
    fn bitvec_set_get_count(
        len in 1usize..2000,
        indices in proptest::collection::vec(any::<usize>(), 0..200),
    ) {
        let v = AtomicBitVec::new(len);
        let mut reference = HashSet::new();
        for raw in indices {
            let i = raw % len;
            v.set(i);
            reference.insert(i);
        }
        prop_assert_eq!(v.count_ones(), reference.len());
        for i in 0..len {
            prop_assert_eq!(v.get(i), reference.contains(&i));
        }
        prop_assert!((v.utilization() - reference.len() as f64 / len as f64).abs() < 1e-12);
    }

    /// One bitmap vector as a Bloom filter: no false negatives, ever.
    #[test]
    fn bloom_no_false_negatives(
        keys in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 0..100),
        m in 1usize..6,
    ) {
        let b = AtomicBitmap::new(2, 12, m);
        for k in &keys {
            b.mark(k);
        }
        for k in &keys {
            prop_assert!(b.lookup(k));
        }
    }

    /// Bitmap: a mark is visible through exactly k−1 subsequent
    /// rotations and gone after k (with no interleaved re-marks).
    #[test]
    fn bitmap_mark_lifetime(
        key in proptest::collection::vec(any::<u8>(), 1..24),
        k in 2usize..8,
        pre_rotations in 0usize..10,
    ) {
        let bm = AtomicBitmap::new(k, 12, 3);
        for _ in 0..pre_rotations {
            bm.rotate(); // phase should not matter
        }
        bm.mark(&key);
        for step in 1..k {
            bm.rotate();
            prop_assert!(bm.lookup(&key), "lost after {step} of {k} rotations");
        }
        bm.rotate();
        prop_assert!(!bm.lookup(&key), "survived {k} rotations");
    }

    /// Bitmap: marks never interfere destructively — adding more keys
    /// can only add bits, never remove one (monotone utilization).
    #[test]
    fn bitmap_marking_is_monotone(
        keys in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..16), 1..50),
    ) {
        let bm = AtomicBitmap::new(4, 10, 2);
        let mut prev = 0.0;
        for key in &keys {
            bm.mark(key);
            let u = bm.utilization();
            prop_assert!(u >= prev);
            prev = u;
        }
        // Everything marked is found (no rotations happened).
        for key in &keys {
            prop_assert!(bm.lookup(key));
        }
    }

    /// Throughput monitor: the reported rate is always non-negative and
    /// bounded by total-bytes × 8 / window.
    #[test]
    fn monitor_rate_bounds(
        events in proptest::collection::vec((0u64..60_000_000, 0u64..100_000), 0..100),
        probe_us in 0u64..90_000_000,
    ) {
        let mon = ThroughputMonitor::new(TimeDelta::from_secs(1.0), 10);
        let mut total = 0u64;
        for (us, bytes) in events {
            mon.record(Timestamp::from_micros(us), bytes);
            total += bytes;
        }
        let rate = mon.rate_bps(Timestamp::from_micros(probe_us));
        prop_assert!(rate >= 0.0);
        prop_assert!(rate <= total as f64 * 8.0 / mon.window().as_secs_f64() + 1e-9);
        prop_assert_eq!(mon.total_bytes(), total);
    }

    /// Eq. 3 upper-bounds the exact Bloom probability (they agree at low
    /// load and the approximation only over-estimates).
    #[test]
    fn approximation_upper_bounds_exact(c in 1.0f64..200_000.0, m in 1usize..8) {
        let n = 1usize << 20;
        let approx = penetration_probability(c, n, m);
        let exact = exact_false_positive(c, n, m);
        prop_assert!(approx >= exact - 1e-12,
            "approx {approx} < exact {exact} at c={c}, m={m}");
    }

    /// Eq. 5's optimum really is a minimum of Eq. 3 over integer m.
    #[test]
    fn optimal_m_is_a_minimum(c in 1_000.0f64..500_000.0) {
        let n = 1usize << 20;
        let m_star = optimal_hash_count(c, n);
        let m_int = (m_star.round() as usize).max(1);
        let p_star = penetration_probability(c, n, m_int);
        for m in [m_int.saturating_sub(2).max(1), m_int.saturating_sub(1).max(1), m_int + 1, m_int + 2] {
            // Allow tiny slack: the real-valued optimum rounds.
            prop_assert!(penetration_probability(c, n, m) >= p_star * 0.75,
                "m={m} wildly beats m*={m_int} at c={c}");
        }
    }

    /// Eq. 6 inverts Eq. 5+3: at c = max_connections(p), the achieved
    /// penetration with the real-valued optimal m equals p.
    #[test]
    fn capacity_bound_inverts(p in 0.001f64..0.5) {
        let n = 1usize << 20;
        let c = max_connections(p, n);
        let m = optimal_hash_count(c, n);
        let achieved = ((c * m) / n as f64).powf(m);
        prop_assert!((achieved - p).abs() / p < 0.01,
            "achieved {achieved} vs target {p}");
    }

    /// Monte-Carlo: measured bitmap penetration stays within noise of the
    /// exact Bloom prediction (small sizes for test speed).
    #[test]
    fn measured_penetration_matches_prediction(seed_keys in 50usize..400) {
        let n_bits = 12u32;
        let m = 2usize;
        let bm = AtomicBitmap::new(4, n_bits, m);
        for i in 0..seed_keys as u64 {
            bm.mark(&i.to_le_bytes());
        }
        let probes = 2_000u64;
        let hits = (0..probes)
            .filter(|i| bm.lookup(&(i + 1_000_000).to_le_bytes()))
            .count() as f64;
        let measured = hits / probes as f64;
        let predicted = bm.penetration_probability();
        // Loose tolerance: binomial noise at 2000 probes.
        prop_assert!((measured - predicted).abs() < 0.05,
            "measured {measured} vs predicted {predicted} with {seed_keys} keys");
    }
}

/// An executable spec of the paper's Algorithms 1 and 2: `k` sets of
/// hashed bit positions, one of them current.
struct BitmapSpec {
    hashes: HashFamily,
    sets: Vec<HashSet<usize>>,
    current: usize,
}

impl BitmapSpec {
    fn new(k: usize, n_bits: u32, m: usize) -> Self {
        Self {
            hashes: HashFamily::new(m, n_bits),
            sets: vec![HashSet::new(); k],
            current: 0,
        }
    }

    /// Algorithm 2, outbound: insert into all `k` sets.
    fn mark(&mut self, key: &[u8]) {
        for set in &mut self.sets {
            set.extend(self.hashes.indexes(key));
        }
    }

    /// Algorithm 2, inbound: hashed bits missing from the current set.
    fn unmarked(&self, key: &[u8]) -> usize {
        let current = &self.sets[self.current];
        self.hashes
            .indexes(key)
            .filter(|b| !current.contains(b))
            .count()
    }

    /// Algorithm 1: clear the departed set and advance.
    fn rotate(&mut self) {
        self.sets[self.current].clear();
        self.current = (self.current + 1) % self.sets.len();
    }
}

#[derive(Debug, Clone)]
enum Op {
    Mark(Vec<u8>),
    Rotate,
    Lookup(Vec<u8>),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 1..12).prop_map(Op::Mark),
        Just(Op::Rotate),
        proptest::collection::vec(any::<u8>(), 1..12).prop_map(Op::Lookup),
    ]
}

proptest! {
    /// `AtomicBitmap` is observationally equal to the spec under
    /// arbitrary mark/rotate/lookup interleavings: every lookup, its
    /// unmarked-bit count, the current index and the current vector's
    /// fill agree. This covers mark lifetime (a mark lives through
    /// exactly `k − 1` rotations) and monotone, non-destructive marking.
    #[test]
    fn atomic_bitmap_matches_spec(
        ops in proptest::collection::vec(arb_op(), 0..150),
        k in 2usize..6,
        m in 1usize..4,
    ) {
        let n_bits = 8;
        let bitmap = AtomicBitmap::new(k, n_bits, m);
        let mut spec = BitmapSpec::new(k, n_bits, m);
        for op in &ops {
            match op {
                Op::Mark(key) => {
                    bitmap.mark(key);
                    spec.mark(key);
                }
                Op::Rotate => {
                    bitmap.rotate();
                    spec.rotate();
                }
                Op::Lookup(key) => {
                    let probe = bitmap.probe(key);
                    prop_assert_eq!(probe.unmarked, spec.unmarked(key), "key {:?}", key);
                    prop_assert_eq!(probe.known, probe.unmarked == 0);
                    prop_assert_eq!(bitmap.lookup(key), probe.known);
                }
            }
            prop_assert_eq!(bitmap.current_index(), spec.current);
            let fill = spec.sets[spec.current].len() as f64 / (1u64 << n_bits) as f64;
            prop_assert!((bitmap.utilization() - fill).abs() < 1e-12);
        }
    }
}

/// Eq. 2–3 conformance: fill a `2^14`-bit bitmap with `c` distinct keys
/// at several loads `c·m/N`, probe `P` disjoint keys, and hold the
/// measured penetration rate to binomial noise (4σ) around the exact
/// Bloom probability, under the Eq. 3 approximation, and around the
/// bitmap's own `U^m` estimate (Eq. 2). Keys are fixed, so the test is
/// deterministic.
#[test]
fn penetration_matches_eq_2_and_3() {
    const N_BITS: u32 = 14;
    const N: usize = 1 << N_BITS;
    const PROBES: u64 = 50_000;
    for m in [2usize, 3, 4] {
        for load in [0.1, 0.3, 0.6] {
            let c = (load * N as f64 / m as f64).round() as u64;
            let bitmap = AtomicBitmap::new(4, N_BITS, m);
            for i in 0..c {
                bitmap.mark(&i.to_le_bytes());
            }
            let hits = (0..PROBES)
                .filter(|i| bitmap.lookup(&(i + 1_000_000_000).to_le_bytes()))
                .count();
            let measured = hits as f64 / PROBES as f64;
            let exact = exact_false_positive(c as f64, N, m);
            let bound = 4.0 * (exact * (1.0 - exact) / PROBES as f64).sqrt();
            let at = format!("m = {m}, load = {load}, c = {c}");
            assert!(
                (measured - exact).abs() <= bound,
                "{at}: measured {measured} vs exact {exact} (±{bound})"
            );
            let approx = penetration_probability(c as f64, N, m);
            assert!(
                measured <= approx + bound,
                "{at}: measured {measured} above Eq. 3's {approx}"
            );
            let u_m = bitmap.penetration_probability();
            assert!(
                (u_m - measured).abs() <= bound,
                "{at}: U^m {u_m} vs measured {measured} (±{bound})"
            );
        }
    }
}

fn arb_tuple() -> impl Strategy<Value = FiveTuple> {
    (
        any::<bool>(),
        any::<u32>(),
        any::<u16>(),
        any::<u32>(),
        any::<u16>(),
    )
        .prop_map(|(tcp, src, sport, dst, dport)| {
            FiveTuple::new(
                if tcp { Protocol::Tcp } else { Protocol::Udp },
                std::net::SocketAddrV4::new(src.into(), sport),
                std::net::SocketAddrV4::new(dst.into(), dport),
            )
        })
}

proptest! {
    /// The fused one-pass [`HashedKey`] agrees lane by lane with the
    /// byte-slice definitions it replaces on the packet path: the key
    /// bytes, the shard flow hash, the `m` bit indexes, and the drop
    /// draws hashed once per packet against the per-draw reference.
    #[test]
    fn hashed_key_lanes_match_byte_slice_hashes(
        tuple in arb_tuple(),
        outbound in any::<bool>(),
        hole_punching in any::<bool>(),
        m in 1usize..=5,
        n_bits in 8u32..=24,
        seed in any::<u64>(),
        now_us in proptest::collection::vec(0u64..1 << 42, 1..4),
    ) {
        let direction = if outbound { Direction::Outbound } else { Direction::Inbound };
        let key = HashedKey::new(&tuple, direction, hole_punching);
        let bytes = match direction {
            Direction::Outbound => tuple.outbound_key(hole_punching),
            Direction::Inbound => tuple.inbound_key(hole_punching),
        }
        .to_bytes();
        prop_assert_eq!(key.bytes(), &bytes);
        prop_assert_eq!(key.hole_punching(), hole_punching);
        prop_assert_eq!(key.flow(), FlowHash::new(hole_punching).key(&tuple, direction));
        let family = HashFamily::new(m, n_bits);
        prop_assert_eq!(
            key.indexes(&family).collect::<Vec<_>>(),
            family.indexes(&bytes).collect::<Vec<_>>()
        );
        let engine = FilterEngine::new(
            TimeDelta::from_secs(5.0),
            ThroughputMonitor::new(TimeDelta::from_secs(1.0), 10),
            DropPolicy::drop_all(),
            seed,
            NoopObserver,
        );
        for us in now_us {
            let now = Timestamp::from_micros(us);
            let draws = engine.draws(key.bytes(), now);
            for draw in 0..m as u32 {
                prop_assert_eq!(
                    draws.unit(draw).to_bits(),
                    engine.unit_draw(&bytes, now, draw).to_bits()
                );
            }
        }
    }
}
