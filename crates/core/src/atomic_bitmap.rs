//! The `{k × N}` bitmap of the paper's Fig. 7: marks, lookups and
//! rotation over `k` exclusively owned bit vectors.

use crate::atomic_bitvec::AtomicBitVec;
use crate::hash::Indexes;
use crate::HashFamily;

/// The result of one inbound probe: whether all `m` hashed bits were
/// set in the current vector, and how many were not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitmapProbe {
    /// `true` when every hashed bit was set — the key was marked within
    /// the expiry window (or collided; a false positive).
    pub known: bool,
    /// Number of hashed bits *not* set in the current vector — the
    /// per-bit drop-draw count of the paper's Algorithm 2.
    pub unmarked: usize,
}

/// The `{k × N}` bitmap (paper §4.2, Fig. 7): `k` Bloom-filter bit
/// vectors of `N = 2^n` bits sharing `m` hash functions.
///
/// * **mark** ORs the key's `m` bits into every vector, vector-outer
///   for cache locality;
/// * **lookup**/**probe** read the key's bits in the current vector;
/// * **rotate** (every `Δt`) advances the current-vector index and
///   zeroes the vector just left.
///
/// Writes ([`mark`](Self::mark), [`rotate`](Self::rotate),
/// [`reset`](Self::reset)) take `&mut self` and reads take `&self`, so
/// a probe can never see a half-rotated bitmap and a mark lives in all
/// `k` vectors until the rotations that clear them. Marks therefore
/// expire within the paper's `T_e ∈ [(k−1)·Δt, k·Δt]` window. Threads
/// that decide concurrently share a bitmap through a lock that hands
/// out `&mut` — [`ShardedFilter`](crate::ShardedFilter)'s bank lock;
/// see DESIGN.md, "Exclusive shards". The name is kept from the
/// lock-free bitmap this type replaced.
///
/// # Examples
///
/// ```
/// use upbound_core::AtomicBitmap;
///
/// let mut bm = AtomicBitmap::new(4, 10, 3); // {4 × 2^10}, m = 3
/// bm.mark(b"conn");
/// assert!(bm.lookup(b"conn"));
/// for _ in 0..4 {
///     bm.rotate();
/// }
/// assert!(!bm.lookup(b"conn")); // expired
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AtomicBitmap {
    vectors: Box<[AtomicBitVec]>,
    hashes: HashFamily,
    /// Index of the current vector.
    idx: usize,
    /// Total rotations performed.
    rotations: u64,
}

impl AtomicBitmap {
    /// Creates a `{k × 2^n_bits}` bitmap with `m` hash functions.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` (rotation needs at least a current and a
    /// clearable vector) or on [`HashFamily::new`] bounds.
    pub fn new(k: usize, n_bits: u32, m: usize) -> Self {
        Self::with_vectors(k, n_bits, m, AtomicBitVec::new)
    }

    /// A bitmap of `k` vectors that `vector` builds from the vector
    /// length, with `m` hash functions over `2^n_bits` bits.
    fn with_vectors(
        k: usize,
        n_bits: u32,
        m: usize,
        vector: impl Fn(usize) -> AtomicBitVec,
    ) -> Self {
        assert!(k >= 2, "need at least two bit vectors, got {k}");
        let hashes = HashFamily::new(m, n_bits);
        Self {
            vectors: (0..k).map(|_| vector(hashes.table_size())).collect(),
            hashes,
            idx: 0,
            rotations: 0,
        }
    }

    /// Number of bit vectors `k`.
    pub fn k(&self) -> usize {
        self.vectors.len()
    }

    /// Bits per vector `N`.
    pub fn vector_len(&self) -> usize {
        self.vectors[0].len()
    }

    /// The shared hash family.
    pub fn hash_family(&self) -> HashFamily {
        self.hashes
    }

    /// Index of the current bit vector.
    pub fn current_index(&self) -> usize {
        self.idx
    }

    /// Total rotations performed.
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// Marks `key` in **all** `k` vectors (Algorithm 2, outbound path).
    ///
    /// The loop is vector-outer: all `m` bits of one vector are set
    /// before moving to the next, so each vector's cache lines are
    /// touched consecutively instead of striding across all `k` vectors
    /// per bit, and each vector's fill count takes one add per mark
    /// however many of its bits were new.
    pub fn mark(&mut self, key: &[u8]) {
        self.mark_indexes(self.hashes.indexes(key));
    }

    /// [`mark`](Self::mark) with the key's indexes already derived from
    /// this bitmap's [`hash_family`](Self::hash_family). The index
    /// iterator is cheap to clone per vector.
    #[inline]
    pub(crate) fn mark_indexes(&mut self, indexes: Indexes) {
        for v in self.vectors.iter_mut() {
            v.set_many(indexes.clone());
        }
    }

    /// Looks `key` up in the **current** vector only (Algorithm 2,
    /// inbound path). Equivalent to [`probe`](Self::probe)`.known`.
    pub fn lookup(&self, key: &[u8]) -> bool {
        self.probe(key).known
    }

    /// One inbound check: reads all `m` hashed bits of `key` in the
    /// current vector, so the drop-draw count comes from the same read
    /// as the verdict.
    pub fn probe(&self, key: &[u8]) -> BitmapProbe {
        self.probe_indexes(self.hashes.indexes(key))
    }

    /// [`probe`](Self::probe) with the key's indexes already derived
    /// from this bitmap's [`hash_family`](Self::hash_family).
    #[inline]
    pub(crate) fn probe_indexes(&self, indexes: Indexes) -> BitmapProbe {
        let current = &self.vectors[self.idx];
        let mut unmarked = 0;
        for bit in indexes {
            unmarked += usize::from(!current.get(bit));
        }
        BitmapProbe {
            known: unmarked == 0,
            unmarked,
        }
    }

    /// The timer handler `b.rotate()` (Algorithm 1): advances the
    /// current index to the next vector and zeroes the vector just left.
    /// Returns the new current index.
    pub fn rotate(&mut self) -> usize {
        let last = self.idx;
        self.idx = (last + 1) % self.vectors.len();
        self.vectors[last].clear();
        self.rotations += 1;
        self.idx
    }

    /// Utilization `U = b/N` of the current vector (paper Eq. 2).
    pub fn utilization(&self) -> f64 {
        self.vectors[self.idx].utilization()
    }

    /// The current vector's ones-count and length: the integers whose
    /// ratio is [`utilization`](Self::utilization).
    #[inline]
    pub(crate) fn fill_count(&self) -> (usize, usize) {
        let current = &self.vectors[self.idx];
        (current.count_ones(), current.len())
    }

    /// Expected penetration probability `U^m` for a random unknown key
    /// (paper Eq. 2).
    pub fn penetration_probability(&self) -> f64 {
        self.utilization().powi(self.hashes.m() as i32)
    }

    /// Total memory of the bit storage: `(k × N)/8` bytes.
    pub fn memory_bytes(&self) -> usize {
        self.vectors.iter().map(AtomicBitVec::memory_bytes).sum()
    }

    /// Zeroes every vector and resets the rotation clock.
    pub fn reset(&mut self) {
        for v in self.vectors.iter_mut() {
            v.clear();
        }
        self.idx = 0;
        self.rotations = 0;
    }

    /// Creates a *parked* bitmap: full `{k × 2^n_bits}` geometry but no
    /// bit storage. Rotation, reset and utilization queries all work (a
    /// parked vector clears as a no-op and reads as all-zero
    /// utilization); `mark`/`lookup`/`probe` must not be called until
    /// [`unpark`](Self::unpark) attaches buffers.
    ///
    /// # Panics
    ///
    /// Same bounds as [`AtomicBitmap::new`].
    pub(crate) fn new_parked(k: usize, n_bits: u32, m: usize) -> Self {
        Self::with_vectors(k, n_bits, m, AtomicBitVec::new_parked)
    }

    /// Detaches and returns the `k` word buffers, leaving the bitmap
    /// parked. Buffers are returned as-is (not zeroed); the rotation
    /// clock (`idx`, `rotations`) is preserved.
    pub(crate) fn park(&mut self) -> Vec<Vec<u64>> {
        self.vectors
            .iter_mut()
            .map(AtomicBitVec::take_words)
            .collect()
    }

    /// Re-attaches `k` **zeroed** word buffers to a parked bitmap.
    ///
    /// # Panics
    ///
    /// Panics if the buffer count or any buffer size does not match the
    /// bitmap's geometry, or the bitmap is not parked.
    pub(crate) fn unpark(&mut self, buffers: Vec<Vec<u64>>) {
        assert_eq!(buffers.len(), self.vectors.len(), "buffer count mismatch");
        for (v, words) in self.vectors.iter_mut().zip(buffers) {
            v.put_words(words);
        }
    }

    /// `true` when the bitmap currently has no bit storage.
    pub(crate) fn is_parked(&self) -> bool {
        self.vectors.iter().any(AtomicBitVec::is_parked)
    }

    /// Overwrites the rotation clock without touching storage — used when
    /// restoring a parked bitmap from a snapshot that carries only the
    /// clock.
    pub(crate) fn set_clock(&mut self, idx: usize, rotations: u64) -> bool {
        if idx >= self.vectors.len() {
            return false;
        }
        self.idx = idx;
        self.rotations = rotations;
        true
    }

    /// Exports `(per-vector words, current index, rotations)` for
    /// snapshot encoding. Parked vectors export empty word arrays.
    pub(crate) fn snapshot_words(&self) -> (Vec<Vec<u64>>, usize, u64) {
        let words = self
            .vectors
            .iter()
            .map(AtomicBitVec::words_snapshot)
            .collect();
        (words, self.idx, self.rotations)
    }

    /// Overwrites the bit-vector contents and rotation clock from
    /// snapshot fields, validating *before* mutating: on `false` the
    /// bitmap is untouched. Fails when the vector count, any vector's
    /// length, or the index is inconsistent with this bitmap's geometry.
    pub(crate) fn restore_fields(
        &mut self,
        vectors: Vec<AtomicBitVec>,
        idx: usize,
        rotations: u64,
    ) -> bool {
        if vectors.len() != self.vectors.len()
            || idx >= vectors.len()
            || vectors.iter().any(|v| v.len() != self.vector_len())
        {
            return false;
        }
        self.vectors = vectors.into_boxed_slice();
        self.idx = idx;
        self.rotations = rotations;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configuration_memory() {
        let bm = AtomicBitmap::new(4, 20, 3);
        assert_eq!(bm.memory_bytes(), 512 * 1024);
        assert_eq!(bm.k(), 4);
        assert_eq!(bm.vector_len(), 1 << 20);
    }

    #[test]
    fn marked_key_is_found() {
        let mut bm = AtomicBitmap::new(4, 12, 3);
        bm.mark(b"abc");
        assert!(bm.lookup(b"abc"));
        assert!(!bm.lookup(b"xyz"));
        let probe = bm.probe(b"abc");
        assert!(probe.known);
        assert_eq!(probe.unmarked, 0);
    }

    #[test]
    fn probe_counts_unmarked_bits() {
        let bm = AtomicBitmap::new(4, 12, 3);
        let probe = bm.probe(b"never-marked");
        assert!(!probe.known);
        assert!(probe.unmarked >= 1 && probe.unmarked <= 3);
    }

    #[test]
    fn mark_survives_k_minus_one_rotations() {
        let k = 4;
        let mut bm = AtomicBitmap::new(k, 12, 3);
        bm.mark(b"conn");
        for r in 1..k {
            bm.rotate();
            assert!(bm.lookup(b"conn"), "lost after {r} rotations");
        }
        bm.rotate();
        assert!(!bm.lookup(b"conn"), "survived {k} rotations");
    }

    #[test]
    fn remarking_refreshes_lifetime() {
        let mut bm = AtomicBitmap::new(3, 12, 2);
        bm.mark(b"conn");
        bm.rotate();
        bm.rotate();
        bm.mark(b"conn");
        bm.rotate();
        bm.rotate();
        assert!(bm.lookup(b"conn"));
    }

    #[test]
    fn rotation_index_wraps() {
        let mut bm = AtomicBitmap::new(3, 8, 1);
        assert_eq!(bm.current_index(), 0);
        assert_eq!(bm.rotate(), 1);
        assert_eq!(bm.rotate(), 2);
        assert_eq!(bm.rotate(), 0);
        assert_eq!(bm.rotations(), 3);
    }

    #[test]
    fn rotate_clears_only_departed_vector() {
        let mut bm = AtomicBitmap::new(2, 10, 2);
        bm.mark(b"a");
        bm.rotate();
        assert!(bm.lookup(b"a"));
        bm.mark(b"b");
        bm.rotate();
        assert!(bm.lookup(b"b"));
        assert!(!bm.lookup(b"a"));
    }

    #[test]
    fn bit_layout_matches_recorded_digest() {
        // Snapshots persist raw words, so a silent change to hashing or
        // bit layout would corrupt restored checkpoints. The constants
        // below were recorded from this exact script while the locked
        // reference bitmap the atomic one replaced was still in the
        // tree, after asserting the two agreed on every lookup, the
        // current index and the rotation count.
        let mut bm = AtomicBitmap::new(4, 14, 3);
        for i in 0..500u32 {
            bm.mark(&i.to_le_bytes());
            if i % 97 == 0 {
                bm.rotate();
            }
        }
        let fnv = |d: u64, x: u64| (d ^ x).wrapping_mul(0x0100_0000_01b3);
        let lookups = (0..2000u32).fold(0xcbf2_9ce4_8422_2325, |d, i| {
            fnv(d, u64::from(bm.lookup(&i.to_le_bytes())))
        });
        let (words, idx, rotations) = bm.snapshot_words();
        let set_bits: u32 = words.iter().flatten().map(|w| w.count_ones()).sum();
        let layout = words
            .iter()
            .flatten()
            .fold(0xcbf2_9ce4_8422_2325, |d, &w| fnv(d, w));
        assert_eq!(lookups, 0xf278_c355_7668_4872);
        assert_eq!((idx, rotations, set_bits), (2, 6, 1868));
        assert_eq!(layout, 0xb517_2f8c_4720_6652);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut bm = AtomicBitmap::new(3, 8, 2);
        bm.mark(b"x");
        bm.rotate();
        bm.reset();
        assert_eq!(bm.current_index(), 0);
        assert_eq!(bm.rotations(), 0);
        assert!(!bm.lookup(b"x"));
        assert_eq!(bm.utilization(), 0.0);
    }

    #[test]
    fn clone_and_eq_compare_contents() {
        let mut bm = AtomicBitmap::new(3, 10, 2);
        bm.mark(b"flow");
        bm.rotate();
        let mut copy = bm.clone();
        assert_eq!(copy, bm);
        assert!(copy.lookup(b"flow"));
        copy.mark(b"other");
        assert_ne!(copy, bm);
    }

    #[test]
    fn snapshot_words_roundtrips_through_restore() {
        let mut bm = AtomicBitmap::new(3, 10, 2);
        bm.mark(b"flow");
        bm.rotate();
        let (words, idx, rotations) = bm.snapshot_words();
        let mut rebuilt = AtomicBitmap::new(3, 10, 2);
        let vectors: Vec<AtomicBitVec> = words
            .into_iter()
            .map(|w| AtomicBitVec::from_words(1 << 10, w).unwrap())
            .collect();
        assert!(rebuilt.restore_fields(vectors, idx, rotations));
        assert_eq!(rebuilt, bm);
    }

    #[test]
    fn restore_fields_validates_before_mutating() {
        let mut bm = AtomicBitmap::new(3, 10, 2);
        bm.mark(b"keep");
        // Wrong vector count: rejected, bitmap untouched.
        assert!(!bm.restore_fields(vec![AtomicBitVec::new(1 << 10)], 0, 0));
        // Wrong length: rejected.
        let bad: Vec<AtomicBitVec> = (0..3).map(|_| AtomicBitVec::new(16)).collect();
        assert!(!bm.restore_fields(bad, 0, 0));
        // Out-of-range index: rejected.
        let vs: Vec<AtomicBitVec> = (0..3).map(|_| AtomicBitVec::new(1 << 10)).collect();
        assert!(!bm.restore_fields(vs, 3, 0));
        assert!(bm.lookup(b"keep"), "failed restore must leave state intact");
    }

    #[test]
    #[should_panic(expected = "at least two bit vectors")]
    fn single_vector_is_rejected() {
        let _ = AtomicBitmap::new(1, 8, 1);
    }

    proptest::proptest! {
        /// The fill count each vector keeps incrementally (one add per
        /// mark) equals the popcount of its words after any sequence of
        /// marks, rotations, resets, park/unpark cycles and snapshot
        /// restores.
        #[test]
        fn fill_counts_match_word_popcounts(
            ops in proptest::collection::vec((0u32..20, 0u32..5_000), 1..400),
            m in 1usize..6,
        ) {
            let mut bm = AtomicBitmap::new(3, 9, m);
            for (op, key) in ops {
                // One rotation per ten operations on average; resets,
                // park/unpark cycles and restores one in twenty each.
                match op {
                    0 | 1 => {
                        bm.rotate();
                    }
                    2 => bm.reset(),
                    3 => {
                        let buffers = bm.park();
                        proptest::prop_assert!(bm.is_parked());
                        bm.unpark(buffers.into_iter().map(|b| vec![0; b.len()]).collect());
                    }
                    4 => {
                        let (words, idx, rotations) = bm.snapshot_words();
                        let vectors = words
                            .into_iter()
                            .map(|w| AtomicBitVec::from_words(bm.vector_len(), w).unwrap())
                            .collect();
                        let mut restored = AtomicBitmap::new(3, 9, m);
                        proptest::prop_assert!(restored.restore_fields(vectors, idx, rotations));
                        proptest::prop_assert_eq!(&restored, &bm);
                        bm = restored;
                    }
                    _ => bm.mark(&key.to_le_bytes()),
                }
                for v in bm.vectors.iter() {
                    let popcount: u32 = v.words_snapshot().iter().map(|w| w.count_ones()).sum();
                    proptest::prop_assert_eq!(v.count_ones(), popcount as usize);
                }
            }
        }
    }
}
