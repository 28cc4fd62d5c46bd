//! The concurrent `{k × N}` bitmap: lock-free marks and lookups with
//! epoch-based (seqlock) rotation.

use crate::atomic_bitvec::AtomicBitVec;
use crate::hash::Indexes;
use crate::HashFamily;
use std::sync::atomic::{fence, AtomicU64, Ordering};

/// The result of one consistent inbound probe: whether all `m` hashed
/// bits were set in the current vector, and how many were not.
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
/// vectors of `N = 2^n` bits sharing `m` hash functions, lock-free and
/// shared by reference across worker threads (its `&self` API serves
/// single-threaded callers just as well):
///
/// * **mark** is a relaxed load per hashed bit, plus an
///   `AtomicU64::fetch_or` only for a bit that reads as clear (a
///   re-marked flow's bits are almost always set already), vector-outer
///   for cache locality;
/// * **lookup**/**probe** are relaxed loads of the current vector;
/// * **rotate** (every `Δt`) is an epoch/seqlock swap of the
///   current-vector index — readers retry the rare probe that overlaps a
///   rotation instead of every packet taking a lock, and the departed
///   vector is zeroed inside the (reader-excluded, lock-free for the
///   rotator) epoch window, swapping only its non-zero words.
///
/// # Consistency contract
///
/// A [`probe`](Self::probe) is *seqlock-consistent*: it reflects the
/// bitmap entirely before or entirely after any concurrent rotation,
/// never a half-rotated state, so a verdict can never flip Pass→Drop
/// because a lookup raced the index swap against the vector zeroing. A
/// [`mark`](Self::mark) that observes a concurrent rotation re-marks, so
/// a mark that *completes* after a rotation survives the full `k − 1`
/// further rotations; a mark racing a rotation keeps at least the
/// "marked just before rotation" lower bound. Either way marks expire
/// within the paper's `T_e ∈ [(k−1)·Δt, k·Δt]` window. The memory-
/// ordering argument lives in DESIGN.md ("Epoch-rotation memory
/// ordering").
///
/// # Examples
///
/// ```
/// use upbound_core::AtomicBitmap;
///
/// let bm = AtomicBitmap::new(4, 10, 3); // {4 × 2^10}, m = 3
/// bm.mark(b"conn");
/// assert!(bm.lookup(b"conn"));
/// for _ in 0..4 {
///     bm.rotate();
/// }
/// assert!(!bm.lookup(b"conn")); // expired
/// ```
#[derive(Debug)]
pub struct AtomicBitmap {
    vectors: Box<[AtomicBitVec]>,
    hashes: HashFamily,
    /// Index of the current vector; mutated only inside the epoch
    /// window.
    idx: AtomicU64,
    /// Total rotations performed.
    rotations: AtomicU64,
    /// Seqlock epoch: odd while a rotation is in progress. Readers and
    /// markers validate against it; the rotator increments it twice.
    epoch: AtomicU64,
}

impl AtomicBitmap {
    /// Creates a `{k × 2^n_bits}` bitmap with `m` hash functions.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` (rotation needs at least a current and a
    /// clearable vector) or on [`HashFamily::new`] bounds.
    pub fn new(k: usize, n_bits: u32, m: usize) -> Self {
        assert!(k >= 2, "need at least two bit vectors, got {k}");
        let hashes = HashFamily::new(m, n_bits);
        Self {
            vectors: (0..k)
                .map(|_| AtomicBitVec::new(hashes.table_size()))
                .collect(),
            hashes,
            idx: AtomicU64::new(0),
            rotations: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
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
        self.idx.load(Ordering::Relaxed) as usize
    }

    /// Total rotations performed.
    pub fn rotations(&self) -> u64 {
        self.rotations.load(Ordering::Relaxed)
    }

    /// Marks `key` in **all** `k` vectors (Algorithm 2, outbound path) —
    /// no lock, and a `fetch_or` only for a bit that is not already set
    /// ([`AtomicBitVec::set_many`] skips the write for a set bit).
    ///
    /// The loop is vector-outer: all `m` bits of one vector are set
    /// before moving to the next, so each vector's cache lines are
    /// touched consecutively instead of striding across all `k` vectors
    /// per bit, and each vector's fill count takes one add per mark
    /// however many of its bits were new. If a rotation completes concurrently, the mark re-runs
    /// (setting is idempotent), so a mark that returns after `rotate()`
    /// returned is fully present in the post-rotation bitmap — whether
    /// it wrote a bit or only read it as set.
    pub fn mark(&self, key: &[u8]) {
        self.mark_indexes(self.hashes.indexes(key));
    }

    /// [`mark`](Self::mark) with the key's indexes already derived from
    /// this bitmap's [`hash_family`](Self::hash_family). The index
    /// iterator is cheap to clone per vector.
    #[inline]
    pub(crate) fn mark_indexes(&self, indexes: Indexes) {
        loop {
            let e1 = self.epoch.load(Ordering::Acquire);
            if e1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            for v in self.vectors.iter() {
                v.set_many(indexes.clone());
            }
            #[cfg(test)]
            tests::rotate_if_armed(self);
            // SeqCst pairs with the rotator's fence: either our writes
            // *and* our reads of already-set bits are ordered before the
            // rotation (it re-zeroes only the departed vector — within
            // the expiry contract), or we observe the epoch change here
            // and re-mark.
            fence(Ordering::SeqCst);
            if self.epoch.load(Ordering::Relaxed) == e1 {
                return;
            }
        }
    }

    /// Looks `key` up in the **current** vector only (Algorithm 2,
    /// inbound path). Equivalent to [`probe`](Self::probe)`.known`.
    pub fn lookup(&self, key: &[u8]) -> bool {
        self.probe(key).known
    }

    /// One seqlock-consistent inbound check: reads the current-vector
    /// index and all `m` hashed bits as of a single rotation epoch,
    /// retrying the (rare) read that overlaps a rotation.
    ///
    /// This replaces the legacy lookup-then-count-unmarked pair with one
    /// consistent read, so the drop-draw count can never mix pre- and
    /// post-rotation bits.
    pub fn probe(&self, key: &[u8]) -> BitmapProbe {
        self.probe_indexes(self.hashes.indexes(key))
    }

    /// [`probe`](Self::probe) with the key's indexes already derived
    /// from this bitmap's [`hash_family`](Self::hash_family).
    #[inline]
    pub(crate) fn probe_indexes(&self, indexes: Indexes) -> BitmapProbe {
        loop {
            let e1 = self.epoch.load(Ordering::Acquire);
            if e1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let idx = self.idx.load(Ordering::Relaxed) as usize;
            let current = &self.vectors[idx];
            let unmarked = indexes.clone().filter(|&bit| !current.get(bit)).count();
            fence(Ordering::Acquire);
            if self.epoch.load(Ordering::Relaxed) == e1 {
                return BitmapProbe {
                    known: unmarked == 0,
                    unmarked,
                };
            }
        }
    }

    /// The timer handler `b.rotate()` (Algorithm 1): advances the
    /// current index to the next vector and zeroes the vector just left,
    /// inside an epoch window that concurrent probes validate against.
    /// Returns the new current index.
    ///
    /// Concurrent rotators serialize on the epoch word itself (the
    /// second spins through the first's window); the embedding filter's
    /// tick lock makes that contention impossible in practice.
    pub fn rotate(&self) -> usize {
        let mut e = self.epoch.load(Ordering::Acquire);
        loop {
            if e & 1 == 1 {
                std::hint::spin_loop();
                e = self.epoch.load(Ordering::Acquire);
                continue;
            }
            match self
                .epoch
                .compare_exchange_weak(e, e + 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break,
                Err(current) => e = current,
            }
        }
        // Epoch is odd: probes spin, marks will re-validate.
        fence(Ordering::SeqCst);
        let last = self.idx.load(Ordering::Relaxed) as usize;
        let next = (last + 1) % self.vectors.len();
        self.idx.store(next as u64, Ordering::Relaxed);
        self.vectors[last].clear();
        self.rotations.fetch_add(1, Ordering::Relaxed);
        self.epoch.store(e + 2, Ordering::Release);
        next
    }

    /// Utilization `U = b/N` of the current vector (paper Eq. 2).
    pub fn utilization(&self) -> f64 {
        let e1 = self.epoch.load(Ordering::Acquire);
        let u = self.vectors[self.idx.load(Ordering::Relaxed) as usize % self.vectors.len()]
            .utilization();
        // Telemetry read: a concurrent rotation makes the value
        // momentarily approximate; re-read once for the common case.
        if self.epoch.load(Ordering::Acquire) == e1 && e1 & 1 == 0 {
            u
        } else {
            self.vectors[self.current_index()].utilization()
        }
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

    /// Zeroes every vector and resets the rotation clock. Exclusive
    /// (`&mut`): callers reset through the control plane, never
    /// concurrently with deciders.
    pub fn reset(&mut self) {
        for v in self.vectors.iter() {
            v.clear();
        }
        *self.idx.get_mut() = 0;
        *self.rotations.get_mut() = 0;
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
        assert!(k >= 2, "need at least two bit vectors, got {k}");
        let hashes = HashFamily::new(m, n_bits);
        Self {
            vectors: (0..k)
                .map(|_| AtomicBitVec::new_parked(hashes.table_size()))
                .collect(),
            hashes,
            idx: AtomicU64::new(0),
            rotations: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
        }
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
        *self.idx.get_mut() = idx as u64;
        *self.rotations.get_mut() = rotations;
        true
    }

    /// Exports `(per-vector words, current index, rotations)` for
    /// snapshot encoding, as one seqlock-consistent read (a concurrent
    /// rotation retries the copy). Parked vectors export empty word
    /// arrays.
    pub(crate) fn snapshot_words(&self) -> (Vec<Vec<u64>>, usize, u64) {
        loop {
            let e1 = self.epoch.load(Ordering::Acquire);
            if e1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let words: Vec<Vec<u64>> = self
                .vectors
                .iter()
                .map(AtomicBitVec::words_snapshot)
                .collect();
            let idx = self.idx.load(Ordering::Relaxed) as usize;
            let rotations = self.rotations.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if self.epoch.load(Ordering::Relaxed) == e1 {
                return (words, idx, rotations);
            }
        }
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
        *self.idx.get_mut() = idx as u64;
        *self.rotations.get_mut() = rotations;
        true
    }
}

impl Clone for AtomicBitmap {
    fn clone(&self) -> Self {
        let (words, idx, rotations) = self.snapshot_words();
        let vectors = self
            .vectors
            .iter()
            .zip(words)
            .map(|(v, w)| {
                if w.is_empty() {
                    AtomicBitVec::new_parked(v.len())
                } else {
                    // Words came straight out of this bitmap, so the
                    // rebuild cannot fail.
                    AtomicBitVec::from_words(v.len(), w)
                        .unwrap_or_else(|| AtomicBitVec::new(v.len()))
                }
            })
            .collect();
        Self {
            vectors,
            hashes: self.hashes,
            idx: AtomicU64::new(idx as u64),
            rotations: AtomicU64::new(rotations),
            epoch: AtomicU64::new(0),
        }
    }
}

impl PartialEq for AtomicBitmap {
    fn eq(&self, other: &Self) -> bool {
        self.hashes == other.hashes
            && self.current_index() == other.current_index()
            && self.rotations() == other.rotations()
            && self.vectors.len() == other.vectors.len()
            && self
                .vectors
                .iter()
                .zip(other.vectors.iter())
                .all(|(a, b)| a == b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Arms one rotation inside the next `mark` on this thread,
        /// between its bit accesses and its fence.
        static ROTATE_IN_MARK: Cell<bool> = const { Cell::new(false) };
    }

    /// Runs the rotation armed by `ROTATE_IN_MARK`, once.
    pub(super) fn rotate_if_armed(bm: &AtomicBitmap) {
        if ROTATE_IN_MARK.with(|armed| armed.replace(false)) {
            bm.rotate();
        }
    }

    #[test]
    fn paper_configuration_memory() {
        let bm = AtomicBitmap::new(4, 20, 3);
        assert_eq!(bm.memory_bytes(), 512 * 1024);
        assert_eq!(bm.k(), 4);
        assert_eq!(bm.vector_len(), 1 << 20);
    }

    #[test]
    fn marked_key_is_found() {
        let bm = AtomicBitmap::new(4, 12, 3);
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
        let bm = AtomicBitmap::new(k, 12, 3);
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
        let bm = AtomicBitmap::new(3, 12, 2);
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
        let bm = AtomicBitmap::new(3, 8, 1);
        assert_eq!(bm.current_index(), 0);
        assert_eq!(bm.rotate(), 1);
        assert_eq!(bm.rotate(), 2);
        assert_eq!(bm.rotate(), 0);
        assert_eq!(bm.rotations(), 3);
    }

    #[test]
    fn rotate_clears_only_departed_vector() {
        let bm = AtomicBitmap::new(2, 10, 2);
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
        let bm = AtomicBitmap::new(4, 14, 3);
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
        let bm = AtomicBitmap::new(3, 10, 2);
        bm.mark(b"flow");
        bm.rotate();
        let copy = bm.clone();
        assert_eq!(copy, bm);
        assert!(copy.lookup(b"flow"));
        copy.mark(b"other");
        assert_ne!(copy, bm);
    }

    #[test]
    fn snapshot_words_roundtrips_through_restore() {
        let bm = AtomicBitmap::new(3, 10, 2);
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

    #[test]
    fn concurrent_marks_are_never_lost() {
        let bm = AtomicBitmap::new(4, 14, 3);
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let bm = &bm;
                scope.spawn(move || {
                    for i in 0..500u32 {
                        bm.mark(&(t * 10_000 + i).to_le_bytes());
                    }
                });
            }
        });
        for t in 0..4u32 {
            for i in 0..500u32 {
                assert!(bm.lookup(&(t * 10_000 + i).to_le_bytes()));
            }
        }
    }

    proptest::proptest! {
        /// The fill count each vector keeps incrementally (one add per
        /// mark) equals the popcount of its words after any sequence of
        /// marks and rotations.
        #[test]
        fn fill_counts_match_word_popcounts(
            ops in proptest::collection::vec((0u32..10, 0u32..5_000), 1..400),
            m in 1usize..6,
        ) {
            let bm = AtomicBitmap::new(3, 9, m);
            for (op, key) in ops {
                // One rotation per ten operations on average.
                if op == 0 {
                    bm.rotate();
                } else {
                    bm.mark(&key.to_le_bytes());
                }
                for v in bm.vectors.iter() {
                    let popcount: u32 = v.words_snapshot().iter().map(|w| w.count_ones()).sum();
                    proptest::prop_assert_eq!(v.count_ones(), popcount as usize);
                }
            }
        }
    }

    #[test]
    fn concurrent_rotation_after_a_skipped_mark_is_remarked() {
        // A re-mark of a marked key reads every bit as set and writes
        // none. A rotation landing between those reads and the mark's
        // fence clears the oldest vector, which the mark read as
        // marked; the epoch recheck must re-mark it so the key lives
        // k − 1 further rotations.
        let k = 4;
        let bm = AtomicBitmap::new(k, 12, 3);
        let key = b"remarked flow";
        bm.mark(key);
        ROTATE_IN_MARK.with(|armed| armed.set(true));
        bm.mark(key);
        assert_eq!(bm.rotations(), 1, "the armed rotation ran inside the mark");
        for _ in 1..k {
            bm.rotate();
            assert!(bm.lookup(key), "re-mark lost inside the k−1 window");
        }
        bm.rotate();
        assert!(!bm.lookup(key));
    }

    #[test]
    fn probe_never_sees_half_rotated_state() {
        // A key marked in all k vectors must stay `known` through k−1
        // rotations no matter how probes interleave with the rotator.
        let bm = AtomicBitmap::new(4, 12, 3);
        bm.mark(b"pinned");
        std::thread::scope(|scope| {
            let rotator = {
                let bm = &bm;
                scope.spawn(move || {
                    for _ in 0..3 {
                        // k − 1 rotations
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        bm.rotate();
                    }
                })
            };
            let bm = &bm;
            scope.spawn(move || {
                while bm.rotations() < 3 {
                    assert!(
                        bm.probe(b"pinned").known,
                        "probe lost the key inside the k−1 window"
                    );
                }
            });
            rotator.join().unwrap();
        });
        assert!(bm.lookup(b"pinned"));
        bm.rotate();
        assert!(!bm.lookup(b"pinned"));
    }
}
