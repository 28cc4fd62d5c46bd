//! A fixed-size bit vector over `AtomicU64` words — the lock-free
//! storage of the concurrent `{k × N}` bitmap.

use std::sync::atomic::{AtomicU64, Ordering};

/// A fixed-size vector of bits backed by `AtomicU64` words — one column
/// of the concurrent [`AtomicBitmap`](crate::AtomicBitmap).
///
/// Every operation takes `&self`:
/// [`set`](Self::set) is a relaxed load, plus an `AtomicU64::fetch_or`
/// only when the bit reads as clear; [`set_many`](Self::set_many) does
/// the same per bit and adds the newly set bits to the ones-count once;
/// [`get`](Self::get) is a relaxed load; and [`clear`](Self::clear)
/// swaps each non-zero word to zero. Any number of markers and readers
/// may run concurrently with one clearer; once they are done the
/// ones-count is exact under every interleaving, because each 0→1
/// transition is observed by exactly one `fetch_or` and each word's set
/// bits are subtracted by exactly one `swap`.
///
/// Memory ordering: bit reads and writes are `Relaxed`. Publication
/// ordering between threads is the caller's job — the
/// [`AtomicBitmap`](crate::AtomicBitmap) wraps rotation in a seqlock
/// epoch, and independent mark/lookup pairs get their happens-before
/// from whatever handed the key across threads (see DESIGN.md,
/// "Epoch-rotation memory ordering").
///
/// # Examples
///
/// ```
/// use upbound_core::AtomicBitVec;
///
/// let v = AtomicBitVec::new(1024);
/// v.set(17);
/// assert!(v.get(17));
/// assert_eq!(v.count_ones(), 1);
/// v.clear();
/// assert!(!v.get(17));
/// ```
#[derive(Debug)]
pub struct AtomicBitVec {
    /// Empty when the vector is parked (no storage attached).
    words: Box<[AtomicU64]>,
    len: usize,
    ones: AtomicU64,
}

fn zeroed_words(len: usize) -> Box<[AtomicU64]> {
    (0..len.div_ceil(64)).map(|_| AtomicU64::new(0)).collect()
}

impl AtomicBitVec {
    /// Creates a zeroed bit vector with `len` bits.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "bit vector must have at least one bit");
        Self {
            words: zeroed_words(len),
            len,
            ones: AtomicU64::new(0),
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the vector has no bits (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i` to one; returns `true` when the bit was newly set by
    /// this call. Safe to race with other setters, readers, and
    /// [`clear`](Self::clear). The one-bit case of
    /// [`set_many`](Self::set_many).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn set(&self, i: usize) -> bool {
        self.set_many([i]) == 1
    }

    /// Sets every bit in `bits` to one and returns how many of them this
    /// call newly set (an index repeated within the call counts once).
    /// Safe to race with other setters, readers, and
    /// [`clear`](Self::clear).
    ///
    /// A bit that already reads as set is left alone: the relaxed load
    /// skips the locked `fetch_or`, which would change nothing. Only
    /// `clear` turns bits off, so a bit read as set stays set until a
    /// clear — and a caller that must not lose the bit to a concurrent
    /// clear re-checks for one afterwards, exactly as it would after a
    /// write (the [`AtomicBitmap`](crate::AtomicBitmap) mark's epoch
    /// recheck).
    ///
    /// The ones-count takes one add for the whole call, after the last
    /// bit: a reader sees the new bits counted once the call returns,
    /// and the count stays exact at rest because each 0→1 transition is
    /// still seen by exactly one `fetch_or`.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= len()`; the bits before it stay set
    /// and counted.
    #[inline]
    pub fn set_many(&self, bits: impl IntoIterator<Item = usize>) -> usize {
        let mut newly = 0u64;
        for i in bits {
            if i >= self.len {
                self.out_of_range(i, newly);
            }
            let mask = 1u64 << (i % 64);
            let word = &self.words[i / 64];
            if word.load(Ordering::Relaxed) & mask == 0
                && word.fetch_or(mask, Ordering::Relaxed) & mask == 0
            {
                newly += 1;
            }
        }
        if newly != 0 {
            self.ones.fetch_add(newly, Ordering::Relaxed);
        }
        newly as usize
    }

    /// Counts the `newly` set bits of a [`set_many`](Self::set_many)
    /// call cut short by index `i`, then panics.
    #[cold]
    #[inline(never)]
    fn out_of_range(&self, i: usize, newly: u64) -> ! {
        self.ones.fetch_add(newly, Ordering::Relaxed);
        panic!("bit index {i} out of range {}", self.len);
    }

    /// Reads bit `i` (relaxed load).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / 64].load(Ordering::Relaxed) & (1u64 << (i % 64)) != 0
    }

    /// Zeroes every bit (the `b.rotate` clean-up step). Each word that
    /// loads as non-zero is `swap`ped to zero; a word that loads as zero
    /// is skipped, since a rotation typically finds the vector sparse.
    /// Bits set concurrently are either cleared and counted by the swap
    /// or survive (set after the load or the swap) and stay counted by
    /// their setter — the ones-count is exact either way.
    pub fn clear(&self) {
        let mut cleared = 0u64;
        for w in self.words.iter() {
            if w.load(Ordering::Relaxed) != 0 {
                cleared += w.swap(0, Ordering::Relaxed).count_ones() as u64;
            }
        }
        if cleared != 0 {
            self.ones.fetch_sub(cleared, Ordering::Relaxed);
        }
    }

    /// Number of set bits, maintained incrementally (O(1)).
    pub fn count_ones(&self) -> usize {
        self.ones.load(Ordering::Relaxed) as usize
    }

    /// Fraction of bits set — the utilization `U = b/N` of the paper's
    /// Equation 2.
    pub fn utilization(&self) -> f64 {
        self.count_ones() as f64 / self.len as f64
    }

    /// Memory consumed by the bit storage, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// A copy of the backing word array (snapshot encoding). Empty when
    /// the vector is parked.
    pub fn words_snapshot(&self) -> Vec<u64> {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed))
            .collect()
    }

    /// Creates a *parked* vector: `len` bits of addressable space but no
    /// backing storage. A parked vector reports zero memory, clears as a
    /// no-op, and must not be read or written until
    /// [`put_words`](Self::put_words) re-attaches a buffer.
    pub(crate) fn new_parked(len: usize) -> Self {
        assert!(len > 0, "bit vector must have at least one bit");
        Self {
            words: Box::new([]),
            len,
            ones: AtomicU64::new(0),
        }
    }

    /// Detaches the backing storage, leaving the vector parked (see
    /// [`new_parked`](Self::new_parked)). The word values are copied out
    /// as-is — callers recycling the buffer are responsible for zeroing.
    pub(crate) fn take_words(&mut self) -> Vec<u64> {
        *self.ones.get_mut() = 0;
        let words = std::mem::take(&mut self.words);
        words.iter().map(|w| w.load(Ordering::Relaxed)).collect()
    }

    /// Re-attaches a **zeroed** word buffer to a parked vector.
    ///
    /// # Panics
    ///
    /// Panics if the vector is not parked or the buffer size does not
    /// match the vector's length.
    pub(crate) fn put_words(&mut self, words: Vec<u64>) {
        assert!(self.words.is_empty(), "vector already has storage");
        assert_eq!(words.len(), self.len.div_ceil(64), "buffer size mismatch");
        debug_assert!(words.iter().all(|&w| w == 0), "buffer must be zeroed");
        self.words = words.into_iter().map(AtomicU64::new).collect();
        *self.ones.get_mut() = 0;
    }

    /// `true` when the vector currently has no backing storage.
    pub(crate) fn is_parked(&self) -> bool {
        self.words.is_empty()
    }

    /// Rebuilds a vector of `len` bits from a backing word array, as
    /// captured by [`words_snapshot`](Self::words_snapshot). Returns
    /// `None` when the word count does not match `len` or a bit beyond
    /// `len` is set — both impossible for data this type produced, so a
    /// mismatch means the input is corrupt.
    pub fn from_words(len: usize, words: Vec<u64>) -> Option<Self> {
        if len == 0 || words.len() != len.div_ceil(64) {
            return None;
        }
        let tail_bits = len % 64;
        if tail_bits != 0 {
            let stray = words[words.len() - 1] & !((1u64 << tail_bits) - 1);
            if stray != 0 {
                return None;
            }
        }
        let ones: u64 = words.iter().map(|w| u64::from(w.count_ones())).sum();
        Some(Self {
            words: words.into_iter().map(AtomicU64::new).collect(),
            len,
            ones: AtomicU64::new(ones),
        })
    }
}

impl Clone for AtomicBitVec {
    fn clone(&self) -> Self {
        Self {
            words: self
                .words
                .iter()
                .map(|w| AtomicU64::new(w.load(Ordering::Relaxed)))
                .collect(),
            len: self.len,
            ones: AtomicU64::new(self.ones.load(Ordering::Relaxed)),
        }
    }
}

impl PartialEq for AtomicBitVec {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.words.len() == other.words.len()
            && self
                .words
                .iter()
                .zip(other.words.iter())
                .all(|(a, b)| a.load(Ordering::Relaxed) == b.load(Ordering::Relaxed))
    }
}

impl Eq for AtomicBitVec {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_start_clear() {
        let v = AtomicBitVec::new(100);
        assert_eq!(v.len(), 100);
        assert!((0..100).all(|i| !v.get(i)));
        assert_eq!(v.count_ones(), 0);
    }

    #[test]
    fn set_and_get_across_word_boundaries() {
        let v = AtomicBitVec::new(130);
        for i in [0, 1, 63, 64, 65, 127, 128, 129] {
            assert!(v.set(i), "bit {i} newly set");
            assert!(v.get(i), "bit {i}");
        }
        assert_eq!(v.count_ones(), 8);
        assert!(!v.get(2));
    }

    #[test]
    fn double_set_counts_once() {
        let v = AtomicBitVec::new(10);
        assert!(v.set(3));
        assert!(!v.set(3));
        assert_eq!(v.count_ones(), 1);
    }

    #[test]
    fn set_on_a_set_bit_is_a_no_op() {
        let v = AtomicBitVec::new(128);
        for i in [3, 64, 127] {
            assert!(v.set(i));
        }
        let before = v.words_snapshot();
        for _ in 0..3 {
            for i in [3, 64, 127] {
                assert!(!v.set(i), "bit {i} was already set");
            }
        }
        assert_eq!(v.count_ones(), 3);
        assert_eq!(v.words_snapshot(), before);
    }

    #[test]
    fn set_many_counts_each_new_bit_once() {
        // Word boundaries, a bit set before the call, and indexes
        // repeated within one call.
        let batches: [&[usize]; 4] = [
            &[0, 63, 64, 63, 0, 129],
            &[5, 5, 5],
            &[64, 0, 200, 199, 200],
            &[],
        ];
        let many = AtomicBitVec::new(201);
        let one_by_one = AtomicBitVec::new(201);
        many.set(129);
        one_by_one.set(129);
        for bits in batches {
            let expected = bits.iter().filter(|&&i| one_by_one.set(i)).count();
            assert_eq!(many.set_many(bits.iter().copied()), expected, "{bits:?}");
            assert_eq!(many.words_snapshot(), one_by_one.words_snapshot());
            assert_eq!(many.count_ones(), one_by_one.count_ones());
        }
        assert_eq!(many.count_ones(), 7);
        assert_eq!(many.set_many([0, 63, 64]), 0);
        assert_eq!(many.count_ones(), 7);
    }

    #[test]
    fn set_many_cut_short_still_counts_its_bits() {
        let v = AtomicBitVec::new(70);
        let cut = std::panic::catch_unwind(|| v.set_many([1, 65, 70, 2]));
        assert!(cut.is_err());
        assert!(v.get(1) && v.get(65) && !v.get(2));
        assert_eq!(v.count_ones(), 2);
    }

    #[test]
    fn sparse_clear_leaves_an_exact_zero_count() {
        // A few bits in a mostly-zero vector: the clear skips the zero
        // words and must still subtract every set bit.
        let v = AtomicBitVec::new(1 << 14);
        for i in [0, 1, 700, 701, 9_000, (1 << 14) - 1] {
            v.set(i);
        }
        assert_eq!(v.count_ones(), 6);
        v.clear();
        assert_eq!(v.count_ones(), 0);
        assert!(v.words_snapshot().iter().all(|&w| w == 0));
        // And again on an already-empty vector.
        v.clear();
        assert_eq!(v.count_ones(), 0);
    }

    #[test]
    fn clear_resets_everything() {
        let v = AtomicBitVec::new(200);
        for i in (0..200).step_by(7) {
            v.set(i);
        }
        v.clear();
        assert_eq!(v.count_ones(), 0);
        assert!((0..200).all(|i| !v.get(i)));
    }

    #[test]
    fn ones_count_is_exact_under_concurrent_set_and_clear() {
        let v = AtomicBitVec::new(1 << 14);
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let v = &v;
                scope.spawn(move || {
                    for i in 0..(1usize << 12) {
                        // Odd threads also set their neighbour's bit, so
                        // two setters race for the same 0→1 transition.
                        let bit = (i * 4 + t) % (1 << 14);
                        if t % 2 == 0 {
                            v.set(bit);
                        } else {
                            v.set_many([bit, (bit + 1) % (1 << 14)]);
                        }
                    }
                });
            }
            let v = &v;
            scope.spawn(move || {
                for _ in 0..64 {
                    v.clear();
                    std::hint::spin_loop();
                }
            });
        });
        // After the race settles, the incremental count must equal the
        // recomputed popcount exactly.
        let popcount: usize = v
            .words_snapshot()
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        assert_eq!(v.count_ones(), popcount);
    }

    #[test]
    fn from_words_roundtrips() {
        let v = AtomicBitVec::new(130);
        for i in [0, 64, 129] {
            v.set(i);
        }
        let rebuilt = AtomicBitVec::from_words(130, v.words_snapshot()).unwrap();
        assert_eq!(rebuilt, v);
        assert_eq!(rebuilt.count_ones(), 3);
    }

    #[test]
    fn from_words_rejects_corrupt_input() {
        assert!(AtomicBitVec::from_words(130, vec![0; 2]).is_none());
        assert!(AtomicBitVec::from_words(130, vec![0, 0, 1 << 2]).is_none());
        assert!(AtomicBitVec::from_words(0, vec![]).is_none());
        assert!(AtomicBitVec::from_words(128, vec![u64::MAX, u64::MAX]).is_some());
    }

    #[test]
    fn park_unpark_roundtrip() {
        let mut v = AtomicBitVec::new(128);
        v.set(5);
        let mut words = v.take_words();
        assert!(v.is_parked());
        assert_eq!(v.memory_bytes(), 0);
        words.fill(0);
        v.put_words(words);
        assert!(!v.is_parked());
        assert!(!v.get(5));
        assert_eq!(v.count_ones(), 0);
    }

    #[test]
    fn clone_and_eq_compare_contents() {
        let v = AtomicBitVec::new(96);
        v.set(90);
        let c = v.clone();
        assert_eq!(c, v);
        c.set(1);
        assert_ne!(c, v);
    }

    #[test]
    fn utilization_is_fraction_of_ones() {
        let v = AtomicBitVec::new(64);
        for i in 0..16 {
            v.set(i);
        }
        assert!((v.utilization() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn memory_rounds_up_to_words() {
        assert_eq!(AtomicBitVec::new(1).memory_bytes(), 8);
        assert_eq!(AtomicBitVec::new(64).memory_bytes(), 8);
        assert_eq!(AtomicBitVec::new(65).memory_bytes(), 16);
        // The paper's 2^20-bit vector is 128 KiB.
        assert_eq!(AtomicBitVec::new(1 << 20).memory_bytes(), 128 * 1024);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        let v = AtomicBitVec::new(8);
        let _ = v.get(8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_set_panics() {
        let v = AtomicBitVec::new(8);
        v.set(9);
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn empty_vector_panics() {
        let _ = AtomicBitVec::new(0);
    }
}
