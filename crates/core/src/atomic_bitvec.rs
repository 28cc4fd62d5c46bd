//! A fixed-size bit vector with an incrementally maintained ones-count —
//! the storage of one column of the `{k × N}` bitmap.

/// A fixed-size vector of bits backed by `u64` words — one column of
/// the [`AtomicBitmap`](crate::AtomicBitmap).
///
/// Writes take `&mut self`: [`set`](Self::set) and
/// [`set_many`](Self::set_many) OR each bit into its word and count the
/// bits that were clear, and [`clear`](Self::clear) zeroes every word.
/// Reads ([`get`](Self::get), [`count_ones`](Self::count_ones)) take
/// `&self`. The ones-count is exact after every call, because one owner
/// makes every write.
///
/// Concurrent deciders share a vector only through a lock that hands
/// out `&mut` (the bank lock of
/// [`ShardedFilter`](crate::ShardedFilter)); see DESIGN.md, "Exclusive
/// shards". The name is kept from the lock-free vector this type
/// replaced.
///
/// # Examples
///
/// ```
/// use upbound_core::AtomicBitVec;
///
/// let mut v = AtomicBitVec::new(1024);
/// v.set(17);
/// assert!(v.get(17));
/// assert_eq!(v.count_ones(), 1);
/// v.clear();
/// assert!(!v.get(17));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomicBitVec {
    /// Empty when the vector is parked (no storage attached).
    words: Box<[u64]>,
    len: usize,
    ones: usize,
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
            words: vec![0; len.div_ceil(64)].into_boxed_slice(),
            len,
            ones: 0,
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
    /// this call. The one-bit case of [`set_many`](Self::set_many).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn set(&mut self, i: usize) -> bool {
        self.set_many([i]) == 1
    }

    /// Sets every bit in `bits` to one and returns how many of them this
    /// call newly set (an index repeated within the call counts once).
    /// The ones-count takes one add for the whole call.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= len()`; the bits before it stay set
    /// and counted.
    #[inline]
    pub fn set_many(&mut self, bits: impl IntoIterator<Item = usize>) -> usize {
        let mut newly = 0;
        for i in bits {
            if i >= self.len {
                self.out_of_range(i, newly);
            }
            let mask = 1u64 << (i % 64);
            let word = &mut self.words[i / 64];
            newly += usize::from(*word & mask == 0);
            *word |= mask;
        }
        self.ones += newly;
        newly
    }

    /// Counts the `newly` set bits of a [`set_many`](Self::set_many)
    /// call cut short by index `i`, then panics.
    #[cold]
    #[inline(never)]
    fn out_of_range(&mut self, i: usize, newly: usize) -> ! {
        self.ones += newly;
        panic!("bit index {i} out of range {}", self.len);
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Zeroes every bit (the `b.rotate` clean-up step).
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.ones = 0;
    }

    /// Number of set bits, maintained incrementally (O(1)).
    pub fn count_ones(&self) -> usize {
        self.ones
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
        self.words.to_vec()
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
            ones: 0,
        }
    }

    /// Detaches the backing storage, leaving the vector parked (see
    /// [`new_parked`](Self::new_parked)). The word values are handed out
    /// as-is — callers recycling the buffer are responsible for zeroing.
    pub(crate) fn take_words(&mut self) -> Vec<u64> {
        self.ones = 0;
        std::mem::take(&mut self.words).into_vec()
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
        self.words = words.into_boxed_slice();
        self.ones = 0;
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
        let ones = words.iter().map(|w| w.count_ones() as usize).sum();
        Some(Self {
            words: words.into_boxed_slice(),
            len,
            ones,
        })
    }
}

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
        let mut v = AtomicBitVec::new(130);
        for i in [0, 1, 63, 64, 65, 127, 128, 129] {
            assert!(v.set(i), "bit {i} newly set");
            assert!(v.get(i), "bit {i}");
        }
        assert_eq!(v.count_ones(), 8);
        assert!(!v.get(2));
    }

    #[test]
    fn double_set_counts_once() {
        let mut v = AtomicBitVec::new(10);
        assert!(v.set(3));
        assert!(!v.set(3));
        assert_eq!(v.count_ones(), 1);
    }

    #[test]
    fn set_on_a_set_bit_is_a_no_op() {
        let mut v = AtomicBitVec::new(128);
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
        let mut many = AtomicBitVec::new(201);
        let mut one_by_one = AtomicBitVec::new(201);
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
        let mut v = AtomicBitVec::new(70);
        let cut =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| v.set_many([1, 65, 70, 2])));
        assert!(cut.is_err());
        assert!(v.get(1) && v.get(65) && !v.get(2));
        assert_eq!(v.count_ones(), 2);
    }

    #[test]
    fn sparse_clear_leaves_an_exact_zero_count() {
        // A few bits in a mostly-zero vector: the clear skips the zero
        // words and must still subtract every set bit.
        let mut v = AtomicBitVec::new(1 << 14);
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
        let mut v = AtomicBitVec::new(200);
        for i in (0..200).step_by(7) {
            v.set(i);
        }
        v.clear();
        assert_eq!(v.count_ones(), 0);
        assert!((0..200).all(|i| !v.get(i)));
    }

    #[test]
    fn from_words_roundtrips() {
        let mut v = AtomicBitVec::new(130);
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
        let mut v = AtomicBitVec::new(96);
        v.set(90);
        let mut c = v.clone();
        assert_eq!(c, v);
        c.set(1);
        assert_ne!(c, v);
    }

    #[test]
    fn utilization_is_fraction_of_ones() {
        let mut v = AtomicBitVec::new(64);
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
        let mut v = AtomicBitVec::new(8);
        v.set(9);
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn empty_vector_panics() {
        let _ = AtomicBitVec::new(0);
    }
}
