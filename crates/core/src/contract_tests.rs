// Contract tests of the `{k × N}` bitmap (paper Algorithms 1 and 2), of
// its bit vectors, of one vector used as a plain Bloom filter, and of the
// tick clock. They keep the module paths of the single-threaded `Bitmap`,
// `BitVec`, `BloomFilter` and `SharedEngine` they were first written
// against; those types are gone, and the same checks now run on
// `AtomicBitmap`, `AtomicBitVec` and `FilterEngine`.

#[cfg(test)]
mod bitmap {
    mod tests {
        use crate::AtomicBitmap;

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
        }

        #[test]
        fn mark_survives_k_minus_one_rotations() {
            // Marked right after a rotation, a key must survive k−1
            // further rotations and disappear on the k-th.
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
            bm.mark(b"conn"); // tuple seen again: timer reset
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
            bm.rotate(); // vector 0 cleared; vector 1 (now current) still marked
            assert!(bm.lookup(b"a"));
            // Key marked now goes into both vectors, including the cleared one.
            bm.mark(b"b");
            bm.rotate(); // vector 1 cleared; current = vector 0 has only "b"
            assert!(bm.lookup(b"b"));
            assert!(!bm.lookup(b"a"));
        }

        #[test]
        fn utilization_and_penetration_grow_with_load() {
            let bm = AtomicBitmap::new(4, 10, 3);
            assert_eq!(bm.penetration_probability(), 0.0);
            for i in 0..200u32 {
                bm.mark(&i.to_le_bytes());
            }
            assert!(bm.utilization() > 0.0);
            let p = bm.penetration_probability();
            assert!(p > 0.0 && p < 1.0);
            assert!((p - bm.utilization().powi(3)).abs() < 1e-12);
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
        fn no_false_negatives_within_window_bulk() {
            let bm = AtomicBitmap::new(4, 16, 3);
            let keys: Vec<[u8; 4]> = (0..2000u32).map(|i| i.to_le_bytes()).collect();
            for key in &keys {
                bm.mark(key);
            }
            bm.rotate();
            bm.rotate();
            bm.rotate(); // still within k−1 rotations
            assert!(keys.iter().all(|k| bm.lookup(k)));
        }

        #[test]
        #[should_panic(expected = "at least two bit vectors")]
        fn single_vector_is_rejected() {
            let _ = AtomicBitmap::new(1, 8, 1);
        }
    }
}

#[cfg(test)]
mod bitvec {
    mod tests {
        use crate::AtomicBitVec;

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
                v.set(i);
                assert!(v.get(i), "bit {i}");
            }
            assert_eq!(v.count_ones(), 8);
            assert!(!v.get(2));
        }

        #[test]
        fn double_set_counts_once() {
            let v = AtomicBitVec::new(10);
            v.set(3);
            v.set(3);
            assert_eq!(v.count_ones(), 1);
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
            // Wrong word count.
            assert!(AtomicBitVec::from_words(130, vec![0; 2]).is_none());
            // Stray bit beyond len.
            assert!(AtomicBitVec::from_words(130, vec![0, 0, 1 << 2]).is_none());
            // Zero length.
            assert!(AtomicBitVec::from_words(0, vec![]).is_none());
            // Exact word multiple has no tail mask to trip on.
            assert!(AtomicBitVec::from_words(128, vec![u64::MAX, u64::MAX]).is_some());
        }
    }
}

#[cfg(test)]
mod bloom {
    /// Between rotations, the current vector of a bitmap is a standard
    /// Bloom filter: marks insert, lookups test membership, and
    /// `penetration_probability` is its expected false-positive rate.
    mod tests {
        use crate::AtomicBitmap;

        fn bloom(n_bits: u32, m: usize) -> AtomicBitmap {
            AtomicBitmap::new(2, n_bits, m)
        }

        #[test]
        fn no_false_negatives() {
            let b = bloom(12, 3);
            let keys: Vec<[u8; 4]> = (0..500u32).map(|i| i.to_le_bytes()).collect();
            for k in &keys {
                b.mark(k);
            }
            assert!(keys.iter().all(|k| b.lookup(k)));
        }

        #[test]
        fn false_positive_rate_is_low_when_underloaded() {
            let b = bloom(16, 4); // 65536 bits
            for i in 0..1000u32 {
                b.mark(&i.to_le_bytes());
            }
            // Probe disjoint keys.
            let fp = (1_000_000u32..1_002_000)
                .filter(|i| b.lookup(&i.to_le_bytes()))
                .count();
            // Expected ≈ (1000*4/65536)^4 ≈ 1.4e-5 → ~0 of 2000.
            assert!(fp <= 2, "false positives too high: {fp}/2000");
        }

        #[test]
        fn measured_fp_tracks_expected_fp() {
            let b = bloom(12, 2); // 4096 bits, deliberately loaded
            for i in 0..800u32 {
                b.mark(&i.to_le_bytes());
            }
            let probes = 4000;
            let fp = (1_000_000u32..1_000_000 + probes)
                .filter(|i| b.lookup(&i.to_le_bytes()))
                .count() as f64
                / probes as f64;
            let expected = b.penetration_probability();
            assert!(
                (fp - expected).abs() < 0.05,
                "measured {fp:.4} vs expected {expected:.4}"
            );
        }

        #[test]
        fn utilization_grows_with_insertions() {
            let b = bloom(10, 3);
            let u0 = b.utilization();
            for i in 0..50u32 {
                b.mark(&i.to_le_bytes());
            }
            assert!(b.utilization() > u0);
            assert!(b.utilization() <= 1.0);
        }

        #[test]
        fn empty_filter_contains_nothing() {
            let b = bloom(8, 2);
            assert!(!b.lookup(b"anything"));
            assert_eq!(b.penetration_probability(), 0.0);
        }
    }
}

#[cfg(test)]
mod shared_engine {
    mod tests {
        use crate::{DropPolicy, FilterEngine, NoopObserver, ThroughputMonitor};
        use upbound_net::{TimeDelta, Timestamp};

        fn engine(seed: u64) -> FilterEngine<NoopObserver> {
            FilterEngine::new(
                TimeDelta::from_secs(5.0),
                ThroughputMonitor::new(TimeDelta::from_secs(1.0), 20),
                DropPolicy::drop_all(),
                seed,
                NoopObserver,
            )
        }

        #[test]
        fn advance_matches_exclusive_engine_semantics() {
            let e = engine(0);
            let mut fired = Vec::new();
            // The tick counter moves only after `on_tick` returns.
            e.advance(Timestamp::from_secs(17.0), |at| {
                fired.push((at, e.ticks() + 1));
            });
            assert_eq!(
                fired,
                vec![
                    (Timestamp::from_secs(5.0), 1),
                    (Timestamp::from_secs(10.0), 2),
                    (Timestamp::from_secs(15.0), 3),
                ]
            );
            assert_eq!(e.ticks(), 3);
            e.advance(Timestamp::from_secs(17.0), |_| panic!("no tick due"));
            e.advance(Timestamp::from_secs(3.0), |_| {
                panic!("backward time must not tick")
            });
        }

        #[test]
        fn far_future_advance_is_bounded() {
            let e = engine(0);
            let mut fired = 0u64;
            e.advance(Timestamp::from_secs(1e8), |_| fired += 1);
            assert_eq!(fired, FilterEngine::<NoopObserver>::MAX_TICK_CATCHUP);
            assert_eq!(e.ticks(), 20_000_000);
            e.advance(Timestamp::from_secs(1e8), |_| panic!("no tick due"));
        }
    }
}
