//! Backend equivalence: every kernel, on every backend available on this
//! CPU, must agree bit-for-bit with the scalar (`off`) reference over
//! random inputs — including row widths that exercise both the 4-word
//! vector body and the 0–3-word scalar tail (the word-level shape of
//! non-multiple-of-64 bitset capacities).
//!
//! These tests call the per-backend kernels ([`Backend::popcount`] & co)
//! directly rather than the dispatching free functions, so they cover
//! `avx2` even when a `JIM_SIMD` override pins the active backend to
//! `off`, and never touch the global dispatch state (which keeps them
//! race-free under the parallel test runner).

#![forbid(unsafe_code)]

use jim_simd::Backend;
use proptest::prelude::*;

/// Backends to pin against the scalar reference.
fn candidates() -> impl Iterator<Item = Backend> {
    Backend::ALL
        .into_iter()
        .filter(|b| *b != Backend::Off && b.available())
}

/// A random word slice of the given length.
fn words(len: usize) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any::<u64>(), len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn batch_kernels_agree(
        len in 0usize..=19,
        width in 1usize..=9,
        nrows in 0usize..=12,
        nnegs in 0usize..=6,
        seed in words(9 * 12),
        negseed in words(9 * 6),
        maskseed in words(9 * 6),
    ) {
        // Popcount over every length from empty through four full
        // vectors plus a tail.
        let counted = &seed[..len];
        for backend in candidates() {
            prop_assert_eq!(
                backend.popcount(counted),
                Backend::Off.popcount(counted),
                "{}", backend
            );
        }
        let rows = &seed[..width * nrows];
        // Half the negs are supersets of rows (guaranteed ⊆ hits), half
        // are random.
        let mut negs: Vec<u64> = Vec::with_capacity(width * nnegs);
        for i in 0..nnegs {
            let chunk = &negseed[i * width..(i + 1) * width];
            if i % 2 == 0 && nrows > 0 {
                let row = &rows[(i % nrows) * width..(i % nrows + 1) * width];
                // A superset of a row: row | mask.
                let mask = &maskseed[i * width..(i + 1) * width];
                negs.extend(row.iter().zip(mask.iter()).map(|(&r, &m)| r | m));
            } else {
                negs.extend_from_slice(chunk);
            }
        }
        let mut want = Vec::new();
        Backend::Off.subsumed_mask(rows, &negs, width, &mut want);
        prop_assert_eq!(want.len(), nrows);
        for backend in candidates() {
            let mut got = vec![true; 99]; // stale contents must be overwritten
            backend.subsumed_mask(rows, &negs, width, &mut got);
            prop_assert_eq!(&got, &want, "{} subsumed_mask", backend);
            for r in 0..nrows {
                let row = &rows[r * width..(r + 1) * width];
                prop_assert_eq!(
                    backend.subset_any(row, &negs),
                    Backend::Off.subset_any(row, &negs),
                    "{} subset_any", backend
                );
                prop_assert_eq!(backend.subset_any(row, &negs), want[r], "{}", backend);
            }
        }
    }

    #[test]
    fn tail_words_beyond_the_vector_body_matter(
        body in words(4),
        tail_a in any::<u64>(),
        tail_b in any::<u64>(),
    ) {
        // 5 words: one full 256-bit chunk + a 1-word tail. A disagreement
        // confined to the tail must flip the verdicts on every backend.
        let mut a: Vec<u64> = body.clone();
        a.push(tail_a);
        let mut b: Vec<u64> = body.clone();
        b.push(tail_b);
        for backend in candidates() {
            prop_assert_eq!(backend.subset_any(&a, &b), Backend::Off.subset_any(&a, &b));
            prop_assert_eq!(backend.popcount(&a), Backend::Off.popcount(&a));
        }
    }
}

/// The scalar reference itself is pinned against brute force once, so the
/// property tests above anchor to known-good semantics.
#[test]
fn scalar_reference_matches_brute_force() {
    let a = [0b1011u64, u64::MAX, 0, 1 << 63];
    let b = [0b0011u64, u64::MAX, 7, 1 << 63];
    let brute_pop = |s: &[u64]| -> u64 {
        s.iter()
            .map(|w| (0..64).filter(|i| w >> i & 1 == 1).count() as u64)
            .sum()
    };
    assert_eq!(Backend::Off.popcount(&a), brute_pop(&a));
    assert!(!Backend::Off.subset_any(&a, &b)); // bit 3 of word 0 strays
    assert!(Backend::Off.subset_any(&b[..2], &a[..2]));
    // `b[..2]` is ⊆ the second of two 2-word rows only.
    assert!(Backend::Off.subset_any(&b[..2], &[0, u64::MAX, 0b0011, u64::MAX]));
    assert!(!Backend::Off.subset_any(&a[..2], &[0, u64::MAX, 0b0011, u64::MAX]));
}
