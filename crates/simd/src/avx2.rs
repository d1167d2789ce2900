//! The x86_64 AVX2 backend.
//!
//! Every function here carries `#[target_feature(enable = "avx2,popcnt")]`:
//! the compiler emits 256-bit bitwise ops and the hardware `popcnt`
//! instruction, and callers outside an AVX2 context must prove the
//! features are present before calling (the dispatch layer in `lib.rs`
//! does, via `is_x86_feature_detected!`). This module is the workspace's
//! second `unsafe` surface after `jim-aio`, and like there the unsafety
//! is confined: raw-pointer vector loads inside bounds-checked loops,
//! nothing else.
//!
//! Kernel notes:
//!
//! * `popcount` is a plain `count_ones` loop; the feature context is
//!   what turns it into hardware `popcnt` (the default x86_64 target
//!   compiles `count_ones` to a software bit-twiddling sequence).
//! * The batch sweeps (`subset_any`, `subsumed_mask`) test four words per
//!   step with `vpandn` + `vptest` — the AND-NOT-is-empty form of
//!   `a ⊆ b` — and stay inside the feature context for the whole sweep:
//!   one runtime dispatch per sweep, not per pair.

use std::arch::x86_64::{
    __m256i, _mm256_andnot_si256, _mm256_loadu_si256, _mm256_or_si256, _mm256_testz_si256,
};

/// Words per 256-bit vector step.
const LANES: usize = 4;

/// True iff the CPU supports this backend (AVX2 + POPCNT).
pub fn available() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("popcnt")
}

// --- Safe entry points -------------------------------------------------
//
// The `*_kernel` functions below carry `#[target_feature]`, so calling
// one is `unsafe` (the caller asserts the CPU features exist). These
// wrappers are the only place that obligation is discharged: the
// dispatch layer in `lib.rs` routes to `Backend::Avx2` strictly behind
// `Backend::checked()`, which demotes the backend unless [`available`]
// — i.e. `is_x86_feature_detected!` — passed. That keeps every
// `unsafe` token in this one file (jim-lint rule `unsafe` enforces it),
// and the debug assertion catches any future caller that conjures the
// backend without detection.

macro_rules! checked_entry {
    () => {
        debug_assert!(
            available(),
            "AVX2 entry without feature detection; route through Backend::checked()"
        )
    };
}

/// Number of set bits across the slice.
pub fn popcount(a: &[u64]) -> u64 {
    checked_entry!();
    // SAFETY: detection proved avx2+popcnt (see module comment above).
    unsafe { popcount_kernel(a) }
}

/// `x ⊆ r` for some row `r` of `rows` (row-major, width = `x.len()`).
pub fn subset_any(x: &[u64], rows: &[u64]) -> bool {
    checked_entry!();
    // SAFETY: detection proved avx2+popcnt.
    unsafe { subset_any_kernel(x, rows) }
}

/// For each row of `rows`, whether it is `⊆` some row of `negs`.
pub fn subsumed_mask(rows: &[u64], negs: &[u64], width: usize, out: &mut Vec<bool>) {
    checked_entry!();
    // SAFETY: detection proved avx2+popcnt.
    unsafe { subsumed_mask_kernel(rows, negs, width, out) }
}

// --- Kernels -----------------------------------------------------------

/// Number of set bits across the slice, one hardware `popcnt` per word.
#[target_feature(enable = "avx2,popcnt")]
fn popcount_kernel(a: &[u64]) -> u64 {
    a.iter().map(|&w| w.count_ones() as u64).sum()
}

/// Load one 256-bit vector from `words[i..i + 4]`.
///
/// # Safety
/// `i + 4 <= words.len()` must hold (`loadu` itself has no alignment
/// requirement).
#[target_feature(enable = "avx2")]
unsafe fn load(words: &[u64], i: usize) -> __m256i {
    debug_assert!(i + LANES <= words.len());
    // SAFETY: caller guarantees the 4-word window is in bounds.
    unsafe { _mm256_loadu_si256(words.as_ptr().add(i) as *const __m256i) }
}

/// `a ⊆ b`, i.e. `a & !b == 0` — `vpandn` + `vptest`, eight words per
/// step (two vectors, strays OR-combined so each step pays one `vptest`).
#[target_feature(enable = "avx2,popcnt")]
fn subset_kernel(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let mut i = 0usize;
    while i + 2 * LANES <= n {
        // SAFETY: `i + 2·LANES <= n` bounds all four loads.
        let (va0, vb0) = unsafe { (load(a, i), load(b, i)) };
        let (va1, vb1) = unsafe { (load(a, i + LANES), load(b, i + LANES)) };
        // andnot(b, a) = !b & a: the bits of `a` that stray outside `b`.
        let stray = _mm256_or_si256(_mm256_andnot_si256(vb0, va0), _mm256_andnot_si256(vb1, va1));
        if _mm256_testz_si256(stray, stray) == 0 {
            return false;
        }
        i += 2 * LANES;
    }
    if i + LANES <= n {
        // SAFETY: `i + LANES <= n` bounds both loads.
        let (va, vb) = unsafe { (load(a, i), load(b, i)) };
        let stray = _mm256_andnot_si256(vb, va);
        if _mm256_testz_si256(stray, stray) == 0 {
            return false;
        }
        i += LANES;
    }
    a[i..n].iter().zip(&b[i..n]).all(|(&x, &y)| x & !y == 0)
}

/// `x ⊆ r` for some row `r` of `rows` (row-major, width = `x.len()`).
/// A zero-width `x` encodes no rows at all, so the answer is `false`.
#[target_feature(enable = "avx2,popcnt")]
fn subset_any_kernel(x: &[u64], rows: &[u64]) -> bool {
    let w = x.len();
    if w == 0 {
        return false;
    }
    // Index arithmetic, not per-row `chunks_exact`: re-deriving the chunk
    // count costs a 64-bit division per call, which dwarfs the subset
    // test itself at antichain widths.
    let n = rows.len() / w;
    (0..n).any(|j| subset_kernel(x, &rows[j * w..j * w + w]))
}

/// For each row of `rows`, whether it is `⊆` some row of `negs`; both are
/// row-major with the given `width`. `out` is overwritten.
#[target_feature(enable = "avx2,popcnt")]
fn subsumed_mask_kernel(rows: &[u64], negs: &[u64], width: usize, out: &mut Vec<bool>) {
    out.clear();
    if width == 0 {
        return;
    }
    // Hoist the row counts: one division each, not one per row.
    let nnegs = negs.len() / width;
    if nnegs == 1 {
        // The common sweep — one fresh negative per label batch. Slicing
        // it once lets the row loop run without per-row index math.
        let neg = &negs[..width];
        out.extend(rows.chunks_exact(width).map(|row| subset_kernel(row, neg)));
        return;
    }
    out.extend(
        rows.chunks_exact(width)
            .map(|row| (0..nnegs).any(|j| subset_kernel(row, &negs[j * width..j * width + width]))),
    );
}
