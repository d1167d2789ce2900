//! The `off` backend: plain word-at-a-time scalar loops.
//!
//! These are the reference semantics. The equivalence property tests pin
//! the AVX2 backend against this module, it is what auto-detection falls
//! back to on CPUs without AVX2, and `JIM_SIMD=off` selects it at runtime
//! for A/B measurement and for ruling the kernel layer out when debugging.

/// Number of set bits across the slice.
pub fn popcount(a: &[u64]) -> u64 {
    a.iter().map(|&w| w.count_ones() as u64).sum()
}

/// `a ⊆ b`, i.e. `a & !b == 0` word-wise. Slices must be equal length.
fn subset(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b.iter()).all(|(&x, &y)| x & !y == 0)
}

/// `x ⊆ r` for some row `r` of `rows` (row-major, width = `x.len()`).
/// A zero-width `x` encodes no rows at all, so the answer is `false`.
pub fn subset_any(x: &[u64], rows: &[u64]) -> bool {
    let w = x.len();
    if w == 0 {
        return false;
    }
    // Index arithmetic, not per-row `chunks_exact`: re-deriving the chunk
    // count costs a 64-bit division per call, which dwarfs the subset
    // test itself at antichain widths.
    let n = rows.len() / w;
    (0..n).any(|j| subset(x, &rows[j * w..j * w + w]))
}

/// For each row of `rows`, whether it is `⊆` some row of `negs`; both are
/// row-major with the given `width`. `out` is overwritten.
pub fn subsumed_mask(rows: &[u64], negs: &[u64], width: usize, out: &mut Vec<bool>) {
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
        out.extend(rows.chunks_exact(width).map(|row| subset(row, neg)));
        return;
    }
    out.extend(
        rows.chunks_exact(width)
            .map(|row| (0..nnegs).any(|j| subset(row, &negs[j * width..j * width + width]))),
    );
}
