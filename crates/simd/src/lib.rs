//! # `jim-simd` — runtime-dispatched kernels for the bitset hot loops
//!
//! JIM's inference reduces to subset / AND / popcount operations over
//! packed `u64` bitsets. The pairwise operations are plain inline word
//! loops in `jim-core`'s `AtomSet`; a call through a dispatch layer costs
//! more than the one or few words they touch. This crate keeps the three
//! kernels that run behind a runtime backend choice, so `jim-core` keeps
//! its `#![forbid(unsafe_code)]` while they still reach the hardware:
//!
//! ```text
//!           ┌───────────────────────────────┐
//!           │  dispatch (once per process;  │
//!           │  one call per popcount or per │
//!           │  whole batch sweep)           │
//!           └──────┬─────────────────┬──────┘
//!      JIM_SIMD=off (or no AVX2)    =avx2 / auto-detected
//!                  │                 │
//!             scalar.rs           avx2.rs
//!         (reference word      (hardware popcnt,
//!          loops)               vpandn+vptest sweeps)
//! ```
//!
//! * **Kernels.** [`popcount`] (hardware `popcnt` is reachable only
//!   inside a `target_feature` context, so `AtomSet::len` calls it), and
//!   the two batch sweeps [`subset_any`] and [`subsumed_mask`], which
//!   take row-major packed buffers and run the whole sweep inside one
//!   backend selection — one dispatch per sweep, not per pair. They are
//!   what `jim-core`'s version space and candidate index call for their
//!   antichain subsumption sweeps.
//! * **Backends.** [`Backend::Off`] is the plain word-at-a-time scalar
//!   loop (the reference semantics, and the portable fallback);
//!   [`Backend::Avx2`] is the x86_64 path compiled with
//!   `#[target_feature(enable = "avx2,popcnt")]` and guarded by
//!   `is_x86_feature_detected!` — never selected on a CPU that lacks it.
//! * **Selection.** Resolved once per process: an explicit [`force`]
//!   call wins, then the `JIM_SIMD=off|avx2` environment variable
//!   (`scalar` is an alias of `off`), then the best detected backend
//!   ([`Backend::Avx2`] where available, else [`Backend::Off`]).
//!   [`active`] reports the choice; servers log it so deployments can
//!   confirm AVX2 is live.
//!
//! The per-backend kernels are also exposed as methods on [`Backend`]
//! (e.g. [`Backend::popcount`]) so the equivalence property tests can
//! pin `avx2` against the scalar reference directly, whatever backend is
//! active.
//!
//! Like `jim-aio`, this is a deliberately confined `unsafe` surface:
//! every `unsafe` token lives in `avx2.rs` (raw-pointer vector loads
//! plus the safe entry points that discharge the `target_feature`
//! obligation); this file and everything above it are safe Rust, and
//! `jim-lint`'s `unsafe` rule holds the line.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

#[cfg(target_arch = "x86_64")]
mod avx2;
mod scalar;

use std::sync::atomic::{AtomicU8, Ordering};

/// A kernel backend. Ordered worst-to-best so resolution can pick `max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Backend {
    /// Plain word-at-a-time scalar loops — the reference semantics and
    /// the portable fallback (`JIM_SIMD=off`).
    Off,
    /// 256-bit AVX2 + hardware popcnt; x86_64 with runtime detection.
    Avx2,
}

impl Backend {
    /// Every backend, worst-to-best.
    pub const ALL: [Backend; 2] = [Backend::Off, Backend::Avx2];

    /// The name used by `JIM_SIMD` and reported in logs/metrics.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Off => "off",
            Backend::Avx2 => "avx2",
        }
    }

    /// Parse a `JIM_SIMD` value (case-insensitive).
    pub fn parse(s: &str) -> Option<Backend> {
        match s.to_ascii_lowercase().as_str() {
            "off" | "scalar" => Some(Backend::Off),
            "avx2" => Some(Backend::Avx2),
            _ => None,
        }
    }

    /// True iff this backend can run on the current CPU.
    pub fn available(self) -> bool {
        match self {
            Backend::Off => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => avx2::available(),
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx2 => false,
        }
    }

    /// Number of set bits across the slice.
    pub fn popcount(self, a: &[u64]) -> u64 {
        match self.checked() {
            Backend::Off => scalar::popcount(a),
            #[cfg(target_arch = "x86_64")]
            // `checked()` only yields Avx2 when detection passed, which is
            // what the safe avx2 entry points debug-assert.
            Backend::Avx2 => avx2::popcount(a),
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx2 => unreachable!("unavailable backends are demoted by checked()"),
        }
    }

    /// Batch: `x ⊆ r` for some row `r` of `rows`, a row-major packed
    /// buffer of width `x.len()` words per row (`rows.len()` must be a
    /// multiple of it). One backend selection for the whole sweep. A
    /// zero-width `x` encodes no rows, so the answer is `false`.
    pub fn subset_any(self, x: &[u64], rows: &[u64]) -> bool {
        debug_assert!(x.is_empty() || rows.len().is_multiple_of(x.len()));
        match self.checked() {
            Backend::Off => scalar::subset_any(x, rows),
            #[cfg(target_arch = "x86_64")]
            // `checked()` only yields Avx2 when detection passed, which is
            // what the safe avx2 entry points debug-assert.
            Backend::Avx2 => avx2::subset_any(x, rows),
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx2 => unreachable!("unavailable backends are demoted by checked()"),
        }
    }

    /// Batch: for each row of `rows`, whether it is `⊆` some row of
    /// `negs`. Both buffers are row-major, `width` words per row; `out`
    /// is overwritten with one flag per row of `rows`. One backend
    /// selection for the whole sweep — the shape of the candidate
    /// index's antichain subsumption sweep.
    pub fn subsumed_mask(self, rows: &[u64], negs: &[u64], width: usize, out: &mut Vec<bool>) {
        debug_assert!(
            width == 0 || (rows.len().is_multiple_of(width) && negs.len().is_multiple_of(width))
        );
        match self.checked() {
            Backend::Off => scalar::subsumed_mask(rows, negs, width, out),
            #[cfg(target_arch = "x86_64")]
            // `checked()` only yields Avx2 when detection passed, which is
            // what the safe avx2 entry points debug-assert.
            Backend::Avx2 => avx2::subsumed_mask(rows, negs, width, out),
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx2 => unreachable!("unavailable backends are demoted by checked()"),
        }
    }

    /// Demote an unavailable backend to the portable `Off`, so the AVX2
    /// entry points (whose kernels assume the features exist) are
    /// reachable only behind a passed feature check even if a caller
    /// conjures `Backend::Avx2` on the wrong CPU.
    #[inline]
    fn checked(self) -> Backend {
        if self == Backend::Avx2 && !self.available() {
            return Backend::Off;
        }
        self
    }

    fn code(self) -> u8 {
        match self {
            Backend::Off => 1,
            Backend::Avx2 => 2,
        }
    }

    fn from_code(code: u8) -> Option<Backend> {
        match code {
            1 => Some(Backend::Off),
            2 => Some(Backend::Avx2),
            _ => None,
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The resolved backend: 0 = not yet resolved, else `Backend::code`.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// The backend every dispatching kernel uses. Resolved on first call —
/// [`force`] override, then `JIM_SIMD=off|avx2`, then the best
/// the CPU supports — and cached for the life of the process.
pub fn active() -> Backend {
    match Backend::from_code(ACTIVE.load(Ordering::Relaxed)) {
        Some(b) => b,
        None => {
            let b = resolve();
            ACTIVE.store(b.code(), Ordering::Relaxed);
            b
        }
    }
}

/// The active backend's name — what `jim-serve` logs at startup and the
/// `Metrics` wire op reports.
pub fn active_name() -> &'static str {
    active().name()
}

/// Force the dispatch to a specific backend (`Some`) or back to fresh
/// env/CPU resolution (`None`). Panics if the requested backend is not
/// available on this CPU — forcing must never make the AVX2 kernels
/// reachable without their feature check.
pub fn force(backend: Option<Backend>) {
    match backend {
        Some(b) => {
            assert!(
                b.available(),
                "jim-simd: backend {b} is not available on this CPU"
            );
            ACTIVE.store(b.code(), Ordering::Relaxed);
        }
        None => ACTIVE.store(0, Ordering::Relaxed),
    }
}

/// Env + CPU resolution (no caching; [`active`] caches).
fn resolve() -> Backend {
    if let Ok(v) = std::env::var("JIM_SIMD") {
        match Backend::parse(&v) {
            Some(b) if b.available() => return b,
            Some(b) => eprintln!(
                "jim-simd: JIM_SIMD={} requested but not available on this CPU; \
                 falling back to auto-detection",
                b.name()
            ),
            None => eprintln!(
                "jim-simd: unrecognized JIM_SIMD={v:?} (expected off|avx2); \
                 falling back to auto-detection"
            ),
        }
    }
    if Backend::Avx2.available() {
        Backend::Avx2
    } else {
        Backend::Off
    }
}

/// Number of set bits across the slice, on the [`active`] backend.
pub fn popcount(a: &[u64]) -> u64 {
    active().popcount(a)
}

/// Batch subset-of-any sweep (see [`Backend::subset_any`]), one dispatch.
pub fn subset_any(x: &[u64], rows: &[u64]) -> bool {
    active().subset_any(x, rows)
}

/// Batch subsumption sweep (see [`Backend::subsumed_mask`]), one dispatch.
pub fn subsumed_mask(rows: &[u64], negs: &[u64], width: usize, out: &mut Vec<bool>) {
    active().subsumed_mask(rows, negs, width, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_parse_round_trip() {
        for b in Backend::ALL {
            assert_eq!(Backend::parse(b.name()), Some(b));
        }
        assert_eq!(Backend::parse("AVX2"), Some(Backend::Avx2));
        assert_eq!(Backend::parse("scalar"), Some(Backend::Off));
        assert_eq!(Backend::parse("neon"), None);
        assert_eq!(Backend::parse("generic"), None);
        assert_eq!(Backend::Avx2.to_string(), "avx2");
    }

    #[test]
    fn off_always_available() {
        assert!(Backend::Off.available());
    }

    #[test]
    fn code_round_trips() {
        for b in Backend::ALL {
            assert_eq!(Backend::from_code(b.code()), Some(b));
        }
        assert_eq!(Backend::from_code(0), None);
    }

    /// One test exercises the force/active pair end to end (a single fn
    /// so parallel tests never race on the global dispatch state; the
    /// kernel-correctness tests use per-backend methods instead).
    #[test]
    fn force_controls_dispatch() {
        force(Some(Backend::Off));
        assert_eq!(active(), Backend::Off);
        assert_eq!(active_name(), "off");
        assert_eq!(popcount(&[0b1011, u64::MAX]), 3 + 64);
        assert!(subset_any(&[0b0011], &[0b1000, 0b0111]));
        assert!(!subset_any(&[0b1000], &[0b0111]));
        force(None);
        // Re-resolution lands on something runnable.
        assert!(active().available());
        force(None);
    }

    #[test]
    fn zero_width_batch_semantics() {
        for b in Backend::ALL.into_iter().filter(|b| b.available()) {
            assert!(!b.subset_any(&[], &[]));
            let mut out = vec![true; 3];
            b.subsumed_mask(&[], &[], 0, &mut out);
            assert!(out.is_empty(), "{b}: width-0 mask must clear out");
        }
    }

    #[test]
    fn empty_set_is_subset_of_any_row() {
        // Zero *words* is degenerate, but an all-zero row of real width
        // is the empty set and must be ⊆ everything.
        for b in Backend::ALL.into_iter().filter(|b| b.available()) {
            assert!(b.subset_any(&[0, 0], &[0, 0]), "{b}");
            assert!(b.subset_any(&[0, 0], &[1 << 63, 0]), "{b}");
            assert!(!b.subset_any(&[1, 0], &[]), "{b}: no rows");
        }
    }
}
