//! Kernel-level bench for `jim-simd`: every backend available on this
//! host, at three universe widths — 64 atoms (one word, the width every
//! benchmark workload runs at), 256 atoms (4 words) and 1024 atoms (16
//! words) — across the kernels the engine dispatches: `popcount` and the
//! batched `subsumed_mask` antichain sweep.
//!
//! Unlike the other benches this one needs the measured numbers (to
//! compute backend speedups and emit `BENCH_simd.json`), which the
//! offline criterion shim does not expose — so it carries its own
//! `Instant`-based harness and prints the same `bench …: … ns/iter`
//! lines the shim does. Output lands in `BENCH_simd.json` at the
//! workspace root (override with `--out <path>`; `--no-write` skips).

#![forbid(unsafe_code)]

use jim_simd::Backend;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::time::Instant;

/// The strict one-word-at-a-time baseline the speedup figures compare
/// against. The shipped `off` backend is plain Rust too, but LLVM
/// autovectorizes its loops to SSE2 (4 words per step, early exit and
/// all) — so `off` is *not* a scalar measurement. Each word here passes
/// through `black_box`, pinning the loops to genuine scalar code.
mod scalar_ref {
    use std::hint::black_box;

    pub fn popcount(a: &[u64]) -> u64 {
        let mut acc = 0u64;
        for &w in a {
            acc += black_box(w).count_ones() as u64;
        }
        acc
    }

    fn subset(a: &[u64], b: &[u64]) -> bool {
        for (&x, &y) in a.iter().zip(b.iter()) {
            if black_box(x) & !y != 0 {
                return false;
            }
        }
        true
    }

    pub fn subsumed_mask(rows: &[u64], negs: &[u64], width: usize, out: &mut Vec<bool>) {
        out.clear();
        if width == 0 {
            return;
        }
        // Same division hoist and single-negative specialization as the
        // shipped kernels, so the baseline differs only in
        // word-at-a-time vs vector scanning.
        let nnegs = negs.len() / width;
        if nnegs == 1 {
            let neg = &negs[..width];
            out.extend(rows.chunks_exact(width).map(|row| subset(row, neg)));
            return;
        }
        out.extend(
            rows.chunks_exact(width)
                .map(|row| (0..nnegs).any(|j| subset(row, &negs[j * width..j * width + width]))),
        );
    }
}

/// One measured sample: minimum over `REPEATS` timed runs of `iters`
/// calls each — minimum, not mean, because on a busy single-core host
/// the interesting number is the undisturbed kernel cost.
const REPEATS: usize = 5;

fn measure<O, F: FnMut() -> O>(iters: u64, mut f: F) -> f64 {
    std::hint::black_box(f()); // warm-up (and first-dispatch resolution)
    let mut best = f64::INFINITY;
    for _ in 0..REPEATS {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let ns = start.elapsed().as_nanos() as f64 / iters as f64;
        best = best.min(ns);
    }
    best
}

/// Random words with roughly half the bits set — the dense mid-session
/// signature shape, where popcount has real work per word.
fn random_words(rng: &mut StdRng, n: usize) -> Vec<u64> {
    (0..n).map(|_| rng.next_u64()).collect()
}

/// A row-major pack of `rows` random sets, each `width` words, where the
/// sweep finds few subsumptions (sparse hits — the common case: most
/// candidates survive a fresh negative).
fn random_pack(rng: &mut StdRng, rows: usize, width: usize) -> Vec<u64> {
    random_words(rng, rows * width)
}

struct Sample {
    kernel: &'static str,
    bits: usize,
    backend: &'static str,
    ns_per_iter: f64,
    /// Work items per iteration (rows×negs for the sweep, sets for
    /// popcount) — for like-for-like rate comparison.
    items: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let no_write = args.iter().any(|a| a == "--no-write");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| format!("{}/../../BENCH_simd.json", env!("CARGO_MANIFEST_DIR")));
    // `cargo bench` passes harness flags like `--bench`; ignore them.

    let backends: Vec<Backend> = Backend::ALL.into_iter().filter(|b| b.available()).collect();
    eprintln!(
        "simd bench: backends {:?}, active {}",
        backends.iter().map(|b| b.name()).collect::<Vec<_>>(),
        jim_simd::active_name()
    );

    let mut rng = StdRng::seed_from_u64(42);
    let mut samples: Vec<Sample> = Vec::new();

    for &bits in &[64usize, 256, 1024] {
        let width = bits / 64;
        // Popcount input: a packed arena of 256 sets, counted in ONE
        // kernel call per iteration — the packed-rows layout the engine's
        // batch sweeps iterate, where the backend dispatch is paid once,
        // not per set.
        const SETS: usize = 256;
        let arena = random_pack(&mut rng, SETS, width);
        // Subsumption sweep: a candidate block against the FRESH negatives
        // of one label batch — the exact shape of
        // `drop_subsumed_candidates`, which sweeps against the negatives
        // the batch just added (not the whole antichain). The most common
        // batch adds exactly one negative, so NEGS = 1 here. A session's
        // signatures are highly correlated (they all live inside `U` and
        // share atoms), so the tests scan deep into the words: half the
        // rows are genuine subsets of the fresh negative (subsumed —
        // full-width scan), half differ from it by a single stray atom at
        // a random position (barely-surviving candidates — scan until the
        // stray word).
        const ROWS: usize = 512;
        const NEGS: usize = 1;
        let negs: Vec<u64> = {
            // Dense antichain entries: union of two random patterns.
            let x = random_pack(&mut rng, NEGS, width);
            let y = random_pack(&mut rng, NEGS, width);
            x.iter().zip(y.iter()).map(|(&a, &b)| a | b).collect()
        };
        let rows: Vec<u64> = {
            let m = random_pack(&mut rng, ROWS, width);
            let mut rows = Vec::with_capacity(ROWS * width);
            for i in 0..ROWS {
                let parent = &negs[..width];
                let mask = &m[i * width..(i + 1) * width];
                let mut row: Vec<u64> = parent
                    .iter()
                    .zip(mask.iter())
                    .map(|(&n, &k)| n & k)
                    .collect();
                if i % 2 == 1 {
                    // One stray atom the parent lacks, at a random
                    // position: the subset test fails, but only at the
                    // word holding the stray.
                    for _ in 0..256 {
                        let p = (rng.next_u64() as usize) % bits;
                        if parent[p / 64] >> (p % 64) & 1 == 0 {
                            row[p / 64] |= 1 << (p % 64);
                            break;
                        }
                    }
                }
                rows.extend_from_slice(&row);
            }
            rows
        };
        let mut mask = Vec::with_capacity(ROWS);

        // The scalar baseline row, measured on the exact same inputs.
        let ns = measure(2_000, || scalar_ref::popcount(&arena));
        println!("bench simd/popcount/{bits}b/scalar: {ns:.0} ns/iter ({SETS} packed sets)");
        samples.push(Sample {
            kernel: "popcount",
            bits,
            backend: "scalar",
            ns_per_iter: ns,
            items: SETS as u64,
        });
        let ns = measure(500, || {
            scalar_ref::subsumed_mask(&rows, &negs, width, &mut mask);
            mask.len()
        });
        println!("bench simd/subsumed_mask/{bits}b/scalar: {ns:.0} ns/iter ({ROWS}x{NEGS} sweep)");
        samples.push(Sample {
            kernel: "subsumed_mask",
            bits,
            backend: "scalar",
            ns_per_iter: ns,
            items: (ROWS * NEGS) as u64,
        });

        for &backend in &backends {
            let name = backend.name();

            let ns = measure(2_000, || backend.popcount(&arena));
            println!(
                "bench simd/popcount/{bits}b/{name}: {ns:.0} ns/iter \
                 ({SETS} packed sets, one dispatch)"
            );
            samples.push(Sample {
                kernel: "popcount",
                bits,
                backend: name,
                ns_per_iter: ns,
                items: SETS as u64,
            });

            let ns = measure(500, || {
                backend.subsumed_mask(&rows, &negs, width, &mut mask);
                mask.len()
            });
            println!(
                "bench simd/subsumed_mask/{bits}b/{name}: {ns:.0} ns/iter ({ROWS}x{NEGS} sweep)"
            );
            samples.push(Sample {
                kernel: "subsumed_mask",
                bits,
                backend: name,
                ns_per_iter: ns,
                items: (ROWS * NEGS) as u64,
            });
        }
    }

    // Speedups vs the strict scalar baseline, per kernel × width.
    let mut speedups: Vec<(String, f64)> = Vec::new();
    for s in &samples {
        if s.backend == "scalar" {
            continue;
        }
        if let Some(base) = samples
            .iter()
            .find(|b| b.backend == "scalar" && b.kernel == s.kernel && b.bits == s.bits)
        {
            let x = base.ns_per_iter / s.ns_per_iter;
            println!(
                "bench simd/speedup/{}/{}b/{}: {x:.2}x vs scalar",
                s.kernel, s.bits, s.backend
            );
            speedups.push((format!("{}/{}b/{}", s.kernel, s.bits, s.backend), x));
        }
    }

    if no_write {
        return;
    }
    let mut json = String::from("{\n  \"bench\": \"simd\",\n");
    json.push_str(&format!(
        "  \"active_backend\": \"{}\",\n  \"samples\": [\n",
        jim_simd::active_name()
    ));
    for (i, s) in samples.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"bits\": {}, \"backend\": \"{}\", \
             \"ns_per_iter\": {:.1}, \"items_per_iter\": {}}}{}\n",
            s.kernel,
            s.bits,
            s.backend,
            s.ns_per_iter,
            s.items,
            if i + 1 < samples.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"speedup_vs_scalar\": {\n");
    for (i, (k, x)) in speedups.iter().enumerate() {
        json.push_str(&format!(
            "    \"{k}\": {x:.2}{}\n",
            if i + 1 < speedups.len() { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");
    match std::fs::write(&out_path, &json) {
        Ok(()) => eprintln!("simd bench: wrote {out_path}"),
        Err(e) => eprintln!("simd bench: could not write {out_path}: {e}"),
    }
}
