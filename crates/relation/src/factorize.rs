//! Factorized signature-group construction.
//!
//! JIM's engine treats product tuples with equal equality-atom signatures as
//! indistinguishable, yet naive construction enumerates the whole cartesian
//! product just to discover those groups. This module computes the
//! signature-group partition **directly from the base relations**:
//!
//! 1. Every value of an attribute that participates in a joinable pair is
//!    **interned** once to a dense `u32` code (codes agree exactly with
//!    [`Value`]'s `Eq`/`Hash`, so `0.0` and `-0.0` differ and a `NaN` equals
//!    its own bit pattern). A relation shared by several occurrences (a
//!    self-join) is coded, and where its keys agree partitioned, once. A
//!    per-attribute **joins** bitmap over codes marks the values some
//!    joinable partner attribute also holds.
//! 2. Rows of each component relation are partitioned into
//!    **value-equivalence blocks**: two rows land in one block iff their
//!    **block keys** — one `u32` per distinguishing attribute — are equal.
//!    A key holds the value's code where the joins bitmap is set and
//!    otherwise a per-row sentinel from a reserved code range (such values
//!    can never satisfy a cross atom, so only their within-row equality
//!    pattern matters; sentinels are numbered by first appearance in the
//!    row).
//! 3. Every product tuple's signature is a function of its block vector
//!    alone, so the distinct signatures of the product are exactly the
//!    distinct patterns over block combinations. A pattern is a fixed-width
//!    bitset over the joinable pairs, interned to one accumulator shared by
//!    both sweeps. The sweep enumerates block combinations — densely
//!    (mixed-radix, any arity) or sparsely for binary products (an inverted
//!    code index yields only block pairs that share a value; all remaining
//!    pairs take the no-cross-atom default pattern, with a
//!    generation-stamped array marking the matched ones) — and aggregates
//!    per pattern a **count**, the **minimum** [`ProductId`] (a rank computed
//!    arithmetically from the blocks' first rows) and a bounded sample of
//!    witness ids.
//!
//! The sweep never materializes the product: cost scales with the number of
//! blocks and their value overlap (for event-log-shaped data, the number of
//! *distinct* rows), not with `Product::size()`, and hashing touches each
//! input value once. A [`FactorizeOptions::max_sweep`] guard rejects
//! instances whose block structure is no smaller than the product, so
//! callers can fall back to sampling.

use crate::product::{Product, ProductId};
use crate::schema::{GlobalAttr, JoinSchema};
use crate::value::{DataType, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Tuning knobs for [`factorize`].
#[derive(Debug, Clone, Copy)]
pub struct FactorizeOptions {
    /// Only consider atoms between *different* relation occurrences
    /// (mirrors the engine's default atom scope).
    pub cross_only: bool,
    /// Upper bound on sweep work (dense: number of block combinations;
    /// sparse: candidate block pairs sharing a value). Exceeding it returns
    /// [`FactorizeError::SweepTooLarge`] so the caller can fall back.
    pub max_sweep: u64,
    /// Maximum number of witness ids carried per signature group (at least
    /// one — the minimum id is always a witness).
    pub max_witnesses: usize,
    /// Force the dense mixed-radix sweep even for binary products (used by
    /// tests to pin both sweeps against each other).
    pub force_dense: bool,
}

impl Default for FactorizeOptions {
    fn default() -> Self {
        FactorizeOptions {
            cross_only: true,
            max_sweep: 4_000_000,
            max_witnesses: 8,
            force_dense: false,
        }
    }
}

/// Failure modes of [`factorize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FactorizeError {
    /// No pair of attributes is joinable under the requested scope, so there
    /// is no signature structure to factorize.
    NoJoinablePairs,
    /// The block structure is too rich: sweeping it would cost more than
    /// `max_sweep`. Callers should fall back to sampling.
    SweepTooLarge {
        /// The estimated sweep cost.
        cost: u64,
        /// The configured bound.
        limit: u64,
    },
}

impl fmt::Display for FactorizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FactorizeError::NoJoinablePairs => {
                write!(f, "factorization failed: no joinable attribute pairs")
            }
            FactorizeError::SweepTooLarge { cost, limit } => write!(
                f,
                "factorization too large: sweep cost {cost} exceeds limit {limit}"
            ),
        }
    }
}

impl std::error::Error for FactorizeError {}

/// One signature group of the product, represented without its members.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SigGroup {
    /// The joinable attribute pairs that hold (with equal values) in every
    /// member of the group, as `(a, b)` with `a < b` in global-attr order.
    pub pattern: Vec<(GlobalAttr, GlobalAttr)>,
    /// Exact number of product tuples in the group.
    pub count: u64,
    /// The smallest member id (the group's canonical representative).
    pub min_id: ProductId,
    /// Up to `max_witnesses` member ids, ascending; `witnesses[0] == min_id`.
    pub witnesses: Vec<ProductId>,
}

/// The result of [`factorize`]: the full signature-group partition plus
/// sweep statistics.
#[derive(Debug, Clone)]
pub struct Factorized {
    /// Signature groups sorted by `min_id` (i.e. first-seen rank order).
    pub groups: Vec<SigGroup>,
    /// Number of value-equivalence blocks per relation occurrence.
    pub blocks_per_occurrence: Vec<usize>,
    /// Block combinations (dense) or candidate block pairs (sparse) visited.
    pub swept: u64,
}

/// First code of the reserved sentinel range: block-key entries at or above
/// it are per-row sentinels (`SENTINEL + j` for the row's `j`-th distinct
/// collapsed value), below it interned value codes. Value codes never reach
/// it: 2³¹ distinct values would take tens of GiB of rows.
const SENTINEL: u32 = 1 << 31;

/// One value-equivalence block of a relation occurrence.
#[derive(Clone)]
struct Block {
    count: u64,
    min_row: usize,
    witness_rows: Vec<usize>,
}

/// The blocks of one relation occurrence, with their keys stored flat.
#[derive(Clone)]
struct Occurrence {
    /// Key entries per block (the number of distinguishing attributes).
    width: usize,
    /// Block `i`'s key is `keys[i * width..(i + 1) * width]`.
    keys: Vec<u32>,
    blocks: Vec<Block>,
}

impl Occurrence {
    fn key(&self, block: usize) -> &[u32] {
        &self.keys[block * self.width..(block + 1) * self.width]
    }
}

/// A joinable attribute pair resolved to occurrence + key positions.
struct PairInfo {
    occ_a: usize,
    occ_b: usize,
    pos_a: usize,
    pos_b: usize,
}

impl PairInfo {
    /// Does the pair hold between block-key entries `ka` (of `occ_a`) and
    /// `kb` (of `occ_b`)? Within one row sentinels compare meaningfully;
    /// across occurrences only interned (partner-domain) values can match.
    fn holds(&self, ka: u32, kb: u32) -> bool {
        ka == kb && (self.occ_a == self.occ_b || ka < SENTINEL)
    }
}

fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

fn bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 == 1
}

/// Per-pattern aggregation during the sweep.
#[derive(Default)]
struct Acc {
    count: u64,
    /// The `max_witnesses` smallest block combinations, as
    /// `(combination minimum id, block of the last occurrence)`, ascending.
    entries: Vec<(u64, u32)>,
}

impl Acc {
    /// Keep a combination as a witness source iff it is among the `cap`
    /// smallest so far; reports whether it was kept.
    fn offer(&mut self, min_id: u64, last_block: u32, cap: usize) -> bool {
        if self.entries.len() >= cap && self.entries.last().is_some_and(|&(id, _)| id <= min_id) {
            return false;
        }
        let pos = self.entries.partition_point(|&(id, _)| id < min_id);
        if pos >= cap {
            return false;
        }
        self.entries.insert(pos, (min_id, last_block));
        self.entries.truncate(cap);
        true
    }
}

/// Accumulators keyed by interned pattern bitsets of `width` words.
struct Accs {
    width: usize,
    /// Accumulator `i`'s pattern is `patterns[i * width..(i + 1) * width]`.
    patterns: Vec<u64>,
    accs: Vec<Acc>,
    /// Patterns derive from client data, so the index keeps the default
    /// (keyed) hasher.
    index: HashMap<Vec<u64>, u32>,
    /// Direct-mapped cache of recent lookups (`accumulator index + 1`, 0
    /// = empty) in front of `index`: the sparse sweep looks a pattern up
    /// per candidate pair, and a clash only falls back to `index`.
    recent: [u32; 64],
}

impl Accs {
    fn new(width: usize) -> Self {
        Accs {
            width,
            patterns: Vec::new(),
            accs: Vec::new(),
            index: HashMap::new(),
            recent: [0; 64],
        }
    }

    fn pattern(&self, i: usize) -> &[u64] {
        &self.patterns[i * self.width..(i + 1) * self.width]
    }

    fn slot(&mut self, pattern: &[u64]) -> &mut Acc {
        let mix = pattern
            .iter()
            .fold(0u64, |h, &w| (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let r = (mix >> 58) as usize;
        let i = match self.recent[r].checked_sub(1) {
            Some(i) if self.pattern(i as usize).iter().eq(pattern) => i as usize,
            _ => {
                let i = match self.index.get(pattern) {
                    Some(&i) => i as usize,
                    None => {
                        self.index.insert(pattern.to_vec(), self.accs.len() as u32);
                        self.patterns.extend_from_slice(pattern);
                        self.accs.push(Acc::default());
                        self.accs.len() - 1
                    }
                };
                self.recent[r] = i as u32 + 1;
                i
            }
        };
        &mut self.accs[i]
    }

    /// The interned patterns with their accumulators.
    fn iter(&self) -> impl Iterator<Item = (&[u64], &Acc)> {
        self.accs
            .iter()
            .enumerate()
            .map(|(i, acc)| (self.pattern(i), acc))
    }
}

/// Every global attribute in order, as `(occurrence, local index, type)`.
fn attr_table(schema: &JoinSchema) -> Vec<(usize, usize, DataType)> {
    schema
        .relations()
        .iter()
        .enumerate()
        .flat_map(|(occ, rel)| {
            rel.attributes()
                .iter()
                .enumerate()
                .map(move |(local, attr)| (occ, local, attr.dtype))
        })
        .collect()
}

/// Enumerate the joinable attribute pairs of `schema`, mirroring the atom
/// universe's enumeration: `a < b`, equal declared types, and (under
/// `cross_only`) different relation occurrences.
pub fn joinable_pairs(schema: &JoinSchema, cross_only: bool) -> Vec<(GlobalAttr, GlobalAttr)> {
    let attrs = attr_table(schema);
    let mut out = Vec::new();
    for (i, &(occ_a, _, ta)) in attrs.iter().enumerate() {
        for (j, &(occ_b, _, tb)) in attrs.iter().enumerate().skip(i + 1) {
            if ta == tb && !(cross_only && occ_a == occ_b) {
                out.push((GlobalAttr(i as u32), GlobalAttr(j as u32)));
            }
        }
    }
    out
}

/// Compute the signature-group partition of `product` without materializing
/// it. See the module docs for the algorithm.
pub fn factorize(
    product: &Product,
    options: &FactorizeOptions,
) -> Result<Factorized, FactorizeError> {
    let attrs = attr_table(product.schema());
    let pair_attrs = joinable_pairs(product.schema(), options.cross_only);
    if pair_attrs.is_empty() {
        return Err(FactorizeError::NoJoinablePairs);
    }
    let cap = options.max_witnesses.max(1);
    let relations = product.relations();

    // Distinguishing attributes: those in some joinable pair. Per
    // occurrence, their global indices in local order (= key order).
    let mut in_pair = vec![false; attrs.len()];
    for &(a, b) in &pair_attrs {
        in_pair[a.index()] = true;
        in_pair[b.index()] = true;
    }
    let mut key_attrs: Vec<Vec<usize>> = vec![Vec::new(); relations.len()];
    let mut key_pos = vec![0usize; attrs.len()];
    for (g, &(occ, _, _)) in attrs.iter().enumerate() {
        if in_pair[g] {
            key_pos[g] = key_attrs[occ].len();
            key_attrs[occ].push(g);
        }
    }

    // Intern every distinguishing value once: one code column per
    // distinguishing attribute, shared between occurrences of one relation.
    let mut interner: HashMap<&Value, u32> = HashMap::new();
    let mut columns: Vec<Vec<u32>> = Vec::new();
    let mut column_of = vec![0usize; attrs.len()];
    for (g, &(occ, local, _)) in attrs.iter().enumerate() {
        if !in_pair[g] {
            continue;
        }
        let coded = (0..g).find(|&h| {
            in_pair[h]
                && attrs[h].1 == local
                && Arc::ptr_eq(&relations[attrs[h].0], &relations[occ])
        });
        if let Some(h) = coded {
            column_of[g] = column_of[h];
            continue;
        }
        let column = relations[occ]
            .rows()
            .iter()
            .map(|row| {
                let next = interner.len() as u32;
                *interner.entry(&row[local]).or_insert(next)
            })
            .collect();
        column_of[g] = columns.len();
        columns.push(column);
    }
    debug_assert!(
        interner.len() < SENTINEL as usize,
        "codes stay below the sentinels"
    );

    // A value collapses iff no joinable partner attribute ever holds it:
    // `joins[g]` is the union of the partners' value bitmaps.
    let words = interner.len().div_ceil(64);
    let present: Vec<Vec<u64>> = columns
        .iter()
        .map(|column| {
            let mut set = vec![0u64; words];
            for &code in column {
                set_bit(&mut set, code as usize);
            }
            set
        })
        .collect();
    let mut joins: Vec<Vec<u64>> = vec![Vec::new(); attrs.len()];
    for &(a, b) in &pair_attrs {
        for (x, partner) in [(a, b), (b, a)] {
            let mask = &mut joins[x.index()];
            mask.resize(words, 0);
            for (m, p) in mask.iter_mut().zip(&present[column_of[partner.index()]]) {
                *m |= p;
            }
        }
    }

    // Block partition per occurrence. An occurrence of an already
    // partitioned relation with the same key attributes and joins bitmaps
    // (a self-join) reuses its partition.
    let mut occs: Vec<Occurrence> = Vec::with_capacity(relations.len());
    for (occ, here) in key_attrs.iter().enumerate() {
        let same = (0..occ).find(|&prev| {
            Arc::ptr_eq(&relations[prev], &relations[occ])
                && key_attrs[prev].len() == here.len()
                && key_attrs[prev]
                    .iter()
                    .zip(here)
                    .all(|(&g, &h)| attrs[g].1 == attrs[h].1 && joins[g] == joins[h])
        });
        let o = match same {
            Some(prev) => occs[prev].clone(),
            None => {
                let key_columns: Vec<(&[u32], &[u64])> = here
                    .iter()
                    .map(|&g| (columns[column_of[g]].as_slice(), joins[g].as_slice()))
                    .collect();
                partition(relations[occ].len(), &key_columns, interner.len(), cap)
            }
        };
        occs.push(o);
    }
    let blocks_per_occurrence: Vec<usize> = occs.iter().map(|o| o.blocks.len()).collect();

    let pairs: Vec<PairInfo> = pair_attrs
        .iter()
        .map(|&(a, b)| PairInfo {
            occ_a: attrs[a.index()].0,
            occ_b: attrs[b.index()].0,
            pos_a: key_pos[a.index()],
            pos_b: key_pos[b.index()],
        })
        .collect();
    // Rank strides: a combination's minimum id is Σ min_row · stride.
    let mut strides = vec![1u64; relations.len()];
    for k in (1..relations.len()).rev() {
        strides[k - 1] = strides[k].saturating_mul(relations[k].len() as u64);
    }
    let mut accs = Accs::new(pairs.len().div_ceil(64));
    let swept = match occs.as_slice() {
        [a, b] if !options.force_dense => {
            sweep_sparse(a, b, strides[0], &pairs, options.max_sweep, cap, &mut accs)?
        }
        _ => sweep_dense(&occs, &strides, &pairs, options.max_sweep, cap, &mut accs)?,
    };

    // Finalize: expand witness entries and sort groups by minimum id. The
    // last occurrence has stride 1, so varying its row over the block's
    // witness rows offsets the combination's minimum id directly — those
    // are exactly the combination's smallest ranks.
    let last = occs.last();
    let mut groups: Vec<SigGroup> = accs
        .iter()
        .filter_map(|(pattern, acc)| {
            let &(min_id, _) = acc.entries.first()?;
            let mut witnesses: Vec<ProductId> = Vec::new();
            for &(id, block) in &acc.entries {
                let b = &last?.blocks[block as usize];
                let base = id - b.min_row as u64;
                witnesses.extend(
                    b.witness_rows
                        .iter()
                        .take(cap)
                        .map(|&w| ProductId(base + w as u64)),
                );
            }
            witnesses.sort_unstable();
            witnesses.dedup();
            witnesses.truncate(cap);
            Some(SigGroup {
                pattern: (0..pairs.len())
                    .filter(|&p| bit(pattern, p))
                    .map(|p| pair_attrs[p])
                    .collect(),
                count: acc.count,
                min_id: ProductId(min_id),
                witnesses,
            })
        })
        .collect();
    groups.sort_unstable_by_key(|g| g.min_id);
    debug_assert_eq!(
        groups.iter().map(|g| g.count).sum::<u64>(),
        product.size(),
        "groups must exactly cover the product"
    );
    Ok(Factorized {
        groups,
        blocks_per_occurrence,
        swept,
    })
}

/// Partition `rows` rows into value-equivalence blocks by their keys: per
/// key attribute, the row's code where the attribute's joins bitmap is set,
/// else a sentinel. A stable counting sort per key column (codes are dense,
/// so nothing is hashed) leaves equal keys adjacent and each run in row
/// order; blocks are numbered by their first row, so they ascend by
/// `min_row`.
fn partition(
    rows: usize,
    key_columns: &[(&[u32], &[u64])],
    n_codes: usize,
    cap: usize,
) -> Occurrence {
    let width = key_columns.len();
    let mut keys: Vec<u32> = Vec::with_capacity(rows * width);
    let mut bots: Vec<u32> = Vec::new();
    for row in 0..rows {
        bots.clear();
        for &(column, joins) in key_columns {
            let code = column[row];
            keys.push(if bit(joins, code as usize) {
                code
            } else {
                let j = bots.iter().position(|&w| w == code).unwrap_or_else(|| {
                    bots.push(code);
                    bots.len() - 1
                });
                SENTINEL + j as u32
            });
        }
    }
    let key = |row: usize| &keys[row * width..(row + 1) * width];
    // Sentinels rank after the codes.
    let rank = |entry: u32| match entry.checked_sub(SENTINEL) {
        Some(j) => n_codes + j as usize,
        None => entry as usize,
    };
    let mut order: Vec<usize> = (0..rows).collect();
    let mut sorted = vec![0usize; rows];
    let mut start = vec![0usize; n_codes + width + 1];
    for col in (0..width).rev() {
        start.fill(0);
        for &row in &order {
            start[rank(key(row)[col]) + 1] += 1;
        }
        for k in 1..start.len() {
            start[k] += start[k - 1];
        }
        for &row in &order {
            let k = rank(key(row)[col]);
            sorted[start[k]] = row;
            start[k] += 1;
        }
        std::mem::swap(&mut order, &mut sorted);
    }
    let mut blocks: Vec<Block> = Vec::new();
    for run in order.chunk_by(|&x, &y| key(x) == key(y)) {
        blocks.push(Block {
            count: run.len() as u64,
            min_row: run[0],
            witness_rows: run.iter().take(cap).copied().collect(),
        });
    }
    blocks.sort_unstable_by_key(|b| b.min_row);
    Occurrence {
        width,
        keys: blocks
            .iter()
            .flat_map(|b| key(b.min_row))
            .copied()
            .collect(),
        blocks,
    }
}

/// Dense sweep: enumerate every block combination in mixed-radix order
/// (last occurrence fastest) and evaluate all pairs per combination.
fn sweep_dense(
    occs: &[Occurrence],
    strides: &[u64],
    pairs: &[PairInfo],
    max_sweep: u64,
    cap: usize,
    accs: &mut Accs,
) -> Result<u64, FactorizeError> {
    let mut combos: u64 = 1;
    for o in occs {
        combos =
            combos
                .checked_mul(o.blocks.len() as u64)
                .ok_or(FactorizeError::SweepTooLarge {
                    cost: u64::MAX,
                    limit: max_sweep,
                })?;
    }
    if combos == 0 {
        return Ok(0);
    }
    if combos > max_sweep {
        return Err(FactorizeError::SweepTooLarge {
            cost: combos,
            limit: max_sweep,
        });
    }
    let n = occs.len();
    let mut sel = vec![0usize; n];
    let mut pattern = vec![0u64; accs.width];
    loop {
        pattern.fill(0);
        for (i, p) in pairs.iter().enumerate() {
            let ka = occs[p.occ_a].key(sel[p.occ_a])[p.pos_a];
            let kb = occs[p.occ_b].key(sel[p.occ_b])[p.pos_b];
            if p.holds(ka, kb) {
                set_bit(&mut pattern, i);
            }
        }
        let mut count: u64 = 1;
        let mut min_id: u64 = 0;
        for ((&s, o), &stride) in sel.iter().zip(occs).zip(strides) {
            let b = &o.blocks[s];
            count *= b.count;
            min_id += b.min_row as u64 * stride;
        }
        let acc = accs.slot(&pattern);
        acc.count += count;
        acc.offer(min_id, sel[n - 1] as u32, cap);
        // Mixed-radix increment, last occurrence fastest.
        let mut k = n;
        loop {
            if k == 0 {
                return Ok(combos);
            }
            k -= 1;
            sel[k] += 1;
            if sel[k] < occs[k].blocks.len() {
                break;
            }
            sel[k] = 0;
        }
    }
}

/// Sparse sweep for binary products: an inverted code index over the second
/// occurrence's blocks yields, per first-occurrence block, exactly the
/// partner blocks that share a value (the only ones where any cross atom can
/// hold); every remaining partner block contributes to the no-cross-atom
/// default pattern by subtraction, per intra-pattern class.
fn sweep_sparse(
    a_occ: &Occurrence,
    b_occ: &Occurrence,
    a_stride: u64,
    pairs: &[PairInfo],
    max_sweep: u64,
    cap: usize,
    accs: &mut Accs,
) -> Result<u64, FactorizeError> {
    // Inverted index (CSR): (code, B key position) -> B blocks holding the
    // code there, ascending; `spread[code]` counts the distinct blocks
    // holding the code anywhere.
    let wb = b_occ.width;
    let n_codes = b_occ
        .keys
        .iter()
        .filter(|&&k| k < SENTINEL)
        .map(|&k| k as usize + 1)
        .max()
        .unwrap_or(0);
    let mut start = vec![0u32; n_codes * wb + 1];
    let mut spread = vec![0u64; n_codes];
    for bi in 0..b_occ.blocks.len() {
        let key = b_occ.key(bi);
        for (j, &c) in key.iter().enumerate() {
            if c < SENTINEL {
                start[c as usize * wb + j + 1] += 1;
                if !key[..j].contains(&c) {
                    spread[c as usize] += 1;
                }
            }
        }
    }
    for s in 1..start.len() {
        start[s] += start[s - 1];
    }
    let mut fill = start.clone();
    let mut index = vec![0u32; start[n_codes * wb] as usize];
    for bi in 0..b_occ.blocks.len() {
        for (j, &c) in b_occ.key(bi).iter().enumerate() {
            if c < SENTINEL {
                let s = c as usize * wb + j;
                index[fill[s] as usize] = bi as u32;
                fill[s] += 1;
            }
        }
    }
    let holders = |code: u32, j: usize| -> &[u32] {
        let s = code as usize * wb + j;
        if (code as usize) < n_codes {
            &index[start[s] as usize..start[s + 1] as usize]
        } else {
            &[]
        }
    };

    // Intra patterns of one occurrence's block (empty under cross-only
    // scope, where no intra pair exists).
    let width = accs.width;
    let intra_of = |occ: usize, key: &[u32], out: &mut Vec<u64>| {
        out.clear();
        out.resize(width, 0);
        for (i, p) in pairs.iter().enumerate() {
            if p.occ_a == occ && p.occ_b == occ && p.holds(key[p.pos_a], key[p.pos_b]) {
                set_bit(out, i);
            }
        }
    };
    // Intra-pattern classes of B blocks: per class (pattern, total rows,
    // member blocks ascending by min_row).
    let mut class_of: Vec<u32> = Vec::with_capacity(b_occ.blocks.len());
    let mut class_index: HashMap<Vec<u64>, u32> = HashMap::new();
    let mut classes: Vec<(Vec<u64>, u64, Vec<u32>)> = Vec::new();
    let mut pattern = vec![0u64; width];
    for (bi, b) in b_occ.blocks.iter().enumerate() {
        intra_of(1, b_occ.key(bi), &mut pattern);
        let c = *class_index.entry(pattern.clone()).or_insert_with(|| {
            classes.push((pattern.clone(), 0, Vec::new()));
            (classes.len() - 1) as u32
        });
        classes[c as usize].1 += b.count;
        classes[c as usize].2.push(bi as u32);
        class_of.push(c);
    }

    // Cost guard: candidate pairs sharing a value, plus the per-A-block
    // class walks (one class under cross-only scope).
    let mut cost: u64 = 0;
    for ai in 0..a_occ.blocks.len() {
        let key = a_occ.key(ai);
        for (i, &c) in key.iter().enumerate() {
            if (c as usize) < n_codes && !key[..i].contains(&c) {
                cost = cost.saturating_add(spread[c as usize]);
            }
        }
        cost = cost.saturating_add(classes.len() as u64);
    }
    if cost > max_sweep {
        return Err(FactorizeError::SweepTooLarge {
            cost,
            limit: max_sweep,
        });
    }

    // The cross pair, if any, comparing A key position `i` with B key
    // position `j` sits at `pair_at[i * wb + j]`.
    let mut pair_at: Vec<Option<usize>> = vec![None; a_occ.width * wb];
    for (i, p) in pairs.iter().enumerate() {
        if p.occ_a != p.occ_b {
            pair_at[p.pos_a * wb + p.pos_b] = Some(i);
        }
    }
    let mut swept: u64 = 0;
    let mut intra_a: Vec<u64> = Vec::new();
    let mut candidates: Vec<u32> = Vec::new();
    // `stamp[bi] == generation` iff B block `bi` shares a value with the
    // current A block; its cross pattern is then `cross[bi * width..]`,
    // zeroed again as the candidate loop reads it.
    let mut stamp = vec![0u32; b_occ.blocks.len()];
    let mut generation = 0u32;
    let mut cross = vec![0u64; b_occ.blocks.len() * width];
    let mut matched_rows: Vec<u64> = Vec::new();
    for (ai, a) in a_occ.blocks.iter().enumerate() {
        let a_key = a_occ.key(ai);
        intra_of(0, a_key, &mut intra_a);
        generation += 1;
        candidates.clear();
        // A cross pair holds exactly for the blocks holding the A value at
        // the pair's B position, so the holder walks set every cross bit.
        for (i, &k) in a_key.iter().enumerate() {
            for j in 0..wb {
                let pair = pair_at[i * wb + j];
                for &bi in holders(k, j) {
                    let bi = bi as usize;
                    if stamp[bi] != generation {
                        stamp[bi] = generation;
                        candidates.push(bi as u32);
                    }
                    if let Some(p) = pair {
                        set_bit(&mut cross[bi * width..(bi + 1) * width], p);
                    }
                }
            }
        }
        matched_rows.clear();
        matched_rows.resize(classes.len(), 0);
        let a_rank = a.min_row as u64 * a_stride;
        for &bi in &candidates {
            let b = &b_occ.blocks[bi as usize];
            let class = class_of[bi as usize] as usize;
            let bits = &mut cross[bi as usize * width..(bi as usize + 1) * width];
            for (((p, &x), &y), z) in pattern
                .iter_mut()
                .zip(&intra_a)
                .zip(&classes[class].0)
                .zip(bits)
            {
                *p = x | y | std::mem::take(z);
            }
            let acc = accs.slot(&pattern);
            acc.count += a.count * b.count;
            acc.offer(a_rank + b.min_row as u64, bi, cap);
            matched_rows[class] += b.count;
            swept += 1;
        }
        // Unmatched B blocks take the default (no cross atom) pattern.
        for (c, (intra_b, total, members)) in classes.iter().enumerate() {
            let unmatched = total - matched_rows[c];
            if unmatched == 0 {
                continue;
            }
            for ((p, &x), &y) in pattern.iter_mut().zip(&intra_a).zip(intra_b) {
                *p = x | y;
            }
            let acc = accs.slot(&pattern);
            acc.count += a.count * unmatched;
            // Witness entries: the first `cap` unmatched blocks (ascending
            // min_row) under this A block. Earlier A blocks dominate the
            // rank order, so per-A candidates suffice for the global K-min.
            let unmatched_blocks = members
                .iter()
                .filter(|&&bi| stamp[bi as usize] != generation)
                .take(cap);
            for &bi in unmatched_blocks {
                let min_id = a_rank + b_occ.blocks[bi as usize].min_row as u64;
                if !acc.offer(min_id, bi, cap) {
                    break;
                }
            }
        }
    }
    Ok(swept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;
    use crate::schema::RelationSchema;
    use crate::tup;
    use crate::value::DataType;
    use crate::IntoSharedRelation;

    /// Count and tuple ids of one brute-forced signature group.
    type PatternEntry = (u64, Vec<ProductId>);

    /// Brute force: group product tuples by their joinable-pair pattern.
    fn brute(product: &Product, cross_only: bool) -> Vec<SigGroup> {
        let pairs = joinable_pairs(product.schema(), cross_only);
        let mut by_pattern: HashMap<Vec<(GlobalAttr, GlobalAttr)>, PatternEntry> = HashMap::new();
        for (id, t) in product.iter() {
            let pattern: Vec<_> = pairs
                .iter()
                .copied()
                .filter(|&(a, b)| t[a.index()] == t[b.index()])
                .collect();
            let e = by_pattern.entry(pattern).or_insert((0, Vec::new()));
            e.0 += 1;
            e.1.push(id);
        }
        let mut out: Vec<SigGroup> = by_pattern
            .into_iter()
            .map(|(pattern, (count, ids))| SigGroup {
                pattern,
                count,
                min_id: ids[0],
                witnesses: ids,
            })
            .collect();
        out.sort_unstable_by_key(|g| g.min_id);
        out
    }

    fn check(product: &Product, options: &FactorizeOptions) {
        let expect = brute(product, options.cross_only);
        for force_dense in [false, true] {
            let opts = FactorizeOptions {
                force_dense,
                ..*options
            };
            let got = factorize(product, &opts).expect("factorize succeeds");
            assert_eq!(got.groups.len(), expect.len(), "group count");
            for (g, e) in got.groups.iter().zip(&expect) {
                let mut gp = g.pattern.clone();
                let mut ep = e.pattern.clone();
                gp.sort_unstable();
                ep.sort_unstable();
                assert_eq!(gp, ep, "pattern at {:?}", g.min_id);
                assert_eq!(g.count, e.count, "count at {:?}", g.min_id);
                assert_eq!(g.min_id, e.min_id, "min id");
                assert!(!g.witnesses.is_empty());
                assert_eq!(g.witnesses[0], g.min_id, "min id is first witness");
                let expected_len = (e.count as usize).min(opts.max_witnesses.max(1));
                assert!(
                    g.witnesses.len() <= opts.max_witnesses.max(1)
                        && !g.witnesses.is_empty()
                        && g.witnesses.len() <= expected_len,
                    "witness count {} vs count {}",
                    g.witnesses.len(),
                    e.count
                );
                let mut sorted = g.witnesses.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted, g.witnesses, "witnesses ascending and distinct");
                for w in &g.witnesses {
                    assert!(e.witnesses.contains(w), "witness {w} is a member");
                }
            }
        }
    }

    fn flights() -> Relation {
        Relation::new(
            RelationSchema::of(
                "flights",
                &[
                    ("From", DataType::Text),
                    ("To", DataType::Text),
                    ("Airline", DataType::Text),
                ],
            )
            .unwrap(),
            vec![
                tup!["Paris", "Lille", "AF"],
                tup!["Paris", "NYC", "AA"],
                tup!["NYC", "Paris", "AA"],
                tup!["Lille", "NYC", "AF"],
            ],
        )
        .unwrap()
    }

    fn hotels() -> Relation {
        Relation::new(
            RelationSchema::of(
                "hotels",
                &[("City", DataType::Text), ("Discount", DataType::Text)],
            )
            .unwrap(),
            vec![tup!["Lille", "AF"], tup!["NYC", "AA"], tup!["Paris", "SPG"]],
        )
        .unwrap()
    }

    #[test]
    fn matches_brute_force_on_the_paper_instance() {
        let p = Product::new(vec![&flights(), &hotels()]).unwrap();
        check(&p, &FactorizeOptions::default());
        check(
            &p,
            &FactorizeOptions {
                cross_only: false,
                ..Default::default()
            },
        );
    }

    #[test]
    fn self_join_with_duplicate_rows() {
        let rel = Relation::new(
            RelationSchema::of("e", &[("src", DataType::Int), ("dst", DataType::Int)]).unwrap(),
            vec![
                tup![1, 2],
                tup![2, 3],
                tup![1, 2],
                tup![3, 1],
                tup![2, 3],
                tup![2, 3],
            ],
        )
        .unwrap();
        let shared = rel.into_shared();
        let p = Product::new(vec![shared.clone(), shared]).unwrap();
        check(&p, &FactorizeOptions::default());
        check(
            &p,
            &FactorizeOptions {
                cross_only: false,
                ..Default::default()
            },
        );
    }

    #[test]
    fn empty_relation_yields_no_groups() {
        let empty = Relation::empty(RelationSchema::of("a", &[("x", DataType::Int)]).unwrap());
        let other = Relation::new(
            RelationSchema::of("b", &[("y", DataType::Int)]).unwrap(),
            vec![tup![1], tup![2]],
        )
        .unwrap();
        let p = Product::new(vec![&empty, &other]).unwrap();
        let f = factorize(&p, &FactorizeOptions::default()).unwrap();
        assert!(f.groups.is_empty());
        let dense = factorize(
            &p,
            &FactorizeOptions {
                force_dense: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(dense.groups.is_empty());
    }

    #[test]
    fn all_rows_in_one_block_when_values_never_join() {
        // Every From/To value is disjoint from every City value, so all
        // flight rows collapse into one block per distinct sentinel layout.
        let a = Relation::new(
            RelationSchema::of("a", &[("x", DataType::Int)]).unwrap(),
            vec![tup![100], tup![200], tup![300]],
        )
        .unwrap();
        let b = Relation::new(
            RelationSchema::of("b", &[("y", DataType::Int)]).unwrap(),
            vec![tup![1], tup![2]],
        )
        .unwrap();
        let p = Product::new(vec![&a, &b]).unwrap();
        let f = factorize(&p, &FactorizeOptions::default()).unwrap();
        assert_eq!(f.blocks_per_occurrence, vec![1, 1]);
        assert_eq!(f.groups.len(), 1);
        assert_eq!(f.groups[0].count, 6);
        assert!(f.groups[0].pattern.is_empty());
        check(&p, &FactorizeOptions::default());
    }

    #[test]
    fn three_way_products_use_the_dense_sweep() {
        let a = Relation::new(
            RelationSchema::of("a", &[("x", DataType::Int)]).unwrap(),
            vec![tup![1], tup![2], tup![1]],
        )
        .unwrap();
        let b = Relation::new(
            RelationSchema::of("b", &[("y", DataType::Int)]).unwrap(),
            vec![tup![1], tup![3]],
        )
        .unwrap();
        let c = Relation::new(
            RelationSchema::of("c", &[("z", DataType::Int)]).unwrap(),
            vec![tup![2], tup![1], tup![3]],
        )
        .unwrap();
        let p = Product::new(vec![&a, &b, &c]).unwrap();
        check(&p, &FactorizeOptions::default());
        check(
            &p,
            &FactorizeOptions {
                cross_only: false,
                ..Default::default()
            },
        );
    }

    #[test]
    fn nulls_match_only_nulls_of_the_same_declared_type() {
        let a = Relation::new(
            RelationSchema::of("a", &[("x", DataType::Int), ("s", DataType::Text)]).unwrap(),
            vec![
                Tuple::new(vec![Value::Null, Value::text("k")]),
                Tuple::new(vec![Value::Int(7), Value::Null]),
            ],
        )
        .unwrap();
        let b = Relation::new(
            RelationSchema::of("b", &[("y", DataType::Int), ("t", DataType::Text)]).unwrap(),
            vec![
                Tuple::new(vec![Value::Null, Value::Null]),
                Tuple::new(vec![Value::Int(7), Value::text("k")]),
            ],
        )
        .unwrap();
        let p = Product::new(vec![&a, &b]).unwrap();
        check(&p, &FactorizeOptions::default());
        check(
            &p,
            &FactorizeOptions {
                cross_only: false,
                ..Default::default()
            },
        );
    }

    use crate::tuple::Tuple;

    #[test]
    fn sweep_guard_trips_and_reports_cost() {
        let p = Product::new(vec![&flights(), &hotels()]).unwrap();
        let err = factorize(
            &p,
            &FactorizeOptions {
                max_sweep: 1,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, FactorizeError::SweepTooLarge { .. }));
        assert!(err.to_string().contains("factorization too large"));
    }

    #[test]
    fn no_joinable_pairs_is_an_error() {
        let a = Relation::new(
            RelationSchema::of("a", &[("x", DataType::Int)]).unwrap(),
            vec![tup![1]],
        )
        .unwrap();
        let b = Relation::new(
            RelationSchema::of("b", &[("y", DataType::Text)]).unwrap(),
            vec![tup!["z"]],
        )
        .unwrap();
        let p = Product::new(vec![&a, &b]).unwrap();
        assert_eq!(
            factorize(&p, &FactorizeOptions::default()).unwrap_err(),
            FactorizeError::NoJoinablePairs
        );
    }

    #[test]
    fn duplicate_heavy_log_compresses_to_few_blocks() {
        // An event-log-shaped relation: many duplicate edges over a tiny
        // domain. Blocks (and sweep cost) depend on distinct rows only.
        let rows: Vec<Tuple> = (0..500)
            .map(|i| tup![(i % 4) as i64, ((i / 4) % 3) as i64])
            .collect();
        let rel = Relation::new(
            RelationSchema::of("e", &[("src", DataType::Int), ("dst", DataType::Int)]).unwrap(),
            rows,
        )
        .unwrap();
        let shared = rel.into_shared();
        let p = Product::new(vec![shared.clone(), shared]).unwrap();
        assert_eq!(p.size(), 250_000);
        let f = factorize(&p, &FactorizeOptions::default()).unwrap();
        assert!(f.blocks_per_occurrence[0] <= 12);
        assert_eq!(f.groups.iter().map(|g| g.count).sum::<u64>(), 250_000);
        check(&p, &FactorizeOptions::default());
    }

    /// An arity-9 `Int` relation over a 3-value domain: every cross pair
    /// of two occurrences is joinable (81 pairs, 153 with intra pairs), so
    /// patterns span two or three bitset words.
    fn wide_int(name: &str, rows: usize, seed: i64) -> Relation {
        let names: Vec<String> = (0..9).map(|i| format!("c{i}")).collect();
        let attrs: Vec<(&str, DataType)> =
            names.iter().map(|n| (n.as_str(), DataType::Int)).collect();
        let rows = (0..rows as i64)
            .map(|r| Tuple::new((0..9).map(|c| Value::Int((r * 7 + c * seed) % 3)).collect()))
            .collect();
        Relation::new(RelationSchema::of(name, &attrs).unwrap(), rows).unwrap()
    }

    #[test]
    fn patterns_wider_than_one_word_match_brute_force() {
        let a = wide_int("a", 6, 5);
        let b = wide_int("b", 5, 2);
        let p = Product::new(vec![&a, &b]).unwrap();
        assert_eq!(joinable_pairs(p.schema(), true).len(), 81);
        check(&p, &FactorizeOptions::default());
        assert_eq!(joinable_pairs(p.schema(), false).len(), 153);
        check(
            &p,
            &FactorizeOptions {
                cross_only: false,
                ..Default::default()
            },
        );
        // A self-join of the wide relation shares one partition.
        let shared = a.into_shared();
        let p = Product::new(vec![shared.clone(), shared]).unwrap();
        check(&p, &FactorizeOptions::default());
    }

    #[test]
    fn interning_agrees_with_value_equality_on_mixed_columns() {
        // `Value` compares floats by total order: 0.0 and -0.0 differ, a
        // NaN equals itself. Nulls are typeless and match nulls of any
        // column of the same declared type.
        let schema = |name| {
            RelationSchema::of(
                name,
                &[
                    ("t", DataType::Text),
                    ("f", DataType::Float),
                    ("g", DataType::Float),
                    ("b", DataType::Bool),
                ],
            )
            .unwrap()
        };
        let row = |t: Value, f: f64, g: Value, b: Value| Tuple::new(vec![t, Value::Float(f), g, b]);
        let a = Relation::new(
            schema("a"),
            vec![
                row(Value::text("x"), 0.0, Value::Float(-0.0), Value::Bool(true)),
                row(Value::Null, -0.0, Value::Float(f64::NAN), Value::Null),
                row(Value::text("y"), f64::NAN, Value::Null, Value::Bool(false)),
                row(Value::text("x"), 1.5, Value::Float(0.0), Value::Bool(true)),
            ],
        )
        .unwrap();
        let b = Relation::new(
            schema("b"),
            vec![
                row(Value::text("x"), -0.0, Value::Float(0.0), Value::Null),
                row(Value::Null, f64::NAN, Value::Null, Value::Bool(true)),
                row(
                    Value::text("z"),
                    0.0,
                    Value::Float(f64::NAN),
                    Value::Bool(false),
                ),
                row(Value::text("y"), 2.5, Value::Float(-0.0), Value::Null),
            ],
        )
        .unwrap();
        let p = Product::new(vec![&a, &b]).unwrap();
        for cross_only in [true, false] {
            check(
                &p,
                &FactorizeOptions {
                    cross_only,
                    ..Default::default()
                },
            );
        }
        let shared = a.into_shared();
        let p = Product::new(vec![shared.clone(), shared.clone(), shared]).unwrap();
        check(&p, &FactorizeOptions::default());
    }
}
