//! The shared solver for the chain DPs.
//!
//! Both DPPO (Eqs. 2–4) and SDPPO (Eq. 5) minimise, for every subchain
//! `[i..=j]` of the lexical order, over a split position `k ∈ [i, j)`:
//!
//! ```text
//! v[i, j] = min_k  combine(v[i, k], v[k+1, j]) + T(i, k, j) / g + D(i, k, j)
//! ```
//!
//! where `combine` is `+` for DPPO and `max` for SDPPO, `T` and `D` are
//! the TNSE and delay totals of the edges crossing the split, and `g` is
//! `gcd(q[i..=j])` — or 1 when the loop is left unfactored
//! ([`crate::FactoringPolicy::Never`]).  One dense kernel fills the whole
//! triangular table — Θ(n³) split probes, the textbook recurrence, at a
//! few nanoseconds per probe.
//!
//! # The dense kernel
//!
//! Rows are filled bottom-up (`i` descending, then `j` ascending), so
//! when cell `(i, j)` is scanned its left children `v[i][i..j]` and right
//! children `v[i+1..=j][j]` are final.  Every stream the split scan reads
//! is contiguous:
//!
//! * the table is packed by column, so the right children are one run;
//! * the left children are row `i`, which is the row being filled and is
//!   mirrored in a scratch row of `n` values;
//! * the crossing TNSE of split `k` is
//!   `E[j][k] + P[i][k+1] − P[i][j+1]`, where `P` is the 2-D prefix table
//!   (row `i` is contiguous in `k`) and `E[j][k] = P[k+1][j+1] −
//!   P[k+1][k+1]` is a per-column table built in O(n²) at the start of
//!   the fill; delays use the same two tables, and cells with no delayed
//!   edge inside skip them.
//!
//! The crossing TNSE is a sum of `q(src)·prod(e)` over sources inside
//! `[i..=j]`, so `g` divides it exactly and the kernel divides without a
//! `div` instruction: `T / g = (T >> tz(g)) · inv(g_odd)` mod 2⁶⁴, with
//! the shift and the odd part's inverse computed once per cell.  The scan
//! runs `k` ascending and only a strictly smaller cost replaces the
//! incumbent, so the stored split is the smallest argmin — the tie-break
//! of the textbook scan.  Values and `u32` splits live in packed
//! triangles, and every table lives only as long as one DP run.
//!
//! # Cross-run memo
//!
//! With a [`MemoStore`] and content-hashed tables, exact mode memoizes
//! whole schedule trees: it resolves the root and then every tree cell
//! from the store, and on the first miss runs the dense fill and inserts
//! the resulting tree's `n − 1` cells.  A stored entry is the exact
//! `(value, smallest-argmin split)` of its subchain, keyed under the cost
//! model's domain tag (`CostModel::memo_tag`), so results are
//! bit-identical with or without a store.
//!
//! # Why not the Knuth–Yao split window
//!
//! The classic restriction `k ∈ [split[i][j−1], split[i+1][j]]` needs the
//! cost family to satisfy the quadrangle inequality, and the DPPO crossing
//! cost does not: the crossing TNSE is divided by the subchain gcd, which
//! changes non-monotonically with the span.  On random rate-changing
//! chains a static window (even with boundary-widening fallback) returned
//! wrong values on ~5 % of instances, so the kernel scans every split.

use std::collections::HashMap;

use crate::chain::{inv_u64, ChainTables};
use crate::memo::{
    MemoEntry, MemoStore, DOMAIN_DPPO, DOMAIN_SDPPO_FACTORED, DOMAIN_SDPPO_UNFACTORED,
};

/// How the chain DPs scan split positions: always with the dense kernel.
///
/// The enum has one variant and selects nothing.  It survives only for
/// source compatibility: the benchmark harness (`perfbench/`) passes
/// `DpMode::default()` to [`crate::dppo_from_tables`] and
/// [`crate::sdppo_from_tables`].  The enum and those two parameters go
/// with the next change to the benchmark (see `ROADMAP.md`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum DpMode {
    /// Probe every split `k ∈ [i, j)` with the dense kernel — Θ(n³)
    /// total probes.
    #[default]
    Exact,
}

/// How a split's two child costs merge into the parent cost.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Combine {
    /// DPPO: the children's buffers coexist, costs add.
    Sum,
    /// SDPPO: the children's buffers overlay, only the max survives.
    Max,
}

/// One chain-DP cost family.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CostModel {
    /// How child costs merge.
    pub(crate) combine: Combine,
    /// Whether the crossing TNSE is divided by the subchain gcd
    /// (`T/g + D`) or charged in full (`T + D`).
    pub(crate) factored: bool,
}

impl CostModel {
    /// The cross-run memo domain tag.  Entries are keyed by cost model,
    /// not by caller: two SDPPO factoring policies that price every split
    /// alike share their DP tables, so they share entries too.
    pub(crate) fn memo_tag(self) -> u8 {
        match (self.combine, self.factored) {
            (Combine::Sum, _) => DOMAIN_DPPO,
            (Combine::Max, true) => DOMAIN_SDPPO_FACTORED,
            (Combine::Max, false) => DOMAIN_SDPPO_UNFACTORED,
        }
    }
}

/// A solved chain DP: the whole-chain value plus the source the schedule
/// tree's split decisions are read from.
pub(crate) struct ChainDp {
    value: u64,
    splits: Splits,
}

enum Splits {
    /// The dense kernel's full table.
    Dense(DenseTable),
    /// Tree cells resolved from the memo store, keyed by `(i, j)`.
    Stored(HashMap<(usize, usize), usize>),
}

/// Solves the chain DP over `ct` under `model`.  The `memo` store engages
/// only on tables built with a content hasher.
pub(crate) fn solve(ct: &ChainTables, model: CostModel, memo: Option<&MemoStore>) -> ChainDp {
    let memo = memo.filter(|_| ct.hasher().is_some());
    let tag = model.memo_tag();
    if let Some(dp) = memo.and_then(|store| resolve_tree(ct, store, tag)) {
        return dp;
    }
    let table = DenseTable::fill(ct, model);
    if let Some(store) = memo {
        table.store_tree(ct, store, tag);
    }
    ChainDp {
        value: table.value(0, ct.len() - 1),
        splits: Splits::Dense(table),
    }
}

impl ChainDp {
    /// The DP value of the whole chain.
    pub(crate) fn value(&self) -> u64 {
        self.value
    }

    /// The smallest argmin split of subchain `[i..=j]`, for tree
    /// construction.  Only the cells of the optimal tree are guaranteed
    /// to be answerable (a store-resolved run holds nothing else).
    pub(crate) fn tree_split(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j);
        match &self.splits {
            Splits::Dense(t) => t.split(i, j),
            Splits::Stored(m) => m[&(i, j)],
        }
    }

    /// Split probes performed: crossing-cost evaluations, zero when the
    /// whole tree came from the memo store.
    pub(crate) fn probes(&self) -> u64 {
        match &self.splits {
            Splits::Dense(t) => t.probes,
            Splits::Stored(_) => 0,
        }
    }
}

/// Resolves the optimal tree of the whole chain from the store: the root
/// first, then every internal cell its splits lead to.  `None` on the
/// first miss (or an entry whose split falls outside its cell).
fn resolve_tree(ct: &ChainTables, store: &MemoStore, tag: u8) -> Option<ChainDp> {
    let n = ct.len();
    let hasher = ct.hasher()?;
    if n < 2 {
        return None;
    }
    let mut splits = HashMap::with_capacity(n - 1);
    let mut root = 0;
    let mut stack = vec![(0, n - 1)];
    while let Some((i, j)) = stack.pop() {
        let entry = store.lookup(&hasher.subchain_key(i, j, tag))?;
        let k = i + entry.split_rel as usize;
        if k >= j {
            return None;
        }
        if splits.is_empty() {
            root = entry.value;
        }
        splits.insert((i, j), k);
        if k > i {
            stack.push((i, k));
        }
        if k + 1 < j {
            stack.push((k + 1, j));
        }
    }
    Some(ChainDp {
        value: root,
        splits: Splits::Stored(splits),
    })
}

/// Start of column `j` in a packed triangle holding rows `0..=j`: cell
/// `(i, j)` of the dense table lives at `col_offset(j) + i`.
fn col_offset(j: usize) -> usize {
    j * (j + 1) / 2
}

/// Start of row `j` in a packed strict lower triangle (`k < j`), the
/// layout of the per-column crossing tables.
fn strict_row_offset(j: usize) -> usize {
    j * j.saturating_sub(1) / 2
}

/// The per-column table `E[j][k] = P[k+1][j+1] − P[k+1][k+1]` of an
/// `(n+1)×(n+1)` prefix table `P`: the total over edges from positions
/// `≤ k` into `[k+1..=j]`, packed at `strict_row_offset(j) + k`.
fn column_table(ps: &[u64], n: usize) -> Vec<u64> {
    let w = n + 1;
    let mut e = Vec::with_capacity(strict_row_offset(n));
    for j in 0..n {
        e.extend((0..j).map(|k| ps[(k + 1) * w + j + 1] - ps[(k + 1) * w + k + 1]));
    }
    e
}

/// The dense kernel's table: values and smallest-argmin splits of every
/// cell `i <= j`, packed column by column (see [`col_offset`]).
struct DenseTable {
    n: usize,
    value: Vec<u64>,
    split: Vec<u32>,
    probes: u64,
}

impl DenseTable {
    fn fill(ct: &ChainTables, model: CostModel) -> DenseTable {
        match (model.combine, model.factored) {
            (Combine::Sum, true) => Self::fill_with::<false, true>(ct),
            (Combine::Sum, false) => Self::fill_with::<false, false>(ct),
            (Combine::Max, true) => Self::fill_with::<true, true>(ct),
            (Combine::Max, false) => Self::fill_with::<true, false>(ct),
        }
    }

    /// The kernel, monomorphised per cost family: `MAX` selects the
    /// combine, `DIV` the gcd-factored crossing cost.  See the module docs
    /// for the memory layout and the division.
    fn fill_with<const MAX: bool, const DIV: bool>(ct: &ChainTables) -> DenseTable {
        let n = ct.len();
        assert!(
            u32::try_from(n).is_ok(),
            "chain too long for u32 split indices"
        );
        let w = n + 1;
        let (tnse_ps, delay_ps) = ct.prefix_tables();
        let col_tnse = column_table(tnse_ps, n);
        let col_delay = if ct.has_delay_within(0, n - 1) {
            column_table(delay_ps, n)
        } else {
            Vec::new()
        };
        let cells = col_offset(n);
        // Stored by column, so the right children of cell (i, j) are one
        // contiguous run; the row being filled is mirrored in `row`
        // (v[i][j] at j − i), so the left children are one run too.
        let mut value = vec![0u64; cells];
        let mut split = vec![0u32; cells];
        let mut row = vec![0u64; n];
        let mut probes = 0u64;
        for i in (0..n).rev() {
            let pt_i = &tnse_ps[i * w..(i + 1) * w];
            for j in (i + 1)..n {
                let len = j - i;
                probes += len as u64;
                // Candidates k = i + x: left v[i][k], right v[k+1][j],
                // crossing T = E[j][k] + P[i][k+1] − P[i][j+1] (likewise D).
                let cj = col_offset(j);
                let left = &row[..len];
                let right = &value[cj + i + 1..cj + j + 1];
                let ej = strict_row_offset(j);
                let g = ct.gcd_range(i, j);
                let shift = g.trailing_zeros();
                let inv = if DIV { inv_u64(g >> shift) } else { 1 };
                let tnse = Crossing {
                    col: &col_tnse[ej + i..ej + j],
                    row: &pt_i[i + 1..j + 1],
                    total: pt_i[j + 1],
                };
                let (best, x) = if ct.has_delay_within(i, j) {
                    let pd_i = &delay_ps[i * w..(i + 1) * w];
                    let delay = Crossing {
                        col: &col_delay[ej + i..ej + j],
                        row: &pd_i[i + 1..j + 1],
                        total: pd_i[j + 1],
                    };
                    scan::<MAX, DIV, true>(left, right, &tnse, &delay, shift, inv)
                } else {
                    scan::<MAX, DIV, false>(left, right, &tnse, &tnse, shift, inv)
                };
                row[len] = best;
                value[cj + i] = best;
                split[cj + i] = (i + x) as u32;
            }
        }
        DenseTable {
            n,
            value,
            split,
            probes,
        }
    }

    fn value(&self, i: usize, j: usize) -> u64 {
        self.value[col_offset(j) + i]
    }

    fn split(&self, i: usize, j: usize) -> usize {
        self.split[col_offset(j) + i] as usize
    }

    /// Inserts the optimal tree's internal cells into the store.
    fn store_tree(&self, ct: &ChainTables, store: &MemoStore, tag: u8) {
        let Some(hasher) = ct.hasher() else { return };
        let mut stack = vec![(0, self.n - 1)];
        while let Some((i, j)) = stack.pop() {
            if i >= j {
                continue;
            }
            let k = self.split(i, j);
            store.insert(
                hasher.subchain_key(i, j, tag),
                MemoEntry {
                    value: self.value(i, j),
                    split_rel: (k - i) as u32,
                },
            );
            stack.push((i, k));
            stack.push((k + 1, j));
        }
    }
}

/// One crossing total of a cell's candidates, `col[x] + row[x] − total`
/// for split `k = i + x`.
struct Crossing<'a> {
    col: &'a [u64],
    row: &'a [u64],
    total: u64,
}

/// Scans one cell's candidates in ascending `k` and returns the smallest
/// cost with its smallest argmin offset.  `DELAY` is false when no
/// delayed edge lies inside the cell (`delay` is then ignored).
#[inline(always)]
fn scan<const MAX: bool, const DIV: bool, const DELAY: bool>(
    left: &[u64],
    right: &[u64],
    tnse: &Crossing<'_>,
    delay: &Crossing<'_>,
    shift: u32,
    inv: u64,
) -> (u64, usize) {
    let len = left.len();
    let (right, tc, tr) = (&right[..len], &tnse.col[..len], &tnse.row[..len]);
    let (dc, dr) = if DELAY {
        (&delay.col[..len], &delay.row[..len])
    } else {
        (&[][..], &[][..])
    };
    let mut best = u64::MAX;
    let mut best_x = 0;
    for x in 0..len {
        let t = tc[x].wrapping_add(tr[x]).wrapping_sub(tnse.total);
        // g divides every crossing TNSE, so the odd-part inverse gives
        // the exact quotient.
        let mut cut = if DIV {
            (t >> shift).wrapping_mul(inv)
        } else {
            t
        };
        if DELAY {
            cut = cut.wrapping_add(dc[x].wrapping_add(dr[x]).wrapping_sub(delay.total));
        }
        let children = if MAX {
            left[x].max(right[x])
        } else {
            left[x].saturating_add(right[x])
        };
        let cost = children.saturating_add(cut);
        if cost < best {
            best = cost;
            best_x = x;
        }
    }
    (best, best_x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdf_core::graph::SdfGraph;
    use sdf_core::repetitions::RepetitionsVector;

    const MODELS: [CostModel; 3] = [
        CostModel {
            combine: Combine::Sum,
            factored: true,
        },
        CostModel {
            combine: Combine::Max,
            factored: true,
        },
        CostModel {
            combine: Combine::Max,
            factored: false,
        },
    ];

    /// The textbook bottom-up scan over a crossing-cost closure, ascending
    /// `k` so ties resolve to the smallest argmin: `(value, split)` as
    /// row-major `n × n` tables.  The reference the kernel is checked
    /// against.
    fn textbook(
        ct: &ChainTables,
        combine: Combine,
        crossing: impl Fn(usize, usize, usize) -> u64,
    ) -> (Vec<u64>, Vec<usize>) {
        let n = ct.len();
        let mut value = vec![0u64; n * n];
        let mut split = vec![0usize; n * n];
        for span in 1..n {
            for i in 0..(n - span) {
                let j = i + span;
                let mut best = u64::MAX;
                let mut best_k = i;
                for k in i..j {
                    let (l, r) = (value[i * n + k], value[(k + 1) * n + j]);
                    let children = match combine {
                        Combine::Sum => l.saturating_add(r),
                        Combine::Max => l.max(r),
                    };
                    let cost = children.saturating_add(crossing(i, k, j));
                    if cost < best {
                        best = cost;
                        best_k = k;
                    }
                }
                value[i * n + j] = best;
                split[i * n + j] = best_k;
            }
        }
        (value, split)
    }

    /// Chain graph from per-edge (produce, consume, delay) triples.
    fn chain_tables(edges: &[(u64, u64, u64)]) -> (SdfGraph, RepetitionsVector, ChainTables) {
        let mut g = SdfGraph::new("chain");
        let ids: Vec<_> = (0..=edges.len())
            .map(|i| g.add_actor(format!("a{i}")))
            .collect();
        for (w, &(p, c, d)) in edges.iter().enumerate() {
            g.add_edge_with_delay(ids[w], ids[w + 1], p, c, d).unwrap();
        }
        let q = RepetitionsVector::compute(&g).unwrap();
        let ct = ChainTables::build(&g, &q, &ids).unwrap();
        (g, q, ct)
    }

    fn cd_dat() -> (SdfGraph, RepetitionsVector, ChainTables) {
        chain_tables(&[(1, 1, 0), (2, 3, 0), (2, 7, 0), (8, 7, 0), (5, 1, 0)])
    }

    /// Asserts the kernel's whole table equals the textbook scan's.
    fn assert_kernel_matches_textbook(ct: &ChainTables, model: CostModel, what: &str) {
        let n = ct.len();
        let table = DenseTable::fill(ct, model);
        let (value, split) = textbook(ct, model.combine, |i, k, j| {
            if model.factored {
                ct.split_cost(i, k, j)
            } else {
                ct.split_cost_unfactored(i, k, j)
            }
        });
        for i in 0..n {
            for j in (i + 1)..n {
                assert_eq!(
                    table.value(i, j),
                    value[i * n + j],
                    "{what} value ({i}, {j})"
                );
                assert_eq!(
                    table.split(i, j),
                    split[i * n + j],
                    "{what} split ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn kernel_matches_textbook_on_cd_dat() {
        let (_, _, ct) = cd_dat();
        for model in MODELS {
            assert_kernel_matches_textbook(&ct, model, &format!("{model:?}"));
        }
    }

    #[test]
    fn kernel_matches_textbook_with_skip_and_parallel_edges() {
        // Random consistent graphs on a chain backbone plus skip edges and
        // parallel edges (same rate ratio, so q is unchanged), with
        // delays: every crossing rectangle holds several edges.
        struct Lcg(u64);
        impl Lcg {
            fn next(&mut self, m: u64) -> u64 {
                self.0 = self
                    .0
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (self.0 >> 33) % m
            }
        }
        let mut rng = Lcg(0x2545_f491_4f6c_dd1d);
        for trial in 0..150 {
            let n = 1 + rng.next(24) as usize;
            let mut g = SdfGraph::new("dag");
            let ids: Vec<_> = (0..n).map(|i| g.add_actor(format!("a{i}"))).collect();
            let mut rates = Vec::new();
            for w in 0..n.saturating_sub(1) {
                let (p, c) = (1 + rng.next(6), 1 + rng.next(6));
                rates.push((p, c));
                g.add_edge_with_delay(ids[w], ids[w + 1], p, c, rng.next(3) * rng.next(9))
                    .unwrap();
                if rng.next(3) == 0 {
                    let m = 1 + rng.next(3);
                    g.add_edge_with_delay(ids[w], ids[w + 1], p * m, c * m, rng.next(5))
                        .unwrap();
                }
            }
            // Skip edges a_u -> a_v carry the composed rate ratio.
            for _ in 0..rng.next(4) {
                if n < 3 {
                    break;
                }
                let u = rng.next(n as u64 - 2) as usize;
                let v = u + 2 + rng.next((n - u - 2) as u64) as usize;
                let (mut p, mut c) = (1u64, 1u64);
                for &(rp, rc) in &rates[u..v] {
                    p *= rp;
                    c *= rc;
                }
                let gc = sdf_core::math::gcd(p, c);
                g.add_edge_with_delay(ids[u], ids[v], p / gc, c / gc, rng.next(4))
                    .unwrap();
            }
            let q = RepetitionsVector::compute(&g).unwrap();
            let ct = ChainTables::build(&g, &q, &ids).unwrap();
            for model in MODELS {
                assert_kernel_matches_textbook(&ct, model, &format!("trial {trial} {model:?}"));
            }
        }
    }

    #[test]
    fn exact_probe_count_matches_closed_form() {
        let edges = vec![(1u64, 1u64, 0u64); 16];
        let (_, _, ct) = chain_tables(&edges);
        let n = ct.len() as u64;
        let dp = solve(&ct, MODELS[0], None);
        assert_eq!(dp.probes(), n * (n * n - 1) / 6);
    }

    #[test]
    fn single_actor_is_trivial() {
        let mut g = SdfGraph::new("one");
        let a = g.add_actor("A");
        let q = RepetitionsVector::compute(&g).unwrap();
        let ct = ChainTables::build(&g, &q, &[a]).unwrap();
        let dp = solve(&ct, MODELS[0], None);
        assert_eq!(dp.value(), 0);
        assert_eq!(dp.probes(), 0);
    }

    #[test]
    #[ignore = "probe-scaling measurement harness, run with --ignored"]
    fn measure_probe_scaling() {
        for n_edges in [127usize, 255, 511] {
            let edges: Vec<_> = (0..n_edges)
                .map(|i| {
                    if i % 16 == 8 {
                        if (i / 16) % 2 == 0 {
                            (2, 3, 0)
                        } else {
                            (3, 2, 0)
                        }
                    } else {
                        (1, 1, 0)
                    }
                })
                .collect();
            let (_, _, ct) = chain_tables(&edges);
            let n = ct.len();
            for model in MODELS {
                // Best of five dense fills: the kernel is the subject.
                let (e, te) = (0..5)
                    .map(|_| {
                        let t0 = std::time::Instant::now();
                        let e = solve(&ct, model, None);
                        (e, t0.elapsed())
                    })
                    .min_by_key(|(_, t)| *t)
                    .expect("five runs");
                eprintln!(
                    "n={n} {model:?}: {} probes in {te:?} ({:.2} ns/probe)",
                    e.probes(),
                    te.as_nanos() as f64 / e.probes() as f64,
                );
            }
        }
    }
}
