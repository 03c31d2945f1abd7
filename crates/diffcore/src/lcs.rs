//! Weighted longest-common-subsequence alignment.
//!
//! The LCS problem, as the paper states it (§5.1): "find a (not
//! necessarily contiguous) common subsequence of two sequences of tokens
//! that has the longest length (or greatest weight). Tokens not in the LCS
//! represent changes." In UNIX `diff` every token has weight 1; in
//! HtmlDiff a token pair may match with a weight reflecting *how much* of
//! two sentences coincide.
//!
//! Two algorithms are provided:
//!
//! - [`weighted_lcs_dp`]: the classic full-matrix dynamic program,
//!   `O(n·m)` time **and** space. Fast and simple for small inputs. Its
//!   backtrack — prefer the diagonal, then up, then left — defines the
//!   *canonical alignment* every other path in the workspace must
//!   reproduce exactly (DESIGN.md §4e).
//! - [`weighted_lcs_hirschberg`]: a divide-and-conquer replay of that
//!   same backtrack in `O(m·log n)` space ([Hirschberg 1977], the
//!   paper's reference \[8\], adapted so the output is pair-for-pair
//!   identical to the DP rather than merely weight-equal), which is what
//!   makes sentence-level comparison of large documents feasible.
//!
//! This module owns the size decision between them. [`weighted_lcs`]
//! serves cheap scores: the full DP up to [`DP_CELL_LIMIT`] cells, the
//! replay above it. [`weighted_lcs_memoized`] serves expensive ones
//! (HtmlDiff's sentence scores) and adds a middle tier: up to
//! [`DENSE_MEMO_CELL_LIMIT`] cells the replay runs behind a flat memo,
//! so the cells its recursion revisits are scored once.
//!
//! Scores are supplied by index, `score(i, j) -> u64`, so callers can
//! memoize expensive pairwise comparisons (HtmlDiff's inner sentence LCS)
//! or apply cheap screens (the sentence-length test) before paying for a
//! full comparison. A score of `0` means "these tokens do not match".
//!
//! DP tables and score rows come from the [`crate::scratch`] buffer
//! pool, so back-to-back diffs on one thread reuse their allocations.
//!
//! # The replay
//!
//! Hirschberg's classic midpoint rule finds *a* maximum-weight
//! alignment, but which one depends on how score ties are split, and
//! the equivalence contract is stronger than weight equality. So the
//! replay keeps the divide-and-conquer shape but walks the canonical
//! backtrack itself:
//!
//! 1. Rows of the DP table are recomputed front-to-back with a single
//!    rolling row (`O(m)` space), exactly as `weighted_lcs_dp` fills
//!    its table — the values are identical because the recurrence is.
//! 2. To backtrack without the table, recurse on rows: materialize the
//!    middle row `T[mid][·]` from the current checkpoint row, replay the
//!    backtrack through the *upper* half first, and observe the column
//!    `j_mid` at which the walk crosses row `mid`. That column is exact,
//!    not estimated: the walk above it made every decision against true
//!    table values. Then recurse on the lower half from `(mid, j_mid)`.
//! 3. A height-one strip walks left through the row making the canonical
//!    diagonal/up/left decisions against the two exact rows it holds.
//!
//! Every decision consults true `T` values, so the emitted pairs are the
//! canonical backtrack's by construction. One checkpoint row lives per
//! recursion level — `O(m · log n)` space against the table's `O(n·m)`;
//! time is `O(n·m·log n)` in the worst case, though the column range
//! shrinks at every lower-half step so the observed constant is small.
//!
//! [Hirschberg 1977]: https://doi.org/10.1145/322033.322044

use crate::scratch;
use std::cell::Cell;

/// Scores a pair of tokens; `0` means no match.
///
/// Implemented for any `Fn(&A, &B) -> u64`, this is the slice-level
/// counterpart of the index-based closures the raw algorithms take.
pub trait Scorer<A: ?Sized, B: ?Sized> {
    /// Returns the match weight for `(a, b)`; `0` means no match.
    fn score(&self, a: &A, b: &B) -> u64;
}

impl<A: ?Sized, B: ?Sized, F: Fn(&A, &B) -> u64> Scorer<A, B> for F {
    fn score(&self, a: &A, b: &B) -> u64 {
        self(a, b)
    }
}

/// Size (in matrix cells) up to which the full DP runs. Above it, the
/// linear-space replay runs.
pub const DP_CELL_LIMIT: usize = 1 << 21;

/// Size (in matrix cells) up to which [`weighted_lcs_memoized`] puts a
/// flat memo behind the replay. Above it the replay scores cells on
/// demand, so memory stays bounded on pathological inputs.
pub const DENSE_MEMO_CELL_LIMIT: usize = 1 << 24;

/// Which tier [`weighted_lcs_memoized`] aligned an input with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LcsTier {
    /// The full DP table, or the replay behind the flat memo: every cell
    /// is scored once.
    Dense,
    /// The unmemoized replay: too large for any dense memo.
    Replay,
}

/// Computes a maximum-weight alignment of `0..n` against `0..m`.
///
/// Returns matched index pairs, strictly increasing in both components.
/// Dispatches to [`weighted_lcs_dp`] for small inputs and
/// [`weighted_lcs_hirschberg`] for large ones; the two produce identical
/// pairs, so the dispatch threshold is invisible in the output.
///
/// # Examples
///
/// ```
/// use aide_diffcore::lcs::weighted_lcs;
///
/// let a = ["the", "quick", "fox"];
/// let b = ["the", "slow", "fox"];
/// let pairs = weighted_lcs(a.len(), b.len(), &|i, j| u64::from(a[i] == b[j]));
/// assert_eq!(pairs, vec![(0, 0), (2, 2)]);
/// ```
pub fn weighted_lcs(
    n: usize,
    m: usize,
    score: &impl Fn(usize, usize) -> u64,
) -> Vec<(usize, usize)> {
    if n == 0 || m == 0 {
        return Vec::new();
    }
    if n.saturating_mul(m) <= DP_CELL_LIMIT {
        weighted_lcs_dp(n, m, score)
    } else {
        weighted_lcs_hirschberg(n, m, score)
    }
}

/// [`weighted_lcs`] for scores that are expensive to evaluate, with the
/// tier that ran.
///
/// Up to [`DP_CELL_LIMIT`] cells the full DP probes each cell exactly
/// once in its forward pass (the backtrack re-probes only `O(n + m)`
/// cells), so it needs no memo. Up to [`DENSE_MEMO_CELL_LIMIT`] the
/// replay runs behind a flat memo, because its recursion revisits cells
/// (a log factor) whose scoring is the expensive part. Above that, the
/// replay scores on demand. All three emit the same pairs.
pub fn weighted_lcs_memoized(
    n: usize,
    m: usize,
    score: &impl Fn(usize, usize) -> u64,
) -> (Vec<(usize, usize)>, LcsTier) {
    let cells = n.saturating_mul(m);
    if cells <= DP_CELL_LIMIT {
        return (weighted_lcs_dp(n, m, score), LcsTier::Dense);
    }
    if cells > DENSE_MEMO_CELL_LIMIT {
        return (weighted_lcs_hirschberg(n, m, score), LcsTier::Replay);
    }
    // The memo buffer is pooled scratch viewed as cells (`u64::MAX` =
    // unscored).
    let mut memo_buf = scratch::take_u64_buf();
    memo_buf.resize(cells, u64::MAX);
    let memo = Cell::from_mut(memo_buf.as_mut_slice()).as_slice_of_cells();
    let memoized = |i: usize, j: usize| {
        let c = &memo[i * m + j];
        if c.get() == u64::MAX {
            c.set(score(i, j));
        }
        c.get()
    };
    let pairs = weighted_lcs_hirschberg(n, m, &memoized);
    scratch::give_u64_buf(memo_buf);
    (pairs, LcsTier::Dense)
}

/// Convenience wrapper: maximum-weight alignment of two slices under a
/// [`Scorer`].
pub fn weighted_lcs_slices<A, B, S: Scorer<A, B>>(
    a: &[A],
    b: &[B],
    scorer: &S,
) -> Vec<(usize, usize)> {
    weighted_lcs(a.len(), b.len(), &|i, j| scorer.score(&a[i], &b[j]))
}

/// Full-matrix weighted LCS: `O(n·m)` time and space.
pub fn weighted_lcs_dp(
    n: usize,
    m: usize,
    score: &impl Fn(usize, usize) -> u64,
) -> Vec<(usize, usize)> {
    // table[i][j] = best weight aligning a[..i] with b[..j].
    let width = m + 1;
    let mut table = scratch::take_u64_buf();
    table.resize((n + 1) * width, 0);
    for i in 1..=n {
        for j in 1..=m {
            let up = table[(i - 1) * width + j];
            let left = table[i * width + (j - 1)];
            let mut best = up.max(left);
            let w = score(i - 1, j - 1);
            if w > 0 {
                best = best.max(table[(i - 1) * width + (j - 1)] + w);
            }
            table[i * width + j] = best;
        }
    }
    // Backtrack, preferring matches so the alignment is deterministic.
    let mut pairs = Vec::new();
    let (mut i, mut j) = (n, m);
    while i > 0 && j > 0 {
        let here = table[i * width + j];
        let w = score(i - 1, j - 1);
        if w > 0 && here == table[(i - 1) * width + (j - 1)] + w {
            pairs.push((i - 1, j - 1));
            i -= 1;
            j -= 1;
        } else if here == table[(i - 1) * width + j] {
            i -= 1;
        } else {
            j -= 1;
        }
    }
    scratch::give_u64_buf(table);
    pairs.reverse();
    pairs
}

/// Plain equality LCS over two slices (every match has weight 1).
pub fn lcs_pairs<T: PartialEq>(a: &[T], b: &[T]) -> Vec<(usize, usize)> {
    weighted_lcs(a.len(), b.len(), &|i, j| u64::from(a[i] == b[j]))
}

/// Total weight of an alignment under `score`.
pub fn alignment_weight(pairs: &[(usize, usize)], score: &impl Fn(usize, usize) -> u64) -> u64 {
    pairs.iter().map(|&(i, j)| score(i, j)).sum()
}

/// Linear-space weighted LCS, pair-identical to [`weighted_lcs_dp`]
/// (see the module docs for how the replay works).
///
/// Returns matched index pairs, strictly increasing in both components,
/// in exactly the order and composition the full-table DP's canonical
/// backtrack would produce.
///
/// # Examples
///
/// ```
/// use aide_diffcore::lcs::{weighted_lcs_dp, weighted_lcs_hirschberg};
///
/// let a = [7u64, 1, 7, 2];
/// let b = [7u64, 2];
/// let score = |i: usize, j: usize| u64::from(a[i] == b[j]);
/// let hi = weighted_lcs_hirschberg(a.len(), b.len(), &score);
/// assert_eq!(hi, weighted_lcs_dp(a.len(), b.len(), &score));
/// assert_eq!(hi, vec![(2, 0), (3, 1)]);
/// ```
pub fn weighted_lcs_hirschberg(
    n: usize,
    m: usize,
    score: &impl Fn(usize, usize) -> u64,
) -> Vec<(usize, usize)> {
    if n == 0 || m == 0 {
        return Vec::new();
    }
    let mut row0 = scratch::take_u64_buf();
    row0.resize(m + 1, 0);
    // Pairs are emitted in backtrack order (descending); reverse at the
    // end, exactly as the dense DP does.
    let mut out = Vec::new();
    replay(0, n, m, &row0, score, &mut out);
    scratch::give_u64_buf(row0);
    out.reverse();
    out
}

/// Rolls the canonical DP rows forward in place: on entry `row` holds
/// `T[a_lo][0..=j_end]`, on exit `T[a_hi][0..=j_end]`. Identical
/// recurrence to `weighted_lcs_dp` (values in column `j` never depend on
/// columns `> j`, so truncating at `j_end` is exact).
fn roll_rows(
    a_lo: usize,
    a_hi: usize,
    j_end: usize,
    score: &impl Fn(usize, usize) -> u64,
    row: &mut [u64],
) {
    for i in a_lo..a_hi {
        let mut diag = row[0];
        for j in 1..=j_end {
            let up = row[j];
            let mut best = up.max(row[j - 1]);
            let w = score(i, j - 1);
            if w > 0 {
                best = best.max(diag + w);
            }
            diag = up;
            row[j] = best;
        }
    }
}

/// Replays the canonical backtrack through rows `i0..i1`, entering at
/// column `j_end` on row `i1` with `row_i0` holding the exact
/// `T[i0][0..=j_end]`. Emits pairs in descending order and returns the
/// column at which the walk crosses row `i0` (0 once the walk has
/// terminated against the left edge).
fn replay(
    i0: usize,
    i1: usize,
    j_end: usize,
    row_i0: &[u64],
    score: &impl Fn(usize, usize) -> u64,
    out: &mut Vec<(usize, usize)>,
) -> usize {
    if j_end == 0 || i1 <= i0 {
        // The canonical backtrack stops at either edge.
        return j_end;
    }
    if i1 == i0 + 1 {
        let mut row_hi = scratch::take_u64_buf();
        row_hi.extend_from_slice(&row_i0[..=j_end]);
        roll_rows(i0, i1, j_end, score, &mut row_hi);
        let crossing = walk_strip(i0, row_i0, &row_hi, j_end, score, out);
        scratch::give_u64_buf(row_hi);
        return crossing;
    }
    let mid = i0 + (i1 - i0) / 2;
    let mut row_mid = scratch::take_u64_buf();
    row_mid.extend_from_slice(&row_i0[..=j_end]);
    roll_rows(i0, mid, j_end, score, &mut row_mid);
    let j_mid = replay(mid, i1, j_end, &row_mid, score, out);
    scratch::give_u64_buf(row_mid);
    replay(i0, mid, j_mid, row_i0, score, out)
}

/// The height-one base case: the canonical backtrack confined to row
/// `i0 + 1`, walking left from column `j` until it takes a diagonal or
/// up step into row `i0` (returning the crossing column) or exhausts the
/// row (returning 0). `row_lo`/`row_hi` hold exact `T[i0][·]` /
/// `T[i0+1][·]` values, so each comparison is the one the dense
/// backtrack performs.
fn walk_strip(
    i0: usize,
    row_lo: &[u64],
    row_hi: &[u64],
    mut j: usize,
    score: &impl Fn(usize, usize) -> u64,
    out: &mut Vec<(usize, usize)>,
) -> usize {
    while j > 0 {
        let here = row_hi[j];
        let w = score(i0, j - 1);
        if w > 0 && here == row_lo[j - 1] + w {
            out.push((i0, j - 1));
            return j - 1;
        }
        if here == row_lo[j] {
            return j;
        }
        j -= 1;
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eq_score<'a, T: PartialEq>(a: &'a [T], b: &'a [T]) -> impl Fn(usize, usize) -> u64 + 'a {
        move |i, j| u64::from(a[i] == b[j])
    }

    fn check_valid(pairs: &[(usize, usize)], n: usize, m: usize) {
        let mut last: Option<(usize, usize)> = None;
        for &(i, j) in pairs {
            assert!(i < n && j < m, "pair ({i},{j}) out of range");
            if let Some((pi, pj)) = last {
                assert!(i > pi && j > pj, "pairs not strictly increasing");
            }
            last = Some((i, j));
        }
    }

    fn check_identical(n: usize, m: usize, score: &impl Fn(usize, usize) -> u64, tag: &str) {
        let dp = weighted_lcs_dp(n, m, score);
        let hi = weighted_lcs_hirschberg(n, m, score);
        assert_eq!(hi, dp, "{tag}: hirschberg diverged from the dense DP");
    }

    #[test]
    fn classic_string_lcs() {
        let a: Vec<char> = "ABCBDAB".chars().collect();
        let b: Vec<char> = "BDCABA".chars().collect();
        let pairs = lcs_pairs(&a, &b);
        check_valid(&pairs, a.len(), b.len());
        assert_eq!(pairs.len(), 4, "LCS of ABCBDAB/BDCABA has length 4");
        let common: String = pairs.iter().map(|&(i, _)| a[i]).collect();
        assert!(
            ["BCAB", "BCBA", "BDAB"].contains(&common.as_str()),
            "got {common}"
        );
    }

    #[test]
    fn identical_sequences_align_fully() {
        let a = [1, 2, 3, 4, 5];
        let pairs = lcs_pairs(&a, &a);
        assert_eq!(pairs, vec![(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]);
    }

    #[test]
    fn disjoint_sequences_have_empty_lcs() {
        let a = [1, 2, 3];
        let b = [4, 5, 6];
        assert!(lcs_pairs(&a, &b).is_empty());
    }

    #[test]
    fn empty_inputs() {
        let a: [i32; 0] = [];
        let b = [1, 2];
        assert!(lcs_pairs(&a, &b).is_empty());
        assert!(lcs_pairs(&b, &a).is_empty());
        assert!(lcs_pairs(&a, &a).is_empty());
    }

    #[test]
    fn weights_prefer_heavy_match() {
        // a[0] could match b[0] (weight 1) or b[1] (weight 10); choosing
        // b[1] blocks b[0] for later tokens, and is still optimal.
        let score = |i: usize, j: usize| -> u64 {
            match (i, j) {
                (0, 0) => 1,
                (0, 1) => 10,
                _ => 0,
            }
        };
        let pairs = weighted_lcs_dp(1, 2, &score);
        assert_eq!(pairs, vec![(0, 1)]);
    }

    #[test]
    fn weighted_chain_beats_single_heavy() {
        // Two weight-3 matches in sequence beat one weight-5 match that
        // would cross them.
        let score = |i: usize, j: usize| -> u64 {
            match (i, j) {
                (0, 0) => 3,
                (1, 1) => 3,
                (0, 1) => 5,
                _ => 0,
            }
        };
        let pairs = weighted_lcs_dp(2, 2, &score);
        assert_eq!(pairs, vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn hirschberg_matches_dp_pairs_on_random_inputs() {
        // Deterministic pseudo-random sequences over a small alphabet.
        // Pair equality, not just weight equality: the linear-space path
        // must reproduce the canonical backtrack exactly.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for trial in 0..30 {
            let n = 1 + next() % 40;
            let m = 1 + next() % 40;
            let a: Vec<usize> = (0..n).map(|_| next() % 5).collect();
            let b: Vec<usize> = (0..m).map(|_| next() % 5).collect();
            let score = eq_score(&a, &b);
            let dp = weighted_lcs_dp(n, m, &score);
            let hi = weighted_lcs_hirschberg(n, m, &score);
            check_valid(&dp, n, m);
            assert_eq!(hi, dp, "trial {trial}: dp and hirschberg pairs differ");
        }
    }

    #[test]
    fn hirschberg_matches_dp_pairs_with_weights() {
        let mut state = 99u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for _ in 0..20 {
            let n = 1 + next() % 25;
            let m = 1 + next() % 25;
            let weights: Vec<Vec<u64>> = (0..n)
                .map(|_| (0..m).map(|_| (next() % 4) as u64).collect())
                .collect();
            let score = |i: usize, j: usize| weights[i][j];
            let dp = weighted_lcs_dp(n, m, &score);
            let hi = weighted_lcs_hirschberg(n, m, &score);
            assert_eq!(hi, dp);
        }
    }

    #[test]
    fn dispatcher_handles_both_regimes() {
        let a: Vec<u32> = (0..10).collect();
        let b: Vec<u32> = (5..15).collect();
        let pairs = weighted_lcs(a.len(), b.len(), &eq_score(&a, &b));
        assert_eq!(pairs.len(), 5);
        assert_eq!(pairs[0], (5, 0));
    }

    #[test]
    fn single_row_base_case_picks_dp_choice() {
        let score = |_i: usize, j: usize| [2u64, 7, 3][j];
        let pairs = weighted_lcs_hirschberg(1, 3, &score);
        assert_eq!(pairs, weighted_lcs_dp(1, 3, &score));
    }

    #[test]
    fn single_row_no_match_yields_empty() {
        let pairs = weighted_lcs_hirschberg(1, 3, &|_, _| 0);
        assert!(pairs.is_empty());
    }

    #[test]
    fn zero_scores_never_pair() {
        // Even when everything has score 0, no pairs may be emitted.
        let pairs = weighted_lcs_dp(5, 5, &|_, _| 0);
        assert!(pairs.is_empty());
        let pairs = weighted_lcs_hirschberg(5, 5, &|_, _| 0);
        assert!(pairs.is_empty());
    }

    #[test]
    fn empty_and_degenerate() {
        assert!(weighted_lcs_hirschberg(0, 5, &|_, _| 1).is_empty());
        assert!(weighted_lcs_hirschberg(5, 0, &|_, _| 1).is_empty());
        check_identical(1, 1, &|_, _| 1, "1x1 match");
        check_identical(1, 1, &|_, _| 0, "1x1 mismatch");
        check_identical(1, 7, &|_, j| [2u64, 7, 3, 7, 1, 0, 7][j], "single row ties");
        check_identical(
            7,
            1,
            &|i, _| [0u64, 3, 3, 1, 3, 0, 2][i],
            "single column ties",
        );
    }

    #[test]
    fn all_identical_tokens_tiebreak_like_dp() {
        // Every cell matches with equal weight: tie-break torture. The
        // dense backtrack has one canonical answer; the replay must
        // reproduce it exactly.
        for (n, m) in [(3, 3), (2, 6), (6, 2), (8, 5)] {
            check_identical(n, m, &|_, _| 1, "uniform ones");
            check_identical(n, m, &|_, _| 4, "uniform fours");
        }
    }

    #[test]
    fn prefix_repeat_counter_example() {
        // [7,1,7,2] vs [7,2]: the canonical backtrack pairs the *second*
        // 7 — the case that broke greedy prefix trimming must not break
        // the replay either.
        let a = [7u64, 1, 7, 2];
        let b = [7u64, 2];
        let score = |i: usize, j: usize| u64::from(a[i] == b[j]);
        let hi = weighted_lcs_hirschberg(a.len(), b.len(), &score);
        assert_eq!(hi, vec![(2, 0), (3, 1)]);
        check_identical(a.len(), b.len(), &score, "prefix repeat");
    }

    #[test]
    fn zero_scores_emit_nothing() {
        assert!(weighted_lcs_hirschberg(9, 9, &|_, _| 0).is_empty());
    }

    #[test]
    fn randomized_equality_scores_match_dp_pairs() {
        let mut state = 0x5EED_CAFEu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for trial in 0..60 {
            let n = 1 + next() % 50;
            let m = 1 + next() % 50;
            let a: Vec<usize> = (0..n).map(|_| next() % 4).collect();
            let b: Vec<usize> = (0..m).map(|_| next() % 4).collect();
            let score = |i: usize, j: usize| u64::from(a[i] == b[j]);
            check_identical(n, m, &score, &format!("eq trial {trial}"));
        }
    }

    #[test]
    fn randomized_weighted_scores_match_dp_pairs() {
        let mut state = 0xD1CEu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for trial in 0..60 {
            let n = 1 + next() % 30;
            let m = 1 + next() % 30;
            // Dense weight matrices with many ties (small alphabet of
            // weights, lots of zeros) stress every backtrack branch.
            let weights: Vec<u64> = (0..n * m).map(|_| (next() % 5) as u64).collect();
            let score = |i: usize, j: usize| weights[i * m + j];
            check_identical(n, m, &score, &format!("weighted trial {trial}"));
        }
    }

    #[test]
    fn long_thin_and_square_shapes() {
        let a: Vec<u64> = (0..500).map(|x| x % 7).collect();
        let b: Vec<u64> = (0..40).map(|x| (x * 3) % 7).collect();
        let score = |i: usize, j: usize| u64::from(a[i] == b[j]);
        check_identical(a.len(), b.len(), &score, "long x thin");
        check_identical(b.len(), a.len(), &|i, j| score(j, i), "thin x long");
    }

    #[test]
    fn slices_wrapper() {
        let a = ["x", "y", "z"];
        let b = ["y", "z", "w"];
        let pairs = weighted_lcs_slices(&a, &b, &|x: &&str, y: &&str| u64::from(x == y));
        assert_eq!(pairs, vec![(1, 0), (2, 1)]);
    }
}
