//! The HtmlDiff comparison algorithm (§5.1).
//!
//! A weighted LCS over the token streams, where:
//!
//! - sentence-breaking markups match only each other, and only when
//!   "identical (modulo whitespace, case, and reordering of
//!   (variable,value) pairs)", with weight 1;
//! - sentences match only sentences, in two steps: a **length screen**
//!   ("if the lengths of two sentences are not 'sufficiently close', then
//!   they do not match") followed by an **inner LCS**: with `W` the
//!   number of words and content-defining markups in the LCS of the two
//!   sentences and `L` the sum of their lengths, the pair matches with
//!   weight `W` iff `2W / L` is sufficiently large.
//!
//! Both thresholds are tunable in [`CompareOptions`]; the defaults
//! reproduce the paper's qualitative behaviour and the ablation
//! experiment sweeps them.
//!
//! # The fast path
//!
//! By default the outer alignment runs through the anchored
//! decomposition of [`aide_diffcore::anchor`] over per-token metadata:
//! the match-class hash and content length that tokenization recorded in
//! each [`TokenStream`], and interned `u32` ids for every sentence item,
//! stored in a per-diff arena drawn from the [`aide_diffcore::scratch`]
//! pools so back-to-back diffs reuse their allocations. Items are
//! interned by the match hashes tokenization recorded, in a table keyed
//! by those hashes and confirmed by [`Inline::matches`] against each
//! id's first item — no word is copied or re-hashed. Score probes are then
//! O(1) screens plus an integer-compare inner LCS instead of deep
//! re-walks of the item lists — and before any inner LCS runs, a
//! multiset-intersection bound over each sentence's *sorted* content ids
//! proves most non-matching pairs apart in a single merge walk (the
//! intersection size is an upper bound on the achievable `W`, so a pair
//! whose bound already fails the `2W/L` threshold is rejected without
//! the DP; pairs that could match still run the exact inner LCS). The
//! output is byte-identical to the
//! naive full DP on edit-structured inputs (the property suite asserts
//! it across the workload edit models); every hash equality that feeds
//! an alignment decision is confirmed with a deep comparison first, so
//! hash collisions cannot corrupt the result. Ablation experiments that
//! must measure the paper's algorithm (probe counts, screen traffic) set
//! [`CompareOptions::force_naive`], which runs the full DP with
//! unchanged counter semantics (the screen/inner-LCS counters increment
//! at the same probe points on every path, prune or no prune).

use crate::token::{DiffToken, Inline, Sentence, TokenStream};
use aide_diffcore::anchor::{anchored_weighted_lcs, AnchorConfig};
use aide_diffcore::lcs::{weighted_lcs, DENSE_MEMO_CELL_LIMIT};
use aide_diffcore::metrics::lcs_ratio;
use aide_diffcore::scratch;
use aide_diffcore::script::Alignment;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

/// Tunables for the comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompareOptions {
    /// Minimum `2W / L` ratio for two sentences to match (the paper's
    /// "sufficiently large" percentage).
    pub match_threshold: f64,
    /// Length screen: the shorter sentence must be at least this fraction
    /// of the longer one ("sufficiently close" lengths). `None` disables
    /// the screen (the ablation case).
    pub length_screen: Option<f64>,
    /// Bypass the anchored fast path and run the naive full DP.
    ///
    /// The fast path produces byte-identical output on real revision
    /// histories, but only the naive DP probes every token pair — so
    /// ablations that report probe counters (`inner_lcs_evals`,
    /// `screened_out`) must set this to measure what the paper measured.
    pub force_naive: bool,
}

impl Default for CompareOptions {
    fn default() -> Self {
        CompareOptions {
            match_threshold: 0.5,
            length_screen: Some(0.4),
            force_naive: false,
        }
    }
}

/// The result of comparing two token streams.
#[derive(Debug, Clone)]
pub struct TokenAlignment {
    /// Matched token index pairs (old, new), with the standard
    /// [`Alignment`] invariants.
    pub alignment: Alignment,
    /// For each matched pair, whether the two tokens are *identical*
    /// (as opposed to approximately matched sentences).
    pub identical: Vec<bool>,
    /// Number of sentence-pair score evaluations that reached the inner
    /// LCS (the quantity the length screen exists to reduce).
    pub inner_lcs_evals: usize,
    /// Number of pairs rejected by the length screen alone.
    pub screened_out: usize,
}

/// The single home of the paper's "sufficiently close" length test —
/// evaluated exactly once per score probe.
fn length_screened(la: usize, lb: usize, opts: &CompareOptions) -> bool {
    match opts.length_screen {
        Some(screen) => {
            let (short, long) = if la < lb { (la, lb) } else { (lb, la) };
            long > 0 && (short as f64) < screen * long as f64
        }
        None => false,
    }
}

/// Computes the weight with which two sentences match; `0` = no match.
///
/// # Examples
///
/// ```
/// use aide_htmldiff::compare::{sentence_match_weight, CompareOptions};
/// use aide_htmldiff::tokenize::tokenize;
///
/// let a = tokenize("the quick brown fox jumps");
/// let b = tokenize("the quick red fox jumps");
/// let (sa, sb) = (a[0].as_sentence().unwrap(), b[0].as_sentence().unwrap());
/// let w = sentence_match_weight(sa, sb, &CompareOptions::default());
/// assert_eq!(w, 4); // the, quick, fox, jumps
/// ```
pub fn sentence_match_weight(a: &Sentence, b: &Sentence, opts: &CompareOptions) -> u64 {
    let la = a.content_len();
    let lb = b.content_len();
    if la == 0 && lb == 0 {
        // Pure-formatting sentences (e.g. a lone <FONT> run): match only
        // if identical.
        return u64::from(a == b);
    }
    if a == b {
        return la.max(1) as u64;
    }
    if length_screened(la, lb, opts) {
        return 0;
    }
    // Inner LCS over sentence items: exact matches only, weight 1 each.
    let pairs = weighted_lcs(a.items.len(), b.items.len(), &|i, j| {
        u64::from(a.items[i].matches(&b.items[j]))
    });
    // W counts only content items among the matches.
    let w = pairs
        .iter()
        .filter(|&&(i, _)| a.items[i].is_content())
        .count() as u64;
    if w == 0 {
        return 0;
    }
    if lcs_ratio(w, la, lb) >= opts.match_threshold {
        w
    } else {
        0
    }
}

/// Interns sentence items into dense `u32` ids, in first-occurrence
/// order, such that `id == id` ⇔ [`Inline::matches`]. The table is keyed
/// by the match hashes tokenization recorded ([`TokenStream::item_hashes`])
/// and borrows its items: a slot whose hash equals the probe's is
/// confirmed with a deep `matches` against that id's first item, so
/// colliding hashes still get distinct ids. Open addressing over a table
/// sized for every item of both streams at load ≤ ½; its buffers come
/// from the [`scratch`] pools.
struct ItemInterner<'t, 'a> {
    /// Ids by slot; [`EMPTY`] marks a free slot.
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: the slot is the top bits of the
    /// multiplied hash.
    shift: u32,
    /// Match hash of each id.
    hashes: Vec<u64>,
    /// First item of each id.
    reps: Vec<&'t Inline<'a>>,
}

const EMPTY: u32 = u32::MAX;

impl<'t, 'a> ItemInterner<'t, 'a> {
    fn with_capacity(items: usize) -> Self {
        let size = (2 * items).next_power_of_two().max(16);
        let mut slots = scratch::take_u32_buf();
        slots.resize(size, EMPTY);
        ItemInterner {
            slots,
            shift: 64 - size.trailing_zeros(),
            hashes: scratch::take_u64_buf(),
            reps: Vec::with_capacity(items),
        }
    }

    /// The id of `item`, whose match hash is `hash`, and whether the id
    /// is new.
    fn intern(&mut self, hash: u64, item: &'t Inline<'a>) -> (u32, bool) {
        let mask = self.slots.len() - 1;
        let mut pos = (hash.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        loop {
            let id = self.slots[pos];
            if id == EMPTY {
                let id = self.reps.len() as u32;
                self.slots[pos] = id;
                self.hashes.push(hash);
                self.reps.push(item);
                return (id, true);
            }
            if self.hashes[id as usize] == hash && self.reps[id as usize].matches(item) {
                return (id, false);
            }
            pos = (pos + 1) & mask;
        }
    }

    fn give(self) {
        scratch::give_u32_buf(self.slots);
        scratch::give_u64_buf(self.hashes);
    }
}

/// The per-diff metadata arena: every token's interned item ids live in
/// one contiguous buffer (tokens hold ranges into it), with a parallel
/// buffer of each sentence's content ids in *sorted* order for the
/// intersection screen. Buffers come from the [`scratch`] pools and are
/// returned when the diff completes, so consecutive diffs on a thread
/// reuse their allocations instead of re-churning hundreds of tiny
/// per-token `Vec`s.
struct MetaArena {
    /// Interned item ids, token-contiguous; shared across both streams
    /// (one interner), so `id == id` ⇔ `Inline::matches`.
    ids: Vec<u32>,
    /// Per-sentence content ids in ascending order.
    sorted_content: Vec<u32>,
    /// Indexed by interned id: is the item content-defining? Content-ness
    /// is a function of the item's match class ([`Inline::is_content`]
    /// depends only on whether it is a word and on the tag name), so it
    /// is stored once per id, not once per occurrence.
    id_is_content: Vec<bool>,
}

impl MetaArena {
    fn take() -> Self {
        MetaArena {
            ids: scratch::take_u32_buf(),
            sorted_content: scratch::take_u32_buf(),
            id_is_content: Vec::new(),
        }
    }

    fn give(self) {
        scratch::give_u32_buf(self.ids);
        scratch::give_u32_buf(self.sorted_content);
    }
}

/// Per-token comparison metadata, precomputed once per stream so score
/// probes never re-walk item lists. Item data lives in the shared
/// [`MetaArena`]; tokens hold ranges.
struct TokenMeta {
    /// [`token_class_hash`]: equal is necessary for a maximal-weight
    /// identical match, unequal proves tokens differ.
    class_hash: u64,
    /// Cached [`Sentence::content_len`] (0 for breaks).
    content_len: usize,
    /// Range of this token's item ids in [`MetaArena::ids`].
    items_start: usize,
    items_end: usize,
    /// Range of this sentence's sorted content ids in
    /// [`MetaArena::sorted_content`].
    sorted_start: usize,
    sorted_end: usize,
    /// Largest multiplicity of any single content id in this sentence
    /// (`0` for breaks / contentless sentences) — the factor that turns
    /// a distinct-id intersection count into a multiset bound.
    max_mult: u64,
    /// True for break tokens (max match weight 1).
    is_break: bool,
}

fn build_meta<'t, 'a>(
    stream: &'t TokenStream<'a>,
    interner: &mut ItemInterner<'t, 'a>,
    arena: &mut MetaArena,
) -> Vec<TokenMeta> {
    stream
        .iter()
        .enumerate()
        .map(|(t, token)| {
            let items_start = arena.ids.len();
            let sorted_start = arena.sorted_content.len();
            let mut max_mult = 0u64;
            if let DiffToken::Sentence(s) = token {
                for (it, &hash) in s.items.iter().zip(stream.item_hashes(t)) {
                    let (id, new) = interner.intern(hash, it);
                    if new {
                        arena.id_is_content.push(it.is_content());
                    }
                    arena.ids.push(id);
                    if arena.id_is_content[id as usize] {
                        arena.sorted_content.push(id);
                    }
                }
                arena.sorted_content[sorted_start..].sort_unstable();
                let mut run = 0u64;
                let mut prev = None;
                for &id in &arena.sorted_content[sorted_start..] {
                    run = if Some(id) == prev { run + 1 } else { 1 };
                    prev = Some(id);
                    max_mult = max_mult.max(run);
                }
            }
            TokenMeta {
                class_hash: stream.class_hash(t),
                content_len: stream.content_len(t),
                items_start,
                items_end: arena.ids.len(),
                sorted_start,
                sorted_end: arena.sorted_content.len(),
                max_mult,
                is_break: token.is_break(),
            }
        })
        .collect()
}

/// Whether the multiset intersection of two ascending id slices — the
/// largest possible number of disjoint equal-id pairs between them —
/// reaches `needed`. Exits as soon as the answer is decided in either
/// direction: `needed` matches accumulated (true), or too few candidates
/// remain on the shorter side to ever get there (false), so mismatched
/// sentence pairs pay far less than a full merge walk.
fn intersection_reaches(a: &[u32], b: &[u32], needed: u64) -> bool {
    let (mut x, mut y, mut got) = (0usize, 0usize, 0u64);
    loop {
        if got >= needed {
            return true;
        }
        if got + ((a.len() - x).min(b.len() - y) as u64) < needed {
            return false;
        }
        match a[x].cmp(&b[y]) {
            std::cmp::Ordering::Less => x += 1,
            std::cmp::Ordering::Greater => y += 1,
            std::cmp::Ordering::Equal => {
                got += 1;
                x += 1;
                y += 1;
            }
        }
    }
}

/// Smallest weight `w` whose [`lcs_ratio`] against combined length `l`
/// clears `threshold` — computed with the exact same float comparison
/// the full scoring path uses ([`lcs_ratio`] depends only on `la + lb`),
/// so prune and full path agree verdict-for-verdict. Never below 1: a
/// zero-weight match is rejected unconditionally.
fn min_weight_to_pass(l: usize, threshold: f64) -> u64 {
    let mut w = ((threshold * l as f64) / 2.0).ceil() as u64;
    while w > 1 && lcs_ratio(w - 1, l, 0) >= threshold {
        w -= 1;
    }
    while lcs_ratio(w, l, 0) < threshold {
        w += 1;
    }
    w.max(1)
}

/// Per-compare prune table: `needed[l]` is [`min_weight_to_pass`] for
/// combined content length `l`, precomputed once so the hot probe path
/// replaces float math with an indexed load.
fn build_needed_table(mo: &[TokenMeta], mn: &[TokenMeta], threshold: f64) -> Vec<u64> {
    let max_a = mo.iter().map(|m| m.content_len).max().unwrap_or(0);
    let max_b = mn.iter().map(|m| m.content_len).max().unwrap_or(0);
    (0..=max_a + max_b)
        .map(|l| min_weight_to_pass(l, threshold))
        .collect()
}

/// Per-compare probe acceleration tables: the prune-threshold lookup
/// plus a per-token content-id bitmap matrix (one row per token, old
/// stream first) over the shared interner's id space. The bitmaps are
/// *exact*, not hashed — bit `id` is set iff the sentence contains
/// content id `id` — so `popcount(row_a & row_b)` is exactly the number
/// of distinct shared content ids, and `distinct · min(max_mult)` is a
/// sound upper bound on the multiset intersection the merge walk would
/// compute. Most mismatched sentence pairs are rejected by a few
/// word-sized ANDs without ever entering the walk.
struct ProbeTables {
    needed: Vec<u64>,
    sig: Vec<u64>,
    sig_words: usize,
    new_row_base: usize,
}

fn build_probe_tables(
    mo: &[TokenMeta],
    mn: &[TokenMeta],
    arena: &MetaArena,
    vocab: usize,
    threshold: f64,
) -> ProbeTables {
    let sig_words = vocab.div_ceil(64);
    let mut sig = scratch::take_u64_buf();
    sig.clear();
    sig.resize((mo.len() + mn.len()) * sig_words, 0);
    for (row, m) in mo.iter().chain(mn.iter()).enumerate() {
        let base = row * sig_words;
        for &id in &arena.sorted_content[m.sorted_start..m.sorted_end] {
            sig[base + (id as usize >> 6)] |= 1u64 << (id & 63);
        }
    }
    ProbeTables {
        needed: build_needed_table(mo, mn, threshold),
        sig,
        sig_words,
        new_row_base: mo.len(),
    }
}

/// Probe counters: sentence pairs that reached the inner LCS, and pairs
/// the length screen rejected.
#[derive(Default)]
struct ScoreCounters {
    inner: Cell<usize>,
    screened: Cell<usize>,
}

/// Scores token pair `(i, j)` through the precomputed metadata. Pure
/// (same inputs → same output); exact-match decisions gate on hashes but
/// confirm with deep comparison, so the score function — and therefore
/// the alignment — is collision-proof.
#[allow(clippy::too_many_arguments)]
fn score_with_meta(
    old: &[DiffToken],
    new: &[DiffToken],
    mo: &[TokenMeta],
    mn: &[TokenMeta],
    arena: &MetaArena,
    i: usize,
    j: usize,
    opts: &CompareOptions,
    tables: &ProbeTables,
    counters: &ScoreCounters,
) -> u64 {
    // Dispatch on the compact metadata, not the token enums: break
    // probes decide on two meta loads and only a hash-equal break pair
    // (a plausible match) pays for touching the tokens themselves.
    if mo[i].is_break || mn[j].is_break {
        if mo[i].is_break && mn[j].is_break && mo[i].class_hash == mn[j].class_hash {
            if let (DiffToken::Break(ta), DiffToken::Break(tb)) = (&old[i], &new[j]) {
                return u64::from(ta.matches_modulo_order(tb));
            }
        }
        return 0;
    }
    // Track screen/inner-LCS traffic for the ablation experiment.
    let la = mo[i].content_len;
    let lb = mn[j].content_len;
    if length_screened(la, lb, opts) {
        counters.screened.set(counters.screened.get() + 1);
        return 0;
    }
    let eq = mo[i].class_hash == mn[j].class_hash && old[i] == new[j];
    if !eq {
        counters.inner.set(counters.inner.get() + 1);
    }
    if la == 0 && lb == 0 {
        return u64::from(eq);
    }
    if eq {
        return la.max(1) as u64;
    }
    // Intersection prune: the inner LCS's W counts content items
    // matched by equal ids, and matched pairs are disjoint, so W
    // can never exceed the multiset intersection of the two
    // sentences' content-id multisets. A merge walk over the
    // presorted ids decides whether that bound can reach the
    // smallest weight the `2W/L` threshold accepts — bailing the
    // moment the answer is known either way — and when it cannot,
    // the exact DP is skipped with an identical verdict. This
    // runs *after* the counter increments so probe statistics
    // are unchanged.
    let needed = tables.needed[la + lb];
    if (la.min(lb) as u64) < needed {
        return 0;
    }
    // Bitmap prefilter: count distinct shared content ids with word-wide
    // ANDs; if even `distinct · min(max_mult)` cannot reach `needed`,
    // neither can the multiset intersection, so the walk is skipped with
    // an identical verdict.
    let w = tables.sig_words;
    let rowa = &tables.sig[i * w..(i + 1) * w];
    let rowb = &tables.sig[(tables.new_row_base + j) * w..(tables.new_row_base + j + 1) * w];
    let distinct: u32 = rowa
        .iter()
        .zip(rowb)
        .map(|(x, y)| (x & y).count_ones())
        .sum();
    if u64::from(distinct) * mo[i].max_mult.min(mn[j].max_mult) < needed {
        return 0;
    }
    let sca = &arena.sorted_content[mo[i].sorted_start..mo[i].sorted_end];
    let scb = &arena.sorted_content[mn[j].sorted_start..mn[j].sorted_end];
    if !intersection_reaches(sca, scb, needed) {
        return 0;
    }
    let aid = &arena.ids[mo[i].items_start..mo[i].items_end];
    let bid = &arena.ids[mn[j].items_start..mn[j].items_end];
    let pairs = weighted_lcs(aid.len(), bid.len(), &|x, y| u64::from(aid[x] == bid[y]));
    let w = pairs
        .iter()
        .filter(|&&(x, _)| arena.id_is_content[aid[x] as usize])
        .count() as u64;
    if w == 0 {
        return 0;
    }
    if lcs_ratio(w, la, lb) >= opts.match_threshold {
        w
    } else {
        0
    }
}

/// Deep equality for alignment decisions: breaks modulo attribute order
/// (their match predicate), sentences exactly.
fn tokens_identical(a: &DiffToken, b: &DiffToken) -> bool {
    match (a, b) {
        (DiffToken::Break(ta), DiffToken::Break(tb)) => ta.matches_modulo_order(tb),
        (DiffToken::Sentence(_), DiffToken::Sentence(_)) => a == b,
        _ => false,
    }
}

/// The naive full DP with a flat memo (the pre-fast-path algorithm,
/// preserved exactly for the ablation experiments): every probe the
/// dispatcher makes is recorded once per distinct pair.
fn naive_pairs(n: usize, m: usize, score: &impl Fn(usize, usize) -> u64) -> Vec<(usize, usize)> {
    let cells = n.saturating_mul(m);
    if cells == 0 {
        return Vec::new();
    }
    // Dense memo when it fits; the sparse fallback keeps memory bounded
    // for pathological inputs under Hirschberg.
    if cells <= DENSE_MEMO_CELL_LIMIT {
        let memo: Vec<Cell<u64>> = vec![Cell::new(u64::MAX); cells];
        let memoized = |i: usize, j: usize| {
            let c = &memo[i * m + j];
            if c.get() == u64::MAX {
                c.set(score(i, j));
            }
            c.get()
        };
        weighted_lcs(n, m, &memoized)
    } else {
        let memo: RefCell<HashMap<(usize, usize), u64>> = RefCell::new(HashMap::new());
        let memoized = |i: usize, j: usize| {
            if let Some(&w) = memo.borrow().get(&(i, j)) {
                return w;
            }
            let w = score(i, j);
            memo.borrow_mut().insert((i, j), w);
            w
        };
        weighted_lcs(n, m, &memoized)
    }
}

/// Aligns two token streams with the weighted LCS.
///
/// Runs the anchored fast path by default and the naive full DP under
/// [`CompareOptions::force_naive`]; both produce the same output on real
/// inputs (see the module docs for the exact guarantee).
pub fn compare_tokens(
    old: &TokenStream<'_>,
    new: &TokenStream<'_>,
    opts: &CompareOptions,
) -> TokenAlignment {
    let mut arena = MetaArena::take();
    let (mo, mn) = build_metas(old, new, &mut arena);
    align(old, new, &mo, &mn, arena, opts)
}

/// Both streams' metadata, their items interned into one id space.
fn build_metas(
    old: &TokenStream<'_>,
    new: &TokenStream<'_>,
    arena: &mut MetaArena,
) -> (Vec<TokenMeta>, Vec<TokenMeta>) {
    let mut interner = ItemInterner::with_capacity(old.item_count() + new.item_count());
    let mo = build_meta(old, &mut interner, arena);
    let mn = build_meta(new, &mut interner, arena);
    interner.give();
    (mo, mn)
}

/// The alignment proper, over precomputed metadata; returns the arena's
/// buffers to the pools.
fn align(
    old: &[DiffToken<'_>],
    new: &[DiffToken<'_>],
    mo: &[TokenMeta],
    mn: &[TokenMeta],
    arena: MetaArena,
    opts: &CompareOptions,
) -> TokenAlignment {
    let counters = ScoreCounters::default();
    let vocab = arena.id_is_content.len();
    let tables = build_probe_tables(mo, mn, &arena, vocab, opts.match_threshold);
    let arena_ref = &arena;
    let score = |i: usize, j: usize| {
        score_with_meta(old, new, mo, mn, arena_ref, i, j, opts, &tables, &counters)
    };

    aide_obs::counter("htmldiff.compare", 1);
    let pairs = if opts.force_naive {
        aide_obs::observe("htmldiff.naive.cells", (old.len() * new.len()) as u64);
        // The naive path's one rectangle is its own "gap": classify it
        // the way the anchored path classifies gaps so diff.fallback.*
        // counters cover both paths.
        if old.len().saturating_mul(new.len()) <= DENSE_MEMO_CELL_LIMIT {
            aide_obs::counter("diff.fallback.dense", 1);
        } else {
            aide_obs::counter("diff.fallback.hirschberg", 1);
        }
        naive_pairs(old.len(), new.len(), &score)
    } else {
        let mut a_ids = scratch::take_u64_buf();
        a_ids.extend(mo.iter().map(|m| m.class_hash));
        let mut b_ids = scratch::take_u64_buf();
        b_ids.extend(mn.iter().map(|m| m.class_hash));
        let verify = |i: usize, j: usize| tokens_identical(&old[i], &new[j]);
        let (pairs, astats) =
            anchored_weighted_lcs(&a_ids, &b_ids, &AnchorConfig::default(), &score, &verify);
        scratch::give_u64_buf(a_ids);
        scratch::give_u64_buf(b_ids);
        aide_obs::counter("diff.fallback.dense", astats.dense_gaps as u64);
        aide_obs::counter("diff.fallback.hirschberg", astats.hirschberg_gaps as u64);
        if aide_obs::enabled() {
            // Per-diff alignment work, in deterministic units: the
            // virtual clock never advances during CPU work, so cell and
            // anchor counts stand in for stage timings.
            aide_obs::observe("htmldiff.anchor.anchors", astats.anchors as u64);
            aide_obs::observe("htmldiff.anchor.gaps", astats.gaps as u64);
            aide_obs::observe("htmldiff.anchor.gap_cells", astats.gap_cells as u64);
            aide_obs::observe("htmldiff.anchor.full_cells", astats.full_cells as u64);
            aide_obs::observe(
                "htmldiff.anchor.coverage_permille",
                astats.coverage_permille(),
            );
        }
        pairs
    };

    // Matched breaks are identical by construction (the match predicate
    // is modulo-order equality); sentence identity gates on the class
    // hash before paying for the deep comparison.
    let identical = pairs
        .iter()
        .map(|&(i, j)| match (&old[i], &new[j]) {
            (DiffToken::Break(_), DiffToken::Break(_)) => true,
            _ => mo[i].class_hash == mn[j].class_hash && old[i] == new[j],
        })
        .collect();
    arena.give();
    scratch::give_u64_buf(tables.sig);
    if aide_obs::enabled() {
        aide_obs::observe(
            "htmldiff.compare.inner_lcs_evals",
            counters.inner.get() as u64,
        );
        aide_obs::observe(
            "htmldiff.compare.screened_out",
            counters.screened.get() as u64,
        );
        // Pooled scratch capacity on this thread after the diff — the
        // arena-reuse health gauge.
        aide_obs::gauge("diff.scratch.bytes", scratch::retained_bytes() as u64);
    }
    TokenAlignment {
        alignment: Alignment::new(pairs, old.len(), new.len()),
        identical,
        inner_lcs_evals: counters.inner.get(),
        screened_out: counters.screened.get(),
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::tokenize;

    fn first_sentence(html: &str) -> Sentence<'_> {
        tokenize(html)
            .into_iter()
            .find_map(|t| match t {
                DiffToken::Sentence(s) => Some(s),
                _ => None,
            })
            .expect("a sentence")
    }

    fn naive_opts() -> CompareOptions {
        CompareOptions {
            force_naive: true,
            ..CompareOptions::default()
        }
    }

    #[test]
    fn identical_sentences_match_with_full_weight() {
        let s = first_sentence("five words are in here");
        assert_eq!(sentence_match_weight(&s, &s, &CompareOptions::default()), 5);
    }

    #[test]
    fn one_word_change_still_matches() {
        let a = first_sentence("the conference starts on Monday");
        let b = first_sentence("the conference starts on Tuesday");
        let w = sentence_match_weight(&a, &b, &CompareOptions::default());
        assert_eq!(w, 4);
    }

    #[test]
    fn unrelated_sentences_do_not_match() {
        let a = first_sentence("alpha beta gamma delta");
        let b = first_sentence("one two three four");
        assert_eq!(sentence_match_weight(&a, &b, &CompareOptions::default()), 0);
    }

    #[test]
    fn length_screen_rejects_disparate_lengths() {
        let a = first_sentence("word");
        let b = first_sentence("word plus nine more words to stretch the length out");
        let screened = CompareOptions::default();
        assert_eq!(sentence_match_weight(&a, &b, &screened), 0);
        let unscreened = CompareOptions {
            length_screen: None,
            ..screened
        };
        // Without the screen the inner LCS runs; ratio 2*1/11 fails anyway.
        assert_eq!(sentence_match_weight(&a, &b, &unscreened), 0);
    }

    #[test]
    fn threshold_sweep_changes_verdict() {
        let a = first_sentence("one two three four five six");
        let b = first_sentence("one two NEW four NEW NEW");
        // LCS = one,two,four → W=3, L=12, ratio 0.5.
        let strict = CompareOptions {
            match_threshold: 0.6,
            length_screen: None,
            ..CompareOptions::default()
        };
        let lax = CompareOptions {
            match_threshold: 0.5,
            length_screen: None,
            ..CompareOptions::default()
        };
        assert_eq!(sentence_match_weight(&a, &b, &strict), 0);
        assert_eq!(sentence_match_weight(&a, &b, &lax), 3);
    }

    #[test]
    fn changed_anchor_url_still_matches_sentence() {
        // §5.2's example: same text, different HREF.
        let a = first_sentence(r#"read the <A HREF="old.html">report</A> today"#);
        let b = first_sentence(r#"read the <A HREF="new.html">report</A> today"#);
        let w = sentence_match_weight(&a, &b, &CompareOptions::default());
        // Words all match (4); the <A> markups do not; </A> does.
        assert!(w >= 4, "weight {w}");
    }

    #[test]
    fn markup_only_sentences() {
        let a = first_sentence("<FONT SIZE=3>x</FONT>");
        let mut only_markup = a.clone();
        only_markup.items.retain(|i| !i.is_word());
        assert_eq!(only_markup.content_len(), 0);
        assert_eq!(
            sentence_match_weight(&only_markup, &only_markup, &CompareOptions::default()),
            1
        );
    }

    #[test]
    fn break_tokens_match_exactly_only() {
        let old = tokenize("<P>x");
        let new_same = tokenize("<P>x");
        let new_diff = tokenize("<UL>x");
        let al = compare_tokens(&old, &new_same, &CompareOptions::default());
        assert_eq!(al.alignment.pairs.len(), 2);
        let al = compare_tokens(&old, &new_diff, &CompareOptions::default());
        // Only the sentence matches; <P> vs <UL> do not.
        assert_eq!(al.alignment.pairs.len(), 1);
    }

    #[test]
    fn break_attrs_modulo_order() {
        let old = tokenize(r#"<TABLE BORDER=1 WIDTH="90%">x"#);
        let new = tokenize(r#"<table width="90%" border=1>x"#);
        let al = compare_tokens(&old, &new, &CompareOptions::default());
        assert_eq!(al.alignment.pairs.len(), 2);
        assert!(al.identical.iter().all(|&b| b));
    }

    #[test]
    fn identical_flags_distinguish_approximate_matches() {
        let old = tokenize("<P>stable sentence here. changed a little bit now");
        let new = tokenize("<P>stable sentence here. changed a little bit later");
        let al = compare_tokens(&old, &new, &CompareOptions::default());
        assert_eq!(al.alignment.pairs.len(), 3); // <P>, sentence, sentence
        assert_eq!(al.identical, vec![true, true, false]);
    }

    #[test]
    fn paragraph_to_list_content_fully_matched() {
        let old = tokenize("<P>One fish. Two fish. Red fish.");
        let new = tokenize("<UL><LI>One fish.<LI>Two fish.<LI>Red fish.</UL>");
        let al = compare_tokens(&old, &new, &CompareOptions::default());
        let matched_sentences = al
            .alignment
            .pairs
            .iter()
            .filter(|&&(i, _)| !old[i].is_break())
            .count();
        assert_eq!(matched_sentences, 3, "all content matches");
    }

    #[test]
    fn screen_counter_reports_savings() {
        // Probe-count assertions describe the paper's algorithm, so both
        // arms run the naive DP: the fast path trims/anchors away most
        // probes, making its counters a property of the optimization
        // rather than of the screen.
        let old = tokenize("tiny. a much longer sentence with many many words inside it.");
        let new = tokenize("tiny. another much longer sentence with many different words within.");
        let with = compare_tokens(&old, &new, &naive_opts());
        let without = compare_tokens(
            &old,
            &new,
            &CompareOptions {
                length_screen: None,
                ..naive_opts()
            },
        );
        assert!(with.screened_out > 0);
        assert!(without.screened_out == 0);
        assert!(without.inner_lcs_evals >= with.inner_lcs_evals);
    }

    #[test]
    fn empty_streams() {
        let empty = TokenStream::default();
        let al = compare_tokens(&empty, &empty, &CompareOptions::default());
        assert!(al.alignment.pairs.is_empty());
        let old = tokenize("<P>content here");
        let al = compare_tokens(&old, &empty, &CompareOptions::default());
        assert!(al.alignment.pairs.is_empty());
    }

    /// Edit-structured document pairs on which fast and naive paths must
    /// agree exactly.
    fn revision_pairs() -> Vec<(String, String)> {
        let base = "<H1>Weekly notes</H1>\
            <P>The quick brown fox jumps over the lazy dog near the river bank. \
            Monday brings a staff meeting at ten with coffee and agendas. \
            <P>Tuesday the build system gets upgraded to the new release. \
            Wednesday is reserved for design review of the cache layer. \
            <UL><LI>first item stays<LI>second item stays<LI>third item stays</UL>\
            <P>Thursday we measure throughput under the synthetic workload mix. \
            Friday wraps up with a retrospective and planning for next week.";
        vec![
            // In-place sentence edit.
            (
                base.to_string(),
                base.replace("staff meeting at ten", "staff meeting at noon"),
            ),
            // Deleted block.
            (base.to_string(), base.replace("<LI>second item stays", "")),
            // Inserted block.
            (
                base.to_string(),
                base.replace(
                    "<P>Thursday",
                    "<P>A new paragraph appears here with fresh words. <P>Thursday",
                ),
            ),
            // Attribute churn on a break plus a reword.
            (
                base.replace("<UL>", r#"<UL TYPE="disc" COMPACT>"#),
                base.replace("<UL>", r#"<UL COMPACT TYPE="disc">"#)
                    .replace("lazy dog", "sleepy dog"),
            ),
            // Full replace.
            (
                base.to_string(),
                "<P>Entirely different content with no overlap at all here.".to_string(),
            ),
            // Identical.
            (base.to_string(), base.to_string()),
        ]
    }

    #[test]
    fn fast_path_matches_naive_on_edit_structured_inputs() {
        for (old_html, new_html) in revision_pairs() {
            let old = tokenize(&old_html);
            let new = tokenize(&new_html);
            let fast = compare_tokens(&old, &new, &CompareOptions::default());
            let naive = compare_tokens(&old, &new, &naive_opts());
            assert_eq!(fast.alignment.pairs, naive.alignment.pairs);
            assert_eq!(fast.identical, naive.identical);
        }
    }

    #[test]
    fn fast_path_probes_fewer_pairs() {
        // The point of the optimization: trims and anchors skip most
        // score probes on a mostly-unchanged document.
        let (old_html, new_html) = revision_pairs().remove(0);
        let old = tokenize(&old_html);
        let new = tokenize(&new_html);
        let fast = compare_tokens(&old, &new, &CompareOptions::default());
        let naive = compare_tokens(&old, &new, &naive_opts());
        assert!(
            fast.inner_lcs_evals + fast.screened_out < naive.inner_lcs_evals + naive.screened_out,
            "fast {}+{} vs naive {}+{}",
            fast.inner_lcs_evals,
            fast.screened_out,
            naive.inner_lcs_evals,
            naive.screened_out
        );
    }
}
