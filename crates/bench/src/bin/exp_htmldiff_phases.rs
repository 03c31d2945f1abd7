//! Where one HtmlDiff's CPU goes, phase by phase, on archive-shaped
//! pages.
//!
//! Builds 300 seeded page histories shaped like the measured `archive`
//! workload's (2–6 KB pages, the six edit models cycled, 24 revisions
//! deep), then times the diff of each history's next revision against
//! its head, split into phases:
//!
//! - `lex`: the HTML lexer alone, per page;
//! - `tokenize`: both pages into HtmlDiff token streams;
//! - `compare`: `compare_tokens` (metadata, interning, alignment);
//! - `render`: `diff_tokens` minus `compare` (segments, stats, HTML);
//! - `html_diff`: the whole call, end to end.
//!
//! Single-threaded wall-clock time; each phase is the minimum over
//! `--rounds` passes (default 12) over all pages, reported in µs per
//! diff (per page for `lex`). A last, untimed pass with metrics on
//! prints the alignment work and a digest of every rendered page, which
//! are deterministic: two builds that align alike print the same block.
//! Run with `cargo run --release -p aide-bench --bin exp_htmldiff_phases`.

use aide_htmldiff::present::diff_tokens;
use aide_htmldiff::{compare_tokens, html_diff, tokenize, CompareOptions, Options};
use aide_htmlkit::lexer::lex;
use aide_obs::MetricsRegistry;
use aide_util::checksum::Fnv1a;
use aide_workloads::{EditModel, Page, Rng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const PAGES: usize = 300;
const DEPTH: u64 = 24;

const MODELS: [EditModel; 6] = [
    EditModel::AppendNews,
    EditModel::InPlaceEdit { sentences: 2 },
    EditModel::DeleteBlock,
    EditModel::Reformat,
    EditModel::FullReplace,
    EditModel::LinkChurn {
        added: 3,
        removed: 1,
    },
];

/// `(head, next)` HTML for each history.
fn corpus() -> Vec<(String, String)> {
    (0..PAGES)
        .map(|i| {
            let mut rng = Rng::new(41).fork(0x5EED_0000 + i as u64);
            let size = 2048 + (i as u64).wrapping_mul(0x9E37_79B9) % 4096;
            let mut page = Page::generate(&mut rng, size as usize);
            let mut html = page.render();
            let mut head = html.clone();
            for step in 1..=DEPTH + 1 {
                head = html;
                MODELS[(step as usize - 1) % MODELS.len()].apply(&mut page, &mut rng, step);
                html = page.render();
                if html == head {
                    EditModel::AppendNews.apply(&mut page, &mut rng, step);
                    html = page.render();
                }
            }
            (head, html)
        })
        .collect()
}

/// One timed pass of `f` over `n` inputs, in µs.
fn pass_us(n: usize, f: impl Fn(usize)) -> f64 {
    let t = Instant::now();
    for k in 0..n {
        f(k);
    }
    t.elapsed().as_secs_f64() * 1e6
}

fn main() {
    let mut rounds = 12usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--rounds" => {
                rounds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&r| r > 0)
                    .expect("--rounds N");
            }
            _ => {
                eprintln!("usage: exp_htmldiff_phases [--rounds N]");
                std::process::exit(2);
            }
        }
    }
    let pairs = corpus();
    let bytes: usize = pairs.iter().map(|(o, n)| o.len() + n.len()).sum();
    let opts = Options::default();
    let copts = CompareOptions::default();
    let n = pairs.len() as f64;

    let toks: Vec<_> = pairs
        .iter()
        .map(|(o, nw)| (tokenize(o), tokenize(nw)))
        .collect();
    // Rounds interleave the phases, so drift in the host's speed hits
    // every phase alike; each phase keeps its fastest round.
    let mut best = [f64::INFINITY; 5];
    for _ in 0..rounds {
        let times = [
            pass_us(pairs.len(), |k| {
                black_box(lex(&pairs[k].0));
                black_box(lex(&pairs[k].1));
            }) / 2.0,
            pass_us(pairs.len(), |k| {
                black_box(tokenize(&pairs[k].0));
                black_box(tokenize(&pairs[k].1));
            }),
            pass_us(pairs.len(), |k| {
                black_box(compare_tokens(&toks[k].0, &toks[k].1, &copts));
            }),
            pass_us(pairs.len(), |k| {
                black_box(diff_tokens(&toks[k].0, &toks[k].1, &opts));
            }),
            pass_us(pairs.len(), |k| {
                black_box(html_diff(&pairs[k].0, &pairs[k].1, &opts));
            }),
        ];
        for (b, t) in best.iter_mut().zip(times) {
            *b = b.min(t / n);
        }
    }
    let [lex_us, tok_us, cmp_us, diff_us, total_us] = best;

    println!(
        "{} pairs, mean page {:.0} B, {rounds} rounds (min), single thread\n",
        pairs.len(),
        bytes as f64 / (2.0 * n)
    );
    println!("{:<28} {:>10}", "phase", "us");
    println!("{:<28} {:>10.1}", "lex (per page)", lex_us);
    println!("{:<28} {:>10.1}", "tokenize (both pages)", tok_us);
    println!("{:<28} {:>10.1}", "compare_tokens", cmp_us);
    println!(
        "{:<28} {:>10.1}",
        "render (diff_tokens - cmp)",
        diff_us - cmp_us
    );
    println!("{:<28} {:>10.1}", "html_diff (end to end)", total_us);

    // The alignment work and output, untimed and deterministic.
    let (mut inner, mut screened) = (0, 0);
    for (old, new) in &toks {
        let al = compare_tokens(old, new, &copts);
        inner += al.inner_lcs_evals;
        screened += al.screened_out;
    }
    aide_obs::install(Arc::new(MetricsRegistry::new()));
    let mut digest = Fnv1a::new();
    for (o, nw) in &pairs {
        let r = html_diff(o, nw, &opts);
        digest
            .update(r.html.as_bytes())
            .update(format!("{:?}", r.stats).as_bytes());
    }
    let snap = aide_obs::uninstall().expect("registry").snapshot();
    let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    println!(
        "\nalignment work over all {} diffs (deterministic):",
        pairs.len()
    );
    println!(
        "  diff.fallback.dense      {}",
        count("diff.fallback.dense")
    );
    println!(
        "  diff.fallback.hirschberg {}",
        count("diff.fallback.hirschberg")
    );
    println!("  inner_lcs_evals          {inner}");
    println!("  screened_out             {screened}");
    println!("  output digest            {:016x}", digest.finish());
}
