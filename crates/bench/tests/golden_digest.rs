//! Golden digests of HtmlDiff output.
//!
//! The naive-DP equivalence suites prove the fast path byte-identical,
//! but the naive oracle is quadratic in probes and too slow for the
//! larger pages in a debug test run. This suite pins the output itself
//! instead: the FNV-1a digest of every merged page (and its stats) over
//! seeded page histories — all six edit models at 2–16KB, plus the 32KB
//! in-place and full-replacement pairs the htmldiff bench measures —
//! compared against `htmldiff_golden.txt`. Any change to what HtmlDiff
//! emits, anywhere on its size range, fails here.
//!
//! The golden file changes only when the output is *meant* to change.
//! To regenerate it, run the suite with `AIDE_GOLDEN_DUMP=<path>` set and
//! copy the written file over `htmldiff_golden.txt`.

use aide_htmldiff::{html_diff, Options};
use aide_util::fnv1a64;
use aide_workloads::edits::EditModel;
use aide_workloads::page::Page;
use aide_workloads::rng::Rng;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("htmldiff_golden.txt");

/// Diffs per history: revision k against revision k+1.
const STEPS: u64 = 3;

fn models() -> [(&'static str, EditModel); 6] {
    [
        ("append", EditModel::AppendNews),
        ("inplace", EditModel::InPlaceEdit { sentences: 3 }),
        ("delete", EditModel::DeleteBlock),
        ("reformat", EditModel::Reformat),
        ("replace", EditModel::FullReplace),
        (
            "links",
            EditModel::LinkChurn {
                added: 2,
                removed: 2,
            },
        ),
    ]
}

fn digest(old: &str, new: &str) -> u64 {
    let r = html_diff(old, new, &Options::default());
    fnv1a64(format!("{}\n{:?}", r.html, r.stats).as_bytes())
}

/// One `name digest` line per diff, in a fixed order.
fn digests() -> String {
    let mut out = String::new();
    for (k, (name, model)) in models().into_iter().enumerate() {
        for kb in [2usize, 4, 8, 16] {
            let mut rng = Rng::new(kb as u64 * 1009 + k as u64);
            let mut page = Page::generate(&mut rng, kb * 1024);
            let mut old = page.render();
            for step in 0..STEPS {
                model.apply(&mut page, &mut rng, step);
                let new = page.render();
                let _ = writeln!(out, "{name}/{kb}kb/{step} {:016x}", digest(&old, &new));
                old = new;
            }
        }
    }
    // The htmldiff bench's 32KB pairs, built exactly as the bench does.
    for (name, model) in [
        ("inplace", EditModel::InPlaceEdit { sentences: 2 }),
        ("replace", EditModel::FullReplace),
    ] {
        let mut rng = Rng::new(7);
        let mut page = Page::generate(&mut rng, 32 * 1024);
        let old = page.render();
        model.apply(&mut page, &mut rng, 1);
        let new = page.render();
        let _ = writeln!(out, "{name}/32kb/bench {:016x}", digest(&old, &new));
    }
    out
}

#[test]
fn html_diff_output_matches_golden_digests() {
    let got = digests();
    if let Ok(path) = std::env::var("AIDE_GOLDEN_DUMP") {
        std::fs::write(&path, &got).expect("write golden dump");
    }
    for (want, have) in GOLDEN.lines().zip(got.lines()) {
        assert_eq!(have, want, "HtmlDiff output changed");
    }
    assert_eq!(
        GOLDEN.lines().count(),
        got.lines().count(),
        "golden case list changed"
    );
}
