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
//! `Page::render` emits clean, uppercase, well-formed markup, so a second
//! table, `htmldiff_golden_messy.txt`, pins what real 1995 pages throw at
//! the tokenizer: the Figure 2 USENIX pair under every [`Presentation`]
//! and with `inline_word_diff`, plus hand-written fixtures with entities,
//! `<PRE>` blocks with CRLF line ends, mixed-case names, reordered and
//! duplicated attributes, unterminated tags and comments, and non-ASCII
//! words. Each line also pins the digest of both documents' token
//! streams, rendered token by token.
//!
//! The golden files change only when the output is *meant* to change.
//! To regenerate one, run the suite with `AIDE_GOLDEN_DUMP=<path>` (or
//! `AIDE_GOLDEN_MESSY_DUMP=<path>`) set and copy the written file over
//! the golden file.

use aide_htmldiff::{html_diff, tokenize, DiffToken, Options, Presentation};
use aide_util::fnv1a64;
use aide_workloads::edits::EditModel;
use aide_workloads::page::Page;
use aide_workloads::rng::Rng;
use aide_workloads::usenix::{USENIX_1995_09_29, USENIX_1995_11_03};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("htmldiff_golden.txt");
const GOLDEN_MESSY: &str = include_str!("htmldiff_golden_messy.txt");

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

/// Hand-written `(name, old, new)` pairs covering markup `Page::render`
/// never emits.
const FIXTURES: &[(&str, &str, &str)] = &[
    (
        "entities",
        "<P>Fish &amp; chips cost &lt;5&gt; &#163;3 today. \
         <A HREF=\"menu.cgi?x=1&amp;y=2\" TITLE=\"Q&amp;A\">Q&amp;A page</A> \
         lists the caf&eacute; hours. &nbsp; Closed on &quot;holidays&quot;.",
        "<P>Fish &amp; chips cost &lt;6&gt; &#163;4 today. \
         <A HREF=\"menu.cgi?x=1&amp;y=3\" TITLE=\"Q&amp;A\">Q&amp;A page</A> \
         lists the caf&eacute; hours. &nbsp; Closed on &quot;Sundays&quot;.",
    ),
    (
        "pre_crlf",
        "<P>Schedule follows.\r\n<PRE>\r\nroom   time\r\nA101   9:00\r\nB202   \
         10:30\r\n</PRE>\r\n<P>End of schedule.\r\n",
        "<P>Schedule follows.\r\n<PRE>\r\nroom   time\r\nA101   9:15\r\nB202   \
         10:30\r\nC303   13:00\r\n</PRE>\r\n<P>End of schedule.\r\n",
    ),
    (
        "mixed_case",
        "<html><Body BGColor=white><h1 Align=Center>Welcome</H1><p>Read \
         <a Href=\"News.html\" name=top>the News</A> and <b>bold</B> text. \
         <Img Src=\"Logo.GIF\" alt=\"Logo\"> shown.</body></HTML>",
        "<HTML><BODY bgcolor=white><H1 ALIGN=Center>Welcome</h1><P>Read \
         <A HREF=\"News.html\" NAME=top>the News</a> and <B>bold</b> text. \
         <IMG SRC=\"logo.gif\" ALT=\"Logo\"> shown.</BODY></html>",
    ),
    (
        "reordered_attrs",
        "<TABLE BORDER=1 WIDTH=\"90%\" CELLPADDING=2><TR ALIGN=left VALIGN=top>\
         <TD NOWRAP WIDTH=10>cell one.</TD><TD COLSPAN=2 NOWRAP NOWRAP>cell two.</TD>\
         </TR></TABLE><HR SIZE=2 NOSHADE><P ALIGN=right CLASS=x>Footer text.",
        "<TABLE CELLPADDING=2 WIDTH=\"90%\" BORDER=1><TR VALIGN=top ALIGN=left>\
         <TD WIDTH=10 NOWRAP>cell one.</TD><TD NOWRAP COLSPAN=2 NOWRAP>cell two!</TD>\
         </TR></TABLE><HR NOSHADE SIZE=2><P CLASS=x ALIGN=left>Footer text.",
    ),
    (
        "unterminated",
        "<P>Opening words here. <B>bold start <!-- a comment --> more text. \
         <I>dangling italic <A HREF=\"x.html\">never closed link text. \
         <P>Last paragraph <!-- comment that never ends <P>hidden",
        "<P>Opening words here. <B>bold start <!-- a comment --> more text! \
         <I>dangling italic <A HREF=\"x.html\">never closed link text. \
         <P>Last paragraph <IMG SRC=\"broken.gif\" ALT=\"half",
    ),
    (
        "non_ascii",
        "<P>Zürich café menus are naïve. Ünïcödé “quoted” words — and 日本語 text. \
         Il a dit «fini.» Résumé ça va? Ελληνικά λέξεις εδώ.",
        "<P>Zürich café menus are naïve. Ünïcödé “quoted” phrases — and 日本語 text. \
         Il a dit «fini.» Résumé ça marche? Ελληνικά λέξεις εδώ.",
    ),
];

fn presentations() -> [(&'static str, Presentation); 5] {
    [
        ("merged", Presentation::Merged),
        ("only_differences", Presentation::OnlyDifferences),
        ("reversed", Presentation::Reversed),
        ("new_only", Presentation::NewOnly),
        ("side_by_side", Presentation::SideBySide),
    ]
}

/// Digest of a document's token stream: each token rendered, breaks
/// and sentences told apart.
fn tokens_digest(html: &str) -> u64 {
    let mut text = String::new();
    for token in tokenize(html).iter() {
        let _ = match token {
            DiffToken::Break(tag) => writeln!(text, "B {tag}"),
            DiffToken::Sentence(s) => writeln!(text, "S {}", s.render()),
        };
    }
    fnv1a64(text.as_bytes())
}

/// Digest of one diff's page and stats, plus both token-stream digests.
fn messy_line(name: &str, old: &str, new: &str, opts: &Options) -> String {
    let r = html_diff(old, new, opts);
    format!(
        "{name} {:016x} {:016x} {:016x}\n",
        fnv1a64(format!("{}\n{:?}\n{}", r.html, r.stats, r.too_muddled).as_bytes()),
        tokens_digest(old),
        tokens_digest(new),
    )
}

/// Every presentation, then the inline word diff and the muddle
/// fallback, for one pair.
fn messy_lines(out: &mut String, name: &str, old: &str, new: &str, base: &Options) {
    for (pname, presentation) in presentations() {
        let opts = Options {
            presentation,
            ..base.clone()
        };
        out.push_str(&messy_line(&format!("{name}/{pname}"), old, new, &opts));
    }
    let inline = Options {
        inline_word_diff: true,
        ..base.clone()
    };
    out.push_str(&messy_line(
        &format!("{name}/inline_word_diff"),
        old,
        new,
        &inline,
    ));
    let fallback = Options {
        fallback_on_muddle: true,
        ..base.clone()
    };
    out.push_str(&messy_line(
        &format!("{name}/fallback"),
        old,
        new,
        &fallback,
    ));
}

fn messy_digests() -> String {
    let mut out = String::new();
    let figure2 = Options {
        old_label: "9/29/95".to_string(),
        new_label: "11/3/95".to_string(),
        ..Options::default()
    };
    messy_lines(
        &mut out,
        "figure2",
        USENIX_1995_09_29,
        USENIX_1995_11_03,
        &figure2,
    );
    for (name, old, new) in FIXTURES {
        messy_lines(&mut out, name, old, new, &Options::default());
        // Reversed roles exercise the old side's markup as new markup.
        messy_lines(
            &mut out,
            &format!("{name}/swapped"),
            new,
            old,
            &Options::default(),
        );
    }
    out
}

#[test]
fn html_diff_messy_fixtures_match_golden_digests() {
    let got = messy_digests();
    if let Ok(path) = std::env::var("AIDE_GOLDEN_MESSY_DUMP") {
        std::fs::write(&path, &got).expect("write golden dump");
    }
    for (want, have) in GOLDEN_MESSY.lines().zip(got.lines()) {
        assert_eq!(have, want, "HtmlDiff output on messy HTML changed");
    }
    assert_eq!(
        GOLDEN_MESSY.lines().count(),
        got.lines().count(),
        "golden case list changed"
    );
}
