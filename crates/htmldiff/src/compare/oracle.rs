//! The token pipeline as it stood before words were borrowed, kept as a
//! differential oracle for the one that replaced it.
//!
//! The old pipeline copied every word into a `String` at tokenization,
//! interned sentence items through a `HashMap` keyed by an owned
//! [`ItemKey`] (attributes cloned and sorted), and re-walked every byte
//! of every token to compute its FNV class hash when building the
//! comparison metadata. The property test below drives both pipelines
//! over random messy HTML and asserts they agree on everything the
//! alignment consumes:
//!
//! - the token streams, token by token and word by word;
//! - the item ids, exactly (both are dense, in first-occurrence order),
//!   and that they partition items exactly as [`Inline::matches`] does;
//! - that class-hash equality never misses a pair [`tokens_identical`]
//!   calls equal, and that the recorded hashes partition tokens as the
//!   old FNV hashes did;
//! - the aligned pairs, `identical` flags and probe counters, fast path
//!   and naive DP, when the alignment runs on either pipeline's
//!   metadata.
//!
//! A second property guards the point of the change: every word the
//! tokenizer emits is a slice of the source document, not a copy.

use super::*;
use crate::token::token_class_hash;
use crate::tokenize::tokenize;
use aide_diffcore::Interner;
use aide_htmlkit::classify::{is_sentence_breaking, preserves_whitespace};
use aide_htmlkit::lexer::{lex, Tag, TagKind, Token};
use aide_htmlkit::text::split_words;
use aide_util::checksum::Fnv1a;
use proptest::prelude::*;

/// An owned copy of an [`Inline`], as the old tokenizer produced.
#[derive(Debug, Clone, PartialEq, Eq)]
enum OwnedInline {
    Word(String),
    Markup(Tag),
}

/// An owned copy of a [`DiffToken`].
#[derive(Debug, Clone, PartialEq, Eq)]
enum OwnedToken {
    Break(Tag),
    Sentence(Vec<OwnedInline>),
}

/// The old tokenizer: the same lexical rules, every word copied.
fn tokenize_owned(html: &str) -> Vec<OwnedToken> {
    let mut out = Vec::new();
    let mut current = Vec::new();
    let mut pre_depth = 0usize;
    let flush = |current: &mut Vec<OwnedInline>, out: &mut Vec<OwnedToken>| {
        if !current.is_empty() {
            out.push(OwnedToken::Sentence(std::mem::take(current)));
        }
    };
    for token in lex(html) {
        match token {
            Token::Comment(_) | Token::Declaration(_) => {}
            Token::Tag(tag) => {
                if preserves_whitespace(&tag.name) {
                    if tag.kind == TagKind::Close {
                        pre_depth = pre_depth.saturating_sub(1);
                    } else {
                        pre_depth += 1;
                    }
                }
                if is_sentence_breaking(&tag.name) {
                    flush(&mut current, &mut out);
                    out.push(OwnedToken::Break(tag));
                } else {
                    current.push(OwnedInline::Markup(tag));
                }
            }
            Token::Text(text) => {
                if pre_depth > 0 {
                    for (k, line) in text.split('\n').enumerate() {
                        if k > 0 {
                            flush(&mut current, &mut out);
                        }
                        if !line.is_empty() {
                            current.push(OwnedInline::Word(line.to_string()));
                        }
                    }
                } else {
                    for word in split_words(text) {
                        current.push(OwnedInline::Word(word.text.to_string()));
                        if word.ends_sentence {
                            flush(&mut current, &mut out);
                        }
                    }
                }
            }
        }
    }
    flush(&mut current, &mut out);
    out
}

/// Owned copies of the new pipeline's tokens, for comparison.
fn owned(tokens: &[DiffToken<'_>]) -> Vec<OwnedToken> {
    tokens
        .iter()
        .map(|t| match t {
            DiffToken::Break(tag) => OwnedToken::Break(tag.clone()),
            DiffToken::Sentence(s) => OwnedToken::Sentence(
                s.items
                    .iter()
                    .map(|i| match i {
                        Inline::Word(w) => OwnedInline::Word(w.to_string()),
                        Inline::Markup(tag) => OwnedInline::Markup(tag.clone()),
                    })
                    .collect(),
            ),
        })
        .collect()
}

/// The equivalence class of one sentence item under [`Inline::matches`],
/// owned: words verbatim, markups with attributes sorted.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ItemKey {
    Word(String),
    Markup(String, TagKind, Vec<(String, Option<String>)>),
}

fn item_key(item: &Inline<'_>) -> ItemKey {
    match item {
        Inline::Word(w) => ItemKey::Word(w.to_string()),
        Inline::Markup(tag) => {
            let mut attrs = tag.attrs.clone();
            attrs.sort();
            ItemKey::Markup(tag.name.clone(), tag.kind, attrs)
        }
    }
}

fn kind_byte(kind: TagKind) -> u8 {
    match kind {
        TagKind::Open => 0,
        TagKind::Close => 1,
        TagKind::SelfClose => 2,
    }
}

fn fnv_tag(h: &mut Fnv1a, tag: &Tag, modulo_order: bool) {
    h.update(tag.name.as_bytes())
        .update(&[0xFE, kind_byte(tag.kind)]);
    let mut attrs: Vec<_> = tag.attrs.iter().collect();
    if modulo_order {
        attrs.sort();
    }
    for (name, value) in attrs {
        h.update(&[0xFD]).update(name.as_bytes());
        match value {
            Some(v) => h.update(&[1]).update(v.as_bytes()),
            None => h.update(&[0]),
        };
    }
}

/// The old class hash: FNV-1a over every byte of the token.
fn fnv_class_hash(token: &DiffToken<'_>) -> u64 {
    let mut h = Fnv1a::new();
    match token {
        DiffToken::Break(tag) => {
            h.update(&[0xB0]);
            fnv_tag(&mut h, tag, true);
        }
        DiffToken::Sentence(s) => {
            h.update(&[0x50]);
            for item in &s.items {
                match item {
                    Inline::Word(w) => {
                        h.update(&[0xF1]).update(w.as_bytes());
                    }
                    Inline::Markup(tag) => {
                        h.update(&[0xF2]);
                        fnv_tag(&mut h, tag, false);
                    }
                }
                h.update(&[0xFF]);
            }
        }
    }
    h.finish()
}

/// The old metadata build: owned keys through a `HashMap` interner,
/// class hash and content length recomputed from the bytes.
fn oracle_meta(
    tokens: &[DiffToken<'_>],
    interner: &mut Interner<ItemKey>,
    arena: &mut MetaArena,
) -> Vec<TokenMeta> {
    tokens
        .iter()
        .map(|t| {
            let items_start = arena.ids.len();
            let sorted_start = arena.sorted_content.len();
            let mut max_mult = 0u64;
            let mut content_len = 0;
            if let DiffToken::Sentence(s) = t {
                for it in &s.items {
                    let id = interner.intern(item_key(it));
                    if id as usize == arena.id_is_content.len() {
                        arena.id_is_content.push(it.is_content());
                    }
                    arena.ids.push(id);
                }
                for k in items_start..arena.ids.len() {
                    let id = arena.ids[k];
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
                content_len = s.content_len();
            }
            TokenMeta {
                class_hash: fnv_class_hash(t),
                content_len,
                items_start,
                items_end: arena.ids.len(),
                sorted_start,
                sorted_end: arena.sorted_content.len(),
                max_mult,
                is_break: t.is_break(),
            }
        })
        .collect()
}

/// Everything in a [`TokenMeta`] but the hash, whose values differ by
/// design between the pipelines.
fn shape(m: &[TokenMeta]) -> Vec<(usize, usize, usize, usize, usize, u64, bool)> {
    m.iter()
        .map(|m| {
            (
                m.content_len,
                m.items_start,
                m.items_end,
                m.sorted_start,
                m.sorted_end,
                m.max_mult,
                m.is_break,
            )
        })
        .collect()
}

/// Pieces of messy 1995 HTML: entities in text and attribute values,
/// `<PRE>` with CRLF line ends, mixed-case and reordered or duplicated
/// attributes on breaking and inline markups, unterminated tags and
/// comments, non-ASCII words and Unicode whitespace.
fn piece() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("<P>"),
        Just("<p align=center>"),
        Just("<P ALIGN=Center>"),
        Just(r#"<TABLE BORDER=1 WIDTH="90%">"#),
        Just(r#"<table width="90%" border=1>"#),
        Just("<TD NOWRAP NOWRAP COLSPAN=2>"),
        Just("<td colspan=2 nowrap nowrap>"),
        Just("<TD NOWRAP COLSPAN=2>"),
        Just("<HR SIZE=2 NOSHADE>"),
        Just("<hr noshade size=2>"),
        Just("<LI>"),
        Just("<H2>"),
        Just("</h2>"),
        Just("<B>"),
        Just("</b>"),
        Just(r#"<A HREF="x.html" NAME=top>"#),
        Just(r#"<a name=top href="x.html">"#),
        Just(r#"<A HREF="y.cgi?a=1&amp;b=2">"#),
        Just("</A>"),
        Just(r#"<IMG SRC="a.gif" ALT="A&amp;B">"#),
        Just(r#"<img alt="A&amp;B" src="a.gif">"#),
        Just("<FONT SIZE=+1>"),
        Just("alpha "),
        Just("beta. "),
        Just("Gamma! "),
        Just("caf&eacute; "),
        Just("AT&amp;T "),
        Just("&lt;tag&gt; "),
        Just("Zürich "),
        Just("naïve "),
        Just("日本語 "),
        Just("«fini.» "),
        Just("\u{A0}nbsp\u{A0} "),
        Just("em\u{2003}space "),
        Just("U.S. "),
        Just("Dr. "),
        Just("   "),
        Just("\r\n"),
        Just("\n"),
        Just("<PRE>"),
        Just("<pre>"),
        Just("</PRE>"),
        Just("col1   col2\r\n"),
        Just("a  b\n"),
        Just("<!-- note -->"),
        Just("<!DOCTYPE html>"),
        Just("<!-- never closed "),
        Just(r#"<A HREF="unterminated"#),
        Just("< b "),
        Just("<3 "),
    ]
}

/// An old document and an edited new one: a few pieces replaced,
/// inserted or deleted, so the two share most of their tokens.
fn doc_pair() -> impl Strategy<Value = (String, String)> {
    (
        proptest::collection::vec(piece(), 0..40),
        proptest::collection::vec((0usize..40, piece(), 0u8..3), 0..6),
    )
        .prop_map(|(pieces, edits)| {
            let old = pieces.concat();
            let mut new = pieces;
            for (at, p, op) in edits {
                let at = at % (new.len() + 1);
                match op {
                    0 if at < new.len() => new[at] = p,
                    1 => new.insert(at, p),
                    _ if at < new.len() => {
                        new.remove(at);
                    }
                    _ => new.push(p),
                }
            }
            (old, new.concat())
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pipeline_agrees_with_copying_oracle(pair in doc_pair()) {
        let (old_html, new_html) = pair;
        let old = tokenize(&old_html);
        let new = tokenize(&new_html);

        // The token streams, and what tokenization recorded about them.
        prop_assert_eq!(owned(&old), tokenize_owned(&old_html));
        prop_assert_eq!(owned(&new), tokenize_owned(&new_html));
        for stream in [&old, &new] {
            for (t, token) in stream.iter().enumerate() {
                prop_assert_eq!(stream.class_hash(t), token_class_hash(token));
                let content = token.as_sentence().map_or(0, Sentence::content_len);
                prop_assert_eq!(stream.content_len(t), content);
            }
        }

        // Item ids: identical to the owned-key interner's, and equal
        // exactly when `Inline::matches` says so.
        let mut arena = MetaArena::take();
        let (mo, mn) = build_metas(&old, &new, &mut arena);
        let mut oracle = MetaArena::take();
        let mut interner = Interner::new();
        let oo = oracle_meta(&old, &mut interner, &mut oracle);
        let on = oracle_meta(&new, &mut interner, &mut oracle);
        prop_assert_eq!(&arena.ids, &oracle.ids);
        prop_assert_eq!(&arena.sorted_content, &oracle.sorted_content);
        prop_assert_eq!(&arena.id_is_content, &oracle.id_is_content);
        prop_assert_eq!(shape(&mo), shape(&oo));
        prop_assert_eq!(shape(&mn), shape(&on));
        let items: Vec<&Inline<'_>> = old
            .iter()
            .chain(new.iter())
            .filter_map(DiffToken::as_sentence)
            .flat_map(|s| &s.items)
            .collect();
        for (x, a) in items.iter().enumerate() {
            for (y, b) in items.iter().enumerate() {
                prop_assert_eq!(arena.ids[x] == arena.ids[y], a.matches(b), "{:?} vs {:?}", a, b);
            }
        }

        // Class hashes: never apart for tokens the alignment treats as
        // identical, and the same partition as the old FNV hashes.
        let tokens: Vec<(&DiffToken<'_>, u64, u64)> = mo
            .iter()
            .zip(old.iter())
            .zip(&oo)
            .chain(mn.iter().zip(new.iter()).zip(&on))
            .map(|((m, t), o)| (t, m.class_hash, o.class_hash))
            .collect();
        for &(a, ha, oa) in &tokens {
            for &(b, hb, ob) in &tokens {
                if tokens_identical(a, b) {
                    prop_assert_eq!(ha, hb, "{:?} vs {:?}", a, b);
                }
                prop_assert_eq!(ha == hb, oa == ob, "{:?} vs {:?}", a, b);
            }
        }

        // The alignment, on either pipeline's metadata.
        for force_naive in [false, true] {
            let opts = CompareOptions { force_naive, ..CompareOptions::default() };
            let fresh = compare_tokens(&old, &new, &opts);
            let mut copy = MetaArena::take();
            copy.ids.extend_from_slice(&oracle.ids);
            copy.sorted_content.extend_from_slice(&oracle.sorted_content);
            copy.id_is_content.extend_from_slice(&oracle.id_is_content);
            let from_oracle = align(&old, &new, &oo, &on, copy, &opts);
            prop_assert_eq!(&fresh.alignment.pairs, &from_oracle.alignment.pairs);
            prop_assert_eq!(&fresh.identical, &from_oracle.identical);
            prop_assert_eq!(fresh.inner_lcs_evals, from_oracle.inner_lcs_evals);
            prop_assert_eq!(fresh.screened_out, from_oracle.screened_out);
        }
        arena.give();
        oracle.give();
    }

    #[test]
    fn words_are_slices_of_the_source(pieces in proptest::collection::vec(piece(), 0..40)) {
        let html = pieces.concat();
        let range = html.as_bytes().as_ptr_range();
        for token in tokenize(&html).iter() {
            for item in token.as_sentence().map_or(&[][..], |s| &s.items) {
                if let Inline::Word(w) = item {
                    let bytes = w.as_bytes().as_ptr_range();
                    prop_assert!(
                        range.start <= bytes.start && bytes.end <= range.end,
                        "word {:?} was copied out of the document", w
                    );
                }
            }
        }
    }
}
