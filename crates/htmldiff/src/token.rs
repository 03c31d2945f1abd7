//! The HtmlDiff token model.
//!
//! §5.1: "In HtmlDiff, a token is either a sentence-breaking markup or a
//! sentence, which consists of a sequence of words and non-sentence-
//! breaking markups. Note that the definition of sentence is not
//! recursive; sentences cannot contain sentences." Sentence *length* is
//! "the number of words and 'content-defining' markups such as `<IMG>`
//! or `<A>` in a sentence. Markups such as `<B>` or `<I>` are not
//! counted."
//!
//! Tokens borrow: a word is a slice of the document it came from
//! (`Inline::Word(&str)`), so a [`TokenStream`] lives no longer than
//! its source. Markups own their [`Tag`], whose names the lexer has
//! uppercased and whose attribute values it has decoded.

use aide_htmlkit::classify::is_content_defining;
use aide_htmlkit::lexer::{Tag, TagKind};
use aide_util::checksum::Fnv1a;
use std::fmt;
use std::ops::Deref;

/// An element of a sentence: a word or an inline (non-breaking) markup.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Inline<'a> {
    /// A whitespace-delimited word, verbatim: a slice of the source
    /// document, never a copy.
    Word(&'a str),
    /// An inline markup such as `<B>`, `</B>`, `<A HREF=…>`, `<IMG …>`.
    Markup(Tag),
}

impl Inline<'_> {
    /// True if this item counts toward sentence length (a word or a
    /// content-defining markup).
    pub fn is_content(&self) -> bool {
        match self {
            Inline::Word(_) => true,
            Inline::Markup(tag) => is_content_defining(&tag.name),
        }
    }

    /// True for [`Inline::Word`].
    pub fn is_word(&self) -> bool {
        matches!(self, Inline::Word(_))
    }

    /// Exact-match comparison: words compare verbatim; markups compare
    /// modulo case, whitespace and attribute order.
    pub fn matches(&self, other: &Inline<'_>) -> bool {
        match (self, other) {
            (Inline::Word(a), Inline::Word(b)) => a == b,
            (Inline::Markup(a), Inline::Markup(b)) => a.matches_modulo_order(b),
            _ => false,
        }
    }

    /// Appends the item's HTML to `out`.
    pub fn render_into(&self, out: &mut String) {
        match self {
            Inline::Word(w) => out.push_str(w),
            Inline::Markup(t) => t.write_to(out),
        }
    }
}

impl fmt::Display for Inline<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inline::Word(w) => f.write_str(w),
            Inline::Markup(t) => write!(f, "{t}"),
        }
    }
}

/// A sentence: at most one English sentence, possibly a fragment.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Sentence<'a> {
    /// The words and inline markups, in order.
    pub items: Vec<Inline<'a>>,
}

impl Sentence<'_> {
    /// The paper's sentence length: words + content-defining markups.
    pub fn content_len(&self) -> usize {
        self.items.iter().filter(|i| i.is_content()).count()
    }

    /// Number of words only.
    pub fn word_count(&self) -> usize {
        self.items.iter().filter(|i| i.is_word()).count()
    }

    /// True if the sentence has no items at all.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Renders the sentence as HTML, words separated by single spaces.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// [`Sentence::render`], appended to `out`.
    pub fn render_into(&self, out: &mut String) {
        for (k, item) in self.items.iter().enumerate() {
            if k > 0 {
                // Whitespace was discarded at tokenization; a single space
                // between word items restores readability. No space is
                // inserted after an opening markup or before a closing one.
                let prev_is_open_markup = matches!(
                    &self.items[k - 1],
                    Inline::Markup(t) if t.kind != TagKind::Close
                );
                let cur_is_close_markup = matches!(
                    item,
                    Inline::Markup(t) if t.kind == TagKind::Close
                );
                if !prev_is_open_markup && !cur_is_close_markup {
                    out.push(' ');
                }
            }
            item.render_into(out);
        }
    }

    /// Renders only the words (markups elided) — how *old* sentences
    /// appear in the merged page, since "old hypertext references and
    /// images do not appear" (§5.2).
    pub fn render_words_only(&self) -> String {
        let mut out = String::new();
        self.render_words_only_into(&mut out);
        out
    }

    /// [`Sentence::render_words_only`], appended to `out`.
    pub fn render_words_only_into(&self, out: &mut String) {
        let mut first = true;
        for item in &self.items {
            if let Inline::Word(w) = item {
                if !first {
                    out.push(' ');
                }
                out.push_str(w);
                first = false;
            }
        }
    }
}

/// One token of the HtmlDiff comparison stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffToken<'a> {
    /// A sentence-breaking markup (`<P>`, `<HR>`, `<LI>`, `<H1>`, …).
    Break(Tag),
    /// A sentence.
    Sentence(Sentence<'a>),
}

impl<'a> DiffToken<'a> {
    /// True for [`DiffToken::Break`].
    pub fn is_break(&self) -> bool {
        matches!(self, DiffToken::Break(_))
    }

    /// The sentence, if this token is one.
    pub fn as_sentence(&self) -> Option<&Sentence<'a>> {
        match self {
            DiffToken::Sentence(s) => Some(s),
            _ => None,
        }
    }

    /// The breaking tag, if this token is one.
    pub fn as_break(&self) -> Option<&Tag> {
        match self {
            DiffToken::Break(t) => Some(t),
            _ => None,
        }
    }

    /// Appends the token's HTML to `out`: a break's tag, or the
    /// sentence rendered by [`Sentence::render_into`].
    pub fn render_into(&self, out: &mut String) {
        match self {
            DiffToken::Break(t) => t.write_to(out),
            DiffToken::Sentence(s) => s.render_into(out),
        }
    }
}

// ---------------------------------------------------------------------
// Hashes. Every hash below is a function of one item, one token or one
// stream, and is built from the per-item hashes: a word's bytes and a
// tag's name and attributes are hashed once, when the item is made, and
// every coarser hash folds those 64-bit values instead of re-walking
// bytes.
// ---------------------------------------------------------------------

/// Multiplier of [`fold`] (the 64-bit golden ratio).
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Seeds that keep the hash domains apart.
const SEED_BREAK_CLASS: u64 = 0xB0;
const SEED_BREAK_DEEP: u64 = 0xB1;
const SEED_SENTENCE: u64 = 0x50;
const SEED_STREAM: u64 = 0x5E;

/// Order-sensitive combination of a running hash with one more value.
fn fold(h: u64, x: u64) -> u64 {
    (h.rotate_left(26) ^ x).wrapping_mul(K)
}

/// A word's hash: FNV-1a over its bytes, in the word domain.
fn word_hash(w: &str) -> u64 {
    Fnv1a::new().update(&[0xF1]).update(w.as_bytes()).finish()
}

fn kind_byte(kind: TagKind) -> u8 {
    match kind {
        TagKind::Open => 0,
        TagKind::Close => 1,
        TagKind::SelfClose => 2,
    }
}

/// A tag's two hashes, from one pass over its name and attributes:
///
/// - the *match* hash, equal for tags that
///   [`Tag::matches_modulo_order`] — attributes enter as a wrapping sum,
///   a multiset hash that ignores order but counts duplicates;
/// - the *deep* hash, equal for tags that are `==` — attributes folded
///   in source order, as rendering prints them.
fn tag_hashes(tag: &Tag) -> (u64, u64) {
    let base = Fnv1a::new()
        .update(&[0xF2])
        .update(tag.name.as_bytes())
        .update(&[0xFE, kind_byte(tag.kind)])
        .finish();
    let (mut sum, mut deep) = (0u64, base);
    for (name, value) in &tag.attrs {
        let mut h = Fnv1a::new();
        h.update(&[0xFD]).update(name.as_bytes());
        match value {
            Some(v) => h.update(&[1]).update(v.as_bytes()),
            None => h.update(&[0]),
        };
        let a = h.finish();
        sum = sum.wrapping_add(a);
        deep = fold(deep, a);
    }
    let n = tag.attrs.len() as u64;
    (fold(fold(base, sum), n), fold(deep, n))
}

/// An item's match hash (equal for items that [`Inline::matches`]) and
/// deep hash (equal for items that are `==`).
fn inline_hashes(item: &Inline<'_>) -> (u64, u64) {
    match item {
        Inline::Word(w) => {
            let h = word_hash(w);
            (h, h)
        }
        Inline::Markup(tag) => tag_hashes(tag),
    }
}

/// The match-equivalence class of a token, as a hash.
///
/// Two tokens of equal class hash *may* be interchangeable for alignment
/// purposes — breaks that match modulo attribute order, sentences with
/// deeply equal content — and unequal hashes prove they are not. Break
/// and sentence classes live in separate seeded domains.
///
/// This recomputes the hash from the token; a [`TokenStream`] carries
/// every token's class hash from tokenization, equal to this by
/// construction.
pub fn token_class_hash(token: &DiffToken<'_>) -> u64 {
    token_hashes(token).0
}

/// A token's `(class, deep)` hashes; the deep hash is order-sensitive
/// in break attributes and feeds [`token_stream_hash`].
fn token_hashes(token: &DiffToken<'_>) -> (u64, u64) {
    match token {
        DiffToken::Break(tag) => break_hashes(tag_hashes(tag)),
        DiffToken::Sentence(s) => {
            let h = s
                .items
                .iter()
                .fold(SEED_SENTENCE, |h, item| fold(h, inline_hashes(item).1));
            let h = sentence_hash(h, s.items.len());
            (h, h)
        }
    }
}

fn break_hashes((matching, deep): (u64, u64)) -> (u64, u64) {
    (
        fold(SEED_BREAK_CLASS, matching),
        fold(SEED_BREAK_DEEP, deep),
    )
}

/// Closes a sentence's fold of item deep hashes.
fn sentence_hash(folded: u64, items: usize) -> u64 {
    fold(folded, items as u64)
}

/// A deep, order-sensitive hash of a whole token stream.
///
/// Unlike [`token_class_hash`], break attributes are hashed in source
/// order: rendered output prints tags verbatim, so streams that differ
/// only in attribute order must hash differently. Equal hashes identify
/// streams that render identically under the same options — the snapshot
/// service's content-addressed diff-cache key. It folds the per-token
/// hashes recorded at tokenization, so it costs one step per token.
pub fn token_stream_hash(stream: &TokenStream<'_>) -> u64 {
    let h = fold(SEED_STREAM, stream.len() as u64);
    stream.info.iter().fold(h, |h, t| fold(h, t.deep_hash))
}

/// What tokenization records about one token, so comparison never
/// re-walks its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TokenInfo {
    /// [`token_class_hash`].
    class_hash: u64,
    /// Order-sensitive deep hash, the token's part of
    /// [`token_stream_hash`].
    deep_hash: u64,
    /// [`Sentence::content_len`] (0 for breaks).
    content_len: u32,
    /// Range of this token's items in [`TokenStream::item_hashes`]
    /// (empty for breaks).
    items_start: u32,
    items_end: u32,
}

/// A tokenized document: the [`DiffToken`]s, which borrow their words
/// from the source, and the hashes tokenization computed for them — each
/// token's class hash, deep hash and content length, and each sentence
/// item's match hash. Dereferences to the token slice.
///
/// Built only by [`crate::tokenize::tokenize`], and read-only after, so
/// the recorded hashes always describe the tokens.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TokenStream<'a> {
    tokens: Vec<DiffToken<'a>>,
    info: Vec<TokenInfo>,
    item_hashes: Vec<u64>,
}

impl<'a> TokenStream<'a> {
    /// Token `i`'s [`token_class_hash`], as recorded at tokenization.
    pub(crate) fn class_hash(&self, i: usize) -> u64 {
        self.info[i].class_hash
    }

    /// Token `i`'s [`Sentence::content_len`] (0 for a break).
    pub(crate) fn content_len(&self, i: usize) -> usize {
        self.info[i].content_len as usize
    }

    /// Number of sentence items over all tokens.
    pub(crate) fn item_count(&self) -> usize {
        self.item_hashes.len()
    }

    /// The match hashes of token `i`'s sentence items, parallel to its
    /// `items` (empty for a break): equal for items that
    /// [`Inline::matches`].
    pub(crate) fn item_hashes(&self, i: usize) -> &[u64] {
        let t = &self.info[i];
        &self.item_hashes[t.items_start as usize..t.items_end as usize]
    }
}

impl<'a> Deref for TokenStream<'a> {
    type Target = [DiffToken<'a>];

    fn deref(&self) -> &[DiffToken<'a>] {
        &self.tokens
    }
}

impl<'a> IntoIterator for TokenStream<'a> {
    type Item = DiffToken<'a>;
    type IntoIter = std::vec::IntoIter<DiffToken<'a>>;

    fn into_iter(self) -> Self::IntoIter {
        self.tokens.into_iter()
    }
}

/// Assembles a [`TokenStream`] item by item, hashing each item as it
/// arrives and folding the sentence hash alongside.
#[derive(Default)]
pub(crate) struct StreamBuilder<'a> {
    stream: TokenStream<'a>,
    /// The sentence being built; its buffer is reused, and each
    /// finished sentence gets an exactly sized copy.
    current: Vec<Inline<'a>>,
    /// Fold of `current`'s item deep hashes.
    folded: u64,
    /// Content items in `current`.
    content: u32,
}

impl<'a> StreamBuilder<'a> {
    /// Appends a word.
    pub(crate) fn push_word(&mut self, w: &'a str) {
        let h = word_hash(w);
        self.push_item(Inline::Word(w), h, h, true);
    }

    /// Appends an inline markup.
    pub(crate) fn push_markup(&mut self, tag: Tag) {
        let (matching, deep) = tag_hashes(&tag);
        let content = is_content_defining(&tag.name);
        self.push_item(Inline::Markup(tag), matching, deep, content);
    }

    fn push_item(&mut self, item: Inline<'a>, matching: u64, deep: u64, content: bool) {
        if self.current.is_empty() {
            self.folded = SEED_SENTENCE;
        }
        self.current.push(item);
        self.stream.item_hashes.push(matching);
        self.folded = fold(self.folded, deep);
        self.content += u32::from(content);
    }

    /// Ends the current sentence, if it has any items.
    pub(crate) fn flush(&mut self) {
        if self.current.is_empty() {
            return;
        }
        let n = self.current.len();
        let h = sentence_hash(self.folded, n);
        let end = self.stream.item_hashes.len() as u32;
        self.stream.info.push(TokenInfo {
            class_hash: h,
            deep_hash: h,
            content_len: std::mem::take(&mut self.content),
            items_start: end - n as u32,
            items_end: end,
        });
        let items = self.current.drain(..).collect();
        self.stream
            .tokens
            .push(DiffToken::Sentence(Sentence { items }));
    }

    /// Ends the current sentence and appends a sentence-breaking markup.
    pub(crate) fn push_break(&mut self, tag: Tag) {
        self.flush();
        let (class_hash, deep_hash) = break_hashes(tag_hashes(&tag));
        let end = self.stream.item_hashes.len() as u32;
        self.stream.info.push(TokenInfo {
            class_hash,
            deep_hash,
            content_len: 0,
            items_start: end,
            items_end: end,
        });
        self.stream.tokens.push(DiffToken::Break(tag));
    }

    /// Ends the current sentence and returns the stream.
    pub(crate) fn finish(mut self) -> TokenStream<'a> {
        self.flush();
        self.stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_htmlkit::lexer::Tag;

    fn word(w: &str) -> Inline<'_> {
        Inline::Word(w)
    }

    /// A stream built from tokens made by hand, through the builder
    /// tokenization uses.
    fn stream(tokens: &[DiffToken<'static>]) -> TokenStream<'static> {
        let mut b = StreamBuilder::default();
        for token in tokens.iter().cloned() {
            match token {
                DiffToken::Break(tag) => b.push_break(tag),
                DiffToken::Sentence(s) => {
                    for item in s.items {
                        match item {
                            Inline::Word(w) => b.push_word(w),
                            Inline::Markup(tag) => b.push_markup(tag),
                        }
                    }
                    b.flush();
                }
            }
        }
        b.finish()
    }

    #[test]
    fn content_len_counts_words_and_content_markups() {
        let s = Sentence {
            items: vec![
                word("See"),
                Inline::Markup(Tag::open("B")),
                word("this"),
                Inline::Markup(Tag::close("B")),
                Inline::Markup(Tag::open("IMG").with_attr("SRC", "x.gif")),
                Inline::Markup(Tag::open("A").with_attr("HREF", "y.html")),
                word("link"),
                Inline::Markup(Tag::close("A")),
            ],
        };
        // Words: See, this, link (3). Content markups: IMG, <A>, </A>... the
        // closing </A> has the content-defining *name* A, so it counts too,
        // matching the paper's "all markups are represented and compared".
        assert_eq!(s.content_len(), 6);
        assert_eq!(s.word_count(), 3);
    }

    #[test]
    fn inline_matching() {
        assert!(word("x").matches(&word("x")));
        assert!(!word("x").matches(&word("X")), "words are case-sensitive");
        let a = Inline::Markup(Tag::open("A").with_attr("HREF", "u"));
        let b = Inline::Markup(Tag::open("A").with_attr("HREF", "u"));
        let c = Inline::Markup(Tag::open("A").with_attr("HREF", "v"));
        assert!(a.matches(&b));
        assert!(!a.matches(&c));
        assert!(!a.matches(&word("A")));
    }

    #[test]
    fn render_spacing() {
        let s = Sentence {
            items: vec![
                word("plain"),
                Inline::Markup(Tag::open("B")),
                word("bold"),
                Inline::Markup(Tag::close("B")),
                word("after."),
            ],
        };
        assert_eq!(s.render(), "plain <B>bold</B> after.");
    }

    #[test]
    fn render_words_only_drops_markups() {
        let s = Sentence {
            items: vec![
                word("keep"),
                Inline::Markup(Tag::open("IMG").with_attr("SRC", "gone.gif")),
                word("these."),
            ],
        };
        assert_eq!(s.render_words_only(), "keep these.");
    }

    #[test]
    fn empty_sentence() {
        let s = Sentence::default();
        assert!(s.is_empty());
        assert_eq!(s.content_len(), 0);
        assert_eq!(s.render(), "");
    }

    #[test]
    fn class_hash_respects_attr_order_rules() {
        let a = DiffToken::Break(
            Tag::open("TABLE")
                .with_attr("BORDER", "1")
                .with_attr("WIDTH", "90%"),
        );
        let b = DiffToken::Break(
            Tag::open("TABLE")
                .with_attr("WIDTH", "90%")
                .with_attr("BORDER", "1"),
        );
        let c = DiffToken::Break(
            Tag::open("TABLE")
                .with_attr("BORDER", "2")
                .with_attr("WIDTH", "90%"),
        );
        assert_eq!(token_class_hash(&a), token_class_hash(&b), "modulo order");
        assert_ne!(token_class_hash(&a), token_class_hash(&c));
        // The deep stream hash distinguishes attribute order (rendering
        // prints tags verbatim).
        assert_ne!(
            token_stream_hash(&stream(std::slice::from_ref(&a))),
            token_stream_hash(&stream(std::slice::from_ref(&b)))
        );
        assert_eq!(
            token_stream_hash(&stream(std::slice::from_ref(&a))),
            token_stream_hash(&stream(std::slice::from_ref(&a)))
        );
    }

    #[test]
    fn sentence_hashes_are_deep() {
        let s1 = DiffToken::Sentence(Sentence {
            items: vec![word("alpha"), word("beta")],
        });
        let s2 = DiffToken::Sentence(Sentence {
            items: vec![word("alpha"), word("gamma")],
        });
        let s3 = DiffToken::Sentence(Sentence {
            items: vec![word("alpha beta")], // concatenation must not collide
        });
        assert_ne!(token_class_hash(&s1), token_class_hash(&s2));
        assert_ne!(token_class_hash(&s1), token_class_hash(&s3));
        assert_eq!(token_class_hash(&s1), token_class_hash(&s1.clone()));
    }

    #[test]
    fn break_and_sentence_classes_never_collide() {
        let b = DiffToken::Break(Tag::open("P"));
        let s = DiffToken::Sentence(Sentence { items: vec![] });
        assert_ne!(token_class_hash(&b), token_class_hash(&s));
    }

    #[test]
    fn stream_hash_sensitive_to_order_and_length() {
        let t1 = DiffToken::Sentence(Sentence {
            items: vec![word("x")],
        });
        let t2 = DiffToken::Sentence(Sentence {
            items: vec![word("y")],
        });
        let ab = token_stream_hash(&stream(&[t1.clone(), t2.clone()]));
        let ba = token_stream_hash(&stream(&[t2.clone(), t1.clone()]));
        let a = token_stream_hash(&stream(std::slice::from_ref(&t1)));
        assert_ne!(ab, ba);
        assert_ne!(ab, a);
        assert_ne!(a, token_stream_hash(&stream(&[])));
    }

    #[test]
    fn token_accessors() {
        let b = DiffToken::Break(Tag::open("P"));
        assert!(b.is_break());
        assert!(b.as_break().is_some());
        assert!(b.as_sentence().is_none());
        let s = DiffToken::Sentence(Sentence {
            items: vec![word("x")],
        });
        assert!(!s.is_break());
        assert!(s.as_sentence().is_some());
    }
}
