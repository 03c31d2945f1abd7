//! A forgiving HTML lexer.
//!
//! The paper is explicit that "parsing is not required" (§5.1): HtmlDiff
//! works off a flat token stream produced by "a simple lexical analysis",
//! which also "converts the case of the markup name and associated
//! (variable,value) pairs to uppercase". This lexer follows that design —
//! it never rejects input (1995 HTML was wildly malformed), it tokenizes
//! tags, comments, declarations and text runs, and it normalizes tag and
//! attribute *names* to uppercase while preserving attribute *values*
//! case-sensitively (URLs are case-sensitive); character entities in
//! values are decoded at lex time and re-encoded at serialization.

use crate::entity::{decode_entities, encode_entities_into};
use std::fmt;

/// Whether a tag opens, closes, or self-closes an element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TagKind {
    /// `<NAME ...>`
    Open,
    /// `</NAME>`
    Close,
    /// `<NAME ... />` (rare in 1995 HTML, tolerated anyway)
    SelfClose,
}

/// A markup tag with normalized name and attributes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tag {
    /// Tag name, uppercased (`P`, `IMG`, `A`).
    pub name: String,
    /// Attributes in source order: name uppercased, value with quotes
    /// stripped and entities decoded. Valueless attributes carry `None`.
    pub attrs: Vec<(String, Option<String>)>,
    /// Open / close / self-close.
    pub kind: TagKind,
}

impl Tag {
    /// Creates an open tag with no attributes.
    pub fn open(name: &str) -> Tag {
        Tag {
            name: name.to_ascii_uppercase(),
            attrs: Vec::new(),
            kind: TagKind::Open,
        }
    }

    /// Creates a close tag.
    pub fn close(name: &str) -> Tag {
        Tag {
            name: name.to_ascii_uppercase(),
            attrs: Vec::new(),
            kind: TagKind::Close,
        }
    }

    /// Adds an attribute (builder style).
    pub fn with_attr(mut self, name: &str, value: &str) -> Tag {
        self.attrs
            .push((name.to_ascii_uppercase(), Some(value.to_string())));
        self
    }

    /// Returns the value of attribute `name` (case-insensitive).
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(n, _)| is_upper_of(n, name))
            .and_then(|(_, v)| v.as_deref())
    }

    /// Replaces or inserts attribute `name`.
    pub fn set_attr(&mut self, name: &str, value: &str) {
        for (n, v) in self.attrs.iter_mut() {
            if is_upper_of(n, name) {
                *v = Some(value.to_string());
                return;
            }
        }
        self.attrs
            .push((name.to_ascii_uppercase(), Some(value.to_string())));
    }

    /// Equality modulo attribute order — the comparison the paper's
    /// sentence-breaking markup match uses: "identical (modulo whitespace,
    /// case, and reordering of (variable,value) pairs)".
    ///
    /// Attribute lists of at most one entry, or equal in source order
    /// (the common case: a page's template rarely reorders), compare in
    /// place; only genuinely reordered lists pay for sorting.
    pub fn matches_modulo_order(&self, other: &Tag) -> bool {
        if self.name != other.name
            || self.kind != other.kind
            || self.attrs.len() != other.attrs.len()
        {
            return false;
        }
        if self.attrs == other.attrs {
            return true;
        }
        if self.attrs.len() <= 1 {
            return false;
        }
        let mut mine: Vec<_> = self.attrs.iter().collect();
        let mut theirs: Vec<_> = other.attrs.iter().collect();
        mine.sort();
        theirs.sort();
        mine == theirs
    }

    /// Appends the tag's HTML to `out`: the uppercase name, attributes
    /// in source order with values quoted and entity-encoded. The
    /// [`Display`](fmt::Display) form is the same text.
    pub fn write_to(&self, out: &mut String) {
        if self.kind == TagKind::Close {
            out.push_str("</");
            out.push_str(&self.name);
            out.push('>');
            return;
        }
        out.push('<');
        out.push_str(&self.name);
        for (n, v) in &self.attrs {
            out.push(' ');
            out.push_str(n);
            if let Some(val) = v {
                out.push_str("=\"");
                encode_entities_into(val, out);
                out.push('"');
            }
        }
        if self.kind == TagKind::SelfClose {
            out.push_str(" /");
        }
        out.push('>');
    }
}

/// True if `stored` equals `name` uppercased, compared in place.
fn is_upper_of(stored: &str, name: &str) -> bool {
    stored.len() == name.len()
        && stored
            .bytes()
            .zip(name.bytes())
            .all(|(s, n)| s == n.to_ascii_uppercase())
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_to(&mut out);
        f.write_str(&out)
    }
}

/// One lexical token of an HTML document. Text, comments and
/// declarations borrow their bytes from the source; tags own their
/// normalized name and attributes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Token<'a> {
    /// A run of character data between tags, verbatim (entities intact).
    Text(&'a str),
    /// A markup tag.
    Tag(Tag),
    /// `<!-- ... -->` with the inner text.
    Comment(&'a str),
    /// `<!DOCTYPE ...>` or any other `<!...>` declaration, inner text.
    Declaration(&'a str),
}

impl<'a> Token<'a> {
    /// Returns the tag if this token is one.
    pub fn as_tag(&self) -> Option<&Tag> {
        match self {
            Token::Tag(t) => Some(t),
            _ => None,
        }
    }

    /// Returns the text if this token is character data.
    pub fn as_text(&self) -> Option<&'a str> {
        match self {
            Token::Text(t) => Some(t),
            _ => None,
        }
    }
}

/// Lexes `html` into tokens. Never fails: malformed constructs degrade to
/// text or best-effort tags, as period browsers treated them.
///
/// # Examples
///
/// ```
/// use aide_htmlkit::lexer::{lex, Token};
///
/// let tokens = lex("<P>Hello <B>world</B>!");
/// assert_eq!(tokens.len(), 6);
/// assert!(matches!(&tokens[0], Token::Tag(t) if t.name == "P"));
/// assert!(matches!(tokens[1], Token::Text("Hello ")));
/// ```
pub fn lex(html: &str) -> Vec<Token<'_>> {
    Lexer::new(html).collect()
}

/// The lexer as an iterator: [`lex`] without the token vector, for
/// consumers that walk the document once.
#[derive(Debug, Clone)]
pub struct Lexer<'a> {
    html: &'a str,
    /// Next byte to examine.
    i: usize,
    /// Start of the text run not yet emitted.
    text_start: usize,
    /// A markup token found right after a text run, emitted next.
    pending: Option<Token<'a>>,
}

impl<'a> Lexer<'a> {
    /// Starts lexing `html`.
    pub fn new(html: &'a str) -> Lexer<'a> {
        Lexer {
            html,
            i: 0,
            text_start: 0,
            pending: None,
        }
    }

    /// Emits `markup`, which spans `[start, end)`, after the text run
    /// that precedes it (if any).
    fn emit(&mut self, start: usize, end: usize, markup: Token<'a>) -> Token<'a> {
        let text =
            (self.text_start < start).then(|| Token::Text(&self.html[self.text_start..start]));
        self.i = end;
        self.text_start = end;
        match text {
            Some(text) => {
                self.pending = Some(markup);
                text
            }
            None => markup,
        }
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        if let Some(t) = self.pending.take() {
            return Some(t);
        }
        let html = self.html;
        let bytes = html.as_bytes();
        while self.i < bytes.len() {
            let i = self.i;
            if bytes[i] != b'<' {
                self.i = bytes[i..]
                    .iter()
                    .position(|&b| b == b'<')
                    .map_or(bytes.len(), |p| i + p);
                continue;
            }
            if html[i..].starts_with("<!--") {
                return Some(match html[i + 4..].find("-->") {
                    Some(end) => self.emit(
                        i,
                        i + 4 + end + 3,
                        Token::Comment(&html[i + 4..i + 4 + end]),
                    ),
                    // Unterminated comment swallows the rest of the file.
                    None => self.emit(i, bytes.len(), Token::Comment(&html[i + 4..])),
                });
            }
            if html[i..].starts_with("<!") {
                return Some(match html[i..].find('>') {
                    Some(end) => {
                        self.emit(i, i + end + 1, Token::Declaration(&html[i + 2..i + end]))
                    }
                    None => self.emit(i, bytes.len(), Token::Declaration(&html[i + 2..])),
                });
            }
            // A '<' not followed by a letter or '/' is literal text.
            let next = bytes.get(i + 1).copied();
            let is_tag_start = matches!(next, Some(c) if c.is_ascii_alphabetic() || c == b'/');
            if !is_tag_start {
                self.i = i + 1;
                continue;
            }
            match parse_tag(html, i) {
                Some((tag, consumed)) => return Some(self.emit(i, i + consumed, Token::Tag(tag))),
                None => {
                    // Unterminated tag: flush preceding text, keep the
                    // rest as a final text run.
                    self.i = bytes.len();
                    if self.text_start < i {
                        let text = Token::Text(&html[self.text_start..i]);
                        self.text_start = i;
                        return Some(text);
                    }
                }
            }
        }
        if self.text_start < bytes.len() {
            let text = Token::Text(&html[self.text_start..]);
            self.text_start = bytes.len();
            return Some(text);
        }
        None
    }
}

/// Parses a tag beginning at byte `start` (which is `<`). Returns the tag
/// and the number of bytes consumed, or `None` if no closing `>` exists.
fn parse_tag(html: &str, start: usize) -> Option<(Tag, usize)> {
    let bytes = html.as_bytes();
    let mut i = start + 1;
    let kind_close = bytes.get(i) == Some(&b'/');
    if kind_close {
        i += 1;
    }
    let name_start = i;
    while i < bytes.len()
        && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'-' || bytes[i] == b'.')
    {
        i += 1;
    }
    let name = html[name_start..i].to_ascii_uppercase();
    if name.is_empty() {
        return None;
    }
    let mut attrs = Vec::new();
    let mut self_close = false;
    loop {
        // Skip whitespace.
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= bytes.len() {
            return None;
        }
        if bytes[i] == b'>' {
            i += 1;
            break;
        }
        if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'>') {
            self_close = true;
            i += 2;
            break;
        }
        // Attribute name.
        let an_start = i;
        while i < bytes.len()
            && !bytes[i].is_ascii_whitespace()
            && bytes[i] != b'='
            && bytes[i] != b'>'
            && !(bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'>'))
        {
            i += 1;
        }
        if i == an_start {
            // Stray character (e.g. lone '/'); skip it.
            i += 1;
            continue;
        }
        let attr_name = html[an_start..i].to_ascii_uppercase();
        // Skip whitespace before a possible '='.
        let mut j = i;
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        if bytes.get(j) == Some(&b'=') {
            j += 1;
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            let value;
            match bytes.get(j) {
                Some(&q) if q == b'"' || q == b'\'' => {
                    let v_start = j + 1;
                    let mut k = v_start;
                    while k < bytes.len() && bytes[k] != q {
                        k += 1;
                    }
                    // Values are stored decoded; serialization re-encodes.
                    value = decode_entities(&html[v_start..k.min(bytes.len())]);
                    j = (k + 1).min(bytes.len());
                }
                _ => {
                    let v_start = j;
                    while j < bytes.len() && !bytes[j].is_ascii_whitespace() && bytes[j] != b'>' {
                        j += 1;
                    }
                    value = decode_entities(&html[v_start..j]);
                }
            }
            attrs.push((attr_name, Some(value)));
            i = j;
        } else {
            attrs.push((attr_name, None));
        }
    }
    let kind = if kind_close {
        TagKind::Close
    } else if self_close {
        TagKind::SelfClose
    } else {
        TagKind::Open
    };
    Some((Tag { name, attrs, kind }, i - start))
}

/// Serializes tokens back to HTML.
///
/// Lex → serialize is not byte-identical (names are uppercased, attribute
/// quoting normalized) but is idempotent: serializing the lex of the
/// output reproduces the output.
pub fn serialize(tokens: &[Token]) -> String {
    let mut out = String::new();
    for t in tokens {
        match t {
            Token::Text(s) => out.push_str(s),
            Token::Tag(tag) => tag.write_to(&mut out),
            Token::Comment(c) => {
                out.push_str("<!--");
                out.push_str(c);
                out.push_str("-->");
            }
            Token::Declaration(d) => {
                out.push_str("<!");
                out.push_str(d);
                out.push('>');
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_document() {
        let tokens = lex("<HTML><BODY><P>Hi</P></BODY></HTML>");
        let names: Vec<&str> = tokens
            .iter()
            .filter_map(|t| t.as_tag())
            .map(|t| t.name.as_str())
            .collect();
        assert_eq!(names, vec!["HTML", "BODY", "P", "P", "BODY", "HTML"]);
    }

    #[test]
    fn case_is_normalized_for_names_not_values() {
        let tokens = lex(r#"<a HREF="/Path/File.html">x</A>"#);
        let tag = tokens[0].as_tag().unwrap();
        assert_eq!(tag.name, "A");
        assert_eq!(tag.attrs[0].0, "HREF");
        assert_eq!(tag.attr("href"), Some("/Path/File.html"));
    }

    #[test]
    fn attribute_quoting_styles() {
        let tokens = lex(r#"<IMG src="a.gif" alt='red arrow' width=16 ISMAP>"#);
        let tag = tokens[0].as_tag().unwrap();
        assert_eq!(tag.attr("SRC"), Some("a.gif"));
        assert_eq!(tag.attr("ALT"), Some("red arrow"));
        assert_eq!(tag.attr("WIDTH"), Some("16"));
        assert_eq!(
            tag.attrs
                .iter()
                .find(|(n, _)| n == "ISMAP")
                .map(|(_, v)| v.clone()),
            Some(None)
        );
    }

    #[test]
    fn attr_value_with_spaces_around_equals() {
        let tokens = lex(r#"<A HREF = "x.html">t</A>"#);
        assert_eq!(tokens[0].as_tag().unwrap().attr("HREF"), Some("x.html"));
    }

    #[test]
    fn comments_and_declarations() {
        let tokens = lex("<!DOCTYPE HTML PUBLIC>before<!-- hidden -->after");
        assert!(matches!(&tokens[0], Token::Declaration(d) if d.starts_with("DOCTYPE")));
        assert_eq!(tokens[1], Token::Text("before"));
        assert_eq!(tokens[2], Token::Comment(" hidden "));
        assert_eq!(tokens[3], Token::Text("after"));
    }

    #[test]
    fn unterminated_comment() {
        let tokens = lex("x<!-- never closed");
        assert_eq!(tokens.len(), 2);
        assert_eq!(tokens[1], Token::Comment(" never closed"));
    }

    #[test]
    fn bare_less_than_is_text() {
        let tokens = lex("if a < b then");
        assert_eq!(tokens.len(), 1);
        assert_eq!(tokens[0].as_text(), Some("if a < b then"));
    }

    #[test]
    fn less_than_digit_is_text() {
        let tokens = lex("x <3 y");
        assert_eq!(tokens.len(), 1);
    }

    #[test]
    fn unterminated_tag_degrades_to_text() {
        let tokens = lex("ok<A HREF=\"x");
        assert_eq!(tokens.len(), 2);
        assert_eq!(tokens[1].as_text(), Some("<A HREF=\"x"));
    }

    #[test]
    fn self_closing() {
        let tokens = lex("<BR/><HR />");
        assert_eq!(tokens[0].as_tag().unwrap().kind, TagKind::SelfClose);
        assert_eq!(tokens[1].as_tag().unwrap().kind, TagKind::SelfClose);
    }

    #[test]
    fn serialize_is_idempotent() {
        let src = r#"<html><Body BGCOLOR=white><p>One &amp; two<IMG SRC="x.gif"><!-- c --></p>"#;
        let once = serialize(&lex(src));
        let twice = serialize(&lex(&once));
        assert_eq!(once, twice);
    }

    #[test]
    fn text_runs_preserved_verbatim() {
        let src = "  leading space <P>  inner\n\nlines  </P> trailing ";
        let round = serialize(&lex(src));
        assert!(round.contains("  leading space "));
        assert!(round.contains("  inner\n\nlines  "));
        assert!(round.contains(" trailing "));
    }

    #[test]
    fn matches_modulo_order() {
        let a = lex(r#"<TABLE BORDER=1 WIDTH="90%">"#)[0]
            .as_tag()
            .unwrap()
            .clone();
        let b = lex(r#"<table width="90%" border=1>"#)[0]
            .as_tag()
            .unwrap()
            .clone();
        assert!(a.matches_modulo_order(&b));
        let c = lex(r#"<TABLE BORDER=2 WIDTH="90%">"#)[0]
            .as_tag()
            .unwrap()
            .clone();
        assert!(!a.matches_modulo_order(&c));
    }

    #[test]
    fn matches_modulo_order_reordered_and_duplicated() {
        let tag = |src: &str| lex(src)[0].as_tag().unwrap().clone();
        // Three attributes, every order.
        let a = tag("<TD NOWRAP WIDTH=10 COLSPAN=2>");
        for src in [
            "<td width=10 nowrap colspan=2>",
            "<TD COLSPAN=2 WIDTH=10 NOWRAP>",
            "<TD WIDTH=10 COLSPAN=2 NOWRAP>",
        ] {
            assert!(a.matches_modulo_order(&tag(src)), "{src}");
            assert!(tag(src).matches_modulo_order(&a), "{src}");
        }
        // Duplicates count: same set, different multiplicities.
        let dup = tag("<TD NOWRAP NOWRAP WIDTH=10>");
        assert!(dup.matches_modulo_order(&tag("<TD WIDTH=10 NOWRAP NOWRAP>")));
        assert!(dup.matches_modulo_order(&tag("<TD NOWRAP WIDTH=10 NOWRAP>")));
        assert!(!dup.matches_modulo_order(&tag("<TD NOWRAP WIDTH=10 WIDTH=10>")));
        assert!(!dup.matches_modulo_order(&tag("<TD NOWRAP WIDTH=10>")));
        // One attribute: valueless vs valued, and values compared exactly.
        assert!(!tag("<HR NOSHADE>").matches_modulo_order(&tag("<HR NOSHADE=1>")));
        assert!(!tag("<HR SIZE=2>").matches_modulo_order(&tag("<HR SIZE=3>")));
        assert!(tag("<HR size=2>").matches_modulo_order(&tag("<HR SIZE=2>")));
        // A swapped value is not a reordering.
        assert!(!tag("<P A=1 B=2>").matches_modulo_order(&tag("<P A=2 B=1>")));
        assert!(tag("<P A=1 B=2>").matches_modulo_order(&tag("<P B=2 A=1>")));
        // Kind and name still decide first.
        assert!(!tag("<P A=1>").matches_modulo_order(&tag("<DIV A=1>")));
        assert!(!tag("<A NAME=x>").matches_modulo_order(&tag("<A NAME=x/>")));
    }

    #[test]
    fn attr_lookup_is_case_insensitive_in_place() {
        let mut t = lex(r#"<a HrEf="x.html" name=top>"#)[0]
            .as_tag()
            .unwrap()
            .clone();
        assert_eq!(t.attr("href"), Some("x.html"));
        assert_eq!(t.attr("HREF"), Some("x.html"));
        assert_eq!(t.attr("hre"), None);
        assert_eq!(t.attr("hrefs"), None);
        t.set_attr("Name", "bottom");
        assert_eq!(t.attrs.len(), 2);
        assert_eq!(t.attr("NAME"), Some("bottom"));
    }

    #[test]
    fn set_attr_replaces_or_inserts() {
        let mut t = Tag::open("A").with_attr("HREF", "old.html");
        t.set_attr("href", "new.html");
        assert_eq!(t.attr("HREF"), Some("new.html"));
        t.set_attr("NAME", "anchor1");
        assert_eq!(t.attrs.len(), 2);
    }

    #[test]
    fn display_escapes_attr_values() {
        let t = Tag::open("A").with_attr("HREF", "x?a=1&b=2");
        assert_eq!(t.to_string(), r#"<A HREF="x?a=1&amp;b=2">"#);
    }

    #[test]
    fn empty_input() {
        assert!(lex("").is_empty());
    }

    #[test]
    fn tag_names_with_digits() {
        let tokens = lex("<H1>Title</H1>");
        assert_eq!(tokens[0].as_tag().unwrap().name, "H1");
    }
}
