//! The RCS `,v` file format.
//!
//! Emits and parses the classic `rcsfile(5)` layout: an admin header
//! (`head`, `access`, `symbols`, `locks`, `comment`), a delta table (per
//! revision: `date`/`author`/`state`, `branches`, `next`), a `desc`
//! string, and per-revision `log`/`text` blocks where the head's text is
//! stored in full and every other revision's text is a `diff -n` script
//! recovering it from its successor. `@` is the string quote; literal `@`
//! doubles.
//!
//! Only the trunk subset AIDE uses is implemented (no branches, no locks,
//! no symbols) — the same subset the paper's perl scripts drive via `ci`,
//! `co` and `rlog`.

use crate::archive::{Archive, RevId, RevisionMeta};
use crate::delta::{digits, push_usize, Delta, Edit, LineShape};
use aide_util::time::Timestamp;
use std::borrow::Cow;
use std::fmt;

/// Error from [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatError {
    /// What went wrong.
    pub message: String,
}

impl FormatError {
    fn new(m: impl Into<String>) -> FormatError {
        FormatError { message: m.into() }
    }
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RCS format error: {}", self.message)
    }
}

impl std::error::Error for FormatError {}

/// Appends `s` in RCS `@` syntax, copying the runs between `@`s whole.
fn push_quoted(out: &mut String, s: &str) {
    out.push('@');
    let mut runs = s.split('@');
    if let Some(first) = runs.next() {
        out.push_str(first);
    }
    for run in runs {
        out.push_str("@@");
        out.push_str(run);
    }
    out.push('@');
}

/// Length of `s` in RCS `@` syntax.
fn quoted_len(s: &str) -> usize {
    s.len() + at_count(s) + 2
}

fn at_count(s: &str) -> usize {
    s.bytes().filter(|&b| b == b'@').count()
}

/// Appends `n` in decimal, zero-padded to at least `width` digits.
fn push_padded(out: &mut String, n: u64, width: usize) {
    for _ in digits(n as usize)..width {
        out.push('0');
    }
    push_usize(out, n as usize);
}

/// Appends `date` as an RCS datestamp, like [`Timestamp::to_rcs_date`].
fn push_date(out: &mut String, date: Timestamp) {
    let c = date.calendar();
    push_padded(out, c.year, 4);
    for field in [c.month, c.day, c.hour, c.minute, c.second] {
        out.push('.');
        push_padded(out, field, 2);
    }
}

fn date_len(date: Timestamp) -> usize {
    digits(date.calendar().year as usize).max(4) + 15
}

fn push_rev(out: &mut String, rev: RevId) {
    out.push_str("1.");
    push_usize(out, rev.0 as usize);
}

fn rev_len(rev: RevId) -> usize {
    2 + digits(rev.0 as usize)
}

// The fixed text between the fields of a `,v` file. [`emit`] writes these
// and [`emitted_len`] counts them, so the two cannot drift apart.
const HEAD: &str = "head\t";
const ADMIN: &str = ";\naccess;\nsymbols;\nlocks; strict;\ncomment\t@# @;\n\n";
const META_DATE: &str = "\ndate\t";
const META_AUTHOR: &str = ";\tauthor ";
const META_NEXT: &str = ";\tstate Exp;\nbranches;\nnext\t";
const META_END: &str = ";\n\n";
const DESC: &str = "\ndesc\n";
const BLOCK_START: &str = "\n";
const BLOCK_LOG: &str = "\nlog\n";
const BLOCK_TEXT: &str = "\ntext\n";
const BLOCK_END: &str = "\n\n";

/// Serializes an archive in `,v` syntax.
///
/// # Examples
///
/// ```
/// use aide_rcs::archive::Archive;
/// use aide_rcs::format::{emit, emitted_len, parse};
/// use aide_util::time::Timestamp;
///
/// let a = Archive::create("http://x/", "hello\n", "alice", "init", Timestamp(1000));
/// let text = emit(&a);
/// assert!(text.starts_with("head\t1.1;"));
/// assert_eq!(emitted_len(&a), text.len());
/// assert_eq!(parse(&text).unwrap(), a);
/// ```
pub fn emit(archive: &Archive) -> String {
    // Sized from the parts' raw lengths; only `@` doubling and unusually
    // long metadata can outgrow it.
    let estimate = archive.head_text.len()
        + archive
            .reverse_deltas
            .iter()
            .map(Delta::text_len)
            .sum::<usize>()
        + archive.description.len()
        + 160 * archive.metas.len()
        + 128;
    let mut out = String::with_capacity(estimate);
    out.push_str(HEAD);
    push_rev(&mut out, archive.head());
    out.push_str(ADMIN);

    // Delta table, newest first; `next` points at the previous trunk rev.
    for meta in archive.metas.iter().rev() {
        push_rev(&mut out, meta.id);
        out.push_str(META_DATE);
        push_date(&mut out, meta.date);
        out.push_str(META_AUTHOR);
        push_quoted(&mut out, &meta.author);
        out.push_str(META_NEXT);
        if meta.id.0 > 1 {
            push_rev(&mut out, RevId(meta.id.0 - 1));
        }
        out.push_str(META_END);
    }

    out.push_str(DESC);
    push_quoted(&mut out, &archive.description);
    out.push_str(BLOCK_END);

    // Text blocks, newest first: head in full, others as reverse deltas.
    let head = archive.head();
    let mut delta_text = String::new();
    for (idx, meta) in archive.metas.iter().enumerate().rev() {
        out.push_str(BLOCK_START);
        push_rev(&mut out, meta.id);
        out.push_str(BLOCK_LOG);
        push_quoted(&mut out, &meta.log);
        out.push_str(BLOCK_TEXT);
        if meta.id == head {
            push_quoted(&mut out, &archive.head_text);
        } else {
            delta_text.clear();
            archive.reverse_deltas[idx].write_to(&mut delta_text);
            push_quoted(&mut out, &delta_text);
        }
        out.push_str(BLOCK_END);
    }
    out
}

/// The length of [`emit`]'s output, computed without building it — the
/// size both repositories account for an archive.
pub fn emitted_len(archive: &Archive) -> usize {
    let head = archive.head();
    let mut len = HEAD.len() + rev_len(head) + ADMIN.len();
    for meta in &archive.metas {
        len += rev_len(meta.id)
            + META_DATE.len()
            + date_len(meta.date)
            + META_AUTHOR.len()
            + quoted_len(&meta.author)
            + META_NEXT.len()
            + META_END.len();
        if meta.id.0 > 1 {
            len += rev_len(RevId(meta.id.0 - 1));
        }
    }
    len += DESC.len() + quoted_len(&archive.description) + BLOCK_END.len();
    for (idx, meta) in archive.metas.iter().enumerate() {
        len += BLOCK_START.len()
            + rev_len(meta.id)
            + BLOCK_LOG.len()
            + quoted_len(&meta.log)
            + BLOCK_TEXT.len()
            + BLOCK_END.len();
        len += if meta.id == head {
            quoted_len(&archive.head_text)
        } else {
            let delta = &archive.reverse_deltas[idx];
            let ats: usize = delta
                .edits
                .iter()
                .map(|e| match e {
                    Edit::Add { text, .. } => at_count(text),
                    Edit::Delete { .. } => 0,
                })
                .sum();
            delta.text_len() + ats + 2
        };
    }
    len
}

/// A cursor over the `,v` byte stream.
struct Cursor<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src.as_bytes()[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    /// Reads the next whitespace/semicolon-delimited word.
    fn word(&mut self) -> Result<&'a str, FormatError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.src.len() {
            let b = self.src.as_bytes()[self.pos];
            if b.is_ascii_whitespace() || b == b';' || b == b'@' {
                break;
            }
            self.pos += 1;
        }
        if start == self.pos {
            return Err(FormatError::new(format!(
                "expected word at byte {}",
                self.pos
            )));
        }
        Ok(&self.src[start..self.pos])
    }

    /// Peeks whether the next non-whitespace char is `c`.
    fn peek_is(&mut self, c: char) -> bool {
        self.skip_ws();
        self.src[self.pos..].starts_with(c)
    }

    fn expect(&mut self, c: char) -> Result<(), FormatError> {
        self.skip_ws();
        if self.src[self.pos..].starts_with(c) {
            self.pos += c.len_utf8();
            Ok(())
        } else {
            Err(FormatError::new(format!(
                "expected {c:?} at byte {} (found {:?})",
                self.pos,
                &self.src[self.pos..self.src.len().min(self.pos + 10)]
            )))
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), FormatError> {
        let w = self.word()?;
        if w == kw {
            Ok(())
        } else {
            Err(FormatError::new(format!("expected {kw:?}, found {w:?}")))
        }
    }

    /// Reads an `@`-quoted string, un-doubling `@@`. Borrows from the
    /// source unless the string holds a doubled `@`; copies the runs
    /// between `@`s whole when it does.
    fn at_string(&mut self) -> Result<Cow<'a, str>, FormatError> {
        self.expect('@')?;
        let src = self.src;
        let mut owned: Option<String> = None;
        loop {
            let Some(at) = src[self.pos..].find('@') else {
                return Err(FormatError::new("unterminated @ string"));
            };
            let run = &src[self.pos..self.pos + at];
            self.pos += at;
            let doubled = src.as_bytes().get(self.pos + 1) == Some(&b'@');
            match (&mut owned, doubled) {
                (None, false) => {
                    self.pos += 1;
                    return Ok(Cow::Borrowed(run));
                }
                (Some(out), false) => {
                    out.push_str(run);
                    self.pos += 1;
                    return Ok(Cow::Owned(std::mem::take(out)));
                }
                (slot, true) => {
                    let out = slot.get_or_insert_with(String::new);
                    out.push_str(run);
                    out.push('@');
                    self.pos += 2;
                }
            }
        }
    }

    /// Skips an optional value up to the next `;`, then the `;` itself.
    fn skip_phrase(&mut self) -> Result<(), FormatError> {
        loop {
            self.skip_ws();
            if self.pos >= self.src.len() {
                return Err(FormatError::new("unterminated phrase"));
            }
            if self.src.as_bytes()[self.pos] == b';' {
                self.pos += 1;
                return Ok(());
            }
            if self.src.as_bytes()[self.pos] == b'@' {
                self.at_string()?;
            } else {
                self.pos += 1;
            }
        }
    }
}

/// Parses a `,v` file emitted by [`emit`] (or real RCS, for the trunk
/// subset).
pub fn parse(text: &str) -> Result<Archive, FormatError> {
    let mut c = Cursor { src: text, pos: 0 };

    c.expect_keyword("head")?;
    let head = RevId::parse(c.word()?).ok_or_else(|| FormatError::new("bad head revision"))?;
    c.expect(';')?;

    // Optional admin phrases until the first revision number.
    for kw in ["access", "symbols", "locks", "strict", "comment", "expand"] {
        let Some(first) = kw.chars().next() else {
            continue;
        };
        if c.peek_is(first) {
            let save = c.pos;
            match c.word() {
                Ok(w) if w == kw => {
                    if kw == "strict" {
                        c.expect(';')?;
                    } else {
                        c.skip_phrase()?;
                    }
                }
                _ => {
                    c.pos = save;
                    break;
                }
            }
        }
    }

    // Delta table: "<rev> date ...; author ...; state ...; branches; next ...;"
    let mut metas_desc: Vec<(RevId, Timestamp, String)> = Vec::new();
    loop {
        let save = c.pos;
        c.skip_ws();
        if c.src[c.pos..].starts_with("desc") {
            c.pos = save;
            break;
        }
        let rev = RevId::parse(c.word()?)
            .ok_or_else(|| FormatError::new("bad revision in delta table"))?;
        c.expect_keyword("date")?;
        let date =
            Timestamp::parse_rcs_date(c.word()?).ok_or_else(|| FormatError::new("bad date"))?;
        c.expect(';')?;
        c.expect_keyword("author")?;
        c.skip_ws();
        let author = if c.peek_is('@') {
            c.at_string()?.into_owned()
        } else {
            c.word()?.to_string()
        };
        c.expect(';')?;
        c.expect_keyword("state")?;
        c.skip_phrase()?;
        c.expect_keyword("branches")?;
        c.skip_phrase()?;
        c.expect_keyword("next")?;
        c.skip_phrase()?;
        metas_desc.push((rev, date, author));
    }

    c.expect_keyword("desc")?;
    let description = c.at_string()?.into_owned();

    // Text blocks: "<rev> log <@str@> text <@str@>".
    let mut blocks: Vec<(RevId, Cow<'_, str>, Cow<'_, str>)> = Vec::new();
    loop {
        c.skip_ws();
        if c.pos >= c.src.len() {
            break;
        }
        let rev = RevId::parse(c.word()?)
            .ok_or_else(|| FormatError::new("bad revision in text section"))?;
        c.expect_keyword("log")?;
        let log = c.at_string()?;
        c.expect_keyword("text")?;
        let body = c.at_string()?;
        blocks.push((rev, log, body));
    }

    // Assemble: metas oldest-first; deltas for non-head revisions.
    metas_desc.sort_by_key(|(rev, _, _)| *rev);
    blocks.sort_by_key(|(rev, _, _)| *rev);
    if metas_desc.len() != blocks.len() {
        return Err(FormatError::new("delta table and text blocks disagree"));
    }
    let (Some(newest_meta), Some(newest_block)) = (metas_desc.last(), blocks.last()) else {
        return Err(FormatError::new("delta table and text blocks disagree"));
    };
    if newest_meta.0 != head {
        return Err(FormatError::new("head does not match newest revision"));
    }
    let head_text = newest_block.2.to_string();
    let mut reverse_deltas = Vec::with_capacity(blocks.len() - 1);
    for (rev, _, body) in blocks.iter().take(blocks.len() - 1) {
        let delta =
            Delta::parse(body).map_err(|e| FormatError::new(format!("delta for {rev}: {e}")))?;
        reverse_deltas.push(delta);
    }

    // Recover per-revision text lengths by walking the chain backwards
    // over line shapes: every delta is checked as applying it would be,
    // but no older revision's text is built.
    let mut lens = vec![0usize; metas_desc.len()];
    let mut shapes = LineShape::lines_of(&head_text);
    lens[metas_desc.len() - 1] = head_text.len();
    for k in (0..reverse_deltas.len()).rev() {
        shapes = reverse_deltas[k]
            .apply_to_shapes(&shapes)
            .map_err(|e| FormatError::new(format!("applying delta {k}: {e}")))?;
        lens[k] = shapes.iter().map(|l| l.len).sum();
    }

    let metas: Vec<RevisionMeta> = metas_desc
        .into_iter()
        .zip(blocks)
        .zip(lens)
        .map(
            |(((id, date, author), (_, log, _)), text_len)| RevisionMeta {
                id,
                date,
                author,
                log: log.into_owned(),
                text_len,
            },
        )
        .collect();

    Ok(Archive {
        description,
        metas,
        head_text,
        reverse_deltas,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_util::time::Duration;

    fn t(day: u64) -> Timestamp {
        Timestamp::from_ymd_hms(1995, 10, 1, 8, 30, 0) + Duration::days(day)
    }

    fn sample() -> Archive {
        let mut a = Archive::create(
            "http://www.usenix.org/",
            "<HTML>\n<TITLE>USENIX</TITLE>\nv1 body\n</HTML>\n",
            "douglis@research.att.com",
            "initial snapshot",
            t(0),
        );
        a.checkin(
            "<HTML>\n<TITLE>USENIX</TITLE>\nv2 body with more\n</HTML>\n",
            "ball@research.att.com",
            "second snapshot",
            t(3),
        )
        .unwrap();
        a.checkin(
            "<HTML>\n<TITLE>USENIX Association</TITLE>\nv2 body with more\nplus a line\n</HTML>\n",
            "douglis@research.att.com",
            "third",
            t(9),
        )
        .unwrap();
        a
    }

    #[test]
    fn emit_parse_roundtrip() {
        let a = sample();
        let text = emit(&a);
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, a);
    }

    #[test]
    fn roundtrip_preserves_checkouts() {
        let a = sample();
        let parsed = parse(&emit(&a)).unwrap();
        for meta in a.metas() {
            assert_eq!(
                parsed.checkout(meta.id).unwrap(),
                a.checkout(meta.id).unwrap(),
                "checkout {} differs",
                meta.id
            );
        }
    }

    #[test]
    fn at_signs_in_content_escape() {
        let mut a = Archive::create(
            "mailto:douglis@research.att.com",
            "email me @ douglis@research.att.com\n",
            "douglis@research.att.com",
            "log with @ sign",
            t(0),
        );
        a.checkin("now with @@ doubled already\n", "x@y", "l@g", t(1))
            .unwrap();
        let parsed = parse(&emit(&a)).unwrap();
        assert_eq!(parsed, a);
        assert_eq!(
            parsed.checkout(RevId(1)).unwrap(),
            "email me @ douglis@research.att.com\n"
        );
    }

    #[test]
    fn single_revision_archive() {
        let a = Archive::create("d", "only\n", "me", "init", t(0));
        assert_eq!(parse(&emit(&a)).unwrap(), a);
    }

    #[test]
    fn text_without_trailing_newline_roundtrips() {
        let mut a = Archive::create("d", "no newline at end", "me", "init", t(0));
        a.checkin("still no newline at end, but changed", "me", "l", t(1))
            .unwrap();
        a.checkin("now with newline\n", "me", "l", t(2)).unwrap();
        let parsed = parse(&emit(&a)).unwrap();
        assert_eq!(parsed.checkout(RevId(1)).unwrap(), "no newline at end");
        assert_eq!(
            parsed.checkout(RevId(2)).unwrap(),
            "still no newline at end, but changed"
        );
    }

    #[test]
    fn empty_revision_text() {
        let mut a = Archive::create("d", "", "me", "init", t(0));
        a.checkin("content appears\n", "me", "l", t(1)).unwrap();
        let parsed = parse(&emit(&a)).unwrap();
        assert_eq!(parsed.checkout(RevId(1)).unwrap(), "");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("not an rcs file").is_err());
        assert!(parse("head 1.1;").is_err());
    }

    #[test]
    fn parse_rejects_mismatched_head() {
        let a = sample();
        let text = emit(&a).replace("head\t1.3;", "head\t1.9;");
        assert!(parse(&text).is_err());
    }

    #[test]
    fn header_shape() {
        let text = emit(&sample());
        assert!(text.starts_with("head\t1.3;\naccess;\nsymbols;\nlocks; strict;\n"));
        assert!(text.contains("desc\n@http://www.usenix.org/@"));
        assert!(text.contains("date\t1995.10.01.08.30.00;"));
    }

    #[test]
    fn many_revisions_roundtrip() {
        let mut a = Archive::create("d", "r1\n", "u", "init", t(0));
        for i in 2..=40u64 {
            a.checkin(
                &format!("r{i}\nshared tail\n"),
                "u",
                &format!("rev {i}"),
                t(i),
            )
            .unwrap();
        }
        let parsed = parse(&emit(&a)).unwrap();
        assert_eq!(parsed.len(), 40);
        assert_eq!(parsed.checkout(RevId(1)).unwrap(), "r1\n");
        assert_eq!(parsed.checkout(RevId(25)).unwrap(), "r25\nshared tail\n");
    }
}

/// The codec as it was before it wrote into one buffer and recovered
/// text lengths from line shapes: one `format!` per field, one `char` per
/// quoted character, every older revision materialised. Kept as the
/// byte-for-byte oracle for [`emit`], [`emitted_len`] and [`parse`].
#[cfg(test)]
mod oracle {
    use super::*;
    use proptest::prelude::*;

    fn quote(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('@');
        for c in s.chars() {
            if c == '@' {
                out.push('@');
            }
            out.push(c);
        }
        out.push('@');
        out
    }

    fn reference_delta_text(d: &Delta) -> String {
        let mut out = String::new();
        for edit in &d.edits {
            match edit {
                Edit::Delete { line, count } => out.push_str(&format!("d{line} {count}\n")),
                Edit::Add { line, text } => {
                    let lines = aide_util::lines::split_keep_newlines(text);
                    out.push_str(&format!("a{line} {}\n", lines.len()));
                    for l in lines {
                        out.push_str(l);
                    }
                }
            }
        }
        out
    }

    fn reference_emit(archive: &Archive) -> String {
        let mut out = String::new();
        out.push_str(&format!("head\t{};\n", archive.head()));
        out.push_str("access;\n");
        out.push_str("symbols;\n");
        out.push_str("locks; strict;\n");
        out.push_str("comment\t@# @;\n\n");
        for meta in archive.metas().iter().rev() {
            let next = if meta.id.0 > 1 {
                format!("1.{}", meta.id.0 - 1)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "{}\ndate\t{};\tauthor {};\tstate Exp;\nbranches;\nnext\t{};\n\n",
                meta.id,
                meta.date.to_rcs_date(),
                quote(&meta.author),
                next
            ));
        }
        out.push_str("\ndesc\n");
        out.push_str(&quote(&archive.description));
        out.push_str("\n\n");
        for (idx, meta) in archive.metas().iter().enumerate().rev() {
            out.push_str(&format!("\n{}\nlog\n{}\ntext\n", meta.id, quote(&meta.log)));
            if meta.id == archive.head() {
                out.push_str(&quote(archive.head_text()));
            } else {
                out.push_str(&quote(&reference_delta_text(&archive.reverse_deltas[idx])));
            }
            out.push_str("\n\n");
        }
        out
    }

    /// Text lengths by materialising every revision, oldest first.
    fn reference_lens(a: &Archive) -> Result<Vec<usize>, crate::delta::DeltaError> {
        let mut lens = vec![a.head_text.len()];
        let mut cur = a.head_text.clone();
        for d in a.reverse_deltas.iter().rev() {
            cur = d.apply(&cur)?;
            lens.push(cur.len());
        }
        lens.reverse();
        Ok(lens)
    }

    /// Texts with the codec's hard cases: `@` and `@@` (the quote
    /// character), non-ASCII, empty lines and a missing final newline.
    fn text() -> impl Strategy<Value = String> {
        (
            proptest::collection::vec(
                prop_oneof![
                    Just("line"),
                    Just(""),
                    Just("@"),
                    Just("@@"),
                    Just("mail fred@research.att.com"),
                    Just("héllo wörld ✓ 日本"),
                    Just("d1 2"),
                    Just("a3 1"),
                    Just("<P>html</P>"),
                ],
                0..14,
            ),
            any::<bool>(),
        )
            .prop_map(|(lines, trailing)| {
                let mut s = lines.join("\n");
                if trailing && !s.is_empty() {
                    s.push('\n');
                }
                s
            })
    }

    fn word() -> impl Strategy<Value = String> {
        prop_oneof![
            Just("tracker"),
            Just("douglis@research.att.com"),
            Just("@@"),
            Just("log with @ sign"),
            Just("ünïcode ✓"),
            Just(""),
        ]
        .prop_map(str::to_string)
    }

    fn archive() -> impl Strategy<Value = Archive> {
        (
            word(),
            proptest::collection::vec((text(), word(), word(), 0u64..400_000_000), 1..7),
        )
            .prop_map(|(desc, revs)| {
                let (text0, author0, log0, _) = &revs[0];
                let mut a = Archive::create(&desc, text0, author0, log0, Timestamp(1_000));
                let mut date = 1_000u64;
                for (text, author, log, step) in &revs[1..] {
                    date += step;
                    a.checkin(text, author, log, Timestamp(date)).unwrap();
                }
                a
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn emit_matches_the_reference_and_round_trips(a in archive()) {
            let text = emit(&a);
            prop_assert_eq!(&text, &reference_emit(&a));
            prop_assert_eq!(emitted_len(&a), text.len());
            let parsed = parse(&text).unwrap();
            prop_assert_eq!(&parsed, &a);
            prop_assert_eq!(emit(&parsed), text);
        }

        #[test]
        fn delta_text_matches_the_reference(a in archive()) {
            for d in &a.reverse_deltas {
                let text = d.to_text();
                prop_assert_eq!(&text, &reference_delta_text(d));
                prop_assert_eq!(d.text_len(), text.len());
                prop_assert_eq!(&Delta::parse(&text).unwrap(), d);
            }
        }

        #[test]
        fn parse_lengths_match_materialised_revisions(a in archive()) {
            let parsed = parse(&emit(&a)).unwrap();
            let lens: Vec<usize> = parsed.metas().iter().map(|m| m.text_len).collect();
            prop_assert_eq!(lens, reference_lens(&a).unwrap());
        }

        /// Hand-damaged deltas: `parse` must accept exactly the archives
        /// whose chains `Delta::apply` accepts, and agree on the lengths.
        #[test]
        fn parse_rejects_exactly_what_apply_rejects(
            a in archive(),
            which in 0usize..8,
            line in 0usize..12,
            count in 0usize..4,
            add in any::<bool>(),
        ) {
            let mut damaged = a.clone();
            if damaged.reverse_deltas.is_empty() {
                return Ok(());
            }
            let k = which % damaged.reverse_deltas.len();
            let edit = if add {
                Edit::Add { line, text: "x\n".repeat(count) }
            } else {
                Edit::Delete { line, count }
            };
            let edits = &mut damaged.reverse_deltas[k].edits;
            let at = (line + count) % (edits.len() + 1);
            edits.insert(at, edit);
            // The oracle sees the deltas as `parse` will: re-read from
            // their text (a planted command can glue onto a final line
            // that lacks its newline).
            let mut seen = damaged.clone();
            for d in &mut seen.reverse_deltas {
                match Delta::parse(&d.to_text()) {
                    Ok(reread) => *d = reread,
                    Err(_) => {
                        prop_assert!(parse(&emit(&damaged)).is_err());
                        return Ok(());
                    }
                }
            }
            match (parse(&emit(&damaged)), reference_lens(&seen)) {
                (Ok(p), Ok(lens)) => {
                    let got: Vec<usize> = p.metas().iter().map(|m| m.text_len).collect();
                    prop_assert_eq!(got, lens);
                }
                (Err(_), Err(_)) => {}
                (p, r) => prop_assert!(false, "parse {:?} vs apply {:?}", p.is_ok(), r.is_ok()),
            }
        }
    }

    #[test]
    fn out_of_range_delta_in_the_oldest_revision_fails_parse() {
        let mut a = Archive::create("d", "one\ntwo\n", "me", "init", Timestamp(0));
        for i in 1..5u64 {
            a.checkin(&format!("one\ntwo\nrev {i}\n"), "me", "l", Timestamp(i))
                .unwrap();
        }
        // Delete past the end, add past the end, and overlapping
        // commands, each planted in the delta recovering revision 1.1.
        let bad = [
            vec![Edit::Delete { line: 3, count: 5 }],
            vec![Edit::Add {
                line: 40,
                text: "x\n".into(),
            }],
            vec![
                Edit::Delete { line: 2, count: 2 },
                Edit::Delete { line: 3, count: 1 },
            ],
        ];
        for edits in bad {
            let mut damaged = a.clone();
            damaged.reverse_deltas[0].edits = edits;
            let err = parse(&emit(&damaged)).unwrap_err();
            assert!(err.message.contains("applying delta 0"), "{err}");
        }
    }
}
