//! RCS edit deltas: the `diff -n` command language.
//!
//! An RCS file stores the newest revision in full; each older revision is
//! reconstructed by applying an *edit script* to its successor. The script
//! language is that of `diff -n`: `d<line> <count>` deletes `count` lines
//! starting at 1-based `line` of the input, and `a<line> <count>` appends
//! `count` following lines of script text after input line `line`. Line
//! numbers always refer to the *input* text, so commands apply in a single
//! left-to-right pass.

use aide_diffcore::lines::diff_lines;
use aide_diffcore::script::EditOp;
use aide_util::lines::split_keep_newlines;
use std::fmt;

/// One edit command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Edit {
    /// Delete `count` input lines starting at 1-based `line`.
    Delete {
        /// 1-based first input line to delete.
        line: usize,
        /// Number of lines deleted.
        count: usize,
    },
    /// Insert the lines of `text` after 1-based input line `line` (0 = at
    /// the top).
    Add {
        /// 1-based input line after which to insert.
        line: usize,
        /// The inserted lines, concatenated, each retaining its `\n` (the
        /// final one may lack it). One string rather than one per line:
        /// archives hold many deltas, and every line would otherwise be
        /// its own allocation.
        text: String,
    },
}

/// An edit script transforming one text into another.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Delta {
    /// Commands in increasing input-line order.
    pub edits: Vec<Edit>,
}

/// Error applying a [`Delta`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaError(pub String);

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "delta apply failed: {}", self.0)
    }
}

impl std::error::Error for DeltaError {}

impl Delta {
    /// Computes the delta that transforms `from` into `to`.
    ///
    /// # Examples
    ///
    /// ```
    /// use aide_rcs::delta::Delta;
    ///
    /// let d = Delta::compute("a\nb\nc\n", "a\nx\nc\n");
    /// assert_eq!(d.apply("a\nb\nc\n").unwrap(), "a\nx\nc\n");
    /// ```
    pub fn compute(from: &str, to: &str) -> Delta {
        let diff = diff_lines(from, to);
        let mut edits = Vec::new();
        for op in diff.alignment.script().ops {
            match op {
                EditOp::Equal { .. } => {}
                EditOp::Delete { a_start, len, .. } => {
                    edits.push(Edit::Delete {
                        line: a_start + 1,
                        count: len,
                    });
                }
                EditOp::Insert {
                    a_pos,
                    b_start,
                    len,
                } => {
                    edits.push(Edit::Add {
                        line: a_pos,
                        text: diff.new_lines[b_start..b_start + len].concat(),
                    });
                }
            }
        }
        Delta { edits }
    }

    /// True if the delta makes no changes.
    pub fn is_empty(&self) -> bool {
        self.edits.is_empty()
    }

    /// Number of lines added across all commands.
    pub fn lines_added(&self) -> usize {
        self.edits
            .iter()
            .map(|e| match e {
                Edit::Add { text, .. } => line_count(text),
                _ => 0,
            })
            .sum()
    }

    /// Number of lines deleted across all commands.
    pub fn lines_deleted(&self) -> usize {
        self.edits
            .iter()
            .map(|e| match e {
                Edit::Delete { count, .. } => *count,
                _ => 0,
            })
            .sum()
    }

    /// Applies the delta to `input`, producing the transformed text.
    ///
    /// Fails if a command references lines the input does not have —
    /// which indicates a corrupted archive, not bad user input.
    pub fn apply(&self, input: &str) -> Result<String, DeltaError> {
        let lines = split_keep_newlines(input);
        let mut out = String::with_capacity(input.len());
        self.walk(lines.len(), |step| match step {
            Step::Copy(range) => {
                for l in &lines[range] {
                    out.push_str(l);
                }
            }
            Step::Add(add) => out.push_str(add),
        })?;
        Ok(out)
    }

    /// Applies the delta to a text known only by its lines' shapes,
    /// returning the shapes of the output's lines: the same checks as
    /// [`Delta::apply`], and the same line structure, without building
    /// the text. A line that lacks its `\n` joins the next one, exactly
    /// as re-splitting the concatenated output would.
    pub(crate) fn apply_to_shapes(
        &self,
        input: &[LineShape],
    ) -> Result<Vec<LineShape>, DeltaError> {
        let mut out: Vec<LineShape> = Vec::with_capacity(input.len() + self.lines_added());
        fn push(out: &mut Vec<LineShape>, line: LineShape) {
            if line.len == 0 {
                return;
            }
            match out.last_mut() {
                Some(prev) if !prev.newline => {
                    prev.len += line.len;
                    prev.newline = line.newline;
                }
                _ => out.push(line),
            }
        }
        self.walk(input.len(), |step| match step {
            Step::Copy(range) => {
                for &l in &input[range] {
                    push(&mut out, l);
                }
            }
            Step::Add(add) => {
                for l in split_keep_newlines(add) {
                    push(&mut out, LineShape::of(l));
                }
            }
        })?;
        Ok(out)
    }

    /// Walks the script over an input of `n` lines, checking each command
    /// as it goes, and reports the output in order.
    fn walk<'s>(&'s self, n: usize, mut step: impl FnMut(Step<'s>)) -> Result<(), DeltaError> {
        let mut cursor = 0usize; // 0-based index of next uncopied input line
        for edit in &self.edits {
            match edit {
                Edit::Delete { line, count } => {
                    let start = line
                        .checked_sub(1)
                        .ok_or_else(|| DeltaError("delete at line 0".into()))?;
                    if start < cursor {
                        return Err(DeltaError(format!(
                            "delete at line {line} overlaps earlier edit"
                        )));
                    }
                    if start.saturating_add(*count) > n {
                        return Err(DeltaError(format!(
                            "delete {count}@{line} past end of {n} lines"
                        )));
                    }
                    step(Step::Copy(cursor..start));
                    cursor = start + count;
                }
                Edit::Add { line, text } => {
                    if *line < cursor {
                        return Err(DeltaError(format!(
                            "add after line {line} overlaps earlier edit"
                        )));
                    }
                    if *line > n {
                        return Err(DeltaError(format!(
                            "add after line {line} past end of {n} lines"
                        )));
                    }
                    step(Step::Copy(cursor..*line));
                    cursor = *line;
                    step(Step::Add(text));
                }
            }
        }
        step(Step::Copy(cursor..n));
        Ok(())
    }

    /// Serializes in `diff -n` syntax (the body of an RCS delta).
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(self.text_len());
        self.write_to(&mut out);
        out
    }

    /// Appends the [`Delta::to_text`] serialization to `out`.
    pub fn write_to(&self, out: &mut String) {
        for edit in &self.edits {
            match edit {
                Edit::Delete { line, count } => {
                    out.push('d');
                    push_usize(out, *line);
                    out.push(' ');
                    push_usize(out, *count);
                    out.push('\n');
                }
                Edit::Add { line, text } => {
                    out.push('a');
                    push_usize(out, *line);
                    out.push(' ');
                    push_usize(out, line_count(text));
                    out.push('\n');
                    // Lines are stored verbatim. Only the final line of
                    // the final command can lack a newline (it can only
                    // come from the end of the source text), so command
                    // parsing never misfires on it.
                    out.push_str(text);
                }
            }
        }
    }

    /// Length in bytes of [`Delta::to_text`], computed without building it.
    pub fn text_len(&self) -> usize {
        self.edits
            .iter()
            .map(|edit| match edit {
                Edit::Delete { line, count } => 3 + digits(*line) + digits(*count),
                Edit::Add { line, text } => {
                    3 + digits(*line) + digits(line_count(text)) + text.len()
                }
            })
            .sum()
    }

    /// Parses `diff -n` syntax produced by [`Delta::to_text`].
    ///
    /// Added lines are stored verbatim, so a final added line without a
    /// trailing newline round-trips exactly.
    pub fn parse(text: &str) -> Result<Delta, DeltaError> {
        let mut edits = Vec::new();
        let mut pos = 0;
        while pos < text.len() {
            let end = line_end(text, pos);
            let cmd = text[pos..end].trim_end_matches('\n');
            pos = end;
            if cmd.is_empty() {
                continue;
            }
            let (kind, rest) = cmd.split_at(cmd.chars().next().map_or(0, char::len_utf8));
            let mut nums = rest.split_whitespace();
            let line: usize = nums
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| DeltaError(format!("bad command {cmd:?}")))?;
            let count: usize = nums
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| DeltaError(format!("bad command {cmd:?}")))?;
            match kind {
                "d" => edits.push(Edit::Delete { line, count }),
                "a" => {
                    // The added lines are one contiguous run of the text.
                    let start = pos;
                    for found in 0..count {
                        if pos >= text.len() {
                            return Err(DeltaError(format!(
                                "add command wants {count} lines, {found} remain"
                            )));
                        }
                        pos = line_end(text, pos);
                    }
                    edits.push(Edit::Add {
                        line,
                        text: text[start..pos].to_string(),
                    });
                }
                other => return Err(DeltaError(format!("unknown command {other:?}"))),
            }
        }
        Ok(Delta { edits })
    }

    /// Approximate storage cost of this delta in bytes, as stored in an
    /// archive file.
    pub fn byte_size(&self) -> usize {
        self.text_len()
    }
}

/// One step of a delta's output, in order.
enum Step<'s> {
    /// Input lines kept unchanged.
    Copy(std::ops::Range<usize>),
    /// Lines a command inserts, concatenated.
    Add(&'s str),
}

/// The shape of one line of a text: its byte length and whether it ends
/// in `\n` (only a text's last line may not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LineShape {
    pub(crate) len: usize,
    pub(crate) newline: bool,
}

impl LineShape {
    pub(crate) fn of(line: &str) -> LineShape {
        LineShape {
            len: line.len(),
            newline: line.ends_with('\n'),
        }
    }

    /// The shapes of `text`'s lines, as [`split_keep_newlines`] cuts them.
    pub(crate) fn lines_of(text: &str) -> Vec<LineShape> {
        split_keep_newlines(text)
            .into_iter()
            .map(LineShape::of)
            .collect()
    }
}

/// Lines in `text`, as [`split_keep_newlines`] counts them.
pub(crate) fn line_count(text: &str) -> usize {
    let newlines = text.bytes().filter(|&b| b == b'\n').count();
    newlines + usize::from(!text.is_empty() && !text.ends_with('\n'))
}

/// The end of the line starting at byte `pos` (past its `\n`, if any).
fn line_end(text: &str, pos: usize) -> usize {
    text[pos..].find('\n').map_or(text.len(), |i| pos + i + 1)
}

/// Decimal digits in `n`.
pub(crate) fn digits(mut n: usize) -> usize {
    let mut d = 1;
    while n >= 10 {
        n /= 10;
        d += 1;
    }
    d
}

/// Appends `n` in decimal.
pub(crate) fn push_usize(out: &mut String, n: usize) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    let mut n = n;
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    for &b in &buf[i..] {
        out.push(b as char);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(from: &str, to: &str) {
        let d = Delta::compute(from, to);
        assert_eq!(d.apply(from).unwrap(), to, "{from:?} -> {to:?}");
    }

    #[test]
    fn identity_delta_is_empty() {
        let d = Delta::compute("x\ny\n", "x\ny\n");
        assert!(d.is_empty());
        assert_eq!(d.apply("x\ny\n").unwrap(), "x\ny\n");
    }

    #[test]
    fn simple_edits_roundtrip() {
        roundtrip("a\nb\nc\n", "a\nx\nc\n");
        roundtrip("a\nb\nc\n", "b\nc\n");
        roundtrip("a\nb\n", "a\nb\nc\n");
        roundtrip("", "new\ncontent\n");
        roundtrip("old\ncontent\n", "");
        roundtrip("a\nb\nc\nd\ne\n", "e\nd\nc\nb\na\n");
    }

    #[test]
    fn no_trailing_newline_roundtrip() {
        roundtrip("a\nb", "a\nb\nc");
        roundtrip("a\nb\nc", "a\nb");
        roundtrip("x", "y");
    }

    #[test]
    fn insert_at_top() {
        let d = Delta::compute("b\n", "a\nb\n");
        assert_eq!(
            d.edits,
            vec![Edit::Add {
                line: 0,
                text: "a\n".into()
            }]
        );
    }

    #[test]
    fn change_is_delete_then_add() {
        let d = Delta::compute("a\nb\nc\n", "a\nB\nc\n");
        assert_eq!(d.edits.len(), 2);
        assert!(matches!(d.edits[0], Edit::Delete { line: 2, count: 1 }));
        assert!(matches!(&d.edits[1], Edit::Add { line: 2, .. }));
    }

    #[test]
    fn text_format_roundtrip() {
        let d = Delta::compute("one\ntwo\nthree\nfour\n", "one\nTWO\nthree\nfive\nsix\n");
        let text = d.to_text();
        let parsed = Delta::parse(&text).unwrap();
        assert_eq!(
            parsed.apply("one\ntwo\nthree\nfour\n").unwrap(),
            "one\nTWO\nthree\nfive\nsix\n"
        );
    }

    #[test]
    fn counts() {
        let d = Delta::compute("a\nb\nc\n", "a\nx\ny\n");
        assert_eq!(d.lines_deleted(), 2);
        assert_eq!(d.lines_added(), 2);
    }

    #[test]
    fn apply_rejects_out_of_range() {
        let d = Delta {
            edits: vec![Edit::Delete { line: 5, count: 2 }],
        };
        assert!(d.apply("one\n").is_err());
        let d = Delta {
            edits: vec![Edit::Add {
                line: 9,
                text: "x\n".into(),
            }],
        };
        assert!(d.apply("one\n").is_err());
    }

    #[test]
    fn apply_rejects_overlapping_commands() {
        let d = Delta {
            edits: vec![
                Edit::Delete { line: 2, count: 2 },
                Edit::Delete { line: 3, count: 1 },
            ],
        };
        assert!(d.apply("a\nb\nc\nd\n").is_err());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Delta::parse("x3 1\n").is_err());
        assert!(Delta::parse("d\n").is_err());
        assert!(Delta::parse("a1 5\nonly\n").is_err());
    }

    #[test]
    fn delta_smaller_than_full_copy_for_small_edits() {
        let base: String = (0..200).map(|i| format!("line number {i}\n")).collect();
        let mut edited = base.clone();
        edited.push_str("appended line\n");
        let d = Delta::compute(&base, &edited);
        assert!(
            d.byte_size() < base.len() / 10,
            "delta should be tiny: {}",
            d.byte_size()
        );
    }
}
