//! A small regular-expression engine for w3newer configuration patterns.
//!
//! Table 1 of the paper shows a w3newer configuration file whose left-hand
//! column is a perl pattern ("perl syntax requires that `.` be escaped"),
//! matched against URLs with first-match-wins semantics. This module
//! implements the subset those configurations use — literals, `.`,
//! `*`/`+`/`?` repetition, character classes, grouping, alternation and
//! anchors — as a Thompson-NFA "Pike VM", immune to the pathological
//! backtracking a naive engine hits on patterns like `(a+)+`.
//!
//! A search is one pass over the input. An unanchored search adds a
//! thread at the program's start at every position rather than
//! restarting the VM per start position, so it visits each (position,
//! instruction) pair at most once: O(input × pattern) work, with the
//! thread lists and the visited set allocated once per call. Before the
//! VM runs, a literal prefilter checks the pattern's required prefix, its
//! leading run of plain characters: an unanchored search starts at the
//! first occurrence of that prefix and is rejected outright when there is
//! none, and an anchored one checks `starts_with`. Most Table 1 rules
//! (`file:`, `http://www\.yahoo\.com/…`) so reject a URL with one
//! substring scan.

use std::fmt;

/// A compiled pattern.
///
/// # Examples
///
/// ```
/// use aide_util::pattern::Pattern;
///
/// let p = Pattern::new(r"http://www\.yahoo\.com/.*").unwrap();
/// assert!(p.matches("http://www.yahoo.com/finance"));
/// assert!(!p.matches("http://www2yahoo.com/"));
/// ```
#[derive(Debug, Clone)]
pub struct Pattern {
    source: String,
    prog: Vec<Inst>,
    anchored_start: bool,
    /// The literal every match starts with (possibly empty).
    prefix: String,
}

/// Error from [`Pattern::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the pattern source where the error was detected.
    pub offset: usize,
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pattern error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for PatternError {}

#[derive(Debug, Clone, PartialEq)]
enum Ast {
    Empty,
    Char(char),
    AnyChar,
    Class {
        negated: bool,
        ranges: Vec<(char, char)>,
    },
    Concat(Vec<Ast>),
    Alternate(Vec<Ast>),
    Star(Box<Ast>),
    Plus(Box<Ast>),
    Quest(Box<Ast>),
    EndAnchor,
}

#[derive(Debug, Clone)]
enum Inst {
    Char(char),
    Any,
    Class {
        negated: bool,
        ranges: Vec<(char, char)>,
    },
    Split(usize, usize),
    Jmp(usize),
    End,
    Match,
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
}

impl Parser {
    fn new(src: &str) -> Parser {
        Parser {
            chars: src.chars().collect(),
            pos: 0,
        }
    }

    fn err(&self, message: &str) -> PatternError {
        let offset = self.chars[..self.pos.min(self.chars.len())]
            .iter()
            .map(|c| c.len_utf8())
            .sum();
        PatternError {
            message: message.to_string(),
            offset,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn parse_alternate(&mut self) -> Result<Ast, PatternError> {
        let mut branches = vec![self.parse_concat()?];
        while self.peek() == Some('|') {
            self.bump();
            branches.push(self.parse_concat()?);
        }
        match branches.pop() {
            Some(only) if branches.is_empty() => Ok(only),
            Some(last) => {
                branches.push(last);
                Ok(Ast::Alternate(branches))
            }
            None => Ok(Ast::Empty),
        }
    }

    fn parse_concat(&mut self) -> Result<Ast, PatternError> {
        let mut items = Vec::new();
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            items.push(self.parse_repeat()?);
        }
        match items.pop() {
            None => Ok(Ast::Empty),
            Some(only) if items.is_empty() => Ok(only),
            Some(last) => {
                items.push(last);
                Ok(Ast::Concat(items))
            }
        }
    }

    fn parse_repeat(&mut self) -> Result<Ast, PatternError> {
        let atom = self.parse_atom()?;
        match self.peek() {
            Some('*') => {
                self.bump();
                Ok(Ast::Star(Box::new(atom)))
            }
            Some('+') => {
                self.bump();
                Ok(Ast::Plus(Box::new(atom)))
            }
            Some('?') => {
                self.bump();
                Ok(Ast::Quest(Box::new(atom)))
            }
            _ => Ok(atom),
        }
    }

    fn parse_atom(&mut self) -> Result<Ast, PatternError> {
        match self.bump() {
            None => Err(self.err("unexpected end of pattern")),
            Some('(') => {
                let inner = self.parse_alternate()?;
                if self.bump() != Some(')') {
                    return Err(self.err("unclosed group"));
                }
                Ok(inner)
            }
            Some('[') => self.parse_class(),
            Some('.') => Ok(Ast::AnyChar),
            Some('$') => Ok(Ast::EndAnchor),
            Some('*') | Some('+') | Some('?') => Err(self.err("repetition with nothing to repeat")),
            Some('\\') => match self.bump() {
                None => Err(self.err("trailing backslash")),
                Some('d') => Ok(Ast::Class {
                    negated: false,
                    ranges: vec![('0', '9')],
                }),
                Some('w') => Ok(Ast::Class {
                    negated: false,
                    ranges: vec![('a', 'z'), ('A', 'Z'), ('0', '9'), ('_', '_')],
                }),
                Some('s') => Ok(Ast::Class {
                    negated: false,
                    ranges: vec![(' ', ' '), ('\t', '\t'), ('\n', '\n'), ('\r', '\r')],
                }),
                Some(c) => Ok(Ast::Char(c)),
            },
            Some(c) => Ok(Ast::Char(c)),
        }
    }

    fn parse_class(&mut self) -> Result<Ast, PatternError> {
        let negated = if self.peek() == Some('^') {
            self.bump();
            true
        } else {
            false
        };
        let mut ranges = Vec::new();
        let mut first = true;
        loop {
            match self.bump() {
                None => return Err(self.err("unclosed character class")),
                Some(']') if !first => break,
                Some(c) => {
                    let lo = if c == '\\' {
                        self.bump()
                            .ok_or_else(|| self.err("trailing backslash in class"))?
                    } else {
                        c
                    };
                    if self.peek() == Some('-')
                        && self
                            .chars
                            .get(self.pos + 1)
                            .copied()
                            .is_some_and(|n| n != ']')
                    {
                        self.bump(); // the '-'
                        let hi = match self.bump() {
                            Some('\\') => self
                                .bump()
                                .ok_or_else(|| self.err("trailing backslash in class"))?,
                            Some(h) => h,
                            None => return Err(self.err("unclosed character class")),
                        };
                        if hi < lo {
                            return Err(self.err("inverted range in character class"));
                        }
                        ranges.push((lo, hi));
                    } else {
                        ranges.push((lo, lo));
                    }
                }
            }
            first = false;
        }
        Ok(Ast::Class { negated, ranges })
    }
}

fn compile(ast: &Ast, prog: &mut Vec<Inst>) {
    match ast {
        Ast::Empty => {}
        Ast::Char(c) => prog.push(Inst::Char(*c)),
        Ast::AnyChar => prog.push(Inst::Any),
        Ast::Class { negated, ranges } => prog.push(Inst::Class {
            negated: *negated,
            ranges: ranges.clone(),
        }),
        Ast::EndAnchor => prog.push(Inst::End),
        Ast::Concat(items) => {
            for item in items {
                compile(item, prog);
            }
        }
        Ast::Alternate(branches) => {
            // Chain of splits; each branch jumps to the common exit.
            let mut jmp_slots = Vec::new();
            for (i, b) in branches.iter().enumerate() {
                if i + 1 < branches.len() {
                    let split_at = prog.len();
                    prog.push(Inst::Split(0, 0));
                    compile(b, prog);
                    jmp_slots.push(prog.len());
                    prog.push(Inst::Jmp(0));
                    let next = prog.len();
                    prog[split_at] = Inst::Split(split_at + 1, next);
                } else {
                    compile(b, prog);
                }
            }
            let end = prog.len();
            for slot in jmp_slots {
                prog[slot] = Inst::Jmp(end);
            }
        }
        Ast::Star(inner) => {
            let split_at = prog.len();
            prog.push(Inst::Split(0, 0));
            compile(inner, prog);
            prog.push(Inst::Jmp(split_at));
            let after = prog.len();
            prog[split_at] = Inst::Split(split_at + 1, after);
        }
        Ast::Plus(inner) => {
            let body = prog.len();
            compile(inner, prog);
            let split_at = prog.len();
            prog.push(Inst::Split(body, split_at + 1));
        }
        Ast::Quest(inner) => {
            let split_at = prog.len();
            prog.push(Inst::Split(0, 0));
            compile(inner, prog);
            let after = prog.len();
            prog[split_at] = Inst::Split(split_at + 1, after);
        }
    }
}

impl Pattern {
    /// Compiles `source` into a pattern.
    ///
    /// A leading `^` anchors the match at the start of the input;
    /// otherwise the pattern may match anywhere (perl search semantics).
    pub fn new(source: &str) -> Result<Pattern, PatternError> {
        let (anchored_start, body) = match source.strip_prefix('^') {
            Some(rest) => (true, rest),
            None => (false, source),
        };
        let mut parser = Parser::new(body);
        let ast = parser.parse_alternate()?;
        if parser.pos != parser.chars.len() {
            return Err(parser.err("unexpected character"));
        }
        let mut prog = Vec::new();
        compile(&ast, &mut prog);
        prog.push(Inst::Match);
        // Every thread starts at pc 0 and a `Char` only falls through to
        // the next pc, so the leading `Char` run begins every match.
        let prefix = prog
            .iter()
            .map_while(|inst| match inst {
                Inst::Char(c) => Some(*c),
                _ => None,
            })
            .collect();
        Ok(Pattern {
            source: source.to_string(),
            prog,
            anchored_start,
            prefix,
        })
    }

    /// Returns the original pattern source.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Returns true if the pattern matches anywhere in `input`
    /// (or at the start, for `^`-anchored patterns).
    pub fn matches(&self, input: &str) -> bool {
        self.search(input, false)
    }

    /// Returns true if the pattern matches the whole of `input`, as if it
    /// were written `^pattern$`.
    pub fn matches_fully(&self, input: &str) -> bool {
        self.search(input, true)
    }

    /// One Pike-VM pass over `input`. An unanchored search adds a thread
    /// at pc 0 at every position instead of restarting per start
    /// position, and jumps over stretches where no thread is alive to the
    /// next occurrence of the literal prefix. `full` accepts a match only
    /// at the end of the input (and implies a start anchor).
    fn search(&self, input: &str, full: bool) -> bool {
        let anchored = full || self.anchored_start;
        let prefix = self.prefix.as_str();
        let mut pos = if anchored {
            if !input.starts_with(prefix) {
                return false;
            }
            0
        } else {
            // A prefix longer than the input cannot occur in it; testing
            // the length first spares `find` its per-call set-up.
            if input.len() < prefix.len() {
                return false;
            }
            match input.find(prefix) {
                Some(at) => at,
                None => return false,
            }
        };
        let n = self.prog.len();
        let mut vm = Vm {
            prog: &self.prog,
            seen: vec![0; n],
            generation: 1,
            full,
            hit: false,
        };
        let mut clist = Vec::with_capacity(n);
        let mut nlist = Vec::with_capacity(n);
        loop {
            if !anchored || pos == 0 {
                vm.add(&mut clist, 0, pos == input.len());
                if vm.hit {
                    return true;
                }
            }
            if anchored && clist.is_empty() {
                return false;
            }
            let Some(c) = input[pos..].chars().next() else {
                return false;
            };
            pos += c.len_utf8();
            vm.generation += 1;
            let at_end = pos == input.len();
            for &pc in &clist {
                let step = match &self.prog[pc] {
                    Inst::Char(want) => *want == c,
                    Inst::Any => true,
                    Inst::Class { negated, ranges } => {
                        let inside = ranges.iter().any(|&(lo, hi)| c >= lo && c <= hi);
                        inside != *negated
                    }
                    _ => false,
                };
                if step {
                    vm.add(&mut nlist, pc + 1, at_end);
                }
            }
            if vm.hit {
                return true;
            }
            clist.clear();
            std::mem::swap(&mut clist, &mut nlist);
            if clist.is_empty() && !anchored && !prefix.is_empty() {
                // No thread alive: no match can start before the prefix
                // occurs again. The generation carries over to that
                // position: only pc 0, a `Char`, is added there, and it
                // is unmarked, or the list would not be empty.
                match input[pos..].find(prefix) {
                    Some(skip) => pos += skip,
                    None => return false,
                }
            }
        }
    }
}

/// The state of one [`Pattern::search`] call, allocated once per call.
struct Vm<'a> {
    prog: &'a [Inst],
    /// `seen[pc] == generation` once `pc` is on the current position's
    /// thread list; bumping `generation` empties the set in O(1).
    seen: Vec<usize>,
    generation: usize,
    full: bool,
    /// A thread reached `Match` where a match is accepted.
    hit: bool,
}

impl Vm<'_> {
    /// Adds the thread at `pc`, following jumps, splits and a satisfied
    /// `$`, to `list` unless it is already there.
    fn add(&mut self, list: &mut Vec<usize>, pc: usize, at_end: bool) {
        if self.seen[pc] == self.generation {
            return;
        }
        self.seen[pc] = self.generation;
        #[cfg(test)]
        tests::count_step();
        match &self.prog[pc] {
            Inst::Jmp(t) => self.add(list, *t, at_end),
            Inst::Split(a, b) => {
                self.add(list, *a, at_end);
                self.add(list, *b, at_end);
            }
            Inst::End => {
                if at_end {
                    self.add(list, pc + 1, at_end);
                }
            }
            Inst::Match => self.hit |= at_end || !self.full,
            _ => list.push(pc),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;
    use std::cell::Cell;

    fn p(s: &str) -> Pattern {
        Pattern::new(s).unwrap_or_else(|e| panic!("pattern {s:?}: {e}"))
    }

    thread_local! {
        static STEPS: Cell<u64> = const { Cell::new(0) };
    }

    /// Counts one thread added by [`Vm::add`].
    pub(super) fn count_step() {
        STEPS.with(|s| s.set(s.get() + 1));
    }

    /// Runs `f` and returns its result with the VM steps it took.
    fn counting(f: impl FnOnce() -> bool) -> (bool, u64) {
        STEPS.with(|s| s.set(0));
        let out = f();
        (out, STEPS.with(Cell::get))
    }

    // The per-start-position matcher the one-pass VM replaced: a fresh
    // Pike VM from every start position, allocating per character. It
    // is quadratic but obviously right, so it is the oracle.

    fn oracle_matches(pat: &Pattern, input: &str) -> bool {
        let chars: Vec<char> = input.chars().collect();
        if pat.anchored_start {
            oracle_run(pat, &chars, 0)
        } else {
            (0..=chars.len()).any(|start| oracle_run(pat, &chars, start))
        }
    }

    fn oracle_matches_fully(pat: &Pattern, input: &str) -> bool {
        let chars: Vec<char> = input.chars().collect();
        oracle_run_full(pat, &chars)
    }

    fn oracle_add_thread(
        pat: &Pattern,
        list: &mut Vec<usize>,
        on_list: &mut [bool],
        pc: usize,
        at_end: bool,
    ) {
        if on_list[pc] {
            return;
        }
        on_list[pc] = true;
        match &pat.prog[pc] {
            Inst::Jmp(t) => oracle_add_thread(pat, list, on_list, *t, at_end),
            Inst::Split(a, b) => {
                oracle_add_thread(pat, list, on_list, *a, at_end);
                oracle_add_thread(pat, list, on_list, *b, at_end);
            }
            Inst::End => {
                if at_end {
                    oracle_add_thread(pat, list, on_list, pc + 1, at_end);
                }
            }
            _ => list.push(pc),
        }
    }

    fn oracle_step(inst: &Inst, c: char) -> bool {
        match inst {
            Inst::Char(want) => *want == c,
            Inst::Any => true,
            Inst::Class { negated, ranges } => {
                let inside = ranges.iter().any(|&(lo, hi)| c >= lo && c <= hi);
                inside != *negated
            }
            _ => false,
        }
    }

    fn oracle_run(pat: &Pattern, chars: &[char], start: usize) -> bool {
        let n = pat.prog.len();
        let is_match = |pc: &usize| matches!(pat.prog[*pc], Inst::Match);
        let mut clist = Vec::new();
        let mut on = vec![false; n];
        oracle_add_thread(pat, &mut clist, &mut on, 0, start == chars.len());
        if clist.iter().any(is_match) {
            return true;
        }
        let mut pos = start;
        while pos < chars.len() {
            let c = chars[pos];
            pos += 1;
            let at_end = pos == chars.len();
            let mut nlist = Vec::new();
            let mut non = vec![false; n];
            for &pc in &clist {
                if oracle_step(&pat.prog[pc], c) {
                    oracle_add_thread(pat, &mut nlist, &mut non, pc + 1, at_end);
                }
            }
            if nlist.iter().any(is_match) {
                return true;
            }
            clist = nlist;
            if clist.is_empty() {
                return false;
            }
        }
        clist.iter().any(is_match)
    }

    fn oracle_run_full(pat: &Pattern, chars: &[char]) -> bool {
        let n = pat.prog.len();
        let mut clist = Vec::new();
        let mut on = vec![false; n];
        oracle_add_thread(pat, &mut clist, &mut on, 0, chars.is_empty());
        for (pos, &c) in chars.iter().enumerate() {
            let at_end = pos + 1 == chars.len();
            let mut nlist = Vec::new();
            let mut non = vec![false; n];
            for &pc in &clist {
                if oracle_step(&pat.prog[pc], c) {
                    oracle_add_thread(pat, &mut nlist, &mut non, pc + 1, at_end);
                }
            }
            clist = nlist;
            if clist.is_empty() {
                return false;
            }
        }
        clist.iter().any(|&pc| matches!(pat.prog[pc], Inst::Match))
    }

    /// Characters both the random patterns and the random inputs draw
    /// from: few enough that matches are common, two of them non-ASCII.
    const ALPHABET: [char; 6] = ['a', 'b', '/', '.', 'é', '日'];

    fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
        from[rng.below(from.len() as u64) as usize]
    }

    /// Random pattern sources over the whole supported grammar.
    struct RandomPattern;

    impl RandomPattern {
        fn alternate(rng: &mut TestRng, depth: u32, out: &mut String) {
            for i in 0..=rng.below(3) {
                if i > 0 {
                    out.push('|');
                }
                for _ in 0..rng.below(4) {
                    Self::repeat(rng, depth, out);
                }
            }
        }

        fn repeat(rng: &mut TestRng, depth: u32, out: &mut String) {
            Self::atom(rng, depth, out);
            if rng.below(3) == 0 {
                out.push(pick(rng, &['*', '+', '?']));
            }
        }

        fn atom(rng: &mut TestRng, depth: u32, out: &mut String) {
            match rng.below(if depth == 0 { 5 } else { 6 }) {
                0 | 1 => match pick(rng, &ALPHABET) {
                    '.' => out.push_str(r"\."),
                    c => out.push(c),
                },
                2 => out.push('.'),
                3 => out.push_str(pick(rng, &["[ab]", "[^a/]", "[a-é]", r"[\.日]", r"\w"])),
                4 => out.push_str(pick(rng, &["$", "a", "b"])),
                _ => {
                    out.push('(');
                    Self::alternate(rng, depth - 1, out);
                    out.push(')');
                }
            }
        }
    }

    impl Strategy for RandomPattern {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let mut out = String::new();
            if rng.bool() {
                out.push('^');
            }
            Self::alternate(rng, 2, &mut out);
            if rng.below(4) == 0 {
                out.push('$');
            }
            out
        }
    }

    /// Random inputs of up to a dozen characters from [`ALPHABET`].
    struct RandomInputs;

    impl Strategy for RandomInputs {
        type Value = Vec<String>;
        fn generate(&self, rng: &mut TestRng) -> Vec<String> {
            (0..8)
                .map(|_| (0..rng.below(13)).map(|_| pick(rng, &ALPHABET)).collect())
                .collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]
        #[test]
        fn one_pass_vm_agrees_with_the_per_start_oracle(
            source in RandomPattern,
            inputs in RandomInputs,
        ) {
            let pat = Pattern::new(&source)
                .map_err(|e| TestCaseError::fail(format!("{source:?}: {e}")))?;
            for input in &inputs {
                prop_assert_eq!(
                    pat.matches(input),
                    oracle_matches(&pat, input),
                    "matches({:?}) for {:?}", input, source
                );
                prop_assert_eq!(
                    pat.matches_fully(input),
                    oracle_matches_fully(&pat, input),
                    "matches_fully({:?}) for {:?}", input, source
                );
            }
        }
    }

    #[test]
    fn unanchored_search_is_linear_in_the_input() {
        let att = p(r"http://.*\.att\.com/.*");
        let bound = |input: &str| (input.chars().count() as u64 + 1) * att.prog.len() as u64;
        // Near misses keep every thread of the pattern alive, and a
        // prefix at every position seeds a new one each step.
        let near_miss = format!("http://{}", "x.att.comx".repeat(64 * 1024 / 10));
        let prefixes = "http://".repeat(64 * 1024 / 7);
        for input in [&near_miss, &prefixes] {
            let (found, steps) = counting(|| att.matches(input));
            assert!(!found);
            assert!(steps <= bound(input), "{steps} steps > {}", bound(input));
            let (found, steps) = counting(|| att.matches_fully(input));
            assert!(!found);
            assert!(steps <= bound(input), "{steps} steps > {}", bound(input));
        }
        let hit = format!("{near_miss}.att.com/");
        let (found, steps) = counting(|| att.matches(&hit));
        assert!(found);
        assert!(steps <= bound(&hit));
    }

    #[test]
    fn literal_prefix_is_the_leading_char_run() {
        assert_eq!(
            p(r"http://www\.yahoo\.com/.*").prefix,
            "http://www.yahoo.com/"
        );
        assert_eq!(p("file:.*").prefix, "file:");
        assert_eq!(p("^abc").prefix, "abc");
        assert_eq!(p("(ab)+c").prefix, "ab");
        assert_eq!(p("ab*").prefix, "a");
        assert_eq!(p("a|b").prefix, "");
        assert_eq!(p("a$").prefix, "a");
        assert_eq!(p("").prefix, "");
    }

    #[test]
    fn absent_prefix_is_rejected_without_running_the_vm() {
        let (found, steps) = counting(|| p("file:.*").matches(&"http://x/".repeat(100)));
        assert!(!found);
        assert_eq!(steps, 0);
        let (found, steps) = counting(|| p("^http").matches("see http://x/"));
        assert!(!found);
        assert_eq!(steps, 0);
    }

    #[test]
    fn literal_search_is_unanchored() {
        assert!(p("att").matches("http://www.att.com/"));
        assert!(!p("att").matches("http://www.mit.edu/"));
    }

    #[test]
    fn escaped_dot_is_literal() {
        assert!(p(r"www\.yahoo\.com").matches("http://www.yahoo.com/"));
        assert!(!p(r"www\.yahoo\.com").matches("http://wwwXyahooXcom/"));
        assert!(
            p("www.yahoo.com").matches("http://wwwXyahooXcom/"),
            "unescaped dot is wildcard"
        );
    }

    #[test]
    fn table1_patterns() {
        // The actual patterns from Table 1 of the paper.
        let yahoo = p(r"http://www\.yahoo\.com/.*");
        assert!(yahoo.matches("http://www.yahoo.com/headlines/"));
        let att = p(r"http://.*\.att\.com/.*");
        assert!(att.matches("http://www.research.att.com/people/"));
        assert!(!att.matches("http://www.ibm.com/"));
        let file = p("file:.*");
        assert!(file.matches("file:/home/user/notes.html"));
        let dilbert = p(r"http://www\.unitedmedia\.com/comics/dilbert/");
        assert!(dilbert.matches("http://www.unitedmedia.com/comics/dilbert/"));
    }

    #[test]
    fn star_plus_quest() {
        assert!(p("ab*c").matches_fully("ac"));
        assert!(p("ab*c").matches_fully("abbbc"));
        assert!(!p("ab+c").matches_fully("ac"));
        assert!(p("ab+c").matches_fully("abc"));
        assert!(p("ab?c").matches_fully("ac"));
        assert!(p("ab?c").matches_fully("abc"));
        assert!(!p("ab?c").matches_fully("abbc"));
    }

    #[test]
    fn alternation_and_groups() {
        let x = p("^http://(www|ftp)\\.example\\.(com|org)/");
        assert!(x.matches("http://www.example.com/x"));
        assert!(x.matches("http://ftp.example.org/"));
        assert!(!x.matches("http://mail.example.com/"));
        assert!(p("(ab)+").matches_fully("ababab"));
        assert!(!p("(ab)+").matches_fully("aba"));
    }

    #[test]
    fn character_classes() {
        assert!(p("[a-z]+").matches_fully("hello"));
        assert!(!p("[a-z]+").matches_fully("Hello"));
        assert!(p("[^0-9]+").matches_fully("no-digits!"));
        assert!(!p("[^0-9]+").matches_fully("a1b"));
        assert!(p(r"[\]]").matches("]"));
        assert!(p("[-a]").matches("-"), "leading - after ranges is literal");
    }

    #[test]
    fn escape_shorthands() {
        assert!(p(r"\d+").matches_fully("12345"));
        assert!(p(r"\w+").matches_fully("foo_bar9"));
        assert!(p(r"a\sb").matches_fully("a b"));
    }

    #[test]
    fn anchors() {
        assert!(p("^http").matches("http://x/"));
        assert!(!p("^http").matches("see http://x/"));
        assert!(p("html$").matches("index.html"));
        assert!(!p("html$").matches("index.html.bak"));
        assert!(p("^$").matches(""));
        assert!(!p("^$").matches("x"));
    }

    #[test]
    fn pathological_pattern_is_fast() {
        // A backtracking engine would take exponential time here.
        let pat = p("(a+)+b");
        let input = "a".repeat(200);
        assert!(!pat.matches(&input));
        assert!(pat.matches(&format!("{input}b")));
    }

    #[test]
    fn parse_errors() {
        assert!(Pattern::new("(").is_err());
        assert!(Pattern::new("a)").is_err());
        assert!(Pattern::new("[abc").is_err());
        assert!(Pattern::new("*a").is_err());
        assert!(Pattern::new("a\\").is_err());
        assert!(Pattern::new("[z-a]").is_err());
    }

    #[test]
    fn empty_pattern_matches_everything() {
        assert!(p("").matches(""));
        assert!(p("").matches("anything"));
        assert!(p(".*").matches("anything"));
    }

    #[test]
    fn unicode_input() {
        assert!(p("café").matches("visit café now"));
        assert!(p(".").matches("é"));
    }
}
