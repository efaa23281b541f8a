//! Token-level structure over a lexed file: matched delimiters, statement
//! boundaries, comment adjacency, `use`-tree flattening, item discovery
//! (`fn` bodies, `#[cfg(test)]` modules, retry loops).
//!
//! This is the shared substrate of every pass. Nothing here decides
//! policy; it answers syntactic questions ("which comments lead this
//! statement?", "what paths does this `use` item import?", "where does
//! this function's body end?") that the passes combine into lints.

use crate::lexer::{lex, Delim, Tok, TokKind};

/// A lexed file plus derived structure.
#[derive(Debug)]
pub struct SourceFile {
    /// Path label used in findings (workspace-relative).
    pub label: String,
    /// The token stream, comments included.
    pub toks: Vec<Tok>,
    /// For each `Open`/`Close` token, the index of its partner.
    pub partner: Vec<Option<usize>>,
    /// Token index ranges (inclusive braces) of `#[cfg(test)] mod` bodies.
    pub test_mod_ranges: Vec<(usize, usize)>,
    /// Token indices of every comment, in token (hence line) order: the
    /// per-line comment index behind [`SourceFile::attached_comments`].
    comments: Vec<usize>,
}

/// One flattened path imported by a `use` item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsePath {
    /// Path segments, e.g. `["std", "sync", "atomic", "AtomicUsize"]`.
    /// A glob import ends with `"*"`.
    pub segments: Vec<String>,
    /// `as` rename, if any.
    pub rename: Option<String>,
    /// Source line of the final segment.
    pub line: usize,
}

/// A `fn` item: signature and body token ranges.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: usize,
    /// Token index of the `fn` keyword.
    pub fn_idx: usize,
    /// Token indices of the body braces `(open, close)`; `None` for a
    /// bodiless trait-method declaration.
    pub body: Option<(usize, usize)>,
    /// Token range of the return type (between `->` and the body/`;`),
    /// empty when the function returns `()`.
    pub return_type: (usize, usize),
    /// Whether the `fn` keyword is preceded by `unsafe`.
    pub is_unsafe: bool,
}

/// A `loop`/`while` with its body token range.
#[derive(Debug, Clone)]
pub struct LoopItem {
    /// Token index of the `loop`/`while` keyword.
    pub kw_idx: usize,
    /// Line of the keyword.
    pub line: usize,
    /// Body brace token indices `(open, close)`.
    pub body: (usize, usize),
}

impl SourceFile {
    /// Lexes `src` and computes structure. `label` names the file in
    /// findings.
    pub fn parse(label: &str, src: &str) -> SourceFile {
        let toks = lex(src);
        let partner = match_delims(&toks);
        let comments = (0..toks.len()).filter(|&i| toks[i].is_comment()).collect();
        let mut file = SourceFile {
            label: label.to_string(),
            toks,
            partner,
            test_mod_ranges: Vec::new(),
            comments,
        };
        file.test_mod_ranges = file.find_test_mod_ranges();
        file
    }

    /// Index of the previous non-comment token strictly before `i`.
    pub fn prev_sig(&self, i: usize) -> Option<usize> {
        (0..i).rev().find(|&j| !self.toks[j].is_comment())
    }

    /// Index of the next non-comment token strictly after `i`.
    pub fn next_sig(&self, i: usize) -> Option<usize> {
        (i + 1..self.toks.len()).find(|&j| !self.toks[j].is_comment())
    }

    /// Whether token index `i` falls inside a `#[cfg(test)] mod` body.
    pub fn in_test_mod(&self, i: usize) -> bool {
        self.test_mod_ranges
            .iter()
            .any(|&(open, close)| i > open && i < close)
    }

    /// Walks backward from `i` to the start of the enclosing statement:
    /// returns the index of the statement's first significant token. The
    /// boundary tokens are `;`, `,`, and braces (either side).
    pub fn stmt_start(&self, i: usize) -> usize {
        let mut first = i;
        let mut j = i;
        while let Some(p) = self.prev_sig(j) {
            let t = &self.toks[p];
            let boundary = matches!(
                t.kind,
                TokKind::Open(Delim::Brace) | TokKind::Close(Delim::Brace)
            ) || (t.kind == TokKind::Punct && (t.text == ";" || t.text == ","));
            if boundary {
                break;
            }
            first = p;
            j = p;
        }
        first
    }

    /// Comments "attached" to the token at `i`: every comment token from
    /// the start of `i`'s statement (including comments immediately above
    /// the statement, back to the previous significant token) up to `i`,
    /// plus any comment on the same source line as `i` or on `extra_line`.
    ///
    /// This is the adjacency rule for justification comments (`SAFETY:`,
    /// `WAIT-FREE:`, ...): a comment block above the statement, a comment
    /// mid-statement before the keyword, or a trailing comment on the
    /// keyword's (or its opening brace's) line.
    pub fn attached_comments(&self, i: usize, extra_line: Option<usize>) -> Vec<&Tok> {
        let mut out: Vec<&Tok> = Vec::new();
        let first = self.stmt_start(i);
        // Comments above the statement: between the previous significant
        // token (exclusive) and the statement's first token.
        let lo = self.prev_sig(first).map(|p| p + 1).unwrap_or(0);
        for t in &self.toks[lo..i] {
            if t.is_comment() {
                out.push(t);
            }
        }
        // Comments on `i`'s line and on `extra_line`, in token order.
        let line = self.toks[i].line;
        let mut lines = [Some(line), extra_line.filter(|&l| l != line)];
        lines.sort_unstable();
        for l in lines.into_iter().flatten() {
            out.extend(self.comments_on_line(l).iter().map(|&c| &self.toks[c]));
        }
        out
    }

    /// Token indices of the comments that start on `line` (a slice of the
    /// line-ordered comment index).
    fn comments_on_line(&self, line: usize) -> &[usize] {
        let lo = self.comments.partition_point(|&c| self.toks[c].line < line);
        let hi = self
            .comments
            .partition_point(|&c| self.toks[c].line <= line);
        &self.comments[lo..hi]
    }

    /// Whether any comment attached to token `i` (see
    /// [`SourceFile::attached_comments`]) contains `marker`.
    pub fn has_adjacent_marker(&self, i: usize, extra_line: Option<usize>, marker: &str) -> bool {
        self.attached_comments(i, extra_line)
            .iter()
            .any(|t| t.text.contains(marker))
    }

    /// Doc comments and plain comments immediately preceding the *item*
    /// whose first qualifier/attribute token is at index `start`: the
    /// contiguous comment run above it (attributes between comments and
    /// the item are skipped over).
    pub fn leading_item_comments(&self, start: usize) -> Vec<&Tok> {
        let lo = self.prev_sig(start).map(|p| p + 1).unwrap_or(0);
        self.toks[lo..start]
            .iter()
            .filter(|t| t.is_comment())
            .collect()
    }

    /// Walks backward from the `fn`/`impl`/`trait` keyword at `kw_idx`
    /// over item qualifiers (`pub`, `pub(crate)`, `const`, `async`,
    /// `unsafe`, `extern "C"`, `default`) and attributes to the item's
    /// first token.
    pub fn item_start(&self, kw_idx: usize) -> usize {
        let mut start = kw_idx;
        let mut j = kw_idx;
        while let Some(p) = self.prev_sig(j) {
            let t = &self.toks[p];
            let qualifier = t.is_ident("pub")
                || t.is_ident("const")
                || t.is_ident("async")
                || t.is_ident("unsafe")
                || t.is_ident("extern")
                || t.is_ident("default")
                || (t.kind == TokKind::Literal && t.text.starts_with('"')); // extern "C"
            if qualifier {
                start = p;
                j = p;
                continue;
            }
            // pub(crate) / pub(super): a paren group whose open's prev is `pub`.
            if t.kind == TokKind::Close(Delim::Paren) {
                if let Some(open) = self.partner[p] {
                    if self
                        .prev_sig(open)
                        .is_some_and(|q| self.toks[q].is_ident("pub"))
                    {
                        j = open;
                        continue;
                    }
                }
            }
            // Attribute: `]` closing a bracket whose open is preceded by `#`.
            if t.kind == TokKind::Close(Delim::Bracket) {
                if let Some(open) = self.partner[p] {
                    if self.prev_sig(open).is_some_and(|q| {
                        self.toks[q].kind == TokKind::Punct && self.toks[q].text == "#"
                    }) {
                        start = self.prev_sig(open).unwrap();
                        j = start;
                        continue;
                    }
                }
            }
            break;
        }
        start
    }

    /// All `use` items, flattened: groups expanded, renames recorded,
    /// multi-line declarations handled (the lexer already erased lines).
    pub fn use_paths(&self) -> Vec<UsePath> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.toks.len() {
            if self.toks[i].is_ident("use") && self.is_item_position(i) {
                // Collect until the terminating `;` at group depth 0.
                let mut j = i + 1;
                let mut depth = 0usize;
                let start = j;
                while j < self.toks.len() {
                    let t = &self.toks[j];
                    match t.kind {
                        TokKind::Open(Delim::Brace) => depth += 1,
                        TokKind::Close(Delim::Brace) => depth = depth.saturating_sub(1),
                        TokKind::Punct if t.text == ";" && depth == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                let mut prefix = Vec::new();
                self.flatten_use(start, j, &mut prefix, &mut out);
                i = j;
            }
            i += 1;
        }
        out
    }

    /// `use` at item position: preceded by nothing, `;`, `}`, `{`, or an
    /// attribute/visibility — not `.` (method named use is impossible
    /// anyway, this is belt and braces).
    fn is_item_position(&self, i: usize) -> bool {
        match self.prev_sig(i) {
            None => true,
            Some(p) => {
                let t = &self.toks[p];
                !(t.kind == TokKind::Punct && t.text == ".")
            }
        }
    }

    /// Recursively flattens the use-tree tokens in `[lo, hi)` under
    /// `prefix` into `out`.
    fn flatten_use(&self, lo: usize, hi: usize, prefix: &mut Vec<String>, out: &mut Vec<UsePath>) {
        let mut segs: Vec<(String, usize)> = Vec::new(); // pending segments + line
        let mut rename: Option<String> = None;
        let mut i = lo;
        let flush = |segs: &mut Vec<(String, usize)>,
                     rename: &mut Option<String>,
                     prefix: &[String],
                     out: &mut Vec<UsePath>| {
            if segs.is_empty() {
                return;
            }
            let line = segs.last().unwrap().1;
            let mut segments: Vec<String> = prefix.to_vec();
            segments.extend(segs.drain(..).map(|(s, _)| s));
            out.push(UsePath {
                segments,
                rename: rename.take(),
                line,
            });
        };
        while i < hi {
            let t = &self.toks[i];
            match t.kind {
                TokKind::Ident if t.text == "as" => {
                    // rename follows
                    if let Some(n) = self.next_sig(i) {
                        if n < hi {
                            rename = Some(self.toks[n].text.clone());
                            i = n;
                        }
                    }
                }
                TokKind::Ident => segs.push((t.text.clone(), t.line)),
                TokKind::Punct if t.text == "*" => segs.push(("*".to_string(), t.line)),
                TokKind::Punct if t.text == "," => {
                    flush(&mut segs, &mut rename, prefix, out);
                }
                TokKind::Open(Delim::Brace) => {
                    let close = self.partner[i].unwrap_or(hi);
                    let depth_before = prefix.len();
                    prefix.extend(segs.drain(..).map(|(s, _)| s));
                    self.flatten_use(i + 1, close.min(hi), prefix, out);
                    prefix.truncate(depth_before);
                    rename = None;
                    i = close;
                }
                _ => {}
            }
            i += 1;
        }
        flush(&mut segs, &mut rename, prefix, out);
    }

    /// All `fn` items with their body ranges.
    pub fn fn_items(&self) -> Vec<FnItem> {
        let mut out = Vec::new();
        for i in 0..self.toks.len() {
            if !self.toks[i].is_ident("fn") {
                continue;
            }
            // Name is the next significant token (skip for `fn` in fn-ptr
            // types like `fn(u8) -> u8`, where the next token is `(`).
            let Some(name_idx) = self.next_sig(i) else {
                continue;
            };
            if self.toks[name_idx].kind != TokKind::Ident {
                continue;
            }
            let name = self.toks[name_idx].text.clone();
            let is_unsafe = self
                .prev_sig(i)
                .is_some_and(|p| self.toks[p].is_ident("unsafe"));
            // Scan forward for the body `{` or terminating `;`, skipping
            // paren/bracket groups (argument lists, where-clause bounds
            // never contain stray braces).
            let mut j = name_idx;
            let mut body = None;
            let mut arrow: Option<usize> = None;
            let mut ret_end = name_idx;
            while let Some(n) = self.next_sig(j) {
                let t = &self.toks[n];
                match t.kind {
                    TokKind::Open(Delim::Paren) | TokKind::Open(Delim::Bracket) => {
                        j = self.partner[n].unwrap_or(n);
                        continue;
                    }
                    TokKind::Open(Delim::Brace) => {
                        body = Some((n, self.partner[n].unwrap_or(n)));
                        ret_end = n;
                        break;
                    }
                    TokKind::Punct if t.text == ";" => {
                        ret_end = n;
                        break;
                    }
                    // `->` begins the return type
                    TokKind::Punct
                        if t.text == "-"
                            && arrow.is_none()
                            && self.next_sig(n).is_some_and(|m| {
                                self.toks[m].kind == TokKind::Punct && self.toks[m].text == ">"
                            }) =>
                    {
                        arrow = Some(n);
                    }
                    _ => {}
                }
                j = n;
            }
            let return_type = match arrow {
                Some(a) => (a, ret_end),
                None => (name_idx, name_idx),
            };
            out.push(FnItem {
                name,
                line: self.toks[i].line,
                fn_idx: i,
                body,
                return_type,
                is_unsafe,
            });
        }
        out
    }

    /// All `loop { ... }` and `while ... { ... }` items.
    pub fn loops(&self) -> Vec<LoopItem> {
        let mut out = Vec::new();
        for i in 0..self.toks.len() {
            let t = &self.toks[i];
            let is_loop = t.is_ident("loop");
            let is_while = t.is_ident("while");
            if !is_loop && !is_while {
                continue;
            }
            // `loop`: body is the next significant `{`. `while`: scan the
            // condition (skipping paren groups) for the first brace at
            // condition level.
            let mut j = i;
            let mut body = None;
            while let Some(n) = self.next_sig(j) {
                match self.toks[n].kind {
                    TokKind::Open(Delim::Paren) | TokKind::Open(Delim::Bracket) => {
                        j = self.partner[n].unwrap_or(n);
                        continue;
                    }
                    TokKind::Open(Delim::Brace) => {
                        body = Some((n, self.partner[n].unwrap_or(n)));
                        break;
                    }
                    TokKind::Punct if self.toks[n].text == ";" => break,
                    _ => {}
                }
                j = n;
            }
            if let Some(body) = body {
                out.push(LoopItem {
                    kw_idx: i,
                    line: t.line,
                    body,
                });
            }
        }
        out
    }

    /// Token ranges of `#[cfg(test)] mod` bodies (and `#[cfg(all(test,..))]`
    /// etc. — any `cfg` attribute naming `test`).
    fn find_test_mod_ranges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for i in 0..self.toks.len() {
            if !self.toks[i].is_ident("mod") {
                continue;
            }
            // Find the mod body brace.
            let Some(name_idx) = self.next_sig(i) else {
                continue;
            };
            let Some(brace) = self.next_sig(name_idx) else {
                continue;
            };
            if self.toks[brace].kind != TokKind::Open(Delim::Brace) {
                continue;
            }
            // Walk attributes above the mod item looking for cfg(test).
            let start = self.item_start(i);
            let mut j = start;
            let mut is_test = false;
            while j < i {
                if self.toks[j].kind == TokKind::Punct && self.toks[j].text == "#" {
                    if let Some(open) = self.next_sig(j) {
                        if self.toks[open].kind == TokKind::Open(Delim::Bracket) {
                            let close = self.partner[open].unwrap_or(open);
                            let attr: Vec<&str> = self.toks[open + 1..close]
                                .iter()
                                .filter(|t| t.kind == TokKind::Ident)
                                .map(|t| t.text.as_str())
                                .collect();
                            if attr.first() == Some(&"cfg") && attr.contains(&"test") {
                                is_test = true;
                            }
                            j = close;
                        }
                    }
                }
                j += 1;
            }
            if is_test {
                out.push((brace, self.partner[brace].unwrap_or(brace)));
            }
        }
        out
    }
}

/// Matches delimiters: for each `Open`/`Close` token, the partner index.
fn match_delims(toks: &[Tok]) -> Vec<Option<usize>> {
    let mut partner = vec![None; toks.len()];
    let mut stack: Vec<(Delim, usize)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            TokKind::Open(d) => stack.push((d, i)),
            TokKind::Close(d) => {
                // Pop to the matching delimiter class, tolerating
                // imbalance (the compiler will reject such code anyway).
                if let Some(pos) = stack.iter().rposition(|&(sd, _)| sd == d) {
                    let (_, open) = stack.remove(pos);
                    partner[open] = Some(i);
                    partner[i] = Some(open);
                }
            }
            _ => {}
        }
    }
    partner
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn use_tree_flattening_handles_groups_and_renames() {
        let f = SourceFile::parse(
            "t.rs",
            "use std::sync::{atomic::{AtomicUsize, Ordering as O}, Arc};\n\
             use core::sync::atomic as a;\n",
        );
        let paths = f.use_paths();
        let segs: Vec<Vec<&str>> = paths
            .iter()
            .map(|p| p.segments.iter().map(|s| s.as_str()).collect())
            .collect();
        assert!(segs.contains(&vec!["std", "sync", "atomic", "AtomicUsize"]));
        assert!(segs.contains(&vec!["std", "sync", "atomic", "Ordering"]));
        assert!(segs.contains(&vec!["std", "sync", "Arc"]));
        assert!(segs.contains(&vec!["core", "sync", "atomic"]));
        let renamed: Vec<_> = paths.iter().filter(|p| p.rename.is_some()).collect();
        assert_eq!(renamed.len(), 2);
        assert_eq!(renamed[0].rename.as_deref(), Some("O"));
        assert_eq!(renamed[1].rename.as_deref(), Some("a"));
    }

    #[test]
    fn multiline_use_is_one_item() {
        let f = SourceFile::parse(
            "t.rs",
            "use std::sync::atomic::{\n    AtomicUsize,\n    Ordering,\n};\n",
        );
        let paths = f.use_paths();
        assert_eq!(paths.len(), 2);
        assert!(paths.iter().all(|p| p.segments.starts_with(&[
            "std".into(),
            "sync".into(),
            "atomic".into()
        ])));
    }

    #[test]
    fn fn_items_have_bodies_and_return_types() {
        let f = SourceFile::parse(
            "t.rs",
            "pub unsafe fn get(&self) -> *mut u8 { self.p }\nfn plain() { }\n",
        );
        let fns = f.fn_items();
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "get");
        assert!(fns[0].is_unsafe);
        let (a, b) = fns[0].return_type;
        assert!(f.toks[a..b].iter().any(|t| t.text == "*"));
        assert!(!fns[1].is_unsafe);
    }

    #[test]
    fn loops_and_while_bodies() {
        let f = SourceFile::parse(
            "t.rs",
            "fn f() { loop { x(); } while a < b { y(); } while let Some(v) = it.next() { z(); } }",
        );
        let loops = f.loops();
        assert_eq!(loops.len(), 3);
    }

    #[test]
    fn cfg_test_mod_ranges_cover_test_code() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { unsafe { } }\n}\n";
        let f = SourceFile::parse("t.rs", src);
        assert_eq!(f.test_mod_ranges.len(), 1);
        let unsafe_idx = f.toks.iter().position(|t| t.is_ident("unsafe")).unwrap();
        assert!(f.in_test_mod(unsafe_idx));
    }

    #[test]
    fn attached_comments_see_statement_leaders_and_trailers() {
        let src = "fn f() {\n    // SAFETY: above the statement\n    let x = unsafe { g() };\n}\n";
        let f = SourceFile::parse("t.rs", src);
        let u = f.toks.iter().position(|t| t.is_ident("unsafe")).unwrap();
        assert!(f.has_adjacent_marker(u, None, "SAFETY:"));

        let src2 = "fn f() {\n    let y = 1;\n    let x = unsafe { g() }; // SAFETY: trailing\n}\n";
        let f2 = SourceFile::parse("t.rs", src2);
        let u2 = f2.toks.iter().position(|t| t.is_ident("unsafe")).unwrap();
        assert!(f2.has_adjacent_marker(u2, None, "SAFETY:"));

        let src3 = "fn f() {\n    // unrelated\n    let y = 1;\n    let x = unsafe { g() };\n}\n";
        let f3 = SourceFile::parse("t.rs", src3);
        let u3 = f3.toks.iter().position(|t| t.is_ident("unsafe")).unwrap();
        assert!(!f3.has_adjacent_marker(u3, None, "SAFETY:"));
    }
}
