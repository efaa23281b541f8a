//! A tolerant recursive-descent parser over the lexed token stream.
//!
//! The token-level passes answer "does this comment sit near that
//! keyword?"-shaped questions; the dataflow passes ([`crate::dataflow`])
//! need more: *which statements follow which*, where branches fork and
//! rejoin, and which expression initializes which binding. This module
//! parses exactly the Rust subset the workspace uses — items, fns,
//! blocks, `let`s, assignments, calls, returns, `match`/`if`,
//! `loop`/`while`/`for`, `unsafe` blocks — into a statement tree over
//! token-index ranges.
//!
//! Design rules:
//!
//! * **Never error.** Anything unrecognized becomes an opaque
//!   [`Node::Leaf`] spanning its statement; the dataflow degrades to the
//!   token-scan the old passes already do. The compiler rejects genuinely
//!   malformed code; the linter must not.
//! * **Ranges, not trees of expressions.** Statement *structure* (the
//!   part control flow depends on) is parsed; expression *interiors* stay
//!   token ranges `[lo, hi)` into [`SourceFile::toks`], scanned by the
//!   consumers. This keeps the parser small enough to audit.
//! * **Nested items are opaque.** A `fn` inside a `fn` parses as
//!   [`Node::Item`] in the outer body (so the outer function's dataflow
//!   does not absorb the inner one's calls) *and* appears as its own
//!   [`FnDef`] in [`Ast::fns`].

use crate::lexer::{Delim, TokKind};
use crate::source::{FnItem, SourceFile};

/// A parsed file: every `fn` (at any nesting depth) with its parameter
/// list and structured body.
#[derive(Debug)]
pub struct Ast {
    /// All function definitions, in source order.
    pub fns: Vec<FnDef>,
}

/// One function: the token-level [`FnItem`] plus parsed params and body.
#[derive(Debug)]
pub struct FnDef {
    /// Signature facts shared with the token-level passes.
    pub item: FnItem,
    /// Parameters in order, receiver (`self`) excluded.
    pub params: Vec<Param>,
    /// Structured body; `None` for bodiless trait-method declarations.
    pub body: Option<Block>,
}

/// One non-receiver function parameter.
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name; `None` for tuple/struct patterns.
    pub name: Option<String>,
    /// Whether the parameter type mentions a raw pointer (`*`).
    pub raw_ptr: bool,
}

/// A `{ ... }` block: statements in order. When `has_tail` is set the
/// last statement is the block's value (no trailing `;`).
#[derive(Debug, Default)]
pub struct Block {
    /// Statements (and nested control nodes) in source order.
    pub stmts: Vec<Node>,
    /// Whether the final statement is a tail expression.
    pub has_tail: bool,
}

/// One match arm: pattern token range and body.
#[derive(Debug)]
pub struct Arm {
    /// Token range `[lo, hi)` of the pattern (including any `if` guard).
    pub pat: (usize, usize),
    /// Arm body.
    pub body: Box<Node>,
}

/// One statement or statement-position expression.
#[derive(Debug)]
pub enum Node {
    /// Opaque expression statement over token range `[lo, hi)`.
    Leaf {
        /// Range start (inclusive token index).
        lo: usize,
        /// Range end (exclusive token index).
        hi: usize,
    },
    /// `let NAME = init;` — `name` is `None` for destructuring patterns.
    Let {
        /// Binding name for single-identifier patterns.
        name: Option<String>,
        /// Initializer (absent for `let x;`).
        init: Option<Box<Node>>,
        /// Token index of the `let` keyword.
        kw: usize,
        /// End of the statement (exclusive, past the `;`).
        hi: usize,
    },
    /// `let PAT = init else { .. };` — the `else` block runs when the
    /// value does not match the refutable pattern, and diverges.
    LetElse {
        /// Token range of the pattern.
        pat: (usize, usize),
        /// Token range of the initializer.
        init: (usize, usize),
        /// The diverging `else` block.
        alt: Block,
        /// Token index of the `let` keyword.
        kw: usize,
        /// End of the statement (exclusive, past the `;`).
        hi: usize,
    },
    /// `PLACE = rhs;` — a top-level assignment (not `==`, not compound).
    Assign {
        /// Token range of the place expression.
        lhs: (usize, usize),
        /// Right-hand side.
        rhs: Box<Node>,
    },
    /// `if cond { .. } else ..` — `alt` is another `If` or a `Blk`.
    If {
        /// Token range of the condition (including `let` patterns).
        cond: (usize, usize),
        /// Then-branch.
        then_blk: Block,
        /// `else` branch, if any.
        alt: Option<Box<Node>>,
    },
    /// A bare `{ .. }` block (also used for `else` blocks).
    Blk(Block),
    /// `match scrutinee { arms }`.
    Match {
        /// Token range of the scrutinee.
        scrutinee: (usize, usize),
        /// Arms in order.
        arms: Vec<Arm>,
        /// Token index of the `match` keyword.
        kw: usize,
    },
    /// `loop { .. }`.
    Loop {
        /// Body.
        body: Block,
        /// Token index of the keyword.
        kw: usize,
    },
    /// `while cond { .. }` (including `while let`).
    While {
        /// Token range of the condition.
        cond: (usize, usize),
        /// Body.
        body: Block,
        /// Token index of the keyword.
        kw: usize,
    },
    /// `for pat in iter { .. }` — head covers `pat in iter`.
    For {
        /// Token range of the loop head.
        head: (usize, usize),
        /// Body.
        body: Block,
        /// Token index of the keyword.
        kw: usize,
    },
    /// `unsafe { .. }` in statement/expression position.
    Unsafe {
        /// Body.
        body: Block,
        /// Token index of the keyword.
        kw: usize,
    },
    /// `return value;` / bare `return;`.
    Return {
        /// Token range of the returned value, if any.
        value: Option<(usize, usize)>,
        /// Token index of the keyword.
        kw: usize,
    },
    /// `break` (label/value tokens, if any, are in the range).
    Break {
        /// Token index of the keyword.
        kw: usize,
    },
    /// `continue`.
    Continue {
        /// Token index of the keyword.
        kw: usize,
    },
    /// A nested item (`fn`, `struct`, `impl`, `mod`, ...) — opaque to the
    /// enclosing function's dataflow.
    Item {
        /// Range start.
        lo: usize,
        /// Range end (exclusive).
        hi: usize,
    },
}

/// Keywords that begin a nested item inside a block.
const ITEM_KWS: &[&str] = &[
    "fn",
    "struct",
    "enum",
    "union",
    "impl",
    "trait",
    "mod",
    "use",
    "static",
    "const",
    "type",
    "macro_rules",
];

/// Items whose body brace terminates the item (no trailing `;` needed).
const BRACE_TERMINATED_KWS: &[&str] = &[
    "fn",
    "struct",
    "enum",
    "union",
    "impl",
    "trait",
    "mod",
    "macro_rules",
];

/// Parses every function in `file`.
pub fn parse(file: &SourceFile) -> Ast {
    let fns = file
        .fn_items()
        .into_iter()
        .map(|item| {
            let params = parse_params(file, &item);
            let body = item
                .body
                .map(|(open, close)| parse_block(file, open + 1, close));
            FnDef { item, params, body }
        })
        .collect();
    Ast { fns }
}

impl Ast {
    /// The parsed definition for the fn whose `fn` keyword is at `fn_idx`.
    pub fn fn_at(&self, fn_idx: usize) -> Option<&FnDef> {
        self.fns.iter().find(|f| f.item.fn_idx == fn_idx)
    }
}

impl FnDef {
    /// Named raw-pointer parameters as `(index, name)`.
    pub fn raw_params(&self) -> impl Iterator<Item = (usize, &str)> {
        self.params
            .iter()
            .enumerate()
            .filter_map(|(i, p)| match (&p.name, p.raw_ptr) {
                (Some(n), true) => Some((i, n.as_str())),
                _ => None,
            })
    }
}

/// Parses the parameter list of `item`: the first paren group after the
/// name at generic-angle depth 0. Tracks `<`/`>` nesting manually (they
/// are plain puncts), treating `->` (inside `Fn(..) -> R` bounds) as a
/// unit so its `>` does not close an angle level.
fn parse_params(file: &SourceFile, item: &FnItem) -> Vec<Param> {
    let Some(name_idx) = file.next_sig(item.fn_idx) else {
        return Vec::new();
    };
    let mut angle = 0i32;
    let mut j = name_idx;
    let mut group = None;
    while let Some(n) = file.next_sig(j) {
        let t = &file.toks[n];
        match t.kind {
            TokKind::Punct if t.text == "<" => angle += 1,
            TokKind::Punct if t.text == ">" => {
                let after_dash = file.prev_sig(n).is_some_and(|p| {
                    file.toks[p].kind == TokKind::Punct && file.toks[p].text == "-"
                });
                if !after_dash {
                    angle -= 1;
                }
            }
            TokKind::Open(Delim::Paren) if angle == 0 => {
                group = Some((n, file.partner[n].unwrap_or(n)));
                break;
            }
            TokKind::Open(Delim::Brace) | TokKind::Close(Delim::Brace) => break,
            TokKind::Open(_) => {
                j = file.partner[n].unwrap_or(n);
                continue;
            }
            TokKind::Punct if t.text == ";" => break,
            _ => {}
        }
        j = n;
    }
    let Some((open, close)) = group else {
        return Vec::new();
    };
    // Split at depth-0 commas; `<`/`>` depth counts too (generic argument
    // lists in parameter types contain commas).
    let mut params = Vec::new();
    let mut start = open + 1;
    let mut angle = 0i32;
    let mut i = open + 1;
    while i <= close {
        let t = &file.toks[i];
        let at_end = i == close;
        let split = at_end || (t.kind == TokKind::Punct && t.text == "," && angle == 0);
        if split {
            if let Some(p) = parse_param(file, start, i) {
                params.push(p);
            }
            start = i + 1;
            i += 1;
            continue;
        }
        match t.kind {
            TokKind::Open(_) => {
                i = file.partner[i].unwrap_or(i) + 1;
                continue;
            }
            TokKind::Punct if t.text == "<" => angle += 1,
            TokKind::Punct if t.text == ">" => {
                let after_dash = file.prev_sig(i).is_some_and(|p| {
                    file.toks[p].kind == TokKind::Punct && file.toks[p].text == "-"
                });
                if !after_dash {
                    angle -= 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    params
}

/// Parses one parameter from the token range `[lo, hi)`. Returns `None`
/// for empty ranges and for the receiver (`self` in any form).
fn parse_param(file: &SourceFile, lo: usize, hi: usize) -> Option<Param> {
    let sig: Vec<(usize, &crate::lexer::Tok)> = (lo..hi)
        .map(|i| (i, &file.toks[i]))
        .filter(|(_, t)| !t.is_comment())
        .collect();
    if sig.is_empty() {
        return None;
    }
    if sig.iter().any(|(_, t)| t.is_ident("self")) {
        return None;
    }
    // Binding name: idents before the top-level `:`, minus `mut`/`ref`.
    let colon = sig
        .iter()
        .position(|(_, t)| t.kind == TokKind::Punct && t.text == ":");
    let pat = &sig[..colon.unwrap_or(sig.len())];
    let names: Vec<&str> = pat
        .iter()
        .filter(|(_, t)| t.kind == TokKind::Ident && !t.is_ident("mut") && !t.is_ident("ref"))
        .map(|(_, t)| t.text.as_str())
        .collect();
    let name = match names.as_slice() {
        [single] => Some((*single).to_string()),
        _ => None,
    };
    let raw_ptr = sig
        .iter()
        .any(|(_, t)| t.kind == TokKind::Punct && t.text == "*");
    Some(Param { name, raw_ptr })
}

/// Parses the statements in the token range `[lo, hi)` (the interior of a
/// brace group).
pub fn parse_block(file: &SourceFile, lo: usize, hi: usize) -> Block {
    let mut stmts = Vec::new();
    let mut has_tail = false;
    let mut pos = lo;
    while pos < hi {
        let t = &file.toks[pos];
        if t.is_comment() {
            pos += 1;
            continue;
        }
        match t.kind {
            TokKind::Punct if t.text == ";" => {
                pos += 1;
                continue;
            }
            // `#[attr]` before a statement or nested item.
            TokKind::Punct if t.text == "#" => {
                if let Some(n) = file.next_sig(pos) {
                    if file.toks[n].kind == TokKind::Open(Delim::Bracket) {
                        pos = file.partner[n].unwrap_or(n) + 1;
                        continue;
                    }
                }
                pos += 1;
                continue;
            }
            // Loop label: `'name: loop/while/for`.
            TokKind::Lifetime => {
                pos = file.next_sig(pos).map(|n| n + 1).unwrap_or(pos + 1);
                continue;
            }
            TokKind::Ident if t.text == "pub" => {
                // Visibility qualifier before a nested item; `pub(crate)`
                // parens are consumed by the item scan below.
                pos += 1;
                continue;
            }
            _ => {}
        }
        let (node, next, tail) = parse_stmt(file, pos, hi);
        has_tail = tail;
        stmts.push(node);
        pos = next;
    }
    Block { stmts, has_tail }
}

/// Parses one statement starting at `pos` (a significant token). Returns
/// the node, the next scan position, and whether the statement was a tail
/// expression (reached `hi` with no `;`).
fn parse_stmt(file: &SourceFile, pos: usize, hi: usize) -> (Node, usize, bool) {
    let t = &file.toks[pos];
    if t.kind == TokKind::Ident {
        match t.text.as_str() {
            "let" => return parse_let(file, pos, hi),
            "if" => {
                let (node, next) = parse_if(file, pos, hi);
                return block_like(file, node, next, hi);
            }
            "match" => {
                let (node, next) = parse_match(file, pos, hi);
                return block_like(file, node, next, hi);
            }
            "loop" | "while" | "for" => {
                let (node, next) = parse_loop_like(file, pos, hi);
                return (node, skip_semi(file, next, hi), false);
            }
            "unsafe" => {
                // `unsafe { .. }` block vs `unsafe fn`/`unsafe impl` item.
                if let Some(n) = file.next_sig(pos) {
                    if file.toks[n].kind == TokKind::Open(Delim::Brace) {
                        let close = file.partner[n].unwrap_or(n);
                        let node = Node::Unsafe {
                            body: parse_block(file, n + 1, close),
                            kw: pos,
                        };
                        return block_like(file, node, close + 1, hi);
                    }
                }
                let end = skip_item(file, pos, hi);
                return (Node::Item { lo: pos, hi: end }, end, false);
            }
            "return" => {
                let (end, semi) = scan_to_semi(file, pos + 1, hi);
                let value = first_sig_in(file, pos + 1, end).map(|_| (pos + 1, end));
                let node = Node::Return { value, kw: pos };
                return (node, if semi { end + 1 } else { end }, false);
            }
            "break" => {
                let (end, semi) = scan_to_semi(file, pos + 1, hi);
                return (
                    Node::Break { kw: pos },
                    if semi { end + 1 } else { end },
                    false,
                );
            }
            "continue" => {
                let (end, semi) = scan_to_semi(file, pos + 1, hi);
                return (
                    Node::Continue { kw: pos },
                    if semi { end + 1 } else { end },
                    false,
                );
            }
            kw if ITEM_KWS.contains(&kw) && is_item_start(file, pos) => {
                let end = skip_item(file, pos, hi);
                return (Node::Item { lo: pos, hi: end }, end, false);
            }
            _ => {}
        }
    }
    if t.kind == TokKind::Open(Delim::Brace) {
        // Bare block statement.
        let close = file.partner[pos].unwrap_or(pos);
        let node = Node::Blk(parse_block(file, pos + 1, close));
        return block_like(file, node, close + 1, hi);
    }
    // Leaf or assignment: scan to the statement-terminating `;`.
    let (end, semi) = scan_to_semi(file, pos, hi);
    let node = match find_assign(file, pos, end) {
        Some(eq) => Node::Assign {
            lhs: (pos, eq),
            rhs: Box::new(parse_expr(file, eq + 1, end)),
        },
        None => Node::Leaf { lo: pos, hi: end },
    };
    (node, if semi { end + 1 } else { end }, !semi)
}

/// Whether the `fn`/`struct`/... keyword at `pos` really starts an item
/// (and is not, say, the `fn` of a function-pointer type in a cast).
fn is_item_start(file: &SourceFile, pos: usize) -> bool {
    let kw = file.toks[pos].text.as_str();
    match kw {
        // `fn` as an item needs a name; `fn(` is a fn-pointer type.
        "fn" => file
            .next_sig(pos)
            .is_some_and(|n| file.toks[n].kind == TokKind::Ident),
        // A `const` item is `const NAME:`; `const` in other positions
        // (e.g. `*const T` has the `*` before it) is not.
        "const" | "static" => {
            let named = file
                .next_sig(pos)
                .is_some_and(|n| file.toks[n].kind == TokKind::Ident);
            let after_star = file
                .prev_sig(pos)
                .is_some_and(|p| file.toks[p].kind == TokKind::Punct && file.toks[p].text == "*");
            named && !after_star
        }
        _ => true,
    }
}

/// Skips a nested item starting at `pos`: scans past delimiter groups to
/// either a `;` or — for brace-terminated items — past the body brace.
fn skip_item(file: &SourceFile, pos: usize, hi: usize) -> usize {
    let brace_ends = BRACE_TERMINATED_KWS.contains(&file.toks[pos].text.as_str())
        || file.toks[pos].is_ident("unsafe");
    let mut j = pos;
    while let Some(n) = file.next_sig(j) {
        if n >= hi {
            return hi;
        }
        let t = &file.toks[n];
        match t.kind {
            TokKind::Open(Delim::Brace) if brace_ends => {
                return file.partner[n].unwrap_or(n) + 1;
            }
            TokKind::Open(_) => {
                j = file.partner[n].unwrap_or(n);
                continue;
            }
            TokKind::Punct if t.text == ";" => return n + 1,
            _ => {}
        }
        j = n;
    }
    hi
}

/// Parses `let [mut] PAT [: TYPE] = init;` starting at the `let`.
fn parse_let(file: &SourceFile, pos: usize, hi: usize) -> (Node, usize, bool) {
    let (end, semi) = scan_to_semi(file, pos + 1, hi);
    let eq = find_assign(file, pos + 1, end);
    // Binding name: sig idents between `let` and `=` (or `:`), minus
    // `mut`/`ref`; a single ident is a plain binding.
    let pat_end = eq.unwrap_or(end);
    let mut names = Vec::new();
    let mut i = pos + 1;
    while i < pat_end {
        let t = &file.toks[i];
        if t.kind == TokKind::Punct && t.text == ":" {
            break;
        }
        match t.kind {
            TokKind::Open(_) => {
                // Tuple/struct pattern: no single binding.
                names.clear();
                break;
            }
            TokKind::Ident if !t.is_ident("mut") && !t.is_ident("ref") => {
                names.push(t.text.clone())
            }
            _ => {}
        }
        i += 1;
    }
    let name = match names.as_slice() {
        [single] => Some(single.clone()),
        _ => None,
    };
    if let Some(eq) = eq {
        if let Some(else_kw) = find_let_else(file, eq + 1, end) {
            let open = file.next_sig(else_kw).expect("checked by find_let_else");
            let close = file.partner[open].unwrap_or(end);
            let node = Node::LetElse {
                pat: (pos + 1, eq),
                init: (eq + 1, else_kw),
                alt: parse_block(file, open + 1, close),
                kw: pos,
                hi: end,
            };
            return (node, if semi { end + 1 } else { end }, false);
        }
    }
    let init = eq.map(|e| Box::new(parse_expr(file, e + 1, end)));
    let node = Node::Let {
        name,
        init,
        kw: pos,
        hi: end,
    };
    (node, if semi { end + 1 } else { end }, false)
}

/// Parses the expression in `[lo, hi)`: a control-flow construct when one
/// spans the whole range, otherwise an opaque leaf.
pub fn parse_expr(file: &SourceFile, lo: usize, hi: usize) -> Node {
    let Some(first) = first_sig_in(file, lo, hi) else {
        return Node::Leaf { lo, hi };
    };
    let last = last_sig_in(file, lo, hi).unwrap_or(first);
    let t = &file.toks[first];
    if t.kind == TokKind::Ident {
        // Divergence in expression position (a `return`/`break` match arm)
        // must be structured, or the dataflow would read it as a value.
        match t.text.as_str() {
            "return" => {
                let value = file.next_sig(first).filter(|&n| n <= last).map(|n| (n, hi));
                return Node::Return { value, kw: first };
            }
            "break" => return Node::Break { kw: first },
            "continue" => return Node::Continue { kw: first },
            _ => {}
        }
        let (node, next) = match t.text.as_str() {
            "match" => parse_match(file, first, hi),
            "if" => parse_if(file, first, hi),
            "loop" | "while" | "for" => parse_loop_like(file, first, hi),
            "unsafe" => {
                if let Some(n) = file.next_sig(first) {
                    if n < hi && file.toks[n].kind == TokKind::Open(Delim::Brace) {
                        let close = file.partner[n].unwrap_or(n);
                        (
                            Node::Unsafe {
                                body: parse_block(file, n + 1, close),
                                kw: first,
                            },
                            close + 1,
                        )
                    } else {
                        return Node::Leaf { lo, hi };
                    }
                } else {
                    return Node::Leaf { lo, hi };
                }
            }
            _ => return Node::Leaf { lo, hi },
        };
        // Only accept the construct if it consumed the whole range;
        // a trailing `.method()` / `?` degrades to a leaf.
        if next > last {
            return node;
        }
    }
    Node::Leaf { lo, hi }
}

/// Parses `if cond { .. } [else ..]` starting at the `if`. Returns the
/// node and the position just past it.
fn parse_if(file: &SourceFile, pos: usize, hi: usize) -> (Node, usize) {
    let Some((open, close)) = brace_after(file, pos, hi) else {
        return (Node::Leaf { lo: pos, hi }, hi);
    };
    let cond = (pos + 1, open);
    let then_blk = parse_block(file, open + 1, close);
    let mut next = close + 1;
    let mut alt = None;
    if let Some(e) = file.next_sig(close) {
        if e < hi && file.toks[e].is_ident("else") {
            if let Some(b) = file.next_sig(e) {
                if b < hi && file.toks[b].is_ident("if") {
                    let (node, after) = parse_if(file, b, hi);
                    alt = Some(Box::new(node));
                    next = after;
                } else if b < hi && file.toks[b].kind == TokKind::Open(Delim::Brace) {
                    let bc = file.partner[b].unwrap_or(b);
                    alt = Some(Box::new(Node::Blk(parse_block(file, b + 1, bc))));
                    next = bc + 1;
                }
            }
        }
    }
    (
        Node::If {
            cond,
            then_blk,
            alt,
        },
        next,
    )
}

/// Parses `match scrutinee { arms }` starting at the `match`.
fn parse_match(file: &SourceFile, pos: usize, hi: usize) -> (Node, usize) {
    let Some((open, close)) = brace_after(file, pos, hi) else {
        return (Node::Leaf { lo: pos, hi }, hi);
    };
    let scrutinee = (pos + 1, open);
    let mut arms = Vec::new();
    let mut i = open + 1;
    while i < close {
        let t = &file.toks[i];
        if t.is_comment() || (t.kind == TokKind::Punct && (t.text == "," || t.text == "|")) {
            i += 1;
            continue;
        }
        // Pattern: scan for `=>` (tokens `=`, `>`) at depth 0.
        let pat_lo = i;
        let mut fat_arrow = None;
        let mut j = i;
        while j < close {
            let t = &file.toks[j];
            match t.kind {
                TokKind::Open(_) => {
                    j = file.partner[j].unwrap_or(j) + 1;
                    continue;
                }
                TokKind::Punct
                    if t.text == "="
                        && file.next_sig(j).is_some_and(|n| {
                            file.toks[n].kind == TokKind::Punct && file.toks[n].text == ">"
                        }) =>
                {
                    fat_arrow = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let Some(eq) = fat_arrow else {
            break;
        };
        let gt = file.next_sig(eq).unwrap_or(eq);
        let Some(body_start) = file.next_sig(gt) else {
            break;
        };
        let (body, arm_end) = if file.toks[body_start].kind == TokKind::Open(Delim::Brace) {
            let bc = file.partner[body_start].unwrap_or(body_start);
            (Node::Blk(parse_block(file, body_start + 1, bc)), bc + 1)
        } else {
            // Expression arm: to the next depth-0 `,` or the match close.
            let mut k = body_start;
            while k < close {
                let t = &file.toks[k];
                match t.kind {
                    TokKind::Open(_) => {
                        k = file.partner[k].unwrap_or(k) + 1;
                        continue;
                    }
                    TokKind::Punct if t.text == "," => break,
                    _ => {}
                }
                k += 1;
            }
            (parse_expr(file, body_start, k), k)
        };
        arms.push(Arm {
            pat: (pat_lo, eq),
            body: Box::new(body),
        });
        i = arm_end;
    }
    (
        Node::Match {
            scrutinee,
            arms,
            kw: pos,
        },
        close + 1,
    )
}

/// Parses `loop { .. }` / `while cond { .. }` / `for pat in iter { .. }`.
fn parse_loop_like(file: &SourceFile, pos: usize, hi: usize) -> (Node, usize) {
    let Some((open, close)) = brace_after(file, pos, hi) else {
        return (Node::Leaf { lo: pos, hi }, hi);
    };
    let body = parse_block(file, open + 1, close);
    let node = match file.toks[pos].text.as_str() {
        "loop" => Node::Loop { body, kw: pos },
        "while" => Node::While {
            cond: (pos + 1, open),
            body,
            kw: pos,
        },
        _ => Node::For {
            head: (pos + 1, open),
            body,
            kw: pos,
        },
    };
    (node, close + 1)
}

/// The first `{` at head level after `pos` (paren/bracket groups and
/// `unsafe { .. }` blocks in the condition are skipped), with its
/// partner. Rust forbids bare struct literals in `if`/`while`/`match`-head
/// position, so that brace is the body.
fn brace_after(file: &SourceFile, pos: usize, hi: usize) -> Option<(usize, usize)> {
    let mut j = pos;
    while let Some(n) = file.next_sig(j) {
        if n >= hi {
            return None;
        }
        match file.toks[n].kind {
            TokKind::Open(Delim::Brace) if file.toks[j].is_ident("unsafe") => {
                j = file.partner[n].unwrap_or(n);
                continue;
            }
            TokKind::Open(Delim::Brace) => {
                return Some((n, file.partner[n].unwrap_or(n)));
            }
            TokKind::Open(_) => {
                j = file.partner[n].unwrap_or(n);
                continue;
            }
            TokKind::Punct if file.toks[n].text == ";" => return None,
            _ => {}
        }
        j = n;
    }
    None
}

/// Finishes a block-like statement (`if`, `match`, `unsafe { .. }`, bare
/// block) ending at `next`: with nothing significant after it before
/// `hi` it is the enclosing block's tail expression, as in Rust.
fn block_like(file: &SourceFile, node: Node, next: usize, hi: usize) -> (Node, usize, bool) {
    let tail = first_sig_in(file, next, hi).is_none();
    (node, skip_semi(file, next, hi), tail)
}

/// If the token at `pos` is a `;`, returns `pos + 1`; otherwise `pos`.
/// (Block-bodied statements may or may not be followed by a semicolon.)
fn skip_semi(file: &SourceFile, pos: usize, hi: usize) -> usize {
    if pos < hi && file.toks[pos].kind == TokKind::Punct && file.toks[pos].text == ";" {
        pos + 1
    } else {
        pos
    }
}

/// Scans from `from` for a `;` at delimiter depth 0 (groups are jumped
/// via the partner map). Returns `(end, found)`: `end` is the index of
/// the `;` (exclusive end of the statement) or `hi`.
fn scan_to_semi(file: &SourceFile, from: usize, hi: usize) -> (usize, bool) {
    let mut j = from;
    while j < hi {
        let t = &file.toks[j];
        match t.kind {
            TokKind::Open(_) => {
                j = file.partner[j].map(|p| p + 1).unwrap_or(j + 1);
                continue;
            }
            TokKind::Punct if t.text == ";" => return (j, true),
            _ => {}
        }
        j += 1;
    }
    (hi, false)
}

/// Finds the `else` of a let-else initializer in `[lo, hi)`: a
/// top-level `else` followed by a brace block. A top-level `if` or
/// `match` starts an expression whose own `else` or arms follow, so no
/// let-else `else` is looked for past one.
fn find_let_else(file: &SourceFile, lo: usize, hi: usize) -> Option<usize> {
    let mut j = lo;
    while j < hi {
        let t = &file.toks[j];
        match t.kind {
            TokKind::Open(_) => {
                j = file.partner[j].map(|p| p + 1).unwrap_or(j + 1);
                continue;
            }
            TokKind::Ident if t.text == "if" || t.text == "match" => return None,
            TokKind::Ident if t.text == "else" => {
                let brace = file
                    .next_sig(j)
                    .is_some_and(|n| n < hi && file.toks[n].kind == TokKind::Open(Delim::Brace));
                return brace.then_some(j);
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Finds a top-level assignment `=` in `[lo, hi)`: a `=` at depth 0 that
/// is not part of `==`, `=>`, `<=`, `>=`, `!=`, or a compound assignment.
fn find_assign(file: &SourceFile, lo: usize, hi: usize) -> Option<usize> {
    let mut j = lo;
    while j < hi {
        let t = &file.toks[j];
        match t.kind {
            TokKind::Open(_) => {
                j = file.partner[j].map(|p| p + 1).unwrap_or(j + 1);
                continue;
            }
            TokKind::Punct if t.text == "=" => {
                let next_is_eq_or_gt = file.next_sig(j).is_some_and(|n| {
                    n < hi
                        && file.toks[n].kind == TokKind::Punct
                        && (file.toks[n].text == "=" || file.toks[n].text == ">")
                });
                let prev_is_op = file.prev_sig(j).is_some_and(|p| {
                    file.toks[p].kind == TokKind::Punct
                        && "=<>!+-*/%&|^".contains(file.toks[p].text.as_str())
                });
                if !next_is_eq_or_gt && !prev_is_op {
                    return Some(j);
                }
                // Skip the second char of `==` so `a == b == c` (illegal
                // anyway) cannot misfire.
                if next_is_eq_or_gt {
                    j += 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// First significant token index in `[lo, hi)`.
pub fn first_sig_in(file: &SourceFile, lo: usize, hi: usize) -> Option<usize> {
    (lo..hi.min(file.toks.len())).find(|&i| !file.toks[i].is_comment())
}

/// Last significant token index in `[lo, hi)`.
pub fn last_sig_in(file: &SourceFile, lo: usize, hi: usize) -> Option<usize> {
    (lo..hi.min(file.toks.len()))
        .rev()
        .find(|&i| !file.toks[i].is_comment())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_src(src: &str) -> (SourceFile, Ast) {
        let file = SourceFile::parse("t.rs", src);
        let ast = parse(&file);
        (file, ast)
    }

    fn body(ast: &Ast, name: &str) -> usize {
        ast.fns
            .iter()
            .position(|f| f.item.name == name)
            .unwrap_or_else(|| panic!("fn {name} not found"))
    }

    #[test]
    fn parses_lets_ifs_and_returns() {
        let (_, ast) = parse_src(
            "fn f(p: *mut u8) -> *mut u8 {\n\
             let q = g(p);\n\
             if q.is_null() { return core::ptr::null_mut(); }\n\
             q\n\
             }",
        );
        let f = &ast.fns[body(&ast, "f")];
        assert_eq!(f.params.len(), 1);
        assert_eq!(f.params[0].name.as_deref(), Some("p"));
        assert!(f.params[0].raw_ptr);
        let b = f.body.as_ref().unwrap();
        assert_eq!(b.stmts.len(), 3);
        assert!(matches!(&b.stmts[0], Node::Let { name: Some(n), init: Some(_), .. } if n == "q"));
        assert!(matches!(&b.stmts[1], Node::If { alt: None, .. }));
        assert!(b.has_tail);
        assert!(matches!(&b.stmts[2], Node::Leaf { .. }));
        if let Node::If { then_blk, .. } = &b.stmts[1] {
            assert!(matches!(
                &then_blk.stmts[0],
                Node::Return { value: Some(_), .. }
            ));
        }
    }

    #[test]
    fn parses_match_arms_with_blocks_and_exprs() {
        let (file, ast) = parse_src(
            "fn f() {\n\
             let cell = match alloc() {\n\
             Ok(cell) => cell,\n\
             Err(e) => { log(e); return; }\n\
             };\n\
             }",
        );
        let f = &ast.fns[body(&ast, "f")];
        let b = f.body.as_ref().unwrap();
        let Node::Let { name, init, .. } = &b.stmts[0] else {
            panic!("expected let");
        };
        assert_eq!(name.as_deref(), Some("cell"));
        let Node::Match {
            arms, scrutinee, ..
        } = init.as_deref().unwrap()
        else {
            panic!("expected match init");
        };
        assert_eq!(arms.len(), 2);
        let scrut_text: Vec<&str> = (scrutinee.0..scrutinee.1)
            .map(|i| file.toks[i].text.as_str())
            .collect();
        assert!(scrut_text.contains(&"alloc"));
        assert!(matches!(&*arms[0].body, Node::Leaf { .. }));
        let Node::Blk(blk) = &*arms[1].body else {
            panic!("expected block arm");
        };
        assert!(matches!(&blk.stmts[1], Node::Return { value: None, .. }));
    }

    #[test]
    fn parses_loops_breaks_and_assignments() {
        let (_, ast) = parse_src(
            "fn f() {\n\
             let mut t = h();\n\
             'outer: loop {\n\
             let next = g(t);\n\
             if next.is_null() { break; }\n\
             release(t);\n\
             t = next;\n\
             }\n\
             while !t.is_null() { t = g(t); }\n\
             }",
        );
        let f = &ast.fns[body(&ast, "f")];
        let b = f.body.as_ref().unwrap();
        assert_eq!(b.stmts.len(), 3);
        let Node::Loop { body, .. } = &b.stmts[1] else {
            panic!("expected loop (label skipped)");
        };
        assert_eq!(body.stmts.len(), 4);
        assert!(matches!(&body.stmts[3], Node::Assign { .. }));
        if let Node::If { then_blk, .. } = &body.stmts[1] {
            assert!(matches!(&then_blk.stmts[0], Node::Break { .. }));
        } else {
            panic!("expected if");
        }
        assert!(matches!(&b.stmts[2], Node::While { .. }));
    }

    #[test]
    fn unsafe_blocks_and_nested_items_are_structured() {
        let (_, ast) = parse_src(
            "fn outer() {\n\
             unsafe { (*p).next = q; }\n\
             fn inner() { release(x); }\n\
             let v = unsafe { read(p) };\n\
             }",
        );
        let f = &ast.fns[body(&ast, "outer")];
        let b = f.body.as_ref().unwrap();
        assert!(matches!(&b.stmts[0], Node::Unsafe { .. }));
        assert!(matches!(&b.stmts[1], Node::Item { .. }));
        let Node::Let {
            init: Some(init), ..
        } = &b.stmts[2]
        else {
            panic!("expected let");
        };
        assert!(matches!(&**init, Node::Unsafe { .. }));
        // The nested fn also parses as its own definition.
        assert_eq!(ast.fns.len(), 2);
        assert_eq!(ast.fns[body(&ast, "inner")].item.name, "inner");
    }

    #[test]
    fn generics_do_not_confuse_params() {
        let (_, ast) = parse_src(
            "fn f<F: Fn(&u8) -> bool, T>(pred: F, map: std::collections::HashMap<u8, T>) {}",
        );
        let f = &ast.fns[body(&ast, "f")];
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].name.as_deref(), Some("pred"));
        assert_eq!(f.params[1].name.as_deref(), Some("map"));
        assert!(!f.params[1].raw_ptr);
    }

    #[test]
    fn if_else_chains_and_else_blocks() {
        let (_, ast) = parse_src(
            "fn f(x: u8) {\n\
             if x == 0 { a(); } else if x == 1 { b(); } else { c(); }\n\
             }",
        );
        let f = &ast.fns[body(&ast, "f")];
        let Node::If { alt: Some(alt), .. } = &f.body.as_ref().unwrap().stmts[0] else {
            panic!("expected if with else");
        };
        let Node::If {
            alt: Some(alt2), ..
        } = &**alt
        else {
            panic!("expected else-if");
        };
        assert!(matches!(&**alt2, Node::Blk(_)));
    }

    #[test]
    fn unsafe_block_in_a_head_is_not_the_body() {
        let (_, ast) = parse_src(
            "fn f(p: *mut N) -> bool {\n\
             if unsafe { (*p).key } == 0 { return true; }\n\
             false\n\
             }",
        );
        let b = ast.fns[0].body.as_ref().unwrap();
        assert_eq!(b.stmts.len(), 2);
        let Node::If { then_blk, .. } = &b.stmts[0] else {
            panic!("expected if");
        };
        assert!(matches!(&then_blk.stmts[0], Node::Return { .. }));
    }

    #[test]
    fn while_let_and_for_heads() {
        let (_, ast) = parse_src(
            "fn f() {\n\
             while let Some(v) = it.next() { use_it(v); }\n\
             for i in 0..10 { g(i); }\n\
             }",
        );
        let b = ast.fns[0].body.as_ref().unwrap();
        assert!(matches!(&b.stmts[0], Node::While { .. }));
        assert!(matches!(&b.stmts[1], Node::For { .. }));
    }

    #[test]
    fn tolerates_unparsable_soup_as_leaves() {
        let (_, ast) = parse_src("fn f() { @@ %% || ; let x = 1; }");
        let b = ast.fns[0].body.as_ref().unwrap();
        assert!(b
            .stmts
            .iter()
            .any(|n| matches!(n, Node::Let { name: Some(x), .. } if x == "x")));
    }
}
