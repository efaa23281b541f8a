//! Per-function control-flow graphs lowered from the syntax tree.
//!
//! Each [`Cfg`] is a vector of basic blocks holding [`Stmt`]s (token
//! ranges tagged with what the dataflow should do with their value) and
//! guarded edges. The lowering is where control *shape* is decided —
//! branch forks and joins, loop back edges, early exits — so the dataflow
//! in [`crate::dataflow`] is a plain worklist over a graph.
//!
//! Two lowering decisions matter for precision:
//!
//! * **Null guards.** An `if x.is_null()` / `while !x.is_null()`
//!   condition in the simple single-test form annotates the outgoing
//!   edges with [`Guard::Null`]/[`Guard::NonNull`]. A null pointer
//!   carries no count (the §5 `Release` is a no-op on null), so the
//!   dataflow kills tracked state along the null edge — this is what
//!   keeps the queue/list traversal idiom (`let next = safe_read(..);
//!   if next.is_null() { break; }`) from reporting a phantom leak.
//! * **Value sinks.** A branch or match arm in initializer position
//!   lowers its tail expression as a [`StmtKind::Bind`] into the `let`
//!   target, so a count acquired in one arm of
//!   `let cell = match alloc() { .. }` flows into `cell` exactly on the
//!   paths where it was acquired.

use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::syntax::{first_sig_in, last_sig_in, Arm, Block, FnDef, Node};

/// What a statement's value means to the dataflow.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// Value discarded (expression statement).
    Expr,
    /// Value flows into a local binding (`let`, simple assignment, or a
    /// branch tail feeding one). `None` for destructuring patterns.
    Bind(Option<String>),
    /// Value flows into a place expression (`self.field = ..`,
    /// `(*p).next = ..`): a transfer into the structure.
    PlaceBind,
    /// Match scrutinee: an acquire here binds to the pending arm temp.
    Scrut,
    /// Arm entry: the pattern in `range` binds (or drops) the arm temp.
    ArmOpen,
    /// Function return; `range` covers the returned value (empty range
    /// for bare `return;`).
    Return,
}

/// One dataflow-visible statement: a token range plus interpretation.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// Interpretation of the range's value.
    pub kind: StmtKind,
    /// Token range `[lo, hi)` scanned for calls/idents.
    pub range: (usize, usize),
    /// Source line (first token of the range, or the statement keyword).
    pub line: usize,
    /// Whether a `// COUNT:` contract is attached to this statement.
    pub blessed: bool,
}

/// Edge condition.
#[derive(Debug, Clone, PartialEq)]
pub enum Guard {
    /// Unconditional.
    Always,
    /// Taken only when the named local is null (kills its count).
    Null(String),
    /// Taken only when the named local is non-null.
    NonNull(String),
}

/// One directed edge.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Target block index.
    pub to: usize,
    /// Condition under which the edge is taken.
    pub guard: Guard,
}

/// A basic block: straight-line statements plus outgoing edges.
#[derive(Debug, Default)]
pub struct BasicBlock {
    /// Statements in execution order.
    pub stmts: Vec<Stmt>,
    /// Successors.
    pub succs: Vec<Edge>,
}

/// A function's control-flow graph.
#[derive(Debug)]
pub struct Cfg {
    /// Blocks; indices are stable.
    pub blocks: Vec<BasicBlock>,
    /// Entry block index.
    pub entry: usize,
    /// Exit block index (empty; every `return` and the body fall-through
    /// edge here).
    pub exit: usize,
}

/// Lowers `def`'s body to a CFG. `None` for bodiless declarations.
pub fn build(file: &SourceFile, def: &FnDef) -> Option<Cfg> {
    let body = def.body.as_ref()?;
    let mut l = Lower {
        file,
        blocks: vec![BasicBlock::default(), BasicBlock::default()],
        exit: 1,
        loops: Vec::new(),
        bless_depth: 0,
    };
    let entry = 0;
    if let Some(end) = l.lower_block(body, entry, Sink::Ret) {
        l.edge(end, l.exit, Guard::Always);
    }
    Some(Cfg {
        blocks: l.blocks,
        entry,
        exit: 1,
    })
}

/// Destination of a value in tail position.
#[derive(Clone)]
enum Sink {
    /// Discard.
    None,
    /// Bind into a local (or destructure: `Var(None)`).
    Var(Option<String>),
    /// Store into a place expression.
    Place,
    /// Function return value.
    Ret,
}

struct Lower<'a> {
    file: &'a SourceFile,
    blocks: Vec<BasicBlock>,
    exit: usize,
    /// Stack of `(continue_target, break_target)`.
    loops: Vec<(usize, usize)>,
    /// While > 0, statements inherit a `// COUNT:` blessing from an
    /// enclosing `let` (the comment sits on the `let`, the lowered
    /// `Bind`s sit on arm/branch tails elsewhere).
    bless_depth: u32,
}

impl<'a> Lower<'a> {
    fn new_block(&mut self) -> usize {
        self.blocks.push(BasicBlock::default());
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize, guard: Guard) {
        self.blocks[from].succs.push(Edge { to, guard });
    }

    fn push(&mut self, cur: usize, kind: StmtKind, range: (usize, usize), anchor: usize) {
        let line = first_sig_in(self.file, range.0, range.1)
            .map(|i| self.file.toks[i].line)
            .unwrap_or_else(|| self.file.toks.get(anchor).map(|t| t.line).unwrap_or(1));
        let blessed = self.bless_depth > 0 || self.range_blessed(range, anchor);
        self.blocks[cur].stmts.push(Stmt {
            kind,
            range,
            line,
            blessed,
        });
    }

    /// Whether a `// COUNT:` comment is attached to the statement
    /// containing `range` (leading comment block, mid-statement comment,
    /// or trailing comment on the first/last line).
    fn range_blessed(&self, range: (usize, usize), anchor: usize) -> bool {
        let first = first_sig_in(self.file, range.0, range.1).unwrap_or(anchor);
        if first >= self.file.toks.len() {
            return false;
        }
        let extra = last_sig_in(self.file, range.0, range.1).map(|i| self.file.toks[i].line);
        self.file.has_adjacent_marker(first, extra, "COUNT:")
    }

    fn lower_block(&mut self, blk: &Block, mut cur: usize, sink: Sink) -> Option<usize> {
        let n = blk.stmts.len();
        for (i, stmt) in blk.stmts.iter().enumerate() {
            let is_tail = blk.has_tail && i + 1 == n;
            let s = if is_tail { sink.clone() } else { Sink::None };
            match self.lower_node(stmt, cur, s) {
                Some(next) => cur = next,
                // Diverged (return/break on every path): the rest of the
                // block is unreachable; stop lowering it.
                None => return None,
            }
        }
        Some(cur)
    }

    fn lower_node(&mut self, node: &Node, cur: usize, sink: Sink) -> Option<usize> {
        match node {
            Node::Item { .. } => Some(cur),
            Node::Leaf { lo, hi } => {
                let kind = match sink {
                    Sink::None => StmtKind::Expr,
                    Sink::Var(name) => StmtKind::Bind(name),
                    Sink::Place => StmtKind::PlaceBind,
                    Sink::Ret => StmtKind::Return,
                };
                self.push(cur, kind, (*lo, *hi), *lo);
                Some(cur)
            }
            Node::Let { name, init, kw, hi } => {
                let Some(init) = init else {
                    return Some(cur);
                };
                let blessed = self.range_blessed((*kw, *hi), *kw);
                if blessed {
                    self.bless_depth += 1;
                }
                let out = self.lower_node(init, cur, Sink::Var(name.clone()));
                if blessed {
                    self.bless_depth -= 1;
                }
                out
            }
            Node::Assign { lhs, rhs } => {
                let lhs_sig: Vec<usize> = (lhs.0..lhs.1)
                    .filter(|&i| !self.file.toks[i].is_comment())
                    .collect();
                let single = match lhs_sig.as_slice() {
                    [i] if self.file.toks[*i].kind == TokKind::Ident => {
                        Some(self.file.toks[*i].text.clone())
                    }
                    _ => None,
                };
                let sink = match single {
                    Some(name) => Sink::Var(Some(name)),
                    None => Sink::Place,
                };
                let blessed = self.range_blessed(*lhs, lhs.0);
                if blessed {
                    self.bless_depth += 1;
                }
                let out = self.lower_node(rhs, cur, sink);
                if blessed {
                    self.bless_depth -= 1;
                }
                out
            }
            Node::Blk(b) => self.lower_block(b, cur, sink),
            Node::Unsafe { body, .. } => self.lower_block(body, cur, sink),
            Node::If {
                cond,
                then_blk,
                alt,
            } => {
                self.push(cur, StmtKind::Expr, *cond, cond.0);
                let (g_then, g_else) = null_guards(self.file, *cond);
                let join = self.new_block();
                let then_b = self.new_block();
                self.edge(cur, then_b, g_then);
                let mut live = false;
                if let Some(end) = self.lower_block(then_blk, then_b, sink.clone()) {
                    self.edge(end, join, Guard::Always);
                    live = true;
                }
                match alt {
                    Some(alt) => {
                        let alt_b = self.new_block();
                        self.edge(cur, alt_b, g_else);
                        if let Some(end) = self.lower_node(alt, alt_b, sink) {
                            self.edge(end, join, Guard::Always);
                            live = true;
                        }
                    }
                    None => {
                        self.edge(cur, join, g_else);
                        live = true;
                    }
                }
                if live {
                    Some(join)
                } else {
                    None
                }
            }
            Node::Match {
                scrutinee, arms, ..
            } => {
                self.push(cur, StmtKind::Scrut, *scrutinee, scrutinee.0);
                let join = self.new_block();
                let mut live = arms.is_empty();
                if arms.is_empty() {
                    self.edge(cur, join, Guard::Always);
                }
                for Arm { pat, body } in arms {
                    let ab = self.new_block();
                    self.edge(cur, ab, Guard::Always);
                    self.push(ab, StmtKind::ArmOpen, *pat, pat.0);
                    if let Some(end) = self.lower_node(body, ab, sink.clone()) {
                        self.edge(end, join, Guard::Always);
                        live = true;
                    }
                }
                if live {
                    Some(join)
                } else {
                    None
                }
            }
            Node::Loop { body, .. } => {
                let head = self.new_block();
                self.edge(cur, head, Guard::Always);
                let after = self.new_block();
                self.loops.push((head, after));
                let end = self.lower_block(body, head, Sink::None);
                self.loops.pop();
                if let Some(end) = end {
                    self.edge(end, head, Guard::Always);
                }
                Some(after)
            }
            Node::While { cond, body, .. } => {
                let head = self.new_block();
                self.edge(cur, head, Guard::Always);
                self.push(head, StmtKind::Expr, *cond, cond.0);
                let after = self.new_block();
                let body_b = self.new_block();
                let (g_body, g_exit) = null_guards(self.file, *cond);
                self.edge(head, body_b, g_body);
                self.edge(head, after, g_exit);
                self.loops.push((head, after));
                let end = self.lower_block(body, body_b, Sink::None);
                self.loops.pop();
                if let Some(end) = end {
                    self.edge(end, head, Guard::Always);
                }
                Some(after)
            }
            Node::For { head, body, .. } => {
                let hb = self.new_block();
                self.edge(cur, hb, Guard::Always);
                self.push(hb, StmtKind::Expr, *head, head.0);
                let after = self.new_block();
                let body_b = self.new_block();
                self.edge(hb, body_b, Guard::Always);
                self.edge(hb, after, Guard::Always);
                self.loops.push((hb, after));
                let end = self.lower_block(body, body_b, Sink::None);
                self.loops.pop();
                if let Some(end) = end {
                    self.edge(end, hb, Guard::Always);
                }
                Some(after)
            }
            Node::Return { value, kw } => {
                let range = value.unwrap_or((*kw + 1, *kw + 1));
                self.push(cur, StmtKind::Return, range, *kw);
                self.edge(cur, self.exit, Guard::Always);
                None
            }
            Node::Break { kw } => {
                let target = self.loops.last().map(|&(_, b)| b).unwrap_or(self.exit);
                let _ = kw;
                self.edge(cur, target, Guard::Always);
                None
            }
            Node::Continue { kw } => {
                let target = self.loops.last().map(|&(h, _)| h).unwrap_or(self.exit);
                let _ = kw;
                self.edge(cur, target, Guard::Always);
                None
            }
        }
    }
}

/// Edge guards `(when true, when false)` for a condition in the simple
/// null-test forms `x.is_null()` and `!x.is_null()`. Compound conditions
/// get `Always` on both edges (no kill — conservative).
fn null_guards(file: &SourceFile, range: (usize, usize)) -> (Guard, Guard) {
    let sig: Vec<usize> = (range.0..range.1.min(file.toks.len()))
        .filter(|&i| !file.toks[i].is_comment())
        .collect();
    let texts: Vec<&str> = sig.iter().map(|&i| file.toks[i].text.as_str()).collect();
    match texts.as_slice() {
        [v, ".", "is_null", "(", ")"] if file.toks[sig[0]].kind == TokKind::Ident => {
            (Guard::Null(v.to_string()), Guard::NonNull(v.to_string()))
        }
        ["!", v, ".", "is_null", "(", ")"] if file.toks[sig[1]].kind == TokKind::Ident => {
            (Guard::NonNull(v.to_string()), Guard::Null(v.to_string()))
        }
        _ => (Guard::Always, Guard::Always),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax;

    fn cfg_of(src: &str) -> (SourceFile, Cfg) {
        let file = SourceFile::parse("t.rs", src);
        let ast = syntax::parse(&file);
        let cfg = build(&file, &ast.fns[0]).expect("fn has a body");
        (file, cfg)
    }

    fn reachable(cfg: &Cfg) -> Vec<usize> {
        let mut seen = vec![false; cfg.blocks.len()];
        let mut work = vec![cfg.entry];
        while let Some(b) = work.pop() {
            if std::mem::replace(&mut seen[b], true) {
                continue;
            }
            for e in &cfg.blocks[b].succs {
                work.push(e.to);
            }
        }
        (0..cfg.blocks.len()).filter(|&i| seen[i]).collect()
    }

    #[test]
    fn straight_line_flows_to_exit() {
        let (_, cfg) = cfg_of("fn f() { a(); b(); }");
        assert_eq!(cfg.blocks[cfg.entry].stmts.len(), 2);
        assert!(cfg.blocks[cfg.entry].succs.iter().any(|e| e.to == cfg.exit));
    }

    #[test]
    fn if_null_guard_annotates_edges() {
        let (_, cfg) = cfg_of("fn f() { let q = g(); if q.is_null() { a(); } b(); }");
        let guards: Vec<&Guard> = cfg
            .blocks
            .iter()
            .flat_map(|b| b.succs.iter().map(|e| &e.guard))
            .collect();
        assert!(guards
            .iter()
            .any(|g| matches!(g, Guard::Null(v) if v == "q")));
        assert!(guards
            .iter()
            .any(|g| matches!(g, Guard::NonNull(v) if v == "q")));
    }

    #[test]
    fn early_return_diverges_to_exit() {
        let (_, cfg) = cfg_of("fn f() { if c() { return; } tail(); }");
        // The then-branch must have an edge to exit and no fall-through.
        let exit_preds = cfg
            .blocks
            .iter()
            .filter(|b| b.succs.iter().any(|e| e.to == cfg.exit))
            .count();
        assert!(exit_preds >= 2, "return edge and normal fall-through");
    }

    #[test]
    fn loops_have_back_edges_and_break_targets() {
        let (_, cfg) = cfg_of(
            "fn f() { loop { let n = g(); if n.is_null() { break; } use_it(n); } after(); }",
        );
        // A back edge: some block's successor has a lower index that is
        // not the exit.
        let has_back = cfg
            .blocks
            .iter()
            .enumerate()
            .any(|(i, b)| b.succs.iter().any(|e| e.to < i && e.to != cfg.exit));
        assert!(has_back, "loop must produce a back edge");
        assert!(reachable(&cfg).contains(&cfg.exit));
    }

    #[test]
    fn match_arms_fork_and_join() {
        let (file, cfg) = cfg_of(
            "fn f() { let c = match alloc() { Ok(c) => c, Err(_) => return, }; use_it(c); }",
        );
        let arm_opens: Vec<&Stmt> = cfg
            .blocks
            .iter()
            .flat_map(|b| b.stmts.iter())
            .filter(|s| s.kind == StmtKind::ArmOpen)
            .collect();
        assert_eq!(arm_opens.len(), 2);
        let scruts: Vec<&Stmt> = cfg
            .blocks
            .iter()
            .flat_map(|b| b.stmts.iter())
            .filter(|s| s.kind == StmtKind::Scrut)
            .collect();
        assert_eq!(scruts.len(), 1);
        let (lo, hi) = scruts[0].range;
        assert!((lo..hi).any(|i| file.toks[i].is_ident("alloc")));
        // The Ok arm binds into `c`.
        let binds: Vec<&Stmt> = cfg
            .blocks
            .iter()
            .flat_map(|b| b.stmts.iter())
            .filter(|s| matches!(&s.kind, StmtKind::Bind(Some(n)) if n == "c"))
            .collect();
        assert_eq!(binds.len(), 1);
    }

    #[test]
    fn place_assignment_lowers_as_placebind() {
        let (_, cfg) = cfg_of("fn f(&mut self) { self.head = g(); }");
        assert!(cfg
            .blocks
            .iter()
            .flat_map(|b| b.stmts.iter())
            .any(|s| s.kind == StmtKind::PlaceBind));
    }

    #[test]
    fn count_comment_blesses_statement() {
        let (_, cfg) = cfg_of(
            "fn f() {\n    // COUNT: transfers into the registry.\n    let q = safe_read(p);\n    q2();\n}",
        );
        let stmts: Vec<&Stmt> = cfg.blocks.iter().flat_map(|b| b.stmts.iter()).collect();
        assert!(stmts
            .iter()
            .any(|s| matches!(&s.kind, StmtKind::Bind(Some(n)) if n == "q") && s.blessed));
    }
}
