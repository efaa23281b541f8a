//! Refcount-balance dataflow over the per-function CFG.
//!
//! The §5 protocol's central obligation: every count acquired by
//! `safe_read`/`safe_read_tallied`/`alloc` is eventually released
//! (`release` and friends), transferred to the caller (the raw-pointer
//! return convention), or transferred into the structure (stored through
//! a place expression) — on *every* path. This module proves the
//! obligation per function with a forward may-leak analysis:
//!
//! * **State** maps local names to `Held` (holds a count on every path
//!   to here) or `Mixed` (holds one on at least one path), remembering
//!   the acquire line for diagnostics. Absent = no count.
//! * **Transfer** interprets each [`Stmt`](crate::cfg::Stmt) by token
//!   scan: consume calls drop state, acquires bind it to the statement's
//!   sink, single-identifier binds are *moves* (raw pointers are `Copy`,
//!   but the workspace idiom treats `t = next` as handing the count
//!   over — the old name is no longer released), place-stores transfer
//!   into the structure, null-constant binds kill (null carries no
//!   count, Fig. 17's `Release` no-ops on it).
//! * **Guards** on CFG edges kill along `is_null` branches.
//! * **Calls** consume through the workspace call graph: a function
//!   summarized as releasing its `i`-th raw-pointer parameter consumes
//!   the tracked argument at that position (see [`Summaries`]).
//! * `// COUNT:` comments are *contracts*, not mute buttons: a blessed
//!   statement exempts its acquisition, and a function-level
//!   `// COUNT: ... transfers to caller ...` is checked against the
//!   signature — declaring a transfer without a raw-pointer return is
//!   itself an error.
//!
//! Fixpoint first, findings second: the worklist runs to convergence,
//! then one reporting sweep over reachable blocks (so loop iterations do
//! not duplicate findings).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::cfg::{Cfg, Guard, Stmt, StmtKind};
use crate::lexer::{Delim, TokKind};
use crate::source::SourceFile;
use crate::syntax::{Ast, FnDef};

/// Calls that acquire a counted reference.
pub const ACQUIRES: &[&str] = &["safe_read", "safe_read_tallied", "alloc"];

/// Calls that consume (release or hand off) a counted reference passed
/// as an argument. `swing`/`store_link` are deliberately absent: they
/// *publish* a pointer but the workspace always releases the local
/// explicitly afterwards — counting them as consumers would hide leaks.
pub const CONSUMES: &[&str] = &[
    "release",
    "release_into",
    "release_deferred",
    "drain_deferred",
    "reclaim_detached",
    "push_free",
    "push_free_global",
    "splice_free_global",
    // Backend-neutral process-reference forms (refcount: decrement;
    // epoch: no-op — the count being balanced is the refcount arm's).
    "unprotect",
    "unprotect_deferred",
];

/// The synthetic variable holding a count acquired by a match scrutinee
/// while the arms decide where it binds.
const SCRUT: &str = "#scrut";

/// Workspace call-graph consumption summaries: function name → indices of
/// raw-pointer parameters (receiver excluded) that the body releases.
#[derive(Debug, Default)]
pub struct Summaries {
    consumed: BTreeMap<String, BTreeSet<usize>>,
}

impl Summaries {
    /// Builds summaries from every parsed file. A parameter is
    /// "consumed" when a [`CONSUMES`] call anywhere in the body mentions
    /// it as an argument — an any-path approximation, which is the right
    /// polarity: a summary only ever *removes* a leak report.
    pub fn build<'a>(units: impl IntoIterator<Item = (&'a SourceFile, &'a Ast)>) -> Summaries {
        let mut consumed: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
        for (file, ast) in units {
            for def in &ast.fns {
                let Some((open, close)) = def.item.body else {
                    continue;
                };
                for (idx, param) in def.params.iter().enumerate() {
                    let (Some(name), true) = (&param.name, param.raw_ptr) else {
                        continue;
                    };
                    let released = calls_in(file, open + 1, close, CONSUMES)
                        .into_iter()
                        .any(|c| (c.open + 1..c.close).any(|i| file.toks[i].is_ident(name)));
                    if released {
                        consumed
                            .entry(def.item.name.clone())
                            .or_default()
                            .insert(idx);
                    }
                }
            }
        }
        Summaries { consumed }
    }

    /// Consumed parameter indices of `name`, if summarized.
    pub fn consumed_params(&self, name: &str) -> Option<&BTreeSet<usize>> {
        self.consumed.get(name)
    }
}

/// Tracked state of one local.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Var {
    /// Held on some-but-not-all paths.
    mixed: bool,
    /// Line of the (earliest) acquisition, for diagnostics.
    line: usize,
}

type State = BTreeMap<String, Var>;

/// One dataflow finding, rule-agnostic (the pass assigns the rule id).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FlowFinding {
    /// Primary line.
    pub line: usize,
    /// Message.
    pub message: String,
    /// Related locations: `(line, note)` pairs (e.g. the acquire site).
    pub related: Vec<(usize, String)>,
}

/// A call site in a token range.
struct Call {
    name_idx: usize,
    open: usize,
    close: usize,
}

/// Calls to any of `names` inside `[lo, hi)`.
fn calls_in(file: &SourceFile, lo: usize, hi: usize, names: &[&str]) -> Vec<Call> {
    let mut out = Vec::new();
    for i in lo..hi.min(file.toks.len()) {
        let t = &file.toks[i];
        if t.kind != TokKind::Ident || !names.iter().any(|n| t.is_ident(n)) {
            continue;
        }
        let Some(n) = file.next_sig(i) else { continue };
        if file.toks[n].kind != TokKind::Open(Delim::Paren) {
            continue;
        }
        out.push(Call {
            name_idx: i,
            open: n,
            close: file.partner[n].unwrap_or(n),
        });
    }
    out
}

/// All calls (`ident (`) inside `[lo, hi)`.
fn all_calls(file: &SourceFile, lo: usize, hi: usize) -> Vec<Call> {
    let mut out = Vec::new();
    for i in lo..hi.min(file.toks.len()) {
        if file.toks[i].kind != TokKind::Ident {
            continue;
        }
        let Some(n) = file.next_sig(i) else { continue };
        if file.toks[n].kind != TokKind::Open(Delim::Paren) {
            continue;
        }
        out.push(Call {
            name_idx: i,
            open: n,
            close: file.partner[n].unwrap_or(n),
        });
    }
    out
}

/// Splits a call's argument list `[open+1, close)` at depth-0 commas.
fn split_args(file: &SourceFile, open: usize, close: usize) -> Vec<(usize, usize)> {
    let mut args = Vec::new();
    let mut start = open + 1;
    let mut i = open + 1;
    while i < close {
        match file.toks[i].kind {
            TokKind::Open(_) => {
                i = file.partner[i].map(|p| p + 1).unwrap_or(i + 1);
                continue;
            }
            TokKind::Punct if file.toks[i].text == "," => {
                args.push((start, i));
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    if start < close {
        args.push((start, close));
    }
    args
}

/// Analysis driver for one function.
pub struct FlowAnalysis<'a> {
    file: &'a SourceFile,
    def: &'a FnDef,
    summaries: &'a Summaries,
    /// Return type carries a raw pointer (the transfer convention).
    ret_raw: bool,
    /// Function-level `// COUNT:` blessing.
    fn_blessed: bool,
}

/// Whether the fn's leading comments carry a `// COUNT:` contract, and
/// its text if so. Only the contract's own comment run is returned: the
/// line containing `COUNT:` plus plain-comment continuation lines up to
/// the next marker or doc comment — a doc paragraph that merely mentions
/// "the caller" must not leak into the contract text.
pub fn fn_count_contract(file: &SourceFile, def: &FnDef) -> Option<String> {
    let start = file.item_start(def.item.fn_idx);
    let comments = file.leading_item_comments(start);
    let first = comments.iter().position(|t| t.text.contains("COUNT:"))?;
    let mut text = String::new();
    for t in &comments[first..] {
        let is_continuation = text.is_empty()
            || (!t.text.starts_with("///")
                && !["SAFETY:", "ORDER:", "WAIT-FREE:", "INVARIANT:"]
                    .iter()
                    .any(|m| t.text.contains(m)));
        if !is_continuation {
            break;
        }
        text.push_str(&t.text);
        text.push(' ');
    }
    Some(text)
}

impl<'a> FlowAnalysis<'a> {
    /// Prepares the analysis of `def`.
    pub fn new(file: &'a SourceFile, def: &'a FnDef, summaries: &'a Summaries) -> FlowAnalysis<'a> {
        let (rlo, rhi) = def.item.return_type;
        let ret_raw = file.toks[rlo..rhi.min(file.toks.len())]
            .iter()
            .any(|t| t.kind == TokKind::Punct && t.text == "*");
        FlowAnalysis {
            file,
            def,
            summaries,
            ret_raw,
            fn_blessed: fn_count_contract(file, def).is_some(),
        }
    }

    /// Runs the fixpoint + reporting sweep over `cfg`.
    pub fn run(&self, cfg: &Cfg) -> Vec<FlowFinding> {
        // Fixpoint.
        let mut ins: Vec<Option<State>> = vec![None; cfg.blocks.len()];
        ins[cfg.entry] = Some(State::new());
        let mut work: VecDeque<usize> = VecDeque::from([cfg.entry]);
        let mut iters = 0usize;
        while let Some(b) = work.pop_front() {
            // Defensive bound: the lattice is finite so this terminates,
            // but a linter must not hang on adversarial input.
            iters += 1;
            if iters > 64 * cfg.blocks.len() + 1024 {
                break;
            }
            let Some(state) = ins[b].clone() else {
                continue;
            };
            let out = self.transfer(&cfg.blocks[b].stmts, state, None);
            for edge in &cfg.blocks[b].succs {
                let mut s = out.clone();
                apply_guard(&mut s, &edge.guard);
                let merged = match &ins[edge.to] {
                    None => s,
                    Some(prev) => merge(prev, &s),
                };
                if ins[edge.to].as_ref() != Some(&merged) {
                    ins[edge.to] = Some(merged);
                    if !work.contains(&edge.to) {
                        work.push_back(edge.to);
                    }
                }
            }
        }
        // Reporting sweep.
        let mut findings: BTreeSet<FlowFinding> = BTreeSet::new();
        for (b, input) in ins.iter().enumerate() {
            let Some(state) = input else { continue };
            if b == cfg.exit {
                continue;
            }
            self.transfer(&cfg.blocks[b].stmts, state.clone(), Some(&mut findings));
        }
        // Exit leaks.
        if let Some(exit_state) = &ins[cfg.exit] {
            for (name, var) in exit_state {
                let shown = display_name(name);
                let paths = if var.mixed {
                    "at least one path through"
                } else {
                    "every path through"
                };
                findings.insert(FlowFinding {
                    line: var.line,
                    message: format!(
                        "counted reference in {shown} (acquired here) is leaked on \
                         {paths} fn `{}`: no release, no raw-pointer transfer, and no \
                         `// COUNT:` contract on the acquiring statement",
                        self.def.item.name
                    ),
                    related: vec![(var.line, format!("{shown} acquires its count here"))],
                });
            }
        }
        findings.into_iter().collect()
    }

    /// Interprets one block's statements. When `findings` is given, the
    /// sweep also reports (fixpoint passes leave it `None`).
    fn transfer(
        &self,
        stmts: &[Stmt],
        mut state: State,
        mut findings: Option<&mut BTreeSet<FlowFinding>>,
    ) -> State {
        for stmt in stmts {
            self.step(stmt, &mut state, findings.as_deref_mut());
        }
        state
    }

    fn step(
        &self,
        stmt: &Stmt,
        state: &mut State,
        mut findings: Option<&mut BTreeSet<FlowFinding>>,
    ) {
        let (lo, hi) = stmt.range;
        if matches!(stmt.kind, StmtKind::ArmOpen) {
            self.arm_open(stmt, state);
            return;
        }
        // 1. Consumption: release-family calls and summarized callees.
        self.consume_calls(lo, hi, state);
        // 2. Acquisition + value flow by sink.
        let acquires = calls_in(self.file, lo, hi, ACQUIRES);
        let acq_line = acquires.first().map(|c| self.file.toks[c.name_idx].line);
        let acq_name = acquires
            .first()
            .map(|c| self.file.toks[c.name_idx].text.clone());
        match &stmt.kind {
            StmtKind::Expr => {
                if let (Some(line), Some(name)) = (acq_line, &acq_name) {
                    if !stmt.blessed {
                        self.report(
                            &mut findings,
                            line,
                            format!(
                                "count acquired by `{name}` is discarded: the value is \
                                 neither bound, released, nor covered by a `// COUNT:` \
                                 contract"
                            ),
                            vec![],
                        );
                    }
                }
            }
            StmtKind::Bind(target) => {
                let key = target.clone().unwrap_or_else(|| "#destructured".into());
                if let Some(line) = acq_line {
                    self.rebind_check(&key, stmt, state, &mut findings);
                    if stmt.blessed {
                        state.remove(&key);
                    } else {
                        state.insert(key, Var { mixed: false, line });
                    }
                } else if let Some(moved) = self.single_tracked_ident(lo, hi, state) {
                    if moved != key {
                        self.rebind_check(&key, stmt, state, &mut findings);
                        let var = state.remove(&moved).expect("checked tracked");
                        if stmt.blessed {
                            // Contract: the comment says where it goes.
                        } else {
                            state.insert(key, var);
                        }
                    }
                } else {
                    // Overwritten with an untracked (or null) value.
                    self.rebind_check(&key, stmt, state, &mut findings);
                    state.remove(&key);
                }
            }
            StmtKind::PlaceBind => {
                // Transfer into the structure: acquires are committed,
                // tracked locals mentioned on the RHS are handed over.
                for name in self.tracked_idents(lo, hi, state) {
                    state.remove(&name);
                }
            }
            StmtKind::Scrut => {
                if let Some(line) = acq_line {
                    self.rebind_check(SCRUT, stmt, state, &mut findings);
                    if stmt.blessed {
                        state.remove(SCRUT);
                    } else {
                        state.insert(SCRUT.into(), Var { mixed: false, line });
                    }
                }
            }
            StmtKind::Return => {
                let ok = self.ret_raw || self.fn_blessed || stmt.blessed;
                for name in self.tracked_idents(lo, hi, state) {
                    let var = state.remove(&name).expect("tracked");
                    if !ok {
                        self.report(
                            &mut findings,
                            stmt.line,
                            format!(
                                "`{name}` holds a counted reference (acquired at line {}) \
                                 but escapes fn `{}` through a return type with no raw \
                                 pointer; the §5 transfer convention needs a raw-pointer \
                                 return or a `// COUNT:` contract",
                                var.line, self.def.item.name
                            ),
                            vec![(var.line, format!("`{name}` acquires its count here"))],
                        );
                    }
                }
                if let Some(line) = acq_line {
                    if !ok {
                        self.report(
                            &mut findings,
                            line,
                            "count acquired in return position escapes through a \
                             return type with no raw pointer; add `// COUNT:` or \
                             return the raw pointer"
                                .into(),
                            vec![],
                        );
                    }
                }
            }
            StmtKind::ArmOpen => unreachable!("handled above"),
        }
    }

    /// Match-arm entry: routes the pending scrutinee count through the
    /// pattern. `Err`/`None` arms carry no count (the acquire failed);
    /// other arms move it into the first lowercase binding identifier.
    fn arm_open(&self, stmt: &Stmt, state: &mut State) {
        let (lo, hi) = stmt.range;
        let mut sig: Vec<usize> = (lo..hi.min(self.file.toks.len()))
            .filter(|&i| !self.file.toks[i].is_comment())
            .collect();
        // Cut at an `if` guard: its condition identifiers are not bindings.
        if let Some(p) = sig.iter().position(|&i| self.file.toks[i].is_ident("if")) {
            sig.truncate(p);
        }
        let first = sig
            .iter()
            .find(|&&i| self.file.toks[i].kind == TokKind::Ident);
        let Some(&first) = first else { return };
        let head = self.file.toks[first].text.as_str();
        if head == "Err" || head == "None" {
            state.remove(SCRUT);
            return;
        }
        if !state.contains_key(SCRUT) {
            return;
        }
        let binding = sig.iter().find(|&&i| {
            let t = &self.file.toks[i];
            t.kind == TokKind::Ident
                && t.text != "_"
                && !t.is_ident("mut")
                && !t.is_ident("ref")
                && t.text.chars().next().is_some_and(|c| c.is_lowercase())
        });
        let var = state.remove(SCRUT).expect("checked present");
        if let Some(&b) = binding {
            state.insert(self.file.toks[b].text.clone(), var);
        } else {
            // No binding (`_ => ..`, unit variant): the count is dropped
            // in this arm — keep it pending so it surfaces as a leak.
            state.insert(SCRUT.into(), var);
        }
    }

    fn rebind_check(
        &self,
        key: &str,
        stmt: &Stmt,
        state: &State,
        findings: &mut Option<&mut BTreeSet<FlowFinding>>,
    ) {
        if stmt.blessed {
            return;
        }
        if let Some(var) = state.get(key) {
            if !var.mixed {
                self.report(
                    findings,
                    stmt.line,
                    format!(
                        "{} is rebound while still holding a counted reference \
                         (acquired at line {}); the old count leaks",
                        display_name(key),
                        var.line
                    ),
                    vec![(var.line, "previous count acquired here".into())],
                );
            }
        }
    }

    /// Applies consumption from [`CONSUMES`] calls and summarized callees.
    fn consume_calls(&self, lo: usize, hi: usize, state: &mut State) {
        for call in all_calls(self.file, lo, hi) {
            let name = self.file.toks[call.name_idx].text.as_str();
            if CONSUMES.contains(&name) {
                for name in self.tracked_idents(call.open + 1, call.close, state) {
                    state.remove(&name);
                }
            } else if let Some(positions) = self.summaries.consumed_params(name) {
                let args = split_args(self.file, call.open, call.close);
                for &p in positions {
                    if let Some(&(alo, ahi)) = args.get(p) {
                        for name in self.tracked_idents(alo, ahi, state) {
                            state.remove(&name);
                        }
                    }
                }
            }
        }
    }

    /// Tracked variable names mentioned as identifiers in `[lo, hi)`.
    fn tracked_idents(&self, lo: usize, hi: usize, state: &State) -> Vec<String> {
        let mut out = Vec::new();
        for i in lo..hi.min(self.file.toks.len()) {
            let t = &self.file.toks[i];
            if t.kind == TokKind::Ident && state.contains_key(&t.text) && !out.contains(&t.text) {
                out.push(t.text.clone());
            }
        }
        out
    }

    /// If the significant tokens of `[lo, hi)` are exactly one tracked
    /// identifier, returns it (a move).
    fn single_tracked_ident(&self, lo: usize, hi: usize, state: &State) -> Option<String> {
        let sig: Vec<usize> = (lo..hi.min(self.file.toks.len()))
            .filter(|&i| !self.file.toks[i].is_comment())
            .collect();
        match sig.as_slice() {
            [i] => {
                let t = &self.file.toks[*i];
                (t.kind == TokKind::Ident && state.contains_key(&t.text)).then(|| t.text.clone())
            }
            _ => None,
        }
    }

    fn report(
        &self,
        findings: &mut Option<&mut BTreeSet<FlowFinding>>,
        line: usize,
        message: String,
        related: Vec<(usize, String)>,
    ) {
        if let Some(f) = findings {
            f.insert(FlowFinding {
                line,
                message,
                related,
            });
        }
    }
}

/// Human name for a tracked key.
fn display_name(key: &str) -> String {
    match key {
        SCRUT => "the match scrutinee's value".to_string(),
        "#destructured" => "the destructured value".to_string(),
        _ => format!("`{key}`"),
    }
}

fn apply_guard(state: &mut State, guard: &Guard) {
    if let Guard::Null(name) = guard {
        // A null pointer carries no count: Release(null) is a no-op.
        state.remove(name);
    }
}

fn merge(a: &State, b: &State) -> State {
    let mut out = State::new();
    for (k, va) in a {
        match b.get(k) {
            Some(vb) => {
                out.insert(
                    k.clone(),
                    Var {
                        mixed: va.mixed || vb.mixed,
                        line: va.line.min(vb.line),
                    },
                );
            }
            None => {
                out.insert(
                    k.clone(),
                    Var {
                        mixed: true,
                        line: va.line,
                    },
                );
            }
        }
    }
    for (k, vb) in b {
        if !a.contains_key(k) {
            out.insert(
                k.clone(),
                Var {
                    mixed: true,
                    line: vb.line,
                },
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cfg, syntax};

    fn analyze(src: &str) -> Vec<FlowFinding> {
        analyze_named(src, 0)
    }

    fn analyze_named(src: &str, fn_index: usize) -> Vec<FlowFinding> {
        let file = SourceFile::parse("t.rs", src);
        let ast = syntax::parse(&file);
        let summaries = Summaries::build([(&file, &ast)]);
        let def = &ast.fns[fn_index];
        let cfg = cfg::build(&file, def).expect("body");
        FlowAnalysis::new(&file, def, &summaries).run(&cfg)
    }

    #[test]
    fn balanced_traversal_is_clean() {
        let src = "fn f(&self) {\n\
            let mut t = self.arena.safe_read(&self.head);\n\
            loop {\n\
                let next = self.arena.safe_read(&(*t).next);\n\
                if next.is_null() { break; }\n\
                self.arena.release(t);\n\
                t = next;\n\
            }\n\
            self.arena.release(t);\n\
        }";
        assert_eq!(analyze(src), vec![]);
    }

    #[test]
    fn early_return_leak_is_reported() {
        let src = "fn f(&self) -> bool {\n\
            let h = self.arena.safe_read(&self.head);\n\
            if self.stopped() { return false; }\n\
            self.arena.release(h);\n\
            true\n\
        }";
        let findings = analyze(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("`h`"));
        assert!(findings[0].message.contains("at least one path"));
    }

    #[test]
    fn branch_divergence_leak_is_reported() {
        let src = "fn f(&self) {\n\
            let h = self.arena.safe_read(&self.head);\n\
            if self.fast_path() {\n\
                self.arena.release(h);\n\
            } else {\n\
                self.note_slow();\n\
            }\n\
        }";
        let findings = analyze(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("at least one path"));
    }

    #[test]
    fn raw_pointer_return_is_a_transfer() {
        let src = "fn f(&self) -> *mut Node {\n\
            let h = self.arena.safe_read(&self.head);\n\
            h\n\
        }";
        assert_eq!(analyze(src), vec![]);
    }

    #[test]
    fn non_raw_return_escape_is_reported() {
        let src = "fn f(&self) -> Handle {\n\
            let h = self.arena.safe_read(&self.head);\n\
            Handle { cell: h }\n\
        }";
        let findings = analyze(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("transfer convention"));
    }

    #[test]
    fn count_comment_blesses_the_statement() {
        let src = "fn f(&self) -> Handle {\n\
            // COUNT: transfers into the handle; release_handle drops it.\n\
            let h = self.arena.safe_read(&self.head);\n\
            Handle { cell: h }\n\
        }";
        // The acquire is blessed, so `h` is untracked from birth.
        assert_eq!(analyze(src), vec![]);
    }

    #[test]
    fn match_ok_arm_carries_the_count_err_does_not() {
        let src = "fn f(&self) -> Result<(), Error> {\n\
            let cell = match self.arena.alloc() {\n\
                Ok(cell) => cell,\n\
                Err(e) => return Err(e),\n\
            };\n\
            self.arena.release(cell);\n\
            Ok(())\n\
        }";
        assert_eq!(analyze(src), vec![]);
    }

    #[test]
    fn match_arm_leak_is_reported() {
        let src = "fn f(&self) {\n\
            let cell = match self.arena.alloc() {\n\
                Ok(cell) => cell,\n\
                Err(_) => return,\n\
            };\n\
            self.touch(cell);\n\
        }";
        let findings = analyze(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("`cell`"));
    }

    #[test]
    fn null_guard_kills_along_null_edge() {
        let src = "fn f(&self) -> Option<u32> {\n\
            let h = self.arena.safe_read(&self.head);\n\
            if h.is_null() { return None; }\n\
            let v = self.read_value(h);\n\
            self.arena.release(h);\n\
            Some(v)\n\
        }";
        assert_eq!(analyze(src), vec![]);
    }

    #[test]
    fn move_transfers_tracking() {
        let src = "fn f(&self) {\n\
            let a = self.arena.safe_read(&self.head);\n\
            let b = a;\n\
            self.arena.release(b);\n\
        }";
        assert_eq!(analyze(src), vec![]);
    }

    #[test]
    fn rebind_while_held_is_reported() {
        let src = "fn f(&self) {\n\
            let mut h = self.arena.safe_read(&self.head);\n\
            h = self.arena.safe_read(&self.tail);\n\
            self.arena.release(h);\n\
        }";
        let findings = analyze(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("rebound"));
    }

    #[test]
    fn field_store_transfers_into_structure() {
        let src = "fn f(&mut self) {\n\
            let h = self.arena.safe_read(&self.head);\n\
            self.cursor = h;\n\
        }";
        assert_eq!(analyze(src), vec![]);
    }

    #[test]
    fn discarded_acquire_is_reported() {
        let src = "fn f(&self) {\n\
            self.arena.safe_read(&self.head);\n\
        }";
        let findings = analyze(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("discarded"));
    }

    #[test]
    fn summarized_callee_consumes_argument() {
        let src = "\
        fn sink(&self, p: *mut Node) { self.arena.release(p); }\n\
        fn f(&self) {\n\
            let h = self.arena.safe_read(&self.head);\n\
            self.sink(h);\n\
        }";
        assert_eq!(analyze_named(src, 1), vec![]);
    }

    #[test]
    fn release_deferred_second_arg_consumes() {
        let src = "fn f(&mut self) {\n\
            let p = self.arena.safe_read(&self.head);\n\
            release_deferred(&mut self.defer, p);\n\
        }";
        assert_eq!(analyze(src), vec![]);
    }

    #[test]
    fn while_loop_with_null_condition_is_clean() {
        let src = "fn f(&self) {\n\
            let mut v = self.arena.safe_read(&self.root);\n\
            while !v.is_null() {\n\
                let next = self.arena.safe_read(&(*v).left);\n\
                self.arena.release(v);\n\
                v = next;\n\
            }\n\
        }";
        assert_eq!(analyze(src), vec![]);
    }
}
