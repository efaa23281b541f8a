//! The refcount-balance lattice for the [`crate::flow`] engine.
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
//! * **Transfer** interprets each [`Stmt`] by token scan: consume calls
//!   drop state, acquires bind it to the statement's sink,
//!   single-identifier binds are *moves* (raw pointers are `Copy`, but
//!   the workspace idiom treats `t = next` as handing the count over —
//!   the old name is no longer released), place-stores transfer into the
//!   structure, null-constant binds kill (null carries no count).
//! * **Calls** are classified by the §5 table [`CALLS`](crate::flow::CALLS)
//!   and consume through the workspace call graph: a function summarized
//!   as releasing its `i`-th raw-pointer parameter consumes the tracked
//!   argument at that position (see [`Summaries`]).
//! * **Exit**: whatever is still held when the function returns leaks.
//! * `// COUNT:` comments are *contracts*, not mute buttons: a blessed
//!   statement exempts its acquisition, and a function-level
//!   `// COUNT: ... transfers to caller ...` is checked against the
//!   signature — declaring a transfer without a raw-pointer return is
//!   itself an error.

use crate::cfg::{Stmt, StmtKind};
use crate::flow::{
    all_calls, plain_ident, route_arm, tracked_idents, Analysis, Call, Count, Findings,
    FlowFinding, State, Summaries, DESTRUCTURED, SCRUT,
};
use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::syntax::FnDef;

/// Tracked state of one local.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Var {
    /// Held on some-but-not-all paths.
    mixed: bool,
    /// Line of the (earliest) acquisition, for diagnostics.
    line: usize,
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

/// Whether `def`'s return type carries a raw pointer (the §5 transfer
/// convention).
pub fn returns_raw_ptr(file: &SourceFile, def: &FnDef) -> bool {
    let (rlo, rhi) = def.item.return_type;
    file.toks[rlo..rhi.min(file.toks.len())]
        .iter()
        .any(|t| t.kind == TokKind::Punct && t.text == "*")
}

/// The balance analysis of one function.
pub(crate) struct Balance<'a> {
    file: &'a SourceFile,
    def: &'a FnDef,
    summaries: &'a Summaries,
    /// Return type carries a raw pointer (the transfer convention).
    ret_raw: bool,
    /// Function-level `// COUNT:` blessing.
    fn_blessed: bool,
}

impl<'a> Balance<'a> {
    /// Prepares the analysis of `def`.
    pub fn new(file: &'a SourceFile, def: &'a FnDef, summaries: &'a Summaries) -> Balance<'a> {
        Balance {
            file,
            def,
            summaries,
            ret_raw: returns_raw_ptr(file, def),
            fn_blessed: fn_count_contract(file, def).is_some(),
        }
    }

    fn rebind_check(
        &self,
        key: &str,
        stmt: &Stmt,
        state: &State<Var>,
        findings: &mut Option<&mut Findings>,
    ) {
        if stmt.blessed {
            return;
        }
        if let Some(var) = state.get(key) {
            if !var.mixed {
                report(
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

    /// Applies consumption from [`Count::Consume`] calls and summarized
    /// callees.
    fn consume_calls(&self, calls: &[Call], state: &mut State<Var>) {
        for call in calls {
            let ranges = if call.effect(self.file).0 == Count::Consume {
                vec![(call.open + 1, call.close)]
            } else if let Some(positions) = self.summaries.consumed_params(call.name(self.file)) {
                let args = call.args(self.file);
                positions
                    .iter()
                    .filter_map(|&p| args.get(p).copied())
                    .collect()
            } else {
                continue;
            };
            for (alo, ahi) in ranges {
                for name in tracked_idents(self.file, alo, ahi, state) {
                    state.remove(&name);
                }
            }
        }
    }
}

impl Analysis for Balance<'_> {
    type Var = Var;

    fn entry(&self) -> State<Var> {
        State::new()
    }

    fn step(&self, stmt: &Stmt, state: &mut State<Var>, mut findings: Option<&mut Findings>) {
        let (lo, hi) = stmt.range;
        if matches!(stmt.kind, StmtKind::ArmOpen) {
            // An arm that binds nothing drops the count: keep it pending
            // so it surfaces as a leak.
            if let Some(var) = route_arm(self.file, stmt.range, state) {
                state.insert(SCRUT.into(), var);
            }
            return;
        }
        // 1. Consumption: release-family calls and summarized callees.
        let calls = all_calls(self.file, lo, hi);
        self.consume_calls(&calls, state);
        // 2. Acquisition + value flow by sink.
        let acquire = calls
            .iter()
            .find(|c| c.effect(self.file).0 == Count::Acquire)
            .map(|c| {
                (
                    self.file.toks[c.name_idx].line,
                    c.name(self.file).to_string(),
                )
            });
        let acq_line = acquire.as_ref().map(|a| a.0);
        match &stmt.kind {
            StmtKind::Expr => {
                if let (Some((line, name)), false) = (&acquire, stmt.blessed) {
                    report(
                        &mut findings,
                        *line,
                        format!(
                            "count acquired by `{name}` is discarded: the value is \
                             neither bound, released, nor covered by a `// COUNT:` \
                             contract"
                        ),
                        vec![],
                    );
                }
            }
            StmtKind::Bind(target) => {
                let key = target.clone().unwrap_or_else(|| DESTRUCTURED.into());
                let moved = plain_ident(self.file, lo, hi).filter(|n| state.contains_key(n));
                if let Some(line) = acq_line {
                    self.rebind_check(&key, stmt, state, &mut findings);
                    if stmt.blessed {
                        state.remove(&key);
                    } else {
                        state.insert(key, Var { mixed: false, line });
                    }
                } else if let Some(moved) = moved {
                    if moved != key {
                        self.rebind_check(&key, stmt, state, &mut findings);
                        let var = state.remove(&moved).expect("checked tracked");
                        // A blessed move: the contract says where it goes.
                        if !stmt.blessed {
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
                for name in tracked_idents(self.file, lo, hi, state) {
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
                for name in tracked_idents(self.file, lo, hi, state) {
                    let var = state.remove(&name).expect("tracked");
                    if !ok {
                        report(
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
                if let (Some(line), false) = (acq_line, ok) {
                    report(
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
            StmtKind::ArmOpen => unreachable!("handled above"),
        }
    }

    fn join(a: &Var, b: &Var) -> Var {
        Var {
            mixed: a.mixed || b.mixed,
            line: a.line.min(b.line),
        }
    }

    fn one_sided(v: &Var) -> Var {
        Var {
            mixed: true,
            line: v.line,
        }
    }

    /// Every count still held at the exit leaks.
    fn exit(&self, state: &State<Var>, findings: &mut Findings) {
        for (name, var) in state {
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
}

fn report(
    findings: &mut Option<&mut Findings>,
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

/// Human name for a tracked key.
fn display_name(key: &str) -> String {
    match key {
        SCRUT => "the match scrutinee's value".to_string(),
        DESTRUCTURED => "the destructured value".to_string(),
        _ => format!("`{key}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cfg, flow::solve, syntax};

    fn analyze(src: &str) -> Vec<FlowFinding> {
        analyze_named(src, 0)
    }

    fn analyze_named(src: &str, fn_index: usize) -> Vec<FlowFinding> {
        let file = SourceFile::parse("t.rs", src);
        let ast = syntax::parse(&file);
        let summaries = Summaries::build([(&file, &ast)]);
        let def = &ast.fns[fn_index];
        let cfg = cfg::build(&file, def).expect("body");
        solve(&Balance::new(&file, def, &summaries), &cfg)
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
