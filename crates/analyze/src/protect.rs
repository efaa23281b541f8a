//! The protection-window lattice for the [`crate::flow`] engine: every
//! dereference of a counted node pointer must sit *inside* its
//! protection window.
//!
//! [`crate::dataflow`] proves counts are eventually released (no leaks);
//! this module proves the complementary direction — no *use after* the
//! protecting count is consumed, the exact use-after-reclamation/ABA
//! hazard the §5 scheme exists to prevent (invariant I11,
//! docs/PROTOCOL.md). It runs on the same [`Cfg`](crate::cfg::Cfg) and
//! solver, with a per-variable provenance lattice:
//!
//! * `Protected` — the local holds a live count, acquired by a
//!   [`Window::Open`] call, re-opened by a [`Window::Reacquire`] call, or
//!   guaranteed by the enclosing fn's `// GUARD:` contract.
//! * `Parked` — the count was handed to a deferred-release buffer
//!   ([`Window::Park`]). A parked release is still a live process
//!   reference under I1: deref remains legal. The *flush*
//!   ([`Window::Flush`]) is the kill, not the park.
//! * `Released` — the protecting count was consumed ([`Window::Kill`] or
//!   a flush). A dereference in this state — on *any* path — is reported.
//! * `Moved` — the count was handed off (to another binding, into the
//!   structure through a place-store, or to the caller via return).
//!   Deref through the old name stays silent: the window is owned
//!   elsewhere and this analysis does not track aliases.
//! * Unknown (absent from the map) — not a tracked provenance; never
//!   reported.
//!
//! The polarity is the inverse of the balance lattice: there, consuming
//! too eagerly only *removes* leak reports, so any-path call summaries
//! are safe. Here a spurious kill would *invent* a use-after-release, so
//! only the explicit calls of the §5 table (with the pointer as a plain
//! argument) close a window — a summarized callee that mentions a release
//! does not, because it may be releasing a *different* count on the same
//! node (e.g. `swing` dropping the link's count while the caller keeps
//! its process reference).
//!
//! Interprocedural checking goes through [`Summaries`] and the
//! `// GUARD:` contract comment (see docs/ANALYSIS.md for the grammar):
//! a fn declaring `// GUARD: p` promises the caller holds a count on `p`
//! for the duration of the call, so `p` starts `Protected` in the callee
//! and every call site is checked for passing a closed-window pointer.
//! Raw-pointer params the body dereferences are summarized the same way
//! even without a contract, so safe helpers are checked at call sites
//! too; the *requirement* to write `// GUARD:` applies to `unsafe fn`s
//! (enforced by the `guard-contract` rule in the pass wrapper).

use crate::cfg::{Stmt, StmtKind};
use crate::flow::{
    all_calls, plain_ident, route_arm, tracked_idents, Analysis, Call, Findings, FlowFinding,
    State, Summaries, Window, DESTRUCTURED, SCRUT,
};
use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::syntax::FnDef;

/// Parses the fn's leading `// GUARD:` contract, returning the declared
/// parameter names. Grammar (see docs/ANALYSIS.md): the marker is
/// followed by a comma-separated identifier list, then free prose —
/// `// GUARD: p, q — caller holds a count on each`. Returns `None` when
/// no contract is present; an empty list when the contract names nothing
/// parseable (the pass wrapper reports that as a stale contract).
pub fn fn_guard_contract(file: &SourceFile, def: &FnDef) -> Option<Vec<String>> {
    let start = file.item_start(def.item.fn_idx);
    let comments = file.leading_item_comments(start);
    let text = comments
        .iter()
        .map(|t| t.text.as_str())
        .find(|t| t.contains("GUARD:"))?;
    let rest = &text[text.find("GUARD:").unwrap() + "GUARD:".len()..];
    let mut names = Vec::new();
    let mut expect_ident = true;
    for word in rest.split_whitespace() {
        // Accept `p`, `p,`, `p,q`; stop at the first token that is not
        // part of the identifier list (the prose).
        for piece in word.split(',') {
            if piece.is_empty() {
                expect_ident = true;
                continue;
            }
            let is_ident = piece.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                && piece.chars().next().is_some_and(|c| !c.is_ascii_digit());
            if expect_ident && is_ident {
                names.push(piece.to_string());
                expect_ident = word.ends_with(',');
            } else {
                return Some(names);
            }
        }
    }
    Some(names)
}

/// How a tracked pointer's window can stand.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Prov {
    /// Live count held by this local.
    Protected,
    /// Release parked in a deferred buffer; still live until a flush.
    Parked,
    /// Window closed at `kill_line`; `mixed` when only on some paths.
    Released { kill_line: usize, mixed: bool },
    /// Count handed off (move/place-store/return); not tracked further.
    Moved,
}

/// Tracked state of one local.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct PVar {
    prov: Prov,
    /// Line where the window opened (acquire site or fn signature for
    /// GUARD params).
    origin_line: usize,
    /// What opened it, for diagnostics.
    origin: &'static str,
}

/// Identifier keywords that can legally precede a unary `*` deref.
const UNARY_PREFIX_KEYWORDS: &[&str] = &[
    "return", "in", "match", "if", "while", "else", "break", "unsafe", "mut", "move", "let",
    "loop", "as",
];

/// Lines where `[lo, hi)` dereferences `name`: unary `*name` or
/// `name.as_ref()`/`name.as_mut()`.
pub fn deref_sites(file: &SourceFile, lo: usize, hi: usize, name: &str) -> Vec<usize> {
    let toks = &file.toks;
    let mut out = Vec::new();
    for i in lo..hi.min(toks.len()) {
        let t = &toks[i];
        if t.kind == TokKind::Punct && t.text == "*" {
            let Some(n) = file.next_sig(i) else { continue };
            if !toks[n].is_ident(name) {
                continue;
            }
            // Unary position: not a binary multiply. A multiply's left
            // operand ends in an identifier (non-keyword), a literal, or
            // a close delimiter.
            let binary = file.prev_sig(i).is_some_and(|p| match toks[p].kind {
                TokKind::Ident => !UNARY_PREFIX_KEYWORDS.iter().any(|k| toks[p].is_ident(k)),
                TokKind::Literal | TokKind::Close(_) => true,
                _ => false,
            });
            if !binary {
                out.push(toks[n].line);
            }
        } else if t.is_ident(name) {
            let Some(d) = file.next_sig(i) else { continue };
            if !(toks[d].kind == TokKind::Punct && toks[d].text == ".") {
                continue;
            }
            let Some(m) = file.next_sig(d) else { continue };
            if toks[m].is_ident("as_ref") || toks[m].is_ident("as_mut") {
                out.push(toks[m].line);
            }
        }
    }
    out
}

/// Detects a plain assignment `name = rhs` in `[lo, hi)` and returns the
/// target with the RHS token range (trailing `,`/`;` trimmed). A single
/// `=` only — `==` and `=>` are excluded. Match-arm bodies lower as bare
/// expression statements, so rebinds there (`Some(n) => p = n,`) arrive
/// here instead of as `Bind`s.
fn assign_target(file: &SourceFile, lo: usize, hi: usize) -> Option<(String, usize, usize)> {
    let hi = hi.min(file.toks.len());
    let mut sig = (lo..hi).filter(|&i| !file.toks[i].is_comment());
    let first = sig.next()?;
    let eq = sig.next()?;
    let after = sig.next()?;
    if file.toks[first].kind != TokKind::Ident
        || file.toks[eq].kind != TokKind::Punct
        || file.toks[eq].text != "="
    {
        return None;
    }
    if file.toks[after].kind == TokKind::Punct
        && (file.toks[after].text == "=" || file.toks[after].text == ">")
    {
        return None;
    }
    let mut rhs_hi = hi;
    while rhs_hi > after {
        let t = &file.toks[rhs_hi - 1];
        if t.is_comment() || (t.kind == TokKind::Punct && (t.text == "," || t.text == ";")) {
            rhs_hi -= 1;
        } else {
            break;
        }
    }
    Some((file.toks[first].text.clone(), after, rhs_hi))
}

/// The protection analysis of one function.
pub(crate) struct Protection<'a> {
    file: &'a SourceFile,
    def: &'a FnDef,
    summaries: &'a Summaries,
    /// Lines of `// GUARD:` comments (precomputed: the bless check runs
    /// per statement and must not rescan the whole token stream).
    guard_lines: Vec<usize>,
}

impl<'a> Protection<'a> {
    /// Prepares the analysis of `def` against workspace `summaries`.
    pub fn new(file: &'a SourceFile, def: &'a FnDef, summaries: &'a Summaries) -> Protection<'a> {
        let guard_lines = file
            .toks
            .iter()
            .filter(|t| t.is_comment() && t.text.contains("GUARD:"))
            .map(|t| t.line)
            .collect();
        Protection {
            file,
            def,
            summaries,
            guard_lines,
        }
    }

    /// A statement-attached `// GUARD:` comment blesses its dereferences
    /// (the author states why the pointee is pinned — e.g. I10's cached
    /// anchors); kills and acquisitions still apply.
    fn stmt_guard_blessed(&self, stmt: &Stmt) -> bool {
        let (lo, hi) = stmt.range;
        let toks = &self.file.toks;
        let lines = (lo..hi.min(toks.len())).map(|i| toks[i].line);
        let (Some(first), Some(last)) = (lines.clone().min(), lines.max()) else {
            return false;
        };
        // Adjacency by line: a `// GUARD:` comment inside the statement
        // or on the line directly above it.
        self.guard_lines
            .iter()
            .any(|&line| line + 1 >= first && line <= last)
    }

    /// Value flow into `key` from the initializer/RHS range `[lo, hi)`:
    /// an acquisition opens a fresh window, a plain tracked identifier
    /// moves its window to `key`, anything else makes `key` untracked.
    fn flow_into(
        &self,
        key: String,
        acq_line: Option<usize>,
        lo: usize,
        hi: usize,
        state: &mut State<PVar>,
    ) {
        if let Some(line) = acq_line {
            state.insert(key, opened(line));
        } else if let Some(moved) = plain_ident(self.file, lo, hi) {
            if let Some(var) = state.get(&moved).cloned() {
                if moved != key {
                    state.insert(
                        moved,
                        PVar {
                            prov: Prov::Moved,
                            ..var.clone()
                        },
                    );
                    state.insert(key, var);
                }
            } else {
                state.remove(&key);
            }
        } else {
            state.remove(&key);
        }
    }

    /// Reports dereferences of closed-window locals in `[lo, hi)`.
    fn check_derefs(&self, lo: usize, hi: usize, state: &State<PVar>, f: &mut Findings) {
        for (name, var) in state {
            let Prov::Released { kill_line, mixed } = var.prov else {
                continue;
            };
            for line in deref_sites(self.file, lo, hi, name) {
                let paths = if mixed { " on at least one path" } else { "" };
                f.insert(FlowFinding {
                    line,
                    message: format!(
                        "`{name}` is dereferenced here, but its protection window was \
                         closed{paths} (count consumed at line {kill_line}); a deref \
                         outside the window races reclamation (invariant I11)"
                    ),
                    related: vec![
                        (kill_line, "the protecting count is consumed here".into()),
                        (var.origin_line, var.origin.into()),
                    ],
                });
            }
        }
    }

    /// Reports closed-window locals passed to callees that deref (or
    /// declare `// GUARD:` on) the corresponding parameter.
    fn check_call_args(&self, calls: &[Call], state: &State<PVar>, f: &mut Findings) {
        for call in calls {
            let callee = call.name(self.file);
            let positions = self.summaries.protected_params(callee);
            if positions.is_empty() {
                continue;
            }
            let args = call.args(self.file);
            for &pos in &positions {
                let Some(&(alo, ahi)) = args.get(pos) else {
                    continue;
                };
                let Some(name) = plain_ident(self.file, alo, ahi) else {
                    continue;
                };
                let Some(var) = state.get(&name) else {
                    continue;
                };
                let Prov::Released { kill_line, mixed } = var.prov else {
                    continue;
                };
                let why = if self.summaries.guard_declared(callee, pos) {
                    "declares `// GUARD:` on"
                } else {
                    "dereferences"
                };
                let paths = if mixed { " on at least one path" } else { "" };
                f.insert(FlowFinding {
                    line: self.file.toks[call.name_idx].line,
                    message: format!(
                        "`{name}` is passed to `{callee}`, which {why} that parameter, \
                         but its protection window was closed{paths} (count consumed \
                         at line {kill_line}); the callee would deref outside the \
                         window (invariant I11)"
                    ),
                    related: vec![
                        (kill_line, "the protecting count is consumed here".into()),
                        (var.origin_line, var.origin.into()),
                    ],
                });
            }
        }
    }

    /// Applies the window column of the §5 table.
    fn apply_calls(&self, calls: &[Call], state: &mut State<PVar>) {
        for call in calls {
            let kill_line = self.file.toks[call.name_idx].line;
            let closed = Prov::Released {
                kill_line,
                mixed: false,
            };
            let prov = match call.effect(self.file).1 {
                Window::Kill => closed,
                Window::Park => Prov::Parked,
                Window::Reacquire => Prov::Protected,
                Window::Flush => {
                    for v in state.values_mut() {
                        if v.prov == Prov::Parked {
                            v.prov = closed.clone();
                        }
                    }
                    continue;
                }
                Window::Open | Window::Keep => continue,
            };
            for (alo, ahi) in call.args(self.file) {
                let Some(arg) = plain_ident(self.file, alo, ahi) else {
                    continue;
                };
                if let Some(v) = state.get_mut(&arg) {
                    v.prov = prov.clone();
                }
            }
        }
    }

    /// Hands off every tracked local mentioned in `[lo, hi)` whose window
    /// is still open.
    fn move_mentioned(&self, lo: usize, hi: usize, state: &mut State<PVar>) {
        for name in tracked_idents(self.file, lo, hi, state) {
            if let Some(v) = state.get_mut(&name) {
                if !matches!(v.prov, Prov::Released { .. }) {
                    v.prov = Prov::Moved;
                }
            }
        }
    }
}

/// A window freshly opened by an acquisition at `line`.
fn opened(line: usize) -> PVar {
    PVar {
        prov: Prov::Protected,
        origin_line: line,
        origin: "the protection window opens here",
    }
}

impl Analysis for Protection<'_> {
    type Var = PVar;

    /// GUARD-declared raw-pointer params start protected.
    fn entry(&self) -> State<PVar> {
        let mut state = State::new();
        let Some(declared) = fn_guard_contract(self.file, self.def) else {
            return state;
        };
        for (_, name) in self.def.raw_params() {
            if declared.iter().any(|d| d == name) {
                state.insert(
                    name.to_string(),
                    PVar {
                        prov: Prov::Protected,
                        origin_line: self.def.item.line,
                        origin: "protected by the caller per this fn's `// GUARD:` contract",
                    },
                );
            }
        }
        state
    }

    fn step(&self, stmt: &Stmt, state: &mut State<PVar>, findings: Option<&mut Findings>) {
        let (lo, hi) = stmt.range;
        if matches!(stmt.kind, StmtKind::ArmOpen) {
            // An arm that binds nothing drops the window with the value.
            route_arm(self.file, stmt.range, state);
            return;
        }
        if matches!(stmt.kind, StmtKind::ElseOpen) {
            // The unmatched value is dropped, and its window with it.
            state.remove(SCRUT);
            return;
        }
        let calls = all_calls(self.file, lo, hi);
        // 1. Dereference checks against the pre-kill state: a release in
        //    this statement consumes *after* its arguments are read.
        if let Some(f) = findings {
            if !self.stmt_guard_blessed(stmt) {
                self.check_derefs(lo, hi, state, f);
                self.check_call_args(&calls, state, f);
            }
        }
        // 2. Window transitions from calls.
        self.apply_calls(&calls, state);
        // 3. Value flow by statement kind.
        let acq_line = calls
            .iter()
            .find(|c| c.effect(self.file).1 == Window::Open)
            .map(|c| self.file.toks[c.name_idx].line);
        match &stmt.kind {
            StmtKind::Bind(target) => {
                let key = target.clone().unwrap_or_else(|| DESTRUCTURED.into());
                self.flow_into(key, acq_line, lo, hi, state);
            }
            // Store into the structure, or return to the caller: the
            // window transfers with the count.
            StmtKind::PlaceBind | StmtKind::Return => self.move_mentioned(lo, hi, state),
            StmtKind::Scrut => {
                if let Some(line) = acq_line {
                    state.insert(SCRUT.into(), opened(line));
                }
            }
            StmtKind::Expr => {
                // Match-arm bodies lower as bare expressions, so a
                // `name = rhs` rebind must be recognized here too
                // (cf. `Bind` above): the rebound name takes the RHS's
                // window, clearing any `Released` from a prior round.
                if let Some((key, rhs_lo, rhs_hi)) = assign_target(self.file, lo, hi) {
                    self.flow_into(key, acq_line, rhs_lo, rhs_hi, state);
                }
            }
            StmtKind::ArmOpen | StmtKind::ElseOpen => unreachable!("handled above"),
        }
    }

    /// `Released` dominates (a deref is wrong if the window is closed on
    /// *any* incoming path); `Parked` beats `Protected` only in being
    /// flush-sensitive; `Moved` is the bottom of the deref-safe states.
    fn join(a: &PVar, b: &PVar) -> PVar {
        let origin = if a.origin_line <= b.origin_line { a } else { b };
        let prov = match (&a.prov, &b.prov) {
            (
                Prov::Released {
                    kill_line: ka,
                    mixed: ma,
                },
                Prov::Released {
                    kill_line: kb,
                    mixed: mb,
                },
            ) => Prov::Released {
                kill_line: *ka.min(kb),
                mixed: *ma || *mb,
            },
            (Prov::Released { kill_line, .. }, _) | (_, Prov::Released { kill_line, .. }) => {
                Prov::Released {
                    kill_line: *kill_line,
                    mixed: true,
                }
            }
            (Prov::Parked, _) | (_, Prov::Parked) => Prov::Parked,
            (Prov::Protected, _) | (_, Prov::Protected) => Prov::Protected,
            (Prov::Moved, Prov::Moved) => Prov::Moved,
        };
        PVar {
            prov,
            origin_line: origin.origin_line,
            origin: origin.origin,
        }
    }

    /// Unknown on the other path: only a closed window is worth
    /// remembering, and then only as some-path.
    fn one_sided(v: &PVar) -> PVar {
        let mut v = v.clone();
        if let Prov::Released { kill_line, .. } = v.prov {
            v.prov = Prov::Released {
                kill_line,
                mixed: true,
            };
        }
        v
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
        solve(&Protection::new(&file, def, &summaries), &cfg)
    }

    #[test]
    fn deref_inside_window_is_clean() {
        let src = "fn f(&self) {\n\
            let h = self.arena.safe_read(&self.head);\n\
            let k = unsafe { (*h).key };\n\
            self.arena.release(h);\n\
        }";
        assert_eq!(analyze(src), vec![]);
    }

    #[test]
    fn deref_after_release_is_reported_with_both_relations() {
        let src = "fn f(&self) {\n\
            let h = self.arena.safe_read(&self.head);\n\
            self.arena.release(h);\n\
            let k = unsafe { (*h).key };\n\
        }";
        let findings = analyze(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 4);
        assert_eq!(findings[0].related.len(), 2);
        assert_eq!(findings[0].related[0].0, 3, "killing release");
        assert_eq!(findings[0].related[1].0, 2, "acquisition origin");
    }

    #[test]
    fn release_argument_itself_is_not_a_deref() {
        let src = "fn f(&self) {\n\
            let h = self.arena.safe_read(&self.head);\n\
            self.arena.release(h);\n\
        }";
        assert_eq!(analyze(src), vec![]);
    }

    #[test]
    fn branch_release_makes_mixed_deref() {
        let src = "fn f(&self) {\n\
            let h = self.arena.safe_read(&self.head);\n\
            if self.flip() {\n\
                self.arena.release(h);\n\
            }\n\
            let k = unsafe { (*h).key };\n\
        }";
        let findings = analyze(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("at least one path"));
    }

    #[test]
    fn parked_release_keeps_window_open_until_flush() {
        let src = "fn f(&mut self) {\n\
            let h = self.arena.safe_read(&self.head);\n\
            self.arena.release_deferred(&mut self.defer, h);\n\
            let a = unsafe { (*h).key };\n\
            self.arena.drain_deferred(&mut self.defer);\n\
            let b = unsafe { (*h).key };\n\
        }";
        let findings = analyze(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 6, "only the post-flush deref");
    }

    #[test]
    fn move_and_rebind_keep_window_with_new_owner() {
        let src = "fn f(&self) -> *mut Node {\n\
            let mut p = self.arena.safe_read(&self.head);\n\
            loop {\n\
                let q = self.arena.safe_read(&(*p).back_link);\n\
                if q.is_null() {\n\
                    return p;\n\
                }\n\
                self.arena.release(p);\n\
                p = q;\n\
            }\n\
        }";
        assert_eq!(analyze(src), vec![]);
    }

    #[test]
    fn deref_after_rebind_loses_nothing_but_release_without_rebind_fires() {
        let src = "fn f(&self) {\n\
            let mut p = self.arena.safe_read(&self.head);\n\
            loop {\n\
                self.arena.release(p);\n\
                let k = unsafe { (*p).key };\n\
                if k == 0 {\n\
                    break;\n\
                }\n\
            }\n\
        }";
        let findings = analyze(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 5);
    }

    #[test]
    fn guard_param_starts_protected_and_release_then_deref_fires() {
        let src = "\
        // GUARD: p — caller holds a count on p.\n\
        unsafe fn broken(&self, p: *mut Node) -> u64 {\n\
            self.arena.release(p);\n\
            (*p).key\n\
        }";
        let findings = analyze(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("`p`"));
        assert_eq!(findings[0].related.len(), 2);
    }

    #[test]
    fn released_pointer_passed_to_derefing_helper_is_reported() {
        let src = "\
        fn key_of(&self, p: *mut Node) -> u64 { unsafe { (*p).key } }\n\
        fn f(&self) {\n\
            let h = self.arena.safe_read(&self.head);\n\
            self.arena.release(h);\n\
            let k = self.key_of(h);\n\
        }";
        let findings = analyze_named(src, 1);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("key_of"), "{findings:?}");
    }

    #[test]
    fn incr_ref_reopens_the_window() {
        let src = "fn f(&self) {\n\
            let h = self.arena.safe_read(&self.head);\n\
            self.arena.release(h);\n\
            self.arena.incr_ref(h);\n\
            let k = unsafe { (*h).key };\n\
            self.arena.release(h);\n\
        }";
        assert_eq!(analyze(src), vec![]);
    }

    #[test]
    fn stmt_guard_comment_blesses_a_deref() {
        let src = "fn f(&self) {\n\
            let h = self.arena.safe_read(&self.head);\n\
            self.arena.release(h);\n\
            // GUARD: h stays readable: the cache slot pins it (I10).\n\
            let k = unsafe { (*h).key };\n\
        }";
        assert_eq!(analyze(src), vec![]);
    }

    #[test]
    fn untracked_pointers_are_silent() {
        let src = "fn f(&self, p: *mut Node) -> u64 {\n\
            unsafe { (*p).key }\n\
        }";
        assert_eq!(analyze(src), vec![]);
    }

    #[test]
    fn guard_contract_parses_name_lists() {
        let file = SourceFile::parse(
            "t.rs",
            "// GUARD: p, q — caller holds counts on both.\n\
             unsafe fn f(p: *mut N, q: *mut N) {}\n",
        );
        let ast = syntax::parse(&file);
        let names = fn_guard_contract(&file, &ast.fns[0]).expect("contract");
        assert_eq!(names, vec!["p".to_string(), "q".to_string()]);
    }

    #[test]
    fn binary_multiply_is_not_a_deref() {
        let file = SourceFile::parse("t.rs", "fn f(n: usize, p: usize) -> usize { n * p }");
        assert_eq!(deref_sites(&file, 0, file.toks.len(), "p"), vec![]);
    }

    #[test]
    fn match_arm_assignment_rebinds_the_window() {
        // `current = next` inside the arm body lowers as a bare
        // expression statement, not a `Bind`; the rebind must still
        // clear the `Released` state from the previous iteration
        // (this is `release_into`'s drain-loop shape).
        let src = "fn f(&self) {\n\
            let mut current = self.arena.safe_read(&self.head);\n\
            loop {\n\
                let next = unsafe { (*current).link };\n\
                self.arena.push_free(current);\n\
                match nonnull(next) {\n\
                    Some(next) => current = next,\n\
                    None => return,\n\
                }\n\
            }\n\
        }";
        assert_eq!(analyze(src), vec![]);
    }

    #[test]
    fn match_arm_without_rebind_still_fires() {
        // Same shape but the arm does NOT rebind: the back-edge carries
        // `Released` into the next iteration's deref.
        let src = "fn f(&self) {\n\
            let mut current = self.arena.safe_read(&self.head);\n\
            loop {\n\
                let next = unsafe { (*current).link };\n\
                self.arena.push_free(current);\n\
                match nonnull(next) {\n\
                    Some(next) => self.note(next),\n\
                    None => return,\n\
                }\n\
            }\n\
        }";
        let findings = analyze(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 4, "the loop-carried deref");
    }
}
