//! The count-flow engine shared by `refcount-balance` ([`crate::dataflow`])
//! and `protection-window` ([`crate::protect`]).
//!
//! Both rules are forward dataflows over the same per-function
//! [`Cfg`], with per-local facts keyed by variable name. They differ only
//! in their lattice, so everything else lives here once:
//!
//! * the worklist solver (`solve`) — fixpoint first, then one reporting sweep
//!   over reachable blocks (loop iterations do not duplicate findings),
//!   then the exit-state check;
//! * the null-guard edge rule: a null pointer carries no count (Fig. 17's
//!   `Release` no-ops on it) and is never dereferenced, so both analyses
//!   drop the local along an `is_null` edge;
//! * the token helpers: call scanning, argument splitting, tracked
//!   identifiers, and routing a match scrutinee's value into an arm;
//! * the §5 call table [`CALLS`];
//! * the workspace call-graph [`Summaries`].
//!
//! The lattices stay separate on purpose because their polarity is
//! opposite: a summarized callee that *may* release only removes leak
//! reports, but treating it as closing a window would invent
//! use-after-release reports (see [`crate::protect`]).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::cfg::{Cfg, Guard, Stmt};
use crate::lexer::{Delim, TokKind};
use crate::protect::{deref_sites, fn_guard_contract};
use crate::source::SourceFile;
use crate::syntax::Ast;

/// A §5 call's effect on counted references.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Count {
    /// Returns a fresh counted reference.
    Acquire,
    /// Releases (or hands off) a counted argument.
    Consume,
    /// No effect on counts.
    Keep,
}

/// A §5 call's effect on the protection window of its plain-identifier
/// pointer arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// Opens a window on the returned pointer.
    Open,
    /// Closes the window at the call.
    Kill,
    /// Parks the release in a deferred buffer; the window stays open
    /// until a flush.
    Park,
    /// Closes every parked window.
    Flush,
    /// Re-opens a window on an existing pointer.
    Reacquire,
    /// No effect on windows.
    Keep,
}

/// The §5 call vocabulary, each name once. Where the columns disagree
/// they do so on purpose:
///
/// * `swing`/`store_link` are absent: they *publish* a pointer, but the
///   workspace always releases the local explicitly afterwards, so
///   counting them as consumers would hide leaks;
/// * `release_deferred`/`unprotect_deferred` consume the count but only
///   park the window — a parked release is still a live process
///   reference under I1;
/// * `from_raw` closes the window (ownership moves into a `Box`) but is
///   not a count release;
/// * `flush_stats` flushes parked releases but consumes no argument.
///
/// `unprotect`/`unprotect_deferred` are the backend-neutral process
/// reference forms: a refcount decrement under `RefCount`, a no-op under
/// `Epoch` — either way the caller's claim ends (I11/I12).
pub const CALLS: &[(&str, Count, Window)] = &[
    ("safe_read", Count::Acquire, Window::Open),
    ("safe_read_tallied", Count::Acquire, Window::Open),
    ("alloc", Count::Acquire, Window::Open),
    ("release", Count::Consume, Window::Kill),
    ("release_into", Count::Consume, Window::Kill),
    ("reclaim_detached", Count::Consume, Window::Kill),
    ("push_free", Count::Consume, Window::Kill),
    ("push_free_global", Count::Consume, Window::Kill),
    ("splice_free_global", Count::Consume, Window::Kill),
    ("unprotect", Count::Consume, Window::Kill),
    ("release_deferred", Count::Consume, Window::Park),
    ("unprotect_deferred", Count::Consume, Window::Park),
    ("drain_deferred", Count::Consume, Window::Flush),
    ("flush_stats", Count::Keep, Window::Flush),
    ("from_raw", Count::Keep, Window::Kill),
    ("incr_ref", Count::Keep, Window::Reacquire),
    ("protect_dup", Count::Keep, Window::Reacquire),
];

/// The synthetic variable holding a match scrutinee's value while the
/// arms decide where it binds.
pub(crate) const SCRUT: &str = "#scrut";

/// The synthetic variable for a destructuring `let`.
pub(crate) const DESTRUCTURED: &str = "#destructured";

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

/// Findings collected by one run, deduplicated and ordered.
pub(crate) type Findings = BTreeSet<FlowFinding>;

/// Per-local facts; absent = untracked.
pub(crate) type State<V> = BTreeMap<String, V>;

/// The lattice-specific half of a count-flow analysis; [`solve`] is the
/// rest.
pub(crate) trait Analysis {
    /// Fact about one tracked local.
    type Var: Clone + PartialEq;
    /// State on function entry.
    fn entry(&self) -> State<Self::Var>;
    /// Interprets one statement. `findings` is `Some` only during the
    /// reporting sweep.
    fn step(&self, stmt: &Stmt, state: &mut State<Self::Var>, findings: Option<&mut Findings>);
    /// Joins the facts of a local tracked on both incoming paths.
    fn join(a: &Self::Var, b: &Self::Var) -> Self::Var;
    /// The fact of a local tracked on only one incoming path.
    fn one_sided(v: &Self::Var) -> Self::Var;
    /// Reports against the converged state at the function exit.
    fn exit(&self, _state: &State<Self::Var>, _findings: &mut Findings) {}
}

/// Runs `analysis` over `cfg`: worklist fixpoint, reporting sweep, exit
/// check.
pub(crate) fn solve<A: Analysis>(analysis: &A, cfg: &Cfg) -> Vec<FlowFinding> {
    let mut ins: Vec<Option<State<A::Var>>> = vec![None; cfg.blocks.len()];
    ins[cfg.entry] = Some(analysis.entry());
    let mut work: VecDeque<usize> = VecDeque::from([cfg.entry]);
    let mut iters = 0usize;
    while let Some(b) = work.pop_front() {
        // Defensive bound: the lattices are finite so this terminates,
        // but a linter must not hang on adversarial input.
        iters += 1;
        if iters > 64 * cfg.blocks.len() + 1024 {
            break;
        }
        let Some(mut out) = ins[b].clone() else {
            continue;
        };
        for stmt in &cfg.blocks[b].stmts {
            analysis.step(stmt, &mut out, None);
        }
        for edge in &cfg.blocks[b].succs {
            let mut s = out.clone();
            if let Guard::Null(name) = &edge.guard {
                s.remove(name);
            }
            let merged = match &ins[edge.to] {
                None => s,
                Some(prev) => merge::<A>(prev, &s),
            };
            if ins[edge.to].as_ref() != Some(&merged) {
                ins[edge.to] = Some(merged);
                if !work.contains(&edge.to) {
                    work.push_back(edge.to);
                }
            }
        }
    }
    let mut findings = Findings::new();
    for (b, input) in ins.iter().enumerate() {
        let Some(state) = input else { continue };
        let mut state = state.clone();
        for stmt in &cfg.blocks[b].stmts {
            analysis.step(stmt, &mut state, Some(&mut findings));
        }
    }
    if let Some(exit) = &ins[cfg.exit] {
        analysis.exit(exit, &mut findings);
    }
    findings.into_iter().collect()
}

fn merge<A: Analysis>(a: &State<A::Var>, b: &State<A::Var>) -> State<A::Var> {
    let mut out = State::new();
    for (k, va) in a {
        let v = match b.get(k) {
            Some(vb) => A::join(va, vb),
            None => A::one_sided(va),
        };
        out.insert(k.clone(), v);
    }
    for (k, vb) in b {
        if !a.contains_key(k) {
            out.insert(k.clone(), A::one_sided(vb));
        }
    }
    out
}

/// A call site (`ident (`) in a token range.
pub(crate) struct Call {
    /// Token index of the callee name.
    pub name_idx: usize,
    /// Token index of the `(`.
    pub open: usize,
    /// Token index of the matching `)`.
    pub close: usize,
}

impl Call {
    /// The callee name.
    pub fn name<'f>(&self, file: &'f SourceFile) -> &'f str {
        &file.toks[self.name_idx].text
    }

    /// The callee's row in [`CALLS`], or no effect.
    pub fn effect(&self, file: &SourceFile) -> (Count, Window) {
        let name = self.name(file);
        CALLS
            .iter()
            .find(|(n, ..)| *n == name)
            .map_or((Count::Keep, Window::Keep), |&(_, c, w)| (c, w))
    }

    /// The call's arguments, split at depth-0 commas.
    pub fn args(&self, file: &SourceFile) -> Vec<(usize, usize)> {
        let mut args = Vec::new();
        let mut start = self.open + 1;
        let mut i = self.open + 1;
        while i < self.close {
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
        if start < self.close {
            args.push((start, self.close));
        }
        args
    }
}

/// All calls (`ident (`) inside `[lo, hi)`, in token order.
pub(crate) fn all_calls(file: &SourceFile, lo: usize, hi: usize) -> Vec<Call> {
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

/// Tracked variable names mentioned as identifiers in `[lo, hi)`.
pub(crate) fn tracked_idents<V>(
    file: &SourceFile,
    lo: usize,
    hi: usize,
    state: &State<V>,
) -> Vec<String> {
    let mut out = Vec::new();
    for i in lo..hi.min(file.toks.len()) {
        let t = &file.toks[i];
        if t.kind == TokKind::Ident && state.contains_key(&t.text) && !out.contains(&t.text) {
            out.push(t.text.clone());
        }
    }
    out
}

/// If `[lo, hi)`'s significant tokens are exactly one identifier, returns
/// it.
pub(crate) fn plain_ident(file: &SourceFile, lo: usize, hi: usize) -> Option<String> {
    let mut sig = (lo..hi.min(file.toks.len())).filter(|&i| !file.toks[i].is_comment());
    match (sig.next(), sig.next()) {
        (Some(i), None) if file.toks[i].kind == TokKind::Ident => Some(file.toks[i].text.clone()),
        _ => None,
    }
}

/// Match-arm entry: routes the pending [`SCRUT`] value through the
/// pattern `[lo, hi)`. `Err`/`None` arms carry nothing (the acquire
/// failed); other arms move it into the first lowercase binding
/// identifier. Returns the value when the pattern binds nothing (`_`, a
/// unit variant) — the caller decides whether it stays pending.
pub(crate) fn route_arm<V>(
    file: &SourceFile,
    (lo, hi): (usize, usize),
    state: &mut State<V>,
) -> Option<V> {
    let mut sig: Vec<usize> = (lo..hi.min(file.toks.len()))
        .filter(|&i| !file.toks[i].is_comment())
        .collect();
    // Cut at an `if` guard: its condition identifiers are not bindings.
    if let Some(p) = sig.iter().position(|&i| file.toks[i].is_ident("if")) {
        sig.truncate(p);
    }
    let first = sig.iter().find(|&&i| file.toks[i].kind == TokKind::Ident)?;
    let head = file.toks[*first].text.as_str();
    if head == "Err" || head == "None" {
        state.remove(SCRUT);
        return None;
    }
    let var = state.remove(SCRUT)?;
    let binding = sig.iter().find(|&&i| {
        let t = &file.toks[i];
        t.kind == TokKind::Ident
            && t.text != "_"
            && !t.is_ident("mut")
            && !t.is_ident("ref")
            && t.text.chars().next().is_some_and(|c| c.is_lowercase())
    });
    match binding {
        Some(&b) => {
            state.insert(file.toks[b].text.clone(), var);
            None
        }
        None => Some(var),
    }
}

/// Let-else fallback entry: the pending [`SCRUT`] value failed to match
/// the pattern `[lo, hi)` and is dropped. Under an `Ok` or `Some`
/// pattern that value is the `Err` or `None`, which carries nothing, so
/// it is cleared; any other value stays pending, and a count it holds
/// surfaces as a leak.
pub(crate) fn route_else<V>(file: &SourceFile, (lo, hi): (usize, usize), state: &mut State<V>) {
    let head = (lo..hi.min(file.toks.len())).find(|&i| file.toks[i].kind == TokKind::Ident);
    if head.is_some_and(|i| matches!(file.toks[i].text.as_str(), "Ok" | "Some")) {
        state.remove(SCRUT);
    }
}

/// What the workspace says about one fn's raw-pointer parameters, by
/// index (receiver excluded).
#[derive(Debug, Default, Clone)]
struct FnSummary {
    /// Mentioned by a [`Count::Consume`] call anywhere in the body.
    consumed: BTreeSet<usize>,
    /// Declared in the fn's `// GUARD:` contract.
    guarded: BTreeSet<usize>,
    /// Dereferenced by the body (directly; one level).
    derefed: BTreeSet<usize>,
}

/// Workspace call-graph summaries, keyed by fn name, built in one walk
/// for both analyses: consumed params make a call site release its
/// argument (refcount-balance); GUARD-declared and dereferenced params
/// make a call site require a live window (protection-window).
#[derive(Debug, Default, Clone)]
pub struct Summaries {
    fns: BTreeMap<String, FnSummary>,
}

impl Summaries {
    /// Builds summaries from parsed files.
    pub fn build<'a>(units: impl IntoIterator<Item = (&'a SourceFile, &'a Ast)>) -> Summaries {
        let mut out = Summaries::default();
        for (file, ast) in units {
            out.absorb(file, ast);
        }
        out
    }

    /// Adds `file`'s fns. "Consumed" is an any-path approximation, which
    /// is the right polarity for balance: a summary only ever *removes* a
    /// leak report.
    pub fn absorb(&mut self, file: &SourceFile, ast: &Ast) {
        for def in &ast.fns {
            let raw_params: Vec<(usize, &str)> = def.raw_params().collect();
            if raw_params.is_empty() {
                continue;
            }
            let declared = fn_guard_contract(file, def).unwrap_or_default();
            let consumers: Vec<Call> = def.item.body.map_or_else(Vec::new, |(open, close)| {
                all_calls(file, open + 1, close)
                    .into_iter()
                    .filter(|c| c.effect(file).0 == Count::Consume)
                    .collect()
            });
            // Same-named fns (methods of different types) share an entry.
            let s = self.fns.entry(def.item.name.clone()).or_default();
            for (i, name) in raw_params {
                if declared.iter().any(|g| g == name) {
                    s.guarded.insert(i);
                }
                let Some((open, close)) = def.item.body else {
                    continue;
                };
                if consumers
                    .iter()
                    .any(|c| (c.open + 1..c.close).any(|t| file.toks[t].is_ident(name)))
                {
                    s.consumed.insert(i);
                }
                if !deref_sites(file, open + 1, close, name).is_empty() {
                    s.derefed.insert(i);
                }
            }
        }
    }

    /// Param indices of `name` its body releases.
    pub fn consumed_params(&self, name: &str) -> Option<&BTreeSet<usize>> {
        self.fns.get(name).map(|s| &s.consumed)
    }

    /// Param indices of `name` the caller must keep protected: the union
    /// of GUARD-declared and observed-dereferencing params.
    pub fn protected_params(&self, name: &str) -> BTreeSet<usize> {
        self.fns
            .get(name)
            .map(|s| s.guarded.union(&s.derefed).copied().collect())
            .unwrap_or_default()
    }

    /// Whether `name` declares a `// GUARD:` contract for param `idx`.
    pub fn guard_declared(&self, name: &str, idx: usize) -> bool {
        self.fns.get(name).is_some_and(|s| s.guarded.contains(&idx))
    }
}
