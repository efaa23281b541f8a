//! `valois-analyze`: syntax-aware static analysis for the Valois
//! workspace, driven by `cargo xtask analyze`.
//!
//! The §5 SafeRead/Release protocol hangs its safety argument on
//! conventions no type checker sees: every counted reference is released
//! or transferred exactly once, every `unsafe` dereference is justified by
//! the counting invariant, every CAS retry loop makes a progress argument,
//! and every atomic flows through the loom-instrumentable shim. This crate
//! machine-checks those conventions at the token/syntax level — not line
//! by line — so multi-line declarations, renames, grouped imports, and
//! comments inside expressions are all seen for what they are.
//!
//! Passes (rule ids):
//!
//! | Rule | Checks | Escape hatch |
//! |---|---|---|
//! | `shim-import` | atomics only via `valois_sync::shim` | shim dir itself |
//! | `relaxed-ptr-order` | no unjustified relaxed pointer orderings | `// ORDER:` |
//! | `unsafe-comment` | every unsafe site carries a justification | `// SAFETY:` / `# Safety` |
//! | `cas-progress` | CAS retry loops back off | `// WAIT-FREE:` |
//! | `spin-guard` | no spinlock guard across protocol calls | (baselines by path) |
//! | `probe-discipline` | probes via `valois_trace::probe!`, never bare `record` calls | trace crate itself |
//! | `refcount-balance` | per-path dataflow proof of acquire/release balance | `// COUNT:` (checked) |
//! | `order-pairing` | Release writes pair with Acquire reads per location | `// ORDER:` |
//! | `seqcst-fence` | SeqCst ops documented; fences cite an invariant | `// ORDER:` + `// INVARIANT:` |
//! | `invariant-ref` | `// INVARIANT: I<n>` resolves in docs/PROTOCOL.md | (none) |
//! | `protection-window` | per-path proof that derefs stay inside the §5 window (I11) | `// GUARD:` (checked) |
//! | `guard-contract` | unsafe fns deref-ing raw-ptr params declare `// GUARD:` | (none) |
//!
//! All four ordering rules (`relaxed-ptr-order`, `order-pairing`,
//! `seqcst-fence`, `invariant-ref`) are owned by
//! [`passes::order_graph`]; the legacy token-level pass was folded into
//! it in PR 8 with rule ids unchanged.
//!
//! `refcount-balance` ([`dataflow`]) and `protection-window`
//! ([`protect`]) are two lattices on one count-flow engine ([`flow`]):
//! each file is parsed once per run, each function's [`cfg`] is built
//! once, and one solver, one §5 call table and one workspace summary
//! walk serve both.
//!
//! See `docs/ANALYSIS.md` for the comment contracts and
//! `docs/VERIFICATION.md` for where this layer sits among the others.
//!
//! The crate is dependency-free (the lexer in [`lexer`] is hand-rolled):
//! it sits on the tier-1 CI path and must build offline with nothing but
//! the toolchain.

#![warn(missing_docs)]

pub mod cfg;
pub mod dataflow;
pub mod flow;
pub mod lexer;
pub mod passes;
pub mod protect;
pub mod report;
pub mod source;
pub mod syntax;

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub use report::{
    render_explain, render_json, render_sarif, render_text, Finding, Related, RuleInfo, Severity,
    RULES,
};
use source::SourceFile;
use syntax::{Ast, FnDef};

/// Workspace-level analysis context: what the dataflow passes need beyond
/// one file's tokens.
pub struct Context {
    /// Invariant numbers defined in `docs/PROTOCOL.md` (the `**I<n>`
    /// headers). `None` when no PROTOCOL.md is available — the
    /// `invariant-ref` check is skipped, not vacuously failed.
    pub invariants: Option<BTreeSet<u32>>,
    /// Call-graph summaries for `refcount-balance` and
    /// `protection-window`.
    pub summaries: flow::Summaries,
}

impl Context {
    /// A context with no workspace knowledge: invariant cross-references
    /// unchecked, no cross-file summaries. Used by fixtures and the
    /// single-file [`analyze_source`] entry point.
    pub fn empty() -> Context {
        Context {
            invariants: None,
            summaries: flow::Summaries::default(),
        }
    }

    /// Builds the full context for the workspace at `root`: parses
    /// `docs/PROTOCOL.md` for defined invariants and summarizes every
    /// source file's call-graph behavior.
    pub fn for_workspace(root: &Path) -> Context {
        Context::from_parsed(root, &parse_workspace(root))
    }

    fn from_parsed(root: &Path, units: &[(SourceFile, Ast)]) -> Context {
        Context {
            invariants: std::fs::read_to_string(root.join("docs/PROTOCOL.md"))
                .ok()
                .map(|text| protocol_invariants(&text)),
            summaries: flow::Summaries::build(units.iter().map(|(f, a)| (f, a))),
        }
    }
}

/// Reads and parses every file of [`source_files`], labeled
/// workspace-relative.
fn parse_workspace(root: &Path) -> Vec<(SourceFile, Ast)> {
    let mut units = Vec::new();
    for path in source_files(root) {
        let Ok(content) = std::fs::read_to_string(&path) else {
            continue;
        };
        let label = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .display()
            .to_string();
        let file = SourceFile::parse(&label, &content);
        let ast = syntax::parse(&file);
        units.push((file, ast));
    }
    units
}

/// Invariant numbers defined in PROTOCOL.md text: every `**I<digits>`
/// occurrence (the doc's header convention, e.g. `> **I8 (fence
/// pairing).**`).
pub fn protocol_invariants(text: &str) -> BTreeSet<u32> {
    let mut out = BTreeSet::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i + 3 < bytes.len() {
        if &bytes[i..i + 2] == b"**" && bytes[i + 2] == b'I' && bytes[i + 3].is_ascii_digit() {
            let mut end = i + 3;
            while end < bytes.len() && bytes[end].is_ascii_digit() {
                end += 1;
            }
            if let Ok(n) = text[i + 3..end].parse() {
                out.insert(n);
            }
            i = end;
        } else {
            i += 1;
        }
    }
    out
}

/// Analyzes one file's source text with every pass, applying path-based
/// exemptions keyed on `label` (use workspace-relative paths):
///
/// * `crates/sync/src/shim/**` — exempt from `shim-import` (it *is* the
///   shim);
/// * `crates/trace/**` — exempt from `shim-import` (the flight recorder
///   sits *below* `valois-sync` in the dependency DAG, so it cannot
///   import the shim; its rings are deliberately un-modeled — recording
///   must never perturb the schedule being modeled) and from
///   `probe-discipline` (it defines `record` and the `probe!` macro);
/// * `crates/baseline/**` — exempt from `cas-progress` and `spin-guard`
///   (coarse locking around whole operations is the baseline's design);
/// * `crates/bench/**`, `crates/harness/**` — exempt from `cas-progress`
///   and `spin-guard` (their `while !stop { ...fetch_add... }` loops are
///   workload drivers bumping result counters, not CAS retry loops; the
///   protocol code they exercise is linted where it lives).
pub fn analyze_source(label: &str, content: &str) -> Vec<Finding> {
    analyze_source_with(label, content, &Context::empty())
}

/// [`analyze_source`] with a workspace [`Context`]: enables the
/// cross-file call-graph summaries of `refcount-balance` and
/// `protection-window` and the `invariant-ref` cross-check. The
/// workspace `order-pairing` graph needs every file, so only
/// [`analyze_workspace`] reports it.
pub fn analyze_source_with(label: &str, content: &str, ctx: &Context) -> Vec<Finding> {
    let file = SourceFile::parse(label, content);
    let ast = syntax::parse(&file);
    // Fold the file's own fns into the summaries so calls to local
    // helpers are seen (a workspace context already holds them).
    let mut summaries = ctx.summaries.clone();
    summaries.absorb(&file, &ast);
    let ctx = Context {
        invariants: ctx.invariants.clone(),
        summaries,
    };
    analyze_file(&file, &ast, &ctx, &mut BTreeMap::new()).0
}

/// Path-keyed exemptions for one file. The shim directory is additionally
/// exempt from the ordering-graph rules: its wrappers forward caller
/// orderings verbatim, so its `Ordering` mentions are parameters, not
/// protocol decisions. Same for the trace crate's internal rings, which
/// are deliberately un-modeled (recording must not perturb the schedule).
struct Exemptions {
    is_shim: bool,
    is_trace: bool,
    progress_exempt: bool,
}

impl Exemptions {
    fn for_label(label: &str) -> Exemptions {
        let norm = label.replace('\\', "/");
        Exemptions {
            is_shim: norm.contains("crates/sync/src/shim"),
            is_trace: norm.contains("crates/trace/"),
            progress_exempt: ["crates/baseline/", "crates/bench/", "crates/harness/"]
                .iter()
                .any(|p| norm.contains(p)),
        }
    }
    fn order_graph_exempt(&self) -> bool {
        self.is_shim || self.is_trace
    }
}

/// Every non-test fn of `file` with its CFG (`None` when bodiless),
/// lowered once and shared by the count-flow passes.
pub(crate) fn lower_fns<'a>(file: &SourceFile, ast: &'a Ast) -> Vec<(&'a FnDef, Option<cfg::Cfg>)> {
    ast.fns
        .iter()
        .filter(|def| !file.in_test_mod(def.item.fn_idx))
        .map(|def| (def, cfg::build(file, def)))
        .collect()
}

/// Runs every per-file pass, timing each, and returns the findings plus
/// this file's ordering-graph sites (for the workspace pairing check).
/// `ctx.summaries` must already cover `file`.
fn analyze_file(
    file: &SourceFile,
    ast: &Ast,
    ctx: &Context,
    timings: &mut BTreeMap<&'static str, Duration>,
) -> (Vec<Finding>, Vec<passes::order_graph::OpSite>) {
    fn timed<T>(
        timings: &mut BTreeMap<&'static str, Duration>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let t0 = Instant::now();
        let out = f();
        *timings.entry(name).or_default() += t0.elapsed();
        out
    }
    let ex = Exemptions::for_label(&file.label);
    let mut out = Vec::new();
    if !ex.is_shim && !ex.is_trace {
        out.extend(timed(timings, "shim-import", || passes::shim::run(file)));
    }
    out.extend(timed(timings, "unsafe-comment", || {
        passes::unsafe_audit::run(file)
    }));
    if !ex.progress_exempt {
        out.extend(timed(timings, "cas-progress/spin-guard", || {
            passes::progress::run(file)
        }));
    }
    if !ex.is_trace {
        out.extend(timed(timings, "probe-discipline", || {
            passes::probes::run(file)
        }));
    }
    let fns = timed(timings, "cfg", || lower_fns(file, ast));
    out.extend(timed(timings, "refcount-balance", || {
        passes::balance::run(file, &fns, &ctx.summaries)
    }));
    out.extend(timed(timings, "protection-window", || {
        passes::protection::run(file, &fns, &ctx.summaries)
    }));
    // Sites are collected for every file so the token-level
    // `relaxed-ptr-order` rule (folded into the ordering graph) keeps its
    // original scope; the shim/trace exemption applies only to the
    // protocol-decision rules (SeqCst, invariants, workspace pairing) —
    // those wrappers forward caller orderings verbatim.
    let t0 = Instant::now();
    let mut sites = passes::order_graph::collect(file);
    out.extend(passes::order_graph::relaxed_findings(&sites));
    if ex.order_graph_exempt() {
        sites = Vec::new();
    } else {
        out.extend(passes::order_graph::seqcst_findings(&sites));
        out.extend(passes::order_graph::invariant_findings(
            file,
            ctx.invariants.as_ref(),
        ));
    }
    *timings.entry("order-graph").or_default() += t0.elapsed();
    (out, sites)
}

/// Library source roots to lint, relative to the workspace root:
/// `src/` plus every `crates/*/src`, except `xtask` and `analyze` — the
/// linter necessarily names the patterns it rejects and cannot lint
/// itself. Tests and benches are exempt by scope: their `std` atomics and
/// raw-pointer plumbing are harness bookkeeping, not protocol surface.
pub fn source_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut roots: Vec<PathBuf> = vec![root.join("src")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for e in entries.flatten() {
            if e.file_name() == "xtask" || e.file_name() == "analyze" {
                continue;
            }
            roots.push(e.path().join("src"));
        }
    }
    while let Some(dir) = roots.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                roots.push(p);
            } else if p.extension().is_some_and(|x| x == "rs") {
                files.push(p);
            }
        }
    }
    files.sort();
    files
}

/// Aggregate per-pass wall-clock timings from one workspace run, for
/// `cargo xtask analyze --stats`.
#[derive(Debug, Default)]
pub struct PassStats {
    /// `(pass name, total duration across all files)`, sorted by name.
    pub timings: Vec<(&'static str, Duration)>,
    /// Files analyzed.
    pub files: usize,
    /// Total wall-clock for the whole run (context build included).
    pub total: Duration,
}

/// Analyzes the whole workspace rooted at `root`. Findings are sorted by
/// file, line, then rule.
pub fn analyze_workspace(root: &Path) -> Vec<Finding> {
    analyze_workspace_timed(root).0
}

/// [`analyze_workspace`] plus per-pass timing statistics.
pub fn analyze_workspace_timed(root: &Path) -> (Vec<Finding>, PassStats) {
    let run0 = Instant::now();
    let mut timings: BTreeMap<&'static str, Duration> = BTreeMap::new();
    let t0 = Instant::now();
    let units = parse_workspace(root);
    timings.insert("parse", t0.elapsed());
    let t0 = Instant::now();
    let ctx = Context::from_parsed(root, &units);
    timings.insert("context-build", t0.elapsed());
    let mut out = Vec::new();
    let mut all_sites = Vec::new();
    for (file, ast) in &units {
        let (findings, sites) = analyze_file(file, ast, &ctx, &mut timings);
        out.extend(findings);
        all_sites.extend(sites);
    }
    let t0 = Instant::now();
    out.extend(passes::order_graph::pairing_findings(&all_sites));
    *timings.entry("order-graph").or_default() += t0.elapsed();
    out.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    let stats = PassStats {
        timings: timings.into_iter().collect(),
        files: units.len(),
        total: run0.elapsed(),
    };
    (out, stats)
}

/// Whether `findings` should fail the run: any `Error`, or — when
/// `deny_warnings` — any finding at all.
pub fn should_fail(findings: &[Finding], deny_warnings: bool) -> bool {
    findings
        .iter()
        .any(|f| f.severity == Severity::Error || deny_warnings)
}
