//! Findings, severities, and the three output formats (text, JSON, SARIF
//! 2.1.0). The JSON encoders are hand-rolled — the linter is
//! dependency-free by design (it sits on the tier-1 path and must build
//! offline), and the two documents it emits are small and fixed-shape.

use std::fmt;

/// Lint severity. `Error` always fails the run; `Warning` fails it only
/// under `--deny warn`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: reported, fails only under `--deny warn`.
    Warning,
    /// Protocol violation: always fails the run.
    Error,
}

impl Severity {
    /// SARIF `level` string.
    pub fn sarif_level(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// A secondary location attached to a finding — e.g. the acquire site of
/// a leaked count, or the other half of a release/acquire pairing.
/// Rendered as SARIF `relatedLocations` and as indented notes in text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Related {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// What this location contributes to the finding.
    pub note: String,
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule identifier (e.g. `refcount-balance`).
    pub rule: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
    /// Secondary locations (acquire sites, pairing partners). Empty for
    /// most rules.
    pub related: Vec<Related>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}:{}: [{}] {}",
            self.severity, self.file, self.line, self.rule, self.message
        )
    }
}

/// Static description of a rule, used for SARIF rule metadata and `--help`.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable identifier.
    pub id: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// Default severity.
    pub severity: Severity,
}

/// The rule registry: every pass's rules, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "relaxed-ptr-order",
        summary: "Ordering::Relaxed on a pointer-valued atomic requires an adjacent \
                  // ORDER: justification",
        severity: Severity::Error,
    },
    RuleInfo {
        id: "cas-progress",
        summary: "a CAS retry loop must invoke Backoff or carry a // WAIT-FREE: \
                  justification",
        severity: Severity::Warning,
    },
    RuleInfo {
        id: "spin-guard",
        summary: "a spinlock guard must not live across a call into the protocol \
                  layer",
        severity: Severity::Warning,
    },
    RuleInfo {
        id: "refcount-balance",
        summary: "dataflow proof that every count acquired by safe_read/alloc is \
                  released, transferred via raw-pointer return, or covered by a \
                  // COUNT: contract on every path",
        severity: Severity::Error,
    },
    RuleInfo {
        id: "order-pairing",
        summary: "an atomic location written with Release must also be read with \
                  Acquire somewhere in the workspace (and vice versa), or carry an \
                  // ORDER: justification",
        severity: Severity::Warning,
    },
    RuleInfo {
        id: "seqcst-fence",
        summary: "a SeqCst fence or atomic op needs an adjacent // ORDER: comment; \
                  fences additionally need an // INVARIANT: I<n> cross-reference",
        severity: Severity::Warning,
    },
    RuleInfo {
        id: "invariant-ref",
        summary: "every // INVARIANT: I<n> reference must resolve to an invariant \
                  actually defined in docs/PROTOCOL.md",
        severity: Severity::Error,
    },
    RuleInfo {
        id: "protection-window",
        summary: "dataflow proof that no counted node pointer is dereferenced (or \
                  passed to a deref-ing callee) after its protecting count was \
                  consumed — the I11 protection window",
        severity: Severity::Error,
    },
    RuleInfo {
        id: "guard-contract",
        summary: "an unsafe fn dereferencing a raw-pointer parameter must declare \
                  the caller's obligation with a // GUARD: contract, and contracts \
                  must name real raw-pointer parameters",
        severity: Severity::Warning,
    },
];

/// Looks up a rule's metadata by id.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// Long-form documentation for one rule, printed by
/// `cargo xtask analyze --explain <rule-id>` so CI findings are
/// self-documenting.
#[derive(Debug, Clone, Copy)]
pub struct RuleDoc {
    /// The rule this documents (must match a [`RULES`] entry).
    pub id: &'static str,
    /// Why the rule exists, in terms of the §5 protocol.
    pub rationale: &'static str,
    /// A minimal violating snippet (mirrors a seeded fixture).
    pub bad: &'static str,
    /// The corrected form.
    pub good: &'static str,
}

/// One doc per registered rule, same order as [`RULES`].
pub const RULE_DOCS: &[RuleDoc] = &[
    RuleDoc {
        id: "relaxed-ptr-order",
        rationale: "A Relaxed load/store on a pointer-valued atomic publishes no \
                    happens-before edge, so the pointee's initialization may not \
                    be visible to the reader. Pointer atomics default to \
                    Acquire/Release; a deliberate Relaxed needs an adjacent \
                    // ORDER: comment saying why it is safe.",
        bad: "struct List { head: AtomicPtr<Node> }\n\
              impl List {\n    fn peek(&self) -> *mut Node {\n        \
              self.head.load(Ordering::Relaxed)\n    }\n}",
        good: "struct List { head: AtomicPtr<Node> }\n\
               impl List {\n    fn peek(&self) -> *mut Node {\n        \
               // ORDER: Relaxed is fine: the value is re-validated under\n        \
               // the subsequent Acquire CAS before any deref.\n        \
               self.head.load(Ordering::Relaxed)\n    }\n}",
    },
    RuleDoc {
        id: "cas-progress",
        rationale: "A bare CAS retry loop livelocks under contention. Loops must \
                    invoke valois_sync::Backoff (or justify wait-freedom with \
                    // WAIT-FREE:) so contended threads yield instead of \
                    hammering the cache line.",
        bad: "loop {\n    if head.compare_exchange(old, new, AcqRel, Acquire).is_ok() { break; }\n}",
        good: "let mut backoff = Backoff::new();\nloop {\n    if head.compare_exchange(old, new, AcqRel, Acquire).is_ok() { break; }\n    backoff.spin();\n}",
    },
    RuleDoc {
        id: "spin-guard",
        rationale: "Holding a spinlock guard across a call into the lock-free \
                    protocol layer reintroduces blocking: a preempted holder \
                    stalls every protocol participant spinning on the lock.",
        bad: "fn insert(&self, cursor: &mut Cursor, node: *mut Node) {\n    \
              let g = self.spin.lock();\n    \
              self.list.try_insert(cursor, node);\n}",
        good: "fn insert(&self, cursor: &mut Cursor, node: *mut Node) {\n    {\n        \
               let g = self.spin.lock();\n        \
               // ... touch only the locked state ...\n    }\n    \
               self.list.try_insert(cursor, node);\n}",
    },
    RuleDoc {
        id: "refcount-balance",
        rationale: "Dataflow (may-leak) proof over the per-fn CFG: every count \
                    acquired by safe_read/safe_read_tallied/alloc must on every \
                    path be released, transferred via raw-pointer return, \
                    consumed by a summarized callee, or covered by a // COUNT: \
                    contract. A leaked count pins the node forever (I1).",
        bad: "fn find(&self) -> bool {\n    let p = self.arena.safe_read(&self.head);\n    if unsafe { (*p).key } == 0 {\n        return true; // leaks p's count\n    }\n    unsafe { self.arena.release(p) };\n    false\n}",
        good: "fn find(&self) -> bool {\n    let p = self.arena.safe_read(&self.head);\n    let hit = unsafe { (*p).key } == 0;\n    unsafe { self.arena.release(p) };\n    hit\n}",
    },
    RuleDoc {
        id: "order-pairing",
        rationale: "A Release store synchronizes only with an Acquire load of \
                    the same location; an unpaired side publishes (or observes) \
                    nothing and usually marks a missing or misplaced ordering.",
        bad: "self.ready.store(1, Ordering::Release);\n// elsewhere: self.ready.load(Ordering::Relaxed)",
        good: "self.ready.store(1, Ordering::Release);\n// elsewhere: self.ready.load(Ordering::Acquire)",
    },
    RuleDoc {
        id: "seqcst-fence",
        rationale: "SeqCst is the most expensive ordering and almost always \
                    stronger than needed; each use must say what total order it \
                    buys (// ORDER:), and fences must cite the PROTOCOL.md \
                    invariant (// INVARIANT: I<n>) whose dichotomy argument \
                    they implement.",
        bad: "fence(Ordering::SeqCst);",
        good: "// ORDER: SeqCst fence pairs with the remover's fence so one of\n\
               // the two racing passes must see the other's write.\n\
               // INVARIANT: I8\n\
               fence(Ordering::SeqCst);",
    },
    RuleDoc {
        id: "invariant-ref",
        rationale: "// INVARIANT: I<n> comments are machine-checked \
                    cross-references into docs/PROTOCOL.md; a stale number \
                    points the next reader at the wrong (or a deleted) proof.",
        bad: "// INVARIANT: I99\nfence(Ordering::SeqCst);",
        good: "// INVARIANT: I8\nfence(Ordering::SeqCst);",
    },
    RuleDoc {
        id: "protection-window",
        rationale: "The §5 scheme is only sound while a deref sits inside its \
                    protection window: after release consumes the protecting \
                    count the node may be reclaimed and reused at any moment \
                    (use-after-free / ABA). The pass tracks provenance \
                    (Protected/Parked/Released/Moved) of every counted pointer \
                    through the CFG — a parked deferred release is still live; \
                    the drain is the kill — and reports any deref or \
                    deref-ing-callee pass reachable after the kill on some path \
                    (invariant I11).",
        bad: "fn key(&self) -> u64 {\n    \
              let h = self.arena.safe_read(&self.head);\n    \
              unsafe { self.arena.release(h) };\n    \
              unsafe { (*h).key } // window closed\n}",
        good: "fn key(&self) -> u64 {\n    \
               let h = self.arena.safe_read(&self.head);\n    \
               let k = unsafe { (*h).key };\n    \
               unsafe { self.arena.release(h) }; // deref precedes the kill\n    \
               k\n}",
    },
    RuleDoc {
        id: "guard-contract",
        rationale: "Interprocedural protection checking needs the obligation \
                    stated at the boundary: an unsafe fn that derefs a \
                    raw-pointer parameter must declare // GUARD: <param> so \
                    every call site is checked for a live window. A contract \
                    naming a non-parameter is stale and checks nothing.",
        bad: "unsafe fn key_of(&self, p: *mut Node) -> u64 {\n    (*p).key\n}",
        good: "// GUARD: p — caller holds a count on p for the call's duration.\nunsafe fn key_of(&self, p: *mut Node) -> u64 {\n    (*p).key\n}",
    },
];

/// Looks up a rule's long-form doc by id.
pub fn rule_doc(id: &str) -> Option<&'static RuleDoc> {
    RULE_DOCS.iter().find(|d| d.id == id)
}

/// Renders one rule's doc for `--explain` (None for unknown ids).
pub fn render_explain(id: &str) -> Option<String> {
    let info = rule_info(id)?;
    let doc = rule_doc(id)?;
    let mut out = String::new();
    out.push_str(&format!("{} ({})\n", info.id, info.severity));
    out.push_str(&format!("  {}\n\n", info.summary));
    out.push_str("Rationale:\n");
    for line in doc.rationale.split('\n') {
        out.push_str(&format!("  {}\n", line.trim()));
    }
    out.push_str("\nViolation:\n");
    for line in doc.bad.split('\n') {
        out.push_str(&format!("  | {line}\n"));
    }
    out.push_str("\nFixed:\n");
    for line in doc.good.split('\n') {
        out.push_str(&format!("  | {line}\n"));
    }
    Some(out)
}

/// Escapes `s` for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Plain-text rendering, one finding per line (the CI log format).
/// Related locations follow as indented `note:` lines.
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&f.to_string());
        out.push('\n');
        for r in &f.related {
            out.push_str(&format!("    note: {}:{}: {}\n", r.file, r.line, r.note));
        }
    }
    out
}

/// Compact JSON rendering: `{"findings": [...], "counts": {...}}`.
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let related = if f.related.is_empty() {
            String::new()
        } else {
            let items: Vec<String> = f
                .related
                .iter()
                .map(|r| {
                    format!(
                        "{{\"file\": \"{}\", \"line\": {}, \"note\": \"{}\"}}",
                        json_escape(&r.file),
                        r.line,
                        json_escape(&r.note)
                    )
                })
                .collect();
            format!(", \"related\": [{}]", items.join(", "))
        };
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"severity\": \"{}\", \"file\": \"{}\", \
             \"line\": {}, \"message\": \"{}\"{}}}{}\n",
            json_escape(f.rule),
            f.severity,
            json_escape(&f.file),
            f.line,
            json_escape(&f.message),
            related,
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    let errors = findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .count();
    let warnings = findings.len() - errors;
    out.push_str(&format!(
        "  ],\n  \"counts\": {{\"errors\": {errors}, \"warnings\": {warnings}}}\n}}\n"
    ));
    out
}

/// SARIF 2.1.0 rendering, suitable for GitHub code-scanning upload: one
/// run, one driver (`valois-analyze`), rule metadata from [`RULES`], one
/// result per finding with a physical location.
pub fn render_sarif(findings: &[Finding]) -> String {
    let mut out = String::from(
        "{\n  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n  \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n          \"name\": \"valois-analyze\",\n          \"informationUri\": \"https://example.com/valois\",\n          \"rules\": [\n",
    );
    for (i, r) in RULES.iter().enumerate() {
        out.push_str(&format!(
            "            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}, \
             \"defaultConfiguration\": {{\"level\": \"{}\"}}}}{}\n",
            json_escape(r.id),
            json_escape(r.summary),
            r.severity.sarif_level(),
            if i + 1 < RULES.len() { "," } else { "" }
        ));
    }
    out.push_str("          ]\n        }\n      },\n      \"results\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let related = if f.related.is_empty() {
            String::new()
        } else {
            let items: Vec<String> = f
                .related
                .iter()
                .enumerate()
                .map(|(id, r)| {
                    format!(
                        "{{\"id\": {}, \"physicalLocation\": {{\"artifactLocation\": \
                         {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": {}}}}}, \
                         \"message\": {{\"text\": \"{}\"}}}}",
                        id,
                        json_escape(&r.file.replace('\\', "/")),
                        r.line,
                        json_escape(&r.note)
                    )
                })
                .collect();
            format!(", \"relatedLocations\": [{}]", items.join(", "))
        };
        out.push_str(&format!(
            "        {{\"ruleId\": \"{}\", \"level\": \"{}\", \"message\": {{\"text\": \"{}\"}}, \
             \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \
             \"region\": {{\"startLine\": {}}}}}}}]{}}}{}\n",
            json_escape(f.rule),
            f.severity.sarif_level(),
            json_escape(&f.message),
            json_escape(&f.file.replace('\\', "/")),
            f.line,
            related,
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Finding> {
        vec![
            Finding {
                rule: "cas-progress",
                severity: Severity::Warning,
                file: "crates/core/src/list.rs".into(),
                line: 42,
                message: "CAS retry loop without `Backoff`".into(),
                related: vec![],
            },
            Finding {
                rule: "refcount-balance",
                severity: Severity::Error,
                file: "src/lib.rs".into(),
                line: 7,
                message: "count acquired by \"safe_read\" leaks on return".into(),
                related: vec![Related {
                    file: "src/lib.rs".into(),
                    line: 3,
                    note: "count acquired here".into(),
                }],
            },
        ]
    }

    #[test]
    fn text_lists_one_finding_per_line() {
        let t = render_text(&sample());
        assert_eq!(t.lines().count(), 3);
        assert!(t.contains("crates/core/src/list.rs:42"));
        assert!(t.contains("    note: src/lib.rs:3: count acquired here"));
    }

    #[test]
    fn json_escapes_quotes_and_counts() {
        let j = render_json(&sample());
        assert!(j.contains("\\\"safe_read\\\""));
        assert!(j.contains("\"errors\": 1"));
        assert!(j.contains("\"warnings\": 1"));
    }

    #[test]
    fn sarif_has_schema_rules_and_results() {
        let s = render_sarif(&sample());
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"name\": \"valois-analyze\""));
        for r in RULES {
            assert!(s.contains(&format!("\"id\": \"{}\"", r.id)), "{}", r.id);
        }
        assert!(s.contains("\"startLine\": 42"));
        assert!(s.contains("\"level\": \"error\""));
    }

    #[test]
    fn sarif_of_empty_findings_is_valid_shape() {
        let s = render_sarif(&[]);
        assert!(s.contains("\"results\": [\n      ]"));
    }

    #[test]
    fn every_rule_id_is_unique() {
        for (i, a) in RULES.iter().enumerate() {
            for b in &RULES[i + 1..] {
                assert_ne!(a.id, b.id);
            }
        }
    }

    #[test]
    fn every_rule_has_exactly_one_explain_doc() {
        for r in RULES {
            assert!(rule_doc(r.id).is_some(), "missing RuleDoc for {}", r.id);
        }
        for d in RULE_DOCS {
            assert!(
                rule_info(d.id).is_some(),
                "RuleDoc for unknown rule {}",
                d.id
            );
        }
        assert_eq!(RULES.len(), RULE_DOCS.len());
    }

    #[test]
    fn explain_renders_id_rationale_and_examples() {
        let text = render_explain("protection-window").expect("known rule");
        assert!(text.contains("protection-window (error)"));
        assert!(text.contains("Rationale:"));
        assert!(text.contains("Violation:"));
        assert!(text.contains("Fixed:"));
        assert!(render_explain("no-such-rule").is_none());
    }
}
