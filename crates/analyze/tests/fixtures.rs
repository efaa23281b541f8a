//! Seeded-violation fixtures: every pass must flag its known-bad snippet
//! and stay quiet on the corresponding clean one. The rules clippy
//! enforces (see `clippy.toml`) have their seeded violations in
//! `scripts/check-clippy-rules.sh`.

use std::path::Path;

use valois_analyze::{analyze_source, analyze_workspace, should_fail, Severity};

/// A label under a linted library root: every pass runs, no exemptions.
const LIB: &str = "crates/core/src/fixture.rs";

fn rules(label: &str, src: &str) -> Vec<String> {
    analyze_source(label, src)
        .into_iter()
        .map(|f| f.rule.to_string())
        .collect()
}

fn count(label: &str, src: &str, rule: &str) -> usize {
    rules(label, src).iter().filter(|r| *r == rule).count()
}

// ---- relaxed-ptr-order ---------------------------------------------------

const PTR_RELAXED_BAD: &str = "\
struct S {\n\
    head: AtomicPtr<u8>,\n\
}\n\
impl S {\n\
    fn peek(&self) -> *mut u8 {\n\
        self.head.load(Ordering::Relaxed)\n\
    }\n\
}\n";

#[test]
fn ordering_flags_relaxed_on_pointer_atomic() {
    assert_eq!(count(LIB, PTR_RELAXED_BAD, "relaxed-ptr-order"), 1);
}

#[test]
fn ordering_accepts_order_justification() {
    let src = PTR_RELAXED_BAD.replace(
        "self.head.load(Ordering::Relaxed)",
        "// ORDER: racy peek; validated by the CAS that follows.\n        self.head.load(Ordering::Relaxed)",
    );
    assert_eq!(count(LIB, &src, "relaxed-ptr-order"), 0);
}

#[test]
fn ordering_ignores_non_pointer_atomics() {
    let src = "\
struct S {\n\
    hits: AtomicUsize,\n\
}\n\
impl S {\n\
    fn bump(&self) {\n\
        self.hits.fetch_add(1, Ordering::Relaxed);\n\
    }\n\
}\n";
    assert_eq!(count(LIB, src, "relaxed-ptr-order"), 0);
}

#[test]
fn ordering_sees_multi_line_statement() {
    // A builder chain split over lines defeated a line-based scan.
    let src = "\
struct S {\n\
    head: AtomicPtr<u8>,\n\
}\n\
impl S {\n\
    fn peek(&self) -> *mut u8 {\n\
        self.head\n\
            .load(Ordering::Relaxed)\n\
    }\n\
}\n";
    assert_eq!(count(LIB, src, "relaxed-ptr-order"), 1);
}

#[test]
fn ordering_sees_renamed_ordering_enum() {
    let src = "\
use std::sync::atomic::Ordering as O;\n\
struct S {\n\
    head: AtomicPtr<u8>,\n\
}\n\
impl S {\n\
    fn peek(&self) -> *mut u8 {\n\
        self.head.load(O::Relaxed)\n\
    }\n\
}\n";
    assert_eq!(count(LIB, src, "relaxed-ptr-order"), 1);
}

// ---- refcount-balance: acquire/release shapes -----------------------------

const LEAKY_READER: &str = "\
impl S {\n\
    fn peek_len(&self) -> usize {\n\
        // SAFETY: head is a counted root.\n\
        let p = unsafe { self.arena.safe_read(&self.head) };\n\
        p as usize\n\
    }\n\
}\n";

#[test]
fn refcount_flags_acquire_without_release() {
    let findings = analyze_source(LIB, LEAKY_READER);
    let f = findings
        .iter()
        .find(|f| f.rule == "refcount-balance")
        .expect("unreleased safe_read must be flagged");
    assert!(
        f.message.contains("peek_len"),
        "message names the fn: {}",
        f.message
    );
}

#[test]
fn refcount_accepts_balanced_release() {
    let src = LEAKY_READER.replace("p as usize", "unsafe { self.arena.release(p) };\n        0");
    assert_eq!(count(LIB, &src, "refcount-balance"), 0);
}

#[test]
fn refcount_accepts_raw_pointer_transfer() {
    // Returning a raw pointer is the §5 convention for "the caller now
    // owns this counted reference".
    let src = "\
impl S {\n\
    fn head_ref(&self) -> *mut Node {\n\
        // SAFETY: head is a counted root.\n\
        unsafe { self.arena.safe_read(&self.head) }\n\
    }\n\
}\n";
    assert_eq!(count(LIB, src, "refcount-balance"), 0);
}

#[test]
fn refcount_accepts_count_comment() {
    let src = LEAKY_READER.replace(
        "fn peek_len",
        "// COUNT: the count is parked in self.cache; drop() releases it.\n    fn peek_len",
    );
    assert_eq!(count(LIB, &src, "refcount-balance"), 0);
}

#[test]
fn refcount_accepts_backlink_resume_handoff() {
    // The PR 7 resume shape: a back_link walk that swaps counted hops
    // (release the old anchor, keep the new) and hands the final count
    // to the cursor via a `// COUNT:` transfer contract.
    let src = "\
impl S {\n\
    // COUNT: consumes the caller's count on `from`; the returned\n\
    // pointer carries one count that transfers to the caller.\n\
    fn backtrack(&self, from: *mut Node) -> *mut Node {\n\
        let mut p = from;\n\
        loop {\n\
            // SAFETY: p is counted-held, so back_link is readable.\n\
            let q = unsafe { self.arena.safe_read(&(*p).back_link) };\n\
            if q.is_null() {\n\
                return p;\n\
            }\n\
            // SAFETY: swap the held count from p to q.\n\
            unsafe { self.arena.release(p) };\n\
            p = q;\n\
        }\n\
    }\n\
}\n";
    assert_eq!(count(LIB, src, "refcount-balance"), 0);
}

#[test]
fn refcount_flags_leaked_resumed_cursor() {
    // Seeded violation: the walk keeps acquiring back_link hops but
    // never releases the superseded anchor and never documents a
    // transfer — every hop leaks one count.
    let src = "\
impl S {\n\
    fn resume_leaky(&self, from: *mut Node) {\n\
        let mut p = from;\n\
        loop {\n\
            // SAFETY: p is counted-held, so back_link is readable.\n\
            let q = unsafe { self.arena.safe_read(&(*p).back_link) };\n\
            if q.is_null() {\n\
                break;\n\
            }\n\
            p = q;\n\
        }\n\
        self.anchor.store(p);\n\
    }\n\
}\n";
    let findings = analyze_source(LIB, src);
    let f = findings
        .iter()
        .find(|f| f.rule == "refcount-balance")
        .expect("leaked resume walk must be flagged");
    assert!(
        f.message.contains("resume_leaky"),
        "message names the fn: {}",
        f.message
    );
}

// ---- cas-progress --------------------------------------------------------

const BARE_CAS_LOOP: &str = "\
fn bump(a: &AtomicUsize) {\n\
    loop {\n\
        let c = a.load(Ordering::Acquire);\n\
        if a.compare_exchange(c, c + 1, Ordering::AcqRel, Ordering::Acquire).is_ok() {\n\
            return;\n\
        }\n\
    }\n\
}\n";

#[test]
fn progress_flags_bare_cas_loop() {
    assert_eq!(count(LIB, BARE_CAS_LOOP, "cas-progress"), 1);
}

#[test]
fn progress_flags_bare_fetch_loop() {
    let src = "\
fn drain(a: &AtomicUsize) {\n\
    while a.load(Ordering::Acquire) != 0 {\n\
        a.fetch_sub(1, Ordering::AcqRel);\n\
    }\n\
}\n";
    assert_eq!(count(LIB, src, "cas-progress"), 1);
}

#[test]
fn progress_accepts_backoff() {
    let src = BARE_CAS_LOOP.replace(
        "return;",
        "return;\n        }\n        backoff.spin();\n        if false {",
    );
    assert_eq!(count(LIB, &src, "cas-progress"), 0);
}

#[test]
fn progress_accepts_wait_free_justification() {
    let src = BARE_CAS_LOOP.replace(
        "loop {",
        "// WAIT-FREE: a failed CAS means another bump landed.\nloop {",
    );
    assert_eq!(count(LIB, &src, "cas-progress"), 0);
}

#[test]
fn progress_flags_only_innermost_loop() {
    let src = "\
fn churn(a: &AtomicUsize) {\n\
    loop {\n\
        loop {\n\
            let c = a.load(Ordering::Acquire);\n\
            if a.compare_exchange(c, c + 1, Ordering::AcqRel, Ordering::Acquire).is_ok() {\n\
                break;\n\
            }\n\
        }\n\
    }\n\
}\n";
    assert_eq!(count(LIB, src, "cas-progress"), 1);
}

#[test]
fn progress_exempts_baseline_bench_harness_by_path() {
    for label in [
        "crates/baseline/src/locked.rs",
        "crates/bench/src/bin/stress.rs",
        "crates/harness/src/runner.rs",
    ] {
        assert_eq!(count(label, BARE_CAS_LOOP, "cas-progress"), 0, "{label}");
    }
}

// ---- spin-guard ----------------------------------------------------------

const GUARD_ACROSS_PROTOCOL: &str = "\
impl S {\n\
    fn f(&self, p: *mut Node) {\n\
        let guard = self.spin_lock.lock();\n\
        // SAFETY: p is a counted reference.\n\
        unsafe { self.arena.release(p) };\n\
        drop(guard);\n\
    }\n\
}\n";

#[test]
fn spin_guard_flags_protocol_call_under_lock() {
    assert_eq!(count(LIB, GUARD_ACROSS_PROTOCOL, "spin-guard"), 1);
}

#[test]
fn spin_guard_accepts_drop_before_protocol_call() {
    let src = "\
impl S {\n\
    fn f(&self, p: *mut Node) {\n\
        let guard = self.spin_lock.lock();\n\
        drop(guard);\n\
        // SAFETY: p is a counted reference.\n\
        unsafe { self.arena.release(p) };\n\
    }\n\
}\n";
    assert_eq!(count(LIB, src, "spin-guard"), 0);
}

#[test]
fn spin_guard_flags_unprotect_under_lock() {
    // `unprotect` moves a count in the §5 call table, so it is a protocol
    // call like `release`.
    let src = GUARD_ACROSS_PROTOCOL.replace("arena.release(p)", "arena.unprotect(p)");
    assert_eq!(count(LIB, &src, "spin-guard"), 1);
}

#[test]
fn spin_guard_ignores_non_spin_locks() {
    let src = GUARD_ACROSS_PROTOCOL.replace("spin_lock", "segments_mutex");
    assert_eq!(count(LIB, &src, "spin-guard"), 0);
}

// ---- severity / deny plumbing -------------------------------------------

#[test]
fn errors_fail_without_deny() {
    let findings = analyze_source(LIB, LEAKY_READER);
    assert!(findings
        .iter()
        .any(|f| f.rule == "refcount-balance" && f.severity == Severity::Error));
    assert!(should_fail(&findings, false));
}

#[test]
fn warnings_fail_only_under_deny() {
    let findings = analyze_source(LIB, BARE_CAS_LOOP);
    assert!(findings.iter().all(|f| f.severity == Severity::Warning));
    assert!(!should_fail(&findings, false));
    assert!(should_fail(&findings, true));
}

// ---- the real tree -------------------------------------------------------

#[test]
fn real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/analyze sits two levels under the workspace root");
    let findings = analyze_workspace(root);
    assert!(
        findings.is_empty(),
        "workspace must satisfy its own lints:\n{}",
        valois_analyze::render_text(&findings)
    );
}

// ---- refcount-balance (v2 dataflow) --------------------------------------

#[test]
fn balance_flags_leak_via_early_return() {
    let src = "fn f(&self) -> bool {\n\
        let h = self.arena.safe_read(&self.head);\n\
        if self.stopped() {\n\
            return false;\n\
        }\n\
        self.arena.release(h);\n\
        true\n\
    }\n";
    let findings = analyze_source(LIB, src);
    let f = findings
        .iter()
        .find(|f| f.rule == "refcount-balance")
        .expect("early-return leak must be flagged");
    assert_eq!(f.severity, Severity::Error);
    // The SARIF related-location points at the acquire site.
    assert_eq!(f.related.len(), 1, "{:?}", f.related);
    assert_eq!(f.related[0].line, 2);
}

#[test]
fn balance_flags_leak_via_branch_divergence() {
    let src = "fn f(&self) {\n\
        let h = self.arena.safe_read(&self.head);\n\
        if self.fast_path() {\n\
            self.arena.release(h);\n\
        } else {\n\
            self.note_slow();\n\
        }\n\
    }\n";
    let findings = analyze_source(LIB, src);
    let f = findings
        .iter()
        .find(|f| f.rule == "refcount-balance")
        .expect("branch-divergence leak must be flagged");
    // One related location: the acquire whose count diverges.
    assert_eq!(f.related.len(), 1, "{:?}", f.related);
    assert_eq!(f.related[0].line, 2);
}

#[test]
fn balance_flags_declared_transfer_not_returned() {
    let src = "// COUNT: transfers to caller; release when done.\n\
    fn f(&self) -> usize {\n\
        self.arena.safe_read(&self.head) as usize\n\
    }\n";
    let findings = analyze_source(LIB, src);
    let f = findings
        .iter()
        .find(|f| f.rule == "refcount-balance")
        .expect("declared transfer without raw return must be flagged");
    assert_eq!(f.severity, Severity::Error);
    assert_eq!(f.line, 2, "flagged at the fn header under the contract");
}

#[test]
fn balance_accepts_balanced_traversal() {
    let src = "fn f(&self) {\n\
        let mut t = self.arena.safe_read(&self.head);\n\
        loop {\n\
            let next = self.arena.safe_read(&(*t).next);\n\
            if next.is_null() {\n\
                break;\n\
            }\n\
            self.arena.release(t);\n\
            t = next;\n\
        }\n\
        self.arena.release(t);\n\
    }\n";
    assert_eq!(count(LIB, src, "refcount-balance"), 0);
}

#[test]
fn balance_accepts_raw_pointer_transfer() {
    let src = "fn f(&self) -> *mut Node {\n\
        self.arena.safe_read(&self.head)\n\
    }\n";
    assert_eq!(count(LIB, src, "refcount-balance"), 0);
}

#[test]
fn balance_sees_early_return_behind_unsafe_block_condition() {
    // The `unsafe { .. }` in the `if` head is part of the condition, not
    // the then-branch: the early return must still be seen as a path.
    let src = "fn find(&self) -> bool {\n\
        let p = self.arena.safe_read(&self.head);\n\
        if unsafe { (*p).key } == 0 {\n\
            return true;\n\
        }\n\
        unsafe { self.arena.release(p) };\n\
        false\n\
    }\n";
    let lines: Vec<usize> = analyze_source(LIB, src)
        .into_iter()
        .filter(|f| f.rule == "refcount-balance")
        .map(|f| f.line)
        .collect();
    assert_eq!(lines, vec![2], "one leak, at the acquire");
}

#[test]
fn balance_sees_local_helper_release_in_single_file_runs() {
    let src = "impl L {\n\
        fn drop_it(&self, p: *mut Node) {\n\
            self.arena.release(p)\n\
        }\n\
        fn f(&self) {\n\
            let p = self.arena.safe_read(&self.head);\n\
            self.drop_it(p);\n\
        }\n\
    }\n";
    assert_eq!(analyze_source(LIB, src), vec![]);
}

/// An allocation loop that links what it allocates and gives up when
/// the pool runs dry, written with `alloc_form` as the allocation
/// statement.
fn link_until_dry(alloc_form: &str) -> String {
    format!(
        "fn f(&self) {{\n\
        'levels: for lvl in 0..4 {{\n\
            {alloc_form}\n\
            self.link(lvl, aux);\n\
            self.arena.release(aux);\n\
        }}\n\
    }}\n"
    )
}

#[test]
fn balance_accepts_let_else_on_a_failed_alloc() {
    // The `else` path runs when `alloc` returned `Err`: nothing was
    // acquired there, so nothing leaks.
    let src = link_until_dry("let Ok(aux) = self.arena.alloc() else { break 'levels };");
    let findings = analyze_source(LIB, &src);
    assert_eq!(count(LIB, &src, "refcount-balance"), 0, "{findings:?}");
}

#[test]
fn balance_accepts_the_same_loop_as_a_match() {
    let src = link_until_dry(
        "let aux = match self.arena.alloc() { Ok(aux) => aux, Err(_) => break 'levels };",
    );
    let findings = analyze_source(LIB, &src);
    assert_eq!(count(LIB, &src, "refcount-balance"), 0, "{findings:?}");
}

#[test]
fn balance_flags_a_let_else_binding_that_leaks() {
    // The let-else binds the count into `aux`; the early `continue`
    // skips its release.
    let src = "fn f(&self) {\n\
        for lvl in 0..4 {\n\
            let Ok(aux) = self.arena.alloc() else { return };\n\
            if self.skip(lvl) {\n\
                continue;\n\
            }\n\
            self.arena.release(aux);\n\
        }\n\
    }\n";
    let lines: Vec<usize> = analyze_source(LIB, src)
        .into_iter()
        .filter(|f| f.rule == "refcount-balance")
        .map(|f| f.line)
        .collect();
    assert_eq!(lines, vec![3], "one leak, at the acquire");
}

#[test]
fn one_function_feeds_both_count_flow_rules() {
    // `a` leaks; `b` is dereferenced after its release. One CFG, one
    // finding per rule.
    let src = "fn f(&self) -> u64 {\n\
        let a = self.arena.safe_read(&self.head);\n\
        let b = self.arena.safe_read(&self.tail);\n\
        self.arena.release(b);\n\
        // SAFETY: fixture.\n\
        unsafe { (*b).key }\n\
    }\n";
    let findings = analyze_source(LIB, src);
    let of = |rule: &str| -> Vec<usize> {
        findings
            .iter()
            .filter(|f| f.rule == rule)
            .map(|f| f.line)
            .collect()
    };
    assert_eq!(of("refcount-balance"), vec![2], "{findings:?}");
    assert_eq!(of("protection-window"), vec![6], "{findings:?}");
}

// ---- order-graph: pairing, SeqCst, invariants ----------------------------

#[test]
fn order_graph_flags_unpaired_release() {
    use valois_analyze::passes::order_graph::{collect, pairing_findings};
    use valois_analyze::source::SourceFile;
    let src = "fn f(&self) {\n\
        self.flag.store(true, Ordering::Release);\n\
        let seen = self.flag.load(Ordering::Relaxed);\n\
    }\n";
    let file = SourceFile::parse(LIB, src);
    let findings = pairing_findings(&collect(&file));
    let f = findings
        .iter()
        .find(|f| f.rule == "order-pairing")
        .expect("unpaired Release must be flagged");
    assert_eq!(f.line, 2, "flagged at the Release store");
    // Related locations list the non-acquire readers.
    assert_eq!(f.related.len(), 1, "{:?}", f.related);
    assert_eq!(f.related[0].line, 3, "the Relaxed reader");
}

#[test]
fn order_graph_accepts_paired_release_acquire() {
    use valois_analyze::passes::order_graph::{collect, pairing_findings};
    use valois_analyze::source::SourceFile;
    let src = "fn f(&self) {\n\
        self.flag.store(true, Ordering::Release);\n\
        let seen = self.flag.load(Ordering::Acquire);\n\
    }\n";
    let file = SourceFile::parse(LIB, src);
    assert!(pairing_findings(&collect(&file)).is_empty());
}

#[test]
fn order_graph_flags_undocumented_seqcst_fence() {
    let src = "fn f(&self) {\n\
        fence(Ordering::SeqCst);\n\
    }\n";
    let findings = analyze_source(LIB, src);
    let f = findings
        .iter()
        .find(|f| f.rule == "seqcst-fence")
        .expect("undocumented SeqCst fence must be flagged");
    assert_eq!(f.line, 2, "flagged at the fence itself");
}

#[test]
fn order_graph_requires_invariant_citation_on_fences() {
    // ORDER alone is not enough for a fence: the invariant it enforces
    // must be cited.
    let src = "fn f(&self) {\n\
        // ORDER: pairs with the other fence in the remove path.\n\
        fence(Ordering::SeqCst);\n\
    }\n";
    let findings = analyze_source(LIB, src);
    let f = findings
        .iter()
        .find(|f| f.rule == "seqcst-fence")
        .expect("fence without INVARIANT citation must be flagged");
    assert_eq!(f.line, 3, "flagged at the fence under the bare ORDER note");
}

#[test]
fn order_graph_accepts_fully_documented_fence() {
    let src = "fn f(&self) {\n\
        // ORDER: pairs with the sweep fence. INVARIANT: I9.\n\
        fence(Ordering::SeqCst);\n\
    }\n";
    assert_eq!(count(LIB, src, "seqcst-fence"), 0);
}

#[test]
fn invariant_ref_flags_stale_reference() {
    use valois_analyze::{analyze_source_with, Context};
    let src = "fn f(&self) {\n\
        // INVARIANT: I99 makes this sound.\n\
        let x = 1;\n\
    }\n";
    let ctx = Context {
        invariants: Some((1..=9).collect()),
        ..Context::empty()
    };
    let findings = analyze_source_with(LIB, src, &ctx);
    let f = findings
        .iter()
        .find(|f| f.rule == "invariant-ref")
        .expect("stale invariant reference must be flagged");
    assert_eq!(f.severity, Severity::Error);
    assert_eq!(f.line, 2, "flagged at the citing comment");
}

#[test]
fn invariant_ref_accepts_resolvable_reference() {
    use valois_analyze::{analyze_source_with, Context};
    let src = "fn f(&self) {\n\
        // INVARIANT: I5 guarantees a single in-pointer.\n\
        let x = 1;\n\
    }\n";
    let ctx = Context {
        invariants: Some((1..=9).collect()),
        ..Context::empty()
    };
    let findings = analyze_source_with(LIB, src, &ctx);
    assert!(findings.iter().all(|f| f.rule != "invariant-ref"));
}

#[test]
fn protocol_invariants_are_parsed_from_the_real_doc() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let text =
        std::fs::read_to_string(root.join("docs/PROTOCOL.md")).expect("docs/PROTOCOL.md exists");
    let defined = valois_analyze::protocol_invariants(&text);
    // I1..=I11 are the currently documented invariants; a renumbering must
    // update every // INVARIANT: citation (the invariant-ref pass checks
    // the code side, this pins the doc side).
    for n in 1..=11 {
        assert!(defined.contains(&n), "I{n} missing from PROTOCOL.md");
    }
}

// ---- protection-window / guard-contract (provenance dataflow) ------------

#[test]
fn protection_flags_direct_use_after_release() {
    let src = "fn f(&self) {\n\
        let h = self.arena.safe_read(&self.head);\n\
        self.arena.release(h);\n\
        let k = unsafe { (*h).key };\n\
    }\n";
    let findings = analyze_source(LIB, src);
    let f = findings
        .iter()
        .find(|f| f.rule == "protection-window")
        .expect("use-after-release must be flagged");
    assert_eq!(f.severity, Severity::Error);
    assert_eq!(f.line, 4, "flagged at the deref");
    // Related locations: the killing release, then the acquisition origin.
    assert_eq!(f.related.len(), 2, "{:?}", f.related);
    assert_eq!(f.related[0].line, 3, "killing release");
    assert_eq!(f.related[1].line, 2, "acquisition origin");
}

#[test]
fn protection_flags_branch_only_release() {
    // The window closes on one arm only; the deref after the join is
    // reachable with a dead pointer on that path.
    let src = "fn f(&self) {\n\
        let h = self.arena.safe_read(&self.head);\n\
        if self.fast_path() {\n\
            self.arena.release(h);\n\
        }\n\
        let k = unsafe { (*h).key };\n\
    }\n";
    let findings = analyze_source(LIB, src);
    let f = findings
        .iter()
        .find(|f| f.rule == "protection-window")
        .expect("branch-only release must be flagged");
    assert_eq!(f.line, 6);
    assert_eq!(f.related.len(), 2, "{:?}", f.related);
    assert_eq!(f.related[0].line, 4, "the branch-local release");
}

#[test]
fn protection_flags_deref_after_deferred_flush() {
    // A parked release keeps the window open (I11: the park is not the
    // kill); the batch flush is what closes it.
    let src = "fn f(&mut self) {\n\
        let h = self.arena.safe_read(&self.head);\n\
        self.arena.release_deferred(&mut self.defer, h);\n\
        let a = unsafe { (*h).key };\n\
        self.arena.drain_deferred(&mut self.defer);\n\
        let b = unsafe { (*h).key };\n\
    }\n";
    let findings: Vec<_> = analyze_source(LIB, src)
        .into_iter()
        .filter(|f| f.rule == "protection-window")
        .collect();
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].line, 6, "only the post-flush deref");
    assert_eq!(findings[0].related.len(), 2, "{:?}", findings[0].related);
    assert_eq!(findings[0].related[0].line, 5, "the flush is the kill");
}

#[test]
fn protection_flags_unsafe_helper_missing_guard() {
    let src = "impl S {\n\
        /// Reads the key.\n\
        ///\n\
        /// # Safety\n\
        ///\n\
        /// `p` must be protected.\n\
        pub unsafe fn key_of(&self, p: *mut Node) -> u64 {\n\
            (*p).key\n\
        }\n\
    }\n";
    let findings = analyze_source(LIB, src);
    let f = findings
        .iter()
        .find(|f| f.rule == "guard-contract")
        .expect("unsafe fn deref'ing a raw param needs a GUARD contract");
    assert_eq!(f.severity, Severity::Warning);
    assert_eq!(f.line, 7, "flagged at the fn header");
}

#[test]
fn protection_flags_guarded_callee_that_releases_then_derefs() {
    // The GUARD contract says the caller holds the count — so the callee
    // consuming it and then deref'ing violates its own declared window.
    let src = "impl S {\n\
        // GUARD: p — caller holds a counted reference for the call.\n\
        unsafe fn consume_then_peek(&self, p: *mut Node) -> u64 {\n\
            self.arena.release(p);\n\
            (*p).key\n\
        }\n\
    }\n";
    let findings = analyze_source(LIB, src);
    let f = findings
        .iter()
        .find(|f| f.rule == "protection-window")
        .expect("release-then-deref under a GUARD contract must be flagged");
    assert_eq!(f.line, 5);
    assert_eq!(f.related.len(), 2, "{:?}", f.related);
    assert_eq!(f.related[0].line, 4, "killing release");
    assert_eq!(
        f.related[1].line, 3,
        "the contracted fn header is the origin"
    );
}

#[test]
fn protection_flags_released_arg_passed_to_guarded_helper() {
    // Interprocedural: the helper's GUARD says its param must be live,
    // so passing a released pointer at that position is a violation.
    let src = "impl S {\n\
        // GUARD: p — caller holds a counted reference for the call.\n\
        unsafe fn peek(&self, p: *mut Node) -> u64 {\n\
            (*p).key\n\
        }\n\
        fn f(&self) {\n\
            let h = self.arena.safe_read(&self.head);\n\
            self.arena.release(h);\n\
            let k = unsafe { self.peek(h) };\n\
        }\n\
    }\n";
    let findings = analyze_source(LIB, src);
    let f = findings
        .iter()
        .find(|f| f.rule == "protection-window" && f.line == 9)
        .expect("released arg at a GUARD position must be flagged");
    assert_eq!(f.related.len(), 2, "{:?}", f.related);
    assert_eq!(f.related[0].line, 8, "killing release");
    assert_eq!(f.related[1].line, 7, "acquisition origin");
}

#[test]
fn protection_accepts_transfer_via_return() {
    // Returning the raw pointer hands the count (and the window) to the
    // caller; no deref happens after any kill.
    let src = "fn head_ref(&self) -> *mut Node {\n\
        self.arena.safe_read(&self.head)\n\
    }\n";
    assert_eq!(count(LIB, src, "protection-window"), 0);
}

#[test]
fn protection_accepts_loop_carried_resume_redereference() {
    // The PR 7 backtrack shape: each hop releases the superseded anchor
    // and rebinds, so the deref at the loop head is always in-window.
    let src = "fn backtrack(&self, from: *mut Node) -> *mut Node {\n\
        let mut p = self.arena.safe_read(&self.anchor);\n\
        loop {\n\
            let q = unsafe { self.arena.safe_read(&(*p).back_link) };\n\
            if q.is_null() {\n\
                return p;\n\
            }\n\
            self.arena.release(p);\n\
            p = q;\n\
        }\n\
    }\n";
    assert_eq!(count(LIB, src, "protection-window"), 0);
}

#[test]
fn protection_accepts_guard_blessed_cached_anchor() {
    // I10's cached-cursor anchors: the slot keeps its own count parked,
    // so a re-deref after this fn's release is pinned by the cache —
    // stated with a statement-level GUARD bless.
    let src = "fn f(&self) {\n\
        let h = self.arena.safe_read(&self.head);\n\
        self.arena.release(h);\n\
        // GUARD: h — the cursor cache holds its own count (I10).\n\
        let k = unsafe { (*h).key };\n\
    }\n";
    assert_eq!(count(LIB, src, "protection-window"), 0);
}

#[test]
fn protection_sarif_carries_kill_and_origin_notes() {
    let src = "fn f(&self) {\n\
        let h = self.arena.safe_read(&self.head);\n\
        self.arena.release(h);\n\
        let k = unsafe { (*h).key };\n\
    }\n";
    let findings: Vec<_> = analyze_source(LIB, src)
        .into_iter()
        .filter(|f| f.rule == "protection-window")
        .collect();
    let sarif = valois_analyze::render_sarif(&findings);
    assert!(sarif.contains("relatedLocations"), "{sarif}");
    assert!(sarif.contains("count is consumed here"), "{sarif}");
    assert!(sarif.contains("window opens here"), "{sarif}");
}

#[test]
fn sarif_related_locations_round_trip() {
    let src = "fn f(&self) -> bool {\n\
        let h = self.arena.safe_read(&self.head);\n\
        if self.stopped() {\n\
            return false;\n\
        }\n\
        self.arena.release(h);\n\
        true\n\
    }\n";
    let findings: Vec<_> = analyze_source(LIB, src)
        .into_iter()
        .filter(|f| f.rule == "refcount-balance")
        .collect();
    let sarif = valois_analyze::render_sarif(&findings);
    assert!(sarif.contains("relatedLocations"), "{sarif}");
    assert!(sarif.contains("acquires its count here"), "{sarif}");
}

// ---- --explain examples ---------------------------------------------------

#[test]
fn every_explain_example_shows_its_rule() {
    use valois_analyze::report::RULE_DOCS;
    use valois_analyze::{analyze_source_with, Context};
    let ctx = Context {
        invariants: Some((1..=11).collect()),
        ..Context::empty()
    };
    let mut wrong = Vec::new();
    for doc in RULE_DOCS {
        // A workspace-only rule: one file cannot pair its sites.
        if doc.id == "order-pairing" {
            continue;
        }
        let reports = |src: &str| {
            analyze_source_with(LIB, src, &ctx)
                .iter()
                .any(|f| f.rule == doc.id)
        };
        if !reports(doc.bad) {
            wrong.push(format!("{}: `bad` reports nothing", doc.id));
        }
        if reports(doc.good) {
            wrong.push(format!("{}: `good` still reports", doc.id));
        }
    }
    assert!(wrong.is_empty(), "{wrong:#?}");
}
