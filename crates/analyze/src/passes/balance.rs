//! `refcount-balance`: the reference-count rule. Rather than asking
//! "does this function *mention* a release or carry a comment?", it runs
//! the balance lattice ([`crate::dataflow`]) over each function's CFG and
//! proves per path that every count acquired by
//! `safe_read`/`safe_read_tallied`/`alloc` is released, transferred to
//! the caller through a raw-pointer return, stored into the structure, or
//! covered by a `// COUNT:` contract. It also checks the contract text
//! itself: a function-level `// COUNT: ... transfers to caller ...` whose
//! signature has no raw-pointer return cannot be honored and is reported
//! (`declared-transfer-not-returned`).
//!
//! It reports at `Error` severity because a leaked count permanently
//! wedges Fig. 17's reclamation (the cell never reaches refcount 1
//! again).

use crate::cfg::Cfg;
use crate::dataflow::{fn_count_contract, returns_raw_ptr, Balance};
use crate::flow::{solve, Summaries};
use crate::passes::{finding, flow_finding};
use crate::report::Finding;
use crate::source::SourceFile;
use crate::syntax::FnDef;

/// Runs the balance analysis over `fns`, every non-test fn of `file` with
/// its CFG. `summaries` must cover the whole workspace so cross-crate
/// consumers (e.g. `release_deferred`) are seen.
pub fn run(
    file: &SourceFile,
    fns: &[(&FnDef, Option<Cfg>)],
    summaries: &Summaries,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for (def, graph) in fns {
        // A function-level COUNT contract replaces path analysis with a
        // contract check: a declared transfer-to-caller must be
        // realizable, i.e. the return type carries a raw pointer.
        if let Some(text) = fn_count_contract(file, def) {
            let lower = text.to_lowercase();
            if lower.contains("transfer") && lower.contains("caller") && !returns_raw_ptr(file, def)
            {
                out.push(finding(
                    "refcount-balance",
                    file,
                    def.item.line,
                    format!(
                        "fn `{}` declares `// COUNT: ... transfers to caller ...` but \
                         its return type carries no raw pointer; the §5 transfer \
                         convention cannot hold",
                        def.item.name
                    ),
                ));
            }
            continue;
        }
        let Some(graph) = graph else { continue };
        for f in solve(&Balance::new(file, def, summaries), graph) {
            out.push(flow_finding("refcount-balance", file, f));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax;

    fn run_on(src: &str) -> Vec<Finding> {
        let file = SourceFile::parse("t.rs", src);
        let ast = syntax::parse(&file);
        let summaries = Summaries::build([(&file, &ast)]);
        run(&file, &crate::lower_fns(&file, &ast), &summaries)
    }

    #[test]
    fn declared_transfer_without_raw_return_is_reported() {
        let src = "\
        // COUNT: transfers to caller.\n\
        fn f(&self) -> u32 {\n\
            self.arena.safe_read(&self.head) as u32\n\
        }";
        let findings = run_on(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("cannot hold"));
    }

    #[test]
    fn declared_transfer_with_raw_return_is_fine() {
        let src = "\
        // COUNT: transfers to caller.\n\
        fn f(&self) -> *mut Node {\n\
            self.arena.safe_read(&self.head)\n\
        }";
        assert_eq!(run_on(src), vec![]);
    }

    #[test]
    fn leak_findings_carry_acquire_site_relation() {
        let src = "fn f(&self) {\n\
            let h = self.arena.safe_read(&self.head);\n\
            if self.flip() { self.arena.release(h); }\n\
        }";
        let findings = run_on(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "refcount-balance");
        assert_eq!(findings[0].related.len(), 1);
        assert_eq!(findings[0].related[0].line, 2);
    }

    #[test]
    fn test_mod_functions_are_skipped() {
        let src = "\
        #[cfg(test)]\n\
        mod tests {\n\
            fn f(&self) { let h = self.arena.safe_read(&self.head); let _ = h; }\n\
        }";
        assert_eq!(run_on(src), vec![]);
    }
}
