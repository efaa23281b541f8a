//! `protection-window` + `guard-contract`: every dereference of a
//! counted node pointer must stay inside its §5 protection window
//! (invariant I11, docs/PROTOCOL.md), and `unsafe fn`s that deref
//! raw-pointer parameters must declare the caller's obligation with a
//! `// GUARD:` contract. The lattice lives in [`crate::protect`]; this
//! wrapper runs it, maps its findings to rules and adds the
//! contract-hygiene checks.

use crate::cfg::Cfg;
use crate::flow::{solve, Summaries};
use crate::passes::{finding, flow_finding};
use crate::protect::{deref_sites, fn_guard_contract, Protection};
use crate::report::Finding;
use crate::source::SourceFile;
use crate::syntax::FnDef;

/// Runs both checks over `fns`, every non-test fn of `file` with its
/// CFG. `summaries` carries the `// GUARD:`/deref facts of every fn the
/// file can call, its own included.
pub fn run(
    file: &SourceFile,
    fns: &[(&FnDef, Option<Cfg>)],
    summaries: &Summaries,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for (def, graph) in fns {
        let declared = fn_guard_contract(file, def);
        let raw_params: Vec<&str> = def.raw_params().map(|(_, n)| n).collect();
        // An unsafe fn that derefs a raw-pointer param must state the
        // caller's obligation; safe fns get summarized automatically.
        if def.item.is_unsafe {
            if let Some((open, close)) = def.item.body {
                for name in &raw_params {
                    let derefed = !deref_sites(file, open + 1, close, name).is_empty();
                    let covered = declared
                        .as_ref()
                        .is_some_and(|d| d.iter().any(|g| g == name));
                    if derefed && !covered {
                        out.push(finding(
                            "guard-contract",
                            file,
                            def.item.line,
                            format!(
                                "unsafe fn `{}` dereferences raw-pointer parameter \
                                 `{name}` without declaring it in a `// GUARD:` \
                                 contract; state the caller's obligation, e.g. \
                                 `// GUARD: {name} — caller holds a count`",
                                def.item.name
                            ),
                        ));
                    }
                }
            }
        }
        // A contract naming something that is not a raw-pointer param is
        // stale and would silently check nothing.
        if let Some(names) = &declared {
            if names.is_empty() {
                out.push(finding(
                    "guard-contract",
                    file,
                    def.item.line,
                    format!(
                        "`// GUARD:` contract on `{}` names no parameters; \
                         the grammar is `// GUARD: <param>[, <param>] — prose`",
                        def.item.name
                    ),
                ));
            }
            for n in names {
                if !raw_params.contains(&n.as_str()) {
                    out.push(finding(
                        "guard-contract",
                        file,
                        def.item.line,
                        format!(
                            "`// GUARD:` contract on `{}` names `{n}`, which is \
                             not a raw-pointer parameter of this fn; the \
                             contract is stale",
                            def.item.name
                        ),
                    ));
                }
            }
        }
        let Some(graph) = graph else { continue };
        for f in solve(&Protection::new(file, def, summaries), graph) {
            out.push(flow_finding("protection-window", file, f));
        }
    }
    out
}
