//! The lint passes. Each pass is a pure function from a parsed
//! [`SourceFile`](crate::source::SourceFile) to findings; path-based
//! exemptions (the shim directory, the baseline crate) are applied by the
//! driver in [`crate::analyze_source`], so the passes themselves stay
//! testable on bare snippets.

pub mod balance;
pub mod order_graph;
pub mod progress;
pub mod protection;

use crate::flow::FlowFinding;
use crate::report::{rule_info, Finding, Related};
use crate::source::SourceFile;

/// Builds a finding for `rule` with its registered severity.
pub(crate) fn finding(
    rule: &'static str,
    file: &SourceFile,
    line: usize,
    message: String,
) -> Finding {
    let info = rule_info(rule).expect("rule must be registered in report::RULES");
    Finding {
        rule,
        severity: info.severity,
        file: file.label.clone(),
        line,
        message,
        related: Vec::new(),
    }
}

/// Maps a count-flow finding to `rule`, its related lines in `file`.
pub(crate) fn flow_finding(rule: &'static str, file: &SourceFile, flow: FlowFinding) -> Finding {
    let mut f = finding(rule, file, flow.line, flow.message);
    f.related = flow
        .related
        .into_iter()
        .map(|(line, note)| Related {
            file: file.label.clone(),
            line,
            note,
        })
        .collect();
    f
}
