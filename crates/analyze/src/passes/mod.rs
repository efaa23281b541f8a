//! The lint passes. Each pass is a pure function from a parsed
//! [`SourceFile`](crate::source::SourceFile) to findings; path-based
//! exemptions (the shim directory, the baseline crate) are applied by the
//! driver in [`crate::analyze_source`], so the passes themselves stay
//! testable on bare snippets.

pub mod probes;
pub mod progress;
pub mod shim;
pub mod unsafe_audit;

pub mod balance;
pub mod order_graph;
pub mod protection;

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

/// Builds a finding with secondary locations attached.
pub(crate) fn finding_with_related(
    rule: &'static str,
    file: &SourceFile,
    line: usize,
    message: String,
    related: Vec<Related>,
) -> Finding {
    let mut f = finding(rule, file, line, message);
    f.related = related;
    f
}
