//! Repository automation.
//!
//! `cargo xtask analyze` runs the `valois-analyze` syntax-aware protocol
//! linter over the workspace's library sources (`crates/*/src`, `src/`) —
//! see `crates/analyze` for the passes and `docs/ANALYSIS.md` for the
//! comment contracts they enforce (`ORDER:` / `COUNT:` / `WAIT-FREE:` /
//! `INVARIANT:` / `GUARD:`; `SAFETY:` is clippy's).
//!
//! ```text
//! cargo xtask analyze [--format text|json|sarif] [--deny warn] [--output PATH] [--stats]
//! cargo xtask analyze --explain <rule-id>
//! ```
//!
//! * `--format` — findings as human-readable text (default), compact JSON,
//!   or SARIF 2.1.0 (what CI uploads for PR annotations);
//! * `--deny warn` — treat warnings as errors (the CI setting; the clean
//!   tree passes it);
//! * `--output` — write the report to a file instead of stdout (the
//!   human-readable summary still goes to stderr);
//! * `--stats` — print per-phase wall-clock timings to stderr (`parse`,
//!   `context-build`, `cfg`, then one row per pass) so analyzer cost
//!   stays visible as the engine grows;
//! * `--explain` — print a rule's rationale plus a minimal violating and
//!   fixed example, then exit (no analysis runs).
//!
//! `cargo xtask trace-dump <file.vtrace>` renders a flight-recorder
//! post-mortem (written by `valois_trace::dump` when an invariant fails
//! under `--features trace`) as a human-readable, time-ordered event log
//! plus per-kind event counts — see `docs/OBSERVABILITY.md`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use valois_analyze::{
    analyze_workspace_timed, render_explain, render_json, render_sarif, render_text, should_fail,
    Severity, RULES,
};

fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR = <root>/crates/xtask at compile time.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask lives two levels below the workspace root")
        .to_path_buf()
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cargo xtask analyze [--format text|json|sarif] [--deny warn] [--output PATH] \
         [--stats]"
    );
    eprintln!("       cargo xtask analyze --explain <rule-id>");
    eprintln!("       cargo xtask trace-dump <file.vtrace>");
    eprintln!();
    eprintln!("  analyze     run the valois-analyze protocol linter over library");
    eprintln!("              sources: shim discipline, pointer-ordering discipline,");
    eprintln!("              unsafe/SAFETY audit, dataflow refcount balance,");
    eprintln!("              CAS-loop progress, probe discipline, spinlock-guard");
    eprintln!("              hygiene, the acquire/release ordering graph, protection");
    eprintln!("              windows + GUARD contracts, and PROTOCOL.md invariant");
    eprintln!("              cross-references (see docs/ANALYSIS.md)");
    eprintln!();
    eprintln!("  --format    output format (default: text)");
    eprintln!("  --deny      'warn' promotes warnings to failures (CI runs this)");
    eprintln!("  --output    write the report to PATH instead of stdout");
    eprintln!("  --stats     print per-phase timings to stderr (parse, context-build,");
    eprintln!("              cfg, then one row per pass)");
    eprintln!("  --explain   print a rule's rationale and examples, then exit");
    eprintln!();
    eprintln!("  trace-dump  render a flight-recorder post-mortem (*.vtrace) as a");
    eprintln!("              merged, time-ordered event log (see docs/OBSERVABILITY.md)");
    ExitCode::FAILURE
}

/// Renders one `*.vtrace` post-mortem to stdout.
fn trace_dump(path: &Path) -> ExitCode {
    let tf = match valois_trace::TraceFile::read(path) {
        Ok(tf) => tf,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    println!("# post-mortem: {}", path.display());
    println!("# reason: {}", tf.reason);
    println!(
        "# events: {} (merged across lanes, time-ordered)",
        tf.events.len()
    );
    println!();
    for ev in &tf.events {
        let (name, arg_names) = match valois_trace::EventKind::from_u8(ev.kind) {
            Some(k) => (k.name(), k.arg_names()),
            None => ("?unknown", ["a", "b", "c"]),
        };
        print!("{:>10}  lane {:>2}  {:<20}", ev.seq, ev.lane, name);
        for (arg_name, value) in arg_names.iter().zip(ev.args) {
            if arg_name.is_empty() {
                continue;
            }
            // `@`-prefixed argument names carry pointers: render as hex.
            match arg_name.strip_prefix('@') {
                Some(n) => print!("  {n}=0x{value:x}"),
                None => print!("  {arg_name}={value}"),
            }
        }
        println!();
    }
    println!();
    println!("# counters (events in this dump, per kind)");
    let mut counts = std::collections::BTreeMap::new();
    for ev in &tf.events {
        *counts.entry(ev.kind).or_insert(0u64) += 1;
    }
    for (kind, count) in counts {
        let name = valois_trace::EventKind::from_u8(kind)
            .map(valois_trace::EventKind::name)
            .unwrap_or("?unknown");
        println!("{name:<20} {count}");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("analyze") => {}
        Some("trace-dump") => {
            return match (args.next(), args.next()) {
                (Some(p), None) => trace_dump(Path::new(&p)),
                _ => usage(),
            };
        }
        _ => return usage(),
    }

    let mut format = String::from("text");
    let mut deny_warnings = false;
    let mut output: Option<PathBuf> = None;
    let mut stats = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--explain" => {
                let Some(id) = args.next() else {
                    return usage();
                };
                return match render_explain(&id) {
                    Some(text) => {
                        print!("{text}");
                        ExitCode::SUCCESS
                    }
                    None => {
                        eprintln!("error: unknown rule `{id}`; known rules:");
                        for rule in RULES {
                            eprintln!("  {}", rule.id);
                        }
                        ExitCode::FAILURE
                    }
                };
            }
            "--format" => match args.next() {
                Some(f) if ["text", "json", "sarif"].contains(&f.as_str()) => format = f,
                _ => return usage(),
            },
            "--deny" => match args.next().as_deref() {
                Some("warn") => deny_warnings = true,
                Some("error") => deny_warnings = false,
                _ => return usage(),
            },
            "--output" => match args.next() {
                Some(p) => output = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--stats" => stats = true,
            _ => return usage(),
        }
    }

    let (findings, pass_stats) = analyze_workspace_timed(&workspace_root());
    if stats {
        eprintln!(
            "xtask analyze: {} file(s) in {:.1?}",
            pass_stats.files, pass_stats.total
        );
        for (name, dur) in &pass_stats.timings {
            eprintln!("  {name:<24} {dur:>10.1?}");
        }
    }
    let rendered = match format.as_str() {
        "json" => render_json(&findings),
        "sarif" => render_sarif(&findings),
        _ => render_text(&findings),
    };
    match &output {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &rendered) {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        None => print!("{rendered}"),
    }

    let errors = findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .count();
    let warnings = findings.len() - errors;
    if findings.is_empty() {
        eprintln!(
            "xtask analyze: OK (ordering, cas-progress, spin-guard, \
             refcount-balance, order-graph, invariant-refs, protection-window, \
             guard-contract)"
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask analyze: {errors} error(s), {warnings} warning(s)");
        if should_fail(&findings, deny_warnings) {
            ExitCode::FAILURE
        } else {
            eprintln!("(warnings are not denied; pass --deny warn to fail on them)");
            ExitCode::SUCCESS
        }
    }
}
