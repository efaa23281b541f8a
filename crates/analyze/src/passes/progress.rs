//! Progress discipline, two lints:
//!
//! 1. **`cas-progress`** — a `loop`/`while` whose body performs a CAS or
//!    RMW retry (`compare_exchange[_weak]`, `compare_and_swap`, `swing`,
//!    `try_claim`, `fetch_*`) must either invoke [`Backoff`]
//!    (`valois_sync::backoff`) or carry a `// WAIT-FREE:` comment arguing
//!    why unthrottled retry is acceptable (typically: the loop only
//!    retries when *another* thread made progress, so system-wide
//!    progress is already guaranteed and the retry window is one
//!    instruction wide). §2.1 of the paper: "starvation at high levels of
//!    contention is more efficiently handled by techniques such as
//!    exponential backoff."
//!
//! 2. **`spin-guard`** — a spinlock guard must not live across a call
//!    into the protocol layer (`safe_read`/`release`/`alloc`/`swing`/...):
//!    holding a spinlock while running lock-free protocol code reintroduces
//!    the blocking the protocol exists to avoid, and inverts the repo's
//!    lock hierarchy (spinlocks are leaves). The baseline crate is exempt
//!    by path — its whole point is coarse locking around list operations.
//!
//! Only the innermost loop containing a CAS is flagged (an outer driver
//! loop is not itself a retry loop). `#[cfg(test)]` modules are exempt.
//!
//! [`Backoff`]: https://example.com/valois

use crate::flow::{Count, CALLS};
use crate::lexer::{Delim, TokKind};
use crate::passes::finding;
use crate::report::Finding;
use crate::source::SourceFile;

/// CAS/RMW calls that make a `loop`/`while` a retry loop.
const CAS_CALLS: &[&str] = &[
    "compare_exchange",
    "compare_exchange_weak",
    "compare_and_swap",
    "swing",
    "try_claim",
];

/// Link-publishing calls. They move no count in [`CALLS`] (the
/// workspace releases the published local explicitly) but still run
/// protocol code.
const PUBLISH_CALLS: &[&str] = &["swing", "store_link", "try_insert", "try_delete"];

/// Whether a spinlock guard must not be held across a call to `name`:
/// every §5 call in [`CALLS`] that moves a count, plus [`PUBLISH_CALLS`].
fn is_protocol_call(name: &str) -> bool {
    PUBLISH_CALLS.contains(&name)
        || CALLS
            .iter()
            .any(|&(call, count, _)| call == name && count != Count::Keep)
}

/// Runs both lints over one file.
pub fn run(file: &SourceFile) -> Vec<Finding> {
    let mut out = cas_progress(file);
    out.extend(spin_guard(file));
    out
}

fn is_cas_call(file: &SourceFile, i: usize) -> bool {
    let toks = &file.toks;
    if toks[i].kind != TokKind::Ident {
        return false;
    }
    let named = CAS_CALLS.iter().any(|n| toks[i].is_ident(n))
        || (toks[i].text.starts_with("fetch_") && toks[i].text.len() > "fetch_".len());
    named
        && file
            .next_sig(i)
            .is_some_and(|n| toks[n].kind == TokKind::Open(Delim::Paren))
}

fn cas_progress(file: &SourceFile) -> Vec<Finding> {
    let loops = file.loops();
    let mut flagged: Vec<usize> = Vec::new(); // indices into `loops`
    for i in 0..file.toks.len() {
        if !is_cas_call(file, i) || file.in_test_mod(i) {
            continue;
        }
        // Innermost enclosing loop body.
        let inner = loops
            .iter()
            .enumerate()
            .filter(|(_, l)| l.body.0 < i && i < l.body.1)
            .min_by_key(|(_, l)| l.body.1 - l.body.0);
        if let Some((idx, _)) = inner {
            if !flagged.contains(&idx) {
                flagged.push(idx);
            }
        }
    }
    let mut out = Vec::new();
    for idx in flagged {
        let l = &loops[idx];
        let (open, close) = l.body;
        // Backoff evidence inside the body: the type/binding name, or a
        // `.spin()` / `.snooze()` method call.
        let body = &file.toks[open..=close];
        let has_backoff = body.iter().enumerate().any(|(k, t)| {
            t.is_ident("Backoff")
                || t.is_ident("backoff")
                || ((t.is_ident("spin") || t.is_ident("snooze"))
                    && k > 0
                    && body[k - 1].text == ".")
        });
        if has_backoff {
            continue;
        }
        let justified = body
            .iter()
            .any(|t| t.is_comment() && t.text.contains("WAIT-FREE:"))
            || file.has_adjacent_marker(l.kw_idx, Some(file.toks[open].line), "WAIT-FREE:");
        if justified {
            continue;
        }
        out.push(finding(
            "cas-progress",
            file,
            l.line,
            format!(
                "`{}` retries a CAS/RMW without Backoff; add backoff or a \
                 `// WAIT-FREE:` comment arguing why unthrottled retry is sound",
                file.toks[l.kw_idx].text
            ),
        ));
    }
    out
}

fn spin_guard(file: &SourceFile) -> Vec<Finding> {
    let toks = &file.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        // `lock(` / `try_lock(` whose receiver chain mentions a spinlock.
        if !(toks[i].is_ident("lock") || toks[i].is_ident("try_lock")) || file.in_test_mod(i) {
            continue;
        }
        let is_call = file
            .next_sig(i)
            .is_some_and(|n| toks[n].kind == TokKind::Open(Delim::Paren));
        if !is_call {
            continue;
        }
        let start = file.stmt_start(i);
        let receiver_is_spin = file.toks[start..i]
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text.to_ascii_lowercase().contains("spin"));
        if !receiver_is_spin {
            continue;
        }
        // Guard binding name: `let [mut] name = ...`.
        let guard = if toks[start].is_ident("let") {
            let mut n = file.next_sig(start);
            if n.is_some_and(|x| toks[x].is_ident("mut")) {
                n = file.next_sig(n.unwrap());
            }
            n.map(|x| toks[x].text.clone())
        } else {
            None
        };
        // Statement end, then scan to the end of the enclosing block (or
        // an explicit `drop(guard)`), flagging protocol calls.
        let Some(stmt_end) = (i..toks.len()).find(|&j| toks[j].text == ";") else {
            continue;
        };
        let Some((_, block_close)) = enclosing_brace(file, i) else {
            continue;
        };
        let mut j = stmt_end;
        while j < block_close {
            j += 1;
            let t = &toks[j];
            // Early release: drop(guard)
            if t.is_ident("drop") {
                if let (Some(p), Some(g)) = (file.next_sig(j), guard.as_deref()) {
                    if toks[p].kind == TokKind::Open(Delim::Paren)
                        && file.next_sig(p).is_some_and(|a| toks[a].is_ident(g))
                    {
                        break;
                    }
                }
            }
            if t.kind == TokKind::Ident
                && is_protocol_call(&t.text)
                && file
                    .next_sig(j)
                    .is_some_and(|n| toks[n].kind == TokKind::Open(Delim::Paren))
            {
                out.push(finding(
                    "spin-guard",
                    file,
                    t.line,
                    format!(
                        "protocol call `{}` while a spinlock guard (acquired line {}) \
                         is live; drop the guard first — spinlocks are leaves of the \
                         lock hierarchy",
                        t.text, toks[i].line
                    ),
                ));
                break; // one finding per guard
            }
        }
    }
    out
}

/// The innermost `{ ... }` token range strictly containing `i`.
fn enclosing_brace(file: &SourceFile, i: usize) -> Option<(usize, usize)> {
    let mut best: Option<(usize, usize)> = None;
    for (open, t) in file.toks.iter().enumerate() {
        if t.kind != TokKind::Open(Delim::Brace) {
            continue;
        }
        let Some(close) = file.partner[open] else {
            continue;
        };
        if open < i && i < close && best.is_none_or(|(bo, bc)| close - open < bc - bo) {
            best = Some((open, close));
        }
    }
    best
}
