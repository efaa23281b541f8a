#!/usr/bin/env bash
# Seeded violations for the rules that clippy enforces (see clippy.toml and
# docs/ANALYSIS.md). Copies the working tree to a temporary directory,
# checks that the clean copy passes the two CI clippy steps involved, then
# appends one violation at a time to crates/core/src/lib.rs and expects
# its step to fail with the named lint.
#
#   scripts/check-clippy-rules.sh
#
# The copy is made under ${TMPDIR:-/tmp} and removed on exit. Build output
# goes to $CARGO_TARGET_DIR/{lib,loom} if that is set, else into the copy.
set -euo pipefail

root="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
copy="$(mktemp -d)"
trap 'rm -rf "$copy"' EXIT
(cd "$root" && git ls-files -z --cached --others --exclude-standard | tar --null -T - -cf -) \
    | tar -C "$copy" -xf -
target="${CARGO_TARGET_DIR:-$copy/target}"
seeded="$copy/crates/core/src/lib.rs"
cp "$seeded" "$copy/lib.rs.clean"

# CI's lib-only unsafe step.
lib_step() {
    (cd "$copy" && CARGO_TARGET_DIR="$target/lib" cargo clippy -q --workspace --lib --bins \
        -- -D warnings -D clippy::undocumented_unsafe_blocks)
}
# CI's `--cfg loom` shim and probe step.
loom_step() {
    (cd "$copy" && RUSTFLAGS="--cfg loom" CARGO_TARGET_DIR="$target/loom" cargo clippy -q \
        --workspace --lib --bins \
        -- -D warnings -D clippy::disallowed_types -D clippy::disallowed_methods)
}

for step in lib_step loom_step; do
    if ! "$step" >"$copy/out.log" 2>&1; then
        cat "$copy/out.log"
        echo "FAIL: $step does not pass on the clean tree" >&2
        exit 1
    fi
    echo "ok: clean tree passes $step"
done

# seed <step> <lint> <code>: appends <code> to the seeded file and expects
# <step> to fail naming <lint>.
seed() {
    local step="$1" lint="$2" code="$3"
    cp "$copy/lib.rs.clean" "$seeded"
    printf '\n%s\n' "$code" >>"$seeded"
    if "$step" >"$copy/out.log" 2>&1; then
        echo "FAIL: $step passed with a seeded $lint violation" >&2
        exit 1
    fi
    if ! grep -q "#$lint" "$copy/out.log"; then
        cat "$copy/out.log"
        echo "FAIL: $step failed, but not with $lint" >&2
        exit 1
    fi
    echo "ok: $step rejects a seeded $lint violation"
}

seed loom_step disallowed_types '#[allow(unused_imports)]
use std::sync::{atomic::AtomicUsize as A};'
seed lib_step undocumented_unsafe_blocks '#[allow(dead_code)]
fn seeded_block(p: *const u8) -> u8 {
    unsafe { *p }
}'
seed lib_step missing_safety_doc '/// Reads nothing.
#[allow(dead_code)]
unsafe fn seeded_unsafe_fn() {}'
seed loom_step disallowed_methods '#[allow(dead_code)]
fn seeded_record() {
    valois_trace::record(valois_trace::EventKind::Alloc, 0, 0, 0);
}'
cp "$copy/lib.rs.clean" "$seeded"
echo "all seeded violations rejected"
