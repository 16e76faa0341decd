#!/usr/bin/env bash
# The workspace's soundness boundary, held mechanically: the word `unsafe`
# may appear in exactly two files — crates/pcr/src/coroutine.rs, the stack
# switch under every simulated thread, and crates/pcr/src/monitor.rs,
# whose data the kernel's ownership rule guards without a lock — and
# nowhere else, comments included. `pcr` denies unsafe_code with those two
# modules allowed, one `#[allow(unsafe_code)]` line directly above each
# `mod`; every other crate under crates/ forbids it outright.
set -euo pipefail
cd "$(dirname "$0")/.."

ALLOWED="crates/pcr/src/coroutine.rs crates/pcr/src/monitor.rs"
LIB=crates/pcr/src/lib.rs
fail=0

strays=$(grep -rnw --include='*.rs' unsafe crates src tests examples |
    grep -v -e '^crates/pcr/src/coroutine\.rs:' -e '^crates/pcr/src/monitor\.rs:' || true)
if [ -n "$strays" ]; then
    echo "unsafe-audit: \`unsafe\` outside $ALLOWED:"
    echo "$strays"
    fail=1
fi

for root in crates/*/src/lib.rs; do
    [ "$root" = "$LIB" ] && continue
    grep -qx '#!\[forbid(unsafe_code)\]' "$root" || { echo "unsafe-audit: $root lost #![forbid(unsafe_code)]"; fail=1; }
done

grep -qx '#!\[deny(unsafe_code)\]' "$LIB" || { echo "unsafe-audit: $LIB lost #![deny(unsafe_code)]"; fail=1; }
# One match, in that file, is exactly that file's name.
allows=$(grep -rl 'allow(unsafe_code)' --include='*.rs' crates src tests examples || true)
# Each allow, with the line after it: exactly the two `mod` lines.
allowed_mods=$(grep -A1 'allow(unsafe_code)' "$LIB" | grep -v -e 'allow(unsafe_code)' -e '^--$' || true)
if [ "$allows" != "$LIB" ] || [ "$(grep -cx '#\[allow(unsafe_code)\]' "$LIB")" != 2 ] ||
    [ "$allowed_mods" != "$(printf 'mod coroutine;\nmod monitor;')" ]; then
    echo "unsafe-audit: expected exactly two allow(unsafe_code), on \`mod coroutine\` and \`mod monitor\` in $LIB; found in:"
    echo "${allows:-  (nowhere)}"
    [ -f "$LIB" ] && grep -n -A1 'allow(unsafe_code)' "$LIB"
    fail=1
fi

[ "$fail" = 0 ] && echo "unsafe-audit: ok (unsafe only in $ALLOWED)"
exit "$fail"
