#!/usr/bin/env bash
# The workspace's soundness boundary, held mechanically: the word `unsafe`
# may appear in exactly one file — crates/pcr/src/coroutine.rs, the stack
# switch under every simulated thread — and nowhere else, comments
# included. `pcr` denies unsafe_code with that one module allowed; every
# other crate under crates/ forbids it outright.
set -euo pipefail
cd "$(dirname "$0")/.."

ALLOWED=crates/pcr/src/coroutine.rs
fail=0

strays=$(grep -rnw --include='*.rs' unsafe crates src tests examples | grep -v "^$ALLOWED:" || true)
if [ -n "$strays" ]; then
    echo "unsafe-audit: \`unsafe\` outside $ALLOWED:"
    echo "$strays"
    fail=1
fi

for root in crates/*/src/lib.rs; do
    [ "$root" = crates/pcr/src/lib.rs ] && continue
    grep -qx '#!\[forbid(unsafe_code)\]' "$root" || { echo "unsafe-audit: $root lost #![forbid(unsafe_code)]"; fail=1; }
done

grep -qx '#!\[deny(unsafe_code)\]' crates/pcr/src/lib.rs || { echo "unsafe-audit: crates/pcr/src/lib.rs lost #![deny(unsafe_code)]"; fail=1; }
# One match, in that file, is exactly that file's name.
allows=$(grep -rl 'allow(unsafe_code)' --include='*.rs' crates src tests examples || true)
if [ "$allows" != crates/pcr/src/lib.rs ] || [ "$(grep -c 'allow(unsafe_code)' crates/pcr/src/lib.rs)" != 1 ]; then
    echo "unsafe-audit: expected exactly one allow(unsafe_code), on \`mod coroutine\` in crates/pcr/src/lib.rs; found in:"
    echo "${allows:-  (nowhere)}"
    fail=1
fi

[ "$fail" = 0 ] && echo "unsafe-audit: ok (unsafe only in $ALLOWED)"
exit "$fail"
