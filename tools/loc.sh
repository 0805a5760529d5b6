#!/bin/sh
# Non-test, non-comment lines per crate under crates/*/src (PR 14's counting
# rule): blank lines and lines that start with `//` are not counted, and
# nothing from a file's first `#[cfg(test)]` line down is. Run from anywhere:
#   tools/loc.sh [REPO_ROOT]
cd "${1:-$(dirname "$0")/..}" || exit 1
total=0
for crate in crates/*/; do
    name=$(basename "$crate")
    n=$(find "$crate/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
        test { next }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }')
    printf '%-16s %6d\n' "$name" "$n"
    total=$((total + n))
done
printf '%-16s %6d\n' total "$total"
