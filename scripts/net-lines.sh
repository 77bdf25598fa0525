#!/usr/bin/env bash
# Net non-test lines of a change, per crate — the figure every simplicity
# PR reports in CHANGES.md.
#
#   scripts/net-lines.sh <parent-ref>
#
# Counts, at <parent-ref> (read with `git show`, nothing is checked out)
# and in the working tree, the lines of every `*.rs` file under
# `crates/*/src` and `src/` up to its first `#[cfg(test)]` line, and
# prints before / after / delta per crate and in total. Two rows below the
# total stay out of it: `crates/bench` (`src/` and `benches/`, the
# experiment harness) and `crates/compat` (the vendored stand-ins).
# Comments and blank lines count: the number is "lines a reader meets".
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
    sed -n '2,13p' "$0" >&2
    exit 2
fi
parent=$1
git rev-parse --verify --quiet "$parent^{commit}" > /dev/null || {
    echo "net-lines: '$parent' is not a commit" >&2
    exit 2
}

counted='^(src|crates/[^/]+/src|crates/bench/benches|crates/compat/[^/]+/src)/.*\.rs$'
# Lines before the first `#[cfg(test)]`.
non_test_lines() { awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }'; }
# `crates/<name>` for a crate file, `(facade)` for the root package's.
crate_of() { case $1 in crates/*) cut -d/ -f1,2 <<< "$1" ;; *) echo "(facade)" ;; esac; }

{
    git ls-tree -r --name-only "$parent" | grep -E "$counted" |
        while read -r file; do
            echo "$(crate_of "$file") before $(git show "$parent:$file" | non_test_lines)"
        done
    { git ls-files; git ls-files --others --exclude-standard; } | sort -u | grep -E "$counted" |
        while read -r file; do
            if [ -f "$file" ]; then # a deleted file is still in the index
                echo "$(crate_of "$file") after $(non_test_lines < "$file")"
            fi
        done
} | sort -k1,1 | awk '
    function row(name, b, a) { printf "%-22s %8d %8d %+7d\n", name, b, a, a - b }
    function flush() {
        if (crate ~ /^crates\/(bench|compat)$/) {
            outside[crate] = before " " after
        } else if (crate != "") {
            row(crate, before, after)
            total_before += before
            total_after += after
        }
    }
    BEGIN { printf "%-22s %8s %8s %7s\n", "crate", "before", "after", "delta" }
    $1 != crate { flush(); crate = $1; before = after = 0 }
    $2 == "before" { before += $3 }
    $2 == "after" { after += $3 }
    END {
        flush()
        row("total", total_before, total_after)
        split("crates/bench crates/compat", names, " ")
        for (i = 1; i <= 2; i++) {
            if (names[i] in outside) {
                split(outside[names[i]], n, " ")
                row(names[i], n[1], n[2])
            }
        }
    }'
