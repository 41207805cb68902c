#!/bin/sh
# Count the non-test lines of Rust under crates/: every .rs file outside a
# tests/ or benches/ directory, up to (not including) the file's first
# `#[cfg(test)]` line at column 0. Prints one total per crate, then the
# grand total; with --files, each file's count first.
#
#   scripts/nontest-lines.sh [--files]
set -eu
files=0
if [ "${1:-}" = "--files" ]; then
    files=1
fi
cd "$(dirname "$0")/.."
find crates -name '*.rs' ! -path '*/tests/*' ! -path '*/benches/*' | LC_ALL=C sort |
    awk -v files="$files" '
{
    split($0, part, "/")
    crate = part[2]
    if (!(crate in per_crate)) {
        per_crate[crate] = 0
        order[++crates] = crate
    }
    n = 0
    while ((getline line < $0) > 0) {
        if (line ~ /^#\[cfg\(test\)\]/)
            break
        n++
    }
    close($0)
    if (files)
        printf "%7d  %s\n", n, $0
    per_crate[crate] += n
    total += n
}
END {
    for (i = 1; i <= crates; i++)
        printf "%7d  crates/%s\n", per_crate[order[i]], order[i]
    printf "%7d  total\n", total
}'
