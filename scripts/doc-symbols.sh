#!/bin/sh
# Check that the prose documents name what the code has. Fails when
#
#  (a) a backticked Rust identifier or path (`Held`, `ops::release`,
#      `reclaim_pass()`) in README.md, DESIGN.md, EXPERIMENTS.md or
#      perfbench/README.md has a segment that names nothing under crates/,
#      perfbench/src/, tests/, examples/ or scripts/: no word of code there
#      outside a `//` comment, and no file stem. A name that is not the
#      code's to define (the thesis's pseudocode, CUDA, the kernel) goes in
#      scripts/doc-symbols.allow, one name and its reason a line; an entry
#      that no document needs any more also fails;
#  (b) a "DESIGN §N" or "DESIGN.md §N" citation in any file git tracks or
#      would add names a section heading DESIGN.md does not have (a
#      citation inside a backticked span is quoted, not made, and is
#      skipped);
#  (c) DESIGN.md is longer than 1,200 lines or EXPERIMENTS.md longer
#      than 1,500.
#
# Prints one line per failure and exits 1 if there is any.
#
#   scripts/doc-symbols.sh
set -eu
cd "$(dirname "$0")/.."

docs="README.md DESIGN.md EXPERIMENTS.md perfbench/README.md"
allow=scripts/doc-symbols.allow
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

# Every name the code has: each word of code (comments cut at `//` in Rust
# files) and each file stem.
find crates perfbench/src tests examples scripts -type f \
    ! -name doc-symbols.sh ! -name doc-symbols.allow > "$tmp/files"
sed 's|.*/||; s|\.[^.]*$||' "$tmp/files" > "$tmp/names.raw"
xargs awk '
{
    line = $0
    if (FILENAME ~ /\.rs$/)
        sub(/\/\/.*/, "", line)
    gsub(/[^A-Za-z0-9_]+/, " ", line)
    n = split(line, word, " ")
    for (i = 1; i <= n; i++)
        if (word[i] ~ /^[A-Za-z_]/)
            print word[i]
}' < "$tmp/files" >> "$tmp/names.raw"
LC_ALL=C sort -u "$tmp/names.raw" > "$tmp/names"

status=0

# (a) Backticked identifiers and paths in the documents.
awk -v allowfile="$allow" '
BEGIN {
    ident = "[A-Za-z_][A-Za-z0-9_]*"
    span_re = "^" ident "(::" ident ")*(\\(\\)|!)?$"
    while ((getline line < allowfile) > 0) {
        if (line ~ /^[ \t]*(#|$)/)
            continue
        if (split(line, f, " ") < 2) {
            printf "%s: \"%s\" has no reason\n", allowfile, f[1]
            bad = 1
            continue
        }
        allowed[f[1]] = 1
    }
    close(allowfile)
}
NR == FNR {
    known[$0] = 1
    next
}
FNR == 1 {
    fence = 0
    open = 0
}
/^[ \t]*```/ {
    fence = !fence
    next
}
fence { next }
/^[ \t]*$/ {
    # inline code ends with its paragraph
    open = 0
    next
}
{
    n = split($0, part, "`")
    for (i = 1; i <= n; i++) {
        inside = open ? (i % 2 == 1) : (i % 2 == 0)
        # a span is checked only when both its backticks are on this line
        if (!inside || i == n || (open && i == 1))
            continue
        span = part[i]
        gsub(/^ +| +$/, "", span)
        if (span !~ span_re)
            continue
        sub(/(\(\)|!)$/, "", span)
        m = split(span, seg, "::")
        for (j = 1; j <= m; j++) {
            if (seg[j] in allowed)
                used[seg[j]] = 1
            else if (!(seg[j] in known)) {
                printf "%s:%d: `%s` names nothing in the code\n", FILENAME, FNR, part[i]
                bad = 1
            }
        }
    }
    if (gsub(/`/, "`") % 2)
        open = !open
}
END {
    for (name in allowed) {
        if (name in known) {
            printf "%s: \"%s\" is in the code now; drop it from the allow-list\n", allowfile, name
            bad = 1
        } else if (!(name in used)) {
            printf "%s: \"%s\" is cited by no document; drop it from the allow-list\n", allowfile, name
            bad = 1
        }
    }
    exit bad
}' "$tmp/names" $docs || status=1

# (b) DESIGN section citations anywhere in the repository.
grep -E '^#+ [0-9]+(\.[0-9]+)*[. ]' DESIGN.md |
    sed -E 's/^#+ ([0-9]+(\.[0-9]+)*).*/\1/' > "$tmp/sections"
git ls-files -co --exclude-standard | while IFS= read -r f; do
    [ -f "$f" ] && printf '%s\n' "$f"
done > "$tmp/tracked"
xargs grep -nIE 'DESIGN(\.md)? §[0-9]' < "$tmp/tracked" 2>/dev/null |
    awk -v sections="$tmp/sections" '
BEGIN {
    while ((getline s < sections) > 0)
        have[s] = 1
}
{
    line = $0
    sub(/^[^:]*:[0-9]+:/, "", line)
    where = substr($0, 1, length($0) - length(line) - 1)
    gsub(/`[^`]*`/, "", line)
    while (match(line, /DESIGN(\.md)? §[0-9]+(\.[0-9]+)*/)) {
        cite = substr(line, RSTART, RLENGTH)
        line = substr(line, RSTART + RLENGTH)
        sub(/.*§/, "", cite)
        if (!(cite in have)) {
            printf "%s: DESIGN §%s names no section of DESIGN.md\n", where, cite
            bad = 1
        }
    }
}
END { exit bad }' || status=1

# (c) The documents stay short enough that per-PR tables go to results/ab/.
for limit in DESIGN.md:1200 EXPERIMENTS.md:1500; do
    f=${limit%%:*}
    max=${limit#*:}
    lines=$(wc -l < "$f")
    if [ "$lines" -gt "$max" ]; then
        echo "$f: $lines lines, more than $max"
        status=1
    fi
done

exit $status
