#!/usr/bin/env bash
# Non-test, non-comment Rust lines: the figure ROADMAP item 5 ("net
# negative lines") is judged by, so that "lines removed by this PR" is a
# command run on two checkouts and not prose.
#
#   scripts/loc.sh                   one row per workspace crate, and the total
#   scripts/loc.sh DIR...            one row per DIR instead
#
# Counted: every line of every *.rs file that is not blank, not a `//`
# comment (doc comments included), and not inside an item under
# `#[cfg(test)]`. Not counted at all: `tests/` directories, `benchmark/`,
# `vendor/` and `target/`. The `#[cfg(test)]` item runs from the
# attribute to the `}` that closes its first `{`, or to a `;` before any
# `{` (a one-line `use …;`). Brackets are counted outside strings, raw
# strings, character literals and `//` comments only, so a `}` in a
# test's source text cannot end the item early.
#
# Paths are relative to the current directory, so the script also measures
# another checkout: `cd ../parent && bash ../repo/scripts/loc.sh`.
set -euo pipefail

count() { # DIR -> lines
  find "$1" -name '*.rs' -not -path '*/tests/*' -not -path '*/target/*' -print0 \
    | xargs -0 -r awk '
        # Scan `s` for the end of the skipped item; `closer` is the text
        # that ends the string being read ("" outside one), kept across
        # lines, and `depth` the brackets open.
        function scan(s,   c) {
          while (s != "") {
            if (closer != "") {
              if (closer == "\"" && substr(s, 1, 1) == "\\") { s = substr(s, 3); continue }
              if (substr(s, 1, length(closer)) == closer) { s = substr(s, length(closer) + 1); closer = "" }
              else s = substr(s, 2)
              continue
            }
            c = substr(s, 1, 1)
            if (substr(s, 1, 2) == "//") return 0
            if (c == "\"") { closer = "\""; s = substr(s, 2); continue }
            if (match(s, /^b?r#*"/)) {
              closer = substr(s, 1, RLENGTH); gsub(/[^#]/, "", closer); closer = "\"" closer
              s = substr(s, RLENGTH + 1); continue
            }
            if (match(s, /^[A-Za-z_][A-Za-z0-9_]*/)) { s = substr(s, RLENGTH + 1); continue }
            if (match(s, /^'\''(\\.[^'\'']*|[^\\'\''])'\''/)) { s = substr(s, RLENGTH + 1); continue }
            if (c ~ /[{[(]/) depth++
            if (c ~ /[]})]/ && --depth == 0 && c == "}") return 1
            if (c == ";" && depth == 0) return 1
            s = substr(s, 2)
          }
          return 0
        }
        FNR == 1 { skipping = 0 }
        skipping { if (scan($0)) skipping = 0; next }
        /^[ \t]*#\[cfg\(test\)\]/ {
          closer = ""; depth = 0
          skipping = !scan(substr($0, index($0, "]") + 1))
          next
        }
        /^[ \t]*$/ || /^[ \t]*\/\// { next }
        { n++ }
        END { print n + 0 }' \
    | awk '{ sum += $1 } END { print sum + 0 }' # one figure per awk xargs started
}

if [ "$#" -gt 0 ]; then
  rows=("$@")
else
  [ -f Cargo.toml ] && [ -d crates ] || { echo "loc.sh: run from the repository root" >&2; exit 2; }
  rows=(src examples)
  for manifest in crates/*/Cargo.toml; do rows+=("$(dirname "$manifest")"); done
fi

total=0
for row in "${rows[@]}"; do
  [ -d "$row" ] || { echo "loc.sh: no directory \`$row\`" >&2; exit 2; }
  n=$(count "$row")
  total=$((total + n))
  printf '%8d  %s\n' "$n" "$row"
done
printf '%8d  total\n' "$total"
