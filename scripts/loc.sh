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
# `vendor/` and `target/`. The `#[cfg(test)]` item is found by layout,
# not by parsing: it runs from the attribute to the first later line that
# closes it at the attribute's own indentation, which is how rustfmt
# (enforced by CI) prints every item.
#
# Paths are relative to the current directory, so the script also measures
# another checkout: `cd ../parent && bash ../repo/scripts/loc.sh`.
set -euo pipefail

count() { # DIR -> lines
  find "$1" -name '*.rs' -not -path '*/tests/*' -not -path '*/target/*' -print0 \
    | xargs -0 -r awk '
        FNR == 1 { skipping = 0 }
        skipping {
          # The item ends at `}` (a one-line item at `;`) on the
          # indentation of its attribute.
          if (index($0, indent) == 1 && substr($0, length(indent) + 1) ~ /^(}[;,)]*|[^ \t}].*;)$/) skipping = 0
          next
        }
        /^[ \t]*#\[cfg\(test\)\]/ { match($0, /^[ \t]*/); indent = substr($0, 1, RLENGTH); skipping = 1; next }
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
