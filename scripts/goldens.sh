#!/usr/bin/env bash
# Regenerate the byte-exact goldens of `crates/bench/tests/golden.rs` from
# a given `futil` binary — normally the *parent* commit's, so that the
# files record what the tool printed before a change and the test shows
# the change kept it.
#
#   scripts/goldens.sh PATH/TO/futil
#
# Each golden describes itself: its first line is the command
# (`$ futil ARGS...`, optionally ` < STDIN-LINE`), the rest is what that
# command printed (stdout, then stderr), run from the repository root. To
# add a case, create a file holding only its command line and run this.
set -euo pipefail
futil=$(realpath "${1:?usage: scripts/goldens.sh PATH/TO/futil}")
cd "$(dirname "${BASH_SOURCE[0]}")/.."

for golden in crates/bench/tests/golden/*.txt; do
  IFS= read -r cmd < "$golden"
  args=${cmd#\$ futil }
  input=
  case "$args" in *" < "*) input="${args#* < }"$'\n' args=${args% < *} ;; esac
  out=$(mktemp) err=$(mktemp)
  # shellcheck disable=SC2086  # ARGS are space-separated words by construction
  printf '%s' "$input" | "$futil" $args > "$out" 2> "$err" || true
  { printf '%s\n' "$cmd"; cat "$out" "$err"; } > "$golden"
  rm -f "$out" "$err"
done
