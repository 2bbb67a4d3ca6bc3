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
#
#   scripts/goldens.sh --lowered PATH/TO/futil
#
# re-pins `tests/lowered_output_pinned.txt` instead, and prints it: each
# row is `<calyx digest> <verilog digest> ARGS`, the digests being
# `digest64` (FNV-1a 64) of what `futil - ARGS -b calyx` and
# `futil - ARGS -b verilog` print. To add a design, append a row holding
# `0x0 0x0 ARGS` and run this.
set -euo pipefail
mode=goldens
if [ "${1-}" = --lowered ]; then
  mode=lowered
  shift
fi
futil=$(realpath "${1:?usage: scripts/goldens.sh [--lowered] PATH/TO/futil}")
cd "$(dirname "${BASH_SOURCE[0]}")/.."

if [ "$mode" = lowered ]; then
  table=tests/lowered_output_pinned.txt
  digest64() {
    perl -e 'use integer; local $/; my $h = 0xcbf29ce484222325;
             $h = ($h ^ $_) * 0x100000001b3 for unpack("C*", <STDIN>);
             printf "%#018x", $h'
  }
  new=$(mktemp)
  while IFS= read -r row; do
    case "$row" in
      "#"*) printf '%s\n' "$row" ;;
      *)
        args=${row#* } args=${args#* }
        # shellcheck disable=SC2086  # ARGS are space-separated words by construction
        calyx=$("$futil" - $args -b calyx < /dev/null | digest64)
        # shellcheck disable=SC2086
        verilog=$("$futil" - $args -b verilog < /dev/null | digest64)
        printf '%s %s %s\n' "$calyx" "$verilog" "$args"
        ;;
    esac
  done < "$table" > "$new"
  mv "$new" "$table"
  cat "$table"
  exit
fi

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
