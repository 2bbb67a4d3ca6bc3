#!/usr/bin/env bash
# Build the ledger and the futil driver (release, offline), then hand the
# arguments to the ledger. With no arguments it runs every workload,
# untraced then traced, and prints every metric. Run from anywhere; the
# ledger itself works from the repository root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cd "$here/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$target/release/ledger" "$@"
