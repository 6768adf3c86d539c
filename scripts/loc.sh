#!/usr/bin/env bash
# Prints the workspace's non-test source line count: non-blank lines of
# the `.rs` files under `crates/`, leaving out `target/`, `tests/` and
# `benches/` directories and `golden.rs` fixtures, and reading each file
# only up to its first `#[cfg(test)]`.
#
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

find crates -name '*.rs' \
  -not -path '*/target/*' -not -path '*/tests/*' -not -path '*/benches/*' \
  -not -name golden.rs -print0 |
  xargs -0 awk '
    FNR == 1 { live = 1 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 }
    live && NF { n++ }
    END { print n + 0 }
  ' |
  awk '{ total += $1 } END { print total + 0 }'   # xargs may split the file list
