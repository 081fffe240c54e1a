#!/usr/bin/env bash
# check_surface.sh — hold the repository's surface to committed ceilings:
# the number of command-line flags the four CLIs define, and the number of
# non-test Go lines outside bench/ (the perf rig is its own module and is
# not counted). Either count above its ceiling fails.
#
# The ceilings are the counts when they were last lowered. A change that
# removes flags or lines should lower them to its own counts in the same
# commit, so the budget only ever moves down; a change that must grow the
# surface raises them and says why.
#
# Lowered by 115 lines, 19,855 to 19,740, when every paper figure moved onto
# the store's own path (Open, Store.Backup, Store.RestoreWith): the harness's
# hand-built engines and direct restores went, and api.go's newEngine is the
# one engine constructor; fsck.Check grew by 12 to read each referenced
# container once. The multi-buffer SHA-256 kernel's assembly is reported on
# its own line below and has no ceiling.
set -euo pipefail
cd "$(dirname "$0")/.."

max_flags=81
max_lines=19740

flags=$(grep -rhoE --include='*.go' --exclude='*_test.go' \
  '\bflag\.(Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Func|BoolFunc|Text|Var)(Var)?\(' cmd | wc -l)
lines=$(find . -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l)
asm=$(find . -path ./bench -prune -o -name '*.s' -print0 | xargs -0 cat | wc -l)

echo "flags under cmd/: $flags (ceiling $max_flags)"
echo "non-test Go lines outside bench/: $lines (ceiling $max_lines)"
echo "assembly lines outside bench/: $asm (reported, not counted)"

fail=0
if (( flags > max_flags )); then
  echo "FAIL  $flags flags > ceiling $max_flags"
  fail=1
fi
if (( lines > max_lines )); then
  echo "FAIL  $lines non-test lines > ceiling $max_lines"
  fail=1
fi
exit $fail
