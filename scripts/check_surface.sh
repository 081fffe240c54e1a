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
# Lowered by 5 lines, 19,740 to 19,735, and by one flag, 81 to 80, when the
# store's durable I/O moved behind one interface (blockstore.FS): the seam
# and its os implementation are 38 lines more than the code they replaced,
# and the crash points, the dedupd flag that armed them and the test-only
# StreamResolver.Resolve (43 lines) went. The multi-buffer SHA-256 kernel's
# assembly is reported on its own line below and has no ceiling.
#
# Lowered by 274 lines, 19,735 to 19,461, and by three flags, 80 to 77, when
# the fault injector and its retry layer left the product (Fault, Retry,
# FaultOptions, dedupsim -faults.*; tests make their own faults). That is net
# of what the same change added: a backup is no longer acknowledged over a
# container whose seal failed (container.Store.AwaitSealed, OnLost), and
# Repair condemns only on a read that proves damage.
#
# Lowered by 33 lines, 19,461 to 19,428, when the maintenance merge began
# copying through the restore executor (restore.Emit): the merge's own read
# loop, clock charge, victim re-hash and test hook went, the ingest
# pipeline's test-only hash fault hook went, and RunStreams' lanes became
# static. internal/maintenance plus internal/restore fell 2,121 to 2,110.
#
# Raised by 273 lines, 19,428 to 19,701, when ingest began cutting on the
# hash workers and jumping over chunks the last backup cut: the windows,
# their join and repair (which takes a chunk it already knows as a repeat,
# so a run of zeros is not cut and hashed again), the fingerprint check of a
# hinted chunk and the per-Store hint table (internal/engine +263), and the
# one-chunk cut, the key and the mask test the workers use
# (internal/chunker, net +10 after chunker.Scanner folded into Stream).
# Flags stay at 77.
set -euo pipefail
cd "$(dirname "$0")/.."

max_flags=77
max_lines=19701

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
