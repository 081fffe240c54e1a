#!/usr/bin/env bash
# check_surface.sh — hold the repository's surface to committed ceilings:
# the number of command-line flag definitions, in the four CLIs under cmd/
# and in the flag groups they share (internal/cli), and the number of
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
#
# Lowered by 39 lines, 19,701 to 19,662, and by two flags, 77 to 75, when
# fsck's Check and Repair began re-hashing through the restore executor
# (restore.Emit, uncharged, with a verify mode that reports each bad chunk
# and goes on) in place of their own section reader (hashSection,
# hashBatch), the two metadata walks became one, container.Store's
# uncalled Backend and LiveBytes went, and so did the crash switch
# (dedupd's and dedupsim's -crash.after, serve.Config.OnIngest): a SIGKILL
# after acknowledged uploads reaches the same state. internal/fsck plus
# internal/restore plus internal/container fell 2,658 to 2,655.
#
# Lowered by 240 lines, 19,662 to 19,422, when the file backend began
# mapping sealed sections read-only instead of copying them into slabs the
# restore lent it: the lending (Lender, WithLender, LenderFrom, Range), the
# ranged and packed reads in File.readSection and Store.Fetch, the plan's
# wanted ranges (buildWants, mergeRanges, wantHole, wholeReadCut) and the
# slab set (internal/restore/sections.go) went; the mapping primitive
# (FSFile.Map), the registry behind blockstore.Release and the fault guard
# (Guard) came. Flags stay at 75.
#
# Lowered by 15 lines, 19,422 to 19,407, and by 18 flag definitions, 75 to
# 57 (48 under cmd/, 9 in internal/cli), when the flags more than one CLI
# takes became groups in internal/cli that each CLI registers once
# (-telemetry.addr and -telemetry.events with the endpoint's start, -engine
# and -alpha, -backend and -store.dir, -restore.cache, -filter, -seed), the
# restore-mode vocabulary got one parser (repro.ParseRestoreMode),
# dedupsim's generation loop became repro.RunGenerations, the loop
# RunTrajectory runs, and defragbench's figure dispatch a table. The count
# now covers internal/cli, so moving a flag there does not lower it by
# itself. No flag was renamed or given a new default. Uncalled code went in
# the same change (RunFigure4, RunFigure5, telemetry.SetLogOutput and
# TracingEnabled, workload.Primary.Clustered, blockstore.Counting.Seals:
# 37 lines).
#
# Lowered by 144 lines, 19,407 to 19,263, when restores stopped simulating
# parallel read lanes and every figure began running repro.RunGenerations:
# RestoreOptions.Workers, restore.chargeLanes and the executor's multi-lane
# branch went (restore.PipelineConfig.Workers stays, ignored, because the
# perf rig sets it), the figures' own backup and restore helpers went, and
# the maintenance scheduler lost the trigger path only a test used. Flags
# stay at 57.
#
# Raised by 301 lines, 19,263 to 19,564, when liveness became a count: a
# copy is live while a retained recipe references it, and what only
# forgotten backups held is reclaimed. The store's live table
# (maintenance.Live: a dense row of reference counts per container, added
# at commit, subtracted at forget, moved at remap, rebuilt at open), the
# ingests' holds on the containers they name (container.Pins, carried in
# the context), the merge's purge of a victim's index entries and Check's
# comparison of the counts with the walk came; DeadScan, scanLiveness, the
# per-copy authoritative flag and container.Store.DeadBytes went. Flags stay
# at 57.
set -euo pipefail
cd "$(dirname "$0")/.."

max_flags=57
max_lines=19564

flags=$(grep -rhoE --include='*.go' --exclude='*_test.go' \
  '\bflag\.(Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Func|BoolFunc|Text|Var)(Var)?\(' cmd internal/cli | wc -l)
lines=$(find . -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l)
asm=$(find . -path ./bench -prune -o -name '*.s' -print0 | xargs -0 cat | wc -l)

echo "flags under cmd/ and internal/cli: $flags (ceiling $max_flags)"
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
