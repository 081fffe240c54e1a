#!/usr/bin/env bash
# check_coverage.sh — run the test suite with coverage and enforce a
# per-package floor. Floors are set ~5-8 points below the coverage each
# package had when its floor was introduced, so they trip on real
# regressions (a big untested feature landing) rather than on noise.
#
# Adding a package: land its tests, run `go test -cover ./...`, and add a
# floor a handful of points below what you measured.
#
# repro/cmd/dedupd is the exception: its tests re-exec the test binary as a
# real dedupd, and a child's statements count only if the child exits on its
# own and the toolchain merges the counters it leaves in GOCOVERDIR. Measured
# at PR 18 on go1.24: 73.8 % with the smoke-client test (children that run to
# completion), 22.4 % from the kill tests alone (server children die by
# SIGKILL or a simulated crash). The floor stays at 15, under the lower
# figure, so it reads the same on a toolchain that merges nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

declare -A floors=(
  [repro]=75
  [repro/cmd/dedupd]=15
  [repro/cmd/defragbench]=58
  [repro/internal/analysis]=90
  [repro/internal/blockstore]=70
  [repro/internal/bloom]=90
  [repro/internal/catalog]=85
  [repro/internal/chunk]=95
  [repro/internal/chunker]=85
  [repro/internal/cindex]=75
  [repro/internal/container]=75
  [repro/internal/core]=72
  [repro/internal/disk]=85
  [repro/internal/engine]=80
  [repro/internal/fanout]=92
  [repro/internal/engine/ddfs]=72
  [repro/internal/engine/idedup]=80
  [repro/internal/engine/silo]=85
  [repro/internal/engine/sparse]=88
  [repro/internal/fsck]=83
  [repro/internal/lru]=85
  [repro/internal/maintenance]=75
  [repro/internal/metrics]=88
  [repro/internal/minhash]=90
  [repro/internal/restore]=92
  [repro/internal/segment]=90
  [repro/internal/serve]=70
  [repro/internal/telemetry]=75
  [repro/internal/workload]=85
)

out=$(go test -count=1 -cover ./...)
printf '%s\n' "$out"
echo
echo "--- coverage floors ---"

fail=0
seen=""
while IFS= read -r line; do
  [[ $line == ok* ]] || continue
  pkg=$(awk '{print $2}' <<<"$line")
  pct=$(grep -o 'coverage: [0-9.]*%' <<<"$line" | grep -o '[0-9.]*' || true)
  [[ -n $pct ]] || continue
  floor=${floors[$pkg]:-}
  if [[ -z $floor ]]; then
    continue
  fi
  seen="$seen $pkg"
  if awk -v p="$pct" -v f="$floor" 'BEGIN{exit !(p < f)}'; then
    echo "FAIL  $pkg: ${pct}% < floor ${floor}%"
    fail=1
  else
    echo "ok    $pkg: ${pct}% >= ${floor}%"
  fi
done <<<"$out"

# A floored package that produced no coverage line (deleted, renamed, or
# its tests vanished) is also a regression.
for pkg in "${!floors[@]}"; do
  if [[ " $seen " != *" $pkg "* ]]; then
    echo "FAIL  $pkg: has a coverage floor but reported no coverage"
    fail=1
  fi
done

exit $fail
