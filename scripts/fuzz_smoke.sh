#!/usr/bin/env bash
# Fuzz every Fuzz* target in the module for FUZZTIME (default 15s) each.
# Targets are discovered with `go test -list`, so a new one is picked up
# with no edit here. A crasher fails the run and leaves its input under
# the package's testdata/fuzz/<Target>/ — commit it with the fix.
set -euo pipefail
cd "$(dirname "$0")/.."
GO=${GO:-go}
for pkg in $($GO list ./...); do
  for target in $($GO test -list '^Fuzz' "$pkg" | grep '^Fuzz' || true); do
    echo "== $pkg $target"
    # A short minimize budget: the smoke is for finding crashers, and the
    # default spends most of a 15 s run shrinking merely interesting inputs.
    $GO test -run '^$' -fuzz "^${target}\$" -fuzztime "${FUZZTIME:-15s}" -fuzzminimizetime 2s "$pkg"
  done
done
