#!/usr/bin/env bash
# Line counts, the way CHANGES.md and ROADMAP.md quote them: non-test
# and test Go lines under internal/ + cmd/, all of bench/, and the
# assembly under internal/.
set -euo pipefail
cd "$(dirname "$0")/.."
count() { find "$@" -print0 | xargs -0 cat | wc -l; }
echo "non-test Go, internal + cmd: $(count internal cmd -name '*.go' ! -name '*_test.go')"
echo "test Go, internal + cmd:     $(count internal cmd -name '*_test.go')"
echo "Go in bench/:                $(count bench -name '*.go')"
echo "assembly (*.s), internal:    $(count internal -name '*.s')"
