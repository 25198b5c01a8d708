#!/usr/bin/env bash
# Go line counts, the way CHANGES.md and ROADMAP.md quote them: non-test
# and test lines under internal/ + cmd/, and all of bench/.
set -euo pipefail
cd "$(dirname "$0")/.."
count() { find "$@" -print0 | xargs -0 cat | wc -l; }
echo "non-test Go, internal + cmd: $(count internal cmd -name '*.go' ! -name '*_test.go')"
echo "test Go, internal + cmd:     $(count internal cmd -name '*_test.go')"
echo "Go in bench/:                $(count bench -name '*.go')"
