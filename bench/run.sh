#!/usr/bin/env bash
# Entry point of BENCHMARK.json's command, run from the root of a
# checkout: builds the benchmark (this directory's module) into the
# checkout's .bench_build directory and runs it there with the arguments
# given. The Go build cache, temporary files and the toolchain's
# per-user state are kept inside the checkout as well, so a run reads
# and writes nothing outside it.
set -euo pipefail
root="$PWD"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
