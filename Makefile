# Local targets mirror .github/workflows/ci.yml so CI and dev runs are
# identical.

GO ?= go

.PHONY: all build vet test test-purego fuzz-smoke cover bench bench-smoke bench-repo bench-docs smoke chaos lint linkcheck fmtcheck wrappercheck logcheck loc clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test -race ./...

# The whole module with the assembly compiled out, as on arm64: every
# test — the core suite, the CLI, server and cluster goldens — runs the
# portable scan kernel, not only the kernel tests that force it.
test-purego:
	$(GO) test -race -tags purego ./...

# Every Fuzz* target in the module, 15 s each (FUZZTIME=... to change):
# the scan kernel against its reference, the list cursor against a
# model, and every decoder of outside bytes — manifest, segment file,
# legacy JSON, framed log, WAL and hint bodies, the HTTP request
# bodies of both servers, and the search answers the coordinator reads.
fuzz-smoke:
	GO=$(GO) ./scripts/fuzz_smoke.sh

cover:
	$(GO) test -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total coverage: $$total%"; \
	awk -v t="$$total" 'BEGIN { exit (t + 0 >= 70 ? 0 : 1) }' || \
		{ echo "total coverage $$total% is below the 70% floor"; exit 1; }

# Time-based, so every benchmark is warmed and iterated; one cold
# iteration (-benchtime=1x) measures start-up, not the code.
bench:
	$(GO) test -run '^$$' -bench=. -benchmem -benchtime=200ms ./...

# Compile every Benchmark* and run each once, so one cannot rot unseen;
# the numbers mean nothing (see bench).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The repo benchmark declared in BENCHMARK.json: its own tests, then
# three short workloads end to end (see bench/README.md for full runs).
# The second is the one the scan kernel carries; its verify step compares
# 200 exact answers hit for hit against core.SearchTopK. The third puts
# the coordinator in front: its verify step checks 200 coordinator
# answers hit for hit against a single-node reference — the guard on the
# search fan-out's covering set — and R-fold placement after reopen.
bench-repo:
	(cd bench && $(GO) vet . && $(GO) test .)
	bash bench/run.sh --workload serve-lsh-hit --seed 1 --seconds 6 --trace 0
	bash bench/run.sh --workload serve-exact-scan --seed 1 --seconds 6 --trace 0
	bash bench/run.sh --workload cluster-r2-mixed --seed 1 --seconds 6 --trace 0

# README's footprint numbers, rewritten from the newest entries
# scripts/bench_record.sh appended to BENCH_history.json; CI fails if
# they differ from what is committed.
bench-docs:
	./scripts/bench_docs.py

smoke:
	./scripts/smoke_http.sh

# The history checker under the race detector: the generated histories
# of seeds 1-50 plus one rotating seed (internal/cluster/history_test.go).
# Then searches racing snapshots that compact their stripe every round
# (TestSearchDuringCompaction in internal/core), three times over.
# CI runs exactly this; reproduce a failure with `CHAOS_SEED=<n> make chaos`.
chaos:
	CHAOS_SEED=$${CHAOS_SEED:-$$RANDOM} $(GO) test -race -count=1 -run 'TestFailureMatrix' -v ./internal/cluster
	$(GO) test -race -count=3 -run 'TestSearchDuringCompaction|TestSyncWALFailStop' ./internal/core

linkcheck:
	./scripts/check_links.sh

# gofmt -l prints the files it would change; any output is a failure.
fmtcheck:
	@out=$$(gofmt -l internal cmd bench); \
	if [ -n "$$out" ]; then echo "gofmt -l flags:"; echo "$$out"; exit 1; fi

# SearchTopK, SearchTopKCtx and SearchTopKLSHCtx are one-line wrappers
# over core.Index.Search kept only because bench/ compiles against them;
# their pool argument is ignored, since a search runs on its caller's
# goroutine. No Go file under internal/ or cmd/, tests included, but the
# one defining them may name them, so they can go without a hunt.
wrappercheck:
	@out=$$(grep -rnwE --include='*.go' 'SearchTopK|SearchTopKCtx|SearchTopKLSHCtx' internal cmd | grep -v '^internal/core/query\.go:'); \
	if [ -n "$$out" ]; then echo "bench-only search wrappers named outside internal/core/query.go:"; echo "$$out"; exit 1; fi

# One logger: each node role logs through its Shell's *slog.Logger. No
# non-test Go file under internal/ or cmd/ may declare a Logf field or a
# logf method, or import the stdlib "log" package, so a second logging
# path cannot grow back.
logcheck:
	@out=$$(grep -rnE --include='*.go' --exclude='*_test.go' '^\s*Logf\s+func|^func \([^)]*\) logf\(|^\s*(import\s+)?(\w+\s+)?"log"$$' internal cmd); \
	if [ -n "$$out" ]; then echo "a second logging path beside the Shell's slog.Logger:"; echo "$$out"; exit 1; fi

# The line counts CHANGES.md entries and ROADMAP re-anchors quote.
loc:
	@./scripts/loc.sh

lint: linkcheck fmtcheck wrappercheck logcheck
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run ./...; \
	else \
		echo "golangci-lint not installed; falling back to go vet"; \
		$(GO) vet ./...; \
	fi

clean:
	$(GO) clean ./...
	rm -f cover.out
