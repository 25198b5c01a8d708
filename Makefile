# Local targets mirror .github/workflows/ci.yml so CI and dev runs are
# identical.

GO ?= go

.PHONY: all build vet test cover bench bench-repo smoke chaos lint linkcheck clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test -race ./...

cover:
	$(GO) test -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total coverage: $$total%"; \
	awk -v t="$$total" 'BEGIN { exit (t + 0 >= 70 ? 0 : 1) }' || \
		{ echo "total coverage $$total% is below the 70% floor"; exit 1; }

bench:
	$(GO) test -run '^$$' -bench=. -benchmem -benchtime=1x ./...

# The repo benchmark declared in BENCHMARK.json: its own tests, then one
# short workload end to end (see bench/README.md for full runs).
bench-repo:
	(cd bench && $(GO) vet . && $(GO) test .)
	bash bench/run.sh --workload serve-lsh-hit --seed 1 --seconds 6 --trace 0

smoke:
	./scripts/smoke_http.sh

# Failure matrix under the race detector: 25 pinned fault schedules
# plus one rotating seed. Reproduce a CI failure with
# `CHAOS_SEED=<n> make chaos`.
chaos:
	CHAOS_SEED=$${CHAOS_SEED:-$$RANDOM} $(GO) test -race -count=1 -run 'TestFailureMatrix' -v ./internal/cluster

linkcheck:
	./scripts/check_links.sh

lint: linkcheck
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run ./...; \
	else \
		echo "golangci-lint not installed; falling back to go vet"; \
		$(GO) vet ./...; \
	fi

clean:
	$(GO) clean ./...
	rm -f cover.out
