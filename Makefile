GO ?= go

.PHONY: check fmt vet build test test-race bench bench-diff bench-gate profile

check: fmt vet build test-race

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# bench runs the root benchmark suite once (fixed seeds, -benchtime 1x,
# -benchmem for B/op and allocs/op) and writes the raw `go test -json` stream
# to BENCH_<n>.json, where n is one past the highest existing baseline —
# compare files across commits to track drift.
#
# BENCH_<n>.json numbering is append-only: never renumber or overwrite a
# committed baseline. benchdiff and bench-gate always compare against the
# highest-numbered file, so each `make bench` extends the trajectory
# (BENCH_1 → BENCH_2 → …) and history stays diffable across commits.
bench:
	@n=1; while [ -e "BENCH_$$n.json" ]; do n=$$((n+1)); done; \
	out="BENCH_$$n.json"; \
	echo "writing $$out"; \
	$(GO) test -json -run '^$$' -bench . -benchtime 1x -benchmem . > "$$out" || { rm -f "$$out"; exit 1; }

# bench-diff prints an old/new/delta table for the two newest committed
# baselines (second-highest n = old, highest n = new).
bench-diff:
	$(GO) run ./cmd/benchdiff

# bench-gate re-runs the Fig. 5 sweep benchmarks, the Fig. 7 solver bench
# (which has a fixed branch-&-bound node budget, so its ns/op tracks solver
# throughput), the hot-path allocation benches (core.PM and Context.Build
# rotating over every 2-controller ATT case), the million-flow scale bench,
# the plan-store benches, the hierarchical-planning benches (the 1000-node
# sweep, whose multi-second iterations are robust by construction, and the
# min-ns-contention-robust partitioner), and the delta-sweep engine bench
# (min-ns robust), and fails if any of them
# regressed by more than 20% ns/op — or 10% allocs/op — against the newest
# committed BENCH_<n>.json baseline. CI runs this on every change.
GATE_BENCHES = BenchmarkFig5|BenchmarkFig7ComputationTime|BenchmarkAlgorithmPM$$|BenchmarkScenarioContextBuild$$|BenchmarkMillionFlow$$|BenchmarkPlanStoreLookup$$|BenchmarkPlanStoreCompile$$|BenchmarkHierarchical1000$$|BenchmarkRegionPartition$$|BenchmarkSweepDelta$$

bench-gate:
	@base=""; n=1; while [ -e "BENCH_$$n.json" ]; do base="BENCH_$$n.json"; n=$$((n+1)); done; \
	[ -n "$$base" ] || { echo "bench-gate: no BENCH_<n>.json baseline (run make bench)"; exit 1; }; \
	new="$$(mktemp)"; trap 'rm -f "$$new"' EXIT; \
	echo "comparing against $$base"; \
	$(GO) test -json -run '^$$' -bench '$(GATE_BENCHES)' -benchtime 3x -benchmem . > "$$new" || exit 1; \
	$(GO) run ./cmd/benchdiff -gate '$(GATE_BENCHES)' -max-regress 0.20 -max-allocs-regress 0.10 "$$base" "$$new"

# profile captures CPU and heap profiles of a pmsim evaluation run into
# ./profiles; inspect with `go tool pprof profiles/pmsim.cpu.pb.gz`.
profile:
	@mkdir -p profiles
	$(GO) run ./cmd/pmsim -scenario 2 -skip-optimal -cpuprofile profiles/pmsim.cpu.pb.gz -memprofile profiles/pmsim.mem.pb.gz > /dev/null
	@echo "wrote profiles/pmsim.cpu.pb.gz profiles/pmsim.mem.pb.gz"
