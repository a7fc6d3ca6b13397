GO ?= go
FUZZTIME ?= 10s

# Perf-trajectory suite: core save/detect, downstream clustering, and the
# three neighbor indexes. `make bench` snapshots it into $(BENCHOUT) under
# $(BENCHKEY) (conventionally "before" at the start of a perf change and
# "after" at the end) via cmd/benchjson, which merges rather than
# overwrites so both snapshots survive in the committed file.
BENCHOUT ?= BENCH_10.json
BENCHKEY ?= after
BENCHPAT = BenchmarkSaveSingle$$|BenchmarkDetect$$|BenchmarkCluster|BenchmarkServeSave|BenchmarkGridWithin$$|BenchmarkGridCountWithin$$|BenchmarkGridKNN$$|BenchmarkVPTreeWithin$$|BenchmarkBruteWithin$$|BenchmarkDetectMixed$$|BenchmarkSaveSingleMixed$$|BenchmarkMutateInsert|BenchmarkRedetectTouched|BenchmarkMutateRebuild|BenchmarkDetectExactLattice

.PHONY: check build vet test race cover fuzz bench bench-check perfbench-check serve-smoke mutate-smoke shard-smoke lattice-smoke chaos drift profile

check: build vet race cover bench-check perfbench-check serve-smoke mutate-smoke shard-smoke lattice-smoke chaos drift fuzz

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run '^$$' -bench '$(BENCHPAT)' -benchmem . ./internal/neighbors ./internal/serve > .bench.out.tmp
	$(GO) run ./cmd/benchjson -out $(BENCHOUT) -key $(BENCHKEY) < .bench.out.tmp
	rm -f .bench.out.tmp

# Coverage summary: per-function percentages plus the total line, so a PR
# that drops a package's coverage shows up in the diff of `make cover`.
cover:
	$(GO) test -coverprofile=.cover.out.tmp ./...
	$(GO) tool cover -func=.cover.out.tmp | tail -n 1
	rm -f .cover.out.tmp

# Profile the mixed numeric+text pipeline (the compiled-kernel showcase,
# see docs/PERFORMANCE.md): discbench runs the `mixed` experiment with CPU
# and heap profiles written next to the repo root. Inspect with
# `go tool pprof cpu.prof`.
profile:
	$(GO) run ./cmd/discbench -exp mixed -cpuprofile cpu.prof -memprofile mem.prof
	@echo "wrote cpu.prof and mem.prof; open with: $(GO) tool pprof cpu.prof"

# Smoke pass: run every benchmark in the tree exactly once so a benchmark
# that panics or regresses into an error fails tier-1 without paying for a
# full measurement run.
bench-check:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./... > /dev/null

# The end-to-end benchmark is its own module (perfbench/go.mod replaces
# repro with ../), so the root `go build ./...` never compiles it. Vet and
# test it here so a change to the exported types it builds against fails
# the check instead of the next benchmark run.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Scripted serving round-trip: build discserve, drive a real listener
# through upload -> detect -> save -> repair -> oversize 413 -> SIGTERM
# drain (see serve_smoke_test.go).
serve-smoke:
	$(GO) test -run TestServeSmoke -count=1 .

# Scripted mutable-session round-trip: build discserve, drive a real
# listener through upload -> 40 single-tuple inserts (forcing a mid-stream
# delta merge) -> detect -> update -> delete -> save -> SIGTERM drain
# (see mutate_smoke_test.go).
mutate-smoke:
	$(GO) test -run TestMutateSmoke -count=1 .

# Scripted coordinator round-trip: build discserve, start three worker
# listeners plus a coordinator over them, drive upload -> detect -> save,
# SIGKILL one replica owner (failover save + degraded /varz + labeled
# /metrics), SIGKILL the second owner (503), then SIGTERM drain (see
# shard_smoke_test.go).
shard-smoke:
	$(GO) test -run TestShardSmoke -count=1 .

# Scripted streaming round-trip: build datagen and disccli, stream a 48k
# jittered-lattice CSV, run detect-and-repair and assert the emitted tuple
# and outlier counts and index counters (see lattice_smoke_test.go).
lattice-smoke:
	$(GO) test -run TestLatticeSmoke -count=1 .

# Docs drift gate: every json counter tag in obs must appear in the
# docs/OBSERVABILITY.md tables, and every tag the tables document must
# exist in the code (see telemetry_test.go).
drift:
	$(GO) test -run TestObservabilityDocsDrift -count=1 .

# Chaos suite: fault-injected restart loops, batcher panic recovery, and the
# subprocess SIGKILL harness (kill mid-snapshot-write, restart, assert
# recovery invariants) under -race, plus the durability-layer unit tests
# (snapshot format, fault sites, robust client).
chaos:
	$(GO) test -race -count=1 -run 'Chaos' . ./internal/serve ./internal/serve/coord
	$(GO) test -race -count=1 ./internal/snapshot ./internal/fault ./internal/serve/client

# Each fuzz target needs its own invocation: go test allows one -fuzz
# pattern per package run.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzSave -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzGridQueries -fuzztime=$(FUZZTIME) ./internal/neighbors
	$(GO) test -run='^$$' -fuzz=FuzzReadCSV -fuzztime=$(FUZZTIME) ./internal/data
	$(GO) test -run='^$$' -fuzz=FuzzLevenshteinMetric -fuzztime=$(FUZZTIME) ./internal/metric
	$(GO) test -run='^$$' -fuzz=FuzzNGramSimilarityBounds -fuzztime=$(FUZZTIME) ./internal/metric
