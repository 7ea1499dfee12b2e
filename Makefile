GO ?= go
BIN := bin
LINT := $(BIN)/lightpc-lint

.PHONY: all build test equivalence race race-parallel vet lint bench bench-json profile perfdiff fuzz-smoke obs-smoke energy-smoke crash-smoke ci clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

# equivalence: the serial/parallel equivalence checks, uncached and
# verbose so the log shows each comparison — the experiment suite at
# several -j, the metered obs sweep at several -j, and the worker pool.
equivalence:
	$(GO) test ./internal/experiments -run TestSerialParallelEquivalence -count=1 -v
	$(GO) test ./internal/obs/drive -run TestSweepEnergyParallelismInvariant -count=1 -v
	$(GO) test ./internal/runner -count=1

race:
	$(GO) test -race ./...

# race-parallel: the worker-pool parallelism tests (runner, experiment
# suite, obs sweep and crash sweep at several -j) under the race detector
# at a forced 8-way GOMAXPROCS, so the pools are exercised with real
# preemption even on small CI runners.
race-parallel:
	GOMAXPROCS=8 $(GO) test -race -count=1 \
		-run Parallel ./internal/runner ./internal/experiments ./internal/obs/drive ./internal/crashpoint

vet:
	$(GO) vet ./...

# lightpc-lint: the repo's own go/analysis suite, five analyzers
# (simtime, hotpath, plus the fact-based interprocedural passes
# detreach, zeroalloc, persistorder)
# run through go vet's -vettool hook over the whole module — internal/,
# cmd/, and examples/ alike. The wall time is printed so CI logs track
# the cost of the suite as it grows.
$(LINT): FORCE
	$(GO) build -o $(LINT) ./cmd/lightpc-lint
FORCE:

lint: $(LINT)
	@start=$$(date +%s%N); \
	$(GO) vet -vettool=$(CURDIR)/$(LINT) ./... && \
	echo "lint: 5 analyzers clean over ./... in $$(( ($$(date +%s%N) - start) / 1000000 )) ms"

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-json: snapshot every figure benchmark (one iteration each) plus the
# parallel runner's measured speedup into BENCH_SEED.json.
bench-json:
	$(GO) run ./cmd/lightpc-benchseed -out BENCH_SEED.json

# profile: CPU+heap profile of the quick experiment suite. Inspect with
#   go tool pprof -top bin/profile-cpu.out
profile: | $(BIN)
	$(GO) run ./cmd/lightpc-bench -quick -j 1 \
		-cpuprofile $(BIN)/profile-cpu.out -memprofile $(BIN)/profile-mem.out > /dev/null
	@echo "profiles: $(BIN)/profile-cpu.out $(BIN)/profile-mem.out"

$(BIN):
	mkdir -p $(BIN)

# perfdiff: regenerate a fresh benchmark snapshot and compare it against the
# checked-in BENCH_SEED.json, flagging >10% time or alloc regressions.
# Report-only by default; PERFDIFF_FLAGS=-strict makes regressions fail.
perfdiff: | $(BIN)
	$(GO) run ./cmd/lightpc-benchseed -out $(BIN)/bench-new.json
	$(GO) run ./cmd/lightpc-perfdiff -old BENCH_SEED.json -new $(BIN)/bench-new.json $(PERFDIFF_FLAGS)

# fuzz-smoke: a short native-fuzzing pass over each codec/parser target, the
# line tables, the PMEM-DIMM LRU tier and the crash-cut engine (the checked-in corpora also replay
# as plain seeds in `make test`). FUZZTIME sets each target's budget; CI
# runs it with FUZZTIME=10s.
FUZZTIME ?= 2s

fuzz-smoke:
	$(GO) test ./internal/workload -run='^$$' -fuzz=FuzzReplayParse -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/workload -run='^$$' -fuzz=FuzzTraceRoundTrip -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/linetab -run='^$$' -fuzz=FuzzLineTab -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/crashpoint -run='^$$' -fuzz=FuzzCrashCut -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/crashpoint -run='^$$' -fuzz=FuzzForkCut -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/pmemdimm -run='^$$' -fuzz=FuzzLRU -fuzztime=$(FUZZTIME)

# obs-smoke: run one instrumented SnG scenario, a 4-seed sweep, and one
# scenario on each of the LegacyPC and LightPC-B platforms through
# lightpc-obs, then re-validate every artifact with the built-in schema
# validators (Chrome trace-event JSON, Prometheus text 0.0.4).
obs-smoke: | $(BIN)
	$(GO) build -o $(BIN)/lightpc-obs ./cmd/lightpc-obs
	$(BIN)/lightpc-obs -q -workload Redis \
		-trace $(BIN)/obs-sng.json -metrics $(BIN)/obs-sng.prom -metrics-json $(BIN)/obs-sng.metrics.json
	$(BIN)/lightpc-obs -check-trace $(BIN)/obs-sng.json -check-prom $(BIN)/obs-sng.prom
	$(BIN)/lightpc-obs -q -mode sweep -seeds 1,2,3,4 -j 4 \
		-trace $(BIN)/obs-sweep.json -metrics $(BIN)/obs-sweep.prom
	$(BIN)/lightpc-obs -check-trace $(BIN)/obs-sweep.json -check-prom $(BIN)/obs-sweep.prom
	$(BIN)/lightpc-obs -q -platform legacy -workload Redis \
		-trace $(BIN)/obs-legacy.json -metrics $(BIN)/obs-legacy.prom
	$(BIN)/lightpc-obs -check-trace $(BIN)/obs-legacy.json -check-prom $(BIN)/obs-legacy.prom
	$(BIN)/lightpc-obs -q -platform b -workload Redis \
		-trace $(BIN)/obs-b.json -metrics $(BIN)/obs-b.prom
	$(BIN)/lightpc-obs -check-trace $(BIN)/obs-b.json -check-prom $(BIN)/obs-b.prom

# energy-smoke: run one metered power cycle (energy mode prints the
# per-phase joule attribution and the hold-up feasibility verdict) plus a
# metered 2-seed sweep, then re-validate the artifacts — the energy
# counter lanes must pass the Chrome trace validator and the joule gauges
# the Prometheus validator.
energy-smoke: | $(BIN)
	$(GO) build -o $(BIN)/lightpc-obs ./cmd/lightpc-obs
	$(BIN)/lightpc-obs -q -mode energy -workload Redis \
		-trace $(BIN)/obs-energy.json -metrics $(BIN)/obs-energy.prom -metrics-json $(BIN)/obs-energy.metrics.json
	$(BIN)/lightpc-obs -check-trace $(BIN)/obs-energy.json -check-prom $(BIN)/obs-energy.prom
	$(BIN)/lightpc-obs -q -mode sweep -energy -seeds 1,2 -j 2 \
		-trace $(BIN)/obs-energy-sweep.json -metrics $(BIN)/obs-energy-sweep.prom
	$(BIN)/lightpc-obs -check-trace $(BIN)/obs-energy-sweep.json -check-prom $(BIN)/obs-energy-sweep.prom

# crash-smoke: a bounded crash-point adversary pass — word-granular
# enumeration of every persistence mechanism, a bisection locating the
# exact commit instant inside the hold-up window, and a small cut-matrix
# sweep. Any invariant violation fails the target; the wall time is
# printed so CI logs track the cost as scenarios grow.
crash-smoke: | $(BIN)
	@start=$$(date +%s%N); \
	$(GO) build -o $(BIN)/lightpc-crash ./cmd/lightpc-crash && \
	$(BIN)/lightpc-crash -mode enum -target all -q && \
	$(BIN)/lightpc-crash -mode bisect -q && \
	$(BIN)/lightpc-crash -mode sweep -workloads Redis -seeds 1 -cuts 4 -j 0 -q && \
	echo "crash-smoke: all recovery invariants hold in $$(( ($$(date +%s%N) - start) / 1000000 )) ms"

# ci runs every step of the CI workflow. perfdiff is CI's separate
# perfdiff job: its time deltas stay report-only, but a benchmark the seed
# pins at 0 allocs/op that now allocates fails (target-specific flags,
# which a PERFDIFF_FLAGS on the command line still overrides).
ci: PERFDIFF_FLAGS ?= -strict-zero-alloc
ci: build vet lint test equivalence race race-parallel fuzz-smoke obs-smoke energy-smoke crash-smoke perfdiff

clean:
	rm -rf $(BIN)
