# CI entry points. `make ci` is the gate: vet (on amd64 and, cross-
# compiled, on arm64, so the generic fallback of the linalg assembly
# kernels keeps building) + build + tests + a short race pass over the
# concurrency-sensitive paths (Scorer, Runner, registry) + the
# GOMAXPROCS=1 inline pass + a short fuzz pass + the benchmark module's
# unit tests + the three dmtserve smokes.
#
# `make bench` runs the Benchmark*Op hot-path micro-benchmarks with
# -benchmem and writes BENCH_PR10.json (ns/op, B/op, allocs/op and
# custom metrics — the server load benchmarks report p50-ns/p99-ns/qps,
# the depth-sweep checkpoint benchmarks report ckpt-bytes/delta-bytes —
# per benchmark, joined with the baseline recorded before the PR-10
# model-racing work in bench/BASELINE_PR10.txt, plus the BENCH_PR2..PR9
# history as a cross-PR trend table), so the perf trajectory is tracked
# PR over PR.
# `make bench-all` additionally replays the full table/figure
# reproduction benchmarks.
# `make serve-smoke` runs the dmtserve self-test: an in-process
# prediction server under live training, a few hundred requests across
# both endpoints with one hot model swap mid-traffic, zero tolerated
# errors.
# `make chaos-smoke` runs the fault-tolerance self-test: a replica
# follows an in-process trainer through ~35% seeded injected faults
# (drops, resets, 5xx/429, truncated envelopes) and must converge to
# the trainer's final envelope version while a prediction hammer on the
# replica tolerates zero errors. The follower is delta-seeded, so the
# run also exercises ?since= delta chains (and their full-envelope
# fallback) under fault injection.
# `make race-smoke` runs the model-racing self-test: a three-arm race
# trainer (race:glm,vfdt,nb) learns a recurring-drift stream under a
# prediction hammer; the leader must change at least once, /statusz must
# carry the per-arm scoreboard, and zero requests may fail.
# `make fuzz` runs each native fuzz target — the binary row decoder, the
# checkpoint envelope reader, the checkpoint bundle reader and the
# bit identity of the linalg assembly kernels with their Go loops — for
# FUZZTIME on top of its committed corpus (testdata/fuzz); a failing
# input is written there. Minimizing a new input is capped at
# FUZZMINTIME: the checkpoint seeds run to kilobytes, and minimizing one
# under the default 60 s would spend the whole FUZZTIME without fuzzing.
# `make bench-unit` vets and tests bench/dmtperf, which is its own
# module and so is not reached by the root `go test ./...`.
# `make inline` re-runs the pool-vs-inline identity tests and the
# zero-alloc tests of the split scans and the worker pool under
# GOMAXPROCS=1, where the pool has no helpers and every fan-out runs
# inline on the caller, and checks the golden digests there too: the
# inline path must reproduce the digests the pooled path committed.

GO ?= go
BENCH_TXT ?= /tmp/repro_bench_current.txt
BENCHTIME ?= 1s
CHAOS_SPEC ?= drop@0.15,reset@0.05,status=503@0.05,status=429@0.02,truncate=512@0.1
CHAOS_SEED ?= 7
FUZZTIME ?= 10s
FUZZMINTIME ?= 1s

.PHONY: all ci vet build test race inline fuzz bench-unit bench bench-all serve-smoke chaos-smoke race-smoke fmt

all: ci

ci: vet build test race inline fuzz bench-unit serve-smoke chaos-smoke race-smoke

vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

inline:
	GOMAXPROCS=1 $(GO) test -count=1 -run 'Inline|EveryFeature|NormsCache|ZeroAllocs|Once|Completes' \
		./internal/core ./internal/hoeffding ./internal/pool
	GOMAXPROCS=1 $(GO) test -count=1 -run Golden .

fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBinaryRows$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzReadEnvelope$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINTIME) ./internal/persist
	$(GO) test -run '^$$' -fuzz '^FuzzReadBundle$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINTIME) ./internal/persist
	$(GO) test -run '^$$' -fuzz '^FuzzKernels$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINTIME) ./internal/linalg

bench-unit:
	cd bench/dmtperf && GOWORK=off $(GO) vet ./... && GOWORK=off $(GO) test ./...

bench:
	$(GO) test -run '^$$' -bench 'Op$$' -benchmem -benchtime $(BENCHTIME) ./... > $(BENCH_TXT)
	@cat $(BENCH_TXT)
	$(GO) run ./cmd/benchjson -new $(BENCH_TXT) -old bench/BASELINE_PR10.txt \
		-history BENCH_PR2.json,BENCH_PR3.json,BENCH_PR4.json,BENCH_PR5.json,BENCH_PR6.json,BENCH_PR8.json,BENCH_PR9.json -out BENCH_PR10.json
	@echo "wrote BENCH_PR10.json"

bench-all:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

serve-smoke:
	$(GO) run ./cmd/dmtserve -smoke

chaos-smoke:
	$(GO) run ./cmd/dmtserve -smoke -chaos '$(CHAOS_SPEC)' -chaos-seed $(CHAOS_SEED)

race-smoke:
	$(GO) run ./cmd/dmtserve -smoke -model 'race:glm,vfdt,nb'

fmt:
	gofmt -l .
