# The repo's gates, one list: the jobs of .github/workflows/ci.yml run
# these targets instead of copies of their commands, and `make ci` runs
# them all here. Three gates stay outside `make ci`:
#   - staticcheck and govulncheck (`make lint`, `make vuln`) stay CI-only,
#     because their CI jobs install the tools first;
#   - the kernel timing gate is `make bench-check` here. CI's bench job
#     runs the same pair (scripts/bench-run.sh, cmd/benchtool check) at
#     BENCH_TOLERANCE=0.40 and keeps the raw run as a build artifact.

GO ?= go

.PHONY: build test race bench bench-record bench-check vet vet-generic perfbench-check fuzz fmt-check shard-smoke sweep-smoke serve-smoke fleet-smoke federation-smoke loadgen-smoke pprof-smoke examples-smoke lint vuln ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Compile and vet the pure-Go kernel bodies that every non-amd64 build
# uses; on amd64, `vet` already checks the assembly with asmdecl.
vet-generic:
	GOARCH=arm64 $(GO) vet ./...

# perfbench/ is its own Go module, so the root module's build, vet and
# test never compile it; this keeps its calls into internal/ honest.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The tests twice: `test` checks the goldens on the AVX2 kernel bodies
# (on amd64 CPUs with AVX2), `race` on the Go loops, which every -race
# build runs.
test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Bounded fuzzing of the AVX2 kernels (drive sums with their in-kernel
# row checks, the LIF step with its inhibition pass, the training
# chain's normalize-and-clamp pass and trace decay, and the four-lane
# Poisson rate coder) against their Go references, of the STDP update's
# branch-free clamp against the branchy loop on raw weight bits, of the
# evaluator's patched weight load against the full load, of the
# sweep-spec validation on raw float bit patterns, of job-spec
# normalization on raw JSON, of the store's envelope decode on one-byte
# mutations, of the W3C traceparent parser on raw strings, and of the
# IDX dataset readers on raw files (go test -fuzz takes one target and
# one package per run).
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzSumRows$$' -fuzztime=20s ./internal/numeric
	$(GO) test -run='^$$' -fuzz='^FuzzNormalizeClamp$$' -fuzztime=20s ./internal/numeric
	$(GO) test -run='^$$' -fuzz='^FuzzStep$$' -fuzztime=20s ./internal/neuron
	$(GO) test -run='^$$' -fuzz='^FuzzQuadEncode$$' -fuzztime=20s ./internal/coding
	$(GO) test -run='^$$' -fuzz='^FuzzApplySTDP$$' -fuzztime=20s ./internal/snn
	$(GO) test -run='^$$' -fuzz='^FuzzPatchedLoad$$' -fuzztime=20s ./internal/snn
	$(GO) test -run='^$$' -fuzz='^FuzzSpecValidate$$' -fuzztime=20s ./internal/engine
	$(GO) test -run='^$$' -fuzz='^FuzzJobSpecNormalize$$' -fuzztime=20s .
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeEnvelope$$' -fuzztime=20s ./internal/store
	$(GO) test -run='^$$' -fuzz='^FuzzParseTraceparent$$' -fuzztime=20s ./internal/tracing
	$(GO) test -run='^$$' -fuzz='^FuzzReadIDX$$' -fuzztime=20s ./internal/dataset

# Quick-mode benchmark smoke run: every kernel benchmark
# (kernel_bench_test.go, the repo's only Benchmark functions) executes
# exactly one iteration end to end. This only proves the benchmarks
# still run; real measurement is bench-record / bench-check below.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# Measure the hot kernels with fixed iteration counts (-count=3,
# min-of-runs) and rewrite the committed baseline BENCH_kernel.json.
# Run on a quiet machine when a PR intentionally changes kernel perf,
# then commit the diff.
bench-record:
	./scripts/bench-record.sh

# Same measurement, gated against the committed baseline: fails if any
# tracked benchmark's ns/op regressed more than 25% (override with
# BENCH_TOLERANCE=<fraction>).
bench-check:
	./scripts/bench-check.sh

# The 2-way shard split of the experiment suite and of `sparkxd run`'s
# pipeline grid: each shard's JSON records must be byte-identical at 4
# workers and at 1 (experiments) and at 2 and at 1 (sparkxd run).
# RUN_GRID is small enough that one configuration fails at map; `run`
# then writes its failure record and exits 1, so exit 1 is accepted and
# any other non-zero exit fails. CI's experiments matrix runs one shard
# per job (SHARDS=i/2).
SHARDS ?= 1/2 2/2
RUN_GRID = -neurons 20,30 -datasets mnist,fashion -train 40 -test 16 -epochs 1
shard-smoke: build
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/sparkxd" ./cmd/sparkxd; \
	for s in $(SHARDS); do \
		echo "shard $$s: workers 4 vs 1"; \
		$(GO) run ./cmd/experiments run --workers 4 --shard $$s --json > "$$dir/w4.json"; \
		$(GO) run ./cmd/experiments run --workers 1 --shard $$s --json > "$$dir/w1.json"; \
		cmp "$$dir/w4.json" "$$dir/w1.json"; \
		echo "shard $$s: sparkxd run, workers 2 vs 1"; \
		for w in 2 1; do \
			"$$dir/sparkxd" run $(RUN_GRID) -workers $$w -shard $$s -json > "$$dir/r$$w.json" || [ $$? -eq 1 ]; \
		done; \
		test -s "$$dir/r1.json"; \
		cmp "$$dir/r2.json" "$$dir/r1.json"; \
	done

# Scenario-sweep engine smoke: a tiny multi-axis grid on 2 workers,
# cross-checked byte-identical against the sequential (workers=1) run.
sweep-smoke: build
	./scripts/sweep-smoke.sh

# Job-service smoke: start `sparkxd serve` on a random port, submit a
# tiny sweep twice through the Go client (same deterministic job ID),
# poll to completion, `cmp` the fetched artifact payload against the
# in-process `sparkxd sweep` output, check the local job's trace nests
# job -> queue-wait + lease -> execute -> stage:*, and check that a grid
# the sweep would refuse answers 400 at submission and creates no job.
serve-smoke: build
	./scripts/serve-smoke.sh

# Distributed-fleet smoke: coordinator + two workers, one killed -9
# mid-job (lease expiry requeues it), result `cmp`-identical to the
# in-process sweep; then a coordinator restart on the same store serves
# the resubmission from the persisted job record without re-executing.
fleet-smoke: build
	./scripts/fleet-smoke.sh

# Federation smoke: a `sparkxd store serve` shared store + two sharded
# coordinators + two workers; a mixed batch submitted through one
# coordinator (the CLI follows 421 misdirects), one coordinator killed
# -9 mid-queue and replaced (queued jobs restored from durable records),
# every artifact `cmp`-identical to the in-process sweep.
federation-smoke: build
	./scripts/federation-smoke.sh

# Observability/admission smoke: coordinator with tight per-submitter
# rate limiting + two workers with /metrics endpoints, driven by
# `sparkxd loadgen`; asserts a clean v1 report (0 failed, 429s retried
# to completion) and nonzero lease/latency series on /metrics.
loadgen-smoke: build
	./scripts/loadgen-smoke.sh

# Diagnostics smoke: every serving binary's -debug-addr listener must
# serve the pprof index, a heap profile, and /debug/vars; the
# coordinator's stderr must be structured JSON keyed by job ID; and
# `sparkxd version` must agree with /v1/healthz.
pprof-smoke: build
	./scripts/pprof-smoke.sh

# Run every example and both CLIs end to end on tiny budgets, including
# the persist-then-resume artifact round-trip of `sparkxd single`.
examples-smoke: build
	$(GO) run ./examples/quickstart -tiny
	$(GO) run ./examples/faultaware -tiny
	$(GO) run ./examples/mapping
	$(GO) run ./examples/voltagesweep
	$(GO) run ./cmd/sparkxd single -neurons 40 -train 60 -test 30 -epochs 1 -artifacts /tmp/sparkxd-arts -quiet
	$(GO) run ./cmd/sparkxd single -neurons 40 -train 60 -test 30 -epochs 1 -resume /tmp/sparkxd-arts -quiet
	$(GO) run ./cmd/dramsim -weights 78400 -policy sparkxd -voltage 1.1

# Static analysis / vulnerability scan; both need their tools on PATH
# (go install honnef.co/go/tools/cmd/staticcheck@v0.4.7,
#  go install golang.org/x/vuln/cmd/govulncheck@latest).
lint:
	staticcheck ./...

vuln:
	govulncheck ./...

ci: build vet vet-generic perfbench-check fmt-check test race fuzz bench examples-smoke sweep-smoke serve-smoke fleet-smoke federation-smoke loadgen-smoke pprof-smoke shard-smoke
