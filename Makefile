# Convenience targets around the tier-1 gate (verify.sh is the source
# of truth; CI runs it directly). The determinism test list lives here
# once, in feed-determinism, which verify.sh runs.

GO ?= go

.PHONY: check build vet test race feed-determinism census lint sim-golden bench bench-short bench-kv bench-sim bench-obs bench-chaos

## check: the full tier-1 gate (build + vet + race tests + lobster-lint)
check:
	./verify.sh

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## feed-determinism: the prefetch feed, prefetch loop and loader work-ahead
## tests, the run's modeled-delay and teardown pins, the node cache's decode
## lease tests, the sampler's prefetch walk under the feed and the allreduce
## (the iteration barrier) under -race, ten times each at GOMAXPROCS 1, 2
## and 8 (verify.sh step 4 runs this target)
feed-determinism:
	for procs in 1 2 8; do \
		GOMAXPROCS=$$procs $(GO) test -race -count=10 -run 'PrefetchFeed|PrefetchHelpers|PrefetchLoop|RetryTransient|RunRequestsModeledDelays|RunReleasesClock|WorkAhead|Lease|AllreduceIsTheIterationBarrier' ./internal/runtime || exit 1; \
		GOMAXPROCS=$$procs $(GO) test -race -count=10 -run 'Walk|NodeWindow' ./internal/sampler || exit 1; \
		GOMAXPROCS=$$procs $(GO) test -race -count=10 ./internal/allreduce || exit 1; \
	done

## census: every package whose tests start goroutines, -count=20 at
## GOMAXPROCS 1, 2 and 8, then once more beside a CPU hog of twice the core
## count; prints each package's failed-test count per pass and the names
## of the tests that failed. Not part of verify.sh: about 25 minutes on a
## 2-core machine.
census:
	@census_pass() { \
		for pkg in runtime experiments doctor kvstore preproc obs monitor allreduce par; do \
			out=$$($(GO) test -count=20 -timeout 60m ./internal/$$pkg 2>&1); rc=$$?; \
			fails=$$(printf '%s\n' "$$out" | grep -c '^--- FAIL'); \
			echo "census: $$1 $$pkg: $$fails failed (exit $$rc)"; \
			printf '%s\n' "$$out" | grep -E '^ *--- FAIL' | sed 's/ (.*//' | sort | uniq -c | sed 's/^/census:     /'; \
		done; \
	}; \
	for procs in 1 2 8; do export GOMAXPROCS=$$procs; census_pass "GOMAXPROCS=$$procs"; done; \
	unset GOMAXPROCS; hogs=""; \
	trap 'kill $$hogs 2>/dev/null' EXIT INT TERM; \
	for i in $$(seq $$((2 * $$(nproc)))); do sh -c 'while :; do :; done' & hogs="$$hogs $$!"; done; \
	census_pass "hog"

## lint: the project-specific static analysis suite (analyzers run
## concurrently; -time prints per-analyzer wall time)
lint:
	$(GO) run ./cmd/lobster-lint -time ./...

## sim-golden: replay the six sim-figs figures at small scale against
## bench/golden/sim.json (go test ./bench checks them at tiny scale only);
## exits non-zero on any differing value (verify.sh runs the same command)
sim-golden:
	$(GO) run ./bench --workload sim-figs --seed 7 --seconds 10 --trace 1

## bench: the repository's one benchmark (BENCHMARK.json, bench/README.md):
## five workloads, end-to-end pass plus traced per-layer pass, goldens
## checked. bench-short is the ~10x shorter smoke, never a recorded number.
bench:
	$(GO) run ./bench

bench-short:
	$(GO) run ./bench -short

## bench-kv: run the kvstore micro-benchmarks and the overload bench
## and record ops/sec, B/op, p99, goodput and shed rates in
## BENCH_kv.json at the repo root.
bench-kv:
	LOBSTER_BENCH_KV=1 $(GO) test ./internal/kvstore -run TestBenchKVJSON -count=1 -v -timeout 30m

## bench-sim: rerun the representative figure benchmarks plus the
## multi-campaign sweep fan-out bench and record wall time, ns/op, B/op
## and allocs/op in BENCH_sim.json at the repo root.
bench-sim:
	LOBSTER_BENCH_SIM=1 $(GO) test . -run TestBenchSimJSON -count=1 -v -timeout 30m

## bench-obs: measure the instrumentation layer's overhead — full online
## runs with no/disabled/enabled instruments plus per-call instrument
## micro-benchmarks — and record it in BENCH_obs.json at the repo root.
bench-obs:
	LOBSTER_BENCH_OBS=1 $(GO) test . -run TestBenchObsJSON -count=1 -v -timeout 30m

## bench-chaos: run the full-scale chaos recovery suite (straggler, PFS
## brownout, node loss mid-epoch) with the wall-clock criteria enabled
## and record per-scenario verdicts, event logs, failover counters and
## degradation/recovery in BENCH_chaos.json at the repo root.
bench-chaos:
	LOBSTER_BENCH_CHAOS=1 $(GO) test . -run TestBenchChaosJSON -count=1 -v -timeout 30m
