#!/usr/bin/env bash
# Tier-1 verification gate for the Lobster reproduction. Everything a PR
# must pass, in dependency order:
#
#   1. go build        — the tree compiles, here and for darwin/arm64
#                        (plus go vet of internal/runtime,
#                        internal/preproc and internal/dataset there), so
#                        the clock's non-linux fallback and the non-amd64
#                        stubs of the decode kernel (bodysum_other.go) and
#                        of the payload lanes (payload_other.go) are built
#                        on every gate; the
#                        kvstore tests also run as 386, where int is 32
#                        bits; and internal/runtime must not depend on
#                        internal/kvstore (one peer transport: DESIGN.md
#                        §16)
#   2. go vet          — the stock correctness checks
#   3. go test -race   — the full suite, module-wide, under the race detector
#   4. feed determinism — the prefetch feed, prefetch loop and loader
#                        work-ahead tests, the modeled-delay and teardown
#                        pins of the run, the node cache's decode lease
#                        tests, the barrier's one train wait, the
#                        sampler's prefetch walk and the
#                        allreduce, -race -count=10 at GOMAXPROCS 1, 2
#                        and 8: their verdict must not depend on
#                        scheduling (ROADMAP aim 3; the list is defined
#                        once, in make feed-determinism, which this runs)
#   5. lobster-lint    — the project's own static analysis (determinism,
#                        goroutine/mutex hygiene, errcheck, bounded
#                        queues, lock-order deadlocks, zero-alloc hot
#                        paths), analyzers fanned out across cores with
#                        per-analyzer wall time printed
#   6. sim goldens    — the six sim-figs figures replayed once at small
#                        scale (the scale `go test ./bench` does not
#                        reach) against bench/golden/sim.json; any
#                        differing value fails (same run: make sim-golden)
#   7. overload smoke  — tiny-scale sustained-overload bench plus schema
#                        check of the tail-latency fields in
#                        BENCH_kv.json (DESIGN.md §11; full run:
#                        make bench-kv)
#   8. kv frame fuzz   — 10 s of FuzzHandleFrame against the kvstore's
#                        one request parser (DESIGN.md §8)
#   9. decode fuzz     — 10 s of FuzzDecodeMatchesReference: the decode
#                        kernel, on every decode path the CPU runs,
#                        against the scalar oracle (DESIGN.md §6)
#  10. payload stream fuzz — 10 s of FuzzPayloadStream: FillPayload and
#                        VerifyPayload, on every payload path the CPU
#                        runs, against the serial xorshift stream
#                        (DESIGN.md §6)
#  11. sim bench smoke — BENCH_sim.json schema validation
#                        (full regeneration: make bench-sim)
#  12. obs bench smoke — BENCH_obs.json schema + overhead-budget
#                        validation (full regeneration: make bench-obs)
#  13. chaos bench smoke — tiny live run of the chaos recovery suite
#                        (straggler / brownout / node-loss scenarios,
#                        structural criteria) plus schema check of the
#                        committed BENCH_chaos.json (DESIGN.md §13;
#                        full regeneration: make bench-chaos)
#  14. monitor smoke   — boot lobster-kv with its monitor attached and
#                        scrape the live /metrics and /healthz endpoints
#  15. doctor smoke    — point lobster-doctor at the live monitor (the
#                        scrape/report path end to end over HTTP), then
#                        run an instrumented mini training run and check
#                        the doctor names at least one stall cause
#                        (DESIGN.md §14)
#
# Run from anywhere: the script cds to the repo root. `make check` is an
# alias for this script.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> go build ./..."
go build ./...

echo "==> internal/runtime does not import internal/kvstore"
if go list -deps ./internal/runtime | grep -qx 'repro/internal/kvstore'; then
  echo "internal/runtime depends on repro/internal/kvstore: the runtime has one peer transport, the distribution manager" >&2
  exit 1
fi

echo "==> darwin/arm64 cross-build (clock fallback, portable decode and payload stubs)"
GOOS=darwin GOARCH=arm64 go build ./... && GOOS=darwin GOARCH=arm64 go vet ./internal/runtime ./internal/preproc ./internal/dataset

echo "==> kvstore tests on 386 (32-bit int: shard routing, lane round-robin)"
GOARCH=386 go test ./internal/kvstore

echo "==> go vet ./..."
go vet ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> prefetch feed, prefetch loop, work-ahead, lease, walk and allreduce determinism (GOMAXPROCS 1, 2, 8)"
# The test list is defined once, in the Makefile's feed-determinism target.
make --no-print-directory feed-determinism

echo "==> lobster-lint -time ./..."
go run ./cmd/lobster-lint -time ./...

echo "==> sim goldens at small scale"
# The traced pass of sim-figs replays the six figures at small scale and
# exits non-zero when any reported value differs from its golden, naming
# it on a WRONG line (~15 s; the per-layer timings it prints are not
# judged here, and the contract JSON line is dropped).
go run ./bench --workload sim-figs --seed 7 --seconds 10 --trace 1 | grep -v '^{'

echo "==> kvstore overload bench smoke"
# Tiny-scale sustained-overload bench (DESIGN.md §11): proves the
# tail-latency harness runs end to end and schema-checks the
# goodput/shed/p99/p999 fields in its output and in the committed
# BENCH_kv.json (the full run is `make bench-kv`, which writes it).
LOBSTER_BENCH_KV=tiny go test ./internal/kvstore -run TestBenchKVJSON -count=1

echo "==> kv frame fuzz"
# Bounded fuzzing of the one request parser: every flag combination and
# the shed/drain paths against arbitrary bytes.
go test ./internal/kvstore -run '^$' -fuzz '^FuzzHandleFrame$' -fuzztime 10s

echo "==> decode kernel fuzz"
# Bounded fuzzing of the decode kernel: the one-pass AVX-512 path (where
# the CPU has AVX-512 VBMI) and the portable path, flip and jitter against
# the scalar oracle on arbitrary payloads.
go test ./internal/preproc -run '^$' -fuzz '^FuzzDecodeMatchesReference$' -fuzztime 10s

echo "==> payload stream fuzz"
# Bounded fuzzing of the payload lanes: FillPayload and VerifyPayload on
# the eight-lane AVX-512 path (where the CPU has AVX-512F) and the
# four-lane portable path, for arbitrary seed, id and length, against the
# serial xorshift stream, with one byte corrupted.
go test ./internal/dataset -run '^$' -fuzz '^FuzzPayloadStream$' -fuzztime 10s

echo "==> sim bench smoke"
# Schema validation of the committed BENCH_sim.json (the full run is
# `make bench-sim`, which regenerates it).
go test . -run TestBenchSimJSON -count=1

echo "==> obs bench smoke"
# Schema + disabled-overhead-budget validation of the committed
# BENCH_obs.json (the full run is `make bench-obs`, which regenerates it).
go test . -run TestBenchObsJSON -count=1

echo "==> chaos bench smoke"
# Tiny live run of the chaos recovery scenarios (deterministic schedules,
# structural pass criteria) plus schema validation of the committed
# BENCH_chaos.json (the full run is `make bench-chaos`, which regenerates
# it with the wall-clock criteria enabled).
LOBSTER_BENCH_CHAOS=tiny go test . -run TestBenchChaosJSON -count=1

echo "==> monitor scrape smoke"
# End-to-end over real TCP: boot lobster-kv with its monitor sidecar and
# scrape the live endpoints the way an operator's Prometheus would.
kv_bin="$(mktemp -d)/lobster-kv"
kv_log="$(mktemp)"
go build -o "$kv_bin" ./cmd/lobster-kv
"$kv_bin" -addr 127.0.0.1:0 -capacity 4MiB -stats-interval 1 -monitor 127.0.0.1:0 >"$kv_log" 2>&1 &
kv_pid=$!
trap 'kill "$kv_pid" 2>/dev/null || true' EXIT
mon_url=""
for _ in $(seq 1 100); do
  mon_url="$(sed -n 's#^monitor at \(http://[^/]*\)/metrics$#\1#p' "$kv_log")"
  [ -n "$mon_url" ] && break
  sleep 0.1
done
if [ -z "$mon_url" ]; then
  echo "monitor never came up; lobster-kv log:" >&2
  cat "$kv_log" >&2
  exit 1
fi
# Each output is captured whole before it is matched: under pipefail, a
# `grep -q` that exits at its first match would kill a writer that is
# still writing with SIGPIPE and fail the step.
metrics="$(curl -fsS "$mon_url/metrics")" \
  || { echo "live /metrics scrape failed" >&2; exit 1; }
grep -q '^lobster_kvstore_shard_items ' <<<"$metrics" \
  || { echo "live /metrics scrape missing lobster_kvstore_shard_items" >&2; exit 1; }
grep -q '^# TYPE lobster_kvstore_shard_hits_total counter' <<<"$metrics" \
  || { echo "live /metrics scrape missing kvstore counter metadata" >&2; exit 1; }
health="$(curl -fsS "$mon_url/healthz")" \
  || { echo "live /healthz scrape failed" >&2; exit 1; }
grep -q '"status":"ok"' <<<"$health" \
  || { echo "live /healthz is not healthy" >&2; exit 1; }
grep -q '"signals"' <<<"$health" \
  || { echo "live /healthz carries no health signals" >&2; exit 1; }

echo "==> doctor smoke"
# The doctor must ingest the live monitor over HTTP (its /metrics plus
# the /trace.json fed by traced kv requests) and produce a report...
doctor_bin="$(dirname "$kv_bin")/lobster-doctor"
go build -o "$doctor_bin" ./cmd/lobster-doctor
report="$("$doctor_bin" "$mon_url")" \
  || { echo "lobster-doctor failed on the live monitor" >&2; exit 1; }
grep -q '^lobster-doctor report' <<<"$report" \
  || { echo "lobster-doctor could not report on the live monitor" >&2; exit 1; }
kill "$kv_pid"
wait "$kv_pid" 2>/dev/null || true
trap - EXIT
# ...and, fed an instrumented training run, rank at least one stall
# cause (the in-process end-to-end: run -> monitor -> HTTP scrape ->
# ranked report).
go test ./internal/experiments -run TestDoctorEndToEnd -count=1

echo "ALL CHECKS PASSED"
