# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-short bench bench-hot bench-decode bench-decode-json bench-json bench-diff-all tables fuzz vet fmt examples

all: vet test build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Hot-path microbenchmarks only: the open-addressed page directory vs the
# seed's Go map, slab-pooled vs heap-allocated treap nodes, the async event
# ring, the compact-vs-fixed event codec, the sync-vs-async per-access hook
# cost, and the racy-workload quiescing pair.
bench-hot:
	$(GO) test -run '^$$' -bench 'BenchmarkTreapInsert|BenchmarkShadowDirectory' -benchmem ./internal/core ./internal/shadow
	$(GO) test -run '^$$' -bench 'BenchmarkRing|BenchmarkEventEncode|BenchmarkEventDecode' -benchmem ./internal/evstream
	$(GO) test -run '^$$' -bench 'BenchmarkHookOverhead|BenchmarkRunnerReset' -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkFig5RacyQuiesce' -benchtime 10x -benchmem .

# Decode-kernel sweep: every op mix (sequential same-size, range-heavy,
# random-address, ctl-dense) across the three decode paths (fixed slice
# scan, compact per-event Next shim, compact block kernel), plus the
# headline encode/decode pair the ≤1.5×-of-fixed target is stated against.
# Snapshot with `make bench-decode-json` (writes BENCH_<date>_blockdecode.json,
# verified by bench-diff-all: the BenchmarkEventDecode pattern there
# prefix-matches BenchmarkEventDecodeBlock too).
bench-decode:
	$(GO) test -run '^$$' -bench 'BenchmarkEventEncode|BenchmarkEventDecode' -benchtime 2s ./internal/evstream

bench-decode-json:
	GOMAXPROCS=4 BENCHTIME=2s BENCHCOUNT=3 ./scripts/benchdiff.sh emit 'BenchmarkEventEncode|BenchmarkEventDecode' ./internal/evstream > BENCH_$$(date +%Y%m%d)_blockdecode.json
	@echo wrote BENCH_$$(date +%Y%m%d)_blockdecode.json

# Machine-readable benchmark snapshot: one JSON line per benchmark, written
# to BENCH_<date>.json. Compare two snapshots with scripts/benchdiff.sh diff.
bench-json:
	./scripts/benchdiff.sh emit 'BenchmarkFig5|BenchmarkRunnerReset|BenchmarkEventEncode|BenchmarkEventDecode' . ./internal/evstream > BENCH_$$(date +%Y%m%d).json
	@echo wrote BENCH_$$(date +%Y%m%d).json

# Trace-ingest service snapshot: warm-pool vs fresh-runner-per-trace
# traces/sec through the full HTTP round-trip (see internal/serve).
# Verified by bench-diff-all's serve leg.
bench-serve-json:
	BENCHTIME=200x ./scripts/benchdiff.sh emit 'BenchmarkServeThroughput' ./internal/serve > BENCH_$$(date +%Y%m%d)_serve.json
	@echo wrote BENCH_$$(date +%Y%m%d)_serve.json

# Re-run every Fig5 benchmark (sync and async modes share one snapshot
# schema) plus the event-codec microbenchmarks,
# and fail if any mode regressed ns/op by more than 10% against the
# checked-in snapshots. Two legs because two methodologies: the quick
# 3x-iteration leg only covers the Fig5 macro walls (milliseconds, where 3
# iterations measure something) against every snapshot except the
# blockdecode ones; the nanosecond-scale codec microbenchmarks re-run at
# BENCHTIME=2s best-of-3 —
# the methodology the blockdecode snapshots were emitted with — against
# exactly those snapshots. Mixing the methodologies reads as phantom
# thousand-percent regressions: 3 iterations of a 7 ns op is timer noise.
# The decode leg's default tolerance is 25% rather than 10% because the
# snapshot records best-of-N floors and a fresh floor on a busy machine
# sits 10-20% above a quiet one; the catastrophic regressions the gate
# exists for (an accidental O(n), a dropped fast path) are multiples, not
# percents. BENCHDIFF_MAX_REGRESSION still overrides both legs.
bench-diff-all:
	./scripts/benchdiff.sh emit 'BenchmarkFig5' . > /tmp/stint_bench_head.json
	./scripts/benchdiff.sh check /tmp/stint_bench_head.json $$(ls BENCH_*.json | grep -v _blockdecode | grep -v _serve)
	GOMAXPROCS=4 BENCHTIME=2s BENCHCOUNT=3 ./scripts/benchdiff.sh emit 'BenchmarkEventEncode|BenchmarkEventDecode' ./internal/evstream > /tmp/stint_bench_decode.json
	BENCHDIFF_MAX_REGRESSION=$${BENCHDIFF_MAX_REGRESSION:-25} ./scripts/benchdiff.sh check /tmp/stint_bench_decode.json BENCH_*_blockdecode.json
	BENCHTIME=200x ./scripts/benchdiff.sh emit 'BenchmarkServeThroughput' ./internal/serve > /tmp/stint_bench_serve.json
	BENCHDIFF_MAX_REGRESSION=$${BENCHDIFF_MAX_REGRESSION:-25} ./scripts/benchdiff.sh check /tmp/stint_bench_serve.json BENCH_*_serve.json

# Regenerate every table of the paper's evaluation (see EXPERIMENTS.md).
tables:
	$(GO) run ./cmd/stint-tables -reps 3 all

# Short fuzz sessions over every fuzz target.
fuzz:
	$(GO) test -fuzz=FuzzTreeAgainstOracle -fuzztime=30s ./internal/core
	$(GO) test -fuzz=FuzzSetRangeFlush -fuzztime=30s ./internal/coalesce
	$(GO) test -fuzz=FuzzEventCodec -fuzztime=30s ./internal/evstream
	$(GO) test -fuzz=FuzzReplay -fuzztime=30s ./trace
	$(GO) test -fuzz=FuzzAsyncAgainstSync -fuzztime=30s .
	$(GO) test -fuzz=FuzzSyncAgainstOracle -fuzztime=30s .

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/matmul
	$(GO) run ./examples/sortcheck
	$(GO) run ./examples/parallel
	$(GO) run ./examples/pipeline
	$(GO) run ./examples/futures
