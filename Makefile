GO ?= go

.PHONY: all build test test-short race vet fmt fmt-check doc-check loc examples bench bench-smoke bench-perf bench-guard bench-scale bench-scale-full bench-async bench-quantile bench-quantile-full chaos chaos-full ci

all: ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Documentation gate: every exported identifier in the root package and
# in every internal package must carry a doc comment (see cmd/godoclint).
doc-check:
	$(GO) run ./cmd/godoclint . ./internal/*/

# Non-test Go lines in the main module (bench/ is its own module): the
# net-lines figure each change reports. Go files under testdata/ are
# fixtures, not program code.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' | xargs cat | wc -l

# Run every examples/* program end to end; each exits nonzero when its
# computed answers are wrong. The binaries run inside a temporary
# directory because examples/telemetry writes its trace files into the
# working directory.
examples:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for dir in examples/*/; do \
		name=$$(basename "$$dir"); \
		$(GO) build -o "$$tmp/$$name" "./$$dir" || exit 1; \
		out=$$(cd "$$tmp" && "./$$name" 2>&1) || { echo "$$out"; echo "examples/$$name FAILED"; exit 1; }; \
		echo "ok  examples/$$name"; \
	done

# Smoke-run every Go benchmark once: the BenchmarkPerf* engine and
# facade benchmarks plus the per-package micro-benchmarks. The paper's
# experiments run with verdicts through cmd/benchtab instead.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# Session-amortization smoke benchmark: small n, machine-checked
# verdicts, writes BENCH_QB1.json for trajectory tracking.
bench-smoke:
	$(GO) run ./cmd/benchtab -experiment QB1 -quick -json

# Engine hot-path benchmarks (BenchmarkPerf*): runs them with -benchmem
# and writes BENCH_PERF.json (ns/op, allocs/op, msgs/node) so the perf
# trajectory has a machine-readable baseline. -count 3 lets perfjson
# keep the per-metric minimum across repetitions — contention noise on
# shared runners is one-sided, so min-of-runs stabilizes the ns/op
# ratios that the telemetry overhead budget below is checked against.
bench-perf:
	$(GO) test -run '^$$' -bench '^BenchmarkPerf' -benchmem -benchtime 30x -count 3 . | $(GO) run ./cmd/perfjson -out BENCH_PERF.json

# Regression guard: fails when allocs/op on the pinned engine benchmarks
# regresses >20% against the checked-in BENCH_PERF_BASELINE.json, or
# when the live-telemetry session exceeds its wall-clock overhead budget
# over the telemetry-off session. The overhead comes from the paired
# benchmark (off and ring sessions interleaved in one loop), the one
# wall-clock comparison that survives both machine changes and CI
# runner load drift.
bench-guard: bench-perf
	$(GO) run ./cmd/perfjson -check BENCH_PERF.json -baseline BENCH_PERF_BASELINE.json \
		-overhead "PerfTelemetry/paired:1.05"

# Scaling study (SC1): the CI smoke tier sweeps the ladder up to 10^5
# (plus the chord 10^6 memory leg with its peak-RSS budget verdict) and
# writes BENCH_SC1.json with machine-checked shape verdicts; the full
# tier climbs to 10^7 on Complete and Chord (an hour-plus,
# local/harness use).
bench-scale:
	$(GO) run ./cmd/benchtab -experiment SC1 -quick -json

bench-scale-full:
	$(GO) run ./cmd/benchtab -experiment SC1 -json

# Async baseline study (AS1): DRR vs the asynchronous pairwise-averaging
# family at n=10^4 with machine-checked verdicts; writes BENCH_AS1.json.
bench-async:
	$(GO) run ./cmd/benchtab -experiment AS1 -json

# Quantile driver race (QH1): HMS sampling vs the bisection golden
# reference up the size ladder, with agreement/shape/ratio/bit-identity
# verdicts; writes BENCH_QH1.json. The quick tier stops at 10^5; the
# full tier's headline verdict is >=5x fewer rounds at 10^6 on Complete
# (minutes, local/harness use).
bench-quantile:
	$(GO) run ./cmd/benchtab -experiment QH1 -quick -json

bench-quantile-full:
	$(GO) run ./cmd/benchtab -experiment QH1 -json

# Chaos smoke: replay both pinned corpora (seed corpus + regression
# corpus) and a CI-sized batch of generated fault-plan cases through
# the invariant battery; failures auto-shrink to one-line reproducers
# (see docs/ROBUSTNESS.md). chaos-full is the acceptance campaign the
# chaosfuzz defaults encode (regressions + 200 generated cases).
chaos:
	$(GO) run ./cmd/chaosfuzz -cases 40 \
		-corpus internal/chaos/testdata/seed_corpus.txt,internal/chaos/testdata/regressions.txt

chaos-full:
	$(GO) run ./cmd/chaosfuzz -cases 200 \
		-corpus internal/chaos/testdata/seed_corpus.txt,internal/chaos/testdata/regressions.txt

ci: build vet fmt-check doc-check test examples
