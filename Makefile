GO ?= go

.PHONY: build vet test race fuzz chaos telemetry serve soak golden bench bench-gates bench-serve cover staticcheck profile verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race coverage: vet plus the race detector over the fast test set
# (-short skips the two full-evaluation runs; the always-on concurrency
# smoke tests still sweep the shared-program paths).
race:
	$(GO) vet ./...
	$(GO) test -race -short ./...

# Bounded fuzz passes over both native fuzz targets; seeds live in
# testdata/fuzz and double as regression cases under plain `go test`.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s .
	$(GO) test -run '^$$' -fuzz '^FuzzDifferentialQuery$$' -fuzztime 5s .
	$(GO) test -run '^$$' -fuzz '^FuzzTraceRead$$' -fuzztime 5s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzTraceRoundTrip$$' -fuzztime 5s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzClauseIndexSelection$$' -fuzztime 5s ./internal/kl0
	$(GO) test -run '^$$' -fuzz '^FuzzReplacerSelection$$' -fuzztime 5s ./internal/cache

# Chaos suite under the race detector: replay the seeded fault sweep
# against every injection site (mem, cache, wf, trace), check each run
# terminates with a classified fault (never an uncontained panic), and
# verify pooled machines and keep-going degradation stay byte-identical
# at any worker count after containment. -short skips the double
# full-evaluation determinism test, which the plain suite still runs.
chaos:
	$(GO) test -race -short -count=1 -run 'TestChaos|TestFaultedPool|TestKeepGoing|TestInjector|TestSweep|TestCorruptTrace' ./internal/fault ./internal/harness -v

# Telemetry gates: the sampling-vs-exact differential suite on the
# Table 1 programs (per-predicate shares within telemetry.ShareTolerance
# of the exact profiler, totals exact), the byte-identity of fast-mode
# output with the sampler and spans attached, the flight-recorder dump
# on the fault path, and the in-suite sampling overhead guard.
telemetry:
	$(GO) test -count=1 -run 'TestSamplingDifferentialTable1|TestSamplingOverheadGuard|TestFastSamplingProfilerKeepsFastByteIdentical|TestFaultReportCarriesFlightDump' -v .
	$(GO) test -count=1 -run 'TestOptionsSpansByteIdentical' -v ./internal/harness

# Serving battery under the race detector: the psid end-to-end suite
# (admission, budgets, fault containment, streaming, drain), the
# concurrency/byte-identity tests and the Table-1 differential against
# the psi library, plus the process-level SIGTERM drain tests.
serve:
	$(GO) test -race -count=1 ./internal/serve
	$(GO) test -count=1 -run 'TestPsid' .

# Chaos soak under the race detector: a self-hosted daemon soaked in
# seeded fault-mixed traffic from retrying clients, then audited — no
# transport deaths, only known classes, byte-identical post-soak
# differential vs the psi library, no goroutine leaks, bounded heap.
# SOAK sets the duration (default 20s; CI uses a short pass).
SOAK ?= 20s
soak:
	$(GO) run -race ./cmd/soak -duration $(SOAK) -clients 4 -seed 1

# Rewrite the golden files under docs/ from the current output (only
# after an intended simulator change).
golden:
	$(GO) test ./internal/harness -run 'TestGolden|TestWorkerCountDeterminism' -update

bench:
	$(GO) test -run '^$$' -bench 'TablesParallel|EngineIndirection|FastVsExact' -benchtime 1x .

# Refresh the gate records BENCH_{engine,fast,obs,pmms}.json (schema
# psi-bench/v1), each area's lanes timed by one interleaved round-robin
# timer: engine.Session indirection <= 2% overhead, fast accounting
# >= 1.5x over exact on nreverse, sampling profiler <= 10% overhead on
# the fast engine, classified policy grid <= 1.3x per lane vs the
# streaming sweep. Exits nonzero when any bound is missed.
bench-gates:
	$(GO) run ./cmd/bench

# Refresh BENCH_serve.json: hammer a self-hosted psid with 8 concurrent
# retrying clients replaying the seeded Table-1 + error/fault mix and
# record p50/p99 latency, throughput and the retry-layer stats. The
# full run deliberately undersizes the daemon (half the workers, no
# waiting room) so the record shows the backpressure/retry loop at
# work, not just the happy path. SMOKE=1 runs a small well-sized
# validated pass (the CI gate: schema-valid record, no transport
# errors, no timing assertions).
bench-serve:
ifdef SMOKE
	$(GO) run ./cmd/loadgen -self -n 4 -per 5 -seed 1 -out BENCH_serve.json
else
	$(GO) run ./cmd/loadgen -self -n 8 -per 25 -seed 1 -workers 4 -queue -1 -out BENCH_serve.json
endif

# Aggregate statement coverage over every package.
cover:
	$(GO) test -count=1 -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# Static analysis beyond go vet. Not part of `make verify` because the
# tool is an external install: `go install honnef.co/go/tools/cmd/staticcheck@latest`.
staticcheck:
	staticcheck ./...

# Produce a sample host CPU profile of the simulator regenerating
# Table 1 (the table output goes to /dev/null; the profile to
# psibench.pprof for `go tool pprof`).
profile:
	$(GO) run ./cmd/psibench -cpuprofile psibench.pprof 1 > /dev/null
	@echo "wrote psibench.pprof; inspect with: $(GO) tool pprof psibench.pprof"

verify: build race test fuzz chaos telemetry serve soak
