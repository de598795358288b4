# Build/test/CI entry points. `make ci` is the gate: vet, gofmt, the full
# test suite under the race detector — load-bearing now that the
# experiment harness fans cells across goroutines — and an examples smoke
# test, plus a one-iteration benchmark smoke and the machine-readable
# BENCH_<date>.json snapshot.

GO ?= go
EXAMPLES := quickstart virtecho nestedboot recursive memcached

.PHONY: all build test race vet fmt-check examples-smoke fuzz-smoke ci bench bench-smoke bench-json bench-diff benchdiff-smoke jit-equiv-smoke jit-param-smoke smp-race smp-bench-smoke profile

FUZZ_TARGETS := FuzzDifferentialNVvsNEVE FuzzFaultPlanRecovery FuzzParsePlan
FUZZTIME ?= 10s

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fail on unformatted code; gofmt -l lists offending files.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The harness's worker pool makes -race load-bearing: any shared mutable
# state in bench/kvm/x86 shows up here.
race:
	$(GO) test -race ./...

# Every example must build and exit 0.
examples-smoke:
	@for ex in $(EXAMPLES); do \
		echo "examples/$$ex"; \
		$(GO) run ./examples/$$ex >/dev/null || exit 1; \
	done

# Brief native-fuzzing pass over the differential and recovery targets
# (internal/fault/fuzz_test.go); seed corpora live under
# internal/fault/testdata/fuzz/. Any crasher or NV/NEVE divergence found
# within FUZZTIME fails the build.
fuzz-smoke:
	@for target in $(FUZZ_TARGETS); do \
		echo "fuzz $$target"; \
		$(GO) test -run=NONE -fuzz="^$$target$$" -fuzztime=$(FUZZTIME) ./internal/fault/ || exit 1; \
	done

ci: vet fmt-check race examples-smoke fuzz-smoke bench-smoke bench-json benchdiff-smoke jit-equiv-smoke jit-param-smoke smp-race smp-bench-smoke

# SMP engine gate: the epoch-lockstep tests under the race detector (the
# parallel mode's happens-before edges are the whole design), plus the
# registry-wide byte-equivalence sweep — parallel vCPU execution must
# match sequential exactly on every ARM configuration.
smp-race:
	$(GO) test -race ./internal/kvm -run SMP
	$(GO) test ./internal/bench -run SMPEquivalence

# One interrupt-storm sweep cell end to end, under the race detector,
# with adaptive epoch budgets: nevesim smp exits non-zero if the parallel
# run's equivalence fingerprint diverges from the sequential one, so this
# covers the sharded-JIT + sense-reversing-barrier path in one cheap cell.
smp-bench-smoke:
	$(GO) run -race ./cmd/nevesim smp -cpus 8 -profile storm

# Trace-JIT correctness smoke: every deterministic experiment nevesim
# runs (tables 1/6/7, figure 2, ablation, recursive, table 8) must print
# byte-identical output with super-ops replaying (-jit=on) and every trap
# interpreted (-jit=off). Any diff is a replay-path bug.
jit-equiv-smoke:
	@$(GO) run ./cmd/nevesim -jit=on all > .all-jit-on.tmp
	@$(GO) run ./cmd/nevesim -jit=off all > .all-jit-off.tmp
	@if diff .all-jit-on.tmp .all-jit-off.tmp; then \
		echo "nevesim all byte-identical jit-on vs jit-off"; \
		rm -f .all-jit-on.tmp .all-jit-off.tmp; \
	else \
		rm -f .all-jit-on.tmp .all-jit-off.tmp; \
		echo "nevesim all differs jit-on vs jit-off"; exit 1; \
	fi

# Parameterized-replay gate: one interrupt-storm cell under the race
# detector where jit-on parallel, jit-on sequential, and jit-off runs
# must be byte-identical (TestSMPShardedJITMatchesInterpreted), and a
# re-arming storm must replay round 1's super-op on every later round
# instead of minting single-use variants (TestSMPStormRoundsReplay).
jit-param-smoke:
	$(GO) test -race ./internal/kvm -run 'TestSMPShardedJITMatchesInterpreted|TestSMPStormRoundsReplay'

# Go benchmarks for the simulator's own speed (not the paper's numbers):
# memory/TLB fast paths, the 16 MiB Stage-2 linear map build (with
# allocation counts), the trap hot path, a replayed nested hypercall (the
# JIT hit path) and a recorded and promoted one (the JIT record path), the
# trace collector, and the end-to-end experiment sweeps: once from a fresh
# runner (build and boot included) and once per pass on a warm persistent
# runner, JIT on and off, with allocations per pass.
bench:
	$(GO) test -run=NONE -bench 'BenchmarkMemoryReadWrite|BenchmarkTLB|BenchmarkStage2Map' -benchmem ./internal/mem/ ./internal/mmu/
	$(GO) test -run=NONE -bench 'BenchmarkTrap|BenchmarkMSRFastPath' ./internal/arm/
	$(GO) test -run=NONE -bench 'BenchmarkJITHit|BenchmarkJITRecord' -benchmem ./internal/kvm/
	$(GO) test -run=NONE -bench 'BenchmarkCollectorTrap' ./internal/trace/
	$(GO) test -run=NONE -bench 'Benchmark(Fig2|Micro)(Sequential|Parallel)' -benchtime 1x ./internal/bench/
	$(GO) test -run=NONE -bench 'Benchmark(Fig2|Micro)Warm' -benchmem ./internal/bench/

# One-iteration pass over every benchmark: cheap CI proof that they run.
bench-smoke:
	$(GO) test -run=NONE -bench . -benchtime 1x ./internal/mem/ ./internal/mmu/ ./internal/arm/ ./internal/kvm/ ./internal/trace/ ./internal/bench/

# Machine-readable perf trajectory: writes BENCH_<date>.json.
bench-json:
	$(GO) run ./cmd/nevesim bench -json

# Compare two BENCH_*.json reports; exits non-zero on a >10% per-suite
# wall-time regression. Usage: make bench-diff OLD=a.json NEW=b.json
bench-diff:
	$(GO) run ./cmd/benchdiff $(OLD) $(NEW)

# CI smoke: diff the newest committed report against itself — always a
# zero-regression pass, proving benchdiff builds and parses the schema.
benchdiff-smoke:
	@latest="$$(ls BENCH_*.json | sort | tail -1)"; \
	echo "benchdiff $$latest $$latest"; \
	$(GO) run ./cmd/benchdiff "$$latest" "$$latest"

# Capture pprof profiles of the full suite run; see EXPERIMENTS.md
# ("Profiling") for how to read them.
profile:
	$(GO) run ./cmd/nevesim bench -cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "wrote cpu.pprof and mem.pprof; inspect with:"
	@echo "  $(GO) tool pprof -top cpu.pprof"
	@echo "  $(GO) tool pprof -top -sample_index=alloc_objects mem.pprof"
