package bench

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Harness scopes one experiment run: the worker parallelism and the
// configuration set its suites sweep. It replaces the former package
// globals, so concurrent harnesses cannot interfere — there is no mutable
// package state left under the goroutine fan-out.
//
// Every cell (one configuration x one benchmark) assembles its own stack
// through platform.Build, so cells share no mutable state and can run on
// independent goroutines. The fan-out is deterministic by construction:
// workers pull cell indices from an atomic counter and write results into
// a pre-indexed slice, so the output order — and every simulated cycle
// and trap count — is identical to a sequential run.
// TestParallelMatchesSequential enforces this.
//
// The zero value runs every registry configuration with GOMAXPROCS
// workers; package-level RunAllMicro etc. delegate to it.
type Harness struct {
	// Parallelism is the worker count; <= 0 selects GOMAXPROCS.
	Parallelism int
	// Configs is the configuration sweep; nil selects AllConfigs().
	Configs []ConfigID
	// ColdBoot disables the warm-boot checkpoint cache: every cell builds
	// its stack from scratch instead of restoring a booted snapshot. The
	// outputs are byte-identical either way
	// (TestSnapshotRestoreEquivalence); cold boots only cost wall time.
	ColdBoot bool
	// JITOff builds every ARM cell with the trace-JIT layer disabled. The
	// measured outputs are byte-identical either way (TestJITGoldenEquiv);
	// jit=off is the interpreted wall-time baseline.
	JITOff bool
	// MaxTraps and MaxSteps, when non-zero, attach a livelock watchdog to
	// every cell's platform with these per-cell budgets. A cell that
	// overruns them produces a result row carrying a CellFault instead of
	// hanging the sweep; the other cells complete normally. Budgets reset
	// between cells, so pooled warm-boot reuse does not leak one cell's
	// consumption into the next.
	MaxTraps uint64
	MaxSteps uint64
}

// Workers returns the effective worker count.
func (h Harness) Workers() int {
	if h.Parallelism > 0 {
		return h.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// configs returns the effective configuration sweep.
func (h Harness) configs() []ConfigID {
	if h.Configs != nil {
		return h.Configs
	}
	return AllConfigs()
}

// forEachCell runs task(0..n-1) across the worker pool. Tasks must be
// independent; each writes only its own result slot. With one worker the
// loop degenerates to the plain sequential order.
func (h Harness) forEachCell(n int, task func(i int)) {
	workers := h.Workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			task(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				task(i)
			}
		}()
	}
	wg.Wait()
}
