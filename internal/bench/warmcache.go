package bench

import (
	"sync"

	"github.com/nevesim/neve/internal/fault"
	"github.com/nevesim/neve/internal/platform"
	"github.com/nevesim/neve/internal/trace"
	"github.com/nevesim/neve/internal/workload"
)

// Warm-boot checkpoint cache. Platform construction IS the boot
// simulation — building a nested stack walks page tables, programs VMCS
// or system register state, and boots every hypervisor level — and a
// sweep rebuilds the same handful of configurations for every cell. The
// cache keeps one pool of booted platforms per canonical spec
// (platform.Spec.Axes is the key): a cell acquires a platform restored to
// its boot checkpoint, runs only its distinguishing workload, and
// releases the platform for the next cell of that configuration. Restores
// are copy-on-write (no page copies until a page is dirtied) and
// allocation-free, so a warm cell pays for its workload and nothing else.
//
// Determinism is unchanged: a restored platform is byte-identical to a
// freshly built one (the TestSnapshotRestoreEquivalence gate), so tables,
// goldens, and parallel-vs-sequential comparisons are unaffected by cache
// hits, misses, or worker interleaving.
type warmCache struct {
	mu    sync.Mutex
	pools map[string][]*warmEntry
}

// warmEntry is one pooled platform with its boot checkpoint.
type warmEntry struct {
	p  platform.Platform
	cp *platform.Checkpoint
}

// newCache returns the harness's cell cache: nil when the harness runs
// cold-boot (callers treat a nil cache as "build every cell").
func (h Harness) newCache() *warmCache {
	if h.ColdBoot {
		return nil
	}
	return &warmCache{pools: make(map[string][]*warmEntry)}
}

// acquire returns a platform in freshly-booted state for spec: a pooled
// one restored to its boot checkpoint, or a new build with a checkpoint
// taken when the pool is empty. The caller has exclusive use until
// release.
func (c *warmCache) acquire(spec platform.Spec) *warmEntry {
	if spec.Faults.Active() {
		// Injector state is outside the snapshot (and the spec's Axes key
		// ignores fault plans): fault cells always boot cold.
		return &warmEntry{p: platform.MustBuild(spec)}
	}
	key := spec.Axes()
	c.mu.Lock()
	if pool := c.pools[key]; len(pool) > 0 {
		e := pool[len(pool)-1]
		c.pools[key] = pool[:len(pool)-1]
		c.mu.Unlock()
		e.p.Restore(e.cp)
		return e
	}
	c.mu.Unlock()
	p := platform.MustBuild(spec)
	return &warmEntry{p: p, cp: p.Snapshot()}
}

// release returns a used platform to its pool. The platform is restored
// lazily at the next acquire, not here, so the final cell of a sweep
// never pays for a restore nobody consumes. Faulted platforms must NOT
// be released — a SimError means the model unwound mid-operation and the
// platform is poisoned; the cell runners simply drop them.
func (c *warmCache) release(e *warmEntry) {
	if e.cp == nil {
		return // uncacheable (fault-injecting) build, discard
	}
	key := e.p.Spec().Axes()
	c.mu.Lock()
	c.pools[key] = append(c.pools[key], e)
	c.mu.Unlock()
}

// benchSpec is the spec benchmark cells build: the registry configuration
// with the benchmark CPU count, the harness's JIT setting, and the
// harness's watchdog budgets.
func (h Harness) benchSpec(id ConfigID) platform.Spec {
	spec := id.Spec()
	spec.CPUs = 2
	spec.JITOff = h.JITOff
	spec.MaxTraps = h.MaxTraps
	spec.MaxSteps = h.MaxSteps
	return spec
}

// protectPanic runs fn, converting any panic (a watchdog abort during a
// build, a model bug outside a platform's own Protect boundary) into a
// typed *fault.SimError.
func protectPanic(fn func()) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fault.Recover(v)
		}
	}()
	fn()
	return nil
}

// cellEntry acquires a booted platform for spec (through the cache when
// non-nil) with the watchdog budget freshly reset, converting boot-time
// faults into a typed error.
func cellEntry(cache *warmCache, spec platform.Spec) (e *warmEntry, err error) {
	err = protectPanic(func() {
		if cache == nil {
			e = &warmEntry{p: platform.MustBuild(spec)}
		} else {
			e = cache.acquire(spec)
		}
	})
	if err != nil {
		return nil, err
	}
	// Budgets are per cell: without the reset, a pooled platform's earlier
	// cells would eat into this cell's budget.
	e.p.Watchdog().Reset()
	return e, nil
}

// runMicroWarm is RunMicro through the cache (cold when cache is nil),
// also returning the cell's trace-JIT dispatch counters. A watchdog
// abort or model panic returns as a CellFault with zeroed measurements;
// the poisoned platform is discarded, never pooled.
func (h Harness) runMicroWarm(cache *warmCache, id ConfigID, op MicroOp) (cycles, traps uint64, js trace.JITStats, cf *CellFault) {
	e, err := cellEntry(cache, h.benchSpec(id))
	if err != nil {
		return 0, 0, trace.JITStats{}, faultFrom(err)
	}
	before := e.p.JITStats()
	if err := e.p.Protect(func() { cycles, traps = RunMicroOn(e.p, op) }); err != nil {
		return 0, 0, trace.JITStats{}, faultFrom(err)
	}
	js = e.p.JITStats().Sub(before)
	if cache != nil {
		cache.release(e)
	}
	return cycles, traps, js, nil
}

// runAppWarm is RunApp through the cache (cold when cache is nil), also
// returning the cell's trace-JIT dispatch counters. Faults surface as a
// CellFault, like runMicroWarm.
func (h Harness) runAppWarm(cache *warmCache, id ConfigID, p workload.Profile) (overhead float64, res workload.Result, js trace.JITStats, cf *CellFault) {
	if !id.IsARM() {
		p = p.Scaled(3)
	}
	native := &workload.Native{}
	nres := p.Run(native, native, native)

	e, err := cellEntry(cache, h.benchSpec(id))
	if err != nil {
		return 0, workload.Result{}, trace.JITStats{}, faultFrom(err)
	}
	plat := e.p
	before := plat.JITStats()
	err = plat.Protect(func() {
		plat.PreparePeer()
		plat.RunGuest(0, func(g platform.Guest) {
			res = p.Run(g, g, plat)
		})
	})
	if err != nil {
		return 0, workload.Result{}, trace.JITStats{}, faultFrom(err)
	}
	js = plat.JITStats().Sub(before)
	if cache != nil {
		cache.release(e)
	}
	overhead = float64(res.Cycles) / float64(nres.Cycles)
	return overhead, res, js, nil
}

// hypercallCostWarm is hypercallCost through the cache.
func hypercallCostWarm(cache *warmCache, spec platform.Spec) (cycles, traps uint64) {
	if cache == nil {
		return hypercallCost(platform.MustBuild(spec))
	}
	e := cache.acquire(spec)
	e.p.Watchdog().Reset()
	cycles, traps = hypercallCost(e.p)
	cache.release(e)
	return cycles, traps
}
