package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nevesim/neve/internal/bench"
	"github.com/nevesim/neve/internal/platform"
	"github.com/nevesim/neve/internal/trace"
	"github.com/nevesim/neve/internal/workload"
)

// The fig2 and tables workloads: sweeps of independent (configuration x
// benchmark) cells, fanned out over the workers, whose pass output is
// pinned byte for byte by the golden files of internal/bench.

// gridCell is one cell of a grid workload.
type gridCell struct {
	cfg     bench.ConfigID
	op      bench.MicroOp // tables cells
	profile string        // fig2 cells; "" marks a tables cell
}

func (c gridCell) String() string {
	if c.profile == "" {
		return c.cfg.SpecName() + "/" + c.op.String()
	}
	return c.cfg.SpecName() + "/" + c.profile
}

// gridWorkload is fig2 or tables.
type gridWorkload struct {
	name    string
	tailPct float64
	cells   []gridCell
	goldens []string
	render  func([]cellOut) []string // one artifact per golden
}

func newFig2() *gridWorkload {
	w := &gridWorkload{name: "fig2", tailPct: 99, goldens: []string{"fig2"}}
	for _, p := range workload.Profiles() {
		for _, c := range bench.AllConfigs() {
			w.cells = append(w.cells, gridCell{cfg: c, profile: p.Name})
		}
	}
	w.render = func(outs []cellOut) []string {
		rs := make([]bench.AppResult, len(outs))
		for i, o := range outs {
			rs[i] = o.app
		}
		return []string{bench.FormatFigure2(rs)}
	}
	return w
}

func newTables() *gridWorkload {
	w := &gridWorkload{name: "tables", tailPct: 99, goldens: []string{"table1", "table6", "table7"}}
	for _, op := range bench.MicroOps() {
		for _, c := range bench.AllConfigs() {
			w.cells = append(w.cells, gridCell{cfg: c, op: op})
		}
	}
	w.render = func(outs []cellOut) []string {
		rs := make([]bench.MicroResult, len(outs))
		for i, o := range outs {
			rs[i] = o.micro
		}
		return []string{bench.FormatTable1(rs), bench.FormatTable6(rs), bench.FormatTable7(rs)}
	}
	return w
}

// benchCPUs is the CPU count the harness builds every grid cell with.
const benchCPUs = 2

// specs is every platform spec the workload's cells run on, as the
// harness builds them.
func (w *gridWorkload) specs() []platform.Spec {
	var out []platform.Spec
	for _, c := range bench.AllConfigs() {
		s := c.Spec()
		s.CPUs = benchCPUs
		out = append(out, s)
	}
	return out
}

// cellSim is what a cell simulated. It is deterministic, so it must be
// identical in every pass and in the traced run.
type cellSim struct {
	cycles   uint64          // simulated guest cycles the cell reports
	traps    uint64          // tables only: fig2 rows carry no trap total
	raw      workload.Result // fig2 only
	overhead float64         // fig2 only
	jit      trace.JITStats
}

// modelCounts are the model counters only the benchmark's direct cells
// read: the cell's traps (ARM) or exits (x86) and its Stage-2
// TLB statistics.
type modelCounts struct {
	events, tlbHits, tlbMisses uint64
}

// cellOut is one cell's result.
type cellOut struct {
	app   bench.AppResult   // fig2
	micro bench.MicroResult // tables
	sim   cellSim
	fault *bench.CellFault
	// Direct passes only.
	counts    modelCounts
	restoreNS int64
	runNS     int64
	ops       apiStats
}

// harnessCell runs cell c through the harness's CellRunner.
func harnessCell(r *bench.CellRunner, c gridCell) cellOut {
	if c.profile == "" {
		m := r.Micro(c.cfg, c.op)
		return cellOut{micro: m, fault: m.Fault, sim: cellSim{cycles: m.Cycles, traps: m.Traps, jit: m.JIT}}
	}
	a, err := r.App(c.cfg, c.profile)
	if err != nil {
		return cellOut{fault: &bench.CellFault{Kind: "error", Msg: err.Error()}}
	}
	return cellOut{app: a, fault: a.Fault, sim: cellSim{cycles: a.Raw.Cycles, raw: a.Raw, overhead: a.Overhead, jit: a.JIT}}
}

// booted is a built platform with its boot checkpoint.
type booted struct {
	p  platform.Platform
	cp *platform.Checkpoint
}

// directCell runs cell c on e, restored to its boot checkpoint, through
// the same public calls the harness makes. With a tracer it records
// spans under parent, and wraps the guest API to time every call.
func directCell(e booted, c gridCell, t *tracer, parent int) cellOut {
	var out cellOut
	p := e.p
	id := t.begin("platform.restore", parent)
	// A platform that faulted in an earlier cell is poisoned: restoring
	// it may fault again, which fails this cell rather than the process.
	err := p.Protect(func() { p.Restore(e.cp) })
	out.restoreNS = int64(t.end(id))
	if err != nil {
		out.fault = &bench.CellFault{Kind: "error", Msg: err.Error()}
		return out
	}

	js0, ev0 := p.JITStats(), p.Trace().Total()
	h0, m0 := tlbStats(p)
	id = t.begin("guest.run", parent)
	if c.profile == "" {
		var cycles, traps uint64
		err = p.Protect(func() { cycles, traps = bench.RunMicroOn(p, c.op) })
		out.micro = bench.MicroResult{Op: c.op, Config: c.cfg, Cycles: cycles, Traps: traps}
		out.counts.events = traps // RunMicroOn resets the collector itself
		out.sim = cellSim{cycles: cycles, traps: traps}
	} else {
		prof, _ := workload.ProfileByName(c.profile)
		if !c.cfg.IsARM() {
			prof = prof.Scaled(3) // as the harness runs x86 cells
		}
		native := &workload.Native{}
		nres := prof.Run(native, native, native)
		var res workload.Result
		err = p.Protect(func() {
			p.PreparePeer()
			p.RunGuest(0, func(g platform.Guest) {
				var api workload.API = g
				if t != nil {
					api = timedAPI{g, &out.ops}
				}
				res = prof.Run(api, g, p)
			})
		})
		ov := float64(res.Cycles) / float64(nres.Cycles)
		out.app = bench.AppResult{Workload: c.profile, Config: c.cfg, Overhead: ov, Raw: res}
		out.counts.events = p.Trace().Total() - ev0
		out.sim = cellSim{cycles: res.Cycles, raw: res, overhead: ov}
	}
	out.runNS = int64(t.end(id))
	if err != nil {
		out.fault = &bench.CellFault{Kind: "error", Msg: err.Error()}
		return out
	}
	out.sim.jit = p.JITStats().Sub(js0)
	out.micro.JIT, out.app.JIT = out.sim.jit, out.sim.jit
	h1, m1 := tlbStats(p)
	out.counts.tlbHits, out.counts.tlbMisses = h1-h0, m1-m0
	return out
}

// tlbStats reads the Stage-2 TLB counters of an ARM platform (0 on x86).
func tlbStats(p platform.Platform) (hits, misses uint64) {
	if s := p.ARM(); s != nil {
		return s.M.S2.TLB.Stats()
	}
	return 0, 0
}

// gridPass is one pass over every cell of a grid workload.
type gridPass struct {
	outs      []cellOut // canonical cell order
	cellMS    []float64 // canonical cell order
	wall, cpu time.Duration
	cycles    uint64 // simulated cycles, kept where outs is dropped
}

// runGrid runs every cell once, in the given order, on workers goroutines
// that pull the next cell from a shared counter, as the harness does;
// cell(worker, i) runs canonical cell i.
func runGrid(n, workers int, order []int, cell func(worker, i int) cellOut) gridPass {
	p := gridPass{outs: make([]cellOut, n), cellMS: make([]float64, n)}
	cpu0, t0 := cpuTime(), time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				i := order[k]
				start := time.Now()
				p.outs[i] = cell(w, i)
				p.cellMS[i] = ms(time.Since(start))
			}
		}()
	}
	wg.Wait()
	p.wall, p.cpu = time.Since(t0), cpuTime()-cpu0
	return p
}

// loadGoldens reads the workload's golden files from the repository.
func (w *gridWorkload) loadGoldens(root string) ([]string, error) {
	var out []string
	for _, g := range w.goldens {
		b, err := os.ReadFile(filepath.Join(root, "internal", "bench", "testdata", g+".golden"))
		if err != nil {
			return nil, fmt.Errorf("read golden: %w", err)
		}
		out = append(out, string(b))
	}
	return out, nil
}

// check verifies one pass and counts its cells into o. A cell fails if it
// faulted, if its simulated results differ from want[i] (when want is
// given), or if its model counters differ from wantCounts[i] (when
// given). An artifact that differs from its golden fails every cell of
// the pass, since the artifact is the unit the golden pins.
func (w *gridWorkload) check(o *outcome, what string, golden []string, outs []cellOut, want []cellSim, wantCounts []modelCounts) {
	bad := make([]bool, len(outs))
	for i, c := range outs {
		switch {
		case c.fault != nil:
			o.problem("%s %s: cell %s faulted: %s", w.name, what, w.cells[i], c.fault)
		case want != nil && c.sim != want[i]:
			o.problem("%s %s: cell %s simulated %+v, want %+v", w.name, what, w.cells[i], c.sim, want[i])
		case wantCounts != nil && c.counts != wantCounts[i]:
			o.problem("%s %s: cell %s counted %+v, want %+v", w.name, what, w.cells[i], c.counts, wantCounts[i])
		default:
			continue
		}
		bad[i] = true
	}
	for k, text := range w.render(outs) {
		if text != golden[k] {
			o.problem("%s %s: output differs from %s.golden", w.name, what, w.goldens[k])
			for i := range bad {
				bad[i] = true
			}
		}
	}
	o.count(bad)
}

func sims(outs []cellOut) []cellSim {
	s := make([]cellSim, len(outs))
	for i, o := range outs {
		s[i] = o.sim
	}
	return s
}

// withoutJIT clears the JIT counters, which differ between JIT on and off
// while everything simulated must not.
func withoutJIT(s []cellSim) []cellSim {
	out := append([]cellSim(nil), s...)
	for i := range out {
		out[i].jit = trace.JITStats{}
	}
	return out
}

func simCycles(outs []cellOut) (n uint64) {
	for _, o := range outs {
		n += o.sim.cycles
	}
	return n
}

// harnessPasses runs passes of the workload through one CellRunner until
// the rule stops, checking each against the goldens and against the first
// pass (or want, when given). It returns the timed passes without their
// cell results, the simulated results every pass repeated, and what the
// loop measured.
func (w *gridWorkload) harnessPasses(o *outcome, what string, h bench.Harness, rng *rand.Rand, golden []string, want []cellSim, stop stopRule) ([]gridPass, []cellSim, measured) {
	r := h.NewCellRunner()
	var passes []gridPass
	m := measure(stop, func(warm bool) int {
		p := runGrid(len(w.cells), h.Workers(), rng.Perm(len(w.cells)), func(_, i int) cellOut {
			return harnessCell(r, w.cells[i])
		})
		w.check(o, what, golden, p.outs, want, nil)
		if want == nil {
			want = sims(p.outs)
		}
		if !warm {
			// Keeping every pass's cell results would grow the heap
			// with the pass count, so a faster program would read as a
			// larger peak_rss_mb.
			p.cycles, p.outs = simCycles(p.outs), nil
			passes = append(passes, p)
		}
		return len(p.cellMS)
	})
	return passes, want, m
}

// measure runs the untraced run: set-up time, then timed passes through
// the harness.
func (w *gridWorkload) measure(o *outcome, cfg config) error {
	golden, err := w.loadGoldens(cfg.root)
	if err != nil {
		return err
	}
	setup := newSetupClock(w.specs(), cfg.seconds)
	if setup.err != nil {
		return setup.err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	h := bench.Harness{Parallelism: cfg.workers}
	passes, _, m := w.harnessPasses(o, "pass", h, rng, golden, nil, cfg.stop(w.tailPct, setup))
	var r runRates
	for _, p := range passes {
		r.add(p.cycles, p.wall, p.cpu, p.cellMS...)
	}
	return r.set(o, w.tailPct, setup, m)
}

// trace runs the traced run: an untraced reference through the harness
// with the JIT on and off, then the same cells run directly by the
// benchmark, wrapped and under spans, cross-checked cell by cell.
func (w *gridWorkload) trace(o *outcome, cfg config, t *tracer) error {
	golden, err := w.loadGoldens(cfg.root)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	sets, err := tracedSetup(o, t, w.specs(), cfg.workers)
	if err != nil {
		return err
	}

	h := bench.Harness{Parallelism: cfg.workers}
	g0 := readGo()
	on, ref, m := w.harnessPasses(o, "reference pass", h, rng, golden, nil, cfg.phase(0.25))
	goPerPass := readGo().sub(g0).per(m.all)
	h.JITOff = true
	off, _, _ := w.harnessPasses(o, "jit-off pass", h, rng, golden, withoutJIT(ref), cfg.phase(0.2))

	plain, traced := w.directPasses(o, sets, rng, golden, ref, t, cfg.alternating())

	w.layers(o, cfg, traced, goPerPass)
	o.set("jit.speedup_x", ratio(medianWall(off), medianWall(on)))
	o.set("trace.overhead_x", ratio(medianWall(traced), medianWall(plain)))
	o.record["passes"] = map[string]int{"reference": len(on), "jit_off": len(off), "direct": len(plain), "traced": len(traced)}
	o.record["direct_vs_harness_x"] = ratio(medianWall(plain), medianWall(on))
	return nil
}

// directPasses runs passes of the workload's cells directly, through
// directCell, on the workers' booted platforms until the rule stops, plain
// passes alternating with traced ones, which run under spans with the
// guest API wrapped. Every cell must repeat ref and the first pass's
// trap and TLB counters.
func (w *gridWorkload) directPasses(o *outcome, sets [][]booted, rng *rand.Rand, golden []string, ref []cellSim, t *tracer, stop stopRule) (plain, traced []gridPass) {
	var want []modelCounts
	alternate(stop, t, func(warm bool, t *tracer) int {
		pass := t.begin("bench.pass", 0)
		p := runGrid(len(w.cells), len(sets), rng.Perm(len(w.cells)), func(wk, i int) cellOut {
			c := w.cells[i]
			id := t.begin("bench.cell", pass)
			out := directCell(sets[wk][c.cfg], c, t, id)
			t.end(id)
			return out
		})
		t.end(pass)
		what := "direct pass"
		if t != nil {
			what = "traced pass"
		}
		w.check(o, what, golden, p.outs, ref, want)
		if want == nil {
			want = make([]modelCounts, len(p.outs))
			for i, c := range p.outs {
				want[i] = c.counts
			}
		}
		switch {
		case warm:
		case t == nil:
			plain = append(plain, p)
		default:
			traced = append(traced, p)
		}
		return len(p.cellMS)
	})
	return plain, traced
}

// layers sets the per-layer metrics of the traced passes.
func (w *gridWorkload) layers(o *outcome, cfg config, passes []gridPass, g goStats) {
	n := float64(len(passes))
	var restoreUS, busyMS []float64
	cellMS := make(map[bench.ConfigID][]float64)
	ops := make(map[bench.ConfigID]*apiStats)
	var wall, cpu time.Duration
	var js trace.JITStats
	var armTraps, x86Exits, armNS, x86NS, tlbHits, tlbMisses uint64
	for _, p := range passes {
		wall += p.wall
		cpu += p.cpu
		for i, c := range p.outs {
			cell := w.cells[i]
			restoreUS = append(restoreUS, float64(c.restoreNS)/1e3)
			cellMS[cell.cfg] = append(cellMS[cell.cfg], p.cellMS[i])
			busyMS = append(busyMS, p.cellMS[i])
			if ops[cell.cfg] == nil {
				ops[cell.cfg] = new(apiStats)
			}
			ops[cell.cfg].merge(c.ops)
			js = js.Add(c.sim.jit)
			if cell.cfg.IsARM() {
				armTraps += c.counts.events
				armNS += uint64(c.runNS)
				tlbHits += c.counts.tlbHits
				tlbMisses += c.counts.tlbMisses
			} else {
				x86Exits += c.counts.events
				x86NS += uint64(c.runNS)
			}
		}
	}
	timings := map[string]timing{"platform.restore_us": summarize(restoreUS, "us", 0)}
	o.set("platform.restore_us", median(restoreUS))
	o.set("platform.restores", float64(len(restoreUS))/n)
	for c, xs := range cellMS {
		o.set("bench.cell_ms."+c.SpecName(), median(xs))
		timings["bench.cell_ms."+c.SpecName()] = summarize(xs, "ms", 0)
	}
	o.record["timings"] = timings
	var busy float64
	for _, x := range busyMS {
		busy += x
	}
	o.set("bench.worker_busy_frac", ratio(busy, ms(wall)*float64(cfg.workers)))
	o.set("bench.cpu_util", ratio(cpu.Seconds(), wall.Seconds()))
	if w.cells[0].profile != "" {
		calls := make(map[string]*apiStats)
		for c, a := range ops {
			calls[c.SpecName()] = a
			l, name := opLayer(c), c.SpecName()
			o.set(l+".hypercall_ns."+name, ratio(float64(a.Hypercall.NS), float64(a.Hypercall.N)))
			o.set(l+".device_io_ns."+name, ratio(float64(a.Device.NS), float64(a.Device.N)))
			o.set(l+".ipi_ns."+name, ratio(float64(a.IPI.NS), float64(a.IPI.N)))
			o.set(l+".work_ns_per_kinsn."+name, ratio(float64(a.Work.NS)*1e3, float64(a.WorkInsns)))
		}
		o.record["api_calls"] = calls
	}
	o.set("arm.traps", float64(armTraps)/n)
	o.set("x86.exits", float64(x86Exits)/n)
	o.set("arm.host_ns_per_trap", ratio(float64(armNS), float64(armTraps)))
	o.set("x86.host_ns_per_exit", ratio(float64(x86NS), float64(x86Exits)))
	setJIT(o, js, n)
	o.set("mmu.tlb_hits", float64(tlbHits)/n)
	o.set("mmu.tlb_misses", float64(tlbMisses)/n)
	o.set("mmu.tlb_hit_ratio", ratio(float64(tlbHits), float64(tlbHits+tlbMisses)))
	setGo(o, g)
}

func medianWall(passes []gridPass) float64 {
	var xs []float64
	for _, p := range passes {
		xs = append(xs, ms(p.wall))
	}
	return median(xs)
}
