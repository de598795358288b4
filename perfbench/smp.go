package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/nevesim/neve/internal/bench"
	"github.com/nevesim/neve/internal/kvm"
	"github.com/nevesim/neve/internal/platform"
	"github.com/nevesim/neve/internal/trace"
	"github.com/nevesim/neve/internal/workload"
)

// The smp workload: the `nevesim smp` sweep as shipped. Every cell runs
// its profile on a freshly built stack sequentially, then in parallel,
// with adaptive epoch budgets; cells run one at a time.

// smpTailPct is the percentile cell_ms_tail reports on smp.
const smpTailPct = 90

// smpCell is one (configuration, profile) cell of the sweep.
type smpCell struct {
	spec string
	prof workload.SMPProfile
}

func (c smpCell) String() string { return c.spec + "/" + c.prof.Name }

func smpCells() []smpCell {
	var out []smpCell
	for _, name := range bench.SMPSweepSpecs() {
		for _, p := range workload.SMPProfiles() {
			out = append(out, smpCell{name, p})
		}
	}
	return out
}

func smpSpec(name string, jitOff bool) platform.Spec {
	s := platform.MustLookup(name)
	s.JITOff = jitOff
	return s
}

// smpRun is one RunSMPOpts run.
type smpRun struct {
	// fp is the guest-visible state the equivalence gate compares: the
	// engine statistics without the mode flag, every vCPU's cycles and
	// the trap total.
	fp      string
	cycles  uint64 // summed over vCPUs
	traps   uint64
	stats   kvm.SMPStats
	jit     trace.JITStats
	wall    time.Duration
	barrier time.Duration
	yields  []*yieldStats // traced runs only
	err     error
}

// runSMP builds a fresh stack for spec and runs the profile on it, under
// spans and with every vCPU's SMPAPI wrapped when t is set.
func runSMP(spec platform.Spec, c smpCell, parallel bool, t *tracer, parent int) smpRun {
	var r smpRun
	id := t.begin("platform.build", parent)
	p, err := platform.Build(spec)
	t.end(id)
	if err != nil {
		r.err = err
		return r
	}
	s := p.ARM()
	n := len(s.M.CPUs)
	progs := make([]func(g *kvm.SMPGuest), n)
	if t != nil {
		r.yields = make([]*yieldStats, n)
	}
	for i, prog := range c.prof.Programs(n) {
		if t == nil {
			progs[i] = func(g *kvm.SMPGuest) { prog(g) }
			continue
		}
		ys := new(yieldStats)
		r.yields[i] = ys
		progs[i] = func(g *kvm.SMPGuest) { prog(newTimedSMP(g, ys)) }
	}
	name := "kvm.smp_seq"
	if parallel {
		name = "kvm.smp_par"
	}
	id = t.begin(name, parent)
	start := time.Now()
	r.err = p.Protect(func() {
		r.stats = s.RunSMPOpts(progs, kvm.SMPOptions{Parallel: parallel, Adaptive: true})
	})
	r.wall = time.Since(start)
	t.end(id)
	if r.err != nil {
		return r
	}
	r.traps, r.jit, r.barrier = p.Trace().Total(), s.SMPJITStats(), s.LastSMPBarrierWait()
	cycles := make([]uint64, n)
	for i := range cycles {
		cycles[i] = p.CPUCycles(i)
		r.cycles += cycles[i]
	}
	st := r.stats
	st.Parallel = false
	r.fp = fmt.Sprint(st, cycles, r.traps)
	return r
}

// smpOut is one cell of one pass.
type smpOut struct{ seq, par smpRun }

// smpPass is one pass over every cell.
type smpPass struct {
	outs      []smpOut // canonical cell order
	wall, cpu time.Duration
}

// smpRef is what every pass must repeat: each cell's fingerprint and the
// sequential run's JIT counters. The parallel run's JIT shard counters
// depend on goroutine timing, so they are host measurements, not checked.
type smpRef struct {
	fp     []string
	seqJIT []trace.JITStats
}

func runSMPPass(cells []smpCell, order []int, jitOff bool, t *tracer) smpPass {
	p := smpPass{outs: make([]smpOut, len(cells))}
	pass := t.begin("bench.pass", 0)
	cpu0, t0 := cpuTime(), time.Now()
	for _, i := range order {
		c := cells[i]
		spec := smpSpec(c.spec, jitOff)
		id := t.begin("bench.cell", pass)
		p.outs[i] = smpOut{runSMP(spec, c, false, t, id), runSMP(spec, c, true, t, id)}
		t.end(id)
	}
	p.wall, p.cpu = time.Since(t0), cpuTime()-cpu0
	t.end(pass)
	return p
}

// checkSMP verifies one pass and counts its cells into o: both runs must
// complete, the parallel run must be identical to the sequential one, and
// every cell must repeat ref (when given; withJIT also compares the
// sequential run's JIT counters). It returns the pass's reference.
func checkSMP(o *outcome, what string, cells []smpCell, p smpPass, ref *smpRef, withJIT bool) *smpRef {
	got := &smpRef{}
	bad := make([]bool, len(cells))
	for i, c := range p.outs {
		got.fp = append(got.fp, c.seq.fp)
		got.seqJIT = append(got.seqJIT, c.seq.jit)
		switch {
		case c.seq.err != nil || c.par.err != nil:
			o.problem("smp %s: cell %s failed: %v %v", what, cells[i], c.seq.err, c.par.err)
		case c.seq.fp != c.par.fp:
			o.problem("smp %s: cell %s parallel run diverged from sequential", what, cells[i])
		case ref != nil && c.seq.fp != ref.fp[i]:
			o.problem("smp %s: cell %s fingerprint %s, want %s", what, cells[i], c.seq.fp, ref.fp[i])
		case ref != nil && withJIT && c.seq.jit != ref.seqJIT[i]:
			o.problem("smp %s: cell %s sequential JIT %+v, want %+v", what, cells[i], c.seq.jit, ref.seqJIT[i])
		default:
			continue
		}
		bad[i] = true
	}
	o.count(bad)
	if ref != nil {
		return ref
	}
	return got
}

func smpSpecs() []platform.Spec {
	var out []platform.Spec
	for _, name := range bench.SMPSweepSpecs() {
		out = append(out, smpSpec(name, false))
	}
	return out
}

// smpPasses runs passes until the rule stops, checking each; with a
// tracer, plain passes alternate with traced ones. It returns the timed
// plain and traced passes, the reference and what the loop measured.
func smpPasses(o *outcome, what string, rng *rand.Rand, jitOff bool, ref *smpRef, withJIT bool, t *tracer, stop stopRule) (plain, traced []smpPass, _ *smpRef, m measured) {
	cells := smpCells()
	m = alternate(stop, t, func(warm bool, t *tracer) int {
		p := runSMPPass(cells, rng.Perm(len(cells)), jitOff, t)
		kind := what
		if t != nil {
			kind = "traced pass"
		}
		ref = checkSMP(o, kind, cells, p, ref, withJIT)
		switch {
		case warm:
		case t == nil:
			plain = append(plain, p)
		default:
			traced = append(traced, p)
		}
		return len(cells)
	})
	return plain, traced, ref, m
}

func measureSMP(o *outcome, cfg config) error {
	setup := newSetupClock(smpSpecs(), cfg.seconds)
	if setup.err != nil {
		return setup.err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	passes, _, _, m := smpPasses(o, "pass", rng, false, nil, true, nil, cfg.stop(smpTailPct, setup))
	var r runRates
	for _, p := range passes {
		var cycles uint64
		var cellMS []float64
		for _, c := range p.outs {
			cellMS = append(cellMS, ms(c.par.wall))
			cycles += c.seq.cycles + c.par.cycles
		}
		r.add(cycles, p.wall, p.cpu, cellMS...)
	}
	return r.set(o, smpTailPct, setup, m)
}

func traceSMP(o *outcome, cfg config, t *tracer) error {
	if _, err := tracedSetup(o, t, smpSpecs(), 0); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	g0 := readGo()
	on, _, ref, m := smpPasses(o, "reference pass", rng, false, nil, true, nil, cfg.phase(0.25))
	goPerPass := readGo().sub(g0).per(m.all)
	off, _, _, _ := smpPasses(o, "jit-off pass", rng, true, ref, false, nil, cfg.phase(0.2))
	plain, traced, _, _ := smpPasses(o, "direct pass", rng, false, ref, true, t, cfg.alternating())

	cells := smpCells()
	n := float64(len(traced))
	parMS := make(map[string][]float64)
	seqMS := make(map[string][]float64)
	barrier := make(map[string]time.Duration)
	parWall := make(map[string]time.Duration)
	var waits, segs []float64
	var wall, cpu, runs time.Duration
	var js trace.JITStats
	var epochs, distOps, contention, traps uint64
	for _, p := range traced {
		wall += p.wall
		cpu += p.cpu
		par := make(map[string]time.Duration)
		seq := make(map[string]time.Duration)
		for i, c := range p.outs {
			name := cells[i].prof.Name
			par[name] += c.par.wall
			seq[name] += c.seq.wall
			parWall[name] += c.par.wall
			barrier[name] += c.par.barrier
			runs += c.seq.wall + c.par.wall
			traps += c.seq.traps + c.par.traps
			js = js.Add(c.par.jit)
			epochs += c.par.stats.Epochs
			distOps += c.par.stats.DistOps
			contention += c.par.stats.Contention
			for _, ys := range c.par.yields {
				for _, d := range ys.Waits {
					waits = append(waits, float64(d)/1e3)
				}
				for _, d := range ys.Segments {
					segs = append(segs, float64(d)/1e3)
				}
			}
		}
		for name := range par {
			parMS[name] = append(parMS[name], ms(par[name]))
			seqMS[name] = append(seqMS[name], ms(seq[name]))
		}
	}
	for _, p := range workload.SMPProfiles() {
		pm, sm := median(parMS[p.Name]), median(seqMS[p.Name])
		o.set("kvm.smp_par_ms."+p.Name, pm)
		o.set("kvm.smp_seq_ms."+p.Name, sm)
		o.set("kvm.smp_speedup_x."+p.Name, ratio(sm, pm))
		o.set("kvm.barrier_wait_frac."+p.Name, ratio(barrier[p.Name].Seconds(), parWall[p.Name].Seconds()))
	}
	const yieldTailPct = 99
	o.set("kvm.epochs", float64(epochs)/n)
	o.set("kvm.yield_wait_us_p50", median(waits))
	o.set("kvm.yield_wait_us_tail", percentile(waits, yieldTailPct))
	o.set("kvm.segment_us", median(segs))
	o.set("gic.dist_ops", float64(distOps)/n)
	o.set("gic.contention", float64(contention)/n)
	o.set("arm.traps", float64(traps)/n)
	o.set("arm.host_ns_per_trap", ratio(float64(runs), float64(traps)))
	o.set("bench.worker_busy_frac", ratio(runs.Seconds(), wall.Seconds()))
	o.set("bench.cpu_util", ratio(cpu.Seconds(), wall.Seconds()))
	setJIT(o, js, n)
	setGo(o, goPerPass)
	o.set("jit.speedup_x", ratio(medianSMPWall(off), medianSMPWall(on)))
	o.set("trace.overhead_x", ratio(medianSMPWall(traced), medianSMPWall(plain)))
	o.record["passes"] = map[string]int{"reference": len(on), "jit_off": len(off), "direct": len(plain), "traced": len(traced)}
	o.record["timings"] = map[string]timing{
		"kvm.yield_wait_us": summarize(waits, "us", yieldTailPct),
		"kvm.segment_us":    summarize(segs, "us", 0),
	}
	return nil
}

func medianSMPWall(passes []smpPass) float64 {
	var xs []float64
	for _, p := range passes {
		xs = append(xs, ms(p.wall))
	}
	return median(xs)
}
