package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/nevesim/neve/internal/platform"
	"github.com/nevesim/neve/internal/trace"
)

// setupReps is how often a traced run boots its configurations to time
// the platform layer; setupBlock is how many set-ups an untraced run
// times in each block.
const (
	setupReps  = 15
	setupBlock = 9
)

// boot builds and snapshots every spec once, under spans when t is set,
// returning the booted platforms and the time spent in each step.
func boot(specs []platform.Spec, t *tracer, parent int) (set []booted, build, snap time.Duration, err error) {
	for _, s := range specs {
		id := t.begin("platform.build", parent)
		start := time.Now()
		p, err := platform.Build(s)
		build += time.Since(start)
		t.end(id)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("build %s: %w", s.Name, err)
		}
		id = t.begin("platform.snapshot", parent)
		start = time.Now()
		cp := p.Snapshot()
		snap += time.Since(start)
		t.end(id)
		set = append(set, booted{p, cp})
	}
	return set, build, snap, nil
}

// setupClock times setup_s: booting and snapshotting every spec. It
// times a block of set-ups before the first pass and another whenever a
// quarter of the run has passed since the last, so that the median does
// not hinge on the host's load at start-up. Each set-up starts from a
// freshly collected heap, so none pays for the garbage of the one before.
type setupClock struct {
	specs []platform.Spec
	every time.Duration
	last  time.Time
	xs    []float64
	err   error
}

func newSetupClock(specs []platform.Spec, run time.Duration) *setupClock {
	c := &setupClock{specs: specs, every: run / 4}
	c.block()
	return c
}

func (c *setupClock) block() {
	for k := 0; k < setupBlock && c.err == nil; k++ {
		runtime.GC()
		start := time.Now()
		_, _, _, c.err = boot(c.specs, nil, 0)
		c.xs = append(c.xs, time.Since(start).Seconds())
	}
	c.last = time.Now()
}

// between runs a block when it is due; measure calls it after every
// timed pass.
func (c *setupClock) between() {
	if time.Since(c.last) >= c.every {
		c.block()
	}
}

func (c *setupClock) timing() timing { return summarize(c.xs, "s", 0) }

// tracedSetup boots every spec max(setupReps, keep) times under spans,
// sets platform.build_ms and platform.snapshot_ms to the medians per
// repetition, and returns the last keep booted sets.
func tracedSetup(o *outcome, t *tracer, specs []platform.Spec, keep int) ([][]booted, error) {
	var sets [][]booted
	var builds, snaps []float64
	for k := 0; k < max(setupReps, keep); k++ {
		id := t.begin("platform.setup", 0)
		set, b, s, err := boot(specs, t, id)
		t.end(id)
		if err != nil {
			return nil, err
		}
		builds, snaps = append(builds, ms(b)), append(snaps, ms(s))
		if sets = append(sets, set); len(sets) > keep {
			sets = sets[1:]
		}
	}
	o.set("platform.build_ms", median(builds))
	o.set("platform.snapshot_ms", median(snaps))
	return sets, nil
}

// stopRule ends a measuring loop.
type stopRule struct {
	warmup    int           // untimed passes first
	d         time.Duration // minimum timed duration
	minPasses int           // minimum timed passes
	tailPct   float64       // when set, run until the tail rule holds, up to 3d
	rss       bool          // sample each timed pass's peak resident set
	between   func()        // when set, called after every timed pass
}

// measured is what a measuring loop ran.
type measured struct {
	all   int       // passes, warm-up included
	timed int       // passes after warm-up
	rssMB []float64 // each timed pass's peak resident set, when sampled
}

// measure runs the rule's warm-up passes, then timed passes until the
// rule stops. pass reports whether it is a warm-up and returns the cell
// samples it produced.
func measure(r stopRule, pass func(warm bool) int) measured {
	for k := 0; k < r.warmup; k++ {
		pass(true)
	}
	var m measured
	var rss *rssPeak
	if r.rss {
		rss = startRSSPeak()
		defer rss.close()
	}
	start := time.Now()
	timed, samples := 0, 0
	for {
		if rss != nil {
			rss.take()
		}
		samples += pass(false)
		timed++
		if rss != nil {
			m.rssMB = append(m.rssMB, rss.take())
		}
		if r.between != nil {
			r.between()
		}
		el := time.Since(start)
		if timed < r.minPasses {
			continue
		}
		if el >= 3*r.d || el >= r.d && (r.tailPct == 0 || tailOK(samples, r.tailPct)) {
			m.all, m.timed = r.warmup+timed, timed
			return m
		}
	}
}

// alternate runs passes until the rule stops: the warm-up and every
// other timed pass plain, the rest under t. Interleaving gives plain and
// traced passes the same host conditions, so the ratio of their times is
// the tracing overhead.
func alternate(r stopRule, t *tracer, pass func(warm bool, t *tracer) int) measured {
	k := 0
	return measure(r, func(warm bool) int {
		k++
		if k%2 == 1 {
			return pass(warm, nil)
		}
		return pass(warm, t)
	})
}

// setJIT sets the jit.* counts (per pass) and ratios from n passes.
func setJIT(o *outcome, js trace.JITStats, n float64) {
	h, m, b := float64(js.Hits), float64(js.Misses), float64(js.Bailouts)
	o.set("jit.hits", h/n)
	o.set("jit.misses", m/n)
	o.set("jit.bailouts", b/n)
	o.set("jit.evictions", float64(js.Evictions)/n)
	o.set("jit.hit_ratio", ratio(h, h+m))
	o.set("jit.bailout_ratio", ratio(b, h+b))
}

func setGo(o *outcome, g goStats) {
	o.set("go.alloc_mb_per_pass", g.allocMB)
	o.set("go.gc_per_pass", g.gcs)
	o.set("go.gc_pause_ms", g.pauseMS)
}

// runRates collects an untraced run's timed passes.
type runRates struct {
	perWall, perCPU []float64 // simulated Mcycles per host second, per pass
	cellMS          []float64
}

func (r *runRates) add(cycles uint64, wall, cpu time.Duration, cellMS ...float64) {
	r.perWall = append(r.perWall, ratio(float64(cycles)/1e6, wall.Seconds()))
	r.perCPU = append(r.perCPU, ratio(float64(cycles)/1e6, cpu.Seconds()))
	r.cellMS = append(r.cellMS, cellMS...)
}

// set reports the end-to-end metrics: the throughputs and each pass's
// peak resident set as medians over passes, the cell latency at p50 and
// tailPct, and set-up time.
func (r *runRates) set(o *outcome, tailPct float64, setup *setupClock, m measured) error {
	if setup.err != nil {
		return setup.err
	}
	cells := summarize(r.cellMS, "ms", tailPct)
	o.set("sim_mcycles_per_s", median(r.perWall))
	o.set("sim_mcycles_per_cpu_s", median(r.perCPU))
	o.set("cell_ms_p50", cells.P50)
	o.set("cell_ms_tail", cells.Tail)
	o.set("setup_s", setup.timing().P50)
	o.set("peak_rss_mb", median(m.rssMB))
	o.record["passes"] = m.timed
	o.record["process_peak_rss_mb"] = peakRSSMB()
	o.record["timings"] = map[string]timing{
		"cell_ms":               cells,
		"setup_s":               setup.timing(),
		"sim_mcycles_per_s":     summarize(r.perWall, "Mcycles/s", 0),
		"sim_mcycles_per_cpu_s": summarize(r.perCPU, "Mcycles/CPU-s", 0),
		"peak_rss_mb":           summarize(m.rssMB, "MB", 0),
	}
	return nil
}
