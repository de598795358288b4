// Command perfbench is the repository's benchmark. It runs one workload
// of the simulator (fig2, tables or smp; see WORKLOADS.md), checks every
// pass's output, and prints its metrics, each by name with its unit. The
// last line of standard output is a JSON object with the keys correct,
// attempted, failed and metrics.
//
//	perfbench --workload fig2 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 the per-layer metrics of a separate traced run. The
// exit code is 1 when any check fails and 2 on a usage or set-up error.
// Run it from the repository root (or pass --root); run.sh builds and
// runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds time.Duration
	workers int
	root    string
}

// warmupPasses are run untimed before an untraced run's timed passes:
// they fill the harness's warm-boot pools and let the heap settle.
const warmupPasses = 2

// stop is the untraced run's rule: at least the run length, and until
// the cell samples satisfy the tail rule at tailPct, timing set-up
// between passes.
func (c config) stop(tailPct float64, setup *setupClock) stopRule {
	return stopRule{warmup: warmupPasses, d: c.seconds, minPasses: 1, tailPct: tailPct, rss: true, between: setup.between}
}

// phase is the rule of one phase of a traced run, which splits the run
// length between its phases.
func (c config) phase(frac float64) stopRule {
	return stopRule{warmup: 1, d: time.Duration(frac * float64(c.seconds)), minPasses: 3}
}

// alternating is the rule of a traced run's last phase, which alternates
// plain and traced passes: half the run length, and at least two passes
// of each kind.
func (c config) alternating() stopRule {
	r := c.phase(0.5)
	r.minPasses = 4
	return r
}

var fig2, tables = newFig2(), newTables()

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	measure func(*outcome, config) error
	trace   func(*outcome, config, *tracer) error
}{
	"fig2":   {fig2.measure, fig2.trace},
	"tables": {tables.measure, tables.trace},
	"smp":    {measureSMP, traceSMP},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fig2, tables, smp, or all")
	seed := fs.Int64("seed", 1, "workload seed: permutes the cell order within every pass")
	seconds := fs.Float64("seconds", 10, "seconds to measure")
	traced := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	root := fs.String("root", ".", "repository root (holds internal/bench/testdata)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	// One cell worker per CPU, as the harness defaults to.
	cfg := config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), workers: runtime.NumCPU(), root: *root}

	names := []string{*name}
	if *name == "all" {
		names = []string{"fig2", "tables", "smp"}
	}
	total := newOutcome(nil)
	summary := make(map[string]metric)
	for _, n := range names {
		wl, ok := workloads[n]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q (have fig2, tables, smp, all)\n", n)
			return 2
		}
		var o *outcome
		var err error
		var t *tracer
		start := time.Now()
		if *traced == 1 {
			o, t = newOutcome(perLayer()), newTracer()
			err = wl.trace(o, cfg, t)
		} else {
			o = newOutcome(endToEnd)
			err = wl.measure(o, cfg)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", n, err)
			return 2
		}
		o.record["workload"] = n
		o.record["wall_s"] = time.Since(start).Seconds()
		if t != nil {
			o.record["layer_time"] = layerTimes(t.snapshot())
		}
		report(stdout, o, cfg, *traced)
		total.attempted += o.attempted
		total.failed += o.failed
		total.problems = append(total.problems, o.problems...)
		for k, m := range o.metrics() {
			if len(names) > 1 {
				k = n + "." + k
			}
			summary[k] = m
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{total.correct(), total.attempted, total.failed, summary})
	fmt.Fprintln(stdout, string(line))
	if !total.correct() {
		return 1
	}
	return 0
}

// report prints one workload's run record, problems and metrics.
func report(w io.Writer, o *outcome, cfg config, traced int) {
	o.record["host"] = fingerprint()
	o.record["workers"] = cfg.workers
	o.record["seed"] = cfg.seed
	o.record["seconds"] = cfg.seconds.Seconds()
	o.record["trace"] = traced
	o.record["fail_frac"] = ratio(float64(o.failed), float64(o.attempted))
	rec, _ := json.Marshal(o.record)
	fmt.Fprintf(w, "record %s\n", rec)
	for _, p := range o.problems {
		fmt.Fprintf(w, "FAIL %s\n", p)
	}
	fmt.Fprintf(w, "%-32s %d of %d cells\n", "failed", o.failed, o.attempted)
	ms := o.metrics()
	for _, d := range o.defs {
		fmt.Fprintf(w, "%-32s %14.4f %s\n", d.name, ms[d.name].Value, d.unit)
	}
}
