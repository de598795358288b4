package main

import (
	"fmt"

	"github.com/nevesim/neve/internal/bench"
	"github.com/nevesim/neve/internal/workload"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is every metric of an untraced run, in report order.
var endToEnd = []metricDef{
	{"sim_mcycles_per_s", "Mcycles/s"},
	{"sim_mcycles_per_cpu_s", "Mcycles/CPU-s"},
	{"cell_ms_p50", "ms"},
	{"cell_ms_tail", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer is every metric of a traced run, in report order. Every
// workload reports all of them; one that a workload never exercises
// reads 0 (WORKLOADS.md lists which apply where). Counts are per pass.
func perLayer() []metricDef {
	defs := []metricDef{
		{"platform.build_ms", "ms"},
		{"platform.snapshot_ms", "ms"},
		{"platform.restore_us", "us"},
		{"platform.restores", "count"},
	}
	for _, c := range bench.AllConfigs() {
		defs = append(defs, metricDef{"bench.cell_ms." + c.SpecName(), "ms"})
	}
	defs = append(defs, metricDef{"bench.worker_busy_frac", "ratio"}, metricDef{"bench.cpu_util", "ratio"})
	for _, c := range bench.AllConfigs() {
		l := opLayer(c)
		defs = append(defs,
			metricDef{l + ".hypercall_ns." + c.SpecName(), "ns"},
			metricDef{l + ".device_io_ns." + c.SpecName(), "ns"},
			metricDef{l + ".ipi_ns." + c.SpecName(), "ns"},
			metricDef{l + ".work_ns_per_kinsn." + c.SpecName(), "ns/kinsn"})
	}
	defs = append(defs,
		metricDef{"arm.traps", "count"},
		metricDef{"x86.exits", "count"},
		metricDef{"arm.host_ns_per_trap", "ns"},
		metricDef{"x86.host_ns_per_exit", "ns"},
		metricDef{"jit.hits", "count"},
		metricDef{"jit.misses", "count"},
		metricDef{"jit.bailouts", "count"},
		metricDef{"jit.evictions", "count"},
		metricDef{"jit.hit_ratio", "ratio"},
		metricDef{"jit.bailout_ratio", "ratio"},
		metricDef{"jit.speedup_x", "x"},
		metricDef{"mmu.tlb_hits", "count"},
		metricDef{"mmu.tlb_misses", "count"},
		metricDef{"mmu.tlb_hit_ratio", "ratio"})
	for _, p := range workload.SMPProfiles() {
		defs = append(defs,
			metricDef{"kvm.smp_par_ms." + p.Name, "ms"},
			metricDef{"kvm.smp_seq_ms." + p.Name, "ms"},
			metricDef{"kvm.smp_speedup_x." + p.Name, "x"},
			metricDef{"kvm.barrier_wait_frac." + p.Name, "ratio"})
	}
	return append(defs,
		metricDef{"kvm.epochs", "count"},
		metricDef{"kvm.yield_wait_us_p50", "us"},
		metricDef{"kvm.yield_wait_us_tail", "us"},
		metricDef{"kvm.segment_us", "us"},
		metricDef{"gic.dist_ops", "count"},
		metricDef{"gic.contention", "cycles"},
		metricDef{"go.alloc_mb_per_pass", "MB"},
		metricDef{"go.gc_per_pass", "count"},
		metricDef{"go.gc_pause_ms", "ms"},
		metricDef{"trace.overhead_x", "x"})
}

// opLayer is the layer whose hypervisor model serves configuration c.
func opLayer(c bench.ConfigID) string {
	if c.IsARM() {
		return "kvm"
	}
	return "x86"
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is everything one run reports: the cells it checked, the
// problems found, the metrics and the run record.
type outcome struct {
	attempted, failed int
	problems          []string
	defs              []metricDef
	values            map[string]float64
	record            map[string]any
}

func newOutcome(defs []metricDef) *outcome {
	return &outcome{defs: defs, values: make(map[string]float64), record: make(map[string]any)}
}

// set records a metric value; the name must be one of the outcome's defs.
func (o *outcome) set(name string, v float64) {
	for _, d := range o.defs {
		if d.name == name {
			o.values[name] = v
			return
		}
	}
	panic("perfbench: unknown metric " + name)
}

// count adds one checked batch of cells: bad[i] marks a failed cell.
func (o *outcome) count(bad []bool) {
	o.attempted += len(bad)
	for _, b := range bad {
		if b {
			o.failed++
		}
	}
}

// problem notes a failure; only the first few are kept for the report.
func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) correct() bool { return o.failed == 0 && len(o.problems) == 0 }

// metrics returns every defined metric, unset ones reading 0.
func (o *outcome) metrics() map[string]metric {
	out := make(map[string]metric, len(o.defs))
	for _, d := range o.defs {
		out[d.name] = metric{o.values[d.name], d.unit}
	}
	return out
}
