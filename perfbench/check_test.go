package main

import (
	"encoding/json"
	"os"
	"testing"

	"github.com/nevesim/neve/internal/bench"
	"github.com/nevesim/neve/internal/workload"
)

// tablesPass runs one tables pass through the harness, sequentially.
func tablesPass(t *testing.T, w *gridWorkload) []cellOut {
	t.Helper()
	r := bench.Harness{Parallelism: 1}.NewCellRunner()
	outs := make([]cellOut, len(w.cells))
	for i, c := range w.cells {
		outs[i] = harnessCell(r, c)
	}
	return outs
}

func TestFailFracCountsCorruptedTable(t *testing.T) {
	w := newTables()
	golden, err := w.loadGoldens("..")
	if err != nil {
		t.Fatal(err)
	}
	outs := tablesPass(t, w)

	clean := newOutcome(endToEnd)
	w.check(clean, "pass", golden, outs, sims(outs), nil)
	if !clean.correct() || clean.attempted != len(w.cells) {
		t.Fatalf("clean pass: %d of %d failed: %q", clean.failed, clean.attempted, clean.problems)
	}

	// A corrupted table cell changes the rendered Table 1: every cell of
	// the pass fails.
	corrupt := append([]cellOut(nil), outs...)
	corrupt[1].micro.Cycles++
	o := newOutcome(endToEnd)
	w.check(o, "pass", golden, corrupt, nil, nil)
	if o.correct() || o.failed != len(w.cells) || ratio(float64(o.failed), float64(o.attempted)) != 1 {
		t.Errorf("corrupted table: %d of %d failed, correct=%v", o.failed, o.attempted, o.correct())
	}

	// A counter that no table prints fails only its own cell through the
	// cross-check.
	drift := append([]cellOut(nil), outs...)
	drift[2].sim.jit.Hits++
	o = newOutcome(endToEnd)
	w.check(o, "pass", golden, drift, sims(outs), nil)
	if o.correct() || o.failed != 1 {
		t.Errorf("drifted JIT counter: %d of %d failed", o.failed, o.attempted)
	}
}

// TestDirectMatchesHarness pins the cross-check's premise: the
// benchmark's direct cells, wrapped or not, simulate exactly what the
// harness does.
func TestDirectMatchesHarness(t *testing.T) {
	var cells []gridCell
	cells = append(cells, tables.cells...)
	for _, c := range fig2.cells {
		if c.profile == workload.Profiles()[0].Name {
			cells = append(cells, c)
		}
	}
	r := bench.Harness{Parallelism: 1}.NewCellRunner()
	set, _, _, err := boot(tables.specs(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		want := harnessCell(r, c).sim
		plain := directCell(set[c.cfg], c, nil, 0)
		wrapped := directCell(set[c.cfg], c, newTracer(), 0)
		if plain.sim != want || wrapped.sim != want || plain.counts != wrapped.counts {
			t.Errorf("cell %s: harness %+v, direct %+v, wrapped %+v", c, want, plain.sim, wrapped.sim)
		}
		if c.profile != "" && wrapped.ops.Work.N == 0 {
			t.Errorf("cell %s: wrapped API timed no Work calls", c)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// the program reports in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
}
