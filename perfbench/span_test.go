package main

import (
	"math"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "cell", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "cell", Start: 20, End: 50},  // overlaps span 2
		{ID: 4, Parent: 1, Name: "cell", Start: 90, End: 120}, // ends past its parent
		{ID: 5, Parent: 3, Name: "run", Start: 25, End: 45},
		{ID: 6, Name: "setup", Start: 200, End: 210},
	}
	want := map[int]int64{1: 50, 2: 20, 3: 10, 4: 30, 5: 20, 6: 10}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self(%d) = %d, want %d", id, got[id], w)
		}
	}
	lt := layerTimes(spans)["cell"]
	if lt.Count != 3 || math.Abs(lt.TotalMS-80e-6) > 1e-15 || math.Abs(lt.SelfMS-60e-6) > 1e-15 {
		t.Errorf("layerTimes[cell] = %+v", lt)
	}
}

func TestTracerRecordsParents(t *testing.T) {
	tr := newTracer()
	p := tr.begin("pass", 0)
	c := tr.begin("cell", p)
	tr.end(c)
	tr.end(p)
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[0].End < s[1].End {
		t.Errorf("spans = %+v", s)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", 0); id != 0 || nilTracer.end(id) != 0 {
		t.Error("a nil tracer must record nothing")
	}
}
