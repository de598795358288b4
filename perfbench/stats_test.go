package main

import "testing"

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{1000, 99, 10, true},
		{999, 99, 9, false},
		{100, 90, 10, true},
		{99, 90, 9, false},
		{10000, 99.9, 10, true},
		{9999, 99.9, 9, false},
		{20, 50, 10, true},
		{0, 99, 0, false},
	} {
		if got := beyond(c.n, c.p); got != c.beyond {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.p, got, c.beyond)
		}
		if got := tailOK(c.n, c.p); got != c.ok {
			t.Errorf("tailOK(%d, %v) = %v, want %v", c.n, c.p, got, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // descending: percentile must sort a copy
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 = %v, want 990", got)
	}
	if got := median(xs); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
	if xs[0] != 1000 {
		t.Error("percentile modified its input")
	}
	tm := summarize(xs, "ms", 99)
	if tm.Samples != 1000 || tm.Tail != 990 || tm.Beyond != 10 || tm.Percentile != 99 {
		t.Errorf("summarize = %+v", tm)
	}
}
