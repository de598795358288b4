package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the tail rule: a tail percentile is only meaningful with at
// least this many samples above it.
const minBeyond = 10

// rank is the 1-based nearest-rank position of the p-th percentile
// (0 < p <= 100) among n sorted samples.
func rank(n int, p float64) int {
	// The epsilon keeps p*n/100 from rounding up past an exact integer.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// beyond is the number of samples above the p-th percentile of n samples.
func beyond(n int, p float64) int { return n - rank(n, p) }

// tailOK reports whether n samples satisfy the tail rule at percentile p.
func tailOK(n int, p float64) bool { return n > 0 && beyond(n, p) >= minBeyond }

// percentile returns the nearest-rank p-th percentile of xs (0 for none).
// xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// ratio is a/b, or 0 when b is 0, so a metric never turns into NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timing is a latency distribution as the run record states it.
type timing struct {
	Unit       string  `json:"unit"`
	Samples    int     `json:"samples"`
	P50        float64 `json:"p50"`
	Percentile float64 `json:"tail_percentile,omitempty"`
	Tail       float64 `json:"tail,omitempty"`
	Beyond     int     `json:"beyond_tail,omitempty"`
}

func summarize(xs []float64, unit string, tailPct float64) timing {
	t := timing{Unit: unit, Samples: len(xs), P50: median(xs)}
	if tailPct > 0 {
		t.Percentile, t.Tail, t.Beyond = tailPct, percentile(xs, tailPct), beyond(len(xs), tailPct)
	}
	return t
}
