package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run, recorded by the
// benchmark around a call into one layer. Parent is the ID of the span
// that caused it (0 for a root); times are ns since the tracer's origin.
type span struct {
	ID, Parent int
	Name       string
	Start, End int64
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps the traced run's spans in memory; workers record into it
// concurrently.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its ID. A nil tracer records nothing.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now})
	return id
}

// end closes span id and returns its duration (0 on a nil tracer).
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.dur())
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time by ID: its duration minus the
// part of its interval that its child spans cover. Overlapping children
// are counted once, and a child's time outside its parent is ignored.
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, reach int64
	reach = p.Start
	for _, v := range iv {
		lo := max(v[0], reach)
		if v[1] > lo {
			total += v[1] - lo
			reach = v[1]
		}
	}
	return total
}

// layerTime is one span name's share of the traced run.
type layerTime struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// layerTimes sums total and self time per span name.
func layerTimes(spans []span) map[string]layerTime {
	self := selfTimes(spans)
	out := make(map[string]layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		lt.Count++
		lt.TotalMS += float64(s.dur()) / 1e6
		lt.SelfMS += float64(self[s.ID]) / 1e6
		out[s.Name] = lt
	}
	return out
}
