package main

import (
	"time"

	"github.com/nevesim/neve/internal/workload"
)

// opStat is the host time spent in one kind of guest operation.
type opStat struct {
	N  uint64
	NS int64
}

func (o *opStat) add(d time.Duration) { o.N++; o.NS += int64(d) }

func (o *opStat) merge(x opStat) { o.N += x.N; o.NS += x.NS }

// apiStats is the host time of the workload.API calls of one cell.
type apiStats struct {
	Hypercall, Device, IPI, Work opStat
	// WorkInsns is the guest instructions the Work calls burned.
	WorkInsns uint64
}

func (a *apiStats) merge(x apiStats) {
	a.Hypercall.merge(x.Hypercall)
	a.Device.merge(x.Device)
	a.IPI.merge(x.IPI)
	a.Work.merge(x.Work)
	a.WorkInsns += x.WorkInsns
}

// timedAPI forwards every workload.API call to the guest unchanged and
// times it. One cell owns one timedAPI.
type timedAPI struct {
	g workload.API
	s *apiStats
}

func (t timedAPI) Work(n uint64) {
	start := time.Now()
	t.g.Work(n)
	t.s.Work.add(time.Since(start))
	t.s.WorkInsns += n
}

func (t timedAPI) Hypercall() {
	start := time.Now()
	t.g.Hypercall()
	t.s.Hypercall.add(time.Since(start))
}

func (t timedAPI) DeviceRead(off uint64) uint64 {
	start := time.Now()
	v := t.g.DeviceRead(off)
	t.s.Device.add(time.Since(start))
	return v
}

func (t timedAPI) SendIPI(target, intid int) {
	start := time.Now()
	t.g.SendIPI(target, intid)
	t.s.IPI.add(time.Since(start))
}

func (t timedAPI) OnIRQ(fn func(intid int)) { t.g.OnIRQ(fn) }

// yieldStats is one vCPU's Yield timing. Every vCPU owns its own,
// because epochs run on parallel goroutines.
type yieldStats struct {
	// Waits is the time each Yield spent parked at the epoch barrier.
	Waits []time.Duration
	// Segments is the time between one Yield's return (or the program's
	// start) and the next Yield: one epoch segment of guest execution.
	Segments []time.Duration
}

// timedSMP forwards every workload.SMPAPI call to the vCPU unchanged and
// times Yield. It must be created on the vCPU's own goroutine, when its
// program starts.
type timedSMP struct {
	workload.SMPAPI
	s        *yieldStats
	segStart time.Time
}

func newTimedSMP(g workload.SMPAPI, s *yieldStats) *timedSMP {
	return &timedSMP{SMPAPI: g, s: s, segStart: time.Now()}
}

func (t *timedSMP) Yield() {
	start := time.Now()
	t.s.Segments = append(t.s.Segments, start.Sub(t.segStart))
	t.SMPAPI.Yield()
	t.segStart = time.Now()
	t.s.Waits = append(t.s.Waits, t.segStart.Sub(start))
}
