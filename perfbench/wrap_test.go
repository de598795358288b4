package main

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/nevesim/neve/internal/workload"
)

// fakeGuest logs every call it receives.
type fakeGuest struct{ log []string }

func (f *fakeGuest) add(format string, args ...any) {
	f.log = append(f.log, fmt.Sprintf(format, args...))
}

func (f *fakeGuest) Work(n uint64)                { f.add("Work %d", n) }
func (f *fakeGuest) Hypercall()                   { f.add("Hypercall") }
func (f *fakeGuest) DeviceRead(off uint64) uint64 { f.add("DeviceRead %d", off); return off + 7 }
func (f *fakeGuest) SendIPI(target, intid int)    { f.add("SendIPI %d %d", target, intid) }
func (f *fakeGuest) OnIRQ(fn func(int))           { f.add("OnIRQ"); fn(40) }
func (f *fakeGuest) Cycles() uint64               { f.add("Cycles"); return 123 }
func (f *fakeGuest) Yield()                       { f.add("Yield") }
func (f *fakeGuest) RAMRead64(off uint64) uint64  { f.add("RAMRead64 %d", off); return off * 2 }
func (f *fakeGuest) RAMWrite64(off, v uint64)     { f.add("RAMWrite64 %d %d", off, v) }
func (f *fakeGuest) ArmTimer(delta uint64)        { f.add("ArmTimer %d", delta) }
func (f *fakeGuest) DeviceKick()                  { f.add("DeviceKick") }
func (f *fakeGuest) ID() int                      { f.add("ID"); return 5 }

var _ workload.SMPAPI = (*fakeGuest)(nil)

func TestTimedAPIForwardsEveryCall(t *testing.T) {
	f := &fakeGuest{}
	var s apiStats
	var api workload.API = timedAPI{f, &s}
	irq := -1
	api.OnIRQ(func(intid int) { irq = intid })
	api.Work(1000)
	api.Work(500)
	api.Hypercall()
	if v := api.DeviceRead(3); v != 10 {
		t.Errorf("DeviceRead returned %d, want 10", v)
	}
	api.SendIPI(1, 3)
	want := []string{"OnIRQ", "Work 1000", "Work 500", "Hypercall", "DeviceRead 3", "SendIPI 1 3"}
	if !reflect.DeepEqual(f.log, want) {
		t.Errorf("guest saw %q, want %q", f.log, want)
	}
	if irq != 40 {
		t.Errorf("IRQ handler got %d, want 40", irq)
	}
	if s.Work.N != 2 || s.WorkInsns != 1500 || s.Hypercall.N != 1 || s.Device.N != 1 || s.IPI.N != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestTimedSMPForwardsEveryCall(t *testing.T) {
	f := &fakeGuest{}
	var s yieldStats
	var g workload.SMPAPI = newTimedSMP(f, &s)
	g.OnIRQ(func(int) {})
	g.Work(8)
	g.Hypercall()
	g.DeviceRead(1)
	g.SendIPI(2, 4)
	g.Yield()
	g.RAMWrite64(16, 9)
	if v := g.RAMRead64(16); v != 32 {
		t.Errorf("RAMRead64 returned %d, want 32", v)
	}
	g.ArmTimer(50)
	g.DeviceKick()
	if g.ID() != 5 || g.Cycles() != 123 {
		t.Error("ID or Cycles not forwarded")
	}
	g.Yield()
	want := []string{"OnIRQ", "Work 8", "Hypercall", "DeviceRead 1", "SendIPI 2 4", "Yield",
		"RAMWrite64 16 9", "RAMRead64 16", "ArmTimer 50", "DeviceKick", "ID", "Cycles", "Yield"}
	if !reflect.DeepEqual(f.log, want) {
		t.Errorf("vCPU saw %q, want %q", f.log, want)
	}
	if len(s.Waits) != 2 || len(s.Segments) != 2 {
		t.Errorf("yield stats: %d waits, %d segments, want 2 each", len(s.Waits), len(s.Segments))
	}
}
