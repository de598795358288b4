package kvm

import (
	"testing"

	"github.com/nevesim/neve/internal/jit"
)

// BenchmarkJITHit measures the trace-JIT hit path end to end: one nested
// (L2) guest hypercall that replays as a super-op — on non-VHE ARMv8.3
// about 126 interpreted traps, on NEVE far fewer — including the guard
// check, the write-set restore, the clock advance, and the counter delta.
// Every timed dispatch must hit.
func BenchmarkJITHit(b *testing.B) {
	for _, bc := range []struct {
		name string
		opts StackOptions
	}{
		{"v8.3", StackOptions{}},
		{"neve", StackOptions{GuestNEVE: true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := NewNestedStack(bc.opts)
			s.InstallJIT(jit.DefaultThreshold)
			s.RunGuest(0, func(g *GuestCtx) {
				for i := 0; i < 8; i++ {
					g.Hypercall()
				}
				before := s.JITStats()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					g.Hypercall()
				}
				b.StopTimer()
				after := s.JITStats()
				if hits := after.Hits - before.Hits; hits != uint64(b.N) {
					b.Fatalf("%d of %d hypercalls replayed (%+v)", hits, b.N, after)
				}
			})
		})
	}
}

// BenchmarkJITRecord measures the trace-JIT record path end to end: each
// iteration drops the super-op cache, runs one nested (L2) guest hypercall
// as the outer cause's first sighting, then one more that runs under a
// recording and is promoted. Inner trap causes that recur within the first
// hypercall are recorded and promoted there too (23 on non-VHE ARMv8.3, 1
// on NEVE), so an iteration is every recording a cold cache makes for one
// hypercall; the super-ops/op metric counts them. Allocations are the
// recordings' and the promotions'.
func BenchmarkJITRecord(b *testing.B) {
	for _, bc := range []struct {
		name string
		opts StackOptions
	}{
		{"v8.3", StackOptions{}},
		{"neve", StackOptions{GuestNEVE: true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := NewNestedStack(bc.opts)
			s.InstallJIT(jit.DefaultThreshold)
			eng := s.JIT()
			s.RunGuest(0, func(g *GuestCtx) {
				for i := 0; i < 8; i++ {
					g.Hypercall()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.Reset()
					g.Hypercall()
					g.Hypercall()
				}
				b.StopTimer()
				_, ops := eng.Entries()
				b.ReportMetric(float64(ops), "super-ops/op")
				if st := s.JITStats(); st.Hits != 0 {
					b.Fatalf("a dispatch replayed before the outer cause was promoted (%+v)", st)
				}
				g.Hypercall()
				if st := s.JITStats(); st.Hits != 1 {
					b.Fatalf("the recorded hypercall was not promoted (%+v)", st)
				}
			})
		})
	}
}
