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
