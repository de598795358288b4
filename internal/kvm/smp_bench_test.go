package kvm_test

import (
	"testing"

	"github.com/nevesim/neve/internal/kvm"
	"github.com/nevesim/neve/internal/platform"
)

// BenchmarkSMPEpoch is the SMP engine's layer row: 8 vCPUs on smp8, each
// yielding 64 times, so nearly every epoch is pure engine work — resume
// every vCPU, wait for its park, merge an empty barrier. ns/epoch is the
// per-epoch scheduling cost; allocs/op counts one whole run (engine
// setup, trace shards, per-run TLBs and the coroutines).
func BenchmarkSMPEpoch(b *testing.B) {
	const vcpus, yields = 8, 64
	progs := make([]func(g *kvm.SMPGuest), vcpus)
	for i := range progs {
		progs[i] = func(g *kvm.SMPGuest) {
			for range yields {
				g.Yield()
			}
		}
	}
	for _, parallel := range []bool{false, true} {
		name := "seq"
		if parallel {
			name = "par"
		}
		b.Run(name, func(b *testing.B) {
			s := platform.MustBuild(platform.MustLookup("smp8")).ARM()
			s.RunSMPOpts(progs, kvm.SMPOptions{Parallel: parallel})
			var epochs uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := s.RunSMPOpts(progs, kvm.SMPOptions{Parallel: parallel})
				if st.Parallel != parallel {
					b.Fatalf("ran parallel=%v, want %v", st.Parallel, parallel)
				}
				epochs += st.Epochs
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(epochs), "ns/epoch")
		})
	}
}
