package bench

import (
	"runtime"
	"testing"
)

// BenchmarkFig2Sequential and BenchmarkFig2Parallel time the full Figure 2
// sweep with one worker vs the GOMAXPROCS pool; their ratio is the
// harness's parallel speedup on this machine. Each iteration builds a
// fresh runner, so these include every configuration's build and boot;
// the Warm benchmarks below time the steady state instead.

func BenchmarkFig2Sequential(b *testing.B) {
	h := Harness{Parallelism: 1}
	for i := 0; i < b.N; i++ {
		h.RunFigure2()
	}
}

func BenchmarkFig2Parallel(b *testing.B) {
	h := Harness{Parallelism: runtime.GOMAXPROCS(0)}
	for i := 0; i < b.N; i++ {
		h.RunFigure2()
	}
}

func BenchmarkMicroSequential(b *testing.B) {
	h := Harness{Parallelism: 1}
	for i := 0; i < b.N; i++ {
		h.RunAllMicro()
	}
}

func BenchmarkMicroParallel(b *testing.B) {
	h := Harness{Parallelism: runtime.GOMAXPROCS(0)}
	for i := 0; i < b.N; i++ {
		h.RunAllMicro()
	}
}

// benchWarm times pass on one persistent sequential runner, JIT on and
// off, after an untimed warm-up pass has built and booted every
// configuration: the steady state a long-running sweep (perfbench) sees,
// where every cell restores a warm snapshot. Allocations are reported per
// pass.
func benchWarm(b *testing.B, pass func(*CellRunner)) {
	for _, bc := range []struct {
		name   string
		jitOff bool
	}{{"jit=on", false}, {"jit=off", true}} {
		b.Run(bc.name, func(b *testing.B) {
			r := Harness{Parallelism: 1, JITOff: bc.jitOff}.NewCellRunner()
			pass(r)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass(r)
			}
		})
	}
}

func BenchmarkFig2Warm(b *testing.B) {
	benchWarm(b, func(r *CellRunner) { r.RunFigure2() })
}

func BenchmarkMicroWarm(b *testing.B) {
	benchWarm(b, func(r *CellRunner) { r.RunAllMicro() })
}
