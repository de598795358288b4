package kvm

import (
	"sync/atomic"

	"github.com/nevesim/neve/internal/jit"
	"github.com/nevesim/neve/internal/mem"
	"github.com/nevesim/neve/internal/mmu"
	"github.com/nevesim/neve/internal/trace"
)

// Per-vCPU trace-JIT shards for the SMP epoch engine.
//
// A single jit.Engine is not safe for concurrent dispatch. Shards restore
// the replay win inside SMP runs: each running vCPU gets its own engine,
// and for the run every state file owned by that vCPU's physical core is
// re-tapped onto it — the CPU's register and state files, each
// hypervisor's loaded slot and host context for the core, and the vCPU's
// state file and saved contexts in every VM — together with a private
// per-run Stage-2 TLB. Recordings never interleave across CPUs and
// dispatch touches no shared chain state.
//
// The sharded-JIT invariant: a shard's replay writes only words owned by
// its vCPU. Machine-shared state is handled three ways:
//   - shared files a world switch reads (each VM's file: the Stage-2 root
//     and the virtio registers) are registered read-only with every shard,
//     through the VM's per-core tap: a shard read guards the word, a shard
//     write poisons;
//   - shared MUTATIONS during a recording are caught by run-long fan-out
//     taps on memory and the UART that broadcast PoisonAsync to every
//     shard (gated by the summed recording gauge, so the broadcast costs
//     one atomic load when nothing is recording);
//   - shared READS a replay could not revalidate (distributor enable bits
//     on interrupt delivery, cross-vCPU pending queues) poison at the
//     reading call sites via CPU.JITPoisonShared, bound per-run. The
//     distributor and hypervisor-wide files keep their whole-stack taps,
//     which stay inert while the whole-stack engine is detached.
//
// Shard engines persist on the Stack across RunSMPOpts calls and sweep
// cells, so super-ops compiled in one run replay in the next. The private
// TLB is fresh every run (both modes must see identical miss patterns);
// a per-run generation base keeps stale probe sets from validating
// against a new TLB whose generation counter restarted.

// smpShardEngines returns the per-vCPU shard engines for the first n
// cores, building missing ones lazily. Engines persist across runs so
// compiled super-ops survive.
func (s *Stack) smpShardEngines(n int) []*jit.Engine {
	for i := len(s.smpShards); i < n; i++ {
		s.smpShards = append(s.smpShards, s.newShardEngine(i))
	}
	return s.smpShards[:n]
}

// newShardEngine builds the shard for physical CPU i. The hooks see a
// one-CPU machine (shard clock deltas only ever charge the owning core;
// cross-core charges happen at barriers, outside recordings) and resolve
// the private TLB through s.smpS2 and the trace shard through s.smpCols at
// call time, since both are rebuilt every run while the engine persists.
func (s *Stack) newShardEngine(i int) *jit.Engine {
	c := s.M.CPUs[i]
	s.smpCols = append(s.smpCols, nil)
	var eng *jit.Engine
	hooks := jit.Hooks{
		NumCPUs:      1,
		ClockState:   func(int) jit.ClockState { return c.JITClockState() },
		AdvanceClock: func(_ int, d jit.ClockDelta) { c.JITAdvanceClock(d) },
		TLBProbe: func(vmid uint16, ia uint64) (pa, perm uint64, ok bool) {
			a, p, ok := s.smpS2[i].TLB.Probe(vmid, mem.Addr(ia))
			return uint64(a), uint64(p), ok
		},
		TLBAddHits: func(n uint64) { s.smpS2[i].TLB.AddHits(n) },
		TLBGen:     func() uint64 { return s.smpGenBase + s.smpS2[i].TLB.Gen() },
		ClockGap:   func(int) uint64 { return c.JITClockGap() },
		Gen:        func() uint64 { return s.smpCols[i].JITMode() },
		Arm: func() {
			tlb := s.smpS2[i].TLB
			tlb.OnMutate = eng.Poison
			tlb.OnLookup = func(vmid uint16, ia, pa mem.Addr, perm mmu.Perm, hit bool) {
				eng.LogProbe(vmid, uint64(ia), uint64(pa), uint64(perm), hit)
			}
		},
		Disarm: func() {
			tlb := s.smpS2[i].TLB
			tlb.OnMutate = nil
			tlb.OnLookup = nil
		},
	}
	eng = jit.New(s.jitThreshold, hooks)
	eng.SetRecGauge(&s.smpRecs)
	return eng
}

// shardFiles visits the tap of every file a shard for physical CPU i
// tracks, besides the CPU's own: each hypervisor's loaded slot and host
// context for that core, each VM's shared file (read-only), and the
// vCPU's state file and contexts in every VM.
func (s *Stack) shardFiles(i int, fn func(tap **jit.FileTap, f []uint64, ro bool)) {
	for _, h := range s.hyps() {
		fn(&h.loaded[i].jt, h.loaded[i].st[:], false)
		fn(&h.hostCtxs[i].jt, h.hostCtxs[i].regs[:], false)
		for _, vm := range h.VMs {
			fn(&vm.jt[i], vm.st[:], true)
			if i < len(vm.VCPUs) {
				v := vm.VCPUs[i]
				fn(&v.jt, v.st[:], false)
				for _, ctx := range v.contexts() {
					fn(&ctx.jt, ctx.regs[:], false)
				}
			}
		}
	}
}

// smpAttachJIT switches the first n cores from the whole-stack engine to
// their shard engines for one SMP run and returns the matching detach.
func (s *Stack) smpAttachJIT(n int, cols []*trace.Collector) func() {
	shards := s.smpShardEngines(n)
	// A fresh TLB generation base per run: shard super-ops promoted under
	// a previous run's TLB carry that run's generations and must
	// re-validate their probes against the new (empty) TLB rather than
	// match its restarted counter.
	s.smpGenBase += 1 << 32
	atomic.StoreInt64(&s.smpRecs, 0)
	// Fan-out poison: any memory or UART mutation while some shard is
	// recording may be outside that shard's files. Installed run-long;
	// the whole-stack engine is detached for the run, so the taps are
	// free for the fan.
	fan := func() {
		if atomic.LoadInt64(&s.smpRecs) == 0 {
			return
		}
		for _, sh := range shards {
			sh.PoisonAsync()
		}
	}
	s.M.Mem.Tap = fan
	s.M.UART.Tap = fan

	type tapSave struct {
		p   **jit.FileTap
		old *jit.FileTap
	}
	var saved []tapSave
	for i := 0; i < n; i++ {
		c := s.M.CPUs[i]
		sh := shards[i]
		s.smpCols[i] = cols[i]
		sh.SetTrace(cols[i])
		c.SetJIT(sh)
		// Shared-state poison: the reader's own recording synchronously,
		// every sibling shard asynchronously (their in-flight recordings
		// read the same shared word).
		c.SetJITSharedPoison(func() {
			sh.Poison()
			if atomic.LoadInt64(&s.smpRecs) != 0 {
				for _, o := range shards {
					if o != sh {
						o.PoisonAsync()
					}
				}
			}
		})
		s.shardFiles(i, func(tap **jit.FileTap, f []uint64, ro bool) {
			saved = append(saved, tapSave{tap, *tap})
			*tap = sh.TapFor(f, ro)
		})
	}
	return func() {
		for _, sv := range saved {
			*sv.p = sv.old
		}
		for i := 0; i < n; i++ {
			c := s.M.CPUs[i]
			c.SetJITSharedPoison(nil)
			shards[i].Quiesce()
			c.SetJIT(s.jit)
		}
		s.M.Mem.Tap = nil
		s.M.UART.Tap = nil
	}
}

// SMPJITStats sums the dispatch counters of the per-vCPU shard engines
// (zero when the stack has no JIT or never ran SMP).
func (s *Stack) SMPJITStats() trace.JITStats {
	var st trace.JITStats
	for _, sh := range s.smpShards {
		st = st.Add(sh.Stats())
	}
	return st
}
