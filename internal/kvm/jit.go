package kvm

import (
	"github.com/nevesim/neve/internal/jit"
	"github.com/nevesim/neve/internal/mem"
	"github.com/nevesim/neve/internal/mmu"
	"github.com/nevesim/neve/internal/trace"
)

// This file wires the trace-JIT engine (internal/jit) to an assembled
// stack: it registers every state file a trap sequence can read or write
// (files.go, the saved register contexts, the CPU and distributor files)
// and installs the hooks that arm the poison taps covering everything no
// file holds.
//
// The state no file holds, and why that is sound:
//   - Physical memory contents and page-table descriptors: every access
//     goes through mem.Memory, whose Tap poisons active recordings.
//   - The stage-2 TLB: hits become replay-guard probes via OnLookup;
//     misses and mutations poison.
//   - Guest IRQ handler closures, IRQCount, and everything else touched in
//     GuestCtx.HandleVIRQ: delivery poisons at its entry point.
//   - Virtio ring cursors (Echo and Driver): every path that reads or
//     advances them moves ring data through memory first, which poisons.
//   - Timer state: enabled-line evaluation and counter reads poison.
//   - NEVE deferred access pages: registered pages resolve to the vCPU's
//     tracked PageCtx store; only the unregistered-page fallback in
//     core.pageAccess poisons.
//   - Cycle accounting: expressed as ClockDeltas.
//   - Lazily created objects (table trees, the virtio backend) and the
//     Go-side fields set with them (vmid, gicShadowOwn): a word flags
//     their presence, and creating one poisons. Checkpoint restore
//     rewrites them but also resets the engine.
//   - The trace collector's mode bits: pinned as the engine generation
//     (Hooks.Gen), so a mode change invalidates every super-op.
//   - Topology (hypervisors, VMs, vCPUs, contexts, sinks, the wiring): fixed
//     at assembly, before InstallJIT registers the files.

// InstallJIT attaches a trace-JIT engine to the stack: every core
// dispatches through it, every state file is registered with it, and its
// poison taps cover memory, the UART, and the stage-2 TLB. threshold <= 0
// selects jit.DefaultThreshold. Install after assembly (files are
// registered from the final topology); repeated calls are no-ops.
func (s *Stack) InstallJIT(threshold int) {
	if s.jit != nil {
		return
	}
	m := s.M
	tlb := m.S2.TLB
	var eng *jit.Engine
	// The taps Arm installs are built once here, not on every recording.
	poison := func() { eng.Poison() }
	logProbe := func(vmid uint16, ia, pa mem.Addr, perm mmu.Perm, hit bool) {
		eng.LogProbe(vmid, uint64(ia), uint64(pa), uint64(perm), hit)
	}
	hooks := jit.Hooks{
		NumCPUs:      len(m.CPUs),
		ClockState:   func(cpu int) jit.ClockState { return m.CPUs[cpu].JITClockState() },
		AdvanceClock: func(cpu int, d jit.ClockDelta) { m.CPUs[cpu].JITAdvanceClock(d) },
		TLBProbe: func(vmid uint16, ia uint64) (pa, perm uint64, ok bool) {
			a, p, ok := tlb.Probe(vmid, mem.Addr(ia))
			return uint64(a), uint64(p), ok
		},
		TLBAddHits: tlb.AddHits,
		TLBGen:     tlb.Gen,
		ClockGap:   func(cpu int) uint64 { return m.CPUs[cpu].JITClockGap() },
		Trace:      m.Trace,
		Gen:        func() uint64 { return m.Trace.JITMode() },
		Arm: func() {
			m.Mem.Tap = poison
			m.UART.Tap = poison
			tlb.OnMutate = poison
			tlb.OnLookup = logProbe
		},
		Disarm: func() {
			m.Mem.Tap = nil
			m.UART.Tap = nil
			tlb.OnMutate = nil
			tlb.OnLookup = nil
		},
	}
	eng = jit.New(threshold, hooks)
	m.Dist.SetJIT(eng)
	for _, h := range s.hyps() {
		h.jt = eng.TapFor(h.st[:], false)
		for i := range h.loaded {
			h.loaded[i].jt = eng.TapFor(h.loaded[i].st[:], false)
		}
		for i := range h.hostCtxs {
			h.hostCtxs[i].jt = eng.TapFor(h.hostCtxs[i].regs[:], false)
		}
		for _, vm := range h.VMs {
			vt := eng.TapFor(vm.st[:], false)
			vm.jt = make([]*jit.FileTap, len(m.CPUs))
			for i := range vm.jt {
				vm.jt[i] = vt
			}
			for _, v := range vm.VCPUs {
				v.jt = eng.TapFor(v.st[:], false)
				for _, ctx := range v.contexts() {
					ctx.jt = eng.TapFor(ctx.regs[:], false)
				}
			}
		}
	}
	for _, c := range m.CPUs {
		c.SetJIT(eng)
	}
	s.jit = eng
	// The SMP shard engines (jitshard.go) are built lazily with the same
	// threshold.
	s.jitThreshold = threshold
}

// contexts returns the vCPU's saved register contexts.
func (v *VCPU) contexts() [4]*Context {
	return [4]*Context{&v.EL1, &v.VEL2, &v.VirtEL1, &v.PageCtx}
}

// JIT returns the stack's trace-JIT engine, or nil.
func (s *Stack) JIT() *jit.Engine { return s.jit }

// JITStats returns the dispatch counters (zero when no engine is
// installed).
func (s *Stack) JITStats() trace.JITStats {
	if s.jit == nil {
		return trace.JITStats{}
	}
	return s.jit.Stats()
}
