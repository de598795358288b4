//go:build go1.23

package kvm

import (
	"errors"
	"fmt"
	"iter"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nevesim/neve/internal/arm"
	"github.com/nevesim/neve/internal/fault"
	"github.com/nevesim/neve/internal/gic"
	"github.com/nevesim/neve/internal/mmu"
	"github.com/nevesim/neve/internal/trace"
)

// The deterministic epoch-lockstep SMP engine.
//
// Each vCPU runs its trap-and-emulate stream as a coroutine (iter.Pull);
// the run is divided into epochs of at most EpochBudget guest cycles, and
// a vCPU parks — yields to whoever resumed it — when its segment ends.
// Within an epoch a vCPU touches only per-vCPU state (its CPU model,
// contexts, VNCR page, private Stage-2 TLB, trace shard, JIT shard), so
// epochs of different vCPUs may execute genuinely in parallel. Every
// shared-state effect — SGI/IPI fan-out through the distributor, shared
// guest RAM, the shared virtio device — is queued (or parked as a thunk)
// and merged at the epoch barrier in vCPU order on a single thread.
// Because segment execution is per-vCPU-pure and barriers are totally
// ordered, a parallel run is byte-identical to a sequential one: same
// cycle counts, same trap streams, same guest-visible values. That
// equivalence is the engine's correctness gate
// (TestSMPParallelMatchesSequential).
//
// The distributor is also where SMP contention is modeled: the k-th
// distributor transaction merged within one epoch is charged
// k*CostModel.DistContention cycles on its initiating vCPU, reproducing
// the serialization that concurrent SGI writes suffer on real hardware.
//
// Scheduling: the coordinator resumes the coroutines itself, in vCPU
// order, for entry, sequential epochs and exit epilogues — no goroutines,
// no channels. A parallel epoch starts min(GOMAXPROCS, active vCPUs)
// goroutines that claim active vCPUs from one atomic counter and resume
// them; the coordinator waits for all of them, then merges. A guest panic
// is recovered inside its coroutine as a *fault.SimError located on that
// vCPU, and the coordinator re-raises the lowest-numbered failure after
// the segment phase, so both modes report the same one.

// defaultEpochBudget is the guest-cycle length of one epoch when
// SMPOptions.EpochBudget is zero. Long enough to amortize barrier
// synchronization, short enough to bound IPI delivery latency.
const defaultEpochBudget = 20000

// Adaptive epoch budgets double on quiet epochs and halve on chatty ones
// within these bounds.
const (
	minEpochBudget = 1000
	maxEpochBudget = 262144
)

// SMPOptions configures an SMP run.
type SMPOptions struct {
	// Parallel runs each epoch's vCPU segments on up to GOMAXPROCS
	// goroutines. The result is byte-identical to a sequential run; only
	// wall-clock time differs.
	// Configurations whose segment execution is not per-vCPU-pure (GICv2
	// shadow pages, fault hooks, copy-on-write restored memory) fall back
	// to sequential execution; SMPStats.Parallel reports the actual mode.
	Parallel bool
	// EpochBudget is the maximum guest cycles a vCPU executes per epoch
	// (0 = defaultEpochBudget). RunSMP uses 1 for legacy strict
	// round-robin interleaving. With Adaptive set it is only the starting
	// budget.
	EpochBudget uint64
	// Adaptive retunes the epoch budget at each barrier from the epoch's
	// cross-vCPU traffic: a quiet epoch (no distributor transactions)
	// doubles the budget up to maxEpochBudget, a chatty one (more
	// transactions than active vCPUs) halves it down to minEpochBudget.
	// The inputs are virtual-time statistics only, so the budget
	// trajectory — and therefore the run — stays deterministic and
	// identical between parallel and sequential execution.
	Adaptive bool
}

// SMPStats summarizes a completed SMP run. Every field is derived from
// virtual time and merge order only, so parallel and sequential runs of
// the same programs produce equal SMPStats (wall-clock measurements live
// on the Stack; see LastSMPBarrierWait).
type SMPStats struct {
	// VCPUs is the number of vCPU programs run.
	VCPUs int
	// Parallel reports whether epochs actually ran concurrently (false
	// when the engine fell back to sequential execution).
	Parallel bool
	// Epochs is the number of epoch rounds until all vCPUs finished.
	Epochs uint64
	// VClock is the global virtual clock: the maximum per-vCPU cycle
	// count, advanced at each barrier to the slowest vCPU's position.
	VClock uint64
	// DistOps counts distributor transactions merged at barriers.
	DistOps uint64
	// Contention is the total distributor serialization penalty charged
	// (cycles), per the CostModel.DistContention model.
	Contention uint64
	// FinalBudget is the epoch budget in effect when the run finished:
	// the configured budget for fixed-budget runs, the converged value
	// for adaptive ones.
	FinalBudget uint64
}

// parkKind labels why a vCPU coroutine parked back to the coordinator.
type parkKind int

const (
	// parkEntered: the context chain is entered; the program is about to
	// run. Entry allocates from shared bump allocators, so the
	// coordinator serializes it.
	parkEntered parkKind = iota
	// parkEpoch: the epoch budget expired or the program yielded.
	parkEpoch
	// parkBarrier: the program needs a shared-state operation (op) run at
	// the barrier before it can continue.
	parkBarrier
	// parkFinishing: the program returned; the exit epilogue (cold
	// context switch out) is pending and must run serialized.
	parkFinishing
)

// smpPark is the value a vCPU coroutine yields.
type smpPark struct {
	kind parkKind
	// op is the parked shared-state operation (parkBarrier only),
	// executed by the coordinator at the barrier on the parked vCPU's
	// own CPU context.
	op func()
}

// errSMPStopped unwinds a vCPU program whose coroutine is stopped before
// it finished (a sibling failed); the coroutine's own recover drops it.
var errSMPStopped = errors.New("kvm: SMP vCPU stopped")

// smpEngine coordinates one RunSMPOpts invocation.
type smpEngine struct {
	s        *Stack
	n        int
	parallel bool
	adaptive bool
	// budget is the current epoch budget. Coroutines read it during their
	// segments; the coordinator retunes it (adaptive mode) during the
	// merge, while every vCPU is parked — goroutine start and
	// WaitGroup.Wait are the happens-before edges in parallel mode.
	budget uint64

	// next[i] resumes vCPU i until it parks and returns the park; stop[i]
	// unwinds an unfinished program. state[i] is vCPU i's last park,
	// errs[i] the failure its program panicked with.
	next  []func() (smpPark, bool)
	stop  []func()
	state []smpPark
	done  []bool
	errs  []*fault.SimError
	// barrierWait accumulates the coordinator's wall-clock wait for the
	// parallel segments of every epoch: the synchronization share of the
	// run.
	barrierWait time.Duration

	ipis   *gic.EpochQueue
	guests []*SMPGuest
	stats  SMPStats
}

// RunSMPOpts runs one program per vCPU of the innermost VM under the
// epoch-lockstep engine and returns the run's statistics. Programs receive
// an SMPGuest wrapping their vCPU's guest context; shared-state operations
// through it are merged deterministically at epoch barriers. A failed run
// re-panics after undoing its setup; only Restore makes the stack usable.
func (s *Stack) RunSMPOpts(programs []func(g *SMPGuest), opts SMPOptions) SMPStats {
	n := len(programs)
	if n == 0 {
		return SMPStats{}
	}
	if n > len(s.M.CPUs) {
		panic(fmt.Sprintf("kvm: %d SMP programs for %d cores", n, len(s.M.CPUs)))
	}
	if s.smpRunning {
		panic("kvm: RunSMP reentered from inside an SMP run")
	}
	budget := opts.EpochBudget
	if budget == 0 {
		budget = defaultEpochBudget
	}
	e := &smpEngine{
		s:        s,
		n:        n,
		budget:   budget,
		parallel: opts.Parallel && s.parallelSafe(n),
		adaptive: opts.Adaptive,
		next:     make([]func() (smpPark, bool), n),
		stop:     make([]func(), n),
		state:    make([]smpPark, n),
		done:     make([]bool, n),
		errs:     make([]*fault.SimError, n),
		ipis:     gic.NewEpochQueue(n),
		guests:   make([]*SMPGuest, n),
	}
	e.stats.VCPUs = n
	e.stats.Parallel = e.parallel

	s.smpRunning = true
	teardown := s.smpSetup(n)
	// Deferred: a failed run, its coroutines stopped, is quiescent too.
	defer func() {
		teardown()
		s.smpRunning = false
	}()
	e.run(programs)
	s.smpBarrierWait = e.barrierWait

	e.stats.DistOps = e.ipis.Ops()
	e.stats.FinalBudget = e.budget
	s.lastSMP = e.stats
	return e.stats
}

// LastSMP returns the statistics of the most recent completed SMP run.
func (s *Stack) LastSMP() SMPStats { return s.lastSMP }

// parallelSafe reports whether segment execution is per-vCPU-pure in this
// configuration, i.e. whether epochs may run on concurrent workers.
func (s *Stack) parallelSafe(n int) bool {
	for _, h := range s.hyps() {
		if h.Cfg.GICv2 {
			// The GICv2 world switch copies virtual-interface state into
			// the VM's shared GIC shadow page on every exit.
			return false
		}
	}
	if s.M.Mem.CoWActive() {
		// Copy-on-write restored memory: the first write to a shared page
		// mutates the page directory, which segments must not race on.
		return false
	}
	for _, c := range s.M.CPUs[:n] {
		if c.HookTrap != nil || c.HookTick != nil {
			// Fault injectors and watchdogs observe a global trap stream.
			return false
		}
	}
	return true
}

// smpSetup prepares the machine for (potentially parallel) segment
// execution and returns the matching teardown. The same preparation runs
// in sequential mode so that both modes execute byte-identical streams:
//   - each running CPU gets a private trace shard, merged back into the
//     machine collector in CPU order afterwards;
//   - each running CPU gets a private Stage-2 walker with its own TLB
//     (the shared TLB is not safe for concurrent fills, and per-CPU TLBs
//     make miss patterns independent of sibling scheduling);
//   - machine memory switches to concurrent mode (drops the last-page
//     cache, a pure performance shortcut);
//   - when the stack has a JIT, each running CPU switches from the
//     whole-stack engine (whose files and chain state span all cores) to
//     its persistent per-vCPU shard engine — see jitshard.go;
//   - a nested stack's L1 VM Stage-2, otherwise built lazily by the
//     first exit forwarded to the guest hypervisor, is built now, so no
//     two segments race to allocate it.
func (s *Stack) smpSetup(n int) func() {
	m := s.M
	if s.GuestHyp != nil {
		s.Host.vmVTTBR(m.CPUs[0], s.VM)
	}
	parent := m.Trace
	shards := make([]*trace.Collector, n)
	oldS2 := make([]arm.Stage2, n)
	for len(s.smpS2) < n {
		s.smpS2 = append(s.smpS2, nil)
	}
	for i := 0; i < n; i++ {
		c := m.CPUs[i]
		sh := trace.NewCollector(parent.Recording())
		sh.SetEnabled(parent.Enabled())
		if rc := parent.RecentCap(); rc > 0 {
			sh.EnableRecent(rc)
		}
		shards[i] = sh
		c.Trace = sh
		oldS2[i] = c.S2
		s2 := &mmu.Stage2{Mem: m.Mem, TLB: mmu.NewTLB(512), WalkCost: m.S2.WalkCost}
		s.smpS2[i] = s2
		c.S2 = s2
		c.SetJIT(nil)
	}
	var detachJIT func()
	if s.jit != nil {
		detachJIT = s.smpAttachJIT(n, shards)
	}
	m.Mem.SetConcurrent(true)
	return func() {
		m.Mem.SetConcurrent(false)
		if detachJIT != nil {
			// Before the trace shards merge: detaching quiesces the shard
			// engines, which may log to the shard collectors.
			detachJIT()
		}
		for i := 0; i < n; i++ {
			c := m.CPUs[i]
			parent.Merge(shards[i])
			c.Trace = parent
			c.S2 = oldS2[i]
		}
	}
}

// run drives the vCPU coroutines to completion.
func (e *smpEngine) run(programs []func(g *SMPGuest)) {
	for i, prog := range programs {
		sg := &SMPGuest{eng: e, id: i}
		e.guests[i] = sg
		e.next[i], e.stop[i] = iter.Pull(e.vcpu(sg, prog))
	}
	// Unwind whatever a failure left unfinished; a stop of a finished or
	// never-started coroutine is a no-op.
	defer func() {
		for _, stop := range e.stop {
			stop()
		}
	}()

	// Serialized entry: context-chain entry allocates from shared bump
	// allocators (guest page tables, VNCR pages), so each vCPU enters
	// alone, in vCPU order, before any epoch runs.
	for i := 0; i < e.n; i++ {
		e.resume(i)
	}
	e.raise()
	var act []int // unfinished vCPUs, in vCPU order
	for {
		act = act[:0]
		for i, d := range e.done {
			if !d {
				act = append(act, i)
			}
		}
		if len(act) == 0 {
			break
		}
		e.stats.Epochs++
		if e.parallel {
			e.runParallel(act)
		} else {
			// Sequential epoch: one segment at a time, vCPU order.
			for _, i := range act {
				e.resume(i)
			}
		}
		e.raise()
		e.merge(act)
	}
}

// vcpu returns vCPU sg's coroutine body: enter the context chain, run the
// program, and park before the exit epilogue. A panic is recovered here,
// where the failing guest frame is still on the stack, and recorded as
// the vCPU's failure for the coordinator to re-raise.
func (e *smpEngine) vcpu(sg *SMPGuest, prog func(g *SMPGuest)) iter.Seq[smpPark] {
	return func(yield func(smpPark) bool) {
		sg.yield = yield
		defer func() {
			if v := recover(); v != nil && v != errSMPStopped {
				c := e.s.M.CPUs[sg.id]
				se := fault.Recover(v)
				se.CPU, se.Level, se.Cycle = c.ID, int(c.Level()), c.Cycles()
				se.Recent = c.Trace.Recent()
				e.errs[sg.id] = se
			}
		}()
		e.s.runOn(sg.id, func(g *GuestCtx) {
			sg.GuestCtx = g
			sg.park(smpPark{kind: parkEntered})
			prog(sg)
			sg.park(smpPark{kind: parkFinishing})
		})
	}
}

// resume runs vCPU i until it parks (or its coroutine returns).
func (e *smpEngine) resume(i int) { e.state[i], _ = e.next[i]() }

// runParallel runs one epoch's segments on concurrent goroutines, each
// claiming the next active vCPU until none is left.
func (e *smpEngine) runParallel(act []int) {
	var claim atomic.Int64
	var wg sync.WaitGroup
	worker := func() {
		defer wg.Done()
		for k := int(claim.Add(1)) - 1; k < len(act); k = int(claim.Add(1)) - 1 {
			e.resume(act[k])
		}
	}
	w := min(runtime.GOMAXPROCS(0), len(act))
	wg.Add(w)
	for range w {
		go worker()
	}
	t0 := time.Now()
	wg.Wait()
	e.barrierWait += time.Since(t0)
}

// raise re-panics with the lowest-numbered vCPU failure, if any.
func (e *smpEngine) raise() {
	for _, se := range e.errs {
		if se != nil {
			panic(se)
		}
	}
}

// merge applies the epoch's shared-state effects on the coordinator
// thread, in strict vCPU order. Every active vCPU is parked, so the
// coordinator may operate on any vCPU's CPU context race-free.
func (e *smpEngine) merge(act []int) {
	// 1. Parked shared-state operations (RAM, shared device registers).
	for _, i := range act {
		if e.state[i].kind == parkBarrier && e.state[i].op != nil {
			e.state[i].op()
			e.state[i].op = nil
		}
	}
	// 2. Distributor merge, one sender lane at a time: queued SGIs replay
	// through the sender's full trap-and-emulate path (the same
	// ICC_SGI1R_EL1 write the guest would have executed), so trap costs
	// and delivery are identical to a sequential stream. The k-th
	// transaction this epoch pays k units of distributor contention,
	// summed per lane and charged in one batch — byte-identical totals
	// to the per-transaction form, one AddCycles per sender.
	cost := e.s.M.CPUs[0].Cost.DistContention
	opsBefore := e.ipis.Ops()
	e.ipis.DrainSenders(func(sender int, lane []gic.SGI, base int) {
		g := e.guests[sender]
		var pen uint64
		for j, sgi := range lane {
			g.GuestCtx.SendIPI(sgi.Target, sgi.INTID)
			if k := base + j; k > 0 {
				pen += uint64(k) * cost
			}
		}
		if pen > 0 {
			g.CPU.AddCycles(pen)
			e.stats.Contention += pen
		}
	})
	traffic := e.ipis.Ops() - opsBefore
	// 3. Exit epilogues: finishing vCPUs run their cold context switch
	// out of the guest one at a time, in vCPU order.
	for _, i := range act {
		if e.state[i].kind == parkFinishing {
			e.resume(i)
			e.done[i] = true
		}
	}
	e.raise()
	// 4. Advance the global virtual clock to the slowest vCPU.
	for i := 0; i < e.n; i++ {
		if c := e.s.M.CPUs[i].Cycles(); c > e.stats.VClock {
			e.stats.VClock = c
		}
	}
	// 5. Adaptive retune from this epoch's cross-vCPU traffic. Virtual
	// time only: the trajectory is identical in parallel and sequential
	// mode.
	if e.adaptive {
		switch {
		case traffic == 0:
			if e.budget <= maxEpochBudget/2 {
				e.budget *= 2
			} else {
				e.budget = maxEpochBudget
			}
		case traffic > uint64(len(act)):
			if e.budget/2 >= minEpochBudget {
				e.budget /= 2
			} else {
				e.budget = minEpochBudget
			}
		}
	}
}

// queueIPI records an SGI for merge at the epoch barrier.
func (e *smpEngine) queueIPI(sender, target, intid int) {
	e.ipis.Push(sender, gic.SGI{Target: target, INTID: intid})
}
