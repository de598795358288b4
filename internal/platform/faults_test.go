package platform

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/nevesim/neve/internal/arm"
	"github.com/nevesim/neve/internal/fault"
	"github.com/nevesim/neve/internal/kvm"
)

// TestFaultsOffByDefault: every registry spec builds with no fault
// machinery attached — no injector, no CPU hooks, no trace ring — so the
// hot path and the paper goldens are untouched.
func TestFaultsOffByDefault(t *testing.T) {
	for _, spec := range Registry() {
		p := MustBuild(spec)
		if p.Injector() != nil {
			t.Errorf("%s: injector attached without a fault plan", spec.Name)
		}
		if s := p.ARM(); s != nil {
			for i, c := range s.M.CPUs {
				if c.HookTrap != nil || c.HookTick != nil {
					t.Errorf("%s: cpu%d has fault hooks installed", spec.Name, i)
				}
			}
			if s.M.Trace.Recent() != nil {
				t.Errorf("%s: trace ring enabled without a fault plan", spec.Name)
			}
		}
		if s := p.X86(); s != nil {
			for i, c := range s.CPUs {
				if c.HookExit != nil || c.HookTick != nil {
					t.Errorf("%s: cpu%d has fault hooks installed", spec.Name, i)
				}
			}
		}
	}
}

// TestRunGuestErrRecoversGuestBug: a guest-triggered model panic (EL1
// touching an EL2 register without FEAT_NV) comes back as a typed
// *fault.SimError naming the faulting register, not a process crash.
func TestRunGuestErrRecoversGuestBug(t *testing.T) {
	p := MustBuild(MustLookup("vm"))
	err := p.RunGuestErr(0, func(g Guest) {
		g.(*kvm.GuestCtx).CPU.MSR(arm.HCR_EL2, 0)
	})
	var se *fault.SimError
	if !errors.As(err, &se) {
		t.Fatalf("RunGuestErr = %v, want *fault.SimError", err)
	}
	if se.Kind != fault.ErrPanic {
		t.Errorf("Kind = %v, want panic", se.Kind)
	}
	if se.Reg != "HCR_EL2" {
		t.Errorf("faulting register = %q, want HCR_EL2", se.Reg)
	}
	if se.Cycle == 0 {
		t.Error("SimError carries no cycle count")
	}
	if se.Stack == "" {
		t.Error("SimError carries no stack")
	}
	if !strings.Contains(se.Diagnostic(), "HCR_EL2") {
		t.Errorf("Diagnostic does not name the register:\n%s", se.Diagnostic())
	}
}

// TestWatchdogCatchesTrapStorm is the acceptance scenario: a guest that
// traps forever on a budgeted platform is aborted by the watchdog with an
// actionable diagnostic — the budget that tripped, the virtualization
// level, and a recent-trap history showing what kept faulting — instead
// of hanging the run.
func TestWatchdogCatchesTrapStorm(t *testing.T) {
	spec := MustLookup("neve")
	spec.MaxTraps = 200
	p := MustBuild(spec)
	err := p.RunGuestErr(0, func(g Guest) {
		for { // the livelock: an unbounded trap storm
			g.Hypercall()
		}
	})
	var se *fault.SimError
	if !errors.As(err, &se) {
		t.Fatalf("RunGuestErr = %v, want *fault.SimError", err)
	}
	if se.Kind != fault.ErrTrapStorm {
		t.Fatalf("Kind = %v, want trap-storm", se.Kind)
	}
	if se.Traps <= 200 {
		t.Errorf("Traps = %d, want > budget 200", se.Traps)
	}
	if len(se.Recent) == 0 {
		t.Fatal("no recent trap history in the diagnostic")
	}
	d := se.Diagnostic()
	if !strings.Contains(d, "trap budget 200") {
		t.Errorf("diagnostic does not name the budget:\n%s", d)
	}
	if !strings.Contains(d, "hvc") {
		t.Errorf("diagnostic's trap history does not show the storming hvc:\n%s", d)
	}
	if se.Level < 1 {
		t.Errorf("Level = %d, want the trapping guest's level (>= 1)", se.Level)
	}
}

// TestWatchdogCatchesStepOverrun: the step budget bounds guests that burn
// instructions without trapping at all.
func TestWatchdogCatchesStepOverrun(t *testing.T) {
	spec := MustLookup("vm")
	spec.MaxSteps = 10_000
	p := MustBuild(spec)
	err := p.RunGuestErr(0, func(g Guest) {
		for {
			g.Work(1000)
		}
	})
	var se *fault.SimError
	if !errors.As(err, &se) {
		t.Fatalf("RunGuestErr = %v, want *fault.SimError", err)
	}
	if se.Kind != fault.ErrStepBudget {
		t.Fatalf("Kind = %v, want step-budget", se.Kind)
	}
	if se.Steps <= 10_000 {
		t.Errorf("Steps = %d, want > budget", se.Steps)
	}
}

// TestWatchdogBudgetsOnX86: the same budgets guard the comparator stack.
func TestWatchdogBudgetsOnX86(t *testing.T) {
	spec := MustLookup("x86-nested")
	spec.MaxTraps = 100
	p := MustBuild(spec)
	err := p.RunGuestErr(0, func(g Guest) {
		for {
			g.Hypercall()
		}
	})
	var se *fault.SimError
	if !errors.As(err, &se) {
		t.Fatalf("RunGuestErr = %v, want *fault.SimError", err)
	}
	if se.Kind != fault.ErrTrapStorm {
		t.Fatalf("Kind = %v, want trap-storm", se.Kind)
	}
}

// faultWorkload drives a fixed mixed workload that traps steadily, giving
// the injector a schedule to fire on.
func faultWorkload(g Guest) {
	for i := 0; i < 400; i++ {
		g.Hypercall()
		g.Work(50)
		if i%16 == 0 {
			g.DeviceRead(0)
		}
	}
}

// TestInjectorReplaysDeterministically: the same plan against the same
// workload applies the identical fault sequence — the property that makes
// a fuzz finding replayable from its seed.
func TestInjectorReplaysDeterministically(t *testing.T) {
	run := func() ([]string, error) {
		spec := MustLookup("neve")
		spec.Faults = fault.Plan{Seed: 42, Every: 50}
		spec.MaxTraps = 2_000_000 // backstop, not expected to fire
		p := MustBuild(spec)
		err := p.RunGuestErr(0, faultWorkload)
		return p.Injector().Log(), err
	}
	log1, err1 := run()
	log2, err2 := run()
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("replay diverged: %v vs %v", err1, err2)
	}
	if len(log1) == 0 {
		t.Fatal("injector never fired (workload too small for every=50?)")
	}
	if !reflect.DeepEqual(log1, log2) {
		t.Fatalf("injection logs diverged:\n%v\nvs\n%v", log1, log2)
	}
	t.Logf("replayed %d injections: %v", len(log1), log1)
}

// TestInjectorSurvivableOnEveryARMStack: a modest injection schedule on
// each ARM registry stack either completes or fails with a typed SimError
// — never a raw panic and never a hang (the watchdog backstops it).
func TestInjectorSurvivableOnEveryARMStack(t *testing.T) {
	for _, name := range []string{"vm", "v8.3", "neve", "neve-vhe", "recursive-neve"} {
		spec := MustLookup(name)
		spec.Faults = fault.Plan{Seed: 7, Every: 100, Count: 8}
		spec.MaxTraps = 5_000_000
		p := MustBuild(spec)
		err := p.RunGuestErr(0, faultWorkload)
		if err != nil {
			var se *fault.SimError
			if !errors.As(err, &se) {
				t.Errorf("%s: non-SimError failure %v", name, err)
				continue
			}
			t.Logf("%s: workload died under injection (acceptable): %v", name, se)
		}
		if p.Injector().Injected() == 0 {
			t.Errorf("%s: no faults applied", name)
		}
	}
}

// TestVNCRCorruptOnlyFiresOnNEVE: the vncr kind is inapplicable on stacks
// without deferred access pages; a kinds=vncr plan must apply nothing
// there and must apply on a NEVE stack.
func TestVNCRCorruptOnlyFiresOnNEVE(t *testing.T) {
	run := func(name string) int {
		spec := MustLookup(name)
		spec.Faults = fault.Plan{Seed: 3, Every: 50, Kinds: []fault.Kind{fault.VNCRCorrupt}}
		spec.MaxTraps = 5_000_000
		p := MustBuild(spec)
		if err := p.RunGuestErr(0, faultWorkload); err != nil {
			t.Logf("%s: %v", name, err)
		}
		return p.Injector().Injected()
	}
	if n := run("v8.3"); n != 0 {
		t.Errorf("v8.3 (no NEVE pages) applied %d vncr corruptions", n)
	}
	if n := run("neve"); n == 0 {
		t.Error("neve stack applied no vncr corruptions")
	}
}

// TestSMPGuestPanicIsSimError: a guest-triggered panic inside an SMP vCPU
// program comes back from Protect as a typed *fault.SimError located on
// the failing vCPU, not as a process crash. Two vCPUs fail in the same
// epoch; sequential and parallel runs must both report the lower one,
// with a stack that starts at the guest's faulting call, and leave no
// goroutine behind. The failed run must also leave the stack at a
// quiescent boundary: restored to a checkpoint, it runs SMP again exactly
// as a platform that never failed.
func TestSMPGuestPanicIsSimError(t *testing.T) {
	clean := make([]func(g *kvm.SMPGuest), 4)
	for i := range clean {
		clean[i] = func(g *kvm.SMPGuest) {
			g.Work(100)
			g.Yield()
			g.SendIPI((g.ID()+1)%len(clean), 1)
			g.Work(100)
		}
	}
	// rerun restores p to cp and runs the clean programs, returning their
	// statistics and per-core cycles.
	rerun := func(p Platform, cp *Checkpoint, parallel bool) (kvm.SMPStats, []uint64, error) {
		var st kvm.SMPStats
		err := p.Protect(func() {
			p.Restore(cp)
			st = p.ARM().RunSMPOpts(clean, kvm.SMPOptions{Parallel: parallel, EpochBudget: 1})
		})
		cycles := make([]uint64, len(clean))
		for i := range cycles {
			cycles[i] = p.CPUCycles(i)
		}
		return st, cycles, err
	}
	run := func(parallel bool) *fault.SimError {
		p := MustBuild(MustLookup("smp8"))
		s := p.ARM()
		if parallel {
			// The failing run's stats are lost with it; show on an
			// identical platform that this configuration runs parallel.
			st := MustBuild(MustLookup("smp8")).ARM().RunSMPOpts(
				[]func(g *kvm.SMPGuest){func(g *kvm.SMPGuest) {}, func(g *kvm.SMPGuest) {}},
				kvm.SMPOptions{Parallel: true})
			if !st.Parallel {
				t.Fatalf("smp8 fell back to sequential: %+v", st)
			}
		}
		progs := make([]func(g *kvm.SMPGuest), 4)
		for i := range progs {
			progs[i] = func(g *kvm.SMPGuest) {
				g.Work(100)
				g.Yield()
				switch g.ID() {
				case 1:
					g.SendIPI(0, 99)
				case 2:
					g.SendIPI(0, 98)
				}
				g.Work(100)
			}
		}
		cp := p.Snapshot()
		base := runtime.NumGoroutine()
		err := p.Protect(func() {
			s.RunSMPOpts(progs, kvm.SMPOptions{Parallel: parallel, EpochBudget: 1})
		})
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > base {
			t.Errorf("parallel=%v: %d goroutines after the failed run, %d before", parallel, got, base)
		}
		var se *fault.SimError
		if !errors.As(err, &se) {
			t.Fatalf("parallel=%v: Protect = %v, want *fault.SimError", parallel, err)
		}
		if se.Kind != fault.ErrPanic || se.Msg != "kvm: guest SGI 99 out of range" || se.CPU != 1 {
			t.Errorf("parallel=%v: got %v, want a panic on cpu1: guest SGI 99 out of range", parallel, se)
		}
		if first, _, _ := strings.Cut(se.Stack, "\n"); !strings.Contains(first, "SMPGuest).SendIPI(") {
			t.Errorf("parallel=%v: stack starts at %q, want the guest's SendIPI\n%s", parallel, first, se.Stack)
		}
		fresh := MustBuild(MustLookup("smp8"))
		wantSt, wantCycles, err := rerun(fresh, fresh.Snapshot(), parallel)
		if err != nil {
			t.Fatalf("parallel=%v: clean run on a fresh platform: %v", parallel, err)
		}
		gotSt, gotCycles, err := rerun(p, cp, parallel)
		if err != nil {
			t.Fatalf("parallel=%v: restore and rerun after the failed run: %v", parallel, err)
		}
		if gotSt != wantSt || !reflect.DeepEqual(gotCycles, wantCycles) {
			t.Errorf("parallel=%v: rerun after the failure = %+v %v, want %+v %v",
				parallel, gotSt, gotCycles, wantSt, wantCycles)
		}
		return se
	}
	seq, par := run(false), run(true)
	// Stack frames print argument words (pointers), so compare the
	// stacks' frame names and everything else exactly.
	frames := func(stack string) []string {
		var out []string
		for _, l := range strings.Split(stack, "\n") {
			if fn, _, ok := strings.Cut(l, "("); ok && !strings.HasPrefix(l, "\t") {
				out = append(out, fn)
			}
		}
		return out
	}
	if !reflect.DeepEqual(frames(seq.Stack), frames(par.Stack)) {
		t.Errorf("stacks differ:\n%s\nvs\n%s", seq.Stack, par.Stack)
	}
	seqRest, parRest := *seq, *par
	seqRest.Stack, parRest.Stack = "", ""
	if !reflect.DeepEqual(seqRest, parRest) {
		t.Errorf("sequential and parallel failures differ:\n%+v\n%+v", seqRest, parRest)
	}
}
