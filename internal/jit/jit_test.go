package jit

import (
	"testing"

	"github.com/nevesim/neve/internal/trace"
)

// fakeMachine is the smallest machine the engine can accelerate: a small
// state file and a register file under read/write-set tracking, a pinned
// generation, a one-core clock, and a TLB of canned translations.
type fakeMachine struct {
	words [3]uint64
	gen   uint64

	file    [16]uint64
	clock   ClockState
	tlb     map[uint64]Probe // keyed by IA
	tlbGen  uint64
	tlbHits uint64

	probeCalls int
	gapCalls   int

	col  *trace.Collector
	eng  *Engine
	tap  *FileTap
	wtap *FileTap
}

// word and set are the state file's accessors, as a model's would be:
// every access notifies the tap. Tests set words directly to model state
// changing between dispatches.
func (m *fakeMachine) word(i int) uint64 {
	m.wtap.Read(i)
	return m.words[i]
}

func (m *fakeMachine) set(i int, v uint64) {
	m.wtap.Write(i)
	m.words[i] = v
}

// opts tweak the hook set a test engine is built with.
type fakeOpts struct {
	noTLBGen   bool // force the per-probe revalidation path
	noClockGap bool // force the full-ClockState guard path
}

func newFake(t *testing.T, threshold int, o fakeOpts) *fakeMachine {
	t.Helper()
	m := &fakeMachine{
		tlb: make(map[uint64]Probe),
		col: trace.NewCollector(false),
	}
	hooks := Hooks{
		NumCPUs:    1,
		ClockState: func(int) ClockState { return m.clock },
		AdvanceClock: func(_ int, d ClockDelta) {
			m.clock.Cycles += d.DCycles
			for l := range d.DLevel {
				m.clock.Level[l] += d.DLevel[l]
			}
			if d.NeedGap {
				m.clock.LastAttributed = m.clock.Cycles - d.PostGap
			}
		},
		TLBProbe: func(_ uint16, ia uint64) (uint64, uint64, bool) {
			m.probeCalls++
			p, ok := m.tlb[ia]
			return p.PA, p.Perm, ok
		},
		TLBAddHits: func(n uint64) { m.tlbHits += n },
		Trace:      m.col,
		Gen:        func() uint64 { return m.gen },
	}
	if !o.noTLBGen {
		hooks.TLBGen = func() uint64 { return m.tlbGen }
	}
	if !o.noClockGap {
		hooks.ClockGap = func(int) uint64 {
			m.gapCalls++
			return m.clock.Cycles - m.clock.LastAttributed
		}
	}
	m.eng = New(threshold, hooks)
	m.tap = m.eng.TapFor(m.file[:], false)
	m.wtap = m.eng.TapFor(m.words[:], false)
	return m
}

// trap drives one dispatch of cause exc, running handler interpreted on a
// miss or under a recording, exactly as the CPU trap path does.
func (m *fakeMachine) trap(exc uint64, handler func() uint64) (uint64, Status) {
	var ew [ExcWords]uint64
	ew[0] = exc
	v, st := m.eng.Dispatch(0, &ew)
	if st == Hit {
		return v, st
	}
	rv := handler()
	if st == Record {
		m.eng.EndRecord(rv)
	}
	return rv, st
}

func wantStats(t *testing.T, e *Engine, hits, misses, bails uint64) {
	t.Helper()
	if got := e.Stats(); got != (trace.JITStats{Hits: hits, Misses: misses, Bailouts: bails}) {
		t.Fatalf("stats = %+v, want hits=%d misses=%d bailouts=%d", got, hits, misses, bails)
	}
}

// TestPromotionThreshold pins the promotion policy: threshold-1 misses,
// one recorded (still interpreted) dispatch, then hits.
func TestPromotionThreshold(t *testing.T) {
	m := newFake(t, 3, fakeOpts{})
	handler := func() uint64 {
		m.set(1, 42)
		m.clock.Cycles += 100
		return 7
	}
	for i := 0; i < 2; i++ {
		if _, st := m.trap(1, handler); st != Miss {
			t.Fatalf("dispatch %d: status %v, want Miss", i, st)
		}
	}
	if _, st := m.trap(1, handler); st != Record {
		t.Fatalf("threshold dispatch: not Record")
	}
	if causes, ops := m.eng.Entries(); causes != 1 || ops != 1 {
		t.Fatalf("after promotion: %d causes, %d ops", causes, ops)
	}
	pre := m.clock.Cycles
	v, st := m.trap(1, handler)
	if st != Hit || v != 7 {
		t.Fatalf("replay: status %v val %d, want Hit 7", st, v)
	}
	if m.clock.Cycles != pre+100 {
		t.Fatalf("replay charged %d cycles, want 100", m.clock.Cycles-pre)
	}
	wantStats(t, m.eng, 1, 3, 0)
}

// TestGuardMismatchBails pins bailout semantics: a read-set word that
// differs from the recording's precondition runs the trap interpreted, and
// the divergent state is promoted as a second chain variant that then hits.
func TestGuardMismatchBails(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	handler := func() uint64 {
		m.word(2)
		return 1
	}
	m.trap(2, handler) // Record
	if _, st := m.trap(2, handler); st != Hit {
		t.Fatalf("baseline replay did not hit")
	}
	m.words[2] = 0xbeef // read but not branched on: still a guard
	if _, st := m.trap(2, handler); st != Record {
		t.Fatalf("guard mismatch did not fall back to recording")
	}
	wantStats(t, m.eng, 1, 1, 1)
	if _, st := m.trap(2, handler); st != Hit {
		t.Fatalf("second variant did not hit")
	}
	m.words[2] = 0
	if _, st := m.trap(2, handler); st != Hit {
		t.Fatalf("first variant no longer hits")
	}
	if causes, ops := m.eng.Entries(); causes != 1 || ops != 2 {
		t.Fatalf("chain: %d causes, %d ops, want 1/2", causes, ops)
	}
}

// TestRestoreDelta pins the write set: a super-op whose sequence changed
// a tracked word writes the recorded post-state back on replay.
func TestRestoreDelta(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	handler := func() uint64 {
		m.set(0, 77)
		return 0
	}
	m.words[0] = 3
	m.trap(3, handler) // Record: pre 3 -> post 77
	m.words[0] = 3
	if _, st := m.trap(3, handler); st != Hit {
		t.Fatalf("replay did not hit")
	}
	if m.words[0] != 77 {
		t.Fatalf("replay left words[0]=%d, want 77", m.words[0])
	}
}

// TestFileTracking pins read/write-set tracking: a super-op guards exactly
// the file words its recording read and restores exactly the words it
// wrote.
func TestFileTracking(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	m.file[5] = 11
	handler := func() uint64 {
		m.tap.Read(5)
		v := m.file[5]
		m.file[9] = v * 2
		m.tap.Write(9)
		return 0
	}
	m.trap(4, handler) // Record
	m.file[9] = 0
	if _, st := m.trap(4, handler); st != Hit {
		t.Fatalf("replay did not hit")
	}
	if m.file[9] != 22 {
		t.Fatalf("replay left file[9]=%d, want 22", m.file[9])
	}
	m.file[5] = 12 // violate the read guard
	if _, st := m.trap(4, handler); st == Hit {
		t.Fatalf("replay hit despite a stale read-set value")
	}
	if m.eng.Stats().Bailouts != 1 {
		t.Fatalf("read-set mismatch was not a bailout")
	}
	// An untracked word is invisible to the guard by design: only accesses
	// funneled through the tap participate.
	m.file[5] = 11
	m.file[3] = 999
	if _, st := m.trap(4, handler); st != Hit {
		t.Fatalf("untracked word perturbed the guard")
	}
}

// TestUnregisteredFilePoisons pins the poison rule: an access reported
// against FileID 0 (an unregistered store) makes the recording
// non-promotable, and poisonLimit failures retire the cause.
func TestUnregisteredFilePoisons(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	handler := func() uint64 {
		m.eng.FileRead(0, 1)
		return 0
	}
	for i := 0; i < poisonLimit; i++ {
		if _, st := m.trap(5, handler); st != Record {
			t.Fatalf("attempt %d: status %v, want Record", i, st)
		}
		if _, ops := m.eng.Entries(); ops != 0 {
			t.Fatalf("poisoned recording was promoted")
		}
	}
	if _, st := m.trap(5, handler); st != Miss {
		t.Fatalf("cause not retired after %d poisoned recordings", poisonLimit)
	}
}

// TestPoisonHook pins Engine.Poison (what the memory/device/TLB taps call).
func TestPoisonHook(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	handler := func() uint64 {
		m.eng.Poison()
		return 0
	}
	m.trap(6, handler)
	if _, ops := m.eng.Entries(); ops != 0 {
		t.Fatalf("poisoned recording was promoted")
	}
}

// TestProbes pins TLB-probe validation and the generation short-circuit:
// an unchanged generation skips re-probing entirely, a bumped generation
// re-validates, and a changed translation bails.
func TestProbes(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	m.tlb[0x1000] = Probe{PA: 0x2000, Perm: 3}
	handler := func() uint64 {
		p := m.tlb[0x1000]
		m.eng.LogProbe(1, 0x1000, p.PA, p.Perm, true)
		return 0
	}
	m.trap(7, handler) // Record
	if _, st := m.trap(7, handler); st != Hit {
		t.Fatalf("replay did not hit")
	}
	if m.probeCalls != 0 {
		t.Fatalf("unchanged generation still re-probed (%d calls)", m.probeCalls)
	}
	if m.tlbHits != 1 {
		t.Fatalf("replay back-filled %d TLB hits, want 1", m.tlbHits)
	}
	m.tlbGen++ // generation moved, mapping identical: revalidate, then hit
	if _, st := m.trap(7, handler); st != Hit {
		t.Fatalf("replay did not hit after benign generation bump")
	}
	if m.probeCalls != 1 {
		t.Fatalf("bumped generation probed %d times, want 1", m.probeCalls)
	}
	if _, st := m.trap(7, handler); st != Hit || m.probeCalls != 1 {
		t.Fatalf("generation re-stamp did not restore the short-circuit")
	}
	m.tlbGen++
	m.tlb[0x1000] = Probe{PA: 0x3000, Perm: 3} // translation changed
	if _, st := m.trap(7, handler); st == Hit {
		t.Fatalf("replay hit over a changed translation")
	}
}

// TestProbeMissPoisons: a recording that missed in the TLB (took a table
// walk) is not promotable.
func TestProbeMissPoisons(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	handler := func() uint64 {
		m.eng.LogProbe(1, 0x9000, 0, 0, false)
		return 0
	}
	m.trap(8, handler)
	if _, ops := m.eng.Entries(); ops != 0 {
		t.Fatalf("TLB-missing recording was promoted")
	}
}

// TestClockGuard pins the attribution-gap guard: a super-op recorded at
// one cycles-since-attribution gap bails at any other, under both the
// ClockGap hook and the full-ClockState fallback.
func TestClockGuard(t *testing.T) {
	for _, o := range []fakeOpts{{}, {noClockGap: true}} {
		m := newFake(t, 1, o)
		handler := func() uint64 {
			m.clock.Cycles += 50
			m.clock.Level[1] += m.clock.Cycles - m.clock.LastAttributed
			m.clock.LastAttributed = m.clock.Cycles
			return 0
		}
		m.clock = ClockState{Cycles: 100, LastAttributed: 90} // gap 10
		m.trap(9, handler)                                    // Record
		m.clock = ClockState{Cycles: 300, LastAttributed: 290}
		if _, st := m.trap(9, handler); st != Hit {
			t.Fatalf("noClockGap=%v: replay did not hit at the recorded gap", o.noClockGap)
		}
		want := ClockState{Cycles: 350, Level: [8]uint64{0, 60}, LastAttributed: 350}
		if m.clock != want {
			t.Fatalf("noClockGap=%v: replayed clock %+v, want %+v", o.noClockGap, m.clock, want)
		}
		m.clock = ClockState{Cycles: 500, LastAttributed: 480} // gap 20
		if _, st := m.trap(9, handler); st == Hit {
			t.Fatalf("noClockGap=%v: replay hit at the wrong gap", o.noClockGap)
		}
	}
}

// TestCounterDelta pins counter replay: a hit applies exactly the
// increments the interpreted sequence produced.
func TestCounterDelta(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	ev := trace.Event{Reason: trace.ReasonHVC, Aux: 3}
	handler := func() uint64 {
		m.col.Trap(ev)
		m.col.Trap(ev)
		m.col.Trap(trace.Event{Reason: trace.ReasonSysReg, Aux: 9})
		return 0
	}
	m.trap(10, handler) // Record: 3 increments logged
	if _, st := m.trap(10, handler); st != Hit {
		t.Fatalf("replay did not hit")
	}
	if got := m.col.Total(); got != 6 {
		t.Fatalf("total traps counted = %d, want 6 (3 interpreted + 3 replayed)", got)
	}
	if got := m.col.Count(trace.ReasonHVC); got != 4 {
		t.Fatalf("HVC count = %d, want 4", got)
	}
	if got := m.col.KeyCount(ev.Key()); got != 4 {
		t.Fatalf("per-key count = %d, want 4", got)
	}
}

// TestNestedDispatchMisses: while a recording is in flight, inner
// dispatches miss so their effects land inside the outer recording.
func TestNestedDispatchMisses(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	inner := func() uint64 { return 0 }
	handler := func() uint64 {
		if _, st := m.trap(12, inner); st != Miss {
			t.Fatalf("nested dispatch was not a forced miss")
		}
		return 0
	}
	m.trap(11, handler)
	if _, ops := m.eng.Entries(); ops != 1 {
		t.Fatalf("outer recording did not promote")
	}
}

// TestQuiesceAndReset pins the detach and invalidation contracts: Quiesce
// aborts an in-flight recording without charging the cause and keeps the
// compiled cache; Reset drops cache and statistics.
func TestQuiesceAndReset(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	handler := func() uint64 { return 0 }
	m.trap(13, handler) // Record + promote
	var ew [ExcWords]uint64
	ew[0] = 14
	if _, st := m.eng.Dispatch(0, &ew); st != Record {
		t.Fatalf("second cause did not start recording")
	}
	if !m.eng.Recording() {
		t.Fatalf("Recording() false with a capture in flight")
	}
	m.eng.Quiesce()
	if m.eng.Recording() {
		t.Fatalf("Quiesce left the recording armed")
	}
	if _, st := m.trap(13, handler); st != Hit {
		t.Fatalf("Quiesce dropped the compiled cache")
	}
	// The aborted recording must not count against cause 14's poison
	// budget: it still gets promoted on its next sighting.
	if _, st := m.trap(14, handler); st != Record {
		t.Fatalf("quiesced cause did not re-record")
	}
	m.eng.Reset()
	if causes, ops := m.eng.Entries(); causes != 0 || ops != 0 {
		t.Fatalf("Reset kept %d causes / %d ops", causes, ops)
	}
	wantStats(t, m.eng, 0, 0, 0)
	if _, st := m.trap(13, handler); st == Hit {
		t.Fatalf("replay hit after Reset")
	}
}

// TestStatsExclusive: exactly one stats field increments per dispatch.
func TestStatsExclusive(t *testing.T) {
	m := newFake(t, 2, fakeOpts{})
	handler := func() uint64 {
		m.word(2)
		return 0
	}
	dispatches := uint64(0)
	for i := 0; i < 5; i++ {
		m.trap(15, handler)
		dispatches++
	}
	m.words[2] = 1
	m.trap(15, handler) // bailout
	dispatches++
	s := m.eng.Stats()
	if s.Hits+s.Misses+s.Bailouts != dispatches {
		t.Fatalf("stats %+v do not sum to %d dispatches", s, dispatches)
	}
}

// TestReplayHitNoAlloc is the 0-alloc gate on the replay hit path: a
// dispatch that replays a super-op — including tracked file writes in two
// files, TLB hit back-fill, clock advance, and a counter delta — performs
// no heap allocation.
func TestReplayHitNoAlloc(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	m.tlb[0x1000] = Probe{PA: 0x2000, Perm: 3}
	m.file[5] = 11
	handler := func() uint64 {
		m.tap.Read(5)
		m.file[9] = m.file[5] * 2
		m.tap.Write(9)
		p := m.tlb[0x1000]
		m.eng.LogProbe(1, 0x1000, p.PA, p.Perm, true)
		m.col.Trap(trace.Event{Reason: trace.ReasonHVC, Aux: 3})
		m.set(0, 77)
		m.clock.Cycles += 50
		return 5
	}
	m.words[0] = 3
	m.trap(16, handler) // Record
	m.words[0] = 3
	if _, st := m.trap(16, handler); st != Hit {
		t.Fatalf("replay did not hit")
	}
	var ew [ExcWords]uint64
	ew[0] = 16
	failed := false
	avg := testing.AllocsPerRun(200, func() {
		m.words[0] = 3
		if _, st := m.eng.Dispatch(0, &ew); st != Hit {
			failed = true
		}
	})
	if failed {
		t.Fatalf("dispatch stopped hitting under AllocsPerRun")
	}
	if avg != 0 {
		t.Fatalf("replay hit path allocates (%v allocs/run)", avg)
	}
}

// TestParamMoveReplays pins the parameter-slot contract: a declared copy
// (CopyWord) promotes to a replayed move instead of a value guard, so the
// same super-op hits for any live source value and writes the live value,
// not the recorded one.
func TestParamMoveReplays(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	handler := func() uint64 {
		CopyWord(m.tap, 2, m.tap, 8)
		m.file[8] = m.file[2]
		return 0
	}
	m.file[2] = 100
	m.trap(20, handler) // Record
	m.file[2] = 200
	if _, st := m.trap(20, handler); st != Hit {
		t.Fatalf("parameterized replay did not hit on a changed source (status %v)", st)
	}
	if m.file[8] != 200 {
		t.Fatalf("replay wrote file[8]=%d, want the live source value 200", m.file[8])
	}
	if causes, ops := m.eng.Entries(); causes != 1 || ops != 1 {
		t.Fatalf("changed source grew the chain: %d causes, %d ops", causes, ops)
	}
}

// TestParamMoveImmChain pins derived forms and transitive resolution: a
// copy with an immediate, and a copy whose source is itself move-derived,
// both resolve to the external origin with immediates summed.
func TestParamMoveImmChain(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	fid := m.eng.FileByBase(&m.file[0])
	handler := func() uint64 {
		m.file[8] = m.file[2] + 5
		m.eng.FileCopy(fid, 2, fid, 8, 5)
		m.file[9] = m.file[8] + 7
		m.eng.FileCopy(fid, 8, fid, 9, 7)
		return 0
	}
	m.file[2] = 10
	m.trap(21, handler) // Record
	m.file[2] = 1000
	if _, st := m.trap(21, handler); st != Hit {
		t.Fatalf("chained-copy replay did not hit on a changed origin")
	}
	if m.file[8] != 1005 || m.file[9] != 1012 {
		t.Fatalf("replay wrote file[8]=%d file[9]=%d, want 1005/1012", m.file[8], m.file[9])
	}
}

// TestCopyFromWrittenDegrades: a copy whose source the recording already
// plain-wrote carries a recorder-computed value, so it degrades to a
// constant write and replays independent of live state.
func TestCopyFromWrittenDegrades(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	handler := func() uint64 {
		m.file[2] = 42
		m.tap.Write(2)
		CopyWord(m.tap, 2, m.tap, 8)
		m.file[8] = m.file[2]
		return 0
	}
	m.trap(22, handler) // Record
	m.file[2], m.file[8] = 7, 7
	if _, st := m.trap(22, handler); st != Hit {
		t.Fatalf("constant-degraded replay did not hit")
	}
	if m.file[2] != 42 || m.file[8] != 42 {
		t.Fatalf("replay left file[2]=%d file[8]=%d, want the harvested 42/42", m.file[2], m.file[8])
	}
}

// TestCopyFromGuardedSource: an observing read before the copy pins the
// source, so the copy degrades to a constant and the value guard still
// bails on a changed source.
func TestCopyFromGuardedSource(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	handler := func() uint64 {
		m.tap.Read(2)
		CopyWord(m.tap, 2, m.tap, 8)
		m.file[8] = m.file[2]
		return 0
	}
	m.file[2] = 5
	m.trap(23, handler) // Record
	if _, st := m.trap(23, handler); st != Hit {
		t.Fatalf("replay at the recorded value did not hit")
	}
	m.file[2] = 6
	if _, st := m.trap(23, handler); st == Hit {
		t.Fatalf("copy from a value-guarded source replayed over a changed value")
	}
}

// TestParamObservedUpgrades pins the upgrade rule: once the sequence
// observes a parameter — reading the source itself or a word derived from
// it — the external origin becomes a value guard, and replay bails when
// the origin moves.
func TestParamObservedUpgrades(t *testing.T) {
	for _, tc := range []struct {
		name    string
		readIdx int
	}{
		{"read-derived-word", 8},
		{"read-source-word", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newFake(t, 1, fakeOpts{})
			handler := func() uint64 {
				CopyWord(m.tap, 2, m.tap, 8)
				m.file[8] = m.file[2]
				m.tap.Read(tc.readIdx)
				return 0
			}
			m.file[2] = 5
			m.trap(30, handler) // Record
			m.file[2] = 5
			if _, st := m.trap(30, handler); st != Hit {
				t.Fatalf("replay at the recorded origin value did not hit")
			}
			m.file[2] = 6
			if _, st := m.trap(30, handler); st == Hit {
				t.Fatalf("observed parameter replayed over a changed origin")
			}
		})
	}
}

// TestCopyWordUntapped pins CopyWord's degradation: with one side untapped
// the declared copy falls back to a guarding read, which stays sound (the
// replay bails when the source changes).
func TestCopyWordUntapped(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	handler := func() uint64 {
		CopyWord(m.tap, 2, nil, 0)
		return 0
	}
	m.file[2] = 5
	m.trap(24, handler) // Record
	m.file[2] = 6
	if _, st := m.trap(24, handler); st == Hit {
		t.Fatalf("untapped-destination copy replayed over a changed source")
	}
}

// TestPredSlackAndBail pins replay predicates: each predicate re-evaluates
// against live state with the recording's own cycle advance as slack, a
// true predicate replays, and a false one bails.
func TestPredSlackAndBail(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	allow := true
	var gotSlack uint64
	handler := func() uint64 {
		m.eng.LogPred(func(slack uint64) bool {
			gotSlack = slack
			return allow
		}, FileRef{F: m.tap.id, Idx: 3})
		m.clock.Cycles += 100
		return 0
	}
	m.trap(25, handler) // Record
	if _, st := m.trap(25, handler); st != Hit {
		t.Fatalf("pred-true replay did not hit")
	}
	if gotSlack != 100 {
		t.Fatalf("predicate saw slack=%d, want the recorded 100-cycle advance", gotSlack)
	}
	allow = false
	if _, st := m.trap(25, handler); st == Hit {
		t.Fatalf("pred-false replay hit")
	}
	if m.eng.Stats().Bailouts != 1 {
		t.Fatalf("pred-false replay was not a bailout (stats %+v)", m.eng.Stats())
	}
}

// TestPredCoverWrittenPoisons: a predicate covering a word the recording
// itself wrote would read stale values at replay time, so the recording
// must not promote.
func TestPredCoverWrittenPoisons(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	handler := func() uint64 {
		m.file[3] = 1
		m.tap.Write(3)
		m.eng.LogPred(func(uint64) bool { return true }, FileRef{F: m.tap.id, Idx: 3})
		return 0
	}
	m.trap(26, handler)
	if _, ops := m.eng.Entries(); ops != 0 {
		t.Fatalf("predicate over a recording-written word was promoted")
	}
}

// TestEvictSuperseded pins chain eviction: promoting a parameterized
// variant drops an older single-value variant it covers, and the surviving
// variant hits for every source value including the evicted one's.
func TestEvictSuperseded(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	plain := func() uint64 {
		m.tap.Read(2)
		m.file[8] = m.file[2]
		m.tap.Write(8)
		return 0
	}
	param := func() uint64 {
		CopyWord(m.tap, 2, m.tap, 8)
		m.file[8] = m.file[2]
		return 0
	}
	m.file[2] = 10
	m.trap(27, plain) // variant A: value guard file[2]==10
	m.file[2] = 11
	if _, st := m.trap(27, param); st != Record {
		t.Fatalf("changed source did not bail into a new recording")
	}
	if ev := m.eng.Stats().Evictions; ev != 1 {
		t.Fatalf("Evictions=%d, want the stale single-value variant evicted", ev)
	}
	if _, ops := m.eng.Entries(); ops != 1 {
		t.Fatalf("chain holds %d ops, want only the parameterized variant", ops)
	}
	for _, v := range []uint64{10, 11, 12} {
		m.file[2] = v
		if _, st := m.trap(27, param); st != Hit {
			t.Fatalf("parameterized variant did not hit at source=%d", v)
		}
		if m.file[8] != v {
			t.Fatalf("replay wrote file[8]=%d, want %d", m.file[8], v)
		}
	}
}

// TestParamReplayNoAlloc extends the 0-alloc gate to the parameterized
// path: a replay that runs moves and predicates allocates nothing.
func TestParamReplayNoAlloc(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	handler := func() uint64 {
		CopyWord(m.tap, 2, m.tap, 8)
		m.file[8] = m.file[2]
		m.eng.LogPred(func(uint64) bool { return true }, FileRef{F: m.tap.id, Idx: 2})
		m.clock.Cycles += 50
		return 3
	}
	m.file[2] = 1
	m.trap(28, handler) // Record
	if _, st := m.trap(28, handler); st != Hit {
		t.Fatalf("parameterized replay did not hit")
	}
	var ew [ExcWords]uint64
	ew[0] = 28
	src := uint64(1)
	failed := false
	avg := testing.AllocsPerRun(200, func() {
		src++
		m.file[2] = src
		if _, st := m.eng.Dispatch(0, &ew); st != Hit {
			failed = true
		}
	})
	if failed {
		t.Fatalf("dispatch stopped hitting under AllocsPerRun")
	}
	if avg != 0 {
		t.Fatalf("parameterized replay path allocates (%v allocs/run)", avg)
	}
	if m.file[8] != src {
		t.Fatalf("last replay wrote file[8]=%d, want %d", m.file[8], src)
	}
}

// TestMoveToFront pins the chain policy: after a variant further down the
// chain hits, it is consulted first on the next dispatch. Observable via
// probe-call counts: only the front variant's probes are checked before a
// hit when generations force revalidation.
func TestMoveToFront(t *testing.T) {
	m := newFake(t, 1, fakeOpts{noTLBGen: true})
	handler := func() uint64 {
		p := m.tlb[0x1000]
		m.eng.LogProbe(1, 0x1000, p.PA, p.Perm, true)
		return 0
	}
	m.tlb[0x1000] = Probe{PA: 0x2000, Perm: 3}
	m.trap(17, handler) // variant A
	m.tlb[0x1000] = Probe{PA: 0x3000, Perm: 3}
	m.trap(17, handler) // variant B (chain front after promotion)
	if _, st := m.trap(17, handler); st != Hit {
		t.Fatalf("variant B did not hit")
	}
	m.tlb[0x1000] = Probe{PA: 0x2000, Perm: 3}
	if _, st := m.trap(17, handler); st != Hit {
		t.Fatalf("variant A did not hit")
	}
	// A hit and moved to the front: a dispatch in state A now probes once
	// (A's probes), not twice (B's then A's). The file-read and clock
	// guards are empty here, so probe order is the discriminator.
	calls := m.probeCalls
	if _, st := m.trap(17, handler); st != Hit {
		t.Fatalf("variant A did not stay hot")
	}
	if m.probeCalls-calls != 1 {
		t.Fatalf("front variant dispatch probed %d times, want 1", m.probeCalls-calls)
	}
}

// TestUnreadWordChangeStillHits pins the read-set guard: a tracked word
// the recording never read may hold any value at replay time, and the
// super-op still hits without writing it.
func TestUnreadWordChangeStillHits(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	handler := func() uint64 {
		m.set(1, m.word(0)+1)
		return 0
	}
	m.trap(18, handler) // Record: reads word 0, writes word 1
	m.words[2] = 0xfeed
	m.file[7] = 0xbeef
	if _, st := m.trap(18, handler); st != Hit {
		t.Fatalf("a change to unread words broke the guard")
	}
	if m.words[2] != 0xfeed || m.file[7] != 0xbeef {
		t.Fatalf("replay wrote words outside its write set")
	}
	m.words[0] = 5 // a read word: bails
	if _, st := m.trap(18, handler); st == Hit {
		t.Fatalf("replay hit over a changed read-set word")
	}
}

// TestReadOnlyFile pins read-only registration (the SMP shard view of a
// machine-shared file): a read guards like any tracked read, a write
// poisons the recording, and so does a copy into the file.
func TestReadOnlyFile(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	var shared [4]uint64
	ro := m.eng.TapFor(shared[:], true)
	if again := m.eng.TapFor(shared[:], true); again.id != ro.id {
		t.Fatalf("TapFor re-registered a known file")
	}
	read := func() uint64 {
		ro.Read(1)
		return shared[1]
	}
	shared[1] = 9
	m.trap(19, read)
	if _, st := m.trap(19, read); st != Hit {
		t.Fatalf("read of a read-only file did not replay")
	}
	shared[1] = 10
	if _, st := m.trap(19, read); st == Hit {
		t.Fatalf("read-only guard did not hold")
	}
	write := func() uint64 {
		ro.Write(2)
		shared[2] = 1
		return 0
	}
	m.trap(20, write)
	copyIn := func() uint64 {
		CopyWord(m.tap, 3, ro, 3)
		shared[3] = m.file[3]
		return 0
	}
	m.trap(21, copyIn)
	var ew [ExcWords]uint64
	for _, exc := range []uint64{20, 21} {
		ew[0] = exc
		if _, st := m.eng.Dispatch(0, &ew); st == Hit {
			t.Fatalf("cause %d: a write into a read-only file was promoted", exc)
		}
		m.eng.AbortRecord()
	}
}

// TestGenPinned pins Hooks.Gen: every super-op replays only under the
// generation it was recorded under, and a recording across a generation
// change poisons.
func TestGenPinned(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	handler := func() uint64 { return 0 }
	m.trap(22, handler)
	m.gen++
	if _, st := m.trap(22, handler); st == Hit {
		t.Fatalf("replay hit under a moved generation")
	}
	bump := func() uint64 {
		m.gen++
		return 0
	}
	m.trap(23, bump)
	if _, ops := m.eng.Entries(); ops != 2 {
		t.Fatalf("%d ops, want the recording across a bump not promoted", ops)
	}
}

// TestTransientWord pins Transient: a flag word raised during a recording
// must be back at zero when the recording ends, or it poisons.
func TestTransientWord(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	raise := func(clear bool) func() uint64 {
		return func() uint64 {
			m.set(2, 1)
			m.wtap.Transient(2)
			if clear {
				m.set(2, 0)
			}
			return 0
		}
	}
	m.trap(24, raise(false))
	if _, ops := m.eng.Entries(); ops != 0 {
		t.Fatalf("recording ending with a raised transient was promoted")
	}
	m.words[2] = 0
	m.trap(25, raise(true))
	if _, ops := m.eng.Entries(); ops != 1 {
		t.Fatalf("recording that cleared its transient was not promoted")
	}
}

// head returns the front super-op of cause exc on core 0.
func (m *fakeMachine) head(exc uint64) *superOp {
	var ew [ExcWords]uint64
	ew[0] = exc
	if ent := m.eng.entries[hashExc(0, &ew)]; ent != nil {
		return ent.ops
	}
	return nil
}

// TestRoundTripNoMoves pins the net-effect compile of a context round
// trip: a register saved into a context slot and restored from it replays
// no move for the register (its move would copy the word onto itself). A
// slot the sequence scrubs afterwards leaves no move at all, and a slot it
// keeps leaves only the save. Either way replay leaves the live register
// value in place and the slot as the interpreted sequence would.
func TestRoundTripNoMoves(t *testing.T) {
	for _, tc := range []struct {
		name  string
		scrub bool
		moves int
	}{
		{"scrubbed-slot", true, 0},
		{"kept-slot", false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newFake(t, 1, fakeOpts{})
			handler := func() uint64 {
				CopyWord(m.tap, 2, m.tap, 8) // save
				m.file[8] = m.file[2]
				m.file[2] = 0xdead // the other world runs
				m.tap.Write(2)
				CopyWord(m.tap, 8, m.tap, 2) // restore
				m.file[2] = m.file[8]
				if tc.scrub {
					m.file[8] = 0
					m.tap.Write(8)
				}
				return 0
			}
			m.file[2] = 100
			m.trap(40, handler) // Record
			op := m.head(40)
			if op == nil || len(op.moves) != tc.moves {
				t.Fatalf("promoted op replays %d moves, want %d", len(op.moves), tc.moves)
			}
			for _, v := range []uint64{100, 200} {
				m.file[2] = v
				if _, st := m.trap(40, handler); st != Hit {
					t.Fatalf("round trip did not hit at register=%d", v)
				}
				want8 := v
				if tc.scrub {
					want8 = 0
				}
				if m.file[2] != v || m.file[8] != want8 {
					t.Fatalf("replay left file[2]=%d file[8]=%d, want %d/%d", m.file[2], m.file[8], v, want8)
				}
			}
		})
	}
}

// TestPinnedWriteDropped pins which slots the net-effect compile drops: a
// write of the value the read set pins on the same word is not replayed
// (its guard already proves it holds), while a write that changes the word
// and a self-move with a non-zero immediate are kept.
func TestPinnedWriteDropped(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	fid := m.eng.FileByBase(&m.file[0])
	handler := func() uint64 {
		m.tap.Read(3) // guarded at 7 ...
		m.file[3] = 9
		m.tap.Write(3)
		m.file[3] = 7 // ... and written back: pinned, dropped
		m.tap.Write(3)
		m.tap.Read(4) // guarded at 1, written to 5: kept
		m.file[4] = 5
		m.tap.Write(4)
		m.file[6]++ // self-move with imm 1: kept
		m.eng.FileCopy(fid, 6, fid, 6, 1)
		return 0
	}
	m.file[3], m.file[4], m.file[6] = 7, 1, 10
	m.trap(41, handler) // Record
	op := m.head(41)
	if len(op.fwrites) != 1 || op.fwrites[0].p != &m.file[4] || op.fwrites[0].val != 5 {
		t.Fatalf("fwrites = %+v, want only file[4]=5", op.fwrites)
	}
	if pin := op.pinned(); len(pin) != 1 || pin[0].p != &m.file[3] || pin[0].val != 7 {
		t.Fatalf("pinned = %+v, want file[3]=7", pin)
	}
	if len(op.moves) != 1 || op.moves[0].src != &m.file[6] || op.moves[0].imm != 1 {
		t.Fatalf("moves = %+v, want the file[6] += 1 self-move", op.moves)
	}
	m.file[4] = 1
	if _, st := m.trap(41, handler); st != Hit {
		t.Fatalf("replay did not hit")
	}
	if m.file[3] != 7 || m.file[4] != 5 || m.file[6] != 12 {
		t.Fatalf("replay left file[3]=%d file[4]=%d file[6]=%d, want 7/5/12", m.file[3], m.file[4], m.file[6])
	}
	m.file[3] = 8 // the pinned word's guard still holds the op
	if _, st := m.trap(41, handler); st == Hit {
		t.Fatalf("replay hit over a changed pinned word")
	}
}

// TestEvictSupersededNetEffect pins that chain eviction judges the
// unfiltered recordings, so dropping no-op slots changes no eviction: a
// parameterized variant whose only move is a dropped self-move still
// evicts the plain variant whose write-back it covers, and a variant whose
// only moves were dropped is still parameterized, so it is never evicted
// as a plain one.
func TestEvictSupersededNetEffect(t *testing.T) {
	t.Run("self-move-evicts", func(t *testing.T) {
		m := newFake(t, 1, fakeOpts{})
		plain := func() uint64 {
			m.tap.Read(2)
			m.tap.Write(2) // write-back: pinned
			return 0
		}
		param := func() uint64 {
			CopyWord(m.tap, 2, m.tap, 2) // self-move: dropped
			return 0
		}
		m.file[2] = 10
		m.trap(42, plain)
		m.file[2] = 11
		if _, st := m.trap(42, param); st != Record {
			t.Fatalf("changed source did not bail into a new recording")
		}
		if ev := m.eng.Stats().Evictions; ev != 1 {
			t.Fatalf("Evictions=%d, want the plain write-back variant evicted", ev)
		}
		for _, v := range []uint64{10, 12} {
			m.file[2] = v
			if _, st := m.trap(42, param); st != Hit || m.file[2] != v {
				t.Fatalf("surviving variant: status %v file[2]=%d at source=%d", st, m.file[2], v)
			}
		}
	})
	t.Run("self-move-only-not-plain", func(t *testing.T) {
		m := newFake(t, 1, fakeOpts{})
		first := func() uint64 {
			CopyWord(m.tap, 2, m.tap, 2)
			m.tap.Read(3)
			return 0
		}
		second := func() uint64 {
			m.eng.LogPred(func(uint64) bool { return true }, FileRef{F: m.tap.id, Idx: 3})
			return 0
		}
		m.file[3] = 1
		m.trap(43, first)
		m.file[3] = 2
		if _, st := m.trap(43, second); st != Record {
			t.Fatalf("changed guard did not bail into a new recording")
		}
		if ev := m.eng.Stats().Evictions; ev != 0 {
			t.Fatalf("Evictions=%d: a parameterized variant was evicted as plain", ev)
		}
		if _, ops := m.eng.Entries(); ops != 2 {
			t.Fatalf("chain holds %d ops, want 2", ops)
		}
	})
}

// TestPromotionAllocs bounds the allocations of one promotion. Every list
// a super-op keeps is allocated once at its exact length; the recording
// itself, the promotion scratch and the counter aggregation reuse
// engine-owned storage. A promotion with a guard, a constant write, a
// move, a predicate, a probe, a clock charge and a counter increment
// allocates the op, its read/write array, its moves, predicates, probes,
// clocks, and its counter delta with one list; the chain entry the first
// sighting creates adds one more.
func TestPromotionAllocs(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	m.tlb[0x1000] = Probe{PA: 0x2000, Perm: 3}
	pred := func(uint64) bool { return true }
	handler := func() uint64 {
		m.tap.Read(5)
		m.file[9] = m.file[5] * 2
		m.tap.Write(9)
		CopyWord(m.tap, 2, m.tap, 8)
		m.file[8] = m.file[2]
		m.eng.LogPred(pred, FileRef{F: m.tap.id, Idx: 3})
		p := m.tlb[0x1000]
		m.eng.LogProbe(1, 0x1000, p.PA, p.Perm, true)
		m.col.Trap(trace.Event{Reason: trace.ReasonHVC, Aux: 3})
		m.clock.Cycles += 50
		return 5
	}
	m.trap(44, handler) // warm the engine-owned scratch
	const bound = 9
	avg := testing.AllocsPerRun(100, func() {
		m.eng.Reset()
		if _, st := m.trap(44, handler); st != Record {
			t.Fatalf("dispatch after Reset did not record")
		}
	})
	if _, ops := m.eng.Entries(); ops != 1 {
		t.Fatalf("recording did not promote")
	}
	if avg > bound {
		t.Fatalf("one promotion allocates %v times, want <= %d", avg, bound)
	}
}
