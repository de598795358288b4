// Package jit is the trace-JIT layer: it records hot trap/world-switch
// sequences as they execute interpreted, promotes causes that recur above a
// threshold into super-ops — the sequence's net state change (register
// writes, cycle charges, trace-counter increments) validated against a guard
// vector of preconditions — and replays them with a single dispatch instead
// of N interpreted traps.
//
// All replay-relevant machine state lives in small fixed register files
// registered with the engine (TapFor), and every access to them
// funnels through the file's FileTap. Correctness rests on one invariant: a
// super-op replays if and only if every tracked word its recording read
// still holds the value it read (the read set — nothing else is compared,
// so a guard costs what the sequence read, not what the machine holds),
// every stage-2 TLB translation the recording consumed is still cached with
// the same result (the probes), the generation the engine pins (Hooks.Gen)
// is unchanged, and nothing outside the tracked state was touched during
// the recording (enforced by poisoning: memory, device, and TLB mutation
// hooks armed for the duration of a recording mark it non-promotable, as do
// accesses to an unregistered file, a write to a read-only file, and any
// state a file's owner declares inexpressible). Replay then restores the
// recording's net write set: every written word whose final value the
// guards do not already imply. A word the sequence wrote back to the value
// it read (a guarded save/restore round trip) is not rewritten. On any
// guard mismatch the trap runs interpreted with zero behavioral difference.
//
// The guard vector is split: alongside the value guards, a recording may
// carry parameter slots — words the recorded sequence consumed without
// observing. A tracked word the sequence only copied into another tracked
// word (FileCopy: bulk context-save sequences, timer compare values moved
// between files) is recorded as a src→dst move, optionally src+imm, not as
// a value guard, so the same super-op replays for any live source value;
// and a word whose only influence on the sequence is re-validated by a
// caller-supplied replay predicate (LogPred: the timer's expired/steady
// evaluation) carries no value guard either. The parameterization degrades
// soundly: the moment the interpreted sequence observes a parameter word
// through any read tap — directly, or through a word derived from it — the
// parameter is upgraded back to a value guard of the origin word, pinning
// every derived value the sequence could have branched on. A move whose
// origin is its own destination (a context saved and restored unobserved)
// leaves the word as it was and is not replayed.
package jit

import (
	"slices"
	"sync/atomic"

	"github.com/nevesim/neve/internal/trace"
)

// ExcWords is the number of packed words identifying a trap cause; the
// (cpu, cause) pair keys the recorder.
const ExcWords = 4

// Status is the outcome of a dispatch.
type Status int

const (
	// Miss: no super-op replayed; the caller runs the trap interpreted.
	Miss Status = iota
	// Record: run interpreted under recording; the caller must call
	// EndRecord (or AbortRecord on panic) when the handler returns.
	Record
	// Hit: a super-op replayed; the caller uses the returned value and
	// skips the handler entirely.
	Hit
)

// DefaultThreshold is how many sightings of a trap cause trigger a
// recording when the platform does not specify one.
const DefaultThreshold = 2

const (
	// poisonLimit retires a trap cause after this many failed recordings;
	// causes that keep touching untracked state are never worth retrying.
	poisonLimit = 4
	// maxChain bounds the super-op variants kept per cause; move-to-front
	// keeps the matching variant's guard check first, so a longer chain
	// costs little per dispatch, but a cause needing still more variants
	// is effectively data-dependent.
	maxChain = 8
)

// Probe records one stage-2 TLB translation consumed during a recording.
// Replay re-probes and bails unless the cached result is identical.
type Probe struct {
	VMID uint16
	IA   uint64
	PA   uint64
	Perm uint64
}

// ClockState snapshots one core's cycle accounting.
type ClockState struct {
	Cycles         uint64
	Level          [8]uint64
	LastAttributed uint64
}

// ClockDelta is the recorded cycle effect of a super-op on one core.
//
// NeedGap distinguishes two shapes. When the recording ran an attribution
// point on the core, the per-level charge depends on the gap between the
// core's cycle counter and its last attribution point, so replay guards
// that the gap equals PreGap and then restores the recorded post-gap. When
// the core was only charged raw cycles (a peer receiving an IPI wire
// charge), the delta is translation-invariant and applies with no guard.
type ClockDelta struct {
	CPU     int
	NeedGap bool
	PreGap  uint64
	DCycles uint64
	DLevel  [8]uint64
	PostGap uint64
}

// Hooks connects the engine to the machine it accelerates.
type Hooks struct {
	NumCPUs      int
	ClockState   func(cpu int) ClockState
	AdvanceClock func(cpu int, d ClockDelta)
	// TLBProbe looks up a stage-2 translation without counting or
	// mutating; TLBAddHits back-fills the hit statistics a replay skipped.
	TLBProbe   func(vmid uint16, ia uint64) (pa, perm uint64, ok bool)
	TLBAddHits func(n uint64)
	// TLBGen, when non-nil, returns the TLB's mutation generation; an
	// unchanged generation lets replay skip re-validating probes.
	TLBGen func() uint64
	// ClockGap, when non-nil, returns cycles-since-last-attribution for a
	// core: the only clock fact the replay guard needs, fetched without
	// copying the full ClockState.
	ClockGap func(cpu int) uint64
	Trace    *trace.Collector
	// Gen, when non-nil, returns a generation every super-op pins: state
	// that is not worth a tracked word (the trace collector's mode bits)
	// bumps it, and a recording across a bump poisons.
	Gen func() uint64
	// Arm and Disarm install and remove the poison taps on memory,
	// devices, and the TLB for the duration of a recording.
	Arm    func()
	Disarm func()
}

// FileID names a register file registered for read/write-set tracking;
// zero means "no file" and poisons any recording that touches it.
type FileID int32

// fileWord is one tracked-file guard or delta entry: in a read set, val
// is the value the recording read (guarded on replay); in a write set,
// val is the value the recording left behind (restored on replay).
type fileWord struct {
	f   FileID
	idx int32
	val uint64
}

// ptrWord is a promoted fileWord: the (file, index) pair resolved to the
// word's address. Registered files never move — they are fixed-size
// arrays embedded in stack topology structs, and snapshot restore
// assigns into them rather than replacing them — so promotion resolves
// each tracked word once and replay pays a single dereference.
type ptrWord struct {
	p   *uint64
	val uint64
}

// paramSrc is an external tracked word a recording consumes as a parameter
// (copy source or predicate input) rather than as a value guard. val is the
// value it held at record time — unused by replay unless the parameter is
// upgraded (guarded) because the sequence observed it.
type paramSrc struct {
	f       FileID
	idx     int32
	guarded bool
	val     uint64
}

// recMove is one declared copy captured during a recording: the word
// (dstF, dstIdx) was assigned params[param]'s live value plus imm. Chained
// copies are resolved to their external origin at declaration time, so
// every recMove's parameter is a word the recording had not written when
// the copy executed.
type recMove struct {
	param  int32
	dstF   FileID
	dstIdx int32
	imm    uint64
}

// moveOp is a promoted recMove: replay assigns *dst = *src + imm, reading
// the live source value instead of guarding it.
type moveOp struct {
	src, dst *uint64
	imm      uint64
}

// Pred is a replay predicate: a caller-supplied check re-evaluated against
// live state during replay validation (it must mutate nothing). slack is
// the recorded cycle advance of the dispatching core across the super-op,
// for predicates that must hold through the end of the replayed sequence,
// not just at dispatch (a timer line must still be unexpired after the
// replay's cycle charge lands). Returning false bails to the interpreter.
type Pred func(slack uint64) bool

// FileRef names one tracked word a predicate re-validates; LogPred uses it
// to poison recordings whose predicate inputs were written by the sequence
// itself (the predicate would read pre-replay values) and to let chain
// eviction recognize value guards a predicate supersedes.
type FileRef struct {
	F   FileID
	Idx int32
}

// maxFileWords bounds a tracked file so the first-access bitmaps are two
// fixed words (arm.NumSysRegs fits).
const maxFileWords = 128

// slab hands out sub-slices of chunkWords-sized chunks, so registering
// hundreds of small files (a 64-core stack registers over 500) costs a
// few allocations instead of several per file. Chunks are never
// reallocated, so every slice handed out stays valid.
type slab[T any] struct {
	chunks [][]T
	free   []T
}

const chunkWords = 1024

func (s *slab[T]) take(n int) []T {
	if len(s.free) < n {
		c := make([]T, chunkWords)
		s.chunks = append(s.chunks, c)
		s.free = c
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

var allQuiet = func() (q [chunkWords]bool) {
	for i := range q {
		q[i] = true
	}
	return q
}()

// setQuiet sets every quiet flag of every file to v, a chunk at a time.
func (e *Engine) setQuiet(v bool) {
	for _, c := range e.bools.chunks {
		if v {
			copy(c, allQuiet[:])
		} else {
			clear(c)
		}
	}
}

// register adds f to the tracked files for read/write-set tracking: the
// file's accessors report reads and writes through a FileTap during
// recordings, so a super-op guards exactly the words it read and restores
// the words it changed. Every access path to the file must funnel
// through the tap. A read-only file may be guarded but never restored: a
// read records a value guard as usual, while a write (or a copy into it)
// poisons the recording. Per-vCPU shard engines register machine-shared
// files this way, so a shard's replay only ever writes words its vCPU
// owns.
func (e *Engine) register(f []uint64, ro bool) FileID {
	if len(f) == 0 || len(f) > maxFileWords {
		panic("jit: register file size unsupported for tracking")
	}
	e.files = append(e.files, f)
	id := FileID(len(e.files))
	if e.fileBases == nil {
		e.fileBases = make(map[*uint64]FileID)
	}
	e.fileBases[&f[0]] = id
	e.ro = append(e.ro, ro)
	q := e.bools.take(len(f))
	if e.rec == nil {
		copy(q, allQuiet[:])
	}
	e.quiet = append(e.quiet, q)
	e.rdSeen = append(e.rdSeen, [2]uint64{})
	e.wrSeen = append(e.wrSeen, [2]uint64{})
	e.prov = append(e.prov, e.int32s.take(len(f)))
	e.psrc = append(e.psrc, e.int32s.take(len(f)))
	return id
}

// FileByBase resolves a registered file by the address of its first word
// (how the batched context sequences identify the store they move), or
// zero for an unregistered array.
func (e *Engine) FileByBase(p *uint64) FileID { return e.fileBases[p] }

func (e *Engine) tap(id FileID) *FileTap { return &FileTap{e: e, id: id, q: e.quiet[id-1]} }

// TapFor returns e's tap for file f, registering it on first use (read-only
// when ro; see register) and reusing the existing ID thereafter: an owner
// that attaches the same file to the same engine repeatedly (the SMP
// engine swaps shard engines in every run) must not split its read/write
// sets across IDs.
func (e *Engine) TapFor(f []uint64, ro bool) *FileTap {
	id := e.FileByBase(&f[0])
	if id == 0 {
		id = e.register(f, ro)
	}
	return e.tap(id)
}

// FileTap is the per-file access notifier a tracked file's accessors
// call. The nil receiver is valid and free, so files carry a tap pointer
// that stays nil until an engine is installed.
type FileTap struct {
	e  *Engine
	id FileID
	q  []bool // the file's quiet words
}

// Read reports a read of word idx. A read the active recording has no
// use for (the word is already guarded or recorder-written), and every
// read while no recording is active, is filtered here without a call:
// accessors read the same few words many times per sequence.
func (t *FileTap) Read(idx int) {
	if t != nil && !t.q[idx] {
		t.read(idx)
	}
}

// read is Read's recording path, kept out of line so Read and the state
// accessors that call it stay within the inlining budget.
//
//go:noinline
func (t *FileTap) read(idx int) { t.e.FileRead(t.id, idx) }

// Write reports a write of word idx.
func (t *FileTap) Write(idx int) {
	if t != nil && t.e.rec != nil {
		t.write(idx)
	}
}

// write is Write's recording path, out of line like read.
//
//go:noinline
func (t *FileTap) write(idx int) { t.e.FileWrite(t.id, idx) }

// Poison marks the active recording non-promotable: the file's owner
// touched state it cannot express as tracked words (a queue spill, a
// lazily created object, an in-flight payload).
func (t *FileTap) Poison() {
	if t != nil {
		t.e.Poison()
	}
}

// Written reports whether the active recording has written word idx.
func (t *FileTap) Written(idx int) bool {
	return t != nil && t.e.FileWritten(t.id, idx)
}

// Transient declares that word idx, just written non-zero, flags state
// with a payload outside the file (a queued forward): the recording may
// only promote if the word is back to zero when it ends, since replay
// restores the word but not the payload.
func (t *FileTap) Transient(idx int) {
	if t != nil && t.e.rec != nil && !t.e.rec.poisoned {
		t.e.rec.transients = append(t.e.rec.transients, FileRef{t.id, int32(idx)})
	}
}

// CopyWord declares, through taps, a copy the caller performed from word si
// of src's file to word di of dst's file without observing the value (no
// branch, no derived computation). When both taps report to the same engine
// the copy becomes a FileCopy parameter slot — the promoted super-op
// re-executes the move against live state instead of value-guarding the
// source. Any other combination (either side untapped, or taps on
// different engines) degrades to the plain Read/Write notifications, which
// stay sound: the read guards, the write restores.
func CopyWord(src *FileTap, si int, dst *FileTap, di int) {
	if src != nil && dst != nil && src.e == dst.e {
		if src.e.rec != nil {
			src.e.FileCopy(src.id, si, dst.id, di, 0)
		}
		return
	}
	src.Read(si)
	dst.Write(di)
}

// provConst marks a word plain-written by the recording: its final value is
// recorder-computed and harvested as a constant at promotion. Positive prov
// values are 1-based indexes into the recording's move list (the word's
// last writer was a declared copy); zero means the word is untouched.
const provConst = -1

// FileRead records a tracked-file read during a recording: the first
// read of a word not already written by the recording guards the value
// being read (later reads and reads of self-written words are derived
// from state already guarded). Reading a word the recording derived from a
// parameter — or a parameter source itself — upgrades the parameter's
// external origin to a value guard: the interpreted sequence observed the
// value and may have branched on it, so replay must pin it.
func (e *Engine) FileRead(f FileID, idx int) {
	rec := e.rec
	if rec == nil || rec.poisoned {
		return
	}
	if f <= 0 {
		rec.poisoned = true
		return
	}
	i := int(f) - 1
	word, bit := idx>>6, uint64(1)<<uint(idx&63)
	e.quiet[i][idx] = true
	if pv := e.prov[i][idx]; pv != 0 {
		if pv > 0 {
			e.guardParam(rec, rec.moves[pv-1].param)
		}
		return
	}
	if e.rdSeen[i][word]&bit != 0 {
		return
	}
	if ps := e.psrc[i][idx]; ps > 0 {
		e.guardParam(rec, ps-1)
		return
	}
	e.rdSeen[i][word] |= bit
	rec.freads = append(rec.freads, fileWord{f, int32(idx), e.files[i][idx]})
}

// guardParam upgrades parameter pi to a value guard of its origin word:
// the guard pins the live origin to its record-time value, which in turn
// pins every value the recording derived from it, so the moves that
// consumed the parameter stay sound whether they replay as moves or are
// folded back to constants at promotion.
func (e *Engine) guardParam(rec *recording, pi int32) {
	p := &rec.params[pi]
	if p.guarded {
		return
	}
	p.guarded = true
	i := int(p.f) - 1
	e.rdSeen[i][int(p.idx)>>6] |= uint64(1) << uint(int(p.idx)&63)
	e.quiet[i][p.idx] = true
	rec.freads = append(rec.freads, fileWord{p.f, p.idx, p.val})
}

// FileWrite records a tracked-file write during a recording; the final
// value is harvested from the file when the recording is promoted.
func (e *Engine) FileWrite(f FileID, idx int) {
	rec := e.rec
	if rec == nil || rec.poisoned {
		return
	}
	if f <= 0 {
		rec.poisoned = true
		return
	}
	i := int(f) - 1
	if e.ro[i] {
		rec.poisoned = true
		return
	}
	e.prov[i][idx] = provConst
	word, bit := idx>>6, uint64(1)<<uint(idx&63)
	e.quiet[i][idx] = true
	if e.wrSeen[i][word]&bit != 0 {
		return
	}
	e.wrSeen[i][word] |= bit
	rec.fwrites = append(rec.fwrites, fileWord{f, int32(idx), 0})
}

// FileCopy records a declared copy during a recording: the machine moved
// the value of tracked word (srcF, srcIdx), plus imm, into tracked word
// (dstF, dstIdx) without observing it (no branch, no derived computation —
// a pure storage move, as in the batched context sequences). Instead of
// value-guarding the source, the engine emits a parameter move the replay
// re-executes against the live source value. Copies chain: a copy whose
// source is itself move-derived resolves to the external origin with the
// immediates summed, so every promoted move reads a word the sequence had
// not yet written. Copies from words the recording already pinned — plain-
// written, or value-guarded by an earlier observing read — degrade to
// constant writes; they cost nothing and stay sound.
//
// The caller performs the actual data move itself, exactly as with the
// Read/Write taps; FileCopy is bookkeeping only.
func (e *Engine) FileCopy(srcF FileID, srcIdx int, dstF FileID, dstIdx int, imm uint64) {
	rec := e.rec
	if rec == nil || rec.poisoned {
		return
	}
	if srcF <= 0 || dstF <= 0 || e.ro[dstF-1] {
		rec.poisoned = true
		return
	}
	si := int(srcF) - 1
	var pi int32
	switch pv := e.prov[si][srcIdx]; {
	case pv < 0:
		// Source holds a recorder-computed constant.
		e.FileWrite(dstF, dstIdx)
		return
	case pv > 0:
		m := &rec.moves[pv-1]
		pi = m.param
		imm += m.imm
	default:
		if e.rdSeen[si][srcIdx>>6]&(uint64(1)<<uint(srcIdx&63)) != 0 {
			// Source already value-guarded: pinned, so the copy result is a
			// constant too.
			e.FileWrite(dstF, dstIdx)
			return
		}
		if ps := e.psrc[si][srcIdx]; ps > 0 {
			pi = ps - 1
		} else {
			rec.params = append(rec.params, paramSrc{f: srcF, idx: int32(srcIdx), val: e.files[si][srcIdx]})
			pi = int32(len(rec.params) - 1)
			e.psrc[si][srcIdx] = pi + 1
		}
	}
	di := int(dstF) - 1
	rec.moves = append(rec.moves, recMove{param: pi, dstF: dstF, dstIdx: int32(dstIdx), imm: imm})
	e.prov[di][dstIdx] = int32(len(rec.moves))
	word, bit := dstIdx>>6, uint64(1)<<uint(dstIdx&63)
	e.quiet[di][dstIdx] = false
	if e.wrSeen[di][word]&bit == 0 {
		e.wrSeen[di][word] |= bit
		rec.fwrites = append(rec.fwrites, fileWord{dstF, int32(dstIdx), 0})
	}
}

// FileWritten reports whether the active recording has written tracked
// word (f, idx). Machine code uses it to decide between the parameterized
// path (raw reads plus a replay predicate) and the guarded path: a word
// the sequence itself wrote holds a recorder-determined value that a
// predicate evaluated before commit would not see.
func (e *Engine) FileWritten(f FileID, idx int) bool {
	if e.rec == nil || f <= 0 {
		return false
	}
	return e.wrSeen[int(f)-1][idx>>6]&(uint64(1)<<uint(idx&63)) != 0
}

// LogPred records a replay predicate for the active recording: p is re-
// evaluated against live state on every replay attempt and bails on false.
// covers names the tracked words whose influence on the sequence the
// predicate re-validates; the recording must not have written them (the
// predicate runs before the replay commits, so it would read stale values
// — such a recording poisons), their reads during the recording should go
// through raw accessors (a read tap would add a redundant value guard and
// defeat the parameterization), and chain eviction treats a covered word's
// value guard in an older variant as superseded.
func (e *Engine) LogPred(p Pred, covers ...FileRef) {
	rec := e.rec
	if rec == nil || rec.poisoned {
		return
	}
	for _, r := range covers {
		if r.F <= 0 || e.FileWritten(r.F, int(r.Idx)) {
			rec.poisoned = true
			return
		}
	}
	rec.preds = append(rec.preds, p)
	rec.covers = append(rec.covers, covers...)
}

// superOp is the compiled form of one recorded trap sequence: its net
// effect. Replay lists hold only slots that can change state — a move
// that copies a word onto itself, and a constant write of the value the
// read set already pins on the same word, are dropped at promotion.
type superOp struct {
	exc [ExcWords]uint64
	// gen is the Hooks.Gen value the recording ran under.
	gen uint64
	// freads is the read set, guarded on every replay. Its last npinned
	// entries double as the constant writes dropped at promotion: words
	// the sequence wrote back to the value it read, which a passing guard
	// already proves they hold (the moves never write them, since move
	// destinations and constant-write words are disjoint). Chain eviction
	// reads them as part of the write set; replay skips them.
	freads []ptrWord
	// fwrites are the constant writes that change a word. They share one
	// backing array with freads.
	fwrites []ptrWord
	npinned int32
	// param is set when the recording was parameterized — it had moves or
	// predicates before the dropped slots were filtered — which keeps the
	// op out of reach of chain eviction as a superseded variant.
	param bool
	// moves are the parameter slots: replay assigns *dst = *src + imm in
	// recorded (program) order, reading live source values, before the
	// constant fwrites — so every move source still holds its pre-replay
	// value when read, matching the interpreted sequence, which read each
	// source before writing it. A surviving move is the only writer of its
	// destination, so a self-move with imm 0 is a no-op and is not kept.
	moves []moveOp
	// preds are the replay predicates (LogPred); slack is the recorded
	// cycle advance of the dispatching core, passed to each predicate.
	preds  []Pred
	slack  uint64
	probes []Probe
	// tlbGen is the TLB generation at which probes were last known valid;
	// replay re-validates them only when the live generation differs.
	tlbGen uint64
	clocks []ClockDelta
	tdelta *trace.CounterDelta
	retVal uint64
	next   *superOp
}

// pinned returns the constant writes dropped at promotion (see freads).
func (op *superOp) pinned() []ptrWord { return op.freads[len(op.freads)-int(op.npinned):] }

// entry is the recorder's per-(cpu, cause) bookkeeping.
type entry struct {
	count  int
	poison int
	ops    *superOp
	nops   int
}

// recording is one in-flight capture.
type recording struct {
	cpu        int
	exc        [ExcWords]uint64
	ent        *entry
	gen        uint64
	transients []FileRef
	freads     []fileWord
	fwrites    []fileWord
	params     []paramSrc
	moves      []recMove
	preds      []Pred
	covers     []FileRef
	probes     []Probe
	poisoned   bool
}

// Engine is the recorder, promotion policy, super-op cache, and replay
// engine. It is not safe for concurrent use; the machine model steps cores
// deterministically on one goroutine.
type Engine struct {
	threshold int
	hooks     Hooks
	entries   map[uint64]*entry
	rec       *recording
	stats     trace.JITStats
	// files holds the tracked register files; FileID i is files[i-1].
	// rdSeen/wrSeen are the per-file per-recording first-access bitmaps,
	// engine-owned scratch cleared when a recording begins. prov and psrc
	// are the per-word provenance tables of the active recording: prov maps
	// a written word to its last writer (provConst, or a 1-based move
	// index), psrc maps an external word to its 1-based parameter index.
	// Both are reset entry-by-entry from the recording's write, move, and
	// parameter lists when it ends, so their cost tracks what the recording
	// touched, not the registered file count.
	files     [][]uint64
	fileBases map[*uint64]FileID
	ro        []bool
	// quiet marks words whose further reads the active recording can
	// ignore: guarded, recorder-written, or pinned parameter origins. A
	// copy into a word makes it loud again (a read must then upgrade the
	// copy's parameter). With no recording active every word is quiet.
	quiet  [][]bool
	rdSeen [][2]uint64
	wrSeen [][2]uint64
	prov   [][]int32
	psrc   [][]int32
	// bools and int32s back quiet, prov and psrc.
	bools  slab[bool]
	int32s slab[int32]
	// marks is the per-core clock snapshot taken when a recording begins.
	marks []ClockState
	// recBuf is the one recording the engine reuses (one is in flight at a
	// time), so its lists keep their storage from one recording to the
	// next. Promotion copies what a super-op keeps, into exactly sized
	// lists; promotion's own scratch (every surviving move before the
	// no-op filter, the parameterized words, the clock deltas and the
	// counter delta) is reused the same way. Failed and poisoned
	// recordings allocate nothing.
	recBuf  recording
	sall    []moveOp
	spwords []*uint64
	sclocks []ClockDelta
	sdelta  trace.CounterDelta

	// asyncPoison is the cross-goroutine poison flag for per-vCPU shard
	// engines: a sibling vCPU that mutates state outside every shard's
	// files (shared memory, the distributor, another vCPU's chain) sets it
	// with PoisonAsync, and the owning goroutine consumes it in EndRecord
	// before promotion. It is cleared when a recording begins, so a
	// mutation that fully preceded the recording (whose reads already see
	// the post-mutation state) cannot poison it spuriously.
	asyncPoison atomic.Bool
	// recGauge, when set, counts this engine's in-flight recordings in a
	// caller-shared atomic: the SMP fan-out taps consult it to skip the
	// poison broadcast entirely while no shard is recording.
	recGauge *int64
}

// New returns an engine with no registered files. threshold <= 0 selects
// DefaultThreshold.
func New(threshold int, hooks Hooks) *Engine {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	return &Engine{
		threshold: threshold,
		hooks:     hooks,
		entries:   make(map[uint64]*entry),
		marks:     make([]ClockState, hooks.NumCPUs),
	}
}

// hashExc is FNV-1a over the cause words and the dispatching core.
func hashExc(cpu int, exc *[ExcWords]uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range exc {
		h = (h ^ w) * 1099511628211
	}
	return (h ^ uint64(cpu)) * 1099511628211
}

// Dispatch is the per-trap entry point, called after trap entry accounting
// and before the EL2 vector runs. Exactly one stats field increments per
// call. While a recording is active, nested dispatches miss immediately so
// their effects land inside the outer recording.
func (e *Engine) Dispatch(cpu int, exc *[ExcWords]uint64) (uint64, Status) {
	if e.rec != nil {
		e.stats.Misses++
		return 0, Miss
	}
	h := hashExc(cpu, exc)
	ent := e.entries[h]
	if ent == nil {
		ent = &entry{}
		e.entries[h] = ent
	}
	matched := false
	var prev *superOp
	for op := ent.ops; op != nil; prev, op = op, op.next {
		if op.exc != *exc {
			continue
		}
		matched = true
		if v, ok := e.tryReplay(op); ok {
			if prev != nil {
				// Move-to-front: the variant that matches the live state
				// tends to keep matching, and every variant ahead of it
				// costs a failed guard check per dispatch.
				prev.next = op.next
				op.next = ent.ops
				ent.ops = op
			}
			e.stats.Hits++
			return v, Hit
		}
	}
	if matched {
		e.stats.Bailouts++
	} else {
		e.stats.Misses++
	}
	if ent.poison >= poisonLimit || ent.nops >= maxChain {
		return 0, Miss
	}
	ent.count++
	if ent.count >= e.threshold {
		e.beginRecord(cpu, exc, ent)
		return 0, Record
	}
	return 0, Miss
}

// tryReplay validates op's preconditions and, only if every one holds,
// commits the recorded state delta: freads, predicates, clock gaps, and
// probes are checked, then the moves and the fwrites land. Validation is
// ordered cheap-first — and, between chain variants of one cause,
// most-discriminating-first: the read set is where world-switch variants
// differ — and mutates nothing, so a bailout leaves the machine untouched.
func (e *Engine) tryReplay(op *superOp) (uint64, bool) {
	if e.hooks.Gen != nil && e.hooks.Gen() != op.gen {
		return 0, false
	}
	for i := range op.freads {
		g := &op.freads[i]
		if *g.p != g.val {
			return 0, false
		}
	}
	for _, p := range op.preds {
		if !p(op.slack) {
			return 0, false
		}
	}
	for i := range op.clocks {
		d := &op.clocks[i]
		if !d.NeedGap {
			continue
		}
		if e.hooks.ClockGap != nil {
			if e.hooks.ClockGap(d.CPU) != d.PreGap {
				return 0, false
			}
			continue
		}
		cs := e.hooks.ClockState(d.CPU)
		if cs.Cycles-cs.LastAttributed != d.PreGap {
			return 0, false
		}
	}
	if len(op.probes) > 0 {
		gen := uint64(0)
		fresh := e.hooks.TLBGen == nil
		if !fresh {
			gen = e.hooks.TLBGen()
			fresh = gen != op.tlbGen
		}
		if fresh {
			for i := range op.probes {
				p := &op.probes[i]
				pa, perm, ok := e.hooks.TLBProbe(p.VMID, p.IA)
				if !ok || pa != p.PA || perm != p.Perm {
					return 0, false
				}
			}
			op.tlbGen = gen
		}
	}
	// Commit. Parameter moves first, in program order: every move source was
	// external (unwritten) when the interpreted copy read it, so it must be
	// read before any constant write to it lands.
	for i := range op.moves {
		m := &op.moves[i]
		*m.dst = *m.src + m.imm
	}
	for i := range op.fwrites {
		fw := &op.fwrites[i]
		*fw.p = fw.val
	}
	for i := range op.clocks {
		e.hooks.AdvanceClock(op.clocks[i].CPU, op.clocks[i])
	}
	if len(op.probes) > 0 {
		e.hooks.TLBAddHits(uint64(len(op.probes)))
	}
	if op.tdelta != nil {
		e.hooks.Trace.ApplyCounterDelta(op.tdelta)
	}
	return op.retVal, true
}

// beginRecord starts capturing the in-flight trap: it snapshots the clocks,
// the pinned generation, and the trace counters, and arms the poison taps.
// Guards accumulate from the file taps as the handler runs.
func (e *Engine) beginRecord(cpu int, exc *[ExcWords]uint64, ent *entry) {
	// A sibling-shard mutation that fully preceded this recording is
	// already reflected in the capture below; only mutations from here to
	// EndRecord may poison, so the async flag starts clean. The gauge goes
	// up first: a mutation racing with the first reads still broadcasts.
	if e.recGauge != nil {
		atomic.AddInt64(e.recGauge, 1)
	}
	e.asyncPoison.Store(false)
	rec := &e.recBuf
	*rec = recording{
		cpu:        cpu,
		exc:        *exc,
		ent:        ent,
		transients: rec.transients[:0],
		freads:     rec.freads[:0],
		fwrites:    rec.fwrites[:0],
		params:     rec.params[:0],
		moves:      rec.moves[:0],
		preds:      rec.preds[:0],
		covers:     rec.covers[:0],
		probes:     rec.probes[:0],
	}
	e.setQuiet(false)
	for i := range e.rdSeen {
		e.rdSeen[i] = [2]uint64{}
		e.wrSeen[i] = [2]uint64{}
	}
	if e.hooks.Gen != nil {
		rec.gen = e.hooks.Gen()
	}
	for i := 0; i < e.hooks.NumCPUs; i++ {
		e.marks[i] = e.hooks.ClockState(i)
	}
	e.hooks.Trace.BeginCounterLog()
	e.rec = rec
	if e.hooks.Arm != nil {
		e.hooks.Arm()
	}
}

// EndRecord finishes the active recording after the interpreted handler
// returned retVal, promoting it to a super-op unless it was poisoned or its
// effects are not expressible as a guarded state delta.
func (e *Engine) EndRecord(retVal uint64) {
	rec := e.rec
	if rec == nil {
		return
	}
	e.rec = nil
	if e.hooks.Disarm != nil {
		e.hooks.Disarm()
	}
	// Consume the cross-goroutine poison before deciding promotion, then
	// drop out of the broadcast set. The interpreted handler has returned,
	// so every sibling mutation that could have influenced it has already
	// set the flag (the epoch engine serializes genuinely-shared effects
	// at barriers; the flag covers the conservative fan-out taps).
	if e.asyncPoison.Swap(false) {
		rec.poisoned = true
	}
	if e.recGauge != nil {
		atomic.AddInt64(e.recGauge, -1)
	}
	// The counter log must be disarmed on every path out of this function;
	// EndCounterLog below reads it before this runs. The provenance tables
	// are reset on every path too, but only after promotion has read them.
	defer e.hooks.Trace.AbortCounterLog()
	defer e.resetProv(rec)
	// Silence every read tap until the next recording begins.
	e.setQuiet(true)
	if rec.poisoned {
		rec.ent.poison++
		return
	}
	if e.hooks.Gen != nil && e.hooks.Gen() != rec.gen {
		rec.ent.poison++
		return
	}
	for _, t := range rec.transients {
		if e.files[t.F-1][t.Idx] != 0 {
			rec.ent.poison++
			return
		}
	}
	clocks := e.sclocks[:0]
	for i := 0; i < e.hooks.NumCPUs; i++ {
		now := e.hooks.ClockState(i)
		pre := e.marks[i]
		if now == pre {
			continue
		}
		if now.Cycles < pre.Cycles || now.LastAttributed < pre.LastAttributed {
			// A rewound clock (rolled-back context sequence) is not
			// expressible as an additive delta.
			rec.ent.poison++
			return
		}
		d := ClockDelta{CPU: i, DCycles: now.Cycles - pre.Cycles}
		for l := range d.DLevel {
			d.DLevel[l] = now.Level[l] - pre.Level[l]
		}
		if now.LastAttributed != pre.LastAttributed || d.DLevel != [8]uint64{} {
			d.NeedGap = true
			d.PreGap = pre.Cycles - pre.LastAttributed
			d.PostGap = now.Cycles - now.LastAttributed
		}
		clocks = append(clocks, d)
	}
	e.sclocks = clocks
	td := &e.sdelta
	if !e.hooks.Trace.EndCounterLog(td) {
		rec.ent.poison++
		return
	}
	e.promote(rec, retVal, clocks, td)
}

// constWrite reports whether the recording's final write to tracked word
// (f, idx) replays as a constant: the word was plain-written, or its last
// writer was a move whose parameter the sequence observed (the origin guard
// then pins the copied value, so the harvested constant is exact). A word
// whose last writer is a move on an unobserved parameter replays as that
// move instead.
func (e *Engine) constWrite(rec *recording, f FileID, idx int32) bool {
	pv := e.prov[f-1][idx]
	return pv < 0 || pv > 0 && rec.params[rec.moves[pv-1].param].guarded
}

// promote compiles a finished, promotable recording into a super-op holding
// its net state change and links it at the front of its cause's chain. Each
// list is counted first and then allocated at its exact length.
func (e *Engine) promote(rec *recording, retVal uint64, clocks []ClockDelta, td *trace.CounterDelta) {
	// The split guard vector's parameter side: each recorded move that was
	// the final writer of its word, and whose parameter stayed unobserved,
	// survives as a move. all holds every survivor and pwords every
	// parameterized word (move sources and predicate-covered words), both
	// for chain eviction; replay keeps only the moves that change a word.
	all := e.sall[:0]
	pwords := e.spwords[:0]
	nmoves := 0
	for i := range rec.moves {
		m := &rec.moves[i]
		if e.prov[m.dstF-1][m.dstIdx] != int32(i+1) || rec.params[m.param].guarded {
			continue
		}
		p := &rec.params[m.param]
		mv := moveOp{src: &e.files[p.f-1][p.idx], dst: &e.files[m.dstF-1][m.dstIdx], imm: m.imm}
		if mv.src != mv.dst || mv.imm != 0 {
			nmoves++
		}
		all = append(all, mv)
		pwords = append(pwords, mv.src)
	}
	for i := range rec.covers {
		r := &rec.covers[i]
		pwords = append(pwords, &e.files[r.F-1][r.Idx])
	}
	e.sall, e.spwords = all, pwords
	// The constant side: a word written back to the value the read set
	// guards on it is pinned, and its write is dropped.
	npinned, nconst := 0, 0
	for i := range rec.freads {
		g := &rec.freads[i]
		if e.constWrite(rec, g.f, g.idx) && e.files[g.f-1][g.idx] == g.val {
			npinned++
		}
	}
	for i := range rec.fwrites {
		if fw := &rec.fwrites[i]; e.constWrite(rec, fw.f, fw.idx) {
			nconst++
		}
	}
	nr := len(rec.freads)
	words := make([]ptrWord, nr+nconst-npinned)
	freads, fwrites := words[:nr:nr], words[nr:]
	// Stable partition of the read set, pinned guards last. A pinned word's
	// provenance is cleared so the write-set pass below skips it.
	j, k := 0, nr-npinned
	for i := range rec.freads {
		g := &rec.freads[i]
		pw := ptrWord{p: &e.files[g.f-1][g.idx], val: g.val}
		if e.constWrite(rec, g.f, g.idx) && *pw.p == g.val {
			e.prov[g.f-1][g.idx] = 0
			freads[k] = pw
			k++
		} else {
			freads[j] = pw
			j++
		}
	}
	j = 0
	for i := range rec.fwrites {
		if fw := &rec.fwrites[i]; e.constWrite(rec, fw.f, fw.idx) {
			p := &e.files[fw.f-1][fw.idx]
			fwrites[j] = ptrWord{p: p, val: *p}
			j++
		}
	}
	var moves []moveOp
	if nmoves > 0 {
		moves = make([]moveOp, 0, nmoves)
		for _, mv := range all {
			if mv.src != mv.dst || mv.imm != 0 {
				moves = append(moves, mv)
			}
		}
	}
	op := &superOp{
		exc:     rec.exc,
		gen:     rec.gen,
		freads:  freads,
		fwrites: fwrites,
		npinned: int32(npinned),
		param:   len(all)+len(rec.preds) > 0,
		moves:   moves,
		preds:   slices.Clone(rec.preds),
		probes:  slices.Clone(rec.probes),
		clocks:  slices.Clone(clocks),
		retVal:  retVal,
		next:    rec.ent.ops,
	}
	for i := range clocks {
		if clocks[i].CPU == rec.cpu {
			op.slack = clocks[i].DCycles
		}
	}
	if e.hooks.TLBGen != nil {
		// A promoted recording saw no TLB mutation (mutation poisons), so
		// the generation now is the one its probes were valid under.
		op.tlbGen = e.hooks.TLBGen()
	}
	if !td.Empty() {
		op.tdelta = td.Clone()
	}
	rec.ent.ops = op
	rec.ent.nops++
	rec.ent.count = 0
	if op.param {
		e.evictSuperseded(rec.ent, op, all, pwords)
	}
}

// resetProv clears the provenance tables entry-by-entry from the
// recording's write, move, and parameter lists — every table mutation is
// paired with a list append, so this restores the all-zero invariant the
// next recording relies on in time proportional to what was touched.
func (e *Engine) resetProv(rec *recording) {
	for i := range rec.fwrites {
		fw := &rec.fwrites[i]
		e.prov[fw.f-1][fw.idx] = 0
	}
	for i := range rec.moves {
		m := &rec.moves[i]
		e.prov[m.dstF-1][m.dstIdx] = 0
	}
	for i := range rec.params {
		p := &rec.params[i]
		e.psrc[p.f-1][p.idx] = 0
	}
}

// AbortRecord discards the active recording (handler panicked).
func (e *Engine) AbortRecord() {
	rec := e.rec
	if rec == nil {
		return
	}
	e.rec = nil
	if e.hooks.Disarm != nil {
		e.hooks.Disarm()
	}
	e.asyncPoison.Store(false)
	if e.recGauge != nil {
		atomic.AddInt64(e.recGauge, -1)
	}
	e.hooks.Trace.AbortCounterLog()
	e.setQuiet(true)
	e.resetProv(rec)
	rec.ent.poison++
}

// Poison marks the active recording non-promotable; the poison taps and
// subsystems call it when state outside the tracked files is touched.
func (e *Engine) Poison() {
	if e.rec != nil {
		e.rec.poisoned = true
	}
}

// PoisonAsync marks any in-flight recording non-promotable from another
// goroutine. Unlike Poison it only sets an atomic flag — the owning
// goroutine consumes it in EndRecord — so sibling vCPU shards can
// broadcast "I touched state outside your files" without a data race on
// the recording itself. Safe to call at any time; a set flag with no
// recording in flight is cleared by the next beginRecord.
func (e *Engine) PoisonAsync() { e.asyncPoison.Store(true) }

// SetRecGauge points the engine at a caller-shared atomic counting its
// in-flight recordings (+1 at beginRecord, -1 when the recording ends on
// any path). The SMP fan-out taps read the summed gauge to skip the
// poison broadcast while no shard is recording. Pass nil to detach.
func (e *Engine) SetRecGauge(g *int64) { e.recGauge = g }

// SetTrace rebinds the trace collector the engine logs counter deltas
// against. The epoch engine points each vCPU shard at that vCPU's
// per-run trace shard and restores the parent at teardown. Must not be
// called with a recording in flight.
func (e *Engine) SetTrace(t *trace.Collector) {
	if e.rec != nil {
		panic("jit: SetTrace with a recording in flight")
	}
	e.hooks.Trace = t
}

// Recording reports whether a capture is in flight.
func (e *Engine) Recording() bool { return e.rec != nil }

// LogProbe records one stage-2 TLB lookup observed during a recording. A
// miss poisons: replay cannot reproduce a table walk.
func (e *Engine) LogProbe(vmid uint16, ia, pa, perm uint64, hit bool) {
	rec := e.rec
	if rec == nil || rec.poisoned {
		return
	}
	if !hit {
		rec.poisoned = true
		return
	}
	rec.probes = append(rec.probes, Probe{VMID: vmid, IA: ia, PA: pa, Perm: perm})
}

// Quiesce aborts any in-flight recording and keeps the compiled cache; the
// SMP engine calls it when it detaches a vCPU's shard engine at the end of
// a run (snapshot restore calls Reset instead). The capture is discarded
// without charging the cause — the recording did nothing wrong, it was
// only cut short. The compiled super-ops survive: their guards are pure
// value preconditions re-validated against live state on every dispatch,
// so an op whose preconditions no longer hold bails to the interpreter,
// while one whose preconditions recur in the next run replays soundly.
func (e *Engine) Quiesce() {
	rec := e.rec
	if rec == nil {
		return
	}
	e.rec = nil
	if e.hooks.Disarm != nil {
		e.hooks.Disarm()
	}
	e.asyncPoison.Store(false)
	if e.recGauge != nil {
		atomic.AddInt64(e.recGauge, -1)
	}
	e.hooks.Trace.AbortCounterLog()
	e.setQuiet(true)
	e.resetProv(rec)
}

// Reset drops the super-op cache and statistics, aborting any in-flight
// recording first: full invalidation, for callers that change the rules
// the cache was compiled under (platform rebuilds, tests).
func (e *Engine) Reset() {
	e.Quiesce()
	clear(e.entries)
	e.stats = trace.JITStats{}
}

// Stats returns the dispatch counters.
func (e *Engine) Stats() trace.JITStats { return e.stats }

// Entries returns the number of distinct trap causes seen and the number of
// compiled super-ops, for diagnostics and tests.
func (e *Engine) Entries() (causes, ops int) {
	causes = len(e.entries)
	for _, ent := range e.entries {
		ops += ent.nops
	}
	return causes, ops
}

// evictSuperseded unlinks plain chain variants that a freshly promoted
// parameterized variant covers: a single-use variant recorded before the
// parameterization — its guard pinning one round's compare value — can
// never match again once the value moves on, but it still costs a failed
// guard check on every dispatch and crowds the chain toward maxChain.
// Eviction is always correctness-safe (dropping a cached super-op only
// costs a future miss), so the comparator may be conservative. all and
// pwords are op's promotion scratch: every surviving move, including the
// no-op self-moves replay drops, and every parameterized word.
func (e *Engine) evictSuperseded(ent *entry, op *superOp, all []moveOp, pwords []*uint64) {
	var prev *superOp
	for v := ent.ops; v != nil; {
		if v == op || !supersedes(op, v, all, pwords) {
			prev, v = v, v.next
			continue
		}
		if prev == nil {
			ent.ops = v.next
		} else {
			prev.next = v.next
		}
		v = v.next
		ent.nops--
		e.stats.Evictions++
	}
}

// supersedes reports whether parameterized variant op covers plain variant
// v: identical recorded behavior (pinned generation, writes, clocks,
// probes, counters, return value), with v's extra value guards falling only
// on words op treats as parameters. Every state v would replay in, op
// replays in too — op's predicates re-validate exactly the conditions v's
// stale value guards once pinned. The write sets compared are the
// unfiltered ones: the constant writes with the pinned write-backs, and
// all of op's moves, so dropping no-op slots changes no answer.
func supersedes(op, v *superOp, all []moveOp, pwords []*uint64) bool {
	if v.param || v.exc != op.exc || v.retVal != op.retVal || v.gen != op.gen {
		return false
	}
	if !slices.Equal(v.clocks, op.clocks) || !slices.Equal(v.probes, op.probes) {
		return false
	}
	switch {
	case v.tdelta == nil && op.tdelta == nil:
	case v.tdelta != nil && op.tdelta != nil && v.tdelta.Equal(op.tdelta):
	default:
		return false
	}
	// op's guards must be a subset of v's (same word, same value), and v's
	// surplus guards must all be parameterized words of op.
	for i := range op.freads {
		if !containsGuard(v.freads, op.freads[i]) {
			return false
		}
	}
	for i := range v.freads {
		if containsGuard(op.freads, v.freads[i]) {
			continue
		}
		if !slices.Contains(pwords, v.freads[i].p) {
			return false
		}
	}
	// Same written-word set: op's constants must match v's exactly, and
	// v's surplus constant writes must be words op writes as moves.
	for _, ws := range [2][]ptrWord{op.fwrites, op.pinned()} {
		for i := range ws {
			if !writesConst(v, ws[i]) {
				return false
			}
		}
	}
	for _, ws := range [2][]ptrWord{v.fwrites, v.pinned()} {
		for i := range ws {
			if writesConst(op, ws[i]) {
				continue
			}
			if !movesTo(all, ws[i].p) {
				return false
			}
		}
	}
	for j := range all {
		if !writesWord(v.fwrites, all[j].dst) && !writesWord(v.pinned(), all[j].dst) {
			return false
		}
	}
	return true
}

func movesTo(moves []moveOp, p *uint64) bool {
	for i := range moves {
		if moves[i].dst == p {
			return true
		}
	}
	return false
}

func writesWord(s []ptrWord, p *uint64) bool {
	for i := range s {
		if s[i].p == p {
			return true
		}
	}
	return false
}

// writesConst reports whether op's unfiltered constant writes include g.
func writesConst(op *superOp, g ptrWord) bool {
	return containsGuard(op.fwrites, g) || containsGuard(op.pinned(), g)
}

func containsGuard(s []ptrWord, g ptrWord) bool {
	for i := range s {
		if s[i].p == g.p && s[i].val == g.val {
			return true
		}
	}
	return false
}
