package arm

import "github.com/nevesim/neve/internal/jit"

// This file is the CPU model's side of the trace-JIT layer: the core state
// file, cause packing for the recorder key, and the clock hooks. The
// dispatch itself is inlined into trap() so the interpreted path pays one
// nil check.

// Core state file layout. The mode word packs the physical exception
// level, the running and scheduled virtualization levels, and the two
// interrupt-masking flags; every field round-trips exactly (ELs and levels
// are tiny enums).
const (
	stMode   = iota // el | level<<8 | guestLevel<<16 | irqMasked | inVIRQ
	stNV2           // NEVE staging slot (see nv2Access)
	stVIRQ          // VIRQ sink, as an index into sinks
	stIRQLen        // pending physical interrupts (irqQueue)
	stIRQ0
	cpuWords = stIRQ0 + irqSlots
)

// irqSlots is how many pending physical interrupts the state file holds;
// a deeper queue spills, and a recording that touches the spill poisons.
const irqSlots = 8

var irqQueue = jit.Queue{Len: stIRQLen, Slot0: stIRQ0, Slots: irqSlots}

const (
	modeELMask     = 0xff
	modeLevelShift = 8
	modeLevelMask  = 0xff << modeLevelShift
	modeGuestShift = 16
	modeGuestMask  = 0xff << modeGuestShift
	modeIRQMasked  = 1 << 24
	modeInVIRQ     = 1 << 25
)

// word reads core state word i through the tap.
func (c *CPU) word(i int) uint64 {
	c.stTap.Read(i)
	return c.st[i]
}

// setWord writes core state word i through the tap.
func (c *CPU) setWord(i int, v uint64) {
	c.stTap.Write(i)
	c.st[i] = v
}

// el is the hottest state read (every register access): written out
// rather than through word so it stays within the inlining budget.
func (c *CPU) el() EL {
	c.stTap.Read(stMode)
	return EL(c.st[stMode] & modeELMask)
}

func (c *CPU) level() VLevel { return VLevel(c.word(stMode) & modeLevelMask >> modeLevelShift) }

// VIRQ returns the IRQ vector of the guest currently scheduled at vEL1, or
// nil.
func (c *CPU) VIRQ() VIRQSink {
	i := c.word(stVIRQ)
	if i == 0 {
		return nil
	}
	return c.sinks[i-1]
}

// SetVIRQ schedules the guest IRQ vector s (nil for none). A sink the core
// has not seen before is added to its table; doing so mid-recording
// poisons, since replay can only restore table indexes.
func (c *CPU) SetVIRQ(s VIRQSink) {
	c.setWord(stVIRQ, uint64(c.sinkIndex(s)))
}

func (c *CPU) sinkIndex(s VIRQSink) int {
	if s == nil {
		return 0
	}
	for i, k := range c.sinks {
		if k == s {
			return i + 1
		}
	}
	c.stTap.Poison()
	c.sinks = append(c.sinks, s)
	return len(c.sinks)
}

// AddVIRQSink registers a sink the core's scheduled-guest word may name;
// machine assembly registers every guest up front.
func (c *CPU) AddVIRQSink(s VIRQSink) { c.sinkIndex(s) }

// SetJIT attaches (or detaches, with nil) the trace-JIT engine. The poison
// hook is bound once here so JITPoison costs a nil check when no engine is
// installed, and the core's register file and state file are registered
// with the engine for read/write-set tracking (their accessors notify
// c.regsTap and c.stTap). Re-attaching an engine the core was already
// registered with (the SMP engine swaps shard engines in every run) reuses
// the existing file IDs.
func (c *CPU) SetJIT(j *jit.Engine) {
	c.jit = j
	if j != nil {
		c.jitPoison = j.Poison
		c.regsTap = j.TapFor(c.regs[:], false)
		c.regsFID = j.FileByBase(&c.regs[0])
		c.stTap = j.TapFor(c.st[:], false)
	} else {
		c.jitPoison = nil
		c.regsTap = nil
		c.regsFID = 0
		c.stTap = nil
	}
}

// JITRecording reports whether a JIT capture is in flight on this core's
// engine; machine code consults it before choosing the parameterized
// (raw-read plus predicate) path over plain guarded reads.
func (c *CPU) JITRecording() bool { return c.jit != nil && c.jit.Recording() }

// JITWritten reports whether the active recording has written register r.
// A register the recorded sequence itself wrote holds a recorder-computed
// value, so predicate-based parameterization must not cover it (the
// predicate evaluates before the replay commits its writes).
func (c *CPU) JITWritten(r SysReg) bool {
	if c.jit == nil {
		return false
	}
	return c.jit.FileWritten(c.regsFID, int(StorageReg(r)))
}

// JITPred registers a replay predicate for the active recording; covers
// names the registers whose influence the predicate re-validates (read
// with RegRaw during the recording). No-op outside a recording.
func (c *CPU) JITPred(p jit.Pred, covers ...SysReg) {
	if c.jit == nil || !c.jit.Recording() {
		return
	}
	refs := make([]jit.FileRef, len(covers))
	for i, r := range covers {
		refs[i] = jit.FileRef{F: c.regsFID, Idx: int32(StorageReg(r))}
	}
	c.jit.LogPred(p, refs...)
}

// JITPoison marks the active JIT recording, if any, non-promotable. Model
// code called from trap handlers whose effects the tracked state files
// cannot express (NEVE page accesses, virtual interrupt delivery into a
// guest, enabled-timer evaluation, lazily created objects) calls it.
func (c *CPU) JITPoison() {
	if c.jitPoison != nil {
		c.jitPoison()
	}
}

// SetJITSharedPoison installs (or removes, with nil) the shared-state
// poison hook consulted by JITPoisonShared. The SMP epoch engine binds it
// for the duration of a parallel run.
func (c *CPU) SetJITSharedPoison(fn func()) { c.jitPoisonShared = fn }

// JITPoisonShared poisons recordings whose correctness depends on
// machine-shared state the per-vCPU shard engines do not track: the
// reader's own in-flight recording is poisoned AND every sibling shard
// currently recording is flagged (the shared word it read may be
// mid-update from this goroutine's point of view at replay time). Outside
// SMP shard mode this is a no-op — the full-machine engine tracks shared
// state.
func (c *CPU) JITPoisonShared() {
	if c.jitPoisonShared != nil {
		c.jitPoisonShared()
	}
}

// PackExc packs an exception into the JIT recorder's trap-cause words.
// Every Exception field participates: two causes with any differing field
// must never share a super-op.
func PackExc(e *Exception, w *[jit.ExcWords]uint64) {
	w0 := uint64(e.EC) | uint64(e.Imm)<<16 | uint64(e.Reg)<<32 | uint64(uint8(e.Size))<<56
	if e.Write {
		w0 |= 1 << 48
	}
	w[0] = w0
	w[1] = e.Val
	w[2] = uint64(e.FaultIPA)
	w[3] = uint64(e.IRQ)
}

// JITClockState snapshots the core's cycle accounting for the engine.
func (c *CPU) JITClockState() jit.ClockState {
	return jit.ClockState{Cycles: c.cycles, Level: c.levelCycles, LastAttributed: c.lastAttributed}
}

// JITClockGap returns cycles since the core's last attribution point: the
// replay guard's clock precondition, without the full snapshot copy.
func (c *CPU) JITClockGap() uint64 { return c.cycles - c.lastAttributed }

// JITAdvanceClock applies a recorded clock delta. Deltas without an
// attribution point (NeedGap false: the core was only charged raw cycles)
// leave the attribution state alone; the others restore the recorded gap,
// which tryReplay guarded.
func (c *CPU) JITAdvanceClock(d jit.ClockDelta) {
	c.cycles += d.DCycles
	if d.NeedGap {
		for i := range d.DLevel {
			c.levelCycles[i] += d.DLevel[i]
		}
		c.lastAttributed = c.cycles - d.PostGap
	}
}

// recordedHandle runs the EL2 vector under an active JIT recording. The
// deferred abort keeps a panicking handler (fault injection, watchdog, a
// modeled crash) from leaving a half-captured recording armed; the defer
// cost is paid only on this rare path, never on plain interpreted traps.
func (c *CPU) recordedHandle(j *jit.Engine, e *Exception) uint64 {
	done := false
	defer func() {
		if !done {
			j.AbortRecord()
		}
	}()
	v := c.Vector.HandleTrap(c, e)
	j.EndRecord(v)
	done = true
	return v
}
