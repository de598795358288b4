package arm

// CPUCheckpoint captures a core's mutable execution state: the core state
// file (exception level, virtualization levels, the NEVE staging slot,
// pending-interrupt state), the full system register file, and cycle
// counters with their per-level attribution. Fixed wiring (memory, cost model, devices,
// vector, hooks) and the transient exception pool (empty whenever the
// core is quiescent at EL2) are not captured.
type CPUCheckpoint struct {
	// st is the core state file with the VIRQ word cleared: the sink is
	// kept as virq and re-indexed on restore.
	st             [cpuWords]uint64
	irqSpill       []int
	regs           [NumSysRegs]uint64
	cycles         uint64
	levelCycles    [8]uint64
	lastAttributed uint64
	virq           VIRQSink
}

// Checkpoint captures the core state. The core must be quiescent — not
// inside a trap handler — which is the case whenever the model is not
// executing (the harness checkpoints between runs).
func (c *CPU) Checkpoint() *CPUCheckpoint {
	if c.excDepth != 0 {
		panic("arm: Checkpoint inside a trap handler")
	}
	cp := &CPUCheckpoint{
		st:             c.st,
		regs:           c.regs,
		cycles:         c.cycles,
		levelCycles:    c.levelCycles,
		lastAttributed: c.lastAttributed,
		virq:           c.VIRQ(),
	}
	cp.st[stVIRQ] = 0
	if len(c.irqSpill) > 0 {
		cp.irqSpill = append([]int(nil), c.irqSpill...)
	}
	return cp
}

// Restore returns the core to a checkpointed state.
func (c *CPU) Restore(cp *CPUCheckpoint) {
	c.st = cp.st
	c.st[stVIRQ] = uint64(c.sinkIndex(cp.virq))
	c.irqSpill = append(c.irqSpill[:0], cp.irqSpill...)
	c.regs = cp.regs
	c.cycles = cp.cycles
	c.levelCycles = cp.levelCycles
	c.lastAttributed = cp.lastAttributed
	c.excDepth = 0
}
