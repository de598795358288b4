package gic

import "github.com/nevesim/neve/internal/arm"

// VCPUIfcCost is the extra cycle cost of an access through the virtual CPU
// interface beyond the register access itself. It is calibrated so a guest
// Virtual EOI costs 71 cycles total, matching the measured value in Tables
// 1 and 6 (identical for VMs and nested VMs, because the hardware completes
// the interrupt without any trap).
const VCPUIfcCost = 62

// VCPUIfc is the hardware virtual CPU interface of one core: it implements
// the guest-facing ICC_* registers by operating directly on the list
// registers (ICH_LR<n>_EL2) in the core's system register file. It is what
// lets a VM — or a nested VM, via shadow list registers — acknowledge and
// complete virtual interrupts without trapping (Sections 2 and 4).
type VCPUIfc struct {
	Dist *Dist
}

var (
	_ arm.SysRegDevice  = (*VCPUIfc)(nil)
	_ arm.SysRegClaimer = (*VCPUIfc)(nil)
)

// SysRegClaims implements arm.SysRegClaimer: the ICC_* registers the
// virtual CPU interface intercepts (EL1 gating stays in the handlers).
func (g *VCPUIfc) SysRegClaims() []arm.SysReg {
	return []arm.SysReg{
		arm.ICC_IAR1_EL1, arm.ICC_EOIR1_EL1, arm.ICC_DIR_EL1,
		arm.ICC_PMR_EL1, arm.ICC_BPR1_EL1, arm.ICC_CTLR_EL1,
		arm.ICC_IGRPEN1_EL1,
	}
}

// SysRegRead implements arm.SysRegDevice.
func (g *VCPUIfc) SysRegRead(c *arm.CPU, r arm.SysReg) (uint64, bool) {
	if c.EL() != arm.EL1 {
		return 0, false // host ICC accesses are not routed through the vIfc
	}
	switch r {
	case arm.ICC_IAR1_EL1:
		c.AddCycles(VCPUIfcCost)
		return g.ack(c), true
	case arm.ICC_PMR_EL1, arm.ICC_BPR1_EL1, arm.ICC_CTLR_EL1, arm.ICC_IGRPEN1_EL1:
		c.AddCycles(VCPUIfcCost)
		return c.Reg(r), true
	}
	return 0, false
}

// SysRegWrite implements arm.SysRegDevice.
func (g *VCPUIfc) SysRegWrite(c *arm.CPU, r arm.SysReg, v uint64) bool {
	if c.EL() != arm.EL1 {
		return false
	}
	switch r {
	case arm.ICC_EOIR1_EL1, arm.ICC_DIR_EL1:
		c.AddCycles(VCPUIfcCost)
		g.eoi(c, int(v&0xffffff))
		return true
	case arm.ICC_PMR_EL1, arm.ICC_BPR1_EL1, arm.ICC_CTLR_EL1, arm.ICC_IGRPEN1_EL1:
		c.AddCycles(VCPUIfcCost)
		c.SetReg(r, v)
		return true
	}
	return false
}

// ack returns the highest-priority pending virtual interrupt and marks it
// active. 1023 is the architectural "no pending interrupt" ID.
func (g *VCPUIfc) ack(c *arm.CPU) uint64 {
	for i := 0; i < 16; i++ {
		r := arm.ICHLR(i)
		v := c.Reg(r)
		if arm.LRStateOf(v) == arm.LRStatePending {
			c.SetReg(r, (v&^uint64(3<<62))|uint64(arm.LRStateActive)<<62)
			return uint64(arm.LRVIntID(v))
		}
	}
	return 1023
}

// eoi completes the active virtual interrupt with the given ID: the list
// register entry is invalidated and, for hardware-linked entries, the
// physical interrupt is deactivated in the distributor — all without
// involving any hypervisor.
func (g *VCPUIfc) eoi(c *arm.CPU, intid int) {
	for i := 0; i < 16; i++ {
		r := arm.ICHLR(i)
		v := c.Reg(r)
		if arm.LRVIntID(v) != intid {
			continue
		}
		switch arm.LRStateOf(v) {
		case arm.LRStateActive, arm.LRStatePendingActive:
			c.SetReg(r, 0)
			if v&arm.LRHW != 0 && g.Dist != nil {
				// Deactivate mutates shared distributor words the
				// per-vCPU JIT shard engines do not track.
				c.JITPoisonShared()
				g.Dist.Deactivate(arm.LRPIntID(v))
			}
			g.maybeMaintenance(c)
			return
		}
	}
}

// maybeMaintenance raises the maintenance interrupt when the hypervisor
// asked to be notified of list register underflow.
func (g *VCPUIfc) maybeMaintenance(c *arm.CPU) {
	if c.Reg(arm.ICH_HCR_EL2)&arm.ICHHCRUIE == 0 || g.Dist == nil {
		return
	}
	// The delivery below reads the shared enable bits and asserts into a
	// per-CPU queue via the distributor; a shard tracks neither.
	c.JITPoisonShared()
	for i := 0; i < 16; i++ {
		if arm.LRStateOf(c.Reg(arm.ICHLR(i))) != arm.LRStateInvalid {
			return
		}
	}
	g.Dist.AssertPPI(c.ID, MaintenanceINTID)
}
