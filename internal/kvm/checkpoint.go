package kvm

import (
	"fmt"

	"github.com/nevesim/neve/internal/arm"
	"github.com/nevesim/neve/internal/machine"
	"github.com/nevesim/neve/internal/mem"
	"github.com/nevesim/neve/internal/mmu"
	"github.com/nevesim/neve/internal/virtio"
)

// StackCheckpoint captures a whole assembled stack: the machine (with a
// copy-on-write memory snapshot) plus the Go-side software state of every
// hypervisor level, VM, and vCPU. Restoring it returns the stack to the
// captured point exactly — a restored stack produces byte-identical
// cycle, trap, and event output to one that never diverged.
//
// The capture assumes the stack is quiescent: no vCPU is mid-trap (the
// CPU checkpoints enforce this) and the topology — which hypervisors and
// VMs exist, and their vCPU counts — matches at restore time. Topology is
// fixed at assembly, so any stack can be restored to any checkpoint taken
// from the same assembly.
type StackCheckpoint struct {
	machine *machine.Checkpoint
	hyps    []hypCheckpoint
	lastSMP SMPStats
}

type hypCheckpoint struct {
	hostCtxs []regFile
	slots    []slotCheckpoint
	st       [hypWords]uint64
	vms      []vmCheckpoint
}

// regFile is a saved Context's register values (its JIT tap is wiring,
// not state).
type regFile = [arm.NumSysRegs]uint64

// slotCheckpoint and vcpuCheckpoint keep a flagged payload (fwd, entry)
// only while its flag word is set: a cleared payload is dead state.
type slotCheckpoint struct {
	st  [slotWords]uint64
	fwd fwd
}

type vmCheckpoint struct {
	st           [vmWords]uint64
	s2           *mmu.TablesCheckpoint
	vmid         uint16
	echo         *virtio.EchoCheckpoint
	gicShadowOwn mem.Addr
	vcpus        []vcpuCheckpoint
}

type vcpuCheckpoint struct {
	el1       regFile
	vel2      regFile
	virtEL1   regFile
	pageCtx   regFile
	st        [vcpuWords]uint64
	virqSpill []int
	entry     arm.Exception
	shadowS2  *mmu.TablesCheckpoint
	guest     *guestCheckpoint
}

type guestCheckpoint struct {
	irqHandler func(intid int)
	irqCount   uint64
	s1         *mmu.TablesCheckpoint
	vq         *virtio.DriverCheckpoint
}

// hyps returns the stack's hypervisor levels in fixed order.
func (s *Stack) hyps() []*Hypervisor {
	out := []*Hypervisor{s.Host}
	if s.GuestHyp != nil {
		out = append(out, s.GuestHyp)
	}
	if s.GuestHyp2 != nil {
		out = append(out, s.GuestHyp2)
	}
	return out
}

// Checkpoint captures the full stack state. SMP runs are only capturable
// at quiescent boundaries: between RunSMP/RunSMPOpts calls, never while
// the epoch engine has vCPU coroutines parked inside guest contexts.
func (s *Stack) Checkpoint() *StackCheckpoint {
	if s.smpRunning {
		panic("kvm: Checkpoint during an SMP run (not a quiescent boundary)")
	}
	cp := &StackCheckpoint{machine: s.M.Checkpoint(), lastSMP: s.lastSMP}
	for _, h := range s.hyps() {
		cp.hyps = append(cp.hyps, checkpointHyp(h))
	}
	return cp
}

func checkpointHyp(h *Hypervisor) hypCheckpoint {
	cp := hypCheckpoint{
		hostCtxs: make([]regFile, len(h.hostCtxs)),
		slots:    make([]slotCheckpoint, len(h.loaded)),
		st:       h.st,
		vms:      make([]vmCheckpoint, len(h.VMs)),
	}
	for i := range h.hostCtxs {
		cp.hostCtxs[i] = h.hostCtxs[i].regs
	}
	for i := range h.loaded {
		lc := &h.loaded[i]
		cp.slots[i].st = lc.st
		if lc.st[slotFwd] != 0 {
			cp.slots[i].fwd = lc.fwd
		}
	}
	for i, vm := range h.VMs {
		cp.vms[i] = checkpointVM(vm)
	}
	return cp
}

func checkpointVM(vm *VM) vmCheckpoint {
	cp := vmCheckpoint{
		st:           vm.st,
		vmid:         vm.vmid,
		gicShadowOwn: vm.gicShadowOwn,
	}
	if vm.s2 != nil {
		t := vm.s2.Checkpoint()
		cp.s2 = &t
	}
	if vm.echo != nil {
		e := vm.echo.Checkpoint()
		cp.echo = &e
	}
	cp.vcpus = make([]vcpuCheckpoint, len(vm.VCPUs))
	for i, v := range vm.VCPUs {
		cp.vcpus[i] = checkpointVCPU(v)
	}
	return cp
}

func checkpointVCPU(v *VCPU) vcpuCheckpoint {
	cp := vcpuCheckpoint{
		el1:     v.EL1.regs,
		vel2:    v.VEL2.regs,
		virtEL1: v.VirtEL1.regs,
		pageCtx: v.PageCtx.regs,
		st:      v.st,
	}
	if v.st[vcEntry] != 0 {
		cp.entry = v.entry
	}
	if len(v.virqSpill) > 0 {
		cp.virqSpill = append([]int(nil), v.virqSpill...)
	}
	if v.shadowS2 != nil {
		t := v.shadowS2.Checkpoint()
		cp.shadowS2 = &t
	}
	if v.Guest != nil {
		g := v.Guest
		gcp := &guestCheckpoint{irqHandler: g.irqHandler, irqCount: g.IRQCount}
		if g.s1 != nil {
			t := g.s1.Checkpoint()
			gcp.s1 = &t
		}
		if g.vq != nil {
			d := g.vq.Checkpoint()
			gcp.vq = &d
		}
		cp.guest = gcp
	}
	return cp
}

// Restore returns the stack to a checkpointed state. The restore reuses
// live storage wherever the checkpoint topology matches the stack, so
// restoring the boot checkpoint of a warm-boot pool entry allocates
// nothing on the hot path.
func (s *Stack) Restore(cp *StackCheckpoint) {
	if s.smpRunning {
		panic("kvm: Restore during an SMP run (not a quiescent boundary)")
	}
	s.lastSMP = cp.lastSMP
	if s.jit != nil {
		// Full invalidation, not just a Quiesce: super-op guards are value
		// preconditions and would stay sound across the restore, but
		// warm-boot pools share one boot checkpoint between cells running
		// different workloads, and a cache of never-matching variants both
		// costs a failed guard check per dispatch and exhausts the chain
		// slots the new workload needs for its own recordings.
		s.jit.Reset()
	}
	// The SMP shard engines hold super-ops guarded against the pre-restore
	// state; invalidate them for the same reason.
	for _, sh := range s.smpShards {
		sh.Reset()
	}
	s.M.Restore(cp.machine)
	n := 1
	if s.GuestHyp != nil {
		n++
	}
	if s.GuestHyp2 != nil {
		n++
	}
	if n != len(cp.hyps) {
		panic(fmt.Sprintf("kvm: restore across stack shapes (%d levels vs %d)", n, len(cp.hyps)))
	}
	restoreHyp(s.Host, &cp.hyps[0])
	if s.GuestHyp != nil {
		restoreHyp(s.GuestHyp, &cp.hyps[1])
	}
	if s.GuestHyp2 != nil {
		restoreHyp(s.GuestHyp2, &cp.hyps[2])
	}
}

func restoreHyp(h *Hypervisor, cp *hypCheckpoint) {
	for i := range h.hostCtxs {
		h.hostCtxs[i].regs = cp.hostCtxs[i]
	}
	for i := range h.loaded {
		h.loaded[i].st = cp.slots[i].st
		h.loaded[i].fwd = cp.slots[i].fwd
	}
	h.st = cp.st
	if len(h.VMs) != len(cp.vms) {
		panic(fmt.Sprintf("kvm[%s]: restore across VM topologies (%d VMs vs %d)", h.Cfg.Name, len(h.VMs), len(cp.vms)))
	}
	for i, vm := range h.VMs {
		restoreVM(vm, &cp.vms[i])
	}
}

func restoreVM(vm *VM, cp *vmCheckpoint) {
	vm.st = cp.st
	vm.vmid = cp.vmid
	vm.gicShadowOwn = cp.gicShadowOwn
	switch {
	case cp.s2 == nil:
		vm.s2 = nil
	case vm.s2 == nil:
		vm.s2 = &mmu.Tables{Mem: vm.Hyp.backing()}
		vm.s2.Restore(*cp.s2)
	default:
		vm.s2.Restore(*cp.s2)
	}
	switch {
	case cp.echo == nil:
		vm.echo = nil
	default:
		if vm.echo == nil {
			// The ring Memory view is per-trap wiring: the kick path
			// installs a fresh hypRingMem before every drain.
			vm.echo = &virtio.Echo{Ring: virtio.Ring{
				Base: mem.Addr(cp.st[vmQueuePFN] << mem.PageShift),
			}}
		}
		vm.echo.Restore(*cp.echo)
	}
	for i, v := range vm.VCPUs {
		restoreVCPU(v, &cp.vcpus[i])
	}
}

func restoreVCPU(v *VCPU, cp *vcpuCheckpoint) {
	v.EL1.regs = cp.el1
	v.VEL2.regs = cp.vel2
	v.VirtEL1.regs = cp.virtEL1
	v.PageCtx.regs = cp.pageCtx
	v.st = cp.st
	v.virqSpill = append(v.virqSpill[:0], cp.virqSpill...)
	v.entry = cp.entry
	switch {
	case cp.shadowS2 == nil:
		v.shadowS2 = nil
	case v.shadowS2 == nil:
		v.shadowS2 = &mmu.Tables{Mem: v.VM.Hyp.backing()}
		v.shadowS2.Restore(*cp.shadowS2)
	default:
		v.shadowS2.Restore(*cp.shadowS2)
	}
	if cp.guest == nil {
		v.Guest = nil
		return
	}
	if v.Guest == nil {
		v.Guest = &GuestCtx{CPU: v.PCPU, VCPU: v}
	}
	g := v.Guest
	g.irqHandler = cp.guest.irqHandler
	g.IRQCount = cp.guest.irqCount
	if cp.guest.s1 == nil {
		g.s1 = nil
	} else {
		if g.s1 == nil {
			g.s1 = &mmu.Tables{Mem: &stage1Backing{g: g}}
		}
		g.s1.Restore(*cp.guest.s1)
	}
	if cp.guest.vq == nil {
		g.vq = nil
	} else {
		base := mem.Addr(v.st[vcRingBase])
		if g.vq == nil {
			g.vq = &virtio.Driver{Ring: virtio.Ring{Mem: guestRingMem{g}, Base: base}}
		}
		g.vq.Ring.Base = base
		g.vq.Restore(*cp.guest.vq)
	}
}
