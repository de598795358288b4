package x86

import (
	"fmt"

	"github.com/nevesim/neve/internal/mem"
	"github.com/nevesim/neve/internal/mmu"
)

// Extended Page Tables: x86's second translation stage, reusing the
// VMSAv8-style table machinery (the descriptor logic is equivalent at the
// model's level of abstraction). The host maintains EPT trees per VM; for
// a nested VM it builds shadow EPT by collapsing the guest hypervisor's
// EPT with its own, exactly as Turtles does and as the ARM side does for
// Stage-2 (Section 4).

// GuestRAMBase is where every VM sees its RAM.
const GuestRAMBase mem.Addr = 0x4000_0000

// vmRAMMachine is where the host places the L1 VM's RAM.
const vmRAMMachine mem.Addr = 0x8000_0000

// eptContext resolves guest physical addresses through the EPT tree named
// by the current VMCS's EPTPointer, with a TLB. It implements the CPU's
// translation hook.
type eptContext struct {
	mem *mem.Memory
	tlb *mmu.TLB
}

func newEPTContext(m *mem.Memory) *eptContext {
	return &eptContext{mem: m, tlb: mmu.NewTLB(512)}
}

// Translate resolves gpa through the EPT tree rooted at eptp.
func (e *eptContext) Translate(eptp mem.Addr, gpa mem.Addr, write bool) (mem.Addr, bool) {
	vmid := uint16(uint64(eptp) >> 12) // tag TLB entries by root page
	if pa, perm, ok := e.tlb.Lookup(vmid, gpa); ok {
		if write && perm&mmu.PermW == 0 {
			return 0, false
		}
		return pa, true
	}
	res, ok := mmu.Walk(e.mem, eptp, gpa, nil)
	if !ok {
		return 0, false
	}
	if write && res.Perm&mmu.PermW == 0 {
		return 0, false
	}
	e.tlb.Insert(vmid, gpa, res.OA, res.Perm)
	return res.OA, true
}

// guestRAMBacking exposes machine memory at a guest hypervisor's physical
// addresses (for the EPT trees it builds in its own RAM).
type guestRAMBacking struct {
	machine *mem.Memory
	base    mem.Addr // machine address of the guest's RAM window
	size    uint64
	next    mem.Addr
}

func (b *guestRAMBacking) xlat(a mem.Addr) mem.Addr {
	if a < GuestRAMBase || uint64(a-GuestRAMBase) >= b.size {
		panic(fmt.Sprintf("x86: address %#x outside guest RAM", uint64(a)))
	}
	return b.base + (a - GuestRAMBase)
}

func (b *guestRAMBacking) AllocPage() mem.Addr {
	if b.next == 0 {
		b.next = GuestRAMBase + mem.Addr(b.size) - mem.Addr(b.size/8)
	}
	p := b.next
	b.next += mem.PageSize
	return p
}
func (b *guestRAMBacking) Read64(a mem.Addr) (uint64, error) { return b.machine.Read64(b.xlat(a)) }
func (b *guestRAMBacking) MustRead64(a mem.Addr) uint64      { return b.machine.MustRead64(b.xlat(a)) }
func (b *guestRAMBacking) MustWrite64(a mem.Addr, v uint64)  { b.machine.MustWrite64(b.xlat(a), v) }

// WriteWords translates a run once: it lies within one page of the
// guest's linear RAM window.
func (b *guestRAMBacking) WriteWords(a mem.Addr, vs []uint64) {
	b.machine.WriteWords(b.xlat(a), vs)
}

// initVMEPT builds the VM's EPT: the VM's RAM is the upper half of the
// manager's own RAM, mapped linearly; device windows are absent so they
// fault for emulation.
func (h *Hypervisor) initVMEPT(vm *VM) {
	if vm.ept != nil {
		return
	}
	backing, ownStart, base, size := h.ramView()
	vm.ept = mmu.NewTables(backing)
	vm.ramBase = base + mem.Addr(size/2)
	vm.ramSize = size / 4
	vm.ept.Map(GuestRAMBase, ownStart+mem.Addr(size/2), vm.ramSize, mmu.PermRWX)
	for _, v := range vm.VCPUs {
		// Program the EPT root into the vCPU's VMCS. For a directly run VM
		// this is the hardware pointer; for a guest hypervisor's VM it is
		// virtual state the host later collapses.
		v.vmcs.Write(h.Mem, EPTPointer, uint64(vm.ept.Root))
	}
}

// ramView returns the memory view this hypervisor builds tables in, the
// start of its RAM in its own address space, and the machine address and
// size of that RAM.
func (h *Hypervisor) ramView() (mmu.Backing, mem.Addr, mem.Addr, uint64) {
	if h.IsHost() {
		return h.Mem, vmRAMMachine, vmRAMMachine, 64 << 20
	}
	// The guest hypervisor's RAM is its VM's window within its parent.
	_, _, pbase, psize := h.Parent.ramView()
	base := pbase + mem.Addr(psize/2)
	size := psize / 4
	return &guestRAMBacking{machine: h.Mem, base: base, size: size}, GuestRAMBase, base, size
}

// fixEPTFault repairs an EPT violation in a directly run VM (RAM window
// only; device windows are emulated instead).
func (h *Hypervisor) fixEPTFault(c *CPU, v *VCPU, gpa mem.Addr) bool {
	vm := v.VM
	if vm.ept == nil || gpa < GuestRAMBase || uint64(gpa-GuestRAMBase) >= vm.ramSize {
		return false
	}
	c.Work(workEPTFix)
	_, ownStart, _, size := h.ramView()
	page := gpa.PageBase()
	vm.ept.Map(page, ownStart+mem.Addr(size/2)+(page-GuestRAMBase), mem.PageSize, mmu.PermRWX)
	return true
}

// fixShadowEPTFault collapses the guest hypervisor's EPT with the host's
// for a nested VM fault (Turtles).
func (h *Hypervisor) fixShadowEPTFault(c *CPU, v *VCPU, gpa mem.Addr) bool {
	l12eptp := mem.Addr(v.vmcs12.Read(h.Mem, EPTPointer))
	if l12eptp == 0 {
		return false
	}
	c.Work(workShadowEPTFix)
	gh := v.VM.GuestHyp
	if gh == nil {
		return false
	}
	// The guest hypervisor's EPT holds addresses in ITS physical address
	// space; its whole RAM (not just its VM's carve) is addressable.
	_, _, ghBase, ghSize := gh.ramView()
	xlat := func(a mem.Addr) (mem.Addr, bool) {
		if a < GuestRAMBase || uint64(a-GuestRAMBase) >= ghSize {
			return 0, false
		}
		return ghBase + (a - GuestRAMBase), true
	}
	res, ok := mmu.Walk(h.Mem, l12eptp, gpa, xlat)
	if !ok {
		return false
	}
	machinePA, ok := xlat(res.OA)
	if !ok {
		return false
	}
	if v.shadowEPT == nil {
		v.shadowEPT = mmu.NewTables(h.Mem)
	}
	v.shadowEPT.Map(gpa.PageBase(), machinePA.PageBase(), mem.PageSize, res.Perm)
	v.vmcs.Write(h.Mem, EPTPointer, uint64(v.shadowEPT.Root))
	return true
}

const (
	workEPTFix       = 650
	workShadowEPTFix = 1000
)
