package kvm

import (
	"fmt"

	"github.com/nevesim/neve/internal/arm"
	"github.com/nevesim/neve/internal/jit"
)

// Tracked state files. Every piece of hypervisor, VM, and vCPU state a trap
// sequence can read or write lives in a small fixed array registered with
// the trace-JIT engine (see jit.go) and is accessed only through the
// accessors below, which notify the file's tap. A super-op therefore
// guards exactly the words its sequence read and restores the words it
// changed. State that cannot be a word — lazily created objects, a
// forwarded exit's payload, a queue spill — is flagged by a word instead,
// and a recording that would have to replay the state itself poisons.

// Per-physical-core hypervisor slot (loadedCtx.st).
const (
	slotLoaded = iota // loaded vCPU reference | mode<<32 (see loadedCtx)
	slotFwd           // 1 while fwd holds an exit queued for forwarding
	slotWords
)

// Hypervisor-wide words (Hypervisor.st).
const (
	hypGuestNext = iota // guestBacking allocator cursor, 0 before first use
	hypNextVMID
	hypWords
)

// VM words (VM.st).
const (
	vmS2Root = iota // Stage-2 root, 0 while the tables are unbuilt
	vmQueuePFN
	vmQueueNum
	vmStatus
	vmIntStatus
	vmEcho      // 1 while the echo backend exists
	vmGICShadow // machine address of the GICv2 shadow page, or 0
	vmWords
)

// vCPU words (VCPU.st).
const (
	vcDirtyLRs = iota
	vcInVEL2
	vcOnline
	vcX0
	vcEntry      // 1 while entry holds a pending virtual vector entry
	vcShadowRoot // shadow Stage-2 root, 0 while unbuilt
	vcS1Root     // guest Stage-1 root, 0 while Stage-1 is off
	vcS1Next     // guest Stage-1 table allocator cursor
	vcRingBase   // guest virtio ring base, 0 before VirtioInit
	vcVIRQLen    // software-pending virtual interrupts (virqQueue)
	vcVIRQ0
	vcpuWords = vcVIRQ0 + virqSlots
)

// virqSlots is how many software-pending virtual interrupts a vCPU file
// holds; deeper queues spill (see jit.Queue).
const virqSlots = 8

var virqQueue = jit.Queue{Len: vcVIRQLen, Slot0: vcVIRQ0, Slots: virqSlots}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// loadedCtx is the per-physical-CPU record of what context the hypervisor
// has loaded onto the hardware, plus the exit queued for forwarding on
// that core. Each is its own state file: it is owned by the core, which is
// what lets the SMP shard engine of that core track it.
type loadedCtx struct {
	st  [slotWords]uint64
	jt  *jit.FileTap
	h   *Hypervisor
	fwd fwd
}

func (lc *loadedCtx) word(i int) uint64 {
	lc.jt.Read(i)
	return lc.st[i]
}

func (lc *loadedCtx) setWord(i int, v uint64) {
	lc.jt.Write(i)
	lc.st[i] = v
}

// vcpu returns the loaded vCPU, or nil for an idle core.
func (lc *loadedCtx) vcpu() *VCPU { return lc.h.vcpuByRef(lc.word(slotLoaded) & 0xffff) }

func (lc *loadedCtx) mode() runMode { return runMode(lc.word(slotLoaded) >> 32) }

func (lc *loadedCtx) setMode(m runMode) {
	lc.setWord(slotLoaded, lc.word(slotLoaded)&0xffff|uint64(m)<<32)
}

// load records v (nil for none) running in mode m.
func (lc *loadedCtx) load(v *VCPU, m runMode) {
	lc.setWord(slotLoaded, lc.h.vcpuRef(v)|uint64(m)<<32)
}

// pendingFwd returns the exit queued for forwarding on this core, or nil.
// A queued exit the active recording did not queue itself carries a
// payload replay cannot reproduce, so reading one poisons.
func (lc *loadedCtx) pendingFwd() *fwd {
	if lc.word(slotFwd) == 0 {
		return nil
	}
	if !lc.jt.Written(slotFwd) {
		lc.jt.Poison()
	}
	return &lc.fwd
}

// setPendingFwd queues f (copied) for forwarding, or clears the queue.
func (lc *loadedCtx) setPendingFwd(f *fwd) {
	if f == nil {
		lc.setWord(slotFwd, 0)
		return
	}
	lc.fwd = *f
	lc.setWord(slotFwd, 1)
	lc.jt.Transient(slotFwd)
}

// vcpuRef encodes v, a vCPU of one of h's VMs, as (VM index+1)<<8 | vCPU
// ID; 0 is no vCPU.
func (h *Hypervisor) vcpuRef(v *VCPU) uint64 {
	if v == nil {
		return 0
	}
	for i, vm := range h.VMs {
		if vm == v.VM {
			return uint64(i+1)<<8 | uint64(v.ID)
		}
	}
	panic(fmt.Sprintf("kvm[%s]: %s is not managed here", h.Cfg.Name, v))
}

func (h *Hypervisor) vcpuByRef(ref uint64) *VCPU {
	if ref == 0 {
		return nil
	}
	return h.VMs[ref>>8-1].VCPUs[ref&0xff]
}

func (h *Hypervisor) word(i int) uint64 {
	h.jt.Read(i)
	return h.st[i]
}

func (h *Hypervisor) setWord(i int, v uint64) {
	h.jt.Write(i)
	h.st[i] = v
}

// word reads VM word i on behalf of core c. A VM's file is shared by every
// core running its vCPUs, so it carries one tap per core: the SMP shard
// engine of each core tracks it read-only.
func (vm *VM) word(c *arm.CPU, i int) uint64 {
	if vm.jt != nil {
		vm.jt[c.ID].Read(i)
	}
	return vm.st[i]
}

func (vm *VM) setWord(c *arm.CPU, i int, v uint64) {
	if vm.jt != nil {
		vm.jt[c.ID].Write(i)
	}
	vm.st[i] = v
}

func (v *VCPU) word(i int) uint64 {
	v.jt.Read(i)
	return v.st[i]
}

func (v *VCPU) setWord(i int, x uint64) {
	v.jt.Write(i)
	v.st[i] = x
}

// InVEL2 reports whether the vCPU runs its guest hypervisor's virtual EL2.
func (v *VCPU) InVEL2() bool { return v.word(vcInVEL2) != 0 }

func (v *VCPU) setInVEL2(b bool) { v.setWord(vcInVEL2, b2u(b)) }

// Online reports whether the vCPU has been powered on (PSCI).
func (v *VCPU) Online() bool { return v.word(vcOnline) != 0 }

func (v *VCPU) setOnline(b bool) { v.setWord(vcOnline, b2u(b)) }

// dirtyLRs is how many list registers the managing hypervisor's vgic
// currently considers live and re-programs on entry (KVM only writes used
// list registers).
func (v *VCPU) dirtyLRs() int { return int(v.word(vcDirtyLRs)) }

func (v *VCPU) setDirtyLRs(n int) { v.setWord(vcDirtyLRs, uint64(n)) }

// x0 is the virtual first argument/return register: MMIO emulation
// results and PSCI arguments travel through it.
func (v *VCPU) x0() uint64 { return v.word(vcX0) }

func (v *VCPU) setX0(x uint64) { v.setWord(vcX0, x) }

// pendingEntry returns the exit the managing hypervisor forwarded into
// this vCPU's virtual EL2 vector, to run when the vCPU is next entered
// (recursive nesting, Section 6.2), or nil. As with loadedCtx.pendingFwd,
// reading an entry the active recording did not queue poisons.
func (v *VCPU) pendingEntry() *arm.Exception {
	if v.word(vcEntry) == 0 {
		return nil
	}
	if !v.jt.Written(vcEntry) {
		v.jt.Poison()
	}
	return &v.entry
}

// setPendingEntry queues e (copied), or clears the entry.
func (v *VCPU) setPendingEntry(e *arm.Exception) {
	if e == nil {
		v.setWord(vcEntry, 0)
		return
	}
	v.entry = *e
	v.setWord(vcEntry, 1)
	v.jt.Transient(vcEntry)
}

// queueVIRQ appends a software-pending virtual interrupt.
func (v *VCPU) queueVIRQ(intid int) { virqQueue.Push(v.st[:], v.jt, &v.virqSpill, intid) }

func (v *VCPU) virqCount() int { return virqQueue.Count(v.st[:], v.jt) }

func (v *VCPU) popVIRQ() int { return virqQueue.Pop(v.st[:], v.jt, &v.virqSpill) }
