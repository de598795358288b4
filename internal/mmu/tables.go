// Package mmu models the VMSAv8-64 translation system used for memory
// virtualization: Stage-1 and Stage-2 page tables with 4 KiB granules and
// four levels, a VMID-tagged TLB, and the nested walks needed to build
// shadow Stage-2 tables (paper Section 4, "Memory virtualization").
//
// Page tables are real data structures stored in simulated physical memory
// (package mem) and walked descriptor by descriptor, so shadow-table
// construction — collapsing the guest hypervisor's Stage-2 with the host's —
// exercises the same logic a hypervisor would run.
package mmu

import (
	"fmt"

	"github.com/nevesim/neve/internal/mem"
)

// Perm is an access permission set in a translation.
type Perm uint8

const (
	PermR Perm = 1 << 0
	PermW Perm = 1 << 1
	PermX Perm = 1 << 2
	// PermRW and PermRWX are the common guest RAM permissions.
	PermRW  = PermR | PermW
	PermRWX = PermR | PermW | PermX
)

func (p Perm) String() string {
	b := []byte("---")
	if p&PermR != 0 {
		b[0] = 'r'
	}
	if p&PermW != 0 {
		b[1] = 'w'
	}
	if p&PermX != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Descriptor encoding (simplified VMSAv8-64): bit 0 valid, bit 1 table (at
// levels 0-2) or page (at level 3), bits [47:12] output address, bits
// [58:56] permissions (model-defined position, in the ignored field of the
// real format).
const (
	descValid uint64 = 1 << 0
	descTable uint64 = 1 << 1
	descPage  uint64 = 1 << 1

	descAddrMask uint64 = 0x0000fffffffff000

	descPermShift        = 56
	descPermMask  uint64 = 7 << descPermShift
)

const (
	// IABits is the supported input address size.
	IABits = 48
	// startLevel is the first level of a 4-level walk.
	startLevel = 0
	lastLevel  = 3
)

// levelShift returns the address shift for a level (level 3 = 12).
func levelShift(level int) uint {
	return uint(12 + 9*(lastLevel-level))
}

func indexAt(addr mem.Addr, level int) uint64 {
	return (uint64(addr) >> levelShift(level)) & 0x1ff
}

// Backing is the memory a table tree is built in. *mem.Memory implements
// it directly; a guest hypervisor building tables in its own (intermediate)
// physical address space is modeled by a Backing that offsets addresses.
//
// WriteWords stores a run of descriptors that lies within one table page,
// leaving the bytes a MustWrite64 loop over the run would leave. Map and
// Unmap hand each leaf table's share of a range to it in one call, so a
// backing can translate and check the run once (see DESIGN.md, "Table
// runs").
type Backing interface {
	AllocPage() mem.Addr
	Read64(mem.Addr) (uint64, error)
	MustRead64(mem.Addr) uint64
	MustWrite64(mem.Addr, uint64)
	WriteWords(mem.Addr, []uint64)
}

// Tables is one translation table tree rooted in simulated memory. It is
// used for both Stage-1 and Stage-2 translations (the model's simplified
// descriptor format is shared).
type Tables struct {
	Mem  Backing
	Root mem.Addr
	// pages counts table pages allocated, for diagnostics and tests.
	pages int
	// run is the descriptor buffer Map and Unmap fill for one leaf table
	// at a time; it grows to at most one table page of entries and is
	// reused, so remapping allocates nothing.
	run []uint64
}

// entriesPerTable is the number of descriptors in one table page.
const entriesPerTable = mem.PageSize / 8

// NewTables allocates an empty 4-level table tree.
func NewTables(m Backing) *Tables {
	return &Tables{Mem: m, Root: m.AllocPage(), pages: 1}
}

// Pages returns the number of table pages backing the tree.
func (t *Tables) Pages() int { return t.pages }

// Map establishes 4 KiB mappings for [ia, ia+size) -> [oa, oa+size) with
// the given permissions, overwriting any existing mappings in the range.
// The range is built one leaf table at a time: one walk (allocating
// missing tables) per run of up to 512 pages, then one WriteWords of the
// run's page descriptors. Table pages are allocated in ascending ia order,
// the same sequence a page-at-a-time build allocates, so table addresses
// and the next AllocPage do not depend on the run length.
func (t *Tables) Map(ia, oa mem.Addr, size uint64, perm Perm) {
	if ia.PageOff() != 0 || oa.PageOff() != 0 || size%mem.PageSize != 0 {
		panic(fmt.Sprintf("mmu: unaligned mapping %#x -> %#x (+%#x)", uint64(ia), uint64(oa), size))
	}
	attrs := descValid | descPage | uint64(perm)<<descPermShift
	for pages := size / mem.PageSize; pages > 0; {
		table, _ := t.leafTable(ia, true)
		first := indexAt(ia, lastLevel)
		run := t.runBuf(first, pages)
		for i := range run {
			run[i] = uint64(oa+mem.Addr(i)*mem.PageSize)&descAddrMask | attrs
		}
		t.Mem.WriteWords(table+mem.Addr(first*8), run)
		n := uint64(len(run))
		ia += mem.Addr(n * mem.PageSize)
		oa += mem.Addr(n * mem.PageSize)
		pages -= n
	}
}

// Unmap removes the mappings for [ia, ia+size). Table pages are not
// reclaimed (as in real hypervisors outside teardown), and a leaf table
// that was never built is skipped without allocating.
func (t *Tables) Unmap(ia mem.Addr, size uint64) {
	ia = ia.PageBase()
	for pages := (size + mem.PageSize - 1) / mem.PageSize; pages > 0; {
		first := indexAt(ia, lastLevel)
		run := t.runBuf(first, pages)
		if table, ok := t.leafTable(ia, false); ok {
			clear(run)
			t.Mem.WriteWords(table+mem.Addr(first*8), run)
		}
		n := uint64(len(run))
		ia += mem.Addr(n * mem.PageSize)
		pages -= n
	}
}

// runBuf returns the descriptor buffer for the run starting at leaf index
// first: the rest of that leaf table, or the pages left if fewer.
func (t *Tables) runBuf(first, pages uint64) []uint64 {
	n := min(entriesPerTable-first, pages)
	if uint64(cap(t.run)) < n {
		t.run = make([]uint64, n)
	}
	return t.run[:n]
}

// leafTable walks levels 0-2 for ia and returns the level-3 table that
// covers it. With alloc set, missing tables are allocated and linked on
// the way down; without it, ok is false at the first invalid descriptor.
func (t *Tables) leafTable(ia mem.Addr, alloc bool) (table mem.Addr, ok bool) {
	table = t.Root
	for level := startLevel; level < lastLevel; level++ {
		slot := table + mem.Addr(indexAt(ia, level)*8)
		d := t.Mem.MustRead64(slot)
		if d&descValid != 0 {
			table = mem.Addr(d & descAddrMask)
			continue
		}
		if !alloc {
			return 0, false
		}
		table = t.Mem.AllocPage()
		t.pages++
		t.Mem.MustWrite64(slot, uint64(table)&descAddrMask|descValid|descTable)
	}
	return table, true
}

// WalkResult is the outcome of a successful table walk.
type WalkResult struct {
	OA    mem.Addr
	Perm  Perm
	Steps int // descriptors read; the TLB-miss cost model uses it
}

// Xlat translates the physical address of a table or descriptor during a
// nested walk: when the host hypervisor walks a guest hypervisor's Stage-2
// tables, every table address is a guest physical address that must itself
// be translated (Section 4). nil means identity.
type Xlat func(mem.Addr) (mem.Addr, bool)

// Walk translates ia through the tree rooted at root in m. It returns
// ok=false for a translation fault at any level.
func Walk(m Backing, root mem.Addr, ia mem.Addr, xlat Xlat) (WalkResult, bool) {
	if uint64(ia)>>IABits != 0 {
		return WalkResult{}, false
	}
	table := root
	steps := 0
	for level := startLevel; ; level++ {
		if xlat != nil {
			var ok bool
			table, ok = xlat(table)
			if !ok {
				return WalkResult{Steps: steps}, false
			}
		}
		d, err := m.Read64(table + mem.Addr(indexAt(ia, level)*8))
		if err != nil {
			return WalkResult{Steps: steps}, false
		}
		steps++
		if d&descValid == 0 {
			return WalkResult{Steps: steps}, false
		}
		if level == lastLevel {
			return WalkResult{
				OA:    mem.Addr(d&descAddrMask) + mem.Addr(ia.PageOff()),
				Perm:  Perm((d & descPermMask) >> descPermShift),
				Steps: steps,
			}, true
		}
		table = mem.Addr(d & descAddrMask)
	}
}

// Walk is the method form of the package-level Walk on this tree.
func (t *Tables) Walk(ia mem.Addr) (WalkResult, bool) {
	return Walk(t.Mem, t.Root, ia, nil)
}
