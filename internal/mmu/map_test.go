package mmu

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/nevesim/neve/internal/gic"
	"github.com/nevesim/neve/internal/mem"
)

// refMap is the page-at-a-time mapper Map replaced: one four-level walk
// per page, allocating missing tables on the way down, then one
// MustWrite64 of the page descriptor. It is the oracle for Map's
// leaf-table runs.
func refMap(t *Tables, ia, oa mem.Addr, size uint64, perm Perm) {
	for off := uint64(0); off < size; off += mem.PageSize {
		a := ia + mem.Addr(off)
		table := t.Root
		for level := startLevel; level < lastLevel; level++ {
			slot := table + mem.Addr(indexAt(a, level)*8)
			d := t.Mem.MustRead64(slot)
			if d&descValid == 0 {
				next := t.Mem.AllocPage()
				t.pages++
				t.Mem.MustWrite64(slot, uint64(next)&descAddrMask|descValid|descTable)
				table = next
				continue
			}
			table = mem.Addr(d & descAddrMask)
		}
		t.Mem.MustWrite64(table+mem.Addr(indexAt(a, lastLevel)*8),
			uint64(oa+mem.Addr(off))&descAddrMask|descValid|descPage|uint64(perm)<<descPermShift)
	}
}

// refUnmap is the page-at-a-time Unmap: one walk per page, skipping pages
// whose leaf table was never built.
func refUnmap(t *Tables, ia mem.Addr, size uint64) {
	for off := uint64(0); off < size; off += mem.PageSize {
		a := ia + mem.Addr(off)
		table, ok := t.Root, true
		for level := startLevel; level < lastLevel && ok; level++ {
			d := t.Mem.MustRead64(table + mem.Addr(indexAt(a, level)*8))
			ok = d&descValid != 0
			table = mem.Addr(d & descAddrMask)
		}
		if ok {
			t.Mem.MustWrite64(table+mem.Addr(indexAt(a, lastLevel)*8), 0)
		}
	}
}

// mapOp is one step of an oracle case: a Map, an Unmap (unmap set), or a
// page allocation from the tree's backing between maps (alloc set). A Map
// with oa 0 maps onto the page the last alloc step returned.
type mapOp struct {
	ia, oa mem.Addr
	size   uint64
	perm   Perm
	unmap  bool
	alloc  bool
}

// guestRAMIPA is where the KVM model places a VM's RAM (kvm.GuestRAMIPA).
const guestRAMIPA mem.Addr = 0x4000_0000

var mapCases = []struct {
	name string
	ops  []mapOp
}{
	{"single-page", []mapOp{{ia: 0x1000, oa: 0x80000, size: mem.PageSize, perm: PermRW}}},
	{"2MiB-aligned", []mapOp{{ia: 0x4020_0000, oa: 0x80_0000, size: 2 << 20, perm: PermRWX}}},
	{"cross-leaf-table", []mapOp{{ia: 0x401f_d000, oa: 0x90_0000, size: 7 * mem.PageSize, perm: PermRW}}},
	{"cross-1GiB", []mapOp{{ia: 0x3fff_e000, oa: 0x90_0000, size: 5 * mem.PageSize, perm: PermRWX}}},
	{"cross-512GiB", []mapOp{{ia: 0x7f_ffff_f000, oa: 0xa0_0000, size: 3 * mem.PageSize, perm: PermR}}},
	{"long-unaligned", []mapOp{{ia: 0x5000_3000, oa: 0x123_4000, size: 1029 * mem.PageSize, perm: PermRW}}},
	{"remap-perm", []mapOp{
		{ia: guestRAMIPA, oa: 0x100_0000, size: 3 << 20, perm: PermRWX},
		{ia: guestRAMIPA + 0x1f_f000, oa: 0x200_0000, size: 600 * mem.PageSize, perm: PermR},
	}},
	{"initVMS2", []mapOp{
		{ia: guestRAMIPA, oa: 0x1000_0000, size: 16 << 20, perm: PermRWX},
		{alloc: true},
		{ia: gic.HostIfcBase, size: mem.PageSize, perm: PermR},
	}},
	{"unmap", []mapOp{
		{ia: guestRAMIPA, oa: 0x100_0000, size: 4 << 20, perm: PermRWX},
		{ia: guestRAMIPA + 0x1f_e000, size: 515 * mem.PageSize, unmap: true},
		// Partly beyond the built tables: the missing leaf tables stay
		// missing.
		{ia: guestRAMIPA + 0x3f_f000, size: 3 << 20, unmap: true},
		{ia: 0x10_0000_0000, size: mem.PageSize, unmap: true},
	}},
}

// apply runs ops on t, with Map and Unmap or with the reference mappers.
func apply(t *Tables, ops []mapOp, ref bool) {
	var allocated mem.Addr
	for _, op := range ops {
		oa := op.oa
		if oa == 0 {
			oa = allocated
		}
		switch {
		case op.alloc:
			allocated = t.Mem.AllocPage()
		case op.unmap && ref:
			refUnmap(t, op.ia, op.size)
		case op.unmap:
			t.Unmap(op.ia, op.size)
		case ref:
			refMap(t, op.ia, oa, op.size, op.perm)
		default:
			t.Map(op.ia, oa, op.size, op.perm)
		}
	}
}

// treeState is everything a table build leaves behind.
type treeState struct {
	Root      mem.Addr
	Pages     int
	Populated []mem.Addr
	Contents  map[mem.Addr][]uint64
}

func stateOf(t *Tables, m *mem.Memory) treeState {
	s := treeState{Root: t.Root, Pages: t.Pages(), Populated: m.PopulatedPages(), Contents: map[mem.Addr][]uint64{}}
	for _, p := range s.Populated {
		words := make([]uint64, mem.PageSize/8)
		for i := range words {
			words[i] = m.MustRead64(p + mem.Addr(8*i))
		}
		s.Contents[p] = words
	}
	return s
}

// backings builds a fresh tree's backing over m: machine memory directly,
// and a guest-physical view at an offset, as a guest hypervisor's tables.
var backings = []struct {
	name string
	new  func(m *mem.Memory) Backing
}{
	{"machine", func(m *mem.Memory) Backing { return m }},
	{"offset", func(m *mem.Memory) Backing { return &offsetMemory{m: m, off: 0x4000_0000} }},
}

// TestMapMatchesPageOracle pins Map's leaf-table runs to the page-at-a-time
// build: the same root, table page count, populated pages, bytes and next
// allocation, so warm-boot cells and goldens cannot tell them apart.
func TestMapMatchesPageOracle(t *testing.T) {
	for _, bk := range backings {
		for _, tc := range mapCases {
			t.Run(bk.name+"/"+tc.name, func(t *testing.T) {
				gm, wm := mem.New(0), mem.New(0)
				got, want := NewTables(bk.new(gm)), NewTables(bk.new(wm))
				apply(got, tc.ops, false)
				apply(want, tc.ops, true)
				gs, ws := stateOf(got, gm), stateOf(want, wm)
				if !reflect.DeepEqual(gs, ws) {
					t.Fatalf("state differs from the page-at-a-time build:\n%s", stateDiff(gs, ws))
				}
				if g, w := got.Mem.AllocPage(), want.Mem.AllocPage(); g != w {
					t.Fatalf("next AllocPage = %#x, want %#x", uint64(g), uint64(w))
				}
			})
		}
	}
}

func stateDiff(got, want treeState) string {
	if got.Root != want.Root || got.Pages != want.Pages {
		return fmt.Sprintf("root/pages %#x/%d, want %#x/%d", uint64(got.Root), got.Pages, uint64(want.Root), want.Pages)
	}
	if !reflect.DeepEqual(got.Populated, want.Populated) {
		return fmt.Sprintf("populated %#x, want %#x", got.Populated, want.Populated)
	}
	for p, w := range want.Contents {
		for i, v := range got.Contents[p] {
			if v != w[i] {
				return fmt.Sprintf("word %#x = %#x, want %#x", uint64(p)+uint64(8*i), v, w[i])
			}
		}
	}
	return "contents differ"
}

// TestMapOverSnapshot maps over copy-on-write pages: the live memory
// matches the oracle, and the snapshot still restores the pre-map bytes.
func TestMapOverSnapshot(t *testing.T) {
	build := func(ref bool) (*Tables, *mem.Memory, *mem.Snapshot, TablesCheckpoint, treeState) {
		m := mem.New(0)
		tb := NewTables(m)
		apply(tb, []mapOp{{ia: guestRAMIPA, oa: 0x100_0000, size: 2 << 20, perm: PermRWX}}, ref)
		before := stateOf(tb, m)
		snap, cp := m.Snapshot(), tb.Checkpoint()
		apply(tb, []mapOp{
			{ia: guestRAMIPA + 0x10_0000, oa: 0x300_0000, size: 2 << 20, perm: PermR},
			{ia: guestRAMIPA + 0x20_0000, size: 8 * mem.PageSize, unmap: true},
		}, ref)
		return tb, m, snap, cp, before
	}
	got, gm, snap, cp, before := build(false)
	want, wm, _, _, _ := build(true)
	if gs, ws := stateOf(got, gm), stateOf(want, wm); !reflect.DeepEqual(gs, ws) {
		t.Fatalf("map over snapshot differs from the oracle:\n%s", stateDiff(gs, ws))
	}
	gm.Restore(snap)
	got.Restore(cp)
	if after := stateOf(got, gm); !reflect.DeepEqual(after, before) {
		t.Fatalf("snapshot changed by the map:\n%s", stateDiff(after, before))
	}
}

// TestRemapAllocsNothing: remapping an already-built 16 MiB range reuses
// the tree's run buffer and every table page.
func TestRemapAllocsNothing(t *testing.T) {
	m := mem.New(0)
	tb := NewTables(m)
	tb.Map(guestRAMIPA, 0x1000_0000, 16<<20, PermRWX)
	if n := testing.AllocsPerRun(10, func() {
		tb.Map(guestRAMIPA, 0x1000_0000, 16<<20, PermRWX)
	}); n != 0 {
		t.Fatalf("remap allocated %.1f objects per run, want 0", n)
	}
}

// BenchmarkStage2Map builds a VM's 16 MiB linear Stage-2 map, as initVMS2
// does, on fresh memory and on memory restored from a snapshot (the
// warm-boot path every ARM cell takes, where table pages are new pages
// beside copy-on-write ones).
func BenchmarkStage2Map(b *testing.B) {
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewTables(mem.New(0)).Map(guestRAMIPA, 0x1000_0000, 16<<20, PermRWX)
		}
	})
	b.Run("restored", func(b *testing.B) {
		m := mem.New(0)
		for p := mem.Addr(0); p < 64; p++ {
			m.MustWrite64(0x1000_0000+p<<mem.PageShift, uint64(p))
		}
		snap := m.Snapshot()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Restore(snap)
			NewTables(m).Map(guestRAMIPA, 0x1000_0000, 16<<20, PermRWX)
		}
	})
}
