package mmu

import (
	"testing"
	"testing/quick"

	"github.com/nevesim/neve/internal/mem"
)

func TestMapWalkRoundTrip(t *testing.T) {
	m := mem.New(0)
	tb := NewTables(m)
	tb.Map(0x1000, 0x80000, mem.PageSize, PermRW)
	res, ok := tb.Walk(0x1234)
	if !ok {
		t.Fatal("walk of mapped page failed")
	}
	if res.OA != 0x80234 {
		t.Fatalf("OA = %#x, want 0x80234", uint64(res.OA))
	}
	if res.Perm != PermRW {
		t.Fatalf("perm = %v, want rw-", res.Perm)
	}
	if res.Steps != 4 {
		t.Fatalf("steps = %d, want 4 (four-level walk)", res.Steps)
	}
}

func TestUnmappedFaults(t *testing.T) {
	m := mem.New(0)
	tb := NewTables(m)
	if _, ok := tb.Walk(0x5000); ok {
		t.Fatal("walk of unmapped address succeeded")
	}
	tb.Map(0x5000, 0x90000, mem.PageSize, PermR)
	if _, ok := tb.Walk(0x5000); !ok {
		t.Fatal("walk of mapped address failed")
	}
	if _, ok := tb.Walk(0x6000); ok {
		t.Fatal("adjacent unmapped page resolved")
	}
}

func TestUnmap(t *testing.T) {
	m := mem.New(0)
	tb := NewTables(m)
	tb.Map(0x10000, 0xa0000, 4*mem.PageSize, PermRWX)
	tb.Unmap(0x11000, mem.PageSize)
	if _, ok := tb.Walk(0x11000); ok {
		t.Fatal("unmapped page still resolves")
	}
	for _, a := range []mem.Addr{0x10000, 0x12000, 0x13000} {
		if _, ok := tb.Walk(a); !ok {
			t.Fatalf("neighbour %#x lost its mapping", uint64(a))
		}
	}
}

func TestRemapOverwrites(t *testing.T) {
	m := mem.New(0)
	tb := NewTables(m)
	tb.Map(0x2000, 0x80000, mem.PageSize, PermR)
	tb.Map(0x2000, 0xb0000, mem.PageSize, PermRW)
	res, ok := tb.Walk(0x2000)
	if !ok || res.OA != 0xb0000 || res.Perm != PermRW {
		t.Fatalf("after remap: %+v ok=%v", res, ok)
	}
}

func TestSparseAddressesShareTables(t *testing.T) {
	m := mem.New(0)
	tb := NewTables(m)
	tb.Map(0x0, 0x100000, mem.PageSize, PermR)
	before := tb.Pages()
	tb.Map(0x1000, 0x101000, mem.PageSize, PermR)
	if tb.Pages() != before {
		t.Fatalf("adjacent page allocated new tables: %d -> %d", before, tb.Pages())
	}
	// A distant address needs a fresh subtree.
	tb.Map(0x7f0000000000, 0x102000, mem.PageSize, PermR)
	if tb.Pages() <= before {
		t.Fatal("distant mapping did not allocate tables")
	}
}

func TestWalkBeyondIABitsFaults(t *testing.T) {
	m := mem.New(0)
	tb := NewTables(m)
	if _, ok := tb.Walk(mem.Addr(uint64(1) << IABits)); ok {
		t.Fatal("out-of-range input address resolved")
	}
}

func TestNestedWalkXlat(t *testing.T) {
	// Model the shadow-table construction scenario: the "guest" builds
	// tables using guest physical addresses; the host walks them while
	// translating every table address through the host's own mapping.
	machine := mem.New(0)

	// Host stage-2 for the guest: guest PA x maps to machine PA x+0x40000000.
	const offset = 0x40000000
	hostXlat := func(ga mem.Addr) (mem.Addr, bool) { return ga + offset, true }

	// Build the guest's tables directly at their machine addresses but
	// record guest addresses in descriptors: allocate machine pages and
	// subtract the offset when linking, which is exactly what a guest
	// writing its own tables in its own address space produces.
	guestView := &offsetMemory{m: machine, off: offset}
	gt := NewTables(guestView)
	gt.Map(0x3000, 0x7000, mem.PageSize, PermRW)

	res, ok := Walk(machine, gt.Root, 0x3000, hostXlat)
	if !ok {
		t.Fatal("nested walk failed")
	}
	if res.OA != 0x7000 {
		t.Fatalf("nested walk OA = %#x, want guest PA 0x7000", uint64(res.OA))
	}

	// Without the translation the walk must fault (the guest's table
	// addresses are not valid machine addresses).
	if _, ok := Walk(machine, gt.Root, 0x3000, func(mem.Addr) (mem.Addr, bool) { return 0, false }); ok {
		t.Fatal("nested walk with failing xlat succeeded")
	}
}

// offsetMemory exposes machine memory at guest physical addresses: guest
// address g lives at machine address g+off. AllocPage hands out guest
// addresses from its own bump allocator.
type offsetMemory struct {
	m    *mem.Memory
	off  mem.Addr
	next mem.Addr
}

func (o *offsetMemory) AllocPage() mem.Addr {
	if o.next == 0 {
		o.next = 0x10000
	}
	g := o.next
	o.next += mem.PageSize
	return g
}
func (o *offsetMemory) MustRead64(a mem.Addr) uint64 {
	return o.m.MustRead64(a + o.off)
}
func (o *offsetMemory) MustWrite64(a mem.Addr, v uint64) {
	o.m.MustWrite64(a+o.off, v)
}
func (o *offsetMemory) Read64(a mem.Addr) (uint64, error) { return o.m.Read64(a + o.off) }
func (o *offsetMemory) WriteWords(a mem.Addr, vs []uint64) {
	o.m.WriteWords(a+o.off, vs)
}

func TestTLBHitMissAndFlush(t *testing.T) {
	tlb := NewTLB(4)
	if _, _, ok := tlb.Lookup(1, 0x1000); ok {
		t.Fatal("hit in empty TLB")
	}
	tlb.Insert(1, 0x1000, 0x80000, PermRW)
	pa, perm, ok := tlb.Lookup(1, 0x1abc)
	if !ok || pa != 0x80abc || perm != PermRW {
		t.Fatalf("lookup = %#x %v %v", uint64(pa), perm, ok)
	}
	// A different VMID misses: entries are tagged.
	if _, _, ok := tlb.Lookup(2, 0x1000); ok {
		t.Fatal("cross-VMID hit")
	}
	tlb.Insert(2, 0x1000, 0x90000, PermR)
	tlb.FlushVMID(1)
	if _, _, ok := tlb.Lookup(1, 0x1000); ok {
		t.Fatal("entry survived VMID flush")
	}
	if _, _, ok := tlb.Lookup(2, 0x1000); !ok {
		t.Fatal("flush of VMID 1 removed VMID 2 entry")
	}
}

func TestTLBFIFOEviction(t *testing.T) {
	tlb := NewTLB(2)
	tlb.Insert(1, 0x1000, 0x80000, PermR)
	tlb.Insert(1, 0x2000, 0x81000, PermR)
	tlb.Insert(1, 0x3000, 0x82000, PermR) // evicts 0x1000
	if _, _, ok := tlb.Lookup(1, 0x1000); ok {
		t.Fatal("oldest entry not evicted")
	}
	if _, _, ok := tlb.Lookup(1, 0x3000); !ok {
		t.Fatal("newest entry missing")
	}
	if tlb.Len() != 2 {
		t.Fatalf("len = %d, want 2", tlb.Len())
	}
}

func TestTLBFlushPage(t *testing.T) {
	tlb := NewTLB(8)
	tlb.Insert(3, 0x1000, 0x80000, PermR)
	tlb.Insert(3, 0x2000, 0x81000, PermR)
	tlb.FlushPage(3, 0x1000)
	if _, _, ok := tlb.Lookup(3, 0x1000); ok {
		t.Fatal("flushed page still cached")
	}
	if _, _, ok := tlb.Lookup(3, 0x2000); !ok {
		t.Fatal("unrelated page flushed")
	}
}

func TestVTTBRRoundTrip(t *testing.T) {
	f := func(root uint32, vmid uint16) bool {
		r := mem.Addr(root) << 12
		v := MakeVTTBR(r, vmid)
		return VTTBRRoot(v) == r && VTTBRVMID(v) == vmid
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMapWalk(t *testing.T) {
	m := mem.New(0)
	tb := NewTables(m)
	f := func(page uint16, frame uint16) bool {
		ia := mem.Addr(page) << 12
		oa := mem.Addr(frame)<<12 + 0x1000000
		tb.Map(ia, oa, mem.PageSize, PermRW)
		res, ok := tb.Walk(ia + 0x123)
		return ok && res.OA == oa+0x123 && res.Perm == PermRW
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPermString(t *testing.T) {
	if PermRWX.String() != "rwx" || Perm(0).String() != "---" || PermR.String() != "r--" {
		t.Fatalf("Perm strings wrong: %v %v %v", PermRWX, Perm(0), PermR)
	}
}
