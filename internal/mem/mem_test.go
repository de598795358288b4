package mem

import (
	"testing"
	"testing/quick"
)

func TestReadWriteRoundTrip(t *testing.T) {
	m := New(0)
	m.MustWrite64(0x1000, 0xdeadbeefcafef00d)
	if got := m.MustRead64(0x1000); got != 0xdeadbeefcafef00d {
		t.Fatalf("Read64 = %#x, want %#x", got, uint64(0xdeadbeefcafef00d))
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	m := New(0)
	if got := m.MustRead64(0x7f000); got != 0 {
		t.Fatalf("unwritten memory read %#x, want 0", got)
	}
	v32, err := m.Read32(0x7f000)
	if err != nil || v32 != 0 {
		t.Fatalf("Read32 = %#x, %v; want 0, nil", v32, err)
	}
}

func TestWrite32ReadBack(t *testing.T) {
	m := New(0)
	if err := m.Write32(0x2004, 0x12345678); err != nil {
		t.Fatal(err)
	}
	v, err := m.Read32(0x2004)
	if err != nil || v != 0x12345678 {
		t.Fatalf("Read32 = %#x, %v", v, err)
	}
	// The 32-bit write must land little-endian inside the 64-bit view.
	if got := m.MustRead64(0x2000); got != 0x12345678<<32 {
		t.Fatalf("Read64 = %#x, want %#x", got, uint64(0x12345678)<<32)
	}
	// And a 64-bit write's low half is the 32-bit word at its address.
	m.MustWrite64(0x2008, 0x1122334455667788)
	lo, _ := m.Read32(0x2008)
	hi, _ := m.Read32(0x200c)
	if lo != 0x55667788 || hi != 0x11223344 {
		t.Fatalf("Read32 halves = %#x %#x, want 0x55667788 0x11223344", lo, hi)
	}
}

func TestLimitEnforced(t *testing.T) {
	m := New(1 << 20)
	if err := m.Write64(1<<20, 1); err == nil {
		t.Fatal("write beyond limit succeeded")
	}
	if err := m.Write64(1<<20-8, 1); err != nil {
		t.Fatalf("write at limit-8 failed: %v", err)
	}
	var bad *ErrBadAddress
	if err := m.Write64(1<<21, 1); err == nil {
		t.Fatal("expected error")
	} else if e, ok := err.(*ErrBadAddress); !ok {
		t.Fatalf("error type %T, want %T", err, bad)
	} else if e.Addr != 1<<21 {
		t.Fatalf("error addr %#x", uint64(e.Addr))
	}
}

func TestPageStraddleRejected(t *testing.T) {
	m := New(0)
	if err := m.Write64(PageSize-4, 1); err == nil {
		t.Fatal("page-straddling write succeeded")
	}
	if _, err := m.Read64(PageSize - 4); err == nil {
		t.Fatal("page-straddling read succeeded")
	}
}

func TestAllocPageDistinctAndZeroed(t *testing.T) {
	m := New(0)
	seen := map[Addr]bool{}
	for i := 0; i < 64; i++ {
		p := m.AllocPage()
		if p.PageOff() != 0 {
			t.Fatalf("AllocPage returned unaligned %#x", uint64(p))
		}
		if seen[p] {
			t.Fatalf("AllocPage returned %#x twice", uint64(p))
		}
		seen[p] = true
		if got := m.MustRead64(p); got != 0 {
			t.Fatalf("fresh page not zero: %#x", got)
		}
	}
}

func TestAllocSkipsPopulatedPages(t *testing.T) {
	m := New(0)
	// Populate the page the allocator would hand out first.
	m.MustWrite64(1<<20, 0xff)
	p := m.AllocPage()
	if p == 1<<20 {
		t.Fatal("allocator handed out an already-populated page")
	}
}

func TestZeroPage(t *testing.T) {
	m := New(0)
	p := m.AllocPage()
	m.MustWrite64(p+8, 42)
	m.ZeroPage(p + 16) // any address within the page
	if got := m.MustRead64(p + 8); got != 0 {
		t.Fatalf("ZeroPage left %#x", got)
	}
}

func TestAddrHelpers(t *testing.T) {
	a := Addr(0x12345)
	if a.PageBase() != 0x12000 {
		t.Fatalf("PageBase = %#x", uint64(a.PageBase()))
	}
	if a.PageOff() != 0x345 {
		t.Fatalf("PageOff = %#x", a.PageOff())
	}
}

func TestQuickRoundTrip(t *testing.T) {
	m := New(0)
	f := func(page uint32, off uint16, v uint64) bool {
		a := Addr(page)<<PageShift + Addr(off%(PageSize/8))*8
		m.MustWrite64(a, v)
		return m.MustRead64(a) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPopulatedPagesSorted(t *testing.T) {
	m := New(0)
	m.MustWrite64(0x5000, 1)
	m.MustWrite64(0x3000, 1)
	m.MustWrite64(0x9000, 1)
	pages := m.PopulatedPages()
	want := []Addr{0x3000, 0x5000, 0x9000}
	if len(pages) != len(want) {
		t.Fatalf("PopulatedPages = %v", pages)
	}
	for i := range want {
		if pages[i] != want[i] {
			t.Fatalf("PopulatedPages[%d] = %#x, want %#x", i, uint64(pages[i]), uint64(want[i]))
		}
	}
}
