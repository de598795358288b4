package mem

import (
	"errors"
	"testing"
)

func words(n int) []uint64 {
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = uint64(i)*0x0101010101010101 ^ 0xfedcba9876543210
	}
	return vs
}

// pageWords reads every word of every populated page.
func pageWords(m *Memory) map[Addr][PageSize / 8]uint64 {
	out := map[Addr][PageSize / 8]uint64{}
	for _, p := range m.PopulatedPages() {
		var ws [PageSize / 8]uint64
		for i := range ws {
			ws[i] = m.MustRead64(p + Addr(8*i))
		}
		out[p] = ws
	}
	return out
}

// TestWriteWordsMatchesWrite64Loop: a run leaves the bytes a MustWrite64
// loop leaves, for a partial run and a whole page.
func TestWriteWordsMatchesWrite64Loop(t *testing.T) {
	for _, tc := range []struct {
		a Addr
		n int
	}{{0x3000 + 0x1a8, 37}, {0x5000, PageSize / 8}, {0x7ff8, 1}} {
		got, want := New(0), New(0)
		vs := words(tc.n)
		got.WriteWords(tc.a, vs)
		for i, v := range vs {
			want.MustWrite64(tc.a+Addr(8*i), v)
		}
		g, w := pageWords(got), pageWords(want)
		if len(g) != len(w) {
			t.Fatalf("run %#x+%d: %d pages populated, want %d", uint64(tc.a), tc.n, len(g), len(w))
		}
		for p, ws := range w {
			if g[p] != ws {
				t.Fatalf("run %#x+%d: page %#x differs from the MustWrite64 loop", uint64(tc.a), tc.n, uint64(p))
			}
		}
	}
}

func panicOf(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// TestWriteWordsBadRunPanics: a run straddling a page, longer than a page
// or beyond installed memory panics with the *ErrBadAddress MustWrite64
// panics with.
func TestWriteWordsBadRunPanics(t *testing.T) {
	m := New(0x10000)
	var bad *ErrBadAddress
	if r, ok := panicOf(func() { m.MustWrite64(0x1ffc, 1) }).(error); !ok || !errors.As(r, &bad) {
		t.Fatalf("MustWrite64 straddle panic = %v, want *ErrBadAddress", r)
	}
	for _, tc := range []struct {
		a Addr
		n int
	}{{0x1ff8, 2}, {0x1000, PageSize/8 + 1}, {0x10000, 1}, {0xfff8, 2}} {
		r, ok := panicOf(func() { m.WriteWords(tc.a, words(tc.n)) }).(error)
		if !ok || !errors.As(r, &bad) {
			t.Fatalf("WriteWords(%#x, %d words) panic = %v, want *ErrBadAddress", uint64(tc.a), tc.n, r)
		}
	}
}

// TestWriteWordsEmptyRun: an empty run touches nothing, wherever it points.
func TestWriteWordsEmptyRun(t *testing.T) {
	m := New(0x10000)
	taps := 0
	m.Tap = func() { taps++ }
	m.WriteWords(0x2000, nil)
	m.WriteWords(0x20000, []uint64{})
	if taps != 0 || len(m.PopulatedPages()) != 0 {
		t.Fatalf("empty runs: %d taps, %d pages populated, want 0 and 0", taps, len(m.PopulatedPages()))
	}
}

// TestWriteWordsTaps: a run is one observed access, so the trace-JIT's
// memory poisoning still sees table builds.
func TestWriteWordsTaps(t *testing.T) {
	m := New(0)
	taps := 0
	m.Tap = func() { taps++ }
	m.WriteWords(0x4000, words(PageSize/8))
	if taps != 1 {
		t.Fatalf("Tap fired %d times for one run, want 1", taps)
	}
}

// TestWriteWordsConcurrentSkipsCache: in concurrent mode a run neither
// reads nor fills the last-page cache, like the single-word accessors.
func TestWriteWordsConcurrentSkipsCache(t *testing.T) {
	m := New(0)
	m.SetConcurrent(true)
	m.WriteWords(0x4000, words(8))
	if m.lastPage != nil || m.lastBase != 0 {
		t.Fatalf("concurrent run cached page %#x", uint64(m.lastBase))
	}
	if got := m.MustRead64(0x4008); got != words(8)[1] {
		t.Fatalf("Read64 after run = %#x, want %#x", got, words(8)[1])
	}
	m.SetConcurrent(false)
	m.WriteWords(0x6000, words(1))
	if m.lastPage == nil || m.lastBase != 0x6000 {
		t.Fatalf("sequential run left cache at %#x, want 0x6000", uint64(m.lastBase))
	}
}

// TestWriteWordsCopyOnWrite: a run into a snapshot page unshares it, and
// the snapshot keeps the old bytes.
func TestWriteWordsCopyOnWrite(t *testing.T) {
	m := New(0)
	m.MustWrite64(0x4000, 7)
	snap := m.Snapshot()
	m.WriteWords(0x4000, words(4))
	if got := m.MustRead64(0x4000); got != words(4)[0] {
		t.Fatalf("live word = %#x, want %#x", got, words(4)[0])
	}
	m.Restore(snap)
	if got := m.MustRead64(0x4000); got != 7 {
		t.Fatalf("restored word = %#x, want 7", got)
	}
}
